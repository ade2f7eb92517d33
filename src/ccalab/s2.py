"""Unmixed components, fraction-membership tests, and trace-ideal checks.

The basic objects are quotient rings A = T/a presented by monomial
ideals.  For a non-zerodivisor a on A, the unmixed component U(aA) is
the intersection of the primary components of (a) + a at its
inclusion-minimal primes; membership of a fraction m/a in the smallest
extension of A with a height >= 2 conductor is decided by m in U(aA).

Verdicts are three-valued so a degree-bounded certificate is never
silently reported as an exact one.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

from .errors import UnitIdealError, ZeroDivisorError
from .monomial import (
    Monomial,
    MonomialIdeal,
    VarContext,
    monomials_of_degree,
    quotient_height,
)
from .polys import p_degree, p_of_monomial
from .pullback import (
    GradedSubmodule,
    colon_in_B,
    conductor,
    lift_failures,
    verify_generation,
)


@dataclass(frozen=True)
class QuotientRing:
    """A = T/a for a proper (or zero) monomial ideal a."""

    context: VarContext
    defining: MonomialIdeal

    def __post_init__(self):
        if self.defining.context != self.context:
            raise ValueError("defining ideal in wrong context")
        if self.defining.is_unit():
            raise UnitIdealError("the zero ring is not a quotient ring here")

    @classmethod
    def ambient(cls, ctx):
        return cls(ctx, MonomialIdeal.zero(ctx))

    def associated_primes(self):
        if self.defining.is_zero():
            return []
        return self.defining.associated_primes()

    def is_nonzerodivisor(self, a):
        """A monomial is a non-zerodivisor iff it avoids every associated prime."""
        if a.is_one():
            return True
        return all(a.support_mask() & p.mask == 0 for p in self.associated_primes())


def unmixed_component_principal(ring, a):
    """U(aA): the unmixed part of the principal ideal aA, lifted to T.

    Returns the preimage in T (a monomial ideal containing the defining
    ideal).  The unit branch of the definition (aA = A) returns the unit
    ideal; zerodivisors are rejected because the membership theorem needs
    a in W(A).
    """
    if not ring.is_nonzerodivisor(a):
        raise ZeroDivisorError(f"{a!r} is a zerodivisor on the quotient")
    return (MonomialIdeal(ring.context, [a]) + ring.defining).unmixed_part()


def s2_membership(ring, m, a):
    """Is the fraction m/a in the smallest (S2) extension of A?

    True iff m lies in U(aA); decides membership without ever building
    the extension.
    """
    return unmixed_component_principal(ring, a).contains(m)


def s2_membership_oracle(ring, m, a, degree_cap=4):
    """Brute-force oracle for s2_membership (test-only device).

    Enumerates all monomials j with deg j <= degree_cap such that
    j*m lies in (a) + defining, and asks whether the ideal they generate
    has height >= 2 in the quotient.  Documented caps: degree 4, small
    variable counts.
    """
    if not ring.is_nonzerodivisor(a):
        raise ZeroDivisorError(f"{a!r} is a zerodivisor on the quotient")
    target = MonomialIdeal(ring.context, [a]) + ring.defining
    if target.contains(m):
        return True
    n = ring.context.n
    found = []
    for d in range(degree_cap + 1):
        for exps in monomials_of_degree(n, d):
            j = Monomial(exps)
            if target.contains(j * m):
                found.append(j)
    J = MonomialIdeal(ring.context, found)
    if J.is_zero():
        return False
    if (J + ring.defining).is_unit():
        return True
    return quotient_height(J, ring.defining) >= 2


class Verdict(enum.Enum):
    PASS = "pass"
    FAIL = "fail"
    BOUNDED = "verified-up-to-bound"

    def __bool__(self):
        return self is not Verdict.FAIL


@dataclass(frozen=True)
class TraceVerdict:
    is_trace: Verdict
    endo_ring_is_B: Verdict | None
    bound: int | None
    reason: str

    def to_json(self):
        return {
            "is_trace": self.is_trace.value,
            "endo_ring_is_B": None
            if self.endo_ring_is_B is None
            else self.endo_ring_is_B.value,
            "bound": self.bound,
            "reason": self.reason,
        }


def trace_ideal_check_ambient(ideal):
    """Trace test in the ambient polynomial ring, by colon arithmetic.

    With a a monomial in I: I is trace iff aT : I == aI : I (both colons
    are the a-scaled versions of T:I and I:I inside the fraction field).
    """
    ctx = ideal.context
    if ideal.is_unit():
        return TraceVerdict(Verdict.PASS, None, None, "unit ideal: T:T = T = T:T")
    if ideal.is_zero():
        raise ValueError("trace test needs a nonzero ideal")
    a = ideal.gens[0]
    aT = MonomialIdeal(ctx, [a])
    left = aT.colon(ideal)
    right = (aT * ideal).colon(ideal)
    if left == right:
        return TraceVerdict(Verdict.PASS, None, None, "aT:I = aI:I")
    return TraceVerdict(Verdict.FAIL, None, None, "aT:I != aI:I")


def trace_ideal_check(fam, ideal, bound=None):
    """Certificate pipeline: is I a trace ideal of A with I:I = A:I = B?

    Preconditions (violations raise): I contains a non-zerodivisor and
    its height in A is at least 2.  Certificate checks (failures return a
    FAIL verdict, meaning the certificate does not apply): the conductor
    has height >= 2, the component supports have equal size (A unmixed),
    I sits inside the conductor, and I is B-stable.  A full pass
    certifies the trace property exactly; the optional endo-ring
    comparison is degree-bounded.
    """
    defining = fam.defining_ideal()
    cond = conductor(fam)
    # precondition: a non-zerodivisor exists in I iff I escapes every
    # associated prime (these are the components, the ideal is radical)
    for p in fam.primes:
        if all(g.support_mask() & ~p.mask == 0 for g in ideal.gens):
            raise ZeroDivisorError("the ideal consists of zerodivisors")
    if (ideal + defining).is_unit():
        return TraceVerdict(Verdict.PASS, Verdict.PASS, None, "unit ideal")
    if quotient_height(ideal, defining) < 2:
        raise ValueError("the trace certificate needs height >= 2")
    if quotient_height(cond, defining) < 2:
        return TraceVerdict(Verdict.FAIL, None, None, "conductor height < 2")
    sizes = {p.size() for p in fam.primes}
    if len(sizes) != 1:
        return TraceVerdict(Verdict.FAIL, None, None, "components not unmixed")
    for g in ideal.gens:
        if not cond.contains(g):
            return TraceVerdict(
                Verdict.FAIL, None, None, "ideal escapes the conductor"
            )
    stable = ideal + defining
    if any(lift_failures(fam, p_of_monomial(g), stable) for g in ideal.gens):
        return TraceVerdict(Verdict.FAIL, None, None, "ideal not B-stable")
    if bound is None:
        return TraceVerdict(
            Verdict.PASS,
            None,
            None,
            "certificate: conductor ht >= 2, unmixed, I <= A:B, I B-stable",
        )
    # degree-bounded endomorphism-ring comparison: I:I and A:I both fill B
    sub_i = GradedSubmodule.from_ideal(fam, ideal)
    sub_a = GradedSubmodule.unit_A(fam)
    endo = colon_in_B(fam, sub_i, ideal, bound=bound)
    dual = colon_in_B(fam, sub_a, ideal, bound=bound)
    if endo.equals_all_of_B(fam) and dual.equals_all_of_B(fam):
        return TraceVerdict(
            Verdict.PASS, Verdict.BOUNDED, bound, f"I:I = A:I = B up to degree {bound}"
        )
    return TraceVerdict(Verdict.FAIL, Verdict.FAIL, bound, "colon modules differ from B")


def s2_equals_B_test(fam, a, parameters=None):
    """Does a*B equal U(aA) (so the finite (S2)-hull is exactly B)?

    For a monomial non-zerodivisor both sides are compared exactly on
    generators.  For a linear form inside an intersection family, the
    test routes through the equivalent conductor identity
    conductor = sum a_i B, which needs the full parameter list.
    """
    defining = fam.defining_ideal()
    ring = QuotientRing(fam.context, defining)
    cond = conductor(fam)
    if isinstance(a, Monomial):
        if not cond.contains(a):
            raise ValueError("element must lie in the conductor")
        U = unmixed_component_principal(ring, a)
        # aB <= U: each a e_j lies in A and lifts into U
        if lift_failures(fam, p_of_monomial(a), U):
            return False
        # U <= aB: solve for each generator inside the degree-matched piece
        return not GradedSubmodule.multiples(fam, [p_of_monomial(a)]).missing(U)
    if parameters is None:
        raise ValueError("linear elements need the full parameter list")
    if p_degree(a) is None:
        raise ValueError("element must be homogeneous")
    if not any(a == p for p in parameters):
        raise ValueError("element must belong to the supplied parameter system")
    ok, _ = verify_generation(fam, cond, parameters)
    return ok
