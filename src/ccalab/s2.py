"""Unmixed components, fraction-membership tests, and trace-ideal checks.

The basic objects are quotient rings A = T/a presented by monomial
ideals.  For a non-zerodivisor a on A, the unmixed component U(aA) is
the intersection of the primary components of (a) + a at its
inclusion-minimal primes; membership of a fraction m/a in the smallest
extension of A with a height >= 2 conductor is decided by m in U(aA).
"""

from __future__ import annotations

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


# the oracle's multiplier sweep stops at this degree
_ORACLE_DEGREE_CAP = 4


def s2_membership_oracle(ring, m, a):
    """Brute-force oracle for s2_membership (test-only device).

    Enumerates all monomials j with deg j <= _ORACLE_DEGREE_CAP such that
    j*m lies in (a) + defining, and asks whether the ideal they generate
    has height >= 2 in the quotient.  Meant for small variable counts.
    """
    if not ring.is_nonzerodivisor(a):
        raise ZeroDivisorError(f"{a!r} is a zerodivisor on the quotient")
    target = MonomialIdeal(ring.context, [a]) + ring.defining
    if target.contains(m):
        return True
    n = ring.context.n
    found = []
    for d in range(_ORACLE_DEGREE_CAP + 1):
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


def trace_ideal_check(fam, ideal):
    """Is I a trace ideal of A with I:I = A:I = B?  Returns (passed, reason).

    Preconditions (violations raise): I contains a non-zerodivisor and
    its height in A is at least 2.  Certificate checks (a failure returns
    False with its reason): the conductor has height >= 2, the component
    supports have equal size (A unmixed), I sits inside the conductor, and
    I is B-stable.  These certify the trace property.

    The endo-ring comparison then asks whether I:I contains B, by a
    linear-algebra witness independent of the B-stability check (which
    lifts products to T): every e_i g, over the idempotents e_i and the
    generators g of I, must lie in the degree-deg(g) piece of IA.  Each
    x^m e_i is the diagonal x^m of A times e_i, so B = sum A e_i, and I:I,
    an A-module, contains B iff it contains every e_i.  The e_i have
    degree 0, so this decides I:I = B in every degree at once and nothing
    is swept over degrees.  I <= A gives I:I <= A:I <= B, so A:I = B as well.
    """
    defining = fam.defining_ideal()
    cond = conductor(fam)
    # precondition: I has a non-zerodivisor iff it escapes every associated
    # prime P_i (the components); a monomial is in P_i iff its support meets F_i
    for p in fam.primes:
        if all(g.support_mask() & p.mask for g in ideal.gens):
            raise ZeroDivisorError("the ideal consists of zerodivisors")
    if (ideal + defining).is_unit():
        return True, "unit ideal"
    if quotient_height(ideal, defining) < 2:
        raise ValueError("the trace certificate needs height >= 2")
    if quotient_height(cond, defining) < 2:
        return False, "conductor height < 2"
    if len({p.size() for p in fam.primes}) != 1:
        return False, "components not unmixed"
    if not all(cond.contains(g) for g in ideal.gens):
        return False, "ideal escapes the conductor"
    stable = ideal + defining
    if any(lift_failures(fam, p_of_monomial(g), stable) for g in ideal.gens):
        return False, "ideal not B-stable"
    if GradedSubmodule.from_ideal(fam, ideal).missing(ideal):
        return False, "colon modules differ from B"
    return True, "I:I = A:I = B"


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
