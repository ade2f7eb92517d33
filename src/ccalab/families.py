"""Constructors and claim-by-claim verifiers for the shipped ring families.

Each report compares engine-computed invariants against expected values
(normally supplied by the registry) and runs the structural cross-checks
that hold for every instance: the two conductor paths, the height
formulas, depth via two independent routes, and the exact-sequence
bookkeeping between a ring and its pullback model.  Conclusions that are
implied by cited theory but deliberately not recomputed (Gorensteinness
of blowup algebras, canonical-module identifications) are emitted as
informational entries, never as verified claims.
"""

from __future__ import annotations

import itertools

from .complexes import depth, depth_via_local_cohomology, dim_of_quotient
from .linalg import QQ
from .monomial import (
    Monomial,
    MonomialIdeal,
    intersect_all,
    quotient_height,
)
from .polys import p_linear, p_mono
from .pullback import (
    PullbackFamily,
    cokernel_profile,
    conductor,
    conductor_is_irrelevant_primary,
    regular_sequence_on_B,
    verify_generation,
)
from .report import VerificationReport
from .s2 import trace_ideal_check

# bench/digests.json pins the report bytes: the trace and B-regular claims
# are decided exactly, yet keep the degree stamps of the old sweeps (top
# generator degree + 3, l + 3, 3) and the trace's "up to degree" note
_LEGACY_STAMP = 3


def f_family_report(
    fam,
    field=QQ,
    expected=None,
    parameters=None,
    trace_powers=(),
):
    """Verify every computable claim about A = T/(cap (F_i)) and B = (+) T/(F_i).

    fam: an intersection family (q = 0) with at least two components.
    parameters: optional linear forms (lists of variable names) expected
    to generate the conductor over B.  trace_powers: exponents l >= 1 for
    which the trace test runs on (max ideal)^l.
    """
    if fam.ell < 2:
        raise ValueError("need at least two components")
    if any(ell < 1 for ell in trace_powers):
        raise ValueError("trace powers must be at least 1")
    expected = expected or {}
    rep = VerificationReport("f-family")

    ctx = fam.context
    defining = fam.defining_ideal()
    primes = [p.ideal() for p in fam.primes]
    maxideal = MonomialIdeal.from_support(ctx, ctx.names)

    cond = conductor(fam)  # raises MethodDisagreementError on a path mismatch
    rep.assert_true(
        "conductor.two-path",
        "A:B agrees between sum of J_i and direct solve",
        True,
    )
    if "conductor_gens" in expected:
        rep.check(
            "conductor.value",
            "computed conductor generators",
            sorted(expected["conductor_gens"]),
            sorted(g.format(ctx) for g in cond.gens),
        )
    if "conductor_is_max_ideal" in expected:
        rep.check(
            "conductor.is-max-ideal",
            "I = m",
            expected["conductor_is_max_ideal"],
            cond == maxideal,
        )

    ht = quotient_height(cond, defining)
    pair_formula = min(
        quotient_height(p + q, defining)
        for p, q in itertools.combinations(primes, 2)
    )
    rep.check(
        "height.pair-formula",
        "ht_A I = min ht_A(p_i + p_j)",
        ht,
        pair_formula,
    )
    min_setminus = min(
        (a.mask & ~b.mask).bit_count()
        for a, b in itertools.permutations(fam.primes, 2)
    )
    if fam.is_unmixed():
        rep.check(
            "height.setminus-formula",
            "ht_A I = min |F_i - F_j|",
            ht,
            min_setminus,
        )
    if "ht_I" in expected:
        rep.check("height.I", "ht_A I", expected["ht_I"], ht)

    dim_a = dim_of_quotient(defining)
    rep.check(
        "dim.formula",
        "dim A = n - min |F_i|",
        dim_a,
        ctx.n - min(p.size() for p in fam.primes),
    )
    if "dim_A" in expected:
        rep.check("dim.A", "dim A", expected["dim_A"], dim_a)

    depth_a = depth(defining, field)
    rep.check(
        "depth.two-routes",
        "depth via Betti table equals depth via links",
        depth_a,
        depth_via_local_cohomology(defining, field),
    )
    if "depth_A" in expected:
        rep.check("depth.A", "depth A", expected["depth_A"], depth_a)

    if fam.is_unmixed():
        depth_b = min(depth(p, field) for p in primes)
        rep.check(
            "depth.B",
            "depth_A B = d",
            dim_a,
            depth_b,
        )
        if min_setminus >= 2:
            rep.check(
                "theorem.family-bounds",
                "ht I >= 2 and 0 < depth A < d",
                True,
                ht >= 2 and 0 < depth_a < dim_a,
            )
            rep.info(
                "canonical.module",
                "K_A and B agree as A-modules",
                "implied by the conductor/depth certificates; not recomputed",
            )

    if "depth_quotients" in expected:
        vals = [depth(cond + p, field) for p in primes]
        rep.check(
            "depth.quotients",
            "depth A/(I + p_i) per component",
            expected["depth_quotients"],
            vals,
        )
        rep.check(
            "depth.B-over-I",
            "depth_A B/I = min over components",
            expected.get("depth_B_over_I", min(expected["depth_quotients"])),
            min(vals),
        )
    if "depth_A_over_I" in expected:
        rep.check(
            "depth.A-over-I",
            "depth A/I",
            expected["depth_A_over_I"],
            depth(cond, field),
        )
    if "pairwise_intersection_identity" in expected:
        rhs = intersect_all(
            [p + q for p, q in itertools.combinations(primes, 2)]
        )
        rep.check(
            "conductor.pairwise-intersection",
            "I equals the intersection of the pairwise prime sums",
            expected["pairwise_intersection_identity"],
            cond == rhs,
        )
    if "product_form" in expected:
        rhs = _product_form_ideal(ctx, expected["product_form"])
        rep.check(
            "conductor.product-form",
            "closed product form of I",
            True,
            cond == rhs,
        )

    if conductor_is_irrelevant_primary(fam):
        prof = cokernel_profile(fam)
        if "cokernel_length" in expected:
            rep.check(
                "cokernel.length",
                "length of B/A",
                expected["cokernel_length"],
                prof.length,
            )
        if "socle_dim" in expected:
            rep.check(
                "cokernel.socle",
                "socle dimension of B/A",
                expected["socle_dim"],
                prof.socle_dim,
            )
        rep.assert_true(
            "cokernel.annihilated",
            "the conductor kills B/A",
            prof.annihilator_ok,
        )

    def trace_claim(claim_id, anchor, ideal, stamp):
        passed, reason = trace_ideal_check(fam, ideal)
        note = f"{reason} up to degree {stamp}" if passed else reason
        rep.check(claim_id, anchor, True, passed, bound=stamp, note=note)

    trace_claim(
        "trace.conductor",
        "the conductor is a trace ideal with I:I = B",
        cond,
        cond.max_gen_degree() + _LEGACY_STAMP,
    )
    for ell in trace_powers:
        power = maxideal
        for _ in range(ell - 1):
            power = power * maxideal
        trace_claim(
            f"trace.max-ideal-power-{ell}",
            f"m^{ell} is a trace ideal and B = m^{ell}:m^{ell}",
            power,
            ell + _LEGACY_STAMP,
        )

    if parameters:
        forms = [p_linear(ctx.n, [ctx.index(nm) for nm in names]) for names in parameters]
        ok = verify_generation(fam, cond, forms)
        rep.check(
            "generation.parameters",
            "conductor = sum a_i B",
            expected.get("generation", True),
            ok,
        )
        rep.check(
            "sequence.B-regular",
            "the parameters form a B-regular sequence",
            True,
            regular_sequence_on_B(fam, forms),
            bound=_LEGACY_STAMP,
        )
        if ok and expected.get("generation", True):
            rep.info(
                "s2.hull-is-B",
                "a_i B = U(a_i A) summed over i",
                "equivalent to the verified conductor generation identity",
                computed=True,
            )
    return rep


def _product_form_ideal(ctx, form):
    """Build sum-of-products closed forms from the registry description.

    form: {"linear": [names], "products": [[names, names], ...]}
    """
    total = MonomialIdeal.zero(ctx)
    if form.get("linear"):
        total = total + MonomialIdeal.from_support(ctx, form["linear"])
    for left, right in form.get("products", ()):
        total = total + (
            MonomialIdeal.from_support(ctx, left)
            * MonomialIdeal.from_support(ctx, right)
        )
    return total


class ArtinianQuotient:
    """S/q for a monomial ideal q with dim S/q = 0."""

    __slots__ = ("context", "ideal")

    def __init__(self, context, ideal):
        if ideal.context != context:
            raise ValueError("ideal in wrong context")
        if ideal.is_unit() or ideal.is_zero():
            raise ValueError("need a proper nonzero ideal")
        primes = ideal.minimal_primes()
        full = (1 << context.n) - 1
        if len(primes) != 1 or primes[0].mask != full:
            raise ValueError("quotient is not Artinian")
        self.context = context
        self.ideal = ideal

    def standard_monomials(self):
        out = []
        for exps in itertools.product(*(range(c) for c in self.ideal.pure_powers())):
            m = Monomial(exps)
            if not self.ideal.contains(m):
                out.append(m)
        return sorted(out, key=lambda m: (m.degree(), m.exps))


def socle_and_type(q):
    """Length and socle dimension of an Artinian monomial quotient."""
    std = q.standard_monomials()
    n = q.context.n
    socle = [
        m
        for m in std
        if all(q.ideal.contains(m * Monomial.variable(n, i)) for i in range(n))
    ]
    return {"length": len(std), "socle_dim": len(socle)}


def k_plus_q_report(q, expected=None):
    """Hypothesis checks for the subring k + q of S (q a parameter ideal).

    Verifies the colength-two hypothesis, the socle type, and the derived
    colength of the subring; the blowup conclusion itself is recorded as
    implied, never recomputed.
    """
    expected = expected or {}
    rep = VerificationReport("k-plus-q")

    n = q.context.n
    rep.check(
        "parameter-shape",
        "q is generated by d = dim S elements",
        True,
        len(q.ideal.gens) == n,
    )
    st = socle_and_type(q)
    if "length" in expected:
        rep.check(
            "length",
            "length of S/q",
            expected["length"],
            st["length"],
        )
    rep.check(
        "hypothesis.length-two",
        "length of S/q equals 2",
        expected.get("hypothesis_length_two", True),
        st["length"] == 2,
    )
    if "socle_dim" in expected:
        rep.check(
            "socle-type",
            "Cohen-Macaulay type of S/q",
            expected["socle_dim"],
            st["socle_dim"],
        )
    colength = len([m for m in q.standard_monomials() if m.degree() > 0])
    rep.check(
        "subring-colength",
        "length of S/A is one less than length of S/q",
        st["length"] - 1,
        colength,
    )
    if "subring_colength" in expected:
        rep.check(
            "subring-colength.value",
            "length of S/A",
            expected["subring_colength"],
            colength,
        )
    # q stays an ideal of S: gens times variables stay inside q
    stable = all(
        q.ideal.contains(g * Monomial.variable(n, i))
        for g in q.ideal.gens
        for i in range(n)
    )
    rep.assert_true(
        "conductor-surrogate",
        "q S = q, so S embeds in m:m",
        stable,
    )
    rep.info(
        "endo-ring",
        "m:m = S",
        "reverse inclusion holds by normality of the ambient ring; not recomputed",
    )
    if st["length"] == 2 and expected.get("hypothesis_length_two", True):
        rep.info(
            "rees.gorenstein",
            "the blowup of Q^d along k + q is Gorenstein",
            "implied by the verified hypothesis chain; not recomputed",
        )
    return rep


def fiber_product_report(q, expected=None, parameters=None):
    """Claims for the congruence pullback A = S x_{S/q} S inside B = S x S."""
    expected = expected or {}
    rep = VerificationReport("fiber-product")

    fam = PullbackFamily.congruence(q.ideal)
    cond = conductor(fam)
    rep.assert_true(
        "conductor.two-path",
        "A:B = qB, agreed by both computation paths",
        True,
    )
    rep.check(
        "conductor.equals-qB",
        "A:B = Ann_A(S/q) = qB",
        True,
        cond == q.ideal,
    )
    prof = cokernel_profile(fam)
    st = socle_and_type(q)
    rep.check(
        "cokernel.length-vs-ring",
        "length of B/A equals length of S/q",
        st["length"],
        prof.length,
    )
    if "length" in expected:
        rep.check(
            "cokernel.length",
            "length of B/A",
            expected["length"],
            prof.length,
        )
    rep.check(
        "cokernel.socle-vs-ring",
        "socle of B/A matches the socle of S/q",
        st["socle_dim"],
        prof.socle_dim,
    )
    if "type_r" in expected:
        rep.check(
            "type.r",
            "r_A(B/A) = r(S/q)",
            expected["type_r"],
            prof.socle_dim,
        )
    rep.check(
        "hypothesis.r-is-one",
        "r_A(B/A) = 1",
        expected.get("hypothesis_r_is_one", True),
        prof.socle_dim == 1,
    )
    rep.assert_true(
        "cokernel.annihilated",
        "qB kills B/A",
        prof.annihilator_ok,
    )
    if parameters:
        forms = [p_mono(tuple(e)) for e in parameters]
        ok = verify_generation(fam, cond, forms)
        rep.check(
            "generation.alphas",
            "qB = sum alpha_i B for alpha_i = (a_i, a_i)",
            expected.get("generation", True),
            ok,
        )
    if prof.socle_dim == 1 and expected.get("hypothesis_r_is_one", True):
        rep.info(
            "rees.gorenstein",
            "the blowup of Q^d along A is Gorenstein",
            "implied by the verified hypothesis chain; not recomputed",
        )
    return rep
