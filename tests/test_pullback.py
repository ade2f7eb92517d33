import random
from collections import Counter
from fractions import Fraction

import pytest

from ccalab.errors import (
    ContextMismatchError,
    InfiniteLengthError,
    MethodDisagreementError,
    PrecisionError,
)
from ccalab.linalg import GF, QQ, Subspace
from ccalab.monomial import MonomialIdeal, MonomialPrime, VarContext, make_context
from ccalab.polys import p_in_ideal, p_linear, p_mono, p_of_monomial
from ccalab import pullback
from ccalab.pullback import (
    GradedSubmodule,
    PullbackFamily,
    cokernel_profile,
    colon_in_B,
    conductor,
    conductor_is_irrelevant_primary,
    lift_failures,
    monomial_span,
    regular_sequence_on_B,
    stable_subspace,
    verify_generation,
)
from ccalab.suites import random_antichain, random_monomial_ideal

import oracles
from oracles import BElement

CTX4 = VarContext(("X", "Y", "Z", "W"))


def _unit_A(fam):
    """A itself inside B, generated by 1."""
    return GradedSubmodule.from_ideal(fam, MonomialIdeal.unit(fam.context))


def _kind(fam):
    return "intersection" if fam.q.is_zero() else "congruence"


def _linear_form(n, support, coeffs):
    """The sum of c * x_i over i in support (0-based) and c in coeffs."""
    return {tuple(int(j == i) for j in range(n)): Fraction(c) for i, c in zip(support, coeffs)}


@pytest.fixture
def two_planes():
    return PullbackFamily.from_supports(CTX4, [["X", "Y"], ["Z", "W"]])


@pytest.fixture
def overlap6():
    ctx = make_context(6)
    return PullbackFamily.from_supports(
        ctx,
        [
            ["x1", "x2", "x3", "x4"],
            ["x3", "x4", "x5", "x6"],
            ["x5", "x6", "x1", "x2"],
        ],
    )


@pytest.fixture
def fiber_x1sq():
    ctx = make_context(2, "X")
    return PullbackFamily.congruence(MonomialIdeal.from_strings(ctx, ["X1^2", "X2"]))


# -- construction ---------------------------------------------------------------


_XY = MonomialPrime(CTX4, CTX4.mask_of(["X", "Y"]))
_ZW = MonomialPrime(CTX4, CTX4.mask_of(["Z", "W"]))
_ZEROS = (MonomialPrime(CTX4, 0),) * 2
_ZERO_Q = MonomialIdeal.zero(CTX4)
_Q = MonomialIdeal.from_strings(CTX4, ["X^2", "Y"])
_OTHER = make_context(4)


@pytest.mark.parametrize(
    "build, error, match",
    [
        pytest.param(
            lambda: PullbackFamily.from_supports(CTX4, []), ValueError, "one component",
            id="no-component",
        ),
        pytest.param(
            lambda: PullbackFamily.from_supports(CTX4, [[]]), ValueError, "nonzero primes",
            id="zero-prime",
        ),
        pytest.param(
            lambda: PullbackFamily.from_supports(CTX4, [["X", "Y"], ["X"]]),
            ValueError, "antichain",
            id="nested-supports",
        ),
        # one prime object passed twice is a repeated component, not an antichain
        pytest.param(
            lambda: PullbackFamily(CTX4, (_XY, _XY), _ZERO_Q), ValueError, "antichain",
            id="same-prime-twice",
        ),
        pytest.param(
            lambda: PullbackFamily(CTX4, _ZEROS, _ZERO_Q), ValueError, "nonzero primes",
            id="zero-primes-with-zero-q",
        ),
        pytest.param(
            lambda: PullbackFamily.congruence(MonomialIdeal.unit(CTX4)), ValueError, "proper",
            id="unit-q",
        ),
        pytest.param(
            lambda: PullbackFamily(CTX4, (_XY, MonomialPrime(_OTHER, 0b1100)), _ZERO_Q),
            ContextMismatchError, "context",
            id="prime-from-another-context",
        ),
        pytest.param(
            lambda: PullbackFamily(CTX4, _ZEROS, MonomialIdeal.from_strings(_OTHER, ["x1"])),
            ContextMismatchError, "context",
            id="q-from-another-context",
        ),
        pytest.param(
            lambda: PullbackFamily(CTX4, (_XY, _ZW), _Q), ValueError, "two zero primes",
            id="nonzero-q-beside-nonzero-primes",
        ),
        pytest.param(
            lambda: PullbackFamily(CTX4, _ZEROS[:1], _Q), ValueError, "two zero primes",
            id="nonzero-q-beside-one-zero-prime",
        ),
    ],
)
def test_every_rejection_raises(build, error, match):
    with pytest.raises(error, match=match):
        build()


# -- image membership -------------------------------------------------------------


def test_diagonal_membership_with_witness(two_planes):
    belt = BElement.from_T(two_planes, p_linear(4, [0]))
    inside, witness = belt.in_A()
    assert inside
    assert witness == {(1, 0, 0, 0): Fraction(1)}


def test_overlap_membership_single_component(overlap6):
    # x5 lies in the second and third primes, so (x5, 0, 0) is the image of x5
    belt = BElement(overlap6, (p_linear(6, [4]), {}, {}))
    inside, witness = belt.in_A()
    assert inside
    assert witness == {(0, 0, 0, 0, 1, 0): Fraction(1)}


def test_membership_fails_on_mismatched_coefficients(two_planes):
    # X survives only in the second component; placing it in the first
    # component alone is fine, but a mismatch across shared monomials fails
    shared = BElement.from_T(two_planes, p_mono((0, 0, 0, 0)))
    bad = BElement(
        two_planes, (shared.parts[0], {})
    )  # (1, 0): the unit survives everywhere
    assert not bad.in_A()[0]


def test_congruence_membership(fiber_x1sq):
    one = p_mono((0, 0))
    assert not BElement(fiber_x1sq, (one, {})).in_A()[0]  # (1, 0): 1 not in q
    x2 = p_mono((0, 1))
    assert BElement(fiber_x1sq, (x2, {})).in_A()[0]  # (X2, 0): X2 in q
    assert BElement.from_T(fiber_x1sq, p_linear(2, [0])).in_A()[0]  # diagonal


# -- conductor ---------------------------------------------------------------------


def test_conductor_two_planes_is_max_ideal(two_planes):
    assert conductor(two_planes) == MonomialIdeal.from_support(CTX4, CTX4.names)


def test_conductor_overlap_is_max_ideal(overlap6):
    ctx = overlap6.context
    assert conductor(overlap6) == MonomialIdeal.from_support(ctx, ctx.names)


def test_conductor_congruence_returns_q(fiber_x1sq):
    assert conductor(fiber_x1sq) == fiber_x1sq.q


def test_conductor_is_computed_once_per_family(monkeypatch):
    fam = PullbackFamily.from_supports(CTX4, [["X", "Y"], ["Z", "W"]])
    first = conductor(fam)
    # a corrupted direct path disagrees on a new family; the checked result is reused
    monkeypatch.setattr(PullbackFamily, "a_basis", lambda self, exps, comps: [])
    with pytest.raises(MethodDisagreementError):
        conductor(PullbackFamily.from_supports(fam.context, [["X", "Y"], ["Z", "W"]]))
    assert conductor(fam) is first


def test_conductor_not_always_irrelevant_primary():
    ctx = VarContext(("X1", "X2", "Y1", "Y2", "Z1", "Z2"))
    fam = PullbackFamily.from_supports(
        ctx, [["X1", "X2"], ["Y1", "Y2"], ["Z1", "Z2"]]
    )
    assert not conductor_is_irrelevant_primary(fam)
    with pytest.raises(InfiniteLengthError):
        cokernel_profile(fam)


# -- cokernel profiles ---------------------------------------------------------------


def test_cokernel_two_planes(two_planes):
    prof = cokernel_profile(two_planes)
    assert prof.length == 1
    assert prof.hilbert == (1,)
    assert prof.socle_dim == 1
    assert prof.annihilator_ok


def test_cokernel_overlap_family(overlap6):
    prof = cokernel_profile(overlap6)
    assert prof.length == 2
    assert prof.socle_dim == 2
    assert prof.hilbert == (2,)
    assert prof.annihilator_ok


def test_cokernel_fiber(fiber_x1sq):
    prof = cokernel_profile(fiber_x1sq)
    assert prof.length == 2
    assert prof.hilbert == (1, 1)
    assert prof.socle_dim == 1
    assert prof.annihilator_ok


def test_cokernel_degenerate_single_component():
    ctx = VarContext(("x", "y", "u"))
    fam = PullbackFamily.from_supports(ctx, [["x", "y"]])
    prof = cokernel_profile(fam)
    assert prof.length == 0
    assert prof.socle_dim == 0


def test_cokernel_negative_control():
    ctx = make_context(2, "X")
    fam = PullbackFamily.congruence(
        MonomialIdeal.from_strings(ctx, ["X1^2", "X1*X2", "X2^2"])
    )
    prof = cokernel_profile(fam)
    assert prof.length == 3
    assert prof.socle_dim == 2


# -- colon modules --------------------------------------------------------------------


def test_colon_by_unit_recovers_A(two_planes):
    unit_ideal = MonomialIdeal.unit(CTX4)
    sub_a = _unit_A(two_planes)
    res = colon_in_B(two_planes, sub_a, unit_ideal, bound=4)
    for d in range(5):
        assert res.piece(d) == sub_a.piece(d)
    assert res.bound == 4


def test_colon_max_ideal_powers_fill_B(two_planes):
    m = MonomialIdeal.from_support(CTX4, CTX4.names)
    power = m
    for ell in (1, 2, 3):
        sub = GradedSubmodule.from_ideal(two_planes, power)
        res = colon_in_B(two_planes, sub, power, bound=4)
        assert oracles.fills_B(two_planes, res)
        power = power * m


def test_colon_of_A_by_max_ideal_fills_B(overlap6):
    ctx = overlap6.context
    m = MonomialIdeal.from_support(ctx, ctx.names)
    res = colon_in_B(overlap6, _unit_A(overlap6), m, bound=3)
    assert oracles.fills_B(overlap6, res)


def test_colon_default_bound(two_planes):
    m = MonomialIdeal.from_support(CTX4, CTX4.names)
    res = colon_in_B(two_planes, _unit_A(two_planes), m)
    assert res.bound == 1 + 4
    assert "degree 5" in res.note


def test_colon_bound_below_generator_degree_is_rejected(two_planes):
    # an empty or too short degree range must never read as "all of B"
    m = MonomialIdeal.from_support(CTX4, CTX4.names)
    sub_a = _unit_A(two_planes)
    for bound in (-1, -5):
        with pytest.raises(PrecisionError):
            colon_in_B(two_planes, sub_a, m, bound=bound)
    with pytest.raises(PrecisionError):
        colon_in_B(two_planes, sub_a, m * m, bound=1)
    assert colon_in_B(two_planes, sub_a, m * m, bound=2).bound == 2


# -- generation and regular sequences ---------------------------------------------------


def test_generation_overlap(overlap6):
    cond = conductor(overlap6)
    a = p_linear(6, [0, 2, 4])
    b = p_linear(6, [1, 3, 5])
    assert verify_generation(overlap6, cond, [a, b])
    assert not verify_generation(overlap6, cond, [a])
    # aB lies in the conductor, but misses one generator in each component
    assert lift_failures(overlap6, a, cond) == []
    missing = GradedSubmodule.multiples(overlap6, [a]).missing(cond)
    assert [f"{g.format(overlap6.context)} e_{i}" for i, g in missing] == [
        "x6 e_0",
        "x4 e_2",
        "x2 e_1",
    ]


def test_generation_rejects_inhomogeneous(overlap6):
    cond = conductor(overlap6)
    bad = {(1, 0, 0, 0, 0, 0): Fraction(1), (2, 0, 0, 0, 0, 0): Fraction(1)}
    with pytest.raises(ValueError):
        verify_generation(overlap6, cond, [bad])


def test_multiples_need_homogeneous_components(overlap6):
    x1, x6_sq = p_mono((1, 0, 0, 0, 0, 0)), p_mono((0, 0, 0, 0, 0, 2))
    # x1 survives in component 1 only, so x1 + x1^2 is inhomogeneous there
    with pytest.raises(ValueError):
        GradedSubmodule.multiples(overlap6, [{**x1, (2, 0, 0, 0, 0, 0): Fraction(1)}])
    # x1 + x6^2 is x6^2 in component 0, x1 in component 1 and 0 in component 2:
    # each a e_i is homogeneous, and the vanishing a e_2 is dropped
    sub = GradedSubmodule.multiples(overlap6, [{**x1, **x6_sq}])
    assert sub.gens == ((2, (x6_sq, {}, {})), (1, ({}, x1, {})))


def test_generation_fiber_alphas(fiber_x1sq):
    cond = conductor(fiber_x1sq)
    assert verify_generation(fiber_x1sq, cond, [p_mono((2, 0)), p_mono((0, 1))])
    assert not verify_generation(fiber_x1sq, cond, [p_mono((2, 0))])


def test_regular_sequence(two_planes):
    a = p_linear(4, [0, 2])
    b = p_linear(4, [1, 3])
    assert regular_sequence_on_B(two_planes, [a, b])
    # a, a is never regular: multiplication by a is zero on B/aB
    assert not regular_sequence_on_B(two_planes, [a, a])
    # the rank test decides linear forms only
    square = p_mono((2, 0, 0, 0))
    for bad in (square, {**a, **square}, {}, p_mono((0, 0, 0, 0))):
        with pytest.raises(ValueError):
            regular_sequence_on_B(two_planes, [a, bad])


def test_regular_sequence_rank_test_matches_degree_sweep():
    rng = random.Random(5)
    outcomes = {(kind, got): 0 for kind in ("intersection", "congruence") for got in (True, False)}
    for trial in range(200):
        n = rng.randint(3, 6)
        ctx = make_context(n)
        if trial % 4 == 3:
            q = random_monomial_ideal(rng, ctx, max_gens=3, max_deg=2)
            if q.is_unit():
                continue
            fam = PullbackFamily.congruence(q)
        else:
            subsets = random_antichain(rng, n, rng.randint(2, 3))
            if subsets is None:
                continue
            fam = PullbackFamily.from_supports(
                ctx, [[ctx.names[i] for i in s] for s in subsets]
            )
        forms = []
        for _ in range(rng.randint(1, 3)):
            support = rng.sample(range(n), rng.randint(1, 3))
            forms.append(_linear_form(n, support, [rng.choice((1, -1, 2)) for _ in support]))
        if trial % 3 == 0:
            # a scaled copy of an earlier form: dependent in every component
            forms.append({m: -2 * c for m, c in rng.choice(forms).items()})
        got = regular_sequence_on_B(fam, forms)
        assert got == oracles.regular_sequence_by_degree_sweep(fam, forms, 3), (fam, forms)
        outcomes[_kind(fam), got] += 1
    assert min(outcomes.values()) >= 10
    assert sum(v for (_, got), v in outcomes.items() if got) >= 20
    assert sum(v for (_, got), v in outcomes.items() if not got) >= 20


def test_regularity_of_linear_forms_depends_on_the_field():
    # x1+x2, x2+x3, x1+x3 have determinant 2 on x1, x2, x3: rank 3 unless 2 = 0
    forms = [p_linear(5, [0, 1]), p_linear(5, [1, 2]), p_linear(5, [0, 2])]
    got = {
        str(field): regular_sequence_on_B(
            PullbackFamily.from_supports(make_context(5), [["x4"], ["x5"]], field), forms
        )
        for field in (QQ, GF(2), GF(3))
    }
    assert got == {"Q": True, "F2": False, "F3": True}


def test_fraction_coefficients_reach_their_image_in_fp():
    fam = PullbackFamily.from_supports(make_context(3), [["x3"]], GF(3))
    half = _linear_form(3, [0, 1], [1, Fraction(1, 2)])
    assert fam.reduce_poly(0, half) == {(1, 0, 0): 1, (0, 1, 0): 2}
    # 1/2 = 2 in F_3, so x1 + x2/2 and x1 + 2 x2 are proportional there only
    two = _linear_form(3, [0, 1], [1, 2])
    assert not regular_sequence_on_B(fam, [half, two])
    assert regular_sequence_on_B(PullbackFamily.from_supports(fam.context, [["x3"]]), [half, two])


_COEFFS = (Fraction(1), Fraction(-1), Fraction(2), Fraction(1, 2))


def test_regular_sequence_over_each_field_matches_bareiss_rank():
    # B-regular iff the restrictions to every component have full rank over
    # the field (Bruns-Herzog 1.1); the oracle ranks the images of the
    # coefficients in that field by fraction-free elimination
    rng = random.Random(30)
    outcomes = Counter()
    for trial in range(300):
        field = (QQ, GF(2), GF(3))[trial % 3]
        n = rng.randint(3, 6)
        subsets = random_antichain(rng, n, rng.randint(2, 3))
        if subsets is None:
            continue
        ctx = make_context(n)
        fam = PullbackFamily.from_supports(ctx, [[ctx.names[i] for i in s] for s in subsets], field)
        coeffs = [c for c in _COEFFS if not field.p or c.denominator % field.p]
        supports = [rng.sample(range(n), rng.randint(1, n)) for _ in range(rng.randint(1, 3))]
        forms = [_linear_form(n, s, [rng.choice(coeffs) for _ in s]) for s in supports]

        def image(c):
            if field.p:
                return c.numerator * pow(c.denominator, -1, field.p) % field.p
            return int(2 * c)  # every row scaled by 2 clears the halves

        full_rank = all(
            oracles.rank_by_bareiss(
                [[image(a.get(tuple(int(j == k) for j in range(n)), 0)) for k in free]
                 for a in forms],
                field,
            ) == len(forms)
            for free in ([k for k in range(n) if k not in s] for s in subsets)
        )
        got = regular_sequence_on_B(fam, forms)
        assert got == full_rank, (field, fam, forms)
        outcomes[str(field), got] += 1
    assert min(outcomes.values()) >= 10, outcomes


def _profile_or_infinite(fam):
    try:
        return cokernel_profile(fam)
    except InfiniteLengthError:
        return "infinite"


def test_monomial_answers_do_not_depend_on_the_field():
    # monomial data spans coordinate subspaces, the same over every field
    rng = random.Random(50)
    finite = checked = 0
    while checked < 50:
        n = rng.randint(3, 5)
        subsets = random_antichain(rng, n, rng.randint(2, 3))
        if subsets is None:
            continue
        supports = [sorted(f"x{i+1}" for i in s) for s in subsets]
        fams = [
            PullbackFamily.from_supports(make_context(n), supports, field)
            for field in (QQ, GF(2), GF(3))
        ]
        assert len({conductor(fam) for fam in fams}) == 1, supports
        profiles = {_profile_or_infinite(fam) for fam in fams}
        assert len(profiles) == 1, supports
        finite += profiles != {"infinite"}
        checked += 1
    assert finite >= 10


def test_lift_route_and_missing_match_the_element_algebra():
    rng = random.Random(0)
    outcomes = dict.fromkeys(
        [
            ("intersection", None),
            ("intersection", "not in A"),
            ("intersection", "witness escapes the ideal"),
            ("congruence", None),
            ("congruence", "not in A"),
        ],
        0,
    )
    generated = []
    # congruence cases with a in q but outside the target: a e_j is in A and
    # cut from the other component, so it needs no lift into the target
    cut_without_lift = 0
    for fam in _random_families(rng) * 3:
        n = fam.context.n
        cond = conductor(fam)
        ideal = random_monomial_ideal(rng, fam.context, max_gens=3, max_deg=2)
        target = rng.choice((cond, ideal, ideal.intersect(cond)))
        monomials = [p_of_monomial(g) for g in cond.gens + ideal.gens]
        forms = []
        for _ in range(2):
            support = rng.sample(range(n), rng.randint(1, n))
            forms.append(_linear_form(n, support, [rng.choice((1, -1, 2)) for _ in support]))
        for a in rng.sample(monomials, min(3, len(monomials))) + forms:
            got = lift_failures(fam, a, target)
            assert got == oracles.lift_failures_by_belement(fam, a, target), (fam, a)
            why = dict(got)
            for j in range(fam.ell):
                outcomes[_kind(fam), why.get(j)] += 1
            if _kind(fam) == "congruence" and p_in_ideal(a, fam.q) and not p_in_ideal(a, target):
                cut_without_lift += 1
        sub = rng.choice(
            (
                GradedSubmodule.from_ideal(fam, ideal),
                _unit_A(fam),
                GradedSubmodule.multiples(fam, forms),
            )
        )
        units = [
            (i, g, BElement.unit(fam, i, g.exps)) for g in target.gens for i in range(fam.ell)
        ]
        expected = [
            (i, g)
            for i, g, u in units
            if not u.is_zero() and not sub.piece(g.degree()).contains(u.vector(g.degree()))
        ]
        assert sub.missing(target) == expected
        generated.append(not expected)
    # every outcome occurs, so neither route can pass by answering one way
    assert min(outcomes.values()) >= 10, outcomes
    assert cut_without_lift >= 10, cut_without_lift
    assert generated.count(True) >= 10 and generated.count(False) >= 10


def test_conductor_annihilates_cokernel(overlap6, fiber_x1sq):
    # a (B/A) = 0 for every conductor generator: checked inside the profile
    assert cokernel_profile(overlap6).annihilator_ok
    # the check can fail: with (X1, X2) cached in place of q = (X1^2, X2),
    # X1 (1, 0) = (X1, 0) lies outside A
    ctx = fiber_x1sq.context
    fiber_x1sq._basis_cache["conductor"] = MonomialIdeal.from_strings(ctx, ["X1", "X2"])
    assert not cokernel_profile(fiber_x1sq).annihilator_ok


def test_stabilization_runtime_check(two_planes, overlap6, fiber_x1sq):
    # hilbert functions end at their last nonzero entry by construction
    for fam in (two_planes, overlap6, fiber_x1sq):
        prof = cokernel_profile(fam)
        assert not prof.hilbert or prof.hilbert[-1] != 0


# -- differential tests against the per-mode reference constructions ----------------


def _random_families(rng):
    fams = []
    while len(fams) < 30:
        n = rng.randint(3, 6)
        subsets = random_antichain(rng, n, rng.randint(2, 4))
        if subsets is not None:
            fams.append(
                PullbackFamily.from_supports(
                    make_context(n), [sorted(f"x{i+1}" for i in s) for s in subsets]
                )
            )
    while len(fams) < 40:
        ctx = make_context(rng.randint(2, 3))
        q = random_monomial_ideal(rng, ctx, max_gens=3, max_deg=2)
        if not q.is_unit():
            fams.append(PullbackFamily.congruence(q))
    return fams


def _span(fam, elements, d):
    return Subspace(QQ, len(fam.basis_B(d)), [b.vector(d) for b in elements])


def test_merged_paths_match_reference_oracles():
    rng = random.Random(11)
    for fam in _random_families(rng):
        cond = conductor(fam)
        # the oracle spans the diagonal x^e, which is the B-ideal only when no
        # x^e survives in two components, as holds inside the conductor
        inner = random_monomial_ideal(rng, fam.context, max_gens=3, max_deg=2)
        inner = inner.intersect(cond)
        for d in range(cond.max_gen_degree() + 3):
            ref = oracles.basis_A_by_defining_ideal(fam, d)
            assert len(fam.basis_A(d)) == len(ref)
            assert _unit_A(fam).piece(d) == _span(fam, ref, d)
            for formula in (cond, inner):
                closed = oracles.closed_conductor_by_mode(fam, formula, d)
                assert monomial_span(fam, formula, d) == closed
        n = fam.context.n
        forms = [p_linear(n, rng.sample(range(n), rng.randint(1, n))) for _ in range(2)]
        for polys in (forms, [p_of_monomial(g) for g in cond.gens]):
            generated = GradedSubmodule.multiples(fam, polys)
            for e in range(4):
                assert generated.piece(e) == oracles.multiples_by_B_basis(fam, polys, e)


def _monomial_and_components(b):
    comps = tuple(i for i, part in enumerate(b.parts) if part)
    (e,) = b.parts[comps[0]]
    return e, comps


def test_piece_matches_belement_products():
    rng = random.Random(23)
    for fam in _random_families(rng):
        for d in range(5):
            ref = oracles.basis_A_by_defining_ideal(fam, d)
            assert fam.basis_A(d) == [_monomial_and_components(b) for b in ref]
        n = fam.context.n
        ideal = random_monomial_ideal(rng, fam.context, max_gens=3, max_deg=2)
        forms = [p_linear(n, rng.sample(range(n), rng.randint(1, n))) for _ in range(2)]
        subs = (
            GradedSubmodule.from_ideal(fam, ideal),
            _unit_A(fam),
            GradedSubmodule.multiples(fam, forms),
        )
        for sub in subs:
            for d in range(5):
                assert sub.piece(d) == oracles.piece_by_belement_products(sub, d)


def test_direct_conductor_matches_membership_oracle(monkeypatch):
    # conductor compares its direct solve with the closed path in every degree
    # it sweeps; with the old membership loop as the closed path, it compares
    # the solve with that loop
    def membership(fam, _, d):
        return oracles.direct_conductor_by_membership(fam, d)

    def one_row_short(fam, _, d):
        full = membership(fam, _, d)
        return Subspace(QQ, full.ambient, list(full.rows.values())[1:])

    monkeypatch.setattr(pullback, "monomial_span", membership)
    for fam in _random_families(random.Random(11)):
        conductor(fam)
    monkeypatch.setattr(pullback, "monomial_span", one_row_short)
    with pytest.raises(MethodDisagreementError):
        conductor(PullbackFamily.from_supports(CTX4, [["X", "Y"], ["Z", "W"]]))


def test_annihilator_solve_matches_product_oracle():
    rng = random.Random(29)
    outcomes = []
    for fam in _random_families(rng):
        unit_A = _unit_A(fam)
        other = random_monomial_ideal(rng, fam.context, max_gens=3, max_deg=2)
        for ideal in (conductor(fam), other):
            polys = [p_of_monomial(g) for g in ideal.gens]
            for d in range(3):
                solved = stable_subspace(fam, unit_A, polys, d).dim == len(fam.basis_B(d))
                assert solved == oracles.annihilates_by_products(fam, ideal, d)
                outcomes.append(solved)
    # both outcomes occur, so neither side can pass by always answering one way
    assert outcomes.count(True) >= 20 and outcomes.count(False) >= 20


def test_piece_inserts_each_product_once(monkeypatch):
    fam = PullbackFamily.from_supports(
        make_context(5), [["x1", "x2"], ["x2", "x3"], ["x4", "x5"]]
    )
    ideal = MonomialIdeal.from_strings(fam.context, ["x1", "x3", "x4", "x5^2", "x1*x4"])
    calls = []
    insert = Subspace.insert

    def counting(self, v):
        calls.append(v)
        return insert(self, v)

    monkeypatch.setattr(Subspace, "insert", counting)
    for d in range(1, 5):
        calls.clear()
        GradedSubmodule.from_ideal(fam, ideal).piece(d)
        monomials = {m for _, m in fam.basis_B(d)}
        assert 0 < len(calls) <= len(monomials)


def test_cokernel_profile_reads_no_degree_pieces(monkeypatch, two_planes, overlap6, fiber_x1sq):
    # cokernel_profile works at single multidegrees: past the conductor, which
    # it reads from the family's cache, it never builds a basis of B_d or a
    # piece of a submodule
    def refuse(*args):
        raise AssertionError("a total-degree piece was built")

    for fam in (overlap6, fiber_x1sq, two_planes):
        conductor(fam)
    monkeypatch.setattr(PullbackFamily, "basis_B", refuse)
    monkeypatch.setattr(GradedSubmodule, "piece", refuse)
    for fam in (overlap6, fiber_x1sq, two_planes):
        cokernel_profile(fam)


def _cokernel_families(rng, count):
    """Intersection families, congruences on random q, and congruences on Artinian q."""
    fams = []
    while len(fams) < count:
        kind = len(fams) % 3
        if kind == 0:
            n = rng.randint(3, 5)
            subsets = random_antichain(rng, n, rng.randint(2, 3))
            if subsets is not None:
                fams.append(
                    PullbackFamily.from_supports(
                        make_context(n), [sorted(f"x{i+1}" for i in s) for s in subsets]
                    )
                )
            continue
        ctx = make_context(rng.randint(2, 3))
        q = random_monomial_ideal(rng, ctx, max_gens=3, max_deg=3)
        if kind == 2:
            pure = [[rng.randint(1, 3) * (j == k) for j in range(ctx.n)] for k in range(ctx.n)]
            q = q + MonomialIdeal(ctx, pure)
        if not q.is_unit():
            fams.append(PullbackFamily.congruence(q))
    return fams


def test_cokernel_profile_matches_degree_sweep():
    rng = random.Random(31)
    finite = socle_two = not_squarefree = 0
    for fam in _cokernel_families(rng, 300):
        is_finite = oracles.irrelevant_primary_by_minimal_primes(fam)
        assert conductor_is_irrelevant_primary(fam) == is_finite
        if not is_finite:
            with pytest.raises(InfiniteLengthError):
                cokernel_profile(fam)
            continue
        got = cokernel_profile(fam)
        ref = oracles.cokernel_profile_by_degree_sweep(fam)
        assert got == ref, fam
        finite += 1
        socle_two += got.socle_dim >= 2
        not_squarefree += not fam.q.is_squarefree()
    # enough finite cases, socles of dimension 2 and non-squarefree q that
    # the comparison cannot pass vacuously
    counts = (finite, socle_two, not_squarefree)
    assert finite >= 100 and socle_two >= 10 and not_squarefree >= 10, counts
