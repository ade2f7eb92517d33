import random
from fractions import Fraction

import pytest

from ccalab.errors import InfiniteLengthError, MethodDisagreementError, PrecisionError
from ccalab.linalg import QQ, Subspace
from ccalab.monomial import MonomialIdeal, MonomialPrime, VarContext, make_context
from ccalab.polys import p_linear, p_mono, p_of_monomial
from ccalab import pullback
from ccalab.pullback import (
    CONGRUENCE,
    INTERSECTION,
    BElement,
    GradedSubmodule,
    PullbackFamily,
    cokernel_profile,
    colon_in_B,
    conductor,
    conductor_is_irrelevant_primary,
    monomial_span,
    regular_sequence_on_B,
    stable_subspace,
    verify_generation,
)
from ccalab.suites import random_antichain, random_monomial_ideal

import oracles

CTX4 = VarContext(("X", "Y", "Z", "W"))


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


def test_antichain_enforced():
    with pytest.raises(ValueError):
        PullbackFamily.from_supports(CTX4, [["X", "Y"], ["X"]])
    # one prime object passed twice is a repeated component, not an antichain
    p = MonomialPrime(CTX4, CTX4.mask_of(["X", "Y"]))
    with pytest.raises(ValueError):
        PullbackFamily(CTX4, INTERSECTION, primes=(p, p))


def test_congruence_needs_proper_ideal():
    with pytest.raises(ValueError):
        PullbackFamily.congruence(MonomialIdeal.unit(CTX4))


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
    shared = BElement.from_T(two_planes, p_mono((0, 0, 0, 0), 1))
    bad = BElement(
        two_planes, (shared.parts[0], {})
    )  # (1, 0): the unit survives everywhere
    assert not bad.in_A()[0]


def test_congruence_membership(fiber_x1sq):
    one = p_mono((0, 0), 1)
    assert not BElement(fiber_x1sq, (one, {})).in_A()[0]  # (1, 0): 1 not in q
    x2 = p_mono((0, 1), 1)
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
    monkeypatch.setattr(PullbackFamily, "basis_A", lambda self, d: [])
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
    sub_a = GradedSubmodule.unit_A(two_planes)
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
        assert res.equals_all_of_B(two_planes)
        power = power * m


def test_colon_of_A_by_max_ideal_fills_B(overlap6):
    ctx = overlap6.context
    m = MonomialIdeal.from_support(ctx, ctx.names)
    res = colon_in_B(overlap6, GradedSubmodule.unit_A(overlap6), m, bound=3)
    assert res.equals_all_of_B(overlap6)


def test_colon_default_bound(two_planes):
    m = MonomialIdeal.from_support(CTX4, CTX4.names)
    res = colon_in_B(two_planes, GradedSubmodule.unit_A(two_planes), m)
    assert res.bound == 1 + 4
    assert "degree 5" in res.note


def test_colon_bound_below_generator_degree_is_rejected(two_planes):
    # an empty or too short degree range must never read as "all of B"
    m = MonomialIdeal.from_support(CTX4, CTX4.names)
    sub_a = GradedSubmodule.unit_A(two_planes)
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
    ok, _ = verify_generation(overlap6, cond, [a, b])
    assert ok
    ok_single, detail = verify_generation(overlap6, cond, [a])
    assert not ok_single
    assert detail["reverse"]


def test_generation_rejects_inhomogeneous(overlap6):
    cond = conductor(overlap6)
    bad = {(1, 0, 0, 0, 0, 0): Fraction(1), (2, 0, 0, 0, 0, 0): Fraction(1)}
    with pytest.raises(ValueError):
        verify_generation(overlap6, cond, [bad])


def test_generation_fiber_alphas(fiber_x1sq):
    cond = conductor(fiber_x1sq)
    ok, _ = verify_generation(fiber_x1sq, cond, [p_mono((2, 0)), p_mono((0, 1))])
    assert ok
    ok_single, _ = verify_generation(fiber_x1sq, cond, [p_mono((2, 0))])
    assert not ok_single


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
    outcomes = {(mode, got): 0 for mode in (INTERSECTION, CONGRUENCE) for got in (True, False)}
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
            forms.append(p_linear(n, support, [rng.choice((1, -1, 2)) for _ in support]))
        if trial % 3 == 0:
            # a scaled copy of an earlier form: dependent in every component
            forms.append({m: -2 * c for m, c in rng.choice(forms).items()})
        got = regular_sequence_on_B(fam, forms)
        assert got == oracles.regular_sequence_by_degree_sweep(fam, forms, 3), (fam, forms)
        outcomes[fam.mode, got] += 1
    assert min(outcomes.values()) >= 10
    assert sum(v for (_, got), v in outcomes.items() if got) >= 20
    assert sum(v for (_, got), v in outcomes.items() if not got) >= 20


def test_conductor_annihilates_cokernel(overlap6):
    # a (B/A) = 0 for every conductor generator: checked inside the profile
    assert cokernel_profile(overlap6).annihilator_ok


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
        if q.is_proper():
            fams.append(PullbackFamily.congruence(q))
    return fams


def _span(fam, elements, d):
    return Subspace(QQ, fam.dim_B(d), [b.vector(d) for b in elements])


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
            assert fam.dim_A(d) == len(ref)
            assert GradedSubmodule.unit_A(fam).piece(d) == _span(fam, ref, d)
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
            GradedSubmodule.unit_A(fam),
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
        unit_A = GradedSubmodule.unit_A(fam)
        other = random_monomial_ideal(rng, fam.context, max_gens=3, max_deg=2)
        for ideal in (conductor(fam), other):
            polys = [p_of_monomial(g) for g in ideal.gens]
            for d in range(3):
                solved = stable_subspace(fam, unit_A, polys, d).dim == fam.dim_B(d)
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


def test_unit_A_builds_each_piece_once(monkeypatch, two_planes, overlap6, fiber_x1sq):
    # conductor and cokernel_profile share the family's one A-piece submodule,
    # so no (family, degree) piece of A is solved twice in a pass
    built = []
    piece = GradedSubmodule.piece

    def recording(self, d):
        if d not in self._pieces:
            built.append((repr(self.gens), d))
        return piece(self, d)

    monkeypatch.setattr(GradedSubmodule, "piece", recording)
    for fam in (overlap6, fiber_x1sq, two_planes):
        built.clear()
        cokernel_profile(fam)
        one = repr(GradedSubmodule.unit_A(fam).gens)
        degrees = [d for gens, d in built if gens == one]
        assert degrees and len(degrees) == len(set(degrees))
        assert GradedSubmodule.unit_A(fam) is GradedSubmodule.unit_A(fam)
