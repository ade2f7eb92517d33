import pytest

from ccalab.complexes import complex_of, depth, depth_via_local_cohomology, projective_dimension
from ccalab.families import (
    ArtinianQuotient,
    f_family_report,
    fiber_product_report,
    k_plus_q_report,
    socle_and_type,
)
from ccalab.linalg import GF, QQ
from ccalab.monomial import MonomialIdeal, VarContext, intersect_all, make_context, sum_all
from ccalab import pullback
from ccalab.pullback import PullbackFamily
from ccalab.suites import lemma_intersection_suite


def artinian(n, *gens, prefix="X"):
    ctx = make_context(n, prefix)
    return ArtinianQuotient(ctx, MonomialIdeal.from_strings(ctx, gens))


def indexed(n, index_sets):
    """The intersection family on x1..xn with 1-based index subsets."""
    return PullbackFamily.from_supports(
        make_context(n), [[f"x{i}" for i in s] for s in index_sets]
    )


OVERLAP = [[1, 2, 3, 4], [3, 4, 5, 6], [5, 6, 1, 2]]


def grid(ell, m):
    """ell disjoint m-subsets."""
    return indexed(ell * m, [range(k * m + 1, k * m + m + 1) for k in range(ell)])


def chain(m, q):
    """F_1 = {1..m}, F_2 = {q..q+m-1}, F_3 = {2q-1..2q+m-2}, on n = 2q+m-2 variables."""
    return indexed(2 * q + m - 2, [range(s, s + m) for s in (1, q, 2 * q - 1)])


# -- families -------------------------------------------------------------------


def test_family_validation():
    with pytest.raises(ValueError):
        indexed(4, [[1, 2], [1]])  # not an antichain
    with pytest.raises(ValueError):
        indexed(4, [[1, 2], []])  # empty subset
    with pytest.raises(ValueError):
        indexed(4, [[1, 5], [3, 4]])  # x5 is not a variable
    with pytest.raises(ValueError):
        f_family_report(indexed(4, [[1, 2]]))  # needs two components
    with pytest.raises(ValueError):
        f_family_report(PullbackFamily.congruence(artinian(2, "X1^2", "X2").ideal))
    fam = indexed(4, [[1, 2], [3, 4]])
    for ell in (0, -2):  # m^0 is A itself, and m has no negative powers
        with pytest.raises(ValueError):
            f_family_report(fam, trace_powers=(1, ell))
    assert fam.is_unmixed()
    assert not indexed(3, [[1], [2, 3]]).is_unmixed()
    by_id = {c.claim_id: c for c in f_family_report(fam).claims}
    assert by_id["height.setminus-formula"].computed == 2  # min |F_i - F_j|
    assert by_id["dim.formula"].computed == 2  # n - min |F_i|


def test_defining_ideal_has_the_components_as_minimal_primes():
    # the intersection of the component primes is a reduced decomposition
    fam = indexed(6, OVERLAP)
    defining = fam.defining_ideal()
    got = {frozenset(p.variable_names()) for p in defining.minimal_primes()}
    assert got == {frozenset(f"x{i}" for i in s) for s in OVERLAP}
    assert defining.associated_primes() == defining.minimal_primes()


@pytest.mark.parametrize(
    "make, a, b",
    [(grid, 3, 6), (grid, 4, 5), (chain, 12, 6)],
    ids=["grid-3-6", "grid-4-5", "chain-12-6"],
)
def test_minimal_primes_past_sixteen_variables(make, a, b):
    # n = 18, 20 and 22: only a sweep of 2^k subsets is limited, and none runs here
    fam = make(a, b)
    ideal = fam.defining_ideal()
    n = ideal.context.n
    assert ideal.minimal_primes() == list(fam.primes)
    full = (1 << n) - 1
    assert complex_of(ideal).facets == tuple(sorted(full & ~p.mask for p in fam.primes))
    for field in (QQ, GF(2)):
        d = depth(ideal, field)
        assert d == depth_via_local_cohomology(ideal, field)
        assert projective_dimension(ideal, field) + d == n


@pytest.mark.parametrize("m", [9, 12])
def test_f_family_report_past_sixteen_variables(m):
    # chain(m, 6) has n = m + 10 variables, 19 and 22
    assert f_family_report(chain(m, 6)).passed()


def test_primes_are_intersected_once_per_family(monkeypatch):
    # defining_ideal and the irrelevant-primary test both read one cached cap P_i
    fam = indexed(6, OVERLAP)
    meets = []
    real = pullback.intersect_all

    def spy(ideals):
        if ideals == [p.ideal() for p in fam.primes]:
            meets.append(ideals)
        return real(ideals)

    monkeypatch.setattr(pullback, "intersect_all", spy)
    assert f_family_report(fam, trace_powers=(1, 2)).passed()
    assert len(meets) == 1


def test_duplicate_subsets_rejected():
    dup = ["x1", "x2"]
    with pytest.raises(ValueError):
        PullbackFamily.from_supports(make_context(4), [dup, dup])
    with pytest.raises(ValueError):
        PullbackFamily.from_supports(make_context(4), [dup, ["x2", "x1"]])


def test_unmixed_families_satisfy_the_depth_bounds():
    # |F_i| constant and |F_i - F_j| >= 2 force ht I >= 2, dim = n - |F_1|,
    # and 0 < depth A < dim A
    import random

    from ccalab.complexes import dim_of_quotient
    from ccalab.monomial import quotient_height
    from ccalab.pullback import conductor

    rng = random.Random(31)
    done = 0
    while done < 12:
        n = rng.randint(5, 7)
        size = rng.randint(2, n - 3) if n >= 6 else 2
        ell = rng.randint(2, 3)
        subsets = {frozenset(rng.sample(range(1, n + 1), size)) for _ in range(ell)}
        if len(subsets) != ell:
            continue
        if any(len(a - b) < 2 for a in subsets for b in subsets if a != b):
            continue
        fam = indexed(n, [sorted(s) for s in subsets])
        defining = fam.defining_ideal()
        cond = conductor(fam)
        d = dim_of_quotient(defining)
        t = depth(defining, QQ)
        assert quotient_height(cond, defining) >= 2
        assert d == n - size
        assert 0 < t < d
        done += 1


# -- socle and type ---------------------------------------------------------------


def test_socle_and_type_parameter_square():
    q = artinian(3, "X1^2", "X2", "X3")
    assert socle_and_type(q) == {"length": 2, "socle_dim": 1}


def test_socle_and_type_residue_field():
    q = artinian(3, "X1", "X2", "X3")
    assert socle_and_type(q) == {"length": 1, "socle_dim": 1}


def test_socle_and_type_square_of_max_ideal():
    q = artinian(2, "X1^2", "X1*X2", "X2^2")
    # standard monomials 1, X1, X2 with socle spanned by X1, X2
    assert socle_and_type(q) == {"length": 3, "socle_dim": 2}


def test_artinian_rejects_positive_dimension():
    ctx = make_context(2)
    with pytest.raises(ValueError):
        ArtinianQuotient(ctx, MonomialIdeal.from_strings(ctx, ["x1"]))


# -- reports ----------------------------------------------------------------------


def test_f_family_report_fails_on_tampered_expected():
    rep = f_family_report(indexed(6, OVERLAP), expected={"depth_A": 2})  # the truth is 1
    assert not rep.passed()
    assert any(c.claim_id == "depth.A" and c.passed is False for c in rep.claims)


def test_f_family_report_decides_every_claim_over_the_family_field():
    # on the first component the parameters restrict to x3+x4, x4+x5, x3+x5,
    # of determinant 2: they generate the conductor and are B-regular over Q
    # and F_3, not over F_2
    supports = [["x1", "x2", "x7"], ["x3", "x4", "x5"]]
    parameters = [["x1", "x3", "x4"], ["x2", "x4", "x5"], ["x3", "x5", "x7"]]
    for field, holds in ((QQ, True), (GF(2), False), (GF(3), True)):
        fam = PullbackFamily.from_supports(make_context(7), supports, field)
        rep = f_family_report(fam, parameters=parameters)
        computed = {c.claim_id: c.computed for c in rep.claims}
        assert computed["generation.parameters"] is holds
        assert computed["sequence.B-regular"] is holds
        assert rep.passed() is holds
        assert rep.config == ({} if field.is_rationals else {"field": str(field)})


def test_k_plus_q_negative_control():
    q = artinian(2, "X1^3", "X2")
    rep = k_plus_q_report(
        q,
        expected={
            "length": 3,
            "hypothesis_length_two": False,
            "subring_colength": 2,
        },
    )
    assert rep.passed()
    hyp = next(c for c in rep.claims if c.claim_id == "hypothesis.length-two")
    assert hyp.computed is False and hyp.passed


def test_fiber_report_exact_sequence_bookkeeping():
    q = artinian(2, "X1^2", "X2")
    rep = fiber_product_report(q, expected={"length": 2, "type_r": 1})
    by_id = {c.claim_id: c for c in rep.claims}
    assert by_id["cokernel.length-vs-ring"].passed
    assert by_id["cokernel.socle-vs-ring"].passed
    assert by_id["conductor.equals-qB"].passed


def test_fiber_negative_control_reported_honestly():
    q = artinian(2, "X1^2", "X1*X2", "X2^2")
    rep = fiber_product_report(
        q, expected={"length": 3, "type_r": 2, "hypothesis_r_is_one": False}
    )
    assert rep.passed()
    hyp = next(c for c in rep.claims if c.claim_id == "hypothesis.r-is-one")
    assert hyp.computed is False
    # no blowup conclusion is implied when the hypothesis fails
    assert not any(c.claim_id == "rees.gorenstein" for c in rep.claims)


# -- the deleted-intersection identity ------------------------------------------------


def test_lemma_identity_two_principal_ideals():
    ctx = VarContext(("x", "y"))
    i1 = MonomialIdeal.from_strings(ctx, ["x"])
    i2 = MonomialIdeal.from_strings(ctx, ["y"])
    j1, j2 = i2, i1  # deleted intersections for two ideals swap them
    lhs = (i1 + j1).intersect(i2 + j2)
    assert lhs == j1 + j2 == MonomialIdeal.from_strings(ctx, ["x", "y"])


def test_lemma_identity_all_equal():
    ctx = make_context(3)
    i = MonomialIdeal.from_strings(ctx, ["x1*x2", "x3"])
    ideals = [i, i, i]
    js = [intersect_all([ideals[j] for j in range(3) if j != k]) for k in range(3)]
    lhs = intersect_all([ideals[k] + js[k] for k in range(3)])
    assert lhs == sum_all(js) == i


def test_lemma_suite_seeded():
    rep = lemma_intersection_suite(seed=0, trials=200)
    assert rep.passed()
    claim = rep.claims[0]
    assert claim.computed == {"trials": 200, "failures": []}
