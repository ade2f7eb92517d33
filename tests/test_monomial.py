import random

import pytest

from ccalab.errors import ContextMismatchError, UnitIdealError, ZeroIdealError
from ccalab.monomial import (
    Monomial,
    MonomialIdeal,
    VarContext,
    intersect_all,
    make_context,
    quotient_height,
)
from ccalab.suites import random_monomial_ideal

from oracles import (
    components_by_splitting,
    intersection_by_membership,
    irreducible_decomposition_by_splitting,
    irredundant_by_inclusion,
    irredundant_by_intersections,
    minimal_primes_by_enumeration,
    pure_powers_by_probing,
    same_members_up_to,
    unmixed_part_by_primary_components,
)

CTX2 = VarContext(("x", "y"))
CTX4 = VarContext(("x", "y", "z", "w"))


def ideal(ctx, *texts):
    return MonomialIdeal.from_strings(ctx, texts)


def random_ideal(rng, ctx, max_gens=4, max_deg=3):
    gens = []
    for _ in range(rng.randint(1, max_gens)):
        exps = [0] * ctx.n
        for _ in range(rng.randint(1, max_deg)):
            exps[rng.randrange(ctx.n)] += 1
        gens.append(Monomial(exps))
    return MonomialIdeal(ctx, gens)


# -- construction and conventions -------------------------------------------


def test_context_invariants():
    with pytest.raises(ValueError):
        VarContext(())
    with pytest.raises(ValueError):
        VarContext(("x", "x"))


def test_minimal_generating_set_is_canonical():
    i = ideal(CTX2, "x", "x^2", "x*y", "y", "y^3")
    assert [g.format(CTX2) for g in i.gens] == ["y", "x"]
    j = MonomialIdeal(CTX2, [(0, 1), (1, 0)])
    assert i == j
    assert hash(i) == hash(j)


def test_zero_and_unit_conventions():
    z = MonomialIdeal.zero(CTX2)
    u = MonomialIdeal.unit(CTX2)
    assert z.is_zero() and not z.is_unit()
    assert u.is_unit() and not u.is_zero()
    i = ideal(CTX2, "x*y")
    assert i.intersect(u) == i
    assert i.intersect(z) == z


def test_context_mismatch_raises():
    with pytest.raises(ContextMismatchError):
        ideal(CTX2, "x").intersect(ideal(CTX4, "x"))


# -- intersect ---------------------------------------------------------------


def test_intersect_coprime_variables():
    assert ideal(CTX2, "x").intersect(ideal(CTX2, "y")) == ideal(CTX2, "x*y")


def test_intersect_two_planes_frozen_and_oracle():
    i = ideal(CTX4, "x", "y")
    j = ideal(CTX4, "z", "w")
    got = i.intersect(j)
    # frozen value derived from the degree-2 membership sweep below
    assert got == ideal(CTX4, "x*z", "x*w", "y*z", "y*w")
    assert got == intersection_by_membership(i, j, 2)


def test_intersect_associative_commutative():
    rng = random.Random(1)
    ctx = make_context(3)
    for _ in range(30):
        a, b, c = (random_ideal(rng, ctx) for _ in range(3))
        assert a.intersect(b) == b.intersect(a)
        assert a.intersect(b.intersect(c)) == a.intersect(b).intersect(c)


# -- minimal primes ----------------------------------------------------------


def test_minimal_primes_frozen_and_oracle():
    ctx = VarContext(("x", "y", "z"))
    i = ideal(ctx, "x*y", "x*z")
    got = [set(p.variable_names()) for p in i.minimal_primes()]
    assert got == [{"x"}, {"y", "z"}]
    oracle = minimal_primes_by_enumeration(i)
    got = [frozenset(ctx.index(v) for v in p.variable_names()) for p in i.minimal_primes()]
    assert sorted(got, key=sorted) == sorted(oracle, key=sorted)


def test_minimal_primes_of_prime_intersection():
    i = ideal(CTX4, "x", "y").intersect(ideal(CTX4, "z", "w"))
    got = [set(p.variable_names()) for p in i.minimal_primes()]
    assert got == [{"x", "y"}, {"z", "w"}]


def test_minimal_primes_unit_rejected():
    with pytest.raises(UnitIdealError):
        MonomialIdeal.unit(CTX2).minimal_primes()


def random_hypergraph(rng):
    """0-10 edges on <= 12 vertices, some nested in others, some single vertices."""
    n = rng.randint(1, 12)
    edges = []
    for _ in range(rng.randint(0, 10)):
        if edges and rng.random() < 0.3:
            edge = rng.choice(edges) | set(rng.sample(range(n), rng.randint(1, min(n, 2))))
        else:
            edge = set(rng.sample(range(n), rng.randint(1, min(n, 4))))
        edges.append(frozenset(edge))
    return n, edges


def test_minimal_primes_random_against_enumeration():
    rng = random.Random(3)
    ctx = make_context(4)
    ideals = [random_ideal(rng, ctx) for _ in range(30)]
    nested = singles = 0
    for _ in range(500):
        n, edges = random_hypergraph(rng)
        nested += any(e < f for e in edges for f in edges)
        singles += any(len(e) == 1 for e in edges)
        gens = [Monomial(int(k in e) for k in range(n)) for e in edges]
        ideals.append(MonomialIdeal(make_context(n), gens))
    assert nested >= 50 and singles >= 50, (nested, singles)
    for i in ideals:
        if i.is_unit():
            continue
        got = [frozenset(map(i.context.index, p.variable_names())) for p in i.minimal_primes()]
        assert sorted(got, key=sorted) == sorted(minimal_primes_by_enumeration(i), key=sorted)


# -- irreducible decomposition ----------------------------------------------


def test_irreducible_decomposition_frozen():
    i = ideal(CTX2, "x^2", "x*y", "y^3")
    comps = i.irreducible_decomposition()
    assert set(comps) == {ideal(CTX2, "x^2", "y"), ideal(CTX2, "x", "y^3")}


def test_irreducible_decomposition_soundness_by_membership():
    i = ideal(CTX2, "x^2", "x*y", "y^3")
    inter = intersect_all(i.irreducible_decomposition())
    assert same_members_up_to(i, inter, 5)


def test_irreducible_decomposition_trivials():
    assert ideal(CTX2, "x^2", "y").irreducible_decomposition() == [
        ideal(CTX2, "x^2", "y")
    ]
    assert set(ideal(CTX2, "x*y").irreducible_decomposition()) == {
        ideal(CTX2, "x"),
        ideal(CTX2, "y"),
    }
    with pytest.raises(UnitIdealError):
        MonomialIdeal.unit(CTX2).irreducible_decomposition()
    with pytest.raises(ZeroIdealError):
        MonomialIdeal.zero(CTX2).irreducible_decomposition()


def test_irreducible_decomposition_random_soundness():
    rng = random.Random(5)
    ctx = make_context(3)
    for _ in range(25):
        i = random_ideal(rng, ctx)
        if i.is_unit() or i.is_zero():
            continue
        comps = i.irreducible_decomposition()
        for c in comps:
            assert all(g.support_mask().bit_count() == 1 for g in c.gens)
        bound = 1 + i.max_gen_degree()
        assert same_members_up_to(i, intersect_all(comps), bound)
        # irredundance: dropping any component changes the intersection
        if len(comps) > 1:
            for k in range(len(comps)):
                rest = intersect_all(comps[:k] + comps[k + 1 :])
                assert rest != intersect_all(comps)


# -- height and dimension ----------------------------------------------------


def test_height_and_dim_plane():
    ctx = VarContext(("x", "y", "z"))
    assert ideal(ctx, "x", "y").height_and_dim() == (2, 1)


def test_height_in_quotient_families():
    # ht_A I = 2m - n and dim A = n - m for the 6-variable overlap family
    ctx = make_context(6)
    f = [["x1", "x2", "x3", "x4"], ["x3", "x4", "x5", "x6"], ["x5", "x6", "x1", "x2"]]
    primes = [MonomialIdeal.from_support(ctx, s) for s in f]
    defining = intersect_all(primes)
    maxideal = MonomialIdeal.from_support(ctx, ctx.names)
    assert quotient_height(maxideal, defining) == 2
    assert defining.height_and_dim()[1] == 2


def test_height_unit_rejected():
    with pytest.raises(UnitIdealError):
        MonomialIdeal.unit(CTX2).height_and_dim()


# -- unmixed part -------------------------------------------------------------


def test_unmixed_part_examples():
    assert MonomialIdeal.unit(CTX2).unmixed_part() == MonomialIdeal.unit(CTX2)
    i = ideal(CTX2, "x^2", "x*y")
    assert i.unmixed_part() == ideal(CTX2, "x")
    u = ideal(CTX4, "x", "y").intersect(ideal(CTX4, "z", "w"))
    assert u.unmixed_part() == u
    with pytest.raises(ZeroIdealError):
        MonomialIdeal.zero(CTX2).unmixed_part()


def test_unmixed_part_contains_and_idempotent():
    rng = random.Random(6)
    ctx = make_context(3)
    for _ in range(25):
        i = random_ideal(rng, ctx)
        if i.is_unit() or i.is_zero():
            continue
        u = i.unmixed_part()
        assert u + i == u
        assert u.unmixed_part() == u


def random_mixed_ideal(rng, max_gens):
    """1-6 variables, 1-max_gens generators, each exponent 0 (probability 0.4) or 0-3."""
    ctx = make_context(rng.randint(1, 6))
    gens = [
        Monomial(rng.randint(0, 3) * (rng.random() < 0.6) for _ in range(ctx.n))
        for _ in range(rng.randint(1, max_gens))
    ]
    return MonomialIdeal(ctx, gens)


def test_rules_off_the_generators_match_the_original_routes():
    """Minimal primes, unmixed part and components against their references.

    Random ideals on 1-6 variables with exponents <= 3.  Each ideal's
    split components are made irredundant by inclusion and by the
    original intersection loop, and the run must reach both hard cases:
    ideals with embedded components, and split component lists that
    hold a redundant one.
    """
    rng = random.Random(12)
    tested = embedded = redundant = 0
    while tested < 400:
        i = random_mixed_ideal(rng, 4)
        if i.is_unit():
            continue
        tested += 1
        got = [frozenset(map(i.context.index, p.variable_names())) for p in i.minimal_primes()]
        assert sorted(got, key=sorted) == sorted(minimal_primes_by_enumeration(i), key=sorted)
        u = i.unmixed_part()
        assert u == unmixed_part_by_primary_components(i)
        embedded += u != i
        leaves = components_by_splitting(i)
        components = irredundant_by_inclusion(leaves)
        assert components == irredundant_by_intersections(leaves)
        assert i.irreducible_decomposition() == components
        redundant += len(components) < len(leaves)
    assert embedded >= 50
    assert redundant >= 50


def test_irreducible_decomposition_matches_splitting():
    # the components, in order, on 1-6 variables, exponents <= 3, <= 5 generators
    rng = random.Random(26)
    tested = 0
    while tested < 1500:
        i = random_mixed_ideal(rng, 5)
        if i.is_unit():
            continue
        tested += 1
        assert i.irreducible_decomposition() == irreducible_decomposition_by_splitting(i), i


# -- polarization --------------------------------------------------------------


def test_pure_powers_match_the_probe():
    rng = random.Random(37)
    missing = found = 0
    fixed = [ideal(CTX2, "x^2", "x*y"), ideal(CTX2, "x^3", "y^2", "x*y"), MonomialIdeal.unit(CTX2)]
    drawn = [random_monomial_ideal(rng, make_context(rng.randint(1, 4))) for _ in range(200)]
    for i in fixed + drawn:
        got = i.pure_powers()
        assert got == pure_powers_by_probing(i), i
        missing += got.count(None)
        found += len(got) - got.count(None)
    # (x^2, xy) is not Artinian: y has no pure power
    assert fixed[0].pure_powers() == [2, None]
    assert fixed[2].pure_powers() == [0, 0]
    assert missing >= 50 and found >= 50, (missing, found)


def test_polarize_fixed_point_and_single_split():
    i = ideal(CTX2, "x*y")
    assert i.polarize() == (i, 0)
    j = ideal(CTX2, "x^2")
    pj, added = j.polarize()
    assert added == 1
    assert pj.is_squarefree()
    assert pj.context.n == 3


def test_polarize_mixed_example():
    i = ideal(CTX2, "x^2", "x*y", "y^3")
    p, added = i.polarize()
    assert p.context.n == 5 and added == 3
    assert p.is_squarefree()
    assert len(p.gens) == 3


# -- output minimality invariant ----------------------------------------------


def test_outputs_carry_no_divisor_pairs():
    rng = random.Random(7)
    ctx = make_context(4)
    for _ in range(30):
        a = random_ideal(rng, ctx)
        b = random_ideal(rng, ctx)
        for result in (a + b, a * b, a.intersect(b)):
            gens = result.gens
            for p in gens:
                for q in gens:
                    assert p is q or not p.divides(q)
