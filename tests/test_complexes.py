import random

import pytest

from ccalab import complexes
from ccalab.complexes import (
    SimplicialComplex,
    complex_of,
    depth,
    depth_via_local_cohomology,
    dim_of_quotient,
    graded_betti,
    is_cohen_macaulay,
    projective_dimension,
    reduced_homology,
)
from ccalab.errors import NotSquarefreeError, UnitIdealError, VoidComplexError
from ccalab.linalg import GF, QQ
from ccalab.monomial import MonomialIdeal, VarContext, make_context

from oracles import (
    betti_by_full_sweep,
    cohen_macaulay_by_link_sweep,
    depth_by_link_sweep,
    faces_by_membership,
    homology_by_boundary_matrices,
    nonface_ideal,
    pd_by_betti_table,
)
from test_families import chain, grid

CTX2 = VarContext(("x", "y"))
CTX3 = VarContext(("a", "b", "c"))


def betti_total(table, i):
    return sum(v for (j, _), v in table.entries.items() if j == i)


def rp2():
    """Minimal 6-vertex triangulation of the real projective plane."""
    ctx = make_context(6, "v")
    triangles = [
        [1, 2, 5], [1, 2, 6], [1, 3, 4], [1, 3, 6], [1, 4, 5],
        [2, 3, 4], [2, 3, 5], [2, 4, 6], [3, 5, 6], [4, 5, 6],
    ]
    return SimplicialComplex(ctx, [ctx.mask_of([f"v{i}" for i in t]) for t in triangles])


# -- complexes as values -------------------------------------------------------


def test_void_and_irrelevant_are_distinct():
    void = SimplicialComplex(CTX2, ())
    irr = SimplicialComplex(CTX2, (0,))
    assert void != irr
    assert void.is_void() and not irr.is_void()
    assert void.dim() is None and irr.dim() == -1


def test_facets_form_antichain():
    c = SimplicialComplex(CTX3, (0b011, 0b001, 0b110))  # ab, a, bc
    names = [set(CTX3.names_of_mask(f)) for f in c.facets]
    assert {"a"} not in names
    assert len(names) == 2


def test_size_rule_caps_only_the_subset_sweeps(monkeypatch):
    # a sweep of all 2^k subsets refuses k > 16; a complex on 17 vertices does not
    ctx = make_context(17)
    full = (1 << 17) - 1
    ranked = []
    real = complexes._homology_by_boundary_matrices

    def spy(cplx, field):
        ranked.append(cplx.context.n)
        return real(cplx, field)

    monkeypatch.setattr(complexes, "_homology_by_boundary_matrices", spy)
    apart = SimplicialComplex(ctx, [0xFF, full & ~0xFF])  # x1..x8 and x9..x17
    assert reduced_homology(apart, QQ)[0] == 1
    assert ranked == [2]  # the nerve of the two facets, not the complex
    with pytest.raises(ValueError):
        graded_betti(MonomialIdeal.from_strings(ctx, ["x1*x2"]), QQ)
    with pytest.raises(ValueError):
        SimplicialComplex(ctx, [full]).faces()
    with pytest.raises(ValueError):  # 17 facets, so 17 vertex types
        projective_dimension(MonomialIdeal.from_strings(ctx, ["*".join(ctx.names)]), QQ)


def test_nerve_route_only_within_the_size_rule(monkeypatch):
    # 2^k prices the nerve of k facets as a sweep of their index sets, so it
    # is taken only for k <= 16.  The complements of the 18 edges of the path
    # x1-...-x16 with chords x2x4, x3x5, x6x8 (the complex of its cover ideal)
    # have fewer index sets than faces, but x1 lies in 17 facets, a nerve face
    # _subsets refuses; without x16 the 17 facets' nerve would fit, but is
    # many times slower to rank than the complex itself
    full = (1 << 16) - 1
    edges = [(i, i + 1) for i in range(15)] + [(1, 3), (2, 4), (5, 7)]
    cover = SimplicialComplex(make_context(16), [full & ~(1 << a | 1 << b) for a, b in edges])
    below = SimplicialComplex(cover.context, [f & ~(1 << 15) for f in cover.facets])
    for cplx, k in ((cover, 18), (below, 17)):
        assert len(cplx.facets) == k and 1 << k < sum(1 << f.bit_count() for f in cplx.facets)
        ranked = []

        def stub(c, field):  # the real ranks take seconds
            ranked.append(c)
            return {9: 1}

        monkeypatch.setattr(complexes, "_homology_by_boundary_matrices", stub)
        assert reduced_homology(cplx, QQ) == {9: 1}
        assert ranked == [cplx]
        monkeypatch.undo()
    # the same choice at a cap of 4, with the ranks computed: 6 facets on 8
    # vertices, whose nerve is ranked at the real cap and not at a cap of 4
    six = ("1248", "1238", "1346", "1247", "1567", "3578")
    cplx = SimplicialComplex(make_context(8), [sum(1 << int(v) - 1 for v in f) for f in six])
    for field in (QQ, GF(2)):
        by_nerve = reduced_homology(cplx, field)
        monkeypatch.setattr(complexes, "MAX_VERTICES", 4)
        assert reduced_homology(cplx, field) == by_nerve == homology_by_boundary_matrices(cplx, field)
        assert by_nerve[1] == 1
        monkeypatch.undo()


# -- Stanley-Reisner dictionary ------------------------------------------------


def test_complex_of_edge_ideal():
    c = complex_of(MonomialIdeal.from_strings(CTX2, ["x*y"]))
    assert [set(CTX2.names_of_mask(f)) for f in c.facets] == [{"x"}, {"y"}]


def test_complex_of_two_planes_frozen_and_oracle():
    ctx = VarContext(("x", "y", "z", "w"))
    ideal = MonomialIdeal.from_support(ctx, ["x", "y"]).intersect(
        MonomialIdeal.from_support(ctx, ["z", "w"])
    )
    c = complex_of(ideal)
    # facets are the complements of the minimal primes: two disjoint edges
    facet_sets = {frozenset(ctx.names_of_mask(f)) for f in c.facets}
    assert facet_sets == {frozenset({"z", "w"}), frozenset({"x", "y"})}
    assert c.faces() == faces_by_membership(ideal)


def test_complex_of_overlap_family_facets():
    ctx = make_context(6)
    primes = [
        MonomialIdeal.from_support(ctx, [f"x{i}" for i in s])
        for s in ([1, 2, 3, 4], [3, 4, 5, 6], [5, 6, 1, 2])
    ]
    ideal = primes[0].intersect(primes[1]).intersect(primes[2])
    c = complex_of(ideal)
    assert all(bin(f).count("1") == 2 for f in c.facets)
    assert len(c.facets) == 3
    assert dim_of_quotient(ideal) == 2  # matches dim A = n - m


def test_complex_round_trip_with_nonface_ideal():
    c = rp2()
    assert complex_of(nonface_ideal(c)) == c


def test_complex_of_rejects_bad_input():
    with pytest.raises(NotSquarefreeError):
        complex_of(MonomialIdeal.from_strings(CTX2, ["x^2"]))
    with pytest.raises(UnitIdealError):
        complex_of(MonomialIdeal.unit(CTX2))


# -- reduced homology ----------------------------------------------------------


def test_homology_full_simplex_vanishes():
    hom = reduced_homology(SimplicialComplex(CTX3, (0b111,)), QQ)
    assert all(v == 0 for v in hom.values())


def test_homology_hollow_triangle():
    c = SimplicialComplex(CTX3, (0b011, 0b110, 0b101))  # ab, bc, ac
    assert reduced_homology(c, QQ) == {-1: 0, 0: 0, 1: 1}


def test_homology_two_points():
    c = SimplicialComplex(CTX2, (0b01, 0b10))  # x, y
    assert reduced_homology(c, QQ)[0] == 1


def test_homology_irrelevant_complex():
    assert reduced_homology(SimplicialComplex(CTX2, (0,)), QQ) == {-1: 1}


def test_homology_void_rejected():
    with pytest.raises(VoidComplexError):
        reduced_homology(SimplicialComplex(CTX2, ()), QQ)


def test_projective_plane_homology_depends_on_characteristic():
    c = rp2()
    over_q = reduced_homology(c, QQ)
    over_f2 = reduced_homology(c, GF(2))
    assert over_q[1] == 0 and over_q[2] == 0
    assert over_f2[1] == 1 and over_f2[2] == 1


def test_euler_characteristic_matches_homology_over_every_field():
    rng = random.Random(11)
    for field in (QQ, GF(2), GF(3)):
        for _ in range(15):
            n = rng.randint(2, 5)
            ctx = make_context(n)
            facets = []
            for _ in range(rng.randint(1, 4)):
                size = rng.randint(1, n)
                facets.append(rng.sample(range(n), size))
            c = SimplicialComplex(
                ctx, [sum(1 << v for v in f) for f in facets]
            )
            hom = reduced_homology(c, field)
            chi = sum((-1) ** i * r for i, r in hom.items())
            assert chi == sum((-1) ** (f.bit_count() - 1) for f in c.faces())


@pytest.fixture
def routed(monkeypatch):
    """reduced_homology with the route it took: "cone", "nerve" or "boundary"."""
    ranked = []
    by_matrices = complexes._homology_by_boundary_matrices

    def spy(cplx, field):
        ranked.append(cplx)
        return by_matrices(cplx, field)

    monkeypatch.setattr(complexes, "_homology_by_boundary_matrices", spy)

    def run(cplx, field):
        ranked.clear()
        hom = reduced_homology(cplx, field)
        if not ranked:
            return hom, "cone"
        return hom, "boundary" if ranked == [cplx] else "nerve"

    return run


def test_homology_routes_match_boundary_matrices(routed):
    rng = random.Random(41)
    fields = (QQ, GF(2), GF(3))
    routes = {"cone": 0, "nerve": 0, "boundary": 0}
    for case in range(450):
        # facets of at most n - 2 vertices keep cones from crowding out the rest
        n = rng.randint(1, 10)
        facets = [
            sum(1 << v for v in rng.sample(range(n), rng.randint(0, max(0, n - 2))))
            for _ in range(rng.randint(1, 6))
        ]
        c = SimplicialComplex(make_context(n), facets)
        field = fields[case % 3]
        hom, route = routed(c, field)
        assert hom == homology_by_boundary_matrices(c, field)
        assert max(hom) == c.dim()  # Reisner's test reads the dimension off the keys
        routes[route] += 1
    assert min(routes.values()) >= 50, routes


def _rp2_facet_nerve():
    """Six facets of size 5 on 10 vertices whose nerve is rp2: vertex t is
    triangle t of rp2, and facet v holds the triangles that contain v."""
    triangles = rp2().facets
    return SimplicialComplex(
        make_context(10),
        [sum(1 << t for t, f in enumerate(triangles) if f >> v & 1) for v in range(6)],
    )


@pytest.mark.parametrize(
    "facets, n, route, expected",
    [
        ([0], 3, "boundary", {-1: 1}),  # the irrelevant complex {()}
        ([0b0110], 4, "cone", {-1: 0, 0: 0, 1: 0}),
        ([0b10110, 0b00101, 0b01100], 5, "cone", {-1: 0, 0: 0, 1: 0, 2: 0}),  # apex x3
        ([0b00011, 0b11100], 5, "nerve", {-1: 0, 0: 1, 1: 0, 2: 0}),
    ],
)
def test_homology_route_edge_cases(routed, facets, n, route, expected):
    c = SimplicialComplex(make_context(n), facets)
    for field in (QQ, GF(2), GF(3)):
        assert routed(c, field) == (expected, route)
        assert homology_by_boundary_matrices(c, field) == expected


def test_homology_torsion_through_the_nerve(routed):
    c = _rp2_facet_nerve()
    assert [f.bit_count() for f in c.facets] == [5] * 6
    zeros = dict.fromkeys(range(-1, 5), 0)
    assert routed(c, QQ) == (zeros, "nerve")
    assert routed(c, GF(2)) == ({**zeros, 1: 1, 2: 1}, "nerve")
    for field in (QQ, GF(2)):
        assert routed(c, field)[0] == homology_by_boundary_matrices(c, field)


# -- graded Betti numbers --------------------------------------------------------


def test_betti_principal_ideal():
    t = graded_betti(MonomialIdeal.from_strings(CTX2, ["x*y"]), QQ)
    assert t.entries == {(0, 0b11): 1}


def test_betti_koszul_pattern():
    t = graded_betti(MonomialIdeal.from_strings(CTX2, ["x", "y"]), QQ)
    assert betti_total(t, 0) == 2 and betti_total(t, 1) == 1
    assert pd_by_betti_table(t) == 2


def test_betti_overlap_family_pd_five():
    ctx = make_context(6)
    primes = [
        MonomialIdeal.from_support(ctx, [f"x{i}" for i in s])
        for s in ([1, 2, 3, 4], [3, 4, 5, 6], [5, 6, 1, 2])
    ]
    ideal = primes[0].intersect(primes[1]).intersect(primes[2])
    assert projective_dimension(ideal, QQ) == 5


def test_betti_export():
    t = graded_betti(MonomialIdeal.from_strings(CTX2, ["x", "y"]), QQ)
    data = t.to_json()
    assert data["field"] == "Q"
    assert {(e["i"], tuple(e["sigma"])) for e in data["entries"]} == {
        (0, ("x",)),
        (0, ("y",)),
        (1, ("x", "y")),
    }


def test_betti_matches_full_sweep_oracle():
    # a variable generator leaves its vertex outside every facet, where the
    # restrictions are shared; both kinds of ideal must agree with the sweep
    rng = random.Random(31)
    fields = (QQ, GF(2), GF(3))
    kinds = {True: 0, False: 0}
    for case in range(150):
        n = rng.randint(1, 8)
        gens = []
        for _ in range(rng.randint(1, 4)):
            supp = rng.sample(range(n), rng.randint(1, min(4, n)))
            gens.append(tuple(1 if v in supp else 0 for v in range(n)))
        ideal = MonomialIdeal(make_context(n), gens)
        field = fields[case % 3]
        assert graded_betti(ideal, field).entries == betti_by_full_sweep(ideal, field).entries
        kinds[any(g.degree() == 1 for g in ideal.gens)] += 1
    assert kinds[True] >= 50 and kinds[False] >= 50


def test_betti_of_maximal_ideal_is_koszul():
    # every subset shares the empty restriction: beta[|sigma| - 1, sigma] = 1
    ctx = make_context(5)
    t = graded_betti(MonomialIdeal.from_strings(ctx, list(ctx.names)), GF(3))
    assert t.entries == {(m.bit_count() - 1, m): 1 for m in range(1, 1 << 5)}
    assert [betti_total(t, i) for i in range(5)] == [5, 10, 10, 5, 1]


def test_betti_of_zero_ideal_is_empty():
    t = graded_betti(MonomialIdeal.zero(make_context(4)), QQ)
    assert t.entries == {} and pd_by_betti_table(t) == 0


def test_betti_shares_restrictions_within_one_call_only():
    # RP^2 plus a variable: the shared restrictions differ over Q and F_2,
    # so a table kept past its call would hand one field's numbers to the other
    ctx = make_context(7)
    gens = [g.exps + (0,) for g in nonface_ideal(rp2()).gens] + [(0,) * 6 + (1,)]
    ideal = MonomialIdeal(ctx, gens)
    tables = [graded_betti(ideal, f).entries for f in (QQ, GF(2), QQ)]
    assert tables[0] != tables[1] and tables[0] == tables[2]
    for f, t in zip((QQ, GF(2), QQ), tables):
        assert t == graded_betti(ideal, f).entries == betti_by_full_sweep(ideal, f).entries


# -- depth ------------------------------------------------------------------------


def test_depth_of_polynomial_ring():
    ctx = make_context(6)
    assert depth(MonomialIdeal.zero(ctx), QQ) == 6


def test_depth_unit_rejected():
    with pytest.raises(UnitIdealError):
        depth(MonomialIdeal.unit(CTX2), QQ)


def test_depth_overlap_family_is_one():
    ctx = make_context(6)
    primes = [
        MonomialIdeal.from_support(ctx, [f"x{i}" for i in s])
        for s in ([1, 2, 3, 4], [3, 4, 5, 6], [5, 6, 1, 2])
    ]
    ideal = primes[0].intersect(primes[1]).intersect(primes[2])
    assert depth(ideal, QQ) == 1
    assert depth_via_local_cohomology(ideal, QQ) == 1


def test_depth_grid_family_is_two():
    ctx = VarContext(("X1", "X2", "Y1", "Y2", "Z1", "Z2"))
    primes = [
        MonomialIdeal.from_support(ctx, s)
        for s in (["X1", "X2"], ["Y1", "Y2"], ["Z1", "Z2"])
    ]
    ideal = primes[0].intersect(primes[1]).intersect(primes[2])
    assert dim_of_quotient(ideal) == 4
    assert depth(ideal, QQ) == 2


def test_depth_grid_four_by_three_routes_agree():
    # four disjoint 3-subsets of 12 variables: each restriction and link has
    # at most four facets of up to nine vertices, so the nerve carries the work
    ctx = make_context(12)
    ideal = MonomialIdeal.from_support(ctx, ["x1", "x2", "x3"])
    for i in (4, 7, 10):
        ideal = ideal.intersect(MonomialIdeal.from_support(ctx, [f"x{i + j}" for j in range(3)]))
    assert depth(ideal, QQ) == 3
    assert depth_via_local_cohomology(ideal, QQ) == 3


def test_depth_non_squarefree_via_polarization():
    # (x^2, xy, y^3) is irrelevant-primary: the quotient is Artinian, depth 0
    ideal = MonomialIdeal.from_strings(CTX2, ["x^2", "x*y", "y^3"])
    assert dim_of_quotient(ideal) == 0
    assert depth(ideal, QQ) == 0
    assert depth_via_local_cohomology(ideal, QQ) == 0


def test_projective_plane_depth_characteristic_split():
    ideal = nonface_ideal(rp2())
    assert depth(ideal, QQ) == 3
    assert depth(ideal, GF(2)) == 2


def _vertex_types(ideal):
    """How many distinct sets of facets pass through the vertices of the complex."""
    facets = complex_of(ideal.polarize()[0]).facets
    return len({tuple(f >> v & 1 for f in facets) for v in range(ideal.context.n)})


def _spy_on_homology(monkeypatch):
    calls = []

    def spy(cplx, field):
        calls.append(cplx)
        return reduced_homology(cplx, field)

    monkeypatch.setattr(complexes, "reduced_homology", spy)
    return calls


def test_pd_over_type_sets_matches_full_betti_sweep(monkeypatch):
    # pd against 1 + the top index of the Betti table with every restriction
    # computed afresh, and depth against n minus that; every fifth ideal has
    # a square, so both go through polarization; the oracle's cost doubles
    # per variable, so only every 25th ideal has 9 or 10 variables
    rng = random.Random(27)
    fields = (QQ, GF(2), GF(3))
    pds, sizes, polarized = set(), set(), 0
    for case in range(300):
        n = rng.randint(9, 10) if case % 25 == 12 else rng.randint(3, 8)
        gens = []
        for _ in range(rng.randint(2, 10)):
            supp = rng.sample(range(n), rng.randint(1, min(3, n)))
            gens.append(tuple(1 if v in supp else 0 for v in range(n)))
        ideal = MonomialIdeal(make_context(n), gens)
        if case % 5 == 0:
            # squaring a variable of a minimal generator keeps it minimal
            first = list(ideal.gens[0].exps)
            first[first.index(1)] = 2
            ideal = MonomialIdeal(ideal.context, [first] + [g.exps for g in ideal.gens[1:]])
        field = fields[case % 3]
        sf, added = ideal.polarize()
        polarized += added > 0
        pd = pd_by_betti_table(betti_by_full_sweep(sf, field))
        assert projective_dimension(ideal, field) == pd
        assert depth(ideal, field) == n - pd
        pds.add(pd)
        sizes.add(n)
    assert polarized == 60 and len(pds) >= 6 and sizes == set(range(3, 11))
    # RP^2 plus a variable: the answer turns on the characteristic
    ctx = make_context(7)
    gens = [g.exps + (0,) for g in nonface_ideal(rp2()).gens] + [(0,) * 6 + (1,)]
    ideal = MonomialIdeal(ctx, gens)
    answers = []
    for field in fields:
        pd = pd_by_betti_table(betti_by_full_sweep(ideal, field))
        assert projective_dimension(ideal, field) == pd and depth(ideal, field) == 7 - pd
        answers.append(pd)
    assert answers == [4, 5, 4]  # over Q, F_2 and F_3
    # f-family shapes on 12-14 variables, too large for the oracle: few
    # vertex types, so at most one homology per type set, far fewer than the
    # 2^n subsets; pd against graded_betti's table where that takes under a
    # second, and depth against the link route over every field
    calls = _spy_on_homology(monkeypatch)
    for fam, table_field in [(grid(4, 3), QQ), (chain(5, 5), GF(2)), (grid(7, 2), None)]:
        ideal = fam.defining_ideal()
        n, types = ideal.context.n, _vertex_types(ideal)
        assert types <= 7 and 1 << types <= (1 << n) >> 6
        for field in fields:
            calls.clear()
            pd = projective_dimension(ideal, field)
            assert len(calls) <= 1 << types
            assert depth(ideal, field) == n - pd == depth_via_local_cohomology(ideal, field)
            if field is table_field:
                assert pd == pd_by_betti_table(graded_betti(ideal, field))


def test_pd_of_a_chain_makes_one_homology_per_type_set_at_most(monkeypatch):
    # chain(8,5) has 16 vertices of 4 types: a sweep of the 2^16 subsets
    # would make thousands of homology calls
    ideal = chain(8, 5).defining_ideal()
    assert ideal.context.n == 16 and _vertex_types(ideal) == 4
    calls = _spy_on_homology(monkeypatch)
    assert projective_dimension(ideal, QQ) == 11
    assert 0 < len(calls) <= 1 << 4


def test_auslander_buchsbaum_on_known_instances():
    rng = random.Random(12)
    for _ in range(15):
        n = rng.randint(3, 5)
        ctx = make_context(n)
        gens = []
        for _ in range(rng.randint(1, 3)):
            size = rng.randint(1, n - 1)
            supp = rng.sample(range(n), size)
            gens.append(tuple(1 if i in supp else 0 for i in range(n)))
        ideal = MonomialIdeal(ctx, gens)
        if ideal.is_unit() or ideal.is_zero():
            continue
        assert depth_via_local_cohomology(ideal, QQ) + projective_dimension(ideal, QQ) == n


def test_depth_at_most_dim_with_equality_iff_cm():
    rng = random.Random(13)
    for _ in range(15):
        n = rng.randint(2, 5)
        ctx = make_context(n)
        gens = []
        for _ in range(rng.randint(1, 3)):
            size = rng.randint(1, n - 1)
            supp = rng.sample(range(n), size)
            gens.append(tuple(1 if i in supp else 0 for i in range(n)))
        ideal = MonomialIdeal(ctx, gens)
        if ideal.is_unit() or ideal.is_zero():
            continue
        d = depth(ideal, QQ)
        dim = dim_of_quotient(ideal)
        assert d <= dim
        assert (d == dim) == is_cohen_macaulay(complex_of(ideal), QQ)


# -- Reisner criterion ---------------------------------------------------------


def _swept_sizes(cplx, field):
    """|sigma| of every face the engine's link sweep reaches."""
    return [size for size, _hom in complexes._link_homology(cplx, field)]


def test_link_routes_match_link_sweep_oracle():
    # up to eleven minimal generators of degree 2 or 3: complexes with many
    # facets, whose links the engine builds inline and the oracle on its own;
    # every fifth ideal gains a variable in no generator, which makes its
    # complex a cone on that vertex, so the sweep skips the empty face
    rng = random.Random(23)
    fields = (QQ, GF(2), GF(3))
    seen = {"cm": set(), "depth": set(), "gens": set(), "field": set()}
    cases, pruned = 90, 0
    for case in range(cases):
        n = rng.randint(4, 9)
        gens = []
        for _ in range(rng.randint(2, 12)):
            supp = rng.sample(range(n), rng.randint(2, 3))
            # every eighth ideal has a square, so depth goes through polarization
            power = 2 if case % 8 == 0 and not gens else 1
            gens.append(tuple(power if v == supp[0] else 1 if v in supp else 0 for v in range(n)))
        apex = case % 5 == 4
        if apex:
            gens = [g + (0,) for g in gens]
        ideal = MonomialIdeal(make_context(n + apex), gens)
        seen["gens"].add(len(ideal.gens))
        field = fields[case % 3]
        seen["field"].add((str(field), apex))
        d = depth_via_local_cohomology(ideal, field)
        assert d == depth_by_link_sweep(ideal, field)
        seen["depth"].add(d)
        c = complex_of(ideal.polarize()[0])
        sizes = _swept_sizes(c, field)
        assert len(sizes) <= len(c.faces())
        pruned += len(sizes) < len(c.faces())
        common = c.facets[0]
        for f in c.facets:
            common &= f
        assert (0 in sizes) == (common == 0)  # the empty face is swept iff the complex is no cone
        if ideal.is_squarefree():
            cm = is_cohen_macaulay(c, field)
            assert cm == cohen_macaulay_by_link_sweep(c, field)
            seen["cm"].add(cm)
    assert seen["cm"] == {True, False} and len(seen["depth"]) >= 5 and max(seen["gens"]) >= 10
    assert len(seen["field"]) == 6  # every field, with and without an apex
    assert pruned >= cases * 3 // 4, pruned  # a sweep of every face cannot pass
    # a pseudomanifold, where every face is an intersection of facets, whose
    # CM verdict turns on the field; and a simplex and {()}, one facet each
    for c, field in [(rp2(), QQ), (rp2(), GF(2))]:
        assert len(_swept_sizes(c, field)) == len(c.faces())
        assert is_cohen_macaulay(c, field) == cohen_macaulay_by_link_sweep(c, field)
        ideal = nonface_ideal(c)
        assert depth_via_local_cohomology(ideal, field) == depth_by_link_sweep(ideal, field)
    for gens in ([(1, 0, 0, 0), (0, 1, 0, 0)], [(1, 0, 0), (0, 1, 0), (0, 0, 1)]):
        ideal = MonomialIdeal(make_context(len(gens[0])), gens)
        c = complex_of(ideal)
        assert len(c.facets) == 1 and _swept_sizes(c, GF(3)) == [c.facets[0].bit_count()]
        for field in fields:
            assert depth_via_local_cohomology(ideal, field) == depth_by_link_sweep(ideal, field)


def test_simplex_is_cohen_macaulay():
    assert is_cohen_macaulay(SimplicialComplex(CTX3, (0b111,)), QQ)


def test_two_disjoint_edges_not_cohen_macaulay():
    ctx = VarContext(("x", "y", "z", "w"))
    c = SimplicialComplex(ctx, (0b0011, 0b1100))  # xy, zw
    assert not is_cohen_macaulay(c, QQ)


def test_projective_plane_cm_depends_on_characteristic():
    c = rp2()
    assert is_cohen_macaulay(c, QQ)
    assert not is_cohen_macaulay(c, GF(2))


def test_cone_raises_depth_and_dim_by_one():
    rng = random.Random(14)
    for _ in range(10):
        n = rng.randint(2, 4)
        ctx = make_context(n)
        facets = []
        for _ in range(rng.randint(1, 3)):
            size = rng.randint(1, n)
            facets.append(sum(1 << v for v in rng.sample(range(n), size)))
        c = SimplicialComplex(ctx, facets)
        ideal = nonface_ideal(c)
        if ideal.is_unit() or ideal.is_zero():
            continue
        # the cone over c with a new vertex as its apex
        apex = 1 << n
        coned = SimplicialComplex(VarContext(ctx.names + ("apex",)), [f | apex for f in c.facets])
        coned_ideal = nonface_ideal(coned)
        if coned_ideal.is_zero():
            continue
        assert depth(coned_ideal, QQ) == depth(ideal, QQ) + 1
        assert dim_of_quotient(coned_ideal) == dim_of_quotient(ideal) + 1
