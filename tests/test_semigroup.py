import random
from collections import Counter
from itertools import combinations
from math import gcd

import pytest

from ccalab.errors import PrecisionError
from ccalab.linalg import GF, QQ, Subspace
from ccalab.semigroup import (
    NumericalSemigroup,
    _quad_mul_alpha,
    QuadraticExtensionModel,
    TruncatedSubalgebra,
    cone_model_checks,
    parse_t_series,
    quadratic_extension_checks,
    quadratic_extension_closure,
    quadratic_extension_report,
    semigroup_cone_report,
    semigroup_invariants,
    subalgebra_closure,
    subalgebra_report,
)

from oracles import sieve_semigroup, subalgebra_by_products, symmetric_by_pairing

CASE2_GENS = [parse_t_series(t) for t in ("t^2+t^3", "t^4", "t^6")]


# -- numerical semigroups -----------------------------------------------------


def test_invariants_2_3():
    inv = semigroup_invariants(NumericalSemigroup((2, 3)))
    assert inv["gaps"] == [1]
    assert inv["frobenius"] == 1
    assert inv["symmetric"]


def test_invariants_3_4():
    inv = semigroup_invariants(NumericalSemigroup((3, 4)))
    assert inv["gaps"] == [1, 2, 5]
    assert inv["frobenius"] == 5
    assert inv["conductor"] == 6
    assert inv["symmetric"]
    assert inv["apery"] == [0, 4, 8]


def test_full_semigroup_edge_case():
    inv = semigroup_invariants(NumericalSemigroup((1,)))
    assert inv["gaps"] == []
    assert inv["conductor"] == 0


def test_minimal_generators_pruned():
    h = NumericalSemigroup((4, 6, 10, 13))
    assert h.gens == (4, 6, 13)


def test_minimal_generators_against_independent_sieve():
    # a generator is minimal iff the smaller ones do not reach it
    rng = random.Random(48)
    pruned = 0
    for _ in range(200):
        gens = sorted({rng.randint(2, 40) for _ in range(rng.randint(2, 6))})
        if gcd(*gens) != 1:
            continue
        expected = tuple(a for a in gens if not sieve_semigroup([b for b in gens if b < a], a)[a])
        assert NumericalSemigroup(gens).gens == expected
        pruned += len(expected) < len(gens)
    assert pruned >= 50


def test_generators_past_the_table_limit():
    # a generator past the Frobenius number of the smaller minimal ones is
    # dropped unsieved; one that the smaller ones cannot reach is refused
    assert NumericalSemigroup((1, 10**10)).gens == (1,)
    h = NumericalSemigroup((3, 4, 10**12))
    assert h.gens == (3, 4) and h.gaps() == (1, 2, 5)
    with pytest.raises(ValueError, match="more than 10000000001 entries"):
        NumericalSemigroup((4, 6, 10**10 + 1))


def test_gcd_must_be_one():
    with pytest.raises(ValueError):
        NumericalSemigroup((4, 6))


def test_apery_against_independent_sieve():
    for gens in [(3, 4), (5, 7, 9), (41, 43)]:
        h = NumericalSemigroup(gens)
        table = sieve_semigroup(gens, 4 * 41 * 43)
        # the last m is a member past the Frobenius number
        for m in (min(gens), max(gens), h.conductor() + 7):
            apery = h.apery(m)
            for r in range(m):
                least = next(x for x in range(r, len(table), m) if table[x])
                assert apery[r] == least


def test_gaps_against_independent_sieve():
    for gens in [(3, 5), (5, 7, 9), (4, 9), (6, 10, 15)]:
        h = NumericalSemigroup(gens)
        table = sieve_semigroup(list(gens), 200)
        assert list(h.gaps()) == [i for i in range(h.conductor()) if not table[i]]


def test_symmetry_matches_direct_pairing():
    # every 2- or 3-element generator set in [2, 13] with gcd 1
    outcomes = Counter()
    for size in (2, 3):
        for gens in combinations(range(2, 14), size):
            if gcd(*gens) != 1:
                continue
            h = NumericalSemigroup(gens)
            assert h.is_symmetric() == symmetric_by_pairing(h), gens
            outcomes[h.is_symmetric()] += 1
    assert outcomes[True] >= 50 and outcomes[False] >= 50


# -- truncated subalgebras ------------------------------------------------------


def test_parse_t_series():
    assert parse_t_series("t^2+t^3") == {2: 1, 3: 1}
    assert parse_t_series("2t^4 - t") == {4: 2, 1: -1}
    assert parse_t_series("t") == {1: 1}


def test_monomial_closure_matches_semigroup_pattern():
    h = NumericalSemigroup((3, 4))
    p = subalgebra_closure([{g: 1} for g in h.gens], QQ, 20, 5)
    assert p.valuations() == [x for x in range(15) if h.contains(x)]
    assert p.conductor_exponent() == 6


def test_monomial_closure_pattern_for_many_semigroups():
    for gens in [(2, 3), (2, 5), (3, 5), (4, 5, 6)]:
        h = NumericalSemigroup(gens)
        p = subalgebra_closure([{g: 1} for g in h.gens], QQ, 30, 8)
        assert p.valuations() == [x for x in range(22) if h.contains(x)]
        assert p.conductor_exponent() == h.conductor()


def test_closure_matches_products_oracle():
    rng = random.Random(19)
    for case in range(120):
        field = (QQ, GF(2), GF(3))[case % 3]
        precision = rng.randint(17, 26)
        gens = []
        for _ in range(rng.randint(1, 3)):
            v = rng.randint(2, 6)
            g = {v: 1}
            for e in rng.sample(range(v + 1, precision + 3), rng.randint(1, 3)):
                g[e] = rng.choice((-3, -2, -1, 1, 2, 3))
            gens.append(g)
        p = subalgebra_closure(gens, field, precision, 5)
        assert p.basis == subalgebra_by_products(gens, field, precision), (field, gens)


def test_characteristic_split_frozen_values():
    p2 = subalgebra_closure(CASE2_GENS, GF(2))
    assert p2.contains_t_power(7)
    assert 5 not in p2.valuations()
    assert 3 not in p2.valuations()
    assert p2.conductor_exponent() == 6

    pq = subalgebra_closure(CASE2_GENS, QQ)
    h25 = NumericalSemigroup((2, 5))
    assert pq.valuations() == [x for x in range(pq.window) if h25.contains(x)]
    assert not pq.contains_t_power(3)
    assert pq.conductor_exponent() == 4


def test_characteristic_split_is_uniform_across_fields():
    # 3 lies in v(P) over no field; 7 lies in v(P) over every field.
    # 5 is the characteristic-sensitive value: present except in char 2.
    for field in (QQ, GF(2), GF(3), GF(5)):
        p = subalgebra_closure(CASE2_GENS, field)
        assert 3 not in p.valuations()
        assert 7 in p.valuations()
        assert (5 in p.valuations()) == (field.p != 2)


def test_truncation_monotonicity():
    base = subalgebra_closure(CASE2_GENS, QQ, 40, 10)
    bigger = subalgebra_closure(CASE2_GENS, QQ, 60, 10)
    window = base.window
    assert [v for v in bigger.valuations() if v < window] == base.valuations()
    assert base.conductor_exponent() == bigger.conductor_exponent()


def test_full_ring_has_conductor_exponent_zero():
    p = subalgebra_closure([{1: 1}], QQ, 20, 5)
    assert p.conductor_exponent() == 0
    assert p.valuations() == list(range(15))


def test_precision_guard():
    with pytest.raises(PrecisionError):
        subalgebra_closure([{30: 1}, {31: 1}], QQ, 40, 10)


def test_truncated_subalgebra_checks_its_own_window():
    # built directly, not through subalgebra_closure: with margin -5 the
    # window 25 would read t^22 as a member of k[t]/(t^20)
    with pytest.raises(PrecisionError, match="negative"):
        TruncatedSubalgebra([{2: 1}, {3: 1}], QQ, precision=20, margin=-5)
    with pytest.raises(PrecisionError, match="below 2 \\* generator valuation"):
        TruncatedSubalgebra([{30: 1}, {31: 1}], QQ, 40, 10)


def test_negative_margin_is_rejected():
    # the window N - margin must not reach past the truncation at t^N
    with pytest.raises(PrecisionError):
        subalgebra_closure([{4: 1}, {6: 1}], QQ, 20, -10)
    with pytest.raises(PrecisionError):
        cone_model_checks([{3: 1}, {4: 1}], QQ, precision=24, s_precision=3, margin=-1)
    model = QuadraticExtensionModel(QQ, u=-1, v=0, precision=20)
    with pytest.raises(PrecisionError):
        quadratic_extension_checks(model, margin=-1)


def test_subalgebra_report_passes():
    rep = subalgebra_report(
        ["t^2+t^3", "t^4", "t^6"],
        GF(2),
        expected={
            "t_powers_present": [7],
            "valuations_absent": [3, 5],
            "conductor_exponent": 6,
        },
    )
    assert rep.passed()


def test_subalgebra_claims_outside_the_window_raise():
    # precision 20 and margin 5 certify [0, 15): 16 lies in <2,3>, and
    # t^25 lies past the truncation, so neither claim could be earned
    for expected in (
        {"valuations_absent": [16]},
        {"valuations_absent": [30]},
        {"t_powers_present": [25]},
        {"t_powers_absent": [15]},
        {"valuations_present": [-1]},
    ):
        with pytest.raises(PrecisionError):
            subalgebra_report(["t^2", "t^3"], QQ, precision=20, margin=5, expected=expected)
    inside = {
        "valuations_present": [14],
        "valuations_absent": [1],
        "t_powers_present": [14],
        "t_powers_absent": [1],
    }
    assert subalgebra_report(["t^2", "t^3"], QQ, precision=20, margin=5, expected=inside).passed()


# -- quadratic extensions ---------------------------------------------------------


def test_quadratic_closure_is_k0_plus_tV():
    # P = k0 + tV, truncated: the span of 1 and of t^j, alpha t^j for 1 <= j < N
    for base, u, v in ((QQ, -1, 0), (QQ, -2, 1), (GF(3), 1, 1), (GF(5), 2, 0)):
        for n in (8, 20):
            model = QuadraticExtensionModel(base, u=u, v=v, precision=n)
            units = [{0: 1}] + [{2 * j + part: 1} for j in range(1, n) for part in (0, 1)]
            assert quadratic_extension_closure(model) == Subspace(base, 2 * n, units)


def test_alpha_image_of_an_int_vector_over_q_stays_int():
    # alpha (a + b alpha) = b u + (a + b v) alpha; with integral u and v an int
    # vector maps to an int vector over Q, and to residues mod p over F_p
    vec = {0: 2, 1: 3, 4: -1, 7: 5}
    for base, u, v, want in (
        (QQ, -2, 1, {0: -6, 1: 5, 5: -1, 6: -10, 7: 5}),
        (GF(3), 1, 1, {1: 2, 5: 2, 6: 2, 7: 2}),
    ):
        model = QuadraticExtensionModel(base, u=u, v=v, precision=8)
        got = _quad_mul_alpha(model, vec)
        assert got == want
        assert all(type(x) is int for x in got.values()), got


def test_quadratic_extension_rational_i():
    model = QuadraticExtensionModel(QQ, u=-1, v=0, precision=20)
    res = quadratic_extension_checks(model, margin=5)
    assert res["v_equals_p_plus_alpha_p"]
    assert res["maximal_ideal_times_v_in_p"]
    assert res["alpha_not_in_p"]
    assert res["cokernel_degree0_dim"] == 1


def test_quadratic_extension_f9():
    model = QuadraticExtensionModel(GF(3), u=1, v=1, precision=20)
    rep = quadratic_extension_report(model, margin=5)
    assert rep.passed()


def test_quadratic_window_below_two_is_rejected():
    # an empty window would let `decomposition` and `conductor` pass vacuously
    model = QuadraticExtensionModel(QQ, u=-1, v=0, precision=24)
    for margin in (30, 23):
        with pytest.raises(PrecisionError):
            quadratic_extension_report(model, margin=margin)
    assert quadratic_extension_checks(model, margin=22)["window"] == 2


def test_quadratic_extension_rejects_degenerate():
    with pytest.raises(ValueError):
        QuadraticExtensionModel(QQ, u=1, v=0)  # alpha^2 = 1
    with pytest.raises(ValueError):
        QuadraticExtensionModel(GF(3), u=1, v=0)
    with pytest.raises(ValueError):
        QuadraticExtensionModel(QQ, u=0, v=2)  # x(x - 2) splits


def test_quadratic_extension_root_test_is_exact():
    # alpha = 10^16 + 1 is rational, but a float square root misses it
    big = 10**16 + 1
    with pytest.raises(ValueError):
        QuadraticExtensionModel(QQ, u=big**2, v=0)
    with pytest.raises(ValueError):
        QuadraticExtensionModel(QQ, u=4 * big**2 - 1, v=2)
    QuadraticExtensionModel(QQ, u=big**2 + 1, v=0)  # a non-square stays a field


# -- cone models --------------------------------------------------------------------


def test_cone_semigroup_3_4():
    res = cone_model_checks([{3: 1}, {4: 1}], QQ, precision=24, s_precision=3, margin=6)
    assert res["conductor_exponent"] == 6
    assert res["conductor_matches_closed_form"]
    assert res["conductor_certified"]
    assert res["socle_B_over_A"] == res["socle_V_over_P"] == 1


def test_cone_full_ring_degenerate():
    # P = V: the conductor exponent is zero and A:B fills the window
    res = cone_model_checks([{1: 1}], QQ, precision=16, s_precision=2, margin=4)
    assert res["conductor_exponent"] == 0
    assert res["conductor_matches_closed_form"]


def test_cone_case2_rational():
    res = cone_model_checks(CASE2_GENS, QQ, precision=24, s_precision=3, margin=6)
    assert res["conductor_exponent"] == 4
    assert res["socle_B_over_A"] == res["socle_V_over_P"] == 1


def test_cone_report_semigroup_3_4():
    rep = semigroup_cone_report(
        ["t^3", "t^4"],
        field=QQ,
        expected={
            "symmetric": True,
            "semigroup_conductor": 6,
            "conductor_exponent": 6,
            "type_r": 1,
        },
        semigroup_gens=[3, 4],
    )
    assert rep.passed()
