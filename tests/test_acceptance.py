"""Acceptance criteria, one test per criterion.

Every check is exact (integer or symbolic equality, zero tolerance).
Each test prints a single PASS/FAIL line; run with `pytest -v` or `-s`
to see them.  Runtime bounds are asserted where stated.
"""

import time

import pytest

from ccalab.complexes import (
    SimplicialComplex,
    depth,
    depth_via_local_cohomology,
    dim_of_quotient,
)
from ccalab.families import (
    ArtinianQuotient,
    fiber_product_report,
    socle_and_type,
)
from ccalab.linalg import GF, QQ
from ccalab.monomial import MonomialIdeal, VarContext, make_context, quotient_height
from ccalab.polys import p_linear, p_mono
from ccalab.pullback import (
    PullbackFamily,
    cokernel_profile,
    conductor,
    verify_generation,
)
from ccalab.s2 import trace_ideal_check
from ccalab.semigroup import (
    NumericalSemigroup,
    cone_model_checks,
    parse_t_series,
    semigroup_invariants,
    subalgebra_closure,
)
from ccalab.suites import (
    auslander_buchsbaum_suite,
    conductor_two_path_suite,
    lemma_intersection_suite,
    s2_oracle_suite,
)

from oracles import nonface_ideal


def report(name, ok):
    print(f"ACCEPTANCE {name}: {'PASS' if ok else 'FAIL'}")
    assert ok


def indexed(n, index_sets):
    """The intersection family on x1..xn with 1-based index subsets."""
    return PullbackFamily.from_supports(
        make_context(n), [[f"x{i}" for i in s] for s in index_sets]
    )


def test_criterion_1_overlap_family_depth_one():
    start = time.perf_counter()
    fam = indexed(6, [[1, 2, 3, 4], [3, 4, 5, 6], [5, 6, 1, 2]])
    defining = fam.defining_ideal()
    ctx = fam.context
    cond = conductor(fam)
    maxideal = MonomialIdeal.from_support(ctx, ctx.names)
    checks = [
        cond == maxideal,                                  # I = m
        quotient_height(cond, defining) == 2,              # ht_A I = 2
        dim_of_quotient(defining) == 2,                    # dim A = 2
        depth(defining, QQ) == 1,                          # depth A = 1
    ]
    prof = cokernel_profile(fam)
    checks += [
        prof.length == 2,                                  # l_A(B/A) = 2
        prof.socle_dim == 2,                               # socle dim = 2
        prof.annihilator_ok,                               # m (B/A) = 0
    ]
    a = p_linear(6, [0, 2, 4])
    b = p_linear(6, [1, 3, 5])
    checks.append(verify_generation(fam, cond, [a, b]))  # m = aB + bB
    elapsed = time.perf_counter() - start
    report("1 overlap family n=6 m=4", all(checks) and elapsed < 5.0)


def test_criterion_2_grid_family_depth_two():
    start = time.perf_counter()
    fam = PullbackFamily.from_supports(
        VarContext(("X1", "X2", "Y1", "Y2", "Z1", "Z2")),
        [["X1", "X2"], ["Y1", "Y2"], ["Z1", "Z2"]],
    )
    defining = fam.defining_ideal()
    cond = conductor(fam)
    primes = [p.ideal() for p in fam.primes]
    quotient_depths = [depth(cond + p, QQ) for p in primes]
    checks = [
        dim_of_quotient(defining) == 4,
        depth(defining, QQ) == 2,
        quotient_height(cond, defining) == 2,
        quotient_depths == [1, 1, 1],
        min(quotient_depths) == 1,
    ]
    elapsed = time.perf_counter() - start
    report("2 grid family l=3 m=2", all(checks) and elapsed < 10.0)


def test_criterion_3_chain_family_depth_three():
    start = time.perf_counter()
    fam = indexed(8, [[1, 2, 3, 4], [3, 4, 5, 6], [5, 6, 7, 8]])
    defining = fam.defining_ideal()
    cond = conductor(fam)
    checks = [
        depth(defining, QQ) == 3,
        dim_of_quotient(defining) == 4,
        quotient_height(cond, defining) == 2,
        depth(cond, QQ) == 1,  # depth A/I = 1
    ]
    elapsed = time.perf_counter() - start
    report("3 chain family q=3 m=4", all(checks) and elapsed < 60.0)


def test_criterion_4_two_planes_trace_powers():
    ctx = VarContext(("X", "Y", "Z", "W"))
    fam = PullbackFamily.from_supports(ctx, [["X", "Y"], ["Z", "W"]])
    maxideal = MonomialIdeal.from_support(ctx, ctx.names)
    checks = [conductor(fam) == maxideal]
    power = maxideal
    for ell in (1, 2, 3):
        checks.append(trace_ideal_check(fam, power) == (True, "I:I = A:I = B"))
        power = power * maxideal
    report("4 two-planes conductor and trace powers", all(checks))


def test_criterion_5_parameter_square_fibers_and_negative_control():
    checks = []
    for d in (2, 3):
        ctx = make_context(d, "X")
        gens = ["X1^2"] + [f"X{i}" for i in range(2, d + 1)]
        q = ArtinianQuotient(ctx, MonomialIdeal.from_strings(ctx, gens))
        st = socle_and_type(q)
        checks += [st["length"] == 2, st["socle_dim"] == 1]
        fam = PullbackFamily.congruence(q.ideal)
        checks.append(conductor(fam) == q.ideal)
        prof = cokernel_profile(fam)
        checks += [prof.length == 2, prof.socle_dim == 1]
        alphas = [p_mono(g.exps) for g in q.ideal.gens]
        checks.append(verify_generation(fam, q.ideal, alphas))
    # negative control
    ctx2 = make_context(2, "X")
    qneg = ArtinianQuotient(
        ctx2, MonomialIdeal.from_strings(ctx2, ["X1^2", "X1*X2", "X2^2"])
    )
    checks.append(socle_and_type(qneg)["socle_dim"] == 2)
    rep = fiber_product_report(
        qneg, expected={"type_r": 2, "hypothesis_r_is_one": False}
    )
    hyp = next(c for c in rep.claims if c.claim_id == "hypothesis.r-is-one")
    checks += [rep.passed(), hyp.computed is False]
    report("5 parameter squares, fiber products, negative control", all(checks))


def test_criterion_6_characteristic_split():
    gens = [parse_t_series(t) for t in ("t^2+t^3", "t^4", "t^6")]
    p2 = subalgebra_closure(gens, GF(2))
    pq = subalgebra_closure(gens, QQ)
    h25 = NumericalSemigroup((2, 5))
    checks = [
        p2.contains_t_power(7),
        3 not in p2.valuations(),
        5 not in p2.valuations(),
        pq.valuations() == [x for x in range(pq.window) if h25.contains(x)],
        not pq.contains_t_power(3),
        p2.conductor_exponent() == 6,
        pq.conductor_exponent() == 4,
        p2.conductor_certified(),
        pq.conductor_certified(),
    ]
    report("6 characteristic split of the cuspidal subalgebra", all(checks))


def test_criterion_7_semigroup_cone():
    inv = semigroup_invariants(NumericalSemigroup((3, 4)))
    res = cone_model_checks(
        [{3: 1}, {4: 1}], QQ, precision=24, s_precision=3, margin=6
    )
    checks = [
        inv["symmetric"],
        inv["conductor"] == 6,
        res["conductor_exponent"] == 6,
        res["conductor_matches_closed_form"],
        res["conductor_certified"],
        res["socle_B_over_A"] == res["socle_V_over_P"],
    ]
    report("7 symmetric semigroup cone", all(checks))


@pytest.mark.parametrize(
    "suite_fn,name",
    [
        (lemma_intersection_suite, "deleted intersections"),
        (conductor_two_path_suite, "conductor two-path"),
        (auslander_buchsbaum_suite, "depth plus pd"),
        (s2_oracle_suite, "hull membership oracle"),
    ],
)
def test_criterion_8_property_suites(suite_fn, name):
    rep = suite_fn(seed=0, trials=200)
    ok = rep.passed()
    computed = rep.claims[0].computed
    report(f"8 property suite ({name}) 200 trials", ok and computed["failures"] == [])


def test_criterion_9_projective_plane_sanity():
    ctx = make_context(6, "v")
    triangles = [
        [1, 2, 5], [1, 2, 6], [1, 3, 4], [1, 3, 6], [1, 4, 5],
        [2, 3, 4], [2, 3, 5], [2, 4, 6], [3, 5, 6], [4, 5, 6],
    ]
    cplx = SimplicialComplex(ctx, [ctx.mask_of([f"v{i}" for i in t]) for t in triangles])
    ideal = nonface_ideal(cplx)
    checks = [
        depth(ideal, QQ) == 3,
        depth(ideal, GF(2)) == 2,
        depth_via_local_cohomology(ideal, QQ) == 3,
        depth_via_local_cohomology(ideal, GF(2)) == 2,
    ]
    report("9 projective-plane characteristic sensitivity", all(checks))
