import random

import pytest

from ccalab import pullback
from ccalab.errors import CCAError, ZeroDivisorError
from ccalab.monomial import (
    Monomial,
    MonomialIdeal,
    VarContext,
    intersect_all,
    make_context,
    parse_monomial,
)
from ccalab.polys import p_linear, p_of_monomial
from ccalab.pullback import BElement, GradedSubmodule, PullbackFamily, colon_in_B, conductor
from ccalab.s2 import (
    QuotientRing,
    s2_equals_B_test,
    s2_membership,
    s2_membership_oracle,
    trace_ideal_check,
    unmixed_component_principal,
)
from ccalab.suites import random_antichain, random_monomial_ideal

import oracles

CTX5 = VarContext(("x", "y", "z", "w", "u"))


@pytest.fixture
def cross_ring():
    """A = k[x,y,z,w,u] / ((x,y) cap (z,w))."""
    defining = MonomialIdeal.from_support(CTX5, ["x", "y"]).intersect(
        MonomialIdeal.from_support(CTX5, ["z", "w"])
    )
    return QuotientRing(CTX5, defining)


# -- unmixed components -----------------------------------------------------------


def test_unmixed_component_in_ambient_ring():
    ctx = make_context(3)
    ring = QuotientRing.ambient(ctx)
    a = parse_monomial(ctx, "x1*x2^2")
    # principal ideals in the polynomial ring are unmixed
    assert unmixed_component_principal(ring, a) == MonomialIdeal(ctx, [a])


def test_unmixed_component_cross_ring(cross_ring):
    u = parse_monomial(CTX5, "u")
    got = unmixed_component_principal(cross_ring, u)
    assert got == MonomialIdeal(CTX5, [u]) + cross_ring.defining
    # cross-check: both minimal primes of (u) + defining have height 3
    lifted = MonomialIdeal(CTX5, [u]) + cross_ring.defining
    assert {p.size() for p in lifted.minimal_primes()} == {3}


def test_unmixed_component_unit_branch():
    ctx = make_context(2)
    ring = QuotientRing.ambient(ctx)
    one = Monomial.one(2)
    assert unmixed_component_principal(ring, one).is_unit()


def test_unmixed_component_rejects_zerodivisors(cross_ring):
    with pytest.raises(ZeroDivisorError):
        unmixed_component_principal(cross_ring, parse_monomial(CTX5, "x"))


def test_nonzerodivisor_uses_associated_primes():
    # (x^2, xy) has the embedded prime (x, y): y is a zerodivisor even
    # though it avoids the unique minimal prime (x)
    ctx = VarContext(("x", "y"))
    ring = QuotientRing(ctx, MonomialIdeal.from_strings(ctx, ["x^2", "x*y"]))
    assert not ring.is_nonzerodivisor(parse_monomial(ctx, "y"))


# -- fraction membership -------------------------------------------------------------


def test_s2_membership_inside_module(cross_ring):
    u = parse_monomial(CTX5, "u")
    assert s2_membership(cross_ring, parse_monomial(CTX5, "u*x"), u)
    assert s2_membership_oracle(cross_ring, parse_monomial(CTX5, "u*x"), u)


def test_s2_membership_outside(cross_ring):
    u = parse_monomial(CTX5, "u")
    assert not s2_membership(cross_ring, parse_monomial(CTX5, "x"), u)
    assert not s2_membership_oracle(cross_ring, parse_monomial(CTX5, "x"), u)


def test_s2_membership_agrees_with_oracle_randomly():
    rng = random.Random(21)
    done = 0
    while done < 60:
        n = rng.randint(3, 5)
        ctx = make_context(n)
        if rng.random() < 0.3:
            defining = MonomialIdeal.zero(ctx)
            free = list(range(n))
        else:
            ell = rng.randint(1, 2)
            subsets = [
                frozenset(rng.sample(range(n), rng.randint(1, max(1, n - 2))))
                for _ in range(ell)
            ]
            union = frozenset().union(*subsets)
            free = [i for i in range(n) if i not in union]
            if not free:
                continue
            defining = intersect_all(
                [
                    MonomialIdeal.from_support(ctx, sorted(f"x{i+1}" for i in s))
                    for s in subsets
                ]
            )
            if defining.is_zero() or defining.is_unit():
                continue
        ring = QuotientRing(ctx, defining)
        a_exps = [0] * n
        for _ in range(rng.randint(1, 2)):
            a_exps[rng.choice(free)] += 1
        a = Monomial(a_exps)
        m_exps = [0] * n
        for _ in range(rng.randint(0, 3)):
            m_exps[rng.randrange(n)] += 1
        m = Monomial(m_exps)
        assert s2_membership(ring, m, a) == s2_membership_oracle(ring, m, a)
        done += 1


# -- trace ideals ----------------------------------------------------------------------


def test_trace_pipeline_max_ideal_powers():
    ctx = VarContext(("X", "Y", "Z", "W"))
    fam = PullbackFamily.from_supports(ctx, [["X", "Y"], ["Z", "W"]])
    m = MonomialIdeal.from_support(ctx, ctx.names)
    power = m
    for ell in (1, 2, 3):
        assert trace_ideal_check(fam, power) == (True, "I:I = A:I = B")
        power = power * m


def test_trace_pipeline_rejects_low_height():
    ctx = VarContext(("X", "Y", "Z", "W"))
    fam = PullbackFamily.from_supports(ctx, [["X", "Y"], ["Z", "W"]])
    # the image of (X) consists of zerodivisors: precondition violation
    with pytest.raises(ZeroDivisorError):
        trace_ideal_check(fam, MonomialIdeal.from_strings(ctx, ["X"]))
    # (X, Z) escapes both components but has height one in A
    with pytest.raises(ValueError):
        trace_ideal_check(fam, MonomialIdeal.from_strings(ctx, ["X", "Z"]))
    # x1*x5 lies in P_1 = (x1, x2) although its support is not inside F_1
    ctx5 = make_context(5)
    fam5 = PullbackFamily.from_supports(ctx5, [["x1", "x2"], ["x3", "x4"]])
    with pytest.raises(ZeroDivisorError):
        trace_ideal_check(fam5, MonomialIdeal.from_strings(ctx5, ["x1*x5"]))


def test_bounded_trace_check_sweeps_no_degrees(monkeypatch):
    solves = []
    degrees = []
    stable = pullback.stable_subspace
    piece = GradedSubmodule.piece

    def counting(*args, **kwargs):
        solves.append(args)
        return stable(*args, **kwargs)

    def recording(self, d):
        degrees.append(d)
        return piece(self, d)

    ctx = VarContext(("X", "Y", "Z", "W"))
    fam = PullbackFamily.from_supports(ctx, [["X", "Y"], ["Z", "W"]])
    overlap = PullbackFamily.from_supports(ctx, [["X", "Y"], ["Y", "Z"]])
    conductor(fam)
    conductor(overlap)
    monkeypatch.setattr(pullback, "stable_subspace", counting)
    monkeypatch.setattr(GradedSubmodule, "piece", recording)
    m = MonomialIdeal.from_support(ctx, ctx.names)
    power = m
    for ell in (1, 2, 3):
        degrees.clear()
        assert trace_ideal_check(fam, power)[0]
        # the witness reads only the pieces at the generator degree
        assert set(degrees) == {ell}
        assert solves == []
        power = power * m
    # a certificate that fails before the witness solves nothing
    degrees.clear()
    assert trace_ideal_check(overlap, m) == (False, "conductor height < 2")
    assert degrees == [] and solves == []


def _trace_families(rng):
    """Random antichain families, alternating with unmixed ones where every
    |F_i - F_j| >= 2, so that many certificates reach the colon branch."""
    fams = []
    while len(fams) < 30:
        if len(fams) % 2:
            n = rng.randint(4, 6)
            size = rng.randint(2, n - 2)
            subsets = [frozenset(rng.sample(range(n), size)) for _ in range(rng.randint(2, 3))]
            if any(len(a - b) < 2 for a in subsets for b in subsets if a is not b):
                continue
        else:
            n = rng.randint(3, 6)
            subsets = random_antichain(rng, n, rng.randint(2, 4))
            if subsets is None:
                continue
        fams.append(
            PullbackFamily.from_supports(
                make_context(n), [sorted(f"x{i+1}" for i in s) for s in subsets]
            )
        )
    return fams


def test_trace_check_matches_two_colon_oracle():
    rng = random.Random(31)
    reached = 0
    lemma = {True: 0, False: 0}
    for fam in _trace_families(rng):
        ctx = fam.context
        m = MonomialIdeal.from_support(ctx, ctx.names)
        rand = random_monomial_ideal(rng, ctx, max_gens=3, max_deg=2)
        for ideal in (conductor(fam), m, m * m, rand):
            # the colon sweep's bound: the generator degree or one past it
            bound = ideal.max_gen_degree() + rng.randint(0, 1)
            if not ideal.is_zero():
                # the idempotent witness against the colon sweep, certified or not
                sub = GradedSubmodule.from_ideal(fam, ideal)
                witness = not sub.missing(ideal)
                assert witness == colon_in_B(fam, sub, ideal, bound=bound).equals_all_of_B(fam)
                lemma[witness] += 1
            try:
                got = trace_ideal_check(fam, ideal)
            except (CCAError, ValueError) as exc:
                got = type(exc)
            try:
                ref, colons = oracles.trace_verdict_two_colons(fam, ideal, bound)
            except (CCAError, ValueError) as exc:
                ref, colons = type(exc), None
            assert got == ref
            if colons is not None:
                reached += 1
                endo, dual = colons
                for d in range(bound + 1):
                    assert all(dual.piece(d).contains(r) for r in endo.piece(d).rows.values())
    assert reached >= 10
    assert min(lemma.values()) >= 20


def test_trace_duality_bounded():
    # whenever the pipeline passes, the two colon modules agree with B
    ctx = VarContext(("X", "Y", "Z", "W"))
    fam = PullbackFamily.from_supports(ctx, [["X", "Y"], ["Z", "W"]])
    m = MonomialIdeal.from_support(ctx, ctx.names)
    sub_i = GradedSubmodule.from_ideal(fam, m)
    sub_a = GradedSubmodule.unit_A(fam)
    endo = colon_in_B(fam, sub_i, m, bound=3)
    dual = colon_in_B(fam, sub_a, m, bound=3)
    for d in range(4):
        assert endo.piece(d) == dual.piece(d)


# -- the finite-hull test ----------------------------------------------------------------


def test_s2_equals_B_degenerate_single_component():
    ctx = VarContext(("x", "y", "u"))
    fam = PullbackFamily.from_supports(ctx, [["x", "y"]])
    assert s2_equals_B_test(fam, parse_monomial(ctx, "u"))


def test_s2_equals_B_linear_route_overlap_family():
    ctx = make_context(6)
    fam = PullbackFamily.from_supports(
        ctx,
        [
            ["x1", "x2", "x3", "x4"],
            ["x3", "x4", "x5", "x6"],
            ["x5", "x6", "x1", "x2"],
        ],
    )
    a = p_linear(6, [0, 2, 4])
    b = p_linear(6, [1, 3, 5])
    assert s2_equals_B_test(fam, a, parameters=[a, b])


def test_s2_equals_B_requires_conductor_membership():
    ctx = VarContext(("x", "y", "z", "w", "u"))
    fam = PullbackFamily.from_supports(ctx, [["x", "y"], ["z", "w"]])
    with pytest.raises(ValueError):
        s2_equals_B_test(fam, parse_monomial(ctx, "u"))
    # and indeed uB escapes A, so the hull identity genuinely fails for u
    belt = BElement.from_T(fam, p_of_monomial(parse_monomial(ctx, "u")))
    assert not belt.component(0).in_A()[0]


def test_regular_pair_on_verified_family():
    # a, b with height-two span stay regular on B (the hull)
    from ccalab.pullback import regular_sequence_on_B

    ctx = VarContext(("X", "Y", "Z", "W"))
    fam = PullbackFamily.from_supports(ctx, [["X", "Y"], ["Z", "W"]])
    a = p_linear(4, [0, 2])
    b = p_linear(4, [1, 3])
    assert regular_sequence_on_B(fam, [a, b])


def test_s2_idempotence_under_multiplying_conductor_elements():
    # replacing a by a * a' for a' a non-zerodivisor in the conductor keeps
    # the degenerate hull identity stable
    ctx = VarContext(("x", "y", "u", "v"))
    fam = PullbackFamily.from_supports(ctx, [["x", "y"]])
    a = parse_monomial(ctx, "u")
    a2 = parse_monomial(ctx, "u*v")
    assert s2_equals_B_test(fam, a)
    assert s2_equals_B_test(fam, a2)
