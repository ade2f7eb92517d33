"""Seeded random property suites.

Each suite runs a fixed number of trials from a deterministic generator
and reports the failure count; acceptance requires zero failures.  Sizes
are capped so a full run stays fast: ideals on at most 5 variables with
at most 4 generators of degree at most 3, families on at most 8
variables with at most 4 components.
"""

from __future__ import annotations

import random

from .complexes import depth_via_local_cohomology, projective_dimension
from .errors import MethodDisagreementError
from .linalg import QQ
from .monomial import (
    Monomial,
    MonomialIdeal,
    intersect_all,
    make_context,
    sum_all,
)
from .pullback import PullbackFamily, conductor
from .report import VerificationReport
from .s2 import QuotientRing, s2_membership, s2_membership_oracle

DEFAULT_TRIALS = 200


def random_monomial(rng, n, max_deg, min_deg=1):
    d = rng.randint(min_deg, max_deg)
    exps = [0] * n
    for _ in range(d):
        exps[rng.randrange(n)] += 1
    return Monomial(exps)


def random_monomial_ideal(rng, ctx, max_gens=4, max_deg=3):
    k = rng.randint(1, max_gens)
    return MonomialIdeal(ctx, [random_monomial(rng, ctx.n, max_deg) for _ in range(k)])


def random_squarefree_ideal(rng, ctx, max_gens=4):
    gens = []
    for _ in range(rng.randint(1, max_gens)):
        size = rng.randint(1, max(1, ctx.n - 1))
        supp = rng.sample(range(ctx.n), size)
        gens.append(Monomial(tuple(1 if i in supp else 0 for i in range(ctx.n))))
    ideal = MonomialIdeal(ctx, gens)
    return ideal if not ideal.is_unit() and not ideal.is_zero() else None


def random_antichain(rng, n, ell):
    for _ in range(50):
        subsets = []
        for _ in range(ell):
            size = rng.randint(1, n - 1)
            subsets.append(frozenset(rng.sample(range(n), size)))
        if len(set(subsets)) != ell:
            continue
        if any(a <= b for a in subsets for b in subsets if a is not b):
            continue
        return subsets
    return None


def _run_trials(seed, trials, trial, name, claim_id, description):
    """Run trial(rng) until `trials` draws have decided, and report the failures.

    trial returns None to redraw (the draw does not count as a trial), or
    whether the trial passed.  The report lists the index of each failing
    trial.
    """
    rng = random.Random(seed)
    rep = VerificationReport(name, config={"seed": seed, "trials": trials})
    failures = []
    done = 0
    while done < trials:
        passed = trial(rng)
        if passed is None:
            continue
        if not passed:
            failures.append(done)
        done += 1
    expected = {"trials": trials, "failures": []}
    rep.check(claim_id, description, expected, {"trials": trials, "failures": failures})
    return rep


def lemma_intersection_suite(seed=0, trials=DEFAULT_TRIALS):
    """cap_i (I_i + J_i) = sum_i J_i for J_i the deleted intersections."""

    def trial(rng):
        n = rng.randint(2, 5)
        ell = rng.randint(2, 4)
        ctx = make_context(n)
        ideals = [random_monomial_ideal(rng, ctx) for _ in range(ell)]
        js = [intersect_all(ideals[:i] + ideals[i + 1 :]) for i in range(ell)]
        return intersect_all([ideals[i] + js[i] for i in range(ell)]) == sum_all(js)

    return _run_trials(
        seed, trials, trial, "suite-deleted-intersections", "identity.trials",
        "cap (I_i + J_i) = sum J_i on every random family",
    )


def conductor_two_path_suite(seed=0, trials=DEFAULT_TRIALS):
    """The closed-form and direct conductor computations agree."""

    def trial(rng):
        n = rng.randint(3, 8)
        ell = rng.randint(2, 4)
        subsets = random_antichain(rng, n, ell)
        if subsets is None:
            return None
        fam = PullbackFamily.from_supports(
            make_context(n), [sorted(f"x{i+1}" for i in s) for s in subsets]
        )
        try:
            conductor(fam)
        except MethodDisagreementError:
            return False
        return True

    return _run_trials(
        seed, trials, trial, "suite-conductor-two-path", "agreement.trials",
        "sum of J_i equals the degreewise direct conductor on every family",
    )


def auslander_buchsbaum_suite(seed=0, trials=DEFAULT_TRIALS, field=QQ):
    """depth + projective dimension = n, with depth from the link route."""

    def trial(rng):
        n = rng.randint(3, 6)
        ideal = random_squarefree_ideal(rng, make_context(n))
        if ideal is None:
            return None
        return projective_dimension(ideal, field) + depth_via_local_cohomology(ideal, field) == n

    return _run_trials(
        seed, trials, trial, "suite-auslander-buchsbaum", "ab.trials",
        "depth + pd = n on every random squarefree quotient",
    )


def s2_oracle_suite(seed=0, trials=DEFAULT_TRIALS):
    """s2_membership agrees with the brute-force conductor-search oracle."""

    def trial(rng):
        n = rng.randint(3, 5)
        ctx = make_context(n)
        if rng.random() < 0.25:
            defining = MonomialIdeal.zero(ctx)
            free = list(range(n))
        else:
            ell = rng.randint(1, 2)
            subsets = []
            for _ in range(ell):
                size = rng.randint(1, n - 2) if n > 2 else 1
                subsets.append(frozenset(rng.sample(range(n), size)))
            union = frozenset().union(*subsets)
            free = [i for i in range(n) if i not in union]
            if not free:
                return None
            primes = [
                MonomialIdeal.from_support(ctx, sorted(f"x{i+1}" for i in s))
                for s in subsets
            ]
            defining = intersect_all(primes)
            if defining.is_zero() or defining.is_unit():
                return None
        ring = QuotientRing(ctx, defining)
        a_exps = [0] * n
        for _ in range(rng.randint(1, 2)):
            a_exps[rng.choice(free)] += 1
        a = Monomial(a_exps)
        if not ring.is_nonzerodivisor(a):
            return None
        m = random_monomial(rng, n, 3, min_deg=0)
        return s2_membership(ring, m, a) == s2_membership_oracle(ring, m, a)

    return _run_trials(
        seed, trials, trial, "suite-s2-oracle", "oracle.trials",
        "fraction membership agrees with the conductor-search oracle",
    )


def run_all_suites(seed=0, trials=DEFAULT_TRIALS, field=QQ):
    return [
        lemma_intersection_suite(seed, trials),
        conductor_two_path_suite(seed, trials),
        auslander_buchsbaum_suite(seed, trials, field),
        s2_oracle_suite(seed, trials),
    ]
