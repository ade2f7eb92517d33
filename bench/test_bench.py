"""Tests of the benchmark itself: inputs, correctness gate and tracer.

Run from the root of a checkout:

    python3 -m pytest -q bench/test_bench.py
"""

import importlib
import json
import sys

import pytest

import run
import tracer
import workloads

# cheap items of each workload, so the traced runs below take seconds
CHEAP = {
    "registry": ["two-planes", "kq-d2", "fiber-x1sq-d2", "subalg-split-f2", "quad-ext-f9"],
    "homology": ["ideal/000", "ideal/001", "ideal/002", "ideal/003"],
}


@pytest.fixture(scope="module")
def engine():
    if str(run.SRC) not in sys.path:
        sys.path.insert(0, str(run.SRC))
    return workloads.Engine()


@pytest.fixture(scope="module")
def digests():
    return json.loads((run.BENCH / "digests.json").read_text())


def cheap_items(engine, name, seed):
    workload = workloads.WORKLOADS[name]
    keep = {}
    for it in workload.order(workload.catalog(engine), seed, 0):
        if it.key in CHEAP[name]:
            keep.setdefault(it.key, it)
    return list(keep.values())


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_one_seed_always_generates_the_same_inputs(engine, name):
    workload = workloads.WORKLOADS[name]
    first = workload.order(workload.catalog(engine), 7, 0)
    again = workload.order(workload.catalog(engine), 7, 0)
    other = workload.order(workload.catalog(engine), 8, 0)
    assert workloads.order_digest(first) == workloads.order_digest(again)
    assert workloads.order_digest(first) != workloads.order_digest(other)
    # another seed reorders the same catalogue
    assert sorted(it.input_digest for it in first) == sorted(it.input_digest for it in other)


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_catalogue_matches_recorded_inputs(engine, digests, name):
    items = workloads.WORKLOADS[name].catalog(engine)
    assert {it.key: it.input_digest for it in items} == {
        k: v["input"] for k, v in digests[name].items()
    }


def test_tracer_wraps_every_binding(engine):
    suites = importlib.import_module("ccalab.suites")  # binds conductor too
    t = tracer.Tracer()
    t.install()
    try:
        wrapped = engine.pullback.conductor
        assert hasattr(wrapped, "__wrapped__")
        for mod in (engine.families, engine.s2, suites, engine.package):
            if hasattr(mod, "conductor"):
                assert mod.conductor is wrapped
        assert engine.complexes.rank is engine.linalg.rank
        assert hasattr(engine.linalg.Subspace.insert, "__wrapped__")
    finally:
        t.uninstall()
    assert not hasattr(suites.conductor, "__wrapped__")
    assert not hasattr(engine.complexes.rank, "__wrapped__")
    assert not hasattr(engine.linalg.Subspace.insert, "__wrapped__")


def test_tracer_wraps_an_alias(engine):
    engine.families._hidden = tracer.sys.modules["ccalab.pullback"].conductor
    try:
        t = tracer.Tracer()
        t.install()  # the alias is a module attribute, so it is wrapped too
        assert hasattr(engine.families._hidden, "__wrapped__")
        t.uninstall()
    finally:
        del engine.families._hidden


def exact(metrics):
    return {
        k: v
        for k, (v, unit) in metrics.items()
        if not k.startswith("trace.") and unit != "s"
    }


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_traced_counts_repeat_exactly_and_outputs_match(engine, digests, name):
    items = cheap_items(engine, name, seed=3)
    assert len(items) == len(CHEAP[name])
    first, second = [], []
    m1 = run.traced(items, digests[name], first)
    m2 = run.traced(cheap_items(engine, name, seed=3), digests[name], second)
    assert exact(m1) == exact(m2)
    assert sum(v for k, v in exact(m1).items() if k.endswith(".calls")) > 0
    # untraced and traced outputs both match the recorded digests
    assert all(r["failure"] is None for r in first + second), first + second
    half = len(first) // 2
    assert [r["digest"] for r in first[:half]] == [r["digest"] for r in first[half:]]


def test_failed_items_count_and_stay_in_the_timings(engine, digests):
    good = cheap_items(engine, "registry", seed=0)[0]

    def boom():
        raise ValueError("boom")

    raising = workloads.Item(good.key, good.spec, boom, good.check)
    wrong = workloads.Item(good.key, dict(good.spec, id="other"), good.call, good.check)
    results = []
    run.run_pass([good, raising, wrong], digests["registry"], results)
    assert [r["failure"] is None for r in results] == [True, False, False]
    assert "raised ValueError" in results[1]["failure"]
    assert "input differs" in results[2]["failure"]
    metrics = run.end_to_end(results, setup_s=0.1)
    assert metrics["correct_ratio"][0] == pytest.approx(1 / 3)
    assert len(results) == 3


def test_metrics_do_not_depend_on_passes_or_repeats():
    one = [{"key": f"k{i}", "latency_s": 0.001 * (i + 1), "failure": None} for i in range(17)]
    for passes in range(1, 6):
        # k3 runs eight times a pass, like a cheap registry example
        m = run.end_to_end((one + one[3:4] * 7) * passes, setup_s=0.1)
        assert m["item_p50_ms"][0] == pytest.approx(9.0)
        assert 15.0 < m["item_p90_ms"][0] < 16.5
        assert m["items_per_s"][0] == pytest.approx(17 / 0.153)


def test_percentile():
    assert run.percentile([7.0], 0.9) == pytest.approx(7.0)
    for n in (2, 17, 60):
        values = [float(i) for i in range(1, n + 1)]
        assert run.percentile([7.0] * n, 0.9) == pytest.approx(7.0)
        # symmetric data: the median estimate is the middle value
        assert run.percentile(values, 0.5) == pytest.approx((n + 1) / 2)
        assert run.percentile(values, 0.5) < run.percentile(values, 0.9) <= n
    # near the nearest-rank value on a long sample, and weighted toward it
    values = [float(i) for i in range(1, 1001)]
    assert run.percentile(values, 0.9) == pytest.approx(900.5, rel=1e-3)
    # a gap at the rank moves the estimate by a share of the gap
    gapped = [1.0] * 53 + [10.0] * 7
    assert 1.0 < run.percentile(gapped, 0.9) < 10.0
