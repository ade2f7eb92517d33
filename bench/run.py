"""ccalab benchmark: end-to-end and per-layer metrics over two workloads.

Usage, from the root of a checkout:

    python3 bench/run.py --workload registry --seed 1 --seconds 55 --trace 0

The run imports ccalab from ./src, times set-up, runs one untimed warm-up
item, then measures.  With ``--trace 0`` it runs whole passes over the
workload's catalogue, at least two, as many as fit in ``--seconds``, and
reports the end-to-end metrics.  With ``--trace 1`` it runs one untraced pass and then
the same pass under the span tracer, and reports the per-layer metrics and
the tracing overhead; end-to-end metrics never come from a traced run.

Every item's output is checked against bench/digests.json.  The last line
of standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``; a fuller record, with the run
settings and every item's latency, goes to ``--out``.  One process, no
threads, jobs=1.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import resource
import statistics
import sys
from pathlib import Path
from time import perf_counter

import tracer
import workloads

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
SETUP_REPEATS = 10  # before the timed passes, and as many again after them
MIN_PASSES = 2


def git_sha():
    """The checkout's commit, read from .git without running git."""
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        loose = ROOT / ".git" / name
        if loose.is_file():
            return loose.read_text().strip()
        for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def purge_ccalab():
    for name in [m for m in sys.modules if m == "ccalab" or m.startswith("ccalab.")]:
        del sys.modules[name]


def set_up(workload):
    """Import ccalab, load the registry and build the catalogue, several times.

    Each repeat drops ccalab from sys.modules first, so import-time work is
    timed every time.  Returns the last catalogue and every set-up's time.
    """
    times = []
    for _ in range(SETUP_REPEATS):
        purge_ccalab()
        t0 = perf_counter()
        engine = workloads.Engine()
        items = workload.catalog(engine)
        times.append(perf_counter() - t0)
    origin = Path(engine.package.__file__).resolve()
    if SRC.resolve() not in origin.parents:
        raise ImportError(f"ccalab imported from {origin}, not from {SRC}")
    return items, times


def run_pass(items, digests, results):
    for item in items:
        latency, digest, reason = workloads.run_item(item, digests)
        results.append({"key": item.key, "latency_s": latency, "digest": digest,
                        "failure": reason})


def percentile(values, p):
    """Harrell-Davis estimate of the p-quantile (0 < p < 1) of sorted values.

    A mean of all the values, the i-th weighted by the mass that a
    Beta(p(n+1), (1-p)(n+1)) density puts on ((i-1)/n, i/n), instead of the
    one value at the nearest rank.  When the rank falls in a gap between
    items, or on an item whose latency is bimodal, the estimate moves by a
    share of the gap rather than all of it.
    """
    n = len(values)
    a, b = p * (n + 1), (1 - p) * (n + 1)
    steps = 256  # midpoint rule on each rank's interval
    weights = []
    for i in range(n):
        w = 0.0
        for j in range(steps):
            x = (i + (j + 0.5) / steps) / n
            w += math.exp((a - 1) * math.log(x) + (b - 1) * math.log1p(-x))
        weights.append(w)
    return sum(w * v for w, v in zip(weights, values)) / sum(weights)


def item_latencies(results):
    """Each catalogue item's mean latency over the run's passes, sorted."""
    per = {}
    for r in results:
        per.setdefault(r["key"], []).append(r["latency_s"])
    return sorted(sum(v) / len(v) for v in per.values())


def end_to_end(results, setup_s):
    """The six end-to-end metrics of an untraced run.

    items_per_s is the rate of a pass over the catalogue at each item's
    mean latency, times the share of correct samples; an item that runs
    several times a pass counts once.  The percentiles are taken over the
    catalogue's items, each at its mean latency over the run's passes, so
    every item weighs the same whatever the number of passes.  A mean, not a median: on a shared host
    whose speed switches between states, a median snaps to whichever state
    held longest in the run, while a mean moves in proportion.
    """
    lat = item_latencies(results)
    correct = sum(r["failure"] is None for r in results)
    return {
        "setup_s": (setup_s, "s"),
        "items_per_s": (correct / len(results) * len(lat) / sum(lat), "1/s"),
        "item_p50_ms": (1000 * percentile(lat, 0.5), "ms"),
        "item_p90_ms": (1000 * percentile(lat, 0.9), "ms"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        "correct_ratio": (correct / len(results), "ratio"),
    }


def traced(items, digests, results):
    """One untraced and one traced pass over the same items; per-layer metrics."""
    plain, spans = [], []
    run_pass(items, digests, plain)
    t = tracer.Tracer()
    t.install()
    try:
        run_pass(items, digests, spans)
    finally:
        t.uninstall()
    for a, b in zip(plain, spans):
        if a["digest"] != b["digest"] and b["failure"] is None:
            b["failure"] = "traced output differs from the untraced output"
    results.extend(plain + spans)
    untraced_s = sum(r["latency_s"] for r in plain)
    traced_s = sum(r["latency_s"] for r in spans)
    metrics = t.metrics()
    lat = item_latencies(spans)
    metrics["trace.items_per_s"] = (len(lat) / sum(lat), "1/s")
    metrics["trace.overhead_ratio"] = (traced_s / untraced_s, "ratio")
    return metrics


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--out", type=Path, default=None,
                    help="result file (default .bench_out/<workload>-seed<s>-trace<t>.json)")
    args = ap.parse_args(argv)

    if not (SRC / "ccalab" / "__init__.py").is_file():
        print(f"bench: no ccalab sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    workload = workloads.WORKLOADS[args.workload]
    digests = json.loads((BENCH / "digests.json").read_text())[workload.name]

    catalog, setup_times = set_up(workload)
    warm = []
    run_pass([it for it in catalog if it.key == workload.warmup], digests, warm)

    results = []
    passes = 0
    t0 = perf_counter()
    if args.trace:
        metrics = traced(workload.order(catalog, args.seed, 0), digests, results)
        passes = 2
    else:
        # whole passes only, so every run times the same mix; start a pass
        # only if a pass as long as the slowest so far still fits
        slowest = 0.0
        while passes < MIN_PASSES or perf_counter() - t0 + slowest <= args.seconds:
            p0 = perf_counter()
            run_pass(workload.order(catalog, args.seed, passes), digests, results)
            slowest = max(slowest, perf_counter() - p0)
            passes += 1
    wall_s = perf_counter() - t0
    if not args.trace:
        # more set-ups after the passes, so set-up time samples the host's
        # speed over the whole run rather than in its first second
        setup_times += set_up(workload)[1]
        metrics = end_to_end(results, statistics.median(setup_times))

    failed = [r for r in results if r["failure"] is not None]
    record = {
        "workload": workload.name,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "jobs": 1,
        "python": platform.python_version(),
        "cpu_count": os.cpu_count(),
        "git_sha": git_sha(),
        "passes": passes,
        "wall_s": wall_s,
        "input_digest": workloads.order_digest(workload.order(catalog, args.seed, 0)),
        "setup_times_s": setup_times,
        "warmup": warm[0],
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        "items": results,
    }
    out = args.out or ROOT / ".bench_out" / f"{workload.name}-seed{args.seed}-trace{args.trace}.json"
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps(record, indent=1) + "\n")

    print(f"workload={workload.name} seed={args.seed} trace={args.trace} jobs=1 "
          f"python={record['python']} cpus={record['cpu_count']} git={record['git_sha']} "
          f"passes={passes} items={len(results)} wall_s={wall_s:.2f}")
    if not args.trace:
        n, m = len(results), len(item_latencies(results))
        print(f"  samples: {n} of {m} catalogue items over {passes} passes; "
              f"setup_s over {len(setup_times)} set-ups; "
              f"failed_ratio {len(failed) / n:.4f} ({len(failed)}/{n})")
    for k, (v, u) in metrics.items():
        print(f"  {k:56s} {v:14.6g} {u}")
    for r in failed[:10]:
        print(f"  FAILED {r['key']}: {r['failure']}")
    print(f"  record: {out}")
    print(json.dumps({
        "correct": not failed,
        "attempted": len(results),
        "failed": len(failed),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
