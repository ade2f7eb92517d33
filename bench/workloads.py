"""The benchmark's two workloads: fixed item catalogues and their checks.

Each workload is a catalogue of items fixed when the benchmark was
defined; bench/digests.json holds the digest of every item's input and
output as the engine produced them then.  A run covers whole passes over
the catalogue, and the workload seed sets the order of each pass.  So
every run, whatever its seed, times the same mix of inputs, and a gain or
loss on one kind of item cannot be hidden or faked by the seed.

The engine only receives the generated inputs, through its public
functions, looked up on the module at call time so that the tracer's
wrappers apply.
"""

from __future__ import annotations

import hashlib
import importlib
import json
import random
from time import perf_counter


class Engine:
    """The ccalab modules the workloads call, imported fresh."""

    MODULES = ("linalg", "monomial", "complexes", "pullback", "s2", "semigroup",
               "families", "registry")

    def __init__(self):
        self.package = importlib.import_module("ccalab")
        for name in self.MODULES:
            setattr(self, name, importlib.import_module(f"ccalab.{name}"))
        self.entries = {e["id"]: e for e in self.registry.load_registry()["families"]}

    def field(self, text):
        return self.linalg.QQ if text == "q" else self.linalg.GF(int(text[1:]))


def sha(data):
    if not isinstance(data, bytes):
        data = json.dumps(data, sort_keys=True).encode()
    return hashlib.sha256(data).hexdigest()[:16]


class Item:
    """One unit of work: a JSON-able input spec plus the engine call."""

    __slots__ = ("key", "spec", "call", "check", "repeats")

    def __init__(self, key, spec, call, check, repeats=1):
        self.key = key
        self.spec = spec
        self.call = call  # () -> raw engine result; the only timed part
        self.check = check  # raw result -> (output bytes, ok)
        self.repeats = repeats  # times the item runs in each pass

    @property
    def input_digest(self):
        return sha(self.spec)


def run_item(item, digests):
    """Run one item; returns (latency_s, output digest, failure reason or None)."""
    t0 = perf_counter()
    try:
        result = item.call()
    except Exception as exc:  # a raising item is a failed item, never dropped
        return perf_counter() - t0, None, f"raised {type(exc).__name__}: {exc}"
    latency = perf_counter() - t0
    output, ok = item.check(result)
    digest = sha(output)
    want = digests.get(item.key)
    if not ok:
        reason = "failing claim or disagreeing routes"
    elif want is None:
        reason = "no recorded digest"
    elif want["input"] != item.input_digest:
        reason = "input differs from the recorded input"
    elif want["output"] != digest:
        reason = "output differs from the recorded output"
    else:
        reason = None
    return latency, digest, reason


def _report_check(rep):
    return json.dumps(rep.to_json(), sort_keys=True).encode(), rep.passed()


# -- registry: `ccalab verify all`, one registered example per item ----------

REGISTRY_IDS = (
    "two-planes", "ffamily-n6-m4", "ffamily-grid-l3-m2", "ffamily-chain-q3-m4",
    "kq-d2", "kq-d3", "kq-negative-x1cubed", "fiber-x1sq-d2", "fiber-x1sq-d3",
    "fiber-linear-d2", "fiber-negative-m2sq", "subalg-split-f2", "subalg-split-q",
    "semigroup-3-4-cone", "case2-cone-q", "quad-ext-q-i", "quad-ext-f9",
)
# The examples that took under 0.1 s when the benchmark was defined run this
# many times a pass, at seeded places in it.  One sample of a 20 ms example
# sees the shared host in a single state, so a few samples a run left the
# median example's latency (item_p50_ms) to chance.  The eight runs add
# about 1.3 s to a 10-15 s pass.
CHEAP_REPEATS = 8
CHEAP_IDS = frozenset((
    "kq-d2", "kq-d3", "kq-negative-x1cubed", "fiber-x1sq-d2", "fiber-x1sq-d3",
    "fiber-linear-d2", "fiber-negative-m2sq", "subalg-split-f2", "subalg-split-q",
    "quad-ext-q-i", "quad-ext-f9",
))


def registry_catalog(engine):
    items = []
    for eid in REGISTRY_IDS:
        spec = {"id": eid, "entry": engine.entries.get(eid)}
        items.append(Item(eid, spec, lambda eid=eid: engine.registry.run_example(eid),
                          _report_check, CHEAP_REPEATS if eid in CHEAP_IDS else 1))
    return items


# -- homology: Betti table, both depth routes and Reisner on one ideal -------

HOMOLOGY_ITEMS = 60
HOMOLOGY_MASTER_SEED = 2111_13338
HOMOLOGY_SIZES = (7, 8, 7, 9, 7, 8)


def _homology_specs():
    rng = random.Random(HOMOLOGY_MASTER_SEED)
    specs = []
    for i in range(HOMOLOGY_ITEMS):
        n = HOMOLOGY_SIZES[(i // 2) % len(HOMOLOGY_SIZES)]
        gens = set()
        for _ in range(rng.randint(2, 5)):
            support = rng.sample(range(n), rng.randint(2, 4))
            gens.add(tuple(1 if j in support else 0 for j in range(n)))
        specs.append({"n": n, "field": "q" if i % 2 == 0 else "f2",
                      "gens": sorted(list(g) for g in gens)})
    return specs


def _homology_call(engine, ideal, field):
    cx = engine.complexes
    return (
        cx.graded_betti(ideal, field),
        cx.depth(ideal, field),
        cx.depth_via_local_cohomology(ideal, field),
        cx.is_cohen_macaulay(cx.complex_of(ideal), field),
    )


def _homology_check(result):
    betti, depth, depth_lc, cm = result
    out = {"betti": betti.to_json(), "depth": depth, "cohen_macaulay": cm}
    return json.dumps(out, sort_keys=True).encode(), depth == depth_lc


def homology_catalog(engine):
    mono = engine.monomial
    items = []
    for i, spec in enumerate(_homology_specs()):
        ctx = mono.make_context(spec["n"])
        ideal = mono.MonomialIdeal(ctx, [mono.Monomial(tuple(g)) for g in spec["gens"]])
        field = engine.field(spec["field"])
        call = lambda ideal=ideal, field=field: _homology_call(engine, ideal, field)
        items.append(Item(f"ideal/{i:03d}", spec, call, _homology_check))
    return items


class Workload:
    def __init__(self, name, catalog, warmup, interleave=False):
        self.name = name
        self.catalog = catalog
        self.warmup = warmup  # key of the untimed warm-up item
        self.interleave = interleave

    def order(self, items, seed, pass_index):
        """The seeded order of one pass over the whole catalogue."""
        rng = random.Random(f"{self.name}:{seed}:{pass_index}")
        if not self.interleave:
            out = [it for it in items for _ in range(it.repeats)]
            rng.shuffle(out)
            return out
        # homology: alternate Q and F_2 items, each half in seeded order
        halves = [[it for it in items if it.spec["field"] == f] for f in ("q", "f2")]
        for half in halves:
            rng.shuffle(half)
        return [it for pair in zip(*halves) for it in pair]


WORKLOADS = {
    w.name: w
    for w in (
        Workload("registry", registry_catalog, "two-planes"),
        Workload("homology", homology_catalog, "ideal/000", interleave=True),
    )
}


def order_digest(items):
    """Digest of an ordered item list: keys and input specs."""
    return sha([[it.key, it.spec] for it in items])
