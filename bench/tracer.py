"""Span tracer for the benchmark's traced run.

It wraps public functions and methods of the ccalab modules from outside
the engine: the engine itself carries no tracing code.  Each wrapped name
gets a span that records its call count, its total time (outermost
activations only, so recursion is not counted twice) and its self time
(total minus the time of the traced spans it calls).  Work counters are
read from arguments and results after the call; the time spent computing
them is excluded from every enclosing span.

Names are imported by value across ccalab (``conductor`` lives in
``pullback``, ``families``, ``s2`` and ``suites``), so installing the
tracer replaces every module or class attribute that holds a wrapped
object, then checks that none still holds an original.
"""

from __future__ import annotations

import functools
import sys
from time import perf_counter


def _arg(args, kwargs, pos, name):
    return args[pos] if len(args) > pos else kwargs[name]


def _count_insert(stats, args, kwargs, result):
    if result:
        stats["useful"] += 1


def _count_nullspace(stats, args, kwargs, result):
    rows = _arg(args, kwargs, 0, "rows")
    stats["cells"] += len(rows) * _arg(args, kwargs, 1, "ncols")


def _count_rank(stats, args, kwargs, result):
    rows = _arg(args, kwargs, 0, "rows")
    stats["cells"] += len(rows) * (len(rows[0]) if rows else 0)


def _count_colon(stats, args, kwargs, result):
    stats["degrees"] += result.bound + 1


def _count_betti(stats, args, kwargs, result):
    stats["subsets"] += 2 ** _arg(args, kwargs, 0, "ideal").context.n


def _count_homology(stats, args, kwargs, result):
    stats["faces"] += len(_arg(args, kwargs, 0, "cplx").faces())


def _count_closure(stats, args, kwargs, result):
    stats["basis_dim"] += len(result.basis.pivots())


# (metric prefix, module, attribute path inside the module, counter)
SPANS = (
    ("linalg.Subspace.insert", "ccalab.linalg", "Subspace.insert", _count_insert),
    ("linalg.Subspace.reduce", "ccalab.linalg", "Subspace.reduce", None),
    ("linalg.nullspace", "ccalab.linalg", "nullspace", _count_nullspace),
    ("linalg.rank", "ccalab.linalg", "rank", _count_rank),
    ("pullback.conductor", "ccalab.pullback", "conductor", None),
    ("pullback.cokernel_profile", "ccalab.pullback", "cokernel_profile", None),
    ("pullback.colon_in_B", "ccalab.pullback", "colon_in_B", _count_colon),
    ("pullback.GradedSubmodule.piece", "ccalab.pullback", "GradedSubmodule.piece", None),
    ("pullback.mult_matrix", "ccalab.pullback", "mult_matrix", None),
    ("pullback.stable_subspace", "ccalab.pullback", "stable_subspace", None),
    ("pullback.verify_generation", "ccalab.pullback", "verify_generation", None),
    ("pullback.regular_sequence_on_B", "ccalab.pullback", "regular_sequence_on_B", None),
    ("s2.trace_ideal_check", "ccalab.s2", "trace_ideal_check", None),
    ("s2.s2_membership", "ccalab.s2", "s2_membership", None),
    ("s2.s2_membership_oracle", "ccalab.s2", "s2_membership_oracle", None),
    ("s2.unmixed_component_principal", "ccalab.s2", "unmixed_component_principal", None),
    ("complexes.graded_betti", "ccalab.complexes", "graded_betti", _count_betti),
    ("complexes.reduced_homology", "ccalab.complexes", "reduced_homology", _count_homology),
    ("complexes.boundary_matrix", "ccalab.complexes", "boundary_matrix", None),
    (
        "complexes.depth_via_local_cohomology",
        "ccalab.complexes",
        "depth_via_local_cohomology",
        None,
    ),
    ("complexes.is_cohen_macaulay", "ccalab.complexes", "is_cohen_macaulay", None),
    ("monomial.MonomialIdeal.intersect", "ccalab.monomial", "MonomialIdeal.intersect", None),
    (
        "monomial.MonomialIdeal.irreducible_decomposition",
        "ccalab.monomial",
        "MonomialIdeal.irreducible_decomposition",
        None,
    ),
    (
        "monomial.MonomialIdeal.minimal_primes",
        "ccalab.monomial",
        "MonomialIdeal.minimal_primes",
        None,
    ),
    ("monomial.MonomialIdeal.polarize", "ccalab.monomial", "MonomialIdeal.polarize", None),
    ("monomial.quotient_height", "ccalab.monomial", "quotient_height", None),
    ("semigroup.subalgebra_closure", "ccalab.semigroup", "subalgebra_closure", _count_closure),
    ("semigroup.cone_model_checks", "ccalab.semigroup", "cone_model_checks", None),
    ("semigroup.semigroup_invariants", "ccalab.semigroup", "semigroup_invariants", None),
    (
        "semigroup.NumericalSemigroup.contains",
        "ccalab.semigroup",
        "NumericalSemigroup.contains",
        None,
    ),
    ("registry.run_example", "ccalab.registry", "run_example", None),
    ("families.f_family_report", "ccalab.families", "f_family_report", None),
)

# work counters: (metric name, span, stats key, unit); "useful" is a ratio
COUNTERS = (
    ("linalg.Subspace.insert.useful_ratio", "linalg.Subspace.insert", "useful", "ratio"),
    ("linalg.nullspace.cells", "linalg.nullspace", "cells", "count"),
    ("linalg.rank.cells", "linalg.rank", "cells", "count"),
    ("pullback.colon_in_B.degrees", "pullback.colon_in_B", "degrees", "count"),
    ("complexes.graded_betti.subsets", "complexes.graded_betti", "subsets", "count"),
    ("complexes.reduced_homology.faces", "complexes.reduced_homology", "faces", "count"),
    ("semigroup.subalgebra_closure.basis_dim", "semigroup.subalgebra_closure", "basis_dim", "count"),
)


def _ccalab_modules():
    return [
        m for name, m in sorted(sys.modules.items())
        if name == "ccalab" or name.startswith("ccalab.")
    ]


def _namespaces():
    """Every module and class namespace of ccalab that can hold a binding."""
    out = []
    classes = {}
    for mod in _ccalab_modules():
        out.append(mod)
        for value in vars(mod).values():
            if isinstance(value, type) and value.__module__.startswith("ccalab"):
                classes[id(value)] = value
    return out + list(classes.values())


class Tracer:
    """Per-name spans and work counters over the ccalab public functions."""

    def __init__(self):
        self.stats = {}
        self._stack = []
        self._active = {}
        self._excluded = 0.0
        self._patched = []

    def _wrap(self, name, fn, counter):
        stats = self.stats[name]
        stack = self._stack
        active = self._active

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            frame = [0.0]
            stack.append(frame)
            active[name] = active.get(name, 0) + 1
            excluded0 = self._excluded
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = perf_counter() - t0 - (self._excluded - excluded0)
                stack.pop()
                active[name] -= 1
                stats["calls"] += 1
                stats["self_s"] += elapsed - frame[0]
                if not active[name]:
                    stats["total_s"] += elapsed
                if stack:
                    stack[-1][0] += elapsed
            if counter is not None:
                c0 = perf_counter()
                counter(stats, args, kwargs, result)
                self._excluded += perf_counter() - c0
            return result

        return wrapper

    def install(self):
        """Wrap every SPANS target in every ccalab namespace that binds it."""
        if self._patched:
            raise RuntimeError("tracer already installed")
        wrappers = {}
        for name, modname, path, counter in SPANS:
            owner = sys.modules[modname]
            *outer, attr = path.split(".")
            for part in outer:
                owner = getattr(owner, part)
            original = vars(owner)[attr]
            self.stats[name] = dict.fromkeys(
                ("calls", "total_s", "self_s", "useful", "cells", "degrees", "subsets",
                 "faces", "basis_dim"), 0)
            wrappers[id(original)] = (original, self._wrap(name, original, counter))
        for ns in _namespaces():
            for attr, value in list(vars(ns).items()):
                hit = wrappers.get(id(value))
                if hit is not None and hit[0] is value:
                    setattr(ns, attr, hit[1])
                    self._patched.append((ns, attr, value))
        missed = [
            f"{getattr(ns, '__name__', ns)}.{attr}"
            for ns in _namespaces()
            for attr, value in vars(ns).items()
            if id(value) in wrappers and wrappers[id(value)][0] is value
        ]
        if missed:
            self.uninstall()
            raise RuntimeError(f"unwrapped bindings remain: {missed}")

    def uninstall(self):
        for ns, attr, original in reversed(self._patched):
            setattr(ns, attr, original)
        self._patched = []

    def metrics(self):
        """Per-layer metrics: .calls, .total_s, .self_s per span, then counters."""
        out = {}
        for name, _mod, _path, _counter in SPANS:
            st = self.stats[name]
            out[f"{name}.calls"] = (st["calls"], "count")
            out[f"{name}.total_s"] = (st["total_s"], "s")
            out[f"{name}.self_s"] = (st["self_s"], "s")
        for metric, span, key, unit in COUNTERS:
            st = self.stats[span]
            if key == "useful":
                value = st["useful"] / st["calls"] if st["calls"] else 0.0
            else:
                value = st[key]
            out[metric] = (value, unit)
        return out
