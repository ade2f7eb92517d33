"""The shipped example registry: the single source of expected values.

families.json carries, per instance, the construction parameters, the
expected invariants, and an anchor string per claim (the mathematical
statement the claim verifies).  run_example builds the instance, runs
its verifier, compares against the registry's expectations, and gives
each claim the registry's anchor for its id; a builder called directly
emits its own default anchors.
"""

from __future__ import annotations

import json
from functools import cache
from importlib import resources

from .families import (
    ArtinianQuotient,
    f_family_report,
    fiber_product_report,
    k_plus_q_report,
)
from .linalg import QQ, parse_field
from .monomial import MonomialIdeal, VarContext, make_context
from .pullback import PullbackFamily, cokernel_profile
from .semigroup import (
    QuadraticExtensionModel,
    quadratic_extension_report,
    semigroup_cone_report,
    subalgebra_report,
)


class UnknownExampleError(KeyError):
    pass


@cache
def load_registry():
    """The parsed families.json, read once per process; callers must not mutate it."""
    text = resources.files("ccalab.data").joinpath("families.json").read_text()
    return json.loads(text)


def example_ids():
    return [entry["id"] for entry in load_registry()["families"]]


def get_entry(example_id):
    for entry in load_registry()["families"]:
        if entry["id"] == example_id:
            return entry
    raise UnknownExampleError(example_id)


def _f_family(params):
    """Named subsets over "vars", or 1-based "index_subsets" of x1..xn."""
    if "vars" in params:
        return PullbackFamily.from_supports(VarContext(tuple(params["vars"])), params["subsets"])
    return PullbackFamily.from_supports(
        make_context(params["n"]),
        [[f"x{i}" for i in s] for s in params["index_subsets"]],
    )


def _artinian(params):
    ctx = make_context(params["n"], params.get("prefix", "X"))
    return ArtinianQuotient(ctx, MonomialIdeal.from_strings(ctx, params["gens"]))


def run_example(example_id, field=QQ):
    """Build and verify a registered instance; returns its report."""
    entry = get_entry(example_id)
    kind = entry["kind"]
    params = entry["params"]
    expected = entry.get("expected", {})
    if kind == "f_family":
        rep = f_family_report(
            _f_family(params),
            field=field,
            expected=expected,
            parameters=params.get("parameters"),
            trace_powers=tuple(params.get("trace_powers", ())),
        )
        if not field.is_rationals:
            rep.config["field"] = str(field)
    elif kind == "k_plus_q":
        rep = k_plus_q_report(_artinian(params), expected=expected)
    elif kind == "fiber_product":
        rep = fiber_product_report(
            _artinian(params),
            expected=expected,
            parameters=params.get("parameters"),
        )
        cross = params.get("crosscheck_f_family")
        if cross:
            prof = cokernel_profile(_f_family(cross))
            fiber_length = next(
                c.computed for c in rep.claims if c.claim_id == "cokernel.length-vs-ring"
            )
            rep.check(
                "crosscheck.intersection-presentation",
                "the congruence pullback and the two-component presentation agree",
                fiber_length,
                prof.length,
            )
    elif kind == "subalgebra":
        rep = subalgebra_report(
            params["gens"],
            parse_field(params["field"]),
            precision=params["precision"],
            margin=params["margin"],
            expected=expected,
        )
    elif kind == "cone":
        rep = semigroup_cone_report(
            params["gens"],
            field=parse_field(params["field"]),
            precision=params["precision"],
            s_precision=params["s_precision"],
            margin=params["margin"],
            expected=expected,
            semigroup_gens=params.get("semigroup"),
        )
    elif kind == "quadratic_extension":
        model = QuadraticExtensionModel(
            parse_field(params["base"]),
            u=params["u"],
            v=params["v"],
            precision=params["precision"],
        )
        rep = quadratic_extension_report(
            model,
            margin=params["margin"],
            expected=expected,
        )
    else:
        raise UnknownExampleError(f"unknown kind {kind!r} for {example_id!r}")
    rep.subject = example_id
    anchors = entry.get("anchors", {})
    for c in rep.claims:
        c.anchor = anchors.get(c.claim_id, c.anchor)
    for note in entry.get("notes", ()):
        rep.info("registry.note", "", note)
    return rep
