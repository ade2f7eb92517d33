"""Batch front door: run named examples and property suites.

Exit codes: 0 when every claim passes (informational entries count as
passes), 1 on any claim mismatch, 2 on input errors such as an unknown
example id, 3 on an internal failure of `verify` or `suite` (two
computation paths disagreeing, or any exception that is not an engine
error), reported in one `internal error:` line.  Reports are
byte-identical for a fixed (seed, config, version) triple.
"""

from __future__ import annotations

import json
import sys

import click

from .errors import CCAError, MethodDisagreementError
from .linalg import parse_field
from .registry import UnknownExampleError, example_ids, run_example
from .report import merge_reports, reports_json_text
from .semigroup import (
    DEFAULT_MARGIN,
    DEFAULT_PRECISION,
    NumericalSemigroup,
    parse_t_series,
    semigroup_invariants,
    subalgebra_closure,
)
from .suites import run_all_suites

EXIT_OK = 0
EXIT_CLAIM_FAILED = 1
EXIT_INPUT_ERROR = 2
EXIT_INTERNAL_ERROR = 3


def _exit_internal(exc):
    click.echo(f"internal error: {type(exc).__name__}: {exc}", err=True)
    sys.exit(EXIT_INTERNAL_ERROR)


def _emit(reports, fmt):
    if fmt == "json":
        click.echo(reports_json_text(reports))
    else:
        for r in reports:
            click.echo(r.to_table())
    return EXIT_OK if all(r.passed() for r in reports) else EXIT_CLAIM_FAILED


@click.group()
def main():
    """Exact verification harness for the shipped ring families."""


@main.command("list")
def list_cmd():
    """List the registered example ids."""
    for eid in example_ids():
        click.echo(eid)


@main.command()
@click.argument("ids", nargs=-1)
@click.option("--field", "field_text", default="q", show_default=True, help="q or fp:<p>")
@click.option("--format", "fmt", type=click.Choice(["json", "table"]), default="table", show_default=True)
def verify(ids, field_text, fmt):
    """Verify registered examples (all of them when ids is 'all' or empty)."""
    try:
        field = parse_field(field_text)
    except ValueError as exc:
        click.echo(f"error: {exc}", err=True)
        sys.exit(EXIT_INPUT_ERROR)
    wanted = list(ids)
    if not wanted or wanted == ["all"]:
        wanted = example_ids()
    reports = []
    for eid in wanted:
        try:
            reports.append(run_example(eid, field=field))
        except UnknownExampleError:
            click.echo(f"error: unknown example id {eid!r}", err=True)
            sys.exit(EXIT_INPUT_ERROR)
        except MethodDisagreementError as exc:
            _exit_internal(exc)
        except CCAError as exc:
            click.echo(f"error: {exc}", err=True)
            sys.exit(EXIT_INPUT_ERROR)
        except Exception as exc:
            _exit_internal(exc)
    sys.exit(_emit(reports, fmt))


@main.command()
@click.option("--seed", type=int, default=0, show_default=True)
@click.option("--trials", type=int, default=200, show_default=True)
@click.option("--field", "field_text", default="q", show_default=True)
@click.option("--format", "fmt", type=click.Choice(["json", "table"]), default="table", show_default=True)
def suite(seed, trials, field_text, fmt):
    """Run the seeded property suites (deterministic for a fixed seed)."""
    if trials < 1:
        click.echo("error: trials must be at least 1", err=True)
        sys.exit(EXIT_INPUT_ERROR)
    try:
        field = parse_field(field_text)
    except ValueError as exc:
        click.echo(f"error: {exc}", err=True)
        sys.exit(EXIT_INPUT_ERROR)
    try:
        reports = run_all_suites(seed=seed, trials=trials, field=field)
    except Exception as exc:  # the suites draw their own inputs: any escape is a bug
        _exit_internal(exc)
    summary = merge_reports(
        "property-suites", reports, config={"seed": seed, "trials": trials}
    )
    sys.exit(_emit([summary], fmt))


@main.command()
@click.option("--gens", required=True, help="comma-separated generators, e.g. 3,4")
@click.option("--format", "fmt", type=click.Choice(["json", "table"]), default="json", show_default=True)
def semigroup(gens, fmt):
    """Numerical semigroup invariants: gaps, Frobenius number, symmetry."""
    try:
        h = NumericalSemigroup(int(g) for g in gens.split(","))
    except ValueError as exc:
        click.echo(f"error: {exc}", err=True)
        sys.exit(EXIT_INPUT_ERROR)
    inv = semigroup_invariants(h)
    if fmt == "json":
        click.echo(json.dumps(inv, sort_keys=True, indent=2))
    else:
        for k, v in inv.items():
            click.echo(f"{k}: {v}")
    sys.exit(EXIT_OK)


@main.command()
@click.option("--gens", required=True, help='comma-separated series, e.g. "t^2+t^3,t^4,t^6"')
@click.option("--field", "field_text", default="q", show_default=True)
@click.option("--prec", type=int, default=DEFAULT_PRECISION, show_default=True)
@click.option("--margin", type=int, default=DEFAULT_MARGIN, show_default=True)
def subalgebra(gens, field_text, prec, margin):
    """Value semigroup window of a truncated power-series subalgebra."""
    try:
        field = parse_field(field_text)
        series = [parse_t_series(t) for t in gens.split(",")]
        closure = subalgebra_closure(series, field, prec, margin)
    except (ValueError, CCAError) as exc:
        click.echo(f"error: {exc}", err=True)
        sys.exit(EXIT_INPUT_ERROR)
    data = closure.report_data()
    try:
        data["conductor_exponent"] = closure.conductor_exponent()
        data["conductor_certified"] = closure.conductor_certified()
    except CCAError as exc:
        data["conductor_exponent"] = None
        data["note"] = str(exc)
    click.echo(json.dumps(data, sort_keys=True, indent=2))
    sys.exit(EXIT_OK)


if __name__ == "__main__":
    main()
