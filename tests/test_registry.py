import json
from importlib import resources
from pathlib import Path

import pytest

from ccalab.errors import MethodDisagreementError
from ccalab.families import fiber_product_report
from ccalab.linalg import GF
from ccalab.monomial import VarContext
from ccalab.pullback import PullbackFamily, conductor
from ccalab.registry import (
    UnknownExampleError,
    _artinian,
    example_ids,
    get_entry,
    load_registry,
    run_example,
)
from ccalab.report import reports_json_text

GOLDEN = Path(__file__).parent / "golden"
F_FAMILY_IDS = ("two-planes", "ffamily-n6-m4", "ffamily-grid-l3-m2", "ffamily-chain-q3-m4")


def test_every_registered_example_passes():
    reports = []
    for eid in example_ids():
        rep = run_example(eid)
        assert rep.passed(), f"{eid}: {[c.claim_id for c in rep.claims if c.passed is False]}"
        reports.append(rep)
    # byte-level guard: the same bytes as `ccalab verify all --format json`
    golden = (GOLDEN / "verify_all.json").read_text()
    assert reports_json_text(reports) + "\n" == golden


@pytest.mark.parametrize("p", [2, 3])
def test_field_changes_only_the_f_family_config(p):
    # `verify all --field fp:<p>` has the Q bytes, apart from the field the
    # f-family reports record in their config
    field = GF(p)
    reports = [run_example(eid, field=field) for eid in example_ids()]
    for r in reports:
        if r.subject in F_FAMILY_IDS:
            assert r.config == {"field": str(field)}
            r.config = {}
    golden = (GOLDEN / "verify_all.json").read_text()
    assert reports_json_text(reports) + "\n" == golden


def test_unknown_example_raises():
    with pytest.raises(UnknownExampleError):
        run_example("not-an-example")


def test_entries_carry_anchors_and_expected():
    for eid in example_ids():
        entry = get_entry(eid)
        assert entry["kind"]
        assert isinstance(entry.get("anchors", {}), dict)


@pytest.fixture(scope="module")
def every_report():
    return {eid: run_example(eid) for eid in example_ids()}


def test_report_claims_carry_registry_anchors():
    rep = run_example("fiber-x1sq-d2")
    by_id = {c.claim_id: c.anchor for c in rep.claims}
    assert by_id["conductor.equals-qB"] == "A:B = Ann_A T = QB"
    assert by_id["type.r"] == "r_A(B/A) = r(T) = 1"
    # a builder called directly keeps its default anchors
    entry = get_entry("fiber-x1sq-d2")
    direct = fiber_product_report(_artinian(entry["params"]), expected=entry["expected"])
    by_id = {c.claim_id: c.anchor for c in direct.claims}
    assert by_id["conductor.equals-qB"] == "A:B = Ann_A(S/q) = qB"
    assert by_id["type.r"] == "r_A(B/A) = r(S/q)"


def test_every_registry_anchor_names_an_emitted_claim(every_report):
    for eid, rep in every_report.items():
        emitted = {c.claim_id for c in rep.claims}
        unmatched = set(get_entry(eid).get("anchors", {})) - emitted
        assert not unmatched, f"{eid}: anchors for claims it never emits: {sorted(unmatched)}"


def test_running_examples_leaves_the_registry_unchanged(every_report):
    text = resources.files("ccalab.data").joinpath("families.json").read_text()
    assert load_registry() == json.loads(text)
    assert load_registry() is load_registry()


def test_report_json_shape():
    rep = run_example("kq-d2")
    data = rep.to_json()
    assert data["schema_version"] == 1
    for claim in data["claims"]:
        assert set(claim) == {"id", "anchor", "expected", "computed", "pass", "bound", "note"}
    # deterministic serialization
    assert reports_json_text([rep]) == reports_json_text([run_example("kq-d2")])


def test_method_disagreement_is_surfaced(monkeypatch):
    # corrupt the A-rule the direct path solves against: the conductor's two
    # routes must then disagree, and the error surfaces instead of being swallowed
    ctx_fam = PullbackFamily.from_supports(
        VarContext(("X", "Y", "Z", "W")), [["X", "Y"], ["Z", "W"]]
    )
    monkeypatch.setattr(PullbackFamily, "a_basis", lambda self, exps, comps: [])
    with pytest.raises(MethodDisagreementError, match="degree 1: direct dim 0, closed dim 4"):
        conductor(ctx_fam)
