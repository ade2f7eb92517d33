import copy
import json
import random
from pathlib import Path

from click.testing import CliRunner

from ccalab import cli, registry, suites
from ccalab.cli import main
from ccalab.errors import MethodDisagreementError


def run(*args):
    return CliRunner().invoke(main, list(args))


def test_list_command():
    res = run("list")
    assert res.exit_code == 0
    ids = res.output.split()
    assert "ffamily-n6-m4" in ids
    assert "fiber-x1sq-d2" in ids


def test_verify_single_example_passes():
    res = run("verify", "ffamily-n6-m4")
    assert res.exit_code == 0
    assert "=> PASS" in res.output


def test_verify_unknown_id_exits_two():
    res = run("verify", "no-such-example")
    assert res.exit_code == 2
    assert "unknown example id" in res.output


def test_verify_bad_field_exits_two():
    res = run("verify", "ffamily-n6-m4", "--field", "r64")
    assert res.exit_code == 2
    # fp:0 is no field; it must not silently run over Q
    res = run("verify", "two-planes", "--field", "fp:0")
    assert res.exit_code == 2
    assert res.output.splitlines() == ["error: 0 is not prime"]
    res = run("verify", "two-planes", "--field", "fp:abc")
    assert res.exit_code == 2
    assert res.output.splitlines() == ["error: cannot parse field 'fp:abc'"]


def test_verify_tampered_expected_exits_one(monkeypatch):
    data = copy.deepcopy(registry.load_registry())
    for entry in data["families"]:
        if entry["id"] == "fiber-x1sq-d2":
            entry["expected"]["length"] = 99
    monkeypatch.setattr(registry, "load_registry", lambda: data)
    res = run("verify", "fiber-x1sq-d2")
    assert res.exit_code == 1
    assert "FAIL" in res.output


def test_verify_claim_outside_the_window_exits_two(monkeypatch):
    data = copy.deepcopy(registry.load_registry())
    for entry in data["families"]:
        if entry["id"] == "subalg-split-q":
            entry["expected"]["valuations_absent"] = [3, 30]  # the window is [0, 30)
    monkeypatch.setattr(registry, "load_registry", lambda: data)
    res = run("verify", "subalg-split-q")
    assert res.exit_code == 2
    assert "window" in res.output


def test_verify_json_output_is_deterministic():
    a = run("verify", "kq-d2", "--format", "json")
    b = run("verify", "kq-d2", "--format", "json")
    assert a.exit_code == b.exit_code == 0
    assert a.output == b.output
    payload = json.loads(a.output)
    assert payload["passed"] is True
    assert payload["reports"][0]["subject"] == "kq-d2"
    for claim in payload["reports"][0]["claims"]:
        assert "anchor" in claim and "pass" in claim


def test_verify_json_records_the_field():
    outputs = {
        f: run("verify", "two-planes", "--field", f, "--format", "json")
        for f in ("q", "f2", "fp:3")
    }
    assert all(res.exit_code == 0 for res in outputs.values())
    configs = {f: json.loads(res.output)["reports"][0]["config"] for f, res in outputs.items()}
    # the default field keeps the bytes it always had
    assert configs == {"q": {}, "f2": {"field": "F2"}, "fp:3": {"field": "F3"}}
    assert len({res.output for res in outputs.values()}) == 3


def test_suite_seeded_deterministic_and_minimal_run():
    a = run("suite", "--seed", "3", "--trials", "1", "--format", "json")
    b = run("suite", "--seed", "3", "--trials", "1", "--format", "json")
    assert a.exit_code == 0
    assert a.output == b.output
    res = run("suite", "--trials", "0")
    assert res.exit_code == 2


def test_suite_matches_golden_bytes():
    res = run("suite", "--seed", "0", "--trials", "20", "--format", "json")
    assert res.exit_code == 0
    golden = Path(__file__).parent / "golden" / "suite_s0_t20.json"
    assert res.output == golden.read_text()


def test_semigroup_command():
    res = run("semigroup", "--gens", "3,4")
    assert res.exit_code == 0
    data = json.loads(res.output)
    assert data["conductor"] == 6
    assert data["symmetric"] is True
    res_bad = run("semigroup", "--gens", "4,6")
    assert res_bad.exit_code == 2
    # a member table of about 10^10 entries is refused before it is built
    res_big = run("semigroup", "--gens", "100000,100001")
    assert res_big.exit_code == 2
    assert len(res_big.output.strip().splitlines()) == 1
    # 10^10 lies past the Frobenius number of <1>, so no table reaches it
    res_n = run("semigroup", "--gens", "1,10000000000")
    assert res_n.exit_code == 0
    assert json.loads(res_n.output) == {
        "apery": [0],
        "conductor": 0,
        "frobenius": -1,
        "gaps": [],
        "minimal_generators": [1],
        "symmetric": True,
    }


def test_subalgebra_command():
    res = run(
        "subalgebra", "--gens", "t^2+t^3,t^4,t^6", "--field", "f2", "--prec", "40"
    )
    assert res.exit_code == 0
    data = json.loads(res.output)
    assert data["conductor_exponent"] == 6
    assert 5 not in data["valuations"]
    assert 7 in data["valuations"]


def test_verify_all_via_registry():
    # run the two cheapest kinds through the CLI to keep this test quick
    res = run("verify", "kq-d2", "kq-d3", "fiber-x1sq-d2", "--format", "json")
    assert res.exit_code == 0
    payload = json.loads(res.output)
    assert len(payload["reports"]) == 3


def test_subalgebra_notes_why_the_conductor_is_uncertified():
    # at precision 20 and margin 5 the window is [0, 15)
    for gens, note in (
        ("t^3", "valuation pattern not stabilized below window 15"),
        ("t^2+t^3", "no t-power tail inside the window"),
    ):
        res = run("subalgebra", "--gens", gens, "--prec", "20", "--margin", "5")
        assert res.exit_code == 0
        data = json.loads(res.output)
        assert data["conductor_exponent"] is None
        assert data["note"] == note


def test_subalgebra_negative_margin_exits_two():
    # a negative margin would certify valuations past the truncation at t^20
    res = run("subalgebra", "--gens", "t^4,t^6", "--prec", "20", "--margin", "-10")
    assert res.exit_code == 2
    assert "margin -10" in res.output
    assert "window" not in res.output


def test_subalgebra_margin_too_large_names_the_margin():
    # t^2,t^3 at the default precision 40 fails only because of the margin
    res = run("subalgebra", "--gens", "t^2,t^3", "--margin", "38")
    assert res.exit_code == 2
    assert "margin 38" in res.output and "valuation 3" in res.output
    assert run("subalgebra", "--gens", "t^2,t^3", "--margin", "34").exit_code == 0


def _raise(exc):
    def fail(*args, **kwargs):
        raise exc

    return fail


def test_internal_failures_exit_three(monkeypatch):
    for exc in (MethodDisagreementError("paths disagree"), ValueError("bad entry")):
        monkeypatch.setattr(cli, "run_example", _raise(exc))
        res = run("verify", "kq-d2")
        assert res.exit_code == 3
        assert res.output == f"internal error: {type(exc).__name__}: {exc}\n"
        monkeypatch.setattr(cli, "run_all_suites", _raise(exc))
        res = run("suite", "--trials", "1")
        assert res.exit_code == 3
        assert res.output.startswith("internal error:")


def test_suite_bug_is_an_internal_error_not_a_disagreement(monkeypatch):
    # only a disagreement of the two conductor paths is a failed trial
    monkeypatch.setattr(suites, "conductor", _raise(MethodDisagreementError("paths disagree")))
    res = run("suite", "--trials", "1")
    assert res.exit_code == 1
    assert "FAIL  suite-conductor-two-path.agreement.trials" in res.output
    monkeypatch.setattr(suites, "conductor", _raise(ValueError("bug")))
    res = run("suite", "--trials", "1")
    assert res.exit_code == 3
    assert res.output == "internal error: ValueError: bug\n"


def _contract_cases():
    """A seeded grid over the numeric and field options of three commands."""
    rng = random.Random(0)
    series = ["t^2+t^3", "t^4", "t^6", "t", "1", "0", "2t^5", "t^3-t^7", "t^0+t^9"]
    fields = ["q", "f2", "fp:3", "fp:4", "r64"]
    cases = []
    for _ in range(70):
        gens = [str(rng.randint(-2, 40)) for _ in range(rng.randint(1, 3))]
        cases.append(["semigroup", "--gens", ",".join(gens)])
    for _ in range(80):
        gens = rng.sample(series, rng.randint(1, 3))
        cases.append(
            ["subalgebra", "--gens", ",".join(gens), "--field", rng.choice(fields),
             "--prec", str(rng.randint(0, 60)), "--margin", str(rng.randint(-5, 20))]
        )
    for field in fields:
        cases.append(["verify", "two-planes", "--field", field])
    return cases


def test_exit_code_contract():
    # every input ends in 0, 1 or 2 with at most a one-line message, never a traceback
    bad = []
    for args in _contract_cases():
        res = run(*args)
        crashed = res.exception is not None and not isinstance(res.exception, SystemExit)
        message = res.output.strip().splitlines() if res.exit_code == 2 else []
        if res.exit_code not in (0, 1, 2) or crashed or len(message) > 1:
            bad.append((args, res.exit_code, res.output[-200:]))
    assert not bad
