import json
import sys
from dataclasses import replace
from pathlib import Path

import pytest

from ultragram.cli import build_parser, main
from ultragram.groups import Subgroup
from ultragram.reports import emit
from ultragram import cli, scenarios, series, spaces, verify
from ultragram.presentations import SubfieldPresentation
from ultragram.scenarios import (
    BUILTINS,
    MAX_SIZE,
    TASKS,
    ParseError,
    UnknownName,
    apply_precision_overrides,
    load_scenario,
    parse_scenario,
    resolve_runtime,
    run,
    scenario_from_dict,
)
from ultragram.verify import verify_report

from test_golden import EXTRA_SCENARIOS


def test_parse_error_has_position():
    with pytest.raises(ParseError) as err:
        parse_scenario("{ not json")
    assert "line 1" in str(err.value)


def test_parse_rejects_missing_blocks():
    with pytest.raises(ParseError):
        parse_scenario(json.dumps({"ambient": {"group": {"group": "Z"}}}))


def test_unknown_element_reference():
    doc = {
        "ambient": {"group": {"group": "Z"}, "coefficients": {"field": "Fp", "p": 3}},
        "base_field": {"kind": "laurent", "t_value": 1},
        "elements": {"one": [[0, 1]]},
        "tasks": [{"task": "independence", "family": ["one", "ghost"]}],
        "precision": {"ceiling": 16},
    }
    with pytest.raises(UnknownName):
        scenario_from_dict(doc)


def test_closure_of_an_infinite_generator_reaches_the_degree_cap_verified():
    # the seed adjoins g = s + sum t^i; reducing 1*g again once made this closure obstructed at index 3
    doc = {
        "ambient": {"group": {"group": "Z"}, "coefficients": {"field": "Fp(s)", "p": 3}},
        "base_field": {"kind": "laurent", "t_value": 1, "name": "F3(t)", "residue": {"field": "Fp", "p": 3}},
        "elements": {"y": [[0, "s"]], "geo": {"builder": "geometric"}, "g": {"sum": ["y", "geo"]}},
        "tasks": [{"task": "analyze_extension", "generators": ["g"], "mode": "closure"}],
        "precision": {"ceiling": 32, "max_terms": 8, "degree_cap": 6},
    }
    scenario = scenario_from_dict(doc)
    report = run(scenario)
    outcome = report.tasks[0].outcome
    assert (outcome["verdict"], outcome["n"]) == ("inconclusive", 7)
    assert outcome["note"] == "degree cap reached at dimension 7"
    assert all(c["ok"] for c in verify_report(scenario, report))


def test_empty_tasks_valid():
    doc = {
        "ambient": {"group": {"group": "Z"}, "coefficients": {"field": "Fp", "p": 3}},
        "base_field": {"kind": "laurent", "t_value": 1},
        "tasks": [],
        "precision": {"ceiling": 16},
    }
    scenario = scenario_from_dict(doc)
    report = run(scenario)
    assert report.tasks == []
    payload = emit(report, "structured")
    doc2 = json.loads(payload)
    assert doc2["schema"] == "ultragram/1"
    assert doc2["tasks"] == []
    with pytest.raises(ValueError, match="unknown format 'xml'"):
        emit(report, "xml")


def test_builtins_parse_and_roundtrip():
    for name in BUILTINS:
        scenario = load_scenario(name)
        # the canonical scenario echoes through parse unchanged
        echo = json.dumps(scenario.canonical)
        assert parse_scenario(echo) == scenario == load_scenario(echo)


def test_resolve_runtime_parses_nothing(monkeypatch):
    custom = {
        "ambient": {"group": {"group": "Z"}, "coefficients": {"field": "Fp", "p": 3}},
        "base_field": {"kind": "laurent", "t_value": 1},
        "elements": {"w": {"builder": "custom_powers", "exponents": "i^2"}},
        "tasks": [{"task": "independence", "family": ["w"]}],
        "precision": {"ceiling": 16},
    }
    parsed = [load_scenario(name) for name in BUILTINS] + [scenario_from_dict(custom)]

    def refuse(*args):
        raise AssertionError("resolve_runtime parsed scenario input")

    for name in ("_parse_group", "_parse_field", "_parse_exponent", "_parse_coefficient", "_compile_formula"):
        monkeypatch.setattr(scenarios, name, refuse)
    for scenario in parsed:
        runtime = resolve_runtime(scenario)
        assert sorted(runtime.elements) == sorted(scenario.canonical["elements"])
        assert runtime.precision is scenario.precision


def test_resolve_runtime_builds_stateful_series_fresh_and_shares_leaves():
    scenario = load_scenario("paper:notCA")
    first, second = resolve_runtime(scenario), resolve_runtime(scenario)
    assert first.elements["frobenius_orbit"] is not second.elements["frobenius_orbit"]
    assert first.elements["x"] is not second.elements["x"]
    assert first.elements["one"] is second.elements["one"]


def test_report_echo_roundtrip():
    scenario = load_scenario("paper:sqrt-t")
    report = run(scenario)
    payload = json.loads(emit(report, "structured"))
    assert parse_scenario(json.dumps(payload["scenario"])) == scenario


def test_run_builtin_structured_deterministic():
    scenario = load_scenario("paper:fpt-y")
    a = emit(run(scenario), "structured")
    b = emit(run(scenario), "structured")
    assert a == b


def test_cli_exit_codes(tmp_path: Path, capsys):
    assert main(["run", "paper:sqrt-t"]) == 0
    # dependent verdicts are answers, not failures
    assert main(["run", "paper:notCA"]) == 0
    capsys.readouterr()
    assert main(["run", "no-such-builtin"]) == 1
    bad = tmp_path / "bad.json"
    bad.write_text("{ nope", encoding="utf-8")
    assert main(["run", str(bad)]) == 1
    capsys.readouterr()


def test_unwritable_output_exits_1_with_one_error_line(tmp_path: Path, capsys):
    out = tmp_path / "no-such-dir" / "out.json"
    assert main(["run", "paper:sqrt-t", "--output", str(out)]) == 1
    captured = capsys.readouterr()
    assert captured.out == "" and not out.exists()
    lines = captured.err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: ")


def test_file_text_is_parsed_as_json_not_as_a_builtin_name(tmp_path: Path, capsys):
    named = tmp_path / "named.txt"
    named.write_text("paper:sqrt-t", encoding="utf-8")
    assert main(["run", str(named)]) == 1
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: ")
    # a built-in name is still taken as the argument itself
    assert main(["run", "paper:sqrt-t"]) == 0


def test_cli_list(capsys):
    assert main(["list"]) == 0
    out = capsys.readouterr().out
    for name in BUILTINS:
        assert name in out


def test_cli_runs_scenario_file(tmp_path: Path, capsys):
    doc = {
        "name": "local-test",
        "ambient": {"group": {"group": "Q"}, "coefficients": {"field": "Fp", "p": 5}},
        "base_field": {"kind": "laurent", "t_value": 1, "name": "F5(t)"},
        "elements": {"one": [[0, 1]], "root": [["1/2", 1]]},
        "tasks": [{"task": "independence", "family": ["one", "root"]}],
        "precision": {"ceiling": 24, "max_terms": 6},
    }
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    out_path = tmp_path / "report.json"
    assert main(["run", str(path), "--format", "structured", "--output", str(out_path)]) == 0
    report = json.loads(out_path.read_text(encoding="utf-8"))
    assert report["tasks"][0]["outcome"]["verdict"] == "independent"


def test_failed_family_certificate_is_a_task_error(tmp_path: Path):
    doc = {
        "ambient": {"group": {"group": "Z"}, "coefficients": {"field": "Fp(s)", "p": 3}},
        "base_field": {"kind": "laurent", "t_value": 1, "residue": {"field": "Fp", "p": 3}},
        "elements": {"one": [[0, 1]], "y": [[0, "s"]], "t": [[1, 1]]},
        "tasks": [
            {"task": "independence", "family": ["one", "y"]},
            {"task": "nearest_point", "target": "y", "family": ["one", "t"]},
        ],
        "precision": {"ceiling": 16},
    }
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    out_path = tmp_path / "report.json"
    assert main([
        "run", str(path), "--verify", "--format", "structured", "--output", str(out_path),
    ]) == 0
    report = json.loads(out_path.read_text(encoding="utf-8"))
    first, second = report["tasks"]
    assert first["outcome"]["verdict"] == "independent"
    assert second["error"] == {"type": "NotIndependent", "message": "nearest_point family failed its certificate"}
    assert report["verification"] and all(c["ok"] for c in report["verification"])


def test_exhausted_witness_coefficient_above_ceiling_verifies(tmp_path: Path):
    # the witness coefficient t^41 of b = t^-10 lies above the ceiling 32
    doc = {
        "ambient": {"group": {"group": "Z"}, "coefficients": {"field": "Fp", "p": 3}},
        "base_field": {"kind": "laurent", "t_value": 1},
        "elements": {"a": [[31, 1]], "b": [[-10, 1]]},
        "tasks": [{"task": "independence", "family": ["a", "b"]}],
        "precision": {"ceiling": 32},
    }
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    out_path = tmp_path / "report.json"
    assert main([
        "run", str(path), "--verify", "--format", "structured", "--output", str(out_path),
    ]) == 0
    report = json.loads(out_path.read_text(encoding="utf-8"))
    witness = report["tasks"][0]["outcome"]["witness"]
    assert witness["coefficients"][1] == {"exact": True, "terms": [[["41"], 1]]}
    assert [c["ok"] for c in report["verification"]] == [True, True]


@pytest.mark.parametrize("ceiling", ["1", "2"])
def test_verify_samples_leading_at_or_above_a_low_ceiling(ceiling, tmp_path: Path):
    # some coefficients the independence check samples lead at or above these ceilings
    out_path = tmp_path / "report.json"
    assert main([
        "run", "paper:fpt-y", "--verify", "--precision-exp", ceiling,
        "--format", "structured", "--output", str(out_path),
    ]) == 0
    checks = json.loads(out_path.read_text(encoding="utf-8"))["verification"]
    assert "task0:independence" in [c["id"] for c in checks]
    assert all(c["ok"] for c in checks)


def test_inconclusive_independence_names_the_fuel_that_bound_it(tmp_path: Path):
    # a - b is zero, but certifying it above value 0 pulls 400 streams once each,
    # past the 256 + 64 * max_terms = 320 units of fuel one valuation has
    names = [f"g{i}" for i in range(400)]
    doc = {
        "ambient": {"group": {"group": "Z"}, "coefficients": {"field": "Fp", "p": 3}},
        "base_field": {"kind": "laurent", "t_value": 1, "name": "F3(t)"},
        "elements": {**{n: {"builder": "custom_powers", "exponents": "5*i"} for n in names},
                     "a": {"sum": names[:200]}, "b": {"sum": names[200:]}},
        "tasks": [{"task": "independence", "family": ["a", "b"]},
                  {"task": "independence", "family": ["b"], "over": ["a"]}],
        "precision": {"ceiling": 40, "max_terms": 1},
    }
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    out_path = tmp_path / "report.json"
    assert main([
        "run", str(path), "--verify", "--format", "structured", "--output", str(out_path),
    ]) == 0
    report = json.loads(out_path.read_text(encoding="utf-8"))
    assert [t["outcome"] for t in report["tasks"]] == [{
        "verdict": "inconclusive",
        "note": 'kernel witness not re-evaluated above ["0"]: the fuel of one valuation, 320 units, ran out',
    }] * 2
    assert report["verification"] == [{"id": "determinism", "ok": True}]


def test_an_empty_direct_span_is_inconclusive_and_verifies(tmp_path: Path):
    # no generator, no value coset: n = e = f = 0, not the coset cross-check's task error
    doc = {
        "ambient": {"group": {"group": "Q"}, "coefficients": {"field": "Fp", "p": 5}},
        "base_field": {"kind": "laurent", "t_value": 1, "name": "F5(t)"},
        "tasks": [{"task": "analyze_extension", "generators": [], "mode": "direct"}],
        "precision": {"ceiling": 32},
    }
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    out_path = tmp_path / "report.json"
    assert main(["run", str(path), "--verify", "--format", "structured", "--output", str(out_path)]) == 0
    report = json.loads(out_path.read_text(encoding="utf-8"))
    outcome = report["tasks"][0]["outcome"]
    assert (outcome["n"], outcome["e"], outcome["f"], outcome["verdict"]) == (0, 0, 0, "inconclusive")
    # {0} is closed under multiplication: the note names the zero span, not a failed closure
    assert outcome["note"] == "the span is zero: it has no basis element, and {0} lacks 1"
    assert report["verification"] == [{"id": "determinism", "ok": True}]


def test_cli_precision_overrides(tmp_path: Path):
    out_path = tmp_path / "r.json"
    assert main([
        "run", "paper:ti-minus-ti1", "--max-terms", "4",
        "--format", "structured", "--output", str(out_path),
    ]) == 0
    report = json.loads(out_path.read_text(encoding="utf-8"))
    streamed = report["tasks"][1]["outcome"]
    assert streamed["kind"] == "unbounded"
    assert len(streamed["evidence"]) == 4


@pytest.mark.parametrize(
    "override",
    [
        ["--max-terms", "0"],
        ["--max-terms", "-1"],
        ["--degree-cap", "0"],
        ["--precision-exp", "abc"],
        ["--precision-exp", "1/0"],
        ["--precision-exp", "1e2"],
        ["--max-terms", str(MAX_SIZE + 1)],
        ["--degree-cap", str(MAX_SIZE + 1)],
    ],
)
def test_cli_rejects_bad_precision_override(override, capsys):
    assert main(["run", "paper:sqrt-t", *override]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    lines = captured.err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: ")


def test_cli_verify_flag(tmp_path: Path):
    out_path = tmp_path / "r.json"
    assert main([
        "run", "paper:notCA", "--verify", "--format", "structured",
        "--output", str(out_path),
    ]) == 0
    report = json.loads(out_path.read_text(encoding="utf-8"))
    assert report["verification"]
    assert all(check["ok"] for check in report["verification"])


def test_deep_chase_probe_has_no_task_error(tmp_path: Path):
    # a 600-step chase builds subtraction chains far deeper than the
    # interpreter's recursion limit
    out_path = tmp_path / "r.json"
    assert main([
        "run", "paper:ti-minus-ti1", "--max-terms", "600", "--precision-exp", "2000",
        "--format", "structured", "--output", str(out_path),
    ]) == 0
    report = json.loads(out_path.read_text(encoding="utf-8"))
    assert not any("error" in task for task in report["tasks"])
    assert len(report["tasks"][1]["outcome"]["evidence"]) == 600


def _chase_doc(start: int, max_terms: int) -> dict:
    """t^start against the telescoping family over Q, max_terms steps deep."""
    return {
        "name": f"chase-s{start}-m{max_terms}",
        "ambient": {"group": {"group": "Z"}, "coefficients": {"field": "Q"}},
        "base_field": {"kind": "trivial", "name": "Q"},
        "elements": {"target": [[start, 1]]},
        "tasks": [{
            "task": "nearest_point", "target": "target",
            "family": {"family_builder": "telescoping", "start": start, "count": "auto"},
        }],
        "precision": {"ceiling": 2 * max_terms + 40, "max_terms": max_terms, "degree_cap": 16},
    }


def test_chase_at_1024_terms_verifies(tmp_path: Path):
    max_terms = 1024
    path = tmp_path / "chase.json"
    path.write_text(json.dumps(_chase_doc(5, max_terms)), encoding="utf-8")
    out_path = tmp_path / "r.json"
    assert main(["run", str(path), "--verify", "--format", "structured", "--output", str(out_path)]) == 0
    report = json.loads(out_path.read_text(encoding="utf-8"))
    outcome = report["tasks"][0]["outcome"]
    assert outcome["kind"] == "unbounded"
    assert len(outcome["evidence"]) == max_terms
    assert all(check["ok"] for check in report["verification"])


def _truncate_json(doc):
    doc["exact"] = False  # as serialized when only a prefix of the series is known


def _duplicate_first(docs):
    docs[1] = docs[0]


def _claim_independent(*exponents):
    """Flip a dependent verdict to independent, with the scalings t^(v(b_ref) - v(b_i)) its leads give."""
    def corrupt(outcome):
        del outcome["witness"]
        outcome.update(verdict="independent", scalings=[{"exact": True, "terms": [[e, 1]]} for e in exponents])
    return corrupt


# (scenario, task index, corruption of that task's structured outcome, the check it fails)
TAMPERED = {
    "dependence-min-value": ("golden:independence-over", 1, lambda o: o["witness"].update(min_value=["1"]),
                             "dependence"),
    "dependence-coefficient-truncated": ("golden:independence-over", 1,
                                         lambda o: _truncate_json(o["witness"]["coefficients"][0]), "dependence"),
    "dependence-shift-truncated": ("golden:independence-over", 1, lambda o: _truncate_json(o["witness"]["shift"]),
                                   "dependence"),
    "dependent-over-claimed-independent": ("golden:independence-over", 1, _claim_independent(["0"]), "independence"),
    "dependent-notCA-claimed-independent": ("paper:notCA", 1, _claim_independent(["0", "0"], ["0", "-1"]),
                                            "independence"),
    "scaling-dropped": ("paper:fpt-y", 0, lambda o: o["scalings"].pop(), "independence"),
    "scaling-truncated": ("paper:fpt-y", 0, lambda o: _truncate_json(o["scalings"][0]), "independence"),
    "scaling-replaced": ("paper:fpt-y", 0, lambda o: o.update(scalings=[
        {"exact": True, "terms": [[["7"], {"num": [2], "den": [1]}]]}] * 2), "independence"),
    "dependence-coefficient-lead-changed": ("golden:independence-over", 1,
                                            lambda o: o["witness"]["coefficients"][0].update(terms=[[["0"], 2]]),
                                            "dependence"),
    "claimed-value": ("paper:ti-minus-ti1", 0, lambda o: o.update(value=["7"]), "max"),
    "best-is-the-target": ("paper:ti-minus-ti1", 0, lambda o: o["best"].update(terms=[[["1"], "1"]]), "max"),
    "best-truncated": ("paper:ti-minus-ti1", 0, lambda o: _truncate_json(o["best"]), "max"),
    "evidence-not-increasing": ("paper:ti-minus-ti1", 1, lambda o: _duplicate_first(o["evidence"]), "chain"),
    "approximant-dropped": ("paper:ti-minus-ti1", 1, lambda o: o["approximants"].pop(), "chain"),
    "approximant-duplicated": ("paper:ti-minus-ti1", 1, lambda o: _duplicate_first(o["approximants"]), "chain"),
    "approximant-term-repeated": ("paper:ti-minus-ti1", 1, lambda o: _duplicate_first(o["approximants"][0]["terms"]),
                                  "chain"),
    "approximant-is-the-target": ("paper:ti-minus-ti1", 1, lambda o: o["approximants"][0].update(terms=[[["1"], "1"]]),
                                  "chain"),
    "approximant-gains-a-term": ("paper:ti-minus-ti1", 1,
                                 lambda o: o["approximants"][2]["terms"].insert(1, [["3"], "1"]), "chain"),
    "standard-product-duplicated": ("paper:sqrt-t", 0, lambda o: _duplicate_first(o["standard_basis"]["products"]),
                                    "standard"),
    "standard-product-zeroed": ("paper:sqrt-t", 0, lambda o: o["standard_basis"]["products"][0].update(terms=[]),
                                "standard"),
    "truncated-coefficient-emptied": ("paper:cofinal-approx", 0, lambda o: o["coefficients"][0][0].update(terms=[]),
                                      "approximation"),
    "truncated-coefficient-truncated": ("paper:cofinal-approx", 0, lambda o: _truncate_json(o["coefficients"][0][0]),
                                        "approximation"),
    "immediacy-value-claimed": ("paper:fpt-y", 1, lambda o: o["reduction"].update(value=["2"]), "max"),
    "immediacy-evidence-repeated": ("paper:artin-schreier", 0,
                                    lambda o: o["reduction"]["evidence"].insert(0, o["reduction"]["evidence"][0]),
                                    "chain"),
}
# the detail of the failing check, where a case pins it
TAMPERED_DETAILS = {
    "dependent-over-claimed-independent": 'the class of ["0"] has residue rank 1 for 2 elements',
    "dependent-notCA-claimed-independent": 'the class of ["0", "0"] has residue rank 1 for 2 elements',
    "standard-product-duplicated": 'the class of ["0"] has residue rank 1 for 2 elements',
    "standard-product-zeroed": "a product has no witnessed lead",
    "scaling-dropped": "1 scaling witnesses for 2 elements",
    "scaling-truncated": "scaling witnesses were serialized truncated",
    # the combination's lead no longer cancels, so it sits at the minimum, not above it
    "dependence-coefficient-lead-changed": 'achieved ["0"] vs min ["0"]',
    "claimed-value": 'v(b-best) is ["5"], claimed ["7"]',
    "best-is-the-target": 'v(b-best) is {"zero_up_to": ["40"], "exact_zero": true}, claimed ["5"]',
    "approximant-is-the-target": 'approximant 0 realizes {"zero_up_to": ["40"], "exact_zero": true}, claimed ["2"]',
    "immediacy-value-claimed": 'v(b-best) is ["1"], claimed ["2"]',
    "immediacy-evidence-repeated": "fewer approximants than evidence entries",
    "approximant-term-repeated": "approximant 0 repeats a term",
    # the chain check keeps b - a_k as differences: a term gained in the middle shows at once
    "approximant-gains-a-term": 'approximant 2 realizes ["3"], claimed ["4"]',
}


@pytest.mark.parametrize("case", sorted(TAMPERED))
def test_verify_rejects_tampered_witness(case):
    name, index, corrupt, check = TAMPERED[case]
    scenario = scenario_from_dict(EXTRA_SCENARIOS[name]) if name in EXTRA_SCENARIOS else load_scenario(name)
    report = run(scenario)
    check_id = f"task{index}:{check}"
    checks = verify_report(scenario, report)
    assert any(c["id"].startswith(f"task{index}:") for c in checks)  # a flipped verdict changes the check
    assert all(c == {"id": c["id"], "ok": True} for c in checks)  # a passing entry has no detail
    corrupt(report.tasks[index].outcome)
    checks = verify_report(scenario, report)
    assert [c["ok"] for c in checks if c["id"] == check_id] == [False]
    if case in TAMPERED_DETAILS:
        assert [c["detail"] for c in checks if c["id"] == check_id] == [TAMPERED_DETAILS[case]]
    for c in checks:  # the failing entries, the determinism check among them, carry a detail
        assert set(c) == {"id", "ok"} if c["ok"] else set(c) == {"id", "ok", "detail"}
        assert c["ok"] or isinstance(c["detail"], str) and c["detail"]


def test_a_dependence_witness_with_a_zero_coefficient_verifies():
    # 3*1 + 1*2 = 0 over F5, and t^(1/2) takes no part: its coefficient has no v(c) + v(b)
    doc = {"name": "zero-coefficient", "ambient": {"group": {"group": "Q"}, "coefficients": {"field": "Fp", "p": 5}},
           "base_field": {"kind": "laurent", "t_value": 1, "name": "F5(t)"},
           "elements": {"root": [["1/2", 1]], "one": [[0, 1]], "two": [[0, 2]]},
           "tasks": [{"task": "independence", "family": ["root", "one", "two"]}],
           "precision": {"ceiling": 12, "max_terms": 6, "degree_cap": 8}}
    scenario = scenario_from_dict(doc)
    report = run(scenario)
    witness = report.tasks[0].outcome["witness"]
    assert [c["terms"] for c in witness["coefficients"]] == [[], [[["0"], 3]], [[["0"], 1]]]
    assert verify_report(scenario, report) == [{"id": "determinism", "ok": True}, {"id": "task0:dependence", "ok": True}]


def test_verify_names_a_claimed_element_with_no_witnessed_lead():
    # the zero element makes task 0 a task error; a report claiming the pair independent fails the check
    scenario = scenario_from_dict(EXTRA_SCENARIOS["golden:task-error"])
    report = run(scenario)
    scalings = [{"exact": True, "terms": [[["0"], 1]]}] * 2
    report.tasks[0] = replace(report.tasks[0], error=None, outcome={"verdict": "independent", "scalings": scalings})
    checks = verify_report(scenario, report)
    assert [c for c in checks if c["id"] == "task0:independence"] == [
        {"id": "task0:independence", "ok": False, "detail": "an element has no witnessed lead"}]


def test_verify_leaves_a_truncated_standard_product_to_the_determinism_check():
    # the README's "standard passes truncated products": only the re-run comparison sees the change
    scenario = load_scenario("paper:standard-2x2")
    report = run(scenario)
    _truncate_json(report.tasks[1].outcome["standard_basis"]["products"][0])
    checks = verify_report(scenario, report)
    assert {"id": "task1:standard", "ok": True} in checks
    assert [c["id"] for c in checks if not c["ok"]] == ["determinism"]


def test_a_malformed_approximant_term_raises_the_parse_error_of_any_series():
    scenario = load_scenario("paper:ti-minus-ti1")
    report = run(scenario)
    approximant = report.tasks[1].outcome["approximants"][0]
    approximant["terms"][0] = [5]
    with pytest.raises(ParseError) as read:
        verify._series_from_json(approximant, resolve_runtime(scenario))
    with pytest.raises(ParseError) as verified:
        verify_report(scenario, report)
    assert str(verified.value) == str(read.value) == "series term must be [exponent, coefficient], got [5]"


def test_verified_chase_reduces_each_value_once(monkeypatch):
    """A subgroup keeps the coset key of each value: one Hermite reduction per distinct value."""
    reduced = []
    reduce = Subgroup._reduce

    def counted(self, g):
        reduced.append(g.coords)
        return reduce(self, g)

    monkeypatch.setattr(Subgroup, "_reduce", counted)
    scenario = scenario_from_dict(_chase_doc(1, 128))
    report = run(scenario)
    assert all(c["ok"] for c in verify_report(scenario, report))
    assert len(report.tasks[0].outcome["evidence"]) == 128
    assert len(set(reduced)) > 128 and len(reduced) == len(set(reduced))


@pytest.mark.parametrize("name, verdicts, sections", [
    ("paper:standard-2x2", 0, 0), ("paper:cofinal-approx", 1, 2), ("paper:sqrt-t", 0, 0),
    ("golden:independence-over", 4, 5),
])
def test_run_asks_for_a_verdict_only_where_it_reports_one(monkeypatch, name, verdicts, sections):
    """A yes-or-no independence check is read off the class record.  The verdicts left are an
    independence task's (over W, the family's and that of W with the family) and approximate's
    completion-side check, whose error text prints the verdict's kind.  A verdict's scalings
    are monomial sections; normalize shares one unit and builds a section only for a value
    it moves, and no built-in here moves one."""
    counts = {"verdicts": 0, "sections": 0}
    plain, plain_section = spaces.is_valuation_independent, SubfieldPresentation.monomial_section

    def counted(family, prec):
        counts["verdicts"] += 1
        return plain(family, prec)

    def counted_section(self, delta):
        counts["sections"] += 1
        return plain_section(self, delta)

    for module in [m for n, m in sys.modules.items() if n == "ultragram" or n.startswith("ultragram.")]:
        if getattr(module, "is_valuation_independent", None) is plain:
            monkeypatch.setattr(module, "is_valuation_independent", counted)
    monkeypatch.setattr(SubfieldPresentation, "monomial_section", counted_section)
    scenario = scenario_from_dict(EXTRA_SCENARIOS[name]) if name in EXTRA_SCENARIOS else load_scenario(name)
    report = run(scenario)
    assert all(t.error is None for t in report.tasks)
    assert counts == {"verdicts": verdicts, "sections": sections}


def test_a_unit_scaling_builds_no_node(monkeypatch):
    """Over the trivially valued Q each member of the telescoping family is a class of its
    own, so normalize leaves every member as it is, and each chase step scales a member by
    t^0 * 1.  Neither builds a node: normalize asks for no monomial section, and the chase
    builds at least one leaf per step fewer than the 231 of a run that built a leaf for
    each unit scaling and a section for each member."""
    counts = {"leaves": 0, "sections": 0}
    plain_leaf, plain_section = series._Leaf.__init__, SubfieldPresentation.monomial_section

    def counted_leaf(self, *args):
        counts["leaves"] += 1
        plain_leaf(self, *args)

    def counted_section(self, delta):
        counts["sections"] += 1
        return plain_section(self, delta)

    monkeypatch.setattr(series._Leaf, "__init__", counted_leaf)
    monkeypatch.setattr(SubfieldPresentation, "monomial_section", counted_section)
    outcome = run(scenario_from_dict(_chase_doc(1, 32))).tasks[0].outcome
    assert outcome["kind"] == "unbounded" and len(outcome["evidence"]) == 32
    assert counts["sections"] == 0
    assert counts["leaves"] <= 231 - 32, counts


def test_normalize_hands_on_its_class_record(monkeypatch):
    """``normalize`` of the 34-member telescoping family keeps every member and hands the
    family it returns the class record: it builds no valuation record, as each lead is
    cached, and takes each coset key once to classify and once to scale, where a second
    class pass took a third.  The whole run builds one valuation record per chase step
    and one for the target: 33, where a run that read every lead through one built 101."""
    counts = {"valuations": 0, "coset_keys": 0}
    plain_valuation, plain_key, plain_normalize = series.Valuation.__init__, Subgroup.coset_key, scenarios.normalize
    inside: dict = {}

    def counted_valuation(self, *args):
        counts["valuations"] += 1
        plain_valuation(self, *args)

    def counted_key(self, g):
        counts["coset_keys"] += 1
        return plain_key(self, g)

    def counted_normalize(family, prec):
        before = dict(counts)
        out = plain_normalize(family, prec)
        inside.update({k: counts[k] - before[k] for k in counts}, size=len(family))
        return out

    monkeypatch.setattr(series.Valuation, "__init__", counted_valuation)
    monkeypatch.setattr(Subgroup, "coset_key", counted_key)
    monkeypatch.setattr(scenarios, "normalize", counted_normalize)
    outcome = run(scenario_from_dict(_chase_doc(1, 32))).tasks[0].outcome
    assert outcome["kind"] == "unbounded" and len(outcome["evidence"]) == 32
    assert inside["size"] == 34
    assert inside["valuations"] == 0, inside
    assert inside["coset_keys"] <= 68, inside
    assert counts["valuations"] == 33, counts


def test_normalization_reads_vk_membership_off_the_class_record(monkeypatch):
    """N3 and N4 scan the class whose coset key is all zeros, the members valued in vK,
    and take no coset key of their own: a chase run took 166 keys when N3 took one per member."""
    calls = []
    plain_key = Subgroup.coset_key

    def counted_key(self, g):
        calls.append(g)
        return plain_key(self, g)

    monkeypatch.setattr(Subgroup, "coset_key", counted_key)
    outcome = run(scenario_from_dict(_chase_doc(1, 32))).tasks[0].outcome
    assert outcome["kind"] == "unbounded" and len(outcome["evidence"]) == 32
    assert len(calls) <= 133, len(calls)


@pytest.mark.parametrize("name, max_terms", [("paper:notCA", 12), ("paper:ti-minus-ti1", 8), ("chase", 32)])
def test_chain_check_parses_each_exponent_once(monkeypatch, name, max_terms):
    """Each distinct serialized exponent, and each distinct serialized coefficient, of a
    chain is parsed once, however many evidence entries and approximants repeat it."""
    scenario = scenario_from_dict(_chase_doc(1, max_terms)) if name == "chase" else load_scenario(name)
    scenario = apply_precision_overrides(scenario, max_terms=max_terms)
    report = run(scenario)
    chains = 0
    for task_outcome in report.tasks:
        runtime = resolve_runtime(scenario)
        task = scenario.canonical["tasks"][task_outcome.index]
        for check, subject, doc in TASKS[task_outcome.task].witnesses(task, task_outcome.outcome, runtime):
            if check != "chain":
                continue
            parsed: dict = {"_parse_exponent": [], "_parse_coefficient": []}

            def counted(name):
                parse = getattr(verify, name)

                def parse_counted(spec, context):
                    parsed[name].append(json.dumps(spec))
                    return parse(spec, context)
                return parse_counted

            with monkeypatch.context() as patched:
                for parser in parsed:
                    patched.setattr(verify, parser, counted(parser))
                assert verify._chain(subject, doc, runtime) is None
            terms = [term for a in doc["approximants"] for term in a["terms"]]
            exponents = {json.dumps(e) for e in doc["evidence"]} | {json.dumps(e) for e, _ in terms}
            assert sorted(parsed["_parse_exponent"]) == sorted(exponents)
            assert sorted(parsed["_parse_coefficient"]) == sorted({json.dumps(c) for _, c in terms})
            chains += 1
    assert chains


def test_a_normalize_task_reports_a_failed_normalization_check(monkeypatch):
    # normalize certifies N1 to N4 as it builds; the task re-checks its result, and a
    # family that failed would be reported by the condition it broke
    monkeypatch.setattr(scenarios, "check_normalized", lambda family, prec: spaces.NormalizationCheck(False, "N3"))
    assert run(load_scenario("paper:standard-2x2")).tasks[0].outcome["check"] == "fail:N3"


def _tamper_normalize_value(outcome):
    outcome["values"][0] = ["1"]  # no witness check reads a normalize outcome


def test_verify_determinism_check_fails_alone(tmp_path: Path, monkeypatch):
    scenario = load_scenario("paper:standard-2x2")
    report = run(scenario)
    assert report.tasks[0].task == "normalize"
    _tamper_normalize_value(report.tasks[0].outcome)
    checks = verify_report(scenario, report)
    assert [c for c in checks if not c["ok"]] == [
        {"id": "determinism", "ok": False, "detail": "re-run produced a different structured report"}
    ]
    assert len(checks) > 1

    def tampered_run(*args):
        report = run(*args)
        _tamper_normalize_value(report.tasks[0].outcome)
        return report

    monkeypatch.setattr(cli, "run", tampered_run)  # verify_report re-runs the untouched run
    out_path = tmp_path / "r.json"
    assert main(["run", "paper:standard-2x2", "--verify", "--format", "structured", "--output", str(out_path)]) == 2
    verification = json.loads(out_path.read_text(encoding="utf-8"))["verification"]
    assert [c["id"] for c in verification if not c["ok"]] == ["determinism"]


def test_relative_scalings_are_checked_against_w():
    # ty shares the coset of vK with W's one, so its scaling is t^(v(one) - v(ty)) = t^-1, not 1
    doc = scenarios.BUILTINS["paper:fpt-y"]()
    doc["tasks"] = [{"task": "independence", "family": ["ty"], "over": ["one"]}]
    scenario = scenario_from_dict(doc)
    report = run(scenario)
    outcome = report.tasks[0].outcome
    assert outcome["verdict"] == "independent" and outcome["scalings"][0]["terms"][0][0] == ["-1"]
    assert {"id": "task0:independence", "ok": True} in verify_report(scenario, report)
    outcome["scalings"][0]["terms"][0][0] = ["0"]  # the scaling that ignores W
    assert [c["ok"] for c in verify_report(scenario, report) if c["id"] == "task0:independence"] == [False]


def test_text_format_stable():
    scenario = load_scenario("paper:sqrt-t")
    text = emit(run(scenario), "text").decode("utf-8")
    assert "vs_defectless" in text
    assert "n=2 e=2 f=1" in text


def test_seed_override_changes_sampling_but_stays_green(tmp_path: Path):
    p1, p2 = tmp_path / "a.json", tmp_path / "b.json"
    assert main(["run", "paper:baur-sampling", "--seed", "1",
                 "--format", "structured", "--output", str(p1)]) == 0
    assert main(["run", "paper:baur-sampling", "--seed", "2",
                 "--format", "structured", "--output", str(p2)]) == 0
    for p in (p1, p2):
        doc = json.loads(p.read_text(encoding="utf-8"))
        assert doc["tasks"][0]["outcome"]["all_basis"] is True


def test_overridden_scenario_differs_from_its_source():
    source = load_scenario("paper:notCA")
    assert apply_precision_overrides(source) == source
    for changed in (apply_precision_overrides(source, max_terms=12), apply_precision_overrides(source, "[1, 30]"),
                    apply_precision_overrides(source, degree_cap=4), replace(source, seed=7)):
        assert changed != source and changed.canonical is source.canonical
    assert source != source.canonical  # a scenario equals only a scenario


def test_verify_report_runs_under_the_overridden_precision():
    scenario = apply_precision_overrides(load_scenario("paper:notCA"), max_terms=12)
    report = run(scenario)
    assert len(report.tasks[0].outcome["result"]["evidence"]) == 12
    checks = verify_report(scenario, report)  # the determinism re-run reads the 12 from the scenario
    assert [c["id"] for c in checks] == ["determinism", "task0:chain", "task1:dependence"]
    assert all(c["ok"] for c in checks)


def test_scenario_seed_matches_the_cli_seed(tmp_path: Path, monkeypatch):
    seeds, plain = [], scenarios.random.Random
    monkeypatch.setattr(scenarios.random, "Random", lambda seed: seeds.append(seed) or plain(seed))
    out = tmp_path / "seed7.json"
    assert main(["run", "paper:baur-sampling", "--seed", "7", "--format", "structured", "--output", str(out)]) == 0
    source = load_scenario("paper:baur-sampling")
    assert out.read_bytes() == emit(run(replace(source, seed=7)), "structured")
    run(source)
    # every draw over the full F3((t)) gives a basis of size 1, so only the sampler sees the seed
    assert seeds == [7, 7, 271828]


@pytest.mark.parametrize("coefficients, base", [
    ({"field": "Q"}, {"kind": "trivial", "name": "Q"}),  # vK = 0: each sample is one residue section
    ({"field": "Fp(s)", "p": 3}, {"kind": "completion", "t_value": 1, "name": "F3(s)((t))"}),
], ids=["trivial-Q", "Fp(s)-residues"])
def test_sampled_orthogonalize_over_q_and_function_field_residues(coefficients, base):
    scenario = scenario_from_dict({
        "ambient": {"group": {"group": "Z"}, "coefficients": coefficients},
        "base_field": base,
        "tasks": [{"task": "orthogonalize", "sample": {"count": 20, "support": 3, "max_size": 3, "seed": 5}}],
        "precision": {"ceiling": 16},
    })
    first, second = run(scenario), run(scenario)
    outcome = first.tasks[0].outcome
    assert outcome["kind"] == "sampled" and outcome["all_basis"] is True, outcome
    assert emit(first, "structured") == emit(second, "structured")
    assert all(c["ok"] for c in verify_report(scenario, first))


def test_options_of_one_main_call_do_not_reach_the_next(tmp_path: Path):
    """The parser is built once per process; a parse leaves no option behind."""
    assert build_parser() is build_parser()
    full = ["run", "x", "--precision-exp", "7", "--max-terms", "3", "--degree-cap", "2",
            "--format", "structured", "--verify", "--seed", "5", "--output", "o"]
    fresh = build_parser.__wrapped__()
    for argv in (full, ["run", "x"], full, ["list"], ["run", "x"]):
        assert build_parser().parse_args(argv) == fresh.parse_args(argv)
    plain, seeded, after = (tmp_path / f"{name}.json" for name in ("plain", "seeded", "after"))
    for path, extra in ((plain, []), (seeded, ["--seed", "1", "--max-terms", "4"]), (after, [])):
        assert main(["run", "paper:ti-minus-ti1", *extra, "--format", "structured", "--output", str(path)]) == 0
    assert after.read_bytes() == plain.read_bytes() != seeded.read_bytes()


@pytest.mark.parametrize("where", ["file", "override"])
def test_deeply_nested_json_is_one_error_line(where, tmp_path: Path, capsys):
    deep = "[" * 100_000
    path = tmp_path / "deep.json"
    path.write_text(deep, encoding="utf-8")
    argv = ["run", str(path)] if where == "file" else ["run", "paper:sqrt-t", "--precision-exp", deep]
    assert main(argv) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    lines = captured.err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: ") and "recursion" in lines[0]


def test_internal_error_exits_2(monkeypatch, capsys):
    def broken(scenario):
        raise RuntimeError("boom")

    monkeypatch.setattr(cli, "run", broken)
    assert main(["run", "paper:sqrt-t"]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err == "internal error: RuntimeError: boom\n"


def test_text_report_names_a_failed_check_and_exits_2(monkeypatch, capsys):
    def tampered_run(scenario):
        report = run(scenario)
        _tamper_normalize_value(report.tasks[0].outcome)
        return report

    monkeypatch.setattr(cli, "run", tampered_run)
    assert main(["run", "paper:standard-2x2", "--verify"]) == 2
    out = capsys.readouterr().out.splitlines()
    assert "    FAILED determinism: re-run produced a different structured report" in out


def test_verified_structured_run_encodes_the_report_body_twice(monkeypatch, tmp_path: Path):
    """Once for the determinism re-run and once for the report, whose bytes the payload reuses."""
    bodies = []
    plain = json.JSONEncoder.encode  # what json.dumps calls, given any option

    def counted(self, obj):
        if isinstance(obj, dict) and "tasks" in obj:
            bodies.append(obj)
        return plain(self, obj)

    monkeypatch.setattr(json.JSONEncoder, "encode", counted)
    out = tmp_path / "r.json"
    assert main(["run", "paper:ti-minus-ti1", "--verify", "--format", "structured", "--output", str(out)]) == 0
    assert len(bodies) == 2 and all("verification" not in b for b in bodies)


@pytest.mark.parametrize("case", sorted(BUILTINS) + ["golden:task-error", "claimed-value"])
def test_verified_payload_is_the_whole_report_encoded_once(case, monkeypatch, tmp_path: Path, capsys):
    """The structured payload is the report, its verification array included, as one
    canonical json.dumps encodes it; the text format renders the same report."""
    name, index, corrupt, check = TAMPERED.get(case, (case, None, None, None))
    if name in EXTRA_SCENARIOS:
        source = tmp_path / "scenario.json"
        source.write_text(json.dumps(EXTRA_SCENARIOS[name]), encoding="utf-8")
        name = str(source)
    reports = []

    def recorded_run(scenario):
        report = run(scenario)
        if corrupt is not None:
            corrupt(report.tasks[index].outcome)
        reports.append(report)
        return report

    monkeypatch.setattr(cli, "run", recorded_run)  # verify_report re-runs the untouched run
    out = tmp_path / "r.json"
    code = main(["run", name, "--verify", "--format", "structured", "--output", str(out)])
    expected = json.dumps(reports[0].to_json(), sort_keys=True, separators=(",", ":")) + "\n"
    assert out.read_bytes() == expected.encode("utf-8")
    verification = reports[0].verification
    failed = [c for c in verification if not c["ok"]]
    assert code == (2 if failed else 0)
    if corrupt is not None:
        assert {c["id"] for c in failed} == {"determinism", f"task{index}:{check}"}
        assert all(c["detail"] for c in failed) and '"' in failed[-1]["detail"]  # escaped in the payload
    if case == "golden:task-error":
        assert any(t.error is not None for t in reports[0].tasks)
    capsys.readouterr()
    assert main(["run", name, "--verify"]) == code
    text = capsys.readouterr().out
    assert text == emit(reports[1], "text").decode("utf-8")
    ok = len(verification) - len(failed)
    assert f"verification: {ok}/{len(verification)} witnesses confirmed\n" in text
    assert text.count("    FAILED ") == len(failed) and "{" not in text


def _f5_closure(ceiling: int) -> dict:
    return {
        "ambient": {"group": {"group": "Q"}, "coefficients": {"field": "Fp", "p": 5}},
        "base_field": {"kind": "laurent", "t_value": 1, "name": "F5(t)"},
        "elements": {"g": [["1/2", 1], [40, 1]]},
        "tasks": [{"task": "analyze_extension", "generators": ["g"], "mode": "closure"}],
        "precision": {"ceiling": ceiling, "max_terms": 8, "degree_cap": 8},
    }


def test_closure_obstructed_after_its_seed():
    # the seed is {1, g}, g = t^(1/2) + t^40; g^2 = t + 2 t^(81/2) + t^80 leaves 2 t^(81/2) + t^80 once t
    # is reduced away, unseen below 32 and adjoined into g's class below 100
    scenario = scenario_from_dict(_f5_closure(32))
    report = run(scenario)
    outcome = report.tasks[0].outcome
    assert (outcome["verdict"], outcome["obstruction_index"]) == ("obstructed", 3)
    assert outcome["obstruction"]["kind"] == "precision_exhausted"
    assert all(c["ok"] for c in verify_report(scenario, report))
    scenario = scenario_from_dict(_f5_closure(100))
    report = run(scenario)
    outcome = report.tasks[0].outcome
    assert (outcome["verdict"], outcome["n"]) == ("vs_defectless", 2)
    assert {"id": "task0:standard", "ok": True} in verify_report(scenario, report)


def test_sampled_orthogonalize_that_fails():
    # over F3(t), not its completion, every sample lies in K, but the chase reduces by monomials of K
    # only and reads a quotient of samples with an infinite expansion as unbounded
    doc = BUILTINS["paper:baur-sampling"]()
    doc["base_field"] = {"kind": "laurent", "t_value": 1}
    scenario = scenario_from_dict(doc)
    report = run(scenario)
    outcome = report.tasks[0].outcome
    assert (outcome["all_basis"], outcome["failed_case"]) == (False, 3)
    assert outcome["obstruction"]["kind"] == "unbounded"
    assert all(c["ok"] for c in verify_report(scenario, report))


def test_text_line_of_a_failed_sample_names_its_case_and_chase(tmp_path: Path, capsys):
    doc = BUILTINS["paper:baur-sampling"]()
    doc["base_field"] = {"kind": "laurent", "t_value": 1}
    path = tmp_path / "failed-sample.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    assert main(["run", str(path)]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert "[0] orthogonalize: sampled, case 3 failed: unbounded evidence [-4, -3, -2, -1, 0, 1, 2, 3, 4]" in lines
    assert main(["run", "paper:baur-sampling"]) == 0  # a sample without failure keeps its line
    assert "[0] orthogonalize: sampled" in capsys.readouterr().out.splitlines()


def test_lex_rank_past_max_size_exits_1_with_one_error_line(tmp_path: Path, capsys):
    doc = BUILTINS["paper:sqrt-t"]()
    doc["ambient"]["group"] = {"group": "Z^n_lex", "n": MAX_SIZE + 1}
    path = tmp_path / "wide-lex.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    assert main(["run", str(path)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    lines = captured.err.splitlines()
    assert len(lines) == 1 and lines[0] == f"error: lex product 'n' must be at most {MAX_SIZE}, got {MAX_SIZE + 1}"


MALFORMED_BASE = {
    "ambient": {"group": {"group": "Z"}, "coefficients": {"field": "Fp", "p": 5}},
    "base_field": {"kind": "trivial"},
    "elements": {"x": [[1, 1]]},
    "tasks": [],
    "precision": {"ceiling": 8},
}


def _formula(expr):
    return {"elements": {"w": {"builder": "custom_powers", "exponents": expr}}}


# case -> (the keys replaced in MALFORMED_BASE, or a whole non-object scenario; the start of the error)
MALFORMED = {
    "unknown-group": ({"ambient": {"group": {"group": "R"}, "coefficients": {"field": "Fp", "p": 5}}},
                      "unknown group kind 'R'"),
    "unknown-field": ({"ambient": {"group": {"group": "Z"}, "coefficients": {"field": "C"}}},
                      "unknown field kind 'C'"),
    "float-Q-coefficient": ({"ambient": {"group": {"group": "Z"}, "coefficients": {"field": "Q"}},
                             "elements": {"x": [[0, 1.5]]}}, "coefficients over Q are ints or 'p/q' strings, got 1.5"),
    "formula-syntax": (_formula("i +"), "bad exponent formula 'i +': "),  # the rest is Python's SyntaxError text
    "formula-attribute": (_formula("i.real"), "unsupported syntax in exponent formula 'i.real'"),
    "formula-name": (_formula("j + 1"), "exponent formula may only use 'i', got 'j'"),
    "formula-float": (_formula("i + 0.5"), "exponent formula constants must be integers"),
    "non-object": ([], "scenario must be an object"),
    "zero-uniformizer": ({"base_field": {"kind": "laurent", "t_value": 0}}, "uniformizer value must be positive"),
    "negative-uniformizer": ({"base_field": {"kind": "laurent", "t_value": -1}}, "uniformizer value must be positive"),
    "residue-not-embedding": ({"base_field": {"kind": "laurent", "t_value": 1, "residue": {"field": "Fp", "p": 3}}},
                              "residue field {'field': 'Fp', 'p': 3} does not embed in {'field': 'Fp', 'p': 5}"),
    "empty-sum": ({"elements": {"s": {"sum": []}}}, "'sum' takes a nonempty list of element names"),
    "builder-axis": ({"elements": {"g": {"builder": "geometric", "axis": 1}}}, "builder axis 1 out of range"),
    "custom-powers-without-exponents": ({"elements": {"w": {"builder": "custom_powers"}}},
                                        "custom_powers builder needs an 'exponents' formula"),
    "telescoping-over-lex": ({
        "ambient": {"group": {"group": "Z^n_lex", "n": 2}, "coefficients": {"field": "Fp", "p": 5}},
        "elements": {"x": [[[0, 1], 1]]},
        "tasks": [{"task": "nearest_point", "target": "x", "family": {"family_builder": "telescoping"}}],
        "precision": {"ceiling": [1, 0]},
    }, "telescoping families need a rank-1 exponent group"),
    "sample-without-count": ({"tasks": [{"task": "orthogonalize", "sample": {}}]},
                             "task 0 (orthogonalize): sample spec needs a 'count'"),
    "sample-not-an-object": ({"tasks": [{"task": "orthogonalize", "sample": 5}]},
                             "task 0 (orthogonalize): sample spec needs a 'count'"),
    "unknown-span-mode": ({"tasks": [{"task": "analyze_extension", "generators": ["x"], "mode": "sideways"}]},
                          "task 0 (analyze_extension): unknown span mode 'sideways'"),
    # each parser guard that a fuzzer alone reached
    "sample-seed-not-an-integer": ({"tasks": [{"task": "orthogonalize", "sample": {"count": 1, "seed": "x"}}]},
                                   "task 0 (orthogonalize) sample 'seed' must be an integer, got 'x'"),
    "family-member-not-a-name": ({"tasks": [{"task": "normalize", "family": ["x", 5]}]},
                                 "task 0 (normalize) 'family' must be a list of element names, got ['x', 5]"),
    "target-not-a-name": ({"tasks": [{"task": "nearest_point", "target": 5, "family": ["x"]}]},
                          "task 0 (nearest_point) 'target' must be an element name, got 5"),
    "unknown-family-builder": ({"tasks": [{"task": "nearest_point", "target": "x",
                                           "family": {"family_builder": "monomials"}}]},
                               "task 0 (nearest_point) 'family' must be a list of element names, got "),
    "group-without-kind": ({"ambient": {"group": {}, "coefficients": {"field": "Fp", "p": 5}}},
                           "group descriptor must be an object with 'group', got {}"),
    "field-without-kind": ({"ambient": {"group": {"group": "Z"}, "coefficients": {"p": 5}}},
                           "field descriptor must be an object with 'field', got {'p': 5}"),
    "exponent-a-float": ({"elements": {"x": [[1.5, 1]]}}, "exponent 1.5 needs 1 integer or 'p/q' coordinates"),
    "fp-s-coefficient-without-num": ({"ambient": {"group": {"group": "Z"}, "coefficients": {"field": "Fp(s)", "p": 5}},
                                      "elements": {"x": [[1, {"den": [1]}]]}},
                                     "cannot parse function-field coefficient {'den': [1]}"),
    "presentation-not-an-object": ({"base_field": "K"}, "presentation descriptor needs a 'kind', got 'K'"),
    "precision-not-an-object": ({"precision": 5}, "precision block needs a 'ceiling'"),
    "term-not-a-pair": ({"elements": {"x": [5]}}, "series term must be [exponent, coefficient], got 5"),
    "element-object-without-builder": ({"elements": {"x": {"kind": "geometric"}}},
                                       "cannot parse series element {'kind': 'geometric'}"),
    "task-without-kind": ({"tasks": [{"family": ["x"]}]}, "task 0 must be an object with a 'task' kind"),
    "task-kind-not-a-string": ({"tasks": [{"task": 5}]}, "task 0: unknown kind 5"),
    "approximate-without-matrix": ({"tasks": [{"task": "approximate", "family": ["x"]}]},
                                   "task 0 (approximate) needs a coefficient 'matrix'"),
    "approximate-without-completion": ({"tasks": [{"task": "approximate", "family": ["x"], "matrix": [["x"]]}]},
                                       "task 0 (approximate) needs a 'completion' presentation name"),
}


def test_a_scenario_without_a_task_list_is_a_parse_error():
    with pytest.raises(ParseError, match=r"scenario needs a task list \(possibly empty\)"):
        scenario_from_dict({key: value for key, value in MALFORMED_BASE.items() if key != "tasks"})


@pytest.mark.parametrize("case", sorted(MALFORMED))
def test_malformed_scenario_exits_1_with_its_parse_error(tmp_path: Path, capsys, case):
    changes, message = MALFORMED[case]
    path = tmp_path / "malformed.json"
    path.write_text(json.dumps({**MALFORMED_BASE, **changes} if isinstance(changes, dict) else changes),
                    encoding="utf-8")
    assert main(["run", str(path)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    lines = captured.err.splitlines()
    assert len(lines) == 1 and lines[0].startswith(f"error: {message}")


@pytest.mark.parametrize("elements, task, error", [
    ({"one": [[0, 1]], "zero": []}, {"task": "orthogonalize", "generators": ["one", "zero"]},
     {"type": "ZeroElementInFamily", "message": "generator 2 has no witnessed term"}),
    # closure mode seeds with 1, which names no generator
    ({"zero": []}, {"task": "analyze_extension", "generators": ["zero"], "mode": "closure"},
     {"type": "ZeroElementInFamily", "message": "generator 1 has no witnessed term"}),
    ({"r": [[1, 2]], "zero": []}, {"task": "analyze_extension", "generators": ["r", "zero"], "mode": "closure"},
     {"type": "ZeroElementInFamily", "message": "generator 2 has no witnessed term"}),
    ({"w": {"builder": "custom_powers", "exponents": "i//2"}}, {"task": "normalize", "family": ["w"]},
     {"type": "ValueError", "message": "stream exponents must strictly increase"}),
    ({"one": [[0, 1]], "two": [[0, 2]], "t": [[1, 1]]}, {"task": "independence", "family": ["t"], "over": ["one", "two"]},
     {"type": "NotIndependent", "message": "the 'over' family failed its certificate"}),
    ({"one": [[0, 1]], "two": [[0, 2]]},
     {"task": "approximate", "family": ["one", "two"], "matrix": [["one", "two"]], "completion": "Khat"},
     {"type": "NotIndependent", "message": "approximate needs an independent base family"}),
], ids=["zero-generator", "zero-closure-generator", "zero-closure-second-generator", "non-increasing-formula",
        "dependent-over", "approximate-dependent-family"])
def test_task_errors_of_the_family_elements(elements, task, error):
    report = run(scenario_from_dict({
        "ambient": {"group": {"group": "Z"}, "coefficients": {"field": "Fp", "p": 3}},
        "base_field": {"kind": "laurent", "t_value": 1},
        "presentations": {"Khat": {"kind": "completion", "t_value": 1}},  # the completion approximate names
        "elements": elements,
        "tasks": [task],
        "precision": {"ceiling": 16},
    }))
    assert report.tasks[0].error == error


@pytest.mark.parametrize("matrix, error", [
    ([["one", "zero"]], {"type": "ValueError", "message": "coefficient matrix must be square of the family size"}),
    # both rows are 1 + y
    ([["one", "one"], ["one", "one"]],
     {"type": "NotIndependent", "message": "completion-side family is dependent, not independent"}),
], ids=["non-square", "dependent-rows"])
def test_approximate_task_errors_of_the_completion_matrix(matrix, error):
    doc = BUILTINS["paper:cofinal-approx"]()
    doc["tasks"][0]["matrix"] = matrix
    report = run(scenario_from_dict(doc))
    assert report.tasks[0].error == error
