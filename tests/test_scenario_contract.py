"""Scenario-file input contract: malformed input raises ScenarioError.

The parser must turn every malformed scenario into a ``ScenarioError``
(the CLI then exits 1 with one ``error:`` line), never let a raw
``ValueError``, ``ZeroDivisionError`` or ``AttributeError`` escape, and
never accept a value of the wrong JSON type or a key that no parser reads.
"""

import json
import re
import time

import pytest
from hypothesis import given, settings, strategies as st

from ultragram.cli import main
from ultragram.scenarios import (
    BUILTINS, MAX_SIZE, TASKS, ParseError, ScenarioError, _compile_formula, scenario_from_dict,
)


def _set(path, value):
    """A mutation that replaces the value at ``path`` in a scenario dict."""

    def mutate(doc):
        *parents, last = path
        for key in parents:
            doc = doc[key]
        doc[last] = value

    return mutate


PROBES = {
    "p-not-prime": ("paper:fpt-y", _set(["ambient", "coefficients", "p"], 4)),
    "p-above-2-64": ("paper:fpt-y", _set(["ambient", "coefficients", "p"], 2**64 + 13)),
    "half-exponent-in-Z": ("paper:fpt-y", _set(["elements", "ty", 0, 0], "1/2")),
    "exponent-zero-denominator": ("paper:fpt-y", _set(["elements", "ty", 0, 0], "1/0")),
    "ceiling-not-a-number": ("paper:fpt-y", _set(["precision", "ceiling"], "x")),
    "ceiling-zero-denominator": ("paper:fpt-y", _set(["precision", "ceiling"], "1/0")),
    "t-value-zero-denominator": ("paper:fpt-y", _set(["base_field", "t_value"], "1/0")),
    "ambient-not-an-object": ("paper:fpt-y", _set(["ambient"], ["Z"])),
    "elements-not-an-object": ("paper:fpt-y", _set(["elements"], ["one"])),
    "presentations-not-an-object": ("paper:fpt-y", _set(["presentations"], ["K"])),
    "sample-count-not-an-integer": ("paper:baur-sampling", _set(["tasks", 0, "sample", "count"], "x")),
    "family-is-a-string": ("paper:fpt-y", _set(["tasks", 0, "family"], "one")),
    "max-terms-boolean": ("paper:fpt-y", _set(["precision", "max_terms"], True)),
    "scenario-name-not-a-string": ("paper:fpt-y", _set(["name"], 5)),
    "presentation-name-not-a-string": ("paper:fpt-y", _set(["base_field", "name"], [1])),
    # function-field coefficients are exact integers, not floats or booleans
    "fp-s-float-numerator": ("paper:fpt-y", _set(["elements", "y", 0, 1], {"num": [1.5], "den": [1]})),
    "fp-s-boolean-numerator": ("paper:fpt-y", _set(["elements", "y", 0, 1], {"num": [True, 2]})),
    # sizes that set how much work a run does are bounded by MAX_SIZE
    "max-terms-above-max-size": ("paper:fpt-y", _set(["precision", "max_terms"], MAX_SIZE + 1)),
    "degree-cap-above-max-size": ("paper:fpt-y", _set(["precision", "degree_cap"], MAX_SIZE + 1)),
    "telescoping-count-above-max-size": (
        "paper:ti-minus-ti1", _set(["tasks", 0, "family", "count"], MAX_SIZE + 1),
    ),
    "sample-count-above-max-size": ("paper:baur-sampling", _set(["tasks", 0, "sample", "count"], MAX_SIZE + 1)),
    "sample-support-above-max-size": (
        "paper:baur-sampling", _set(["tasks", 0, "sample", "support"], MAX_SIZE + 1),
    ),
    "sample-max-size-above-max-size": (
        "paper:baur-sampling", _set(["tasks", 0, "sample", "max_size"], MAX_SIZE + 1),
    ),
    # number strings are a sign, ASCII digits and an optional "/digits", nothing else:
    # exponent notation would parse 10**10000000 for seconds before any check
    "exponent-in-exponent-notation": ("paper:ti-minus-ti1", _set(["elements", "t", 0, 0], "1e10000000")),
    "coefficient-in-exponent-notation": ("paper:ti-minus-ti1", _set(["elements", "t", 0, 1], "1e10000000")),
    "coefficient-with-decimal-point": ("paper:ti-minus-ti1", _set(["elements", "t", 0, 1], "1.5")),
    "ceiling-padded-with-spaces": ("paper:ti-minus-ti1", _set(["precision", "ceiling"], " 3 ")),
    "coefficient-non-ascii-digit": ("paper:ti-minus-ti1", _set(["elements", "t", 0, 1], "\u0663")),
}

# a key no parser reads, inside each kind of nested object: (built-in, mutation, the key)
UNKNOWN_KEYS = {
    "unknown-key-in-ambient": ("paper:fpt-y", _set(["ambient", "coefficent"], 1), "coefficent"),
    "unknown-key-in-group": ("paper:notCA", _set(["ambient", "group", "rank"], 2), "rank"),
    "unknown-key-in-field": ("paper:fpt-y", _set(["ambient", "coefficients", "prime"], 3), "prime"),
    "unknown-key-p-in-field-Q": ("paper:ti-minus-ti1", _set(["ambient", "coefficients", "p"], 3), "p"),
    "unknown-key-in-presentation": ("paper:fpt-y", _set(["base_field", "residu"], {}), "residu"),
    "unknown-key-t-value-in-trivial": ("paper:ti-minus-ti1", _set(["base_field", "t_value"], 1), "t_value"),
    "unknown-key-in-named-presentation": (
        "paper:cofinal-approx", _set(["presentations", "Khat", "t_val"], 1), "t_val",
    ),
    "unknown-key-in-residue-field": ("paper:fpt-y", _set(["base_field", "residue", "q"], 3), "q"),
    "unknown-key-in-precision": ("paper:fpt-y", _set(["precision", "max_term"], 100), "max_term"),
    "unknown-key-in-builder": ("paper:notCA", _set(["elements", "frobenius_orbit", "axs"], 0), "axs"),
    "unknown-key-in-sum": ("paper:notCA", _set(["elements", "x", "builder"], "geometric"), "builder"),
    "unknown-key-in-coefficient": (
        "paper:fpt-y", _set(["elements", "y", 0, 1], {"num": [0, 1], "denom": [1]}), "denom",
    ),
    "unknown-key-in-telescoping": ("paper:ti-minus-ti1", _set(["tasks", 0, "family", "stop"], 9), "stop"),
    "unknown-key-in-sample": ("paper:baur-sampling", _set(["tasks", 0, "sample", "seeds"], 1), "seeds"),
    "unknown-key-in-task": ("paper:fpt-y", _set(["tasks", 0, "ovr"], ["one"]), "ovr"),
    "unknown-key-generators-in-sampled-task": (
        "paper:baur-sampling", _set(["tasks", 0, "generators"], []), "generators",
    ),
}
PROBES.update({name: (builtin, mutate) for name, (builtin, mutate, _) in UNKNOWN_KEYS.items()})


def _probe(name: str) -> dict:
    builtin, mutate = PROBES[name]
    doc = BUILTINS[builtin]()
    mutate(doc)
    return doc


@pytest.mark.parametrize("name", sorted(PROBES))
def test_malformed_scenario_raises_scenario_error(name):
    with pytest.raises(ScenarioError):
        scenario_from_dict(_probe(name))


@pytest.mark.parametrize("name", sorted(PROBES))
def test_malformed_scenario_file_exits_1_with_one_error_line(name, tmp_path, capsys):
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(_probe(name)), encoding="utf-8")
    assert main(["run", str(path)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    lines = captured.err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: ")


@pytest.mark.parametrize("name", sorted(UNKNOWN_KEYS))
def test_unknown_key_error_names_the_key(name):
    with pytest.raises(ParseError, match=re.escape(f"unknown keys [{UNKNOWN_KEYS[name][2]!r}] in ")):
        scenario_from_dict(_probe(name))


def test_large_prime_parses_and_verifies_quickly(tmp_path, capsys):
    doc = {
        "ambient": {"group": {"group": "Z"}, "coefficients": {"field": "Fp", "p": 10**18 + 3}},
        "base_field": {"kind": "laurent", "t_value": 1},
        "elements": {"one": [[0, 1]], "t": [[1, 1]]},
        "tasks": [{"task": "independence", "family": ["one", "t"]}],
        "precision": {"ceiling": 16},
    }
    started = time.monotonic()
    scenario = scenario_from_dict(doc)
    assert time.monotonic() - started < 1.0
    assert scenario.canonical["ambient"]["coefficients"]["p"] == 10**18 + 3
    # --verify samples residues of F_p without listing them
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    assert main(["run", str(path), "--verify"]) == 0
    assert "2/2 witnesses confirmed" in capsys.readouterr().out


def _formula_scenario(formula: str, task: str = "independence") -> dict:
    return {
        "ambient": {"group": {"group": "Z"}, "coefficients": {"field": "Fp", "p": 3}},
        "base_field": {"kind": "laurent", "t_value": 1},
        "elements": {"w": {"builder": "custom_powers", "exponents": formula}},
        "tasks": [{"task": task, "family": ["w"]}],
        "precision": {"ceiling": 16},
    }


@pytest.mark.parametrize("formula", [
    "i+9^9^9",  # a constant far too large for ^: refused when parsed
    "i^(0-1)",  # a negative exponent: refused when parsed
    "i//(i-i)",  # no value at i = 0: refused when the element is built
    "i^" + "+".join(["i"] * 120),  # longer than any formula needs
])
def test_unbounded_formula_exits_1_with_one_error_line(formula, tmp_path, capsys):
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(_formula_scenario(formula)), encoding="utf-8")
    started = time.monotonic()
    assert main(["run", str(path)]) == 1
    assert time.monotonic() - started < 5.0
    captured = capsys.readouterr()
    assert captured.out == ""
    lines = captured.err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: ")


def test_formula_failing_at_pull_time_is_a_task_error(tmp_path, capsys):
    # 0, 1, then a division by zero at i = 2, met while normalize prints w up to the ceiling
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(_formula_scenario("i^2//(2-i)", "normalize")), encoding="utf-8")
    assert main(["run", str(path), "--format", "structured"]) == 0
    task = json.loads(capsys.readouterr().out)["tasks"][0]
    assert task["error"]["type"] == "FormulaError"
    assert "at i=2" in task["error"]["message"]


def test_lead_first_pull_stops_before_a_failing_term(tmp_path, capsys):
    # independence needs only the lead t^0 of w, so the formula is never asked for i = 2
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(_formula_scenario("i^2//(2-i)")), encoding="utf-8")
    assert main(["run", str(path), "--format", "structured"]) == 0
    task = json.loads(capsys.readouterr().out)["tasks"][0]
    assert task["outcome"]["verdict"] == "independent"


def test_formula_failing_at_i_0_exits_1_with_no_task(tmp_path, capsys):
    doc = _formula_scenario("i//(i-i)")
    doc["tasks"] = []
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    assert main(["run", str(path)]) == 1
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.startswith("error: ")


def _geometric_outcomes(tasks: list, tmp_path, capsys) -> list:
    """Each task's structured outcome, as bytes, over F3(t) at a ceiling the fuel never reaches."""
    doc = {
        "ambient": {"group": {"group": "Z"}, "coefficients": {"field": "Fp", "p": 3}},
        "base_field": {"kind": "laurent", "t_value": 1},
        "elements": {"g": {"builder": "geometric"}, "t": [[1, 1]]},
        "tasks": tasks,
        "precision": {"ceiling": 100000, "max_terms": 1},
    }
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    assert main(["run", str(path), "--verify", "--format", "structured"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert all(c["ok"] for c in report["verification"])
    return [json.dumps(t["outcome"], sort_keys=True).encode() for t in report["tasks"]]


NORMALIZE_G = {"task": "normalize", "family": ["g"]}


def test_identical_tasks_report_identical_outcomes(tmp_path, capsys):
    first, second = _geometric_outcomes([NORMALIZE_G, NORMALIZE_G], tmp_path, capsys)
    assert first == second
    assert json.loads(first)["elements"][0]["truncated"]


def test_a_task_in_front_leaves_a_later_outcome_unchanged(tmp_path, capsys):
    # orthogonalize pulls g far past what normalize alone prints
    alone, = _geometric_outcomes([NORMALIZE_G], tmp_path, capsys)
    front = {"task": "orthogonalize", "generators": ["g", "t"]}
    _, behind = _geometric_outcomes([front, NORMALIZE_G], tmp_path, capsys)
    assert behind == alone


def test_formula_values_are_exact_integers():
    assert [_compile_formula("2^i - i//2")(i) for i in range(5)] == [1, 2, 3, 7, 14]
    with pytest.raises(ScenarioError):
        _compile_formula("2^(i-2)")(1)  # a negative power is refused, not truncated


def test_unreadable_scenario_path_exits_1(tmp_path, capsys):
    assert main(["run", str(tmp_path)]) == 1  # a directory, not a file
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: ")


def test_every_task_kind_has_one_record():
    assert sorted(TASKS) == sorted(
        {task["task"] for make in BUILTINS.values() for task in make()["tasks"]}
    )
    assert all(name == kind.name for name, kind in TASKS.items())


# fuzzing: replace or delete one node of a built-in scenario


def _paths(node, prefix=()):
    """Every (container path, key) pair inside a nested JSON document."""
    if isinstance(node, dict):
        items = node.items()
    elif isinstance(node, list):
        items = enumerate(node)
    else:
        return
    for key, child in items:
        yield prefix, key
        yield from _paths(child, prefix + (key,))


ATOMS = (
    st.none() | st.booleans() | st.integers(-3, 40)
    | st.floats(allow_nan=False, allow_infinity=False)
    | st.text(max_size=4)
    | st.sampled_from(["1/2", "1/0", "x", "s", "auto", "one", "y", "Z", "Q", "Fp", "i^2", "K"])
)
JSON_VALUES = st.recursive(
    ATOMS,
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.sampled_from(["num", "den", "group", "field", "p", "n", "kind", "sum"]), inner, max_size=3),
    max_leaves=6,
)


@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_mutated_builtins_parse_or_raise_scenario_error(data):
    doc = BUILTINS[data.draw(st.sampled_from(sorted(BUILTINS)))]()
    prefix, key = data.draw(st.sampled_from(list(_paths(doc))))
    parent = doc
    for step in prefix:
        parent = parent[step]
    if isinstance(parent, dict) and data.draw(st.booleans()):
        del parent[key]
    else:
        parent[key] = data.draw(JSON_VALUES)
    try:
        scenario_from_dict(doc)
    except ScenarioError:
        pass
