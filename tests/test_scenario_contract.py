"""Scenario-file input contract: malformed input raises ScenarioError.

The parser must turn every malformed scenario into a ``ScenarioError``
(the CLI then exits 1 with one ``error:`` line), never let a raw
``ValueError``, ``ZeroDivisionError`` or ``AttributeError`` escape, and
never accept a value of the wrong JSON type.
"""

import json

import pytest
from hypothesis import given, settings, strategies as st

from ultragram.cli import main
from ultragram.scenarios import BUILTINS, TASKS, ScenarioError, scenario_from_dict


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
}


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
