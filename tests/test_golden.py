"""Golden reports: byte-exact CLI output for every built-in and six extra scenarios.

Each case is run through ``ultragram run --verify`` once in the structured
format and once in the text format.  Text lines that carry wall-clock task
timings (``    (0.012s)``) are dropped before comparing; everything else
must match ``golden_reports.json`` byte for byte.

The extra scenarios reach paths no built-in does: an ``independence`` task
``"over"`` a certified subspace (with a shifted dependence witness), task
errors captured in the report, a full-field ``nearest_point`` whose
report forces the lazy quotient ``b * invert(w)`` to the ceiling, and
outcomes no built-in reports: an ``orthogonalize`` basis, both kinds of
inconclusive ``analyze_extension`` and a ``precision_exhausted`` nearest point,
a series cut by the fuel (``truncated``), printed alike by two identical tasks,
and ``immediate_evidence`` that the ceiling does not limit, whose printed
evidence is cut to ``max_terms`` entries of a longer chase.

Re-record after an intended output change with
``PYTHONPATH=src python tests/test_golden.py``.
"""

import json
import re
import sys
import tempfile
from pathlib import Path

import pytest

from ultragram.cli import main
from ultragram.scenarios import BUILTINS

GOLDEN = Path(__file__).with_name("golden_reports.json")
TIMING_LINE = re.compile(rb"^    \(\d+\.\d{3}s\)\n", re.MULTILINE)

EXTRA_SCENARIOS = {
    "golden:independence-over": {
        "name": "golden:independence-over",
        "ambient": {"group": {"group": "Q"}, "coefficients": {"field": "Fp", "p": 5}},
        "base_field": {"kind": "laurent", "t_value": 1, "name": "F5(t)"},
        "elements": {
            "one": [[0, 1]],
            "root": [["1/2", 1]],
            "quarter": [["1/4", 2], [1, 1]],
            "mix": {"sum": ["one", "root"]},
        },
        "tasks": [
            {"task": "independence", "family": ["root", "quarter"], "over": ["one"]},
            {"task": "independence", "family": ["mix"], "over": ["one", "root"]},
        ],
        "precision": {"ceiling": 12, "max_terms": 6, "degree_cap": 8},
    },
    "golden:task-error": {
        "name": "golden:task-error",
        "ambient": {"group": {"group": "Z"}, "coefficients": {"field": "Fp", "p": 3}},
        "base_field": {"kind": "laurent", "t_value": 1, "name": "F3(t)"},
        "elements": {"one": [[0, 1]], "zero": [], "t": [[1, 1]]},
        "tasks": [
            {"task": "independence", "family": ["one", "zero"]},
            {"task": "normalize", "family": ["one", "t"]},
            {"task": "normalize", "family": ["t"]},
        ],
        "precision": {"ceiling": 16, "max_terms": 6, "degree_cap": 8},
    },
    "golden:lazy-quotient": {
        "name": "golden:lazy-quotient",
        "ambient": {"group": {"group": "Z"}, "coefficients": {"field": "Fp", "p": 3}},
        "base_field": {"kind": "completion", "t_value": 1, "name": "F3((t))"},
        "elements": {
            "geometric": {"builder": "geometric"},
            "artin": {"builder": "artin_schreier", "p": 3},
            "noise": [[2, 1], [7, 2], [19, 1]],
            "target": {"sum": ["geometric", "artin", "noise"]},
            "w": {"builder": "custom_powers", "exponents": "i^2"},
        },
        "tasks": [{"task": "nearest_point", "target": "target", "family": ["w"]}],
        "precision": {"ceiling": 64, "max_terms": 8, "degree_cap": 16},
    },
    "golden:uncovered-outcomes": {
        "name": "golden:uncovered-outcomes",
        "ambient": {"group": {"group": "Q"}, "coefficients": {"field": "Fp", "p": 5}},
        "base_field": {"kind": "laurent", "t_value": 1, "name": "F5(t)"},
        "elements": {"one": [[0, 1]], "root": [["1/2", 1]], "far": [[40, 1]], "mix": [[0, 1], ["1/2", 2]]},
        "tasks": [
            {"task": "orthogonalize", "generators": ["one", "root", "mix"]},
            {"task": "analyze_extension", "generators": ["root"], "mode": "direct"},
            {"task": "analyze_extension", "generators": ["root"], "mode": "closure"},
            {"task": "nearest_point", "target": "far", "family": ["one"]},
        ],
        "precision": {"ceiling": 32, "max_terms": 8, "degree_cap": 1},
    },
    "golden:truncated-series": {
        "name": "golden:truncated-series",
        "ambient": {"group": {"group": "Z"}, "coefficients": {"field": "Fp", "p": 3}},
        "base_field": {"kind": "laurent", "t_value": 1, "name": "F3(t)"},
        "elements": {"geometric": {"builder": "geometric"}},
        "tasks": [
            {"task": "normalize", "family": ["geometric"]},
            {"task": "normalize", "family": ["geometric"]},
        ],
        "precision": {"ceiling": 1000, "max_terms": 1, "degree_cap": 8},
    },
    "golden:unbounded-immediacy": {
        "name": "golden:unbounded-immediacy",
        "ambient": {"group": {"group": "Z"}, "coefficients": {"field": "Fp", "p": 3}},
        "base_field": {"kind": "laurent", "t_value": 1, "name": "F3(t)"},
        "elements": {
            "root": {"builder": "artin_schreier", "p": 3},
            "shifted": {"builder": "custom_powers", "exponents": "-1 + 2*i"},
        },
        "tasks": [{"task": "immediacy", "probe": "root"}, {"task": "immediacy", "probe": "shifted"}],
        "precision": {"ceiling": 1000000, "max_terms": 6, "degree_cap": 8},
    },
}

CASES = sorted(BUILTINS) + sorted(EXTRA_SCENARIOS)


def render(case: str, fmt: str, workdir: Path) -> str:
    """The CLI's bytes for one case and format, timing lines removed."""
    source = case
    if case in EXTRA_SCENARIOS:
        source = workdir / "scenario.json"
        source.write_text(json.dumps(EXTRA_SCENARIOS[case]), encoding="utf-8")
    out = workdir / f"report.{fmt}"
    assert main(["run", str(source), "--verify", "--format", fmt, "--output", str(out)]) == 0
    return TIMING_LINE.sub(b"", out.read_bytes()).decode("utf-8")


@pytest.fixture(scope="module")
def golden() -> dict:
    return json.loads(GOLDEN.read_text(encoding="utf-8"))


def test_golden_covers_every_case(golden):
    assert sorted(golden) == sorted(CASES)


@pytest.mark.parametrize("fmt", ["structured", "text"])
@pytest.mark.parametrize("case", CASES)
def test_golden_report(case, fmt, golden, tmp_path):
    assert render(case, fmt, tmp_path) == golden[case][fmt]


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as tmp:
        recorded = {
            case: {fmt: render(case, fmt, Path(tmp)) for fmt in ("structured", "text")}
            for case in CASES
        }
    GOLDEN.write_text(json.dumps(recorded, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    sys.exit(0)
