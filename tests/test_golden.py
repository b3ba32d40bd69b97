"""Golden reports: byte-exact CLI output for every built-in and two extra scenarios.

Each case is run through ``ultragram run --verify`` once in the structured
format and once in the text format.  Text lines that carry wall-clock task
timings (``    (0.012s)``) are dropped before comparing; everything else
must match ``golden_reports.json`` byte for byte.

The extra scenarios reach paths no built-in does: an ``independence`` task
``"over"`` a certified subspace (with a shifted dependence witness), and
task errors captured in the report.

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
