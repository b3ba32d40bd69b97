"""Report assembly, canonical serialization and text rendering.

Structured reports are canonical JSON: sorted keys, exact rationals as strings, group
elements as the coordinate arrays of ``GroupElement.describe()``.  They contain no
wall-clock data, so two runs of the same scenario are byte-identical; timings and the
one-line task summaries appear only in the text format.  Every dependence, nearest-point
and approximation outcome embeds enough witness material to be re-evaluated from scratch
by the verifier.  A verified report's body, all but ``verification``, is encoded once
(:func:`encode`): the determinism check compares it with the re-run's, and the payload
appends the array to it, as its key sorts last.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field as dataclass_field
from typing import Optional

from .series import Precision, Series
from .spaces import NearestPointResult


SCHEMA = "ultragram/1"
_CANONICAL = json.JSONEncoder(sort_keys=True, separators=(",", ":"))  # ASCII, sorted keys, no spaces


def series_json(x: Series, prec: Precision) -> dict:
    """Every term of an exhausted series, else the witnessed prefix below
    the ceiling, flagged when provably complete."""
    complete = x.exhausted or x.ensure_below(prec.ceiling, prec.fuel(), whole=True)
    exact = x.exhausted  # read again: a whole pull ends a finite series
    kept = x._cache if exact else x.terms_below(prec.ceiling)  # read, not copied
    terms = [[t.exponent.describe(), t.coefficient.describe()] for t in kept]
    out = {"terms": terms}
    if exact:
        out["exact"] = True
    elif complete:
        out["complete_below"] = prec.ceiling.describe()
    else:
        out["truncated"] = True
    return out


def nearest_json(result: NearestPointResult, prec: Precision) -> dict:
    out: dict = {"kind": result.kind.value}
    if result.value is not None:
        out["value"] = result.value.describe()
    if result.initial_value is not None:
        out["initial_value"] = result.initial_value.describe()
    out["evidence"] = [e.describe() for e in result.evidence]
    out["full_evidence"] = [e.describe() for e in result.full_evidence]
    out["best"] = series_json(result.best, prec)
    out["coefficients"] = [series_json(c, prec) for c in result.coefficients]
    out["approximants"] = [series_json(a, prec) for a in result.approximants]
    out["steps"] = [
        {
            "value_killed": s["value_killed"].describe(),
            "class_value": s["class_value"].describe(),
            "kappa": [[i, k.describe()] for i, k in s["kappa"]],
        }
        for s in result.steps
    ]
    return out


@dataclass
class TaskOutcome:
    index: int
    task: str
    outcome: dict
    error: Optional[dict] = None
    summary: str = ""  # one-line text rendering, like elapsed not part of the JSON
    elapsed: float = 0.0

    def to_json(self) -> dict:
        body = {"index": self.index, "task": self.task}
        if self.error is not None:
            body["error"] = self.error
        else:
            body["outcome"] = self.outcome
        return body


@dataclass
class Report:
    scenario: dict
    tasks: list = dataclass_field(default_factory=list)
    verification: Optional[list] = None

    def to_json(self) -> dict:
        body = {"schema": SCHEMA, "scenario": self.scenario, "tasks": [t.to_json() for t in self.tasks]}
        if self.verification is not None:
            body["verification"] = self.verification
        return body


def encode(report: Report) -> bytes:
    """The canonical JSON of the report's body, all but its ``verification``, with no newline."""
    return _CANONICAL.encode(Report(report.scenario, report.tasks).to_json()).encode("utf-8")


def emit(report: Report, fmt: str, body: Optional[bytes] = None) -> bytes:
    """Render the report: canonical machine JSON or stable readable text; ``body`` is ``encode(report)`` if made."""
    if fmt == "structured":
        body = encode(report) if body is None else body
        if report.verification is not None:  # its key sorts after the body's: it goes last
            body = body[:-1] + b',"verification":' + _CANONICAL.encode(report.verification).encode("utf-8") + b"}"
        return body + b"\n"
    if fmt == "text":
        return _emit_text(report).encode("utf-8")
    raise ValueError(f"unknown format {fmt!r}")


def _emit_text(report: Report) -> str:
    lines = [f"scenario: {report.scenario.get('name', '<file>')}"]
    for t in report.tasks:
        head = f"[{t.index}] {t.task}"
        if t.error is not None:
            lines.append(f"{head}: ERROR {t.error['type']}: {t.error['message']}")
            continue
        lines.append(f"{head}: {t.summary}")
        lines.append(f"    ({t.elapsed:.3f}s)")
    if report.verification is not None:
        ok = sum(1 for v in report.verification if v["ok"])
        lines.append(f"verification: {ok}/{len(report.verification)} witnesses confirmed")
        for v in report.verification:
            if not v["ok"]:
                lines.append(f"    FAILED {v['id']}: {v.get('detail', '')}")
    return "\n".join(lines) + "\n"
