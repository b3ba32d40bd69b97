"""Report assembly, canonical serialization and text rendering.

Structured reports are canonical JSON: sorted keys, exact rationals as
strings, group elements as coordinate arrays.  They contain no wall-clock
data, so two runs of the same scenario are byte-identical; timings and the
one-line task summaries appear only in the text format.  Every dependence, nearest-point and
approximation outcome embeds enough witness material to be re-evaluated
from scratch by the verifier.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field as dataclass_field
from fractions import Fraction
from typing import Optional

from .groups import GroupElement
from .series import Precision, Series
from .spaces import NearestPointResult


SCHEMA = "ultragram/1"


def rational_str(value: Fraction) -> str:
    return str(Fraction(value))


def exponent_json(g: GroupElement) -> list:
    return [rational_str(c) for c in g.coords]


def series_json(x: Series, prec: Precision) -> dict:
    """Witnessed prefix below the ceiling, flagged when provably complete."""
    fuel = prec.fuel()
    complete = x.ensure_below(prec.ceiling, fuel)
    terms = [
        [exponent_json(t.exponent), t.coefficient.describe()]
        for t in x.terms_below(prec.ceiling)
    ]
    out = {"terms": terms}
    if x.exhausted:
        out["exact"] = True
    elif complete:
        out["complete_below"] = exponent_json(prec.ceiling)
    else:
        out["truncated"] = True
    return out


def nearest_json(result: NearestPointResult, prec: Precision) -> dict:
    out: dict = {"kind": result.kind.value}
    if result.value is not None:
        out["value"] = exponent_json(result.value)
    if result.initial_value is not None:
        out["initial_value"] = exponent_json(result.initial_value)
    out["evidence"] = [exponent_json(e) for e in result.evidence]
    out["full_evidence"] = [exponent_json(e) for e in result.full_evidence]
    out["best"] = series_json(result.best, prec)
    out["coefficients"] = [series_json(c, prec) for c in result.coefficients]
    out["approximants"] = [series_json(a, prec) for a in result.approximants]
    out["steps"] = [
        {
            "value_killed": exponent_json(s["value_killed"]),
            "class_value": exponent_json(s["class_value"]),
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
        body = {
            "schema": SCHEMA,
            "scenario": self.scenario,
            "tasks": [t.to_json() for t in self.tasks],
        }
        if self.verification is not None:
            body["verification"] = self.verification
        return body


def emit(report: Report, fmt: str) -> bytes:
    """Render the report: canonical machine JSON or stable readable text."""
    if fmt == "structured":
        doc = json.dumps(report.to_json(), sort_keys=True, separators=(",", ":"))
        return doc.encode("utf-8") + b"\n"
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
        if t.elapsed:
            lines.append(f"    ({t.elapsed:.3f}s)")
    if report.verification is not None:
        ok = sum(1 for v in report.verification if v["ok"])
        lines.append(f"verification: {ok}/{len(report.verification)} witnesses confirmed")
        for v in report.verification:
            if not v["ok"]:
                lines.append(f"    FAILED {v['id']}: {v.get('detail', '')}")
    return "\n".join(lines) + "\n"
