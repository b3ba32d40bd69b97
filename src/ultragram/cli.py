"""Command-line runner for scenario files and built-in scenarios.

Exit codes: 0 for completed runs (dependent, obstructed and inconclusive
verdicts are answers, not failures), 1 for parse or validation problems
and an unwritable --output, 2 for internal errors and failed witness
verification.
"""

from __future__ import annotations

import argparse
import functools
import sys
from dataclasses import replace
from pathlib import Path
from typing import Optional, Sequence

from .reports import emit, encode
from .scenarios import BUILTINS, ScenarioError, apply_precision_overrides, load_scenario, parse_scenario, run
from .verify import verify_report


@functools.cache  # built once per process: parse_args leaves the parser as it was
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ultragram",
        description="valuation independence, ultrametric orthogonalization and defect diagnostics",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    runner = sub.add_parser("run", help="run a scenario file or built-in")
    runner.add_argument("scenario", help="path to a scenario file, or a built-in name like paper:sqrt-t")
    runner.add_argument("--precision-exp", help="exponent ceiling override (int, p/q, or [c,...])")
    runner.add_argument("--max-terms", type=int, help="term budget override")
    runner.add_argument("--degree-cap", type=int, help="extension degree cap override")
    runner.add_argument("--format", choices=("text", "structured"), default="text")
    runner.add_argument("--verify", action="store_true", help="re-check every embedded witness")
    runner.add_argument("--seed", type=int, help="seed override for sampling tasks")
    runner.add_argument("--output", help="write the report here instead of stdout")

    lister = sub.add_parser("list", help="list built-in scenarios")
    return parser


def _load(source: str):
    if source in BUILTINS:
        return load_scenario(source)
    try:
        text = Path(source).read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise ScenarioError(
            f"{source!r} is neither a built-in scenario nor a readable file: {exc}"
        ) from None
    return parse_scenario(text)


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)

    if args.command == "list":
        for name in sorted(BUILTINS):
            print(name)
        return 0

    try:
        overrides = (args.precision_exp, args.max_terms, args.degree_cap)
        scenario = replace(apply_precision_overrides(_load(args.scenario), *overrides), seed=args.seed)
        report = run(scenario)
        body = None
        if args.verify:  # the determinism check and the payload share one encoding of the body
            body = encode(report)
            report.verification = verify_report(scenario, report, body)
        payload = emit(report, args.format, body)
    except ScenarioError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except Exception as exc:  # infrastructure failure
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2

    if args.output:
        try:
            Path(args.output).write_bytes(payload)
        except OSError as exc:
            print(f"error: cannot write {args.output!r}: {exc}", file=sys.stderr)
            return 1
    else:
        sys.stdout.buffer.write(payload)
    return 2 if args.verify and not all(c["ok"] for c in report.verification) else 0


if __name__ == "__main__":
    sys.exit(main())
