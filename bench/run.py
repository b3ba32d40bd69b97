"""Outside-in benchmark of the ultragram CLI: verified verdicts per second.

Run from the repository root:

    python3 bench/run.py --workload chase-ladder --seed 1 --seconds 25 --trace 0

One process and one thread drive ``ultragram.cli.main(["run", <scenario>,
"--verify", "--format", "structured", "--output", <file>])`` in a closed
loop with a single client: the next scenario starts when the previous one
has returned.  Rounds of the workload's cases repeat until ``--seconds``
have passed; every call is checked against the hand-written oracle and the
recorded report digests (``oracle.py``).

Reported times are wall times scaled to a nominal machine speed (see
``reference_loop``); the human-readable lines also give the raw values.
``--trace 0`` prints the end-to-end metrics; ``--trace 1`` alternates
untraced and traced rounds and prints the per-layer metrics of the traced
ones (``tracer.py``).  Human-readable lines come first; the last line of
standard output is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import functools
import gc
import json
import math
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path

import oracle
from tracer import LAYERS, Tracer
from workloads import LADDERS, WORKLOADS, Case

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
WORK = ROOT / ".bench_work"
SETUP_PROBES = 9
REFERENCE_S = 0.002  # nominal seconds of one reference_loop(): the unit of reported times
REFERENCE_WINDOW = 4  # reference samples on each side of a call in its speed estimate

END_TO_END_UNITS = {
    "setup_s": "s", "scenarios_per_s": "1/s", "verdict_p50_s": "s", "verdict_tail_s": "s", "peak_rss_mb": "MB",
}
PER_LAYER_UNITS = {
    "groups.self_s": "s", "groups.coset_tests": "count", "groups.solves": "count", "groups.element_ops": "count",
    "residues.self_s": "s", "residues.linalg_calls": "count", "residues.field_ops": "count",
    "presentations.self_s": "s", "presentations.monomial_sections": "count", "presentations.samples": "count",
    "series.self_s": "s", "series.expand_calls": "count", "series.fuel_spent": "count", "series.nodes": "count",
    "series.incomplete_ratio": "ratio",
    "spaces.self_s": "s", "spaces.independence_calls": "count", "spaces.normalize_calls": "count",
    "spaces.nearest_calls": "count", "spaces.nearest_steps": "count",
    "extensions.self_s": "s", "extensions.calls": "count",
    "scenarios.parse_s": "s", "scenarios.resolve_s": "s", "scenarios.self_s": "s",
    "reports.self_s": "s", "reports.series_json_calls": "count", "reports.bytes": "B",
    "verify.self_s": "s", "verify.checks": "count", "verify.checks_failed": "count",
    "trace.overhead_ratio": "ratio",
}


class BenchError(RuntimeError):
    pass


def reference_loop() -> float:
    """Seconds this machine takes right now for a fixed piece of interpreter work.

    On a shared machine the speed of unchanged code drifts by tens of
    percent within a minute.  A reference sample precedes every timed call,
    and each call's time is then scaled to a machine on which this loop takes
    REFERENCE_S, using the median of the samples around it
    (``local_scales``).  The three parts mirror the program's mix of small
    integer arithmetic, ``Fraction`` arithmetic and tuple/dict allocation,
    in about equal shares.  The loop never touches ultragram, so a change to
    the program moves scaled times as it moves raw ones.
    """
    gc.disable()  # a collection would scan the program's heap, not time the machine
    try:
        start = time.perf_counter()
        total = 0
        for i in range(10000):
            total += i * i % 7
        x = Fraction(0)
        for i in range(1, 350):
            x += Fraction(i % 13, i % 7 + 1)
        table = {}
        for i in range(3000):
            key = (i % 97, i % 89, i)
            table[key] = [i, key]
        for value in table.values():
            total += value[0]
        return time.perf_counter() - start
    finally:
        gc.enable()


def local_scales(reference: list) -> list:
    """REFERENCE_S over the median of the samples within REFERENCE_WINDOW of each position."""
    return [
        REFERENCE_S / statistics.median(reference[max(i - REFERENCE_WINDOW, 0): i + REFERENCE_WINDOW + 1])
        for i in range(len(reference))
    ]


@dataclass
class Call:
    case: Case
    seconds: float  # wall time of the call
    problems: list  # oracle findings; empty when the call passed
    scenario: int  # span scenario id
    reference: float  # reference_loop() sample taken just before the call
    scaled: float = 0.0  # ``seconds`` at the nominal reference speed


# set-up


def set_up(workload: str, seed: int, workdir: Path):
    """Import ultragram, generate the seeded inputs and parse every scenario.

    Returns the CLI module, the workload's cycle of rounds and the CLI
    arguments of each case.
    """
    if not (ROOT / "src" / "ultragram").is_dir():
        raise BenchError(f"no ultragram sources under {ROOT / 'src'}")
    sys.path.insert(0, str(ROOT / "src"))
    from ultragram import cli
    from ultragram.scenarios import load_scenario

    workdir.mkdir(parents=True, exist_ok=True)
    cycle = WORKLOADS[workload].cycle(seed)
    argv: dict = {}
    for case in (c for r in cycle for c in r):
        if case.key in argv:
            continue
        if case.doc is None:
            load_scenario(case.argv[0])
            argv[case.key] = case.argv
        else:
            text = json.dumps(case.doc)
            load_scenario(text)
            path = workdir / f"scenario{len(argv)}.json"
            path.write_text(text, encoding="utf-8")
            argv[case.key] = (str(path),)
    return cli, cycle, argv


def setup_probe(workload: str, seed: int) -> tuple:
    """Wall seconds from spawning a fresh interpreter to the end of its set-up,
    and the reference_loop() sample the probe takes after its set-up."""
    start = time.perf_counter()
    with subprocess.Popen(
        [sys.executable, str(BENCH / "setup_probe.py"), workload, str(seed)],
        stdout=subprocess.PIPE, text=True,
    ) as proc:
        line = proc.stdout.readline()
        elapsed = time.perf_counter() - start
        reference = proc.stdout.read()
        proc.wait(timeout=120)
    if proc.returncode != 0 or line.strip() != "ready":
        raise BenchError(f"set-up probe failed with exit code {proc.returncode}")
    return elapsed, float(reference)


def clean_up(workdir: Path) -> None:
    """Remove a working directory, and the shared parent once it is empty."""
    shutil.rmtree(workdir, ignore_errors=True)
    try:
        WORK.rmdir()
    except OSError:
        pass


# the closed loop


def call(cli, args: tuple, out: Path, tracer, scenario: int):
    """One ``run --verify``; returns (exit code or error text, seconds, report bytes)."""
    argv = ["run", *args, "--verify", "--format", "structured", "--output", str(out)]
    out.unlink(missing_ok=True)
    start = time.perf_counter()
    try:
        rc = cli.main(argv) if tracer is None else tracer.call(scenario, cli.main, argv)
    except (Exception, SystemExit) as exc:  # a raising scenario is a failed operation
        rc = f"raised {type(exc).__name__}: {exc}"
    elapsed = time.perf_counter() - start
    payload = out.read_bytes() if out.exists() else b""
    return rc, elapsed, payload


def run_rounds(cli, cycle, argv, golden, seconds: float, workdir: Path, tracer=None, probe=None) -> tuple:
    """Whole rounds until ``seconds`` have passed; with a tracer, odd rounds are traced.

    ``probe``, when given, is called SETUP_PROBES times between rounds, spread
    over the run so that the set-up times see the same machine as the calls.
    Returns one (traced, [Call, ...]) per round, with scaled times filled in,
    and the probe results.  With a tracer,
    ``tracer.round_counts`` gets the work counts of each traced round.
    """
    out = workdir / "report.json"
    rounds: list = []
    probes: list = []
    scenario = 0
    start = time.perf_counter()
    while len(rounds) < (2 if tracer else 1) or time.perf_counter() - start < seconds:
        while probe and len(probes) < SETUP_PROBES and time.perf_counter() - start >= len(probes) * seconds / SETUP_PROBES:
            probes.append(probe())
        traced = tracer is not None and len(rounds) % 2 == 1
        if traced:
            tracer.reset_counts()
            tracer.install()
        calls = []
        try:
            for case in cycle[len(rounds) % len(cycle)]:
                reference = reference_loop()
                rc, elapsed, payload = call(cli, argv[case.key], out, tracer if traced else None, scenario)
                calls.append(Call(case, elapsed, oracle.check(case, rc, payload, golden), scenario, reference))
                scenario += 1
        finally:
            if traced:
                tracer.uninstall()
        if traced:
            tracer.round_counts.append(dict(tracer.counts))
        rounds.append((traced, calls))
    while probe and len(probes) < SETUP_PROBES:
        probes.append(probe())
    every = [c for _, calls in rounds for c in calls]
    for c, factor in zip(every, local_scales([c.reference for c in every])):
        c.scaled = c.seconds * factor
    return rounds, probes


# statistics


def tail(samples: list, percentile: float) -> tuple:
    """Nearest-rank percentile: (value, samples beyond it)."""
    ordered = sorted(samples)
    index = max(math.ceil(percentile / 100 * len(ordered)) - 1, 0)
    return ordered[index], len(ordered) - index - 1


def end_to_end(rounds: list, setup_times: list, tail_percentile: float, field: str) -> dict:
    """End-to-end metric values from the ``field`` time of each call."""
    durations = [getattr(c, field) for _, calls in rounds for c in calls]
    return {
        "setup_s": statistics.median(setup_times),
        "scenarios_per_s": len(rounds[0][1]) / statistics.median(
            sum(getattr(c, field) for c in calls) for _, calls in rounds
        ),
        "verdict_p50_s": statistics.median(
            statistics.median(getattr(c, field) for c in calls) for _, calls in rounds
        ),
        "verdict_tail_s": tail(durations, tail_percentile)[0],
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


def rung_table(rounds: list) -> list:
    lines = ["per-rung medians (scaled s):", f"  {'rung':<34}{'median_s':>10}{'x prev':>9}"]
    times: dict = {}
    for _, calls in rounds:
        for c in calls:
            times.setdefault(c.case.rung, []).append(c.scaled)
    previous = None
    for rung, values in times.items():
        median = statistics.median(values)
        growth = f"{median / previous:9.2f}" if previous else ""
        lines.append(f"  {rung:<34}{median:10.4f}{growth}")
        previous = median
    return lines


def cycle_keys(rounds: list) -> set:
    """The distinct case lists among the rounds."""
    return {tuple(c.case.key for c in calls) for _, calls in rounds}


def per_layer(rounds: list, tracer) -> tuple:
    traced = [calls for is_traced, calls in rounds if is_traced]
    untraced = [calls for is_traced, calls in rounds if not is_traced]
    group_of = {c.scenario: i for i, calls in enumerate(traced) for c in calls}
    scale_of = {c.scenario: c.scaled / c.seconds for calls in traced for c in calls}
    by_round = tracer.self_times(group_of, scale_of)
    metrics: dict = {}
    for name in LAYERS:
        metrics[f"{name}.self_s"] = statistics.median(r.get(f"{name}.self_s", 0.0) for r in by_round)
    for name in ("scenarios.parse_s", "scenarios.resolve_s"):
        metrics[name] = statistics.median(r.get(name, 0.0) for r in by_round)
    counts = tracer.round_counts[0]
    for name, value in counts.items():
        if name in PER_LAYER_UNITS:
            metrics[name] = value
    ensure_calls = counts["series.ensure_below_calls"]
    incomplete = counts["series.ensure_below_incomplete"]
    metrics["series.incomplete_ratio"] = incomplete / ensure_calls if ensure_calls else 0.0
    metrics["trace.overhead_ratio"] = (
        statistics.median(sum(c.scaled for c in calls) for calls in traced)
        / statistics.median(sum(c.scaled for c in calls) for calls in untraced)
    )
    total = sum(metrics[f"{name}.self_s"] for name in LAYERS)
    repeat = all(c == counts for c in tracer.round_counts) if len(cycle_keys(rounds)) == 1 else None
    lines = [
        f"traced rounds {len(traced)}, untraced rounds {len(untraced)}; counts are those of the first traced round"
        + ("" if repeat is None else f"; every traced round repeats them: {repeat}"),
        "scalar arithmetic (GroupElement and FieldElement dunders) is counted, not spanned:",
        "its time lands in the calling layer's self time",
        f"  {'layer':<16}{'self_s':>10}{'share':>8}",
    ]
    for name in LAYERS:
        value = metrics[f"{name}.self_s"]
        lines.append(f"  {name:<16}{value:10.4f}{100 * value / total:7.1f}%")
    lines.append(f"series.ensure_below calls {ensure_calls}, of which incomplete {incomplete}")
    return metrics, lines


# entry point


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--spans", help="also write every span of the traced rounds to this file")
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    workdir = WORK / f"run-{os.getpid()}"
    try:
        cli, cycle, case_argv = set_up(args.workload, args.seed, workdir)
        reference_loop()  # the first sample of a process runs cold
        golden = oracle.load_golden()
        tracer = Tracer() if args.trace else None
        probe = None if args.trace else functools.partial(setup_probe, args.workload, args.seed)
        rounds, probes = run_rounds(cli, cycle, case_argv, golden, args.seconds, workdir, tracer, probe)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    finally:
        clean_up(workdir)

    calls = [c for _, cs in rounds for c in cs]
    failed = [c for c in calls if c.problems]
    reference = statistics.median(c.reference for c in calls)
    print(f"workload {args.workload}  seed {args.seed}  seconds {args.seconds:g}  trace {args.trace}")
    print(f"rounds {len(rounds)}  scenarios {len(calls)}  failed {len(failed)}  "
          f"failed_share {len(failed) / len(calls):.4f}")
    for c in failed[:10]:
        print(f"  FAILED {c.case.key}: {'; '.join(c.problems)}")
    print(f"times are scaled to a reference loop of {REFERENCE_S * 1e3:g} ms; "
          f"its median here was {reference * 1e3:.4f} ms")
    if args.trace:
        values, lines = per_layer(rounds, tracer)
        if args.spans:
            tracer.write_spans(args.spans)
        metrics = {name: (values[name], unit) for name, unit in PER_LAYER_UNITS.items()}
        notes: dict = {}
    else:
        tail_percentile = WORKLOADS[args.workload].tail_percentile
        # a probe's own reference sample scales it: the parent's samples run
        # with caches the probe process has just evicted
        setup_scaled = [elapsed * REFERENCE_S / reference for elapsed, reference in probes]
        values = end_to_end(rounds, setup_scaled, tail_percentile, "scaled")
        raw = end_to_end(rounds, [elapsed for elapsed, _ in probes], tail_percentile, "seconds")
        metrics = {name: (values[name], unit) for name, unit in END_TO_END_UNITS.items()}
        beyond = tail([c.seconds for c in calls], tail_percentile)[1]
        notes = {
            "setup_s": f"median of {len(probes)} fresh-interpreter set-ups",
            "scenarios_per_s": f"{len(rounds[0][1])} scenarios / median round time",
            "verdict_p50_s": "median over rounds of the round's median",
            "verdict_tail_s": f"p{tail_percentile:g} of {len(calls)} samples, {beyond} beyond",
            "peak_rss_mb": "ru_maxrss of this process",
        }
        notes = {name: note if name == "peak_rss_mb" else f"raw {raw[name]:.4g}; {note}"
                 for name, note in notes.items()}
        lines = rung_table(rounds) if args.workload in LADDERS else []
    for name, (value, unit) in metrics.items():
        note = f"  ({notes[name]})" if name in notes else ""
        print(f"{name:<34}{value:>14.6g} {unit}{note}")
    for line in lines:
        print(line)
    result = {
        "correct": not failed,
        "attempted": len(calls),
        "failed": len(failed),
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
