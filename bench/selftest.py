"""Self-test of the benchmark itself.

    python3 bench/selftest.py

Shows that the oracle rejects a corrupted structured report and the
``ti-minus-ti1`` chase at max_terms 64 under the default ceiling 40; that
changing the seed changes the inputs but not the rung sizes; that every
count metric repeats exactly across two traced runs of one seed, whose
written spans nest; and that the benchmark exits non-zero without a result
when the program is absent.
Exits 1 on the first failed check.
"""

import json
import os
import shutil
import subprocess
import sys
from dataclasses import replace

import oracle
import run
from workloads import WORKLOADS, chase_case


class SelfTestFailure(Exception):
    pass


def expect(ok: bool, message: str) -> None:
    if not ok:
        raise SelfTestFailure(message)


def oracle_rejects_corrupted_report(cli, workdir, golden) -> None:
    case = WORKLOADS["frobenius-ladder"].cycle(0)[0][0]  # paper:notCA at max_terms 8
    rc, _, payload = run.call(cli, case.argv, workdir / "report.json", None, 0)
    expect(oracle.check(case, rc, payload, golden) == [], "the genuine notCA report does not pass")
    doc = json.loads(payload)
    doc["tasks"][0]["outcome"]["result"]["full_evidence"][3] = ["0", "28"]  # 27 -> 28
    corrupted = json.dumps(doc, sort_keys=True, separators=(",", ":")).encode() + b"\n"
    problems = oracle.check(case, 0, corrupted, golden)
    expect(any("sha256" in p for p in problems), "the digest check missed the corruption")
    expect(any("evidence" in p for p in problems), "the hand-written facts missed the corruption")
    expect(oracle.check(case, 0, corrupted, None) != [], "without digests the corruption passes")


def oracle_rejects_default_ceiling(cli, workdir) -> None:
    case = chase_case(1, 64)
    doc = dict(case.doc, precision=dict(case.doc["precision"], ceiling=40))
    case = replace(case, doc=doc)
    path = workdir / "default-ceiling.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    rc, _, payload = run.call(cli, (str(path),), workdir / "report.json", None, 0)
    expect(rc == 0, f"expected the CLI to exit 0, got {rc}")
    problems = oracle.check(case, rc, payload, None)
    expect(any("ZeroElementInFamily" in p for p in problems), f"oracle accepted the rung: {problems}")


def seeds_change_inputs_not_rungs(golden) -> None:
    for name, workload in WORKLOADS.items():
        a, b = workload.cycle(1), workload.cycle(2)
        rungs = [[(c.rung, c.doc and c.doc["precision"]) for c in r] for r in a]
        expect(rungs == [[(c.rung, c.doc and c.doc["precision"]) for c in r] for r in b],
               f"{name}: rung sizes depend on the seed")
        keys = [c.key for r in a for c in r]
        expect(keys == [c.key for r in workload.cycle(1) for c in r], f"{name}: one seed gave two inputs")
        if name != "frobenius-ladder":  # its 3^i chain is the input
            expect(keys != [c.key for r in b for c in r], f"{name}: seeds 1 and 2 gave the same inputs")
        missing = [c.key for c in workload.pool() if c.key not in golden]
        expect(not missing, f"{name}: no recorded sha256 for {missing[:3]}")


def check_spans(path) -> None:
    """Every span lies inside its parent and shares its scenario id."""
    spans = [line.split("\t") for line in path.read_text(encoding="utf-8").splitlines()[1:]]
    expect(bool(spans), "no spans were written")
    for name, start, end, parent, scenario in spans:
        expect(int(start) <= int(end), f"span {name} ends before it starts")
        if int(parent) >= 0:
            _, p_start, p_end, _, p_scenario = spans[int(parent)]
            expect(int(p_start) <= int(start) and int(end) <= int(p_end), f"span {name} leaves its parent")
            expect(scenario == p_scenario, f"span {name} changes scenario")


def counts_repeat_across_traced_runs(workdir) -> None:
    for name in WORKLOADS:
        results = []
        for spans in (workdir / f"{name}.spans.tsv", None):
            proc = subprocess.run(
                [sys.executable, str(run.BENCH / "run.py"), "--workload", name, "--seed", "5",
                 "--seconds", "1", "--trace", "1"] + (["--spans", str(spans)] if spans else []),
                capture_output=True, text=True, timeout=600, check=True,
            )
            results.append(json.loads(proc.stdout.strip().splitlines()[-1]))
            if spans:
                check_spans(spans)
        for result in results:
            expect(result["correct"], f"{name}: traced run failed the oracle")
        counts = [
            {k: m["value"] for k, m in r["metrics"].items() if m["unit"] in ("count", "B")}
            for r in results
        ]
        expect(counts[0] == counts[1], f"{name}: counts differ across two traced runs")


def refuses_without_program(workdir) -> None:
    bare = workdir / "bare"
    shutil.copytree(run.BENCH, bare / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(run.ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "chase-ladder", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=bare, capture_output=True, text=True, timeout=180,
    )
    expect(proc.returncode != 0, "the benchmark ran without the program")
    expect("{" not in proc.stdout, "the benchmark printed a result without the program")


def main() -> int:
    workdir = run.WORK / f"selftest-{os.getpid()}"
    try:
        cli, _, _ = run.set_up("frobenius-ladder", 0, workdir)
        golden = oracle.load_golden()
        checks = [
            ("oracle rejects a corrupted report", lambda: oracle_rejects_corrupted_report(cli, workdir, golden)),
            ("oracle rejects max_terms 64 at the default ceiling 40", lambda: oracle_rejects_default_ceiling(cli, workdir)),
            ("seeds change inputs, not rung sizes", lambda: seeds_change_inputs_not_rungs(golden)),
            ("counts repeat across two traced runs; spans nest", lambda: counts_repeat_across_traced_runs(workdir)),
            ("exits non-zero without the program", lambda: refuses_without_program(workdir)),
        ]
        for label, check in checks:
            try:
                check()
            except SelfTestFailure as exc:
                print(f"FAIL {label}: {exc}")
                return 1
            print(f"ok   {label}")
    finally:
        run.clean_up(workdir)
    return 0


if __name__ == "__main__":
    sys.exit(main())
