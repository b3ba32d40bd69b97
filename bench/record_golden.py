"""Record the structured-report sha256 of every input the benchmark can generate.

    python3 bench/record_golden.py

Runs each case of every workload's pool once with ``--verify`` and writes
``golden.json``.  A case is recorded only when it passes the hand-written
oracle, so the digests pin reports that were checked, not just produced.
Run it only at a commit whose reports are meant to be the reference: the
benchmark counts any later difference as a failed scenario.
"""

import json
import os
import sys

import oracle
import run
from workloads import WORKLOADS


def main() -> int:
    workdir = run.WORK / f"record-{os.getpid()}"
    golden = {}
    bad = 0
    try:
        cli, _, _ = run.set_up(next(iter(WORKLOADS)), 0, workdir)
        out = workdir / "report.json"
        for workload in WORKLOADS.values():
            for case in workload.pool():
                args = case.argv
                if case.doc is not None:
                    path = workdir / "scenario.json"
                    path.write_text(json.dumps(case.doc), encoding="utf-8")
                    args = (str(path),)
                rc, _, payload = run.call(cli, args, out, None, 0)
                problems = oracle.check(case, rc, payload, None)
                if problems:
                    bad += 1
                    print(f"NOT RECORDED {case.key}: {'; '.join(problems)}")
                    continue
                golden[case.key] = oracle.sha256(payload)
    finally:
        run.clean_up(workdir)
    oracle.GOLDEN_PATH.write_text(json.dumps(golden, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    print(f"recorded {len(golden)} digests, {bad} cases failed the oracle")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
