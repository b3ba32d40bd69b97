"""Set-up probe for ``run.py``: in a fresh interpreter, import ultragram,
generate the seeded inputs of a workload and parse every scenario, then
print ``ready``.  The parent times the probe from spawn to that line.  The
probe then prints one ``reference_loop()`` sample, which scales its time.

    python3 bench/setup_probe.py <workload> <seed>
"""

import os
import sys

import run

if __name__ == "__main__":
    workdir = run.WORK / f"probe-{os.getpid()}"
    try:
        run.set_up(sys.argv[1], int(sys.argv[2]), workdir)
        print("ready", flush=True)
        run.reference_loop()  # the first sample of a process runs cold
        print(run.reference_loop(), flush=True)
    finally:
        run.clean_up(workdir)
