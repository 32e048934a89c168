"""Run one benchmark op in a process of its own, for its peak memory.

    python3 perfbench/peak_rss.py --workload windowed-wide --seed 1 --work DIR

It imports only the program and the input generator, runs op
PEAK_RSS_INDEX of the given seed into DIR, checks nothing (run.py checks
the run directory it leaves) and prints {"peak_rss_mb": ...} as its last
line.

The figure is VmHWM, the high-water mark of this process's own address
space. getrusage's ru_maxrss is not used: when a process is started with
vfork, as Python's subprocess does, exec carries the parent's high-water
mark into the child's, so it would report the benchmark process's peak
whenever that is larger.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

import run
import workloads


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--work", type=Path, required=True)
    args = parser.parse_args(argv)
    src = Path.cwd() / "src"
    sys.path.insert(0, str(src))
    ms = run.import_program(src)
    inp = workloads.prepare(ms, workloads.WORKLOADS[args.workload], args.seed,
                            workloads.PEAK_RSS_INDEX, args.work)
    workloads.run_op(ms, inp)
    print(json.dumps({"peak_rss_mb": vm_hwm_kib() / 1024}))
    return 0


def vm_hwm_kib() -> int:
    with open("/proc/self/status") as status:
        for line in status:
            if line.startswith("VmHWM:"):
                return int(line.split()[1])
    raise RuntimeError("/proc/self/status has no VmHWM line")


if __name__ == "__main__":
    sys.exit(main())
