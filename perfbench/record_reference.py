"""Rewrite reference.json: the artifact digests of each workload's check input.

    python3 perfbench/record_reference.py

Run it from the root of a source checkout, and only when a change is meant
to alter run artifacts; every benchmark run compares against this file.
"""

from __future__ import annotations

import json
import shutil
import sys
from pathlib import Path

import run
import workloads


def main() -> int:
    src = Path.cwd() / "src"
    sys.path.insert(0, str(src))
    ms = run.import_program(src)
    work = Path.cwd() / ".perfbench" / "reference"
    reference = {}
    try:
        for name, workload in workloads.WORKLOADS.items():
            inp = workloads.prepare(ms, workload, workloads.CHECK_SEED, workloads.CHECK_INDEX,
                                    work / name)
            workloads.run_op(ms, inp)
            problems = workloads.check(ms, inp)
            if problems:
                print(f"{name}: {problems}", file=sys.stderr)
                return 1
            reference[name] = workloads.digests(inp.run_dir)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    path = run.HERE / "reference.json"
    path.write_text(json.dumps(reference, indent=1, sort_keys=True) + "\n")
    print(f"wrote {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
