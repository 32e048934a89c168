"""Paired comparison of two source trees on one benchmark workload.

Runs ``perfbench/run.py --trace 0`` in the base tree and in the head tree,
each from its own root, for N pairs at seeds K..K+N-1, in ABBA order: pair
i runs base first when i is even and head first when i is odd, so a drift
of the host does not favour one side. It prints each run's end-to-end
metrics with ``correct`` and ``failed``, then, for each end-to-end metric
of ``BENCHMARK.json`` (read from the head tree):

* each side's median and quartiles, and whether the medians differ by more
  than the base's interquartile spread;
* the per-pair ratios head / base and their median;
* the head's wins and losses (ties count for neither), in the direction
  ``better`` gives, and the exact two-sided sign-test p of that split.

It exits 1 if any run is not correct or has a failed op, and records
nothing. Usage:

    python tools/abba.py --base DIR --head DIR --workload W --pairs N \\
        --seconds S --seed0 K
"""

from __future__ import annotations

import argparse
import json
import math
import statistics
import subprocess
import sys
from pathlib import Path


def run(tree: Path, workload: str, seed: int, seconds: float) -> dict:
    """The result line of one untraced benchmark run in ``tree``."""
    command = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
               "--seconds", str(seconds), "--trace", "0"]
    out = subprocess.run(command, cwd=tree, stdout=subprocess.PIPE, text=True, check=True)
    return json.loads(out.stdout.splitlines()[-1])


def sign_test(wins: int, losses: int) -> float:
    """Exact two-sided sign-test p of ``wins`` against ``losses``."""
    n = wins + losses
    tail = sum(math.comb(n, i) for i in range(min(wins, losses) + 1))
    return min(1.0, 2 * tail / 2**n)


def quartiles(values: list) -> tuple:
    """(first quartile, median, third quartile), inclusive method."""
    if len(values) < 2:
        return (values[0],) * 3
    return tuple(statistics.quantiles(values, n=4, method="inclusive"))


def compare(base: list, head: list, better: str) -> dict:
    """Paired statistics of one metric, its values listed in pair order."""
    sign = 1 if better == "lower" else -1
    gains = [sign * (b - h) for b, h in zip(base, head)]
    wins, losses = sum(g > 0 for g in gains), sum(g < 0 for g in gains)
    ratios = [h / b for b, h in zip(base, head)]
    (q1, base_median, q3), head_quartiles = quartiles(base), quartiles(head)
    return {"base": (q1, base_median, q3), "head": head_quartiles, "ratios": ratios,
            "median_ratio": statistics.median(ratios), "wins": wins, "losses": losses,
            "p": sign_test(wins, losses),
            "beyond_base_iqr": abs(head_quartiles[1] - base_median) > q3 - q1}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--base", type=Path, required=True)
    parser.add_argument("--head", type=Path, required=True)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--pairs", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--seed0", type=int, required=True)
    args = parser.parse_args(argv)

    trees = {"base": args.base, "head": args.head}
    results = {"base": [], "head": []}
    for i in range(args.pairs):
        seed = args.seed0 + i
        for side in ("base", "head") if i % 2 == 0 else ("head", "base"):
            result = run(trees[side], args.workload, seed, args.seconds)
            results[side].append(result)
            values = {name: m["value"] for name, m in result["metrics"].items()}
            print(f"pair {i} {side} seed {seed}: correct {result['correct']} "
                  f"failed {result['failed']} {values}", flush=True)

    metrics = json.loads((args.head / "BENCHMARK.json").read_text())["end_to_end"]
    for metric in metrics:
        name = metric["name"]
        base, head = ([r["metrics"][name]["value"] for r in results[side]]
                      for side in ("base", "head"))
        if None in base or None in head:
            print(f"{name}: missing in some run")
            continue
        c = compare(base, head, metric["better"])
        print(f"{name} ({metric['unit']}, {metric['better']} is better): "
              f"base q1/median/q3 {c['base']}, head q1/median/q3 {c['head']}, "
              f"medians differ beyond base IQR: {c['beyond_base_iqr']}")
        print(f"  head/base ratios {[round(r, 4) for r in c['ratios']]}, "
              f"median {c['median_ratio']:.4f}; head wins {c['wins']} of {len(base)} "
              f"(losses {c['losses']}), sign-test p {c['p']:.5f}")
    runs = results["base"] + results["head"]
    return 0 if all(r["correct"] and r["failed"] == 0 for r in runs) else 1


if __name__ == "__main__":
    sys.exit(main())
