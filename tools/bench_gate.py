"""Benchmark gate: one traced op per workload, checked against closed forms.

For each workload, runs ``perfbench/run.py --seed 1 --seconds 1 --trace 1``
and reads the last two lines it prints: the run record (closed-form call
counts) and the result. run.py exits 0 even when a check fails, so the gate
prints one line of measured and expected values per workload and exits 1
at the first workload whose result is not correct, has a failed op, or has
a count off its closed form; a run.py that exits nonzero fails the gate too.

Run it from anywhere:

    python tools/bench_gate.py
"""

from __future__ import annotations

import json
import math
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(ROOT / "perfbench"), str(ROOT / "src")]

import workloads
from multishot.config import PipelineConfig

WORKLOADS = ("fifo-story", "windowed-wide")


def check(record: dict, result: dict) -> bool:
    """Print the workload's line and return whether every check holds."""
    counts = record["closed_form_counts"]
    # the per-world memo evaluates each distinct condition's mean once
    means = [result["metrics"][f"conditioning.mean_{name}"]["value"]
             for name in ("calls", "distinct")]
    # the fifo-reset queue denoises each of its n*k frames at T levels,
    # plus T(T-1)/2 calls on warm-up latents; the metric counts the
    # denoiser spans whose parent is a tick, so a span on a function
    # between the two would read 0 here
    config = workloads.WORKLOADS[record["workload"]].config
    n, k, T = config["n_shots"], config["frames_per_shot"], config["steps"]
    queue = [result["metrics"]["smoothing.queue_denoise_calls"]["value"],
             n * k * T + T * (T - 1) // 2 if config["mode"] == "fifo-reset" else 0]
    # attention: one for each of the A avatars' text-only means, two for
    # each shot's keyframe mean and two for its clip mean (text and
    # image), five for its alignment targets. cosine: k(k-1)/2 frame
    # pairs per shot for each of the two extractors, one per consecutive
    # shot pair for each, and one per frame and domain. The defaults of
    # PipelineConfig count, so the workload dict alone is not enough.
    full = PipelineConfig(**config)
    n, k = full.n_shots, full.frames_per_shot
    avatars = math.ceil(n / full.shots_per_avatar)
    attention = [result["metrics"]["conditioning.attention_calls"]["value"],
                 avatars + 9 * n]
    cosines = [result["metrics"]["metrics.cosine_calls"]["value"],
               n * k * (k - 1) + 2 * (n - 1) + 5 * n * k]
    # reverse steps: one ddim_step per level for each of the keyframe
    # stage's two batches (avatar portraits, keyframes), then one per
    # queue tick (fifo-reset) or per level of each frame's chain
    # (windowed), so a rewrite of the step path cannot add or drop one
    T = full.steps
    steps = [result["metrics"]["diffusion.step_calls"]["value"],
             2 * T + (n * k + T - 1 if full.mode == "fifo-reset" else n * k * T)]
    # LLM calls: one to expand the story, one to propose the avatars
    # and one to write each shot's script
    llm = [result["metrics"]["script.llm_calls"]["value"], n + 2]
    print(record["workload"], "correct:", result["correct"],
          "failed:", result["failed"], "counts [measured, expected]:", counts,
          "mean [calls, distinct]:", means, "queue denoise [measured, expected]:", queue,
          "attention [measured, expected]:", attention,
          "cosine [measured, expected]:", cosines,
          "reverse steps [measured, expected]:", steps,
          "LLM calls [measured, expected]:", llm, flush=True)
    return result["correct"] and result["failed"] == 0 and all(
        measured == expected for measured, expected in counts.values()
    ) and means[0] == means[1] and queue[0] == queue[1] and (
        attention[0] == attention[1] and cosines[0] == cosines[1]) and (
        steps[0] == steps[1] and llm[0] == llm[1])


def main() -> int:
    for workload in WORKLOADS:
        command = [sys.executable, "perfbench/run.py", "--workload", workload,
                   "--seed", "1", "--seconds", "1", "--trace", "1"]
        out = subprocess.run(command, cwd=ROOT, stdout=subprocess.PIPE, text=True, check=True)
        record, result = map(json.loads, out.stdout.splitlines()[-2:])
        if not check(record, result):
            return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
