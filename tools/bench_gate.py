"""Benchmark gate: one traced op per workload, checked against closed forms,
then one untraced second per workload, checked for peak memory.

For each workload, runs ``perfbench/run.py --seed 1 --seconds 1 --trace 1``
and reads the last two lines it prints: the run record (closed-form call
counts) and the result. run.py exits 0 even when a check fails, so the gate
prints one line of measured and expected values per workload and exits 1
at the first workload whose result is not correct, has a failed op, or has
a count off its closed form; a run.py that exits nonzero fails the gate too.

Then it runs ``perfbench/run.py --seed 1 --seconds 1 --trace 0`` on each
workload, which also measures peak memory in a child op
(``perfbench/peak_rss.py``) that the traced runs skip, and exits 1 unless
each result is correct with no failed op and ``windowed-wide``'s
``peak_rss_mb`` exceeds ``fifo-story``'s by at most 20.

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

#: The most windowed-wide's peak_rss_mb may exceed fifo-story's. No stage
#: holds a run's frames: the generate stage writes each frame to frames.vgt
#: as it is sampled. windowed-wide's peak is set by its generate stage,
#: whose worker thread's malloc arena adds about 3 MB to the keyframes
#: stage's image encoder matrix: about 17.5 MB above fifo-story's, against
#: about 14.6 MB with one sampling thread. When the generate stage held its
#: 16 MB of float64 frames, the difference was about 22 MB. A difference
#: cancels the interpreter and numpy baseline, which varies between machines.
PEAK_RSS_GAP_MB = 20


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


def run(workload: str, trace: int) -> tuple:
    """The run record and the result of one second of the workload."""
    command = [sys.executable, "perfbench/run.py", "--workload", workload,
               "--seed", "1", "--seconds", "1", "--trace", str(trace)]
    out = subprocess.run(command, cwd=ROOT, stdout=subprocess.PIPE, text=True, check=True)
    return tuple(map(json.loads, out.stdout.splitlines()[-2:]))


def main() -> int:
    for workload in WORKLOADS:
        if not check(*run(workload, trace=1)):
            return 1
    results = [run(workload, trace=0)[1] for workload in WORKLOADS]
    peaks = [result["metrics"]["peak_rss_mb"]["value"] for result in results]
    for workload, result, peak in zip(WORKLOADS, results, peaks):
        print(workload, "untraced correct:", result["correct"], "failed:", result["failed"],
              "peak_rss_mb:", peak, flush=True)
    gap = peaks[1] - peaks[0]
    print(f"peak_rss_mb {WORKLOADS[1]} - {WORKLOADS[0]}: {gap} (limit {PEAK_RSS_GAP_MB})")
    ok = all(r["correct"] and r["failed"] == 0 for r in results) and gap <= PEAK_RSS_GAP_MB
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
