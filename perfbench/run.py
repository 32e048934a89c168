"""Run one benchmark workload and print its metrics as one JSON line.

    python3 perfbench/run.py --workload fifo-story --seed 1 --seconds 36 --trace 0

Run it from the root of a source checkout: the program is imported from
./src. With --trace 0 the last line of standard output carries the
end-to-end metrics; with --trace 1 it carries the per-layer metrics of a
traced run (see README.md). The line before it is a JSON record of the
environment, the raw samples and any correctness problems.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import types
from pathlib import Path

import numpy as np

import oracle
import tracer
import workloads

HERE = Path(__file__).resolve().parent
#: Set-up repeats until it has run SETUP_MIN_REPS times and SETUP_MIN_SECONDS
#: have passed (at most SETUP_MAX_REPS). Each repetition re-imports the program
#: and runs the check input, so the check input is rerun and compared too.
SETUP_MIN_REPS, SETUP_MAX_REPS, SETUP_MIN_SECONDS = 4, 10, 4.0
PROGRAM_MODULES = ("casting", "clips", "conditioning", "config", "diffusion", "metrics",
                   "pipeline", "script", "seeds", "smoothing", "tensorio")


def import_program(src: Path):
    """Import the program afresh from ``src``; returns its modules by name."""
    for name in [n for n in sys.modules if n == "multishot" or n.startswith("multishot.")]:
        del sys.modules[name]
    package = importlib.import_module("multishot")
    if Path(package.__file__).resolve().parent != (src / "multishot").resolve():
        raise RuntimeError(f"multishot was imported from {package.__file__}, not {src}")
    return types.SimpleNamespace(**{
        name: importlib.import_module(f"multishot.{name}") for name in PROGRAM_MODULES})


def environment() -> dict:
    threads = {v: os.environ.get(v) for v in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                                              "MKL_NUM_THREADS")}
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas = "unknown"
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "blas_threads": threads if any(threads.values()) else "unset (BLAS default)",
        "processes": 1,
    }


def timed_op(ms, inp, trace=None):
    """Run one op; returns (wall seconds, problems)."""
    gc.collect()
    if trace is not None:
        trace.install()
        trace.begin_op()
    start = time.perf_counter()
    try:
        workloads.run_op(ms, inp)
        problems = []
    except Exception as exc:  # a failed op is counted, not fatal
        problems = [f"op raised {exc!r}"]
    wall = time.perf_counter() - start
    if trace is not None:
        trace.uninstall()
    if not problems:
        problems = workloads.check(ms, inp)
    return wall, problems


def setup(src: Path, workload, work: Path, reference: dict):
    """Import, build the check input and run it untimed, several times.

    Returns (modules, setup seconds per rep, problems). Every rep must
    write the same artifacts, and they must match the committed reference.
    """
    seconds, problems, outputs = [], [], []
    for rep in range(SETUP_MAX_REPS):
        if rep >= SETUP_MIN_REPS and sum(seconds) >= SETUP_MIN_SECONDS:
            break
        gc.collect()
        start = time.perf_counter()
        ms = import_program(src)
        inp = workloads.prepare(ms, workload, workloads.CHECK_SEED, workloads.CHECK_INDEX,
                                work / f"check{rep}")
        workloads.run_op(ms, inp)
        seconds.append(time.perf_counter() - start)
        problems += workloads.check(ms, inp)
        outputs.append(workloads.digests(inp.run_dir))
        shutil.rmtree(inp.run_dir)
    if any(out != outputs[0] for out in outputs):
        problems.append("the check input gave different artifacts on reruns")
    problems += compare_reference(outputs[0], reference)
    return ms, seconds, problems


def compare_reference(digests: dict, reference: dict) -> list:
    if digests == reference:
        return []
    differ = sorted(k for k in set(digests) | set(reference) if digests.get(k) != reference.get(k))
    return [f"check-input artifacts differ from reference.json: {differ[:5]}"]


def tail(walls: list):
    """The highest percentile with at least ten samples beyond it."""
    n = len(walls)
    if n <= 10:
        return {"samples": n, "percentile": None, "value_s": None}
    return {"samples": n, "percentile": round(100.0 * (n - 10) / n, 1),
            "value_s": sorted(walls)[n - 11]}


def peak_rss(ms, workload, seed: int, work: Path):
    """Peak resident memory, in MB, of one op run by the program alone.

    The op runs in a child process that imports only the program and the
    input generator, checks nothing and reports its own peak (peak_rss.py);
    its run directory is then checked here. So the figure is neither the
    harness's (set-up reps, the oracle's float64 frames) nor does it grow
    with the number of ops a run fits in (the program caches a projector per
    op seed).

    Returns (MB or None, problems).
    """
    proc = subprocess.run(
        [sys.executable, str(HERE / "peak_rss.py"), "--workload", workload.name,
         "--seed", str(seed), "--work", str(work)],
        capture_output=True, text=True, timeout=150)
    if proc.returncode != 0:
        return None, [f"peak-memory op exited with {proc.returncode}: {proc.stderr[-500:]}"]
    peak_mb = json.loads(proc.stdout.splitlines()[-1])["peak_rss_mb"]
    inp = workloads.prepare(ms, workload, seed, workloads.PEAK_RSS_INDEX, work)
    problems = [f"peak-memory op: {p}" for p in workloads.check(ms, inp)]
    shutil.rmtree(inp.run_dir, ignore_errors=True)
    return peak_mb, problems


def measure(ms, workload, seed: int, seconds: float, work: Path, trace=None):
    """Timed ops until their wall time adds up to ``seconds``.

    With a tracer, ops alternate between untraced and traced, so the
    tracing overhead is measured on the same stream of inputs; a traced run
    makes at least one op of each kind.
    """
    ops = []  # (wall, frames, traced, profile)
    problems, failed, elapsed, index = [], 0, 0.0, 0
    while elapsed < seconds or (trace is not None and index < 2):
        inp = workloads.prepare(ms, workload, seed, index, work)
        traced = trace is not None and index % 2 == 1
        wall, op_problems = timed_op(ms, inp, trace if traced else None)
        ops.append((wall, inp.frames, traced, trace.profile() if traced else None))
        if op_problems:
            failed += 1
            problems += [f"op {index}: {p}" for p in op_problems]
        shutil.rmtree(inp.run_dir, ignore_errors=True)
        elapsed += wall
        index += 1
    return ops, failed, problems


def end_to_end(ops, setup_seconds, peak_rss_mb) -> dict:
    walls = [w for w, _, _, _ in ops]
    return {
        "wall_s": {"value": statistics.median(walls), "unit": "s"},
        "frames_per_s": {"value": sum(f for _, f, _, _ in ops) / sum(walls), "unit": "frames/s"},
        "setup_s": {"value": statistics.median(setup_seconds), "unit": "s"},
        "peak_rss_mb": {"value": peak_rss_mb, "unit": "MB"},
    }


def per_layer(ops, config) -> dict:
    """Per-layer metrics: medians over traced ops of per-op values."""
    traced = [(w, p) for w, _, t, p in ops if t]
    plain = [w for w, _, t, _ in ops if not t]
    rows = {}
    for wall, p in traced:
        for name, (value, unit) in layer_values(p, wall, config).items():
            rows.setdefault(name, (unit, []))[1].append(value)
    metrics = {name: {"value": statistics.median(values), "unit": unit}
               for name, (unit, values) in rows.items()}
    metrics["trace.overhead_ratio"] = {
        "value": statistics.median(w for w, _ in traced) / statistics.median(plain),
        "unit": "ratio"}
    return metrics


def layer_values(p: dict, wall: float, config) -> dict:
    """One traced op's per-layer values, as {name: (value, unit)}."""
    calls, total, self_s, c = p["calls"], p["total_s"], p["self_s"], p["counters"]
    mean_calls = calls["conditioning.MeanProjector.mean"]
    queue_calls = p["queue_denoise_calls"]
    useful = config.n_shots * config.frames_per_shot * config.steps
    elems = config.height * config.width * config.channels
    v = {
        "conditioning.mean_calls": (mean_calls, "count"),
        "conditioning.mean_s": (self_s["conditioning.MeanProjector.mean"], "s"),
        "conditioning.mean_distinct": (c["distinct_conditions"], "count"),
        "conditioning.mean_useful_ratio": (
            c["distinct_conditions"] / mean_calls if mean_calls else 0.0, "ratio"),
        "conditioning.encode_text_calls": (calls["conditioning.encode_text_mock"], "count"),
        "conditioning.encode_text_s": (total["conditioning.encode_text_mock"], "s"),
        "conditioning.attention_calls": (c.get("conditioning.attention", 0), "count"),
        "diffusion.eps_calls": (calls["diffusion.analytic_eps"], "count"),
        "diffusion.eps_self_s": (self_s["diffusion.analytic_eps"], "s"),
        "diffusion.step_calls": (calls["diffusion.ddim_step"], "count"),
        "diffusion.step_s": (total["diffusion.ddim_step"], "s"),
        "diffusion.sample_reverse_calls": (calls["diffusion.sample_reverse"], "count"),
        "diffusion.eps_elems": (calls["diffusion.analytic_eps"] * elems, "elems"),
        "smoothing.ticks": (calls["smoothing.tick"], "count"),
        "smoothing.tick_self_s": (self_s["smoothing.tick"], "s"),
        "smoothing.queue_denoise_calls": (queue_calls, "count"),
        "smoothing.useful_denoise_ratio": (useful / queue_calls if queue_calls else 0.0, "ratio"),
        "clips.shot_clip_calls": (calls["clips.generate_shot_clip"], "count"),
        "clips.shot_clip_s": (total["clips.generate_shot_clip"], "s"),
        "casting.render_avatar_s": (total["casting.render_avatar"], "s"),
        "casting.keyframe_s": (total["casting.generate_keyframe"], "s"),
        "casting.encode_image_calls": (calls["casting.encode_image_mock"], "count"),
        "casting.encode_image_s": (total["casting.encode_image_mock"], "s"),
        "seeds.spawn_rng_calls": (calls["seeds.spawn_rng"], "count"),
        "seeds.spawn_rng_s": (total["seeds.spawn_rng"], "s"),
        "metrics.build_report_s": (total["metrics.build_report"], "s"),
        "metrics.consistency_s": (total["metrics.consistency_scores"], "s"),
        "metrics.clip_score_s": (total["metrics.clip_score_mock"], "s"),
        "metrics.cosine_calls": (c.get("metrics.cosine", 0), "count"),
        "metrics.extractor_calls": (c.get("metrics.IdentityChannelMean.__call__", 0)
                                    + c.get("metrics.StyleGram.__call__", 0), "count"),
        "tensorio.write_s": (total["tensorio.write_tensor_file"], "s"),
        "tensorio.write_bytes": (c.get("write_bytes", 0), "bytes"),
        "tensorio.read_s": (total["tensorio.read_tensor_file"], "s"),
        "tensorio.read_bytes": (c.get("read_bytes", 0), "bytes"),
        "pipeline.script_s": (total["pipeline.build_story"], "s"),
        "pipeline.keyframes_s": (total["pipeline.render_keyframes"], "s"),
        "pipeline.generate_s": (total["pipeline.generate_timeline"], "s"),
        "pipeline.metrics_s": (total["pipeline.compute_metrics_for_run"], "s"),
        "pipeline.manifest_s": (total["pipeline.write_manifest"], "s"),
        "pipeline.manifest_bytes": (c.get("manifest_bytes", 0), "bytes"),
        "script.build_story_s": (
            total["script.expand_story"] + total["script.generate_script_sequence"], "s"),
        "script.llm_calls": (c.get("script.MockLlmClient.complete", 0), "count"),
    }
    for module in tracer.SPANS:
        module_self = sum(s for name, s in self_s.items() if name.split(".")[0] == module)
        v[f"{module}.self_share"] = (module_self / wall, "ratio")
    return v


def design_checks(ops, config) -> dict:
    """Closed-form call counts of the seed program, against the traced counts."""
    p = next(p for _, _, t, p in ops if t)
    n, k, T = config.n_shots, config.frames_per_shot, config.steps
    avatars = -(-n // config.shots_per_avatar)
    if config.mode == "windowed":
        expected = {"eps": (avatars + n) * T + n * k * T, "ticks": 0, "encode_image": avatars + n}
    else:
        expected = {"eps": (avatars + n) * T + n * k * T + T * (T - 1) // 2,
                    "ticks": n * k + T - 1, "encode_image": avatars + n}
    measured = {"eps": p["calls"]["diffusion.analytic_eps"],
                "ticks": p["calls"]["smoothing.tick"],
                "encode_image": p["calls"]["casting.encode_image_mock"]}
    largest = sorted(p["self_s"].items(), key=lambda kv: -kv[1])[:5]
    return {"closed_form_counts": {k: [measured[k], expected[k]] for k in expected},
            "largest_self_s": largest}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = Path.cwd()
    src = root / "src"
    if not (src / "multishot" / "__init__.py").is_file():
        print(f"error: no program source at {src / 'multishot'}; run from a checkout root",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    workload = workloads.WORKLOADS[args.workload]
    reference = json.loads((HERE / "reference.json").read_text())[workload.name]
    work = root / ".perfbench" / f"work-{os.getpid()}"
    trace = tracer.Tracer() if args.trace else None
    try:
        ms, setup_seconds, problems = setup(src, workload, work, reference)
        if trace is not None:
            # Traced runs must write exactly what untraced runs write.
            inp = workloads.prepare(ms, workload, workloads.CHECK_SEED, workloads.CHECK_INDEX,
                                    work / "check-traced")
            problems += timed_op(ms, inp, trace)[1]
            problems += compare_reference(workloads.digests(inp.run_dir), reference)
        else:
            peak_rss_mb, rss_problems = peak_rss(ms, workload, args.seed, work)
            problems += rss_problems
        ops, failed, op_problems = measure(ms, workload, args.seed, args.seconds, work, trace)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    config = ms.config.PipelineConfig(**workload.config)
    problems += op_problems
    walls = [w for w, _, t, _ in ops if not t]
    a_t, b_t = oracle.chain_scalars(config.schedule(), config.sigma0)
    record = {"workload": workload.name, "seed": args.seed, "trace": args.trace,
              "environment": environment(), "ops": len(ops), "wall_s_samples": walls,
              "wall_s_tail": tail(walls), "setup_s_samples": setup_seconds,
              "oracle": {"A_T": a_t, "B_T": b_t, "rel_tol": oracle.REL_TOL},
              # For comparison with peak_rss_mb: this process, oracle included.
              "harness_peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
              "problems": problems[:20]}
    if trace is not None:
        record.update(design_checks(ops, config))
        trace.save(root / ".perfbench" / "trace" / f"{workload.name}-seed{args.seed}.npz")
        metrics = per_layer(ops, config)
    else:
        metrics = end_to_end(ops, setup_seconds, peak_rss_mb)
    print(json.dumps(record))
    print(json.dumps({"correct": not problems, "attempted": len(ops), "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
