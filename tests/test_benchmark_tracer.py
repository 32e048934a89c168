"""The benchmark's tracer (perfbench/tracer.py) must be able to wrap the
program as it stands: every function it names exists at module level, and
no reference to one is left bound where the tracer cannot rebind it. A
rename or a closure that would break the traced benchmark fails here."""

import importlib.util
from pathlib import Path

import multishot  # noqa: F401  imports every module the tracer wraps
from multishot import casting, diffusion
from multishot.config import PipelineConfig
from multishot.pipeline import build_story, generate_timeline, render_keyframes
from multishot.smoothing import run_timeline

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def _load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _traced_profile(run):
    tracer = _load_tracer().Tracer()
    tracer.install()
    try:
        tracer.begin_op()
        run()
        return tracer.profile()
    finally:
        tracer.uninstall()


def test_tracer_installs_counts_and_uninstalls():
    originals = (diffusion.ddim_step, diffusion.sample_reverse, casting.sample_reverse)
    config = PipelineConfig(n_shots=3, frames_per_shot=2, steps=4, shots_per_avatar=2)
    story = build_story("the life of a lighthouse keeper named Edda", config)
    calls = _traced_profile(lambda: render_keyframes(story, config))["calls"]
    # two avatars in one batch, then three keyframes in a second
    assert calls["casting.render_avatar"] == calls["casting.generate_keyframe"] == 1
    assert calls["diffusion.sample_reverse"] == 2
    # one backend call per reverse step, whatever the batch
    assert calls["diffusion.ddim_step"] == calls["diffusion.analytic_eps"] == 2 * config.steps
    assert calls["casting.encode_image_mock"] == 2
    assert (diffusion.ddim_step, diffusion.sample_reverse, casting.sample_reverse) == originals


def test_traced_windowed_timeline_keeps_closed_form_counts():
    # a windowed shot samples its frames on two threads; both must reach the
    # traced functions, and the shared memo must still compute each
    # condition's mean once, as the benchmark's gate requires
    config = PipelineConfig(n_shots=2, frames_per_shot=3, steps=4, mode="windowed")
    story = build_story("the life of a lighthouse keeper named Edda", config)
    keyframes = render_keyframes(story, config)
    profile = _traced_profile(lambda: run_timeline(generate_timeline(story, keyframes, config)))
    calls = profile["calls"]
    n, k, T = config.n_shots, config.frames_per_shot, config.steps
    assert calls["diffusion.analytic_eps"] == n * k * T
    assert calls["diffusion.sample_reverse"] == n * k
    assert calls["conditioning.MeanProjector.mean"] == profile["counters"]["distinct_conditions"]
    assert profile["counters"]["distinct_conditions"] == n
