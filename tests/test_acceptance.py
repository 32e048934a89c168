"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines. Absolute paper-scale numbers are out of reach at desk scale by
design; these criteria pin the exact algebra, the queue structure, and the
directional ordering claims, each at its stated tolerance and budget.
"""

import math
import time

import numpy as np
import pytest

from multishot.casting import derive_avatars
from multishot.conditioning import Condition, attention, encode_text_mock
from multishot.config import PipelineConfig
from multishot.diffusion import (
    GaussianWorld,
    add_noise,
    ddim_step,
    make_schedule,
    sample_reverse,
)
from multishot.metrics import build_report, consistency_scores, psnr
from multishot.pipeline import build_story, generate_timeline, render_keyframes, run_pipeline
from multishot.script import MockLlmClient, expand_story, generate_script_sequence
from multishot.script import DOMAIN_FIELDS, Story, serialize_story, parse_story
from multishot.seeds import spawn_rng
from multishot.smoothing import DenoiseTrace, run_timeline
from multishot.tensorio import read_tensor_file, write_tensor_file

TOY_STORY = "the life of a lighthouse keeper named Edda"

_shared = {}


def _report_pass(n, detail):
    print(f"criterion {n}: PASS - {detail}")


# -- 1 -------------------------------------------------------------------------


def test_criterion_1_diffusion_exactness():
    start = time.perf_counter()
    schedule = make_schedule(50)
    for t in range(2, 51):
        assert abs(schedule.alpha_bar(t) / schedule.alpha_bar(t - 1) - schedule.alphas[t - 1]) < 1e-12
    rng = spawn_rng("acceptance-inversion")
    worst = 0.0
    for _ in range(1000):
        t = int(rng.integers(1, 51))
        x0 = rng.standard_normal((4, 4))
        eps = rng.standard_normal((4, 4))
        recovered = ddim_step(add_noise(x0, eps, t, schedule), eps, t, 0, schedule)
        worst = max(worst, float(np.abs(recovered - x0).max()))
    elapsed = time.perf_counter() - start
    assert worst < 1e-9
    assert elapsed < 1.0
    _report_pass(1, f"inversion error {worst:.1e} (<1e-9), schedule identity 1e-12, {elapsed:.2f}s")


# -- 2 -------------------------------------------------------------------------


def test_criterion_2_sampling_fidelity():
    start = time.perf_counter()
    config = PipelineConfig()  # T=50, sigma0=0.5
    schedule = config.schedule()
    world = GaussianWorld(
        sigma0=0.5,
        mean_map=config.projector().mean,
    )
    cond = Condition(text=encode_text_mock("a quiet meadow at dawn", 16, config.encoder_seed))
    mu = world.mean_map(cond)
    samples = np.stack(
        [sample_reverse(world, [cond], schedule, [seed], config.latent_shape)[0]
         for seed in range(2000)]
    )
    elapsed = time.perf_counter() - start
    mean_err = float(np.abs(samples.mean(axis=0) - mu).max())
    std_err = float(np.abs(samples.std(axis=0) / 0.5 - 1.0).max())
    assert mean_err < 0.1
    assert std_err < 0.20
    assert elapsed < 30.0
    _report_pass(2, f"2000 seeds: |mean-mu| {mean_err:.3f} (<0.1), std off {std_err:.1%} (<20%), {elapsed:.1f}s")


# -- 3 & 4 ----------------------------------------------------------------------


def test_criterion_3_fifo_structural_invariants():
    start = time.perf_counter()
    config = PipelineConfig(n_shots=3, frames_per_shot=8, steps=20)
    story = build_story(TOY_STORY, config)
    keyframes = render_keyframes(story, config)
    trace = DenoiseTrace()
    frames = run_timeline(generate_timeline(story, keyframes, config, trace=trace))
    elapsed = time.perf_counter() - start

    T, k, total = 20, 8, 24
    assert len(frames) == total
    emission_ticks = []
    for gf in range(total):
        records = sorted(trace.for_frame(gf), key=lambda r: r.tick)
        assert [r.level for r in records] == list(range(T, 0, -1)), f"frame {gf}"
        emission_ticks.append(records[-1].tick)  # the level-1 tick emits the frame
    assert emission_ticks == sorted(emission_ticks)
    assert emission_ticks[0] == T  # frame 0 after exactly T ticks
    violations = sum(1 for r in trace.records if r.condition_shot != r.global_frame // k)
    assert violations == 0
    assert elapsed < 5.0
    _shared["trace"] = trace
    _shared["emission_ticks"] = emission_ticks
    _report_pass(3, f"{len(trace.records)} records, levels T..1 per frame, 0 purity violations, {elapsed:.1f}s")


def test_criterion_4_reset_boundary_overlap():
    trace = _shared["trace"]
    first_shot1_tick = min(r.tick for r in trace.records if r.condition_shot == 1)
    last_shot0_emit = max(_shared["emission_ticks"][:8])  # shot 0's k = 8 frames
    assert first_shot1_tick < last_shot0_emit
    overlap = last_shot0_emit - first_shot1_tick
    _report_pass(4, f"shot-1 conditioning enters at tick {first_shot1_tick}, "
                    f"last shot-0 frame emits at tick {last_shot0_emit} (overlap {overlap} ticks)")


# -- 5 -------------------------------------------------------------------------


def test_criterion_5_mode_agreement_at_convergence():
    start = time.perf_counter()
    config = PipelineConfig(sigma0=0.0)
    story = build_story(TOY_STORY, config)
    keyframes = render_keyframes(story, config)
    fifo = run_timeline(generate_timeline(story, keyframes, config))
    windowed = run_timeline(generate_timeline(story, keyframes, config.merged(mode="windowed")))
    elapsed = time.perf_counter() - start
    assert fifo.shape == windowed.shape
    worst = float(np.abs(fifo - windowed).max())
    assert worst < 2e-4
    assert elapsed < 10.0
    _report_pass(5, f"max elementwise gap {worst:.1e} (<2e-4), {elapsed:.1f}s")


# -- 6 & 7 ----------------------------------------------------------------------


@pytest.fixture(scope="module")
def five_seed_reports():
    start = time.perf_counter()
    reports = {}
    for seed in range(5):
        for ip_scale in (1.0, 0.0):
            config = PipelineConfig(seed=seed, ip_scale=ip_scale)
            story = build_story(TOY_STORY, config)
            keyframes = render_keyframes(story, config)
            frames = run_timeline(generate_timeline(story, keyframes, config))
            reports[(seed, ip_scale)] = build_report(frames.astype(np.float32), story, config)
    return reports, time.perf_counter() - start


def test_criterion_6_ip_ablation_direction(five_seed_reports):
    reports, elapsed = five_seed_reports
    gaps = [
        reports[(seed, 1.0)].fc_cross - reports[(seed, 0.0)].fc_cross for seed in range(5)
    ]
    mean_gap = float(np.mean(gaps))
    assert mean_gap >= 0.05
    assert elapsed < 60.0
    _report_pass(6, f"fc_cross(ip=1) - fc_cross(ip=0) mean {mean_gap:+.3f} (>=0.05) "
                    f"over 5 seeds, {elapsed:.1f}s")


def test_criterion_7_within_exceeds_cross(five_seed_reports):
    reports, _ = five_seed_reports
    for seed in range(5):
        report = reports[(seed, 1.0)]
        assert report.fc_within > report.fc_cross, f"seed {seed}"
        assert report.sc_within >= report.sc_cross, f"seed {seed}"
    fc = [(reports[(s, 1.0)].fc_within, reports[(s, 1.0)].fc_cross) for s in range(5)]
    _report_pass(7, "fc_within > fc_cross and sc_within >= sc_cross on 5/5 seeds "
                    f"(fc e.g. {fc[0][0]:.3f} vs {fc[0][1]:.3f})")


# -- 8 -------------------------------------------------------------------------


def test_criterion_8_metric_unit_values():
    class Identity:
        name = "stub"

        def __call__(self, frame):
            return np.asarray(frame, dtype=float)

    three = np.array([[[1.0, 0.0], [0.0, 1.0], [math.sqrt(0.5), math.sqrt(0.5)]]])
    within, _ = consistency_scores(three, Identity())
    assert abs(within - 0.4714) < 1e-3

    assert abs(psnr(np.zeros((2, 2)), np.ones((2, 2)), 1.0) - 0.0) < 1e-3
    assert abs(psnr(np.zeros((2, 2)), np.full((2, 2), 0.1), 1.0) - 20.0) < 1e-3

    out = attention(
        np.array([2.0, 0.0]),
        np.array([[1.0, 0.0], [-1.0, 0.0]]),
        np.array([[1.0, 0.0], [0.0, 1.0]]),
    )
    assert abs(out[0] - 0.9442) < 1e-3
    _report_pass(8, f"within-FC {within:.4f}~0.4714, PSNR 0/20 dB, attention {out[0]:.4f}~0.9442")


# -- 9 -------------------------------------------------------------------------


def test_criterion_9_script_module():
    class RecordingClient:
        deterministic = True

        def __init__(self):
            self.inner = MockLlmClient()
            self.indices = []

        def complete(self, instruction, context):
            import json as json_module

            payload = json_module.loads(context)
            if payload["task"] == "script":
                self.indices.append(payload["index"])
            return self.inner.complete(instruction, context)

    client = RecordingClient()
    descriptions = expand_story(TOY_STORY, 30, client)
    avatars, assignment = derive_avatars(descriptions, client, PipelineConfig(shots_per_avatar=6))
    scripts = generate_script_sequence(descriptions, client, assignment)
    story = Story(TOY_STORY, descriptions, scripts, avatars)

    assert len(story.scripts) == 30
    for script in story.scripts:
        for domain in DOMAIN_FIELDS:
            assert getattr(script, domain)
    assert client.indices == list(range(30))  # sequential, prev-carrying loop

    data = serialize_story(story)
    assert serialize_story(parse_story(data)) == data
    _report_pass(9, "30 scripts x 5 domains, byte-identical round trip, sequential order")


# -- 10 ------------------------------------------------------------------------


def test_criterion_10_end_to_end_determinism(tmp_path):
    a = run_pipeline(TOY_STORY, PipelineConfig(), tmp_path / "a")
    b = run_pipeline(TOY_STORY, PipelineConfig(), tmp_path / "b")
    assert a == b and a

    rng = spawn_rng("acceptance-tensors")
    for i in range(100):
        shape = tuple(int(d) for d in rng.integers(1, 5, size=int(rng.integers(1, 5))))
        tensor = rng.standard_normal(shape).astype(np.float32)
        write_tensor_file(tmp_path / "tensor.vgt", tensor)
        assert np.array_equal(read_tensor_file(tmp_path / "tensor.vgt"), tensor)
    _report_pass(10, f"two runs, identical manifests over {len(a)} artifacts; "
                     "100 tensor round trips bitwise")
