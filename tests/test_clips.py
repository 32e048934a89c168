"""Shot-level clip generation."""

import threading

import numpy as np
import pytest

import multishot.clips
from multishot.clips import build_shot_condition, frame_seed, generate_shot_clip
from multishot.conditioning import encode_text_mock
from multishot.config import PipelineConfig
from multishot.diffusion import sample_reverse
from multishot.errors import ConfigError
from multishot.metrics import IdentityChannelMean
from multishot.pipeline import build_story, render_keyframes
from multishot.seeds import derive_seed, spawn_rng
from multishot.smoothing import FrameStream, build_plan, run_timeline

STORY_INPUT = "the return of a glassblower named Soren"


@pytest.fixture(scope="module")
def chain():
    config = PipelineConfig()
    story = build_story(STORY_INPUT, config)
    keyframes = render_keyframes(story, config)
    return config, story, keyframes


def _clip(config, story, keyframes, shot=0, k=8, seed=0):
    cond = build_shot_condition(story.descriptions[shot], keyframes[shot], config)
    return list(generate_shot_clip(cond, shot, config.merged(frames_per_shot=k, seed=seed)))


def test_frame_count_contract(chain):
    clip = _clip(*chain, k=8)
    assert len(clip) == 8
    assert all(f.shape == (8, 8, 8) for f in clip)


def test_zero_frames_rejected(chain):
    config, story, keyframes = chain
    with pytest.raises(ConfigError):
        _clip(config, story, keyframes, k=0)


def test_clip_deterministic(chain):
    a = _clip(*chain, seed=11)
    b = _clip(*chain, seed=11)
    for fa, fb in zip(a, b):
        assert np.array_equal(fa, fb)


def test_frames_differ_within_clip(chain):
    clip = _clip(*chain)
    assert not np.array_equal(clip[0], clip[1])
    assert frame_seed(0, 0, 0) != frame_seed(0, 0, 1)
    assert frame_seed(0, 0, 0) != frame_seed(0, 1, 0)


def test_text_condition_uses_short_description_not_script(chain, monkeypatch):
    # the recording encoder proves the clip sees s_i, never the five-domain
    # script text
    config, story, keyframes = chain
    seen = []

    def recording_encoder(text, d_e, seed):
        seen.append(text)
        return encode_text_mock(text, d_e, seed)

    monkeypatch.setattr(multishot.clips, "encode_text_mock", recording_encoder)
    _clip(config, story, keyframes, shot=2, k=2)
    assert seen == [story.descriptions[2].text]
    assert story.scripts[2].as_text() not in seen


def test_clip_condition_single_identity(chain):
    config, story, keyframes = chain
    world = config.world()
    mu = world.mean_map(build_shot_condition(story.descriptions[0], keyframes[0], config))
    # one condition per clip: every frame's mean identity block is the same
    for c in range(config.identity_channels):
        assert np.ptp(mu[:, :, c]) == 0.0


def test_frame_identity_stays_near_keyframe_identity(chain):
    # frame and keyframe identity features agree within sampler noise
    config, story, keyframes = chain
    world = config.world()
    feat = IdentityChannelMean()
    clip = _clip(*chain, shot=1)
    mu_id = feat(world.mean_map(build_shot_condition(story.descriptions[1], keyframes[1], config)))
    bound = 3.0 * config.sigma0 / np.sqrt(config.height * config.width)
    for frame in clip:
        assert np.abs(feat(frame) - mu_id).max() < bound


@pytest.mark.parametrize("k", [1, 2, 3, 5])
def test_windowed_timeline_equals_serial_chains_odd_frames_on_one_worker(monkeypatch, k):
    # every frame is its batch-of-one chain, bitwise; even frames run on the
    # calling thread (so does an odd k's last frame) and a shot's odd frames
    # on one worker thread, which has ended when the stream is exhausted
    config = PipelineConfig(n_shots=2, frames_per_shot=k, steps=6, mode="windowed", seed=3)
    story = build_story(STORY_INPUT, config)
    plan = build_plan(story, render_keyframes(story, config), config)
    threads = {}

    def recording_sampler(denoiser, conds, schedule, rngs, shape, eta):
        threads[rngs[0].bit_generator.seed_seq.entropy] = threading.current_thread()
        return sample_reverse(denoiser, conds, schedule, rngs, shape, eta)

    monkeypatch.setattr(multishot.clips, "sample_reverse", recording_sampler)
    before = threading.active_count()
    frames = run_timeline(FrameStream(plan, config))
    assert threading.active_count() == before

    world, schedule, seed = config.world(), config.schedule(), config.timeline_seed
    expected = np.stack([
        sample_reverse(world, [cond], schedule, [spawn_rng("reverse-init", frame_seed(seed, j, f))],
                       config.latent_shape)[0]
        for j, cond in enumerate(plan) for f in range(k)
    ])
    assert frames.tobytes() == expected.tobytes()
    caller = threading.current_thread()
    for j in range(config.n_shots):
        used = [threads[derive_seed("reverse-init", frame_seed(seed, j, f))] for f in range(k)]
        assert all(thread is caller for thread in used[::2])
        assert len(set(used[1::2])) == min(k // 2, 1)
        assert caller not in used[1::2]


class SyntheticFailure(Exception):
    pass


@pytest.mark.parametrize("failing", [0, 1], ids=["caller-frame", "worker-frame"])
def test_frame_failure_is_reraised_and_ends_the_worker(chain, monkeypatch, failing):
    config, story, keyframes = chain
    config = config.merged(frames_per_shot=4, steps=6)
    cond = build_shot_condition(story.descriptions[0], keyframes[0], config)
    bad_seed = derive_seed("reverse-init", frame_seed(config.timeline_seed, 0, failing))

    def failing_sampler(denoiser, conds, schedule, rngs, shape, eta):
        if rngs[0].bit_generator.seed_seq.entropy == bad_seed:
            raise SyntheticFailure(f"frame {failing} failed")
        return sample_reverse(denoiser, conds, schedule, rngs, shape, eta)

    monkeypatch.setattr(multishot.clips, "sample_reverse", failing_sampler)
    before = threading.active_count()
    with pytest.raises(SyntheticFailure, match=f"^frame {failing} failed$"):
        list(generate_shot_clip(cond, 0, config))
    assert threading.active_count() == before


def test_closing_a_clip_after_its_first_frame_ends_the_worker(chain):
    config, story, keyframes = chain
    config = config.merged(frames_per_shot=4, steps=6)
    cond = build_shot_condition(story.descriptions[0], keyframes[0], config)
    before = threading.active_count()
    frames = generate_shot_clip(cond, 0, config)
    first = next(frames)
    assert threading.active_count() == before + 1  # frame 1 is the worker's
    frames.close()
    assert threading.active_count() == before
    assert first.tobytes() == next(generate_shot_clip(cond, 0, config)).tobytes()
