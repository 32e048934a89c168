"""Shot-level clip generation."""

import numpy as np
import pytest

import multishot.clips
from multishot.clips import build_shot_condition, frame_seed, generate_shot_clip
from multishot.conditioning import encode_text_mock
from multishot.config import PipelineConfig
from multishot.errors import ConfigError
from multishot.metrics import IdentityChannelMean
from multishot.pipeline import build_story, render_keyframes

STORY_INPUT = "the return of a glassblower named Soren"


@pytest.fixture(scope="module")
def chain():
    config = PipelineConfig()
    story = build_story(STORY_INPUT, config)
    keyframes = render_keyframes(story, config)
    return config, story, keyframes


def _clip(config, story, keyframes, shot=0, k=8, seed=0):
    cond = build_shot_condition(story.descriptions[shot], keyframes[shot], config)
    return generate_shot_clip(cond, shot, config.merged(frames_per_shot=k), seed)


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
    feat = IdentityChannelMean(config.identity_channels)
    clip = _clip(*chain, shot=1)
    mu_id = feat(world.mean_map(build_shot_condition(story.descriptions[1], keyframes[1], config)))
    bound = 3.0 * config.sigma0 / np.sqrt(config.height * config.width)
    for frame in clip:
        assert np.abs(feat(frame) - mu_id).max() < bound
