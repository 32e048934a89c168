"""Consistency scores, PSNR, per-domain alignment, and the report builder."""

from dataclasses import asdict

import numpy as np
import pytest

from multishot.clips import build_shot_condition, generate_shot_clip
from multishot.conditioning import encode_text_mock
from multishot.config import PipelineConfig
from multishot.errors import InputError, ShapeError, ValidationError
from multishot.metrics import (
    IdentityChannelMean,
    StyleGram,
    _style_weights,
    build_report,
    clip_score_mock,
    consistency_scores,
    cosine,
    psnr,
)
from multishot.pipeline import build_story, generate_timeline, render_keyframes
from multishot.script import DOMAIN_FIELDS
from multishot.seeds import spawn_rng
from multishot.smoothing import run_timeline

STORY_INPUT = "the life of a lighthouse keeper named Edda"


class VectorExtractor:
    """Test stub mapping each frame (a wrapped vector) to itself."""

    name = "stub"

    def __call__(self, frame):
        return np.asarray(frame, dtype=float)


def _clips(features_by_shot):
    """The (n_shots, k, dim) clips array of one feature vector per frame."""
    return np.asarray(features_by_shot, dtype=float)


# --- cosine -------------------------------------------------------------------


def test_cosine_zero_vector_rule():
    assert cosine(np.zeros(3), np.ones(3)) == 0.0
    assert cosine(np.ones(3), np.ones(3)) == pytest.approx(1.0)


# --- consistency_scores ---------------------------------------------------------


def test_hand_computed_within_case():
    # pairwise cosines of [1,0], [0,1], [1,1]/sqrt(2) are (0, 1/sqrt2, 1/sqrt2)
    clips = _clips([[[1, 0], [0, 1], [np.sqrt(0.5), np.sqrt(0.5)]]])
    within, cross = consistency_scores(clips, VectorExtractor())
    assert within == pytest.approx((0 + np.sqrt(0.5) + np.sqrt(0.5)) / 3, abs=1e-12)
    assert within == pytest.approx(0.4714, abs=1e-3)
    assert cross is None  # single shot


def test_identical_frames_score_one():
    clips = _clips([[[1, 2], [1, 2]], [[1, 2], [1, 2]]])
    within, cross = consistency_scores(clips, VectorExtractor())
    assert within == pytest.approx(1.0)
    assert cross == pytest.approx(1.0)


def test_orthogonal_shots_score_zero_cross():
    clips = _clips([[[1, 0], [1, 0]], [[0, 1], [0, 1]]])
    within, cross = consistency_scores(clips, VectorExtractor())
    assert within == pytest.approx(1.0)
    assert cross == pytest.approx(0.0, abs=1e-12)


def test_within_invariant_under_frame_permutation():
    feats = [[0.3, 1.0], [1.0, -0.2], [0.5, 0.5], [2.0, 0.1]]
    base, _ = consistency_scores(_clips([feats]), VectorExtractor())
    rng = spawn_rng("perm")
    for _ in range(5):
        shuffled = [feats[i] for i in rng.permutation(4)]
        within, _ = consistency_scores(_clips([shuffled]), VectorExtractor())
        assert within == pytest.approx(base, abs=1e-12)


def test_single_frame_shots_have_no_within():
    clips = _clips([[[1, 0]], [[0, 1]]])
    within, cross = consistency_scores(clips, VectorExtractor())
    assert within is None
    assert cross == pytest.approx(0.0, abs=1e-12)


def test_cross_pairs_consecutive_shots():
    # shots 0 and 2 match, but only the pairs (0, 1) and (1, 2) count
    clips = _clips([[[1, 0], [1, 0]], [[0, 1], [0, 1]], [[1, 0], [1, 0]]])
    _, cross = consistency_scores(clips, VectorExtractor())
    assert cross == pytest.approx(0.0, abs=1e-12)  # (0 + 0) / 2


def test_empty_timeline_rejected():
    with pytest.raises(InputError):
        consistency_scores(_clips([]), VectorExtractor())
    with pytest.raises(InputError):
        consistency_scores(np.empty((2, 0, 3)), VectorExtractor())


# --- psnr -----------------------------------------------------------------------


def test_psnr_identical_frames_capped():
    frame = spawn_rng("psnr").standard_normal((4, 4))
    assert psnr(frame, frame) == 100.0


def test_psnr_zero_db():
    a = np.zeros((2, 2))
    b = np.ones((2, 2))  # MSE = 1
    assert psnr(a, b) == pytest.approx(0.0, abs=1e-3)


def test_psnr_twenty_db():
    a = np.zeros((5, 5))
    b = np.full((5, 5), 0.1)  # MSE = 0.01
    assert psnr(a, b) == pytest.approx(20.0, abs=1e-3)


def test_psnr_errors():
    with pytest.raises(ShapeError):
        psnr(np.zeros(3), np.zeros(4))


# --- style extractor -------------------------------------------------------------


def test_style_gram_symmetric_psd():
    frame = spawn_rng("gram").standard_normal((8, 8, 8))
    extractor = StyleGram(seed=1)
    gram = extractor(frame).reshape(6, 6)
    np.testing.assert_allclose(gram, gram.T, atol=1e-12)
    eigenvalues = np.linalg.eigvalsh(gram)
    assert (eigenvalues > -1e-9).all()


def test_style_gram_matches_fresh_weights():
    # the cached feature map gives the same bits as one drawn per frame
    frame = spawn_rng("gram").standard_normal((8, 8, 8))
    weights = spawn_rng("style-features", 1, 6, 8).standard_normal((6, 8)) / np.sqrt(8)
    feats = frame.reshape(64, 8) @ weights.T
    feats = feats - feats.mean(axis=0, keepdims=True)
    expected = (feats.T @ feats / 64).ravel()
    extractor = StyleGram(seed=1)
    assert np.array_equal(extractor(frame), expected)
    assert np.array_equal(extractor(frame), expected)
    cached = _style_weights(1, 8)
    assert _style_weights(1, 8) is cached
    with pytest.raises(ValueError):
        cached[0, 0] = 0.0


# --- clip_score_mock --------------------------------------------------------------


@pytest.fixture(scope="module")
def toy_chain():
    config = PipelineConfig()
    story = build_story(STORY_INPUT, config)
    keyframes = render_keyframes(story, config)
    return config, story, keyframes


def test_clip_score_bounded(toy_chain):
    config, story, keyframes = toy_chain
    frames = run_timeline(generate_timeline(story, keyframes, config))
    scores = clip_score_mock(frames[: config.frames_per_shot], story.scripts[0], config)
    assert list(scores) == list(DOMAIN_FIELDS)
    for value in scores.values():
        assert -1.0 <= value <= 1.0


def test_clip_score_input_errors(toy_chain):
    config, story, _ = toy_chain
    with pytest.raises(InputError):
        clip_score_mock([], story.scripts[0], config)


def test_clip_score_prefers_own_script():
    # frames score higher against their own script's character text than an
    # unrelated script's, averaged over 20 seeds
    own_scores, other_scores = [], []
    for seed in range(20):
        config = PipelineConfig(seed=seed)
        story = build_story(STORY_INPUT, config)
        keyframes = render_keyframes(story, config)
        shot = seed % config.n_shots
        other = (shot + 2) % config.n_shots
        cond = build_shot_condition(story.descriptions[shot], keyframes[shot], config)
        clip = list(generate_shot_clip(cond, shot, config.merged(frames_per_shot=4)))
        own_scores.append(clip_score_mock(clip, story.scripts[shot], config)["character"])
        other_scores.append(clip_score_mock(clip, story.scripts[other], config)["character"])
    assert np.mean(own_scores) > np.mean(other_scores)


def test_report_clip_by_domain_is_mean_over_shots_of_frame_means(toy_chain):
    # each domain's score, computed here cosine by cosine: the mean over
    # shots of the mean over the shot's frames, bitwise what the report holds
    config, story, keyframes = toy_chain
    frames = run_timeline(generate_timeline(story, keyframes, config))
    k = config.frames_per_shot
    proj = config.projector()
    expected = {}
    for domain in DOMAIN_FIELDS:
        per_shot = []
        for j, script in enumerate(story.scripts):
            text = encode_text_mock(getattr(script, domain), config.embed_dim, config.encoder_seed)
            target = proj.attend(text)
            sims = [cosine(proj.recover_composed(f), target) for f in frames[j * k : (j + 1) * k]]
            per_shot.append(float(np.mean(sims)))
        expected[domain] = float(np.mean(per_shot))
    assert build_report(frames, story, config).clip_by_domain == expected


# --- build_report ------------------------------------------------------------------


def test_report_single_shot_has_null_cross(toy_chain):
    config, story, keyframes = toy_chain
    cfg1 = PipelineConfig(n_shots=1, shots_per_avatar=1)
    story1 = build_story(STORY_INPUT, cfg1)
    kfs1 = render_keyframes(story1, cfg1)
    frames = run_timeline(generate_timeline(story1, kfs1, cfg1))
    report = build_report(frames, story1, cfg1)
    assert report.fc_cross is None and report.sc_cross is None
    assert report.fc_within is not None
    assert report.counts == {"shots": 1, "frames": 8}


def test_report_deterministic_and_complete(toy_chain):
    config, story, keyframes = toy_chain
    frames = run_timeline(generate_timeline(story, keyframes, config))
    a = build_report(frames, story, config)
    b = build_report(frames, story, config)
    assert asdict(a) == asdict(b)
    assert set(a.clip_by_domain) == {"character", "background", "relations", "camera", "hdr"}
    assert a.psnr_pairs is not None
    assert a.counts == {"shots": 4, "frames": 32}
    assert a.fc_within > a.fc_cross  # Table-1 ordering on the default run


def test_report_psnr_pairs_compares_consecutive_frames_only(toy_chain):
    # frame i of every shot is the constant 1 + i/10: each consecutive pair
    # differs by 0.1 everywhere (20 dB), while a shot's first and last
    # frames differ by 0.7, so any other pairing lowers the mean
    config, story, _ = toy_chain
    k = config.frames_per_shot
    frame = np.ones(config.latent_shape)
    frames = np.stack([frame * (1.0 + (f % k) / 10) for f in range(config.n_shots * k)])
    report = build_report(frames, story, config)
    assert report.psnr_pairs == pytest.approx(20.0, abs=1e-9)


def test_report_rejects_mismatched_story(toy_chain):
    config, story, keyframes = toy_chain
    frames = run_timeline(generate_timeline(story, keyframes, config))
    other = build_story(STORY_INPUT, PipelineConfig(n_shots=3, shots_per_avatar=2))
    with pytest.raises(ValidationError):
        build_report(frames, other, config)


@pytest.mark.parametrize("count", [0, 31, 33, 16])
def test_report_rejects_frame_count_not_n_shots_times_k(toy_chain, count):
    # 4 shots of k = 8 need 32 frames; 16 would reshape into 4 shots of 4
    config, story, keyframes = toy_chain
    frames = run_timeline(generate_timeline(story, keyframes, config))
    frames = np.concatenate([frames, frames])[:count]
    with pytest.raises(ValidationError, match=f"{count} frames for 4 shots of 8, expected 32"):
        build_report(frames, story, config)


def test_avatar_group_cosine_gap():
    # identity features of frames from one avatar group are closer than
    # across groups: gap > 0.1 at default config over 5 seeds
    for seed in range(5):
        config = PipelineConfig(seed=seed)
        story = build_story(STORY_INPUT, config)
        keyframes = render_keyframes(story, config)
        frames = run_timeline(generate_timeline(story, keyframes, config))
        feat = IdentityChannelMean()
        features = [feat(f) for f in frames]
        avatars = [script.avatar_id for script in story.scripts
                   for _ in range(config.frames_per_shot)]
        same, diff = [], []
        for i in range(len(features)):
            for j in range(i + 1, len(features)):
                sim = cosine(features[i], features[j])
                (same if avatars[i] == avatars[j] else diff).append(sim)
        gap = np.mean(same) - np.mean(diff)
        assert gap > 0.1, f"seed {seed}: gap {gap:.3f}"
