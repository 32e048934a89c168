"""Consistency metrics over frames.

Face consistency (FC) compares identity features within a shot (mean
pairwise cosine among its frames) and across shots (cosine between shot
mean features, over consecutive pairs). Style consistency (SC)
does the same over flattened Gram signatures of a fixed seeded linear
feature map. PSNR summarizes frame-to-frame fidelity, and the per-domain
alignment score checks frames against each of the five script domains in a
shared embedding space.

The toy extractors are deliberately simple: identity features are the
spatial means of the identity channels, style features are mean-centered
channel Grams. Real face or style networks plug in to consistency_scores
through the extractor protocol without touching the scoring code.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, field
from functools import lru_cache
from typing import Dict, List, Optional, Protocol, Sequence, Tuple

import numpy as np

from .conditioning import IDENTITY_CHANNELS, encode_text_mock, norm
from .config import PipelineConfig
from .errors import InputError, ShapeError, ValidationError
from .script import DOMAIN_FIELDS, Story
from .seeds import spawn_rng

PSNR_CAP_DB = 100.0
#: The peak value of a frame element in psnr.
PSNR_PEAK = 1.0
#: The width of StyleGram's seeded feature map.
STYLE_CHANNELS = 6


def cosine(a: np.ndarray, b: np.ndarray) -> float:
    """Cosine similarity with zero-norm inputs defined as 0."""
    na = norm(a)
    nb = norm(b)
    if na < 1e-12 or nb < 1e-12:
        return 0.0
    return float(np.dot(a, b) / (na * nb))


class FeatureExtractor(Protocol):
    """Deterministic Frame -> feature vector map."""

    def __call__(self, frame: np.ndarray) -> np.ndarray:
        ...


@dataclass(frozen=True)
class IdentityChannelMean:
    """Toy face features: spatial mean of the identity channels."""

    def __call__(self, frame: np.ndarray) -> np.ndarray:
        return np.asarray(frame)[:, :, :IDENTITY_CHANNELS].mean(axis=(0, 1))


@lru_cache(maxsize=64)
def _style_weights(seed: int, d: int) -> np.ndarray:
    """StyleGram's seeded (STYLE_CHANNELS, d) feature map, shared read-only."""
    weights = spawn_rng("style-features", seed, STYLE_CHANNELS, d).standard_normal(
        (STYLE_CHANNELS, d)
    ) / np.sqrt(d)
    weights.flags.writeable = False
    return weights


@dataclass(frozen=True)
class StyleGram:
    """Toy style features: flattened Gram of a fixed seeded linear feature
    map, mean-centered over pixels so constant channels do not dominate."""

    seed: int = 0

    def __call__(self, frame: np.ndarray) -> np.ndarray:
        frame = np.asarray(frame)
        h, w, d = frame.shape
        feats = frame.reshape(h * w, d) @ _style_weights(self.seed, d).T
        feats = feats - feats.mean(axis=0, keepdims=True)
        gram = feats.T @ feats / (h * w)
        return gram.ravel()


def _mean_pairwise(features: List[np.ndarray]) -> float:
    sims = [
        cosine(features[i], features[j])
        for i in range(len(features))
        for j in range(i + 1, len(features))
    ]
    return float(np.mean(sims))


def consistency_scores(
    clips: np.ndarray, extractor: FeatureExtractor
) -> Tuple[Optional[float], Optional[float]]:
    """(within, cross) consistency of a clips array, ``clips[j]`` shot j's
    frames, shaped (n_shots, frames_per_shot, ...).

    within: mean over shots of the mean pairwise cosine among that shot's
    frame features (needs a shot with >= 2 frames, else None).
    cross: mean cosine between the shot-mean feature vectors of consecutive
    shots j, j + 1 (needs >= 2 shots, else None).
    """
    if not np.size(clips):
        raise InputError("clips hold no frames")

    per_shot = [[extractor(f) for f in clip] for clip in clips]

    within_terms = [_mean_pairwise(feats) for feats in per_shot if len(feats) >= 2]
    within = float(np.mean(within_terms)) if within_terms else None

    means = [np.mean(feats, axis=0) for feats in per_shot]
    cross_terms = [cosine(a, b) for a, b in zip(means, means[1:])]
    cross = float(np.mean(cross_terms)) if cross_terms else None
    return within, cross


def psnr(a: np.ndarray, b: np.ndarray) -> float:
    """Peak signal-to-noise ratio in dB at peak PSNR_PEAK, capped at
    PSNR_CAP_DB for identical inputs."""
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    if a.shape != b.shape:
        raise ShapeError(f"frame shapes differ: {a.shape} vs {b.shape}")
    mse = float(np.mean((a - b) ** 2))
    if mse == 0.0:
        return PSNR_CAP_DB
    return min(10.0 * math.log10(PSNR_PEAK**2 / mse), PSNR_CAP_DB)


def clip_score_mock(
    frames: Sequence[np.ndarray], script, config: PipelineConfig
) -> Dict[str, float]:
    """Text/frame alignment of one shot against each script domain, in the
    shared token space.

    Frame side: the fixed projection that recovers the composed attention
    vector from the content channels. Text side: the same fixed-query token
    featurizer applied to the domain text's embedding. A domain's score is
    the mean cosine over frames, in [-1, 1].
    """
    frames = list(frames)
    if not frames:
        raise InputError("cannot score an empty frame list")
    proj = config.projector()
    composed = [proj.recover_composed(f) for f in frames]
    scores = {}
    for domain in DOMAIN_FIELDS:
        text = getattr(script, domain)
        target = proj.attend(encode_text_mock(text, config.embed_dim, config.encoder_seed))
        scores[domain] = float(np.mean([cosine(c, target) for c in composed]))
    return scores


@dataclass
class MetricsReport:
    """Within/cross consistency, PSNR summary, and per-domain alignment."""

    fc_within: Optional[float]
    fc_cross: Optional[float]
    sc_within: Optional[float]
    sc_cross: Optional[float]
    psnr_pairs: Optional[float]
    clip_by_domain: Dict[str, float]
    counts: Dict[str, int] = field(default_factory=dict)

    def to_dict(self) -> dict:
        return asdict(self)


def build_report(frames: np.ndarray, story: Story, config: PipelineConfig) -> MetricsReport:
    """Compute every report field from a run's (n_shots * k, h, w, d)
    frames, shot j at rows j*k .. j*k + k - 1; pure, writes nothing."""
    n_shots, k = len(story.scripts), config.frames_per_shot
    if len(frames) != n_shots * k:
        raise ValidationError(
            f"{len(frames)} frames for {n_shots} shots of {k}, expected {n_shots * k}"
        )
    clips = frames.reshape((n_shots, k) + frames.shape[1:])
    face = IdentityChannelMean()
    style = StyleGram(seed=config.style_seed)

    fc_within, fc_cross = consistency_scores(clips, face)
    sc_within, sc_cross = consistency_scores(clips, style)

    pair_values = [psnr(clip[i], clip[i + 1]) for clip in clips for i in range(k - 1)]
    psnr_pairs = float(np.mean(pair_values)) if pair_values else None

    per_shot = [
        clip_score_mock(clip, script, config) for clip, script in zip(clips, story.scripts)
    ]
    clip_by_domain = {
        domain: float(np.mean([scores[domain] for scores in per_shot]))
        for domain in DOMAIN_FIELDS
    }

    return MetricsReport(
        fc_within=fc_within,
        fc_cross=fc_cross,
        sc_within=sc_within,
        sc_cross=sc_cross,
        psnr_pairs=psnr_pairs,
        clip_by_domain=clip_by_domain,
        counts={"shots": n_shots, "frames": len(frames)},
    )
