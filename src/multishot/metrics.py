"""Consistency metrics over frames.

Face consistency (FC) compares identity features within a shot (mean
pairwise cosine among its frames) and across shots (cosine between shot
mean features, over consecutive pairs by default). Style consistency (SC)
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

from .conditioning import DEFAULT_IDENTITY_CHANNELS, encode_text_mock
from .config import PAIRINGS, PipelineConfig
from .errors import ConfigError, InputError, ShapeError, ValidationError
from .script import DOMAIN_FIELDS, Story
from .seeds import spawn_rng
from .smoothing import VideoTimeline

PSNR_CAP_DB = 100.0


def cosine(a: np.ndarray, b: np.ndarray) -> float:
    """Cosine similarity with zero-norm inputs defined as 0."""
    na = np.linalg.norm(a)
    nb = np.linalg.norm(b)
    if na < 1e-12 or nb < 1e-12:
        return 0.0
    return float(np.dot(a, b) / (na * nb))


class FeatureExtractor(Protocol):
    """Deterministic Frame -> feature vector map."""

    name: str

    def __call__(self, frame: np.ndarray) -> np.ndarray:
        ...


@dataclass(frozen=True)
class IdentityChannelMean:
    """Toy face features: spatial mean of the identity channels."""

    d_id: int = DEFAULT_IDENTITY_CHANNELS
    name: str = "identity-mean"

    def __call__(self, frame: np.ndarray) -> np.ndarray:
        return np.asarray(frame)[:, :, : self.d_id].mean(axis=(0, 1))


@lru_cache(maxsize=64)
def _style_weights(seed: int, channels: int, d: int) -> np.ndarray:
    """StyleGram's seeded (channels, d) feature map, shared read-only."""
    weights = spawn_rng("style-features", seed, channels, d).standard_normal(
        (channels, d)
    ) / np.sqrt(d)
    weights.flags.writeable = False
    return weights


@dataclass(frozen=True)
class StyleGram:
    """Toy style features: flattened Gram of a fixed seeded linear feature
    map, mean-centered over pixels so constant channels do not dominate."""

    seed: int = 0
    channels: int = 6
    name: str = "style-gram"

    def __call__(self, frame: np.ndarray) -> np.ndarray:
        frame = np.asarray(frame)
        h, w, d = frame.shape
        feats = frame.reshape(h * w, d) @ _style_weights(self.seed, self.channels, d).T
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
    timeline: VideoTimeline,
    extractor: FeatureExtractor,
    pairing: str = "consecutive",
    avatar_ids: Optional[List[str]] = None,
) -> Tuple[Optional[float], Optional[float]]:
    """(within, cross) consistency.

    within: mean over shots of the mean pairwise cosine among that shot's
    frame features (needs a shot with >= 2 frames, else None).
    cross: mean cosine between shot-mean feature vectors over the selected
    pairing (needs >= 2 shots, else None).
    """
    if not any(timeline.clips):
        raise InputError("timeline has no frames")
    if pairing not in PAIRINGS:
        raise ConfigError(f"pairing must be one of {PAIRINGS}, got '{pairing}'")

    per_shot = [[extractor(f) for f in clip] for clip in timeline.clips]
    n_shots = len(per_shot)

    within_terms = [_mean_pairwise(feats) for feats in per_shot if len(feats) >= 2]
    within = float(np.mean(within_terms)) if within_terms else None

    cross = None
    if n_shots >= 2:
        means = [np.mean(feats, axis=0) for feats in per_shot]
        if pairing == "consecutive":
            pairs = [(j, j + 1) for j in range(n_shots - 1)]
        elif pairing == "all-pairs":
            pairs = [(i, j) for i in range(n_shots) for j in range(i + 1, n_shots)]
        else:
            if avatar_ids is None or len(avatar_ids) != n_shots:
                raise ConfigError("same-avatar pairing needs one avatar id per shot")
            pairs = [
                (i, j)
                for i in range(n_shots)
                for j in range(i + 1, n_shots)
                if avatar_ids[i] == avatar_ids[j]
            ]
        if pairs:
            cross = float(np.mean([cosine(means[i], means[j]) for i, j in pairs]))
    return within, cross


def psnr(a: np.ndarray, b: np.ndarray, max_value: float = 1.0) -> float:
    """Peak signal-to-noise ratio in dB, capped at 100 for identical inputs."""
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    if a.shape != b.shape:
        raise ShapeError(f"frame shapes differ: {a.shape} vs {b.shape}")
    if max_value <= 0:
        raise ConfigError(f"max_value must be positive, got {max_value}")
    mse = float(np.mean((a - b) ** 2))
    if mse == 0.0:
        return PSNR_CAP_DB
    return min(10.0 * math.log10(max_value**2 / mse), PSNR_CAP_DB)


def clip_score_mock(
    frames: Sequence[np.ndarray], script, domain: str, config: PipelineConfig
) -> float:
    """Per-domain text/frame alignment in the shared token space.

    Frame side: the fixed projection that recovers the composed attention
    vector from the content channels. Text side: the same fixed-query token
    featurizer applied to the domain text's embedding. Score is the mean
    cosine over frames, in [-1, 1].
    """
    if domain not in DOMAIN_FIELDS:
        raise InputError(f"unknown domain '{domain}', expected one of {DOMAIN_FIELDS}")
    frames = list(frames)
    if not frames:
        raise InputError("cannot score an empty frame list")
    proj = config.projector()
    text = getattr(script, domain)
    target = proj.attend(encode_text_mock(text, config.embed_dim, config.encoder_seed).data)
    scores = [cosine(proj.recover_composed(f), target) for f in frames]
    return float(np.mean(scores))


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


def build_report(timeline: VideoTimeline, story: Story, config: PipelineConfig) -> MetricsReport:
    """Compute every report field; pure, writes nothing."""
    if not any(timeline.clips):
        raise InputError("timeline has no frames")
    n_shots = len(story.scripts)
    if len(timeline.clips) != n_shots:
        raise ValidationError(f"timeline has {len(timeline.clips)} shots, story has {n_shots}")
    face = IdentityChannelMean(d_id=config.identity_channels)
    style = StyleGram(seed=config.style_seed)
    avatar_ids = [s.avatar_id for s in story.scripts] if config.pairing == "same-avatar" else None

    fc_within, fc_cross = consistency_scores(
        timeline, face, pairing=config.pairing, avatar_ids=avatar_ids
    )
    sc_within, sc_cross = consistency_scores(
        timeline, style, pairing=config.pairing, avatar_ids=avatar_ids
    )

    pair_values = [
        psnr(clip[i], clip[i + 1]) for clip in timeline.clips for i in range(len(clip) - 1)
    ]
    psnr_pairs = float(np.mean(pair_values)) if pair_values else None

    clip_by_domain = {}
    for domain in DOMAIN_FIELDS:
        per_shot = [
            clip_score_mock(clip, script, domain, config)
            for clip, script in zip(timeline.clips, story.scripts)
        ]
        clip_by_domain[domain] = float(np.mean(per_shot))

    return MetricsReport(
        fc_within=fc_within,
        fc_cross=fc_cross,
        sc_within=sc_within,
        sc_cross=sc_cross,
        psnr_pairs=psnr_pairs,
        clip_by_domain=clip_by_domain,
        counts={"shots": n_shots, "frames": len(timeline.frames)},
    )
