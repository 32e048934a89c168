"""Per-shot clip generation.

Each shot's clip is k latent frames sampled under a single condition built
from the SHORT shot description (not the detailed five-domain script; long
prompts flatten the motion of conditional video models) plus the keyframe's
image embedding. Frames get independent derived seeds so one user-facing
seed reproduces the whole clip.

In windowed mode this module produces the final clips directly; in
fifo-reset mode it only supplies the per-shot condition and the smoothing
engine owns the denoising.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, List

import numpy as np

from .casting import Keyframe, encode_image_mock
from .conditioning import Condition, encode_text_mock
from .config import PipelineConfig
from .diffusion import AnalyticDenoiser, sample_reverse
from .errors import ValidationError
from .script import ShotDescription
from .seeds import derive_seed


@dataclass(frozen=True)
class ShotClip:
    """k same-shape latent frames sharing one condition."""

    shot_index: int
    frames: List[np.ndarray]
    condition: Condition
    k: int


def build_shot_condition(
    short: ShotDescription,
    keyframe: Keyframe,
    config: PipelineConfig,
    text_encoder: Callable = encode_text_mock,
) -> Condition:
    """The single condition a shot's frames are denoised under."""
    if keyframe.shot_index != short.index:
        raise ValidationError(
            f"keyframe belongs to shot {keyframe.shot_index}, description to {short.index}"
        )
    d_e, encoder_seed = config.embed_dim, config.encoder_seed
    return Condition(
        text=text_encoder(short.text, d_e, encoder_seed),
        ip=encode_image_mock(keyframe.latent, d_e, encoder_seed),
        ip_scale=config.ip_scale,
    )


def frame_seed(seed: int, shot_index: int, frame: int) -> int:
    """Per-frame noise seed derived from (root seed, shot, frame)."""
    return derive_seed("frame-noise", seed, shot_index, frame)


def generate_shot_clip(
    short: ShotDescription,
    keyframe: Keyframe,
    config: PipelineConfig,
    seed: int,
    text_encoder: Callable = encode_text_mock,
) -> ShotClip:
    """Sample the k-frame clip for one shot; deterministic given inputs."""
    cond = build_shot_condition(short, keyframe, config, text_encoder=text_encoder)
    denoiser = AnalyticDenoiser(config.world())
    schedule, shape, k = config.schedule(), config.latent_shape, config.frames_per_shot
    frames = [
        sample_reverse(denoiser, cond, schedule, frame_seed(seed, short.index, f), shape)
        for f in range(k)
    ]
    return ShotClip(shot_index=short.index, frames=frames, condition=cond, k=k)
