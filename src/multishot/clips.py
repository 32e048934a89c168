"""Per-shot clip generation.

Each shot's clip is k latent frames sampled under a single condition built
from the SHORT shot description (not the detailed five-domain script; long
prompts flatten the motion of conditional video models) plus the image
embedding of the shot's keyframe latent; the text goes through
encode_text_mock, as every prompt of a run does. Frames get independent
derived seeds so one user-facing seed reproduces the whole clip.

In windowed mode this module samples the final clips directly; in
fifo-reset mode it only supplies the per-shot condition and the smoothing
engine owns the denoising.
"""

from __future__ import annotations

from typing import List

import numpy as np

from .casting import encode_image_mock
from .conditioning import Condition, encode_text_mock
from .config import PipelineConfig
from .diffusion import sample_reverse
from .script import ShotDescription
from .seeds import derive_seed


def build_shot_condition(
    short: ShotDescription, keyframe_latent: np.ndarray, config: PipelineConfig
) -> Condition:
    """The single condition a shot's frames are denoised under."""
    d_e, encoder_seed = config.embed_dim, config.encoder_seed
    return Condition(
        text=encode_text_mock(short.text, d_e, encoder_seed),
        ip=encode_image_mock(keyframe_latent, d_e, encoder_seed),
        ip_scale=config.ip_scale,
    )


def frame_seed(seed: int, shot_index: int, frame: int) -> int:
    """Per-frame noise seed derived from (root seed, shot, frame)."""
    return derive_seed("frame-noise", seed, shot_index, frame)


def generate_shot_clip(cond: Condition, shot: int, config: PipelineConfig) -> List[np.ndarray]:
    """Sample the k frames of shot ``shot`` under its condition, frame f
    from ``frame_seed(config.timeline_seed, shot, f)``. Each frame is a
    chain of its own, so only one frame's step buffers are alive at a time
    at large latent shapes."""
    world, schedule, shape = config.world(), config.schedule(), config.latent_shape
    seed = config.timeline_seed
    return [
        sample_reverse(world, [cond], schedule, [frame_seed(seed, shot, f)], shape)[0]
        for f in range(config.frames_per_shot)
    ]
