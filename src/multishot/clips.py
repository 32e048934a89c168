"""Per-shot clip generation.

Each shot's clip is k latent frames sampled under a single condition built
from the SHORT shot description (not the detailed five-domain script; long
prompts flatten the motion of conditional video models) plus the image
embedding of the shot's keyframe latent; both come from conditioning's
mock encoders, as every embedding of a run does. Each frame draws all its
noise from one generator of its own, so one root seed reproduces the clip.

In windowed mode this module samples the final clips directly; in
fifo-reset mode it only supplies the per-shot condition and the smoothing
engine owns the denoising. A windowed shot's frames are independent
chains, so they are sampled two at a time: even frames on the calling
thread, odd frames on one worker thread. NumPy releases the interpreter
lock inside each ufunc, so the two chains overlap on two cores.
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor
from typing import Iterator

import numpy as np

from .conditioning import Condition, encode_image_mock, encode_text_mock
from .config import PipelineConfig
from .diffusion import sample_reverse
from .script import ShotDescription
from .seeds import derive_seed, spawn_rng


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


def generate_shot_clip(cond: Condition, shot: int, config: PipelineConfig) -> Iterator[np.ndarray]:
    """Sample the k frames of shot ``shot`` under its condition and yield
    them in order, frame f at ``config.eta`` from the reverse-init generator
    of ``frame_seed(config.timeline_seed, shot, f)``. Frames are separate
    chains: even frames run on the calling thread while the odd frame after
    each runs on one worker thread, so only two frames' step buffers are
    alive at a time at large latent shapes. A frame's failure is raised from
    here with its own type and message, and the worker thread has ended by
    the time the iterator is exhausted, fails or is closed."""
    world, schedule, shape = config.world(), config.schedule(), config.latent_shape
    seed, k = config.timeline_seed, config.frames_per_shot

    def frame(f: int) -> np.ndarray:
        rng = spawn_rng("reverse-init", frame_seed(seed, shot, f))
        return sample_reverse(world, [cond], schedule, [rng], shape, config.eta)[0]

    with ThreadPoolExecutor(max_workers=1) as worker:
        for f in range(0, k, 2):
            odd = worker.submit(frame, f + 1) if f + 1 < k else None
            yield frame(f)
            if odd is not None:
                yield odd.result()
