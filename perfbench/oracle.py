"""Closed-form reference for the analytic world and the per-op correctness gate.

With the analytic Gaussian denoiser and eta = 0, every DDIM step maps
x_t to x_{t-1} = alpha_t x_t + beta_t mu(c), so a full reverse chain from
x_T collapses to

    x0 = A_T x_T + B_T mu(c)

where A_T and B_T are scalars that depend only on the schedule and sigma0.
The oracle rebuilds every avatar portrait, keyframe and frame of a run from
its seeds with that formula, independently of the program's samplers and
queue. It reuses the program's encoders and condition mean, so it checks
the chain, the queue and persistence, not the encoders. Frames are stored
as float32, so each element may differ from the float64 oracle by half a
float32 ulp; ``REL_TOL`` allows four times that.
"""

from __future__ import annotations

import math
from pathlib import Path

import numpy as np

#: Allowed |stored - oracle| / max(1, |oracle|), elementwise: 4 x 2**-24.
REL_TOL = 2.0**-22


def chain_scalars(schedule, sigma0: float):
    """(A_T, B_T) of the collapsed eta = 0 reverse chain T..1."""
    A, B = 1.0, 0.0
    s2 = sigma0**2
    for t in range(schedule.T, 0, -1):
        a = schedule.alpha_bar(t)
        a_prev = schedule.alpha_bar(t - 1)
        denom = a * s2 + 1.0 - a
        p = math.sqrt(a) * s2 / denom  # E[x0 | x_t] = p x_t + q mu
        q = (1.0 - a) / denom
        c = math.sqrt(1.0 - a_prev) / math.sqrt(1.0 - a)
        alpha = math.sqrt(a_prev) * p + c * (1.0 - math.sqrt(a) * p)
        beta = math.sqrt(a_prev) * q - c * math.sqrt(a) * q
        A, B = alpha * A, alpha * B + beta
    return A, B


def oracle_run(ms, story, config):
    """Oracle keyframes and frames of a run, as float64 arrays.

    Returns (keyframes, frames): keyframes[j] for shot j and frames[g] for
    global frame g, each of config.latent_shape. Only eta = 0 and the
    default reset boundary (L = k) are modelled.
    """
    derive_seed, spawn_rng = ms.seeds.derive_seed, ms.seeds.spawn_rng
    encode_text, encode_image = ms.conditioning.encode_text_mock, ms.casting.encode_image_mock
    Condition = ms.conditioning.Condition
    if config.eta != 0.0 or config.reset_boundary not in (None, config.frames_per_shot):
        raise ValueError("the oracle models eta = 0 and L = k only")
    A, B = chain_scalars(config.schedule(), config.sigma0)
    mean = config.world().mean_map
    shape, d_e, enc = config.latent_shape, config.embed_dim, config.encoder_seed

    def sample(seed_rng, cond):
        return A * seed_rng.standard_normal(shape) + B * mean(cond)

    embeddings = {}
    for avatar in story.avatars:
        cond = Condition(text=encode_text(avatar.prompt.as_text(), d_e, enc))
        portrait = sample(spawn_rng("reverse-init", avatar.seed), cond)
        embeddings[avatar.id] = encode_image(portrait, d_e, enc)

    timeline_seed = derive_seed("timeline", config.seed)
    k = config.frames_per_shot
    keyframes, frames = [], []
    for j, (desc, script) in enumerate(zip(story.descriptions, story.scripts)):
        key_cond = Condition(
            text=encode_text(script.as_text(), d_e, enc),
            ip=embeddings[script.avatar_id],
            ip_scale=config.ip_scale,
        )
        keyframe = sample(spawn_rng("reverse-init", derive_seed("keyframe", config.seed, j)), key_cond)
        keyframes.append(keyframe)
        shot_mu = mean(
            Condition(
                text=encode_text(desc.text, d_e, enc),
                ip=encode_image(keyframe, d_e, enc),
                ip_scale=config.ip_scale,
            )
        )
        for f in range(k):
            if config.mode == "windowed":
                rng = spawn_rng("reverse-init", ms.clips.frame_seed(timeline_seed, j, f))
            else:
                rng = spawn_rng("queue-noise", timeline_seed, j * k + f)
            frames.append(A * rng.standard_normal(shape) + B * shot_mu)
    return keyframes, frames


def max_rel_error(stored: np.ndarray, oracle: np.ndarray) -> float:
    stored = np.asarray(stored, dtype=np.float64)
    return float(np.max(np.abs(stored - oracle) / np.maximum(1.0, np.abs(oracle))))


def check_run(ms, run_dir: Path, story, config) -> list:
    """Problems with a finished run directory; an empty list passes.

    Checks the manifest, the frame tensor's shape and finiteness, and every
    keyframe and frame against the closed-form oracle.
    """
    problems = []
    if not ms.pipeline.verify_manifest(run_dir):
        problems.append("manifest does not match the artifacts")
    frames = ms.tensorio.read_tensor_file(run_dir / ms.pipeline.FRAMES_FILE)
    expected = (config.n_shots * config.frames_per_shot,) + tuple(config.latent_shape)
    if frames.shape != expected:
        return problems + [f"frames.vgt has shape {frames.shape}, expected {expected}"]
    if not np.isfinite(frames).all():
        problems.append("frames.vgt holds non-finite values")
    keyframes, oracle_frames = oracle_run(ms, story, config)
    frame_err = max(max_rel_error(f, o) for f, o in zip(frames, oracle_frames))
    if frame_err > REL_TOL:
        problems.append(f"frames differ from the oracle by {frame_err:.3g} (tol {REL_TOL:.3g})")
    key_dir = run_dir / ms.pipeline.KEYFRAME_DIR
    key_err = max(
        max_rel_error(ms.tensorio.read_tensor_file(key_dir / f"shot_{j:04d}.vgt"), o)
        for j, o in enumerate(keyframes)
    )
    if key_err > REL_TOL:
        problems.append(f"keyframes differ from the oracle by {key_err:.3g} (tol {REL_TOL:.3g})")
    return problems

