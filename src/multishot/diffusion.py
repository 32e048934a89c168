"""Core diffusion mechanics: schedules, forward noising, deterministic
reverse steps, and the exactly solvable Gaussian denoiser.

Conventions
-----------
Steps are 1-based: t runs over 1..T and matches the cumulative product
table, with t_prev = 0 meaning "fully denoised" and alpha_bar(0) == 1.

Key identities implemented:

    forward marginal   x_t = sqrt(a_t) x0 + sqrt(1 - a_t) eps
    reverse update     x0_pred = (x_t - sqrt(1 - a_t) eps_hat) / sqrt(a_t)
                       x_prev  = sqrt(a_p) x0_pred + sqrt(1 - a_p) eps_hat

where a_t is the cumulative product of per-step (1 - beta). The reverse
update is the deterministic (eta = 0) limit of the usual non-Markovian
sampler; a stochastic term can be enabled with eta > 0 and explicit noise.

The analytic backend treats clean data as x0 ~ N(mu(c), sigma0^2 I) for a
condition-dependent mean mu(c). The posterior mean of x0 given x_t is then
closed-form, so the "predicted noise" is exact:

    E[x0 | x_t] = (sqrt(a_t) sigma0^2 x_t + (1 - a_t) mu) / (a_t sigma0^2 + 1 - a_t)
    eps_hat     = (x_t - sqrt(a_t) E[x0 | x_t]) / sqrt(1 - a_t)

This makes the whole sampling pipeline verifiable against hand algebra and
Monte Carlo, with no trained model anywhere.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional, Protocol

import numpy as np

from .errors import ConfigError, NumericError, ScheduleError, ShapeError
from .seeds import spawn_rng

#: Default latent shape (h, w, d): large enough for identity channels plus
#: style statistics, small enough for sub-second tests.
DEFAULT_SHAPE = (8, 8, 8)


@dataclass(frozen=True)
class NoiseSchedule:
    """Per-step variance increments and their cumulative products.

    ``betas``, ``alphas`` and ``alpha_bars`` all have length T and are
    indexed by t - 1 in storage; use :meth:`alpha_bar` for the 1-based view
    with the alpha_bar(0) == 1 convention.
    """

    betas: np.ndarray
    alphas: np.ndarray
    alpha_bars: np.ndarray

    @property
    def T(self) -> int:
        return len(self.betas)

    def alpha_bar(self, t: int) -> float:
        """Cumulative signal fraction at step t, with alpha_bar(0) == 1."""
        if t == 0:
            return 1.0
        if not 1 <= t <= self.T:
            raise ScheduleError(f"step {t} outside [0, {self.T}]")
        return float(self.alpha_bars[t - 1])


def make_schedule(T: int, beta_start: float = 1e-4, beta_end: float = 0.3) -> NoiseSchedule:
    """Linear beta schedule from beta_start to beta_end inclusive.

    Defaults drive alpha_bar(T) to ~2e-4 at T=50 so a unit Gaussian is a
    faithful stand-in for the fully noised marginal.
    """
    if T < 1:
        raise ConfigError(f"need at least one step, got T={T}")
    if not (0.0 < beta_start <= beta_end < 1.0):
        raise ConfigError(
            f"betas must satisfy 0 < start <= end < 1, got [{beta_start}, {beta_end}]"
        )
    betas = np.linspace(beta_start, beta_end, T)
    alphas = 1.0 - betas
    return NoiseSchedule(betas=betas, alphas=alphas, alpha_bars=np.cumprod(alphas))


def add_noise(x0: np.ndarray, eps: np.ndarray, t: int, schedule: NoiseSchedule) -> np.ndarray:
    """Closed-form forward marginal: sqrt(a_t) x0 + sqrt(1 - a_t) eps."""
    if np.shape(x0) != np.shape(eps):
        raise ShapeError(f"x0 {np.shape(x0)} vs eps {np.shape(eps)}")
    if not 1 <= t <= schedule.T:
        raise ScheduleError(f"step {t} outside [1, {schedule.T}]")
    a = schedule.alpha_bar(t)
    return np.sqrt(a) * x0 + np.sqrt(1.0 - a) * eps


def ddim_step(
    x_t: np.ndarray,
    eps_hat: np.ndarray,
    t: int,
    t_prev: int,
    schedule: NoiseSchedule,
    eta: float = 0.0,
    noise: Optional[np.ndarray] = None,
) -> np.ndarray:
    """One deterministic reverse step from t to t_prev via predicted x0.

    With eta = 0 (the engine default) the update is fully deterministic.
    For eta > 0 the standard sigma_t term is added and ``noise`` must be
    supplied explicitly so the function stays pure.
    """
    if t_prev >= t:
        raise ScheduleError(f"t_prev={t_prev} must be below t={t}")
    if not (1 <= t <= schedule.T) or t_prev < 0:
        raise ScheduleError(f"(t={t}, t_prev={t_prev}) outside schedule range")
    if not (0.0 <= eta <= 1.0):
        raise ConfigError(f"eta must lie in [0, 1], got {eta}")
    if np.shape(x_t) != np.shape(eps_hat):
        raise ShapeError(f"x_t {np.shape(x_t)} vs eps_hat {np.shape(eps_hat)}")
    if not (np.isfinite(x_t).all() and np.isfinite(eps_hat).all()):
        raise NumericError("non-finite values in reverse step inputs")

    a_t = schedule.alpha_bar(t)
    a_p = schedule.alpha_bar(t_prev)
    x0_pred = (x_t - np.sqrt(1.0 - a_t) * eps_hat) / np.sqrt(a_t)
    if eta == 0.0:
        return np.sqrt(a_p) * x0_pred + np.sqrt(1.0 - a_p) * eps_hat

    sigma = eta * np.sqrt((1.0 - a_p) / (1.0 - a_t)) * np.sqrt(1.0 - a_t / a_p)
    if noise is None:
        raise ConfigError("eta > 0 requires an explicit noise array")
    direction = np.sqrt(max(1.0 - a_p - sigma**2, 0.0)) * eps_hat
    return np.sqrt(a_p) * x0_pred + direction + sigma * noise


class DenoiserBackend(Protocol):
    """Pure evaluation contract: (x_t, t, condition, schedule) -> eps_hat."""

    def __call__(self, x_t: np.ndarray, t: int, cond, schedule: NoiseSchedule) -> np.ndarray:
        ...


@dataclass(frozen=True)
class GaussianWorld:
    """The toy data distribution x0 ~ N(mean_map(c), sigma0^2 I).

    ``mean_map`` must be pure: the same condition always maps to the same
    mean, and callers must not write to the array it returns. That is what
    lets :meth:`PipelineConfig.world` memoise it per condition."""

    sigma0: float
    mean_map: Callable[[object], np.ndarray]

    def __post_init__(self):
        if self.sigma0 < 0:
            raise ConfigError(f"prior std must be nonnegative, got {self.sigma0}")


def analytic_eps(
    x_t: np.ndarray, t: int, world: GaussianWorld, cond, schedule: NoiseSchedule
) -> np.ndarray:
    """Exact noise prediction under the Gaussian world (see module header)."""
    if not 1 <= t <= schedule.T:
        raise ScheduleError(f"step {t} outside [1, {schedule.T}]")
    mu = world.mean_map(cond)
    if np.shape(mu) != np.shape(x_t):
        raise ShapeError(f"mean {np.shape(mu)} vs x_t {np.shape(x_t)}")
    a = schedule.alpha_bar(t)
    s2 = world.sigma0**2
    denom = a * s2 + (1.0 - a)
    x0_post = (np.sqrt(a) * s2 * x_t + (1.0 - a) * mu) / denom
    return (x_t - np.sqrt(a) * x0_post) / np.sqrt(1.0 - a)


@dataclass(frozen=True)
class AnalyticDenoiser:
    """DenoiserBackend wrapping :func:`analytic_eps` for a fixed world."""

    world: GaussianWorld

    def __call__(self, x_t: np.ndarray, t: int, cond, schedule: NoiseSchedule) -> np.ndarray:
        return analytic_eps(x_t, t, self.world, cond, schedule)


def sample_reverse(
    denoiser: DenoiserBackend,
    cond,
    schedule: NoiseSchedule,
    seed: int,
    shape: tuple = DEFAULT_SHAPE,
) -> np.ndarray:
    """Full reverse chain from seeded x_T ~ N(0, I) down to a clean latent.

    Deterministic given (seed, cond, schedule, denoiser). The chain visits
    every step T..1 with the eta = 0 update.
    """
    x = spawn_rng("reverse-init", seed).standard_normal(shape)
    for t in range(schedule.T, 0, -1):
        eps_hat = denoiser(x, t, cond, schedule)
        x = ddim_step(x, eps_hat, t, t - 1, schedule)
    return x
