"""Core diffusion mechanics: schedules, forward noising, deterministic
reverse steps, and the exactly solvable Gaussian world, which is its own
denoiser.

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
sampler; eta > 0 adds noise drawn from the generator that gave x_T.

``reverse_step`` is the one place a backend or ``ddim_step`` is called
and eta noise is drawn. It works on batches: each row of axis 0 at its own
level, for chains in lockstep and the staggered FIFO queue alike, with one
backend call over the whole batch and then one ``ddim_step`` over the
level vector. Both kernels compute through ``out=`` buffers with the same
operations in the same order as the textbook expressions above, and each
row from that row alone, so a batched row is bitwise the single step.

Neither kernel works out a level's scalars per call. A schedule is its
betas, which ``NoiseSchedule`` checks; it derives from them, once,
read-only tables of a_t, sqrt(a_t) and sqrt(1 - a_t) by level, which
``ddim_step`` indexes with its level vector. ``analytic_eps`` indexes in
the same way five read-only columns built from those tables per
(schedule, sigma0) at the first call and kept on the schedule. An int
level gives a 0-d view, which a ufunc takes faster than a Python float;
with the float64 means every mean map here returns, each product rounds
as the textbook's does.

The analytic backend treats clean data as x0 ~ N(mu(c), sigma0^2 I) for a
condition-dependent mean mu(c). The posterior mean of x0 given x_t is then
closed-form, so the "predicted noise" is exact:

    E[x0 | x_t] = (sqrt(a_t) sigma0^2 x_t + (1 - a_t) mu) / (a_t sigma0^2 + 1 - a_t)
    eps_hat     = (x_t - sqrt(a_t) E[x0 | x_t]) / sqrt(1 - a_t)

:class:`GaussianWorld` is the reference ``DenoiserBackend``: calling it
returns :func:`analytic_eps`. This makes the whole sampling pipeline
verifiable against hand algebra and Monte Carlo, with no trained model
anywhere.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Optional, Protocol, Sequence

import numpy as np

from .errors import ConfigError, NumericError, ScheduleError, ShapeError


@dataclass(frozen=True)
class NoiseSchedule:
    """A schedule is its per-step variance increments ``betas``: it refuses
    (``ConfigError``) all but a non-empty 1-D array of values in (0, 1), of
    length T, and keeps a read-only float copy. Everything else is derived
    from them once, as read-only tables of length T + 1 indexed by level.
    ``by_level[t]`` is alpha_bar(t), the cumulative product of 1 - beta
    with alpha_bar(0) == 1, so a level vector looks all its rows up at
    once; ``signal_by_level`` and ``noise_by_level`` hold sqrt(alpha_bar(t))
    and sqrt(1 - alpha_bar(t)).
    ``eps_coefficients`` holds the analytic backend's per-level columns,
    one set per prior std, filled on first use (see :func:`analytic_eps`).
    """

    betas: np.ndarray
    T: int = field(init=False)
    by_level: np.ndarray = field(init=False, repr=False, compare=False)
    signal_by_level: np.ndarray = field(init=False, repr=False, compare=False)
    noise_by_level: np.ndarray = field(init=False, repr=False, compare=False)
    eps_coefficients: dict = field(
        init=False, repr=False, compare=False, default_factory=dict
    )

    def __post_init__(self):
        betas = self.betas
        if not (isinstance(betas, np.ndarray) and betas.ndim == 1 and betas.size
                and np.all((betas > 0) & (betas < 1))):
            raise ConfigError(f"betas must be a non-empty 1-D array in (0, 1), got {betas!r}")
        betas = betas.astype(float)
        table = np.concatenate(([1.0], np.cumprod(1.0 - betas)))
        tables = {"betas": betas, "by_level": table, "signal_by_level": np.sqrt(table),
                  "noise_by_level": np.sqrt(1.0 - table)}
        for name, values in tables.items():
            values.flags.writeable = False
            object.__setattr__(self, name, values)
        object.__setattr__(self, "T", len(self.betas))

    def alpha_bar(self, t: int) -> float:
        """Cumulative signal fraction at step t, with alpha_bar(0) == 1."""
        if not 0 <= t <= self.T:
            raise ScheduleError(f"step {t} outside [0, {self.T}]")
        return float(self.by_level[t])


def make_schedule(T: int, beta_start: float = 1e-4, beta_end: float = 0.3) -> NoiseSchedule:
    """Linear beta schedule from beta_start to beta_end inclusive.

    Defaults drive alpha_bar(T) to ~2e-4 at T=50 so a unit Gaussian is a
    faithful stand-in for the fully noised marginal. A T below 1 gives no
    betas, which ``NoiseSchedule`` refuses.
    """
    if beta_start > beta_end:
        raise ConfigError(f"beta_start must not exceed beta_end, got [{beta_start}, {beta_end}]")
    return NoiseSchedule(betas=np.linspace(beta_start, beta_end, max(T, 0)))


def add_noise(x0: np.ndarray, eps: np.ndarray, t: int, schedule: NoiseSchedule) -> np.ndarray:
    """Closed-form forward marginal: sqrt(a_t) x0 + sqrt(1 - a_t) eps."""
    if np.shape(x0) != np.shape(eps):
        raise ShapeError(f"x0 {np.shape(x0)} vs eps {np.shape(eps)}")
    if not 1 <= t <= schedule.T:
        raise ScheduleError(f"step {t} outside [1, {schedule.T}]")
    return schedule.signal_by_level[t] * x0 + schedule.noise_by_level[t] * eps


def ddim_step(
    x_t: np.ndarray,
    eps_hat: np.ndarray,
    t,
    t_prev,
    schedule: NoiseSchedule,
    eta: float = 0.0,
    noise: Optional[np.ndarray] = None,
    out: Optional[np.ndarray] = None,
) -> np.ndarray:
    """One reverse step from t to t_prev via predicted x0.

    ``t`` and ``t_prev`` are ints, or int vectors giving each row of axis 0
    its own levels (a scalar applies to every row). The checks run once per
    call, whatever the batch size. With eta = 0 (the engine default) the
    update is fully deterministic; for eta > 0 the standard sigma_t term is
    added and ``noise`` must be supplied explicitly so the function stays
    pure. The result is written to ``out`` when given, which may be
    ``x_t`` itself but must not overlap ``eps_hat`` or ``noise``.
    """
    t, t_prev = np.broadcast_arrays(t, t_prev)
    if t.ndim and t.shape != np.shape(x_t)[:1]:
        raise ShapeError(f"levels {t.shape} vs x_t {np.shape(x_t)}: one level per row")
    bad = np.flatnonzero((t_prev >= t) | (t < 1) | (t > schedule.T) | (t_prev < 0))
    if bad.size:
        row = bad[0]
        raise ScheduleError(
            f"(t={t.flat[row]}, t_prev={t_prev.flat[row]})"
            + (f" in row {row}" if t.ndim else "")
            + f" must satisfy 0 <= t_prev < t <= {schedule.T}"
        )
    if not (0.0 <= eta <= 1.0):
        raise ConfigError(f"eta must lie in [0, 1], got {eta}")
    if eta != 0.0 and noise is None:
        raise ConfigError("eta > 0 requires an explicit noise array")
    if np.shape(x_t) != np.shape(eps_hat):
        raise ShapeError(f"x_t {np.shape(x_t)} vs eps_hat {np.shape(eps_hat)}")
    if noise is not None and np.shape(x_t) != np.shape(noise):
        raise ShapeError(f"x_t {np.shape(x_t)} vs noise {np.shape(noise)}")
    if not (np.isfinite(x_t).all() and np.isfinite(eps_hat).all()):
        raise NumericError("non-finite values in reverse step inputs")

    if t.ndim:  # one level per row, broadcast over the row's axes
        rows = (-1,) + (1,) * (np.ndim(x_t) - 1)
        t, t_prev = t.reshape(rows), t_prev.reshape(rows)
    signal, noise_scale = schedule.signal_by_level, schedule.noise_by_level
    if out is None:
        out = np.empty(np.shape(x_t))
    scratch = np.multiply(eps_hat, noise_scale[t], out=np.empty_like(out))
    np.subtract(x_t, scratch, out=out)
    out /= signal[t]  # x0_pred
    out *= signal[t_prev]
    if eta == 0.0:
        out += np.multiply(eps_hat, noise_scale[t_prev], out=scratch)
        return out

    a_t, a_p = schedule.by_level[t], schedule.by_level[t_prev]
    sigma = eta * np.sqrt((1.0 - a_p) / (1.0 - a_t)) * np.sqrt(1.0 - a_t / a_p)
    # Squared one row at a time: NumPy squares an array as sigma * sigma,
    # which can round differently from the power a single step takes.
    sigma2 = np.reshape([s**2 for s in np.ravel(sigma).tolist()], np.shape(sigma))
    out += np.multiply(eps_hat, np.sqrt(np.maximum(1.0 - a_p - sigma2, 0.0)), out=scratch)
    out += np.multiply(noise, sigma, out=scratch)
    return out


class DenoiserBackend(Protocol):
    """Pure evaluation contract: (x (B, ...), levels, conds, schedule) ->
    eps_hat (B, ...), a new array. Row b of ``x`` is at level ``levels``
    (an int, for every row) or ``levels[b]`` (an int vector), under
    ``conds[b]``."""

    def __call__(self, x: np.ndarray, levels, conds: Sequence,
                 schedule: NoiseSchedule) -> np.ndarray:
        ...


@dataclass(frozen=True)
class GaussianWorld:
    """The toy data distribution x0 ~ N(mean_map(c), sigma0^2 I), and the
    ``DenoiserBackend`` that predicts its noise exactly.

    ``mean_map`` must be pure: the same condition always maps to the same
    mean, and callers must not write to the array it returns. That is what
    lets :meth:`PipelineConfig.world` memoise it per condition."""

    sigma0: float
    mean_map: Callable[[object], np.ndarray]

    def __post_init__(self):
        if self.sigma0 < 0:
            raise ConfigError(f"prior std must be nonnegative, got {self.sigma0}")

    def __call__(self, x: np.ndarray, levels, conds: Sequence,
                 schedule: NoiseSchedule) -> np.ndarray:
        return analytic_eps(x, levels, self, conds, schedule)


def analytic_eps(
    x: np.ndarray,
    levels,
    world: GaussianWorld,
    conds: Sequence,
    schedule: NoiseSchedule,
) -> np.ndarray:
    """Exact noise prediction under the Gaussian world (see module header)
    for every row of ``x``, as a new float64 array: row b at ``levels``
    (an int) or ``levels[b]`` (an int vector), under ``conds[b]``. Row b
    is computed from row b alone, so it is bitwise its batch of one."""
    if np.ndim(levels) and np.shape(levels) != (len(x),):
        raise ShapeError(f"levels {np.shape(levels)} vs x {x.shape}: one level per row")
    flat = np.ravel(levels)
    bad = np.flatnonzero((flat < 1) | (flat > schedule.T))
    if bad.size:
        raise ScheduleError(f"step {flat[bad[0]]} outside [1, {schedule.T}]")
    columns = schedule.eps_coefficients.get(world.sigma0)
    if columns is None:
        columns = _eps_coefficients(world.sigma0, schedule)
    x_scale, mu_scale, denom, signal, noise_scale = columns
    # an int level reads a 0-d view, a level vector a (B, 1, ...) column
    at = levels if not np.ndim(levels) else np.reshape(levels, (-1,) + (1,) * (x.ndim - 1))
    mu = np.array([world.mean_map(cond) for cond in conds], dtype=float)
    if mu.shape != x.shape:
        raise ShapeError(f"{len(conds)} means of shape {mu.shape[1:]} for x {x.shape}")
    mu *= mu_scale[at, ...]
    out = np.multiply(x, x_scale[at, ...], out=np.empty(x.shape))
    out += mu
    out /= denom[at, ...]  # E[x0 | x_t]
    out *= signal[at, ...]
    np.subtract(x, out, out=out)
    out /= noise_scale[at, ...]
    return out


def _eps_coefficients(sigma0: float, schedule: NoiseSchedule) -> tuple:
    """``analytic_eps``'s five read-only columns, indexed by level t:
    sqrt(a) sigma0^2, 1 - a, a sigma0^2 + 1 - a, sqrt(a) and sqrt(1 - a)
    for a = alpha_bar(t) (see the module header), built from the
    schedule's tables. They are kept in ``schedule.eps_coefficients``
    under ``sigma0``; two threads that miss at once build equal columns and
    keep the first, so a lookup takes no lock."""
    s2 = sigma0**2
    a, signal = schedule.by_level, schedule.signal_by_level
    columns = (signal * s2, 1.0 - a, a * s2 + (1.0 - a), signal, schedule.noise_by_level)
    for column in columns:
        column.flags.writeable = False
    return schedule.eps_coefficients.setdefault(sigma0, columns)


def reverse_step(
    denoiser: DenoiserBackend, x: np.ndarray, levels, conds: Sequence, schedule: NoiseSchedule,
    eta: float = 0.0, rngs: Sequence[np.random.Generator] = (), out: Optional[np.ndarray] = None,
) -> np.ndarray:
    """Denoise the batch in one backend call, row b at ``levels[b]`` under
    ``conds[b]``, then step it one level down in one ``ddim_step`` with
    ``eta`` and ``out``, row b's noise drawn from ``rngs[b]`` at eta > 0.
    ``levels`` is an int array, one per row, or an int, which keeps
    ``ddim_step`` on its faster scalar path; the backend gets it as given.
    An eps_hat of another shape than ``x``, or a wrong count of conditions
    or generators, is refused."""
    if len(conds) != len(x) or (eta != 0.0 and len(rngs) != len(x)):
        raise ShapeError(f"{len(conds)} conditions and {len(rngs)} generators for {len(x)} rows")
    eps_hat = denoiser(x, levels, conds, schedule)
    if np.shape(eps_hat) != x.shape:
        raise ShapeError(f"denoiser returned {np.shape(eps_hat)} for x {x.shape}")
    noise = None if eta == 0.0 else np.empty_like(x)
    if noise is not None:
        for rng, noise_row in zip(rngs, noise):
            rng.standard_normal(out=noise_row)
    return ddim_step(x, eps_hat, levels, levels - 1, schedule, eta=eta, noise=noise, out=out)


def sample_reverse(
    denoiser: DenoiserBackend,
    conds: Sequence,
    schedule: NoiseSchedule,
    rngs: Sequence[np.random.Generator],
    shape: tuple,
    eta: float = 0.0,
) -> np.ndarray:
    """B full reverse chains in lockstep, returned as a (B, *shape) array.

    Row b draws x_T ~ N(0, I) and then one eta noise per level from
    ``rngs[b]``, and is denoised under ``conds[b]`` through every step
    T..1, one ``reverse_step`` per level for the whole batch. Each row is
    bitwise the chain a batch of one would give, and deterministic given
    (generator state, cond, schedule, denoiser, eta).
    """
    x = np.empty((len(rngs),) + tuple(shape))
    for row, rng in zip(x, rngs):
        rng.standard_normal(out=row)
    for t in range(schedule.T, 0, -1):
        reverse_step(denoiser, x, t, conds, schedule, eta=eta, rngs=rngs, out=x)
    return x
