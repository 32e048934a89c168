"""Schedule algebra, forward/reverse exactness, and the analytic denoiser."""

import sys
import threading
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from multishot.conditioning import Condition, encode_text_mock
from multishot.config import PipelineConfig
from multishot.diffusion import (
    GaussianWorld,
    NoiseSchedule,
    add_noise,
    analytic_eps,
    ddim_step,
    make_schedule,
    reverse_step,
    sample_reverse,
)
from multishot.errors import ConfigError, NumericError, ScheduleError, ShapeError
from multishot.seeds import spawn_rng


def arr(*values):
    return np.array(values, dtype=float)


# --- make_schedule ----------------------------------------------------------


def test_schedule_hand_example():
    # products of (1 - beta) computed by hand: 0.9, 0.9*0.8, 0.9*0.8*0.7, ...
    sched = make_schedule(4, 0.1, 0.4)
    np.testing.assert_allclose(sched.betas, [0.1, 0.2, 0.3, 0.4], rtol=0, atol=1e-15)
    np.testing.assert_allclose(
        sched.by_level[1:], [0.9, 0.72, 0.504, 0.3024], rtol=1e-12
    )


def test_schedule_single_step():
    sched = make_schedule(1, 0.1, 0.1)
    np.testing.assert_allclose(sched.by_level[1:], [0.9], rtol=1e-15)


@pytest.mark.parametrize(
    "T,start,end",
    [(0, 0.1, 0.2), (-1, 0.1, 0.2), (4, 0.0, 0.2), (4, 0.3, 0.2), (4, 0.1, 1.0), (4, -0.1, 0.2)],
)
def test_schedule_rejects_bad_bounds(T, start, end):
    with pytest.raises(ConfigError):
        make_schedule(T, start, end)


@pytest.mark.parametrize(
    "betas",
    [[0.1, 0.2], np.array([]), np.array([0.0, 0.1]), np.array([0.1, 1.0]),
     np.array([0.1, np.nan]), np.full((2, 2), 0.1)],
    ids=["list", "empty", "zero", "one", "nan", "2-d"],
)
def test_schedule_refuses_bad_betas(betas):
    with pytest.raises(ConfigError, match="^betas must be a non-empty 1-D array"):
        NoiseSchedule(betas)


def test_schedule_product_identity():
    sched = make_schedule(50)
    for t in range(2, sched.T + 1):
        ratio = sched.alpha_bar(t) / sched.alpha_bar(t - 1)
        assert abs(ratio - (1.0 - sched.betas[t - 1])) < 1e-12
    assert sched.alpha_bar(0) == 1.0
    assert sched.alpha_bar(sched.T) > 0
    assert np.all(np.diff(sched.by_level[1:]) < 0)
    assert np.all(np.diff(sched.betas) >= 0)


def test_alpha_bar_range_check():
    sched = make_schedule(4, 0.1, 0.4)
    for t in (-1, 5):
        with pytest.raises(ScheduleError, match=r"outside \[0, 4\]"):
            sched.alpha_bar(t)


# --- add_noise --------------------------------------------------------------


def test_add_noise_scalar_case():
    sched = make_schedule(1, 0.36, 0.36)  # alpha_bar(1) = 0.64
    out = add_noise(arr(2.0), arr(1.0), 1, sched)
    np.testing.assert_allclose(out, [0.8 * 2.0 + 0.6 * 1.0], rtol=1e-12)


def test_add_noise_zero_inputs():
    sched = make_schedule(3, 0.1, 0.3)
    out = add_noise(np.zeros(4), np.zeros(4), 2, sched)
    np.testing.assert_array_equal(out, np.zeros(4))


def test_add_noise_no_noise_limit():
    # alpha_bar ~ 1 recovers x0
    sched = make_schedule(1, 1e-12, 1e-12)
    x0 = arr(1.5, -2.0, 0.25)
    np.testing.assert_allclose(add_noise(x0, arr(1.0, 1.0, 1.0), 1, sched), x0, atol=1e-6)


def test_add_noise_errors():
    sched = make_schedule(3, 0.1, 0.3)
    with pytest.raises(ShapeError):
        add_noise(np.zeros(3), np.zeros(4), 1, sched)
    for t in (0, 4):
        with pytest.raises(ScheduleError):
            add_noise(np.zeros(3), np.zeros(3), t, sched)


def test_add_noise_marginal_statistics():
    # 1e4 seeded draws: mean sqrt(a) x0, variance (1 - a), both within 5%.
    sched = make_schedule(10, 0.05, 0.5)
    t = 6
    a = sched.alpha_bar(t)
    x0 = spawn_rng("marginal-x0").standard_normal((2, 2, 2))
    rng = spawn_rng("marginal-eps")
    draws = np.stack([add_noise(x0, rng.standard_normal(x0.shape), t, sched) for _ in range(10_000)])
    np.testing.assert_allclose(draws.mean(axis=0), np.sqrt(a) * x0, atol=0.05)
    pooled_var = np.mean(draws.var(axis=0))
    assert abs(pooled_var / (1.0 - a) - 1.0) < 0.05


# --- ddim_step --------------------------------------------------------------


def test_ddim_inverts_hand_example():
    sched = make_schedule(1, 0.36, 0.36)
    out = ddim_step(arr(2.2), arr(1.0), 1, 0, sched)
    np.testing.assert_allclose(out, [2.0], rtol=1e-12)


def test_ddim_identity_when_alpha_bars_equal():
    # with eps_hat = 0 and alpha_bar(t) ~ alpha_bar(t_prev), x is unchanged
    sched = make_schedule(2, 1e-15, 1e-15)
    x = arr(0.7, -1.3)
    np.testing.assert_allclose(ddim_step(x, np.zeros(2), 2, 1, sched), x, atol=1e-9)


def test_exact_inversion_thousand_cases():
    sched = make_schedule(50)
    rng = spawn_rng("inversion")
    for _ in range(1000):
        t = int(rng.integers(1, 51))
        x0 = rng.standard_normal(6)
        eps = rng.standard_normal(6)
        x_t = add_noise(x0, eps, t, sched)
        np.testing.assert_allclose(ddim_step(x_t, eps, t, 0, sched), x0, atol=1e-9)


@settings(max_examples=50, deadline=None)
@given(
    t=st.integers(min_value=1, max_value=50),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
)
def test_exact_inversion_property(t, seed):
    sched = make_schedule(50)
    rng = np.random.default_rng(seed)
    x0 = rng.standard_normal((3, 2))
    eps = rng.standard_normal((3, 2))
    recovered = ddim_step(add_noise(x0, eps, t, sched), eps, t, 0, sched)
    np.testing.assert_allclose(recovered, x0, atol=1e-9)


def test_ddim_errors():
    sched = make_schedule(4, 0.1, 0.4)
    x = np.zeros(3)
    with pytest.raises(ScheduleError):
        ddim_step(x, x, 2, 2, sched)
    with pytest.raises(ScheduleError):
        ddim_step(x, x, 2, 3, sched)
    with pytest.raises(NumericError):
        ddim_step(np.array([np.nan, 0, 0]), x, 2, 1, sched)
    with pytest.raises(ConfigError):
        ddim_step(x, x, 2, 1, sched, eta=1.5)
    with pytest.raises(ConfigError):
        ddim_step(x, x, 2, 1, sched, eta=0.5)  # stochastic step needs noise
    with pytest.raises(ShapeError, match="eps_hat"):
        ddim_step(x, np.zeros(4), 2, 1, sched)
    # an eta noise array must have x_t's shape: neither broadcast one draw
    # to every row nor fail inside numpy
    batch = np.zeros((3, 2, 2, 2))
    for noise_shape in [(2, 2, 2), (3, 2, 2, 2, 1)]:
        with pytest.raises(ShapeError, match="noise"):
            ddim_step(batch, batch, 2, 1, sched, eta=0.5, noise=np.zeros(noise_shape))


def test_ddim_eta_zero_at_final_step_matches_stochastic_formula():
    # sigma vanishes at t_prev = 0 even with eta = 1
    sched = make_schedule(4, 0.1, 0.4)
    x = arr(1.0, 2.0)
    eps = arr(0.5, -0.5)
    with_noise = ddim_step(x, eps, 1, 0, sched, eta=1.0, noise=np.ones(2))
    np.testing.assert_allclose(with_noise, ddim_step(x, eps, 1, 0, sched), atol=1e-12)


def _textbook_step(x_t, eps_hat, t, t_prev, sched, eta=0.0, noise=None):
    """The reverse step as plain expressions: the in-place kernel must
    give these bits."""
    a_t, a_p = sched.alpha_bar(t), sched.alpha_bar(t_prev)
    x0_pred = (x_t - np.sqrt(1.0 - a_t) * eps_hat) / np.sqrt(a_t)
    if eta == 0.0:
        return np.sqrt(a_p) * x0_pred + np.sqrt(1.0 - a_p) * eps_hat
    sigma = eta * np.sqrt((1.0 - a_p) / (1.0 - a_t)) * np.sqrt(1.0 - a_t / a_p)
    direction = np.sqrt(max(1.0 - a_p - sigma**2, 0.0)) * eps_hat
    return np.sqrt(a_p) * x0_pred + direction + sigma * noise


def _textbook_eps(x_t, t, world, cond, sched):
    """The analytic noise prediction as plain expressions."""
    a, s2, mu = sched.alpha_bar(t), world.sigma0**2, world.mean_map(cond)
    x0_post = (np.sqrt(a) * s2 * x_t + (1.0 - a) * mu) / (a * s2 + (1.0 - a))
    return (x_t - np.sqrt(a) * x0_post) / np.sqrt(1.0 - a)


def _frozen(*arrays):
    """Marks the arrays read-only, so a kernel that writes to one raises."""
    for a in arrays:
        a.flags.writeable = False
    return arrays


@settings(max_examples=150, deadline=None)
@given(
    T=st.integers(min_value=1, max_value=50),
    B=st.integers(min_value=1, max_value=6),
    row_shape=st.lists(st.integers(min_value=1, max_value=3), max_size=3).map(tuple),
    eta=st.sampled_from([0.0, 0.3, 1.0]),
    data=st.data(),
)
def test_level_vector_step_is_each_rows_scalar_step(T, B, row_shape, eta, data):
    sched = make_schedule(T)
    t = data.draw(st.lists(st.integers(1, T), min_size=B, max_size=B), label="t")
    t_prev = [data.draw(st.integers(0, level - 1), label="t_prev") for level in t]
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1), label="seed"))
    x, eps, noise = _frozen(*(rng.standard_normal((B,) + row_shape) for _ in range(3)))
    before = [a.tobytes() for a in (x, eps, noise)]
    batched = ddim_step(x, eps, np.array(t), np.array(t_prev), sched, eta=eta, noise=noise)
    assert batched.shape == x.shape
    for b in range(B):
        single = ddim_step(x[b], eps[b], t[b], t_prev[b], sched, eta=eta, noise=noise[b])
        expected = _textbook_step(x[b], eps[b], t[b], t_prev[b], sched, eta, noise[b])
        assert np.asarray(single).tobytes() == np.asarray(expected).tobytes()
        assert batched[b].tobytes() == np.asarray(expected).tobytes()
    assert [a.tobytes() for a in (x, eps, noise)] == before
    # a bad level in any row fails as the scalar step does
    row = data.draw(st.integers(0, B - 1), label="bad row")
    bad_t, bad_prev = data.draw(st.sampled_from(
        [(t[row], t[row]), (T + 1, 0), (t[row], -1), (0, 0)]), label="bad levels")
    with pytest.raises(ScheduleError):
        ddim_step(x[row], eps[row], bad_t, bad_prev, sched, eta=eta, noise=noise[row])
    t[row], t_prev[row] = bad_t, bad_prev
    with pytest.raises(ScheduleError):
        ddim_step(x, eps, np.array(t), np.array(t_prev), sched, eta=eta, noise=noise)


@pytest.mark.parametrize("eta", [0.3, 1.0])
def test_queue_shaped_steps_match_scalar_steps_for_every_schedule(eta):
    # levels 1..T, one row each, as a full FIFO queue steps them: on a few
    # of these rows NumPy's array square of sigma rounds differently from
    # the scalar power, which this comparison catches
    rng = np.random.default_rng(1)
    for T in range(1, 51):
        sched = make_schedule(T)
        x, eps, noise = rng.standard_normal((3, T, 2))
        levels = np.arange(1, T + 1)
        batched = ddim_step(x, eps, levels, levels - 1, sched, eta=eta, noise=noise)
        for b, t in enumerate(range(1, T + 1)):
            single = ddim_step(x[b], eps[b], t, t - 1, sched, eta=eta, noise=noise[b])
            assert batched[b].tobytes() == single.tobytes(), f"T={T}, t={t}"


def test_ddim_step_in_place_and_level_vector_shape():
    sched = make_schedule(4, 0.1, 0.4)
    rng = np.random.default_rng(0)
    x, eps = rng.standard_normal((2, 2, 3))
    expected = ddim_step(x, eps, 3, 2, sched)
    # out may be x_t itself: the queue and the sampler step in place
    assert ddim_step(x, eps, 3, 2, sched, out=x) is x
    assert x.tobytes() == expected.tobytes()
    with pytest.raises(ShapeError):
        ddim_step(x, eps, np.array([3, 3, 3]), 2, sched)


@pytest.mark.parametrize("levels", [3, np.array([1, 3, 4])], ids=["int", "vector"])
def test_reverse_step_calls_the_backend_once_with_the_batch(levels):
    # the whole batch goes to the backend in one call, with the levels as
    # given and the conditions in row order, and row b's eps_hat is its
    # batch of one; the batch then takes ddim_step's one step
    sched = make_schedule(4, 0.1, 0.4)
    world = _const_world(1.0, 0.5, shape=(2,))
    x = np.random.default_rng(1).standard_normal((3, 2))
    seen = []

    def backend(x, levels, conds, schedule):
        seen.append((x.shape, levels, list(conds)))
        return world(x, levels, conds, schedule)

    per_row = np.broadcast_to(levels, 3)
    eps = np.stack([_eps_row(row, t, world, None, sched) for row, t in zip(x, per_row.tolist())])
    expected = ddim_step(x, eps, per_row, per_row - 1, sched)
    assert reverse_step(backend, x, levels, ["a", "b", "c"], sched).tobytes() == expected.tobytes()
    assert seen == [(x.shape, levels, ["a", "b", "c"])]


def test_reverse_step_draws_each_rows_eta_noise_from_its_generator():
    # at eta > 0 row b's noise is the next draw of rngs[b]; at eta = 0 no
    # generator is read; a generator count other than the row count is
    # refused
    sched = make_schedule(4, 0.1, 0.4)
    world = _const_world(1.0, 0.5, shape=(2,))
    x = np.random.default_rng(1).standard_normal((3, 2))
    levels, conds = np.array([1, 3, 4]), [None] * 3
    eps = np.stack([_eps_row(row, t, world, None, sched) for row, t in zip(x, levels.tolist())])
    noise = np.stack([spawn_rng("row", b).standard_normal(2) for b in range(3)])
    expected = ddim_step(x, eps, levels, levels - 1, sched, eta=0.5, noise=noise)
    rngs = [spawn_rng("row", b) for b in range(3)]
    stepped = reverse_step(world, x, levels, conds, sched, eta=0.5, rngs=rngs)
    assert stepped.tobytes() == expected.tobytes()
    states = [rng.bit_generator.state for rng in rngs]
    reverse_step(world, x, levels, conds, sched, rngs=rngs)
    assert [rng.bit_generator.state for rng in rngs] == states
    for wrong in (rngs[:2], rngs + rngs[:1], ()):
        with pytest.raises(ShapeError, match="generators"):
            reverse_step(world, x, levels, conds, sched, eta=0.5, rngs=wrong)


# --- analytic denoiser ------------------------------------------------------


def _const_world(mu_value, sigma0, shape=(1,)):
    mu = np.full(shape, float(mu_value))
    return GaussianWorld(sigma0=sigma0, mean_map=lambda cond: mu)


def _eps_row(x_t, t, world, cond, sched):
    """``analytic_eps`` of one row at an int level: its batch of one."""
    return analytic_eps(x_t[None], t, world, [cond], sched)[0]


def test_analytic_eps_degenerate_prior():
    sched = make_schedule(1, 0.36, 0.36)
    world = _const_world(1.0, 0.0)
    out = _eps_row(arr(1.0), 1, world, None, sched)
    np.testing.assert_allclose(out, [(1.0 - 0.8) / 0.6], rtol=1e-9)


def test_analytic_eps_zero_mean_unit_prior():
    sched = make_schedule(1, 0.36, 0.36)
    world = _const_world(0.0, 1.0)
    out = _eps_row(arr(1.0), 1, world, None, sched)
    np.testing.assert_allclose(out, [0.6], rtol=1e-9)  # x_t * sqrt(1 - a)


def test_analytic_eps_on_mean_input():
    sched = make_schedule(1, 0.36, 0.36)
    world = _const_world(1.7, 0.0)
    out = _eps_row(arr(0.8 * 1.7), 1, world, None, sched)
    np.testing.assert_allclose(out, [0.0], atol=1e-12)


def test_analytic_eps_matches_monte_carlo_regression():
    # Independent oracle: regress true eps on x_t over 1e5 forward draws;
    # the analytic prediction is the conditional mean, so the regression
    # line must match it.
    sched = make_schedule(1, 0.36, 0.36)
    sigma0, mu = 1.0, 0.0
    rng = spawn_rng("eps-regression")
    x0 = mu + sigma0 * rng.standard_normal(100_000)
    eps = rng.standard_normal(100_000)
    x_t = np.sqrt(0.64) * x0 + 0.6 * eps
    slope, intercept = np.polyfit(x_t, eps, 1)
    world = _const_world(mu, sigma0)
    predicted = _eps_row(arr(1.0), 1, world, None, sched)[0] / 1.0  # slope at mu=0
    assert abs(slope - predicted) < 0.01
    assert abs(intercept) < 0.01


def test_analytic_eps_range_check():
    sched, world = make_schedule(2, 0.1, 0.2), _const_world(0.0, 1.0)
    with pytest.raises(ScheduleError):
        _eps_row(arr(1.0), 3, world, None, sched)
    # a level vector is checked row by row
    for levels, bad in (([1, 3], 3), ([0, 1], 0)):
        with pytest.raises(ScheduleError, match=f"step {bad} "):
            analytic_eps(np.ones((2, 1)), np.array(levels), world, [None] * 2, sched)


def test_analytic_eps_wants_one_level_and_one_condition_per_row():
    sched, world, x = make_schedule(2, 0.1, 0.2), _const_world(0.0, 1.0), np.ones((2, 1))
    with pytest.raises(ShapeError, match="one level per row"):
        analytic_eps(x, np.array([1, 2, 1]), world, [None] * 2, sched)
    with pytest.raises(ShapeError, match="3 means of shape"):
        analytic_eps(x, 1, world, [None] * 3, sched)


def test_analytic_eps_rejects_a_mean_of_another_shape():
    sched = make_schedule(2, 0.1, 0.2)
    with pytest.raises(ShapeError, match="mean"):
        _eps_row(arr(1.0), 1, _const_world(0.0, 1.0, shape=(2,)), None, sched)


def test_analytic_eps_matches_textbook_and_writes_no_input():
    config = PipelineConfig(height=3, width=2, channels=5)
    sched, world = make_schedule(10), config.world()
    cond = Condition(text=encode_text_mock("a tide pool", 16, config.encoder_seed))
    mu = world.mean_map(cond)  # the memo hands out read-only means
    assert not mu.flags.writeable
    [x_t] = _frozen(spawn_rng("eps-out").standard_normal(config.latent_shape))
    # one schedule serves worlds of three prior stds, each at every level
    for sigma0 in (0.0, 0.5, 3.0):
        other = GaussianWorld(sigma0=sigma0, mean_map=world.mean_map)
        for t in range(1, sched.T + 1):
            expected = _textbook_eps(x_t, t, other, cond, sched)
            assert _eps_row(x_t, t, other, cond, sched).tobytes() == expected.tobytes()


def test_analytic_eps_follows_the_schedule_it_is_handed():
    # one world on a 10-step and then a 50-step schedule, each dropped
    # before the next is made from ready arrays, so that in CPython the next
    # takes the freed one's memory and id: coefficients found by that id
    # would be the other schedule's
    config = PipelineConfig(height=2, width=2, channels=5)
    world = config.world()
    cond = Condition(text=encode_text_mock("a salt marsh", 16, config.encoder_seed))
    [x_t] = _frozen(spawn_rng("eps-two-schedules").standard_normal(config.latent_shape))
    betas = {T: make_schedule(T).betas for T in (10, 50)}
    for T in (10, 50, 10, 50):
        sched = NoiseSchedule(betas[T])
        for t in range(1, T + 1):
            expected = _textbook_eps(x_t, t, world, cond, sched)
            assert _eps_row(x_t, t, world, cond, sched).tobytes() == expected.tobytes()
        del sched


def test_analytic_eps_of_a_float32_latent_is_float64():
    sched, world = make_schedule(8), _const_world(0.25, 0.5, shape=(3, 2))
    x_t = spawn_rng("eps-f32").standard_normal((3, 2)).astype(np.float32)
    for t in (1, 4, 8):
        out = _eps_row(x_t, t, world, None, sched)
        assert out.dtype == np.float64
        assert out.tobytes() == _textbook_eps(x_t, t, world, None, sched).tobytes()


@settings(max_examples=60, deadline=None)
@given(
    sigma0=st.sampled_from([0.0, 0.5]),
    dtype=st.sampled_from([np.float64, np.float32]),
    T=st.integers(min_value=1, max_value=12),
    B=st.integers(min_value=1, max_value=5),
    shape=st.tuples(st.integers(1, 3), st.integers(1, 3), st.integers(5, 7)),
    seed=st.integers(0, 2**16),
    data=st.data(),
)
def test_shipped_backend_conformance(sigma0, dtype, T, B, shape, seed, data):
    # the DenoiserBackend the package ships, on a batch of mixed levels and
    # conditions: a new float64 (B, ...) array, the same on every call,
    # written to neither x nor a cached mean, an int level the same as its
    # vector, and each row bitwise that row's batch of one
    config = PipelineConfig(height=shape[0], width=shape[1], channels=shape[2], sigma0=sigma0)
    world, sched = config.world(), make_schedule(T)
    texts = data.draw(st.lists(st.sampled_from(["a reef", "a dune", "a fjord"]),
                               min_size=B, max_size=B), label="texts")
    conds = [Condition(text=encode_text_mock(text, 16, config.encoder_seed)) for text in texts]
    levels = np.array(data.draw(st.lists(st.integers(1, T), min_size=B, max_size=B),
                                label="levels"))
    [x] = _frozen(spawn_rng("conformance", seed).standard_normal((B,) + shape).astype(dtype))
    means = [world.mean_map(cond) for cond in conds]
    before = [mean.tobytes() for mean in means]
    eps = world(x, levels, conds, sched)
    assert eps.shape == x.shape and eps.dtype == np.float64
    assert world(x, levels, conds, sched).tobytes() == eps.tobytes()
    assert [mean.tobytes() for mean in means] == before
    for b, t in enumerate(levels.tolist()):
        assert world(x[b:b + 1], t, conds[b:b + 1], sched)[0].tobytes() == eps[b].tobytes()
    t = int(levels[0])
    assert (world(x, t, conds, sched).tobytes()
            == world(x, np.full(B, t), conds, sched).tobytes())


def test_two_threads_on_one_fresh_world_match_one_thread():
    # the two chains build the schedule's coefficient table and the world's
    # mean memo at once; neither takes a lock to read them
    config = PipelineConfig(height=3, width=2, channels=5)
    cond = Condition(text=encode_text_mock("a kelp forest", 16, config.encoder_seed))
    seeds = (21, 22)
    alone = [sample_reverse(config.world(), [cond], make_schedule(30),
                            [spawn_rng("reverse-init", seed)], config.latent_shape)
             for seed in seeds]
    world, sched = config.world(), make_schedule(30)
    start = threading.Barrier(2, timeout=60)

    def chain(seed):
        start.wait()
        return sample_reverse(world, [cond], sched, [spawn_rng("reverse-init", seed)],
                              config.latent_shape)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)  # switch threads often, inside the table build too
    try:
        with ThreadPoolExecutor(max_workers=2) as pool:
            shared = list(pool.map(chain, seeds, timeout=60))
    finally:
        sys.setswitchinterval(interval)
    assert [x.tobytes() for x in shared] == [x.tobytes() for x in alone]
    assert list(sched.eps_coefficients) == [config.sigma0]


def test_schedule_tables_are_read_only():
    betas = np.linspace(0.1, 0.3, 6)
    sched = NoiseSchedule(betas)
    # the schedule keeps its own copy: a write to the caller's array
    # changes neither its betas nor the tables derived from them
    betas[0] = 0.5
    assert sched.betas[0] == 0.1 and sched.by_level[1] == 1.0 - sched.betas[0]
    _const_world(0.0, 0.5)(np.ones((1, 1)), 3, [None], sched)
    [columns] = sched.eps_coefficients.values()
    assert len(columns) == 5 and all(c.shape == (sched.T + 1,) for c in columns)
    tables = [sched.betas, sched.by_level, sched.signal_by_level, sched.noise_by_level]
    for table in tables + list(columns):
        with pytest.raises(ValueError):
            table[...] = 0.0
    assert sched.T == 6
    np.testing.assert_array_equal(sched.signal_by_level, np.sqrt(sched.by_level))
    np.testing.assert_array_equal(sched.noise_by_level, np.sqrt(1.0 - sched.by_level))


# --- sample_reverse ---------------------------------------------------------


def test_sample_reverse_collapses_to_mean_when_sigma0_zero():
    sched = make_schedule(50)
    mu = spawn_rng("mu").standard_normal((4, 4, 2))
    world = GaussianWorld(sigma0=0.0, mean_map=lambda cond: mu)
    for seed in (0, 7, 123):
        [out] = sample_reverse(world, [None], sched, [spawn_rng("reverse-init", seed)], mu.shape)
        np.testing.assert_allclose(out, mu, atol=1e-6)


def test_sample_reverse_deterministic():
    sched = make_schedule(20)
    cond = Condition(text=encode_text_mock("north shore at dawn"))
    mu = spawn_rng("mu2").standard_normal((3, 3, 2))
    world = GaussianWorld(sigma0=0.5, mean_map=lambda c: mu)
    [a] = sample_reverse(world, [cond], sched, [spawn_rng("reverse-init", 42)], mu.shape)
    [b] = sample_reverse(world, [cond], sched, [spawn_rng("reverse-init", 42)], mu.shape)
    assert np.array_equal(a, b)
    [c] = sample_reverse(world, [cond], sched, [spawn_rng("reverse-init", 43)], mu.shape)
    assert not np.array_equal(a, c)


def _single_chain(world, cond, sched, seed, shape, eta=0.0):
    """One chain, one textbook step at a time: the reference for every row
    of a batched sample_reverse. Its generator gives x_T, then at eta > 0
    one noise draw per level T..1."""
    rng = spawn_rng("reverse-init", seed)
    x = rng.standard_normal(shape)
    for t in range(sched.T, 0, -1):
        noise = rng.standard_normal(shape) if eta else None
        x = _textbook_step(x, _textbook_eps(x, t, world, cond, sched), t, t - 1, sched, eta, noise)
    return x


def test_sample_reverse_batch_rows_equal_single_chains():
    config = PipelineConfig(height=4, width=3, channels=5)
    sched, world = make_schedule(12), config.world()
    conds = [Condition(text=encode_text_mock(f"shot {j}", 16, config.encoder_seed))
             for j in range(3)]
    conds.append(conds[0])  # a condition may repeat within a batch
    seeds = [5, 6, 7, 5]
    for eta in (0.0, 0.5):
        rngs = [spawn_rng("reverse-init", seed) for seed in seeds]
        batch = sample_reverse(world, conds, sched, rngs, config.latent_shape, eta)
        assert batch.shape == (4,) + config.latent_shape
        for row, cond, seed in zip(batch, conds, seeds):
            expected = _single_chain(world, cond, sched, seed, config.latent_shape, eta)
            assert row.tobytes() == expected.tobytes()
        with pytest.raises(ShapeError):
            sample_reverse(world, conds, sched, rngs[:2], config.latent_shape, eta)


def test_gaussian_world_rejects_negative_std():
    with pytest.raises(ConfigError):
        GaussianWorld(sigma0=-0.1, mean_map=lambda c: np.zeros(1))
