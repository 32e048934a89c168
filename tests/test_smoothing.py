"""The FIFO queue engine: structure, conditioning purity, reset boundary,
emission order, and mode agreement."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from multishot.clips import frame_seed
from multishot.conditioning import Condition, MeanProjector, encode_text_mock
from multishot.config import PipelineConfig
from multishot.diffusion import (
    GaussianWorld,
    analytic_eps,
    ddim_step,
    sample_reverse,
)
from multishot.errors import ConfigError, ShapeError, StateError
from multishot.metrics import IdentityChannelMean
from multishot.pipeline import build_story, generate_timeline, render_keyframes
from multishot.smoothing import (
    FrameStream,
    build_plan,
    init_queue,
    run_timeline,
    shot_for_frame,
    tick,
)
from multishot.seeds import derive_seed, spawn_rng

STORY_INPUT = "the orchard year of a beekeeper named Wren"


@pytest.fixture(scope="module")
def small_chain():
    # N=2 shots, k=3 frames, T=4 steps: small enough to trace by hand
    config = PipelineConfig(n_shots=2, frames_per_shot=3, steps=4, seed=1)
    story = build_story(STORY_INPUT, config)
    keyframes = render_keyframes(story, config)
    plan = build_plan(story, keyframes, config)
    return config, story, keyframes, plan


def test_shot_for_frame_default_boundary():
    assert [shot_for_frame(f, 8, 8) for f in (0, 7, 8, 15, 16, 23)] == [0, 0, 1, 1, 2, 2]


def test_shot_for_frame_short_boundary_switches_late():
    # L=4 with k=8: first k-L frames of a shot keep the previous condition
    values = [shot_for_frame(f, 8, 4) for f in (8, 11, 12, 15, 16, 19, 20)]
    assert values == [0, 0, 1, 1, 1, 1, 2]


# --- init_queue ---------------------------------------------------------------


def test_init_queue_structure(small_chain):
    config, _, _, plan = small_chain
    queue = init_queue(FrameStream(plan, config), config.world())
    assert len(queue.latents) == 4
    assert queue.head == -3
    assert queue.ticks == 0


def test_init_queue_noise_scaling(small_chain):
    config, _, _, plan = small_chain
    config = config.merged(seed=9)
    schedule, seed = config.schedule(), config.timeline_seed
    queue = init_queue(FrameStream(plan, config), config.world())
    # level T slots are unit noise; warm-up slots are scaled to their level
    tail = queue.latents[-1]
    expected_tail = spawn_rng("queue-noise", seed, 0).standard_normal(config.latent_shape)
    assert np.array_equal(tail, expected_tail)
    head = queue.latents[0]
    expected_head = np.sqrt(1.0 - schedule.alpha_bar(1)) * spawn_rng(
        "queue-noise", seed, -3
    ).standard_normal(config.latent_shape)
    assert np.array_equal(head, expected_head)


def test_init_queue_rejects_bad_inputs(small_chain):
    config, _, _, plan = small_chain
    with pytest.raises(ConfigError):
        init_queue(FrameStream([], config), config.world())


def test_queue_reads_its_stream_and_builds_the_schedule_once(small_chain, monkeypatch):
    # the queue is bound to the stream it samples: tick takes nothing that
    # could disagree with the stream's plan or config, and the
    # schedule is built once for all the ticks
    config, _, _, plan = small_chain
    config = config.merged(seed=5)
    stream, world = FrameStream(plan, config), config.world()
    built = []
    schedule = PipelineConfig.schedule
    monkeypatch.setattr(PipelineConfig, "schedule", lambda self: built.append(self) or schedule(self))
    queue = init_queue(stream, world)
    assert queue.stream is stream and queue.denoiser is world
    frames = []
    while len(queue.latents):
        result = tick(queue)
        if result is not None:
            frames.append(result[1])
    assert built == [config] and queue.ticks == 6 + config.steps - 1
    assert np.array_equal(np.stack(frames), run_timeline(stream))


# --- tick ----------------------------------------------------------------------


def test_queue_takes_each_frames_condition_once_at_short_boundary():
    # k=4, L=2: frames 4-5 keep shot 0's condition and 8-9 shot 1's, and the
    # T-1 warm-up dummies carry shot 0's. The list is built once per
    # stream; every tick hands the backend the slice its rows hold, in one
    # call with row p at level p + 1.
    config = PipelineConfig(n_shots=3, frames_per_shot=4, steps=3, reset_boundary=2,
                            height=2, width=2)
    plan = ["cond 0", "cond 1", "cond 2"]
    seen = []

    def backend(x, levels, conds, schedule):
        seen.append(list(zip(levels.tolist(), conds)))
        return np.zeros_like(x)

    queue = init_queue(FrameStream(plan, config), backend)
    shots = [0, 0] + [0, 0, 0, 0, 0, 0, 1, 1, 1, 1, 2, 2]
    assert shots[2:] == [shot_for_frame(f, 4, 2) for f in range(12)]
    assert queue.conds == [plan[shot] for shot in shots]
    while len(queue.latents):
        head, rows = queue.head, len(queue.latents)
        seen.clear()
        tick(queue)
        assert seen == [[
            (pos + 1, plan[0 if head + pos < 0 else shot_for_frame(head + pos, 4, 2)])
            for pos in range(rows)
        ]]


def _drive(config, plan):
    """Tick a queue until it is empty, through a backend that records the
    level and condition of each row it gets. A tick is one call, and its
    row at level t holds frame head + t - 1, head read before the tick, so
    the rows of story frames come back in order as (tick, frame, level,
    condition), beside each emission as (tick, frame) and the emptied
    queue."""
    world, seen = config.world(), []

    def recorder(x, levels, conds, schedule):
        seen.extend(zip(levels.tolist(), conds))
        return world(x, levels, conds, schedule)

    queue = init_queue(FrameStream(plan, config), recorder)
    calls, emitted = [], []
    while len(queue.latents):
        head = queue.head
        seen.clear()
        result = tick(queue)
        calls += [(queue.ticks, head + t - 1, t, cond) for t, cond in seen if head + t > 0]
        if result is not None:
            emitted.append((queue.ticks, result[0]))
    return calls, emitted, queue


def test_first_emission_after_exactly_T_ticks(small_chain):
    config, _, _, plan = small_chain
    _, emitted, queue = _drive(config, plan)
    # frame 0 spent one tick per level
    assert emitted[0] == (config.steps, 0)
    assert queue.ticks == config.n_shots * config.frames_per_shot + config.steps - 1


def test_emission_order_consecutive(small_chain):
    config, _, _, plan = small_chain
    _, emitted, _ = _drive(config, plan)
    assert [gf for _, gf in emitted] == list(range(6))


def test_trace_levels_and_purity(small_chain):
    # the backend's record of every call: each frame is denoised at levels
    # T..1, always under its own shot's condition
    config, _, _, plan = small_chain
    calls, _, _ = _drive(config, plan)
    T, k = config.steps, config.frames_per_shot
    for gf in range(config.n_shots * k):
        assert [level for _, f, level, _ in calls if f == gf] == list(range(T, 0, -1))
    assert all(cond is plan[f // k] for _, f, _, cond in calls)


def test_enqueued_noise_is_fresh_from_seed_stream(small_chain):
    # fresh-noise reset: the entering latent is the seeded construction,
    # never derived from queue contents
    config, _, _, plan = small_chain
    queue = init_queue(FrameStream(plan, config), config.world())
    for expected_gf in range(1, 6):
        tick(queue)
        assert queue.head + len(queue.latents) - 1 == expected_gf
        assert len(queue.latents) == config.steps
        expected = spawn_rng("queue-noise", config.timeline_seed, expected_gf).standard_normal(
            config.latent_shape
        )
        assert np.array_equal(queue.latents[-1], expected)


def test_queue_drains_after_plan_exhausted(small_chain):
    config, _, _, plan = small_chain
    queue = init_queue(FrameStream(plan, config), config.world())
    sizes = []
    while queue.head < 6:
        tick(queue)
        sizes.append(len(queue.latents))
    # enqueues stop at the last planned frame, then the queue shrinks to zero
    assert sizes[-1] == 0 and sizes[-2] == 1
    assert max(sizes) == config.steps


@pytest.mark.parametrize("eta", [0.0, 0.5])
def test_tick_steps_each_latent_alone_and_emits_copies(small_chain, eta):
    # the batched tick equals stepping every latent on its own (the loop it
    # replaced), and an emitted frame owns its memory: it shares none with
    # the queue and later ticks leave it as it was. Frame f's eta noise is
    # the next draw of its own generator, after the x_T it drew first
    config, _, _, plan = small_chain
    config = config.merged(eta=eta)
    schedule, world = config.schedule(), config.world()
    k, n = config.frames_per_shot, config.n_shots
    queue = init_queue(FrameStream(plan, config), world)
    rngs = {}
    emitted = []
    while queue.head < n * k:
        before, head = queue.latents.copy(), queue.head
        result = tick(queue)
        expected = []
        for pos, latent in enumerate(before):
            frame = head + pos
            shot = 0 if frame < 0 else shot_for_frame(frame, k, config.boundary)
            eps = analytic_eps(latent[None], pos + 1, world, [plan[shot]], schedule)[0]
            if frame not in rngs:
                rngs[frame] = spawn_rng("queue-noise", config.timeline_seed, frame)
                rngs[frame].standard_normal(latent.shape)  # its x_T
            noise = rngs[frame].standard_normal(latent.shape)
            expected.append(ddim_step(latent, eps, pos + 1, pos, schedule, eta=eta, noise=noise))
        assert len(queue.latents) == len(before) - (head + len(before) >= n * k)
        for row, want in zip(queue.latents, expected[1:]):
            assert row.tobytes() == want.tobytes()
        if result is not None:
            assert result[1].tobytes() == expected[0].tobytes()
            assert not np.shares_memory(result[1], queue.latents)
            # a view would keep the tick's whole batch buffer alive
            assert result[1].base is None
            emitted.append((result[1], result[1].copy()))
    assert len(emitted) == n * k
    for frame, snapshot in emitted:
        assert frame.tobytes() == snapshot.tobytes()


def test_batched_backend_drives_queue_and_sampler(small_chain):
    # a backend written to the documented contract, (x, levels, conds,
    # schedule) -> eps_hat for the whole batch with nothing else, runs both
    # batched samplers and gives what the reference backend gives. This one
    # evaluates each row as a batch of one, so the match also shows that
    # the reference computes each row from that row alone
    config, _, _, plan = small_chain
    schedule, world = config.schedule(), config.world()

    def rowwise(x, levels, conds, schedule):
        rows = zip(x, np.broadcast_to(levels, len(x)).tolist(), conds)
        return np.stack([analytic_eps(row[None], t, world, [cond], schedule)[0]
                         for row, t, cond in rows])

    queues = [init_queue(FrameStream(plan, config), d) for d in (rowwise, world)]
    while queues[0].head < config.n_shots * config.frames_per_shot:
        a, b = (tick(q) for q in queues)
        assert (a is None) == (b is None)
        if a is not None:
            assert a[0] == b[0] and a[1].tobytes() == b[1].tobytes()
    shape = config.latent_shape

    def rngs():
        return [spawn_rng("reverse-init", seed) for seed in (3, 4)]

    assert (sample_reverse(rowwise, plan, schedule, rngs(), shape).tobytes()
            == sample_reverse(world, plan, schedule, rngs(), shape).tobytes())

    # an eps_hat that would broadcast into the batch is refused instead
    def flat(x, levels, conds, schedule):
        return rowwise(x, levels, conds, schedule)[..., :1]

    with pytest.raises(ShapeError):
        tick(init_queue(FrameStream(plan, config), flat))
    with pytest.raises(ShapeError):
        sample_reverse(flat, plan, schedule, rngs(), shape)


def test_tick_on_empty_queue_raises(small_chain):
    config, _, _, plan = small_chain
    _, _, queue = _drive(config, plan)
    assert len(queue.latents) == 0
    with pytest.raises(StateError):
        tick(queue)


@settings(max_examples=100, deadline=None)
@given(
    n=st.integers(min_value=1, max_value=4),
    k=st.integers(min_value=1, max_value=4),
    T=st.integers(min_value=1, max_value=6),
    eta=st.sampled_from([0.0, 0.5]),
    data=st.data(),
)
def test_queue_properties_over_shapes(n, k, T, eta, data):
    # any (n, k, T, L <= k, eta): frames leave in order after n*k + T - 1
    # ticks, each visits levels T..1 under the shot shot_for_frame names
    L = data.draw(st.integers(min_value=1, max_value=k), label="L")
    config = PipelineConfig(n_shots=n, frames_per_shot=k, steps=T, reset_boundary=L,
                            eta=eta, height=2, width=2)
    plan = [
        Condition(text=encode_text_mock(f"shot {j}", config.embed_dim, config.encoder_seed))
        for j in range(n)
    ]
    calls, emitted, queue = _drive(config, plan)
    # frame f leaves on tick f + T
    assert emitted == [(f + T, f) for f in range(n * k)]
    assert queue.ticks == n * k + T - 1
    for gf in range(n * k):
        assert [level for _, f, level, _ in calls if f == gf] == list(range(T, 0, -1))
    assert all(cond is plan[shot_for_frame(f, k, L)] for _, f, _, cond in calls)
    # shot j's condition is first denoised the tick after frame first_j
    # enters: first_0 = 0, first_j = j*k + k - L
    for j in range(n):
        first = 0 if j == 0 else j * k + k - L
        assert next(t for t, _, _, cond in calls if cond is plan[j]) == first + 1


# --- run_timeline ---------------------------------------------------------------


@pytest.fixture(scope="module")
def default_chain():
    config = PipelineConfig(seed=2)
    story = build_story(STORY_INPUT, config)
    keyframes = render_keyframes(story, config)
    return config, story, keyframes


def test_timeline_counts_and_labels(default_chain):
    config, story, keyframes = default_chain
    stream = generate_timeline(story, keyframes, config)
    frames = run_timeline(stream)
    assert frames.shape == stream.shape == (32,) + config.latent_shape
    assert frames.dtype == np.float64


def test_windowed_and_fifo_share_count_contract(default_chain):
    config, story, keyframes = default_chain
    fifo = run_timeline(generate_timeline(story, keyframes, config))
    windowed = run_timeline(generate_timeline(story, keyframes, config.merged(mode="windowed")))
    assert fifo.shape == windowed.shape == (32,) + config.latent_shape


@pytest.mark.parametrize("n, k, T", [(1, 1, 2), (3, 2, 5), (2, 5, 3)])
def test_modes_give_equal_clip_lengths(n, k, T):
    # fifo-reset emits n*k frames one by one; windowed samples k per shot
    def frame_count(mode):
        config = PipelineConfig(n_shots=n, frames_per_shot=k, steps=T, seed=6, mode=mode)
        story = build_story(STORY_INPUT, config)
        return len(run_timeline(generate_timeline(story, render_keyframes(story, config), config)))

    assert frame_count("fifo-reset") == frame_count("windowed") == n * k


def test_queue_eta_noise_is_seeded_and_leaves_keyframes_alone(small_chain):
    # eta > 0 acts on the frames only: they are reproducible and differ
    # from eta = 0, while keyframes still sample at eta = 0
    config, story, keyframes, _ = small_chain
    noisy = config.merged(eta=0.5)
    noisy_keyframes = render_keyframes(story, noisy)
    assert len(noisy_keyframes) == len(keyframes)
    for a, b in zip(keyframes, noisy_keyframes):
        assert np.array_equal(a, b)
    first = run_timeline(generate_timeline(story, noisy_keyframes, noisy))
    second = run_timeline(generate_timeline(story, noisy_keyframes, noisy))
    base = run_timeline(generate_timeline(story, keyframes, config))
    assert len(first) == len(base) == 6
    for a, b, c in zip(first, second, base):
        assert np.array_equal(a, b)
        assert not np.array_equal(a, c)


@pytest.mark.parametrize("mode", ["fifo-reset", "windowed"])
def test_missing_keyframe_names_shot(default_chain, mode):
    config, story, keyframes = default_chain
    with pytest.raises(StateError, match="3 keyframes for 4 shots"):
        generate_timeline(story, keyframes[:2] + keyframes[3:], config.merged(mode=mode))


def test_fifo_frames_converge_to_their_shots_mean(default_chain):
    # per-shot mean of identity channels lands within 0.1 of the shot's
    # latent-mean identity channels: the queue never leaks a neighbor's
    # conditioning into converged frames (5 seeds)
    feat = IdentityChannelMean()
    for seed in range(5):
        config = PipelineConfig(seed=seed)
        story = build_story(STORY_INPUT, config)
        keyframes = render_keyframes(story, config)
        plan = build_plan(story, keyframes, config)
        world = config.world()
        frames = run_timeline(generate_timeline(story, keyframes, config))
        k = config.frames_per_shot
        for j in range(config.n_shots):
            mu_id = feat(world.mean_map(plan[j]))
            shot_mean = np.mean([feat(f) for f in frames[j * k : (j + 1) * k]], axis=0)
            assert np.abs(shot_mean - mu_id).max() < 0.1, f"seed {seed}, shot {j}"


def test_mode_agreement_at_convergence():
    config = PipelineConfig(sigma0=0.0)
    story = build_story(STORY_INPUT, config)
    keyframes = render_keyframes(story, config)
    plan = build_plan(story, keyframes, config)
    world = config.world()
    fifo = run_timeline(generate_timeline(story, keyframes, config))
    windowed = run_timeline(generate_timeline(story, keyframes, config.merged(mode="windowed")))
    # at sigma0=0 both modes land on the shot's latent mean, hence agree
    for frames in (fifo, windowed):
        for g, frame in enumerate(frames):
            assert np.abs(frame - world.mean_map(plan[g // config.frames_per_shot])).max() < 1e-4
    assert np.abs(fifo - windowed).max() < 2e-4


def _chain_scalars(schedule, sigma0):
    # (A_T, B_T) of the collapsed eta = 0 chain: each analytic DDIM step maps
    # x_t to alpha x_t + beta mu(c), so x0 = A_T x_T + B_T mu(c)
    A, B = 1.0, 0.0
    s2 = sigma0**2
    for t in range(schedule.T, 0, -1):
        a = schedule.alpha_bar(t)
        a_prev = schedule.alpha_bar(t - 1)
        denom = a * s2 + 1.0 - a
        p = math.sqrt(a) * s2 / denom
        q = (1.0 - a) / denom
        c = math.sqrt(1.0 - a_prev) / math.sqrt(1.0 - a)
        alpha = math.sqrt(a_prev) * p + c * (1.0 - math.sqrt(a) * p)
        beta = math.sqrt(a_prev) * q - c * math.sqrt(a) * q
        A, B = alpha * A, alpha * B + beta
    return A, B


@pytest.mark.parametrize(
    "mode,sigma0,boundary",
    [("fifo-reset", 0.5, None), ("fifo-reset", 2.0, None), ("windowed", 0.5, None),
     ("windowed", 2.0, None), ("fifo-reset", 0.5, 2)],
    ids=["fifo-reset-0.5", "fifo-reset-2.0", "windowed-0.5", "windowed-2.0", "fifo-reset-0.5-L2"],
)
def test_frames_match_closed_form_chain(mode, sigma0, boundary):
    # away from the degenerate sigma0 = 0 world, every frame is still the
    # closed form A_T x_T + B_T mu(c) of its own seeded noise and the
    # condition shot_for_frame gives it (with L < k, not always its label)
    config = PipelineConfig(n_shots=3, frames_per_shot=4, steps=20, sigma0=sigma0, mode=mode,
                            reset_boundary=boundary)
    story = build_story(STORY_INPUT, config)
    keyframes = render_keyframes(story, config)
    plan = build_plan(story, keyframes, config)
    timeline = run_timeline(generate_timeline(story, keyframes, config))
    A, B = _chain_scalars(config.schedule(), sigma0)
    mean_map = config.world().mean_map
    seed, k = derive_seed("timeline", config.seed), config.frames_per_shot
    assert len(timeline) == 12
    for g, frame in enumerate(timeline):
        shot = g // k
        if mode == "fifo-reset":
            rng = spawn_rng("queue-noise", seed, g)
        else:
            rng = spawn_rng("reverse-init", frame_seed(seed, shot, g % k))
        cond = plan[shot_for_frame(g, k, config.boundary)]
        expected = A * rng.standard_normal(config.latent_shape) + B * mean_map(cond)
        error = np.max(np.abs(frame - expected) / np.maximum(1.0, np.abs(expected)))
        assert error < 1e-12, f"frame {g}: {error:.2e}"


def _eta_step_scalars(schedule, sigma0, eta):
    # {l: (P_l, Q_l, s_l)}: with the analytic world, one DDIM step from level
    # l (arXiv 2010.02502, eq. 12 and 16) is the affine map
    # x_{l-1} = P_l x_l + Q_l mu(c) + s_l z_l for its fresh unit noise z_l
    s2 = sigma0**2
    table = {}
    for level in range(1, schedule.T + 1):
        a, a_prev = schedule.alpha_bar(level), schedule.alpha_bar(level - 1)
        denom = a * s2 + 1.0 - a
        p = math.sqrt(a) * s2 / denom  # E[x0 | x_l] = p x_l + q mu
        q = (1.0 - a) / denom
        sigma = eta * math.sqrt((1.0 - a_prev) / (1.0 - a)) * math.sqrt(1.0 - a / a_prev)
        c = math.sqrt(max(1.0 - a_prev - sigma**2, 0.0)) / math.sqrt(1.0 - a)
        table[level] = (math.sqrt(a_prev) * p + c * (1.0 - math.sqrt(a) * p),
                        math.sqrt(a_prev) * q - c * math.sqrt(a) * q, sigma)
    return table


@pytest.mark.parametrize(
    "eta,boundary,sigma0,mode",
    [(0.5, 4, 0.5, "fifo-reset"), (1.0, 2, 2.0, "fifo-reset"), (0.3, 3, 0.0, "fifo-reset"),
     (0.5, 4, 0.5, "windowed")],
    ids=["0.5-4-0.5", "1.0-2-2.0", "0.3-3-0.0", "windowed-0.5-4-0.5"],
)
def test_eta_frames_match_closed_form_steps(eta, boundary, sigma0, mode):
    # at eta > 0 every frame f is the affine chain above, driven by its own
    # generator: x_T first, then z_l at levels l = T..1. A fifo-reset frame's
    # generator is the queue-noise stream of f, a windowed frame's the
    # reverse-init stream of its frame_seed. At sigma0 = 0 the last step
    # lands every frame on mu(c) whatever its draws, so that case pins the
    # collapse
    config = PipelineConfig(n_shots=3, frames_per_shot=4, steps=12, sigma0=sigma0, eta=eta,
                            reset_boundary=boundary, mode=mode)
    story = build_story(STORY_INPUT, config)
    keyframes = render_keyframes(story, config)
    plan = build_plan(story, keyframes, config)
    timeline = run_timeline(generate_timeline(story, keyframes, config))
    steps = _eta_step_scalars(config.schedule(), sigma0, eta)
    mean_map = config.world().mean_map
    seed, k, T = derive_seed("timeline", config.seed), config.frames_per_shot, config.steps
    shape = config.latent_shape
    assert len(timeline) == 12
    for f, frame in enumerate(timeline):
        mu = mean_map(plan[shot_for_frame(f, k, config.boundary)])
        if mode == "fifo-reset":
            rng = spawn_rng("queue-noise", seed, f)
        else:
            rng = spawn_rng("reverse-init", frame_seed(seed, f // k, f % k))
        expected = rng.standard_normal(shape)
        for level in range(T, 0, -1):
            P, Q, s = steps[level]
            expected = P * expected + Q * mu + s * rng.standard_normal(shape)
        error = np.max(np.abs(frame - expected) / np.maximum(1.0, np.abs(expected)))
        assert error < 1e-12, f"frame {f}: {error:.2e}"


@pytest.mark.parametrize(
    "mode,eta,boundary",
    [("fifo-reset", 0.0, 4), ("fifo-reset", 0.5, 4), ("fifo-reset", 0.7, 2),
     ("fifo-reset", 1.0, 1), ("windowed", 0.0, 4), ("windowed", 0.5, 4)],
)
def test_every_frame_is_sample_reverse_of_its_own_generator(mode, eta, boundary):
    # one noise rule for every chain: a frame's generator gives its x_T and
    # all its eta draws, and the backend computes each row from that row
    # alone, so every frame of either mode is bitwise the batch-of-one
    # chain of its generator under the condition shot_for_frame names
    config = PipelineConfig(n_shots=3, frames_per_shot=4, steps=8, eta=eta, mode=mode,
                            reset_boundary=boundary, height=4, width=4)
    story = build_story(STORY_INPUT, config)
    keyframes = render_keyframes(story, config)
    plan = build_plan(story, keyframes, config)
    frames = run_timeline(generate_timeline(story, keyframes, config))
    world, schedule, seed = config.world(), config.schedule(), config.timeline_seed
    k = config.frames_per_shot
    for f, frame in enumerate(frames):
        if mode == "fifo-reset":
            rng = spawn_rng("queue-noise", seed, f)
        else:
            rng = spawn_rng("reverse-init", frame_seed(seed, f // k, f % k))
        cond = plan[shot_for_frame(f, k, config.boundary)]
        [expected] = sample_reverse(world, [cond], schedule, [rng], config.latent_shape, eta)
        assert frame.tobytes() == expected.tobytes(), f"frame {f}"


def test_eta_one_frame_variance_matches_closed_form():
    # one shot of 1,024 frames: all share one condition, so each pixel's
    # frames are independent draws of x_0 = (prod_l P_l) x_T
    # + sum_l (prod_{m<l} P_m)(Q_l mu + s_l z_l), whose variance is
    # (prod_l P_l)^2 + sum_l s_l^2 (prod_{m<l} P_m)^2
    config = PipelineConfig(n_shots=1, frames_per_shot=1024, steps=12, eta=1.0)
    story = build_story(STORY_INPUT, config)
    frames = run_timeline(generate_timeline(story, render_keyframes(story, config), config))
    steps = _eta_step_scalars(config.schedule(), config.sigma0, config.eta)
    gain, variance = 1.0, 0.0  # gain is prod_{m<l} P_m
    for level in range(1, config.steps + 1):
        P, _, s = steps[level]
        variance += (s * gain) ** 2
        gain *= P
    variance += gain**2
    ratio = frames.var(axis=0, ddof=1) / variance
    # the sample variance of n Gaussian draws has relative standard error
    # sqrt(2 / (n - 1)), 0.044 at n = 1,024; pixels are independent, so the
    # mean ratio over the 512 pixels has that over sqrt(512). Both are held
    # to 5 standard errors.
    se = math.sqrt(2.0 / (len(frames) - 1))
    assert np.abs(ratio - 1.0).max() < 5 * se
    assert abs(ratio.mean() - 1.0) < 5 * se / math.sqrt(ratio.size)


# --- the per-world mean memo -------------------------------------------------


def _count_means(monkeypatch):
    """Record every condition MeanProjector.mean is evaluated on."""
    seen = []
    original = MeanProjector.mean

    def counted(self, cond):
        seen.append(cond)
        return original(self, cond)

    monkeypatch.setattr(MeanProjector, "mean", counted)
    return seen


def _content(cond):
    return cond.text.tobytes(), cond.ip.tobytes(), cond.ip_scale


@pytest.mark.parametrize("mode", ["fifo-reset", "windowed"])
def test_timeline_evaluates_each_mean_once(small_chain, monkeypatch, mode):
    config, story, keyframes, _ = small_chain
    config = config.merged(mode=mode)
    seen = _count_means(monkeypatch)
    timeline = run_timeline(
        FrameStream(build_plan(story, keyframes, config), config.merged(seed=3))
    )
    assert len(timeline) == 6
    # one condition per shot, each evaluated once however many denoiser calls
    assert len(seen) == len(set(seen)) == config.n_shots
    assert len({_content(c) for c in seen}) == config.n_shots


def _memo_free_world(config):
    return GaussianWorld(config.sigma0, config.projector().mean)


@pytest.mark.parametrize("sigma0", [0.0, 0.5])
@pytest.mark.parametrize("mode", ["fifo-reset", "windowed"])
def test_memo_leaves_frames_bitwise_equal(monkeypatch, mode, sigma0):
    config = PipelineConfig(n_shots=2, frames_per_shot=3, steps=6, seed=4, mode=mode,
                            sigma0=sigma0)
    story = build_story(STORY_INPUT, config)

    def generate():
        keyframes = render_keyframes(story, config)
        return keyframes, run_timeline(generate_timeline(story, keyframes, config))

    keyframes, timeline = generate()
    monkeypatch.setattr(PipelineConfig, "world", _memo_free_world)
    plain_keyframes, plain = generate()
    for a, b in zip(keyframes, plain_keyframes):
        assert np.array_equal(a, b)
    assert len(timeline) == len(plain) == 6
    assert np.array_equal(timeline, plain)


def test_memoised_mean_is_read_only_and_per_world(small_chain, monkeypatch):
    config, _, _, plan = small_chain
    seen = _count_means(monkeypatch)
    first, second = config.world(), config.world()
    mu = first.mean_map(plan[0])
    assert first.mean_map(plan[0]) is mu
    with pytest.raises(ValueError):
        mu[0, 0, 0] = 1.0
    # a second world starts empty: it evaluates the mean again
    other = second.mean_map(plan[0])
    assert other is not mu
    assert np.array_equal(other, mu)
    assert seen == [plan[0], plan[0]]
