"""Cross-shot smoothing: a FIFO queue of latents at staggered noise levels.

The queue holds exactly T latents, one per noise level, head at level 1 and
tail at level T. Every tick denoises each latent one level under the
condition of the shot that owns its global frame, dequeues the head (now
fully denoised) for emission, and enqueues fresh unit noise at level T for
the next frame. Because each entering latent brings fresh noise and its own
shot's embeddings, the enqueue rule IS the reset boundary.

Position p is always at level p + 1 and frames enter in order, so the queue
stores nothing but its latents and the frame at its head, and the schedule
is closed-form. With N shots of k frames, reset boundary L and T steps:

* frame f enters at the end of tick f and is emitted at tick f + T;
* shot j >= 1's condition enters at the end of tick j*k + k - L, the first
  frame shot_for_frame gives to shot j (shot 0's is in the queue at init);
* a run takes N*k + T - 1 ticks.

So shot j's condition shares the queue with shot j - 1's for T - 1 ticks,
whatever k and L are: that overlap is what smooths the transition.

Two inference modes share the frame-count contract:

* windowed    - shots are generated independently and concatenated
                (each shot a separate temporal window);
* fifo-reset  - the continuous queue described above.

With the analytic backend and eta = 0, every frame of either mode is the
closed form A_T x_T + B_T mu(c) of its own seeded noise and its shot's
condition. That chain is the engine's main correctness oracle; at
sigma0 = 0 it also makes the two modes agree.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

import numpy as np

from .clips import build_shot_condition, generate_shot_clip
from .conditioning import Condition
from .config import PipelineConfig
from .diffusion import AnalyticDenoiser, DenoiserBackend, NoiseSchedule, ddim_step
from .errors import ConfigError, StateError
from .script import Story
from .seeds import spawn_rng


@dataclass
class LatentQueue:
    """The latents in flight, head first: position p is at level p + 1 and
    holds global frame head + p. Warm-up dummies have negative frames."""

    latents: List[np.ndarray]
    head: int
    ticks: int = 0

    @property
    def emitted(self) -> int:
        """Story frames emitted so far."""
        return max(self.head, 0)


@dataclass(frozen=True)
class TraceRecord:
    """One denoiser call on a story frame."""

    tick: int
    global_frame: int
    level: int
    condition_shot: int


@dataclass
class DenoiseTrace:
    """Append-only instrumentation of every story-frame denoise call."""

    records: List[TraceRecord] = field(default_factory=list)

    def append(self, record: TraceRecord):
        self.records.append(record)

    def for_frame(self, global_frame: int) -> List[TraceRecord]:
        return [r for r in self.records if r.global_frame == global_frame]


@dataclass
class VideoTimeline:
    """The ordered, shot-labeled sequence of all emitted frames.

    A fifo-reset run also records its schedule. ``emission_ticks[f]`` is
    the tick that emits frame f (f + T). ``switch_ticks[j]`` is the tick at
    whose end shot j's condition is enqueued (0 for shot 0, which is in the
    queue from the start); the queue first denoises it one tick later.
    Windowed runs leave both None.
    """

    frames: List[np.ndarray]
    shots: List[int]
    mode: str
    emission_ticks: Optional[List[int]] = None
    switch_ticks: Optional[Dict[int, int]] = None

    def frames_for_shot(self, shot: int) -> List[np.ndarray]:
        return [f for f, s in zip(self.frames, self.shots) if s == shot]

    @property
    def n_shots(self) -> int:
        return max(self.shots) + 1 if self.shots else 0


def shot_for_frame(global_frame: int, k: int, L: int, n_shots: int) -> int:
    """Which shot's condition an entering slot carries.

    With L = k (the default) every frame carries its own shot's condition.
    With L < k the switch happens later: the first k - L frames of a shot
    keep the previous shot's condition.
    """
    base = global_frame // k
    if L < k and base > 0 and global_frame % k < k - L:
        base -= 1
    return min(base, n_shots - 1)


def init_queue(plan: List[Condition], config: PipelineConfig, seed: int) -> LatentQueue:
    """Fill the queue with T latents: warm-up dummies (frames 1 - T .. -1)
    plus the first story frame at the tail.

    The level-T tail holds unit noise, matching every later enqueue; a
    warm-up latent at level t < T holds noise scaled to that level's
    marginal, sqrt(1 - alpha_bar(t)) * eps. Dummies carry shot 0's
    condition.
    """
    if not plan:
        raise ConfigError("conditioning plan is empty")
    schedule, shape, T = config.schedule(), config.latent_shape, config.steps
    latents = []
    for level in range(1, T + 1):
        noise = spawn_rng("queue-noise", seed, level - T).standard_normal(shape)
        latents.append(noise if level == T else np.sqrt(1.0 - schedule.alpha_bar(level)) * noise)
    return LatentQueue(latents=latents, head=1 - T)


def tick(
    queue: LatentQueue,
    denoiser: DenoiserBackend,
    schedule: NoiseSchedule,
    plan: List[Condition],
    config: PipelineConfig,
    seed: int,
    trace: Optional[DenoiseTrace] = None,
) -> Optional[Tuple[int, np.ndarray]]:
    """One engine step: denoise every latent once, emit the head, enqueue
    fresh noise.

    Returns (global_frame, frame) when a story frame is emitted, None
    while warm-up dummies are being discarded; frames are the latents
    themselves. Once the plan is exhausted the queue drains (no enqueue)
    until empty. The per-latent updates are pure and order-independent.
    """
    if not queue.latents:
        raise StateError("queue is empty")
    tick_no = queue.ticks + 1
    k, L, n = config.frames_per_shot, config.boundary, len(plan)
    stepped = []
    for pos, latent in enumerate(queue.latents):
        level, frame = pos + 1, queue.head + pos
        shot = 0 if frame < 0 else shot_for_frame(frame, k, L, n)
        eps = denoiser(latent, level, plan[shot], schedule)
        if trace is not None and frame >= 0:
            trace.append(TraceRecord(tick=tick_no, global_frame=frame, level=level,
                                     condition_shot=shot))
        noise = None
        if config.eta != 0.0:
            noise = spawn_rng("queue-eta", seed, tick_no, frame).standard_normal(latent.shape)
        stepped.append(ddim_step(latent, eps, level, level - 1, schedule, eta=config.eta,
                                 noise=noise))

    next_frame = queue.head + len(stepped)
    if next_frame < n * k:
        fresh = spawn_rng("queue-noise", seed, next_frame).standard_normal(config.latent_shape)
        stepped.append(fresh)
    emitted = None if queue.head < 0 else (queue.head, stepped[0])
    queue.latents = stepped[1:]
    queue.head += 1
    queue.ticks = tick_no
    return emitted


def build_plan(
    story: Story, keyframes: List[np.ndarray], config: PipelineConfig
) -> List[Condition]:
    """Per-shot conditions: plan[j] pairs shot j's short description with
    keyframe j's latent."""
    if len(keyframes) != len(story.descriptions):
        raise StateError(f"{len(keyframes)} keyframes for {len(story.descriptions)} shots")
    return [
        build_shot_condition(desc, keyframe, config)
        for desc, keyframe in zip(story.descriptions, keyframes)
    ]


def run_timeline(
    story: Story,
    keyframes: List[np.ndarray],
    config: PipelineConfig,
    seed: int,
    trace: Optional[DenoiseTrace] = None,
) -> VideoTimeline:
    """Produce all N*k frames in global order, labeled by shot."""
    plan = build_plan(story, keyframes, config)
    n_shots, k = len(plan), config.frames_per_shot
    total = n_shots * k
    shots = [f // k for f in range(total)]

    if config.mode == "windowed":
        frames = [frame for j, cond in enumerate(plan)
                  for frame in generate_shot_clip(cond, j, config, seed)]
        return VideoTimeline(frames=frames, shots=shots, mode=config.mode)

    schedule = config.schedule()
    denoiser = AnalyticDenoiser(config.world())
    queue = init_queue(plan, config, seed)
    frames = []
    for _ in range(total + config.steps - 1):
        emitted = tick(queue, denoiser, schedule, plan, config, seed, trace=trace)
        if emitted is not None:
            frames.append(emitted[1])
    return VideoTimeline(
        frames=frames,
        shots=shots,
        mode=config.mode,
        emission_ticks=[f + config.steps for f in range(total)],
        switch_ticks={0: 0, **{j: j * k + k - config.boundary for j in range(1, n_shots)}},
    )
