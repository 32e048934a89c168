"""Cross-shot smoothing: a FIFO queue of latents at staggered noise levels.

The queue is one (n, h, w, d) array of latents, one row per noise level,
head at level 1 and tail at level n = T until the story runs out of frames.
Every tick denoises each latent one level under the condition of the shot
that owns its global frame, with one batched reverse step over the level
vector 1..n, dequeues the head (now fully denoised) for emission, and
enqueues fresh unit noise at level T for the next frame. Because each
entering latent brings fresh noise and its own shot's embeddings, the
enqueue rule IS the reset boundary.

Row p is always at level p + 1 and frames enter in order, so the queue's
only state is its latents and the frame at its head, and the schedule is
closed-form. With N shots of k frames, reset boundary L and T steps:

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

Either mode's frames come out of one FrameStream in global order, each as
soon as it is finished, so the pipeline writes every frame to disk and
drops it; run_timeline collects a stream into the (N*k, h, w, d) array
that frames.vgt stores, for callers that want the whole run in memory.

With the analytic backend and eta = 0, every frame of either mode is the
closed form A_T x_T + B_T mu(c) of its own seeded noise and its shot's
condition. That chain is the engine's main correctness oracle; at
sigma0 = 0 it also makes the two modes agree.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterator, List, Optional, Tuple

import numpy as np

from .clips import build_shot_condition, generate_shot_clip
from .conditioning import Condition
from .config import PipelineConfig
from .diffusion import DenoiserBackend, NoiseSchedule, ddim_step, denoise_row
from .errors import ConfigError, StateError
from .script import Story
from .seeds import spawn_rng


@dataclass
class LatentQueue:
    """The latents in flight as one (n, h, w, d) array, head first: row p
    is at level p + 1 and holds global frame head + p. Warm-up dummies have
    negative frames. Every tick reads the plan, config and trace from the
    stream the queue samples, and the schedule init_queue built once."""

    stream: "FrameStream"
    denoiser: DenoiserBackend
    schedule: NoiseSchedule
    latents: np.ndarray
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


def shot_for_frame(global_frame: int, k: int, L: int) -> int:
    """Which shot's condition an entering slot carries.

    With L = k (the default) every frame carries its own shot's condition.
    With L < k the switch happens later: the first k - L frames of a shot
    keep the previous shot's condition.
    """
    shot = global_frame // k
    if L < k and shot > 0 and global_frame % k < k - L:
        shot -= 1
    return shot


def init_queue(stream: "FrameStream", denoiser: DenoiserBackend) -> LatentQueue:
    """Fill the queue with T latents: warm-up dummies (frames 1 - T .. -1)
    plus the first story frame at the tail.

    The level-T tail holds unit noise, matching every later enqueue; a
    warm-up latent at level t < T holds noise scaled to that level's
    marginal, sqrt(1 - alpha_bar(t)) * eps. Dummies carry shot 0's
    condition.
    """
    if not stream.plan:
        raise ConfigError("conditioning plan is empty")
    config = stream.config
    schedule, T = config.schedule(), config.steps
    latents = np.empty((T,) + config.latent_shape)
    for level, row in enumerate(latents, start=1):
        spawn_rng("queue-noise", config.timeline_seed, level - T).standard_normal(out=row)
        if level < T:
            row *= np.sqrt(1.0 - schedule.alpha_bar(level))
    return LatentQueue(stream, denoiser, schedule, latents, head=1 - T)


def tick(queue: LatentQueue) -> Optional[Tuple[int, np.ndarray]]:
    """One engine step: denoise every latent once, emit the head, enqueue
    fresh noise.

    The denoiser runs once per latent; the reverse step runs once for the
    whole queue. Returns (global_frame, frame) when a story frame is
    emitted, None while warm-up dummies are being discarded; the frame is
    a copy, sharing no memory with the queue. Once the plan is exhausted
    the queue drains (no enqueue) until empty.
    """
    rows = len(queue.latents)
    if not rows:
        raise StateError("queue is empty")
    stream, schedule = queue.stream, queue.schedule
    plan, config, trace = stream.plan, stream.config, stream.trace
    seed = config.timeline_seed
    tick_no = queue.ticks + 1
    k, L, n = config.frames_per_shot, config.boundary, len(plan)
    eps = np.empty_like(queue.latents)
    noise = None if config.eta == 0.0 else np.empty_like(eps)
    for pos, latent in enumerate(queue.latents):
        level, frame = pos + 1, queue.head + pos
        shot = 0 if frame < 0 else shot_for_frame(frame, k, L)
        denoise_row(queue.denoiser, latent, level, plan[shot], schedule, out=eps[pos])
        if trace is not None and frame >= 0:
            trace.append(TraceRecord(tick=tick_no, global_frame=frame, level=level,
                                     condition_shot=shot))
        if noise is not None:
            spawn_rng("queue-eta", seed, tick_no, frame).standard_normal(out=noise[pos])

    next_frame = queue.head + rows
    enqueue = next_frame < n * k
    stepped = np.empty((rows + enqueue,) + queue.latents.shape[1:])
    levels = np.arange(1, rows + 1)
    ddim_step(queue.latents, eps, levels, levels - 1, schedule, eta=config.eta, noise=noise,
              out=stepped[:rows])
    if enqueue:
        spawn_rng("queue-noise", seed, next_frame).standard_normal(out=stepped[rows])
    emitted = None if queue.head < 0 else (queue.head, stepped[0].copy())
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


@dataclass(frozen=True, eq=False)
class FrameStream:
    """A run's frames in global order, sampled as they are iterated: each
    windowed shot's clip in turn, or each frame as the fifo-reset queue
    emits it. ``shape`` is the shape of all the frames stacked, known
    before any frame is sampled, so a writer can put each frame on disk
    and drop it. Every iteration samples afresh and, with a trace, appends
    its denoise calls to it."""

    plan: List[Condition]
    config: PipelineConfig
    trace: Optional[DenoiseTrace] = None

    @property
    def shape(self) -> Tuple[int, ...]:
        return (len(self.plan) * self.config.frames_per_shot,) + self.config.latent_shape

    def __iter__(self) -> Iterator[np.ndarray]:
        config = self.config
        if config.mode == "windowed":
            for j, cond in enumerate(self.plan):
                yield from generate_shot_clip(cond, j, config)
            return
        queue = init_queue(self, config.world())
        for _ in range(self.shape[0] + config.steps - 1):
            emitted = tick(queue)
            if emitted is not None:
                yield emitted[1]


def run_timeline(frames: FrameStream) -> np.ndarray:
    """Collect a stream into one float64 array of ``frames.shape``, for
    callers that want the whole run in memory: shot j's frames are rows
    j*k .. j*k + k - 1."""
    collected = np.empty(frames.shape)
    for f, frame in enumerate(frames):
        collected[f] = frame
    return collected
