"""Cross-shot smoothing: a FIFO queue of latents at staggered noise levels.

The queue is one (n, h, w, d) array of latents, one row per noise level,
head at level 1 and tail at level n = T until the story runs out of frames.
Every tick denoises each latent one level under the condition of the shot
that owns its global frame, with one ``reverse_step``, and so one backend
call, over the level vector 1..n, dequeues the head (now fully denoised)
for emission, and enqueues fresh unit noise at level T for the next frame.
Because each entering latent brings fresh noise and its own shot's
embeddings, the enqueue rule IS the reset boundary.

Row p is always at level p + 1 and frames enter in order, so the queue's
only state is its latents, their generators and its head frame, and the
schedule is closed-form. With N shots of k frames, boundary L and T steps:

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

A frame draws x_T and its eta noise from one generator, and the analytic
backend computes each row of a tick's call from that row alone, so the
queue samples independent chains: at any eta each frame is bitwise
``sample_reverse`` of its generator under the condition shot_for_frame
names. With the analytic backend and eta = 0 it is the closed form
A_T x_T + B_T mu(c), the main correctness oracle.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, List, Optional, Tuple

import numpy as np

from .clips import build_shot_condition, generate_shot_clip
from .conditioning import Condition
from .config import PipelineConfig
from .diffusion import DenoiserBackend, NoiseSchedule, reverse_step
from .errors import ConfigError, StateError
from .script import Story
from .seeds import spawn_rng


@dataclass
class LatentQueue:
    """The latents in flight as one (n, h, w, d) array, head first: row p
    is at level p + 1 and holds global frame head + p, whose noise
    generator is ``rngs[p]``. Warm-up dummies have negative frames. Every
    tick reads the plan and config from the stream the queue samples, and
    the schedule and per-frame conditions init_queue built once:
    ``conds[i]`` is the condition frame i + 1 - T carries, so the rows of
    a tick take theirs as one slice from index ``ticks``. The backend
    ``denoiser`` gets each tick as one call, with every row's level and
    condition."""

    stream: "FrameStream"
    denoiser: DenoiserBackend
    schedule: NoiseSchedule
    latents: np.ndarray
    rngs: List[np.random.Generator]
    head: int
    conds: List[Condition]

    @property
    def ticks(self) -> int:
        """Ticks run so far: the head starts at frame 1 - T and moves one
        frame a tick."""
        return self.head + self.schedule.T - 1


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
    condition, and every story frame the one ``shot_for_frame`` names, which
    is asked once per frame here, not once per tick.
    """
    if not stream.plan:
        raise ConfigError("conditioning plan is empty")
    config = stream.config
    schedule, T = config.schedule(), config.steps
    latents = np.empty((T,) + config.latent_shape)
    rngs = [spawn_rng("queue-noise", config.timeline_seed, f) for f in range(1 - T, 1)]
    for level, (row, rng) in enumerate(zip(latents, rngs), start=1):
        rng.standard_normal(out=row)
        if level < T:
            row *= schedule.noise_by_level[level]
    k, L, plan = config.frames_per_shot, config.boundary, stream.plan
    conds = [plan[0]] * (T - 1)
    conds += [plan[shot_for_frame(f, k, L)] for f in range(stream.shape[0])]
    return LatentQueue(stream, denoiser, schedule, latents, rngs, 1 - T, conds)


def tick(queue: LatentQueue) -> Optional[Tuple[int, np.ndarray]]:
    """One engine step: one ``reverse_step`` denoises every latent once,
    then the head is emitted and fresh noise enqueued.

    The rows take their conditions as one slice of the queue's per-frame
    list. The queue's backend is called once for the whole tick, with the
    level vector 1..n, so row p is at ``levels[p]`` = p + 1 and a backend
    that records its calls sees the tick in one call.
    Returns (global_frame, frame) when a story frame is emitted, None while
    warm-up dummies are being discarded; the frame is a copy, sharing no
    memory with the queue. Once the plan is exhausted the queue drains (no
    enqueue) until empty.
    """
    rows = len(queue.latents)
    if not rows:
        raise StateError("queue is empty")
    stream, schedule = queue.stream, queue.schedule
    config, first = stream.config, queue.ticks
    next_frame = queue.head + rows
    enqueue = next_frame < stream.shape[0]
    stepped = np.empty((rows + enqueue,) + queue.latents.shape[1:])
    reverse_step(queue.denoiser, queue.latents, np.arange(1, rows + 1),
                 queue.conds[first:first + rows], schedule,
                 eta=config.eta, rngs=queue.rngs, out=stepped[:rows])
    del queue.rngs[0]
    if enqueue:
        queue.rngs.append(spawn_rng("queue-noise", config.timeline_seed, next_frame))
        queue.rngs[-1].standard_normal(out=stepped[rows])
    emitted = None if queue.head < 0 else (queue.head, stepped[0].copy())
    queue.latents = stepped[1:]
    queue.head += 1
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
    windowed shot's clip in turn, two frames at a time on the calling
    thread and one worker, so two frames' step buffers are alive at a time
    (see ``generate_shot_clip``), or each frame as the fifo-reset queue
    emits it. ``shape`` is the shape of all the frames stacked, known
    before any frame is sampled, so a writer can put each frame on disk
    and drop it. Every iteration samples afresh. To watch the queue, drive
    ``init_queue(stream, backend)`` and ``tick`` with a backend that
    records its calls."""

    plan: List[Condition]
    config: PipelineConfig

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
