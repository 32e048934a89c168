"""Cross-shot smoothing: a FIFO queue of latents at staggered noise levels.

The queue holds exactly T slots, one per noise level, head at level 1 and
tail at level T. Every tick denoises each slot one level under that slot's
own condition, dequeues the head (now fully denoised) for emission, and
enqueues a fresh unit-noise slot at level T carrying the condition of the
shot that owns its global frame. Because each entering slot brings fresh
noise and its own shot's embeddings, the enqueue rule IS the reset
boundary: the next shot's conditioning starts participating k slots before
the previous shot's last frame finishes denoising, which is what smooths
the transition.

Two inference modes share the frame-count contract:

* windowed    - shots are generated independently and concatenated
                (each shot a separate temporal window);
* fifo-reset  - the continuous queue described above.

With the analytic backend and a deterministic world (sigma0 = 0) the two
modes agree elementwise, which is the engine's main correctness oracle.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Dict, List, Optional, Tuple

import numpy as np

from .clips import build_shot_condition, generate_shot_clip
from .conditioning import Condition
from .config import PipelineConfig
from .diffusion import AnalyticDenoiser, DenoiserBackend, NoiseSchedule, ddim_step
from .errors import ConfigError, StateError
from .script import Story
from .seeds import spawn_rng


@dataclass(frozen=True)
class QueueSlot:
    """One latent in flight: its level, owning frame/shot, and condition."""

    latent: np.ndarray
    level: int
    global_frame: int
    shot: int
    condition: Condition

    @property
    def dummy(self) -> bool:
        """Warm-up slots created at init carry negative frame numbers."""
        return self.global_frame < 0


@dataclass
class LatentQueue:
    """Ordered slots, head = lowest level; levels are exactly 1..T."""

    slots: List[QueueSlot]
    emitted: int = 0
    ticks: int = 0

    def check_invariant(self):
        if not self.slots:
            raise StateError("queue is empty")
        for pos, slot in enumerate(self.slots):
            expected = self.slots[0].level + pos
            if slot.level != expected:
                raise StateError(
                    f"slot {pos} at level {slot.level}, expected {expected}"
                )
            if pos and slot.global_frame != self.slots[pos - 1].global_frame + 1:
                raise StateError("global frames are not consecutive in the queue")


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
    """The ordered, shot-labeled sequence of all emitted frames."""

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

    With L = k (the default and the only value exercised by acceptance)
    every frame carries its own shot's condition. With L < k the switch
    happens later: the first k - L frames of a shot keep the previous
    shot's condition.
    """
    base = global_frame // k
    if L < k and base > 0 and global_frame % k < k - L:
        base -= 1
    return min(base, n_shots - 1)


def init_queue(plan: List[Condition], config: PipelineConfig, seed: int) -> LatentQueue:
    """Fill the queue with T slots: warm-up dummies (negative frames) plus
    the first story frame at the tail.

    Slots at level T hold unit noise, matching every later enqueue; warm-up
    slots at level t < T hold noise scaled to that level's marginal,
    sqrt(1 - alpha_bar(t)) * eps. All carry shot 0's condition.
    """
    if not plan:
        raise ConfigError("conditioning plan is empty")
    schedule, shape, T = config.schedule(), config.latent_shape, config.steps
    slots = []
    for pos in range(T):
        level = pos + 1
        global_frame = pos - T + 1
        noise = spawn_rng("queue-noise", seed, global_frame).standard_normal(shape)
        if level < T:
            latent = np.sqrt(1.0 - schedule.alpha_bar(level)) * noise
        else:
            latent = noise
        slots.append(
            QueueSlot(
                latent=latent,
                level=level,
                global_frame=global_frame,
                shot=0,
                condition=plan[0],
            )
        )
    return LatentQueue(slots=slots)


def _condition_shot(plan: List[Condition], cond: Condition) -> int:
    for j, candidate in enumerate(plan):
        if candidate is cond:
            return j
    raise StateError("slot condition is not one of the plan's conditions")


def tick(
    queue: LatentQueue,
    denoiser: DenoiserBackend,
    schedule: NoiseSchedule,
    plan: List[Condition],
    config: PipelineConfig,
    seed: int,
    trace: Optional[DenoiseTrace] = None,
) -> Optional[Tuple[int, np.ndarray]]:
    """One engine step: denoise every slot once, emit the head, enqueue
    fresh noise.

    Returns (global_frame, frame) when a story frame is emitted, None
    while warm-up dummies are being discarded; frames are the latents
    themselves. Once the plan is exhausted the queue drains (no enqueue)
    until empty. The per-slot updates are pure and order-independent.
    """
    queue.check_invariant()
    tick_no = queue.ticks + 1
    n_frames = len(plan) * config.frames_per_shot

    eps_list = []
    for slot in queue.slots:
        eps_list.append(denoiser(slot.latent, slot.level, slot.condition, schedule))
        if trace is not None and not slot.dummy:
            trace.append(
                TraceRecord(
                    tick=tick_no,
                    global_frame=slot.global_frame,
                    level=slot.level,
                    condition_shot=_condition_shot(plan, slot.condition),
                )
            )

    def eta_noise(slot):
        if config.eta == 0.0:
            return None
        return spawn_rng("queue-eta", seed, tick_no, slot.global_frame).standard_normal(
            slot.latent.shape
        )

    new_latents = [
        ddim_step(
            slot.latent,
            eps,
            slot.level,
            slot.level - 1,
            schedule,
            eta=config.eta,
            noise=eta_noise(slot),
        )
        for slot, eps in zip(queue.slots, eps_list)
    ]

    stepped = [
        replace(slot, latent=latent, level=slot.level - 1)
        for slot, latent in zip(queue.slots, new_latents)
    ]

    head, rest = stepped[0], stepped[1:]
    emitted = None
    if not head.dummy:
        emitted = (head.global_frame, head.latent)

    next_frame = stepped[-1].global_frame + 1
    if next_frame < n_frames:
        shot = shot_for_frame(next_frame, config.frames_per_shot, config.boundary, len(plan))
        rest.append(
            QueueSlot(
                latent=spawn_rng("queue-noise", seed, next_frame).standard_normal(
                    head.latent.shape
                ),
                level=schedule.T,
                global_frame=next_frame,
                shot=shot,
                condition=plan[shot],
            )
        )

    queue.slots = rest
    queue.ticks = tick_no
    if emitted is not None:
        queue.emitted += 1
    return emitted


def build_plan(story: Story, keyframes: List, config: PipelineConfig) -> List[Condition]:
    """Per-shot conditions from short descriptions and keyframes."""
    if len(story.descriptions) != story.n_shots:
        raise StateError("story descriptions are not fully populated")
    by_shot = {kf.shot_index: kf for kf in keyframes}
    plan = []
    for desc in story.descriptions:
        keyframe = by_shot.get(desc.index)
        if keyframe is None:
            raise StateError(f"no keyframe rendered for shot {desc.index}")
        plan.append(build_shot_condition(desc, keyframe, config))
    return plan


def run_timeline(
    story: Story,
    keyframes: List,
    config: PipelineConfig,
    seed: int,
    trace: Optional[DenoiseTrace] = None,
) -> VideoTimeline:
    """Produce all N*k frames in global order, labeled by shot."""
    n_shots, k = story.n_shots, config.frames_per_shot
    total = n_shots * k

    if config.mode == "windowed":
        frames: List[np.ndarray] = []
        shots: List[int] = []
        by_shot = {kf.shot_index: kf for kf in keyframes}
        for desc in story.descriptions:
            keyframe = by_shot.get(desc.index)
            if keyframe is None:
                raise StateError(f"no keyframe rendered for shot {desc.index}")
            clip = generate_shot_clip(desc, keyframe, config, seed)
            frames.extend(clip.frames)
            shots.extend([desc.index] * k)
        return VideoTimeline(frames=frames, shots=shots, mode=config.mode)

    plan = build_plan(story, keyframes, config)
    schedule = config.schedule()
    denoiser = AnalyticDenoiser(config.world())
    queue = init_queue(plan, config, seed)
    switch_ticks: Dict[int, int] = {0: 0}
    frames = [None] * total
    emission_ticks = [0] * total
    produced = 0
    max_ticks = total + config.steps + 4
    while produced < total:
        if queue.ticks >= max_ticks:
            raise StateError("queue failed to emit all frames (engine bug)")
        before = {s.global_frame for s in queue.slots}
        result = tick(queue, denoiser, schedule, plan, config, seed, trace=trace)
        for slot in queue.slots:
            if slot.global_frame not in before and slot.shot not in switch_ticks:
                switch_ticks[slot.shot] = queue.ticks
        if result is not None:
            global_frame, frame = result
            if frames[global_frame] is not None:
                raise StateError(f"frame {global_frame} emitted twice")
            frames[global_frame] = frame
            emission_ticks[global_frame] = queue.ticks
            produced += 1
    shots = [shot_for_frame(f, k, k, n_shots) for f in range(total)]
    return VideoTimeline(
        frames=frames,
        shots=shots,
        mode=config.mode,
        emission_ticks=emission_ticks,
        switch_ticks=switch_ticks,
    )
