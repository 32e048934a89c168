"""Watch the FIFO queue cross a shot boundary.

Every tick denoises all T slots one level, emits the fully denoised head,
and enqueues fresh noise carrying the condition of whichever shot owns the
entering frame. A backend that records each call it gets, with its level
and condition, shows the next shot's conditioning entering the queue while
the previous shot is still denoising: the reset boundary in action.

Run: python3 demos/05_fifo_smoothing.py
"""

from multishot.config import PipelineConfig
from multishot.pipeline import build_story, generate_timeline, render_keyframes
from multishot.smoothing import FrameStream, build_plan, init_queue, run_timeline, tick

config = PipelineConfig(n_shots=3, frames_per_shot=4, steps=8, seed=0)
k = config.frames_per_shot
story = build_story("the life of a lighthouse keeper named Edda", config)
keyframes = render_keyframes(story, config)
plan = build_plan(story, keyframes, config)
shot_of = {cond: j for j, cond in enumerate(plan)}

world, calls = config.world(), []


def recorder(x_t, t, cond, schedule):
    calls.append((t, cond))
    return world(x_t, t, cond, schedule)


# row t of a tick holds frame head + t - 1, so each call names its frame;
# warm-up dummies (negative frames) are left out of the table
queue = init_queue(FrameStream(plan, config), recorder)
ticks, emission_ticks, frames = {}, {}, []
while len(queue.latents):
    head = queue.head
    calls.clear()
    emitted = tick(queue)
    ticks[queue.ticks] = [(t, shot_of[cond]) for t, cond in calls if head + t > 0]
    if emitted is not None:
        emission_ticks[queue.ticks] = emitted[0]
        frames.append(emitted[1])
last_tick = queue.ticks

# shot j's condition is enqueued at the end of the tick before the first
# one that denoises it
switch_ticks = {}
for tick_no, cells in ticks.items():
    for _, shot in cells:
        switch_ticks.setdefault(shot, tick_no - 1)

print(f"{config.n_shots} shots x {config.frames_per_shot} frames, T={config.steps}")
print(f"emitted {len(frames)} frames over {last_tick} ticks\n")

print("queue contents per tick (each cell: the shot whose condition that")
print("slot carries; head on the left emits next, tail just enqueued):")
for tick_no in range(1, last_tick + 1):
    cells = ["."] * (config.steps + 1)
    for level, shot in ticks[tick_no]:
        cells[level] = str(shot)
    marker = ""
    if tick_no in emission_ticks:
        gf = emission_ticks[tick_no]
        marker = f"  -> emits frame {gf} (shot {gf // k})"
    print(f"  tick {tick_no:2d}  levels 1..T: {' '.join(cells[1:])}{marker}")

print("\neach shot's condition is enqueued at the end of tick:", switch_ticks)
first_shot1 = switch_ticks[1] + 1
last_shot0 = max(t for t, gf in emission_ticks.items() if gf // k == 0)
print(f"shot 1 conditioning enters at tick {first_shot1}; "
      f"shot 0 finishes emitting at tick {last_shot0} (overlap = smooth handover)")

windowed = run_timeline(generate_timeline(story, keyframes, config.merged(mode="windowed")))
print("\nwindowed mode produces the same frame array shape:",
      windowed.shape == (len(frames),) + frames[0].shape)
