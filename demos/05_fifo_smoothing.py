"""Watch the FIFO queue cross a shot boundary.

Every tick denoises all T slots one level, emits the fully denoised head,
and enqueues fresh noise carrying the condition of whichever shot owns the
entering frame. The instrumented trace shows the next shot's conditioning
entering the queue while the previous shot is still denoising: the reset
boundary in action.

Run: python3 demos/05_fifo_smoothing.py
"""

from multishot.config import PipelineConfig
from multishot.pipeline import build_story, generate_timeline, render_keyframes
from multishot.smoothing import DenoiseTrace, run_timeline

config = PipelineConfig(n_shots=3, frames_per_shot=4, steps=8, seed=0)
k = config.frames_per_shot
story = build_story("the life of a lighthouse keeper named Edda", config)
keyframes = render_keyframes(story, config)

trace = DenoiseTrace()
frames = run_timeline(generate_timeline(story, keyframes, config, trace=trace))

# the schedule, read off the trace: frame f is emitted by the tick of its
# level-1 record, and shot j's condition is enqueued at the end of the tick
# before the first one that denoises it
emission_ticks = {r.tick: r.global_frame for r in trace.records if r.level == 1}
switch_ticks = {}
for record in trace.records:
    switch_ticks.setdefault(record.condition_shot, record.tick - 1)
last_tick = max(emission_ticks)

print(f"{config.n_shots} shots x {config.frames_per_shot} frames, T={config.steps}")
print(f"emitted {len(frames)} frames over {last_tick} ticks\n")

print("queue contents per tick (each cell: the shot whose condition that")
print("slot carries; head on the left emits next, tail just enqueued):")
ticks = {}
for record in trace.records:
    ticks.setdefault(record.tick, []).append((record.level, record.condition_shot))
for tick in range(1, last_tick + 1):
    cells = ["."] * (config.steps + 1)
    for level, shot in ticks.get(tick, []):
        cells[level] = str(shot)
    marker = ""
    if tick in emission_ticks:
        gf = emission_ticks[tick]
        marker = f"  -> emits frame {gf} (shot {gf // k})"
    print(f"  tick {tick:2d}  levels 1..T: {' '.join(cells[1:])}{marker}")

print("\nfirst tick each shot's condition appears:", switch_ticks)
first_shot1 = min(r.tick for r in trace.records if r.condition_shot == 1)
last_shot0 = max(t for t, gf in emission_ticks.items() if gf // k == 0)
print(f"shot 1 conditioning enters at tick {first_shot1}; "
      f"shot 0 finishes emitting at tick {last_shot0} (overlap = smooth handover)")

windowed = run_timeline(generate_timeline(story, keyframes, config.merged(mode="windowed")))
print("\nwindowed mode produces the same frame array shape:",
      windowed.shape == frames.shape)
