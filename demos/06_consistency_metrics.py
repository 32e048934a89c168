"""Score a toy run: face/style consistency within and across shots, PSNR,
and per-domain text alignment, including the identity-embedding ablation.

Run: python3 demos/06_consistency_metrics.py
"""

import numpy as np

from multishot.config import PipelineConfig
from multishot.metrics import build_report
from multishot.pipeline import build_story, generate_timeline, render_keyframes
from multishot.smoothing import run_timeline

USER_INPUT = "the life of a lighthouse keeper named Edda"


def report_for(ip_scale, seed=0):
    config = PipelineConfig(seed=seed, ip_scale=ip_scale)
    story = build_story(USER_INPUT, config)
    keyframes = render_keyframes(story, config)
    frames = run_timeline(generate_timeline(story, keyframes, config))
    # score the float32 frames that frames.vgt stores, as `multishot metrics` does
    return build_report(frames.astype(np.float32), story, config)


with_ip = report_for(1.0)
without_ip = report_for(0.0)

print("default 4-shot toy run, identity embeddings ON:")
print(f"  FC within {with_ip.fc_within:+.4f}   FC cross {with_ip.fc_cross:+.4f}")
print(f"  SC within {with_ip.sc_within:+.4f}   SC cross {with_ip.sc_cross:+.4f}")
print(f"  PSNR over within-shot frame pairs: {with_ip.psnr_pairs:.2f} dB")
print("  alignment by script domain:")
for domain, value in with_ip.clip_by_domain.items():
    print(f"    {domain:10s} {value:+.4f}")

print("\nsame run with identity embeddings OFF (ip_scale=0):")
print(f"  FC cross drops {with_ip.fc_cross:+.4f} -> {without_ip.fc_cross:+.4f}")
print("  (the cross-shot face consistency is exactly what the identity")
print("   embedding buys; within-shot scores stay high either way)")

print("\nordering checks on this run:")
print(f"  fc_within > fc_cross : {with_ip.fc_within > with_ip.fc_cross}")
print(f"  sc_within >= sc_cross: {with_ip.sc_within >= with_ip.sc_cross}")
