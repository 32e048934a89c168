"""Render avatars, anchor each shot with an identity-conditioned keyframe,
and check that keyframes sharing an avatar really share identity.

Run: python3 demos/04_keyframes_and_avatars.py
"""

import numpy as np

from multishot.casting import render_avatar
from multishot.config import PipelineConfig
from multishot.metrics import IdentityChannelMean, cosine
from multishot.pipeline import build_story, render_keyframes

config = PipelineConfig(seed=7)
story = build_story("the life of a lighthouse keeper named Edda", config)
keyframes = render_keyframes(story, config)

print(f"{len(story.avatars)} avatars rendered (portrait sampled from the avatar prompt,")
print(" then encoded to a unit-norm identity embedding):")
for avatar, identity in zip(story.avatars, render_avatar(story.avatars, config)):
    head = identity[:4].round(3)
    print(f"  {avatar.id}: seed={avatar.seed}, embedding[:4]={head}")

print(f"\n{len(keyframes)} keyframes, one per shot, conditioned on the full")
print("five-domain script text plus the shot's avatar embedding")

feature = IdentityChannelMean()
features = [feature(kf) for kf in keyframes]
by_avatar = [script.avatar_id for script in story.scripts]

print("\npairwise identity-feature cosine between keyframes:")
print("      " + "  ".join(f"shot{j}" for j in range(4)))
for i in range(4):
    row = "  ".join(f"{cosine(features[i], features[j]):+.2f}" for j in range(4))
    print(f"shot{i}  {row}   avatar={by_avatar[i]}")
print("\nsame-avatar blocks sit near +1; cross-avatar pairs wander near 0.")

noise_bound = 3 * config.sigma0 / np.sqrt(config.height * config.width)
gap = np.abs(features[0] - features[1]).max()
print(f"same-avatar keyframe identity distance {gap:.3f} < sampler-noise bound {noise_bound:.3f}")
