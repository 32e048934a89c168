"""Show how conditions become latent means: scaled dot-product attention,
decoupled text/image mixing, and the identity channels that make a
character's look portable across shots.

Run: python3 demos/02_conditioning_and_identity.py
"""

import numpy as np

from multishot.conditioning import (
    Condition,
    Embedding,
    attention,
    compose_condition,
    encode_text_mock,
    get_projector,
)

# the attention kernel on a case small enough to verify by hand
q = np.array([2.0, 0.0])
k = np.array([[1.0, 0.0], [-1.0, 0.0]])
v = np.array([[1.0, 0.0], [0.0, 1.0]])
print("attention(q=[2,0]) over keys +-[1,0]:", attention(q, k, v).round(4))
print("  (logits +-2/sqrt(2) -> weights 0.9442 / 0.0558)")

# decoupled image conditioning: a second K/V block scaled independently
text_tokens = (k, v)
ip_tokens = (np.array([[0.5, 0.5]]), np.array([[0.5, 0.5]]))
for scale in (0.0, 0.5, 1.0):
    print(f"compose at ip_scale={scale}:", compose_condition(q, text_tokens, ip_tokens, scale).round(4))
print("  (linear in the scale; zero scale = text only)")

# identity channels respond to the image embedding only
shape = (8, 8, 8)
face = encode_text_mock("a weathered face with bright eyes", 16, 0)
face = Embedding(data=face.data, kind="image", source="demo")


def mean_for(prompt, ip, scale):
    cond = Condition(text=encode_text_mock(prompt, 16, 0), ip=ip, ip_scale=scale)
    return get_projector(0, shape).mean(cond)


a = mean_for("walking the cliff path at dusk", face, 1.0)
b = mean_for("mending nets in the boathouse", face, 1.0)
c = mean_for("walking the cliff path at dusk", None, 0.0)
print("\nidentity channels (spatial constants, first 4 of 8):")
print("  prompt A + face:", a[0, 0, :4].round(3))
print("  prompt B + face:", b[0, 0, :4].round(3), " <- same face, same identity")
print("  prompt A alone: ", c[0, 0, :4].round(3), " <- no face, identity zero")
print("content channels differ with the text: max|A-B| over rest =",
      np.abs(a[:, :, 4:] - b[:, :, 4:]).max().round(3))
