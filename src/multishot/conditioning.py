"""Mock encoders, cross-attention, and the map from a condition to the toy
world's latent mean.

An embedding is a read-only, unit-norm float64 vector; both mock encoders,
of text and of a latent image, normalise through :func:`unit_vector`. A
:class:`Condition` is the text vector, an optional image vector and the
image weight. It hashes by identity, so a world can memoise its mean.

The scaled dot-product kernel is the standard Softmax(Q K^T / sqrt(d_k)) V.
Image conditioning is injected IP-Adapter style: :meth:`MeanProjector.mean`
attends the image tokens apart from the text tokens and sums the two
outputs with a scalar weight, so setting the weight to zero disables the
image branch exactly.

The latent mean of a condition is produced by a fixed seeded projector.
With ``attend(v)`` the fixed query attending over ``v`` split into tokens
and ``s`` the image weight, mu(c) at every pixel is

* identity channels (the first ``IDENTITY_CHANNELS``):
  ``IDENTITY_GAIN * s * id_map @ unit(attend(ip))``, spatially constant and
  zero without an image, so two conditions sharing an image embedding and
  scale have identical identity channels regardless of text;
* content channels (the rest):
  ``CONTENT_GAIN * basis @ (attend(text) + s * attend(ip))``, a structured
  random spatial pattern linear in the composed vector, giving every
  condition a distinct, recoverable covariance signature.

Everything here is a pure function of its inputs; nothing is learned. The
sizes and gains of the toy world are module constants, not settings:
``EMBED_DIM`` (an embedding's width, the encoders' default), ``TOKENS``
(the chunks an embedding is split into), ``IDENTITY_CHANNELS`` (the
leading latent channels that carry identity), ``IDENTITY_GAIN`` and
``CONTENT_GAIN``.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Optional, Tuple

import numpy as np

from .errors import ConfigError, InputError, ShapeError
from .seeds import spawn_rng

EMBED_DIM = 16
TOKENS = 4
IDENTITY_CHANNELS = 4
IDENTITY_GAIN = 6.0
CONTENT_GAIN = 5.0


@dataclass(frozen=True, eq=False)
class Condition:
    """Everything a denoiser call sees: the text vector, an optional image
    vector, and the image weight. Equal and hashed by identity: two
    conditions built from equal vectors are distinct keys."""

    text: np.ndarray
    ip: Optional[np.ndarray] = None
    ip_scale: float = 0.0

    def __post_init__(self):
        if self.ip is None and self.ip_scale != 0.0:
            raise ConfigError("ip_scale must be 0 when no image embedding is present")
        if self.ip_scale < 0:
            raise ConfigError(f"ip_scale must be nonnegative, got {self.ip_scale}")


def norm(v: np.ndarray):
    """The Euclidean norm of the float array ``v``, computed as
    ``np.linalg.norm`` computes it, the square root of the raveled array's
    dot product with itself, without that function's dispatch. ``np.sqrt``
    keeps a float32 norm float32, as ``np.linalg.norm`` does."""
    flat = np.asarray(v).ravel("K")
    return np.sqrt(flat.dot(flat))


def unit_vector(v: np.ndarray) -> np.ndarray:
    """``v`` scaled to unit length as a new read-only array; a (near-)zero
    ``v`` maps to the first basis vector, so the degenerate case stays
    deterministic and NaN-free."""
    n = norm(v)
    if n < 1e-12:
        unit = np.zeros_like(v)
        unit[0] = 1.0
    else:
        unit = v / n
    unit.flags.writeable = False
    return unit


@lru_cache(maxsize=4096)
def _token_vector(token: str, d_e: int, seed: int) -> np.ndarray:
    """The seeded Gaussian vector of one text token, shared read-only."""
    vector = spawn_rng("text-token", seed, d_e, token).standard_normal(d_e)
    vector.flags.writeable = False
    return vector


def encode_text_mock(prompt: str, d_e: int = EMBED_DIM, seed: int = 0) -> np.ndarray:
    """Deterministic text featurizer: hash each token to a seeded Gaussian
    vector, sum, and normalize to a read-only unit vector.

    Token-level hashing means texts sharing words get correlated embeddings,
    which is what lets alignment scores downstream prefer a frame's own
    script over an unrelated one.
    """
    stripped = prompt.strip()
    if not stripped:
        raise InputError("prompt is empty after trimming")
    total = np.zeros(d_e)
    for token in stripped.split():
        total += _token_vector(token, d_e, seed)
    return unit_vector(total)


def encode_image_mock(
    latent: np.ndarray, d_e: int = EMBED_DIM, seed: int = 0
) -> np.ndarray:
    """Fixed seeded linear map of the latent, as a read-only unit vector
    (see :func:`unit_vector`; a zero latent maps to the first basis vector).
    """
    flat = np.asarray(latent, dtype=float).ravel()
    weights = spawn_rng("image-encoder", seed, d_e, flat.size).standard_normal(
        (d_e, flat.size)
    ) / np.sqrt(flat.size)
    return unit_vector(weights @ flat)


def attention(q: np.ndarray, k: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Softmax(Q K^T / sqrt(d_k)) V with row-wise softmax.

    ``q`` may be a single vector or a (rows, d_k) matrix; keys and values
    must have matching row counts.
    """
    q = np.asarray(q, dtype=float)
    k = np.asarray(k, dtype=float)
    v = np.asarray(v, dtype=float)
    squeeze = q.ndim == 1
    if squeeze:
        q = q[None, :]
    if k.ndim != 2 or v.ndim != 2 or q.ndim != 2:
        raise ShapeError("attention operands must be vectors or 2-D matrices")
    if k.shape[0] != v.shape[0]:
        raise ShapeError(f"key rows {k.shape[0]} != value rows {v.shape[0]}")
    if q.shape[1] != k.shape[1]:
        raise ShapeError(f"query dim {q.shape[1]} != key dim {k.shape[1]}")
    logits = (q @ k.T) / np.sqrt(k.shape[1])
    logits -= logits.max(axis=1, keepdims=True)
    weights = np.exp(logits)
    weights /= weights.sum(axis=1, keepdims=True)
    out = weights @ v
    return out[0] if squeeze else out


def split_tokens(vector: np.ndarray) -> np.ndarray:
    """Tokenize an embedding by splitting it into TOKENS contiguous chunks."""
    vector = np.asarray(vector, dtype=float)
    if vector.ndim != 1 or vector.size % TOKENS != 0:
        raise ShapeError(f"cannot split length-{vector.size} vector into {TOKENS} tokens")
    return vector.reshape(TOKENS, vector.size // TOKENS)


@dataclass(frozen=True)
class MeanProjector:
    """Fixed seeded linear machinery behind the latent mean mu(c).

    ``basis`` columns are rank-1 spatial-field x channel-direction patterns
    with scalar fields shared between column pairs, so distinct composed
    vectors produce style-distinguishable covariance signatures.
    """

    query: np.ndarray
    id_map: np.ndarray  # (IDENTITY_CHANNELS, d_token)
    basis: np.ndarray  # (h*w*(d-IDENTITY_CHANNELS), d_token)
    basis_pinv: np.ndarray  # (d_token, h*w*(d-IDENTITY_CHANNELS))
    shape: Tuple[int, int, int]

    def attend(self, vector: np.ndarray) -> np.ndarray:
        """The shared token featurizer: fixed query over split tokens."""
        toks = split_tokens(vector)
        return attention(self.query, toks, toks)

    def mean(self, cond: Condition) -> np.ndarray:
        """Deterministic latent mean mu(c) for the Gaussian world.

        Identity channels (0..IDENTITY_CHANNELS-1) depend only on the image
        embedding and ip_scale; the remaining channels depend on the full
        composed vector, ``attend(text) + ip_scale * attend(ip)``.
        """
        text = self.attend(cond.text)
        ip = np.zeros_like(text) if cond.ip is None else self.attend(cond.ip)
        composed = text + cond.ip_scale * ip
        h, w, d = self.shape
        out = np.zeros(self.shape)
        ip_norm = norm(ip)
        ip_unit = ip / ip_norm if ip_norm > 1e-12 else ip
        identity = IDENTITY_GAIN * cond.ip_scale * (self.id_map @ ip_unit)
        out[:, :, :IDENTITY_CHANNELS] = identity[None, None, :]
        content = CONTENT_GAIN * (self.basis @ composed)
        out[:, :, IDENTITY_CHANNELS:] = content.reshape(h, w, d - IDENTITY_CHANNELS)
        return out

    def recover_composed(self, frame: np.ndarray) -> np.ndarray:
        """Least-squares inverse of the content channels back to the
        composed attention vector; used by the toy alignment scorer."""
        rest = np.asarray(frame)[:, :, IDENTITY_CHANNELS:].ravel() / CONTENT_GAIN
        return self.basis_pinv @ rest


@lru_cache(maxsize=1)
def get_projector(projector_seed: int, shape: Tuple[int, int, int]) -> MeanProjector:
    """Build (and cache) the fixed seeded projector for a latent shape.

    A run uses one projector, and at a 64x64x16 latent its basis and
    pseudo-inverse take 3 MB, so the cache keeps only the latest."""
    h, w, d = shape
    if d <= IDENTITY_CHANNELS:
        raise ConfigError(
            f"latent channels {d} must exceed the {IDENTITY_CHANNELS} identity channels"
        )
    d_token = EMBED_DIM // TOKENS
    rng = spawn_rng("mean-projector", projector_seed, shape, EMBED_DIM, TOKENS, IDENTITY_CHANNELS)
    query = rng.standard_normal(d_token)
    id_map = rng.standard_normal((IDENTITY_CHANNELS, d_token)) / np.sqrt(d_token)
    fields = [rng.standard_normal((h, w)) for _ in range((d_token + 1) // 2)]
    columns = []
    for m in range(d_token):
        direction = rng.standard_normal(d - IDENTITY_CHANNELS)
        direction /= norm(direction)
        pattern = fields[m // 2][:, :, None] * direction[None, None, :]
        columns.append(pattern.ravel())
    basis = np.stack(columns, axis=1)
    return MeanProjector(query, id_map, basis, np.linalg.pinv(basis), shape)
