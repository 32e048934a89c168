"""Embedding spaces, mock encoders, cross-attention, and the map from a
condition to the toy world's latent mean.

The scaled dot-product kernel is the standard Softmax(Q K^T / sqrt(d_k)) V.
Image conditioning is injected IP-Adapter style: the key/value pair for the
image tokens is decoupled from the text pair and the two attention outputs
are summed with a scalar weight, so setting the weight to zero disables the
image branch exactly.

The latent mean of a condition is produced by a fixed seeded projector:

* a fixed query attends over the tokenized text and image embeddings;
* the first ``d_id`` channels ("identity channels") are spatially constant
  and driven only by the image branch, so two conditions sharing an image
  embedding and scale have identical identity channels regardless of text;
* the remaining channels receive a structured random spatial pattern that
  is linear in the composed attention output, giving every condition a
  distinct, recoverable covariance signature.

Everything here is a pure function of its inputs; nothing is learned.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from functools import lru_cache
from typing import Optional, Tuple

import numpy as np

from .errors import ConfigError, InputError, ShapeError
from .seeds import spawn_rng

DEFAULT_EMBED_DIM = 16
DEFAULT_TOKENS = 4
DEFAULT_IDENTITY_CHANNELS = 4
DEFAULT_IDENTITY_GAIN = 6.0
DEFAULT_CONTENT_GAIN = 5.0


@dataclass(frozen=True)
class Embedding:
    """A unit-norm feature vector with provenance."""

    data: np.ndarray
    kind: str  # "text" | "image"
    source: str


@dataclass(frozen=True)
class Condition:
    """Everything a denoiser call sees: text, optional image, and a weight."""

    text: Embedding
    ip: Optional[Embedding] = None
    ip_scale: float = 0.0

    def __post_init__(self):
        if self.ip is None and self.ip_scale != 0.0:
            raise ConfigError("ip_scale must be 0 when no image embedding is present")
        if self.ip_scale < 0:
            raise ConfigError(f"ip_scale must be nonnegative, got {self.ip_scale}")


def _normalized(v: np.ndarray) -> np.ndarray:
    n = np.linalg.norm(v)
    if n < 1e-12:
        fallback = np.zeros_like(v)
        fallback[0] = 1.0
        return fallback
    return v / n


@lru_cache(maxsize=4096)
def _token_vector(token: str, d_e: int, seed: int) -> np.ndarray:
    """The seeded Gaussian vector of one text token, shared read-only."""
    vector = spawn_rng("text-token", seed, d_e, token).standard_normal(d_e)
    vector.flags.writeable = False
    return vector


def encode_text_mock(prompt: str, d_e: int = DEFAULT_EMBED_DIM, seed: int = 0) -> Embedding:
    """Deterministic text featurizer: hash each token to a seeded Gaussian
    vector, sum, and normalize.

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
    digest = hashlib.sha256(stripped.encode("utf-8")).hexdigest()[:12]
    return Embedding(data=_normalized(total), kind="text", source=f"prompt:{digest}")


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


def split_tokens(vector: np.ndarray, n_tokens: int = DEFAULT_TOKENS) -> np.ndarray:
    """Tokenize an embedding by splitting it into contiguous chunks."""
    vector = np.asarray(vector, dtype=float)
    if vector.ndim != 1 or vector.size % n_tokens != 0:
        raise ShapeError(f"cannot split length-{vector.size} vector into {n_tokens} tokens")
    return vector.reshape(n_tokens, vector.size // n_tokens)


def compose_condition(
    query: np.ndarray,
    text_tokens: Tuple[np.ndarray, np.ndarray],
    ip_tokens: Optional[Tuple[np.ndarray, np.ndarray]] = None,
    ip_scale: float = 0.0,
) -> np.ndarray:
    """Decoupled attention: Attn(q, K_text, V_text) + s * Attn(q, K_ip, V_ip).

    The image term vanishes when no image tokens are given; output is linear
    in ``ip_scale`` by construction.
    """
    if ip_scale < 0:
        raise ConfigError(f"ip_scale must be nonnegative, got {ip_scale}")
    out = attention(query, text_tokens[0], text_tokens[1])
    if ip_tokens is not None:
        out = out + ip_scale * attention(query, ip_tokens[0], ip_tokens[1])
    return out


@dataclass(frozen=True)
class MeanProjector:
    """Fixed seeded linear machinery behind the latent mean mu(c).

    ``basis`` columns are rank-1 spatial-field x channel-direction patterns
    with scalar fields shared between column pairs, so distinct composed
    vectors produce style-distinguishable covariance signatures.
    """

    query: np.ndarray
    id_map: np.ndarray  # (d_id, d_token)
    basis: np.ndarray  # (h*w*(d-d_id), d_token)
    basis_pinv: np.ndarray  # (d_token, h*w*(d-d_id))
    shape: Tuple[int, int, int]
    d_id: int
    n_tokens: int
    identity_gain: float
    content_gain: float

    def attend(self, vector: np.ndarray) -> np.ndarray:
        """The shared token featurizer: fixed query over split tokens."""
        toks = split_tokens(vector, self.n_tokens)
        return attention(self.query, toks, toks)

    def mean(self, cond: Condition) -> np.ndarray:
        """Deterministic latent mean mu(c) for the Gaussian world.

        Identity channels (0..d_id-1) depend only on the image embedding and
        ip_scale; the remaining channels depend on the full composed vector.
        """
        text_toks = split_tokens(cond.text.data, self.n_tokens)
        ip_toks = None if cond.ip is None else split_tokens(cond.ip.data, self.n_tokens)
        composed = compose_condition(
            self.query,
            (text_toks, text_toks),
            None if ip_toks is None else (ip_toks, ip_toks),
            cond.ip_scale,
        )
        if ip_toks is not None:
            ip_term = attention(self.query, ip_toks, ip_toks)
        else:
            ip_term = np.zeros(text_toks.shape[1])
        h, w, d = self.shape
        out = np.zeros(self.shape)
        ip_norm = np.linalg.norm(ip_term)
        ip_unit = ip_term / ip_norm if ip_norm > 1e-12 else ip_term
        identity = self.identity_gain * cond.ip_scale * (self.id_map @ ip_unit)
        out[:, :, : self.d_id] = identity[None, None, :]
        content = self.content_gain * (self.basis @ composed)
        out[:, :, self.d_id :] = content.reshape(h, w, d - self.d_id)
        return out

    def recover_composed(self, frame: np.ndarray) -> np.ndarray:
        """Least-squares inverse of the content channels back to the
        composed attention vector; used by the toy alignment scorer."""
        rest = np.asarray(frame)[:, :, self.d_id :].ravel() / self.content_gain
        return self.basis_pinv @ rest


@lru_cache(maxsize=64)
def get_projector(
    projector_seed: int,
    shape: Tuple[int, int, int],
    d_e: int = DEFAULT_EMBED_DIM,
    n_tokens: int = DEFAULT_TOKENS,
    d_id: int = DEFAULT_IDENTITY_CHANNELS,
    identity_gain: float = DEFAULT_IDENTITY_GAIN,
    content_gain: float = DEFAULT_CONTENT_GAIN,
) -> MeanProjector:
    """Build (and cache) the fixed seeded projector for a configuration."""
    h, w, d = shape
    if d_id > d:
        raise ConfigError(f"identity channels {d_id} exceed latent channels {d}")
    if d_e % n_tokens != 0:
        raise ConfigError(f"embed dim {d_e} not divisible into {n_tokens} tokens")
    d_token = d_e // n_tokens
    rng = spawn_rng("mean-projector", projector_seed, shape, d_e, n_tokens, d_id)
    query = rng.standard_normal(d_token)
    id_map = rng.standard_normal((d_id, d_token)) / np.sqrt(d_token)
    fields = [rng.standard_normal((h, w)) for _ in range((d_token + 1) // 2)]
    columns = []
    for m in range(d_token):
        direction = rng.standard_normal(d - d_id)
        direction /= np.linalg.norm(direction)
        pattern = fields[m // 2][:, :, None] * direction[None, None, :]
        columns.append(pattern.ravel())
    basis = np.stack(columns, axis=1)
    return MeanProjector(
        query=query,
        id_map=id_map,
        basis=basis,
        basis_pinv=np.linalg.pinv(basis),
        shape=shape,
        d_id=d_id,
        n_tokens=n_tokens,
        identity_gain=identity_gain,
        content_gain=content_gain,
    )
