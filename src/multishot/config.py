"""Run-level configuration: every knob of the pipeline in one serializable
dataclass, with the single-seed fan-out that makes one flag reproduce a
whole run. Stage functions take the config itself and derive the schedule,
world, shapes and seeds they need from it.

The toy world's fixed constants are not knobs: the embedding width, token
count, identity channels and gains are constants of conditioning (a config
reads the first and the third as ``embed_dim`` and ``identity_channels``),
the style feature width and the PSNR peak are constants of metrics, and the
schedule ends are the defaults of make_schedule."""

from __future__ import annotations

import math
import threading
from dataclasses import asdict, dataclass, fields, replace
from typing import ClassVar, Optional

from .conditioning import EMBED_DIM, IDENTITY_CHANNELS, MeanProjector, get_projector
from .diffusion import GaussianWorld, NoiseSchedule, make_schedule
from .errors import ConfigError
from .seeds import derive_seed
from .tensorio import MAX_DIM, canonical_json, read_json

MODES = ("windowed", "fifo-reset")

#: The largest sigma0 and ip_scale, so every float of a run stays finite.
#: mu(c) is linear in ip_scale (IDENTITY_GAIN * ip_scale on the identity
#: channels, CONTENT_GAIN * (1 + ip_scale) on the rest), and a frame is
#: about mu + min(sigma0, 1 / sqrt(alpha_bar(T))) * z for unit noise z, so
#: an element is at most a few thousand times 1 + ip_scale + sigma0 at any
#: latent and embedding size. The metrics square the float32 identity
#: features, which overflow past 1.8e19, and analytic_eps forms
#: sigma0**2 * x_t in float64, which overflows past 1.8e308. At 1e6 a frame
#: element stays below about 1e10, its square times any identity-channel
#: count below 1e30, and sigma0**2 * x_t below 1e22.
SCALE_LIMIT = 1e6

#: Each field annotation's description and the Python types it accepts. A
#: bool is never a number, and an int given for a float is kept as an int,
#: so config.json keeps the bytes it was written with.
FIELD_TYPES = {
    "int": ("an integer", (int,)),
    "float": ("a number", (int, float)),
    "str": ("a string", (str,)),
    "Optional[int]": ("null or an integer", (int, type(None))),
}


@dataclass(frozen=True)
class PipelineConfig:
    """Behavioral knobs of a run. Field names are the config.json keys; a
    non-empty llm_endpoint selects the HTTP LLM client over the mock."""

    n_shots: int = 4
    frames_per_shot: int = 8
    mode: str = "fifo-reset"
    steps: int = 50
    eta: float = 0.0
    height: int = 8
    width: int = 8
    channels: int = 8
    ip_scale: float = 1.0
    sigma0: float = 0.5
    shots_per_avatar: int = 2
    reset_boundary: Optional[int] = None
    seed: int = 0
    llm_endpoint: str = ""

    # constants of the toy world, readable here but not config.json keys
    embed_dim: ClassVar[int] = EMBED_DIM
    identity_channels: ClassVar[int] = IDENTITY_CHANNELS

    def __post_init__(self):
        self.validate()

    def validate(self):
        for f in fields(self):
            value = getattr(self, f.name)
            expected, types = FIELD_TYPES[f.type]
            if isinstance(value, bool) or not isinstance(value, types):
                raise ConfigError(f"{f.name} must be {expected}, got {value!r}")
            if f.type == "float" and not math.isfinite(value):
                raise ConfigError(f"{f.name} must be finite, got {value!r}")
        positive = (
            "n_shots", "frames_per_shot", "steps", "height", "width", "channels",
            "shots_per_avatar",
        )
        for name in positive:
            if getattr(self, name) < 1:
                raise ConfigError(f"{name} must be >= 1, got {getattr(self, name)}")
        # the dimensions of frames.vgt, each a uint32
        shape = (self.n_shots * self.frames_per_shot, *self.latent_shape)
        for name, dim in zip(("n_shots * frames_per_shot", "height", "width", "channels"), shape):
            if dim > MAX_DIM:
                raise ConfigError(f"{name} must be at most {MAX_DIM}, a .vgt dimension, got {dim}")
        if self.mode not in MODES:
            raise ConfigError(f"mode must be one of {MODES}, got '{self.mode}'")
        if not 1 <= self.boundary <= self.frames_per_shot:
            raise ConfigError(
                f"reset_boundary must lie in [1, frames_per_shot={self.frames_per_shot}], "
                f"got {self.reset_boundary}"
            )
        if not 0.0 <= self.eta <= 1.0:
            raise ConfigError(f"eta must lie in [0, 1], got {self.eta}")
        if self.mode == "windowed" and self.boundary != self.frames_per_shot:
            raise ConfigError(
                "reset_boundary applies to fifo-reset only; windowed mode needs "
                f"reset_boundary=frames_per_shot, got {self.reset_boundary}"
            )
        if self.channels <= IDENTITY_CHANNELS:
            # the channels past the identity channels carry the text;
            # without one, no frame depends on its prompt
            raise ConfigError(
                f"channels must exceed the {IDENTITY_CHANNELS} identity channels, "
                f"got {self.channels}"
            )
        for name in ("sigma0", "ip_scale"):
            if not 0 <= getattr(self, name) <= SCALE_LIMIT:
                raise ConfigError(
                    f"{name} must lie in [0, {SCALE_LIMIT:g}], got {getattr(self, name)}"
                )

    # -- derived pieces -----------------------------------------------------

    @property
    def boundary(self) -> int:
        """The reset boundary L: reset_boundary, or frames_per_shot when unset.
        L acts on the fifo-reset queue only."""
        return self.frames_per_shot if self.reset_boundary is None else self.reset_boundary

    @property
    def latent_shape(self) -> tuple:
        return (self.height, self.width, self.channels)

    @property
    def encoder_seed(self) -> int:
        return derive_seed("encoders", self.seed)

    @property
    def projector_seed(self) -> int:
        return derive_seed("projector", self.seed)

    @property
    def style_seed(self) -> int:
        return derive_seed("style", self.seed)

    @property
    def timeline_seed(self) -> int:
        """Root of the frame noise: the fifo-reset queue's and each windowed
        frame's (see ``clips.frame_seed``)."""
        return derive_seed("timeline", self.seed)

    def keyframe_seed(self, shot: int) -> int:
        return derive_seed("keyframe", self.seed, shot)

    def avatar_seed(self, avatar_id: str) -> int:
        return derive_seed("avatar-render", self.seed, avatar_id) % (2**31)

    def schedule(self) -> NoiseSchedule:
        return make_schedule(self.steps)

    def projector(self) -> MeanProjector:
        return get_projector(self.projector_seed, self.latent_shape)

    def world(self) -> GaussianWorld:
        """The Gaussian world, computing each condition's mean once.

        mu(c) is memoised per condition for this world's lifetime, so every
        denoiser call of a chain or queue after the first reuses it. The
        cached means are read-only. Chains on two threads may ask for one
        new condition at once, so a miss computes the mean under a lock
        and looks again inside it; a hit takes no lock."""
        mean = self.projector().mean
        means = {}
        lock = threading.Lock()

        def mean_map(cond):
            mu = means.get(cond)
            if mu is None:
                with lock:
                    mu = means.get(cond)
                    if mu is None:
                        mu = mean(cond)
                        mu.flags.writeable = False
                        means[cond] = mu
            return mu

        return GaussianWorld(sigma0=self.sigma0, mean_map=mean_map)

    # -- (de)serialization --------------------------------------------------

    def to_dict(self) -> dict:
        return asdict(self)

    @classmethod
    def from_dict(cls, data: dict) -> "PipelineConfig":
        known = {f.name for f in fields(cls)}
        unknown = set(data) - known
        if unknown:
            raise ConfigError(f"unknown config keys: {sorted(unknown)}")
        return cls(**data)

    def merged(self, **overrides) -> "PipelineConfig":
        """Apply overrides, ignoring None values (CLI flag precedence)."""
        changes = {k: v for k, v in overrides.items() if v is not None}
        return replace(self, **changes) if changes else self


def config_to_json(config: PipelineConfig) -> bytes:
    """Canonical config document: every field, in field order."""
    return canonical_json(config.to_dict())


def config_from_json(data: bytes):
    """Returns (config, extras). Extras carry the one non-behavioral key a
    config file may provide, 'out_dir'. A document that is not JSON raises
    ``ParseError``."""
    doc = read_json(data, "the config document")
    if not isinstance(doc, dict):
        raise ConfigError("config document must be a JSON object")
    extras = {"out_dir": doc.pop("out_dir")} if "out_dir" in doc else {}
    if not isinstance(extras.get("out_dir", ""), str):
        raise ConfigError(f"out_dir must be a string, got {extras['out_dir']!r}")
    return PipelineConfig.from_dict(doc), extras
