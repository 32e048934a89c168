"""Run-level configuration: every knob of the pipeline in one serializable
dataclass, with the single-seed fan-out that makes one flag reproduce a
whole run. Stage functions take the config itself and derive the schedule,
world, shapes and seeds they need from it.

The toy world's fixed constants are not knobs: the schedule ends live in
make_schedule, the token count and gains in conditioning, the style
feature width in StyleGram and the PSNR peak in psnr, each as the default
of the primitive that uses it."""

from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass, fields, replace
from typing import Optional

from .conditioning import (
    DEFAULT_EMBED_DIM,
    DEFAULT_IDENTITY_CHANNELS,
    DEFAULT_TOKENS,
    MeanProjector,
    get_projector,
)
from .diffusion import GaussianWorld, NoiseSchedule, make_schedule
from .errors import ConfigError
from .seeds import derive_seed

MODES = ("windowed", "fifo-reset")
PAIRINGS = ("consecutive", "all-pairs", "same-avatar")

#: The largest sigma0 and ip_scale, so every float of a run stays finite.
#: mu(c) is linear in ip_scale (identity_gain * ip_scale on the identity
#: channels, content_gain * (1 + ip_scale) on the rest), and a frame is
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
    identity_channels: int = DEFAULT_IDENTITY_CHANNELS
    embed_dim: int = DEFAULT_EMBED_DIM
    ip_scale: float = 1.0
    sigma0: float = 0.5
    shots_per_avatar: int = 2
    pairing: str = "consecutive"
    reset_boundary: Optional[int] = None
    seed: int = 0
    llm_endpoint: str = ""

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
            "identity_channels", "embed_dim", "shots_per_avatar",
        )
        for name in positive:
            if getattr(self, name) < 1:
                raise ConfigError(f"{name} must be >= 1, got {getattr(self, name)}")
        if self.mode not in MODES:
            raise ConfigError(f"mode must be one of {MODES}, got '{self.mode}'")
        if not 1 <= self.boundary <= self.frames_per_shot:
            raise ConfigError(
                f"reset_boundary must lie in [1, frames_per_shot={self.frames_per_shot}], "
                f"got {self.reset_boundary}"
            )
        if not 0.0 <= self.eta <= 1.0:
            raise ConfigError(f"eta must lie in [0, 1], got {self.eta}")
        if self.mode == "windowed" and (self.eta != 0.0 or self.boundary != self.frames_per_shot):
            raise ConfigError(
                "eta and reset_boundary apply to fifo-reset only; windowed mode needs eta=0 "
                f"and reset_boundary=frames_per_shot, got eta={self.eta}, "
                f"reset_boundary={self.reset_boundary}"
            )
        if self.pairing not in PAIRINGS:
            raise ConfigError(f"pairing must be one of {PAIRINGS}, got '{self.pairing}'")
        if self.identity_channels > self.channels:
            raise ConfigError("identity_channels cannot exceed channels")
        if self.embed_dim % DEFAULT_TOKENS != 0:
            raise ConfigError(f"embed_dim must be divisible by {DEFAULT_TOKENS} tokens")
        for name in ("sigma0", "ip_scale"):
            if not 0 <= getattr(self, name) <= SCALE_LIMIT:
                raise ConfigError(
                    f"{name} must lie in [0, {SCALE_LIMIT:g}], got {getattr(self, name)}"
                )

    # -- derived pieces -----------------------------------------------------

    @property
    def boundary(self) -> int:
        """The reset boundary L: reset_boundary, or frames_per_shot when unset.
        eta and L act on the fifo-reset queue only."""
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
        return get_projector(
            self.projector_seed,
            self.latent_shape,
            d_e=self.embed_dim,
            d_id=self.identity_channels,
        )

    def world(self) -> GaussianWorld:
        """The Gaussian world, computing each condition's mean once.

        mu(c) is memoised per condition for this world's lifetime, so every
        denoiser call of a chain or queue after the first reuses it. The
        cached means are read-only."""
        mean = self.projector().mean
        means = {}

        def mean_map(cond):
            mu = means.get(cond)
            if mu is None:
                mu = means[cond] = mean(cond)
                mu.flags.writeable = False
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


def config_to_json(config: PipelineConfig, user_input: Optional[str] = None) -> bytes:
    """Canonical config document; user_input is included when known, as a
    record of the story input. It is not an input: ``multishot run``
    requires ``--input`` and ignores a config file's user_input."""
    doc = {} if user_input is None else {"user_input": user_input}
    doc.update(config.to_dict())
    return (json.dumps(doc, indent=2, ensure_ascii=False) + "\n").encode("utf-8")


def config_from_json(data: bytes):
    """Returns (config, extras). Extras carry non-behavioral keys a config
    file may provide: 'user_input' and 'out_dir'."""
    try:
        doc = json.loads(data.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise ConfigError(f"config document is not valid JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise ConfigError("config document must be a JSON object")
    extras = {key: doc.pop(key) for key in ("user_input", "out_dir") if key in doc}
    for key, value in extras.items():
        if not isinstance(value, str):
            raise ConfigError(f"{key} must be a string, got {value!r}")
    return PipelineConfig.from_dict(doc), extras
