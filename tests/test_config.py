"""Pipeline configuration: validation, precedence, serialization."""

import json

import pytest

from multishot.config import PipelineConfig, config_from_json, config_to_json
from multishot.errors import ConfigError


def test_defaults_are_valid():
    cfg = PipelineConfig()
    assert cfg.n_shots == 4 and cfg.frames_per_shot == 8
    assert cfg.latent_shape == (8, 8, 8)
    assert cfg.boundary == cfg.frames_per_shot


@pytest.mark.parametrize(
    "kwargs",
    [
        {"n_shots": 0},
        {"mode": "sideways"},
        {"frames_per_shot": 0},
        {"steps": 0},
        {"identity_channels": 9},
        {"embed_dim": 15},
        {"sigma0": -1.0},
        {"eta": 1.5},
        {"ip_scale": -0.5},
        {"shots_per_avatar": 0},
        {"sigma0": float("nan")},
        {"pairing": "random"},
        {"reset_boundary": 0},
        {"reset_boundary": 9},
        {"mode": "windowed", "eta": 0.5},
        {"mode": "windowed", "reset_boundary": 4},
        {"ip_scale": float("inf")},
        {"sigma0": float("-inf")},
        # finite, but a run's floats would overflow
        {"sigma0": 1e308},
        {"ip_scale": 1e308},
        {"ip_scale": 1e20},
    ],
)
def test_invalid_values_rejected(kwargs):
    with pytest.raises(ConfigError):
        PipelineConfig(**kwargs)


@pytest.mark.parametrize(
    "field,value",
    [("n_shots", "4"), ("n_shots", True), ("n_shots", 2.5), ("steps", 3.0), ("seed", "abc"),
     ("eta", "0"), ("eta", False), ("sigma0", None), ("ip_scale", [1.0]), ("mode", 1),
     ("llm_endpoint", None), ("reset_boundary", 2.0), ("reset_boundary", "2"),
     ("eta", float("nan")), ("ip_scale", float("inf")), ("sigma0", float("-inf"))],
)
def test_wrongly_typed_values_rejected_naming_the_field(field, value):
    # a config.json value must have its field's type: bool is not a number,
    # an integral float is not an integer and a number is finite (json
    # parses NaN and Infinity)
    with pytest.raises(ConfigError, match=f"^{field} must be "):
        PipelineConfig.from_dict({field: value})


def test_numbers_are_stored_as_given():
    # an int is a valid float field and stays an int, so config.json keeps
    # the bytes it was written with
    cfg = PipelineConfig.from_dict({"eta": 0, "sigma0": 1, "ip_scale": 2, "reset_boundary": 3})
    assert [type(v) for v in (cfg.eta, cfg.sigma0, cfg.ip_scale)] == [int, int, int]
    assert b'"sigma0": 1,' in config_to_json(cfg)


@pytest.mark.parametrize("key", ["user_input", "out_dir"])
def test_json_extras_must_be_strings(key):
    with pytest.raises(ConfigError, match=f"^{key} must be a string"):
        config_from_json(json.dumps({key: 5}).encode())


def test_merged_ignores_none():
    cfg = PipelineConfig()
    same = cfg.merged(n_shots=None, seed=None)
    assert same == cfg
    changed = cfg.merged(n_shots=7, seed=3)
    assert changed.n_shots == 7 and changed.seed == 3
    assert cfg.n_shots == 4  # original untouched


def test_seed_fanout_is_stable_and_separated():
    cfg = PipelineConfig(seed=5)
    assert cfg.encoder_seed == PipelineConfig(seed=5).encoder_seed
    assert len({cfg.encoder_seed, cfg.projector_seed, cfg.style_seed}) == 3


def test_json_roundtrip_with_user_input():
    cfg = PipelineConfig(seed=11, mode="windowed", frames_per_shot=3)
    data = config_to_json(cfg, user_input="a short tale")
    back, extras = config_from_json(data)
    assert back == cfg
    assert extras["user_input"] == "a short tale"


def test_json_rejects_unknown_keys():
    with pytest.raises(ConfigError):
        config_from_json(b'{"n_shots": 4, "frames": 9}')
    with pytest.raises(ConfigError):
        config_from_json(b'{"psnr_max": 1.0}')
    with pytest.raises(ConfigError, match="unknown config keys: \\['llm'\\]"):
        config_from_json(b'{"llm": "mock"}')  # llm_endpoint alone picks the client
    with pytest.raises(ConfigError):
        config_from_json(b"[1, 2]")
    with pytest.raises(ConfigError):
        config_from_json(b"{nope")


def test_out_dir_extra_is_tolerated():
    _, extras = config_from_json(b'{"seed": 1, "out_dir": "somewhere"}')
    assert extras["out_dir"] == "somewhere"

