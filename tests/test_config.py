"""Pipeline configuration: validation, precedence, serialization."""

import json
import sys
import threading
import time

import pytest

from multishot.conditioning import Condition, MeanProjector, encode_text_mock
from multishot.config import PipelineConfig, config_from_json, config_to_json
from multishot.errors import ConfigError, ParseError


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
        # fewer channels than the identity channels
        {"channels": 3},
        {"sigma0": -1.0},
        {"eta": 1.5},
        {"ip_scale": -0.5},
        {"shots_per_avatar": 0},
        {"sigma0": float("nan")},
        {"reset_boundary": 0},
        {"reset_boundary": 9},
        {"mode": "windowed", "eta": 0.5, "reset_boundary": 7},
        {"mode": "windowed", "reset_boundary": 4},
        {"ip_scale": float("inf")},
        {"sigma0": float("-inf")},
        # finite, but a run's floats would overflow
        {"sigma0": 1e308},
        {"ip_scale": 1e308},
        {"ip_scale": 1e20},
        # no content channel left for the text
        {"channels": 4},
        # a .vgt dimension is a uint32
        {"n_shots": 2**16, "frames_per_shot": 2**16},
        {"height": 2**32},
    ],
    # each case is named by its keys and values, so a case added or removed
    # renames no other
    ids=lambda kwargs: ",".join(f"{key}={value}" for key, value in kwargs.items()),
)
def test_invalid_values_rejected(kwargs):
    with pytest.raises(ConfigError) as excinfo:
        PipelineConfig(**kwargs)
    assert any(key in str(excinfo.value) for key in kwargs)


def test_eta_applies_in_both_modes_and_reset_boundary_to_fifo_reset_only():
    for mode in ("windowed", "fifo-reset"):
        assert PipelineConfig(mode=mode, eta=0.5).eta == 0.5
    PipelineConfig(mode="fifo-reset", frames_per_shot=8, reset_boundary=7)
    with pytest.raises(ConfigError, match="reset_boundary"):
        PipelineConfig(mode="windowed", frames_per_shot=8, reset_boundary=7)


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


@pytest.mark.parametrize("key", ["out_dir"])
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


def test_json_roundtrip():
    cfg = PipelineConfig(seed=11, mode="windowed", frames_per_shot=3)
    back, extras = config_from_json(config_to_json(cfg))
    assert back == cfg
    assert extras == {}


def test_json_rejects_unknown_keys():
    with pytest.raises(ConfigError):
        config_from_json(b'{"n_shots": 4, "frames": 9}')
    with pytest.raises(ConfigError):
        config_from_json(b'{"psnr_max": 1.0}')
    with pytest.raises(ConfigError, match="unknown config keys: \\['llm'\\]"):
        config_from_json(b'{"llm": "mock"}')  # llm_endpoint alone picks the client
    # cross-shot metrics pair consecutive shots, and story.json records the input
    with pytest.raises(ConfigError, match="unknown config keys: \\['pairing'\\]"):
        config_from_json(b'{"pairing": "consecutive"}')
    with pytest.raises(ConfigError, match="unknown config keys: \\['user_input'\\]"):
        config_from_json(b'{"user_input": "x"}')
    # the embedding width and the identity channels are constants of the
    # toy world, not keys
    for key, value in (("embed_dim", 16), ("identity_channels", 4)):
        with pytest.raises(ConfigError, match=f"unknown config keys: \\['{key}'\\]"):
            config_from_json(json.dumps({key: value}).encode())
    with pytest.raises(ConfigError):
        config_from_json(b"[1, 2]")
    # a document that is not JSON is refused by the one JSON reader
    with pytest.raises(ParseError, match="the config document is not valid JSON"):
        config_from_json(b"{nope")


def test_out_dir_extra_is_tolerated():
    _, extras = config_from_json(b'{"seed": 1, "out_dir": "somewhere"}')
    assert extras["out_dir"] == "somewhere"



def test_world_computes_a_new_condition_mean_once_across_threads(monkeypatch):
    # two chains of a windowed shot ask for one new condition at once; the
    # memo must still call the projector once and hand out one array
    config = PipelineConfig()
    original, calls = MeanProjector.mean, []

    def slow_mean(self, cond):
        calls.append(cond)
        time.sleep(0.05)  # the other threads arrive while the first computes
        return original(self, cond)

    monkeypatch.setattr(MeanProjector, "mean", slow_mean)
    world = config.world()
    cond = Condition(text=encode_text_mock("a salt marsh", config.embed_dim, config.encoder_seed))
    barrier = threading.Barrier(8)
    results = [None] * 8

    def ask(i):
        barrier.wait(timeout=10)
        results[i] = world.mean_map(cond)

    threads = [threading.Thread(target=ask, args=(i,)) for i in range(8)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=10)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert len(calls) == 1
    assert all(mu is results[0] for mu in results)
    assert not results[0].flags.writeable
