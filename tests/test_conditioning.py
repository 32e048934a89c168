"""Mock encoders, the attention kernel, decoupled composition, and the
condition-to-latent-mean projector."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from multishot.conditioning import (
    Condition,
    _token_vector,
    attention,
    compose_condition,
    encode_text_mock,
    get_projector,
    split_tokens,
)
from multishot.errors import ConfigError, InputError, ShapeError
from multishot.seeds import spawn_rng


# --- encode_text_mock -------------------------------------------------------


def test_text_encoder_deterministic():
    a = encode_text_mock("a red kite over the bay", 16, seed=3)
    b = encode_text_mock("a red kite over the bay", 16, seed=3)
    assert np.array_equal(a.data, b.data)
    assert a.kind == "text"


def test_text_encoder_unit_norm():
    for prompt in ("one", "two words", "a much longer prompt with many tokens"):
        e = encode_text_mock(prompt, 16, seed=0)
        assert abs(np.linalg.norm(e.data) - 1.0) < 1e-9


def test_text_encoder_seed_changes_vector():
    a = encode_text_mock("same prompt", 16, seed=0)
    b = encode_text_mock("same prompt", 16, seed=1)
    assert not np.array_equal(a.data, b.data)


def test_text_encoder_distinct_prompts_not_aligned():
    # Monte Carlo oracle over random 10-character prompts: waived below 0.9.
    rng = spawn_rng("prompt-pairs")
    letters = np.array(list("abcdefghijklmnopqrstuvwxyz"))
    worst = 0.0
    for _ in range(200):
        p1 = "".join(rng.choice(letters, 10))
        p2 = "".join(rng.choice(letters, 10))
        if p1 == p2:
            continue
        a = encode_text_mock(p1, 16, seed=0).data
        b = encode_text_mock(p2, 16, seed=0).data
        worst = max(worst, abs(float(a @ b)))
    assert worst < 0.9


@pytest.mark.parametrize("seed", [0, 11])
def test_text_encoder_sums_fresh_token_draws(seed):
    # cached token vectors give the same bits as drawing every token afresh,
    # repeated tokens included, and the cache cannot be written through
    prompt = "the kite and the kite over the bay"
    total = np.zeros(16)
    for token in prompt.split():
        total += spawn_rng("text-token", seed, 16, token).standard_normal(16)
    expected = total / np.linalg.norm(total)
    assert np.array_equal(encode_text_mock(prompt, 16, seed).data, expected)
    assert np.array_equal(encode_text_mock(prompt, 16, seed).data, expected)
    cached = _token_vector("kite", 16, seed)
    assert _token_vector("kite", 16, seed) is cached
    with pytest.raises(ValueError):
        cached[0] = 0.0


def test_text_encoder_rejects_empty():
    with pytest.raises(InputError):
        encode_text_mock("   ", 16, seed=0)


# --- attention --------------------------------------------------------------


def test_attention_single_key_returns_value_row():
    v = np.array([[3.0, -1.0, 2.0]])
    k = np.array([[0.2, 0.4]])
    q = np.array([[5.0, -2.0], [0.1, 0.0], [7.0, 7.0]])
    out = attention(q, k, v)
    for row in out:
        np.testing.assert_allclose(row, v[0], rtol=1e-12)


def test_attention_identical_keys_average_values():
    k = np.array([[1.0, 2.0], [1.0, 2.0]])
    v = np.array([[1.0, 0.0], [0.0, 1.0]])
    out = attention(np.array([3.0, -1.0]), k, v)
    np.testing.assert_allclose(out, [0.5, 0.5], rtol=1e-12)


def test_attention_hand_example():
    # logits are +-2/sqrt(2); hand softmax gives (0.9442, 0.0558)
    q = np.array([2.0, 0.0])
    k = np.array([[1.0, 0.0], [-1.0, 0.0]])
    v = np.array([[1.0, 0.0], [0.0, 1.0]])
    out = attention(q, k, v)
    w1 = 1.0 / (1.0 + math.exp(-4.0 / math.sqrt(2.0)))
    np.testing.assert_allclose(out, [w1, 1.0 - w1], rtol=1e-12)
    np.testing.assert_allclose(out, [0.9442, 0.0558], atol=1e-3)


def test_attention_shape_errors():
    with pytest.raises(ShapeError):
        attention(np.zeros(2), np.zeros((3, 2)), np.zeros((2, 2)))
    with pytest.raises(ShapeError):
        attention(np.zeros(3), np.zeros((3, 2)), np.zeros((3, 2)))


@settings(max_examples=50, deadline=None)
@given(seed=st.integers(min_value=0, max_value=2**32 - 1))
def test_attention_weights_sum_to_one(seed):
    # with V = I the output rows are the softmax weights themselves
    rng = np.random.default_rng(seed)
    q = rng.standard_normal((3, 4))
    k = rng.standard_normal((5, 4))
    weights = attention(q, k, np.eye(5))
    np.testing.assert_allclose(weights.sum(axis=1), np.ones(3), atol=1e-6)
    assert (weights >= 0).all()


@settings(max_examples=50, deadline=None)
@given(seed=st.integers(min_value=0, max_value=2**32 - 1))
def test_attention_permutation_invariance(seed):
    rng = np.random.default_rng(seed)
    q = rng.standard_normal((2, 4))
    k = rng.standard_normal((6, 4))
    v = rng.standard_normal((6, 3))
    perm = rng.permutation(6)
    np.testing.assert_allclose(attention(q, k, v), attention(q, k[perm], v[perm]), atol=1e-12)


# --- compose_condition ------------------------------------------------------


def _toy_tokens():
    q = np.array([2.0, 0.0])
    text = (np.array([[1.0, 0.0], [-1.0, 0.0]]), np.array([[1.0, 0.0], [0.0, 1.0]]))
    ip = (np.array([[0.5, 0.5]]), np.array([[0.5, 0.5]]))
    return q, text, ip


def test_compose_disabled_ip_equals_text_only():
    q, text, ip = _toy_tokens()
    np.testing.assert_array_equal(
        compose_condition(q, text, ip, ip_scale=0.0),
        compose_condition(q, text, None),
    )


def test_compose_duplicated_tokens_double():
    q, text, _ = _toy_tokens()
    np.testing.assert_allclose(
        compose_condition(q, text, text, ip_scale=1.0),
        2.0 * compose_condition(q, text, None),
        rtol=1e-12,
    )


def test_compose_hand_sum():
    # text branch is the hand attention example; the single ip token
    # contributes its value row exactly
    q, text, ip = _toy_tokens()
    w1 = 1.0 / (1.0 + math.exp(-4.0 / math.sqrt(2.0)))
    expected = np.array([w1 + 0.5, (1.0 - w1) + 0.5])
    np.testing.assert_allclose(compose_condition(q, text, ip, ip_scale=1.0), expected, rtol=1e-12)


def test_compose_linear_in_scale():
    q, text, ip = _toy_tokens()
    at0 = compose_condition(q, text, ip, 0.0)
    at1 = compose_condition(q, text, ip, 1.0)
    for s in (0.25, 0.5, 2.0, 3.75):
        expected = at0 + s * (at1 - at0)
        np.testing.assert_allclose(compose_condition(q, text, ip, s), expected, atol=1e-9)


def test_compose_rejects_negative_scale():
    q, text, ip = _toy_tokens()
    with pytest.raises(ConfigError):
        compose_condition(q, text, ip, -0.5)


def test_split_tokens_shape():
    out = split_tokens(np.arange(16.0), 4)
    assert out.shape == (4, 4)
    with pytest.raises(ShapeError):
        split_tokens(np.arange(10.0), 4)


# --- condition types --------------------------------------------------------


def test_condition_requires_zero_scale_without_ip():
    text = encode_text_mock("anything", 16, 0)
    with pytest.raises(ConfigError):
        Condition(text=text, ip=None, ip_scale=1.0)
    Condition(text=text, ip=None, ip_scale=0.0)  # fine


# --- the projector's mean -----------------------------------------------------

SHAPE = (8, 8, 8)


def _cond(prompt, ip_prompt=None, scale=1.0, seed=0):
    text = encode_text_mock(prompt, 16, seed)
    if ip_prompt is None:
        return Condition(text=text)
    ip = encode_text_mock(ip_prompt, 16, seed)
    ip = type(ip)(data=ip.data, kind="image", source=ip.source)
    return Condition(text=text, ip=ip, ip_scale=scale)


def test_identity_channels_zero_without_ip():
    mu = get_projector(1, SHAPE).mean(_cond("just text"))
    np.testing.assert_array_equal(mu[:, :, :4], np.zeros((8, 8, 4)))
    assert np.abs(mu[:, :, 4:]).max() > 0


def test_identity_channels_ignore_text():
    a = get_projector(1, SHAPE).mean(_cond("first text", "the face", 1.0))
    b = get_projector(1, SHAPE).mean(_cond("totally different words", "the face", 1.0))
    np.testing.assert_array_equal(a[:, :, :4], b[:, :, :4])
    assert np.abs(a[:, :, 4:] - b[:, :, 4:]).max() > 1e-6


def test_identity_channels_spatially_constant():
    mu = get_projector(2, SHAPE).mean(_cond("text", "face", 1.0))
    for c in range(4):
        assert np.ptp(mu[:, :, c]) == 0.0


def test_projector_mean_bitwise_stable():
    cond = _cond("stable prompt", "stable face", 0.7)
    a = get_projector(5, SHAPE).mean(cond)
    b = get_projector(5, SHAPE).mean(cond)
    assert np.array_equal(a, b)


def test_projector_cache_returns_same_object():
    assert get_projector(9, SHAPE) is get_projector(9, SHAPE)


def test_projector_recovers_composed_from_clean_mean():
    proj = get_projector(3, SHAPE)
    cond = _cond("recoverable", "face", 1.0)
    mu = proj.mean(cond)
    toks = split_tokens(cond.text.data, 4)
    ip_toks = split_tokens(cond.ip.data, 4)
    composed = compose_condition(proj.query, (toks, toks), (ip_toks, ip_toks), 1.0)
    np.testing.assert_allclose(proj.recover_composed(mu), composed, atol=1e-9)


def test_projector_rejects_bad_dims():
    with pytest.raises(ConfigError):
        get_projector(0, (8, 8, 3), d_id=4)
    with pytest.raises(ConfigError):
        get_projector(0, SHAPE, d_e=15, n_tokens=4)
