"""Mock encoders, the attention kernel, and the condition-to-latent-mean
projector with its decoupled text-plus-image composition."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from multishot.conditioning import (
    CONTENT_GAIN,
    IDENTITY_GAIN,
    Condition,
    MeanProjector,
    _token_vector,
    attention,
    encode_image_mock,
    encode_text_mock,
    get_projector,
    norm,
    split_tokens,
    unit_vector,
)
from multishot.config import PipelineConfig
from multishot.errors import ConfigError, InputError, ShapeError
from multishot.seeds import spawn_rng


# --- encode_text_mock -------------------------------------------------------


def test_text_encoder_deterministic():
    a = encode_text_mock("a red kite over the bay", 16, seed=3)
    b = encode_text_mock("a red kite over the bay", 16, seed=3)
    assert np.array_equal(a, b)


def test_text_encoder_unit_norm():
    for prompt in ("one", "two words", "a much longer prompt with many tokens"):
        e = encode_text_mock(prompt, 16, seed=0)
        assert abs(np.linalg.norm(e) - 1.0) < 1e-9


def test_text_encoder_seed_changes_vector():
    a = encode_text_mock("same prompt", 16, seed=0)
    b = encode_text_mock("same prompt", 16, seed=1)
    assert not np.array_equal(a, b)


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
        a = encode_text_mock(p1, 16, seed=0)
        b = encode_text_mock(p2, 16, seed=0)
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
    assert np.array_equal(encode_text_mock(prompt, 16, seed), expected)
    assert np.array_equal(encode_text_mock(prompt, 16, seed), expected)
    cached = _token_vector("kite", 16, seed)
    assert _token_vector("kite", 16, seed) is cached
    with pytest.raises(ValueError):
        cached[0] = 0.0


def test_text_encoder_rejects_empty():
    with pytest.raises(InputError):
        encode_text_mock("   ", 16, seed=0)


def test_encoders_return_read_only_unit_vectors():
    # an embedding is a bare float64 vector of unit norm that no caller can
    # write through; the image encoder maps a zero latent to e0
    text = encode_text_mock("a red kite over the bay", 16, seed=0)
    image = encode_image_mock(spawn_rng("latent").standard_normal((4, 4, 2)), 16, seed=0)
    zero = encode_image_mock(np.zeros((4, 4, 2)), 16, seed=0)
    for vector in (text, image, zero):
        assert type(vector) is np.ndarray
        assert vector.dtype == np.float64 and vector.shape == (16,)
        assert abs(np.linalg.norm(vector) - 1.0) < 1e-12
        with pytest.raises(ValueError):
            vector[0] = 0.0
    assert np.array_equal(zero, np.eye(16)[0])


def test_unit_vector_scales_a_small_nonzero_vector():
    # only a norm below 1e-12 counts as zero; a norm of 5e-6 is scaled
    unit = unit_vector(1e-6 * np.array([0.0, 3.0, 4.0]))
    assert np.allclose(unit, [0.0, 0.6, 0.8], rtol=0.0, atol=1e-15)


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
    with pytest.raises(ShapeError, match="vectors or 2-D matrices"):
        attention(np.zeros((1, 1, 2)), np.zeros((3, 2)), np.zeros((3, 2)))


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


def test_split_tokens_shape():
    out = split_tokens(np.arange(16.0))
    assert out.shape == (4, 4)
    with pytest.raises(ShapeError):
        split_tokens(np.arange(10.0))


def test_an_embedding_of_another_width_is_refused():
    # 8 splits into 4 tokens too, but the projector's query is 16 / 4 wide
    with pytest.raises(ShapeError, match=r"must have shape \(16,\), got \(8,\)"):
        get_projector(0, (8, 8, 8)).mean(Condition(text=encode_text_mock("x", 8)))


# --- condition types --------------------------------------------------------


def test_condition_requires_zero_scale_without_ip():
    text = encode_text_mock("anything", 16, 0)
    with pytest.raises(ConfigError):
        Condition(text=text, ip=None, ip_scale=1.0)
    Condition(text=text, ip=None, ip_scale=0.0)  # fine


def test_condition_rejects_negative_ip_scale():
    text, ip = encode_text_mock("anything", 16, 0), encode_text_mock("a face", 16, 0)
    with pytest.raises(ConfigError, match="nonnegative"):
        Condition(text=text, ip=ip, ip_scale=-0.5)


def test_condition_hashes_by_identity_and_world_memoises_its_mean(monkeypatch):
    # one world evaluates a condition's mean once and hands out the same
    # read-only array; a byte-equal copy is another key with its own entry
    evaluated = []
    original = MeanProjector.mean

    def counted(self, cond):
        evaluated.append(cond)
        return original(self, cond)

    monkeypatch.setattr(MeanProjector, "mean", counted)
    config = PipelineConfig(height=4, width=4)
    text = encode_text_mock("a lantern on the quay", 16, config.encoder_seed)
    ip = encode_text_mock("the keeper's face", 16, config.encoder_seed)
    cond = Condition(text=text, ip=ip, ip_scale=1.0)
    copy = Condition(text=text.copy(), ip=ip.copy(), ip_scale=1.0)
    assert hash(cond) == hash(cond) and cond == cond and cond != copy
    assert len({cond, copy, cond}) == 2
    world = config.world()
    mu = world.mean_map(cond)
    assert world.mean_map(cond) is mu
    assert not mu.flags.writeable
    copy_mu = world.mean_map(copy)
    assert copy_mu is not mu and copy_mu.tobytes() == mu.tobytes()
    assert world.mean_map(copy) is copy_mu
    assert evaluated == [cond, copy]


# --- the projector's mean -----------------------------------------------------

SHAPE = (8, 8, 8)


def _cond(prompt, ip_prompt=None, scale=1.0, seed=0):
    text = encode_text_mock(prompt, 16, seed)
    if ip_prompt is None:
        return Condition(text=text)
    return Condition(text=text, ip=encode_text_mock(ip_prompt, 16, seed), ip_scale=scale)


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


def test_projector_cache_keeps_what_one_run_uses():
    # a run asks for its one projector several times; runs with N seeds
    # keep one projector (3 MB at 64x64x16), not N
    for seed in range(7001, 7006):
        config = PipelineConfig(seed=seed)
        misses = get_projector.cache_info().misses
        assert config.projector() is config.projector()
        assert get_projector.cache_info().misses == misses + 1
        assert get_projector.cache_info().currsize <= 1


def test_norm_is_numpys_vector_norm_bit_for_bit():
    rng = spawn_rng("norm-check")
    for n in (1, 3, 16, 129):
        for dtype in (np.float64, np.float32):
            v = (rng.standard_normal(n) * 1e3).astype(dtype)
            expected = np.linalg.norm(v)
            assert norm(v).dtype == expected.dtype == dtype
            assert norm(v).tobytes() == expected.tobytes()
    m = rng.standard_normal((4, 5)).T  # raveled in memory order, as numpy does
    assert norm(m).tobytes() == np.linalg.norm(m).tobytes()


def test_projector_recovers_composed_from_clean_mean():
    proj = get_projector(3, SHAPE)
    cond = _cond("recoverable", "face", 1.0)
    mu = proj.mean(cond)
    composed = proj.attend(cond.text) + 1.0 * proj.attend(cond.ip)
    np.testing.assert_allclose(proj.recover_composed(mu), composed, atol=1e-9)


def test_mean_at_zero_scale_equals_text_only_mean():
    # the image branch is disabled exactly: an image at weight 0 leaves the
    # content channels bit for bit the text-only mean's, and the identity
    # channels zero (-0.0 where id_map @ ip is negative, so equal in value)
    proj = get_projector(3, SHAPE)
    with_ip = proj.mean(_cond("a quiet harbor", "a face", 0.0))
    text_only = proj.mean(_cond("a quiet harbor"))
    assert with_ip[:, :, 4:].tobytes() == text_only[:, :, 4:].tobytes()
    np.testing.assert_array_equal(with_ip, text_only)


def test_mean_content_channels_linear_in_scale():
    proj = get_projector(3, SHAPE)
    content = lambda s: proj.mean(_cond("a quiet harbor", "a face", s))[:, :, 4:]
    at0, at1 = content(0.0), content(1.0)
    for s in (0.25, 0.5, 2.0, 3.75):
        np.testing.assert_allclose(content(s), at0 + s * (at1 - at0), atol=1e-9)


def _closed_form_mean(proj, cond, d_id):
    """mu(c) rebuilt from the projector's arrays, with the token split, the
    softmax and the d_id identity channels spelled out here rather than
    taken from the package."""

    def attend(vector):
        tokens = np.reshape(vector, (4, -1))  # 4 contiguous tokens
        logits = tokens @ proj.query / math.sqrt(tokens.shape[1])
        weights = np.exp(logits - logits.max())
        return (weights / weights.sum()) @ tokens

    h, w, d = proj.shape
    s = cond.ip_scale
    composed = attend(cond.text)
    identity = np.zeros(d_id)
    if cond.ip is not None:
        ip = attend(cond.ip)
        composed = composed + s * ip
        identity = IDENTITY_GAIN * s * (proj.id_map @ (ip / np.linalg.norm(ip)))
    content = CONTENT_GAIN * (proj.basis @ composed)
    return np.concatenate(
        [np.broadcast_to(identity, (h, w, d_id)), content.reshape(h, w, d - d_id)],
        axis=2,
    )


@pytest.mark.parametrize("scale", [None, 0.0, 1.0, 2.5])
@pytest.mark.parametrize("shape, d_e, d_id", [((8, 8, 8), 16, 4), ((3, 5, 6), 16, 4)])
def test_projector_mean_matches_closed_form(shape, d_e, d_id, scale):
    # identity channels IDENTITY_GAIN * s * id_map @ unit(attend(ip)), content
    # channels CONTENT_GAIN * basis @ (attend(text) + s * attend(ip)); no image
    # (scale None) leaves the identity channels at zero. d_e and d_id are the
    # toy world's embedding width and identity channels, as the closed form
    # states them
    proj = get_projector(4, shape)
    assert proj.id_map.shape == (d_id, d_e // 4)
    text = encode_text_mock("a keeper climbs the tower stairs", d_e, 0)
    if scale is None:
        cond = Condition(text=text)
    else:
        cond = Condition(text=text, ip=encode_text_mock("weathered face", d_e, 0), ip_scale=scale)
    mu = proj.mean(cond)
    assert mu.shape == shape
    assert np.abs(mu - _closed_form_mean(proj, cond, d_id)).max() <= 1e-12


def test_projector_rejects_bad_dims():
    # a latent needs a content channel past the 4 identity channels, as a
    # config does
    for channels in (3, 4):
        with pytest.raises(ConfigError, match="identity channels"):
            get_projector(0, (8, 8, channels))
