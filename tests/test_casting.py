"""Avatar derivation, the mock image encoder, and keyframe generation."""

import json

import numpy as np
import pytest

from multishot.casting import derive_avatars, generate_keyframe, render_avatar
from multishot.conditioning import Condition, encode_image_mock, encode_text_mock
from multishot.config import PipelineConfig
from multishot.diffusion import analytic_eps, ddim_step
from multishot.errors import ConfigError, InputError, ParseError, ValidationError
from multishot.metrics import IdentityChannelMean, cosine
from multishot.pipeline import build_story, render_keyframes
from multishot.script import MockLlmClient, expand_story
from multishot.seeds import derive_seed, spawn_rng

STORY_INPUT = "the long voyage of a cartographer called Imre"


def _descriptions(n):
    return expand_story(STORY_INPUT, n, MockLlmClient())


def _per_avatar(shots):
    return PipelineConfig(shots_per_avatar=shots)


# --- derive_avatars ----------------------------------------------------------


def test_thirty_shots_six_per_avatar_gives_five():
    avatars, assignment = derive_avatars(_descriptions(30), MockLlmClient(), _per_avatar(6))
    assert len(avatars) == 5
    assert assignment == [f"avatar_{i // 6:02d}" for i in range(30)]


def test_floor_division_assignment():
    avatars, assignment = derive_avatars(_descriptions(4), MockLlmClient(), _per_avatar(2))
    assert [a.id for a in avatars] == ["avatar_00", "avatar_01"]
    assert assignment == ["avatar_00", "avatar_00", "avatar_01", "avatar_01"]


def test_one_avatar_per_shot():
    avatars, assignment = derive_avatars(_descriptions(3), MockLlmClient(), _per_avatar(1))
    assert len(avatars) == 3
    assert len(set(assignment)) == 3


def test_avatar_prompts_fully_populated_and_seeded():
    avatars, _ = derive_avatars(_descriptions(4), MockLlmClient(), _per_avatar(2))
    seeds = {a.seed for a in avatars}
    assert len(seeds) == 2
    for a in avatars:
        assert a.prompt.as_text()


def test_derive_avatars_input_errors():
    with pytest.raises(InputError):
        derive_avatars([], MockLlmClient(), _per_avatar(2))
    with pytest.raises(ConfigError, match="shots_per_avatar"):  # before any LLM call
        derive_avatars(_descriptions(2), MockLlmClient(), _per_avatar(0))


class CannedClient:
    deterministic = True

    def __init__(self, payload):
        self.payload = payload

    def complete(self, instruction, context):
        return self.payload


def _avatar(id="avatar_00", **domains):
    prompt = {"character": "c", "background": "b", "relations": "r", "camera": "cam", "hdr": "h"}
    return {"id": id, "prompt": {**prompt, **domains}}


def _shots(*avatar_ids):
    return [{"avatar_id": aid} for aid in avatar_ids]


def _avatar_payload(avatar_ids, avatars=None):
    return json.dumps({"avatars": avatars or [_avatar()], "shots": _shots(*avatar_ids)})


def test_shot_count_mismatch_is_parse_error():
    client = CannedClient(_avatar_payload(["avatar_00"]))  # story has 2 shots
    with pytest.raises(ParseError, match="the avatars completion has 1 shots, expected 2"):
        derive_avatars(_descriptions(2), client, _per_avatar(2))


def test_unknown_assignment_id_rejected():
    client = CannedClient(_avatar_payload(["avatar_00", "avatar_99"]))
    with pytest.raises(ValidationError, match="shot 1's avatar 'avatar_99' is not on the roster"):
        derive_avatars(_descriptions(2), client, _per_avatar(2))


def test_duplicate_avatar_ids_rejected():
    client = CannedClient(_avatar_payload(["avatar_00"] * 2, [_avatar(), _avatar()]))
    with pytest.raises(ValidationError, match="duplicate avatar ids"):
        derive_avatars(_descriptions(2), client, _per_avatar(2))


@pytest.mark.parametrize(
    "completion, path",
    [
        ("not json at all", "the avatars completion is not valid JSON"),
        (json.dumps([_avatar()]), "avatars"),
        (json.dumps({"avatars": ["avatar_00"], "shots": _shots("avatar_00", "avatar_00")}),
         r"avatars\[0\]\.id"),
        (json.dumps({"avatars": [_avatar()], "shots": _shots(["a"], "avatar_00")}),
         r"field shots\[0\]\.avatar_id has wrong type"),
        (json.dumps({"avatars": [_avatar(id=7)], "shots": _shots(7, 7)}), r"avatars\[0\]\.id"),
        (json.dumps({"avatars": [_avatar(hdr="")], "shots": _shots("avatar_00", "avatar_00")}),
         r"avatars\[0\]\.prompt\.hdr is blank"),
        (json.dumps({"avatars": [{"id": "avatar_00", **_avatar()["prompt"]}],
                     "shots": _shots("avatar_00", "avatar_00")}),
         r"missing field at avatars\[0\]\.prompt"),
    ],
    ids=["not-json", "json-list", "avatar-string", "avatar-id-list", "integer-id", "empty-domain",
         "flat-domains"],
)
def test_malformed_completion_is_parse_error(completion, path):
    with pytest.raises(ParseError, match=path):
        derive_avatars(_descriptions(2), CannedClient(completion), _per_avatar(2))


# --- encode_image_mock -------------------------------------------------------


def test_zero_latent_falls_back_to_basis_vector():
    e = encode_image_mock(np.zeros((4, 4, 2)), d_e=16, seed=0)
    expected = np.zeros(16)
    expected[0] = 1.0
    np.testing.assert_array_equal(e, expected)


def test_scale_invariance_after_normalization():
    latent = spawn_rng("img-scale").standard_normal((4, 4, 2))
    a = encode_image_mock(latent, 16, 0)
    b = encode_image_mock(2.0 * latent, 16, 0)
    np.testing.assert_allclose(a, b, atol=1e-12)


def test_image_encoder_deterministic_unit_norm():
    latent = spawn_rng("img-det").standard_normal((8, 8, 8))
    a = encode_image_mock(latent, 16, 3)
    b = encode_image_mock(latent, 16, 3)
    assert np.array_equal(a, b)
    assert abs(np.linalg.norm(a) - 1.0) < 1e-9


# --- render_avatar / generate_keyframe ---------------------------------------


@pytest.fixture(scope="module")
def toy_setup():
    config = PipelineConfig()
    story = build_story(STORY_INPUT, config)
    return config, story


def test_render_avatar_deterministic(toy_setup):
    config, story = toy_setup
    [a] = render_avatar([story.avatars[0]], config)
    [b] = render_avatar([story.avatars[0]], config)
    assert np.array_equal(a, b)
    assert abs(np.linalg.norm(a) - 1.0) < 1e-9


def test_same_prompt_different_seed_different_embedding(toy_setup):
    config, story = toy_setup
    base = story.avatars[0]
    twin = type(base)(id=base.id, prompt=base.prompt, seed=base.seed + 1)
    [a] = render_avatar([base], config)
    [b] = render_avatar([twin], config)
    assert cosine(a, b) < 1.0 - 1e-6


def test_keyframe_ip_scale_zero_ignores_avatar(toy_setup):
    config, story = toy_setup
    [av0] = render_avatar([story.avatars[0]], config)
    [av1] = render_avatar([story.avatars[1]], config)
    [kf_a] = generate_keyframe([story.scripts[0]], [av0], config.merged(ip_scale=0.0, seed=7))
    [kf_b] = generate_keyframe([story.scripts[0]], [av1], config.merged(ip_scale=0.0, seed=7))
    assert np.array_equal(kf_a, kf_b)


def test_keyframe_deterministic(toy_setup):
    config, story = toy_setup
    [identity] = render_avatar([story.avatars[0]], config)
    [kf1] = generate_keyframe([story.scripts[0]], [identity], config.merged(seed=5))
    [kf2] = generate_keyframe([story.scripts[0]], [identity], config.merged(seed=5))
    assert np.array_equal(kf1, kf2)


def _single_chain(cond, config, seed):
    """One chain stepped alone, as casting sampled before it batched."""
    schedule, world = config.schedule(), config.world()
    x = spawn_rng("reverse-init", seed).standard_normal(config.latent_shape)
    for t in range(schedule.T, 0, -1):
        x = ddim_step(x, analytic_eps(x, t, world, cond, schedule), t, t - 1, schedule)
    return x


def test_batched_casting_equals_single_chains(toy_setup):
    # all portraits in one batch and all keyframes in another give, row for
    # row, the bits of one chain per avatar and per shot
    config, story = toy_setup
    d_e, encoder_seed = config.embed_dim, config.encoder_seed
    identities = dict(zip([a.id for a in story.avatars], render_avatar(story.avatars, config)))
    for avatar in story.avatars:
        cond = Condition(text=encode_text_mock(avatar.prompt.as_text(), d_e, encoder_seed))
        portrait = _single_chain(cond, config, avatar.seed)
        expected = encode_image_mock(portrait, d_e, encoder_seed)
        assert identities[avatar.id].tobytes() == expected.tobytes()
    keyframes = render_keyframes(story, config)
    assert len(keyframes) == len(story.scripts)
    for j, (script, keyframe) in enumerate(zip(story.scripts, keyframes)):
        cond = Condition(text=encode_text_mock(script.as_text(), d_e, encoder_seed),
                         ip=identities[script.avatar_id], ip_scale=config.ip_scale)
        expected = _single_chain(cond, config, derive_seed("keyframe", config.seed, j))
        assert keyframe.tobytes() == expected.tobytes()


def test_shared_avatar_keyframes_close_in_identity_channels():
    # condition means share identity channels exactly, so the per-channel
    # distance between two same-avatar keyframes is bounded by sampler noise
    config = PipelineConfig(seed=3)
    story = build_story(STORY_INPUT, config)
    keyframes = render_keyframes(story, config)
    assert story.scripts[0].avatar_id == story.scripts[1].avatar_id
    feat = IdentityChannelMean()
    distance = np.abs(feat(keyframes[0]) - feat(keyframes[1]))
    bound = 3.0 * config.sigma0 / np.sqrt(config.height * config.width)
    assert (distance < bound).all()


def test_avatar_group_dispersion_ratio():
    # within one avatar group, keyframe identity features disperse far less
    # than across groups (ratio < 0.5 at default config, 5 seeds)
    for seed in range(5):
        config = PipelineConfig(seed=seed)
        story = build_story(STORY_INPUT, config)
        keyframes = render_keyframes(story, config)
        feat = IdentityChannelMean()
        groups = {}
        for script, kf in zip(story.scripts, keyframes):
            groups.setdefault(script.avatar_id, []).append(feat(kf))
        (g0, g1) = groups.values()
        within = np.mean(
            [np.linalg.norm(g0[0] - g0[1]), np.linalg.norm(g1[0] - g1[1])]
        )
        across = np.mean([np.linalg.norm(a - b) for a in g0 for b in g1])
        assert within / across < 0.5, f"seed {seed}: ratio {within / across:.3f}"


def test_assignment_total_and_stable():
    one = derive_avatars(_descriptions(7), MockLlmClient(), _per_avatar(3))
    two = derive_avatars(_descriptions(7), MockLlmClient(), _per_avatar(3))
    assert one[1] == two[1]
    assert len(one[1]) == 7
    assert set(one[1]) == {a.id for a in one[0]}
