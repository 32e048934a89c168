"""Avatar derivation and identity-consistent keyframe generation.

Avatars are recurring characters proposed from the shot descriptions; each
shot is assigned exactly one. The avatars completion is the story.json
fragment it fills: the roster ``avatars`` and each shot's ``avatar_id``.
Rendering an avatar samples a portrait latent from its prompt (text-only
condition, per-avatar seed) and returns its image embedding, as
conditioning's image encoder gives it: the identity. A keyframe is the
latent sampled under the full five-domain script text plus that identity,
so keyframes sharing an avatar share identity channels up to sampler
noise. Both stages sample at eta = 0, as one batch of chains in lockstep:
all portraits together, all keyframes together.
"""

from __future__ import annotations

import json
from typing import List, Tuple

import numpy as np

from .conditioning import Condition, encode_image_mock, encode_text_mock
from .config import PipelineConfig
from .diffusion import sample_reverse
from .errors import InputError, ParseError
from .script import (
    AvatarProfile,
    LlmClient,
    ShotDescription,
    ShotScript,
    call_llm,
    check_roster,
    read_avatar,
    require_field,
)
from .seeds import spawn_rng
from .tensorio import read_json


_AVATARS_INSTRUCTION = (
    "Propose recurring character avatars for this story and assign one to "
    "every shot. Reply with JSON only: {\"avatars\": [{\"id\", \"prompt\": "
    "{\"character\", \"background\", \"relations\", \"camera\", \"hdr\"}}], "
    "\"shots\": [{\"avatar_id\"}, one per shot, in shot order]}, every text non-blank."
)


def derive_avatars(
    descriptions: List[ShotDescription], llm: LlmClient, config: PipelineConfig
) -> Tuple[List[AvatarProfile], List[str]]:
    """Propose avatars and a total per-shot assignment; avatar ``id``
    renders from ``config.avatar_seed(id)``.

    The mock client implements the grouping rule (ceil(N / shots_per_avatar)
    avatars, shot i -> avatar i // shots_per_avatar); any client's completion
    is parsed and checked against the roster rules the same way.
    """
    if not descriptions:
        raise InputError("cannot derive avatars from an empty story")
    context = json.dumps(
        {
            "task": "avatars",
            "descriptions": [d.text for d in descriptions],
            "shots_per_avatar": config.shots_per_avatar,
        }
    )
    completion = call_llm(llm, _AVATARS_INSTRUCTION, context, "while proposing avatars")
    payload = read_json(completion, "the avatars completion")
    raw_avatars = require_field(payload, "avatars", list, "")
    shots = require_field(payload, "shots", list, "")
    if len(shots) != len(descriptions):
        raise ParseError(
            f"the avatars completion has {len(shots)} shots, expected {len(descriptions)}"
        )

    avatars = []
    for i, entry in enumerate(raw_avatars):
        aid, prompt = read_avatar(entry, f"avatars[{i}]")
        avatars.append(AvatarProfile(id=aid, prompt=prompt, seed=config.avatar_seed(aid)))
    assignment = [
        require_field(shot, "avatar_id", str, f"shots[{j}]") for j, shot in enumerate(shots)
    ]
    check_roster([a.id for a in avatars], assignment)
    return avatars, assignment


def render_avatar(profiles: List[AvatarProfile], config: PipelineConfig) -> List[np.ndarray]:
    """Render the avatars' portraits in one batch and return their image
    embeddings, in the order of ``profiles``."""
    d_e, encoder_seed = config.embed_dim, config.encoder_seed
    conds = [
        Condition(text=encode_text_mock(profile.prompt.as_text(), d_e, encoder_seed))
        for profile in profiles
    ]
    rngs = [spawn_rng("reverse-init", profile.seed) for profile in profiles]
    portraits = sample_reverse(config.world(), conds, config.schedule(), rngs, config.latent_shape)
    return [encode_image_mock(portrait, d_e, encoder_seed) for portrait in portraits]


def generate_keyframe(
    scripts: List[ShotScript], identities: List[np.ndarray], config: PipelineConfig
) -> List[np.ndarray]:
    """Sample keyframe b, shot b's, under scripts[b]'s full five-domain
    text plus identities[b], from ``config.keyframe_seed(b)``; all
    keyframes in one batch."""
    conds = [
        Condition(
            text=encode_text_mock(script.as_text(), config.embed_dim, config.encoder_seed),
            ip=identity,
            ip_scale=config.ip_scale,
        )
        for script, identity in zip(scripts, identities, strict=True)
    ]
    rngs = [spawn_rng("reverse-init", config.keyframe_seed(b)) for b in range(len(conds))]
    batch = sample_reverse(config.world(), conds, config.schedule(), rngs, config.latent_shape)
    return list(batch)
