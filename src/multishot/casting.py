"""Avatar derivation and identity-consistent keyframe generation.

Avatars are recurring characters proposed from the shot descriptions; each
shot is assigned exactly one. Rendering an avatar samples a portrait latent
from its prompt (text-only condition, per-avatar seed) and returns its
image embedding, a read-only unit vector: the identity. A keyframe is the
latent sampled under the full five-domain script text plus that identity,
so keyframes sharing an avatar share identity channels up to sampler
noise. Both stages sample as one batch of chains in lockstep: all
portraits together, all keyframes together.
"""

from __future__ import annotations

import json
from typing import List, Tuple

import numpy as np

from .conditioning import DEFAULT_EMBED_DIM, Condition, encode_text_mock, unit_vector
from .config import PipelineConfig
from .diffusion import sample_reverse
from .errors import InputError, ParseError, ValidationError
from .script import (
    DOMAIN_FIELDS,
    AvatarProfile,
    DomainPrompt,
    LlmClient,
    ShotDescription,
    ShotScript,
    call_llm,
    require_field,
)
from .seeds import spawn_rng


_AVATARS_INSTRUCTION = (
    "Propose recurring character avatars for this story and assign one to "
    "every shot. Reply with JSON: {\"avatars\": [{\"id\", \"character\", "
    "\"background\", \"relations\", \"camera\", \"hdr\"}], \"assignment\": "
    "[avatar id per shot, in shot order]}."
)


def derive_avatars(
    descriptions: List[ShotDescription], llm: LlmClient, config: PipelineConfig
) -> Tuple[List[AvatarProfile], List[str]]:
    """Propose avatars and a total per-shot assignment; avatar ``id``
    renders from ``config.avatar_seed(id)``.

    The mock client implements the grouping rule (ceil(N / shots_per_avatar)
    avatars, shot i -> avatar i // shots_per_avatar); any client's completion
    is parsed and coverage-validated the same way.
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

    try:
        payload = json.loads(completion)
    except json.JSONDecodeError as exc:
        raise ParseError(f"avatar completion is not valid JSON: {exc}") from exc
    raw_avatars = require_field(payload, "avatars", list, "")
    assignment = require_field(payload, "assignment", list, "")

    avatars = []
    for i, entry in enumerate(raw_avatars):
        path = f"avatars[{i}]"
        fields = {f: require_field(entry, f, str, path) for f in ("id",) + DOMAIN_FIELDS}
        empty = [f for f, value in fields.items() if not value]
        if empty:
            raise ParseError(f"{path} has empty fields: {empty}")
        aid = fields.pop("id")
        avatars.append(
            AvatarProfile(id=aid, prompt=DomainPrompt(**fields), seed=config.avatar_seed(aid))
        )
    ids = [a.id for a in avatars]
    if len(set(ids)) != len(ids):
        raise ValidationError(f"duplicate avatar ids in completion: {ids}")

    if len(assignment) != len(descriptions):
        raise ValidationError(
            f"assignment covers {len(assignment)} shots, story has {len(descriptions)}"
        )
    id_set = set(ids)
    for i, aid in enumerate(assignment):
        if not isinstance(aid, str):
            raise ParseError(f"field assignment[{i}] has wrong type (expected str)")
        if aid not in id_set:
            raise ValidationError(f"shot {i} assigned to unknown avatar '{aid}'")
    return avatars, list(assignment)


def encode_image_mock(
    latent: np.ndarray, d_e: int = DEFAULT_EMBED_DIM, seed: int = 0
) -> np.ndarray:
    """Fixed seeded linear map of the latent, as a read-only unit vector
    (see :func:`unit_vector`; a zero latent maps to the first basis vector).
    """
    flat = np.asarray(latent, dtype=float).ravel()
    weights = spawn_rng("image-encoder", seed, d_e, flat.size).standard_normal(
        (d_e, flat.size)
    ) / np.sqrt(flat.size)
    return unit_vector(weights @ flat)


def render_avatar(profiles: List[AvatarProfile], config: PipelineConfig) -> List[np.ndarray]:
    """Render the avatars' portraits in one batch and return their image
    embeddings, in the order of ``profiles``."""
    d_e, encoder_seed = config.embed_dim, config.encoder_seed
    conds = [
        Condition(text=encode_text_mock(profile.prompt.as_text(), d_e, encoder_seed))
        for profile in profiles
    ]
    portraits = sample_reverse(
        config.world(), conds, config.schedule(),
        [profile.seed for profile in profiles], config.latent_shape,
    )
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
    seeds = [config.keyframe_seed(b) for b in range(len(conds))]
    batch = sample_reverse(config.world(), conds, config.schedule(), seeds, config.latent_shape)
    return list(batch)
