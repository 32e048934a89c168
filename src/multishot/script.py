"""Story expansion: one sentence in, N five-domain shot scripts out.

A pluggable LLM client turns the user input into short per-shot
descriptions, then fills each shot's script across five domains (character,
background, relations, camera pose, HDR lighting), conditioning every call
on the previously generated script so the narrative stays coherent. Each
completion is JSON: the fragment of the story document that it fills,
read by the same functions as the story document itself, so completions
and story files share one grammar in which every text field is a
non-blank string. The bundled mock client is a deterministic template
engine, so the whole module is testable offline; the HTTP client speaks a
generic chat-completion contract for real models.

Stories serialize to a canonical JSON document (fixed key order, 2-space
indent, LF newlines) so equal stories are byte-identical on disk.
"""

from __future__ import annotations

import hashlib
import json
import os
from dataclasses import dataclass
from typing import List, Optional, Protocol

from .errors import InputError, MultishotError, ParseError, TransportError, ValidationError
from .seeds import derive_seed
from .tensorio import canonical_json, read_json

DOMAIN_FIELDS = ("character", "background", "relations", "camera", "hdr")

LLM_KEY_ENV = "VGOT_LLM_KEY"


@dataclass(frozen=True)
class ShotDescription:
    """One-sentence description of a single shot."""

    text: str


@dataclass(frozen=True)
class DomainPrompt:
    """A five-domain prompt block: an avatar's portrait or a shot's script."""

    character: str
    background: str
    relations: str
    camera: str
    hdr: str

    def as_text(self) -> str:
        return " ".join(getattr(self, f) for f in DOMAIN_FIELDS)

    def domains(self) -> dict:
        return {f: getattr(self, f) for f in DOMAIN_FIELDS}


@dataclass(frozen=True)
class AvatarProfile:
    """A recurring character: its portrait prompt and render seed."""

    id: str
    prompt: DomainPrompt
    seed: int


@dataclass(frozen=True)
class ShotScript(DomainPrompt):
    """The filled five-domain script for one shot, and the avatar it shows."""

    avatar_id: str


def check_roster(avatar_ids: List[str], assignment: List[str]) -> None:
    """The roster rules: avatar ids are unique, and shot j's avatar,
    ``assignment[j]``, is on the roster; a ValidationError otherwise."""
    ids = set(avatar_ids)
    if len(ids) != len(avatar_ids):
        raise ValidationError(f"duplicate avatar ids: {avatar_ids}")
    for j, aid in enumerate(assignment):
        if aid not in ids:
            raise ValidationError(f"shot {j}'s avatar '{aid}' is not on the roster")


@dataclass(frozen=True)
class Story:
    """A full narrative plan: descriptions, scripts, and avatar roster.

    Shot j is position j of ``descriptions`` and ``scripts``. A story is
    built fully populated: both lists have one entry per shot, avatar ids
    are unique, every script's avatar is on the roster, and no text is blank.
    """

    user_input: str
    descriptions: List[ShotDescription]
    scripts: List[ShotScript]
    avatars: List[AvatarProfile]

    def __post_init__(self):
        if len(self.scripts) != len(self.descriptions):
            raise ValidationError(
                f"story is not fully populated: {len(self.descriptions)} descriptions, "
                f"{len(self.scripts)} scripts"
            )
        check_roster([a.id for a in self.avatars], [s.avatar_id for s in self.scripts])
        texts = {"user_input": self.user_input}
        texts.update({f"shots[{j}].short": d.text for j, d in enumerate(self.descriptions)})
        prompts = [(f"shots[{j}].script", s) for j, s in enumerate(self.scripts)]
        prompts += [(f"avatars[{i}].prompt", a.prompt) for i, a in enumerate(self.avatars)]
        texts.update({f"{path}.{f}": v for path, p in prompts for f, v in p.domains().items()})
        for path, text in texts.items():
            if not text.strip():
                raise ValidationError(f"field {path} of story.json is blank")


class LlmClient(Protocol):
    """Completion contract: (instruction, context) -> completion text."""

    def complete(self, instruction: str, context: str) -> str:
        ...


def call_llm(llm: LlmClient, instruction: str, context: str, task: str) -> str:
    """The one error policy of LLM calls: a client's TransportError, and
    any exception not of this package, becomes a TransportError naming the
    task; any other error of this package (a ParseError a client raises
    itself) passes through."""
    try:
        return llm.complete(instruction, context)
    except Exception as exc:
        if isinstance(exc, MultishotError) and not isinstance(exc, TransportError):
            raise
        raise TransportError(f"LLM client failed {task}: {exc}") from exc


# --------------------------------------------------------------------------
# Mock client: a template engine keyed by (text hash, shot index, domain).

_TITLES = (
    "The Threshold", "A Small Promise", "Signals at Dusk", "The Long Detour",
    "What the Tide Left", "An Uneasy Truce", "The Borrowed Coat", "First Frost",
    "The Crossing", "A Door Ajar", "The Last Ferry", "Morning Ledger",
)
_ACTIONS = (
    "studies a weathered map", "walks through a bustling market",
    "pauses at a rain streaked window", "shares a quiet meal",
    "repairs a broken lantern", "argues over a faded letter",
    "races along a river path", "watches the horizon at dusk",
    "sorts through old photographs", "practices a difficult craft",
    "greets an unexpected visitor", "packs for a long journey",
)
_PLACES = (
    "beneath towering trees", "in a sunlit courtyard", "on a windswept ridge",
    "inside a cluttered workshop", "by the harbor wall", "under festival lights",
    "in a narrow alley", "at the edge of a wheat field",
)
_LOOKS = (
    "wearing a patched coat", "with ink stained hands", "carrying a worn satchel",
    "in travel dusted boots", "with a guarded expression", "holding a brass compass",
)
_CAMERAS = (
    "Medium shot, eye level", "Wide establishing shot", "Slow push-in close-up",
    "Over-the-shoulder framing", "Low angle tracking shot", "Static long take",
)
_LIGHTS = (
    "Soft morning light with long shadows", "Hard noon sun and deep contrast",
    "Amber lamplight against blue dusk", "Overcast diffuse glow",
    "Flickering warm firelight", "Cold moonlit haze",
)


def _pick(table, *key):
    return table[derive_seed(*key) % len(table)]


def _digest(*parts: str) -> str:
    return hashlib.sha256("\x1f".join(parts).encode("utf-8")).hexdigest()[:8]


class MockLlmClient:
    """Deterministic stand-in for a chat model.

    Renders the same JSON completions a real model is instructed to
    produce, so the parsing path is identical in mock and HTTP modes.
    """

    def complete(self, instruction: str, context: str) -> str:
        payload = json.loads(context)
        task = payload["task"]
        if task == "expand":
            return self._expand(payload["user_input"], payload["n_shots"])
        if task == "script":
            return self._script(payload["short"], payload["index"], payload.get("prev"))
        if task == "avatars":
            return self._avatars(payload["descriptions"], payload["shots_per_avatar"])
        raise InputError(f"mock client does not know task '{task}'")

    def _expand(self, user_input: str, n: int) -> str:
        # Paper-shaped granularity: a distinct title plus one sentence per
        # shot, sharing only a compact subject tag so shots stay textually
        # distinguishable.
        tag = " ".join(user_input.split()[-2:])
        shots = []
        for i in range(n):
            title = _pick(_TITLES, "expand-title", user_input, i)
            action = _pick(_ACTIONS, "expand-action", user_input, i)
            place = _pick(_PLACES, "expand-place", user_input, i)
            shots.append({"short": f"{title} ({tag}, scene {i + 1}): {action} {place}."})
        return json.dumps({"shots": shots})

    def _script(self, short: str, index: int, prev: Optional[dict]) -> str:
        look = _pick(_LOOKS, "script-look", short, index)
        place = _pick(_PLACES, "script-place", short, index)
        camera = _pick(_CAMERAS, "script-camera", short, index)
        light = _pick(_LIGHTS, "script-light", short, index)
        if prev is None:
            link = "opening the story"
        else:
            link = (
                f"continuing from scene {index - 1} "
                f"(beat {_digest(*(prev[f] for f in DOMAIN_FIELDS))})"
            )
        return json.dumps(
            {
                "character": f"the protagonist of '{short}', {look}.",
                "background": f"{place}, framing '{short}'.",
                "relations": f"the players of '{short}' interact, {link}.",
                "camera": f"{camera} on '{short}'.",
                "hdr": f"{light} over '{short}'.",
            }
        )

    def _avatars(self, descriptions: List[str], shots_per_avatar: int) -> str:
        n = len(descriptions)
        n_avatars = -(-n // shots_per_avatar)  # ceil division
        avatars = []
        for g in range(n_avatars):
            anchor = descriptions[g * shots_per_avatar]
            look = _pick(_LOOKS, "avatar-look", anchor, g)
            light = _pick(_LIGHTS, "avatar-light", anchor, g)
            prompt = {
                "character": f"Character: recurring figure {g} of '{anchor}', {look}.",
                "background": f"Background: neutral portrait backdrop for figure {g}.",
                "relations": f"Relation: figure {g} stands alone, facing the viewer.",
                "camera": "Camera Pose: centered head and shoulders portrait.",
                "hdr": f"HDR Description: {light}.",
            }
            avatars.append({"id": f"avatar_{g:02d}", "prompt": prompt})
        shots = [{"avatar_id": f"avatar_{i // shots_per_avatar:02d}"} for i in range(n)]
        return json.dumps({"avatars": avatars, "shots": shots})


class HttpLlmClient:
    """Generic chat-completion HTTP client.

    Request: POST {"messages": [{"role", "content"}]} to the configured
    endpoint; response: {"content": string}. The API key is read from the
    VGOT_LLM_KEY environment variable unless given explicitly.
    """

    def __init__(self, endpoint: str, api_key: Optional[str] = None, session=None, timeout: float = 60.0):
        if not endpoint:
            raise InputError("HTTP LLM client requires an endpoint")
        self.endpoint = endpoint
        self.api_key = api_key if api_key is not None else os.environ.get(LLM_KEY_ENV, "")
        if session is None:
            import requests

            session = requests.Session()
        self.session = session
        self.timeout = timeout

    def complete(self, instruction: str, context: str) -> str:
        headers = {"Content-Type": "application/json"}
        if self.api_key:
            headers["Authorization"] = f"Bearer {self.api_key}"
        body = {
            "messages": [
                {"role": "system", "content": instruction},
                {"role": "user", "content": context},
            ]
        }
        # connection errors, timeouts and bad JSON reach call_llm as they are
        response = self.session.post(
            self.endpoint, json=body, headers=headers, timeout=self.timeout
        )
        status = getattr(response, "status_code", 200)
        if status >= 400:
            raise TransportError(f"LLM endpoint returned HTTP {status}")
        payload = response.json()
        content = payload.get("content") if isinstance(payload, dict) else None
        if not isinstance(content, str):
            raise ParseError("LLM response missing string 'content' field")
        return content


# --------------------------------------------------------------------------
# Reading JSON: completions and story documents alike.


def require_field(mapping: dict, key: str, kind, path: str):
    """mapping[key], checked to be a `kind`, and a non-blank one when it is a
    string; a ParseError names its JSON path."""
    if not isinstance(mapping, dict) or key not in mapping:
        raise ParseError(f"missing field at {path}.{key}" if path else f"missing field {key}")
    value = mapping[key]
    where = f"{path}.{key}" if path else key
    if not isinstance(value, kind) or (kind is int and isinstance(value, bool)):
        raise ParseError(f"field {where} has wrong type (expected {kind.__name__})")
    if kind is str and not value.strip():
        raise ParseError(f"field {where} is blank")
    return value


def _read_domains(mapping: dict, path: str) -> dict:
    return {f: require_field(mapping, f, str, path) for f in DOMAIN_FIELDS}


def read_avatar(entry: dict, path: str) -> tuple:
    """The id and prompt of the avatar entry at ``path``: what a story
    document's ``avatars[i]`` and an avatars completion's share."""
    aid = require_field(entry, "id", str, path)
    prompt = require_field(entry, "prompt", dict, path)
    return aid, DomainPrompt(**_read_domains(prompt, f"{path}.prompt"))


# --------------------------------------------------------------------------
# Operations.

_EXPAND_INSTRUCTION = (
    "Expand the user's one-sentence story into exactly n_shots one-sentence "
    "shot descriptions. Reply with JSON only: {\"shots\": [{\"short\": "
    "description}]}, one entry per shot, in shot order."
)
_SCRIPT_INSTRUCTION = (
    "Write a five-domain shot script for the given short description, "
    "staying consistent with the previous script if one is provided. Reply "
    "with JSON only: {\"character\", \"background\", \"relations\", "
    "\"camera\", \"hdr\"}, each a non-blank string."
)


def expand_story(user_input: str, n_shots: int, llm: LlmClient) -> List[ShotDescription]:
    """Turn the user input into exactly ``n_shots`` short descriptions."""
    stripped = user_input.strip()
    if not stripped:
        raise InputError("user input is empty")
    if n_shots < 1:
        raise InputError(f"need at least one shot, got {n_shots}")
    context = json.dumps({"task": "expand", "user_input": stripped, "n_shots": n_shots})
    completion = call_llm(llm, _EXPAND_INSTRUCTION, context, "while expanding the story")
    shots = require_field(read_json(completion, "the expand completion"), "shots", list, "")
    if len(shots) != n_shots:
        raise ParseError(f"the expand completion has {len(shots)} shots, expected {n_shots}")
    return [
        ShotDescription(require_field(shot, "short", str, f"shots[{j}]"))
        for j, shot in enumerate(shots)
    ]


def generate_shot_script(
    s: ShotDescription,
    index: int,
    prev: Optional[ShotScript],
    llm: LlmClient,
    avatar_id: str,
) -> ShotScript:
    """Fill the five domains for shot ``index``, conditioned on the previous
    script; the shot shows avatar ``avatar_id``."""
    prev_payload = None if prev is None else prev.domains()
    context = json.dumps(
        {"task": "script", "short": s.text, "index": index, "prev": prev_payload}
    )
    completion = call_llm(llm, _SCRIPT_INSTRUCTION, context, f"while scripting shot {index}")
    doc = read_json(completion, f"the script completion of shot {index}")
    return ShotScript(avatar_id=avatar_id, **_read_domains(doc, f"shots[{index}].script"))


def generate_script_sequence(
    descriptions: List[ShotDescription],
    llm: LlmClient,
    assignment: List[str],
) -> List[ShotScript]:
    """Generate all scripts in shot order, each conditioned on its
    predecessor; script j shows avatar ``assignment[j]``."""
    scripts: List[ShotScript] = []
    for j, (s, avatar_id) in enumerate(zip(descriptions, assignment, strict=True)):
        prev = scripts[-1] if scripts else None
        scripts.append(generate_shot_script(s, j, prev, llm, avatar_id))
    return scripts


# --------------------------------------------------------------------------
# Canonical story document.


def story_to_document(story: Story) -> dict:
    """Build the canonical JSON document (fixed key order)."""
    return {
        "user_input": story.user_input,
        "avatars": [
            {"id": a.id, "prompt": a.prompt.domains(), "seed": a.seed} for a in story.avatars
        ],
        "shots": [
            {"short": desc.text, "script": script.domains(), "avatar_id": script.avatar_id}
            for desc, script in zip(story.descriptions, story.scripts)
        ],
    }


def serialize_story(story: Story) -> bytes:
    """Canonical serialization, in schema key order."""
    return canonical_json(story_to_document(story))


def parse_story(data: bytes) -> Story:
    """Parse and validate a story document; errors carry the JSON path.
    Shot j is shots[j]; keys the schema does not name are ignored."""
    doc = read_json(data, "the story document")
    user_input = require_field(doc, "user_input", str, "")
    raw_avatars = require_field(doc, "avatars", list, "")
    raw_shots = require_field(doc, "shots", list, "")

    avatars = []
    for i, entry in enumerate(raw_avatars):
        path = f"avatars[{i}]"
        aid, prompt = read_avatar(entry, path)
        seed = require_field(entry, "seed", int, path)
        avatars.append(AvatarProfile(id=aid, prompt=prompt, seed=seed))

    descriptions, scripts = [], []
    for i, entry in enumerate(raw_shots):
        path = f"shots[{i}]"
        short = require_field(entry, "short", str, path)
        script_doc = require_field(entry, "script", dict, path)
        avatar_id = require_field(entry, "avatar_id", str, path)
        descriptions.append(ShotDescription(short))
        domains = _read_domains(script_doc, f"{path}.script")
        scripts.append(ShotScript(avatar_id=avatar_id, **domains))
    return Story(user_input, descriptions, scripts, avatars)
