"""Story expansion: one sentence in, N five-domain shot scripts out.

A pluggable LLM client turns the user input into short per-shot
descriptions, then fills each shot's script across five domains (character,
background, relations, camera pose, HDR lighting), conditioning every call
on the previously generated script so the narrative stays coherent. The
bundled mock client is a deterministic template engine, so the whole module
is testable offline; the HTTP client speaks a generic chat-completion
contract for real models.

Stories serialize to a canonical JSON document (fixed key order, 2-space
indent, LF newlines) so equal stories are byte-identical on disk.
"""

from __future__ import annotations

import hashlib
import json
import os
import re
from dataclasses import dataclass
from typing import List, Optional, Protocol

from .errors import (
    InputError,
    MultishotError,
    ParseError,
    SchemaError,
    TransportError,
    ValidationError,
)
from .seeds import derive_seed

DOMAIN_FIELDS = ("character", "background", "relations", "camera", "hdr")

#: Section labels accepted in completions, mapped to script fields.
_LABELS = {
    "character": "character",
    "background": "background",
    "relation": "relations",
    "relations": "relations",
    "camera pose": "camera",
    "camera": "camera",
    "hdr description": "hdr",
    "hdr": "hdr",
}
_LABEL_RE = re.compile(
    r"^\s*(character|background|relations?|camera(?:\s+pose)?|hdr(?:\s+description)?)\s*:\s*",
    re.IGNORECASE | re.MULTILINE,
)

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


@dataclass(frozen=True)
class Story:
    """A full narrative plan: descriptions, scripts, and avatar roster.

    Shot j is position j of ``descriptions`` and ``scripts``. A story is
    built fully populated: both lists have one entry per shot, avatar ids
    are unique, and every script's avatar is on the roster.
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
        ids = {a.id for a in self.avatars}
        if len(ids) != len(self.avatars):
            raise ValidationError("duplicate avatar ids")
        for j, script in enumerate(self.scripts):
            if script.avatar_id not in ids:
                raise ValidationError(
                    f"shots[{j}].avatar_id '{script.avatar_id}' does not resolve"
                )


class LlmClient(Protocol):
    """Completion contract: (instruction, context) -> completion text."""

    def complete(self, instruction: str, context: str) -> str:
        ...


def call_llm(llm: LlmClient, instruction: str, context: str, task: str) -> str:
    """The one error policy of LLM calls: errors of this package (a parse,
    schema or transport error a client raises itself) pass through, and any
    other exception becomes a TransportError naming the task."""
    try:
        return llm.complete(instruction, context)
    except MultishotError:
        raise
    except Exception as exc:
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

    Renders the same completion formats a real model is instructed to
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
        lines = []
        for i in range(n):
            title = _pick(_TITLES, "expand-title", user_input, i)
            action = _pick(_ACTIONS, "expand-action", user_input, i)
            place = _pick(_PLACES, "expand-place", user_input, i)
            lines.append(f"{i + 1}. {title} ({tag}, scene {i + 1}): {action} {place}.")
        return "\n".join(lines)

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
        return "\n".join(
            [
                f"Character: the protagonist of '{short}', {look}.",
                f"Background: {place}, framing '{short}'.",
                f"Relation: the players of '{short}' interact, {link}.",
                f"Camera Pose: {camera} on '{short}'.",
                f"HDR Description: {light} over '{short}'.",
            ]
        )

    def _avatars(self, descriptions: List[str], shots_per_avatar: int) -> str:
        n = len(descriptions)
        n_avatars = -(-n // shots_per_avatar)  # ceil division
        avatars = []
        for g in range(n_avatars):
            anchor = descriptions[g * shots_per_avatar]
            look = _pick(_LOOKS, "avatar-look", anchor, g)
            light = _pick(_LIGHTS, "avatar-light", anchor, g)
            avatars.append(
                {
                    "id": f"avatar_{g:02d}",
                    "character": f"Character: recurring figure {g} of '{anchor}', {look}.",
                    "background": f"Background: neutral portrait backdrop for figure {g}.",
                    "relations": f"Relation: figure {g} stands alone, facing the viewer.",
                    "camera": "Camera Pose: centered head and shoulders portrait.",
                    "hdr": f"HDR Description: {light}.",
                }
            )
        assignment = [f"avatar_{min(i // shots_per_avatar, n_avatars - 1):02d}" for i in range(n)]
        return json.dumps({"avatars": avatars, "assignment": assignment})


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
        try:
            response = self.session.post(
                self.endpoint, json=body, headers=headers, timeout=self.timeout
            )
            status = getattr(response, "status_code", 200)
            if status >= 400:
                raise TransportError(f"LLM endpoint returned HTTP {status}")
            payload = response.json()
        except TransportError:
            raise
        except Exception as exc:  # connection errors, bad JSON, timeouts
            raise TransportError(f"LLM request failed: {exc}") from exc
        content = payload.get("content") if isinstance(payload, dict) else None
        if not isinstance(content, str):
            raise ParseError("LLM response missing string 'content' field")
        return content


# --------------------------------------------------------------------------
# Operations.

_EXPAND_INSTRUCTION = (
    "Expand the user's one-sentence story into exactly n_shots one-sentence "
    "shot descriptions. Reply with one numbered line per shot: '1. ...'."
)
_SCRIPT_INSTRUCTION = (
    "Write a five-domain shot script for the given short description, "
    "staying consistent with the previous script if one is provided. Reply "
    "with exactly five labeled lines: 'Character:', 'Background:', "
    "'Relation:', 'Camera Pose:', 'HDR Description:'."
)

_NUMBERED_LINE = re.compile(r"^\s*(\d+)[.)]\s*(.+?)\s*$")


def expand_story(user_input: str, n_shots: int, llm: LlmClient) -> List[ShotDescription]:
    """Turn the user input into exactly ``n_shots`` short descriptions."""
    stripped = user_input.strip()
    if not stripped:
        raise InputError("user input is empty")
    if n_shots < 1:
        raise InputError(f"need at least one shot, got {n_shots}")
    context = json.dumps({"task": "expand", "user_input": stripped, "n_shots": n_shots})
    completion = call_llm(llm, _EXPAND_INSTRUCTION, context, "while expanding the story")

    descriptions = []
    for line in completion.splitlines():
        if not line.strip():
            continue
        match = _NUMBERED_LINE.match(line)
        if match is None:
            raise ParseError(f"expected numbered shot lines, got: {line!r}")
        descriptions.append(ShotDescription(match.group(2)))
    if len(descriptions) != n_shots:
        raise ParseError(f"expected {n_shots} shot lines, parsed {len(descriptions)}")
    return descriptions


def parse_domains(completion: str) -> dict:
    """Extract the five labeled domains from a completion, any order."""
    found: dict = {}
    matches = list(_LABEL_RE.finditer(completion))
    for pos, match in enumerate(matches):
        label = re.sub(r"\s+", " ", match.group(1).strip().lower())
        fld = _LABELS[label]
        end = matches[pos + 1].start() if pos + 1 < len(matches) else len(completion)
        text = completion[match.end() : end].strip()
        if text and fld not in found:
            found[fld] = text
    for fld in DOMAIN_FIELDS:
        if not found.get(fld):
            raise SchemaError(f"completion is missing the '{fld}' domain")
    return found


def generate_shot_script(
    s: ShotDescription,
    index: int,
    prev: Optional[ShotScript],
    llm: LlmClient,
    avatar_id: str = "",
) -> ShotScript:
    """Fill the five domains for shot ``index``, conditioned on the previous
    script."""
    prev_payload = None if prev is None else prev.domains()
    context = json.dumps(
        {"task": "script", "short": s.text, "index": index, "prev": prev_payload}
    )
    completion = call_llm(llm, _SCRIPT_INSTRUCTION, context, f"on shot {index}")
    return ShotScript(avatar_id=avatar_id, **parse_domains(completion))


def generate_script_sequence(
    descriptions: List[ShotDescription],
    llm: LlmClient,
    assignment: Optional[List[str]] = None,
) -> List[ShotScript]:
    """Generate all scripts in shot order, each conditioned on its
    predecessor; script j shows avatar ``assignment[j]`` when given."""
    scripts: List[ShotScript] = []
    for j, s in enumerate(descriptions):
        avatar_id = assignment[j] if assignment is not None else ""
        prev = scripts[-1] if scripts else None
        try:
            scripts.append(generate_shot_script(s, j, prev, llm, avatar_id=avatar_id))
        except TransportError as exc:
            raise TransportError(f"script generation aborted at shot {j}: {exc}") from exc
    return scripts


# --------------------------------------------------------------------------
# Canonical story document.


def require_field(mapping: dict, key: str, kind, path: str):
    """mapping[key], checked to be a `kind`; a ParseError names its JSON path."""
    if not isinstance(mapping, dict) or key not in mapping:
        raise ParseError(f"missing field at {path}.{key}" if path else f"missing field {key}")
    value = mapping[key]
    where = f"{path}.{key}" if path else key
    if not isinstance(value, kind) or (kind is int and isinstance(value, bool)):
        raise ParseError(f"field {where} has wrong type (expected {kind.__name__})")
    return value


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
    """Canonical serialization: schema key order, 2-space indent, LF."""
    text = json.dumps(story_to_document(story), indent=2, ensure_ascii=False)
    return (text + "\n").encode("utf-8")


def _read_domains(mapping: dict, path: str) -> dict:
    return {f: require_field(mapping, f, str, path) for f in DOMAIN_FIELDS}


def parse_story(data: bytes) -> Story:
    """Parse and validate a story document; errors carry the JSON path.
    Shot j is shots[j]; keys the schema does not name are ignored."""
    try:
        doc = json.loads(data.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise ParseError(f"story document is not valid UTF-8 JSON: {exc}") from exc
    user_input = require_field(doc, "user_input", str, "")
    raw_avatars = require_field(doc, "avatars", list, "")
    raw_shots = require_field(doc, "shots", list, "")

    avatars = []
    for i, entry in enumerate(raw_avatars):
        path = f"avatars[{i}]"
        aid = require_field(entry, "id", str, path)
        prompt_doc = require_field(entry, "prompt", dict, path)
        seed = require_field(entry, "seed", int, path)
        prompt = DomainPrompt(**_read_domains(prompt_doc, f"{path}.prompt"))
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
