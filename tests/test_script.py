"""Story expansion, script generation, clients, and the story file format."""

import json

import pytest

from multishot.errors import InputError, ParseError, TransportError, ValidationError
from multishot.script import (
    DOMAIN_FIELDS,
    HttpLlmClient,
    MockLlmClient,
    ShotDescription,
    Story,
    expand_story,
    generate_script_sequence,
    generate_shot_script,
    parse_story,
    serialize_story,
)
from multishot.casting import derive_avatars
from multishot.config import PipelineConfig
from multishot.pipeline import build_story

STORY_INPUT = "a story of a classic seaside town and its ferryman"


class RecordingClient:
    """Wraps the mock client, recording every (instruction, context) and
    every decoded completion."""

    deterministic = True

    def __init__(self):
        self.inner = MockLlmClient()
        self.calls = []
        self.completions = []

    def complete(self, instruction, context):
        self.calls.append((instruction, json.loads(context)))
        completion = self.inner.complete(instruction, context)
        self.completions.append(json.loads(completion))
        return completion


class ScriptedClient:
    """Returns canned completions (or raises) per call index."""

    deterministic = True

    def __init__(self, completions):
        self.completions = list(completions)
        self.n = 0

    def complete(self, instruction, context):
        item = self.completions[self.n]
        self.n += 1
        if isinstance(item, Exception):
            raise item
        return item


# --- expand_story -----------------------------------------------------------


def test_expand_counts_and_indices():
    descriptions = expand_story(STORY_INPUT, 3, MockLlmClient())
    assert len(descriptions) == 3
    assert all(d.text for d in descriptions)


def test_expand_matches_title_sentence_granularity():
    # one titled sentence per shot, distinct across shots
    descriptions = expand_story(STORY_INPUT, 30, MockLlmClient())
    texts = [d.text for d in descriptions]
    assert len(set(texts)) == 30
    for text in texts:
        assert ": " in text and text.endswith(".")


def test_expand_rejects_bad_inputs():
    with pytest.raises(InputError):
        expand_story(STORY_INPUT, 0, MockLlmClient())
    with pytest.raises(InputError):
        expand_story("   ", 3, MockLlmClient())


def test_expand_parse_errors():
    cases = [
        ("1. A line.\n2. Another.", "the expand completion is not valid JSON"),
        (json.dumps({"shorts": [{"short": "a"}, {"short": "b"}]}), "missing field shots"),
        (json.dumps({"shots": [{"short": "only one"}]}), "has 1 shots, expected 2"),
        (json.dumps({"shots": [{"short": "a"}, {"short": " \t"}]}),
         r"field shots\[1\]\.short is blank"),
    ]
    for completion, message in cases:
        with pytest.raises(ParseError, match=message):
            expand_story(STORY_INPUT, 2, ScriptedClient([completion]))


def test_mock_refuses_an_unknown_task():
    with pytest.raises(InputError, match="mock client does not know task 'summarize'"):
        MockLlmClient().complete("", json.dumps({"task": "summarize"}))


def test_expand_wraps_client_failure():
    with pytest.raises(TransportError):
        expand_story(STORY_INPUT, 2, ScriptedClient([RuntimeError("socket closed")]))


@pytest.mark.parametrize(
    "call",
    [
        lambda llm: expand_story(STORY_INPUT, 2, llm),
        lambda llm: generate_shot_script(ShotDescription("a shot"), 0, None, llm, "avatar_00"),
        lambda llm: derive_avatars([ShotDescription("a shot")], llm, PipelineConfig()),
    ],
    ids=["expand_story", "generate_shot_script", "derive_avatars"],
)
def test_llm_calls_share_one_error_policy(call):
    # a TransportError, or any exception not of this package, becomes a
    # TransportError naming the task; other errors of this package pass through
    for error in (InputError, ParseError, ValidationError):
        with pytest.raises(error, match="^from the client$"):
            call(ScriptedClient([error("from the client")]))
    for error in (TransportError("HTTP 503"), KeyError("HTTP 503")):
        with pytest.raises(TransportError, match="^LLM client failed while .*HTTP 503"):
            call(ScriptedClient([error]))


# --- generate_shot_script ---------------------------------------------------


def test_script_completion_missing_or_blank_domain_names_it():
    domains = {"character": "someone.", "background": "somewhere.",
               "relations": "something.", "camera": "somehow."}
    for completion, message in [
        (json.dumps(domains), r"missing field at shots\[3\]\.script\.hdr"),
        (json.dumps({**domains, "hdr": "  "}), r"field shots\[3\]\.script\.hdr is blank"),
        ("\n".join(f"{f}: text." for f in DOMAIN_FIELDS),
         "the script completion of shot 3 is not valid JSON"),
    ]:
        client = ScriptedClient([completion])
        with pytest.raises(ParseError, match=message):
            generate_shot_script(ShotDescription("a shot"), 3, None, client, "avatar_00")


def test_shot_script_deterministic():
    s = ShotDescription("The ferry waits at dawn.")
    one = generate_shot_script(s, 0, None, MockLlmClient(), "avatar_00")
    two = generate_shot_script(s, 0, None, MockLlmClient(), "avatar_00")
    assert one == two and one.avatar_id == "avatar_00"
    assert all(getattr(one, f) for f in DOMAIN_FIELDS)


def test_shot_script_relations_depend_on_prev():
    s0 = ShotDescription("The ferry waits at dawn.")
    s1 = ShotDescription("The ferry departs at noon.")
    mock = MockLlmClient()
    prev_a = generate_shot_script(s0, 0, None, mock, "avatar_00")
    storm = ShotDescription("A storm closes the harbor.")
    prev_b = generate_shot_script(storm, 0, None, mock, "avatar_00")
    with_a = generate_shot_script(s1, 1, prev_a, mock, "avatar_00")
    with_b = generate_shot_script(s1, 1, prev_b, mock, "avatar_00")
    assert with_a.relations != with_b.relations
    for fld in ("character", "background", "camera", "hdr"):
        assert getattr(with_a, fld) == getattr(with_b, fld)


# --- generate_script_sequence ------------------------------------------------


def _descriptions(n):
    return expand_story(STORY_INPUT, n, MockLlmClient())


def _avatar_ids(n):
    return ["avatar_00"] * n


def test_sequence_thirty_shots_five_domains():
    scripts = generate_script_sequence(_descriptions(30), MockLlmClient(), _avatar_ids(30))
    assert len(scripts) == 30
    for script in scripts:
        for fld in DOMAIN_FIELDS:
            assert getattr(script, fld)


def test_sequence_is_ordered_and_carries_prev():
    client = RecordingClient()
    scripts = generate_script_sequence(_descriptions(4), client, _avatar_ids(4))
    script_calls = [c for _, c in client.calls if c["task"] == "script"]
    assert [c["index"] for c in script_calls] == [0, 1, 2, 3]
    assert script_calls[0]["prev"] is None
    for i in (1, 2, 3):
        expected_prev = {f: getattr(scripts[i - 1], f) for f in DOMAIN_FIELDS}
        assert script_calls[i]["prev"] == expected_prev


def test_sequence_idempotent():
    a = generate_script_sequence(_descriptions(5), MockLlmClient(), _avatar_ids(5))
    b = generate_script_sequence(_descriptions(5), MockLlmClient(), _avatar_ids(5))
    assert a == b


def test_sequence_aborts_with_failing_index():
    mock = MockLlmClient()
    good = mock._script("x", 0, None)
    client = ScriptedClient([good, good, RuntimeError("boom"), good])
    with pytest.raises(TransportError, match="shot 2"):
        generate_script_sequence(_descriptions(4), client, _avatar_ids(4))


# --- story file round trip ---------------------------------------------------


def _full_story(n=4, shots_per_avatar=2):
    descriptions = _descriptions(n)
    config = PipelineConfig(shots_per_avatar=shots_per_avatar)
    avatars, assignment = derive_avatars(descriptions, MockLlmClient(), config)
    scripts = generate_script_sequence(descriptions, MockLlmClient(), assignment)
    return Story(STORY_INPUT, descriptions, scripts, avatars)


def test_each_completion_is_the_story_fragment_it_fills():
    # each completion, put at its story.json path, with the user input and
    # the avatar seeds that no completion holds, is the story build_story
    # makes: shots[j].short, avatars[i] and shots[j].avatar_id, shots[j].script
    config = PipelineConfig(n_shots=5, shots_per_avatar=2)
    client = RecordingClient()
    story = build_story(STORY_INPUT, config, client)
    tasks = [context["task"] for _, context in client.calls]
    assert tasks == ["expand", "avatars"] + ["script"] * 5
    expand, cast, *scripts = client.completions
    doc = {
        "user_input": STORY_INPUT,
        "avatars": [{**avatar, "seed": config.avatar_seed(avatar["id"])}
                    for avatar in cast["avatars"]],
        "shots": [{**short, **shot, "script": script}
                  for short, shot, script in zip(expand["shots"], cast["shots"], scripts,
                                                 strict=True)],
    }
    assert serialize_story(parse_story(json.dumps(doc).encode())) == serialize_story(story)


def test_roundtrip_thirty_shots_byte_identical():
    story = _full_story(30, 6)
    data = serialize_story(story)
    assert serialize_story(parse_story(data)) == data


def test_roundtrip_structural_equality():
    story = _full_story()
    parsed = parse_story(serialize_story(story))
    assert parsed.user_input == story.user_input
    assert parsed.descriptions == story.descriptions
    assert parsed.scripts == story.scripts
    assert [a.id for a in parsed.avatars] == [a.id for a in story.avatars]
    assert [a.prompt for a in parsed.avatars] == [a.prompt for a in story.avatars]


def test_parse_error_names_missing_field_path():
    doc = json.loads(serialize_story(_full_story()).decode())
    del doc["shots"][1]["script"]["hdr"]
    with pytest.raises(ParseError, match=r"shots\[1\]\.script\.hdr"):
        parse_story(json.dumps(doc).encode())


def test_dangling_avatar_reference_rejected():
    doc = json.loads(serialize_story(_full_story()).decode())
    doc["avatars"] = []
    with pytest.raises(ValidationError):
        parse_story(json.dumps(doc).encode())


def test_serialize_requires_population():
    # a story is built fully populated: 3 descriptions need 3 scripts
    with pytest.raises(ValidationError, match="3 descriptions, 0 scripts"):
        serialize_story(Story(STORY_INPUT, _descriptions(3), [], []))


def test_story_rejects_duplicate_avatar_ids():
    story = _full_story()
    with pytest.raises(ValidationError, match="duplicate avatar ids"):
        Story(STORY_INPUT, story.descriptions, story.scripts, story.avatars * 2)


def test_document_with_index_keys_parses():
    # older story files list "n_shots" and each shot's "index"; shots are
    # read by list order and those keys are ignored, so such a file
    # reserializes to the same bytes minus those keys
    current = serialize_story(_full_story())
    doc = json.loads(current.decode())
    older = {"user_input": doc["user_input"], "n_shots": len(doc["shots"]),
             "avatars": doc["avatars"],
             "shots": [{"index": i, **shot} for i, shot in enumerate(doc["shots"])]}
    data = (json.dumps(older, indent=2, ensure_ascii=False) + "\n").encode()
    assert serialize_story(parse_story(data)) == current


def test_not_json_is_parse_error():
    with pytest.raises(ParseError):
        parse_story(b"\xff\xfenot json")


# --- HTTP client -------------------------------------------------------------


class StubResponse:
    def __init__(self, payload, status=200):
        self._payload = payload
        self.status_code = status

    def json(self):
        if isinstance(self._payload, Exception):
            raise self._payload
        return self._payload


class StubSession:
    def __init__(self, response):
        self.response = response
        self.requests = []

    def post(self, url, json=None, headers=None, timeout=None):
        self.requests.append({"url": url, "json": json, "headers": headers})
        if isinstance(self.response, Exception):
            raise self.response
        return self.response


def test_http_client_request_contract(monkeypatch):
    monkeypatch.setenv("VGOT_LLM_KEY", "sk-test-123")
    content = json.dumps({"shots": [{"short": "A line."}, {"short": "Another."}]})
    session = StubSession(StubResponse({"content": content}))
    client = HttpLlmClient("https://llm.example/v1/complete", session=session)
    descriptions = expand_story(STORY_INPUT, 2, client)
    assert descriptions == [ShotDescription("A line."), ShotDescription("Another.")]
    sent = session.requests[0]
    assert sent["url"] == "https://llm.example/v1/complete"
    assert sent["headers"]["Authorization"] == "Bearer sk-test-123"
    roles = [m["role"] for m in sent["json"]["messages"]]
    assert roles == ["system", "user"]


def test_http_client_numbered_expand_answer_is_refused():
    # the expand call is answered in JSON, as every LLM call is
    session = StubSession(StubResponse({"content": "1. A line.\n2. Another."}))
    client = HttpLlmClient("https://llm.example", api_key="", session=session)
    with pytest.raises(ParseError, match="the expand completion is not valid JSON"):
        expand_story(STORY_INPUT, 2, client)


def test_http_client_status_error():
    session = StubSession(StubResponse({}, status=502))
    client = HttpLlmClient("https://llm.example", api_key="", session=session)
    with pytest.raises(TransportError, match="502"):
        client.complete("inst", "{}")


def test_http_client_connection_error():
    # the client lets a connection error through; call_llm names the task
    session = StubSession(ConnectionError("refused"))
    client = HttpLlmClient("https://llm.example", api_key="", session=session)
    message = "^LLM client failed while expanding the story: refused$"
    with pytest.raises(TransportError, match=message):
        expand_story(STORY_INPUT, 2, client)


def test_http_client_missing_content():
    for body in ({"no_content": 1}, ["content"]):
        session = StubSession(StubResponse(body))
        client = HttpLlmClient("https://llm.example", api_key="", session=session)
        with pytest.raises(ParseError):
            client.complete("inst", "{}")


def test_http_client_requires_endpoint():
    with pytest.raises(InputError):
        HttpLlmClient("")
