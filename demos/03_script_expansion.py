"""From one sentence to a five-domain shooting script.

The deterministic mock client stands in for a chat model; the parsing and
sequencing logic is exactly what an HTTP-backed client would exercise.

Run: python3 demos/03_script_expansion.py
"""

from multishot.casting import derive_avatars
from multishot.config import PipelineConfig
from multishot.script import (
    DOMAIN_FIELDS,
    MockLlmClient,
    Story,
    expand_story,
    generate_script_sequence,
    parse_story,
    serialize_story,
)

USER_INPUT = "the life of a lighthouse keeper named Edda"
llm = MockLlmClient()

descriptions = expand_story(USER_INPUT, 6, llm)
print(f"input: {USER_INPUT!r} -> {len(descriptions)} short shot descriptions\n")
for j, d in enumerate(descriptions):
    print(f"  s{j}: {d.text}")

avatars, assignment = derive_avatars(descriptions, llm, PipelineConfig(shots_per_avatar=3))
print(f"\n{len(avatars)} recurring avatars, shots assigned {assignment}")

scripts = generate_script_sequence(descriptions, llm, assignment)
story = Story(USER_INPUT, descriptions, scripts, avatars)

print("\nshot 1 expanded across the five domains:")
for domain in DOMAIN_FIELDS:
    print(f"  {domain:10s} {getattr(story.scripts[1], domain)}")
print("\n(the relations line carries a beat digest of the previous script,")
print(" so each shot is conditioned on its predecessor)")

data = serialize_story(story)
assert serialize_story(parse_story(data)) == data
print(f"\ncanonical story file: {len(data)} bytes, round-trips byte-identically")
