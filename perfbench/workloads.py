"""The benchmark's workloads: their configurations, generated inputs, the
one op each workload times, and that op's correctness gate.

Each workload is one point on the grid n_shots x frames_per_shot x steps x
latent x mode, chosen so that a different module is in charge of its time
(see README.md). Op i of a run uses a seed derived from (workload, workload
seed, i) and a user sentence drawn from that seed, so no op repeats an
earlier op's input and no cache of earlier results can stand in for the
work.
"""

from __future__ import annotations

import hashlib
import random
from dataclasses import dataclass
from pathlib import Path

import oracle


@dataclass(frozen=True)
class Workload:
    name: str
    #: PipelineConfig fields; the op seed is added per op.
    config: dict


WORKLOADS = {
    w.name: w
    for w in (
        # The paper's 30-shot story with 5 recurring avatars: many small
        # calls bound by Python overhead; the FIFO queue runs N*k + T - 1 ticks.
        Workload("fifo-story", dict(
            mode="fifo-reset", n_shots=30, shots_per_avatar=6, frames_per_shot=8, steps=50,
            height=8, width=8, channels=8)),
        # Few shots at a 64x64x16 latent: array arithmetic bound by memory
        # bandwidth, the most bytes written, and no queue.
        Workload("windowed-wide", dict(
            mode="windowed", n_shots=4, frames_per_shot=8, steps=50,
            height=64, width=64, channels=16)),
    )
}

#: The workload seed of the check input whose artifacts reference.json pins.
CHECK_SEED = 0
#: Op index of the check input; timed ops use indices 0, 1, 2, ...
CHECK_INDEX = -1
#: Op index of the input whose peak memory is measured in a process of its own.
PEAK_RSS_INDEX = -2

_ROLES = ("lighthouse keeper", "cartographer", "beekeeper", "ferry pilot", "glassblower",
          "night baker", "radio operator", "botanist", "clockmaker", "tightrope walker")
_PLACES = ("a storm coast", "a mountain pass", "a flooded city", "a desert observatory",
           "an island market", "a frozen harbour", "a border town", "a river delta")
_VERBS = ("who loses a letter", "who finds a map", "who waits for a ship",
          "who repairs a tower", "who keeps a secret", "who follows a comet")
_SYLLABLES = ("ed", "da", "ko", "ri", "mal", "vo", "sen", "tu", "ela", "bar", "ni", "os")


def op_seed(workload: str, seed: int, index: int) -> int:
    """The 31-bit seed of op ``index`` in a run with workload seed ``seed``."""
    digest = hashlib.sha256(f"perfbench\x1f{workload}\x1f{seed}\x1f{index}".encode()).digest()
    return int.from_bytes(digest[:4], "little") >> 1


def sentence(seed: int) -> str:
    """A one-sentence story drawn from ``seed``."""
    rng = random.Random(seed)
    name = "".join(rng.choice(_SYLLABLES) for _ in range(rng.randint(2, 3))).capitalize()
    return (f"the life of a {rng.choice(_ROLES)} named {name} "
            f"in {rng.choice(_PLACES)} {rng.choice(_VERBS)}")


@dataclass
class OpInput:
    sentence: str
    config: object  # multishot.config.PipelineConfig
    run_dir: Path
    frames: int


def prepare(ms, workload: Workload, seed: int, index: int, work_dir: Path) -> OpInput:
    """Generate op ``index``'s input."""
    s = op_seed(workload.name, seed, index)
    config = ms.config.PipelineConfig(**workload.config, seed=s)
    run_dir = work_dir / f"op{index:+05d}"
    return OpInput(sentence(s), config, run_dir, config.n_shots * config.frames_per_shot)


def run_op(ms, inp: OpInput) -> None:
    """The timed op: exactly what `multishot run` calls."""
    ms.pipeline.run_pipeline(inp.sentence, inp.config, inp.run_dir)


def check(ms, inp: OpInput) -> list:
    """The correctness gate, run outside the timed interval; [] passes."""
    story = ms.script.parse_story((inp.run_dir / ms.pipeline.STORY_FILE).read_bytes())
    return oracle.check_run(ms, inp.run_dir, story, inp.config)


def digests(run_dir: Path) -> dict:
    """sha256 of the artifacts whose bytes optimisations must keep.

    config.json is left out: removing dead config keys changes its bytes
    without changing what a run computes.
    """
    paths = [run_dir / name for name in ("frames.vgt", "timeline.json", "report.json")]
    paths += sorted((run_dir / "keyframes").glob("*.vgt"))
    return {
        path.relative_to(run_dir).as_posix(): hashlib.sha256(path.read_bytes()).hexdigest()
        for path in paths
        if path.exists()
    }
