"""The benchmark's correctness gate (perfbench/oracle.py) must accept the
program as it stands. The oracle rebuilds every keyframe and frame of a
run from the program's seeds, encoders and condition mean, so a rename or a
change of seed derivation that it depends on fails here."""

import importlib.util
import types
from pathlib import Path

import pytest

from multishot import casting, clips, conditioning, pipeline, seeds, tensorio
from multishot.config import PipelineConfig
from multishot.pipeline import STORY_FILE, run_pipeline
from multishot.script import parse_story

ORACLE = Path(__file__).resolve().parents[1] / "perfbench" / "oracle.py"
#: The program modules the oracle reads, by the names it reads them under.
PROGRAM = types.SimpleNamespace(casting=casting, clips=clips, conditioning=conditioning,
                                pipeline=pipeline, seeds=seeds, tensorio=tensorio)


def _load_oracle():
    spec = importlib.util.spec_from_file_location("perfbench_oracle", ORACLE)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("mode", ["fifo-reset", "windowed"])
def test_oracle_accepts_a_run(tmp_path, mode):
    config = PipelineConfig(n_shots=3, frames_per_shot=2, steps=6, mode=mode, seed=11)
    run_pipeline("the life of a lighthouse keeper named Edda", config, tmp_path)
    story = parse_story((tmp_path / STORY_FILE).read_bytes())
    assert _load_oracle().check_run(PROGRAM, tmp_path, story, config) == []
