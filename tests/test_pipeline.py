"""End-to-end runs: artifacts, determinism, stage isolation, failure marks."""

import json

import pytest

from multishot.config import PipelineConfig
from multishot.errors import StageFailure, StateError
from multishot.pipeline import (
    FRAMES_FILE,
    LOCK_FILE,
    MANIFEST_FILE,
    REPORT_FILE,
    compute_metrics_for_run,
    run_lock,
    run_pipeline,
    verify_manifest,
)
from multishot.tensorio import read_tensor_file

STORY_INPUT = "the life of a lighthouse keeper named Edda"


@pytest.fixture(scope="module")
def default_run(tmp_path_factory):
    out = tmp_path_factory.mktemp("run")
    artifacts = run_pipeline(STORY_INPUT, PipelineConfig(), out)
    return out, artifacts


def test_artifact_kinds_present(default_run):
    out, artifacts = default_run
    assert (out / "story.json").exists()
    assert (out / "config.json").exists()
    assert (out / FRAMES_FILE).exists()
    assert (out / "timeline.json").exists()
    assert (out / REPORT_FILE).exists()
    assert (out / MANIFEST_FILE).exists()
    assert len(artifacts.keyframe_paths) == 4
    assert not (out / LOCK_FILE).exists()


def test_frames_tensor_dimensions(default_run):
    out, _ = default_run
    frames = read_tensor_file(out / FRAMES_FILE)
    assert frames.shape == (32, 8, 8, 8)
    timeline = json.loads((out / "timeline.json").read_text())
    assert len(timeline["frames"]) == 32
    assert timeline["frames"][0] == {"global_frame": 0, "shot": 0}
    assert timeline["frames"][-1] == {"global_frame": 31, "shot": 3}


def test_rerun_produces_identical_manifest(default_run, tmp_path):
    _, artifacts = default_run
    again = run_pipeline(STORY_INPUT, PipelineConfig(), tmp_path / "other_dir")
    assert again.manifest == artifacts.manifest


def test_different_seed_changes_manifest(default_run, tmp_path):
    _, artifacts = default_run
    other = run_pipeline(STORY_INPUT, PipelineConfig(seed=1), tmp_path / "seeded")
    assert other.manifest != artifacts.manifest


def test_manifest_verifies_and_detects_corruption(default_run, tmp_path):
    out, _ = default_run
    assert verify_manifest(out)
    victim = run_pipeline(STORY_INPUT, PipelineConfig(), tmp_path / "victim")
    (victim.run_dir / REPORT_FILE).write_text("tampered")
    assert not verify_manifest(victim.run_dir)


def test_metrics_stage_isolated(default_run):
    # deleting report.json and rerunning only the metrics stage reproduces
    # it byte-identically from the persisted artifacts
    out, _ = default_run
    original = (out / REPORT_FILE).read_bytes()
    (out / REPORT_FILE).unlink()
    compute_metrics_for_run(out)
    assert (out / REPORT_FILE).read_bytes() == original


def test_report_to_custom_path(default_run, tmp_path):
    out, _ = default_run
    target = tmp_path / "elsewhere.json"
    compute_metrics_for_run(out, target)
    assert target.read_bytes() == (out / REPORT_FILE).read_bytes()


def test_config_json_carries_flags_but_not_location(default_run):
    out, _ = default_run
    doc = json.loads((out / "config.json").read_text())
    assert doc["user_input"] == STORY_INPUT
    assert doc["seed"] == 0 and doc["mode"] == "fifo-reset"
    assert "out_dir" not in doc


def test_lock_blocks_concurrent_runs(tmp_path):
    target = tmp_path / "locked"
    target.mkdir()
    with run_lock(target):
        with pytest.raises(StateError, match="locked"):
            run_pipeline(STORY_INPUT, PipelineConfig(), target)
    assert not (target / LOCK_FILE).exists()


def test_unwritable_out_dir_fails_before_model_work(tmp_path):
    blocker = tmp_path / "not_a_dir"
    blocker.write_text("occupied")
    with pytest.raises(OSError):
        run_pipeline(STORY_INPUT, PipelineConfig(), blocker)


def test_stage_failure_named_and_marked(tmp_path, monkeypatch):
    import multishot.pipeline as pipeline_module

    def broken(*args, **kwargs):
        raise RuntimeError("synthetic keyframe failure")

    monkeypatch.setattr(pipeline_module, "render_keyframes", broken)
    out = tmp_path / "failing"
    with pytest.raises(StageFailure) as excinfo:
        run_pipeline(STORY_INPUT, PipelineConfig(), out)
    assert excinfo.value.stage == "keyframes"
    marker = (out / "failed" / "stage.txt").read_text().splitlines()
    assert marker == ["keyframes", "RuntimeError: synthetic keyframe failure"]
    assert (out / "story.json").exists()  # earlier artifacts retained
    assert not (out / LOCK_FILE).exists()
    # a later successful run into the same directory clears the marker
    monkeypatch.undo()
    run_pipeline(STORY_INPUT, PipelineConfig(), out)
    assert not (out / "failed").exists()
    assert verify_manifest(out)


def test_rerun_with_fewer_shots_drops_stale_keyframes(tmp_path):
    out = tmp_path / "shrinking"
    run_pipeline(STORY_INPUT, PipelineConfig(n_shots=4), out)
    artifacts = run_pipeline(STORY_INPUT, PipelineConfig(n_shots=2), out)
    assert sorted(p.name for p in (out / "keyframes").iterdir()) == [
        "shot_0000.vgt", "shot_0001.vgt"
    ]
    assert sorted(name for name in artifacts.manifest if name.startswith("keyframes/")) == [
        "keyframes/shot_0000.vgt", "keyframes/shot_0001.vgt"
    ]
    assert verify_manifest(out)


def test_windowed_mode_run(tmp_path):
    artifacts = run_pipeline(
        STORY_INPUT, PipelineConfig(mode="windowed"), tmp_path / "windowed"
    )
    timeline = json.loads(artifacts.timeline_path.read_text())
    assert timeline["mode"] == "windowed"
    assert [f["shot"] for f in timeline["frames"]] == [j for j in range(4) for _ in range(8)]


def test_run_dir_self_contained_for_metrics(tmp_path):
    # metrics recomputed in a copied directory give the same bytes
    import shutil

    source = run_pipeline(STORY_INPUT, PipelineConfig(seed=9), tmp_path / "src")
    copy_dir = tmp_path / "copy"
    shutil.copytree(source.run_dir, copy_dir)
    (copy_dir / REPORT_FILE).unlink()
    compute_metrics_for_run(copy_dir)
    assert (copy_dir / REPORT_FILE).read_bytes() == source.report_path.read_bytes()
