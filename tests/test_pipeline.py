"""End-to-end runs: artifacts, determinism, stage isolation, failure marks."""

import hashlib
import json
import math
import tempfile
import threading
import tracemalloc
from dataclasses import fields, replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import multishot.clips as clips_module
import multishot.smoothing as smoothing_module
import multishot.tensorio as tensorio_module
from multishot.cli import cli
from multishot.clips import frame_seed
from multishot.config import MODES, SCALE_LIMIT, PipelineConfig
from multishot.diffusion import sample_reverse
from multishot.errors import StageFailure, StateError, ValidationError
from multishot.seeds import derive_seed
from multishot.pipeline import (
    FRAMES_FILE,
    LOCK_FILE,
    MANIFEST_FILE,
    REPORT_FILE,
    TIMELINE_FILE,
    _sha256,
    build_story,
    compute_metrics_for_run,
    generate_run,
    generate_timeline,
    load_timeline,
    render_keyframes,
    run_lock,
    run_pipeline,
    verify_manifest,
    write_manifest,
)
from multishot.script import parse_story
from multishot.smoothing import run_timeline
from multishot.tensorio import TEMP_SUFFIX, read_tensor_file, write_tensor_file

STORY_INPUT = "the life of a lighthouse keeper named Edda"


@pytest.fixture(scope="module")
def default_run(tmp_path_factory):
    out = tmp_path_factory.mktemp("run")
    manifest = run_pipeline(STORY_INPUT, PipelineConfig(), out)
    return out, manifest


def test_artifact_kinds_present(default_run):
    out, manifest = default_run
    assert (out / "story.json").exists()
    assert (out / "config.json").exists()
    assert (out / FRAMES_FILE).exists()
    assert (out / "timeline.json").exists()
    assert (out / REPORT_FILE).exists()
    assert (out / MANIFEST_FILE).exists()
    assert [name for name in manifest if name.startswith("keyframes/")] == [
        f"keyframes/shot_{j:04d}.vgt" for j in range(4)
    ]
    assert manifest == json.loads((out / MANIFEST_FILE).read_text())["files"]
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
    out, manifest = default_run
    again = run_pipeline(STORY_INPUT, PipelineConfig(), tmp_path / "other_dir")
    assert again == manifest
    # files the run did not write, top-level and nested, are not hashed
    crowded = tmp_path / "crowded"
    (crowded / "src" / "deep").mkdir(parents=True)
    (crowded / ".env").write_text("TOKEN=1\n")
    (crowded / "src" / "deep" / "code.py").write_text("x = 1\n")
    assert run_pipeline(STORY_INPUT, PipelineConfig(), crowded) == manifest
    assert (crowded / MANIFEST_FILE).read_bytes() == (out / MANIFEST_FILE).read_bytes()
    (crowded / "src" / "deep" / "code.py").write_text("x = 2\n")
    assert verify_manifest(crowded)


def test_different_seed_changes_manifest(default_run, tmp_path):
    _, manifest = default_run
    other = run_pipeline(STORY_INPUT, PipelineConfig(seed=1), tmp_path / "seeded")
    assert other != manifest


def test_manifest_verifies_and_detects_corruption(default_run, tmp_path):
    out, _ = default_run
    assert verify_manifest(out)
    victim = tmp_path / "victim"
    run_pipeline(STORY_INPUT, PipelineConfig(), victim)
    (victim / REPORT_FILE).write_text("tampered")
    assert not verify_manifest(victim)


def test_manifest_fails_when_an_artifact_is_missing(tmp_path):
    victim = tmp_path / "victim"
    run_pipeline(STORY_INPUT, PipelineConfig(), victim)
    (victim / "timeline.json").unlink()
    assert not verify_manifest(victim)


@pytest.mark.parametrize(
    "doc",
    [b"{not json", b"\xff\xfe", b"[]", b"{}", b'{"files": ["frames.vgt"]}'],
    ids=["invalid-json", "not-utf8", "not-an-object", "no-files", "files-not-an-object"],
)
def test_malformed_manifest_does_not_verify(tmp_path, doc):
    (tmp_path / MANIFEST_FILE).write_bytes(doc)
    assert not verify_manifest(tmp_path)


def test_manifest_entry_outside_the_run_does_not_verify(tmp_path):
    run_dir = tmp_path / "run"
    run_dir.mkdir()
    outside = tmp_path / "outside.txt"
    outside.write_text("not an artifact of the run")
    for name in ("../outside.txt", str(outside)):
        # the hash matches, but the entry names a file the run does not own
        (run_dir / MANIFEST_FILE).write_text(json.dumps({"files": {name: _sha256(outside)}}))
        assert not verify_manifest(run_dir)


def test_manifest_never_lists_a_temporary(tmp_path):
    write_tensor_file(tmp_path / FRAMES_FILE, np.zeros((2, 3)))
    (tmp_path / f".{FRAMES_FILE}.1a2b3c4d{TEMP_SUFFIX}").write_bytes(b"VGOT")  # a killed write
    assert write_manifest(tmp_path) == {FRAMES_FILE: _sha256(tmp_path / FRAMES_FILE)}
    assert verify_manifest(tmp_path)


@pytest.mark.parametrize("size", [0, 1000, 3 * (1 << 20) + 5], ids=["empty", "small", "blocks"])
def test_sha256_hashes_the_whole_file(tmp_path, size):
    path = tmp_path / "blob"
    path.write_bytes(bytes(i % 251 for i in range(size)))
    assert _sha256(path) == hashlib.sha256(path.read_bytes()).hexdigest()


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
    assert doc["seed"] == 0 and doc["mode"] == "fifo-reset"
    # story.json records the input; cross-shot metrics pair consecutive shots
    assert "out_dir" not in doc and "user_input" not in doc and "pairing" not in doc
    # every field in field order and nothing more: the embedding width and the
    # identity channels are constants of the toy world, read but never written
    assert list(doc) == [f.name for f in fields(PipelineConfig)] and len(doc) == 14
    config = PipelineConfig.from_dict(doc)
    assert config.embed_dim == 16 and config.identity_channels == 4


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


def test_failed_rerun_leaves_no_manifest(tmp_path, monkeypatch):
    import multishot.pipeline as pipeline_module

    out = tmp_path / "rerun"
    run_pipeline(STORY_INPUT, PipelineConfig(), out)

    def broken(*args, **kwargs):
        raise RuntimeError("synthetic generation failure")

    monkeypatch.setattr(pipeline_module, "generate_timeline", broken)
    with pytest.raises(StageFailure):
        run_pipeline(STORY_INPUT, PipelineConfig(seed=1), out)
    assert (out / "failed" / "stage.txt").read_text().splitlines() == [
        "generate", "RuntimeError: synthetic generation failure"
    ]
    assert not (out / MANIFEST_FILE).exists()
    assert not verify_manifest(out)
    # nothing of the first run is left to be scored against the second's story
    for name in ("config.json", FRAMES_FILE, TIMELINE_FILE, REPORT_FILE):
        assert not (out / name).exists(), name
    assert cli(["metrics", "--run", str(out)]) != 0
    assert not (out / REPORT_FILE).exists()


_TINY = PipelineConfig(n_shots=2, frames_per_shot=2, steps=4)
#: The stage that writes each file of a run, by the first part of its path.
_STAGE_OF = {"story.json": "script", "keyframes": "keyframes", FRAMES_FILE: "generate",
             TIMELINE_FILE: "generate", "config.json": "generate", REPORT_FILE: "metrics",
             MANIFEST_FILE: "manifest"}


def _tiny_run_writes():
    """The first part of the path of each ``atomic_write`` of a tiny run,
    in order: counted, so the fault test follows the artifact list."""
    real, written = tensorio_module.atomic_write, []
    with pytest.MonkeyPatch.context() as patch, tempfile.TemporaryDirectory() as out:
        patch.setattr(tensorio_module, "atomic_write",
                      lambda path: written.append(Path(path)) or real(path))
        run_pipeline(STORY_INPUT, _TINY, out)
        return [path.relative_to(out).parts[0] for path in written]


_TINY_RUN_WRITES = _tiny_run_writes()


@pytest.mark.parametrize("fault", [OSError, KeyboardInterrupt])
@pytest.mark.parametrize("index", range(1, len(_TINY_RUN_WRITES) + 1))
def test_a_run_stopped_at_any_write_is_marked_with_its_stage(tmp_path, monkeypatch, index,
                                                             fault):
    # whichever write fails, and whether with an error or an interrupt, the
    # run leaves a marker naming the stage of that write: no manifest
    # vouches for it, metrics refuses it, and a clean rerun verifies
    stage = _STAGE_OF[_TINY_RUN_WRITES[index - 1]]
    real, count = tensorio_module.atomic_write, []

    def faulty(path):
        count.append(path)
        if len(count) == index:
            raise fault("synthetic write fault")
        return real(path)

    monkeypatch.setattr(tensorio_module, "atomic_write", faulty)
    out = tmp_path / "run"
    with pytest.raises(StageFailure if fault is OSError else fault) as excinfo:
        run_pipeline(STORY_INPUT, _TINY, out)
    monkeypatch.undo()
    if fault is OSError:
        assert excinfo.value.stage == stage
    marker = out / "failed" / "stage.txt"
    assert marker.read_text().splitlines() == [stage, f"{fault.__name__}: synthetic write fault"]
    assert not verify_manifest(out) and not (out / LOCK_FILE).exists()
    assert cli(["metrics", "--run", str(out)]) == 1
    run_pipeline(STORY_INPUT, _TINY, out)
    assert verify_manifest(out) and not marker.exists()


def test_rerun_clears_what_a_killed_run_left_and_nothing_else(tmp_path):
    out = tmp_path / "killed"
    run_pipeline(STORY_INPUT, PipelineConfig(), out)
    temps = [out / f".{FRAMES_FILE}.1a2b3c4d{TEMP_SUFFIX}",
             out / "keyframes" / f".shot_0000.vgt.5e6f7a8b{TEMP_SUFFIX}",
             out / f".config.json.9c0d1e2f{TEMP_SUFFIX}",
             out / f".{REPORT_FILE}.3a4b5c6d{TEMP_SUFFIX}"]
    for temp in temps:
        temp.write_bytes(b"VGOT")  # what a write killed outright leaves
    (out / "notes.txt").write_text("not written by a run")
    manifest = run_pipeline(STORY_INPUT, PipelineConfig(), out)
    assert not any(temp.exists() for temp in temps)
    assert (out / "notes.txt").read_text() == "not written by a run"
    assert "notes.txt" not in manifest
    assert verify_manifest(out)
    (out / "notes.txt").write_text("rewritten")
    assert verify_manifest(out)


def test_sampler_failure_mid_stream_leaves_no_frames(tmp_path, monkeypatch):
    # frames.vgt is open while the frames are sampled; a failure part-way
    # must leave neither a truncated file nor its temporary behind
    original = smoothing_module.generate_shot_clip

    def fails_on_shot_2(cond, shot, config):
        if shot == 2:
            raise RuntimeError("synthetic sampler failure")
        return original(cond, shot, config)

    monkeypatch.setattr(smoothing_module, "generate_shot_clip", fails_on_shot_2)
    out = tmp_path / "midstream"
    with pytest.raises(StageFailure):
        run_pipeline(STORY_INPUT, PipelineConfig(mode="windowed"), out)
    assert (out / "failed" / "stage.txt").read_text().splitlines() == [
        "generate", "RuntimeError: synthetic sampler failure"
    ]
    assert not (out / FRAMES_FILE).exists()
    assert not any(path.name.endswith(TEMP_SUFFIX) for path in out.rglob("*"))

    # the same from inside a frame that the worker thread samples, shot 2's
    # frame 1, and the worker has ended when the failure is reported
    monkeypatch.undo()
    config = PipelineConfig(mode="windowed")
    bad_seed = derive_seed("reverse-init", frame_seed(config.timeline_seed, 2, 1))

    def fails_on_worker_frame(denoiser, conds, schedule, rngs, shape, eta):
        if rngs[0].bit_generator.seed_seq.entropy == bad_seed:
            raise RuntimeError("synthetic worker failure")
        return sample_reverse(denoiser, conds, schedule, rngs, shape, eta)

    monkeypatch.setattr(clips_module, "sample_reverse", fails_on_worker_frame)
    out = tmp_path / "worker"
    threads = threading.active_count()
    with pytest.raises(StageFailure):
        run_pipeline(STORY_INPUT, config, out)
    assert threading.active_count() == threads
    assert (out / "failed" / "stage.txt").read_text().splitlines() == [
        "generate", "RuntimeError: synthetic worker failure"
    ]
    assert not (out / FRAMES_FILE).exists()
    assert not any(path.name.endswith(TEMP_SUFFIX) for path in out.rglob("*"))


@pytest.mark.parametrize(
    "knobs",
    [dict(mode="fifo-reset", eta=0.4, reset_boundary=2), dict(mode="windowed"),
     dict(mode="windowed", eta=0.4)],
    ids=["fifo-reset-eta-L2", "windowed", "windowed-eta"],
)
def test_streamed_frames_equal_the_collected_timeline(tmp_path, knobs):
    # and a second run of the config writes the same manifest
    config = PipelineConfig(n_shots=3, frames_per_shot=4, steps=10, seed=5, **knobs)
    story = build_story(STORY_INPUT, config)
    generate_run(story, config, tmp_path)
    generate_run(story, config, tmp_path / "again")
    manifests = [(path / MANIFEST_FILE).read_bytes() for path in (tmp_path, tmp_path / "again")]
    assert manifests[0] == manifests[1]
    frames = run_timeline(generate_timeline(story, render_keyframes(story, config), config))
    write_tensor_file(tmp_path / "collected.vgt", frames)
    assert (tmp_path / FRAMES_FILE).read_bytes() == (tmp_path / "collected.vgt").read_bytes()
    labels = [f["shot"] for f in json.loads((tmp_path / TIMELINE_FILE).read_text())["frames"]]
    assert labels == [f // 4 for f in range(len(frames))]


def test_generate_stage_never_holds_the_run_frames(tmp_path, monkeypatch):
    # 8 shots x 16 frames at 16x16x8: 2 MiB of float64 frames, far more
    # than one shot's clip and the stage's conditions and buffers
    import multishot.pipeline as pipeline_module

    config = PipelineConfig(n_shots=8, shots_per_avatar=4, frames_per_shot=16, steps=4,
                            height=16, width=16, channels=8, mode="windowed")
    story = build_story(STORY_INPUT, config)
    frames_bytes = 8 * config.n_shots * config.frames_per_shot * int(np.prod(config.latent_shape))
    original_generate = pipeline_module.generate_timeline
    original_metrics = pipeline_module.compute_metrics_for_run
    peaks = []

    def generate_from_here(*args, **kwargs):
        tracemalloc.reset_peak()  # the keyframes stage is over
        return original_generate(*args, **kwargs)

    def metrics_from_here(*args, **kwargs):
        peaks.append(tracemalloc.get_traced_memory()[1])  # the generate stage is over
        return original_metrics(*args, **kwargs)

    monkeypatch.setattr(pipeline_module, "generate_timeline", generate_from_here)
    monkeypatch.setattr(pipeline_module, "compute_metrics_for_run", metrics_from_here)
    tracemalloc.start()
    try:
        generate_run(story, config, tmp_path)
    finally:
        tracemalloc.stop()
    (peak,) = peaks
    assert (tmp_path / FRAMES_FILE).stat().st_size == 6 + 16 + frames_bytes // 2
    assert peak < frames_bytes / 2, f"peak {peak} B against {frames_bytes} B of frames"


def test_generate_run_from_a_run_story_writes_the_run_manifest(default_run, tmp_path):
    # the story's shot count overrides the config's, as for `multishot generate`
    out, manifest = default_run
    story = parse_story((out / "story.json").read_bytes())
    again = tmp_path / "again"
    assert generate_run(story, PipelineConfig(n_shots=7), again) == manifest
    assert (again / MANIFEST_FILE).read_bytes() == (out / MANIFEST_FILE).read_bytes()


def _blank_at(items, index, **change):
    return [replace(item, **change) if i == index else item for i, item in enumerate(items)]


@pytest.mark.parametrize(
    "blank,path",
    [(lambda s: dict(user_input=" \t"), "user_input"),
     (lambda s: dict(descriptions=_blank_at(s.descriptions, 1, text="  ")), r"shots\[1\]\.short"),
     (lambda s: dict(scripts=_blank_at(s.scripts, 0, camera="")), r"shots\[0\]\.script\.camera"),
     (lambda s: dict(avatars=_blank_at(s.avatars, 0,
                                       prompt=replace(s.avatars[0].prompt, hdr="\n"))),
      r"avatars\[0\]\.prompt\.hdr")],
    ids=["user_input", "short", "script", "avatar-prompt"],
)
def test_a_story_built_in_code_with_a_blank_text_runs_no_stage(default_run, tmp_path, blank, path):
    # parse_story refuses a blank text of a story file; a Story built in
    # code is refused as it is built, so generate_run writes nothing
    story = parse_story((default_run[0] / "story.json").read_bytes())
    out = tmp_path / "blank"
    with pytest.raises(ValidationError, match=f"^field {path} of story.json is blank$"):
        generate_run(replace(story, **blank(story)), PipelineConfig(), out)
    assert not out.exists()


def test_rerun_with_fewer_shots_drops_stale_keyframes(tmp_path):
    out = tmp_path / "shrinking"
    run_pipeline(STORY_INPUT, PipelineConfig(n_shots=4), out)
    manifest = run_pipeline(STORY_INPUT, PipelineConfig(n_shots=2), out)
    assert sorted(p.name for p in (out / "keyframes").iterdir()) == [
        "shot_0000.vgt", "shot_0001.vgt"
    ]
    assert sorted(name for name in manifest if name.startswith("keyframes/")) == [
        "keyframes/shot_0000.vgt", "keyframes/shot_0001.vgt"
    ]
    assert verify_manifest(out)


def test_windowed_mode_run(tmp_path):
    threads = threading.active_count()
    run_pipeline(STORY_INPUT, PipelineConfig(mode="windowed"), tmp_path / "windowed")
    assert threading.active_count() == threads  # every shot's worker has ended
    timeline = json.loads((tmp_path / "windowed" / TIMELINE_FILE).read_text())
    assert timeline["mode"] == "windowed"
    assert [f["shot"] for f in timeline["frames"]] == [j for j in range(4) for _ in range(8)]


def test_run_dir_self_contained_for_metrics(tmp_path):
    # metrics recomputed in a copied directory give the same bytes
    import shutil

    source = tmp_path / "src"
    run_pipeline(STORY_INPUT, PipelineConfig(seed=9), source)
    copy_dir = tmp_path / "copy"
    shutil.copytree(source, copy_dir)
    (copy_dir / REPORT_FILE).unlink()
    compute_metrics_for_run(copy_dir)
    assert (copy_dir / REPORT_FILE).read_bytes() == (source / REPORT_FILE).read_bytes()


def _finite_report(value) -> bool:
    if isinstance(value, dict):
        return all(_finite_report(v) for v in value.values())
    return value is None or math.isfinite(value)


@settings(max_examples=100, deadline=None)
@given(
    sigma0=st.floats(min_value=0.0, max_value=SCALE_LIMIT),
    ip_scale=st.floats(min_value=0.0, max_value=SCALE_LIMIT),
    steps=st.integers(min_value=1, max_value=4),
    mode=st.sampled_from(MODES),
)
def test_every_validated_scale_gives_finite_frames_and_report(sigma0, ip_scale, steps, mode):
    # any sigma0 and ip_scale validate accepts runs to the end with finite
    # frames and a finite report; warnings are errors, so no float overflows
    config = PipelineConfig(n_shots=2, frames_per_shot=2, steps=steps, mode=mode, height=2,
                            width=2, channels=5, sigma0=sigma0,
                            ip_scale=ip_scale)
    with tempfile.TemporaryDirectory() as out:
        run_pipeline(STORY_INPUT, config, out)
        assert np.isfinite(load_timeline(Path(out), config)).all()
        report = json.loads((Path(out) / REPORT_FILE).read_text())
    assert _finite_report(report)
