"""The command-line surface: subcommands, flags, exit codes."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from multishot.cli import cli
from multishot.pipeline import run_lock, verify_manifest
from multishot.script import parse_story

STORY_INPUT = "the life of a lighthouse keeper named Edda"


def test_run_writes_all_artifact_kinds(tmp_path, capsys):
    out = tmp_path / "run"
    code = cli(["run", "--input", STORY_INPUT, "--out", str(out)])
    assert code == 0
    for name in ("story.json", "config.json", "frames.vgt", "timeline.json",
                 "report.json", "manifest.json"):
        assert (out / name).exists(), name
    assert sorted(p.name for p in (out / "keyframes").iterdir()) == [
        f"shot_{i:04d}.vgt" for i in range(4)
    ]
    stdout = capsys.readouterr().out
    assert "FC(within)" in stdout and "run complete" in stdout


def test_script_subcommand_writes_parseable_story(tmp_path):
    target = tmp_path / "story.json"
    code = cli(["script", "--input", STORY_INPUT, "--shots", "3",
                "--llm", "mock", "--out", str(target)])
    assert code == 0
    story = parse_story(target.read_bytes())
    assert len(story.scripts) == 3


def test_keyframes_subcommand(tmp_path):
    story_path = tmp_path / "story.json"
    assert cli(["script", "--input", STORY_INPUT, "--out", str(story_path)]) == 0
    out = tmp_path / "kf"
    assert cli(["keyframes", "--story", str(story_path), "--out", str(out)]) == 0
    assert sorted(p.name for p in out.iterdir()) == [f"shot_{i:04d}.vgt" for i in range(4)]


def test_generate_modes_share_labels(tmp_path):
    story_path = tmp_path / "story.json"
    cli(["script", "--input", STORY_INPUT, "--out", str(story_path)])
    for mode in ("fifo-reset", "windowed"):
        code = cli(["generate", "--story", str(story_path), "--mode", mode,
                    "--frames-per-shot", "4", "--seed", "0",
                    "--out", str(tmp_path / mode)])
        assert code == 0
    load = lambda mode: json.loads((tmp_path / mode / "timeline.json").read_text())
    fifo, windowed = load("fifo-reset"), load("windowed")
    assert [f["shot"] for f in fifo["frames"]] == [f["shot"] for f in windowed["frames"]]
    assert fifo["mode"] == "fifo-reset" and windowed["mode"] == "windowed"


def test_generate_writes_verifiable_manifest(tmp_path):
    story_path = tmp_path / "story.json"
    assert cli(["script", "--input", STORY_INPUT, "--out", str(story_path)]) == 0
    out = tmp_path / "gen"
    assert cli(["generate", "--story", str(story_path), "--out", str(out)]) == 0
    assert (out / "manifest.json").exists()
    assert verify_manifest(out)


def test_generate_over_run_refreshes_manifest_and_drops_report(tmp_path):
    out = tmp_path / "run"
    assert cli(["run", "--input", STORY_INPUT, "--out", str(out)]) == 0
    assert cli(["generate", "--story", str(out / "story.json"), "--mode", "windowed",
                "--out", str(out)]) == 0
    assert not (out / "report.json").exists()
    assert verify_manifest(out)


def test_module_entry_point_runs_cli():
    root = Path(__file__).resolve().parent.parent
    env = dict(os.environ, PYTHONPATH=str(root / "src"))
    result = subprocess.run(
        [sys.executable, "-m", "multishot.cli", "run", "--help"],
        capture_output=True, text=True, env=env, cwd=root, timeout=60,
    )
    assert result.returncode == 0
    assert "usage: multishot run" in result.stdout


def test_metrics_single_shot_prints_null_cross(tmp_path, capsys):
    out = tmp_path / "one"
    assert cli(["run", "--input", STORY_INPUT, "--shots", "1", "--out", str(out)]) == 0
    capsys.readouterr()
    assert cli(["metrics", "--run", str(out)]) == 0
    stdout = capsys.readouterr().out
    assert "null" in stdout
    report = json.loads((out / "report.json").read_text())
    assert report["fc_cross"] is None and report["sc_cross"] is None


def test_metrics_reproduces_report_byte_identically(tmp_path):
    out = tmp_path / "rerun"
    cli(["run", "--input", STORY_INPUT, "--out", str(out)])
    original = (out / "report.json").read_bytes()
    (out / "report.json").unlink()
    assert cli(["metrics", "--run", str(out)]) == 0
    assert (out / "report.json").read_bytes() == original



def test_metrics_after_generate_records_report_in_manifest(tmp_path):
    out = tmp_path / "gen"
    assert cli(["script", "--input", STORY_INPUT, "--out", str(tmp_path / "story.json")]) == 0
    assert cli(["generate", "--story", str(tmp_path / "story.json"), "--out", str(out)]) == 0
    # a frame corrupted after generate must stay caught: only report.json is hashed anew
    original = (out / "frames.vgt").read_bytes()
    (out / "frames.vgt").write_bytes(original[:-1] + bytes([original[-1] ^ 0xFF]))
    assert cli(["metrics", "--run", str(out)]) == 0
    recorded = json.loads((out / "manifest.json").read_text())["files"]
    assert "report.json" in recorded
    assert not verify_manifest(out)
    (out / "frames.vgt").write_bytes(original)
    assert verify_manifest(out)
    with open(out / "report.json", "ab") as handle:
        handle.write(b" ")
    assert not verify_manifest(out)


def test_metrics_refuses_locked_run(tmp_path, capsys):
    # metrics holds the run lock: it leaves a directory another command owns alone
    out = tmp_path / "run"
    assert cli(["run", "--input", STORY_INPUT, "--shots", "2", "--frames-per-shot", "2",
                "--out", str(out)]) == 0
    (out / "report.json").write_bytes(b"stale report")
    manifest = (out / "manifest.json").read_bytes()
    capsys.readouterr()
    with run_lock(out):
        assert cli(["metrics", "--run", str(out)]) == 1
    assert "locked" in capsys.readouterr().err
    assert (out / "report.json").read_bytes() == b"stale report"
    assert (out / "manifest.json").read_bytes() == manifest


def _relabel(doc, shots):
    for entry, shot in zip(doc["frames"], shots, strict=True):
        entry["shot"] = shot


@pytest.mark.parametrize(
    "edit, path",
    [
        (lambda doc: doc.pop("frames"), "frames"),
        (lambda doc: doc["frames"][3].update(shot="1"), "frames[3].shot"),
        (lambda doc: doc.update(mode="sideways"), "mode"),
        (lambda doc: doc["frames"][2].update(global_frame=5), "frames[2].global_frame"),
        (lambda doc: doc["frames"][0].update(shot=-1), "frames[0].shot"),
        (lambda doc: _relabel(doc, [0, 0, 2, 2, 2, 2]), "frames[2].shot"),
        (lambda doc: _relabel(doc, [0, 1, 0, 1, 2, 2]), "frames[1].shot"),
        (lambda doc: _relabel(doc, [0, 0, 0, 1, 2, 2]), "frames[2].shot"),
    ],
    ids=["no-frames", "string-shot", "unknown-mode", "skipped-frame", "negative-shot",
         "skipped-shot", "backward-shot", "uneven-shots"],
)
def test_metrics_rejects_malformed_timeline(tmp_path, capsys, edit, path):
    out = tmp_path / "run"
    assert cli(["run", "--input", STORY_INPUT, "--shots", "3", "--frames-per-shot", "2",
                "--out", str(out)]) == 0
    doc = json.loads((out / "timeline.json").read_text())
    edit(doc)
    (out / "timeline.json").write_text(json.dumps(doc))
    capsys.readouterr()
    assert cli(["metrics", "--run", str(out)]) == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error:")
    assert path in err[0]

def test_unknown_flag_prints_usage_exit_one(capsys):
    code = cli(["generate", "--bogus-flag", "x"])
    assert code == 1
    err = capsys.readouterr().err
    assert "usage:" in err and "error:" in err


def test_unknown_subcommand_exits_one(capsys):
    assert cli(["transmogrify"]) == 1


def test_validation_error_exits_one(tmp_path, capsys):
    code = cli(["run", "--input", STORY_INPUT, "--shots", "0",
                "--out", str(tmp_path / "bad")])
    assert code == 1
    assert "error:" in capsys.readouterr().err


def test_http_without_endpoint_exits_one(tmp_path, capsys):
    code = cli(["script", "--input", STORY_INPUT, "--llm", "http",
                "--out", str(tmp_path / "s.json")])
    assert code == 1


def test_io_error_exits_two(tmp_path, capsys):
    blocker = tmp_path / "file_not_dir"
    blocker.write_text("x")
    code = cli(["run", "--input", STORY_INPUT, "--out", str(blocker)])
    assert code == 2


def test_config_file_precedence(tmp_path):
    config_path = tmp_path / "cfg.json"
    config_path.write_text(json.dumps({"n_shots": 2, "frames_per_shot": 2, "seed": 5}))
    out = tmp_path / "cfgrun"
    code = cli(["run", "--input", STORY_INPUT, "--config", str(config_path),
                "--seed", "9", "--out", str(out)])
    assert code == 0
    effective = json.loads((out / "config.json").read_text())
    assert effective["n_shots"] == 2        # from file
    assert effective["seed"] == 9           # flag wins over file
    frames = json.loads((out / "timeline.json").read_text())["frames"]
    assert len(frames) == 4  # 2 shots x 2 frames
