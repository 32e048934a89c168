"""The command-line surface: subcommands, flags, exit codes."""

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from multishot.cli import cli
from multishot.config import PipelineConfig
from multishot.pipeline import make_llm, run_lock, verify_manifest
from multishot.script import HttpLlmClient, MockLlmClient, parse_story
from multishot.tensorio import read_tensor_file, write_tensor_file

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
    code = cli(["script", "--input", STORY_INPUT, "--shots", "3", "--out", str(target)])
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
    # the story, config.json and frames.vgt are the whole input of metrics
    (out / "timeline.json").unlink()
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


@pytest.mark.parametrize("case", ["finished", "locked", "other-name"])
def test_keyframes_refuses_run_directory(tmp_path, capsys, case):
    # keyframes into a run's keyframes/ would rewrite a finished run's files
    # behind its manifest, or race the command that holds its lock; only a
    # directory named keyframes/ is a run's, so another name beside the
    # same manifest.json is written as given
    out = tmp_path / "run"
    assert cli(["run", "--input", STORY_INPUT, "--shots", "2", "--frames-per-shot", "2",
                "--out", str(out)]) == 0
    story_path = tmp_path / "s3.json"
    assert cli(["script", "--input", STORY_INPUT, "--shots", "3", "--out", str(story_path)]) == 0
    files = lambda: {p.relative_to(out).as_posix(): p.read_bytes()
                     for p in out.rglob("*") if p.is_file()}
    before = files()
    capsys.readouterr()
    args = lambda name: ["keyframes", "--story", str(story_path), "--seed", "9",
                         "--out", str(out / name)]
    if case == "locked":
        (out / "manifest.json").unlink()
        del before["manifest.json"]
        with run_lock(out):
            assert cli(args("keyframes")) == 1
        assert "run directory is locked" in capsys.readouterr().err
    elif case == "finished":
        assert cli(args("keyframes")) == 1
        assert "finished run" in capsys.readouterr().err
        assert verify_manifest(out)
    else:
        assert cli(args("kf")) == 0
        written = files()
        assert sorted(name for name in written if name.startswith("kf/")) == [
            f"kf/shot_{j:04d}.vgt" for j in range(3)]
        before.update((name, written[name]) for name in written if name.startswith("kf/"))
    assert files() == before


def _wrong_shape(frames):
    return frames[:, :4]


def _nan_from_frame_3(frames):
    frames[3:, 0, 0, 0] = np.nan
    return frames


def _one_frame_too_few(frames):
    return frames[:-1]


@pytest.mark.parametrize(
    "edit, message",
    [
        (_wrong_shape, "frames of shape (4, 8, 8), config.json gives (8, 8, 8)"),
        (_nan_from_frame_3, "frame 3 holds non-finite values"),
        (_one_frame_too_few, "frames.vgt holds 5 frames, config.json gives 6"),
    ],
    ids=["latent-shape", "non-finite", "frame-count"],
)
def test_metrics_rejects_frames_the_config_did_not_make(tmp_path, capsys, edit, message):
    out = tmp_path / "run"
    assert cli(["run", "--input", STORY_INPUT, "--shots", "3", "--frames-per-shot", "2",
                "--out", str(out)]) == 0
    write_tensor_file(out / "frames.vgt", edit(read_tensor_file(out / "frames.vgt")))
    (out / "report.json").unlink()
    capsys.readouterr()
    assert cli(["metrics", "--run", str(out)]) == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error:") and message in err[0]
    assert not (out / "report.json").exists()


@pytest.mark.parametrize("doc", [b"[]", b"{not json"], ids=["list", "invalid-json"])
def test_metrics_rejects_a_malformed_manifest_before_writing_the_report(tmp_path, capsys, doc):
    out = tmp_path / "run"
    assert cli(["run", "--input", STORY_INPUT, "--shots", "2", "--frames-per-shot", "2",
                "--out", str(out)]) == 0
    (out / "manifest.json").write_bytes(doc)
    (out / "report.json").unlink()
    capsys.readouterr()
    assert cli(["metrics", "--run", str(out)]) == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: manifest.json ")
    assert not (out / "report.json").exists()
    assert (out / "manifest.json").read_bytes() == doc


def test_failed_generate_over_run_leaves_no_manifest(tmp_path, monkeypatch, capsys):
    import multishot.pipeline as pipeline_module

    out = tmp_path / "run"
    assert cli(["run", "--input", STORY_INPUT, "--out", str(out)]) == 0

    def broken(*args, **kwargs):
        raise RuntimeError("synthetic generation failure")

    monkeypatch.setattr(pipeline_module, "generate_timeline", broken)
    assert cli(["generate", "--story", str(out / "story.json"), "--out", str(out)]) == 1
    assert (out / "failed" / "stage.txt").read_text().splitlines()[0] == "generate"
    assert not (out / "manifest.json").exists()

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


@pytest.mark.parametrize(
    "doc,field",
    [({"n_shots": "4"}, "n_shots"), ({"eta": "0"}, "eta"), ({"sigma0": None}, "sigma0"),
     ({"seed": "abc"}, "seed"), ({"n_shots": True}, "n_shots"), ({"n_shots": 2.5}, "n_shots"),
     ({"steps": 3.0}, "steps"), ({"out_dir": 5}, "out_dir")],
    ids=["str-int", "str-float", "null-float", "str-seed", "bool-int", "float-int",
         "integral-float-int", "int-out-dir"],
)
def test_wrongly_typed_config_value_exits_one_naming_it(tmp_path, monkeypatch, capsys,
                                                        doc, field):
    # no --out, so a config's out_dir is the run directory; nothing may run
    monkeypatch.chdir(tmp_path)
    (tmp_path / "c.json").write_text(json.dumps(doc))
    assert cli(["run", "--input", STORY_INPUT, "--config", "c.json"]) == 1
    err = capsys.readouterr().err
    assert "Traceback" not in err
    assert err.startswith(f"error: {field} must be ") and err.count("\n") == 1
    assert not (tmp_path / "run").exists()


def test_llm_endpoint_picks_the_client():
    # building the HTTP client sends nothing; only complete() posts
    client = make_llm(PipelineConfig(llm_endpoint="http://llm.invalid/v1/complete"))
    assert isinstance(client, HttpLlmClient)
    assert client.endpoint == "http://llm.invalid/v1/complete"
    client.session.close()
    assert isinstance(make_llm(PipelineConfig()), MockLlmClient)


@pytest.mark.parametrize(
    "argv",
    [["script", "--llm", "mock"], ["script", "--llm", "http"],
     ["script", "--llm-end", "http://llm.invalid"], ["run", "--frames", "2"]],
    ids=["removed-llm-mock", "removed-llm-http", "abbreviated-endpoint", "abbreviated-frames"],
)
def test_removed_or_abbreviated_flag_is_a_usage_error(tmp_path, monkeypatch, capsys, argv):
    # flags match only in full, so no flag is read as a longer one it begins
    monkeypatch.chdir(tmp_path)
    assert cli(argv[:1] + ["--input", STORY_INPUT] + argv[1:]) == 1
    err = capsys.readouterr().err
    assert err.startswith("usage: multishot ")
    assert f"error: unrecognized arguments: {' '.join(argv[1:])}" in err
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize(
    "doc,field",
    [('{"llm": "http"}', "unknown config keys: ['llm']"), ('{"sigma0": NaN}', "sigma0"),
     ('{"ip_scale": Infinity}', "ip_scale"),
     # finite, but past the bound beyond which a run's floats overflow
     ('{"sigma0": 1e308}', "sigma0"), ('{"ip_scale": 1e308}', "ip_scale"),
     ('{"ip_scale": 1e20}', "ip_scale")],
    ids=["llm-http", "nan-sigma0", "inf-ip-scale", "huge-sigma0", "huge-ip-scale",
         "overflowing-ip-scale"],
)
def test_config_error_leaves_a_finished_run_untouched(tmp_path, capsys, doc, field):
    out = tmp_path / "run"
    assert cli(["run", "--input", STORY_INPUT, "--shots", "2", "--frames-per-shot", "2",
                "--out", str(out)]) == 0
    files = {p: p.read_bytes() for p in out.rglob("*") if p.is_file()}
    (tmp_path / "c.json").write_text(doc)
    capsys.readouterr()
    assert cli(["run", "--input", STORY_INPUT, "--config", str(tmp_path / "c.json"),
                "--out", str(out)]) == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith(f"error: {field}")
    assert verify_manifest(out)
    assert not (out / "failed").exists()
    assert {p: p.read_bytes() for p in out.rglob("*") if p.is_file()} == files


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
