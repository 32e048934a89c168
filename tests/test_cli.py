"""The command-line surface: subcommands, flags, exit codes."""

import argparse
import json
import os
import re
import shutil
import subprocess
import sys
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest

import multishot.pipeline
from multishot.cli import _build_parser, cli
from multishot.config import PipelineConfig
from multishot.errors import ParseError
from multishot.pipeline import make_llm, run_lock, verify_manifest
from multishot.script import HttpLlmClient, MockLlmClient, parse_story
from multishot.tensorio import read_tensor_file, write_tensor_file

STORY_INPUT = "the life of a lighthouse keeper named Edda"
FIELDS = {f.name for f in fields(PipelineConfig)}


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
    # a rerun for fewer shots into the same directory deletes the stale keyframes
    assert cli(["script", "--input", STORY_INPUT, "--shots", "2", "--out", str(story_path)]) == 0
    assert cli(["keyframes", "--story", str(story_path), "--out", str(out)]) == 0
    assert sorted(p.name for p in out.iterdir()) == [f"shot_{i:04d}.vgt" for i in range(2)]


def test_keyframes_refuses_a_story_with_no_shots(tmp_path, capsys):
    # rendering no keyframe would delete every keyframe already in the
    # directory; the story is refused as it is read, and they stay
    story_path = tmp_path / "story.json"
    assert cli(["script", "--input", STORY_INPUT, "--shots", "2", "--out", str(story_path)]) == 0
    out = tmp_path / "kf"
    assert cli(["keyframes", "--story", str(story_path), "--out", str(out)]) == 0
    before = {p.name: p.read_bytes() for p in out.iterdir()}
    doc = json.loads(story_path.read_text())
    doc["shots"] = []
    story_path.write_text(json.dumps(doc))
    capsys.readouterr()
    assert cli(["keyframes", "--story", str(story_path), "--out", str(out)]) == 1
    assert {p.name: p.read_bytes() for p in out.iterdir()} == before
    # generate names the story, not a config field the user never set
    assert cli(["generate", "--story", str(story_path), "--out", str(tmp_path / "run")]) == 1
    err = capsys.readouterr().err
    assert err.count("error: a story needs at least one shot") == 2 and "n_shots" not in err


@pytest.mark.parametrize(
    "path",
    ["shots[1].short", "shots[0].script.camera", "avatars[0].prompt.hdr"],
    ids=["short", "script-domain", "avatar-domain"],
)
def test_generate_refuses_a_blank_story_text_before_any_stage(tmp_path, capsys, path):
    story_path = tmp_path / "story.json"
    assert cli(["script", "--input", STORY_INPUT, "--shots", "2", "--out", str(story_path)]) == 0
    doc = json.loads(story_path.read_text())
    *parents, key = path.replace("[", ".").replace("]", "").split(".")
    node = doc
    for name in parents:
        node = node[int(name) if name.isdigit() else name]
    node[key] = "  "
    story_path.write_text(json.dumps(doc))
    with pytest.raises(ParseError, match=re.escape(f"field {path} is blank")):
        parse_story(story_path.read_bytes())
    capsys.readouterr()
    out = tmp_path / "run"
    assert cli(["generate", "--story", str(story_path), "--out", str(out)]) == 1
    assert f"field {path} is blank" in capsys.readouterr().err
    assert not out.exists()


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


def test_generate_over_run_refreshes_manifest_and_report(tmp_path):
    out = tmp_path / "run"
    assert cli(["run", "--input", STORY_INPUT, "--out", str(out)]) == 0
    fifo_report = (out / "report.json").read_bytes()
    assert cli(["generate", "--story", str(out / "story.json"), "--mode", "windowed",
                "--out", str(out)]) == 0
    # generate ends as run does: the report of the new frames, in the manifest
    assert (out / "report.json").read_bytes() != fifo_report
    assert cli(["metrics", "--run", str(out), "--report", str(tmp_path / "fresh.json")]) == 0
    assert (out / "report.json").read_bytes() == (tmp_path / "fresh.json").read_bytes()
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



def test_metrics_never_rewrites_the_manifest(tmp_path):
    out = tmp_path / "gen"
    assert cli(["script", "--input", STORY_INPUT, "--shots", "2",
                "--out", str(tmp_path / "story.json")]) == 0
    assert cli(["generate", "--story", str(tmp_path / "story.json"), "--frames-per-shot", "2",
                "--out", str(out)]) == 0
    manifest = (out / "manifest.json").read_bytes()
    assert cli(["metrics", "--run", str(out)]) == 0
    assert (out / "manifest.json").read_bytes() == manifest
    assert verify_manifest(out)

    # a report scored from other frames stays caught after the frames are
    # restored, until metrics scores the run's own frames again
    original = (out / "frames.vgt").read_bytes()
    frames = read_tensor_file(out / "frames.vgt")
    frames[..., :PipelineConfig().identity_channels] += 3.0
    write_tensor_file(out / "frames.vgt", frames)
    assert cli(["metrics", "--run", str(out)]) == 0
    (out / "frames.vgt").write_bytes(original)
    assert not verify_manifest(out)
    assert cli(["metrics", "--run", str(out)]) == 0
    assert (out / "manifest.json").read_bytes() == manifest
    assert verify_manifest(out)

    # a report under another name leaves the run's report and manifest alone
    report = (out / "report.json").read_bytes()
    assert cli(["metrics", "--run", str(out), "--report", str(out / "other.json")]) == 0
    assert (out / "report.json").read_bytes() == report
    assert (out / "manifest.json").read_bytes() == manifest
    assert verify_manifest(out)
    # a report.json written behind the manifest's back is caught
    with open(out / "report.json", "ab") as handle:
        handle.write(b" ")
    assert not verify_manifest(out)


def test_metrics_refuses_a_report_path_that_is_another_run_file(tmp_path, capsys):
    # a report written over the manifest or the frames would leave the run
    # a second writer of that file; the path is refused before anything runs
    out = tmp_path / "run"
    assert cli(["run", "--input", STORY_INPUT, "--shots", "1", "--frames-per-shot", "2",
                "--out", str(out)]) == 0
    files = {path: path.read_bytes() for path in out.rglob("*") if path.is_file()}
    capsys.readouterr()
    for name in ("manifest.json", "frames.vgt", "keyframes/shot_0000.vgt", ".lock"):
        assert cli(["metrics", "--run", str(out), "--report", str(out / name)]) == 1
        assert "the run's own" in capsys.readouterr().err
    # a path that only reaches the file through another spelling is refused too
    spelled = out / "keyframes" / ".." / "story.json"
    assert cli(["metrics", "--run", str(out), "--report", str(spelled)]) == 1
    assert {path: path.read_bytes() for path in out.rglob("*") if path.is_file()} == files
    assert verify_manifest(out)
    assert cli(["metrics", "--run", str(out), "--report", str(tmp_path / "other.json")]) == 0
    assert (tmp_path / "other.json").read_bytes() == files[out / "report.json"]
    assert cli(["metrics", "--run", str(out), "--report", str(out / "report.json")]) == 0
    assert verify_manifest(out)


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


def test_keyframes_refuses_a_symlink_to_a_finished_runs_keyframes(tmp_path, capsys):
    # a link to run/keyframes names the same directory as run/keyframes, so
    # a 1-shot story written through it would delete shot_0001.vgt behind
    # the run's manifest
    out = tmp_path / "run"
    assert cli(["run", "--input", STORY_INPUT, "--shots", "2", "--frames-per-shot", "2",
                "--out", str(out)]) == 0
    story_path = tmp_path / "small.json"
    assert cli(["script", "--input", STORY_INPUT, "--shots", "1", "--out", str(story_path)]) == 0
    link = tmp_path / "kf"
    link.symlink_to(out / "keyframes", target_is_directory=True)
    keyframes = {p.name: p.read_bytes() for p in (out / "keyframes").iterdir()}
    capsys.readouterr()
    assert cli(["keyframes", "--story", str(story_path), "--out", str(link)]) == 1
    assert "finished run" in capsys.readouterr().err
    assert verify_manifest(out)
    assert {p.name: p.read_bytes() for p in (out / "keyframes").iterdir()} == keyframes


@pytest.fixture(scope="module")
def finished_runs(tmp_path_factory):
    """Two finished 1-shot runs, A and B, and a story file beside them."""
    root = tmp_path_factory.mktemp("finished")
    for name in ("A", "B"):
        assert cli(["run", "--input", STORY_INPUT, "--shots", "1", "--frames-per-shot", "2",
                    "--out", str(root / name)]) == 0
    assert cli(["script", "--input", STORY_INPUT, "--shots", "1",
                "--out", str(root / "story.json")]) == 0
    return root


def _files(folder):
    return {p.relative_to(folder).as_posix(): p.read_bytes()
            for p in folder.rglob("*") if p.is_file()}


#: Each writing command by the target it takes, and the name it writes in a
#: run directory.
_WRITERS = {
    "script": (lambda runs, out: ["script", "--input", STORY_INPUT, "--shots", "1",
                                  "--out", out], "story.json"),
    "keyframes": (lambda runs, out: ["keyframes", "--story", str(runs / "story.json"),
                                     "--out", out], "keyframes"),
    "metrics": (lambda runs, out: ["metrics", "--run", str(runs / "A"), "--report", out],
                "report.json"),
}


@pytest.mark.parametrize("target", ["B/story.json", "B/config.json", "B/report.json",
                                    "B/manifest.json", "B/keyframes", "symlink", "file-link",
                                    "locked", "unfinished", "plain"])
@pytest.mark.parametrize("command", sorted(_WRITERS))
def test_every_writing_command_keeps_the_run_directory_rule(
        finished_runs, tmp_path, capsys, command, target):
    # script --out, keyframes --out and metrics --report share one rule: a
    # finished run's files, a manifest and a locked run's files are refused,
    # however the path is spelled, and any other run directory is written
    # under its lock. A symlink to a file is refused wherever it points: the
    # write would replace the link, not the file the lock guards
    argv, name = _WRITERS[command]
    run_b = finished_runs / "B"
    before = _files(run_b)
    folder = tmp_path / target
    if target.startswith("B/"):
        out = run_b / target[2:]
    elif target == "symlink":  # a link elsewhere that names B's file
        out = tmp_path / f"link-{name}"
        out.symlink_to(run_b / name, target_is_directory=name == "keyframes")
    elif target == "file-link":  # a link elsewhere that names a plain directory's file
        folder.mkdir()
        (folder / name).write_bytes(b"not a run's file")
        out = tmp_path / f"link-{name}"
        out.symlink_to(folder / name)
    else:
        if target == "unfinished":
            shutil.copytree(run_b, folder)
            (folder / "manifest.json").unlink()
        else:
            folder.mkdir()
        if target == "locked":
            (folder / ".lock").touch()
        out = folder / name
    code = cli(argv(finished_runs, str(out)))
    captured = capsys.readouterr()
    if target in ("unfinished", "plain"):
        assert code == 0, captured.err
        assert f"{out}" in captured.out
        assert out.exists() and not (folder / ".lock").exists()
        return
    assert code == 1, captured.err
    message = {"B/manifest.json": "the run's own manifest.json", "file-link": "is a symlink",
               "locked": "run directory is locked"}.get(target, "finished run")
    assert message in captured.err
    if target == "file-link":
        assert out.is_symlink() and out.readlink() == folder / name
        assert _files(folder) == {name: b"not a run's file"}
    if target == "locked":
        assert sorted(p.name for p in folder.iterdir()) == [".lock"]
    assert _files(run_b) == before
    assert verify_manifest(run_b)


@pytest.mark.parametrize("case", ["run", "report", "script"])
def test_a_missing_directory_is_named_as_given(finished_runs, tmp_path, capsys, case):
    # the error names the user's directory, not the lock or the temporary
    # file a command would have made inside it
    missing = tmp_path / "nope"
    argv = {"run": ["metrics", "--run", str(missing)],
            "report": ["metrics", "--run", str(finished_runs / "A"),
                       "--report", str(missing / "r.json")],
            "script": ["script", "--input", STORY_INPUT, "--out", str(missing / "story.json")]}
    assert cli(argv[case]) == 2
    err = capsys.readouterr().err
    assert f"no such directory: {missing}" in err
    assert ".lock" not in err and ".partial" not in err


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
    # nothing of the first run is left to be scored against the new story
    for name in ("config.json", "frames.vgt", "timeline.json", "report.json"):
        assert not (out / name).exists(), name
    capsys.readouterr()
    # metrics names the failed stage: a state error, not a missing file
    assert cli(["metrics", "--run", str(out)]) == 1
    err = capsys.readouterr().err
    assert "generate" in err and "RuntimeError: synthetic generation failure" in err
    assert not (out / "report.json").exists()


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

    # every config flag of run lands in config.json, over the file's value
    flags = {"n_shots": ("--shots", 1), "frames_per_shot": ("--frames-per-shot", 3),
             "mode": ("--mode", "windowed"), "seed": ("--seed", 4)}
    assert set(flags) == _config_dests("run")
    argv = [arg for flag, value in flags.values() for arg in (flag, str(value))]
    out = tmp_path / "flagrun"
    assert cli(["run", "--input", STORY_INPUT, "--config", str(config_path), *argv,
                "--out", str(out)]) == 0
    effective = json.loads((out / "config.json").read_text())
    assert {name: effective[name] for name in flags} == {
        name: value for name, (_, value) in flags.items()}


def test_every_config_flag_of_script_reaches_the_story(tmp_path, monkeypatch):
    endpoints = []

    class Client(MockLlmClient):  # stands in for the HTTP client, sends nothing
        def __init__(self, endpoint):
            endpoints.append(endpoint)

    monkeypatch.setattr(multishot.pipeline, "HttpLlmClient", Client)
    config_path = tmp_path / "cfg.json"
    config_path.write_text(json.dumps({"n_shots": 2, "shots_per_avatar": 1, "seed": 5}))
    flags = {"n_shots": ("--shots", 3), "shots_per_avatar": ("--shots-per-avatar", 3),
             "seed": ("--seed", 4), "llm_endpoint": ("--llm-endpoint", "http://llm.invalid")}
    assert set(flags) == _config_dests("script")
    argv = [arg for flag, value in flags.values() for arg in (flag, str(value))]
    target = tmp_path / "story.json"
    assert cli(["script", "--input", STORY_INPUT, "--config", str(config_path), *argv,
                "--out", str(target)]) == 0
    story = parse_story(target.read_bytes())
    assert len(story.scripts) == 3 and [a.id for a in story.avatars] == ["avatar_00"]
    assert story.avatars[0].seed == PipelineConfig(seed=4).avatar_seed("avatar_00")
    assert endpoints == ["http://llm.invalid"]


def _subparsers():
    [action] = [a for a in _build_parser()._actions if isinstance(a, argparse._SubParsersAction)]
    return action.choices


def _config_dests(command) -> set:
    return {a.dest for a in _subparsers()[command]._actions} & FIELDS


def test_every_flag_sets_a_config_field_by_name():
    # a flag is read into the config by its dest alone, so a dest that is
    # neither a field nor a command's own argument would be dropped
    own = {"input", "out", "story", "config", "run", "report", "help"}
    commands = _subparsers()
    assert sorted(commands) == ["generate", "keyframes", "metrics", "run", "script"]
    for command, parser in commands.items():
        for action in parser._actions:
            assert action.dest in FIELDS | own, f"{command} {action.option_strings}"


def test_generate_renders_portraits_from_the_run_seed(tmp_path):
    # story.json's avatar seeds are not read: a story written at another
    # root seed gives the keyframes of the run's own seed
    stories, keyframes = [], []
    for written in (0, 7):
        story = tmp_path / f"story_{written}.json"
        assert cli(["script", "--input", STORY_INPUT, "--shots", "2", "--seed", str(written),
                    "--out", str(story)]) == 0
        out = tmp_path / f"run_{written}"
        assert cli(["generate", "--story", str(story), "--frames-per-shot", "1", "--seed", "7",
                    "--out", str(out)]) == 0
        stories.append(story.read_bytes())
        keyframes.append([p.read_bytes() for p in sorted((out / "keyframes").iterdir())])
    assert stories[0] != stories[1]  # the avatar seeds the stories record differ
    assert len(keyframes[0]) == 2 and keyframes[0] == keyframes[1]


@pytest.mark.parametrize(
    "argv,what",
    [(["generate", "--story", "deep.json", "--out", "run"], "the story document"),
     (["run", "--input", STORY_INPUT, "--config", "deep.json"], "the config document")],
    ids=["story", "config"],
)
def test_deeply_nested_json_exits_one(tmp_path, monkeypatch, capsys, argv, what):
    # json.loads raises RecursionError on it, which read_json turns into its ParseError
    monkeypatch.chdir(tmp_path)
    (tmp_path / "deep.json").write_text("[" * 100_000)
    assert cli(argv) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {what} is not valid JSON: ") and err.count("\n") == 1
    assert [p.name for p in tmp_path.iterdir()] == ["deep.json"]
