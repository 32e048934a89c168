"""End-to-end orchestration and run-directory persistence.

A run executes script -> casting -> generation -> metrics in order and
leaves a self-contained directory behind:

    story.json      canonical story document
    config.json     effective behavioral config (plus the user input)
    keyframes/      one .vgt tensor per shot
    frames.vgt      all emitted frames, stacked (F, h, w, d)
    timeline.json   per-frame {global_frame, shot} labels and the mode
    report.json     metrics report
    manifest.json   sha256 of every artifact above

Runs are deterministic: equal (user_input, config) produce byte-identical
artifacts, so manifests can be compared across machines and reruns. The
metrics stage always recomputes from the persisted float32 frames, which is
why deleting report.json and rerunning only the metrics stage reproduces it
byte-identically.
"""

from __future__ import annotations

import contextlib
import hashlib
import json
import shutil
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Tuple

import numpy as np

from .casting import derive_avatars, generate_keyframe, render_avatar
from .config import MODES, PipelineConfig, config_from_json, config_to_json
from .errors import ConfigError, ParseError, StageFailure, StateError, ValidationError
from .metrics import MetricsReport, build_report
from .script import (
    HttpLlmClient,
    MockLlmClient,
    Story,
    expand_story,
    generate_script_sequence,
    parse_story,
    require_field,
    serialize_story,
)
from .seeds import derive_seed
from .smoothing import DenoiseTrace, VideoTimeline, run_timeline
from .tensorio import read_tensor_file, write_tensor_file

STORY_FILE = "story.json"
CONFIG_FILE = "config.json"
FRAMES_FILE = "frames.vgt"
TIMELINE_FILE = "timeline.json"
REPORT_FILE = "report.json"
MANIFEST_FILE = "manifest.json"
KEYFRAME_DIR = "keyframes"
LOCK_FILE = ".lock"
FAILED_DIR = "failed"


@dataclass
class RunArtifacts:
    """Paths and content hashes of everything a run produced."""

    run_dir: Path
    story_path: Path
    config_path: Path
    keyframe_paths: List[Path]
    frames_path: Path
    timeline_path: Path
    report_path: Path
    manifest_path: Path
    manifest: Dict[str, str] = field(default_factory=dict)


def make_llm(config: PipelineConfig):
    if config.llm == "mock":
        return MockLlmClient()
    if not config.llm_endpoint:
        raise ConfigError("llm='http' requires llm_endpoint")
    return HttpLlmClient(config.llm_endpoint)


def build_story(user_input: str, config: PipelineConfig, llm=None) -> Story:
    """Script stage: expansion, avatar roster, five-domain scripts."""
    llm = llm or make_llm(config)
    descriptions = expand_story(user_input, config.n_shots, llm)
    avatars, assignment = derive_avatars(
        descriptions, llm, config.shots_per_avatar, seed=config.seed
    )
    scripts = generate_script_sequence(descriptions, llm, assignment=assignment)
    return Story(user_input.strip(), descriptions, scripts, avatars)


def render_keyframes(story: Story, config: PipelineConfig) -> List[np.ndarray]:
    """Casting stage: render every avatar's identity embedding, then one
    keyframe latent per shot, keyframe j for shot j."""
    identities = {avatar.id: render_avatar(avatar, config) for avatar in story.avatars}
    return [
        generate_keyframe(
            script, identities[script.avatar_id], config, derive_seed("keyframe", config.seed, j)
        )
        for j, script in enumerate(story.scripts)
    ]


def generate_timeline(
    story: Story,
    keyframes: List[np.ndarray],
    config: PipelineConfig,
    trace: Optional[DenoiseTrace] = None,
) -> VideoTimeline:
    """Generation stage: windowed clips or the fifo-reset queue."""
    return run_timeline(story, keyframes, config, derive_seed("timeline", config.seed), trace=trace)


# --------------------------------------------------------------------------
# Persistence.


def _write_json(path: Path, payload) -> None:
    path.write_bytes((json.dumps(payload, indent=2, ensure_ascii=False) + "\n").encode("utf-8"))


def write_timeline_json(path: Path, timeline: VideoTimeline) -> None:
    labels = [j for j, clip in enumerate(timeline.clips) for _ in clip]
    payload = {
        "mode": timeline.mode,
        "frames": [{"global_frame": f, "shot": j} for f, j in enumerate(labels)],
    }
    _write_json(path, payload)


def load_timeline(run_dir: Path, config: PipelineConfig) -> VideoTimeline:
    """Frames of a run made with ``config``, k per shot; a malformed
    timeline.json fails with the JSON path of the bad entry. It must list
    n_shots * frames_per_shot frames, and frame f belongs to shot f // k."""
    try:
        doc = json.loads((run_dir / TIMELINE_FILE).read_text(encoding="utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise ParseError(f"timeline document is not valid UTF-8 JSON: {exc}") from exc
    mode = require_field(doc, "mode", str, "")
    if mode not in MODES:
        raise ValidationError(f"field mode must be one of {MODES}, got '{mode}'")
    entries = require_field(doc, "frames", list, "")
    k = config.frames_per_shot
    total = config.n_shots * k
    if len(entries) != total:
        raise ValidationError(f"field frames must list {total} frames, got {len(entries)}")
    for i, entry in enumerate(entries):
        path = f"frames[{i}]"
        if require_field(entry, "global_frame", int, path) != i:
            raise ValidationError(f"field {path}.global_frame must equal its position {i}")
        shot = require_field(entry, "shot", int, path)
        if shot != i // k:
            raise ValidationError(f"field {path}.shot must be {i // k}, got {shot}")
    stacked = read_tensor_file(run_dir / FRAMES_FILE)
    if stacked.shape[0] != total:
        raise ValidationError(f"frames.vgt holds {stacked.shape[0]} frames, timeline lists {total}")
    clips = [list(stacked[j * k : (j + 1) * k]) for j in range(config.n_shots)]
    return VideoTimeline(clips=clips, mode=mode)


def write_report(path: Path, report: MetricsReport) -> None:
    _write_json(path, report.to_dict())


def read_report(path) -> MetricsReport:
    return MetricsReport(**json.loads(Path(path).read_text(encoding="utf-8")))


def write_keyframes(keyframes: List[np.ndarray], out_dir: Path) -> List[Path]:
    """Write keyframe j to shot_{j:04d}.vgt and delete every other
    shot_*.vgt in out_dir, so a rerun into the directory of a larger run
    leaves no keyframe of a shot the story no longer has."""
    out_dir.mkdir(parents=True, exist_ok=True)
    paths = [out_dir / f"shot_{j:04d}.vgt" for j in range(len(keyframes))]
    for stale in set(out_dir.glob("shot_*.vgt")) - set(paths):
        stale.unlink()
    for keyframe, path in zip(keyframes, paths):
        write_tensor_file(path, keyframe)
    return paths


def _sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def write_manifest(run_dir: Path) -> Dict[str, str]:
    """Hash every artifact (everything except the manifest and lock)."""
    entries = {}
    for path in sorted(run_dir.rglob("*")):
        if path.is_dir() or path.name in (MANIFEST_FILE, LOCK_FILE):
            continue
        if FAILED_DIR in path.relative_to(run_dir).parts:
            continue
        entries[path.relative_to(run_dir).as_posix()] = _sha256(path)
    _write_json(run_dir / MANIFEST_FILE, {"files": dict(sorted(entries.items()))})
    return entries


def verify_manifest(run_dir: Path) -> bool:
    """True when every artifact still matches its recorded hash."""
    run_dir = Path(run_dir)
    doc = json.loads((run_dir / MANIFEST_FILE).read_text(encoding="utf-8"))
    return all(
        _sha256(run_dir / name) == digest for name, digest in doc["files"].items()
    )


def record_in_manifest(run_dir: Path, path: Path) -> None:
    """Add or update the hash of one file inside run_dir in its existing
    manifest. Every other entry is kept as recorded: rehashing them all
    would bless an artifact corrupted since the manifest was written. Does
    nothing when run_dir has no manifest or path lies outside it."""
    run_dir = Path(run_dir)
    manifest_path = run_dir / MANIFEST_FILE
    try:
        name = Path(path).resolve().relative_to(run_dir.resolve()).as_posix()
    except ValueError:
        return
    if not manifest_path.exists():
        return
    files = json.loads(manifest_path.read_text(encoding="utf-8"))["files"]
    files[name] = _sha256(run_dir / name)
    _write_json(manifest_path, {"files": dict(sorted(files.items()))})


@contextlib.contextmanager
def run_lock(run_dir: Path):
    """Exclusive ownership of a run directory; fails fast when the
    directory is unwritable or already locked."""
    lock_path = Path(run_dir) / LOCK_FILE
    try:
        handle = open(lock_path, "x")
    except FileExistsError:
        raise StateError(f"run directory is locked: {lock_path}") from None
    try:
        handle.close()
        yield
    finally:
        with contextlib.suppress(OSError):
            lock_path.unlink()


@contextlib.contextmanager
def _stage(run_dir: Path, name: str):
    """Run one stage; on failure write failed/stage.txt: the stage name,
    then ``ExceptionType: message``."""
    try:
        yield
    except Exception as exc:
        marker_dir = run_dir / FAILED_DIR
        with contextlib.suppress(OSError):
            marker_dir.mkdir(exist_ok=True)
            (marker_dir / "stage.txt").write_text(
                f"{name}\n{type(exc).__name__}: {exc}\n", encoding="utf-8"
            )
        raise StageFailure(name, exc) from exc


def write_generation_artifacts(
    story: Story, config: PipelineConfig, run_dir: Path, user_input: Optional[str] = None
) -> Tuple[List[Path], VideoTimeline]:
    """Casting plus generation stages with persistence; returns keyframe
    paths and the in-memory timeline. Clears the failure marker of an
    earlier run, which no longer describes the directory."""
    run_dir = Path(run_dir)
    shutil.rmtree(run_dir / FAILED_DIR, ignore_errors=True)
    with _stage(run_dir, "keyframes"):
        keyframes = render_keyframes(story, config)
        keyframe_paths = write_keyframes(keyframes, run_dir / KEYFRAME_DIR)

    with _stage(run_dir, "generate"):
        timeline = generate_timeline(story, keyframes, config)
        write_tensor_file(run_dir / FRAMES_FILE, np.stack(timeline.frames))
        write_timeline_json(run_dir / TIMELINE_FILE, timeline)
        (run_dir / CONFIG_FILE).write_bytes(config_to_json(config, user_input))
    return keyframe_paths, timeline


def compute_metrics_for_run(run_dir, report_path=None) -> MetricsReport:
    """Metrics stage, standalone: recompute the report purely from the
    persisted artifacts (frames.vgt + timeline.json + story.json +
    config.json)."""
    run_dir = Path(run_dir)
    config, _extras = config_from_json((run_dir / CONFIG_FILE).read_bytes())
    story = parse_story((run_dir / STORY_FILE).read_bytes())
    timeline = load_timeline(run_dir, config)
    report = build_report(timeline, story, config)
    write_report(Path(report_path) if report_path else run_dir / REPORT_FILE, report)
    return report


def run_pipeline(user_input: str, config: PipelineConfig, out_dir) -> RunArtifacts:
    """The four-stage composition, end to end."""
    run_dir = Path(out_dir)
    run_dir.mkdir(parents=True, exist_ok=True)
    with run_lock(run_dir):
        with _stage(run_dir, "script"):
            story = build_story(user_input, config)
            (run_dir / STORY_FILE).write_bytes(serialize_story(story))

        keyframe_paths, _ = write_generation_artifacts(
            story, config, run_dir, user_input=user_input.strip()
        )

        with _stage(run_dir, "metrics"):
            compute_metrics_for_run(run_dir)

        manifest = write_manifest(run_dir)

    return RunArtifacts(
        run_dir=run_dir,
        story_path=run_dir / STORY_FILE,
        config_path=run_dir / CONFIG_FILE,
        keyframe_paths=keyframe_paths,
        frames_path=run_dir / FRAMES_FILE,
        timeline_path=run_dir / TIMELINE_FILE,
        report_path=run_dir / REPORT_FILE,
        manifest_path=run_dir / MANIFEST_FILE,
        manifest=manifest,
    )
