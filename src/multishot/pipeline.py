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
artifacts, so manifests can be compared across machines and reruns. Every
seed of a run derives from the config's root seed, through the config.
The metrics stage recomputes from story.json, config.json and the
persisted float32 frames alone, which is why deleting report.json and
rerunning only the metrics stage reproduces it byte-identically.
timeline.json restates what config.json gives (frame f belongs to shot
f // k) and nothing reads it.
"""

from __future__ import annotations

import contextlib
import hashlib
import json
import shutil
from pathlib import Path
from typing import Dict, List, Optional

import numpy as np

from .casting import derive_avatars, generate_keyframe, render_avatar
from .config import PipelineConfig, config_from_json, config_to_json
from .errors import ParseError, StageFailure, StateError, ValidationError
from .metrics import MetricsReport, build_report
from .script import (
    HttpLlmClient,
    MockLlmClient,
    Story,
    expand_story,
    generate_script_sequence,
    parse_story,
    serialize_story,
)
from .smoothing import DenoiseTrace, FrameStream, build_plan
from .tensorio import TEMP_SUFFIX, read_tensor_file, write_tensor_file

STORY_FILE = "story.json"
CONFIG_FILE = "config.json"
FRAMES_FILE = "frames.vgt"
TIMELINE_FILE = "timeline.json"
REPORT_FILE = "report.json"
MANIFEST_FILE = "manifest.json"
KEYFRAME_DIR = "keyframes"
LOCK_FILE = ".lock"
FAILED_DIR = "failed"


def make_llm(config: PipelineConfig):
    """The HTTP client for config.llm_endpoint when it is set, else the mock."""
    return HttpLlmClient(config.llm_endpoint) if config.llm_endpoint else MockLlmClient()


def build_story(user_input: str, config: PipelineConfig, llm=None) -> Story:
    """Script stage: expansion, avatar roster, five-domain scripts."""
    llm = llm or make_llm(config)
    descriptions = expand_story(user_input, config.n_shots, llm)
    avatars, assignment = derive_avatars(descriptions, llm, config)
    scripts = generate_script_sequence(descriptions, llm, assignment)
    return Story(user_input.strip(), descriptions, scripts, avatars)


def render_keyframes(story: Story, config: PipelineConfig) -> List[np.ndarray]:
    """Casting stage: render every avatar's identity embedding in one batch,
    then one keyframe latent per shot in a second, keyframe j for shot j."""
    identities = dict(
        zip([avatar.id for avatar in story.avatars], render_avatar(story.avatars, config))
    )
    return generate_keyframe(
        story.scripts, [identities[script.avatar_id] for script in story.scripts], config
    )


def generate_timeline(
    story: Story,
    keyframes: List[np.ndarray],
    config: PipelineConfig,
    trace: Optional[DenoiseTrace] = None,
) -> FrameStream:
    """Generation stage: build the conditioning plan and return the run's
    frames as a stream that samples them, windowed clips or the fifo-reset
    queue, as it is iterated. ``run_timeline`` collects it into one array."""
    plan = build_plan(story, keyframes, config)
    return FrameStream(plan, config, trace)


# --------------------------------------------------------------------------
# Persistence.


def _write_json(path: Path, payload) -> None:
    path.write_bytes((json.dumps(payload, indent=2, ensure_ascii=False) + "\n").encode("utf-8"))


def write_timeline_json(path: Path, config: PipelineConfig) -> None:
    """The mode and each of the config's n_shots * k frames, labelled shot
    f // k. Nothing reads the file back; it is written because the
    benchmark's reference digests include its bytes."""
    k = config.frames_per_shot
    payload = {
        "mode": config.mode,
        "frames": [{"global_frame": f, "shot": f // k} for f in range(config.n_shots * k)],
    }
    _write_json(path, payload)


def load_timeline(run_dir: Path, config: PipelineConfig) -> np.ndarray:
    """The float32 (n_shots * k, h, w, d) frames of a run made with
    ``config``: frames.vgt must hold that many finite frames of the
    config's latent shape."""
    frames = read_tensor_file(run_dir / FRAMES_FILE)
    total = config.n_shots * config.frames_per_shot
    if frames.shape[0] != total:
        raise ValidationError(
            f"frames.vgt holds {frames.shape[0]} frames, config.json gives {total}"
        )
    if frames.shape[1:] != config.latent_shape:
        raise ValidationError(
            f"frames.vgt holds frames of shape {frames.shape[1:]}, "
            f"config.json gives {config.latent_shape}"
        )
    for f, frame in enumerate(frames):
        if not np.isfinite(frame).all():
            raise ValidationError(f"frames.vgt frame {f} holds non-finite values")
    return frames


def write_report(path: Path, report: MetricsReport) -> None:
    _write_json(path, report.to_dict())


def read_report(path) -> MetricsReport:
    return MetricsReport(**json.loads(Path(path).read_text(encoding="utf-8")))


def write_keyframes(keyframes: List[np.ndarray], out_dir: Path) -> None:
    """Write keyframe j to shot_{j:04d}.vgt and delete every other
    shot_*.vgt in out_dir, so a rerun into the directory of a larger run
    leaves no keyframe of a shot the story no longer has."""
    out_dir.mkdir(parents=True, exist_ok=True)
    paths = [out_dir / f"shot_{j:04d}.vgt" for j in range(len(keyframes))]
    for stale in set(out_dir.glob("shot_*.vgt")) - set(paths):
        stale.unlink()
    for keyframe, path in zip(keyframes, paths):
        write_tensor_file(path, keyframe)


def _sha256(path: Path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as handle:
        for block in iter(lambda: handle.read(1 << 20), b""):
            digest.update(block)
    return digest.hexdigest()


def write_manifest(run_dir: Path) -> Dict[str, str]:
    """Hash every artifact: everything except the manifest, the lock, the
    failure marker and the temporary of an unfinished tensor write."""
    entries = {}
    for path in sorted(run_dir.rglob("*")):
        if path.is_dir() or path.name in (MANIFEST_FILE, LOCK_FILE):
            continue
        if path.name.endswith(TEMP_SUFFIX) or FAILED_DIR in path.relative_to(run_dir).parts:
            continue
        entries[path.relative_to(run_dir).as_posix()] = _sha256(path)
    _write_json(run_dir / MANIFEST_FILE, {"files": dict(sorted(entries.items()))})
    return entries


def read_manifest(run_dir: Path) -> Optional[Dict[str, str]]:
    """The ``files`` object of run_dir's manifest.json, name to sha256, or
    None when run_dir has no manifest. A manifest that is not UTF-8 JSON
    raises ``ParseError``; one that does not map names to digests raises
    ``ValidationError``."""
    try:
        doc = json.loads((Path(run_dir) / MANIFEST_FILE).read_text(encoding="utf-8"))
    except FileNotFoundError:
        return None
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise ParseError(f"{MANIFEST_FILE} is not valid UTF-8 JSON: {exc}") from exc
    files = doc.get("files") if isinstance(doc, dict) else None
    if not (isinstance(files, dict) and all(isinstance(v, str) for v in files.values())):
        raise ValidationError(f"{MANIFEST_FILE} must hold a files object of name: sha256 entries")
    return files


def verify_manifest(run_dir: Path) -> bool:
    """True when manifest.json is a valid manifest and every artifact it
    records still exists inside run_dir and matches its hash. False, never
    an exception, when the manifest is missing, is not one ``read_manifest``
    accepts, or names a file outside run_dir."""
    run_dir = Path(run_dir)
    try:
        files = read_manifest(run_dir)
    except (OSError, ParseError, ValidationError):
        return False
    if files is None:
        return False
    root = run_dir.resolve()
    for name, digest in files.items():
        path = (run_dir / name).resolve()
        if not (path.is_relative_to(root) and path.is_file() and _sha256(path) == digest):
            return False
    return True


def record_in_manifest(run_dir: Path, path: Path) -> None:
    """Add or update the hash of one file inside run_dir in its existing
    manifest. Every other entry is kept as recorded: rehashing them all
    would bless an artifact corrupted since the manifest was written. Does
    nothing when run_dir has no manifest or path lies outside it, and
    raises what ``read_manifest`` raises for a malformed one."""
    run_dir = Path(run_dir)
    try:
        name = Path(path).resolve().relative_to(run_dir.resolve()).as_posix()
    except ValueError:
        return
    files = read_manifest(run_dir)
    if files is None:
        return
    files[name] = _sha256(run_dir / name)
    _write_json(run_dir / MANIFEST_FILE, {"files": dict(sorted(files.items()))})


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


def write_generation_artifacts(story: Story, config: PipelineConfig, run_dir: Path) -> None:
    """Casting plus generation stages with persistence; config.json records
    the story's user input. Clears the failure marker of an earlier run,
    which no longer describes the directory."""
    run_dir = Path(run_dir)
    shutil.rmtree(run_dir / FAILED_DIR, ignore_errors=True)
    with _stage(run_dir, "keyframes"):
        keyframes = render_keyframes(story, config)
        write_keyframes(keyframes, run_dir / KEYFRAME_DIR)

    with _stage(run_dir, "generate"):
        # the writer pulls each frame from the sampler and drops it once it
        # is on disk, so no stage holds the run's frames
        write_tensor_file(run_dir / FRAMES_FILE, generate_timeline(story, keyframes, config))
        write_timeline_json(run_dir / TIMELINE_FILE, config)
        (run_dir / CONFIG_FILE).write_bytes(config_to_json(config, story.user_input))


def compute_metrics_for_run(run_dir, report_path=None) -> MetricsReport:
    """Metrics stage, standalone: recompute the report purely from the
    persisted artifacts (frames.vgt + story.json + config.json)."""
    run_dir = Path(run_dir)
    config, _extras = config_from_json((run_dir / CONFIG_FILE).read_bytes())
    story = parse_story((run_dir / STORY_FILE).read_bytes())
    report = build_report(load_timeline(run_dir, config), story, config)
    write_report(Path(report_path) if report_path else run_dir / REPORT_FILE, report)
    return report


def run_pipeline(user_input: str, config: PipelineConfig, out_dir) -> Dict[str, str]:
    """The four-stage composition, end to end; returns the manifest written
    to out_dir, each artifact's path relative to out_dir mapped to its
    sha256."""
    run_dir = Path(out_dir)
    run_dir.mkdir(parents=True, exist_ok=True)
    with run_lock(run_dir):
        # a manifest from an earlier run would vouch for half-rewritten files
        (run_dir / MANIFEST_FILE).unlink(missing_ok=True)
        with _stage(run_dir, "script"):
            story = build_story(user_input, config)
            (run_dir / STORY_FILE).write_bytes(serialize_story(story))

        write_generation_artifacts(story, config, run_dir)

        with _stage(run_dir, "metrics"):
            compute_metrics_for_run(run_dir)

        return write_manifest(run_dir)
