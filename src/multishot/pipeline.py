"""End-to-end orchestration and run-directory persistence.

A run executes script -> casting -> generation -> metrics in order, from
a user input (``run_pipeline``) or from a written story (``generate_run``),
and leaves a self-contained directory behind:

    story.json      canonical story document
    config.json     effective behavioral config
    keyframes/      one .vgt tensor per shot
    frames.vgt      all emitted frames, stacked (F, h, w, d)
    timeline.json   per-frame {global_frame, shot} labels and the mode
    report.json     metrics report
    manifest.json   sha256 of every artifact above
    failed/         stage.txt, when a stage failed or was interrupted

These are ``RUN_FILES``. Before its first stage a run deletes them
(``clear_run``); the manifest hashes the artifacts among them, no other
file, and ``verify_manifest`` holds while it equals their hashes. Each
file is written through ``tensorio.atomic_write`` inside a stage, and the
manifest's stage ends every run. So a run directory is in one of four
states, which the commands follow:

* finished, with manifest.json: ``metrics`` rescores it, writers refuse
  its files;
* failed or interrupted, with failed/stage.txt naming the stage and the error
  (any exception, a KeyboardInterrupt too): ``metrics`` refuses it, writers
  accept it, ``run`` and ``generate`` clear it;
* in use or killed, with .lock: every command refuses it (a SIGKILL leaves it);
* none of these, its files written stage by stage: writers accept it.

The writers, ``script --out``, ``keyframes --out`` and ``metrics
--report``, write through ``command_output``, whose one rule is: a path
that names, after symlinks and ``..`` are resolved, one of D's
RUN_FILES, D's keyframes/ or D's .lock is written under D's run lock,
and refused while D holds manifest.json; a manifest, a lock, and any
file but report.json of the run whose lock the caller holds are refused
outright. Then a path that is itself a symlink to anything but a
directory is refused, because the write would replace the link.

Equal (user_input, config) produce byte-identical artifacts on one
numpy/BLAS build and CPU kernel; another kernel can change report.json
(ROADMAP item 1). Every seed derives from the config's root seed except
an avatar portrait's, which comes from story.json (ROADMAP item 6).
The metrics stage recomputes from story.json, config.json and the
persisted float32 frames alone, which is why deleting report.json and
rerunning only the metrics stage reproduces it byte-identically.
"""

from __future__ import annotations

import contextlib
import hashlib
from pathlib import Path
from typing import Callable, Dict, List, Optional

import numpy as np

from .casting import derive_avatars, generate_keyframe, render_avatar
from .config import PipelineConfig, config_from_json, config_to_json
from .errors import InputError, ParseError, StageFailure, StateError, ValidationError
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
from .smoothing import FrameStream, build_plan
from .tensorio import (
    TEMP_SUFFIX,
    canonical_json,
    read_json,
    read_tensor_file,
    write_file,
    write_tensor_file,
)

STORY_FILE = "story.json"
CONFIG_FILE = "config.json"
FRAMES_FILE = "frames.vgt"
TIMELINE_FILE = "timeline.json"
REPORT_FILE = "report.json"
MANIFEST_FILE = "manifest.json"
KEYFRAME_DIR = "keyframes"
FAILED_FILE = "failed/stage.txt"
LOCK_FILE = ".lock"
#: The artifacts of a run, as glob patterns relative to its directory: the
#: files its manifest hashes.
ARTIFACTS = (STORY_FILE, CONFIG_FILE, FRAMES_FILE, TIMELINE_FILE, REPORT_FILE,
             f"{KEYFRAME_DIR}/shot_*.vgt")
#: Every file a run writes, which is what clear_run deletes. The manifest
#: goes first, so an interrupted clear leaves none behind.
RUN_FILES = (MANIFEST_FILE, *ARTIFACTS, FAILED_FILE)


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
    story: Story, keyframes: List[np.ndarray], config: PipelineConfig
) -> FrameStream:
    """Generation stage: build the conditioning plan and return the run's
    frames as a stream that samples them, windowed clips or the fifo-reset
    queue, as it is iterated. ``run_timeline`` collects it into one array."""
    plan = build_plan(story, keyframes, config)
    return FrameStream(plan, config)


# --------------------------------------------------------------------------
# Persistence.


def write_timeline_json(path: Path, config: PipelineConfig) -> None:
    """The mode and each of the config's n_shots * k frames, labelled shot
    f // k. Nothing reads the file back; it is written because the
    benchmark's reference digests include its bytes."""
    k = config.frames_per_shot
    payload = {
        "mode": config.mode,
        "frames": [{"global_frame": f, "shot": f // k} for f in range(config.n_shots * k)],
    }
    write_file(path, canonical_json(payload))


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
    write_file(path, canonical_json(report.to_dict()))


def read_report(path) -> MetricsReport:
    return MetricsReport(**read_json(Path(path).read_bytes(), REPORT_FILE))


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


def _hash_artifacts(run_dir: Path) -> Dict[str, str]:
    """Each file of ARTIFACTS in run_dir, by name, mapped to its sha256."""
    paths = [path for pattern in ARTIFACTS for path in run_dir.glob(pattern)]
    return {path.relative_to(run_dir).as_posix(): _sha256(path) for path in sorted(paths)}


def write_manifest(run_dir: Path) -> Dict[str, str]:
    """Write manifest.json, which hashes the artifacts in run_dir, and
    return its entries: name relative to run_dir to sha256."""
    files = _hash_artifacts(run_dir)
    write_file(run_dir / MANIFEST_FILE, canonical_json({"files": files}))
    return files


def read_manifest(run_dir: Path) -> Optional[Dict[str, str]]:
    """The ``files`` object of run_dir's manifest.json, name to sha256, or
    None when run_dir has no manifest. A manifest that is not UTF-8 JSON
    raises ``ParseError``; one that does not map names to digests raises
    ``ValidationError``."""
    try:
        doc = read_json((Path(run_dir) / MANIFEST_FILE).read_bytes(), MANIFEST_FILE)
    except FileNotFoundError:
        return None
    files = doc.get("files") if isinstance(doc, dict) else None
    if not (isinstance(files, dict) and all(isinstance(v, str) for v in files.values())):
        raise ValidationError(f"{MANIFEST_FILE} must hold a files object of name: sha256 entries")
    return files


def verify_manifest(run_dir: Path) -> bool:
    """True when manifest.json is a valid manifest that lists exactly the
    artifacts in run_dir, each with its current hash; False, never an
    exception, otherwise."""
    run_dir = Path(run_dir)
    try:
        return read_manifest(run_dir) == _hash_artifacts(run_dir)
    except (OSError, ParseError, ValidationError):
        return False


@contextlib.contextmanager
def run_lock(run_dir: Path):
    """Exclusive ownership of a run directory; fails fast when the
    directory is missing, unwritable or already locked."""
    lock_path = Path(run_dir) / LOCK_FILE
    try:
        open(lock_path, "x").close()
    except FileExistsError:
        raise StateError(f"run directory is locked: {lock_path}") from None
    except FileNotFoundError:
        raise FileNotFoundError(f"no such directory: {run_dir}") from None
    try:
        yield
    finally:
        with contextlib.suppress(OSError):
            lock_path.unlink()


@contextlib.contextmanager
def command_output(path, held=None):
    """Guard the block in which a command writes ``path``, by the rule
    stated with RUN_FILES; ``held`` is the run whose lock the caller holds."""
    target = Path(path).resolve()
    run_dir = next((target.parents[len(Path(pattern).parts) - 1]
                    for pattern in (*RUN_FILES, KEYFRAME_DIR, LOCK_FILE)
                    if target.match(pattern)), None)
    name = run_dir and target.relative_to(run_dir).as_posix()
    own = held is not None and run_dir == Path(held).resolve()
    if name in (MANIFEST_FILE, LOCK_FILE) or own and name != REPORT_FILE:
        raise InputError(f"{path} is the run's own {name}; write outside the run's files")
    with contextlib.ExitStack() as guard:
        if run_dir is not None and not own:
            guard.enter_context(run_lock(run_dir))
            if (run_dir / MANIFEST_FILE).exists():
                raise StateError(f"{path} belongs to the finished run in {run_dir}; "
                                 "use `multishot generate` to regenerate a run")
        if Path(path).is_symlink() and not target.is_dir():
            raise InputError(f"{path} is a symlink; write to the file it names, {target}")
        yield


@contextlib.contextmanager
def _stage(run_dir: Path, name: str):
    """Run one stage; when it raises anything, a KeyboardInterrupt too,
    write failed/stage.txt: the stage name, then ``ExceptionType:
    message``. An ``Exception`` leaves as ``StageFailure``, anything else
    unchanged."""
    try:
        yield
    except BaseException as exc:
        marker = run_dir / FAILED_FILE
        with contextlib.suppress(OSError):
            marker.parent.mkdir(exist_ok=True)
            write_file(marker, f"{name}\n{type(exc).__name__}: {exc}\n".encode("utf-8"))
        if not isinstance(exc, Exception):
            raise
        raise StageFailure(name, exc) from exc


def clear_run(run_dir: Path) -> None:
    """Delete every file of RUN_FILES from run_dir, the temporaries that a
    write killed outright left beside them, and the directories this
    leaves empty, so nothing of an earlier run outlives a rerun that fails.
    Other files in run_dir are left alone. Call it under the run lock."""
    run_dir = Path(run_dir)
    for pattern in RUN_FILES:
        folder, name = (run_dir / pattern).parent, Path(pattern).name
        for path in [*folder.glob(name), *folder.glob(f".{name}.*{TEMP_SUFFIX}")]:
            path.unlink()
        if folder != run_dir:
            with contextlib.suppress(OSError):  # left when it holds other files
                folder.rmdir()


def compute_metrics_for_run(run_dir, report_path=None) -> MetricsReport:
    """Metrics stage, standalone: recompute the report purely from the
    persisted artifacts (frames.vgt + story.json + config.json) and write it
    through ``command_output``; the caller holds run_dir's lock. A failed
    run raises ``StateError`` naming the stage its failed/stage.txt names."""
    run_dir = Path(run_dir)
    target = Path(report_path) if report_path else run_dir / REPORT_FILE
    with command_output(target, held=run_dir):
        if (run_dir / FAILED_FILE).exists():
            stage, _, error = (run_dir / FAILED_FILE).read_text(encoding="utf-8").partition("\n")
            raise StateError(f"the run in {run_dir} failed in its {stage} stage: {error.strip()}")
        config, _extras = config_from_json((run_dir / CONFIG_FILE).read_bytes())
        story = parse_story((run_dir / STORY_FILE).read_bytes())
        report = build_report(load_timeline(run_dir, config), story, config)
        write_report(target, report)
    return report


def _run(get_story: Callable[[], Story], config: PipelineConfig, out_dir) -> Dict[str, str]:
    """Clear out_dir under its run lock, run the four stages into it, the
    script's taking the story from ``get_story``, and return the manifest."""
    run_dir = Path(out_dir)
    run_dir.mkdir(parents=True, exist_ok=True)
    with run_lock(run_dir):
        clear_run(run_dir)
        with _stage(run_dir, "script"):
            story = get_story()
            write_file(run_dir / STORY_FILE, serialize_story(story))

        with _stage(run_dir, "keyframes"):
            keyframes = render_keyframes(story, config)
            write_keyframes(keyframes, run_dir / KEYFRAME_DIR)

        with _stage(run_dir, "generate"):
            # the writer pulls each frame from the sampler and drops it once
            # it is on disk, so no stage holds the run's frames
            write_tensor_file(run_dir / FRAMES_FILE, generate_timeline(story, keyframes, config))
            write_timeline_json(run_dir / TIMELINE_FILE, config)
            write_file(run_dir / CONFIG_FILE, config_to_json(config))
        del keyframes  # the metrics stage sets the peak memory and needs no keyframe

        with _stage(run_dir, "metrics"):
            compute_metrics_for_run(run_dir)

        with _stage(run_dir, "manifest"):
            return write_manifest(run_dir)


def run_pipeline(user_input: str, config: PipelineConfig, out_dir) -> Dict[str, str]:
    """Every stage from ``user_input``; returns the manifest written to
    out_dir, each artifact's path relative to out_dir mapped to its sha256."""
    return _run(lambda: build_story(user_input, config), config, out_dir)


def generate_run(story: Story, config: PipelineConfig, out_dir) -> Dict[str, str]:
    """The same run from an already-written story, whose shot count
    overrides config.n_shots; returns the manifest written to out_dir."""
    return _run(lambda: story, config.merged(n_shots=len(story.scripts)), out_dir)
