"""Command-line surface.

Subcommands mirror the pipeline stages:

    script     expand a one-sentence input into a story file
    keyframes  render per-shot keyframe tensors from a story file
    generate   the rest of a run from a story file: keyframes, frames, report
    metrics    score a run directory and write report.json
    run        everything end to end

`script --out`, `keyframes --out` and `metrics --report` write through
pipeline.command_output, whose one rule, stated with pipeline.RUN_FILES,
keeps each from rewriting a finished or locked run's files.

Exit codes: 0 success, 1 validation/config error, 2 I/O or transport error.
Flag precedence: CLI flag > config file > built-in default; the effective
config is always persisted next to the artifacts it produced, and
`metrics` scores a run from its story, config and frames alone.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from .config import MODES, PipelineConfig, config_from_json
from .errors import MultishotError, StageFailure, TransportError
from .pipeline import (
    REPORT_FILE,
    build_story,
    command_output,
    compute_metrics_for_run,
    generate_run,
    read_manifest,
    read_report,
    render_keyframes,
    run_lock,
    run_pipeline,
    write_keyframes,
)
from .script import DOMAIN_FIELDS, parse_story, serialize_story
from .tensorio import write_file


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def __init__(self, *args, **kwargs):  # a flag matches in full, never by prefix
        super().__init__(*args, allow_abbrev=False, **kwargs)

    def error(self, message):  # argparse would sys.exit(2); we want exit 1
        raise UsageError(message)


def _build_parser() -> _Parser:
    parser = _Parser(prog="multishot", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("script", help="expand input into a story file")
    p.add_argument("--input", required=True, help="one-sentence story input")
    p.add_argument("--shots", type=int, default=None, help="number of shots")
    p.add_argument("--llm-endpoint", default=None, help="HTTP LLM URL (default: offline mock)")
    p.add_argument("--shots-per-avatar", type=int, default=None)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--config", default=None, help="config file (JSON)")
    p.add_argument("--out", default="story.json", help="story file to write")

    p = sub.add_parser("keyframes", help="render keyframe tensors from a story file")
    p.add_argument("--story", required=True)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--config", default=None)
    p.add_argument("--out", required=True, help="directory for one .vgt keyframe per shot")

    p = sub.add_parser("generate", help="run every stage after the script from a story file")
    p.add_argument("--story", required=True)
    p.add_argument("--mode", choices=MODES, default=None)
    p.add_argument("--frames-per-shot", type=int, default=None)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--config", default=None)
    p.add_argument("--out", required=True, help="run directory to write")

    p = sub.add_parser("metrics", help="score a run directory")
    p.add_argument("--run", required=True)
    p.add_argument("--report", default=None, help="report path (default RUN/report.json)")

    p = sub.add_parser("run", help="full pipeline: story to report")
    p.add_argument("--input", required=True)
    p.add_argument("--config", default=None)
    p.add_argument("--shots", type=int, default=None)
    p.add_argument("--frames-per-shot", type=int, default=None)
    p.add_argument("--mode", choices=MODES, default=None)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--out", default=None, help="run directory (default 'run')")
    return parser


def _load_config(args) -> tuple:
    """Config precedence: CLI flag > config file > defaults."""
    extras = {}
    if getattr(args, "config", None):
        config, extras = config_from_json(Path(args.config).read_bytes())
    else:
        config = PipelineConfig()
    config = config.merged(
        n_shots=getattr(args, "shots", None),
        frames_per_shot=getattr(args, "frames_per_shot", None),
        mode=getattr(args, "mode", None),
        seed=getattr(args, "seed", None),
        llm_endpoint=getattr(args, "llm_endpoint", None),
        shots_per_avatar=getattr(args, "shots_per_avatar", None),
    )
    return config, extras


def _cmd_script(args) -> int:
    config, _ = _load_config(args)
    with command_output(args.out):
        story = build_story(args.input, config)
        write_file(args.out, serialize_story(story))
    print(f"wrote {args.out} ({len(story.scripts)} shots, {len(story.avatars)} avatars)")
    return 0


def _cmd_keyframes(args) -> int:
    story = parse_story(Path(args.story).read_bytes())
    config = _load_config(args)[0].merged(n_shots=len(story.scripts))
    with command_output(args.out):
        keyframes = render_keyframes(story, config)
        write_keyframes(keyframes, Path(args.out))
    print(f"wrote {len(keyframes)} keyframes to {args.out}")
    return 0


def _cmd_generate(args) -> int:
    story = parse_story(Path(args.story).read_bytes())
    config, _ = _load_config(args)
    generate_run(story, config, args.out)
    print(f"wrote keyframes, frames, timeline and report to {args.out} (mode={config.mode})")
    return 0


def _render_table(report) -> str:
    headers = [f"CLIP({d})" for d in DOMAIN_FIELDS]
    headers += ["FC(within)", "FC(cross)", "SC(within)", "SC(cross)", "PSNR"]
    values = [report.clip_by_domain.get(d) for d in DOMAIN_FIELDS]
    values += [report.fc_within, report.fc_cross, report.sc_within, report.sc_cross,
               report.psnr_pairs]
    values = ["null" if value is None else f"{value:.4f}" for value in values]
    widths = [max(len(h), len(v)) for h, v in zip(headers, values)]
    line = "  ".join(h.rjust(w) for h, w in zip(headers, widths))
    row = "  ".join(v.rjust(w) for v, w in zip(values, widths))
    return line + "\n" + row


def _cmd_metrics(args) -> int:
    target = Path(args.report or Path(args.run) / REPORT_FILE)
    with run_lock(args.run):
        # a malformed manifest fails here, before the report is rewritten
        read_manifest(args.run)
        report = compute_metrics_for_run(args.run, target)
    print(_render_table(report))
    print(f"wrote {target}")
    return 0


def _cmd_run(args) -> int:
    config, extras = _load_config(args)
    run_dir = Path(args.out or extras.get("out_dir") or "run")
    run_pipeline(args.input, config, run_dir)
    print(_render_table(read_report(run_dir / REPORT_FILE)))
    print(f"run complete: {run_dir}")
    return 0


_COMMANDS = {
    "script": _cmd_script,
    "keyframes": _cmd_keyframes,
    "generate": _cmd_generate,
    "metrics": _cmd_metrics,
    "run": _cmd_run,
}


def _exit_code_for(exc: BaseException) -> int:
    if isinstance(exc, StageFailure):
        return _exit_code_for(exc.__cause__) if exc.__cause__ else 1
    if isinstance(exc, (TransportError, OSError)):
        return 2
    return 1


def cli(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except UsageError as exc:
        print(parser.format_usage(), end="", file=sys.stderr)
        print(f"error: {exc}", file=sys.stderr)
        return 1
    try:
        return _COMMANDS[args.command](args)
    except (MultishotError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return _exit_code_for(exc)


def main() -> None:
    sys.exit(cli())


if __name__ == "__main__":
    main()
