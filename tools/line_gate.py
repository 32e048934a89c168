"""Line gate: every function-body line of the package runs in tier-1.

Runs the tier-1 suite in this process through ``pytest.main``, with a line
tracer that ``sys.settrace`` and ``threading.settrace`` install (a windowed
shot samples on a worker thread) and that traces only the files of
``src/multishot``. A function-body line is a line below a function's
signature that holds bytecode. The gate fails, listing each such line that
never ran as ``file:line``, and it fails when the suite itself fails.

Exemptions are named by function:

* ``cli.main``, the console-script entry point: it only exits with the
  status of ``cli()``, which the tests call directly;
* ``DenoiserBackend.__call__``, ``FeatureExtractor.__call__`` and
  ``LlmClient.complete``: the ``...`` bodies of protocols, which no
  implementation runs.

Run it from the repository root; extra arguments go to pytest:

    python tools/line_gate.py
"""

from __future__ import annotations

import ast
import os
import sys
import threading
import types
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "multishot"
TIER_1_ARGS = ["-q", "--continue-on-collection-errors"]

#: Exempt functions by file, as qualified names within the module.
EXEMPT = {
    "cli.py": {"main"},
    "diffusion.py": {"DenoiserBackend.__call__"},
    "metrics.py": {"FeatureExtractor.__call__"},
    "script.py": {"LlmClient.complete"},
}


def _functions(tree: ast.Module) -> list:
    """(qualified name, first body line, last line) of every function,
    outer functions before the functions nested in them."""
    found = []

    def visit(node, prefix):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                name = prefix + child.name
                found.append((name, child.body[0].lineno, child.end_lineno))
                visit(child, name + ".<locals>.")
            elif isinstance(child, ast.ClassDef):
                visit(child, prefix + child.name + ".")
            else:
                visit(child, prefix)

    visit(tree, "")
    return found


def _code_lines(code: types.CodeType) -> set:
    """The lines that hold bytecode in ``code`` and in the code nested in it."""
    lines = {line for _, _, line in code.co_lines() if line is not None}
    for const in code.co_consts:
        if isinstance(const, types.CodeType):
            lines |= _code_lines(const)
    return lines


def body_lines(path: Path) -> dict:
    """{line: innermost function} for the function-body lines of one source
    file that hold bytecode, without the lines of exempt functions."""
    source = path.read_text(encoding="utf-8")
    code_lines = _code_lines(compile(source, str(path), "exec"))
    exempt = EXEMPT.get(path.name, set())
    owners, skipped = {}, set()
    for name, first, last in _functions(ast.parse(source)):
        span = range(first, last + 1)
        if name in exempt:
            skipped.update(span)
        owners.update((line, name) for line in span if line in code_lines)
    return {line: name for line, name in owners.items() if line not in skipped}


def run_traced(args: list) -> tuple:
    """Run pytest with ``args`` under the line tracer; returns its exit
    status and the (filename, line) pairs that ran in package files."""
    package_files = {os.path.realpath(p) for p in PACKAGE.glob("*.py")}
    ours, ran = {}, set()

    def on_line(frame, event, arg):
        if event == "line":
            ran.add((frame.f_code.co_filename, frame.f_lineno))
        return on_line

    def on_call(frame, event, arg):
        filename = frame.f_code.co_filename
        traced = ours.get(filename)
        if traced is None:
            traced = ours[filename] = os.path.realpath(filename) in package_files
        return on_line if traced else None

    threading.settrace(on_call)
    sys.settrace(on_call)
    try:
        status = pytest.main(args)
    finally:
        sys.settrace(None)
        threading.settrace(None)
    return int(status), ran


def main(argv=None) -> int:
    sys.path.insert(0, str(ROOT / "src"))
    status, ran = run_traced(TIER_1_ARGS + list(sys.argv[1:] if argv is None else argv))
    ran_by_file = {}
    for filename, line in ran:
        ran_by_file.setdefault(os.path.realpath(filename), set()).add(line)
    missed = []
    for path in sorted(PACKAGE.glob("*.py")):
        ran_here = ran_by_file.get(os.path.realpath(path), set())
        for line, name in sorted(body_lines(path).items()):
            if line not in ran_here:
                missed.append(f"{path.relative_to(ROOT)}:{line} (in {name})")
    print("\n".join(missed))
    print(f"line gate: {len(missed)} function-body lines of src/multishot never ran in tier-1")
    if status != 0:
        print(f"line gate: the tier-1 run failed with exit status {status}")
    return 1 if missed or status != 0 else 0


if __name__ == "__main__":
    sys.exit(main())
