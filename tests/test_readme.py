"""README lists that restate the code: the stage signatures and the
configuration keys must stay in step with what the package defines."""

import importlib
import inspect
import pkgutil
import re
from dataclasses import fields
from pathlib import Path

import multishot
from multishot.config import PipelineConfig

README = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")


def _section(title):
    return README.split(f"\n## {title}\n", 1)[1].split("\n## ", 1)[0]


def _defined_in_package(name):
    """The object called ``name`` (``Class.attr`` allowed) in the package
    module that defines it, or None."""
    head, *rest = name.split(".")
    for info in pkgutil.iter_modules(multishot.__path__):
        module = importlib.import_module(f"multishot.{info.name}")
        obj = vars(module).get(head)
        if obj is not None and getattr(obj, "__module__", None) == module.__name__:
            for attr in rest:
                obj = getattr(obj, attr)
            return obj
    return None


def _parameter_names(params):
    return [p.split("=")[0].split(":")[0].strip() for p in params.split(",") if p.strip()]


def test_readme_stage_signatures_match_the_code():
    block = _section("Pipeline stages").split("```python\n", 1)[1].split("\n```", 1)[0]
    calls = re.findall(r"^([A-Za-z_][\w.]*)\(([^)]*)\)", block, re.M)
    assert len(calls) >= 10, block
    for name, params in calls:
        obj = _defined_in_package(name)
        assert obj is not None, f"README names {name}, which no multishot module defines"
        documented = _parameter_names(params)
        actual = list(inspect.signature(obj).parameters)
        assert documented == actual, f"{name}: README {documented}, code {actual}"


def test_readme_configuration_lists_every_field_in_order():
    section = _section("Configuration")
    listed = re.findall(r"^- `([a-z_0-9]+)`", section, re.M)
    assert listed == [f.name for f in fields(PipelineConfig)]
