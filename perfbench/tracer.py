"""Per-layer tracing by wrapping the program's functions from outside.

``Tracer.install`` replaces each layer-boundary function of the program
with a wrapper that records a span (name, start, end, parent span), and a
few hot inner helpers with wrappers that only count calls. Several names
are bound by value, for example ``from .diffusion import ddim_step`` in
smoothing or the ``image_encoder=encode_image_mock`` default argument in
clips, so every module global, class attribute and default argument of the
package that holds an original is rebound to its wrapper, and
``Tracer.install`` fails if any reference to an original survives.
``Tracer.uninstall`` restores everything, so untraced ops run the program
exactly as shipped.

Spans stay in memory; ``profile`` derives per-name call counts, inclusive
time and self time (a span's duration minus the time its child spans
cover) for the spans of one op, and ``save`` writes them all at the end.
Probes (the counters of distinct conditions and of bytes) run after a span
ends, inside its parent; each span records the probe time spent inside it,
and that time is left out of every span's duration.
"""

from __future__ import annotations

import os
import sys
import time
import types
from array import array
from collections import Counter

import numpy as np

PACKAGE = "multishot"

#: Layer-boundary functions that get a span, by module.
SPANS = {
    "script": ("expand_story", "generate_script_sequence", "serialize_story", "parse_story"),
    "casting": ("derive_avatars", "render_avatar", "generate_keyframe", "encode_image_mock"),
    "clips": ("build_shot_condition", "generate_shot_clip"),
    "smoothing": ("run_timeline", "build_plan", "init_queue", "tick"),
    "diffusion": ("sample_reverse", "analytic_eps", "ddim_step"),
    "conditioning": ("MeanProjector.mean", "encode_text_mock", "get_projector"),
    "seeds": ("spawn_rng",),
    "metrics": ("build_report", "consistency_scores", "clip_score_mock"),
    "tensorio": ("write_tensor_file", "read_tensor_file"),
    "pipeline": ("run_pipeline", "compute_metrics_for_run", "build_story", "render_keyframes",
                 "generate_timeline", "load_timeline", "write_report", "write_manifest"),
}

#: Hot inner helpers that are counted but get no span, to keep overhead low.
COUNTS = {
    "script": ("MockLlmClient.complete",),
    "conditioning": ("attention",),
    "metrics": ("cosine", "IdentityChannelMean.__call__", "StyleGram.__call__"),
}


def _tensor_bytes(shape) -> int:
    return 6 + 4 * len(shape) + 4 * int(np.prod(shape, dtype=np.int64))


def _probe_mean(counters, args, kwargs, result):
    cond = args[1] if len(args) > 1 else kwargs["cond"]
    ip = None if cond.ip is None else cond.ip.data.tobytes()
    counters["distinct_conditions"].add((cond.text.data.tobytes(), ip, cond.ip_scale))


def _probe_write(counters, args, kwargs, result):
    tensor = args[1] if len(args) > 1 else kwargs["tensor"]
    counters["write_bytes"] += _tensor_bytes(np.shape(tensor))


def _probe_read(counters, args, kwargs, result):
    counters["read_bytes"] += _tensor_bytes(result.shape)


def _probe_manifest(counters, args, kwargs, result):
    run_dir = args[0] if args else kwargs["run_dir"]
    counters["manifest_bytes"] += sum(os.path.getsize(os.path.join(run_dir, n)) for n in result)


PROBES = {
    "conditioning.MeanProjector.mean": _probe_mean,
    "tensorio.write_tensor_file": _probe_write,
    "tensorio.read_tensor_file": _probe_read,
    "pipeline.write_manifest": _probe_manifest,
}


class Tracer:
    def __init__(self):
        #: Span name table; each span stores an index into it.
        self.names = [f"{m}.{q}" for m, quals in SPANS.items() for q in quals]
        self.span_name = array("i")
        self.span_parent = array("q")
        self.span_start = array("d")
        self.span_end = array("d")
        #: Probe time spent inside each span, left out of its duration.
        self.span_probe = array("d")
        self._probe_clock = array("d", [0.0])  # all probe time so far
        self._stack: list = []
        self.counters: Counter = Counter()
        self._restore: list = []
        self._op_first_span = 0

    # -- wrappers -------------------------------------------------------------

    def _span_wrapper(self, fn, name):
        index = self.names.index(name)
        probe = PROBES.get(name)
        clock, stack = time.perf_counter, self._stack
        names, parents, starts, ends = self.span_name, self.span_parent, self.span_start, self.span_end
        probed, probe_clock = self.span_probe, self._probe_clock
        counters = self.counters

        def traced(*args, **kwargs):
            sid = len(starts)
            names.append(index)
            parents.append(stack[-1] if stack else -1)
            ends.append(0.0)
            probed.append(0.0)
            stack.append(sid)
            probe_before = probe_clock[0]
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[sid] = clock()
                probed[sid] = probe_clock[0] - probe_before
                stack.pop()
            if probe is not None:
                t = clock()
                probe(counters, args, kwargs, result)
                probe_clock[0] += clock() - t
            return result

        return traced

    def _count_wrapper(self, fn, name):
        counters = self.counters

        def counted(*args, **kwargs):
            counters[name] += 1
            return fn(*args, **kwargs)

        return counted

    # -- install / uninstall --------------------------------------------------

    def install(self) -> None:
        """Wrap every listed function and rebind every reference to it."""
        try:
            self._install()
        except BaseException:
            self.uninstall()
            raise

    def _install(self) -> None:
        modules = _package_modules()
        # Listed before wrapping, so that the wrapped originals are included.
        functions = list(_functions(modules))
        wrappers = {}  # id(original) -> wrapper
        for table, make in ((SPANS, self._span_wrapper), (COUNTS, self._count_wrapper)):
            for module, quals in table.items():
                for qual in quals:
                    name = f"{module}.{qual}"
                    owner, attr = _resolve(modules[f"{PACKAGE}.{module}"], qual)
                    original = vars(owner)[attr]
                    wrapper = make(original, name)
                    wrappers[id(original)] = wrapper
                    self._set(owner, attr, wrapper)
        for holder in _holders(modules):
            for attr, value in list(vars(holder).items()):
                if id(value) in wrappers:
                    self._set(holder, attr, wrappers[id(value)])
        for fn in functions:
            if fn.__defaults__ and any(id(d) in wrappers for d in fn.__defaults__):
                self._set_attr(fn, "__defaults__", tuple(
                    wrappers.get(id(d), d) for d in fn.__defaults__))
            if fn.__kwdefaults__ and any(id(d) in wrappers for d in fn.__kwdefaults__.values()):
                self._set_attr(fn, "__kwdefaults__", {
                    k: wrappers.get(id(d), d) for k, d in fn.__kwdefaults__.items()})
        left = _references(modules, functions, set(wrappers))
        if left:
            raise RuntimeError(f"references to unwrapped functions remain: {left}")

    def _set(self, owner, attr, value):
        self._restore.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, value)

    def _set_attr(self, fn, attr, value):
        self._restore.append((fn, attr, getattr(fn, attr)))
        setattr(fn, attr, value)

    def uninstall(self) -> None:
        while self._restore:
            owner, attr, value = self._restore.pop()
            setattr(owner, attr, value)

    # -- per-op profile -------------------------------------------------------

    def begin_op(self) -> None:
        self._op_first_span = len(self.span_start)
        self.counters.clear()
        self.counters["distinct_conditions"] = set()

    def profile(self) -> dict:
        """Aggregates of the spans and counters recorded since begin_op."""
        s0 = self._op_first_span
        name = np.frombuffer(self.span_name, dtype=np.int32)[s0:]
        parent = np.frombuffer(self.span_parent, dtype=np.int64)[s0:] - s0
        dur = (np.frombuffer(self.span_end)[s0:] - np.frombuffer(self.span_start)[s0:]
               - np.frombuffer(self.span_probe)[s0:])
        has_parent = parent >= 0
        cover = np.zeros(len(dur))
        np.add.at(cover, parent[has_parent], dur[has_parent])
        n = len(self.names)
        calls = np.bincount(name, minlength=n)
        total = np.bincount(name, weights=dur, minlength=n)
        self_s = np.bincount(name, weights=dur - cover, minlength=n)
        tick = self.names.index("smoothing.tick")
        eps = self.names.index("diffusion.analytic_eps")
        under_tick = has_parent & (name == eps)
        under_tick[under_tick] = name[parent[under_tick]] == tick
        counters = dict(self.counters)
        counters["distinct_conditions"] = len(counters["distinct_conditions"])
        return {
            "calls": dict(zip(self.names, calls.tolist())),
            "total_s": dict(zip(self.names, total.tolist())),
            "self_s": dict(zip(self.names, self_s.tolist())),
            "counters": counters,
            "queue_denoise_calls": int(under_tick.sum()),
        }

    def save(self, path) -> None:
        """Write every span recorded in this process."""
        path.parent.mkdir(parents=True, exist_ok=True)
        np.savez(path, names=np.array(self.names),
                 name=np.frombuffer(self.span_name, dtype=np.int32),
                 parent=np.frombuffer(self.span_parent, dtype=np.int64),
                 start=np.frombuffer(self.span_start), end=np.frombuffer(self.span_end),
                 probe=np.frombuffer(self.span_probe))


def _package_modules() -> dict:
    return {name: mod for name, mod in sys.modules.items()
            if name == PACKAGE or name.startswith(PACKAGE + ".")}


def _resolve(module, qual):
    owner = module
    *path, attr = qual.split(".")
    for part in path:
        owner = getattr(owner, part)
    return owner, attr


def _holders(modules: dict):
    """Every module and every class the package defines."""
    for module in modules.values():
        yield module
        for value in vars(module).values():
            if isinstance(value, type) and value.__module__.startswith(PACKAGE):
                yield value


def _functions(modules: dict):
    """Every plain function defined by the package, including methods."""
    seen = set()
    for holder in _holders(modules):
        for value in vars(holder).values():
            fn = getattr(value, "__func__", value)
            if (isinstance(fn, types.FunctionType) and fn.__module__.startswith(PACKAGE)
                    and id(fn) not in seen):
                seen.add(id(fn))
                yield fn


def _references(modules: dict, functions: list, originals: set) -> list:
    """Where the package still refers to an original function."""
    found = []
    for holder in _holders(modules):
        for attr, value in vars(holder).items():
            if id(value) in originals:
                found.append(f"{holder.__name__}.{attr}")
    for fn in functions:
        bound = list(fn.__defaults__ or ()) + list((fn.__kwdefaults__ or {}).values())
        bound += [c.cell_contents for c in fn.__closure__ or () if _cell_filled(c)]
        if any(id(v) in originals for v in bound):
            found.append(fn.__qualname__)
    return found


def _cell_filled(cell) -> bool:
    try:
        cell.cell_contents
    except ValueError:
        return False
    return True
