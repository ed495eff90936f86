"""Spans around the package's public functions, recorded from outside.

The tracer wraps the public functions a workload calls, in every module
namespace that binds them (``cli`` imports most of them by name, and
``summarize`` looks up ``residual_transform``/``ks_exp1`` as globals of
``diagnostics``).  Each call leaves one span: name, parent, wall and
thread-CPU start and end, whether it failed, and a few counts read from its
arguments or result.  Spans stay in memory until the run ends.

Per-event helpers (``apply_event``, ``compensator_increment``) and the
model-internal ``dynamics`` lookups they make are deliberately not wrapped:
a span per event would measure the tracer.  Event and proposal counts come
from the logs instead.
"""

from __future__ import annotations

import functools
import importlib
import itertools
import math
import threading
import time
from contextlib import contextmanager


def _log_counts(args, kwargs, log, names):
    return {"model": names.get(args[0]), "events": len(log), "proposals": log.meta.proposed}


def _arg_len(index):
    def info(args, kwargs, result, names):
        return {"events": len(args[index])}

    return info


def _result_len(args, kwargs, result, names):
    return {"events": len(result)}


def _model_and_log_len(args, kwargs, result, names):
    return {"model": names.get(args[0]), "events": len(args[1])}


# (span name, [(module, attribute), ...], info extractor).  Module names are
# relative to the carma_hawkes package; "" is the package itself.
TARGETS = (
    ("spectral.decompose", [("spectral", "spectral_decompose")], None),
    ("spectral.bound_constant", [("spectral", "bound_constant")], None),
    ("model.load_spec", [("cli", "load_spec"), ("", "load_spec")], None),
    ("model.dynamics", [("thinning", "dynamics"), ("", "dynamics")], None),
    (
        "model.validate",
        [("cli", "validate"), ("thinning", "validate"), ("diagnostics", "validate"), ("", "validate")],
        None,
    ),
    ("model.spec_hash", [("thinning", "spec_hash"), ("diagnostics", "spec_hash")], None),
    ("model.stationary_rates", [("diagnostics", "stationary_rates")], None),
    ("thinning.simulate", [("cli", "simulate"), ("", "simulate")], _log_counts),
    ("thinning.write_events_csv", [("cli", "write_events_csv"), ("", "write_events_csv")], _arg_len(0)),
    ("thinning.write_meta_json", [("cli", "write_meta_json")], None),
    ("thinning.read_events_csv", [("cli", "read_events_csv"), ("", "read_events_csv")], _result_len),
    ("diagnostics.summarize", [("cli", "summarize"), ("", "summarize")], _model_and_log_len),
    ("diagnostics.residual_transform", [("diagnostics", "residual_transform")], _model_and_log_len),
    ("diagnostics.ks_exp1", [("diagnostics", "ks_exp1")], _arg_len(0)),
    ("diagnostics.write_report_json", [("cli", "write_report_json")], None),
    ("diagnostics.write_residuals_csv", [("cli", "write_residuals_csv")], _arg_len(0)),
    ("cli.main", [("cli", "main")], "exit"),
    ("cli.cmd_simulate", [("cli", "cmd_simulate")], "exit"),
    ("cli.cmd_diagnose", [("cli", "cmd_diagnose")], "exit"),
)

LAYERS = ("spectral", "model", "thinning", "diagnostics", "cli")


class Tracer:
    """In-memory span recorder.

    A span records (id, name, parent, wall0, wall1, cpu0, cpu1, thread,
    failed, info).  Calls made on pool threads have no open span of their
    own thread; their parent is the innermost open span of the main thread,
    which is the CLI command that started the pool.
    """

    def __init__(self):
        self.spans: list[tuple] = []
        self.spec_names: dict = {}  # spec -> model name, for per-model counts
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._main_stack: list[int] = []
        self._main_ident = threading.get_ident()
        self._paused = False

    def _stack(self) -> list[int]:
        if threading.get_ident() == self._main_ident:
            return self._main_stack
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _open(self):
        stack = self._stack()
        if stack:
            parent = stack[-1]
        else:
            parent = self._main_stack[-1] if self._main_stack else None
        sid = next(self._ids)
        stack.append(sid)
        return stack, sid, parent

    def _close(self, stack, sid, parent, name, w0, c0, failed, info):
        c1 = time.thread_time()
        w1 = time.perf_counter()
        stack.pop()
        self.spans.append(
            (sid, name, parent, w0, w1, c0, c1, threading.get_ident(), failed, info)
        )

    @contextmanager
    def span(self, name):
        """A span around a block of the benchmark's own code (a phase)."""
        stack, sid, parent = self._open()
        w0, c0 = time.perf_counter(), time.thread_time()
        try:
            yield
        finally:
            self._close(stack, sid, parent, name, w0, c0, False, None)

    @contextmanager
    def paused(self):
        """Calls made inside this block leave no spans (correctness checks)."""
        self._paused = True
        try:
            yield
        finally:
            self._paused = False

    def wrap(self, name, fn, info):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if tracer._paused:
                return fn(*args, **kwargs)
            stack, sid, parent = tracer._open()
            w0, c0 = time.perf_counter(), time.thread_time()
            failed, extra = True, None
            try:
                result = fn(*args, **kwargs)
                if info == "exit":
                    failed = result != 0
                else:
                    failed = False
                    if info is not None:
                        extra = info(args, kwargs, result, tracer.spec_names)
                return result
            finally:
                tracer._close(stack, sid, parent, name, w0, c0, failed, extra)

        return traced

    def install(self, package) -> None:
        """Replace every target function in every namespace that binds it."""
        for name, places, info in TARGETS:
            wrapped = None
            for module_name, attr in places:
                module = (
                    importlib.import_module(f"{package.__name__}.{module_name}")
                    if module_name
                    else package
                )
                if wrapped is None:
                    wrapped = self.wrap(name, getattr(module, attr), info)
                setattr(module, attr, wrapped)


# ---------------------------------------------------------------------------
# derivation of per-layer metrics from the recorded spans


def _union_length(intervals, lo, hi) -> float:
    total, end = 0.0, lo
    for a, b in sorted(intervals):
        a, b = max(a, end), min(b, hi)
        if b > a:
            total += b - a
            end = b
    return total


def self_times(spans):
    """Per span id: (self wall seconds, self thread-CPU seconds).

    Self wall is the span's duration less the part of it covered by its
    children, on any thread.  Self CPU subtracts the CPU time of children
    that ran on the span's own thread.
    """
    children: dict[int, list[tuple]] = {}
    for s in spans:
        children.setdefault(s[2], []).append(s)
    out = {}
    for s in spans:
        sid, _, _, w0, w1, c0, c1, thread = s[:8]
        kids = children.get(sid, [])
        covered = _union_length([(k[3], k[4]) for k in kids], w0, w1)
        kid_cpu = sum(k[6] - k[5] for k in kids if k[7] == thread)
        out[sid] = (w1 - w0 - covered, c1 - c0 - kid_cpu)
    return out


def _under(spans, root_name):
    """Ids of the spans below any span named root_name."""
    parent_of = {s[0]: s[2] for s in spans}
    roots = {s[0] for s in spans if s[1] == root_name}
    found = set()
    for s in spans:
        p = s[2]
        while p is not None and p not in roots:
            p = parent_of.get(p)
        if p is not None:
            found.add(s[0])
    return found


def _ratio(num: float, den: float, scale: float = 1.0) -> float:
    return num / den * scale if den else 0.0


def layer_metrics(spans, per_model_proposals, per_model_residual) -> dict[str, float]:
    """Per-layer metrics; a metric whose calls did not occur reads 0.

    Per-event and per-call costs use self thread-CPU time, so that the CLI's
    worker threads waiting for the interpreter lock are not counted twice.
    `cli.*_self_s` use self wall time, which includes that waiting.
    """
    selfs = self_times(spans)
    setup = _under(spans, "phase.setup")
    by_name: dict[str, list[tuple]] = {}
    for s in spans:
        by_name.setdefault(s[1], []).append(s)

    def cpu(name, only=None, model=None):
        return sum(
            selfs[s[0]][1]
            for s in by_name.get(name, [])
            if (only is None or s[0] in only)
            and (model is None or (s[9] and s[9].get("model") == model))
        )

    def count(name, only=None):
        return sum(1 for s in by_name.get(name, []) if only is None or s[0] in only)

    def info_sum(name, key, model=None):
        return sum(
            s[9][key]
            for s in by_name.get(name, [])
            if s[9] and (model is None or s[9].get("model") == model)
        )

    sim_cpu = cpu("thinning.simulate")
    events = info_sum("thinning.simulate", "events")
    proposals = info_sum("thinning.simulate", "proposals")
    summarized = info_sum("diagnostics.summarize", "events")
    m = {
        "spectral.decompose_us": _ratio(cpu("spectral.decompose", setup), count("spectral.decompose", setup), 1e6),
        "spectral.bound_constant_us": _ratio(
            cpu("spectral.bound_constant", setup), count("spectral.bound_constant", setup), 1e6
        ),
        "model.dynamics_ms": _ratio(cpu("model.dynamics", setup), count("model.dynamics", setup), 1e3),
        "model.validate_ms": _ratio(cpu("model.validate", setup), count("model.validate", setup), 1e3),
        "thinning.us_per_event": _ratio(sim_cpu, events, 1e6),
        "thinning.us_per_proposal": _ratio(sim_cpu, proposals, 1e6),
        "thinning.proposals_per_event": _ratio(proposals, events),
        "thinning.write_csv_us_per_event": _ratio(
            cpu("thinning.write_events_csv"), info_sum("thinning.write_events_csv", "events"), 1e6
        ),
        "thinning.read_csv_us_per_event": _ratio(
            cpu("thinning.read_events_csv"), info_sum("thinning.read_events_csv", "events"), 1e6
        ),
        "diagnostics.residual_us_per_event": _ratio(cpu("diagnostics.residual_transform"), summarized, 1e6),
        "diagnostics.ks_us_per_event": _ratio(
            cpu("diagnostics.ks_exp1"), info_sum("diagnostics.ks_exp1", "events"), 1e6
        ),
        "diagnostics.summarize_self_ms": _ratio(
            cpu("diagnostics.summarize"), count("diagnostics.summarize"), 1e3
        ),
        "diagnostics.write_residuals_us_per_event": _ratio(
            cpu("diagnostics.write_residuals_csv"),
            info_sum("diagnostics.write_residuals_csv", "events"),
            1e6,
        ),
    }
    for model in per_model_proposals:
        m[f"thinning.proposals_per_event.{model}"] = _ratio(
            info_sum("thinning.simulate", "proposals", model),
            info_sum("thinning.simulate", "events", model),
        )
    for model in per_model_residual:
        m[f"diagnostics.residual_us_per_event.{model}"] = _ratio(
            cpu("diagnostics.residual_transform", model=model),
            info_sum("diagnostics.summarize", "events", model),
            1e6,
        )
    for name in ("simulate", "diagnose"):
        spans_of = by_name.get(f"cli.cmd_{name}", [])
        m[f"cli.{name}_self_s"] = _ratio(sum(selfs[s[0]][0] for s in spans_of), len(spans_of))
    for layer in LAYERS:
        mine = [s for s in spans if s[1].startswith(layer + ".")]
        m[f"{layer}.calls"] = len(mine)
        m[f"{layer}.failed"] = sum(1 for s in mine if s[8])
    return {k: (v if math.isfinite(v) else 0.0) for k, v in m.items()}
