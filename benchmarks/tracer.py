"""Timing spans around the package's public functions, installed from outside.

:class:`Tracer` wraps named functions of ``selftrig`` modules in spans.
A wrapper is bound to every module attribute that refers to the original
function, because modules import each other's functions by name (the
simulator holds its own references to ``decide``, ``feasible_set`` and
``reserve``; the CLI to ``build_gain_table`` and ``run_periodic``).  The
originals are restored by :meth:`Tracer.remove`.

Spans are kept in memory as ``[name, start_ns, end_ns, parent]`` records;
self time is a span's duration minus the durations of its direct children.
A target that no longer exists, or is never called, reports zero calls.
"""
from __future__ import annotations

import contextlib
import functools
import importlib
import statistics
import sys
from time import perf_counter_ns

PACKAGE = "selftrig"

# Functions wrapped in the traced run, as "<module>.<function>".
TARGETS = (
    "model.lift_range",
    "synthesis.solve_periodic_riccati",
    "synthesis.build_gain_table",
    "synthesis.stability_certificate",
    "synthesis.serialize_gain_table",
    "synthesis.deserialize_gain_table",
    "controller.decide",
    "scheduler.feasible_set",
    "scheduler.reserve",
    "simulator.step_plant",
    "simulator.run_self_triggered",
    "simulator.run_periodic",
    "simulator.sweep_alpha",
    "simulator.write_trace_csv",
    "simulator.write_txlog_csv",
    "scenario.load_scenario",
)

# The two event loops; the light tracer wraps only these to time loop-steps.
EVENT_LOOPS = ("simulator.run_self_triggered", "simulator.run_periodic")


def _arg(args, kwargs, pos, name):
    if name in kwargs:
        return kwargs[name]
    return args[pos] if len(args) > pos else None


def _count_candidates(counters, args, kwargs, result):
    feasible = _arg(args, kwargs, 2, "feasible")
    counters["controller.decide.candidates"] += len(feasible)


def _min_feasible(counters, args, kwargs, result):
    size = len(result)
    key = "scheduler.feasible_set.min_size"
    counters[key] = size if key not in counters else min(counters[key], size)


def _count_loop_steps(counters, args, kwargs, result):
    scn = _arg(args, kwargs, 0, "scn")
    counters["simulator.loop_steps"] += scn.horizon * len(scn.loops)


# Counts taken at a span boundary, from the call's arguments or result.
HOOKS = {
    "controller.decide": _count_candidates,
    "scheduler.feasible_set": _min_feasible,
    "simulator.run_self_triggered": _count_loop_steps,
    "simulator.run_periodic": _count_loop_steps,
}


class Tracer:
    """Span recorder; a no-op when created with ``enabled=False``."""

    def __init__(self, targets=TARGETS, enabled: bool = True):
        self.targets = tuple(targets) if enabled else ()
        self.enabled = enabled
        self.spans = []
        self.counters = {}
        self._stack = []
        self._patched = []

    @contextlib.contextmanager
    def span(self, name: str):
        if not self.enabled:
            yield
            return
        rec = [name, 0, 0, self._stack[-1] if self._stack else -1]
        self._stack.append(len(self.spans))
        self.spans.append(rec)
        rec[1] = perf_counter_ns()
        try:
            yield
        finally:
            rec[2] = perf_counter_ns()
            self._stack.pop()

    def _wrap(self, name, fn):
        spans, stack, counters = self.spans, self._stack, self.counters
        hook = HOOKS.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            rec = [name, 0, 0, stack[-1] if stack else -1]
            stack.append(len(spans))
            spans.append(rec)
            rec[1] = perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[2] = perf_counter_ns()
                stack.pop()
            if hook is not None:
                try:
                    hook(counters, args, kwargs, result)
                except (TypeError, AttributeError):
                    pass  # signature changed: the count is skipped, the call stands
            return result

        return wrapper

    def install(self) -> None:
        self.counters.update(
            {"controller.decide.candidates": 0, "simulator.loop_steps": 0}
        )
        modules = [
            mod for key, mod in list(sys.modules.items())
            if mod is not None and (key == PACKAGE or key.startswith(PACKAGE + "."))
        ]
        for target in self.targets:
            module_name, fn_name = target.rsplit(".", 1)
            try:
                home = importlib.import_module(f"{PACKAGE}.{module_name}")
            except ImportError:
                continue
            original = getattr(home, fn_name, None)
            if original is None:
                continue
            wrapper = self._wrap(target, original)
            for mod in modules:
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, attr, wrapper)
                        self._patched.append((mod, attr, original))

    def remove(self) -> None:
        for mod, attr, original in reversed(self._patched):
            setattr(mod, attr, original)
        self._patched.clear()

    @contextlib.contextmanager
    def installed(self):
        self.install()
        try:
            yield self
        finally:
            self.remove()


def self_times(spans) -> tuple[list, int]:
    """Self time (ns) of every span, and the number of broken nestings.

    A nesting is broken when a span's self time is negative or its direct
    children's self times add up to more than its own duration.
    """
    child_total = [0] * len(spans)
    child_self = [0] * len(spans)
    for rec in spans:
        if rec[3] >= 0:
            child_total[rec[3]] += rec[2] - rec[1]
    selfs = [rec[2] - rec[1] - child_total[j] for j, rec in enumerate(spans)]
    for j, rec in enumerate(spans):
        if rec[3] >= 0:
            child_self[rec[3]] += selfs[j]
    broken = sum(
        1 for j, rec in enumerate(spans)
        if selfs[j] < 0 or child_self[j] > rec[2] - rec[1]
    )
    return selfs, broken


def summarize(spans, root_prefix: str | None = None) -> dict:
    """Per-name ``calls``, total ``self_ns`` and median ``self_p50_ns``, plus
    ``total_ns`` (inclusive duration).  With ``root_prefix``, only spans whose
    outermost ancestor's name starts with it are counted."""
    selfs, _ = self_times(spans)
    roots = []
    for rec in spans:
        roots.append(rec[0] if rec[3] < 0 else roots[rec[3]])
    per_name = {}
    for j, rec in enumerate(spans):
        if root_prefix is not None and not roots[j].startswith(root_prefix):
            continue
        entry = per_name.setdefault(rec[0], {"selfs": [], "total_ns": 0})
        entry["selfs"].append(selfs[j])
        entry["total_ns"] += rec[2] - rec[1]
    return {
        name: {
            "calls": len(e["selfs"]),
            "self_ns": sum(e["selfs"]),
            "self_p50_ns": statistics.median(e["selfs"]),
            "total_ns": e["total_ns"],
        }
        for name, e in per_name.items()
    }


def write_spans(spans, path) -> None:
    """Dump the span list as CSV: index, name, start_ns, end_ns, parent."""
    with open(path, "w") as fh:
        fh.write("index,name,start_ns,end_ns,parent\n")
        for j, (name, start, end, parent) in enumerate(spans):
            fh.write(f"{j},{name},{start},{end},{parent}\n")
