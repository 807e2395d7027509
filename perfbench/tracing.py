"""Per-layer spans recorded from outside the program.

:func:`installed` wraps a fixed list of monocal functions and puts each
wrapper on every name a caller looks it up by: the defining module and any
module that imported the function by name (``optim`` imports
``sorted_nll_objective`` and ``label_positions`` from ``transform``,
``baselines`` imports ``apply_map_topk``).  A name missing from ``src`` raises
at install time instead of reporting zero.

Each call records a span: name, start, end and the span that caused it.  The
parent is the innermost open span on the same thread; the cells that
``cli._run_cells`` hands to worker threads take the ``_run_cells`` span as
their parent.  Spans stay in memory and are summarised by
:func:`layer_metrics`.
"""

import contextlib
import functools
import importlib
import itertools
import os
import sys
import threading
import time
from dataclasses import dataclass

LAYERS = ("data_io", "core", "transform", "optim", "baselines", "metrics", "cli")

# Wrapped functions: layer (= module under monocal) -> attribute paths.
TARGETS = {
    "data_io": ("read_dataset", "write_dataset", "split_dataset"),
    "core": (
        "validate_logits", "validate_labels", "validate_probs", "validate_distinct",
        "softmax_rows", "nll", "sort_rows", "inverse_sort_rows", "argmax_rows", "one_hot",
    ),
    "transform": (
        "sorted_nll_objective", "apply_map_topk", "label_positions",
        "order_violations", "truncate_training_set",
    ),
    "optim": ("fit_mcct", "init_params", "constraint_violation"),
    "baselines": (
        "fit_ts", "fit_vs", "fit_ets", "fit_hb", "fit_baseline",
        "from_monotone_params", "CalibratedModel.apply", "CalibratedModel.load",
    ),
    "metrics": (
        "compute_report", "ece", "eq_mass_ece", "ece_kde", "kde_bandwidth",
        "ranking_diagnostics", "accuracy",
    ),
    "cli": ("main", "cmd_fit", "cmd_eval", "cmd_compare", "_run_cells"),
}

CELL = "cli.cell"


@dataclass
class Span:
    id: int
    name: str
    parent: int
    start: float
    end: float
    attrs: dict

    @property
    def layer(self):
        return self.name.split(".", 1)[0]

    @property
    def seconds(self):
        return self.end - self.start


def _shape_attrs(name, args, result):
    """Counters measured where the work happens, from arguments and results."""
    if name == "core.sort_rows":
        return {"cells": int(result[0].size)}
    if name == "transform.sorted_nll_objective":
        n, k = args[0].shape
        # (n, k) float64 arrays the kernel materialises: t, t - max, exp,
        # probabilities, residual and the w-gradient product (three in inverse
        # mode).  A count from the code's structure, not a measurement.
        arrays = 6 if args[4] == "direct" else 8
        return {"bytes": 8 * n * k * arrays}
    if name == "data_io.read_dataset":
        path = args[0]
        size = os.path.getsize(path)
        if os.path.exists(path + ".meta.json"):
            size += os.path.getsize(path + ".meta.json")
        return {"bytes": size}
    if name == "optim.fit_mcct":
        return {
            "n": int(len(args[1])),
            "iterations": int(result.iterations),
            "converged": bool(result.converged),
            "dropped": int(result.dropped_samples),
        }
    if name == "cli._run_cells":
        return {"threads": int(args[2])}
    return None


class Tracer:
    """In-memory span recorder; safe to use from several threads."""

    def __init__(self):
        self.spans = []
        self._ids = itertools.count(1)
        self._local = threading.local()

    def _stack(self):
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def current(self):
        stack = self._stack()
        return stack[-1] if stack else None

    def call(self, name, fn, args, kwargs, parent=None):
        stack = self._stack()
        span_id = next(self._ids)
        if parent is None and stack:
            parent = stack[-1]
        stack.append(span_id)
        start = time.perf_counter()
        result = None
        try:
            result = fn(*args, **kwargs)
            return result
        finally:
            end = time.perf_counter()
            stack.pop()
            attrs = _shape_attrs(name, args, result) if result is not None else None
            self.spans.append(Span(span_id, name, parent, start, end, attrs))

    def wrap(self, name, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            return self.call(name, fn, args, kwargs)

        return wrapper

    def wrap_run_cells(self, fn):
        """Wrap ``cli._run_cells`` so each cell becomes a span under the call."""

        @functools.wraps(fn)
        def wrapper(cells, worker, threads):
            parent = self.current()

            def cell(*cell_args):
                return self.call(CELL, worker, cell_args, {}, parent=parent)

            return fn(cells, cell, threads)

        return self.wrap("cli._run_cells", wrapper)


def _monocal_modules():
    return [mod for name, mod in list(sys.modules.items()) if name == "monocal" or name.startswith("monocal.")]


@contextlib.contextmanager
def installed(tracer):
    """Install wrappers on every target for the duration of the block."""
    undo = []
    try:
        for layer, names in TARGETS.items():
            module = importlib.import_module(f"monocal.{layer}")
            for path in names:
                owner_name, _, attr = path.rpartition(".")
                owner = getattr(module, owner_name) if owner_name else module
                original = getattr(owner, attr)
                name = f"{layer}.{path}"
                wrapper = tracer.wrap_run_cells(original) if name == "cli._run_cells" else tracer.wrap(name, original)
                if owner_name:
                    undo.append((owner, attr, original))
                    setattr(owner, attr, wrapper)
                    continue
                for mod in _monocal_modules():
                    for key, value in list(vars(mod).items()):
                        if value is original:
                            undo.append((mod, key, original))
                            setattr(mod, key, wrapper)
        yield tracer
    finally:
        for owner, attr, original in reversed(undo):
            setattr(owner, attr, original)


def wrapped_names():
    return [f"{layer}.{path}" for layer, names in TARGETS.items() for path in names]


def _union_length(intervals, lo, hi):
    total, cur_start, cur_end = 0.0, None, None
    for start, end in sorted((max(s, lo), min(e, hi)) for s, e in intervals):
        if end <= start:
            continue
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        else:
            cur_end = max(cur_end, end)
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def self_times(spans):
    """Span id -> duration minus the part of its interval its children cover."""
    children = {}
    for s in spans:
        children.setdefault(s.parent, []).append((s.start, s.end))
    return {s.id: s.seconds - _union_length(children.get(s.id, ()), s.start, s.end) for s in spans}


def layer_metrics(spans):
    """Per-layer metric name -> (value, unit) from one traced pass."""
    by_id = {s.id: s for s in spans}
    selfs = self_times(spans)

    def named(*names):
        return [s for s in spans if s.name in names]

    def busy(*names):
        return sum(s.seconds for s in named(*names))

    def outermost_in_layer(s):
        p = by_id.get(s.parent)
        while p is not None:
            if p.layer == s.layer:
                return False
            p = by_id.get(p.parent)
        return True

    out = {}
    for layer in LAYERS:
        mine = [s for s in spans if s.layer == layer]
        out[f"{layer}.calls"] = (len(mine), "count")
        out[f"{layer}.busy_s"] = (sum(s.seconds for s in mine if outermost_in_layer(s)), "s")
        out[f"{layer}.self_s"] = (sum(selfs[s.id] for s in mine), "s")

    reads = named("data_io.read_dataset")
    read_s = busy("data_io.read_dataset")
    out["data_io.read_s"] = (read_s, "s")
    out["data_io.read_mb_per_s"] = (sum(s.attrs["bytes"] for s in reads if s.attrs) / 1e6 / read_s if read_s else 0.0, "MB/s")
    out["data_io.write_s"] = (busy("data_io.write_dataset"), "s")
    out["data_io.split_s"] = (busy("data_io.split_dataset"), "s")

    validates = named("core.validate_logits", "core.validate_labels", "core.validate_probs")
    out["core.sort_rows_s"] = (busy("core.sort_rows"), "s")
    out["core.sort_rows_cells"] = (sum(s.attrs["cells"] for s in named("core.sort_rows") if s.attrs), "count")
    out["core.validate_distinct_s"] = (busy("core.validate_distinct"), "s")
    out["core.softmax_rows_s"] = (busy("core.softmax_rows"), "s")
    out["core.validate_s"] = (sum(s.seconds for s in validates), "s")
    out["core.validate_calls"] = (len(validates), "count")

    objectives = named("transform.sorted_nll_objective")
    out["transform.objective_s"] = (busy("transform.sorted_nll_objective"), "s")
    out["transform.objective_calls"] = (len(objectives), "count")
    out["transform.objective_bytes"] = (sum(s.attrs["bytes"] for s in objectives if s.attrs), "B-computed")
    out["transform.apply_s"] = (busy("transform.apply_map_topk"), "s")
    out["transform.label_positions_s"] = (busy("transform.label_positions"), "s")
    out["transform.order_violations_s"] = (busy("transform.order_violations"), "s")

    fits = [s for s in named("optim.fit_mcct") if s.attrs]
    iterations = sum(s.attrs["iterations"] for s in fits)
    fit_ids = {s.id for s in fits}
    fit_objectives = sum(1 for s in objectives if s.parent in fit_ids)
    rows = sum(s.attrs["n"] for s in fits)
    out["optim.fit_mcct_s"] = (busy("optim.fit_mcct"), "s")
    out["optim.solver_self_s"] = (sum(selfs[s.id] for s in named("optim.fit_mcct")), "s")
    out["optim.iterations"] = (iterations, "count")
    out["optim.objective_calls_per_iteration"] = (fit_objectives / iterations if iterations else 0.0, "ratio")
    out["optim.converged_fraction"] = (sum(s.attrs["converged"] for s in fits) / len(fits) if fits else 0.0, "ratio")
    out["optim.kept_fraction"] = (1.0 - sum(s.attrs["dropped"] for s in fits) / rows if rows else 0.0, "ratio")

    for kind in ("ts", "vs", "ets", "hb"):
        out[f"baselines.fit_{kind}_s"] = (busy(f"baselines.fit_{kind}"), "s")
    out["baselines.apply_s"] = (busy("baselines.CalibratedModel.apply"), "s")

    reports = named("metrics.compute_report")
    report_ids = {s.id for s in reports}
    out["metrics.compute_report_s"] = (busy("metrics.compute_report"), "s")
    out["metrics.compute_report_calls"] = (len(reports), "count")
    out["metrics.ece_kde_s"] = (busy("metrics.ece_kde"), "s")
    out["metrics.ece_s"] = (busy("metrics.ece"), "s")
    out["metrics.eq_mass_ece_s"] = (busy("metrics.eq_mass_ece"), "s")
    out["metrics.ranking_s"] = (busy("metrics.ranking_diagnostics"), "s")
    out["metrics.nll_s"] = (sum(s.seconds for s in named("core.nll") if s.parent in report_ids), "s")

    cells = named(CELL)
    pools = [s for s in named("cli._run_cells") if s.attrs]
    capacity = sum(s.attrs["threads"] * s.seconds for s in pools)
    out["cli.command_self_s"] = (sum(selfs[s.id] for s in spans if s.layer == "cli" and s.name != CELL), "s")
    out["cli.cell_busy_s"] = (sum(s.seconds for s in cells), "s")
    out["cli.thread_utilization"] = (out["cli.cell_busy_s"][0] / capacity if capacity else 0.0, "ratio")
    return out
