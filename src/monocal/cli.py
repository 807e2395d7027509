"""Command-line workflows: generate data, fit calibrators, evaluate, and sweep.

Every command writes a ``<out>.manifest.json`` beside its primary output
listing the command, its inputs, every emitted result file, and wall times.
``fit``, ``compare`` and both sweeps fit through one step (``_fitter``), and
the manifests of the grid commands list each successful fit's diagnostics
under ``fits``.  Result files themselves contain no timing, so reruns with identical flags
are byte-identical.
"""

import argparse
import dataclasses
import functools
import json
import os
import sys
import threading
import time
import warnings

import numpy as np

from . import baselines, core, data_io, metrics, optim

METHODS = baselines.KINDS
UNCALIBRATED = "uncalibrated"

SCALAR_COLUMNS = metrics.SCALAR_FIELDS
# Higher is better only for accuracy; every other column ranks ascending.
RANK_DESCENDING = {"accuracy"}


def _usable_cpus():
    """CPUs this process may run on: its affinity mask where the platform has one, else the CPU count."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _once():
    """``once(key, compute)``: ``compute()``'s result, computed once per key and then shared.

    A per-key lock makes a later caller wait for a computation in progress,
    not repeat it, on whichever thread it runs.
    """
    shared, locks = {}, {}

    def once(key, compute):
        with locks.setdefault(key, threading.Lock()):  # one atomic dict call
            if key not in shared:
                shared[key] = compute()
        return shared[key]

    return once


def _fitter(max_iterations, trace=None, threads=1):
    """``fit(key, method, z, y, topk=None)``: a fitted model and its diagnostics, sharing one solve per key.

    A key names one calibration set and ``topk``.  mcct-i is the mcct solve,
    whose model file writes its scales as divisors, and both report the
    ``optim.FitResult`` fields other than the parameters.  ts, vs and both
    ets kinds share one temperature (``baselines.fit_ts``), which vs starts
    from, and the two ets kinds share the ensemble's terms
    (``baselines.ensemble_terms``).  A baseline reports its calibration NLL
    and the iterations and convergence of the Newton solves that fitted it,
    the shared temperature's included (null and true for hb, which runs
    none).  A later method waits for a shared solve rather than repeat it
    (``_once``).  ``topk``, ``max_iterations`` (the steps of the temperature
    and map stages together), ``trace`` (which receives the per-iterate
    records of both stages) and ``threads`` (of the fit's row-block walks)
    only affect mcct/mcct-i.
    """
    once = _once()

    def fit(key, method, z, y, topk=None):
        if method in baselines.MONOTONE_MODES:
            result = once((key, baselines.MCCT), lambda: optim.fit_mcct(
                z, y, k=topk, max_iterations=max_iterations, trace=trace, threads=threads
            ))
            info = {f.name: getattr(result, f.name) for f in dataclasses.fields(result) if f.name != "params"}
            return baselines.from_monotone_params(result.params, method), info
        if method in (baselines.TS, baselines.VS, *baselines.ENSEMBLE_LOSSES):
            model = ts = once((key, baselines.TS), lambda: baselines.fit_ts(z, y))
            if method == baselines.VS:
                model = baselines.fit_vs(z, y, ts)
            elif method != baselines.TS:
                terms = once((key, "ets"), lambda: baselines.ensemble_terms(z, y, ts))
                model = baselines.fit_ets(z, y, baselines.ENSEMBLE_LOSSES[method], terms)
        else:
            model = baselines.fit_baseline(method, z, y)
        iterations, converged = model._solver or (None, True)
        return model, {"final_loss": core.nll(model.apply(z), y), "iterations": iterations, "converged": converged}

    return fit


def _applied_kind(method):
    """The kind whose map ``method``'s model applies: mcct-i applies the mcct map, so the two share one test report."""
    return baselines.MCCT if method in baselines.MONOTONE_MODES else method


class _Stopwatch:
    """Wall times of consecutive stages, for a manifest's ``wall_time_s``."""

    def __init__(self):
        self.stages = {}
        self._last = time.perf_counter()

    def lap(self, stage):
        """Record the time since the previous lap (or the start) as ``stage``; return it."""
        start, self._last = self._last, time.perf_counter()
        self.stages[stage] = self._last - start
        return self.stages[stage]

    def with_total(self):
        return {**self.stages, "total": sum(self.stages.values())}


def _write_manifest(args, outputs, wall_time_s, **fields):
    """Write ``<args.out>.manifest.json``: the command, its inputs, its own ``fields``, outputs and wall times."""
    inputs = {name: getattr(args, name) for name in ("data", "model") if hasattr(args, name)}
    doc = {"command": args.command, "inputs": inputs, **fields, "outputs": outputs, "wall_time_s": wall_time_s}
    data_io.write_json(f"{args.out}.manifest.json", doc)


def _json_base(out):
    return out[: -len(".json")] if out.endswith(".json") else out


def _rank(values, descending=False):
    """1-based ranks, best first; ties and order resolved by list position."""
    keyed = [(-v if descending else v, i) for i, v in enumerate(values)]
    ranks = [0] * len(values)
    for rank, (_, i) in enumerate(sorted(keyed), start=1):
        ranks[i] = rank
    return ranks


def _run_cells(cells, worker, threads):
    """Evaluate ``worker(*cell)`` for independent cells on up to ``threads`` workers (``core._map``).

    Results are collected by cell index, so output order and content do not
    depend on scheduling.  Failures are captured per cell as strings.  The
    mcct-i cells start last, so they find the solve and the test report they
    share with mcct (see ``_fitter`` and ``_applied_kind``) done rather than
    wait on them.
    """
    results = [None] * len(cells)
    order = sorted(range(len(cells)), key=lambda i: baselines.MCCT_I in cells[i])

    def guarded(i):
        try:
            results[i] = ("ok", worker(*cells[i]))
        except Exception as exc:  # recorded per-cell, run continues
            results[i] = ("error", f"{type(exc).__name__}: {exc}")

    core._map(guarded, order, threads)
    return results


def _grid(cells, run_cell, header, threads, clock):
    """Run ``cells`` through ``_run_cells``; return the result rows and the manifest's records.

    A cell's values are the first columns of ``header``.  ``run_cell(*cell)``
    returns the values that follow them, and each row ends in its status,
    together with the diagnostics of the cell's fit (``None`` for a cell
    that fits nothing).  A failed cell's row is its key, then ``None``s,
    then the error.  The records hold, in cell order, each failed cell's
    key by column name plus the ``error`` under ``failures``, and each
    successful fit's key plus its diagnostics under ``fits``.
    """
    results = _run_cells(cells, run_cell, threads)
    clock.lap("cells")
    rows, records = [], {"failures": [], "fits": []}
    for cell, (status, payload) in zip(cells, results):
        key = dict(zip(header, cell))
        if status == "ok":
            values, info = payload
            rows.append([*cell, *values, "ok"])
            if info is not None:
                records["fits"].append({**key, **info})
        else:
            rows.append([*cell] + [None] * (len(header) - len(cell) - 1) + [payload])
            records["failures"].append({**key, "error": payload})
    return rows, records


def _write_grid(args, csv_path, json_path, header, rows, doc, records, clock, fields, times=None):
    """Write a grid's CSV, its JSON ``doc`` and the manifest; 1 if any cell failed, else 0.

    ``records`` are ``_grid``'s, ``fields`` the command's own manifest
    entries and ``times`` extra ``wall_time_s`` entries.  The primary
    output, ``args.out``, is one of the two paths and is listed first.
    """
    data_io.write_csv(csv_path, [header, *rows])
    data_io.write_json(json_path, doc)
    clock.lap("write")
    outputs = [args.out, json_path if csv_path == args.out else csv_path]
    wall_time_s = {**clock.with_total(), **(times or {})}
    _write_manifest(args, outputs, wall_time_s, **fields, max_iterations=args.max_iterations, seed=args.seed, **records)
    return 1 if records["failures"] else 0


def _report(top, y, base, bins):
    """The report's scalars for a test set's top-label statistics ``top`` against its uncalibrated ``base``."""
    return list(metrics.compute_report(top, y, base, num_bins=bins).scalars().values())


def cmd_gen_synth(args):
    cfg = data_io.SynthConfig(**{f.name: getattr(args, f.name) for f in dataclasses.fields(data_io.SynthConfig)})
    fmt = data_io.file_format(args.out, args.format)
    clock = _Stopwatch()
    z, y, true_probs = data_io.generate_synthetic(cfg)
    data_io.write_dataset(args.out, z, y, fmt=fmt)
    true_path = f"{args.out}.true_probs.{fmt}"
    data_io.write_matrix(true_path, true_probs, fmt=fmt)
    clock.lap("generate")
    outputs = [args.out, true_path]
    if fmt == data_io.RAW_BINARY:
        outputs += [args.out + data_io.SIDECAR_SUFFIX, true_path + data_io.SIDECAR_SUFFIX]
    config = {key: value for key, value in dataclasses.asdict(cfg).items() if key != "seed"}
    _write_manifest(args, outputs, clock.stages, config=config, seed=args.seed)
    return 0


def cmd_fit(args):
    clock = _Stopwatch()
    z, y = data_io.read_dataset(args.data, args.format)
    clock.lap("read")
    monotone = args.method in baselines.MONOTONE_MODES
    for flag in ("trace", "topk"):
        if getattr(args, flag) and not monotone:
            warnings.warn(f"--{flag} only affects mcct/mcct-i; ignored for {args.method}")
    # An ignored trace file is neither written nor named in the manifest.
    trace_path = args.trace if monotone else None
    threads = _usable_cpus() if monotone else 1
    if not monotone:
        # The baselines read the whole matrix: take it once, not at every step
        # of the fit that checks it.
        z = np.asarray(z)
    # The records are written once the fit returns, so a failing fit leaves the file as it was.
    records = []
    trace = records.append if trace_path else None
    model, info = _fitter(args.max_iterations, trace, threads)(None, args.method, z, y, args.topk)
    clock.lap("fit")
    if trace_path:
        with open(trace_path, "w") as fh:
            fh.writelines(json.dumps(record) + "\n" for record in records)
    model.save(args.out)
    clock.lap("write")
    fields = {"method": args.method, "topk": args.topk, "max_iterations": args.max_iterations, "trace": trace_path}
    _write_manifest(args, [args.out], clock.stages, **fields, threads=threads, fit=info)
    if not info["converged"]:
        print(f"fit did not converge; best iterate written to {args.out}", file=sys.stderr)
        return 3
    return 0


def cmd_eval(args):
    clock = _Stopwatch()
    z, y = data_io.read_dataset(args.data, args.format)
    model = baselines.CalibratedModel.load(args.model)
    clock.lap("read")
    threads = _usable_cpus()
    top, base = metrics._top_labels((model.apply, core.softmax_rows), z, y, threads)
    clock.lap("apply")
    report = metrics.compute_report(top, y, base, num_bins=args.bins)
    clock.lap("metrics")
    data_io.write_json(args.out, report.to_json())
    reliability_path = _json_base(args.out) + ".reliability.csv"
    with open(reliability_path, "w") as fh:
        fh.write(report.bins.to_csv())
    # For a binary file "read" is its sidecar and labels (and the model), and
    # "apply" one walk that reads each logit block and takes the model's and
    # the raw softmax's top-label statistics from it.
    _write_manifest(args, [args.out, reliability_path], clock.stages, bins=args.bins, threads=threads)
    return 0


def cmd_compare(args):
    clock = _Stopwatch()
    z, y = data_io.read_dataset(args.data, args.format)
    clock.lap("read")
    seeds = [args.seed + i for i in range(args.runs)]

    splits = {seed: data_io.split_dataset(z, y, args.split, seed) for seed in seeds}
    bases = {seed: metrics._top_labels(core.softmax_rows, *splits[seed][1]) for seed in seeds}
    fit, evaluated = _fitter(args.max_iterations), _once()
    clock.lap("split")

    def run_cell(method, seed):
        (zc, yc), (zt, yt) = splits[seed]
        if method == UNCALIBRATED:
            return _report(bases[seed], yt, bases[seed], args.bins), None
        model, info = fit(seed, method, zc, yc)
        key = (seed, _applied_kind(method))
        return evaluated(key, lambda: _report(metrics._top_labels(model.apply, zt, yt), yt, bases[seed], args.bins)), info

    all_methods = [UNCALIBRATED] + args.methods
    header = ["method", "seed"] + list(SCALAR_COLUMNS) + ["status"]
    cells = [(method, seed) for method in all_methods for seed in seeds]
    rows, records = _grid(cells, run_cell, header, args.threads, clock)
    per_seed = [
        {"method": method, "seed": seed, "status": "ok", **dict(zip(SCALAR_COLUMNS, values))}
        if status == "ok"
        else {"method": method, "seed": seed, "status": "error", "error": status}
        for method, seed, *values, status in rows
    ]

    means = {}
    for method in all_methods:
        reports = [row[2:-1] for row in rows if row[0] == method and row[-1] == "ok"]
        if reports:
            means[method] = {
                c: float(np.mean(values)) if None not in values else None
                for c, values in zip(SCALAR_COLUMNS, zip(*reports))
            }
    for method in means:
        rows.append([method, "mean"] + list(means[method].values()) + ["ok"])

    rank_by_column = {}
    for c in SCALAR_COLUMNS:
        values = [means[m][c] for m in means]
        if None in values:
            rank_by_column[c] = {m: None for m in means}
        else:
            rank_by_column[c] = dict(zip(means, _rank(values, descending=c in RANK_DESCENDING)))
    for method in means:
        rows.append([method, "rank"] + [rank_by_column[c][method] for c in SCALAR_COLUMNS] + ["ok"])

    doc = {
        "methods": all_methods,
        "seeds": seeds,
        "split": args.split,
        "per_seed": per_seed,
        "mean": means,
        "rank": rank_by_column,
    }
    fields = {"methods": args.methods, "split": args.split, "runs": args.runs}
    return _write_grid(args, _json_base(args.out) + ".csv", args.out, header, rows, doc, records, clock, fields)


def cmd_sweep_size(args):
    clock = _Stopwatch()
    z, y = data_io.read_dataset(args.data, args.format)
    clock.lap("read")
    methods, fractions = args.methods, args.fractions
    seeds = args.seeds or [args.seed]

    (zc, yc), (zt, yt) = data_io.split_dataset(z, y, args.split, args.seed)
    base = metrics._top_labels(core.softmax_rows, zt, yt)
    n_cal = zc.shape[0]
    fit, evaluated = _fitter(args.max_iterations), _once()
    clock.lap("split")

    def run_cell(fraction, seed, method):
        size = int(round(fraction * n_cal))
        if size < 2:
            raise ValueError(f"subsample of {size} samples is too small to fit")
        if size >= n_cal:
            zs, ys = zc, yc
        else:
            idx = np.random.default_rng(seed).permutation(n_cal)[:size]
            zs, ys = zc[idx], yc[idx]
        # The full set is every seed's subsample, so its fits and reports are shared across seeds.
        key = (size, seed if size < n_cal else None)
        model, info = fit(key, method, zs, ys)
        report = evaluated(
            (key, _applied_kind(method)), lambda: _report(metrics._top_labels(model.apply, zt, yt), yt, base, args.bins)
        )
        return [size] + report, info

    header = ["fraction", "seed", "method", "n_calib"] + list(SCALAR_COLUMNS) + ["status"]
    cells = [(f, s, m) for f in fractions for s in seeds for m in methods]
    rows, records = _grid(cells, run_cell, header, args.threads, clock)
    doc = {
        "rows": [dict(zip(header, row)) for row in rows],
        "fractions": fractions,
        "seeds": seeds,
        "methods": methods,
    }
    fields = {"methods": methods, "fractions": fractions, "seeds": seeds, "split": args.split}
    return _write_grid(args, args.out, args.out + ".json", header, rows, doc, records, clock, fields)


def cmd_sweep_topk(args):
    clock = _Stopwatch()
    z, y = data_io.read_dataset(args.data, args.format)
    clock.lap("read")

    (zc, yc), (zt, yt) = data_io.split_dataset(z, y, args.split, args.seed)
    # The cells run one at a time, so each one's row-block walks take every CPU.
    threads = _usable_cpus()
    base = metrics._top_labels(core.softmax_rows, zt, yt, threads)
    clock.lap("split")

    fit, fit_per_k = _fitter(args.max_iterations, threads=threads), {}
    counts = ["dropped_samples", "iterations", "converged"]

    def run_cell(k):
        fit_clock = _Stopwatch()
        model, info = fit(k, baselines.MCCT, zc, yc, topk=k)
        fit_per_k[str(k)] = fit_clock.lap("fit")
        top = metrics._top_labels(model.apply, zt, yt, threads)
        return _report(top, yt, base, args.bins) + [info[c] for c in counts], info

    header = ["k"] + list(SCALAR_COLUMNS) + counts + ["status"]
    # One worker runs the cells one at a time: the per-k fit time goes into the manifest.
    rows, records = _grid([(k,) for k in args.kvalues], run_cell, header, 1, clock)
    doc = {"rows": [dict(zip(header, row)) for row in rows]}
    fields = {"kvalues": args.kvalues, "split": args.split, "threads": threads}
    times = {"fit_per_k": fit_per_k}
    return _write_grid(args, args.out, args.out + ".json", header, rows, doc, records, clock, fields, times)


def _checked(parse, ok, message):
    """An argparse type: ``parse(text)`` if it parses and ``ok`` holds of it, else ``message.format(text)``."""

    def check(text):
        try:
            value = parse(text)
            if ok(value):
                return value
        except ValueError:
            pass
        raise argparse.ArgumentTypeError(message.format(text))

    return check


def _comma_list(check, noun):
    """An argparse type: the non-blank items of a comma-separated list, each through ``check``; at least one, none repeated."""

    def parse(text):
        items = [check(s.strip()) for s in text.split(",") if s.strip()]
        repeats = [v for i, v in enumerate(items) if v in items[:i]]
        if repeats:
            raise argparse.ArgumentTypeError(f"repeated {noun} {repeats[0]!r} in {text!r}")
        return items

    return _checked(parse, bool, f"need at least one {noun}, got {{!r}}")


_positive_int = _checked(int, lambda v: v >= 1, "need a positive integer, got {!r}")
_rank_count = _checked(int, lambda v: v >= 2, "need a positive integer of at least 2, got {!r}")
_seed = _checked(int, lambda v: v >= 0, "seeds must be integers of at least 0, got {!r}")
_split_fraction = _checked(float, lambda v: 0.0 < v < 1.0, "split must lie strictly between 0 and 1, got {!r}")
_method_list = _comma_list(_checked(str, METHODS.__contains__, f"unknown methods [{{!r}}]; choose from {METHODS}"), "method")
_fraction_list = _comma_list(_checked(float, lambda v: 0.0 < v <= 1.0, "fractions must lie in (0, 1], got {!r}"), "fraction")
_seed_list = _comma_list(_seed, "seed")
_kvalue_list = _comma_list(_rank_count, "k value")


@functools.cache
def _build_parser():
    """The command-line parser, built once per process; parsing does not change it."""
    parser = argparse.ArgumentParser(
        prog="monocal",
        description="Order-preserving post-hoc calibration of classifier logits.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    seeded = argparse.ArgumentParser(add_help=False)
    seeded.add_argument("--seed", type=_seed, default=0, help="base random seed (default 0)")
    threaded = argparse.ArgumentParser(add_help=False)
    threaded.add_argument("--threads", type=_positive_int, default=1, help="parallel workers for independent cells")
    binned = argparse.ArgumentParser(add_help=False)
    binned.add_argument("--bins", type=_positive_int, default=metrics.NUM_BINS, help="ECE bins (default %(default)s)")
    dataset = argparse.ArgumentParser(add_help=False)
    dataset.add_argument("--data", required=True, help="dataset file")
    split = argparse.ArgumentParser(add_help=False)
    split.add_argument("--split", type=_split_fraction, default=0.5, help="calibration fraction (default %(default)s)")
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument(
        "--format",
        choices=data_io.FORMATS,
        default=None,
        help="dataset file format; inferred from the file extension by default",
    )

    solver = argparse.ArgumentParser(add_help=False)
    solver.add_argument(
        "--max-iterations",
        type=_positive_int,
        default=optim.MAX_ITERATIONS,
        help=f"mcct/mcct-i solver iteration limit, temperature and map stages together (default {optim.MAX_ITERATIONS})",
    )
    # The parents of compare and the sweeps.
    grid = [dataset, common, seeded, solver, binned, split]

    p = sub.add_parser("gen-synth", parents=[common, seeded], help="generate a synthetic logit dataset")
    for f in dataclasses.fields(data_io.SynthConfig):
        if f.name != "seed":
            p.add_argument("--" + f.name.replace("_", "-"), type=f.type, default=f.default)
    p.add_argument("--out", required=True)

    p = sub.add_parser("fit", parents=[dataset, common, solver], help="fit a calibrator on a dataset")
    p.add_argument("--method", required=True, choices=METHODS)
    p.add_argument("--topk", type=_rank_count, default=None, help="retained ranks for mcct/mcct-i (at least 2)")
    p.add_argument("--trace", default=None, help="JSON-lines file with one mcct/mcct-i solver record per iterate")
    p.add_argument("--out", required=True)

    p = sub.add_parser("eval", parents=[dataset, common, binned], help="evaluate a fitted model on a dataset")
    p.add_argument("--model", required=True)
    p.add_argument("--out", required=True)

    p = sub.add_parser("compare", parents=[*grid, threaded], help="fit and evaluate several methods over seeded splits")
    p.add_argument("--methods", type=_method_list, required=True, help="comma-separated method list")
    p.add_argument("--runs", type=_positive_int, default=1, help="number of consecutive split seeds")
    p.add_argument("--out", required=True, help="JSON output path (.csv written beside it)")

    p = sub.add_parser("sweep-size", parents=[*grid, threaded], help="calibration-set-size sweep")
    p.add_argument("--fractions", type=_fraction_list, required=True, help="comma-separated fractions in (0, 1]")
    p.add_argument("--methods", type=_method_list, required=True)
    p.add_argument("--seeds", type=_seed_list, default=None, help="comma-separated subsample seeds (default: --seed)")
    p.add_argument("--out", required=True, help="CSV output path")

    p = sub.add_parser("sweep-topk", parents=grid, help="retained-rank sweep with fit timing")
    p.add_argument("--kvalues", type=_kvalue_list, required=True, help="comma-separated k values, each at least 2")
    p.add_argument("--out", required=True, help="CSV output path")

    return parser


def main(argv=None):
    args = _build_parser().parse_args(argv)
    # Looked up when called, so that a command replaced on the module (by a
    # tracing wrapper, say) after the parser was built is the one that runs.
    command = globals()["cmd_" + args.command.replace("-", "_")]
    try:
        return command(args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
