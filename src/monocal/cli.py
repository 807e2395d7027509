"""Command-line workflows: generate data, fit calibrators, evaluate, and sweep.

Every command writes a ``<out>.manifest.json`` beside its primary output
listing the command, its inputs, every emitted result file, and wall times.
Result files themselves contain no timing, so reruns with identical flags
are byte-identical.
"""

import argparse
import json
import sys
import threading
import time
import warnings
from concurrent.futures import ThreadPoolExecutor

import numpy as np

from . import baselines, core, data_io, metrics, optim

METHODS = ("mcct", "mcct-i", "ts", "vs", "hb", "ets-nll", "ets-mse")
UNCALIBRATED = "uncalibrated"

SCALAR_COLUMNS = (
    "ece",
    "eq_mass_ece",
    "ece_kde",
    "accuracy",
    "nll",
    "prediction_change_rate",
    "uncertain_alteration_rate",
)
# Higher is better only for accuracy; every other column ranks ascending.
RANK_DESCENDING = {"accuracy"}


def _resolve_format(path, fmt):
    if fmt is not None:
        return fmt
    try:
        return data_io.infer_format(path)
    except ValueError:
        return data_io.CSV


def _solver_config(args):
    """The ``--solver-config`` file's settings, overridden by the solver flags given."""
    doc = {}
    if args.solver_config:
        with open(args.solver_config) as fh:
            doc = json.load(fh)
    for name in ("max_iterations", "stationarity_tol"):
        if getattr(args, name) is not None:
            doc[name] = getattr(args, name)
    return optim.SolverConfig.from_json(doc)


def _fit_method(method, z, y, topk=None, cfg=None):
    """Fit one method by name; returns (model, solver-diagnostics dict)."""
    if method in baselines.MONOTONE_MODES:
        result = optim.fit_mcct(z, y, mode=baselines.MONOTONE_MODES[method], k=topk, cfg=cfg)
        return baselines.from_monotone_params(result.params), {
            "final_loss": result.final_loss,
            "iterations": result.iterations,
            "converged": result.converged,
            "constraint_violation": result.constraint_violation,
            "dropped_samples": result.dropped_samples,
            "tied_rows": result.tied_rows,
            "reordered_rows": result.reordered_rows,
            "distinct_labels": result.distinct_labels,
        }
    if topk is not None:
        warnings.warn(f"--topk only affects mcct/mcct-i; ignored for {method}")
    model = baselines.fit_baseline(method, z, y)
    return model, {
        "final_loss": core.nll(model.apply(z), y),
        "iterations": None,
        "converged": True,
    }


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


def _dump_json(path, doc):
    with open(path, "w") as fh:
        json.dump(doc, fh, indent=2)
        fh.write("\n")


def _write_manifest(primary_out, doc):
    path = str(primary_out) + ".manifest.json"
    _dump_json(path, doc)
    return path


def _format_cell(value):
    if value is None:
        return ""
    if isinstance(value, float):
        return repr(float(value))
    return str(value)


def _write_csv(path, header, rows):
    with open(path, "w") as fh:
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join(_format_cell(v) for v in row) + "\n")


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
    """Evaluate independent cells, each ending in its method, optionally across threads.

    Results are collected by cell index, so output order and content do not
    depend on scheduling.  Failures are captured per cell as strings.  The
    mcct-i cells start last, so they find the solve they share with mcct
    (see ``_shared_fits``) done rather than wait on it.
    """
    results = [None] * len(cells)
    order = sorted(range(len(cells)), key=lambda i: cells[i][-1] == baselines.MCCT_I)

    def guarded(i):
        try:
            results[i] = ("ok", worker(*cells[i]))
        except Exception as exc:  # recorded per-cell, run continues
            results[i] = ("error", f"{type(exc).__name__}: {exc}")

    if threads > 1:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            list(pool.map(guarded, order))
    else:
        for i in order:
            guarded(i)
    return results


def _shared_fits(cfg):
    """``fit(key, method, z, y)``: a fitted model, with one solve per key for mcct and mcct-i.

    mcct-i is the mcct fit with its scales written as divisors.  A per-key
    lock makes the second kind wait for the first one's solve, not repeat it.
    """
    solves, locks = {}, {}

    def fit(key, method, z, y):
        if method not in baselines.MONOTONE_MODES:
            return _fit_method(method, z, y, cfg=cfg)[0]
        with locks.setdefault(key, threading.Lock()):  # one atomic dict call
            if key not in solves:
                solves[key] = optim.fit_mcct(z, y, cfg=cfg).params
        return baselines.from_monotone_params(solves[key].in_mode(baselines.MONOTONE_MODES[method]))

    return fit


def cmd_gen_synth(args):
    cfg = data_io.SynthConfig(
        n=args.n,
        m=args.m,
        alpha=args.alpha,
        overconfidence=args.overconfidence,
        noise_sd=args.noise_sd,
        seed=args.seed,
    )
    fmt = _resolve_format(args.out, args.format)
    clock = _Stopwatch()
    z, y, true_probs = data_io.generate_synthetic(cfg)
    data_io.write_dataset(args.out, z, y, fmt=fmt)
    true_path = f"{args.out}.true_probs.{fmt}"
    data_io.write_matrix(true_path, true_probs, fmt=fmt)
    clock.lap("generate")
    outputs = [args.out, true_path]
    if fmt == data_io.RAW_BINARY:
        outputs += [args.out + data_io.SIDECAR_SUFFIX, true_path + data_io.SIDECAR_SUFFIX]
    _write_manifest(
        args.out,
        {
            "command": "gen-synth",
            "inputs": {},
            "config": {
                "n": cfg.n,
                "m": cfg.m,
                "alpha": cfg.alpha,
                "overconfidence": cfg.overconfidence,
                "noise_sd": cfg.noise_sd,
            },
            "seed": args.seed,
            "outputs": outputs,
            "wall_time_s": clock.stages,
        },
    )
    return 0


def cmd_fit(args):
    z, y = data_io.read_dataset(args.data, _resolve_format(args.data, args.format))
    cfg = _solver_config(args)
    clock = _Stopwatch()
    model, info = _fit_method(args.method, z, y, topk=args.topk, cfg=cfg)
    clock.lap("fit")
    model.save(args.out)
    _write_manifest(
        args.out,
        {
            "command": "fit",
            "inputs": {"data": args.data},
            "method": args.method,
            "topk": args.topk,
            "solver_config": cfg.to_json(),
            "outputs": [args.out],
            "fit": info,
            "wall_time_s": clock.stages,
        },
    )
    if not info["converged"]:
        print(f"fit did not converge; best iterate written to {args.out}", file=sys.stderr)
        return 3
    return 0


def cmd_eval(args):
    clock = _Stopwatch()
    z, y = data_io.read_dataset(args.data, _resolve_format(args.data, args.format))
    model = baselines.CalibratedModel.load(args.model)
    if model.m != z.shape[1]:
        print(f"model expects m={model.m} classes, data has m={z.shape[1]}", file=sys.stderr)
        return 2
    clock.lap("read")
    p = model.apply(z)
    clock.lap("apply")
    report = metrics.compute_report(p, y, core.softmax_rows(z), num_bins=args.bins)
    clock.lap("metrics")
    _dump_json(args.out, report.to_json())
    reliability_path = _json_base(args.out) + ".reliability.csv"
    with open(reliability_path, "w") as fh:
        fh.write(report.bins.to_csv())
    _write_manifest(
        args.out,
        {
            "command": "eval",
            "inputs": {"data": args.data, "model": args.model},
            "bins": args.bins,
            "outputs": [args.out, reliability_path],
            # "metrics" includes the softmax of the raw logits, which only the report reads.
            "wall_time_s": clock.stages,
        },
    )
    return 0


def _method_list(raw):
    methods = [m.strip() for m in raw.split(",") if m.strip()]
    if not methods:
        raise ValueError("need at least one method")
    unknown = [m for m in methods if m not in METHODS]
    if unknown:
        raise ValueError(f"unknown methods {unknown}; choose from {METHODS}")
    return methods


def _report_row(prefix, report_or_error):
    status, payload = report_or_error
    if status == "error":
        return list(prefix) + [None] * len(SCALAR_COLUMNS) + [payload]
    scalars = payload.scalars()
    return list(prefix) + [scalars[c] for c in SCALAR_COLUMNS] + ["ok"]


def cmd_compare(args):
    z, y = data_io.read_dataset(args.data, _resolve_format(args.data, args.format))
    methods = _method_list(args.methods)
    cfg = _solver_config(args)
    seeds = [args.seed + i for i in range(args.runs)]
    clock = _Stopwatch()

    splits = {seed: data_io.split_dataset(z, y, args.split, seed) for seed in seeds}
    base_probs = {seed: core.softmax_rows(splits[seed][1][0]) for seed in seeds}
    fit = _shared_fits(cfg)
    clock.lap("split")

    def run_cell(seed, method):
        (zc, yc), (zt, yt) = splits[seed]
        p_base = base_probs[seed]
        p = p_base if method == UNCALIBRATED else fit(seed, method, zc, yc).apply(zt)
        return metrics.compute_report(p, yt, p_base, num_bins=args.bins)

    all_methods = [UNCALIBRATED] + methods
    cells = [(seed, method) for method in all_methods for seed in seeds]
    results = _run_cells(cells, run_cell, args.threads)
    clock.lap("cells")

    rows = []
    per_method = {method: [] for method in all_methods}
    failures = []
    for (seed, method), outcome in zip(cells, results):
        rows.append(_report_row([method, seed], outcome))
        if outcome[0] == "ok":
            per_method[method].append(outcome[1].scalars())
        else:
            failures.append({"method": method, "seed": seed, "error": outcome[1]})

    means = {}
    for method in all_methods:
        reports = per_method[method]
        if reports:
            means[method] = {
                c: (
                    float(np.mean([r[c] for r in reports]))
                    if all(r[c] is not None for r in reports)
                    else None
                )
                for c in SCALAR_COLUMNS
            }
    for method in all_methods:
        if method in means:
            rows.append([method, "mean"] + [means[method][c] for c in SCALAR_COLUMNS] + ["ok"])

    ranked = [m for m in all_methods if m in means]
    rank_by_column = {}
    for c in SCALAR_COLUMNS:
        values = [means[m][c] for m in ranked]
        if any(v is None for v in values):
            rank_by_column[c] = {m: None for m in ranked}
        else:
            ranks = _rank(values, descending=c in RANK_DESCENDING)
            rank_by_column[c] = dict(zip(ranked, ranks))
    for method in ranked:
        rows.append([method, "rank"] + [rank_by_column[c][method] for c in SCALAR_COLUMNS] + ["ok"])

    header = ["method", "seed"] + list(SCALAR_COLUMNS) + ["status"]
    csv_path = _json_base(args.out) + ".csv"
    _write_csv(csv_path, header, rows)
    _dump_json(
        args.out,
        {
            "methods": all_methods,
            "seeds": seeds,
            "split": args.split,
            "per_seed": [
                {"method": method, "seed": seed, "status": outcome[0],
                 **(outcome[1].scalars() if outcome[0] == "ok" else {"error": outcome[1]})}
                for (seed, method), outcome in zip(cells, results)
            ],
            "mean": means,
            "rank": rank_by_column,
        },
    )
    clock.lap("write")
    _write_manifest(
        args.out,
        {
            "command": "compare",
            "inputs": {"data": args.data},
            "methods": methods,
            "split": args.split,
            "runs": args.runs,
            "solver_config": cfg.to_json(),
            "seed": args.seed,
            "outputs": [args.out, csv_path],
            "failures": failures,
            "wall_time_s": clock.with_total(),
        },
    )
    return 0 if not failures else 1


def cmd_sweep_size(args):
    z, y = data_io.read_dataset(args.data, _resolve_format(args.data, args.format))
    methods = _method_list(args.methods)
    cfg = _solver_config(args)
    fractions = [float(f) for f in args.fractions.split(",")]
    if any(not 0.0 < f <= 1.0 for f in fractions):
        raise ValueError("fractions must lie in (0, 1]")
    seeds = [int(s) for s in args.seeds.split(",")] if args.seeds else [args.seed]
    clock = _Stopwatch()

    (zc, yc), (zt, yt) = data_io.split_dataset(z, y, args.split, args.seed)
    p_base = core.softmax_rows(zt)
    n_cal = zc.shape[0]
    fit = _shared_fits(cfg)
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
        model = fit((fraction, seed), method, zs, ys)
        return size, metrics.compute_report(model.apply(zt), yt, p_base, num_bins=args.bins)

    cells = [(f, s, m) for f in fractions for s in seeds for m in methods]
    results = _run_cells(cells, run_cell, args.threads)
    clock.lap("cells")

    rows = []
    failures = []
    for (fraction, seed, method), outcome in zip(cells, results):
        if outcome[0] == "ok":
            size, report = outcome[1]
            rows.append(_report_row([fraction, seed, method, size], ("ok", report)))
        else:
            rows.append(_report_row([fraction, seed, method, None], outcome))
            failures.append({"fraction": fraction, "seed": seed, "method": method, "error": outcome[1]})

    header = ["fraction", "seed", "method", "n_calib"] + list(SCALAR_COLUMNS) + ["status"]
    _write_csv(args.out, header, rows)
    json_path = args.out + ".json"
    _dump_json(
        json_path,
        {
            "rows": [dict(zip(header, row)) for row in rows],
            "fractions": fractions,
            "seeds": seeds,
            "methods": methods,
        },
    )
    clock.lap("write")
    _write_manifest(
        args.out,
        {
            "command": "sweep-size",
            "inputs": {"data": args.data},
            "methods": methods,
            "fractions": fractions,
            "seeds": seeds,
            "split": args.split,
            "solver_config": cfg.to_json(),
            "seed": args.seed,
            "outputs": [args.out, json_path],
            "failures": failures,
            "wall_time_s": clock.with_total(),
        },
    )
    return 0 if not failures else 1


def cmd_sweep_topk(args):
    z, y = data_io.read_dataset(args.data, _resolve_format(args.data, args.format))
    cfg = _solver_config(args)
    kvalues = [int(k) for k in args.kvalues.split(",")]
    clock = _Stopwatch()

    (zc, yc), (zt, yt) = data_io.split_dataset(z, y, args.split, args.seed)
    p_base = core.softmax_rows(zt)
    clock.lap("split")

    rows = []
    failures = []
    fit_per_k = {}
    # Cells run serially: the per-k fit time goes into the manifest.
    for k in kvalues:
        try:
            fit_clock = _Stopwatch()
            result = optim.fit_mcct(zc, yc, k=k, cfg=cfg)
            fit_per_k[str(k)] = fit_clock.lap("fit")
            model = baselines.from_monotone_params(result.params)
            report = metrics.compute_report(model.apply(zt), yt, p_base, num_bins=args.bins)
            scalars = report.scalars()
            rows.append(
                [k]
                + [scalars[c] for c in SCALAR_COLUMNS]
                + [result.dropped_samples, result.iterations, result.converged, "ok"]
            )
        except Exception as exc:
            rows.append([k] + [None] * len(SCALAR_COLUMNS) + [None, None, None, f"{type(exc).__name__}: {exc}"])
            failures.append({"k": k, "error": f"{type(exc).__name__}: {exc}"})
    clock.lap("cells")

    header = ["k"] + list(SCALAR_COLUMNS) + ["dropped_samples", "iterations", "converged", "status"]
    _write_csv(args.out, header, rows)
    json_path = args.out + ".json"
    _dump_json(json_path, {"rows": [dict(zip(header, row)) for row in rows]})
    clock.lap("write")
    _write_manifest(
        args.out,
        {
            "command": "sweep-topk",
            "inputs": {"data": args.data},
            "kvalues": kvalues,
            "split": args.split,
            "solver_config": cfg.to_json(),
            "seed": args.seed,
            "outputs": [args.out, json_path],
            "failures": failures,
            "wall_time_s": {**clock.with_total(), "fit_per_k": fit_per_k},
        },
    )
    return 0 if not failures else 1


def _build_parser():
    parser = argparse.ArgumentParser(
        prog="monocal",
        description="Order-preserving post-hoc calibration of classifier logits.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    seeded = argparse.ArgumentParser(add_help=False)
    seeded.add_argument("--seed", type=int, default=0, help="base random seed (default 0)")
    threaded = argparse.ArgumentParser(add_help=False)
    threaded.add_argument("--threads", type=int, default=1, help="parallel workers for independent cells")
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument(
        "--format",
        choices=data_io.FORMATS,
        default=None,
        help="dataset file format; inferred from the file extension by default",
    )

    solver = argparse.ArgumentParser(add_help=False)
    solver.add_argument("--solver-config", default=None, help="JSON file with solver settings")
    solver.add_argument("--max-iterations", type=int, default=None)
    solver.add_argument("--stationarity-tol", type=float, default=None)

    p = sub.add_parser("gen-synth", parents=[common, seeded], help="generate a synthetic logit dataset")
    p.add_argument("--n", type=int, default=10_000)
    p.add_argument("--m", type=int, default=10)
    p.add_argument("--alpha", type=float, default=0.5)
    p.add_argument("--overconfidence", type=float, default=1.0)
    p.add_argument("--noise-sd", type=float, default=0.0)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_gen_synth)

    p = sub.add_parser("fit", parents=[common, solver], help="fit a calibrator on a dataset")
    p.add_argument("--data", required=True)
    p.add_argument("--method", required=True, choices=METHODS)
    p.add_argument("--topk", type=int, default=None, help="retained ranks for mcct/mcct-i")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_fit)

    p = sub.add_parser("eval", parents=[common], help="evaluate a fitted model on a dataset")
    p.add_argument("--data", required=True)
    p.add_argument("--model", required=True)
    p.add_argument("--bins", type=int, default=15)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("compare", parents=[common, seeded, threaded, solver], help="fit and evaluate several methods over seeded splits")
    p.add_argument("--data", required=True)
    p.add_argument("--methods", required=True, help="comma-separated method list")
    p.add_argument("--split", type=float, default=0.5, help="calibration fraction of each split")
    p.add_argument("--runs", type=int, default=1, help="number of consecutive split seeds")
    p.add_argument("--bins", type=int, default=15)
    p.add_argument("--out", required=True, help="JSON output path (.csv written beside it)")
    p.set_defaults(func=cmd_compare)

    p = sub.add_parser("sweep-size", parents=[common, seeded, threaded, solver], help="calibration-set-size sweep")
    p.add_argument("--data", required=True)
    p.add_argument("--fractions", required=True, help="comma-separated fractions in (0, 1]")
    p.add_argument("--methods", required=True)
    p.add_argument("--seeds", default=None, help="comma-separated subsample seeds (default: --seed)")
    p.add_argument("--split", type=float, default=0.5)
    p.add_argument("--bins", type=int, default=15)
    p.add_argument("--out", required=True, help="CSV output path")
    p.set_defaults(func=cmd_sweep_size)

    p = sub.add_parser("sweep-topk", parents=[common, seeded, solver], help="retained-rank sweep with fit timing")
    p.add_argument("--data", required=True)
    p.add_argument("--kvalues", required=True, help="comma-separated k values")
    p.add_argument("--split", type=float, default=0.5)
    p.add_argument("--bins", type=int, default=15)
    p.add_argument("--out", required=True, help="CSV output path")
    p.set_defaults(func=cmd_sweep_topk)

    return parser


def main(argv=None):
    args = _build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
