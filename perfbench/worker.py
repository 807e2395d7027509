"""Child process of ``run.py``: one set-up, or one measured run.

``setup`` times importing monocal and generating and writing the inputs,
flushes the written files to disk outside the timed part, and prints
``{"setup_s": ...}``.  ``measure`` repeats passes for about ``--seconds``
(at least ``MIN_PASSES``), records peak memory, checks the final outputs, and
prints one JSON object with the timings, the check results and the quality
metrics; with ``--trace 1`` it alternates untraced and traced passes and
reports the per-layer metrics instead of peak memory.
"""

import time

START = time.perf_counter()  # set-up time counts every import from here on

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import workloads  # noqa: E402

MIN_PASSES = 3  # enough for a per-command median


def setup(args, w, layout):
    import monocal  # noqa: F401

    imported = time.perf_counter()
    workloads.write_inputs(args.seed, w, layout)
    done = time.perf_counter()
    settle(layout)  # so this set-up's writeback cannot slow the next one
    return {"setup_s": done - START, "import_s": imported - START, "write_s": done - imported}


def timed_passes(w, layout, seconds):
    """Passes until another would end past ``seconds``; at least ``MIN_PASSES``."""
    passes = []
    start = time.perf_counter()
    while True:
        passes.append(workloads.run_pass(w, layout))
        if len(passes) >= MIN_PASSES and time.perf_counter() - start + passes[-1][0] > seconds:
            return passes


def typical_pass(passes):
    """Each command's median time over the passes, summed over the pass and per command kind.

    A burst of load from outside slows a few commands of one pass; the
    per-command median drops it, where a median over a few whole passes
    would not.  Every pass runs the same commands in the same order.

    Each command's time is first divided by the reference kernel's time
    around it and multiplied by ``REFERENCE_SECONDS``, so a slow spell of
    the machine that lasts longer than a run does not read as a slower
    program.  The medians of the times as measured are under ``measured``.
    """
    out = {"wall_s": 0.0, "fit": 0.0, "eval": 0.0, "compare": 0.0}
    measured = dict(out)
    for runs in zip(*(records for _, records in passes)):
        seconds = statistics.median(r.seconds for r in runs)
        reported = workloads.REFERENCE_SECONDS * statistics.median(r.seconds / r.reference for r in runs)
        for sums, value in ((measured, seconds), (out, reported)):
            sums["wall_s"] += value
            sums[runs[0].kind] += value
    out["measured"] = measured
    out["reference_s"] = statistics.median(r.reference for _, records in passes for r in records)
    return out


def check_outputs(args, w, layout, passes):
    """Count attempted and failed operations over all passes and compute quality metrics.

    Every pass must reproduce the final pass's result files byte for byte;
    the final files are checked in full.  A fit/eval pair that fails its
    checks counts both commands as failed in every pass; a compare cell that
    fails counts once per pass.
    """
    import checks

    bad_files, bad_cells, cells = set(), 0, 0
    if w.compare:
        cells = (len(w.methods) + 1) * workloads.COMPARE_RUNS
        z, y = workloads.synthesize(args.seed, w, 0, workloads.ROLE_CAL, w.n_cal)
        bad_cells, problems, outcomes = checks.check_compare(layout.compare_out(), z, y, layout.dir)
    else:
        problems, outcomes = [], []
        for r in range(w.problems):
            z, y = workloads.synthesize(args.seed, w, r, workloads.ROLE_TEST, w.n_test)
            for method in w.methods:
                model, report = layout.model(r, method), layout.report(r, method)
                found, outcome = checks.check_fit_eval(model, report, z, y, method, w.topk)
                if found:
                    problems += found
                    bad_files.update((model, report))
                if outcome is not None:
                    outcomes.append(outcome)
    final = {tuple(r.argv): r.digest for r in passes[-1][1]}
    attempted = failed = 0
    for _, records in passes:
        for rec in records:
            attempted += 1 + (cells if rec.kind == "compare" else 0)
            if rec.exit_code != 0 or rec.error or rec.digest != final[tuple(rec.argv)]:
                failed += 1
                problems.append(f"{' '.join(rec.argv)}: exit {rec.exit_code}, {rec.error or 'output differs between passes'}")
            elif bad_files.intersection(rec.results):
                failed += 1
            if rec.kind == "compare":
                failed += bad_cells
    quality = {}
    if outcomes:
        quality = {key: statistics.fmean(o[key] for o in outcomes) for key in ("test_nll", "test_ece", "order_violation_rate")}
    return {"attempted": attempted, "failed": failed, "problems": problems, "quality": quality}


def traced_passes(args, w, layout):
    """Alternate untraced and traced passes; per-layer metrics are medians over traced passes.

    The tracing overhead is the traced minus the untraced median pass time.
    ``data_io.write_s`` comes from one traced rewrite of the inputs at the
    end, so its disk writeback cannot slow the timed passes.
    """
    import tracing

    untraced, traced, per_pass = [], [], []
    start = time.perf_counter()
    while True:
        untraced.append(workloads.run_pass(w, layout))
        tracer = tracing.Tracer()
        with tracing.installed(tracer):
            traced.append(workloads.run_pass(w, layout))
        per_pass.append(tracing.layer_metrics(tracer.spans))
        per_pass[-1]["trace.spans"] = (len(tracer.spans), "count")
        if time.perf_counter() - start + untraced[-1][0] + traced[-1][0] > args.seconds:
            break
    layers = {k: (statistics.median(m[k][0] for m in per_pass), unit) for k, (_, unit) in per_pass[0].items()}
    overhead = statistics.median(p[0] for p in traced) - statistics.median(p[0] for p in untraced)
    layers["trace.overhead_s"] = (overhead, "s")
    tracer = tracing.Tracer()
    with tracing.installed(tracer):
        workloads.write_inputs(args.seed, w, layout)
    layers["data_io.write_s"] = tracing.layer_metrics(tracer.spans)["data_io.write_s"]
    return untraced + traced, {k: {"value": v, "unit": u} for k, (v, u) in layers.items()}


def settle(layout):
    """Flush the freshly written inputs to disk, so their writeback does not overlap a timed pass."""
    for path in layout.dir.iterdir():
        if path.is_file():
            with open(path, "rb") as fh:
                os.fsync(fh.fileno())


def measure(args, w, layout):
    settle(layout)
    workloads.warm_up(args.seed, w, layout.dir)
    if args.trace:
        passes, layers = traced_passes(args, w, layout)
        result = {"layers": layers}
    else:
        passes = timed_passes(w, layout, args.seconds)
        result = {
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "typical": typical_pass(passes),
        }
    result["pass_walls"] = [wall for wall, _ in passes]
    result.update(check_outputs(args, w, layout, passes))
    return result


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("mode", choices=("setup", "measure"))
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=0.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--workdir", required=True)
    parser.add_argument("--tiny", action="store_true", help="self-test sizes")
    args = parser.parse_args()
    w = workloads.WORKLOADS[args.workload]
    if args.tiny:
        w = w.tiny()
    layout = workloads.Layout(args.workdir, w)
    try:
        result = setup(args, w, layout) if args.mode == "setup" else measure(args, w, layout)
    except Exception:
        traceback.print_exc()
        return 1
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
