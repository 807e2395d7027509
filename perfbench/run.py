#!/usr/bin/env python3
"""Benchmark of the monocal CLI: one workload, one seed, one JSON result line.

Usage, from the repository root::

    python3 perfbench/run.py --workload tall-m10 --seed 1 --seconds 25 --trace 0

The run sets up the workload's inputs in fresh processes (import plus
generation plus writing; ``setup_s`` is the median), ``MIN_SETUPS`` times
and then more while they have taken less than ``SETUP_SECONDS``, up to
``MAX_SETUPS``; then it measures passes in one more process.  Command
times are reported at a fixed machine speed (see
``workloads.REFERENCE_SECONDS``).  Child processes
get a one-thread BLAS pool, so ``compare --threads 2`` uses the two cores
without oversubscribing them.  Human-readable lines, each
starting with ``#``, come first; the last line of standard output is the
JSON result.  ``--trace 1`` reports the per-layer metrics instead of the
end-to-end ones.  See ``README.md``.
"""

import argparse
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKDIR = HERE / "_work"
MIN_SETUPS, MAX_SETUPS, SETUP_SECONDS = 5, 9, 6.0
BLAS_ENV = {name: "1" for name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")}
DEADLINE_S = 170  # every child must have ended by then, so a run ends within 180 s
# Per-layer times that only compare-m10 exercises.  On the other workloads
# they read exactly 0 on every run, which a reported time must not, so they
# are printed with the other per-layer metrics but left out of the JSON.
PRINTED_ONLY = (
    "data_io.split_s", "baselines.fit_ts_s", "baselines.fit_vs_s",
    "baselines.fit_ets_s", "baselines.fit_hb_s", "cli.cell_busy_s",
)


def child(mode, args, deadline):
    env = {**os.environ, **BLAS_ENV, "PYTHONDONTWRITEBYTECODE": "1"}
    argv = [
        sys.executable, str(HERE / "worker.py"), mode, "--workload", args.workload,
        "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace),
        "--workdir", str(WORKDIR / args.workload),
    ]
    timeout = max(1.0, deadline - time.monotonic())
    proc = subprocess.run(argv, env=env, stdout=subprocess.PIPE, text=True, timeout=timeout, cwd=ROOT)
    if proc.returncode != 0:
        raise RuntimeError(f"worker {mode} exited with {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def environment():
    """Library versions and machine, read in a child so the BLAS settings apply."""
    code = (
        "import json, numpy, scipy, platform;"
        "cfg = numpy.show_config(mode='dicts')['Build Dependencies']['blas'];"
        "print(json.dumps({'python': platform.python_version(), 'numpy': numpy.__version__,"
        " 'scipy': scipy.__version__, 'blas': cfg.get('name', '?') + ' ' + str(cfg.get('version', '?'))}))"
    )
    env = {**os.environ, **BLAS_ENV}
    out = subprocess.run([sys.executable, "-c", code], env=env, stdout=subprocess.PIPE, text=True, timeout=60, check=True)
    info = json.loads(out.stdout)
    info["blas_threads"] = BLAS_ENV["OPENBLAS_NUM_THREADS"]
    info["nproc"] = os.cpu_count()
    info["cpu"] = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo") as fh:
            info["cpu"] = next(line.split(":", 1)[1].strip() for line in fh if line.startswith("model name"))
    except (OSError, StopIteration):
        pass
    return info


def setups(args, deadline):
    """Set-ups in fresh processes: one for a traced run, else as the module docstring says."""
    if args.trace:
        return [child("setup", args, deadline)]
    done = []
    while len(done) < MIN_SETUPS or (len(done) < MAX_SETUPS and sum(s["setup_s"] for s in done) < SETUP_SECONDS):
        done.append(child("setup", args, deadline))
    return done


def end_to_end(w_name, setup_runs, run):
    typical = run["typical"]
    # compare-m10 has no separate fit or eval commands: the compare command
    # fits and evaluates every cell, so both report its time.
    fit, evaluate = ("compare", "compare") if WORKLOADS[w_name].compare else ("fit", "eval")
    q = run["quality"]
    return {
        "setup_s": (statistics.median(s["setup_s"] for s in setup_runs), "s"),
        "wall_s": (typical["wall_s"], "s"),
        "fit_s": (typical[fit], "s"),
        "eval_s": (typical[evaluate], "s"),
        "peak_rss_mb": (run["peak_rss_mb"], "MB"),
        "test_nll": (q["test_nll"], "nats"),
    }


def main():
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seed < 0 or args.seconds < 1:
        parser.error("--seed must be >= 0 and --seconds >= 1")
    if not (ROOT / "src" / "monocal" / "cli.py").is_file():
        print(f"error: no monocal sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    # On SIGTERM, raise so subprocess.run kills and reaps the running child.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(1))
    deadline = time.monotonic() + DEADLINE_S
    shutil.rmtree(WORKDIR, ignore_errors=True)
    try:
        info = environment()
        setup_runs = setups(args, deadline)
        run = child("measure", args, deadline)
    except (RuntimeError, subprocess.SubprocessError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(WORKDIR, ignore_errors=True)

    print(f"# workload={args.workload} seed={args.seed} seconds={args.seconds} trace={args.trace}")
    print("# env " + " ".join(f"{k}={v}" for k, v in info.items()))
    walls = run["pass_walls"]
    print(f"# passes={len(walls)} pass wall_s min={min(walls):.4f} max={max(walls):.4f}")
    if not args.trace:
        raw = run["typical"]["measured"]
        print(
            f"# median reference kernel {run['typical']['reference_s']:.5f} s;"
            f" pass as measured: wall_s={raw['wall_s']:.4f} fit={raw['fit']:.4f}"
            f" eval={raw['eval']:.4f} compare={raw['compare']:.4f}"
        )
    print(
        f"# setups={len(setup_runs)} median import_s={statistics.median(s['import_s'] for s in setup_runs):.4f}"
        f" generate+write_s={statistics.median(s['write_s'] for s in setup_runs):.4f}"
    )
    for problem in run["problems"]:
        print(f"# FAILED {problem}")
    print(f"# error_rate={run['failed'] / run['attempted']:.6g} ({run['failed']} of {run['attempted']} operations)")
    q = run["quality"]
    if not q:
        print("error: no fitted model passed its checks; nothing to report", file=sys.stderr)
        return 1
    print(f"# test_ece={q['test_ece']:.6g} ratio; order_violation_rate={q['order_violation_rate']:.6g} ratio")
    if args.trace:
        printed = run["layers"]
        printed["metrics.test_ece"] = {"value": q["test_ece"], "unit": "ratio"}
        printed["transform.order_violation_rate"] = {"value": q["order_violation_rate"], "unit": "ratio"}
        metrics = {k: v for k, v in printed.items() if k not in PRINTED_ONLY}
    else:
        printed = metrics = {k: {"value": v, "unit": u} for k, (v, u) in end_to_end(args.workload, setup_runs, run).items()}
    for name, m in printed.items():
        print(f"# {name} = {m['value']:.6g} {m['unit']}")
    result = {
        "correct": run["failed"] == 0 and not run["problems"],
        "attempted": run["attempted"],
        "failed": run["failed"],
        "metrics": metrics,
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
