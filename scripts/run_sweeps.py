#!/usr/bin/env python3
"""Calibration-set-size and retained-rank sweeps on synthetic data.

Reproduces the two efficiency experiments at desk scale: how test ECE
holds up as the calibration set shrinks, and how fit time and ECE respond
to truncating the map to the top-k ranks on a many-class problem.
"""

import argparse
import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from monocal import cli  # noqa: E402


def report_convergence(out):
    """Print how many of the fits a sweep's manifest records did not converge."""
    fits = json.loads(Path(out + ".manifest.json").read_text())["fits"]
    print(f"{sum(not f['converged'] for f in fits)} of {len(fits)} fits did not converge")


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workdir", default="sweep_out")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seeds", default="0,1,2,3,4", help="subsample seeds for the size sweep")
    args = parser.parse_args()

    workdir = Path(args.workdir)
    workdir.mkdir(parents=True, exist_ok=True)

    size_data = str(workdir / "size_data.csv")
    size_out = str(workdir / "size_sweep.csv")
    for step in (
        ["gen-synth", "--n", "15000", "--m", "10", "--overconfidence", "2.5",
         "--seed", str(args.seed), "--out", size_data],
        ["sweep-size", "--data", size_data,
         "--fractions", "0.1,0.2,0.3,0.5,0.7,0.9,1.0",
         "--methods", "mcct,mcct-i,ts,ets-nll", "--seeds", args.seeds,
         "--split", "0.3333333333333333", "--seed", str(args.seed), "--out", size_out],
    ):
        code = cli.main(step)
        if code:
            return code
    print("size sweep written to", size_out)
    report_convergence(size_out)

    topk_data = str(workdir / "topk_data.csv")
    topk_out = str(workdir / "topk_sweep.csv")
    for step in (
        ["gen-synth", "--n", "6000", "--m", "100", "--alpha", "0.2",
         "--overconfidence", "2.5", "--seed", str(args.seed), "--out", topk_data],
        ["sweep-topk", "--data", topk_data, "--kvalues", "10,25,50,75,100",
         "--split", "0.3333333333333333",
         "--seed", str(args.seed), "--out", topk_out],
    ):
        code = cli.main(step)
        if code:
            return code

    rows = json.loads(Path(topk_out + ".json").read_text())["rows"]
    fit_seconds = json.loads(Path(topk_out + ".manifest.json").read_text())["wall_time_s"]["fit_per_k"]
    print("\nretained ranks vs fit time and ECE:")
    print("k".ljust(6) + "fit_seconds".ljust(14) + "ece".ljust(10) + "dropped")
    for row in rows:
        print(
            str(row["k"]).ljust(6)
            + f"{fit_seconds[str(row['k'])]:.2f}".ljust(14)
            + f"{row['ece']:.4f}".ljust(10)
            + str(row["dropped_samples"])
        )
    print("\ntop-k sweep written to", topk_out)
    report_convergence(topk_out)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
