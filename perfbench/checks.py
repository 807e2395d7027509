"""Output checks, written against the file formats rather than the program's code.

The reference map below re-implements the rank-indexed transform from the
model JSON (sort each row, per-rank affine, scatter back, softmax) so the
checks do not trust the functions they check.  Large matrices are processed in
row chunks, which gives the same values because every step is row-wise.
"""

import json
import math
from pathlib import Path

import numpy as np

CHUNK = 2048
PROB_TOL = 1e-9
BINS = 15


def reference_probs(z, doc):
    """Calibrated probabilities of an mcct/mcct-i model document on logits ``z``."""
    w = np.asarray(doc["w"], dtype=np.float64)
    b = np.asarray(doc["b"], dtype=np.float64)
    m, k = int(doc["m"]), len(w)
    w = np.concatenate([np.full(m - k, w[0]), w])
    b = np.concatenate([np.full(m - k, b[0]), b])
    out = np.empty_like(z)
    for start in range(0, z.shape[0], CHUNK):
        block = z[start : start + CHUNK]
        perm = np.argsort(block, axis=1, kind="stable")
        s = np.take_along_axis(block, perm, axis=1)
        t = s * w + b if doc["kind"] == "mcct" else s / w + b
        logits = np.empty_like(t)
        np.put_along_axis(logits, perm, t, axis=1)
        e = np.exp(logits - logits.max(axis=1, keepdims=True))
        out[start : start + CHUNK] = e / e.sum(axis=1, keepdims=True)
    return out


def simplex_errors(p):
    """Rows that are not finite, non-negative and summing to 1."""
    bad = ~np.isfinite(p).all(axis=1) | (p.min(axis=1) < -1e-12) | (np.abs(p.sum(axis=1) - 1.0) > PROB_TOL)
    return int(bad.sum())


def argmax_losses(z, p):
    """Rows with a non-negative maximum logit whose top class no longer has the top probability.

    With tied maximal logits any of the tied classes may carry the top
    probability.
    """
    at_max = z == z.max(axis=1, keepdims=True)
    kept = np.where(at_max, p, -np.inf).max(axis=1) == p.max(axis=1)
    return int((~kept & (z.max(axis=1) >= 0)).sum())


def order_violation_rows(z, p):
    """Rows holding a pair with ``z_i < z_j`` but ``p_i > p_j``."""
    count = 0
    for start in range(0, z.shape[0], CHUNK):
        zb = z[start : start + CHUNK]
        perm = np.argsort(zb, axis=1, kind="stable")
        s = np.take_along_axis(zb, perm, axis=1)
        q = np.take_along_axis(p[start : start + CHUNK], perm, axis=1)
        # Largest p over the entries strictly below each entry's value: the
        # prefix maximum up to the start of the entry's tie group.
        cols = np.arange(s.shape[1])
        group_start = np.maximum.accumulate(np.where(np.diff(s, axis=1, prepend=-np.inf) > 0, cols, 0), axis=1)
        prefix = np.maximum.accumulate(q, axis=1)
        below = np.where(group_start > 0, np.take_along_axis(prefix, np.maximum(group_start - 1, 0), axis=1), -np.inf)
        count += int((below > q).any(axis=1).sum())
    return count


def nll(p, y):
    return float(-np.log(np.maximum(p[np.arange(len(y)), y], 1e-300)).mean())


def ece(p, y, bins=BINS):
    """Equal-width top-label ECE over bins ((i-1)/K, i/K], confidence 0 in the first."""
    conf = p.max(axis=1)
    correct = (p.argmax(axis=1) == y).astype(float)
    idx = np.minimum(np.searchsorted(np.arange(1, bins + 1) / bins, conf, side="left"), bins - 1)
    total = 0.0
    for i in range(bins):
        sel = idx == i
        if sel.any():
            total += sel.sum() / len(y) * abs(correct[sel].mean() - conf[sel].mean())
    return total


def close(a, b, rel=1e-9, abs_tol=1e-12):
    """Equal within rounding; two missing values are equal, one is not."""
    if a is None or b is None:
        return a is None and b is None
    return math.isclose(a, b, rel_tol=rel, abs_tol=abs_tol)


def check_fit_eval(model_path, report_path, z, y, method, topk=None):
    """Check one fitted model and its eval report on the test set.

    The model must be of kind ``method`` with ``k`` equal to ``topk``, or to
    the class count when ``topk`` is None.

    Returns ``(problems, outcome)``: a list of failure descriptions and, for
    the quality metrics, the report's NLL and ECE and the fraction of rows
    whose order the program's calibrated probabilities break.
    """
    from monocal.baselines import CalibratedModel

    problems = []
    doc = json.loads(Path(model_path).read_text())
    model = CalibratedModel.load(model_path)
    if doc.get("kind") != method or model.m != z.shape[1]:
        return [f"{model_path}: model {doc.get('kind')} for m={model.m}, expected {method} for m={z.shape[1]}"], None
    k = z.shape[1] if topk is None else topk
    if doc["k"] != k:
        problems.append(f"{model_path}: k={doc['k']}, expected {k}")
    p = np.concatenate([model.apply(z[s : s + CHUNK]) for s in range(0, z.shape[0], CHUNK)])
    if simplex_errors(p):
        problems.append(f"{model_path}: {simplex_errors(p)} calibrated rows off the simplex")
    diff = float(np.abs(p - reference_probs(z, doc)).max())
    if not diff <= PROB_TOL:
        problems.append(f"{model_path}: apply differs from the reference map by {diff:.3g}")
    lost = argmax_losses(z, p)
    if lost:
        problems.append(f"{model_path}: argmax changed on {lost} rows with a non-negative top logit")
    report = json.loads(Path(report_path).read_text())
    want = {"nll": nll(p, y), "ece": ece(p, y), "accuracy": float((p.argmax(axis=1) == y).mean())}
    for key, value in want.items():
        if not close(report.get(key), value):
            problems.append(f"{report_path}: {key}={report.get(key)}, recomputed {value}")
    return problems, {
        "test_nll": report.get("nll"),
        "test_ece": report.get("ece"),
        "order_violation_rate": order_violation_rows(z, p) / z.shape[0],
    }


def split(z, y, seed, fraction):
    """The CLI's documented seeded split: permutation, then calibration prefix."""
    perm = np.random.default_rng(seed).permutation(z.shape[0])
    n_cal = int(round(z.shape[0] * fraction))
    return (z[perm[:n_cal]], y[perm[:n_cal]]), (z[perm[n_cal:]], y[perm[n_cal:]])


def softmax(z):
    e = np.exp(z - z.max(axis=1, keepdims=True))
    return e / e.sum(axis=1, keepdims=True)


def check_compare(out_path, z, y, workdir):
    """Check a ``compare`` result and reproduce its mcct/mcct-i cells.

    Every cell must have succeeded with finite scalars.  For each split seed
    the uncalibrated accuracy is recomputed, and mcct and mcct-i are refitted
    and evaluated with the ``fit`` and ``eval`` commands on the same split,
    whose reports must match the compare cells.  Returns ``(failed cells,
    problems, outcomes)`` with one outcome per refitted model, as from
    :func:`check_fit_eval`.
    """
    from monocal import cli, data_io

    doc = json.loads(Path(out_path).read_text())
    manifest = json.loads(Path(out_path + ".manifest.json").read_text())
    problems = [f"compare failure: {f}" for f in manifest.get("failures", ["manifest lacks failures"])]
    failed = set()
    cells = {(c["method"], c["seed"]): c for c in doc["per_seed"]}
    for key, cell in cells.items():
        scalars = [v for k, v in cell.items() if k not in ("method", "seed", "status")]
        if cell["status"] != "ok" or not all(v is not None and math.isfinite(v) for v in scalars):
            failed.add(key)
            problems.append(f"compare cell {key}: {cell}")
    outcomes = []
    fraction = float(doc["split"])
    for seed in doc["seeds"]:
        (zc, yc), (zt, yt) = split(z, y, seed, fraction)
        accuracy = float((softmax(zt).argmax(axis=1) == yt).mean())
        if not close(cells[("uncalibrated", seed)].get("accuracy"), accuracy):
            failed.add(("uncalibrated", seed))
            problems.append(f"uncalibrated accuracy for seed {seed} is not {accuracy}")
        cal, test = str(Path(workdir) / "check-cal.bin"), str(Path(workdir) / "check-test.bin")
        data_io.write_dataset(cal, zc, yc, fmt="bin")
        data_io.write_dataset(test, zt, yt, fmt="bin")
        for method in ("mcct", "mcct-i"):
            model, report = str(Path(workdir) / f"check-{method}.json"), str(Path(workdir) / f"check-{method}-eval.json")
            codes = (
                cli.main(["fit", "--data", cal, "--method", method, "--out", model]),
                cli.main(["eval", "--data", test, "--model", model, "--out", report]),
            )
            if codes != (0, 0):
                failed.add((method, seed))
                problems.append(f"refit of {method} on seed {seed} exited {codes}")
                continue
            cell_problems, outcome = check_fit_eval(model, report, zt, yt, method)
            refit = json.loads(Path(report).read_text())
            cell_problems += [
                f"compare {method} seed {seed}: {k}={cells[(method, seed)].get(k)}, refit gives {v}"
                for k, v in refit.items()
                if k != "bins" and not close(cells[(method, seed)].get(k), v)
            ]
            if cell_problems:
                failed.add((method, seed))
                problems += cell_problems
            if outcome is not None:
                outcomes.append(outcome)
    return len(failed), problems, outcomes
