"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines.

Criterion 1 asserts a universal order-preservation property of the
constrained rescaling map and FAILS by design: the property is
mathematically false.  Rescaling the sorted row (-10, -1) with the valid
non-decreasing positive scales (0.1, 2) yields (-1, -2), reversing the
order; pairs of negative values can always be reversed this way when the
scale gap outweighs the value gap.  The guarantees that do hold (full
preservation on non-negative rows, argmax preservation whenever the row
maximum is non-negative, full preservation for constant scales) are
verified in tests/test_transform.py and exercised end to end by criteria
6-9 below.
"""

import json
import time
import warnings

import numpy as np
import pytest

from monocal import baselines, cli, core, data_io, metrics, optim, transform

from conftest import random_valid_params


def report(num, description, ok, detail=""):
    status = "PASS" if ok else "FAIL"
    suffix = f"  [{detail}]" if detail else ""
    print(f"\n[{status}] criterion {num}: {description}{suffix}")
    assert ok, f"criterion {num} failed: {description}{suffix}"


@pytest.fixture(scope="module")
def end_to_end():
    """Criterion-6 fixture: 5000/10000 split of overconfident 10-class data,
    with both monotone maps fitted; also reused by criteria 4, 8, and 11."""
    t0 = time.perf_counter()
    cfg = data_io.SynthConfig(n=15_000, m=10, alpha=0.5, overconfidence=2.5, seed=0)
    z, y, _ = data_io.generate_synthetic(cfg)
    (zc, yc), (zt, yt) = data_io.split_dataset(z, y, 1 / 3, seed=0)
    p_uncal = core.softmax_rows(zt)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        fits = {mode: optim.fit_mcct(zc, yc, mode=mode) for mode in transform.MODES}
    probs = {
        mode: core.softmax_rows(transform.apply_map_topk(zt, fits[mode].params))
        for mode in transform.MODES
    }
    elapsed = time.perf_counter() - t0
    return {
        "cal": (zc, yc),
        "test": (zt, yt),
        "p_uncal": p_uncal,
        "fits": fits,
        "probs": probs,
        "elapsed": elapsed,
    }


def test_criterion_01_universal_monotonicity():
    t0 = time.perf_counter()
    rng = np.random.default_rng(2024)
    pairs_per_mode = 10_000
    violations = 0
    counterexample = None
    for mode in transform.MODES:
        for _ in range(pairs_per_mode):
            m = int(rng.integers(2, 51))
            z = rng.normal(0.0, 2.0, m)
            params = random_valid_params(rng, m, mode)
            order = np.argsort(z, kind="stable")
            t = transform._transform_sorted(z[order], params.w, params.b, mode)
            strict = bool(np.all(np.diff(t) > 0))
            out = np.empty(m)
            out[order] = t
            same_argmax = int(out.argmax()) == int(z.argmax())
            if not (strict and same_argmax):
                violations += 1
                if counterexample is None:
                    counterexample = (z, params.w, params.b, mode)
    elapsed = time.perf_counter() - t0
    detail = (
        f"{violations} of {2 * pairs_per_mode} pairs violated in {elapsed:.1f}s; "
        "the property is false for pairs of negative values, e.g. scales (0.1, 2) "
        "map the sorted row (-10, -1) to (-1, -2); preservation holds for "
        "non-negative rows, for any row's argmax when the row max is >= 0, and "
        "for constant scales"
    )
    report(
        1,
        "strict order and argmax preservation on 10^4 random (row, params) pairs per mode",
        violations == 0 and elapsed < 10.0,
        detail,
    )


def test_criterion_02_gradient_correctness():
    rng = np.random.default_rng(77)
    step = 1e-6
    worst = 0.0
    for mode in transform.MODES:
        for _ in range(100):
            n = int(rng.integers(2, 51))
            m = int(rng.integers(2, 11))
            s = np.sort(rng.normal(0, 2, (n, m)), axis=1)
            pos = rng.integers(0, m, n)
            w = np.sort(rng.uniform(0.2, 3.0, m))
            if mode == transform.INVERSE:
                w = w[::-1].copy()
            b = np.sort(rng.normal(0, 0.5, m))
            _, grad_w, grad_b = transform.sorted_nll_objective(s, pos, w, b, mode)
            fd_w = np.empty(m)
            fd_b = np.empty(m)
            for j in range(m):
                w_hi, w_lo = w.copy(), w.copy()
                w_hi[j] += step
                w_lo[j] -= step
                fd_w[j] = (
                    transform.sorted_nll_objective(s, pos, w_hi, b, mode)[0]
                    - transform.sorted_nll_objective(s, pos, w_lo, b, mode)[0]
                ) / (2 * step)
                b_hi, b_lo = b.copy(), b.copy()
                b_hi[j] += step
                b_lo[j] -= step
                fd_b[j] = (
                    transform.sorted_nll_objective(s, pos, w, b_hi, mode)[0]
                    - transform.sorted_nll_objective(s, pos, w, b_lo, mode)[0]
                ) / (2 * step)
            rel_w = np.abs(grad_w - fd_w).max() / max(np.abs(fd_w).max(), 1e-8)
            rel_b = np.abs(grad_b - fd_b).max() / max(np.abs(fd_b).max(), 1e-8)
            worst = max(worst, rel_w, rel_b)
    report(
        2,
        "analytic gradients match central finite differences on 100 fixtures per mode",
        worst <= 1e-5,
        f"worst relative error {worst:.2e}",
    )


def test_criterion_03_temperature_embedding():
    rng = np.random.default_rng(99)
    z = rng.normal(0, 3, (200, 9))
    worst = 0.0
    for temperature in (0.5, 1.0, 2.0, 5.0):
        params = transform.MonotoneParams(
            w=np.full(9, 1.0 / temperature), b=np.zeros(9), mode="direct", m=9
        )
        got = core.softmax_rows(transform.apply_map_topk(z, params))
        expected = core.softmax_rows(z / temperature)
        worst = max(worst, float(np.abs(got - expected).max()))
    report(
        3,
        "constant scales 1/T with zero bias match temperature scaling for T in {0.5, 1, 2, 5}",
        worst <= 1e-12,
        f"worst probability deviation {worst:.2e}",
    )


def test_criterion_04_mode_equivalence(end_to_end):
    gap = abs(
        end_to_end["fits"]["direct"].final_loss - end_to_end["fits"]["inverse"].final_loss
    )
    report(
        4,
        "direct and inverse fits reach the same final NLL within 1e-5",
        gap <= 1e-5,
        f"|gap| = {gap:.2e}",
    )


def test_criterion_05_ece_oracles():
    # Worked example: confidences (.9, .9, .8, .6), correctness (1, 1, 0, 1).
    p = np.array([[0.9, 0.1], [0.9, 0.1], [0.8, 0.2], [0.6, 0.4]])
    y = np.array([0, 0, 1, 0])
    hand_value = metrics.ece(p, y, num_bins=10)[0]
    hand_ok = abs(hand_value - 0.35) <= 1e-12

    # Brute-force binning oracle on a 50-sample random fixture.
    rng = np.random.default_rng(55)
    pr = core.softmax_rows(rng.normal(0, 2, (50, 6)))
    yr = rng.integers(0, 6, 50)
    got = metrics.ece(pr, yr, num_bins=15)[0]
    conf = pr.max(axis=1)
    correct = (core.argmax_rows(pr) == yr).astype(float)
    upper = np.arange(1, 16) / 15
    expected = 0.0
    for bin_idx in range(15):
        members = [
            i
            for i in range(50)
            if conf[i] <= upper[bin_idx] and (bin_idx == 0 or conf[i] > upper[bin_idx - 1])
        ]
        if members:
            acc = float(np.mean([correct[i] for i in members]))
            avg = float(np.mean([conf[i] for i in members]))
            expected += len(members) / 50 * abs(acc - avg)
    oracle_ok = abs(got - expected) <= 1e-15

    # Single equal-count bin degenerates to |accuracy - mean confidence|.
    eq_gap = abs(
        metrics.eq_mass_ece(pr, yr, num_bins=1) - abs(correct.mean() - conf.mean())
    )
    report(
        5,
        "binning estimators match hand and brute-force oracles",
        hand_ok and oracle_ok and eq_gap <= 1e-12,
        f"hand example {hand_value:.6f}, oracle gap {abs(got - expected):.1e}, "
        f"single-bin gap {eq_gap:.1e}",
    )


def test_criterion_06_synthetic_end_to_end(end_to_end):
    (zt, yt) = end_to_end["test"]
    p_uncal = end_to_end["p_uncal"]
    ece_uncal = metrics.ece(p_uncal, yt)[0]
    acc_uncal = metrics.accuracy(p_uncal, yt)
    argmax_uncal = core.argmax_rows(p_uncal)
    ok = ece_uncal >= 0.05
    details = [f"uncalibrated ece {ece_uncal:.4f}"]
    for mode in transform.MODES:
        p_cal = end_to_end["probs"][mode]
        ece_cal = metrics.ece(p_cal, yt)[0]
        same_argmax = np.array_equal(core.argmax_rows(p_cal), argmax_uncal)
        same_accuracy = metrics.accuracy(p_cal, yt) == acc_uncal
        ok = ok and ece_cal * 3 <= ece_uncal and same_argmax and same_accuracy
        details.append(f"{mode} ece {ece_cal:.4f} (x{ece_uncal / ece_cal:.1f})")
    elapsed_ok = end_to_end["elapsed"] < 60.0
    details.append(f"setup+fits {end_to_end['elapsed']:.1f}s")
    report(6, "overconfident synthetic data: 3x ECE reduction, accuracy bitwise unchanged",
           ok and elapsed_ok, ", ".join(details))


def test_criterion_07_non_monotonic_contrast():
    small_rates, small_unc, big_rates = [], [], []
    monotone_clean = True
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        for seed in range(10):
            cfg = data_io.SynthConfig(
                n=11_000, m=20, alpha=0.3, overconfidence=2.5, seed=100 + seed
            )
            z, y, _ = data_io.generate_synthetic(cfg)
            zc, yc = z[:5000], y[:5000]
            zt = z[5000:10000]
            p_base = core.softmax_rows(zt)
            vs_small = baselines.fit_vs(zc[:100], yc[:100])
            diag_small = metrics.ranking_diagnostics(p_base, vs_small.apply(zt))
            small_rates.append(diag_small.prediction_change_rate)
            small_unc.append(diag_small.uncertain_alteration_rate)
            vs_big = baselines.fit_vs(zc, yc)
            big_rates.append(
                metrics.ranking_diagnostics(p_base, vs_big.apply(zt)).prediction_change_rate
            )
            mono = optim.fit_mcct(zc[:100], yc[:100], mode="direct")
            p_mono = core.softmax_rows(transform.apply_map_topk(zt, mono.params))
            diag_mono = metrics.ranking_diagnostics(p_base, p_mono)
            if diag_mono.prediction_change_rate != 0.0 or diag_mono.uncertain_alteration_rate != 0.0:
                monotone_clean = False
    mean_small = float(np.mean(small_rates))
    mean_unc = float(np.mean(small_unc))
    mean_big = float(np.mean(big_rates))
    ok = mean_small > 0 and mean_unc > mean_small and monotone_clean and mean_small > mean_big
    report(
        7,
        "vector scaling moves predictions (worse when small and on uncertain rows); the monotone map moves none",
        ok,
        f"vs@100 rate {mean_small:.3f}, uncertain rate {mean_unc:.3f}, vs@5000 rate {mean_big:.3f}",
    )


def test_criterion_08_data_efficiency(end_to_end):
    (zc, yc) = end_to_end["cal"]
    (zt, yt) = end_to_end["test"]
    ece_full = metrics.ece(end_to_end["probs"]["direct"], yt)[0]
    small_eces = []
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        for seed in range(10):
            idx = np.random.default_rng(seed).permutation(zc.shape[0])[:500]
            result = optim.fit_mcct(zc[idx], yc[idx], mode="direct")
            p = core.softmax_rows(transform.apply_map_topk(zt, result.params))
            small_eces.append(metrics.ece(p, yt)[0])
    mean_small = float(np.mean(small_eces))
    rel = abs(mean_small - ece_full) / ece_full
    report(
        8,
        "ECE fitted on 10% of the calibration set stays within 50% of the full-set ECE",
        rel <= 0.5,
        f"full {ece_full:.4f}, 10% mean {mean_small:.4f}, relative gap {rel:.2f}",
    )


def test_criterion_09_topk_truncation():
    cfg = data_io.SynthConfig(n=6000, m=100, alpha=0.2, overconfidence=2.5, seed=0)
    z, y, _ = data_io.generate_synthetic(cfg)
    (zc, yc), (zt, yt) = data_io.split_dataset(z, y, 1 / 3, seed=0)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        full = optim.fit_mcct(zc, yc, mode="direct")
        explicit = optim.fit_mcct(zc, yc, mode="direct", k=100)
        bitwise = np.array_equal(full.params.w, explicit.params.w) and np.array_equal(
            full.params.b, explicit.params.b
        )
        ece_full = metrics.ece(
            core.softmax_rows(transform.apply_map_topk(zt, full.params)), yt
        )[0]
        times = []
        ece_at_k = {}
        for k in (10, 25, 50, 75, 100):
            t0 = time.perf_counter()
            result = optim.fit_mcct(zc, yc, mode="direct", k=k)
            times.append(time.perf_counter() - t0)
            p = core.softmax_rows(transform.apply_map_topk(zt, result.params))
            ece_at_k[k] = metrics.ece(p, yt)[0]
    # Truncating more (smaller k) must not slow fitting: compare half-means so
    # a single noisy measurement cannot flip the trend.
    trend = float(np.mean(times[:2])) < float(np.mean(times[-2:]))
    rel50 = abs(ece_at_k[50] - ece_full) / ece_full
    ok = bitwise and trend and rel50 <= 0.25
    report(
        9,
        "k = m is bitwise-identical to the full fit; fit time grows with k; k = 50 ECE within 25%",
        ok,
        f"bitwise {bitwise}, times {['%.2f' % t for t in times]}, k50 relative gap {rel50:.3f}",
    )


def test_criterion_10_cli_determinism(tmp_path):
    data = str(tmp_path / "data.csv")
    assert cli.main([
        "gen-synth", "--n", "1500", "--m", "8", "--alpha", "0.5",
        "--overconfidence", "2.5", "--seed", "11", "--out", data,
    ]) == 0
    model_bytes = []
    compare_bytes = []
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        for run in ("first", "second"):
            model_path = str(tmp_path / f"model_{run}.json")
            assert cli.main(["fit", "--data", data, "--method", "mcct", "--out", model_path]) == 0
            model_bytes.append(open(model_path, "rb").read())
            cmp_path = str(tmp_path / f"cmp_{run}.json")
            assert cli.main([
                "compare", "--data", data, "--methods", "mcct,ts,vs",
                "--runs", "2", "--seed", "0", "--out", cmp_path,
            ]) == 0
            compare_bytes.append(
                open(cmp_path, "rb").read() + open(cmp_path[:-5] + ".csv", "rb").read()
            )
    ok = model_bytes[0] == model_bytes[1] and compare_bytes[0] == compare_bytes[1]
    report(10, "repeated fit/compare runs produce byte-identical model and metric files", ok)


def test_criterion_11_kde_sanity(end_to_end):
    conf = np.random.default_rng(404).normal(0.6, 0.1, 1000)
    h_expected = 1.06 * conf.std(ddof=1) * 1000 ** (-1 / 5)
    bandwidth_ok = abs(metrics.kde_bandwidth(conf) - h_expected) <= 1e-12

    cfg = data_io.SynthConfig(n=50_000, m=10, alpha=0.5, overconfidence=1.0, seed=0)
    z, y, _ = data_io.generate_synthetic(cfg)
    p = core.softmax_rows(z)
    kde_calibrated = metrics.ece_kde(p, y)
    calibrated_ok = kde_calibrated <= 0.01

    (zt, yt) = end_to_end["test"]
    p_smooth = end_to_end["probs"]["direct"]
    gap = abs(metrics.ece_kde(p_smooth, yt) - metrics.ece(p_smooth, yt)[0])
    report(
        11,
        "kernel bandwidth rule exact; calibrated-data estimate <= 0.01; tracks binned ECE within 0.02",
        bandwidth_ok and calibrated_ok and gap <= 0.02,
        f"kde(calibrated) {kde_calibrated:.4f}, |kde - ece| {gap:.4f}",
    )
