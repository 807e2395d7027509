import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from monocal import baselines, core, data_io, metrics, optim, transform


def two_class_rows(confidences, correctness):
    """Rows with the given top-label confidence; label matches iff correct."""
    p = np.array([[c, 1.0 - c] for c in confidences])
    y = np.array([0 if ok else 1 for ok in correctness])
    return p, y


def dense_kernel_sums(conf, correct, grid):
    """Reference kernel sums: the dense (grid, n) Gaussian kernel, built in chunks of about 1 MB."""
    h = metrics.kde_bandwidth(conf)
    density = np.empty(grid.shape[0])
    hits = np.empty(grid.shape[0])
    chunk = max(1, 131_072 // conf.shape[0])
    for start in range(0, grid.shape[0], chunk):
        k = np.exp(-0.5 * ((grid[start : start + chunk, None] - conf[None, :]) / h) ** 2)
        density[start : start + chunk] = k.sum(axis=1)
        hits[start : start + chunk] = (k * correct[None, :]).sum(axis=1)
    return density, hits


def dense_ece_kde(p, y, grid_size=1024):
    """Reference KDE-ECE on the dense kernel sums."""
    conf, correct = p.max(axis=1), (p.argmax(axis=1) == y).astype(float)
    grid = np.linspace(conf.min(), conf.max(), grid_size)
    density, hits = dense_kernel_sums(conf, correct, grid)
    covered = density > 0.0
    regression = np.zeros(grid_size)
    regression[covered] = hits[covered] / density[covered]
    err = np.abs(grid - regression)
    return float((err[covered] * density[covered]).sum() / density[covered].sum())


def assert_matches_dense(value, expected):
    # The binned Gauss transform sums in another order than the dense kernel.
    assert abs(value - expected) <= max(1e-12 * abs(expected), 1e-14), (value, expected)


# Confidence patterns for the KDE-ECE oracle test; all but "softmax" are
# two-class rows whose correctness is drawn with probability = confidence.
KDE_PATTERNS = ("softmax", "heavy_tail", "outlier", "few_values", "n10", "two_values")


def kde_rows(rng, pattern):
    """``(p, y)`` whose top-label confidences follow ``pattern``.

    ``outlier`` puts 29999 confidences within about 1e-6 of one value and one
    far below it: the bandwidth then falls below the step of the 1024-point
    grid.  ``few_values`` draws from up to 15 values, as histogram binning
    emits.
    """
    if pattern == "softmax":
        p = core.softmax_rows(rng.normal(0.0, 2.5, (3000, 10)))
        return p, rng.integers(0, 10, 3000)
    if pattern == "heavy_tail":
        conf = 0.5 + 0.5 / (1.0 + rng.pareto(0.7, 4000))
    elif pattern == "outlier":
        conf = rng.uniform(0.6, 0.99) + 1e-6 * rng.standard_normal(30_000)
        conf[rng.integers(30_000)] = rng.uniform(0.5, 0.55)
    elif pattern == "few_values":
        conf = rng.choice(rng.uniform(0.5, 1.0, rng.integers(2, 16)), 2000)
    elif pattern == "n10":
        conf = rng.uniform(0.5, 1.0, 10)
    else:
        conf = rng.choice(rng.uniform(0.5, 1.0, 2), 500)
    correct = rng.random(conf.shape[0]) < conf
    return np.column_stack([conf, 1.0 - conf]), np.where(correct, 0, 1)


class TestEce:
    def test_single_bin_gap(self):
        p, y = two_class_rows([0.9, 0.9, 0.9], [1, 1, 1])
        value, _ = metrics.ece(p, y, num_bins=10)
        assert value == pytest.approx(0.1, abs=1e-12)

    def test_perfect_predictions(self):
        p = np.eye(4)
        value, _ = metrics.ece(p, np.arange(4), num_bins=15)
        assert value == 0.0

    def test_hand_worked_example(self):
        p, y = two_class_rows([0.9, 0.9, 0.8, 0.6], [1, 1, 0, 1])
        value, bins = metrics.ece(p, y, num_bins=10)
        assert value == pytest.approx(0.35, abs=1e-12)
        assert bins.count.sum() == 4
        assert bins.count[8] == 2  # the two 0.9-confidence rows share (0.8, 0.9]

    def test_matches_brute_force_oracle(self):
        rng = np.random.default_rng(33)
        p = core.softmax_rows(rng.normal(0, 2, (50, 6)))
        y = rng.integers(0, 6, 50)
        num_bins = 15
        value, bins = metrics.ece(p, y, num_bins=num_bins)
        conf = p.max(axis=1)
        correct = (core.argmax_rows(p) == y).astype(float)
        upper = np.arange(1, num_bins + 1) / num_bins
        expected = 0.0
        for b in range(num_bins):
            lo = upper[b] - 1 / num_bins if b else 0.0
            members = [i for i in range(50) if (conf[i] <= upper[b] and (b == 0 or conf[i] > upper[b - 1]))]
            if members:
                acc = float(np.mean([correct[i] for i in members]))
                avg = float(np.mean([conf[i] for i in members]))
                expected += len(members) / 50 * abs(acc - avg)
                assert bins.count[b] == len(members)
                assert bins.accuracy[b] == acc
                assert bins.confidence[b] == avg
            else:
                assert bins.count[b] == 0
        assert value == pytest.approx(expected, abs=1e-15)

    def test_permutation_invariant(self):
        rng = np.random.default_rng(35)
        p = core.softmax_rows(rng.normal(0, 2, (40, 5)))
        y = rng.integers(0, 5, 40)
        order = rng.permutation(40)
        assert metrics.ece(p, y)[0] == metrics.ece(p[order], y[order])[0]

    def test_bin_edges_are_exact(self):
        _, bins = metrics.ece(np.array([[0.6, 0.4]]), np.array([0]), num_bins=8)
        assert np.array_equal(bins.lower, np.arange(8) / 8)
        assert np.array_equal(bins.upper, np.arange(1, 9) / 8)

    def test_empty_bins_counted_as_zero(self):
        p, y = two_class_rows([0.95], [1])
        bins = metrics.ece(p, y, num_bins=10)[1]
        assert bins.count[-1] == 1
        assert np.all(bins.count[:-1] == 0)
        assert np.isnan(bins.accuracy[0])


class TestEqMassEce:
    def test_zero_on_constant_calibrated_data(self):
        # 4 of 5 correct at confidence 0.8 in every bin-sized group.
        p, y = two_class_rows([0.8] * 5, [1, 1, 1, 1, 0])
        assert metrics.eq_mass_ece(p, y, num_bins=1) == pytest.approx(0.0, abs=1e-12)

    def test_single_bin_is_accuracy_confidence_gap(self):
        rng = np.random.default_rng(36)
        p = core.softmax_rows(rng.normal(0, 2, (30, 4)))
        y = rng.integers(0, 4, 30)
        conf = p.max(axis=1)
        correct = (core.argmax_rows(p) == y).astype(float)
        expected = abs(correct.mean() - conf.mean())
        assert abs(metrics.eq_mass_ece(p, y, num_bins=1) - expected) <= 1e-12

    def test_matches_sorted_split_oracle(self):
        rng = np.random.default_rng(37)
        p = core.softmax_rows(rng.normal(0, 2, (30, 5)))
        y = rng.integers(0, 5, 30)
        num_bins = 4
        conf = p.max(axis=1)
        correct = (core.argmax_rows(p) == y).astype(float)
        order = np.argsort(conf, kind="stable")
        # 30 = 4*7 + 2: the two lowest bins take 8 samples each.
        sizes = [8, 8, 7, 7]
        expected, start = 0.0, 0
        for size in sizes:
            grp = order[start : start + size]
            expected += abs(correct[grp].mean() - conf[grp].mean())
            start += size
        assert metrics.eq_mass_ece(p, y, num_bins=num_bins) == expected

    def test_requires_enough_samples(self):
        p, y = two_class_rows([0.8, 0.9], [1, 1])
        with pytest.raises(ValueError, match="at least"):
            metrics.eq_mass_ece(p, y, num_bins=5)


@pytest.mark.parametrize("metric", [metrics.ece, metrics.eq_mass_ece])
@pytest.mark.parametrize("num_bins", [0, -1])
def test_refuses_fewer_than_one_bin(metric, num_bins):
    p, y = two_class_rows([0.8, 0.6], [True, False])
    with pytest.raises(ValueError, match="need num_bins >= 1"):
        metric(p, y, num_bins)


class TestEceKde:
    def test_bandwidth_rule(self):
        conf = np.array([0.3, 0.5, 0.7, 0.9, 0.2, 0.6])
        expected = 1.06 * conf.std(ddof=1) * 6 ** (-1 / 5)
        assert abs(metrics.kde_bandwidth(conf) - expected) <= 1e-12

    def test_bandwidth_known_value(self):
        # sigma 0.1 at n = 1000 gives 1.06 * 0.1 * 1000^(-0.2) ~ 0.02662.
        rng = np.random.default_rng(38)
        conf = rng.normal(0.5, 0.1, 1000)
        h = metrics.kde_bandwidth(conf)
        assert h == pytest.approx(1.06 * conf.std(ddof=1) * 1000 ** (-0.2), abs=1e-15)
        assert h == pytest.approx(0.02662, abs=2e-3)

    def test_small_on_calibrated_data(self):
        cfg = data_io.SynthConfig(n=20_000, m=10, alpha=0.5, overconfidence=1.0, seed=2)
        z, y, _ = data_io.generate_synthetic(cfg)
        assert metrics.ece_kde(core.softmax_rows(z), y) <= 0.01

    def test_tracks_binned_estimate_on_smooth_data(self):
        cfg = data_io.SynthConfig(n=20_000, m=10, alpha=0.5, overconfidence=2.0, seed=3)
        z, y, _ = data_io.generate_synthetic(cfg)
        p = core.softmax_rows(z)
        assert abs(metrics.ece_kde(p, y) - metrics.ece(p, y)[0]) <= 0.02

    def test_chunks_match_whole_kernel_matrix(self):
        # 2000 rows take 16 chunks of up to 65 grid points in the dense oracle,
        # whose row sums do not depend on chunking; ece_kde sums in another
        # order and matches within the stated tolerance.
        rng = np.random.default_rng(41)
        p = core.softmax_rows(rng.normal(0, 2, (2000, 5)))
        y = rng.integers(0, 5, 2000)
        conf, correct = p.max(axis=1), (p.argmax(axis=1) == y).astype(float)
        grid = np.linspace(conf.min(), conf.max(), 1024)
        k = np.exp(-0.5 * ((grid[:, None] - conf[None, :]) / metrics.kde_bandwidth(conf)) ** 2)
        density, hits = k.sum(axis=1), (k * correct[None, :]).sum(axis=1)
        expected = (np.abs(grid - hits / density) * density).sum() / density.sum()
        assert dense_ece_kde(p, y) == expected
        assert_matches_dense(metrics.ece_kde(p, y), expected)

    @settings(max_examples=60, deadline=None)
    @given(st.sampled_from(KDE_PATTERNS), st.integers(0, 2**32 - 1), st.sampled_from((metrics.KDE_GRID_SIZE, 60, 16)))
    def test_matches_dense_kernel(self, pattern, seed, grid_size):
        p, y = kde_rows(np.random.default_rng(seed), pattern)
        conf, correct = p.max(axis=1), (p.argmax(axis=1) == y).astype(float)
        lo, hi, h = conf.min(), conf.max(), metrics.kde_bandwidth(conf)
        step = (hi - lo) / (grid_size - 1)
        if pattern == "outlier":
            assert h < step
        if grid_size == metrics.KDE_GRID_SIZE:
            assert_matches_dense(metrics.ece_kde(p, y), dense_ece_kde(p, y))
        # Each grid sum: relative rounding (the dense sums' own rounding grows
        # with range / bandwidth, to about 2e-12 on "outlier") plus at most
        # exp(-KDE_CUTOFF**2 / 2) per point cut off.
        fast = metrics._gauss_sums(conf, correct, lo, step, h, grid_size)
        dense = np.array(dense_kernel_sums(conf, correct, np.linspace(lo, hi, grid_size)))
        cut = conf.shape[0] * np.exp(-(metrics.KDE_CUTOFF**2) / 2)
        assert np.all(np.abs(fast - dense) <= 1e-11 * dense + cut)

    def test_constant_confidence_fallback(self):
        p, y = two_class_rows([0.8] * 12, [1] * 10 + [0] * 2)
        with pytest.warns(UserWarning, match="identical"):
            value = metrics.ece_kde(p, y)
        assert value == pytest.approx(abs(10 / 12 - 0.8), abs=1e-12)

    def test_requires_ten_samples(self):
        p, y = two_class_rows([0.6, 0.7, 0.8], [1, 1, 0])
        with pytest.raises(ValueError, match="at least 10"):
            metrics.ece_kde(p, y)

    @settings(max_examples=10, deadline=None)
    @given(st.integers(0, 2**32 - 1))
    def test_non_negative(self, seed):
        rng = np.random.default_rng(seed)
        p = core.softmax_rows(rng.normal(0, 2, (60, 4)))
        y = rng.integers(0, 4, 60)
        assert metrics.ece_kde(p, y) >= 0.0
        assert metrics.ece(p, y)[0] >= 0.0
        assert metrics.eq_mass_ece(p, y) >= 0.0


class TestRankingDiagnostics:
    def test_identical_probabilities(self):
        rng = np.random.default_rng(40)
        p = core.softmax_rows(rng.normal(0, 1, (25, 4)))
        diag = metrics.ranking_diagnostics(p, p)
        assert diag.prediction_change_rate == 0.0
        assert diag.uncertain_alteration_rate == 0.0

    def test_monotone_map_output(self, overconfident_split, fitted_direct):
        _, (zt, _) = overconfident_split
        p_before = core.softmax_rows(zt)
        p_after = core.softmax_rows(transform.apply_map_topk(zt, fitted_direct.params))
        diag = metrics.ranking_diagnostics(p_before, p_after)
        assert diag.prediction_change_rate == 0.0
        assert diag.uncertain_alteration_rate == 0.0

    def test_matches_scalar_scan_on_vs(self):
        cfg = data_io.SynthConfig(n=2100, m=20, alpha=0.3, overconfidence=2.5, seed=104)
        z, y, _ = data_io.generate_synthetic(cfg)
        vs = baselines.fit_vs(z[:100], y[:100])
        p_before = core.softmax_rows(z[100:])
        p_after = vs.apply(z[100:])
        diag = metrics.ranking_diagnostics(p_before, p_after)
        n = p_before.shape[0]
        changed = unc = changed_unc = 0
        for i in range(n):
            moved = int(np.argmax(p_after[i]) != np.argmax(p_before[i]))
            changed += moved
            if p_before[i].max() < 0.7:
                unc += 1
                changed_unc += moved
        assert diag.prediction_change_rate == changed / n
        assert diag.uncertain_alteration_rate == changed_unc / unc
        assert diag.n_uncertain == unc
        assert diag.prediction_change_rate > 0

    def test_empty_uncertain_set_flagged(self):
        p = np.array([[0.99, 0.01], [0.95, 0.05]])
        with pytest.warns(UserWarning, match="below 0.7"):
            diag = metrics.ranking_diagnostics(p, p[::-1].copy())
        assert diag.n_uncertain == 0
        assert diag.uncertain_alteration_rate == 0.0

    def test_shape_mismatch(self):
        p = np.array([[0.6, 0.4]])
        with pytest.raises(ValueError, match="shape mismatch"):
            metrics.ranking_diagnostics(p, np.array([[0.6, 0.3, 0.1]]))


class TestReport:
    def test_full_report_fields(self, overconfident_split, fitted_direct):
        _, (zt, yt) = overconfident_split
        p_base = core.softmax_rows(zt)
        p = core.softmax_rows(transform.apply_map_topk(zt, fitted_direct.params))
        report = metrics.compute_report(p, yt, p_base)
        assert 0.0 <= report.ece <= 1.0
        assert report.eq_mass_ece >= 0.0
        assert report.ece_kde >= 0.0
        assert report.accuracy == metrics.accuracy(p_base, yt)  # argmax preserved
        assert report.prediction_change_rate == 0.0
        doc = report.to_json()
        assert set(doc) == {
            "ece", "eq_mass_ece", "ece_kde", "accuracy", "nll",
            "prediction_change_rate", "uncertain_alteration_rate", "bins",
        }

    def test_equals_individual_metrics_bitwise(self):
        cfg = data_io.SynthConfig(n=3000, m=10, alpha=0.5, overconfidence=2.5, seed=6)
        z, y, _ = data_io.generate_synthetic(cfg)
        vs = baselines.fit_vs(z[:500], y[:500])
        p_base, p, yt = core.softmax_rows(z[500:]), vs.apply(z[500:]), y[500:]
        report = metrics.compute_report(p, yt, p_base, num_bins=12)
        value, bins = metrics.ece(p, yt, 12)
        ranking = metrics.ranking_diagnostics(p_base, p)
        assert ranking.prediction_change_rate > 0
        expected = {
            "ece": value,
            "eq_mass_ece": metrics.eq_mass_ece(p, yt, 12),
            "ece_kde": metrics.ece_kde(p, yt),
            "accuracy": metrics.accuracy(p, yt),
            "nll": core.nll(p, yt),
            "prediction_change_rate": ranking.prediction_change_rate,
            "uncertain_alteration_rate": ranking.uncertain_alteration_rate,
        }
        for name, v in expected.items():
            assert np.float64(getattr(report, name)).tobytes() == np.float64(v).tobytes(), name
        assert report.bins.to_json() == bins.to_json()
        assert report.bins.to_csv() == bins.to_csv()

    def test_validates_each_probability_matrix_once(self, monkeypatch):
        calls = []
        validate = core.validate_probs
        monkeypatch.setattr(core, "validate_probs", lambda p: calls.append(1) or validate(p))
        rng = np.random.default_rng(42)
        p_base = core.softmax_rows(rng.normal(0, 2, (200, 5)))
        metrics.compute_report(p_base, rng.integers(0, 5, 200), p_base)
        assert len(calls) == 2

    def test_shape_mismatch(self):
        p, y = two_class_rows([0.9] * 6 + [0.6] * 6, [1] * 12)
        with pytest.raises(ValueError, match="shape mismatch"):
            metrics.compute_report(p, y, np.array([[0.6, 0.3, 0.1]] * 12), num_bins=2)

    def test_small_sample_degradation(self):
        p, y = two_class_rows([0.9, 0.8, 0.7, 0.6], [1, 1, 0, 1])
        with pytest.warns(UserWarning):
            report = metrics.compute_report(p, y, p, num_bins=10)
        assert np.isnan(report.eq_mass_ece)
        assert np.isnan(report.ece_kde)
        assert report.to_json()["eq_mass_ece"] is None

    def test_bin_csv_shape(self):
        p, y = two_class_rows([0.9, 0.6], [1, 0])
        bins = metrics.ece(p, y, num_bins=5)[1]
        lines = bins.to_csv().strip().split("\n")
        assert lines[0] == "bin,lower,upper,count,confidence,accuracy"
        assert len(lines) == 6
        for line in lines[1:]:
            cells = line.split(",")
            assert len(cells) == 6
            float(cells[1]), float(cells[2]), float(cells[4]), float(cells[5])
        assert lines[5].startswith("4,0.8,1.0,1,")


def report_bytes(report):
    """Every value of a report as bytes, so equality is bitwise."""
    scalars = [np.float64(getattr(report, name)).tobytes() for name in report.scalars()]
    return scalars, report.bins.to_csv()


class TestStreamedReport:
    @pytest.fixture(scope="class")
    def models(self):
        """A model of every kind, plus a top-k map, and test logits with ties straddling its cut."""
        cfg = data_io.SynthConfig(n=1400, m=7, alpha=0.4, overconfidence=2.5, seed=31)
        z, y, _ = data_io.generate_synthetic(cfg)
        # Half-unit logits tie often, also across the top-k map's cut.
        z = np.round(2.0 * z) / 2.0
        zc, yc, zt, yt = z[:1000], y[:1000], z[1000:], y[1000:]
        fits = {kind: baselines.fit_baseline(kind, zc, yc) for kind in ("ts", "vs", "hb", "ets-nll", "ets-mse")}
        for kind, mode in baselines.MONOTONE_MODES.items():
            fits[kind] = baselines.from_monotone_params(optim.fit_mcct(zc, yc, mode=mode).params)
        fits["mcct-top3"] = baselines.from_monotone_params(optim.fit_mcct(zc, yc, k=3).params)
        top = np.sort(zt, axis=1)[:, -3:]
        straddling = (top[:, 1] == top[:, 0]) & ((zt >= top[:, :1]).sum(axis=1) > 3)
        assert straddling.sum() >= 3
        return fits, zt, yt

    # Blocks of 1 entry (less than a row), of 3 rows and of 57 rows: the last
    # two leave a short block at the end of the 400 rows.
    @pytest.mark.parametrize("block_doubles", [1, 3 * 7, 57 * 7])
    def test_equals_the_matrix_report_bitwise(self, models, monkeypatch, block_doubles):
        fits, zt, yt = models
        expected = {
            kind: report_bytes(metrics.compute_report(model.apply(zt), yt, core.softmax_rows(zt)))
            for kind, model in fits.items()
        }
        p_base = core.softmax_rows(zt)
        expected["uncalibrated"] = report_bytes(metrics.compute_report(p_base, yt, p_base))
        monkeypatch.setattr(core, "BLOCK_DOUBLES", block_doubles)
        base = metrics._top_labels(core.softmax_rows, zt, yt)
        assert report_bytes(metrics.compute_report(base, yt, base)) == expected["uncalibrated"]
        for kind, model in fits.items():
            streamed = metrics.compute_report(metrics._top_labels(model.apply, zt, yt), yt, base)
            assert report_bytes(streamed) == expected[kind], kind

    def test_thread_count_does_not_change_the_statistics(self, models, monkeypatch):
        fits, zt, yt = models
        monkeypatch.setattr(core, "BLOCK_DOUBLES", 3 * 7)
        for kind, probs_of in [("softmax", core.softmax_rows), *((k, m.apply) for k, m in fits.items())]:
            for y in (yt, None):
                serial, threaded = (metrics._top_labels(probs_of, zt, y, threads) for threads in (1, 3))
                for field in ("pred", "conf", "correct", "picked"):
                    a, b = getattr(serial, field), getattr(threaded, field)
                    assert (a is None and b is None) or a.tobytes() == b.tobytes(), (kind, field)

    def test_one_read_serves_several_maps(self, models, monkeypatch, tmp_path):
        # The statistics of each map from one walk, from the logits or from a
        # binary file's block reader, equal those of separate walks bitwise.
        # Half-unit logits are exact in the file's float32.
        fits, zt, yt = models
        path = str(tmp_path / "test.bin")
        data_io.write_dataset(path, zt, yt)
        monkeypatch.setattr(core, "BLOCK_DOUBLES", 3 * 7)
        maps = (fits["mcct-top3"].apply, core.softmax_rows, fits["ets-nll"].apply)
        for z in (zt, data_io.read_dataset(path)[0]):
            for threads in (1, 3):
                together = metrics._top_labels(maps, z, yt, threads)
                assert isinstance(together, tuple) and len(together) == len(maps)
                for probs_of, top in zip(maps, together):
                    alone = metrics._top_labels(probs_of, zt, yt)
                    for field in ("pred", "conf", "correct", "picked"):
                        assert getattr(top, field).tobytes() == getattr(alone, field).tobytes()

    def test_non_finite_row_in_a_middle_block_raises_the_serial_error(self, models, monkeypatch):
        fits, zt, yt = models
        monkeypatch.setattr(core, "BLOCK_DOUBLES", 3 * 7)
        z = zt.copy()
        z[200, 4] = np.nan
        for probs_of in (core.softmax_rows, fits["mcct"].apply, fits["ts"].apply):
            messages = []
            for threads in (1, 3):
                with pytest.raises(ValueError) as exc:
                    metrics._top_labels(probs_of, z, yt, threads)
                messages.append(str(exc.value))
            assert messages[0] == messages[1] == "logit matrix contains NaN or infinite entries"
