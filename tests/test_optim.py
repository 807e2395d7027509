import dataclasses
import tracemalloc
import warnings
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from monocal import baselines, core, data_io, metrics, optim, transform

from conftest import (
    ROW_PATTERNS,
    patterned_logits,
    projected_gradient_residual,
    slsqp_fit,
    stable_fit_inputs,
    stable_label_positions,
)

ORACLE_CASES = [(pattern, k) for pattern in ROW_PATTERNS for k in (3, 8)] + [("overconfident-9000x10", 10)]


class TestInitParams:
    def test_is_identity_map(self):
        params = optim.init_params(3)
        assert np.array_equal(params.w, np.ones(3))
        assert np.array_equal(params.b, np.zeros(3))
        assert params.m == 3 and optim.init_params(3, m=5).m == 5

    @pytest.mark.parametrize("k", [2, 3, 10])
    def test_inits_are_feasible(self, k):
        params = optim.init_params(k)
        assert optim.constraint_violation(params) == 0.0

    def test_top_k_init_applies_as_identity(self):
        # With k < m the lower ranks take the first (unit, zero) pair too.
        z = np.random.default_rng(22).normal(0, 2, (50, 6))
        assert transform.apply_map_topk(z, optim.init_params(3, m=6)).tobytes() == z.tobytes()

    def test_rejects_k_below_two(self):
        with pytest.raises(ValueError, match="k >= 2"):
            optim.init_params(1)


class TestConstraintViolation:
    def test_chain_differences(self):
        # Duck-typed parameters: MonotoneParams rejects infeasible values.
        def violation(w, b):
            return optim.constraint_violation(SimpleNamespace(w=np.array(w), b=np.array(b)))

        assert violation([1.0, 3.0], [0.0, 2.0]) == 0.0
        assert violation([3.0, 1.0], [0.0, 2.0]) == 2.0
        assert violation([1.0, 3.0], [2.0, 0.5]) == 1.5
        assert violation([5e-9, 3.0], [0.0, 0.0]) == optim.W_FLOOR - 5e-9


class TestFit:
    def test_near_identity_on_calibrated_data(self, calibrated_split):
        # Calibrating already-calibrated data should barely change test NLL.
        (zc, yc), (zt, yt) = calibrated_split
        nll_before = core.nll(core.softmax_rows(zt), yt)
        result = optim.fit_mcct(zc, yc)
        nll_after = core.nll(core.softmax_rows(transform.apply_map_topk(zt, result.params)), yt)
        assert abs(nll_after - nll_before) / nll_before <= 1e-3

    def test_recovers_temperature_like_scaling(self):
        # Logits scaled by 2.5: the fit should find a near-constant w around 1/2.5.
        cfg = data_io.SynthConfig(n=15_000, m=10, alpha=0.5, overconfidence=2.5, seed=6)
        z, y, _ = data_io.generate_synthetic(cfg)
        (zc, yc), (zt, yt) = data_io.split_dataset(z, y, 1 / 3, seed=6)
        result = optim.fit_mcct(zc, yc)
        w = result.params.w
        assert w.max() - w.min() < 0.15
        assert 0.3 <= w.mean() <= 0.5
        ece_fit = metrics.ece(core.softmax_rows(transform.apply_map_topk(zt, result.params)), yt)[0]
        ece_oracle = metrics.ece(core.softmax_rows(zt / 2.5), yt)[0]
        assert ece_fit <= 2.0 * ece_oracle

    def test_descent_from_init(self, overconfident_split, fitted_map):
        (zc, yc), _ = overconfident_split
        start = optim.init_params(10, m=10)
        s, y_pos = np.sort(zc, axis=1), transform.label_positions(zc, yc)
        init_loss = transform.sorted_nll_objective(s, y_pos, start.w, start.b)[0]
        assert fitted_map.final_loss <= init_loss

    def test_returned_params_feasible(self, fitted_map):
        assert fitted_map.constraint_violation == 0.0
        assert np.all(fitted_map.params.w >= optim.W_FLOOR)

    @pytest.mark.parametrize("pattern", ROW_PATTERNS)
    @pytest.mark.parametrize("k", [3, 8])
    @pytest.mark.parametrize("max_iterations", [1, 2, 3])
    def test_feasible_by_construction(self, pattern, k, max_iterations):
        # Early iterates of a short solve sit anywhere in the feasible set;
        # each is returned as the solver left it, with nothing repaired.
        rng = np.random.default_rng(62)
        z = patterned_logits(rng, 400, 8, k, pattern) * 1.5
        y = np.where(rng.uniform(size=400) < 0.6, z.argmax(axis=1), rng.integers(0, 8, 400))
        result = _quiet_fit(z, y, k=k, max_iterations=max_iterations)
        w, b = result.params.w, result.params.b
        assert np.all(np.diff(w) >= 0)
        assert np.all(np.diff(b) >= 0)
        assert np.all(w >= optim.W_FLOOR)
        assert result.constraint_violation == 0.0

    @pytest.mark.parametrize("pattern,k", ORACLE_CASES)
    def test_newton_matches_slsqp_oracle(self, pattern, k):
        if pattern in ROW_PATTERNS:
            rng = np.random.default_rng(63)
            z = patterned_logits(rng, 400, 8, k, pattern) * 1.5
            y = np.where(rng.uniform(size=400) < 0.6, z.argmax(axis=1), rng.integers(0, 8, 400))
        else:
            z, y, _ = data_io.generate_synthetic(data_io.SynthConfig(n=9000, m=10, alpha=0.5, overconfidence=2.5, seed=7))
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            result = optim.fit_mcct(z, y, k=k)
        oracle_loss = slsqp_fit(z, y, k)[2]
        assert result.converged
        assert result.params.b[0] == 0.0
        assert result.final_loss <= oracle_loss + 1e-8 * max(1.0, abs(oracle_loss))
        assert projected_gradient_residual(z, y, result.params) < 1e-6

    def test_deterministic(self):
        cfg = data_io.SynthConfig(n=800, m=6, alpha=0.5, overconfidence=2.0, seed=13)
        z, y, _ = data_io.generate_synthetic(cfg)
        a = optim.fit_mcct(z, y)
        b = optim.fit_mcct(z, y)
        assert np.array_equal(a.params.w, b.params.w)
        assert np.array_equal(a.params.b, b.params.b)
        assert a.final_loss == b.final_loss
        assert a.iterations == b.iterations

    def test_topk_fit_reports_dropped(self):
        cfg = data_io.SynthConfig(n=1000, m=12, alpha=0.3, overconfidence=2.0, seed=21)
        z, y, _ = data_io.generate_synthetic(cfg)
        result = optim.fit_mcct(z, y, k=4)
        assert result.params.k == 4
        assert result.params.m == 12
        assert result.dropped_samples > 0
        pos = stable_label_positions(z, y)
        assert result.dropped_samples == int((pos < 12 - 4).sum())

    @pytest.mark.parametrize("pattern", ROW_PATTERNS)
    @pytest.mark.parametrize("k", [3, 8])
    def test_fit_matches_fit_on_stable_sort_inputs(self, monkeypatch, pattern, k):
        # The fit sorts values only and counts label ranks; a fit whose
        # sorted block and ranks come from the stable row sort is the oracle.
        rng = np.random.default_rng(61)
        z = patterned_logits(rng, 400, 8, k, pattern) * 1.5
        y = np.where(rng.uniform(size=400) < 0.6, z.argmax(axis=1), rng.integers(0, 8, 400))
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            fast = optim.fit_mcct(z, y, k=k)
            monkeypatch.setattr(optim, "truncate_training_set", lambda s, pos, k: stable_fit_inputs(z, y, k))
            oracle = optim.fit_mcct(z, y, k=k)
        assert fast.params.w.tobytes() == oracle.params.w.tobytes()
        assert fast.params.b.tobytes() == oracle.params.b.tobytes()
        assert fast.final_loss == oracle.final_loss
        assert fast.iterations == oracle.iterations
        assert fast.dropped_samples == oracle.dropped_samples

    def test_counts_tied_and_reordered_rows(self):
        rng = np.random.default_rng(1)
        z = rng.normal(0, 1, (20, 3))
        z[0, 0] = z[0, 1]
        z[5, 2] = z[5, 1]
        y = rng.integers(0, 3, 20)
        with pytest.warns(UserWarning, match="2 rows contain tied logits"):
            result = optim.fit_mcct(z, y)
        assert result.tied_rows == 2
        assert result.reordered_rows == transform.order_violations(z, result.params)

    def test_ties_alone_are_not_reorders(self):
        # All scores positive, so no strictly ordered pair can be reversed;
        # ties below the cut share (w[0], b[0]) and map to equal values.
        rng = np.random.default_rng(3)
        z = rng.uniform(1.0, 5.0, (300, 6))
        z[::10, 1] = z[::10, 0]
        y = rng.integers(0, 6, 300)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            result = optim.fit_mcct(z, y, k=3)
        assert result.tied_rows == 30
        assert result.reordered_rows == 0
        assert not [w for w in caught if "reorders" in str(w.message)]
        assert result.distinct_labels == 6

    def test_k_equals_m_matches_default(self):
        cfg = data_io.SynthConfig(n=600, m=5, alpha=0.5, overconfidence=2.0, seed=2)
        z, y, _ = data_io.generate_synthetic(cfg)
        full = optim.fit_mcct(z, y)
        explicit = optim.fit_mcct(z, y, k=5)
        assert np.array_equal(full.params.w, explicit.params.w)
        assert np.array_equal(full.params.b, explicit.params.b)

    def test_warns_on_degenerate_labels(self):
        rng = np.random.default_rng(0)
        z = rng.normal(0, 1, (20, 3))
        with pytest.warns(UserWarning, match="identical"):
            result = optim.fit_mcct(z, np.zeros(20, dtype=int))
        assert result.distinct_labels == 1

    def test_warns_on_tied_logits(self):
        rng = np.random.default_rng(1)
        z = rng.normal(0, 1, (20, 3))
        z[0, 0] = z[0, 1]
        y = rng.integers(0, 3, 20)
        with pytest.warns(UserWarning, match="tied logits"):
            optim.fit_mcct(z, y)

    def test_iteration_cap_reports_nonconvergence(self):
        cfg = data_io.SynthConfig(n=500, m=6, alpha=0.5, overconfidence=2.5, seed=3)
        z, y, _ = data_io.generate_synthetic(cfg)
        result = optim.fit_mcct(z, y, max_iterations=1)
        assert not result.converged
        # Best iterate is still feasible and no worse than the start.
        assert result.constraint_violation == 0.0

    def test_iteration_cap_never_worse_than_uncalibrated(self):
        # Calibrated data: one step from any start other than the identity
        # map can leave the fit worse than the raw logits.
        cfg = data_io.SynthConfig(n=500, m=6, alpha=0.5, overconfidence=1.0, seed=3)
        z, y, _ = data_io.generate_synthetic(cfg)
        uncalibrated = core.nll(core.softmax_rows(z), y)
        result = optim.fit_mcct(z, y, max_iterations=1)
        p = core.softmax_rows(transform.apply_map_topk(z, result.params))
        assert core.nll(p, y) <= uncalibrated
        assert result.final_loss <= result.initial_loss

    def test_overflowing_hessian_is_not_convergence(self):
        # s**2 overflows, so the Hessian holds NaNs and no step lowers the
        # loss: the fit stops at the identity map and says so.
        rng = np.random.default_rng(5)
        z = rng.normal(0, 1, (50, 4)) * 1e200
        y = rng.integers(0, 4, 50)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            result = optim.fit_mcct(z, y)
        assert not result.converged
        assert result.final_loss == result.initial_loss
        assert np.array_equal(result.params.w, np.ones(4))

    def test_rejects_single_sample(self):
        with pytest.raises(ValueError, match="at least 2"):
            optim.fit_mcct(np.array([[0.0, 1.0]]), np.array([1]))

    def test_rejects_bad_k(self):
        rng = np.random.default_rng(4)
        z = rng.normal(0, 1, (10, 4))
        y = rng.integers(0, 4, 10)
        with pytest.raises(ValueError, match="2 <= k <= m"):
            optim.fit_mcct(z, y, k=1)
        with pytest.raises(ValueError, match="2 <= k <= m"):
            optim.fit_mcct(z, y, k=5)

    def test_rejects_labels_all_outside_the_top_k(self):
        # Every label is its row's smallest logit, which a top-3 fit of 4 classes drops.
        z = np.random.default_rng(4).normal(0, 1, (10, 4))
        with pytest.raises(ValueError, match="every sample's true class fell outside the top k ranks"):
            optim.fit_mcct(z, z.argmin(axis=1), k=3)

    def test_rejects_nonpositive_max_iterations(self):
        rng = np.random.default_rng(4)
        z = rng.normal(0, 1, (10, 4))
        y = rng.integers(0, 4, 10)
        with pytest.raises(ValueError, match="max_iterations must be >= 1"):
            optim.fit_mcct(z, y, max_iterations=0)

    @pytest.mark.parametrize("k", [None, 3])
    def test_each_point_is_evaluated_once(self, monkeypatch, k):
        # One forward evaluation (transform, softmax and loss) per distinct
        # point in each stage: the temperature stage's softmaxes are all at
        # different scales, and every objective call of the map stage is at a
        # new map and defers its derivatives to that call's softmax.  The
        # reported losses are the solver's, at the identity map and at the
        # returned parameters.
        cfg = data_io.SynthConfig(n=800, m=6, alpha=0.5, overconfidence=2.5, seed=8)
        z, y, _ = data_io.generate_synthetic(cfg)
        objective, softmax_nll = optim.sorted_nll_objective, optim.softmax_nll
        scaled, maps = [], []

        def counted_softmax(t, label):
            scaled.append(t.tobytes())
            return softmax_nll(t, label)

        def counted(*args, **kwargs):
            assert len(args) == 5 and args[4] is None and not kwargs
            maps.append(args[2].tobytes() + args[3].tobytes())
            return objective(*args, **kwargs)

        monkeypatch.setattr(optim, "softmax_nll", counted_softmax)
        monkeypatch.setattr(optim, "sorted_nll_objective", counted)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            result = optim.fit_mcct(z, y, k=k)
        assert result.iterations >= 1 and len(maps) >= 1 and len(scaled) >= 1
        assert len(set(scaled)) == len(scaled)
        assert len(set(maps)) == len(maps)
        params = result.params
        s, pos, _ = transform.truncate_training_set(np.sort(z, axis=1), transform.label_positions(z, y), params.k)
        assert result.initial_loss == objective(s, pos, np.ones(params.k), np.zeros(params.k), 0)
        assert result.final_loss == objective(s, pos, params.w, params.b, 0)

    @pytest.mark.parametrize("k", [None, 3])
    def test_trace_runs_on_across_both_stages(self, monkeypatch, k):
        # The temperature stage's iterates come first, with one free variable;
        # the point it hands over is recorded once, by the map stage.
        cfg = data_io.SynthConfig(n=800, m=6, alpha=0.5, overconfidence=2.5, seed=8)
        z, y, _ = data_io.generate_synthetic(cfg)
        stages = _recorded_temperatures(monkeypatch)
        records = []
        result = _quiet_fit(z, y, k=k, trace=records.append)
        beta, initial_loss, steps, _ = stages[0]
        assert 1 <= steps < result.iterations
        assert [r["iteration"] for r in records] == list(range(result.iterations + 1))
        assert records[0]["loss"] == initial_loss == result.initial_loss
        assert records[-1]["loss"] == result.final_loss
        assert all(r["free"] == 1 for r in records[:steps])
        assert all(r["step"] > 0 for r in records[:-1]) and records[-1]["step"] == 0.0
        losses = [r["loss"] for r in records]
        assert all(later < earlier for earlier, later in zip(losses, losses[1:]))

    @pytest.mark.parametrize("max_iterations", [1, 2, 3, 5, 8])
    def test_iteration_cap_bounds_both_stages(self, max_iterations):
        cfg = data_io.SynthConfig(n=800, m=6, alpha=0.5, overconfidence=2.5, seed=8)
        z, y, _ = data_io.generate_synthetic(cfg)
        records = []
        result = _quiet_fit(z, y, max_iterations=max_iterations, trace=records.append)
        assert result.iterations == max_iterations and not result.converged
        assert len(records) == max_iterations + 1
        assert result.final_loss < result.initial_loss

    def test_a_converged_step_that_changes_the_held_set_does_not_end_the_solve(self):
        # On this set the full step taken at a converged point changes which
        # variables are held; stopping there left a projected gradient of 1.8e-4.
        z, y, _ = data_io.generate_synthetic(data_io.SynthConfig(n=9000, m=10, alpha=0.5, overconfidence=2.5, seed=14))
        records = []
        result = _quiet_fit(z, y, trace=records.append)
        assert result.converged and records[-1]["pg_norm"] < 1e-6
        assert projected_gradient_residual(z, y, result.params) < 1e-6

    @pytest.mark.parametrize("pattern", ROW_PATTERNS)
    @pytest.mark.parametrize("k", [3, 8])
    def test_temperature_start_reaches_the_identity_start_optimum(self, monkeypatch, pattern, k):
        # At k < m and at k = m (8 classes): a fit started from the identity
        # map, its temperature stage skipped, is the oracle.
        rng = np.random.default_rng(63)
        z = patterned_logits(rng, 400, 8, k, pattern) * 1.5
        y = np.where(rng.uniform(size=400) < 0.6, z.argmax(axis=1), rng.integers(0, 8, 400))
        warm = _quiet_fit(z, y, k=k)
        monkeypatch.setattr(optim, "fit_temperature", lambda S, label, *args: (1.0, np.nan, 0, True))
        oracle = _quiet_fit(z, y, k=k)
        assert warm.converged and oracle.converged
        assert abs(warm.final_loss - oracle.final_loss) <= 1e-12 * oracle.final_loss
        assert warm.final_loss <= slsqp_fit(z, y, k)[2] + 1e-8 * max(1.0, warm.final_loss)
        assert projected_gradient_residual(z, y, warm.params) < 1e-6
        assert warm.constraint_violation == 0.0 and warm.params.b[0] == 0.0

    @pytest.mark.parametrize("offsets", ["zero", "per-row"])
    def test_row_constant_logits_start_at_unit_temperature(self, monkeypatch, offsets):
        rng = np.random.default_rng(2)
        z = np.zeros((200, 4)) + (0.0 if offsets == "zero" else rng.normal(0, 3, (200, 1)))
        betas = _recorded_temperatures(monkeypatch)
        result = _quiet_fit(z, rng.integers(0, 4, 200))
        assert betas[0][0] == 1.0
        assert result.constraint_violation == 0.0 and result.final_loss <= result.initial_loss

    @pytest.mark.parametrize("k", [None, 3])
    def test_separable_set_starts_at_the_temperature_bound(self, monkeypatch, k):
        # Every label is its row's argmax: the temperature stage ends at
        # BETA_MAX, and the map stage still returns a feasible map no worse.
        rng = np.random.default_rng(0)
        z = rng.normal(0, 2, (300, 5))
        betas = _recorded_temperatures(monkeypatch)
        result = _quiet_fit(z, core.argmax_rows(z), k=k)
        assert betas[0][0] == optim.BETA_MAX
        w = result.params.w
        assert result.constraint_violation == 0.0 and np.all(np.diff(w) >= 0) and np.all(w >= optim.W_FLOOR)
        assert np.all(np.diff(result.params.b) >= 0)
        assert result.final_loss <= result.initial_loss


# Steps of the reordering problem's fit: it is still short of convergence.
REORDERING_STEPS = 7


def _reordering_problem():
    """Mostly negative logits on which a 7-step fit reorders most rows, but not all."""
    rng = np.random.default_rng(0)
    z = rng.normal(0, 2, (300, 6)) - 1.0
    return z, np.where(rng.uniform(size=300) < 0.5, z.argmax(axis=1), rng.integers(0, 6, 300))


def _recorded_temperatures(monkeypatch):
    """The results of the fit's ``fit_temperature`` calls, appended as they are made."""
    results, fit_temperature = [], optim.fit_temperature
    monkeypatch.setattr(optim, "fit_temperature", lambda *args: results.append(fit_temperature(*args)) or results[-1])
    return results


def _quiet_fit(z, y, **kwargs):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        return optim.fit_mcct(z, y, **kwargs)


class TestBlockedWalk:
    """The fit prepares its sorted block, tie count, label ranks and reorder count one row block at a time."""

    BLOCK_CASES = [(pattern, {"k": k}) for pattern in ROW_PATTERNS for k in (3, 8)] + [
        ("reordering", {"max_iterations": REORDERING_STEPS}),
    ]

    @staticmethod
    def problem(pattern, fit_args):
        if pattern == "reordering":
            return _reordering_problem()
        rng = np.random.default_rng(71)
        z = patterned_logits(rng, 205, 8, fit_args["k"], pattern) * 1.5
        return z, np.where(rng.uniform(size=205) < 0.6, z.argmax(axis=1), rng.integers(0, 8, 205))

    @pytest.mark.parametrize("pattern, fit_args", BLOCK_CASES)
    @pytest.mark.parametrize("rows_per_block", [1, 7])
    def test_block_size_does_not_change_the_fit(self, monkeypatch, pattern, fit_args, rows_per_block):
        # At 7 rows per block, 205 and 300 rows both end in a short block.
        z, y = self.problem(pattern, fit_args)
        whole = _quiet_fit(z, y, **fit_args)
        monkeypatch.setattr(core, "BLOCK_DOUBLES", rows_per_block * z.shape[1])
        blocked = _quiet_fit(z, y, **fit_args)
        assert blocked.params.w.tobytes() == whole.params.w.tobytes()
        assert blocked.params.b.tobytes() == whole.params.b.tobytes()
        assert blocked.final_loss == whole.final_loss
        assert blocked.iterations == whole.iterations
        counts = ("tied_rows", "dropped_samples", "reordered_rows", "distinct_labels")
        assert [getattr(blocked, c) for c in counts] == [getattr(whole, c) for c in counts]
        assert blocked.reordered_rows == transform.order_violations(z, blocked.params)
        if pattern == "reordering":
            assert 0 < blocked.reordered_rows < z.shape[0]

    @pytest.mark.parametrize("pattern, fit_args", BLOCK_CASES)
    def test_thread_count_does_not_change_the_fit(self, monkeypatch, pattern, fit_args):
        z, y = self.problem(pattern, fit_args)
        monkeypatch.setattr(core, "BLOCK_DOUBLES", 7 * z.shape[1])
        serial, threaded = (_quiet_fit(z, y, threads=threads, **fit_args) for threads in (1, 3))
        assert threaded.params.w.tobytes() == serial.params.w.tobytes()
        assert threaded.params.b.tobytes() == serial.params.b.tobytes()
        fields = [f.name for f in dataclasses.fields(optim.FitResult) if f.name != "params"]
        assert [getattr(threaded, f) for f in fields] == [getattr(serial, f) for f in fields]
        if pattern == "reordering":
            assert 0 < threaded.reordered_rows < z.shape[0]

    def test_peak_memory_is_the_top_columns(self):
        # The logits, each row's top k + 1 sorted columns and about 1 MB per
        # block: the traced peak of the fit (which does not count the logits)
        # stays well under one sorted copy of the matrix.
        rng = np.random.default_rng(5)
        z = rng.normal(0.0, 2.0, (2000, 500))
        y = rng.integers(0, 500, 2000)
        tracemalloc.start()
        try:
            _quiet_fit(z, y, k=10)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 0.5 * z.nbytes

    def test_block_passes_see_one_block_at_a_time(self, monkeypatch):
        n, m = 600, 500  # three blocks of at most BLOCK_DOUBLES entries
        rng = np.random.default_rng(6)
        z = rng.normal(0.0, 2.0, (n, m))
        y = rng.integers(0, m, n)
        shapes = {}

        def counted(owner, name):
            original = getattr(owner, name)

            def wrapper(block, *args):
                shapes.setdefault(name, []).append(np.shape(block))
                return original(block, *args)

            monkeypatch.setattr(owner, name, wrapper)

        counted(core, "validate_distinct")
        counted(optim, "label_positions")
        counted(optim, "order_violations")
        k = 10
        _quiet_fit(z, y, k=k)
        blocks = [(len(range(n)[rows]), m) for rows in core._row_blocks((n, m))]
        assert len(blocks) > 1
        assert all(rows * m <= core.BLOCK_DOUBLES for rows, _ in blocks)
        # The reorder count walks the kept top k + 1 sorted columns in row
        # blocks sized by their own width: all 600 rows fit in one.
        assert shapes.pop("order_violations") == [(n, k + 1)]
        assert shapes == dict.fromkeys(("validate_distinct", "label_positions"), blocks)

    @pytest.mark.parametrize("fmt, dtype", [("bin", np.float32), ("csv", np.float64)])
    def test_a_binary_file_is_prepared_at_float32(self, tmp_path, monkeypatch, fmt, dtype):
        # A binary file's blocks are sorted, tie-counted and ranked as read;
        # a CSV file's matrix is float64.  Either way the fit is the same.
        rng = np.random.default_rng(8)
        z = np.round(rng.normal(0.0, 2.0, (300, 20)), 2).astype(np.float32).astype(np.float64)
        y = np.where(rng.uniform(size=300) < 0.6, z.argmax(axis=1), rng.integers(0, 20, 300))
        path = str(tmp_path / f"data.{fmt}")
        data_io.write_dataset(path, z, y)
        monkeypatch.setattr(core, "BLOCK_DOUBLES", 60 * 20)
        dtypes, original = [], core.validate_distinct
        monkeypatch.setattr(core, "validate_distinct", lambda block: dtypes.append(block.dtype) or original(block))
        read = _quiet_fit(*data_io.read_dataset(path), k=5)
        assert dtypes == [dtype] * 5
        whole = _quiet_fit(z, y, k=5)
        assert read.params.w.tobytes() == whole.params.w.tobytes()
        assert read.params.b.tobytes() == whole.params.b.tobytes()
        fields = [f.name for f in dataclasses.fields(optim.FitResult) if f.name != "params"]
        assert [getattr(read, f) for f in fields] == [getattr(whole, f) for f in fields]
        assert read.tied_rows > 0 and read.dropped_samples > 0

    @pytest.mark.parametrize("threads", [1, 2])
    def test_reorder_count_is_one_walk_over_the_kept_columns(self, monkeypatch, threads):
        # 10000 rows of k + 1 = 11 kept columns fill one row block.  Blocks sized
        # by the logits' width (131 rows of 1000) would make 77 calls.
        rng = np.random.default_rng(9)
        z = rng.normal(0.0, 2.0, (10_000, 1000))
        y = np.where(rng.uniform(size=10_000) < 0.6, z.argmax(axis=1), rng.integers(0, 1000, 10_000))
        calls, original = [], optim.order_violations
        monkeypatch.setattr(optim, "order_violations", lambda top, params: calls.append(top.shape) or original(top, params))
        _quiet_fit(z, y, k=10, threads=threads)
        assert calls == [(10_000, 11)]


class TestReorderCount:
    """The fit counts reordered rows from each row's top k + 1 sorted columns, exactly as on the whole row.

    The lowest kept column holds each row's largest value strictly below rank
    m - k (:func:`optim._kept_columns`); ``transform.order_violations`` of the
    whole row is the oracle.
    """

    @staticmethod
    def count(z, params):
        top = optim._kept_columns(np.sort(z, axis=1), params.k)
        return transform.order_violations(top, dataclasses.replace(params, m=top.shape[1]))

    def test_reversal_below_a_straddling_tie_group_is_counted(self):
        # m = 4, k = 2: in the first two rows sorted ranks 1-3 tie at -1, so
        # the only reversed pair, ranks 0 and 3 (-2 and -1 map to -0.2 and -5
        # in the first row), starts below the tie group that straddles rank
        # m - k.  The lowest kept column takes rank 0's value, which shows the
        # pair; the row-constant last row has no value below its tie and
        # keeps -1 there.
        z = np.array([[-1.0, -2.0, -1.0, -1.0], [-1.0, -1.5, -1.0, -1.0], [3.0, 1.0, 2.0, 0.0], [-1.0] * 4])
        kept = optim._kept_columns(np.sort(z, axis=1), 2)
        assert kept.tolist() == [[-2.0, -1.0, -1.0], [-1.5, -1.0, -1.0], [1.0, 2.0, 3.0], [-1.0, -1.0, -1.0]]
        params = transform.MonotoneParams(w=[0.1, 5.0], b=[0.0, 0.0], m=4)
        assert self.count(z, params) == transform.order_violations(z, params) == 2
        assert self.count(z[2:], params) == 0

    @settings(max_examples=150, deadline=None)
    @given(
        st.integers(0, 2**32 - 1),
        st.integers(2, 12),
        st.integers(0, 10),
    )
    def test_matches_the_whole_row_count(self, seed, m, cut):
        # Half-rounded logits put tie groups anywhere, straddling rank m - k
        # among them; negative values give the map pairs to reverse.
        rng = np.random.default_rng(seed)
        k = max(m - cut, 2)
        z = np.round(rng.normal(-1.0, 2.0, (int(rng.integers(1, 40)), m)) * 2) / 2
        w = np.sort(rng.uniform(0.05, 5.0, k))
        params = transform.MonotoneParams(w=w, b=np.sort(rng.normal(0.0, 1.0, k)), m=m)
        assert self.count(z, params) == transform.order_violations(z, params)
        # Only the lowest kept column differs from the sorted rows, and only below the cut.
        ordered = np.sort(z, axis=1)
        kept = optim._kept_columns(ordered.copy(), k)
        lo = m - kept.shape[1]
        assert np.array_equal(kept[:, 1:], ordered[:, lo + 1 :])
        if k == m:
            assert np.array_equal(kept, ordered)
        else:
            for row, value in zip(ordered, kept[:, 0]):
                below = row[row < row[lo + 1]]
                assert value == (below.max() if below.size else row[lo + 1])

    def test_row_constant_logits(self):
        # Every row straddles the cut; none is reordered, all are tied.
        result = _quiet_fit(np.zeros((50, 5)), np.arange(50) % 5, k=2)
        assert (result.reordered_rows, result.tied_rows, result.dropped_samples) == (0, 50, 30)


class TestKinds:
    """mcct and mcct-i wrap one fit; only an mcct-i model file writes its scales as divisors."""

    @staticmethod
    def problem(case):
        if case == "reordering":
            return (*_reordering_problem(), {"max_iterations": REORDERING_STEPS})
        # Half-rounded negative logits: about 90 rows' tie groups straddle rank m - k.
        rng = np.random.default_rng(0)
        z = np.round(rng.normal(-3.0, 2.0, (300, 8)) * 2) / 2
        return z, np.where(rng.uniform(size=300) < 0.7, z.argmax(axis=1), rng.integers(0, 8, 300)), {"k": 3}

    @pytest.mark.parametrize("case", ["reordering", "straddling"])
    def test_mcct_i_is_the_mcct_fit_in_divisors(self, case):
        z, y, fit_args = self.problem(case)
        if case == "straddling":
            top = np.sort(z, axis=1)[:, z.shape[1] - fit_args["k"] - 1 :]
            assert (top[:, 0] == top[:, 1]).any()
        result = _quiet_fit(z, y, **fit_args)
        assert result.reordered_rows > 0
        mcct, mcct_i = (baselines.from_monotone_params(result.params, kind) for kind in baselines.MONOTONE_MODES)
        assert mcct_i.apply(z).tobytes() == mcct.apply(z).tobytes()
        doc = mcct_i.to_json()
        assert doc["w"] == [1.0 / v for v in result.params.w] and doc["b"] == mcct.to_json()["b"]
        # Read back, each divisor's reciprocal is the fitted scale up to rounding.
        back = baselines.CalibratedModel.from_json(doc).payload["params"]
        np.testing.assert_allclose(back.w, result.params.w, rtol=1e-15, atol=0)
        assert back.b.tobytes() == result.params.b.tobytes()


class TestTemperature:
    @pytest.mark.parametrize("case", ["overconfident", "separable", "nearly-separable", "wide", "row-constant"])
    def test_bound_skips_only_a_temperature_bound_that_cannot_win(self, case):
        # A bound whose loss is below the solve's is always taken, as if its
        # softmax were always computed (a solve that passes the bound is
        # capped at it whatever the loss there).
        rng = np.random.default_rng(4)
        z = rng.normal(0, 2, (400, 6)) * (30.0 if case == "wide" else 1.0)
        y = np.where(rng.uniform(size=400) < 0.7, z.argmax(axis=1), rng.integers(0, 6, 400))
        if case in ("separable", "nearly-separable"):
            y = z.argmax(axis=1)
            if case == "nearly-separable":
                y[0] = z[0].argmin()
        if case == "row-constant":
            z = np.zeros_like(z)
        S = np.ascontiguousarray(z.T)
        label = y * len(y) + np.arange(len(y))
        records = []
        beta, initial_loss, steps, _ = optim.fit_temperature(S, label, trace=records.append)
        assert initial_loss == records[0]["loss"] == transform.softmax_nll(S * 1.0, label)[0]
        at_bound = transform.softmax_nll(S * optim.BETA_MAX, label)[0]
        assert beta == optim.BETA_MAX or at_bound >= records[-1]["loss"]
        assert optim.BETA_MIN <= beta <= optim.BETA_MAX and len(records) == steps + 1
        if case == "separable":
            assert beta == optim.BETA_MAX
        if case == "row-constant":
            assert beta == 1.0 and steps == 0


class TestIncrementHessian:
    def test_matches_finite_differences(self):
        # The Hessian over the increments (dw, db[1:]) is L^T H L, taken by
        # reverse cumulative sums; check it against central differences of
        # the increments' gradient at random feasible points.
        rng = np.random.default_rng(91)
        step = 1e-6
        worst = 0.0
        for _ in range(40):
            n = int(rng.integers(2, 60))
            k = int(rng.integers(2, 9))
            S = np.ascontiguousarray(np.sort(rng.normal(0, 2, (n, k)), axis=1).T)
            pos = rng.integers(0, k, n)

            def derivatives(x, order):
                w, b = np.cumsum(x[:k]), np.concatenate([[0.0], np.cumsum(x[k:])])
                _, gw, gb, *hess = transform.sorted_nll_objective(S.T, pos, w, b, order)
                grad = optim._reverse_cumsum(np.concatenate([gw, gb[1:]]), k, 0)
                return grad, *(optim._reverse_cumsum(optim._reverse_cumsum(h, k, 0), k, 1) for h in hess)

            x = np.concatenate([[rng.uniform(0.2, 2.0)], rng.uniform(0.0, 0.5, 2 * k - 2)])
            hess = derivatives(x, 2)[1]
            fd = np.empty_like(hess)
            for j in range(2 * k - 1):
                e = np.zeros(2 * k - 1)
                e[j] = step
                fd[:, j] = (derivatives(x + e, 1)[0] - derivatives(x - e, 1)[0]) / (2 * step)
            worst = max(worst, np.abs(hess - fd).max() / max(np.abs(fd).max(), 1e-8))
            # The two passes of cumulative sums add in different orders.
            np.testing.assert_allclose(hess, hess.T, rtol=0, atol=1e-14 * np.abs(hess).max())
            assert np.linalg.eigvalsh(hess).min() >= -1e-12
        assert worst <= 1e-5


class TestProjectedNewton:
    def test_bound_quadratic(self):
        # min (x - c)^T A (x - c) / 2 over x >= 0: the bound binds where c < 0
        # once the others adjust, and the solve lands on the bound exactly.
        a = np.array([[2.0, 0.5, 0.0], [0.5, 1.0, 0.2], [0.0, 0.2, 3.0]])
        c = np.array([1.0, -2.0, 0.5])

        points = []

        def evaluate(x):
            points.append(x.tobytes())
            r = x - c
            return float(r @ a @ r / 2), lambda order: (a @ r, a)[:order]

        lines = []
        x, initial_loss, final_loss, iterations, converged = optim._projected_newton(
            evaluate, np.ones(3), np.zeros(3), optim.MAX_ITERATIONS, trace=lines.append
        )
        assert converged and x[1] == 0.0
        assert len(set(points)) == len(points)
        assert initial_loss == evaluate(np.ones(3))[0] == lines[0]["loss"]
        assert final_loss == evaluate(x)[0] == lines[-1]["loss"]
        grad = a @ (x - c)
        assert grad[1] > 0 and np.abs(grad[[0, 2]]).max() < 1e-9
        assert len(lines) == iterations + 1 and lines[-1]["step"] == 0.0
