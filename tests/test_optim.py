import warnings
from types import SimpleNamespace

import numpy as np
import pytest

from monocal import core, data_io, metrics, optim, transform

from conftest import ROW_PATTERNS, patterned_logits, stable_fit_inputs, stable_label_positions


class TestSolverConfig:
    def test_defaults(self):
        cfg = optim.SolverConfig()
        assert cfg.max_iterations == 500
        assert cfg.stationarity_tol == 1e-8
        assert cfg.to_json() == {"max_iterations": 500, "stationarity_tol": 1e-8}
        assert optim.W_FLOOR == 1e-8

    def test_json_round_trip(self):
        cfg = optim.SolverConfig(max_iterations=50, stationarity_tol=1e-6)
        assert optim.SolverConfig.from_json(cfg.to_json()) == cfg

    def test_rejects_unknown_fields(self):
        with pytest.raises(ValueError, match="unknown solver config"):
            optim.SolverConfig.from_json({"max_iterations": 10, "bogus": 1})

    def test_rejects_bad_values(self):
        with pytest.raises(ValueError):
            optim.SolverConfig(max_iterations=0)
        with pytest.raises(ValueError):
            optim.SolverConfig(stationarity_tol=-1.0)
        # The scale floor is the constant W_FLOOR, not a setting.
        with pytest.raises(ValueError, match="unknown solver config"):
            optim.SolverConfig.from_json({"w_floor": 2.0})


class TestInitParams:
    def test_direct_is_identity_map(self):
        params = optim.init_params("direct", 3)
        assert params.mode == "direct"
        assert np.array_equal(params.w, np.ones(3))
        assert np.array_equal(params.b, np.zeros(3))

    def test_inverse_is_ones(self):
        params = optim.init_params("inverse", 5)
        assert params.mode == "inverse"
        assert np.array_equal(params.w, np.ones(5))
        assert np.array_equal(params.b, np.zeros(5))

    @pytest.mark.parametrize("mode", transform.MODES)
    @pytest.mark.parametrize("k", [2, 3, 10])
    def test_inits_are_feasible(self, mode, k):
        params = optim.init_params(mode, k)
        assert optim.constraint_violation(params) == 0.0

    def test_rejects_k_below_two(self):
        with pytest.raises(ValueError, match="k >= 2"):
            optim.init_params("direct", 1)


class TestConstraintViolation:
    def test_oriented_chain_differences(self):
        # Duck-typed parameters: MonotoneParams rejects infeasible values.
        def violation(w, b, mode, w_floor=1e-8):
            params = SimpleNamespace(w=np.array(w), b=np.array(b), mode=mode)
            return optim.constraint_violation(params, w_floor)

        assert violation([1.0, 3.0], [0.0, 2.0], "direct") == 0.0
        assert violation([3.0, 1.0], [0.0, 2.0], "inverse") == 0.0
        assert violation([3.0, 1.0], [0.0, 2.0], "direct") == 2.0
        assert violation([1.0, 3.0], [0.0, 2.0], "inverse") == 2.0
        assert violation([1.0, 3.0], [2.0, 0.5], "direct") == 1.5
        assert violation([0.5, 3.0], [0.0, 0.0], "direct", w_floor=1.0) == 0.5


class TestFit:
    def test_near_identity_on_calibrated_data(self, calibrated_split):
        # Calibrating already-calibrated data should barely change test NLL.
        (zc, yc), (zt, yt) = calibrated_split
        nll_before = core.nll(core.softmax_rows(zt), yt)
        for mode in transform.MODES:
            result = optim.fit_mcct(zc, yc, mode=mode)
            nll_after = core.nll(core.softmax_rows(transform.apply_map_topk(zt, result.params)), yt)
            assert abs(nll_after - nll_before) / nll_before <= 1e-3

    def test_recovers_temperature_like_scaling(self):
        # Logits scaled by 2.5: the fit should find a near-constant w around 1/2.5.
        cfg = data_io.SynthConfig(n=15_000, m=10, alpha=0.5, overconfidence=2.5, seed=6)
        z, y, _ = data_io.generate_synthetic(cfg)
        (zc, yc), (zt, yt) = data_io.split_dataset(z, y, 1 / 3, seed=6)
        result = optim.fit_mcct(zc, yc, mode="direct")
        w = result.params.w
        assert w.max() - w.min() < 0.15
        assert 0.3 <= w.mean() <= 0.5
        ece_fit = metrics.ece(core.softmax_rows(transform.apply_map_topk(zt, result.params)), yt)[0]
        ece_oracle = metrics.ece(core.softmax_rows(zt / 2.5), yt)[0]
        assert ece_fit <= 2.0 * ece_oracle

    def test_modes_reach_same_loss_small_fixture(self):
        cfg = data_io.SynthConfig(n=3000, m=8, alpha=0.5, overconfidence=2.0, seed=22)
        z, y, _ = data_io.generate_synthetic(cfg)
        direct = optim.fit_mcct(z, y, mode="direct")
        inverse = optim.fit_mcct(z, y, mode="inverse")
        assert abs(direct.final_loss - inverse.final_loss) <= 1e-6

    def test_modes_reach_same_loss(self, fitted_direct, fitted_inverse):
        assert abs(fitted_direct.final_loss - fitted_inverse.final_loss) <= 1e-5

    def test_inverse_is_reciprocal_of_direct_fit(self, fitted_direct, fitted_inverse):
        assert np.array_equal(fitted_inverse.params.w, 1.0 / fitted_direct.params.w)
        assert np.array_equal(fitted_inverse.params.b, fitted_direct.params.b)
        assert fitted_inverse.final_loss == fitted_direct.final_loss
        assert fitted_inverse.iterations == fitted_direct.iterations

    def test_descent_from_init(self, overconfident_split, fitted_direct):
        (zc, yc), _ = overconfident_split
        start = optim.init_params("direct", 10, m=10)
        init_loss = transform.objective_and_gradient(zc, yc, start)[0]
        assert fitted_direct.final_loss <= init_loss

    def test_returned_params_feasible(self, fitted_direct, fitted_inverse):
        for result in (fitted_direct, fitted_inverse):
            assert result.constraint_violation == 0.0
            assert np.all(result.params.w >= optim.W_FLOOR)

    @pytest.mark.parametrize("pattern", ROW_PATTERNS)
    @pytest.mark.parametrize("k", [3, 8])
    @pytest.mark.parametrize("max_iterations", [1, 2, 3])
    def test_feasible_by_construction(self, pattern, k, max_iterations):
        # Early iterates of a short solve sit anywhere in the feasible set;
        # each is returned as the solver left it, with nothing repaired.
        rng = np.random.default_rng(62)
        z = patterned_logits(rng, 400, 8, k, pattern) * 1.5
        y = np.where(rng.uniform(size=400) < 0.6, z.argmax(axis=1), rng.integers(0, 8, 400))
        cfg = optim.SolverConfig(max_iterations=max_iterations)
        for mode in transform.MODES:
            with warnings.catch_warnings():
                warnings.simplefilter("ignore")
                result = optim.fit_mcct(z, y, mode=mode, k=k, cfg=cfg)
            w, b = result.params.w, result.params.b
            rising_w = w if mode == transform.DIRECT else w[::-1]
            assert np.all(np.diff(rising_w) >= 0)
            assert np.all(np.diff(b) >= 0)
            assert np.all(result.params.in_mode(transform.DIRECT).w >= optim.W_FLOOR)
            assert result.constraint_violation == 0.0

    def test_deterministic(self):
        cfg = data_io.SynthConfig(n=800, m=6, alpha=0.5, overconfidence=2.0, seed=13)
        z, y, _ = data_io.generate_synthetic(cfg)
        a = optim.fit_mcct(z, y, mode="direct")
        b = optim.fit_mcct(z, y, mode="direct")
        assert np.array_equal(a.params.w, b.params.w)
        assert np.array_equal(a.params.b, b.params.b)
        assert a.final_loss == b.final_loss
        assert a.iterations == b.iterations

    def test_topk_fit_reports_dropped(self):
        cfg = data_io.SynthConfig(n=1000, m=12, alpha=0.3, overconfidence=2.0, seed=21)
        z, y, _ = data_io.generate_synthetic(cfg)
        result = optim.fit_mcct(z, y, mode="direct", k=4)
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
            result = optim.fit_mcct(z, y, mode="direct")
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
        full = optim.fit_mcct(z, y, mode="direct")
        explicit = optim.fit_mcct(z, y, mode="direct", k=5)
        assert np.array_equal(full.params.w, explicit.params.w)
        assert np.array_equal(full.params.b, explicit.params.b)

    def test_warns_on_degenerate_labels(self):
        rng = np.random.default_rng(0)
        z = rng.normal(0, 1, (20, 3))
        with pytest.warns(UserWarning, match="identical"):
            result = optim.fit_mcct(z, np.zeros(20, dtype=int), mode="direct")
        assert result.distinct_labels == 1

    def test_warns_on_tied_logits(self):
        rng = np.random.default_rng(1)
        z = rng.normal(0, 1, (20, 3))
        z[0, 0] = z[0, 1]
        y = rng.integers(0, 3, 20)
        with pytest.warns(UserWarning, match="tied logits"):
            optim.fit_mcct(z, y, mode="direct")

    def test_iteration_cap_reports_nonconvergence(self):
        cfg = data_io.SynthConfig(n=500, m=6, alpha=0.5, overconfidence=2.5, seed=3)
        z, y, _ = data_io.generate_synthetic(cfg)
        result = optim.fit_mcct(z, y, cfg=optim.SolverConfig(max_iterations=1))
        assert not result.converged
        # Best iterate is still feasible and no worse than the start.
        assert result.constraint_violation == 0.0

    def test_iteration_cap_never_worse_than_uncalibrated(self):
        # Calibrated data: one step from any start other than the identity
        # map can leave the fit worse than the raw logits.
        cfg = data_io.SynthConfig(n=500, m=6, alpha=0.5, overconfidence=1.0, seed=3)
        z, y, _ = data_io.generate_synthetic(cfg)
        uncalibrated = core.nll(core.softmax_rows(z), y)
        for mode in transform.MODES:
            result = optim.fit_mcct(z, y, mode=mode, cfg=optim.SolverConfig(max_iterations=1))
            p = core.softmax_rows(transform.apply_map_topk(z, result.params))
            assert core.nll(p, y) <= uncalibrated

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

    def test_rejects_unknown_mode(self):
        rng = np.random.default_rng(4)
        z = rng.normal(0, 1, (10, 4))
        y = rng.integers(0, 4, 10)
        with pytest.raises(ValueError, match="mode must be one of"):
            optim.fit_mcct(z, y, mode="Inverse")
