import warnings

import numpy as np
import pytest

from monocal import baselines, core, data_io, metrics, optim, transform
from monocal.baselines import CalibratedModel

from conftest import brent_temperature, lbfgsb_vector_scaling, slsqp_ensemble_weights


@pytest.fixture(scope="module")
def scaled_fixture():
    """Calibrated logits scaled by 2.5, large enough for tight recovery."""
    cfg = data_io.SynthConfig(n=30_000, m=10, alpha=0.5, overconfidence=2.5, seed=7)
    z, y, _ = data_io.generate_synthetic(cfg)
    (zc, yc), (zt, yt) = data_io.split_dataset(z, y, 0.5, seed=7)
    return (zc, yc), (zt, yt)


class TestTemperatureScaling:
    def test_recovers_unit_temperature_on_calibrated_data(self):
        cfg = data_io.SynthConfig(n=20_000, m=10, alpha=0.5, overconfidence=1.0, seed=0)
        z, y, _ = data_io.generate_synthetic(cfg)
        model = baselines.fit_ts(z, y)
        assert abs(model.payload["T"] - 1.0) <= 0.05

    def test_recovers_scale_factor(self):
        cfg = data_io.SynthConfig(n=20_000, m=10, alpha=0.5, overconfidence=2.5, seed=0)
        z, y, _ = data_io.generate_synthetic(cfg)
        model = baselines.fit_ts(z, y)
        assert abs(model.payload["T"] - 2.5) <= 0.05

    def test_unit_temperature_is_identity(self):
        rng = np.random.default_rng(3)
        z = rng.normal(0, 2, (50, 6))
        model = CalibratedModel(baselines.TS, {"T": 1.0, "m": 6})
        assert np.array_equal(model.apply(z), core.softmax_rows(z))

    def test_preserves_argmax(self):
        rng = np.random.default_rng(5)
        z = rng.normal(0, 2, (200, 8))
        model = baselines.fit_ts(z, rng.integers(0, 8, 200))
        assert np.array_equal(core.argmax_rows(model.apply(z)), core.argmax_rows(z))

    def test_validates_labels_once(self, monkeypatch):
        calls = {"labels": 0, "probs": 0}
        validate_labels, validate_probs = core.validate_labels, core.validate_probs

        def count_labels(*args, **kwargs):
            calls["labels"] += 1
            return validate_labels(*args, **kwargs)

        def count_probs(p):
            calls["probs"] += 1
            return validate_probs(p)

        monkeypatch.setattr(core, "validate_labels", count_labels)
        monkeypatch.setattr(core, "validate_probs", count_probs)
        rng = np.random.default_rng(5)
        baselines.fit_ts(rng.normal(0, 2, (200, 8)), rng.integers(0, 8, 200))
        assert calls == {"labels": 1, "probs": 0}


class TestEnsembleTemperatureScaling:
    def test_pure_ts_weights_reproduce_ts(self):
        rng = np.random.default_rng(7)
        z = rng.normal(0, 2, (40, 5))
        model = CalibratedModel(
            baselines.ETS_NLL, {"T": 1.7, "weights": np.array([1.0, 0.0, 0.0]), "m": 5}
        )
        assert np.array_equal(model.apply(z), core.softmax_rows(z / 1.7))

    def test_pure_uniform_weights(self):
        rng = np.random.default_rng(8)
        z = rng.normal(0, 2, (10, 4))
        model = CalibratedModel(
            baselines.ETS_NLL, {"T": 2.0, "weights": np.array([0.0, 0.0, 1.0]), "m": 4}
        )
        assert np.array_equal(model.apply(z), np.full((10, 4), 0.25))

    @pytest.mark.parametrize("loss", ["nll", "mse"])
    def test_scaled_fixture_puts_mass_on_ts(self, scaled_fixture, loss):
        (zc, yc), _ = scaled_fixture
        model = baselines.fit_ets(zc, yc, loss=loss)
        assert model.payload["weights"][0] >= 0.9

    def test_output_on_simplex(self, scaled_fixture):
        (zc, yc), (zt, _) = scaled_fixture
        model = baselines.fit_ets(zc, yc)
        p = model.apply(zt)
        assert np.abs(p.sum(axis=1) - 1.0).max() <= 1e-9
        assert p.min() >= 0.0

    def test_preserves_argmax(self, scaled_fixture):
        (zc, yc), (zt, _) = scaled_fixture
        model = baselines.fit_ets(zc, yc)
        assert np.array_equal(core.argmax_rows(model.apply(zt)), core.argmax_rows(zt))

    def test_invalid_weights_rejected(self):
        with pytest.raises(ValueError, match="sum to 1"):
            CalibratedModel(baselines.ETS_NLL, {"T": 1.0, "weights": np.array([0.5, 0.2, 0.2]), "m": 3})

    def test_invalid_loss_rejected(self):
        with pytest.raises(ValueError, match="nll.*mse"):
            baselines.fit_ets(np.zeros((4, 2)) + [0.0, 1.0], np.zeros(4, dtype=int), loss="huber")


class TestVectorScaling:
    def test_identity_parameters_are_identity(self):
        rng = np.random.default_rng(9)
        z = rng.normal(0, 1, (30, 5))
        model = CalibratedModel(baselines.VS, {"scale": np.ones(5), "bias": np.zeros(5), "m": 5})
        assert np.array_equal(model.apply(z), core.softmax_rows(z))

    def test_nests_temperature_scaling_in_train_loss(self, scaled_fixture):
        (zc, yc), _ = scaled_fixture
        ts = baselines.fit_ts(zc, yc)
        vs = baselines.fit_vs(zc, yc)
        assert core.nll(vs.apply(zc), yc) <= core.nll(ts.apply(zc), yc) + 1e-9

    def test_nests_temperature_scaling_in_test_loss(self, scaled_fixture):
        (zc, yc), (zt, yt) = scaled_fixture
        ts = baselines.fit_ts(zc, yc)
        vs = baselines.fit_vs(zc, yc)
        assert core.nll(vs.apply(zt), yt) <= core.nll(ts.apply(zt), yt) + 1e-3

    def test_changes_predictions_on_small_calibration_set(self):
        # 40 parameters fitted on 100 samples overfit and move predictions;
        # the monotone map fitted on the same data moves none.
        cfg = data_io.SynthConfig(n=5100, m=20, alpha=0.3, overconfidence=2.5, seed=100)
        z, y, _ = data_io.generate_synthetic(cfg)
        zc, yc = z[:100], y[:100]
        zt = z[100:]
        p_base = core.softmax_rows(zt)
        vs = baselines.fit_vs(zc, yc)
        vs_diag = metrics.ranking_diagnostics(p_base, vs.apply(zt))
        assert vs_diag.prediction_change_rate > 0
        mono = optim.fit_mcct(zc, yc)
        p_mono = core.softmax_rows(transform.apply_map_topk(zt, mono.params))
        mono_diag = metrics.ranking_diagnostics(p_base, p_mono)
        assert mono_diag.prediction_change_rate == 0.0
        assert mono_diag.uncertain_alteration_rate == 0.0


class TestHistogramBinning:
    def test_full_bin_maps_to_accuracy(self):
        # Every sample lands in (0.93, 1.0] with confidence 0.95 and is correct.
        p = np.tile([0.95, 0.05], (20, 1))
        y = np.zeros(20, dtype=int)
        model = baselines.fit_hb(p, y)
        idx = np.searchsorted(np.asarray(model.payload["edges"])[1:], 0.95, side="left")
        assert model.payload["bin_confidence"][idx] == 1.0
        out = model.apply(np.log(np.tile([0.95, 0.05], (3, 1))))
        assert np.all(out[:, 0] == 1.0)

    def test_empty_bin_inherits_midpoint(self):
        p = np.tile([0.95, 0.05], (10, 1))
        model = baselines.fit_hb(p, np.zeros(10, dtype=int), num_bins=10)
        conf = np.asarray(model.payload["bin_confidence"])
        # Bin (0.5, 0.6] saw no samples.
        assert conf[5] == 0.55

    def test_matches_group_by_oracle(self):
        rng = np.random.default_rng(12)
        z = rng.normal(0, 2, (50, 4))
        p = core.softmax_rows(z)
        y = rng.integers(0, 4, 50)
        num_bins = 15
        model = baselines.fit_hb(p, y, num_bins=num_bins)
        conf = p.max(axis=1)
        correct = (core.argmax_rows(p) == y).astype(float)
        for b in range(num_bins):
            lo, hi = b / num_bins, (b + 1) / num_bins
            members = [i for i in range(50) if lo < conf[i] <= hi]
            if members:
                expected = float(np.mean([correct[i] for i in members]))
            else:
                expected = (lo + hi) / 2
            assert model.payload["bin_confidence"][b] == pytest.approx(expected, abs=1e-12)

    def test_redistributes_remaining_mass_proportionally(self):
        p = np.array([[0.5, 0.3, 0.2]])
        y = np.array([0])
        model = baselines.fit_hb(p, y, num_bins=10)
        out = model.apply(np.log(p))
        # Confidence 0.5 sits in (0.4, 0.5], which has accuracy 1.
        assert out[0, 0] == pytest.approx(1.0, abs=1e-12)
        np.testing.assert_allclose(out.sum(axis=1), 1.0, atol=1e-12)

    def test_apply_on_uneven_edges_matches_the_searchsorted_rule(self):
        doc = {"kind": "hb", "m": 4, "edges": [0.0, 0.3, 0.9, 1.0], "bin_confidence": [0.2, 0.6, 0.95]}
        payload = CalibratedModel.from_json(doc).payload
        edges, bin_conf = np.asarray(payload["edges"]), np.asarray(payload["bin_confidence"])
        # Confidences on every edge, 0 and 1 included, and inside two bins.
        conf = np.array([0.0, 0.3, 0.9, 1.0, 0.31, 0.95])
        oracle = np.minimum(np.searchsorted(edges[1:], conf, side="left"), bin_conf.size - 1)
        assert np.array_equal(metrics._bin_index(conf, edges[1:]), oracle)
        # Rows whose top entry, in column 0, is each confidence but 0, which no probability row has.
        p = np.array([[0.3, 0.3, 0.2, 0.2], [0.9, 0.1, 0, 0], [1, 0, 0, 0], [0.31, 0.3, 0.2, 0.19], [0.95, 0.05, 0, 0]])
        out = baselines._apply_binning(p, edges, bin_conf)
        np.testing.assert_allclose(out[:, 0], bin_conf[oracle[1:]], rtol=1e-12)

    def test_may_change_argmax(self):
        # A bin mapping 0.4 -> low confidence can push the top class below
        # the runner-up; that behavior is allowed for binning.
        cfg = data_io.SynthConfig(n=4000, m=20, alpha=0.3, overconfidence=2.5, seed=101)
        z, y, _ = data_io.generate_synthetic(cfg)
        model = baselines.fit_hb(core.softmax_rows(z[:200]), y[:200])
        diag = metrics.ranking_diagnostics(core.softmax_rows(z[200:]), model.apply(z[200:]))
        assert diag.prediction_change_rate > 0


class TestModelSerialization:
    @pytest.mark.parametrize("kind", ["ts", "vs", "hb", "ets-nll", "ets-mse"])
    def test_baseline_round_trip(self, kind, tmp_path):
        rng = np.random.default_rng(14)
        z = rng.normal(0, 2, (120, 5))
        y = rng.integers(0, 5, 120)
        model = baselines.fit_baseline(kind, z, y)
        path = tmp_path / "model.json"
        model.save(path)
        back = CalibratedModel.load(path)
        assert back.kind == model.kind
        assert np.array_equal(back.apply(z), model.apply(z))

    def test_monotone_round_trip(self, tmp_path, fitted_map):
        model = baselines.from_monotone_params(fitted_map.params, baselines.MCCT)
        path = tmp_path / "model.json"
        model.save(path)
        back = CalibratedModel.load(path)
        rng = np.random.default_rng(15)
        z = rng.normal(0, 2, (30, 10))
        assert np.array_equal(back.apply(z), model.apply(z))

    @pytest.mark.parametrize("kind", baselines.MONOTONE_MODES)
    def test_kind_discriminator_present(self, fitted_map, kind):
        doc = baselines.from_monotone_params(fitted_map.params, kind).to_json()
        assert doc["kind"] == kind and doc["mode"] == baselines.MONOTONE_MODES[kind]
        assert list(doc) == ["kind", "mode", "m", "k", "w", "b"]

    def test_monotone_json_round_trip(self):
        # An inverse document's w holds divisors: the map's scales are 1 / w.
        doc = {"kind": "mcct-i", "mode": "inverse", "m": 4, "k": 2, "w": [2.0, 0.5], "b": [-1.0, 2.0]}
        model = CalibratedModel.from_json(doc)
        assert model.payload["params"].w.tolist() == [0.5, 2.0] and model.m == 4
        assert model.to_json() == doc
        direct = {**doc, "kind": "mcct", "mode": "direct", "w": [0.5, 2.0]}
        assert CalibratedModel.from_json(direct).to_json() == direct

    @pytest.mark.parametrize("changes, message", [
        ({"k": 3}, r"declared k=3 does not match len\(w\)=2"),
        ({"mode": "Inverse"}, r"mode must be one of \('direct', 'inverse'\), got 'Inverse'"),
        ({"w": [1.0, 2.0]}, "w must be non-decreasing"),
        ({"w": [2.0, 0.0]}, "every scale entry must be strictly positive"),
        ({"w": [-0.0, -1.0]}, "every scale entry must be strictly positive"),
        ({"w": [1.0, -2.0]}, "every scale entry must be strictly positive"),
        ({"w": [float("nan"), 1.0]}, "parameters must be finite"),
        ({"w": [float("inf"), 1.0]}, "every scale entry must be strictly positive"),
        ({"w": [1e-310, 1e-311]}, "parameters must be finite"),
    ], ids=[
        "declared-k", "unknown-mode", "rising-divisors", "zero-divisor", "negative-zero-divisor", "negative-divisor",
        "nan-divisor", "infinite-divisor", "subnormal-divisor",
    ])
    def test_malformed_divisor_document_is_refused(self, changes, message):
        # A divisor is checked before its reciprocal is taken: no divide-by-zero
        # warning, and no overflow warning for a subnormal divisor.
        doc = {"kind": "mcct-i", "mode": "inverse", "m": 4, "k": 2, "w": [2.0, 1.0], "b": [0.0, 1.0], **changes}
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match=message):
                CalibratedModel.from_json(doc)

    @pytest.mark.parametrize("changes, message", [
        ({"k": 3}, r"declared k=3 does not match len\(w\)=2"),
        ({"w": [2.0, 0.5]}, "w must be non-decreasing"),
        ({"w": [0.0, 1.0]}, "every scale entry must be strictly positive"),
        ({"b": [1.0, 0.0]}, "b must be non-decreasing"),
        ({"b": [0.0, float("inf")]}, "parameters must be finite"),
    ], ids=["declared-k", "falling-scales", "zero-scale", "falling-biases", "infinite-bias"])
    def test_malformed_direct_document_is_refused(self, changes, message):
        # A direct document's w holds the scales themselves, checked as MonotoneParams checks them.
        doc = {"kind": "mcct", "mode": "direct", "m": 4, "k": 2, "w": [0.5, 2.0], "b": [0.0, 1.0], **changes}
        with pytest.raises(ValueError, match=message):
            CalibratedModel.from_json(doc)

    def test_divisor_document_applies_the_reciprocal_scales(self):
        # Divisors (2, 0.5) are the scales (0.5, 2) on the top two ranks; the
        # lowest rank takes the first pair.
        doc = {"kind": "mcct-i", "mode": "inverse", "m": 3, "k": 2, "w": [2.0, 0.5], "b": [-1.0, 1.0]}
        direct = {**doc, "kind": "mcct", "mode": "direct", "w": [0.5, 2.0]}
        z = np.array([[1.0, -3.0, 4.0], [-2.0, 0.5, -1.0]])
        out = CalibratedModel.from_json(doc).apply(z)
        assert out.tobytes() == CalibratedModel.from_json(direct).apply(z).tobytes()
        want = core.softmax_rows(np.array([[-0.5, -2.5, 9.0], [-2.0, 2.0, -1.5]]))
        np.testing.assert_allclose(out, want, rtol=1e-15, atol=0)

    def test_divisor_document_saves_as_read(self, tmp_path):
        # 1 / (1 / 7.3) is not 7.3: a saved document writes the divisors it
        # read, not the reciprocals of the scales it applies.
        assert 1.0 / (1.0 / 7.3) != 7.3
        doc = {"kind": "mcct-i", "mode": "inverse", "m": 3, "k": 2, "w": [7.3, 2.0], "b": [-1.0, 1.0]}
        path = tmp_path / "model.json"
        data_io.write_json(path, doc)
        CalibratedModel.load(path).save(tmp_path / "again.json")
        assert (tmp_path / "again.json").read_bytes() == path.read_bytes()

    @pytest.mark.parametrize("kind, mode", [("mcct", "inverse"), ("mcct-i", "direct")])
    def test_kind_mode_mismatch_rejected(self, kind, mode):
        # The document's mode, not its kind, says whether w holds divisors.
        w = [1.0, 2.0] if mode == "direct" else [2.0, 1.0]
        doc = {"kind": kind, "mode": mode, "m": 2, "k": 2, "w": w, "b": [0.0, 0.0]}
        model = CalibratedModel.from_json(doc)
        assert model.payload["params"].w.tolist() == ([1.0, 2.0] if mode == "direct" else [0.5, 1.0])
        assert model.to_json() == doc
        with pytest.raises(ValueError, match="does not match mode"):
            model.apply(np.array([[0.5, -1.0], [2.0, 1.0]]))

    def test_class_count_mismatch_rejected(self):
        model = CalibratedModel(baselines.TS, {"T": 2.0, "m": 4})
        with pytest.raises(ValueError, match="m=4"):
            model.apply(np.zeros((2, 6)))

    @pytest.mark.parametrize("kind", ["mcct", "mcct-i", "ts"])
    def test_apply_validates_its_logits_once(self, kind, monkeypatch):
        # A monotone model's apply leaves the check of its logits to apply_map_topk.
        if kind == baselines.TS:
            model = CalibratedModel(baselines.TS, {"T": 2.0, "m": 6})
        else:
            model = baselines.from_monotone_params(transform.MonotoneParams(np.ones(3), np.arange(3.0), 6), kind)
        calls = []
        validate_logits = core.validate_logits
        monkeypatch.setattr(core, "validate_logits", lambda z: calls.append(1) or validate_logits(z))
        model.apply(np.random.default_rng(0).normal(0, 2, (50, 6)))
        assert len(calls) == 1

    @pytest.mark.parametrize("kind", ["mcct", "mcct-i"])
    def test_monotone_apply_still_checks_its_logits(self, kind):
        model = baselines.from_monotone_params(transform.MonotoneParams(np.ones(3), np.arange(3.0), 6), kind)
        with pytest.raises(ValueError, match="model was fitted for m=6 classes, data has m=5"):
            model.apply(np.zeros((2, 5)))
        z = np.zeros((2, 6))
        z[1, 4] = np.nan
        with pytest.raises(ValueError, match="logit matrix contains NaN or infinite entries"):
            model.apply(z)

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError, match="unknown model kind"):
            CalibratedModel("platt", {"m": 2})

    @pytest.mark.parametrize("kind", ["mcct", "mcct-i", "platt"])
    def test_fit_baseline_refuses_other_kinds(self, kind):
        z = np.array([[0.0, 1.0], [1.0, 0.0]])
        with pytest.raises(ValueError, match=f"not a baseline kind: '{kind}'"):
            baselines.fit_baseline(kind, z, np.array([1, 0]))

    @pytest.mark.parametrize("kind", ["ets-nll", "ets-mse"])
    @pytest.mark.parametrize("temperature", [-1.0, 0.0, float("nan")])
    def test_ensemble_temperature_must_be_positive(self, kind, temperature):
        doc = {"kind": kind, "T": temperature, "weights": [0.5, 0.25, 0.25], "m": 4}
        with pytest.raises(ValueError, match="temperature must be > 0"):
            CalibratedModel.from_json(doc)
        CalibratedModel.from_json({**doc, "T": 2.0})


def seeded_problem(name):
    """Three calibration sets: overconfident, random labels, underconfident."""
    if name == "random":
        rng = np.random.default_rng(1)
        return rng.normal(0, 2, (500, 5)), rng.integers(0, 5, 500)
    overconfidence = {"over": 2.5, "under": 0.5}[name]
    cfg = data_io.SynthConfig(n=3000, m=10, alpha=0.5, overconfidence=overconfidence, seed=11)
    z, y, _ = data_io.generate_synthetic(cfg)
    return z, y


PROBLEMS = ("over", "random", "under")


class TestNewtonFitsMatchOracles:
    @pytest.mark.parametrize("name", PROBLEMS)
    def test_temperature_matches_brent(self, name):
        z, y = seeded_problem(name)
        reference = brent_temperature(z, y)
        assert abs(baselines.fit_ts(z, y).payload["T"] / reference - 1.0) <= 1e-6

    @pytest.mark.parametrize("name", PROBLEMS)
    def test_vector_scaling_loss_at_most_lbfgsb(self, name):
        z, y = seeded_problem(name)
        scale, bias = lbfgsb_vector_scaling(z, y)
        reference = CalibratedModel(baselines.VS, {"scale": scale, "bias": bias, "m": z.shape[1]})
        model = baselines.fit_vs(z, y)
        assert model.payload["bias"][0] == 0.0
        assert core.nll(model.apply(z), y) <= core.nll(reference.apply(z), y) + 1e-10

    @pytest.mark.parametrize("loss", ["nll", "mse"])
    @pytest.mark.parametrize("name", PROBLEMS)
    def test_ensemble_weights_match_slsqp(self, name, loss):
        z, y = seeded_problem(name)
        model = baselines.fit_ets(z, y, loss=loss)
        reference = slsqp_ensemble_weights(z, y, model.payload["T"], loss)
        assert np.abs(model.payload["weights"] - reference).max() <= 1e-6

    @pytest.mark.parametrize("loss", ["nll", "mse"])
    def test_shared_terms_give_the_same_fit(self, loss):
        z, y = seeded_problem("over")
        terms = baselines.ensemble_terms(z, y, baselines.fit_ts(z, y))
        shared = baselines.fit_ets(z, y, loss, terms)
        alone = baselines.fit_ets(z, y, loss)
        assert shared.to_json() == alone.to_json()
        # Both count the temperature solve.
        assert shared._solver == alone._solver


class TestVectorScalingStart:
    @pytest.mark.parametrize("name", PROBLEMS)
    def test_shared_temperature_gives_the_same_fit(self, name):
        z, y = seeded_problem(name)
        ts = baselines.fit_ts(z, y)
        shared, alone = baselines.fit_vs(z, y, ts), baselines.fit_vs(z, y)
        assert shared.to_json() == alone.to_json()
        # Both count the temperature solve.
        assert shared._solver == alone._solver
        assert shared._solver[0] > ts._solver[0]

    @pytest.mark.parametrize("name", PROBLEMS)
    def test_temperature_start_reaches_the_identity_start_optimum(self, name):
        z, y = seeded_problem(name)
        warm = baselines.fit_vs(z, y)
        identity = baselines.fit_vs(z, y, CalibratedModel(baselines.TS, {"T": 1.0, "m": z.shape[1]}))
        assert warm._solver[1] and identity._solver[1]
        loss = core.nll(identity.apply(z), y)
        assert abs(core.nll(warm.apply(z), y) - loss) <= 1e-12 * loss
        for name in ("scale", "bias"):
            np.testing.assert_allclose(warm.payload[name], identity.payload[name], rtol=0, atol=1e-6)


class TestDegenerateCalibrationSets:
    def test_separable_set_takes_the_temperature_bound(self):
        # Every label is its row's argmax, so the loss falls as T falls.
        rng = np.random.default_rng(0)
        z = rng.normal(0, 2, (300, 5))
        y = core.argmax_rows(z)
        assert baselines.fit_ts(z, y).payload["T"] == 1e-3
        assert brent_temperature(z, y) == pytest.approx(1e-3, abs=1e-5)
        for loss in ("nll", "mse"):
            model = baselines.fit_ets(z, y, loss=loss)
            assert model.payload["T"] == 1e-3
            np.testing.assert_allclose(model.payload["weights"], [1.0, 0.0, 0.0], atol=1e-9)

    @pytest.mark.parametrize("offsets", ["zero", "per-row"])
    def test_constant_logits(self, offsets):
        # Every softmax of a row-constant matrix is uniform: the temperature
        # stays at its start, the ensemble outputs the uniform distribution
        # and vector scaling learns the label frequencies through its biases.
        rng = np.random.default_rng(2)
        shift = 0.0 if offsets == "zero" else rng.normal(0, 3, (200, 1))
        z = np.zeros((200, 4)) + shift
        y = rng.integers(0, 4, 200)
        assert baselines.fit_ts(z, y).payload["T"] == 1.0
        for loss in ("nll", "mse"):
            model = baselines.fit_ets(z, y, loss=loss)
            assert model.payload["T"] == 1.0
            assert np.abs(model.apply(z) - 0.25).max() <= 1e-15
        vs = baselines.fit_vs(z, y)
        if offsets == "zero":
            np.testing.assert_allclose(vs.apply(z), np.tile(np.bincount(y) / 200, (200, 1)), atol=1e-6)
        scale, bias = lbfgsb_vector_scaling(z, y)
        reference = CalibratedModel(baselines.VS, {"scale": scale, "bias": bias, "m": 4})
        assert core.nll(vs.apply(z), y) <= core.nll(reference.apply(z), y) + 1e-10

    def test_single_label(self):
        # Temperature and ensemble scaling fit as usual.  Vector scaling has
        # no minimizer, and its fit stops with every sample's probability of
        # the one label near 1.
        rng = np.random.default_rng(3)
        z = rng.normal(0, 2, (300, 5))
        y = np.full(300, 2)
        temperature = baselines.fit_ts(z, y).payload["T"]
        assert abs(temperature / brent_temperature(z, y) - 1.0) <= 1e-6
        assert core.nll(baselines.fit_vs(z, y).apply(z), y) <= 1e-6
        # The ensemble NLL is nearly flat along the weights here: SLSQP stops
        # 2e-6 away, at a higher loss.
        model = baselines.fit_ets(z, y, loss="nll")
        weights = slsqp_ensemble_weights(z, y, temperature, "nll")
        reference = CalibratedModel(baselines.ETS_NLL, {"T": temperature, "weights": weights, "m": 5})
        assert np.abs(model.payload["weights"] - weights).max() <= 1e-5
        assert core.nll(model.apply(z), y) <= core.nll(reference.apply(z), y)
        model = baselines.fit_ets(z, y, loss="mse")
        assert np.abs(model.payload["weights"] - slsqp_ensemble_weights(z, y, temperature, "mse")).max() <= 1e-6
