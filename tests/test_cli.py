import json
import os
import subprocess
import sys
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import numpy as np
import pytest

from monocal import baselines, cli, core, data_io, metrics, optim, transform


def run(*args):
    return cli.main([str(a) for a in args])


def assert_stage_times(out, stages):
    """Check a manifest's per-stage wall times and their total; return them."""
    times = json.load(open(out + ".manifest.json"))["wall_time_s"]
    assert stages | {"total"} <= set(times)
    assert all(times[s] > 0 for s in stages)
    assert times["total"] == pytest.approx(sum(times[s] for s in stages))
    return times


@pytest.fixture(scope="module")
def dataset(tmp_path_factory):
    """Small overconfident dataset written by gen-synth."""
    root = tmp_path_factory.mktemp("data")
    path = str(root / "data.csv")
    code = run(
        "gen-synth", "--n", 3000, "--m", 8, "--alpha", 0.5,
        "--overconfidence", 2.5, "--seed", 7, "--out", path,
    )
    assert code == 0
    return path


class TestGenSynth:
    def test_writes_dataset_and_truth(self, dataset):
        z, y = data_io.read_dataset(dataset)
        assert z.shape == (3000, 8)
        truth = data_io.read_matrix(dataset + ".true_probs.csv")
        assert truth.shape == (3000, 8)
        np.testing.assert_allclose(truth.sum(axis=1), 1.0, atol=1e-9)

    def test_file_matches_in_memory_generation(self, dataset):
        cfg = data_io.SynthConfig(n=3000, m=8, alpha=0.5, overconfidence=2.5, seed=7)
        z, y, true_probs = data_io.generate_synthetic(cfg)
        z2, y2 = data_io.read_dataset(dataset)
        assert np.array_equal(z2, z)
        assert np.array_equal(y2, y)

    def test_manifest_lists_outputs(self, dataset):
        with open(dataset + ".manifest.json") as fh:
            manifest = json.load(fh)
        assert manifest["command"] == "gen-synth"
        assert dataset in manifest["outputs"]
        assert dataset + ".true_probs.csv" in manifest["outputs"]
        assert "generate" in manifest["wall_time_s"]

    def test_default_shape(self, tmp_path):
        path = str(tmp_path / "default.csv")
        assert run("gen-synth", "--out", path) == 0
        z, _ = data_io.read_dataset(path)
        assert z.shape == (10_000, 10)

    def test_binary_format(self, tmp_path):
        path = str(tmp_path / "data.bin")
        assert run("gen-synth", "--n", 50, "--m", 4, "--out", path) == 0
        z, y = data_io.read_dataset(path)
        assert z.shape == (50, 4)


class TestFit:
    def test_monotone_model_file(self, dataset, tmp_path):
        out = str(tmp_path / "model.json")
        assert run("fit", "--data", dataset, "--method", "mcct", "--out", out) == 0
        with open(out) as fh:
            doc = json.load(fh)
        assert doc["kind"] == "mcct"
        assert doc["mode"] == "direct"
        w = np.array(doc["w"])
        assert np.all(np.diff(w) >= 0) and np.all(w > 0)
        assert np.all(np.diff(doc["b"]) >= 0)

    def test_manifest_has_fit_diagnostics(self, dataset, tmp_path):
        out = str(tmp_path / "model.json")
        run("fit", "--data", dataset, "--method", "mcct-i", "--out", out)
        with open(out + ".manifest.json") as fh:
            manifest = json.load(fh)
        assert manifest["fit"]["converged"] is True
        assert manifest["fit"]["final_loss"] > 0
        assert manifest["fit"]["iterations"] >= 1
        z, y = data_io.read_dataset(dataset)
        result = optim.fit_mcct(z, y, mode="inverse")
        assert manifest["fit"]["tied_rows"] == result.tied_rows == 0
        assert manifest["fit"]["reordered_rows"] == result.reordered_rows
        assert manifest["fit"]["distinct_labels"] == result.distinct_labels == np.unique(y).size
        assert manifest["fit"]["initial_loss"] == result.initial_loss >= result.final_loss
        assert set(manifest["wall_time_s"]) == {"read", "fit", "write"}
        assert all(v > 0 for v in manifest["wall_time_s"].values())
        with open(out) as fh:
            assert "time" not in fh.read()

    def test_solver_trace(self, dataset, tmp_path):
        plain, traced = str(tmp_path / "plain.json"), str(tmp_path / "traced.json")
        trace_path = tmp_path / "trace.jsonl"
        assert run("fit", "--data", dataset, "--method", "mcct-i", "--out", plain) == 0
        assert run("fit", "--data", dataset, "--method", "mcct-i", "--trace", trace_path, "--out", traced) == 0
        assert open(plain, "rb").read() == open(traced, "rb").read()
        lines = [json.loads(line) for line in trace_path.read_text().splitlines()]
        manifest = json.load(open(traced + ".manifest.json"))
        assert manifest["trace"] == str(trace_path)
        assert manifest["outputs"] == [traced]
        assert [line["iteration"] for line in lines] == list(range(len(lines)))
        assert len(lines) == manifest["fit"]["iterations"] + 1
        assert set(lines[0]) == {"iteration", "loss", "pg_norm", "free", "step"}
        losses = [line["loss"] for line in lines]
        assert all(later <= earlier for earlier, later in zip(losses, losses[1:]))
        assert losses[0] == manifest["fit"]["initial_loss"]
        assert losses[-1] == manifest["fit"]["final_loss"]
        assert all(line["step"] > 0 for line in lines[:-1]) and lines[-1]["step"] == 0.0
        assert all(1 <= line["free"] <= 15 for line in lines)
        assert lines[-1]["pg_norm"] < 1e-6 < lines[0]["pg_norm"]

    def test_ts_on_calibrated_data(self, tmp_path):
        path = str(tmp_path / "cal.csv")
        run("gen-synth", "--n", 8000, "--m", 10, "--overconfidence", 1.0, "--seed", 0, "--out", path)
        out = str(tmp_path / "ts.json")
        assert run("fit", "--data", path, "--method", "ts", "--out", out) == 0
        with open(out) as fh:
            assert abs(json.load(fh)["T"] - 1.0) <= 0.05

    def test_topk_equal_m_matches_plain_fit(self, dataset, tmp_path):
        plain = str(tmp_path / "plain.json")
        topk = str(tmp_path / "topk.json")
        run("fit", "--data", dataset, "--method", "mcct", "--out", plain)
        run("fit", "--data", dataset, "--method", "mcct", "--topk", 8, "--out", topk)
        assert open(plain, "rb").read() == open(topk, "rb").read()

    def test_truncated_fit(self, dataset, tmp_path):
        out = str(tmp_path / "model.json")
        assert run("fit", "--data", dataset, "--method", "mcct", "--topk", 3, "--out", out) == 0
        with open(out) as fh:
            doc = json.load(fh)
        assert doc["k"] == 3 and doc["m"] == 8 and len(doc["w"]) == 3

    def test_nonconvergence_exit_code(self, dataset, tmp_path):
        out = str(tmp_path / "model.json")
        code = run(
            "fit", "--data", dataset, "--method", "mcct",
            "--max-iterations", 1, "--out", out,
        )
        assert code == 3
        assert json.load(open(out))["kind"] == "mcct"  # best iterate still written
        manifest = json.load(open(out + ".manifest.json"))
        assert manifest["fit"]["converged"] is False
        assert manifest["max_iterations"] == 1

    @pytest.mark.parametrize("argv", [
        ("fit", "--method", "mcct"),
        ("compare", "--methods", "mcct"),
        ("sweep-size", "--fractions", "1", "--methods", "mcct"),
        ("sweep-topk", "--kvalues", "2"),
    ])
    def test_scale_floor_is_not_a_flag(self, dataset, tmp_path, argv, capsys):
        with pytest.raises(SystemExit):
            run(*argv, "--data", dataset, "--out", tmp_path / "out", "--w-floor", 1e-8)
        assert "unrecognized arguments: --w-floor" in capsys.readouterr().err

    def test_every_method_fits(self, dataset, tmp_path):
        for method in cli.METHODS:
            out = str(tmp_path / f"{method}.json")
            assert run("fit", "--data", dataset, "--method", method, "--out", out) == 0
            assert json.load(open(out))["kind"] == method


COUNT = "need a positive integer"
REJECTED_ARGUMENTS = [
    (("compare", "--methods", "mcct", "--runs", "0"), COUNT),
    (("compare", "--methods", "mcct", "--runs", "-2"), COUNT),
    (("compare", "--methods", "mcct", "--runs", "two"), COUNT),
    (("compare", "--methods", "mcct", "--bins", "0"), COUNT),
    (("compare", "--methods", "mcct", "--threads", "0"), COUNT),
    (("compare", "--methods", "mcct", "--max-iterations", "0"), COUNT),
    (("fit", "--method", "mcct", "--max-iterations", "-1"), COUNT),
    (("fit", "--method", "mcct", "--topk", "0"), COUNT),
    (("fit", "--method", "mcct", "--topk", "-1"), COUNT),
    (("fit", "--method", "mcct", "--topk", "1"), COUNT),
    (("eval", "--model", "model.json", "--bins", "0"), COUNT),
    (("sweep-size", "--fractions", "1", "--methods", "mcct", "--threads", "0"), COUNT),
    (("sweep-topk", "--kvalues", "2", "--bins", "0"), COUNT),
    (("sweep-topk", "--kvalues", "1,4"), COUNT),
    (("compare", "--methods", "platt"), "unknown methods ['platt']"),
    (("compare", "--methods", " , "), "need at least one method"),
    (("sweep-size", "--fractions", "1.5", "--methods", "mcct"), "fractions must lie in (0, 1]"),
    (("sweep-size", "--fractions", "0", "--methods", "mcct"), "fractions must lie in (0, 1]"),
    (("sweep-size", "--fractions", "0.5,half", "--methods", "mcct"), "fractions must lie in (0, 1]"),
    (("sweep-size", "--fractions", "1", "--methods", "mcct,platt"), "unknown methods ['platt']"),
    (("sweep-size", "--fractions", "1", "--methods", "mcct", "--seeds", "0,x"), "seeds must be integers"),
]


class TestCountArguments:
    @pytest.mark.parametrize(
        "argv, message", REJECTED_ARGUMENTS, ids=[f"argv{i}" for i in range(len(REJECTED_ARGUMENTS))]
    )
    def test_rejected_before_any_work(self, dataset, tmp_path, argv, message, capsys):
        with pytest.raises(SystemExit) as exc:
            run(*argv, "--data", dataset, "--out", tmp_path / "out")
        assert exc.value.code == 2
        assert message in capsys.readouterr().err
        assert not any(tmp_path.iterdir())

    def test_list_is_checked_before_the_read(self, tmp_path, capsys):
        with pytest.raises(SystemExit) as exc:
            run(
                "sweep-size", "--data", tmp_path / "nosuch.csv", "--fractions", "1.5",
                "--methods", "ts", "--out", tmp_path / "out",
            )
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert "fractions must lie in (0, 1]" in err
        assert "nosuch" not in err


class TestEval:
    def test_identity_model_reproduces_uncalibrated_metrics(self, dataset, tmp_path):
        model = baselines.from_monotone_params(
            transform.MonotoneParams(w=np.ones(8), b=np.zeros(8), mode="direct", m=8)
        )
        model_path = str(tmp_path / "identity.json")
        model.save(model_path)
        out = str(tmp_path / "report.json")
        assert run("eval", "--data", dataset, "--model", model_path, "--out", out) == 0
        report = json.load(open(out))
        z, y = data_io.read_dataset(dataset)
        p = core.softmax_rows(z)
        expected = metrics.compute_report(p, y, p)
        assert report["ece"] == expected.ece
        assert report["nll"] == expected.nll
        assert report["accuracy"] == expected.accuracy
        assert report["prediction_change_rate"] == 0.0

    def test_hand_fixture_ece(self, tmp_path):
        # Confidences (0.9, 0.9, 0.8, 0.6) with correctness (1, 1, 0, 1).
        probs = np.array([[0.9, 0.1], [0.9, 0.1], [0.8, 0.2], [0.6, 0.4]])
        z = np.log(probs)
        y = np.array([0, 0, 1, 0])
        data_path = str(tmp_path / "tiny.csv")
        data_io.write_dataset(data_path, z, y)
        model_path = str(tmp_path / "identity.json")
        baselines.from_monotone_params(
            transform.MonotoneParams(w=np.ones(2), b=np.zeros(2), mode="direct", m=2)
        ).save(model_path)
        out = str(tmp_path / "report.json")
        assert run("eval", "--data", data_path, "--model", model_path, "--bins", 10, "--out", out) == 0
        assert json.load(open(out))["ece"] == pytest.approx(0.35, abs=1e-9)

    def test_reliability_csv_row_count(self, dataset, tmp_path):
        model_path = str(tmp_path / "ts.json")
        run("fit", "--data", dataset, "--method", "ts", "--out", model_path)
        out = str(tmp_path / "report.json")
        assert run("eval", "--data", dataset, "--model", model_path, "--bins", 12, "--out", out) == 0
        lines = open(str(tmp_path / "report.reliability.csv")).read().strip().split("\n")
        assert len(lines) == 13  # header + one row per bin
        counts = [int(line.split(",")[3]) for line in lines[1:]]
        assert sum(counts) == 3000  # every sample lands in exactly one bin

    def test_manifest_has_stage_times(self, dataset, tmp_path):
        model_path = str(tmp_path / "ts.json")
        run("fit", "--data", dataset, "--method", "ts", "--out", model_path)
        out = str(tmp_path / "report.json")
        assert run("eval", "--data", dataset, "--model", model_path, "--out", out) == 0
        with open(out + ".manifest.json") as fh:
            times = json.load(fh)["wall_time_s"]
        assert set(times) == {"read", "apply", "metrics"}
        assert all(v > 0 for v in times.values())
        with open(out) as fh:
            assert "time" not in fh.read()

    def test_validation_count(self, dataset, tmp_path, monkeypatch):
        # Logits are validated where they enter (read, apply, map); each
        # probability matrix once, by the report.  A k = m map adds the
        # full-row sort's own check.
        model_path = str(tmp_path / "mcct.json")
        assert run("fit", "--data", dataset, "--method", "mcct", "--topk", 3, "--out", model_path) == 0
        calls = {"logits": 0, "probs": 0}
        validate_logits, validate_probs = core.validate_logits, core.validate_probs

        def count_logits(z):
            calls["logits"] += 1
            return validate_logits(z)

        def count_probs(p):
            calls["probs"] += 1
            return validate_probs(p)

        monkeypatch.setattr(core, "validate_logits", count_logits)
        monkeypatch.setattr(core, "validate_probs", count_probs)
        assert run("eval", "--data", dataset, "--model", model_path, "--out", tmp_path / "report.json") == 0
        assert calls["probs"] == 2
        assert calls["logits"] <= 3

    @pytest.mark.parametrize("doc", [
        {"kind": "mcct", "mode": "direct", "m": 8, "k": 8, "w": [1e308] * 8, "b": [0.0] * 8},
        {"kind": "mcct", "mode": "direct", "m": 8, "k": 3, "w": [1e308] * 3, "b": [0.0] * 3},
        {"kind": "ts", "T": 1e-308, "m": 8},
    ])
    def test_map_overflowing_to_inf_is_refused(self, dataset, tmp_path, doc, capsys):
        model_path = tmp_path / "overflow.json"
        model_path.write_text(json.dumps(doc))
        with np.errstate(over="ignore", invalid="ignore"):
            code = run("eval", "--data", dataset, "--model", model_path, "--out", tmp_path / "report.json")
        assert code == 2
        assert "logit matrix contains NaN or infinite entries" in capsys.readouterr().err
        assert not (tmp_path / "report.json").exists()

    def test_class_count_mismatch(self, dataset, tmp_path):
        model_path = str(tmp_path / "wrong.json")
        baselines.CalibratedModel(baselines.TS, {"T": 2.0, "m": 5}).save(model_path)
        out = str(tmp_path / "report.json")
        assert run("eval", "--data", dataset, "--model", model_path, "--out", out) == 2


@pytest.fixture
def solves(monkeypatch):
    """Records the arguments of every monotone solve the CLI makes."""
    calls = []
    fit_mcct = cli.optim.fit_mcct

    def counted(*args, **kwargs):
        calls.append(args)
        return fit_mcct(*args, **kwargs)

    monkeypatch.setattr(cli.optim, "fit_mcct", counted)
    return calls

class TestCompare:
    def test_table_structure_and_rank(self, dataset, tmp_path):
        out = str(tmp_path / "cmp.json")
        code = run(
            "compare", "--data", dataset, "--methods", "mcct,ts,vs",
            "--split", 0.5, "--runs", 2, "--seed", 0, "--out", out,
        )
        assert code == 0
        doc = json.load(open(out))
        assert doc["methods"] == ["uncalibrated", "mcct", "ts", "vs"]
        assert doc["seeds"] == [0, 1]
        assert len(doc["per_seed"]) == 8
        assert set(doc["rank"]["ece"]) == {"uncalibrated", "mcct", "ts", "vs"}
        best = min(doc["mean"], key=lambda m: doc["mean"][m]["ece"])
        assert doc["rank"]["ece"][best] == 1
        csv_lines = open(str(tmp_path / "cmp.csv")).read().strip().split("\n")
        assert csv_lines[0].startswith("method,seed,ece")
        assert len(csv_lines) == 1 + 8 + 4 + 4  # header, per-seed, mean, rank
        assert_stage_times(out, {"split", "cells", "write"})

    def test_monotone_methods_keep_accuracy(self, dataset, tmp_path):
        out = str(tmp_path / "cmp.json")
        run(
            "compare", "--data", dataset, "--methods", "mcct,mcct-i,ts,ets-nll,ets-mse",
            "--split", 0.5, "--runs", 1, "--seed", 3, "--out", out,
        )
        doc = json.load(open(out))
        reference = doc["mean"]["uncalibrated"]["accuracy"]
        for method in ("mcct", "mcct-i", "ts", "ets-nll", "ets-mse"):
            assert doc["mean"][method]["accuracy"] == reference
            assert doc["mean"][method]["prediction_change_rate"] == 0.0

    def test_mcct_and_mcct_i_share_one_solve_per_split(self, dataset, tmp_path, solves):
        out = str(tmp_path / "cmp.json")
        assert run(
            "compare", "--data", dataset, "--methods", "mcct-i,ts,mcct",
            "--split", 0.5, "--runs", 2, "--threads", 2, "--out", out,
        ) == 0
        assert len(solves) == 2
        doc = json.load(open(out))
        assert [c["method"] for c in doc["per_seed"]] == [
            m for m in ("uncalibrated", "mcct-i", "ts", "mcct") for _ in range(2)
        ]
        # Each shared cell equals a separate fit and eval of its kind.
        (zc, yc), (zt, yt) = data_io.split_dataset(*data_io.read_dataset(dataset), 0.5, 1)
        for method in ("mcct", "mcct-i"):
            model, _ = cli._fit_method(method, zc, yc)
            report = metrics.compute_report(model.apply(zt), yt, core.softmax_rows(zt))
            cell = next(c for c in doc["per_seed"] if c["method"] == method and c["seed"] == 1)
            assert cell["nll"] == report.scalars()["nll"]

    def test_cell_failure_recorded_and_exit_nonzero(self, tmp_path):
        # A 4-sample dataset split 25/75 leaves one calibration sample:
        # the monotone fit needs two, so its cells fail while ts succeeds.
        data_path = str(tmp_path / "micro.csv")
        rng = np.random.default_rng(0)
        data_io.write_dataset(data_path, rng.normal(0, 1, (4, 3)), rng.integers(0, 3, 4))
        out = str(tmp_path / "cmp.json")
        code = run(
            "compare", "--data", data_path, "--methods", "mcct,ts",
            "--split", 0.25, "--runs", 1, "--out", out,
        )
        assert code == 1
        doc = json.load(open(out))
        statuses = {row["method"]: row["status"] for row in doc["per_seed"]}
        assert statuses["mcct"] == "error"
        assert statuses["ts"] == "ok"
        manifest = json.load(open(out + ".manifest.json"))
        assert len(manifest["failures"]) == 1

    def test_unknown_method_rejected(self, dataset, tmp_path):
        out = str(tmp_path / "cmp.json")
        with pytest.raises(SystemExit) as exc:
            run("compare", "--data", dataset, "--methods", "platt", "--out", out)
        assert exc.value.code == 2


class TestSharedFits:
    def test_one_solve_per_key_under_contention(self, solves):
        rng = np.random.default_rng(0)
        z, y = rng.normal(0, 2, (200, 4)), rng.integers(0, 4, 200)
        fit = cli._shared_fits(optim.MAX_ITERATIONS)
        calls = [(key, method) for key in range(3) for method in ("mcct", "mcct-i") * 4]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with ThreadPoolExecutor(max_workers=8) as pool:
                models = list(pool.map(lambda call: fit(*call, z, y), calls, timeout=60))
        finally:
            sys.setswitchinterval(interval)
        assert len(solves) == 3
        assert [model.kind for model in models] == [method for _, method in calls]

    def test_one_temperature_per_split(self, dataset, tmp_path, monkeypatch):
        temperatures = []
        fit_ts = baselines.fit_ts

        def counted(*args):
            temperatures.append(args)
            return fit_ts(*args)

        monkeypatch.setattr(baselines, "fit_ts", counted)
        outs = []
        for threads in (1, 2):
            temperatures.clear()
            out = str(tmp_path / f"cmp{threads}.json")
            assert run(
                "compare", "--data", dataset, "--methods", "ts,ets-nll,ets-mse",
                "--runs", 2, "--threads", threads, "--out", out,
            ) == 0
            assert len(temperatures) == 2
            outs.append(out)
        tables = [out[: -len(".json")] + ".csv" for out in outs]
        for one, two in (outs, tables):
            assert open(one, "rb").read() == open(two, "rb").read()
        # Each shared fit equals a separate fit of its kind.
        doc = json.load(open(outs[0]))
        (zc, yc), (zt, yt) = data_io.split_dataset(*data_io.read_dataset(dataset), 0.5, 1)
        for method in ("ts", "ets-nll", "ets-mse"):
            model = baselines.fit_baseline(method, zc, yc)
            report = metrics.compute_report(model.apply(zt), yt, core.softmax_rows(zt))
            cell = next(c for c in doc["per_seed"] if c["method"] == method and c["seed"] == 1)
            assert cell["nll"] == report.scalars()["nll"]


class TestImports:
    def test_cli_does_not_import_scipy(self):
        src = str(Path(cli.__file__).resolve().parents[1])
        code = "import sys, monocal.cli; print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
        out = subprocess.run(
            [sys.executable, "-c", code], env={**os.environ, "PYTHONPATH": src},
            capture_output=True, text=True, check=True, timeout=60,
        )
        assert out.stdout.strip() == "[]"

class TestSweepSize:
    def test_full_fraction_reproduces_compare(self, dataset, tmp_path):
        cmp_out = str(tmp_path / "cmp.json")
        run(
            "compare", "--data", dataset, "--methods", "mcct,ts",
            "--split", 0.5, "--runs", 1, "--seed", 0, "--out", cmp_out,
        )
        sweep_out = str(tmp_path / "sweep.csv")
        code = run(
            "sweep-size", "--data", dataset, "--fractions", "0.2,1.0",
            "--methods", "mcct,ts", "--seeds", "0", "--split", 0.5, "--seed", 0,
            "--out", sweep_out,
        )
        assert code == 0
        cmp_doc = json.load(open(cmp_out))
        rows = json.load(open(sweep_out + ".json"))["rows"]
        full = {r["method"]: r for r in rows if r["fraction"] == 1.0}
        for method in ("mcct", "ts"):
            per_seed = [
                r for r in cmp_doc["per_seed"] if r["method"] == method and r["seed"] == 0
            ][0]
            assert full[method]["ece"] == per_seed["ece"]
            assert full[method]["nll"] == per_seed["nll"]

    def test_small_fraction_cells_report_size(self, dataset, tmp_path):
        out = str(tmp_path / "sweep.csv")
        assert run(
            "sweep-size", "--data", dataset, "--fractions", "0.1,0.5",
            "--methods", "ts", "--seeds", "0,1", "--out", out,
        ) == 0
        rows = json.load(open(out + ".json"))["rows"]
        assert len(rows) == 4
        assert {r["n_calib"] for r in rows} == {150, 750}
        assert_stage_times(out, {"split", "cells", "write"})

    def test_mcct_and_mcct_i_share_one_solve_per_subsample(self, dataset, tmp_path, solves):
        out = str(tmp_path / "sweep.csv")
        assert run(
            "sweep-size", "--data", dataset, "--fractions", "0.5,1.0",
            "--methods", "mcct,mcct-i", "--seeds", "0,1", "--threads", 2, "--out", out,
        ) == 0
        assert len(solves) == 4
        assert len(json.load(open(out + ".json"))["rows"]) == 8

    def test_too_small_subsample_is_per_cell_failure(self, dataset, tmp_path):
        out = str(tmp_path / "sweep.csv")
        code = run(
            "sweep-size", "--data", dataset, "--fractions", "0.0005,0.5",
            "--methods", "mcct", "--seeds", "0", "--out", out,
        )
        assert code == 1
        rows = json.load(open(out + ".json"))["rows"]
        by_fraction = {r["fraction"]: r["status"] for r in rows}
        assert by_fraction[0.0005] != "ok"
        assert by_fraction[0.5] == "ok"

    def test_rejects_fraction_above_one(self, dataset, tmp_path):
        with pytest.raises(SystemExit) as exc:
            run(
                "sweep-size", "--data", dataset, "--fractions", "1.5",
                "--methods", "ts", "--out", str(tmp_path / "s.csv"),
            )
        assert exc.value.code == 2


class TestSweepTopk:
    def test_k_equals_m_matches_full_fit(self, dataset, tmp_path):
        out = str(tmp_path / "topk.csv")
        code = run(
            "sweep-topk", "--data", dataset, "--kvalues", "2,4,8",
            "--split", 0.5, "--seed", 0, "--out", out,
        )
        assert code == 0
        rows = json.load(open(out + ".json"))["rows"]
        assert [r["k"] for r in rows] == [2, 4, 8]
        fit_per_k = assert_stage_times(out, {"split", "cells", "write"})["fit_per_k"]
        assert set(fit_per_k) == {"2", "4", "8"} and all(v > 0 for v in fit_per_k.values())
        assert rows[0]["dropped_samples"] > 0
        assert rows[2]["dropped_samples"] == 0
        # k = m reproduces a plain compare fit on the same split.
        cmp_out = str(tmp_path / "cmp.json")
        run(
            "compare", "--data", dataset, "--methods", "mcct",
            "--split", 0.5, "--runs", 1, "--seed", 0, "--out", cmp_out,
        )
        cmp_row = [r for r in json.load(open(cmp_out))["per_seed"] if r["method"] == "mcct"][0]
        assert rows[2]["ece"] == cmp_row["ece"]

    def test_k_above_m_is_per_cell_failure(self, dataset, tmp_path):
        out = str(tmp_path / "topk.csv")
        assert run("sweep-topk", "--data", dataset, "--kvalues", "4,9", "--out", out) == 1
        lines = open(out).read().strip().split("\n")
        error = "ValueError: need 2 <= k <= m, got k=9, m=8"
        assert lines[2] == "9," + "," * 10 + error  # 7 metrics, dropped_samples, iterations, converged
        rows = json.load(open(out + ".json"))["rows"]
        assert rows[0]["status"] == "ok" and rows[1]["k"] == 9 and rows[1]["status"] == error
        assert rows[1]["ece"] is None and rows[1]["converged"] is None
        manifest = json.load(open(out + ".manifest.json"))
        assert manifest["failures"] == [{"k": 9, "error": error}]
        assert manifest["kvalues"] == [4, 9]
        assert set(manifest["wall_time_s"]["fit_per_k"]) == {"4"}

    def test_timing_column_excluded_from_json_metrics(self, dataset, tmp_path):
        out = str(tmp_path / "topk.csv")
        run("sweep-topk", "--data", dataset, "--kvalues", "8", "--out", out)
        header = open(out).readline().strip().split(",")
        assert "fit_seconds" not in header and "dropped_samples" in header
        assert "fit_seconds" not in json.load(open(out + ".json"))["rows"][0]
        assert "8" in json.load(open(out + ".manifest.json"))["wall_time_s"]["fit_per_k"]


class TestDeterminism:
    def test_fit_is_identical_with_one_and_two_blas_threads(self, dataset, tmp_path):
        # At m = 100 the Hessian (199 x 199) is large enough that a threaded
        # BLAS product or LAPACK factorization would round differently.
        wide = str(tmp_path / "wide.csv")
        assert run(
            "gen-synth", "--n", 2000, "--m", 100, "--alpha", 0.2,
            "--overconfidence", 2.5, "--seed", 3, "--out", wide,
        ) == 0
        src = str(Path(optim.__file__).resolve().parents[1])
        for data in (dataset, wide):
            models = []
            for threads in ("1", "2"):
                out = str(tmp_path / f"model{threads}.json")
                env = {**os.environ, "OPENBLAS_NUM_THREADS": threads, "PYTHONPATH": src}
                subprocess.run(
                    [sys.executable, "-m", "monocal.cli", "fit", "--data", data, "--method", "mcct", "--out", out],
                    env=env, check=True, timeout=120,
                )
                models.append(open(out, "rb").read())
            assert models[0] == models[1]

    def test_baseline_fits_are_identical_with_one_and_two_blas_threads(self, tmp_path):
        wide = str(tmp_path / "wide.csv")
        assert run(
            "gen-synth", "--n", 1000, "--m", 100, "--alpha", 0.2,
            "--overconfidence", 2.5, "--seed", 4, "--out", wide,
        ) == 0
        src = str(Path(optim.__file__).resolve().parents[1])
        for method in ("ts", "vs", "ets-nll", "ets-mse"):
            models = []
            for threads in ("1", "2"):
                out = str(tmp_path / f"{method}{threads}.json")
                env = {**os.environ, "OPENBLAS_NUM_THREADS": threads, "PYTHONPATH": src}
                subprocess.run(
                    [sys.executable, "-m", "monocal.cli", "fit", "--data", wide, "--method", method, "--out", out],
                    env=env, check=True, timeout=120,
                )
                models.append(open(out, "rb").read())
            assert models[0] == models[1]

    def test_fit_reruns_are_byte_identical(self, dataset, tmp_path):
        a = str(tmp_path / "a.json")
        b = str(tmp_path / "b.json")
        run("fit", "--data", dataset, "--method", "mcct", "--out", a)
        run("fit", "--data", dataset, "--method", "mcct", "--out", b)
        assert open(a, "rb").read() == open(b, "rb").read()

    def test_sweep_topk_reruns_are_byte_identical(self, dataset, tmp_path):
        outs = []
        for name in ("a", "b"):
            out = str(tmp_path / f"{name}.csv")
            assert run("sweep-topk", "--data", dataset, "--kvalues", "2,8", "--out", out) == 0
            outs.append(out)
        for suffix in ("", ".json"):
            assert open(outs[0] + suffix, "rb").read() == open(outs[1] + suffix, "rb").read()

    def test_compare_reruns_are_byte_identical(self, dataset, tmp_path):
        outs = []
        for name in ("a", "b"):
            out = str(tmp_path / f"{name}.json")
            run(
                "compare", "--data", dataset, "--methods", "mcct,ts",
                "--split", 0.5, "--runs", 2, "--seed", 1, "--out", out,
            )
            outs.append(out)
        assert open(outs[0], "rb").read() == open(outs[1], "rb").read()
        csv_a = outs[0][:-5] + ".csv"
        csv_b = outs[1][:-5] + ".csv"
        assert open(csv_a, "rb").read() == open(csv_b, "rb").read()

    def test_gen_synth_reruns_are_byte_identical(self, tmp_path):
        paths = []
        for name in ("a", "b"):
            path = str(tmp_path / f"{name}.csv")
            run("gen-synth", "--n", 100, "--m", 5, "--seed", 9, "--out", path)
            paths.append(path)
        assert open(paths[0], "rb").read() == open(paths[1], "rb").read()

    def test_threaded_sweep_size_matches_serial(self, dataset, tmp_path):
        # Two threads start the mcct-i cells after every other cell.
        outs = []
        for threads in (1, 2):
            out = str(tmp_path / f"size{threads}.csv")
            assert run(
                "sweep-size", "--data", dataset, "--fractions", "0.3,1.0",
                "--methods", "mcct,mcct-i,ts", "--seeds", "0,1", "--threads", threads, "--out", out,
            ) == 0
            outs.append(out)
        for suffix in ("", ".json"):
            assert open(outs[0] + suffix, "rb").read() == open(outs[1] + suffix, "rb").read()

    def test_threaded_compare_matches_serial(self, dataset, tmp_path):
        serial = str(tmp_path / "serial.json")
        threaded = str(tmp_path / "threaded.json")
        run(
            "compare", "--data", dataset, "--methods", "ts,hb",
            "--runs", 2, "--seed", 0, "--out", serial,
        )
        run(
            "compare", "--data", dataset, "--methods", "ts,hb",
            "--runs", 2, "--seed", 0, "--threads", 4, "--out", threaded,
        )
        assert open(serial).read() == open(threaded).read()
