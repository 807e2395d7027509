import concurrent.futures
import dataclasses
import json
import os
import subprocess
import sys
import tracemalloc
import warnings
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import numpy as np
import pytest

from monocal import baselines, cli, core, data_io, metrics, optim, transform

from conftest import patterned_logits


def run(*args):
    return cli.main([str(a) for a in args])


def assert_stage_times(out, stages):
    """Check a manifest's per-stage wall times and their total; return them."""
    times = json.loads(Path(out + ".manifest.json").read_text())["wall_time_s"]
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

    def test_defaults_are_the_config_defaults(self):
        defaults = dataclasses.asdict(data_io.SynthConfig())
        args = cli._build_parser().parse_args(["gen-synth", "--out", "x"])
        assert {name: getattr(args, name) for name in defaults} == defaults
        args = cli._build_parser().parse_args(["gen-synth", "--out", "x", "--n", "7", "--alpha", "0.25"])
        assert (type(args.n), args.n, type(args.alpha), args.alpha) == (int, 7, float, 0.25)

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

    def test_negative_seed_is_refused(self, tmp_path, capsys):
        with pytest.raises(SystemExit) as exc:
            run("gen-synth", "--seed", -3, "--out", tmp_path / "d.csv")
        assert exc.value.code == 2
        assert "seeds must be integers of at least 0, got '-3'" in capsys.readouterr().err
        assert not any(tmp_path.iterdir())

    @pytest.mark.parametrize("flag, value, message", [
        ("--alpha", "nan", "alpha and overconfidence must be finite and > 0"),
        ("--alpha", "inf", "alpha and overconfidence must be finite and > 0"),
        ("--overconfidence", "nan", "alpha and overconfidence must be finite and > 0"),
        ("--overconfidence", "inf", "alpha and overconfidence must be finite and > 0"),
    ])
    def test_non_finite_parameter_is_refused_before_generating(self, tmp_path, flag, value, message, monkeypatch, capsys):
        monkeypatch.setattr(data_io, "generate_synthetic", lambda cfg: pytest.fail("generated before the check"))
        assert run("gen-synth", "--n", 50, "--m", 4, flag, value, "--out", tmp_path / "d.csv") == 2
        assert message in capsys.readouterr().err
        assert not any(tmp_path.iterdir())

    def test_unknown_extension_needs_a_format(self, tmp_path, capsys):
        assert run("gen-synth", "--n", 50, "--m", 4, "--out", tmp_path / "d.txt") == 2
        assert "cannot infer format" in capsys.readouterr().err
        assert not any(tmp_path.iterdir())


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
        assert Path(plain).read_bytes() == Path(traced).read_bytes()
        lines = [json.loads(line) for line in trace_path.read_text().splitlines()]
        manifest = json.loads(Path(traced + ".manifest.json").read_text())
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

    def test_ignored_trace_leaves_its_file_alone(self, dataset, tmp_path):
        out, trace_path = str(tmp_path / "ts.json"), tmp_path / "keep.jsonl"
        trace_path.write_bytes(b"keep me\n")
        with pytest.warns(UserWarning, match="--trace only affects mcct/mcct-i; ignored for ts"):
            assert run("fit", "--data", dataset, "--method", "ts", "--trace", trace_path, "--out", out) == 0
        assert trace_path.read_bytes() == b"keep me\n"
        assert json.loads(Path(out + ".manifest.json").read_text())["trace"] is None

    def test_trace_is_written_once_the_fit_returns(self, dataset, tmp_path, capsys):
        # A fit that fails (k above the 8 classes) leaves an existing trace file as it was.
        out, trace_path = str(tmp_path / "model.json"), tmp_path / "trace.jsonl"
        trace_path.write_bytes(b"keep me\n")
        fit = ("fit", "--data", dataset, "--method", "mcct", "--trace", trace_path, "--out", out)
        assert run(*fit, "--topk", 9) == 2
        assert "need 2 <= k <= m, got k=9, m=8" in capsys.readouterr().err
        assert trace_path.read_bytes() == b"keep me\n"
        assert [p.name for p in tmp_path.iterdir()] == ["trace.jsonl"]
        # A fit that stops short of convergence returns, and its records are written.
        assert run(*fit, "--max-iterations", 1) == 3
        lines = [json.loads(line) for line in trace_path.read_text().splitlines()]
        manifest = json.loads(Path(out + ".manifest.json").read_text())
        assert [line["iteration"] for line in lines] == list(range(manifest["fit"]["iterations"] + 1))
        assert lines[-1]["loss"] == manifest["fit"]["final_loss"]

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
        assert Path(plain).read_bytes() == Path(topk).read_bytes()

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
        assert json.loads(Path(out).read_text())["kind"] == "mcct"  # best iterate still written
        manifest = json.loads(Path(out + ".manifest.json").read_text())
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

    def test_baseline_manifest_reports_its_solves(self, dataset, tmp_path):
        for method in ("ts", "vs", "hb", "ets-nll", "ets-mse"):
            out = str(tmp_path / f"{method}.json")
            assert run("fit", "--data", dataset, "--method", method, "--out", out) == 0
            info = json.loads(Path(out + ".manifest.json").read_text())["fit"]
            if method == "hb":
                assert info["iterations"] is None and info["converged"] is True
            else:
                assert isinstance(info["iterations"], int) and info["iterations"] >= 1, method
                assert info["converged"] is True, method
            # The model file holds the parameters only.
            assert "iterations" not in json.loads(Path(out).read_text()) and "converged" not in json.loads(Path(out).read_text())

    def test_single_label_vs_manifest_agrees_with_exit_code(self, tmp_path):
        # One label everywhere: vector scaling has no minimizer and stops at the solver's tolerance.
        data_path = str(tmp_path / "single.csv")
        rng = np.random.default_rng(0)
        data_io.write_dataset(data_path, rng.normal(0, 1, (300, 4)), np.zeros(300, dtype=np.int64))
        out = str(tmp_path / "vs.json")
        code = run("fit", "--data", data_path, "--method", "vs", "--out", out)
        info = json.loads(Path(out + ".manifest.json").read_text())["fit"]
        assert isinstance(info["iterations"], int) and info["iterations"] > 1
        assert code == (0 if info["converged"] else 3)
        assert info["final_loss"] < 1e-6

    def test_every_method_fits(self, dataset, tmp_path):
        for method in cli.METHODS:
            out = str(tmp_path / f"{method}.json")
            assert run("fit", "--data", dataset, "--method", method, "--out", out) == 0
            assert json.loads(Path(out).read_text())["kind"] == method


COUNT = "need a positive integer"
SPLIT = "split must lie strictly between 0 and 1"
SEED = "seeds must be integers"
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
    (("compare", "--methods", "mcct", "--split", "1.5"), SPLIT),
    (("compare", "--methods", "mcct", "--split", "0"), SPLIT),
    (("sweep-size", "--fractions", "1", "--methods", "mcct", "--split", "1"), SPLIT),
    (("sweep-topk", "--kvalues", "2", "--split", "half"), SPLIT),
    (("sweep-topk", "--kvalues", "2", "--split", "nan"), SPLIT),
    (("compare", "--methods", "mcct", "--seed", "-1"), SEED),
    (("sweep-topk", "--kvalues", "2", "--seed", "-1"), SEED),
    (("sweep-size", "--fractions", "0.5", "--methods", "mcct", "--seeds", "0,-1"), SEED),
    (("compare", "--methods", "ts,mcct,ts"), "repeated method 'ts'"),
    (("sweep-size", "--fractions", "0.5,1,0.50", "--methods", "mcct"), "repeated fraction 0.5"),
    (("sweep-size", "--fractions", "1", "--methods", "mcct", "--seeds", "1,1"), "repeated seed 1"),
    (("sweep-topk", "--kvalues", "3,3"), "repeated k value 3"),
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

    def test_split_is_checked_before_the_read(self, tmp_path, capsys):
        with pytest.raises(SystemExit) as exc:
            run("compare", "--data", tmp_path / "nosuch.csv", "--methods", "ts", "--split", "1.5", "--out", tmp_path / "out")
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert f"{SPLIT}, got '1.5'" in err
        assert "nosuch" not in err

    def test_seed_is_checked_before_the_read(self, tmp_path, capsys):
        with pytest.raises(SystemExit) as exc:
            run("compare", "--data", tmp_path / "nosuch.csv", "--methods", "ts", "--seed", "-1", "--out", tmp_path / "out")
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert f"{SEED} of at least 0, got '-1'" in err
        assert "nosuch" not in err


class TestParser:
    def test_built_once(self):
        assert cli._build_parser() is cli._build_parser()

    def test_argv_in_a_row_parse_independently(self):
        parse = cli._build_parser().parse_args
        first = parse(["fit", "--data", "a.csv", "--method", "mcct", "--topk", "3", "--out", "a"])
        second = parse(["fit", "--data", "b.csv", "--method", "ts", "--out", "b"])
        third = parse(["eval", "--data", "c.csv", "--model", "m.json", "--out", "c"])
        assert (first.data, first.method, first.topk, first.out) == ("a.csv", "mcct", 3, "a")
        assert (second.data, second.method, second.topk, second.out) == ("b.csv", "ts", None, "b")
        assert (third.command, third.model) == ("eval", "m.json")
        assert not hasattr(third, "method") and not hasattr(third, "topk")

    def test_runs_the_command_on_the_module_when_called(self, monkeypatch):
        # A command replaced after the parser was built (as a tracing
        # wrapper is) is the one that runs.
        cli._build_parser()
        seen = []
        monkeypatch.setattr(cli, "cmd_eval", lambda args: seen.append(args.model) or 7)
        assert run("eval", "--data", "d.csv", "--model", "m.json", "--out", "o") == 7
        assert seen == ["m.json"]


# A complete model document of each kind, for m = 8.
MODEL_DOCS = {
    "ts": {"kind": "ts", "m": 8, "T": 2.0},
    "vs": {"kind": "vs", "m": 8, "scale": [1.0] * 8, "bias": [0.0] * 8},
    "hb": {"kind": "hb", "m": 8, "edges": [0.0, 0.5, 1.0], "bin_confidence": [0.25, 0.75]},
    "ets-nll": {"kind": "ets-nll", "m": 8, "T": 2.0, "weights": [0.5, 0.25, 0.25]},
    "ets-mse": {"kind": "ets-mse", "m": 8, "T": 2.0, "weights": [0.5, 0.25, 0.25]},
    "mcct": {"kind": "mcct", "m": 8, "mode": "direct", "k": 8, "w": [1.0] * 8, "b": [0.0] * 8},
    "mcct-i": {"kind": "mcct-i", "m": 8, "mode": "inverse", "k": 8, "w": [1.0] * 8, "b": [0.0] * 8},
}


class TestFormat:
    def test_unknown_extension_needs_a_format(self, dataset, tmp_path, capsys):
        data_path = tmp_path / "data.txt"
        data_path.write_bytes(Path(dataset).read_bytes())
        out = tmp_path / "model.json"
        assert run("fit", "--data", data_path, "--method", "ts", "--out", out) == 2
        assert "cannot infer format" in capsys.readouterr().err
        assert not out.exists()
        assert run("fit", "--data", data_path, "--method", "ts", "--format", "csv", "--out", out) == 0
        assert json.loads(Path(out).read_text())["kind"] == "ts"


@pytest.mark.parametrize("cell, message", [
    ("nan", "labels must be finite, got NaN or infinity"),
    ("1e20", "labels must lie in [0, 3)"),
])
def test_a_bad_label_cell_exits_2_without_a_cast_warning(tmp_path, capsys, cell, message):
    data, model = tmp_path / "bad.csv", str(tmp_path / "model.json")
    data.write_text(f"z0,z1,z2,label\n0.5,1.0,-1.0,0\n0.0,2.0,1.0,{cell}\n1.0,0.0,3.0,2\n")
    baselines.CalibratedModel("ts", {"T": 1.5, "m": 3}).save(model)
    for command in (("fit", "--method", "ts"), ("eval", "--model", model)):
        out = tmp_path / "out.json"
        capsys.readouterr()
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert run(*command, "--data", data, "--out", out) == 2
        assert capsys.readouterr().err == f"error: {message}\n"
        assert caught == [] and not out.exists()


class TestEval:
    def test_identity_model_reproduces_uncalibrated_metrics(self, dataset, tmp_path):
        model = baselines.from_monotone_params(
            transform.MonotoneParams(w=np.ones(8), b=np.zeros(8), mode="direct", m=8)
        )
        model_path = str(tmp_path / "identity.json")
        model.save(model_path)
        out = str(tmp_path / "report.json")
        assert run("eval", "--data", dataset, "--model", model_path, "--out", out) == 0
        report = json.loads(Path(out).read_text())
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
        assert json.loads(Path(out).read_text())["ece"] == pytest.approx(0.35, abs=1e-9)

    def test_reliability_csv_row_count(self, dataset, tmp_path):
        model_path = str(tmp_path / "ts.json")
        run("fit", "--data", dataset, "--method", "ts", "--out", model_path)
        out = str(tmp_path / "report.json")
        assert run("eval", "--data", dataset, "--model", model_path, "--bins", 12, "--out", out) == 0
        lines = (tmp_path / "report.reliability.csv").read_text().strip().split("\n")
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
        # Logits are validated where they enter: the read, then each block
        # handed to the map (a k = m map adds the full-row sort's own check).
        # Each block of each probability matrix is validated once, by the
        # report's row statistics.  1000-row blocks make 3 of the 3000 rows.
        model_path = str(tmp_path / "mcct.json")
        assert run("fit", "--data", dataset, "--method", "mcct", "--topk", 3, "--out", model_path) == 0
        # The blocks may run on several threads: each call appends, which is atomic.
        calls = {"logits": [], "probs": []}
        validate_logits, validate_probs = core.validate_logits, core.validate_probs
        monkeypatch.setattr(core, "validate_logits", lambda z: calls["logits"].append(1) or validate_logits(z))
        monkeypatch.setattr(core, "validate_probs", lambda p: calls["probs"].append(1) or validate_probs(p))
        monkeypatch.setattr(core, "BLOCK_DOUBLES", 1000 * 8)
        assert run("eval", "--data", dataset, "--model", model_path, "--out", tmp_path / "report.json") == 0
        assert len(calls["probs"]) == 2 * 3
        assert len(calls["logits"]) == 1 + 3

    @pytest.mark.parametrize("method", ["mcct", "ets-nll"])
    def test_apply_sees_one_block_at_a_time(self, dataset, tmp_path, monkeypatch, method):
        model_path = str(tmp_path / "model.json")
        assert run("fit", "--data", dataset, "--method", method, "--out", model_path) == 0
        rows = []
        apply = baselines.CalibratedModel.apply
        monkeypatch.setattr(baselines.CalibratedModel, "apply", lambda self, z: rows.append(len(z)) or apply(self, z))
        monkeypatch.setattr(core, "BLOCK_DOUBLES", 700 * 8)
        out = str(tmp_path / "report.json")
        assert run("eval", "--data", dataset, "--model", model_path, "--out", out) == 0
        # Blocks on different threads may start in either order.
        assert sorted(rows) == [200] + [700] * 4
        monkeypatch.undo()
        whole = str(tmp_path / "whole.json")
        assert run("eval", "--data", dataset, "--model", model_path, "--out", whole) == 0
        assert Path(out).read_bytes() == Path(whole).read_bytes()

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

    def test_class_count_mismatch(self, dataset, tmp_path, capsys):
        model_path = str(tmp_path / "wrong.json")
        baselines.CalibratedModel(baselines.TS, {"T": 2.0, "m": 5}).save(model_path)
        out = str(tmp_path / "report.json")
        assert run("eval", "--data", dataset, "--model", model_path, "--out", out) == 2
        assert "model was fitted for m=5 classes, data has m=8" in capsys.readouterr().err
        assert not os.path.exists(out)

    @pytest.mark.parametrize("kind, field", [(kind, field) for kind, doc in MODEL_DOCS.items() for field in doc])
    def test_model_file_missing_a_field_is_refused(self, dataset, tmp_path, kind, field, capsys):
        doc = dict(MODEL_DOCS[kind])
        baselines.CalibratedModel.from_json(doc)  # the whole document loads
        del doc[field]
        message = f"model document has no '{field}' field"
        with pytest.raises(ValueError, match=message):
            baselines.CalibratedModel.from_json(doc)
        model_path = tmp_path / "model.json"
        model_path.write_text(json.dumps(doc))
        out = tmp_path / "report.json"
        assert run("eval", "--data", dataset, "--model", model_path, "--out", out) == 2
        assert message in capsys.readouterr().err
        assert sorted(p.name for p in tmp_path.iterdir()) == ["model.json"]

    @pytest.mark.parametrize("kind, changes, message", [
        ("ets-nll", {"weights": [float("nan"), 0.5, 0.5]}, "ets-nll model parameters must be finite"),
        ("ets-mse", {"T": float("inf")}, "ets-mse model parameters must be finite"),
        ("ts", {"T": float("inf")}, "ts model parameters must be finite"),
        ("vs", {"bias": [0.0] * 7 + [float("nan")]}, "vs model parameters must be finite"),
        ("vs", {"m": 3, "scale": [1.0, 1.0], "bias": [0.0] * 3}, "vector scaling needs 3 scales and 3 biases"),
        ("vs", {"bias": [0.0] * 9}, "vector scaling needs 8 scales and 8 biases"),
        ("hb", {"bin_confidence": [0.5, 2.0]}, "one bin confidence in \\[0, 1\\] per bin"),
        ("hb", {"bin_confidence": [-0.1, 0.5]}, "one bin confidence in \\[0, 1\\] per bin"),
        ("hb", {"bin_confidence": [0.5]}, "one bin confidence in \\[0, 1\\] per bin"),
        ("hb", {"bin_confidence": [float("nan"), 0.5]}, "hb model parameters must be finite"),
        ("hb", {"edges": [0.0, float("nan"), 1.0]}, "hb model parameters must be finite"),
        ("hb", {"edges": []}, "bin edges must strictly increase over \\[0, 1\\]"),
    ])
    def test_model_parameters_out_of_range_are_refused(self, dataset, tmp_path, kind, changes, message, capsys):
        doc = {**MODEL_DOCS[kind], **changes}
        with pytest.raises(ValueError, match=message):
            baselines.CalibratedModel.from_json(doc)
        model_path = tmp_path / "model.json"
        model_path.write_text(json.dumps(doc))
        assert run("eval", "--data", dataset, "--model", model_path, "--out", tmp_path / "report.json") == 2
        assert "error: " in capsys.readouterr().err
        assert sorted(p.name for p in tmp_path.iterdir()) == ["model.json"]

    @pytest.mark.parametrize("doc, message", [
        ({**MODEL_DOCS["ts"], "T": "2"}, "model field 'T' must be int or float, got '2'"),
        ({**MODEL_DOCS["ets-nll"], "T": [2.0]}, "model field 'T' must be int or float, got \\[2.0\\]"),
        ({**MODEL_DOCS["ets-mse"], "T": True}, "model field 'T' must be int or float, got True"),
        ({**MODEL_DOCS["ts"], "m": 2.5}, "model field 'm' must be int, got 2.5"),
        ({**MODEL_DOCS["vs"], "m": True}, "model field 'm' must be int, got True"),
        ({**MODEL_DOCS["mcct"], "m": 8.0}, "model field 'm' must be int, got 8.0"),
        ({**MODEL_DOCS["mcct"], "k": "3"}, "model field 'k' must be int, got '3'"),
        ({**MODEL_DOCS["mcct-i"], "k": 8.0}, "model field 'k' must be int, got 8.0"),
        ({**MODEL_DOCS["hb"], "kind": ["hb"]}, "model field 'kind' must be str, got \\['hb'\\]"),
        ([MODEL_DOCS["ts"]], "model document must be a JSON object"),
    ])
    def test_model_fields_of_the_wrong_type_are_refused(self, dataset, tmp_path, doc, message, capsys):
        with pytest.raises(ValueError, match=message):
            baselines.CalibratedModel.from_json(doc)
        model_path = tmp_path / "model.json"
        model_path.write_text(json.dumps(doc))
        assert run("eval", "--data", dataset, "--model", model_path, "--out", tmp_path / "report.json") == 2
        assert "error: " + message.replace("\\", "") in capsys.readouterr().err
        assert sorted(p.name for p in tmp_path.iterdir()) == ["model.json"]

    @pytest.mark.parametrize("doc, message", [
        ({**MODEL_DOCS["ets-nll"], "weights": ["0.5", "0.25", "0.25"]}, "model field 'weights' must be a list of int or float, got '0.5'"),
        ({**MODEL_DOCS["vs"], "scale": [True] * 8}, "model field 'scale' must be a list of int or float, got True"),
        ({**MODEL_DOCS["mcct"], "k": 2, "w": ["1", "2"], "b": [0, 0]}, "model field 'w' must be a list of int or float, got '1'"),
        ({**MODEL_DOCS["mcct-i"], "b": [[0.0] * 8]}, "model field 'b' must be a list of int or float, got \\[0.0"),
        ({**MODEL_DOCS["hb"], "edges": 0.5}, "model field 'edges' must be a list of int or float, got 0.5"),
    ])
    def test_model_list_items_of_the_wrong_type_are_refused(self, dataset, tmp_path, doc, message, capsys):
        with pytest.raises(ValueError, match=message):
            baselines.CalibratedModel.from_json(doc)
        model_path = tmp_path / "model.json"
        model_path.write_text(json.dumps(doc))
        assert run("eval", "--data", dataset, "--model", model_path, "--out", tmp_path / "report.json") == 2
        assert "error: " + message.replace("\\", "") in capsys.readouterr().err
        assert sorted(p.name for p in tmp_path.iterdir()) == ["model.json"]


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


# Cells of a grid in submission order, and what _run_cells returns for them.
RUN_CELLS = [("mcct-i", 0), ("ts", 0), ("broken", 0), ("mcct", 1), ("mcct-i", 1)]
RUN_CELLS_RESULTS = [
    ("ok", "mcct-i/0"), ("ok", "ts/0"), ("error", "ValueError: cannot fit"), ("ok", "mcct/1"), ("ok", "mcct-i/1"),
]


class TestRunCells:
    def test_one_worker_keeps_cell_order_and_runs_mcct_i_last(self):
        ran = []

        def worker(method, seed):
            ran.append((method, seed))
            if method == "broken":
                raise ValueError("cannot fit")
            return f"{method}/{seed}"

        results = cli._run_cells(RUN_CELLS, worker, 1)
        assert ran == [("ts", 0), ("broken", 0), ("mcct", 1), ("mcct-i", 0), ("mcct-i", 1)]
        assert results == RUN_CELLS_RESULTS

    def test_two_workers_keep_cell_order_and_capture_failures(self):
        def worker(method, seed):
            if method == "broken":
                raise ValueError("cannot fit")
            return f"{method}/{seed}"

        assert cli._run_cells(RUN_CELLS, worker, 2) == RUN_CELLS_RESULTS


class TestCompare:
    def test_table_structure_and_rank(self, dataset, tmp_path):
        out = str(tmp_path / "cmp.json")
        code = run(
            "compare", "--data", dataset, "--methods", "mcct,ts,vs",
            "--split", 0.5, "--runs", 2, "--seed", 0, "--out", out,
        )
        assert code == 0
        doc = json.loads(Path(out).read_text())
        assert doc["methods"] == ["uncalibrated", "mcct", "ts", "vs"]
        assert doc["seeds"] == [0, 1]
        assert len(doc["per_seed"]) == 8
        assert set(doc["rank"]["ece"]) == {"uncalibrated", "mcct", "ts", "vs"}
        best = min(doc["mean"], key=lambda m: doc["mean"][m]["ece"])
        assert doc["rank"]["ece"][best] == 1
        csv_lines = (tmp_path / "cmp.csv").read_text().strip().split("\n")
        assert csv_lines[0].startswith("method,seed,ece")
        assert len(csv_lines) == 1 + 8 + 4 + 4  # header, per-seed, mean, rank
        assert_stage_times(out, {"read", "split", "cells", "write"})

    def test_monotone_methods_keep_accuracy(self, dataset, tmp_path):
        out = str(tmp_path / "cmp.json")
        run(
            "compare", "--data", dataset, "--methods", "mcct,mcct-i,ts,ets-nll,ets-mse",
            "--split", 0.5, "--runs", 1, "--seed", 3, "--out", out,
        )
        doc = json.loads(Path(out).read_text())
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
        doc = json.loads(Path(out).read_text())
        assert [c["method"] for c in doc["per_seed"]] == [
            m for m in ("uncalibrated", "mcct-i", "ts", "mcct") for _ in range(2)
        ]
        # Each shared cell equals a separate fit and eval of its kind.
        (zc, yc), (zt, yt) = data_io.split_dataset(*data_io.read_dataset(dataset), 0.5, 1)
        for method in ("mcct", "mcct-i"):
            model = baselines.from_monotone_params(optim.fit_mcct(zc, yc, baselines.MONOTONE_MODES[method]).params)
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
        doc = json.loads(Path(out).read_text())
        statuses = {row["method"]: row["status"] for row in doc["per_seed"]}
        assert statuses["mcct"] == "error"
        assert statuses["ts"] == "ok"
        manifest = json.loads(Path(out + ".manifest.json").read_text())
        assert [f["method"] for f in manifest["failures"]] == ["mcct"]
        # The failed cell has no fit record.
        assert [f["method"] for f in manifest["fits"]] == ["ts"]

    def test_base_statistics_once_per_split(self, dataset, tmp_path, monkeypatch):
        bases, calibrated = [], []
        top_labels = metrics._top_labels

        def counted(probs_of, z, y=None):
            (bases if probs_of is core.softmax_rows else calibrated).append(len(z))
            return top_labels(probs_of, z, y)

        monkeypatch.setattr(metrics, "_top_labels", counted)
        out = str(tmp_path / "cmp.json")
        assert run("compare", "--data", dataset, "--methods", ",".join(cli.METHODS), "--runs", 4, "--out", out) == 0
        assert bases == [1500] * 4
        assert calibrated == [1500] * 4 * len(cli.METHODS)

    def test_unknown_method_rejected(self, dataset, tmp_path):
        out = str(tmp_path / "cmp.json")
        with pytest.raises(SystemExit) as exc:
            run("compare", "--data", dataset, "--methods", "platt", "--out", out)
        assert exc.value.code == 2


class TestFitter:
    @pytest.mark.parametrize("fmt", ["bin", "csv"])
    def test_ets_checks_its_logits_once_per_step(self, tmp_path, monkeypatch, fmt):
        # fit: the temperature, the ensemble terms and the calibration NLL's
        # apply each check the calibration logits once (fit_ets does not check
        # them again); a CSV read checks them first, and a binary file is read
        # whole once.  compare's ets cell checks its split in the same three
        # steps, then its one test block in the test apply.
        data = str(tmp_path / f"data.{fmt}")
        assert run("gen-synth", "--n", 300, "--m", 4, "--out", data) == 0
        calls, wholes = [], []
        validate_logits, whole = core.validate_logits, data_io.BinaryLogits.__array__
        monkeypatch.setattr(core, "validate_logits", lambda z: calls.append(np.shape(z)) or validate_logits(z))
        monkeypatch.setattr(data_io.BinaryLogits, "__array__", lambda self, *a, **k: wholes.append(1) or whole(self, *a, **k))
        read = [(300, 4)] if fmt == "csv" else []
        assert run("fit", "--data", data, "--method", "ets-nll", "--out", tmp_path / "ets.json") == 0
        assert (calls, len(wholes)) == (read + [(300, 4)] * 3, fmt == "bin")
        calls.clear(), wholes.clear()
        assert run("compare", "--data", data, "--methods", "ets-nll", "--out", tmp_path / "cmp.json") == 0
        # The split checks the whole set.
        assert (calls, len(wholes)) == (read + [(300, 4)] + [(150, 4)] * 4, fmt == "bin")

    def test_one_solve_per_key_under_contention(self, solves):
        rng = np.random.default_rng(0)
        z, y = rng.normal(0, 2, (200, 4)), rng.integers(0, 4, 200)
        fit = cli._fitter(optim.MAX_ITERATIONS)
        calls = [(key, method) for key in range(3) for method in ("mcct", "mcct-i") * 4]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with ThreadPoolExecutor(max_workers=8) as pool:
                models = [model for model, _ in pool.map(lambda call: fit(*call, z, y), calls, timeout=60)]
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
            assert Path(one).read_bytes() == Path(two).read_bytes()
        # Each shared fit equals a separate fit of its kind.
        doc = json.loads(Path(outs[0]).read_text())
        (zc, yc), (zt, yt) = data_io.split_dataset(*data_io.read_dataset(dataset), 0.5, 1)
        for method in ("ts", "ets-nll", "ets-mse"):
            model = baselines.fit_baseline(method, zc, yc)
            report = metrics.compute_report(model.apply(zt), yt, core.softmax_rows(zt))
            cell = next(c for c in doc["per_seed"] if c["method"] == method and c["seed"] == 1)
            assert cell["nll"] == report.scalars()["nll"]

    def test_fit_reports_what_compare_records(self, dataset, tmp_path):
        out = str(tmp_path / "cmp.json")
        methods = ",".join(cli.METHODS)
        assert run("compare", "--data", dataset, "--methods", methods, "--seed", 1, "--out", out) == 0
        records = json.loads(Path(out + ".manifest.json").read_text())["fits"]
        assert [(r.pop("method"), r.pop("seed")) for r in records] == [(m, 1) for m in cli.METHODS]
        (zc, yc), _ = data_io.split_dataset(*data_io.read_dataset(dataset), 0.5, 1)
        cal = str(tmp_path / "cal.csv")
        data_io.write_dataset(cal, zc, yc)
        for method, record in zip(cli.METHODS, records):
            model = str(tmp_path / f"{method}.json")
            assert run("fit", "--data", cal, "--method", method, "--out", model) == 0
            assert json.loads(Path(model + ".manifest.json").read_text())["fit"] == record, method
            # Both count every solve of a separate library fit, the ets kinds' temperature included.
            if method in baselines.MONOTONE_MODES:
                alone = optim.fit_mcct(zc, yc, baselines.MONOTONE_MODES[method])
                solver = (alone.iterations, alone.converged)
            else:
                solver = baselines.fit_baseline(method, zc, yc)._solver or (None, True)
            assert (record["iterations"], record["converged"]) == solver, method

    @pytest.mark.parametrize("argv, out, cells", [
        (
            ("compare", "--methods", "mcct-i,ts,hb,ets-nll,mcct", "--runs", 2),
            "cmp.json",
            [(m, s) for m in ("mcct-i", "ts", "hb", "ets-nll", "mcct") for s in (0, 1)],
        ),
        (
            ("sweep-size", "--fractions", "0.5,1.0", "--seeds", "0,1", "--methods", "mcct-i,ets-mse,vs,mcct"),
            "size.csv",
            [(f, s, m) for f in (0.5, 1.0) for s in (0, 1) for m in ("mcct-i", "ets-mse", "vs", "mcct")],
        ),
    ])
    def test_grid_records_every_fit_in_cell_order(self, dataset, tmp_path, argv, out, cells):
        fits = []
        for threads in (1, 2):
            path = str(tmp_path / f"{threads}-{out}")
            assert run(*argv, "--data", dataset, "--threads", threads, "--out", path) == 0
            fits.append(json.loads(Path(path + ".manifest.json").read_text())["fits"])
        assert fits[0] == fits[1]
        assert [tuple(r.values())[: len(cells[0])] for r in fits[0]] == cells
        assert all(isinstance(r["converged"], bool) and "final_loss" in r for r in fits[0])


def _refuse_constant(name):
    raise ValueError(f"non-standard JSON constant {name}")


class TestStrictJson:
    def test_every_emitted_json_document_is_standard_json(self, tmp_path):
        data = str(tmp_path / "data.csv")
        assert run("gen-synth", "--n", 600, "--m", 5, "--overconfidence", 2.0, "--seed", 2, "--out", data) == 0
        for method in cli.METHODS:
            model = str(tmp_path / f"{method}.json")
            assert run("fit", "--data", data, "--method", method, "--out", model) == 0
            assert run("eval", "--data", data, "--model", model, "--out", tmp_path / f"{method}.report.json") == 0
        model = str(tmp_path / "traced.json")
        assert run("fit", "--data", data, "--method", "mcct", "--trace", tmp_path / "trace.jsonl", "--out", model) == 0
        # More bins than rows: the equal-count ECE is NaN and must be written as null.
        assert run("eval", "--data", data, "--model", model, "--bins", 1000, "--out", tmp_path / "wide.json") == 0
        methods = ",".join(cli.METHODS)
        assert run("compare", "--data", data, "--methods", methods, "--runs", 2, "--out", tmp_path / "cmp.json") == 0
        sweep = ["--fractions", "0.5,1", "--methods", "mcct,hb", "--out", tmp_path / "size.csv"]
        assert run("sweep-size", "--data", data, *sweep) == 0
        assert run("sweep-topk", "--data", data, "--kvalues", "2,5", "--out", tmp_path / "topk.csv") == 0
        documents = sorted(tmp_path.glob("*.json"))
        assert len(documents) == 39
        for path in documents:
            json.loads(path.read_text(), parse_constant=_refuse_constant)
        lines = (tmp_path / "trace.jsonl").read_text().splitlines()
        assert lines
        for line in lines:
            json.loads(line, parse_constant=_refuse_constant)
        assert json.loads((tmp_path / "wide.json").read_text())["eq_mass_ece"] is None


class TestImports:
    @pytest.mark.parametrize("module, unwanted", [
        ("monocal.cli", "scipy"),
        # The pool's modules load on first use, not with the package.
        ("monocal", "concurrent"),
        ("monocal.cli", "concurrent"),
    ])
    def test_import_does_not_load(self, module, unwanted):
        src = str(Path(cli.__file__).resolve().parents[1])
        code = f"import sys, {module}; print(sorted(m for m in sys.modules if m.split('.')[0] == {unwanted!r}))"
        out = subprocess.run(
            [sys.executable, "-c", code], env={**os.environ, "PYTHONPATH": src},
            capture_output=True, text=True, check=True, timeout=60,
        )
        assert out.stdout.strip() == "[]"


class TestScripts:
    """The experiment scripts drive cli.main with argument lists of their own."""

    def run_script(self, name, *argv):
        script = Path(__file__).resolve().parents[1] / "scripts" / name
        return subprocess.run(
            [sys.executable, str(script), *map(str, argv)], capture_output=True, text=True, timeout=300,
        )

    def test_run_benchmark(self, tmp_path):
        done = self.run_script("run_benchmark.py", "--workdir", tmp_path, "--n", 3000, "--runs", 1)
        assert done.returncode == 0, done.stderr
        assert f"full tables: {tmp_path / 'comparison.json'} and {tmp_path / 'comparison.csv'}" in done.stdout
        assert (tmp_path / "comparison.json").is_file() and (tmp_path / "comparison.csv").is_file()

    def test_run_sweeps(self, tmp_path):
        done = self.run_script("run_sweeps.py", "--workdir", tmp_path, "--seeds", 0)
        assert done.returncode == 0, done.stderr
        for name in ("size_sweep.csv", "topk_sweep.csv"):
            assert f"written to {tmp_path / name}" in done.stdout
            assert (tmp_path / name).is_file()
        # One seed: 7 fractions x 4 methods, then 5 k values.
        assert "0 of 28 fits did not converge" in done.stdout
        assert "0 of 5 fits did not converge" in done.stdout


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
        cmp_doc = json.loads(Path(cmp_out).read_text())
        rows = json.loads(Path(sweep_out + ".json").read_text())["rows"]
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
        rows = json.loads(Path(out + ".json").read_text())["rows"]
        assert len(rows) == 4
        assert {r["n_calib"] for r in rows} == {150, 750}
        assert_stage_times(out, {"read", "split", "cells", "write"})

    def test_mcct_and_mcct_i_share_one_solve_per_subsample(self, dataset, tmp_path, solves):
        out = str(tmp_path / "sweep.csv")
        assert run(
            "sweep-size", "--data", dataset, "--fractions", "0.5,1.0",
            "--methods", "mcct,mcct-i", "--seeds", "1,2,3", "--threads", 2, "--out", out,
        ) == 0
        # One solve per half subsample, and one full-set solve for every seed.
        assert len(solves) == 4
        rows = json.loads(Path(out + ".json").read_text())["rows"]
        assert len(rows) == 12
        full = [{k: v for k, v in r.items() if k != "seed"} for r in rows if r["fraction"] == 1.0]
        assert full == full[:2] * 3

    def test_too_small_subsample_is_per_cell_failure(self, dataset, tmp_path):
        out = str(tmp_path / "sweep.csv")
        code = run(
            "sweep-size", "--data", dataset, "--fractions", "0.0005,0.5",
            "--methods", "mcct", "--seeds", "0", "--out", out,
        )
        assert code == 1
        rows = json.loads(Path(out + ".json").read_text())["rows"]
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
        rows = json.loads(Path(out + ".json").read_text())["rows"]
        assert [r["k"] for r in rows] == [2, 4, 8]
        fit_per_k = assert_stage_times(out, {"read", "split", "cells", "write"})["fit_per_k"]
        assert set(fit_per_k) == {"2", "4", "8"} and all(v > 0 for v in fit_per_k.values())
        assert rows[0]["dropped_samples"] > 0
        assert rows[2]["dropped_samples"] == 0
        # k = m reproduces a plain compare fit on the same split.
        cmp_out = str(tmp_path / "cmp.json")
        run(
            "compare", "--data", dataset, "--methods", "mcct",
            "--split", 0.5, "--runs", 1, "--seed", 0, "--out", cmp_out,
        )
        cmp_row = [r for r in json.loads(Path(cmp_out).read_text())["per_seed"] if r["method"] == "mcct"][0]
        assert rows[2]["ece"] == cmp_row["ece"]

    def test_k_above_m_is_per_cell_failure(self, dataset, tmp_path):
        out = str(tmp_path / "topk.csv")
        assert run("sweep-topk", "--data", dataset, "--kvalues", "4,9", "--out", out) == 1
        lines = Path(out).read_text().strip().split("\n")
        error = "ValueError: need 2 <= k <= m, got k=9, m=8"
        assert lines[2] == "9," + "," * 10 + error  # 7 metrics, dropped_samples, iterations, converged
        rows = json.loads(Path(out + ".json").read_text())["rows"]
        assert rows[0]["status"] == "ok" and rows[1]["k"] == 9 and rows[1]["status"] == error
        assert rows[1]["ece"] is None and rows[1]["converged"] is None
        manifest = json.loads(Path(out + ".manifest.json").read_text())
        assert manifest["failures"] == [{"k": 9, "error": error}]
        assert manifest["kvalues"] == [4, 9]
        assert set(manifest["wall_time_s"]["fit_per_k"]) == {"4"}

    def test_timing_column_excluded_from_json_metrics(self, dataset, tmp_path):
        out = str(tmp_path / "topk.csv")
        run("sweep-topk", "--data", dataset, "--kvalues", "8", "--out", out)
        header = Path(out).read_text().splitlines()[0].strip().split(",")
        assert "fit_seconds" not in header and "dropped_samples" in header
        assert "fit_seconds" not in json.loads(Path(out + ".json").read_text())["rows"][0]
        assert "8" in json.loads(Path(out + ".manifest.json").read_text())["wall_time_s"]["fit_per_k"]


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
                models.append(Path(out).read_bytes())
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
                models.append(Path(out).read_bytes())
            assert models[0] == models[1]

    def test_fit_reruns_are_byte_identical(self, dataset, tmp_path):
        a = str(tmp_path / "a.json")
        b = str(tmp_path / "b.json")
        run("fit", "--data", dataset, "--method", "mcct", "--out", a)
        run("fit", "--data", dataset, "--method", "mcct", "--out", b)
        assert Path(a).read_bytes() == Path(b).read_bytes()

    def test_sweep_topk_reruns_are_byte_identical(self, dataset, tmp_path):
        outs = []
        for name in ("a", "b"):
            out = str(tmp_path / f"{name}.csv")
            assert run("sweep-topk", "--data", dataset, "--kvalues", "2,8", "--out", out) == 0
            outs.append(out)
        for suffix in ("", ".json"):
            assert Path(outs[0] + suffix).read_bytes() == Path(outs[1] + suffix).read_bytes()

    def test_compare_reruns_are_byte_identical(self, dataset, tmp_path):
        outs = []
        for name in ("a", "b"):
            out = str(tmp_path / f"{name}.json")
            run(
                "compare", "--data", dataset, "--methods", "mcct,ts",
                "--split", 0.5, "--runs", 2, "--seed", 1, "--out", out,
            )
            outs.append(out)
        assert Path(outs[0]).read_bytes() == Path(outs[1]).read_bytes()
        csv_a = outs[0][:-5] + ".csv"
        csv_b = outs[1][:-5] + ".csv"
        assert Path(csv_a).read_bytes() == Path(csv_b).read_bytes()

    def test_gen_synth_reruns_are_byte_identical(self, tmp_path):
        paths = []
        for name in ("a", "b"):
            path = str(tmp_path / f"{name}.csv")
            run("gen-synth", "--n", 100, "--m", 5, "--seed", 9, "--out", path)
            paths.append(path)
        assert Path(paths[0]).read_bytes() == Path(paths[1]).read_bytes()

    def test_usable_cpus_do_not_change_results(self, dataset, tmp_path, monkeypatch):
        # 70-row blocks: the 3000-row fit and eval, and the sweep's 1500-row
        # halves, walk many blocks, on one thread or on a pool of three.
        monkeypatch.setattr(core, "BLOCK_DOUBLES", 70 * 8)
        results = {}
        for cpus in (1, 3):
            monkeypatch.setattr(cli, "_usable_cpus", lambda: cpus)
            out = tmp_path / str(cpus)
            out.mkdir()
            for method in ("mcct", "mcct-i", "ts"):
                model, report = str(out / f"{method}.json"), str(out / f"{method}.report.json")
                assert run("fit", "--data", dataset, "--method", method, "--topk", 3, "--out", model) == 0
                assert run("eval", "--data", dataset, "--model", model, "--out", report) == 0
                fit_threads = cpus if method in baselines.MONOTONE_MODES else 1
                assert json.loads(Path(model + ".manifest.json").read_text())["threads"] == fit_threads
                assert json.loads(Path(report + ".manifest.json").read_text())["threads"] == cpus
            sweep = str(out / "sweep.csv")
            assert run("sweep-topk", "--data", dataset, "--kvalues", "2,5,8", "--out", sweep) == 0
            assert json.loads(Path(sweep + ".manifest.json").read_text())["threads"] == cpus
            results[cpus] = {
                path.name: path.read_bytes() for path in out.iterdir() if not path.name.endswith(".manifest.json")
            }
        assert len(results[1]) == 3 * 3 + 2
        assert results[1] == results[3]

    def test_single_block_commands_start_no_pool(self, tmp_path, monkeypatch):
        # A 300 x 8 set is one block for every walk of fit, eval and sweep-topk.
        def refuse(*args, **kwargs):
            raise AssertionError("a pool was started")

        monkeypatch.setattr(concurrent.futures, "ThreadPoolExecutor", refuse)
        monkeypatch.setattr(cli, "_usable_cpus", lambda: 3)
        data, model = str(tmp_path / "data.csv"), str(tmp_path / "model.json")
        assert run("gen-synth", "--n", 300, "--m", 8, "--out", data) == 0
        assert run("fit", "--data", data, "--method", "mcct", "--topk", 3, "--out", model) == 0
        assert run("eval", "--data", data, "--model", model, "--out", tmp_path / "report.json") == 0
        assert run("sweep-topk", "--data", data, "--kvalues", "2,8", "--out", tmp_path / "sweep.csv") == 0
        assert run("compare", "--data", data, "--methods", "ts,mcct", "--threads", 1, "--out", tmp_path / "cmp.json") == 0

    def test_usable_cpus_follow_the_affinity_mask(self, monkeypatch):
        if hasattr(os, "sched_getaffinity"):
            assert cli._usable_cpus() == len(os.sched_getaffinity(0))
            monkeypatch.delattr(os, "sched_getaffinity")
        monkeypatch.setattr(os, "cpu_count", lambda: None)
        assert cli._usable_cpus() == 1
        monkeypatch.setattr(os, "cpu_count", lambda: 5)
        assert cli._usable_cpus() == 5

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
            assert Path(outs[0] + suffix).read_bytes() == Path(outs[1] + suffix).read_bytes()

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
        assert Path(serial).read_text() == Path(threaded).read_text()


def _whole_matrix_reads(monkeypatch):
    """Make the commands read a binary file's logits whole (``np.asarray``), not block by block."""
    read = data_io.read_dataset

    def whole(path, fmt=None):
        z, y = read(path, fmt)
        return np.asarray(z), y

    monkeypatch.setattr(data_io, "read_dataset", whole)


def _fit_eval_files(data, out, runs):
    """Fit and evaluate each ``(method, topk)`` of ``runs`` on ``data`` in ``out``.

    Returns every result file's bytes by name, with each fit's manifest
    diagnostics (its wall times differ between runs).
    """
    out.mkdir()
    diagnostics = {}
    for method, topk in runs:
        model, report = str(out / f"{method}-{topk}.json"), str(out / f"{method}-{topk}.report.json")
        assert run("fit", "--data", data, "--method", method, *(("--topk", topk) if topk else ()), "--out", model) == 0
        assert run("eval", "--data", data, "--model", model, "--out", report) == 0
        diagnostics[method, topk] = json.loads(Path(model + ".manifest.json").read_text())["fit"]
    files = {path.name: path.read_bytes() for path in out.iterdir() if not path.name.endswith(".manifest.json")}
    return files, diagnostics


@pytest.fixture(scope="module")
def binary_dataset(tmp_path_factory):
    """A 700 x 8 overconfident binary dataset."""
    path = str(tmp_path_factory.mktemp("binary") / "data.bin")
    assert run("gen-synth", "--n", 700, "--m", 8, "--overconfidence", 2.5, "--seed", 3, "--out", path) == 0
    return path


class TestBinaryStreaming:
    """fit and eval read a binary file's logits one row block at a time, with the whole-matrix results."""

    @pytest.mark.parametrize("cpus", [1, 2])
    def test_every_method_matches_the_whole_matrix(self, binary_dataset, tmp_path, monkeypatch, cpus):
        # 60-row blocks: 12 blocks per walk, on one thread or two.
        monkeypatch.setattr(core, "BLOCK_DOUBLES", 60 * 8)
        monkeypatch.setattr(cli, "_usable_cpus", lambda: cpus)
        runs = [(method, None) for method in cli.METHODS] + [("mcct", 3), ("mcct-i", 3)]
        wholes, whole = [], data_io.BinaryLogits.__array__
        monkeypatch.setattr(data_io.BinaryLogits, "__array__", lambda self, *a, **k: wholes.append(1) or whole(self, *a, **k))
        streamed = _fit_eval_files(binary_dataset, tmp_path / "streamed", runs)
        # Only the baselines' fits take the whole matrix, each once.
        assert len(wholes) == len(cli.METHODS) - len(baselines.MONOTONE_MODES)
        _whole_matrix_reads(monkeypatch)
        assert _fit_eval_files(binary_dataset, tmp_path / "whole", runs) == streamed
        assert len(streamed[0]) == 3 * len(runs)

    def test_tie_group_straddling_the_cut(self, tmp_path, monkeypatch):
        # In the first 60-row block every other row ties sorted ranks m - k - 1,
        # m - k and m - k + 1: the fit's reorder count takes them from the kept
        # columns like every other row, and the apply sorts them whole.  Labels
        # fall in each row's top 3 ranks.
        rng = np.random.default_rng(11)
        z = rng.normal(0.0, 2.0, (400, 8))
        z[:60] = patterned_logits(rng, 60, 8, 3, "straddle")
        z = z.astype(np.float32).astype(np.float64)
        y = np.argsort(z, axis=1, kind="stable")[np.arange(400), 7 - rng.integers(0, 3, 400)]
        data = str(tmp_path / "ties.bin")
        data_io.write_dataset(data, z, y)
        monkeypatch.setattr(core, "BLOCK_DOUBLES", 60 * 8)
        reads, full_sorts = [], []
        getitem, full_sort = data_io.BinaryLogits.__getitem__, transform._apply_full_sort
        monkeypatch.setattr(data_io.BinaryLogits, "__getitem__", lambda self, rows: reads.append(rows) or getitem(self, rows))
        monkeypatch.setattr(transform, "_apply_full_sort", lambda z, p: full_sorts.append(len(z)) or full_sort(z, p))
        runs = [("mcct", 3), ("mcct-i", 3)]
        streamed = _fit_eval_files(data, tmp_path / "streamed", runs)
        blocks = list(core._row_blocks((400, 8)))
        # One read of every block per fit and per eval, and no other read.
        assert sorted(reads, key=lambda s: s.start) == sorted(blocks * 4, key=lambda s: s.start)
        assert sum(full_sorts) == 2 * 30
        assert all(d["tied_rows"] == 30 for d in streamed[1].values())
        _whole_matrix_reads(monkeypatch)
        assert _fit_eval_files(data, tmp_path / "whole", runs) == streamed

    @pytest.mark.parametrize("cpus", [1, 2])
    def test_nan_in_the_last_block_exits_2(self, binary_dataset, tmp_path, monkeypatch, capsys, cpus):
        # eval's only finiteness check of a block is the apply of the model
        # (or of the raw softmax): every kind's apply must make it.
        monkeypatch.setattr(core, "BLOCK_DOUBLES", 60 * 8)
        monkeypatch.setattr(cli, "_usable_cpus", lambda: cpus)
        z, y = data_io.read_dataset(binary_dataset)
        z = np.asarray(z)
        commands = [
            ("fit", "--method", "mcct", "--topk", 3),
            ("fit", "--method", "mcct-i"),
            ("fit", "--method", "ets-nll"),
        ]
        for method in cli.METHODS:
            model = str(tmp_path / f"{method}.json")
            assert run("fit", "--data", binary_dataset, "--method", method, "--out", model) in (0, 3)
            commands.append(("eval", "--model", model))
        for bad in (np.nan, np.inf, -np.inf):
            z[-1, 5] = bad
            data = str(tmp_path / "bad.bin")
            data_io._write_table(data, z, y, None)
            for command, *flags in commands:
                out = tmp_path / f"{command}-out.json"
                capsys.readouterr()
                assert run(command, "--data", data, *flags, "--out", out) == 2, (bad, flags)
                assert "error: logit matrix contains NaN or infinite entries" in capsys.readouterr().err
                assert not out.exists() and not Path(f"{out}.manifest.json").exists()

    @pytest.mark.parametrize("sidecar", ['"v n m dtype"', "1", "null", '{"v": 1, "n": [700], "m": 8, "dtype": "f32"}',
                                         '{"v": 1, "n": 700.7, "m": 8, "dtype": "f32"}',
                                         '{"v": true, "n": 700, "m": 8, "dtype": "f32"}'])
    def test_malformed_sidecar_exits_2(self, binary_dataset, tmp_path, capsys, sidecar):
        data = tmp_path / "data.bin"
        data.write_bytes(Path(binary_dataset).read_bytes())
        Path(f"{data}.meta.json").write_text(sidecar)
        model = str(tmp_path / "model.json")
        assert run("fit", "--data", binary_dataset, "--method", "ts", "--out", model) == 0
        for command, *flags in (("fit", "--method", "mcct"), ("eval", "--model", model)):
            out = tmp_path / f"{command}-out.json"
            capsys.readouterr()
            assert run(command, "--data", data, *flags, "--out", out) == 2
            err = capsys.readouterr().err
            assert err.startswith(f"error: sidecar {data}.meta.json ") and "Traceback" not in err
            assert not out.exists()

    @pytest.mark.parametrize("argv, binary_error", [
        (lambda tmp: ("eval", "--model", tmp / "missing.json"), "No such file or directory"),
        (lambda tmp: ("fit", "--method", "mcct", "--topk", 9), "need 2 <= k <= m, got k=9, m=8"),
    ])
    def test_binary_logits_are_checked_after_the_other_inputs(self, binary_dataset, tmp_path, capsys, argv, binary_error):
        # A binary file's logits are checked as a walk reads them, after the
        # model is loaded and k is checked; a CSV file's on the read, before.
        z, y = data_io.read_dataset(binary_dataset)
        z = np.asarray(z)
        z[0, 0] = np.nan
        for name, expected in (("nan.bin", binary_error), ("nan.csv", "logit matrix contains NaN")):
            data = str(tmp_path / name)
            data_io._write_table(data, z, y, None)
            command, *flags = argv(tmp_path)
            assert run(command, "--data", data, *flags, "--out", tmp_path / "out.json") == 2
            assert expected in capsys.readouterr().err, name

    @pytest.mark.parametrize("command", ["fit", "eval"])
    def test_peak_memory_stays_below_half_the_logits(self, tmp_path, monkeypatch, command):
        # A 3000 x 1000 binary file: its float64 logits take 24 MB.
        n, m = 3000, 1000
        rng = np.random.default_rng(4)
        data = str(tmp_path / "wide.bin")
        data_io.write_dataset(data, rng.normal(0, 2, (n, m)).astype(np.float32), rng.integers(0, 10, n))
        model = str(tmp_path / "model.json")
        monkeypatch.setattr(cli, "_usable_cpus", lambda: 2)
        argv = {
            "fit": ("fit", "--data", data, "--method", "mcct", "--topk", 10, "--max-iterations", 5, "--out", model),
            "eval": ("eval", "--data", data, "--model", model, "--out", tmp_path / "report.json"),
        }
        if command == "eval":
            assert run(*argv["fit"]) in (0, 3)
        tracemalloc.start()
        try:
            assert run(*argv[command]) in (0, 3)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < n * m * 8 / 2
