"""Self-tests of the benchmark at tiny sizes.

Run from the repository root with ``python -m pytest perfbench``.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import checks
import tracing
import worker
import workloads

HERE = Path(__file__).resolve().parent


def run_worker(tmp_path, workload, mode, trace=0):
    argv = [
        sys.executable, str(HERE / "worker.py"), mode, "--workload", workload, "--seed", "7",
        "--seconds", "0", "--trace", str(trace), "--workdir", str(tmp_path), "--tiny",
    ]
    proc = subprocess.run(argv, stdout=subprocess.PIPE, text=True, timeout=300, check=True)
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_workload_runs_end_to_end(tmp_path, name):
    assert run_worker(tmp_path, name, "setup")["setup_s"] > 0
    result = run_worker(tmp_path, name, "measure", trace=1)
    assert result["problems"] == []
    assert result["failed"] == 0 and result["attempted"] >= 2
    assert set(result["quality"]) == {"test_nll", "test_ece", "order_violation_rate"}
    layers = result["layers"]
    for layer in tracing.LAYERS:
        assert layers[f"{layer}.calls"]["value"] > 0, layer
    assert "trace.overhead_s" in layers


def traced_tiny_passes(tmp_path, names):
    tracer = tracing.Tracer()
    with tracing.installed(tracer):
        for name in names:
            w = workloads.WORKLOADS[name].tiny()
            layout = workloads.Layout(tmp_path / name, w)
            workloads.write_inputs(3, w, layout)
            _, records = workloads.run_pass(w, layout)
            assert all(r.exit_code == 0 for r in records), records
    return tracer


def test_every_wrapped_function_records_a_span(tmp_path):
    tracer = traced_tiny_passes(tmp_path, ["tall-m10", "topk-m1000", "compare-m10"])
    seen = {s.name for s in tracer.spans}
    assert set(tracing.wrapped_names()) - seen == set()
    assert tracing.CELL in seen
    cells = [s for s in tracer.spans if s.name == tracing.CELL]
    pools = {s.id for s in tracer.spans if s.name == "cli._run_cells"}
    assert cells and all(c.parent in pools for c in cells)


def test_wrappers_are_removed_and_missing_names_fail(monkeypatch):
    from monocal import optim, transform

    original = transform.sorted_nll_objective
    with tracing.installed(tracing.Tracer()):
        assert optim.sorted_nll_objective is not original
        assert transform.sorted_nll_objective is not original
    assert optim.sorted_nll_objective is original and transform.sorted_nll_objective is original
    monkeypatch.setitem(tracing.TARGETS, "optim", ("fit_mcct", "no_such_function"))
    with pytest.raises(AttributeError):
        with tracing.installed(tracing.Tracer()):
            pass
    assert optim.fit_mcct.__module__ == "monocal.optim" and not hasattr(optim.fit_mcct, "__wrapped__")


def test_self_time_subtracts_the_union_of_children():
    spans = [
        tracing.Span(1, "cli.main", None, 0.0, 10.0, None),
        tracing.Span(2, "cli.cell", 1, 1.0, 5.0, None),
        tracing.Span(3, "cli.cell", 1, 3.0, 6.0, None),
        tracing.Span(4, "core.nll", 2, 2.0, 3.0, None),
    ]
    selfs = tracing.self_times(spans)
    assert selfs == pytest.approx({1: 5.0, 2: 3.0, 3: 3.0, 4: 1.0})


def test_checker_rejects_corrupted_outputs(tmp_path):
    w = workloads.WORKLOADS["tall-m10"].tiny()
    layout = workloads.Layout(tmp_path, w)
    workloads.write_inputs(5, w, layout)
    workloads.run_pass(w, layout)
    z, y = workloads.synthesize(5, w, 0, workloads.ROLE_TEST, w.n_test)
    model, report = layout.model(0, "mcct"), layout.report(0, "mcct")
    problems, outcome = checks.check_fit_eval(model, report, z, y, "mcct")
    assert problems == [] and 0 <= outcome["order_violation_rate"] <= 1
    fitted = Path(model).read_text()
    Path(model).write_text(json.dumps({**json.loads(fitted), "kind": "mcct-i"}))
    problems, _ = checks.check_fit_eval(model, report, z, y, "mcct")
    assert any("model mcct-i for m=10, expected mcct" in p for p in problems)
    Path(model).write_text(fitted)
    problems, _ = checks.check_fit_eval(model, report, z, y, "mcct", topk=2)
    assert any("k=10, expected 2" in p for p in problems)

    doc = json.loads(Path(report).read_text())
    doc["ece"] += 1e-6
    Path(report).write_text(json.dumps(doc))
    problems, _ = checks.check_fit_eval(model, report, z, y, "mcct")
    assert any("ece=" in p for p in problems)

    doc = json.loads(Path(model).read_text())
    doc["w"] = [2 * v for v in doc["w"]]
    Path(model).write_text(json.dumps(doc))
    problems, _ = checks.check_fit_eval(model, report, z, y, "mcct")
    assert any("nll=" in p for p in problems)


def test_typical_pass_scales_each_command_by_its_reference_time():
    def record(kind, seconds, reference):
        return workloads.CommandRecord(kind, [kind], [], seconds, 0, "", reference=reference)

    # The first pass ran on a machine twice as slow: its commands and its reference kernel both took twice as long.
    passes = [
        (0.0, [record("fit", 2.0, 0.04), record("eval", 1.0, 0.04)]),
        (0.0, [record("fit", 1.0, 0.02), record("eval", 0.5, 0.02)]),
        (0.0, [record("fit", 1.1, 0.02), record("eval", 0.6, 0.02)]),
    ]
    scale = workloads.REFERENCE_SECONDS / 0.02
    typical = worker.typical_pass(passes)
    assert typical["fit"] == pytest.approx(1.0 * scale) and typical["eval"] == pytest.approx(0.5 * scale)
    assert typical["wall_s"] == pytest.approx(1.5 * scale)
    assert typical["measured"] == pytest.approx({"wall_s": 1.7, "fit": 1.1, "eval": 0.6, "compare": 0.0})
    assert typical["reference_s"] == pytest.approx(0.02)


def test_check_helpers_flag_bad_rows():
    z = np.array([[-3.0, -1.0, 2.0], [0.5, -1.0, -2.0]])
    good = np.array([[0.1, 0.2, 0.7], [0.6, 0.3, 0.1]])
    assert checks.simplex_errors(good) == 0
    assert checks.argmax_losses(z, good) == 0
    assert checks.order_violation_rows(z, good) == 0
    swapped = np.array([[0.2, 0.1, 0.7], [0.3, 0.6, 0.1]])
    assert checks.order_violation_rows(z, swapped) == 2
    assert checks.argmax_losses(z, swapped) == 1
    assert checks.simplex_errors(np.array([[0.5, 0.6, 0.0]])) == 1
    # Tied logits impose no order between themselves.
    assert checks.order_violation_rows(np.array([[1.0, 1.0, 0.0]]), np.array([[0.3, 0.5, 0.2]])) == 0


def test_compare_is_identical_with_one_and_two_threads(tmp_path):
    from monocal import cli

    w = workloads.WORKLOADS["compare-m10"].tiny()
    layout = workloads.Layout(tmp_path, w)
    workloads.write_inputs(11, w, layout)
    outputs = []
    for threads in ("1", "2"):
        _, argv, results = workloads.commands(w, layout)[0]
        argv = list(argv)
        argv[argv.index("--threads") + 1] = threads
        assert cli.main(argv) == 0
        outputs.append([Path(p).read_bytes() for p in results])
    assert outputs[0] == outputs[1]


def test_run_fails_without_the_program(tmp_path):
    shutil.copytree(HERE, tmp_path / HERE.name, ignore=shutil.ignore_patterns("__pycache__", "_work"))
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, f"{HERE.name}/run.py", "--workload", "tall-m10", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, timeout=120,
    )
    assert proc.returncode != 0 and proc.stdout == ""
