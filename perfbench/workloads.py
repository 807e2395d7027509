"""Workload definitions, input generation and one timed pass per workload.

Every workload drives the public CLI (``monocal.cli.main``) in-process as a
closed loop: one client, each command starts when the previous one has
returned.  Inputs come from the benchmark's own generator, so a change to
``monocal.data_io.generate_synthetic`` cannot change what is measured; the
program's writer (``data_io.write_dataset``) is used to write them, because
writing is part of the measured set-up.

A workload holds ``problems`` independent calibration/test pairs.  A pass runs
the workload's commands once on every problem.  SLSQP's iteration count on one
problem varies widely between seeds (16 to 67 on 25k rows with m=10), so a
pass sums several problems to keep the seed-to-seed spread of the timings
small.
"""

import hashlib
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

OVERCONFIDENCE = 2.5
ALL_METHODS = ("mcct", "mcct-i", "ts", "vs", "hb", "ets-nll", "ets-mse")
COMPARE_SPLIT = "0.3333333333333333"
COMPARE_RUNS = 4
COMPARE_THREADS = 2
ROLE_CAL, ROLE_TEST = 0, 1
# Reported command times are scaled to a machine on which ``reference_seconds``
# reads 20 ms, about its one-thread median on the 2-vCPU guest described in
# README.md.
REFERENCE_SECONDS = 0.020


@dataclass(frozen=True)
class Workload:
    """One benchmark workload.

    Fit/eval workloads fit every method in ``methods`` on each problem's
    calibration file and evaluate it on the test file.  The compare workload
    (``compare=True``) runs one ``compare`` command on a single file of
    ``n_cal`` rows and has no test file.
    """

    name: str
    index: int
    m: int
    alpha: float
    fmt: str
    problems: int
    n_cal: int
    n_test: int
    methods: tuple = ("mcct",)
    topk: int = None
    compare: bool = False

    @property
    def threads(self):
        """Threads the workload's commands keep busy."""
        return COMPARE_THREADS if self.compare else 1

    def tiny(self):
        """The same workload at self-test size."""
        return replace(self, problems=min(self.problems, 2), n_cal=600, n_test=300)


# Sizes: see README.md for why each workload has the shape it has.
# ``index`` enters the input seeds, so it stays fixed when a workload is dropped.
WORKLOADS = {
    w.name: w
    for w in (
        Workload("tall-m10", 0, m=10, alpha=0.5, fmt="csv", problems=16, n_cal=9_000, n_test=4_500),
        Workload("topk-m1000", 2, m=1000, alpha=0.2, fmt="bin", problems=1, n_cal=10_000, n_test=10_000, topk=10),
        Workload(
            "compare-m10", 3, m=10, alpha=0.5, fmt="bin", problems=1, n_cal=24_000, n_test=0,
            methods=ALL_METHODS, compare=True,
        ),
    )
}


def synthesize(seed, w, problem, role, n, chunk=4096):
    """Overconfident synthetic logits and labels; identical for identical arguments.

    Per row: class probabilities from a symmetric Dirichlet(alpha), i.e.
    normalised Gamma(alpha) variables, drawn in log space as
    ``log Gamma(alpha + 1) - Exp(1) / alpha``; a label from them; logits equal
    to ``OVERCONFIDENCE`` times the row-centred log-probabilities.
    Calibration and test sets use distinct seed sequences derived from the
    benchmark seed.
    """
    rng = np.random.default_rng([seed, w.index, problem, role])
    zs, ys = [], []
    for start in range(0, n, chunk):
        rows = min(chunk, n - start)
        log_g = np.log(rng.standard_gamma(w.alpha + 1.0, size=(rows, w.m)))
        log_g -= rng.standard_exponential((rows, w.m)) / w.alpha
        p = np.exp(log_g - log_g.max(axis=1, keepdims=True))
        p /= p.sum(axis=1, keepdims=True)
        y = (p.cumsum(axis=1) < rng.random(rows)[:, None]).sum(axis=1)
        zs.append(OVERCONFIDENCE * (log_g - log_g.mean(axis=1, keepdims=True)))
        ys.append(np.minimum(y, w.m - 1))
    z = np.concatenate(zs)
    if w.fmt == "bin":
        z = z.astype(np.float32).astype(np.float64)
    return z, np.concatenate(ys).astype(np.int64)


class Layout:
    """File names of one workload's inputs and outputs inside a work directory."""

    def __init__(self, workdir, w):
        self.dir = Path(workdir)
        self.w = w

    def cal(self, r):
        return str(self.dir / f"cal{r}.{self.w.fmt}")

    def test(self, r):
        return str(self.dir / f"test{r}.{self.w.fmt}")

    def model(self, r, method):
        return str(self.dir / f"model{r}-{method}.json")

    def report(self, r, method):
        return str(self.dir / f"eval{r}-{method}.json")

    def compare_out(self):
        return str(self.dir / "compare.json")


def inputs(seed, w):
    """Yield ``(role, problem, z, y)`` for every input file of the workload."""
    for r in range(w.problems):
        yield ROLE_CAL, r, *synthesize(seed, w, r, ROLE_CAL, w.n_cal)
        if not w.compare:
            yield ROLE_TEST, r, *synthesize(seed, w, r, ROLE_TEST, w.n_test)


def write_inputs(seed, w, layout):
    """Generate every input and write it with the program's writer."""
    from monocal import data_io

    layout.dir.mkdir(parents=True, exist_ok=True)
    for role, r, z, y in inputs(seed, w):
        path = layout.cal(r) if role == ROLE_CAL else layout.test(r)
        data_io.write_dataset(path, z, y, fmt=w.fmt)


def commands(w, layout, solver_args=()):
    """The pass as a list of ``(kind, argv, result files)``; kind is fit, eval or compare."""
    if w.compare:
        out = layout.compare_out()
        argv = [
            "compare", "--data", layout.cal(0), "--methods", ",".join(w.methods),
            "--split", COMPARE_SPLIT, "--runs", str(COMPARE_RUNS),
            "--threads", str(w.threads), "--out", out, *solver_args,
        ]
        return [("compare", argv, [out, out[: -len(".json")] + ".csv"])]
    cmds = []
    for r in range(w.problems):
        for method in w.methods:
            argv = ["fit", "--data", layout.cal(r), "--method", method, "--out", layout.model(r, method), *solver_args]
            if w.topk is not None:
                argv += ["--topk", str(w.topk)]
            cmds.append(("fit", argv, [layout.model(r, method)]))
        for method in w.methods:
            out = layout.report(r, method)
            argv = ["eval", "--data", layout.test(r), "--model", layout.model(r, method), "--out", out]
            cmds.append(("eval", argv, [out, out[: -len(".json")] + ".reliability.csv"]))
    return cmds


def digest(paths):
    h = hashlib.sha256()
    for path in paths:
        h.update(Path(path).read_bytes())
    return h.hexdigest()


_REFERENCE_INPUTS = []
THREADED_ROUNDS = 5


def reference_kernel(conf, correct, z):
    """A fixed kernel that mixes what the program spends its time on.

    A Gaussian-kernel sum over a 16 MB array (memory bound, as in
    ``ece_kde``), row sorts (as in ``sort_rows``) and an interpreted loop.
    Its inputs never change and it calls nothing in monocal, so its time
    moves only with the machine.
    """
    k = np.exp(-0.5 * ((np.linspace(0.0, 1.0, 128)[:, None] - conf) / 0.05) ** 2)
    (k * correct).sum(axis=1)
    np.sort(z, axis=1)
    total = 0
    for i in range(20_000):
        total += i


def reference_seconds(threads=1):
    """Wall time of one round of ``reference_kernel`` on each of ``threads`` threads at once.

    It tracks the machine's current speed for a command that keeps as many
    threads busy.  Run on two threads it also notices when one of the two
    cores is taken, which a one-thread run, left the other core, does not.
    On more than one thread, one round's time is set by whichever thread
    the scheduler delays most, so ``THREADED_ROUNDS`` rounds are timed and
    their mean is returned.
    """
    if not _REFERENCE_INPUTS:
        rng = np.random.default_rng(0)
        _REFERENCE_INPUTS.extend((rng.random(16_384), rng.random(16_384) < 0.5, rng.standard_normal((20_000, 10))))
    if threads == 1:
        start = time.perf_counter()
        reference_kernel(*_REFERENCE_INPUTS)
        return time.perf_counter() - start

    def rounds(_):
        for _ in range(THREADED_ROUNDS):
            reference_kernel(*_REFERENCE_INPUTS)

    with ThreadPoolExecutor(max_workers=threads) as pool:
        start = time.perf_counter()
        list(pool.map(rounds, range(threads)))
        return (time.perf_counter() - start) / THREADED_ROUNDS


@dataclass
class CommandRecord:
    kind: str
    argv: list
    results: list
    seconds: float
    exit_code: object
    digest: str
    error: str = ""
    reference: float = 0.0  # mean reference-kernel time just before and just after the command


def run_command(cli, kind, argv, results):
    """Run one CLI command, timing it; an escaping exception is recorded, not raised."""
    start = time.perf_counter()
    try:
        code = cli.main(argv)
    except Exception as exc:  # a crash counts as a failed command; the run goes on
        seconds = time.perf_counter() - start
        return CommandRecord(kind, argv, results, seconds, None, "", f"{type(exc).__name__}: {exc}")
    seconds = time.perf_counter() - start
    try:
        return CommandRecord(kind, argv, results, seconds, code, digest(results))
    except OSError as exc:
        return CommandRecord(kind, argv, results, seconds, code, "", f"missing output: {exc}")


def run_pass(w, layout):
    """One pass through the workload's commands; returns (wall seconds, records).

    The reference kernel runs before the first command and after each one,
    on as many threads as the commands use; a record's ``reference`` is the
    mean of the two runs around it.  The pass's wall time includes those runs.
    """
    from monocal import cli

    start = time.perf_counter()
    records, before = [], reference_seconds(w.threads)
    for kind, argv, results in commands(w, layout):
        record = run_command(cli, kind, argv, results)
        after = reference_seconds(w.threads)
        record.reference = (before + after) / 2
        records.append(record)
        before = after
    return time.perf_counter() - start, records


def warm_up(seed, w, workdir):
    """Run the workload's commands once on self-test inputs, untimed and unchecked.

    The first pass in a process is up to 20% slower (lazy initialisation in
    the libraries); this absorbs that.  Fits stop after 3 iterations, so the
    warm-up costs well under a second.
    """
    from monocal import cli

    tiny = w.tiny()
    layout = Layout(Path(workdir) / "warm-up", tiny)
    write_inputs(seed, tiny, layout)
    reference_seconds(w.threads)
    for _, argv, _ in commands(tiny, layout, ("--max-iterations", "3")):
        cli.main(argv)
