"""Dataset file formats, deterministic splitting, and a synthetic generator.

Two interchange formats are supported:

* ``csv``: header ``z0,...,z{m-1},label``, one sample per row, decimal
  reals written with full round-trip precision;
* ``bin``: little-endian float32 logits in row-major order followed by
  uint32 labels, with a JSON sidecar ``{"v": 1, "n": ..., "m": ...,
  "dtype": "f32"}`` at ``<path>.meta.json``.

One codec (:func:`_write_table`, :func:`_read_table`) writes and reads
both file kinds: a dataset as above, and a bare matrix (e.g. reference
probabilities) laid out the same without labels, CSV header ``p0,...``.

Binary round trips are bitwise exact at float32 fidelity (float64 inputs
are quantized on write); CSV round trips are exact because values are
written with shortest-repr formatting.
"""

import itertools
import json
import os
from dataclasses import dataclass

import numpy as np

from . import core

CSV = "csv"
RAW_BINARY = "bin"
FORMATS = (CSV, RAW_BINARY)

SIDECAR_SUFFIX = ".meta.json"


class DataFileError(ValueError):
    """A dataset file violates its format contract."""


class HeaderError(DataFileError):
    """CSV header does not match the required ``z0,...,z{m-1},label`` form."""


class LabelRangeError(DataFileError):
    """A stored label falls outside [0, m)."""


class SidecarError(DataFileError):
    """Binary sidecar is missing, malformed, or inconsistent with the payload."""


def infer_format(path):
    ext = os.path.splitext(path)[1].lower()
    if ext == ".csv":
        return CSV
    if ext == ".bin":
        return RAW_BINARY
    raise ValueError(f"cannot infer format from {path!r}; pass fmt explicitly")


def _header(m, labelled):
    """The CSV header of ``m`` matrix columns: ``z0,...,z{m-1},label`` if ``labelled``, else ``p0,...,p{m-1}``."""
    return ",".join([f"z{j}" for j in range(m)] + ["label"]) if labelled else ",".join(f"p{j}" for j in range(m))


def write_json(path, doc):
    """Write ``doc`` to ``path`` as JSON indented by 2, with a trailing newline."""
    with open(path, "w") as fh:
        json.dump(doc, fh, indent=2)
        fh.write("\n")


def _write_sidecar(path, n, m):
    with open(path + SIDECAR_SUFFIX, "w") as fh:
        json.dump({"v": 1, "n": int(n), "m": int(m), "dtype": "f32"}, fh)
        fh.write("\n")


def _read_sidecar(path):
    sidecar = path + SIDECAR_SUFFIX
    if not os.path.exists(sidecar):
        raise SidecarError(f"missing sidecar {sidecar}")
    with open(sidecar) as fh:
        try:
            meta = json.load(fh)
        except json.JSONDecodeError as exc:
            raise SidecarError(f"unparseable sidecar {sidecar}: {exc}") from exc
    for field in ("v", "n", "m", "dtype"):
        if field not in meta:
            raise SidecarError(f"sidecar {sidecar} lacks field {field!r}")
    if meta["v"] != 1 or meta["dtype"] != "f32":
        raise SidecarError(f"unsupported sidecar version/dtype in {sidecar}: {meta}")
    return int(meta["n"]), int(meta["m"])


def _write_table(path, a, y, fmt):
    """Write the (n, m) matrix ``a`` and, unless ``y`` is None, its labels to ``path`` in ``fmt``."""
    fmt = infer_format(path) if fmt is None else fmt
    n, m = a.shape
    if fmt == CSV:
        ends = itertools.repeat("\n") if y is None else (f",{label}\n" for label in y.tolist())
        with open(path, "w") as fh:
            fh.write(_header(m, y is not None) + "\n")
            for row, end in zip(a.tolist(), ends):
                fh.write(",".join(map(repr, row)) + end)
    elif fmt == RAW_BINARY:
        with open(path, "wb") as fh:
            fh.write(np.ascontiguousarray(a, dtype="<f4").tobytes())
            if y is not None:
                fh.write(np.ascontiguousarray(y, dtype="<u4").tobytes())
        _write_sidecar(path, n, m)
    else:
        raise ValueError(f"unknown format {fmt!r}")


def _read_table(path, fmt, labelled):
    """``(a, labels)`` of a file written by :func:`_write_table`; ``labels`` is None unless ``labelled``.

    Raises :class:`HeaderError` for a CSV header that is not :func:`_header`
    of its own width (at least 3 columns with labels) or is not as wide as
    the rows, :class:`DataFileError` for no data rows and :class:`SidecarError`
    for a binary size other than the sidecar implies.  Labels are unchecked.
    """
    fmt = infer_format(path) if fmt is None else fmt
    if fmt == CSV:
        with open(path) as fh:
            header = fh.readline().rstrip("\n")
            has_rows = any(line.strip() for line in fh)
        columns = header.count(",") + 1
        if columns < (3 if labelled else 1) or header != _header(columns - labelled, labelled):
            raise HeaderError(f"malformed CSV header {header!r}")
        if not has_rows:
            raise DataFileError(f"{path} has a header but no data rows")
        data = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
        if data.shape[1] != columns:
            raise HeaderError(f"rows have {data.shape[1]} columns, header declares {columns}")
        return (data[:, :-1], data[:, -1]) if labelled else (data, None)
    if fmt == RAW_BINARY:
        n, m = _read_sidecar(path)
        expected = n * m * 4 + (n * 4 if labelled else 0)
        actual = os.path.getsize(path)
        if actual != expected:
            raise SidecarError(f"{path} holds {actual} bytes but sidecar implies {expected}")
        with open(path, "rb") as fh:
            buf = fh.read()
        a = np.frombuffer(buf, dtype="<f4", count=n * m).reshape(n, m).astype(np.float64)
        return a, np.frombuffer(buf, dtype="<u4", count=n, offset=n * m * 4).astype(np.int64) if labelled else None
    raise ValueError(f"unknown format {fmt!r}")


def write_dataset(path, z, y, fmt=None):
    """Write a logit matrix and its labels to ``path`` in the given format."""
    _write_table(path, *core.validate_dataset(z, y), fmt)


def read_dataset(path, fmt=None):
    """Read a ``(logits, labels)`` pair written by :func:`write_dataset`."""
    z, y = _read_table(path, fmt, labelled=True)
    try:
        y = core.validate_labels(y, z.shape[1])
    except ValueError as exc:
        raise LabelRangeError(str(exc)) from exc
    return core.validate_logits(z), y


def write_matrix(path, a, fmt=None):
    """Write a bare real matrix (e.g. reference probabilities) beside a dataset."""
    a = np.asarray(a, dtype=np.float64)
    if a.ndim != 2:
        raise ValueError("expected a 2-D matrix")
    _write_table(path, a, None, fmt)


def read_matrix(path, fmt=None):
    """Read a matrix written by :func:`write_matrix`: its tested inverse, which no command calls."""
    return _read_table(path, fmt, labelled=False)[0]


def split_dataset(z, y, calib_fraction, seed):
    """Seeded permutation then prefix split into calibration and test sets.

    Deterministic per ``(seed, n)``; the two parts are disjoint and together
    contain every sample exactly once.
    """
    z, y = core.validate_dataset(z, y)
    n = z.shape[0]
    if not 0.0 < calib_fraction < 1.0:
        raise ValueError("calib_fraction must lie strictly between 0 and 1")
    n_cal = int(round(n * calib_fraction))
    if n_cal == 0 or n_cal == n:
        raise ValueError(f"fraction {calib_fraction} leaves an empty part for n={n}")
    perm = np.random.default_rng(seed).permutation(n)
    cal, test = perm[:n_cal], perm[n_cal:]
    return (z[cal], y[cal]), (z[test], y[test])


@dataclass(frozen=True)
class SynthConfig:
    """Configuration of the synthetic miscalibrated-classifier generator.

    ``overconfidence`` (the scale factor on the log-probabilities) at 1.0
    with zero noise yields perfectly calibrated logits; values above 1
    sharpen the softmax output and induce systematic overconfidence.
    """

    n: int = 10_000
    m: int = 10
    alpha: float = 0.5
    overconfidence: float = 1.0
    noise_sd: float = 0.0
    seed: int = 0

    def __post_init__(self):
        if self.n < 1 or self.m < 2:
            raise ValueError("need n >= 1 and m >= 2")
        # Written so that NaN fails each comparison, as inf fails the upper one.
        if not (0 < self.alpha < np.inf and 0 < self.overconfidence < np.inf):
            raise ValueError("alpha and overconfidence must be finite and > 0")
        if not 0 <= self.noise_sd < np.inf:
            raise ValueError("noise_sd must be finite and >= 0")


def generate_synthetic(cfg):
    """Draw a synthetic classification problem with known true probabilities.

    Per sample: a class distribution ``p`` is drawn from a symmetric
    Dirichlet, a label from Categorical(p), and the logits are the
    overconfidence-scaled, row-centered log-probabilities plus optional
    Gaussian noise.  Row-centering leaves every softmax unchanged while
    matching the sign structure of real classifier logits (top scores
    non-negative, tail negative); without it all logits would be negative,
    which no softmax classifier produces.  Softmax of the noise-free
    logits at overconfidence 1 recovers ``p`` exactly, so the returned
    true probabilities serve as an oracle for calibration checks.  Fully
    determined by the seed.
    """
    rng = np.random.default_rng(cfg.seed)
    p = rng.dirichlet(np.full(cfg.m, cfg.alpha), size=cfg.n)
    u = rng.random(cfg.n)
    labels = (p.cumsum(axis=1) < u[:, None]).sum(axis=1)
    labels = np.minimum(labels, cfg.m - 1).astype(np.int64)
    log_p = np.log(np.maximum(p, core.LOG_FLOOR))
    z = cfg.overconfidence * (log_p - log_p.mean(axis=1, keepdims=True))
    if cfg.noise_sd > 0:
        z = z + rng.normal(0.0, cfg.noise_sd, size=z.shape)
    return z, labels, p
