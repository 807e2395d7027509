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

A binary file's payload is not read whole on open.  :func:`read_dataset`
reads its sidecar and labels and returns a :class:`BinaryLogits` block
reader for the logits: ``z[rows]`` reads one row block as the file's
float32 values, and ``np.asarray(z)`` the whole float64 matrix.  The fit's
preparation walk and the report's top-label walk read it one block at a
time, so neither holds the (n, m) matrix; the fit sorts, tie-counts and
ranks each block at float32, the report widens it to float64.  Every other
consumer takes the matrix once, through ``core.validate_logits``.

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


def file_format(path, fmt):
    """``fmt``, or if it is None the format named by ``path``'s extension (``.csv``, ``.bin``); ValueError for any other."""
    if fmt is None:
        fmt = os.path.splitext(path)[1].lower()[1:]
        if fmt not in FORMATS:
            raise ValueError(f"cannot infer format from {path!r}; pass fmt explicitly")
    elif fmt not in FORMATS:
        raise ValueError(f"unknown format {fmt!r}")
    return fmt


def _header(m, labelled):
    """The CSV header of ``m`` matrix columns: ``z0,...,z{m-1},label`` if ``labelled``, else ``p0,...,p{m-1}``."""
    return ",".join([f"z{j}" for j in range(m)] + ["label"]) if labelled else ",".join(f"p{j}" for j in range(m))


def write_json(path, doc):
    """Write ``doc`` to ``path`` as JSON indented by 2, with a trailing newline."""
    with open(path, "w") as fh:
        json.dump(doc, fh, indent=2)
        fh.write("\n")


def csv_line(values):
    """One CSV line of ``values`` with its newline: None is an empty cell, a float (numpy's too) its ``repr``, else ``str``."""
    cells = ("" if v is None else repr(float(v)) if isinstance(v, (float, np.floating)) else str(v) for v in values)
    return ",".join(cells) + "\n"


def write_csv(path, lines):
    """Write ``lines``, each a sequence of cell values, to ``path`` as CSV lines (:func:`csv_line`)."""
    with open(path, "w") as fh:
        fh.writelines(map(csv_line, lines))


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
        except ValueError as exc:  # not JSON, or not text (a UnicodeDecodeError)
            raise SidecarError(f"unparseable sidecar {sidecar}: {exc}") from exc
    if type(meta) is not dict:
        raise SidecarError(f"sidecar {sidecar} is not a JSON object")
    for field in ("v", "n", "m", "dtype"):
        if field not in meta:
            raise SidecarError(f"sidecar {sidecar} lacks field {field!r}")
        # Types are compared exactly: a boolean is an int subclass.
        if field != "dtype" and type(meta[field]) is not int:
            raise SidecarError(f"sidecar {sidecar} field {field!r} must be a JSON integer, got {meta[field]!r}")
    if meta["v"] != 1 or meta["dtype"] != "f32":
        raise SidecarError(f"unsupported sidecar version/dtype in {sidecar}: {meta}")
    return meta["n"], meta["m"]


def _write_table(path, a, y, fmt):
    """Write the (n, m) matrix ``a`` and, unless ``y`` is None, its labels to ``path`` in ``fmt``."""
    n, m = a.shape
    if file_format(path, fmt) == CSV:
        ends = itertools.repeat("\n") if y is None else (f",{label}\n" for label in y.tolist())
        with open(path, "w") as fh:
            fh.write(_header(m, y is not None) + "\n")
            for row, end in zip(a.tolist(), ends):
                fh.write(",".join(map(repr, row)) + end)
    else:
        with open(path, "wb") as fh:
            fh.write(np.ascontiguousarray(a, dtype="<f4").tobytes())
            if y is not None:
                fh.write(np.ascontiguousarray(y, dtype="<u4").tobytes())
        _write_sidecar(path, n, m)


def _read_table(path, fmt, labelled):
    """``(a, labels)`` of a file written by :func:`_write_table`; ``labels`` is None unless ``labelled``.

    Raises :class:`HeaderError` for a CSV header that is not :func:`_header`
    of its own width (at least 3 columns with labels) or is not as wide as
    the rows, :class:`DataFileError` for no data rows and :class:`SidecarError`
    for a binary size other than the sidecar implies.  Labels are unchecked.
    A CSV file's ``a`` is its float64 matrix; a binary file's is a
    :class:`BinaryLogits` reader, of which nothing is read yet.
    """
    if file_format(path, fmt) == CSV:
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
    n, m = _read_sidecar(path)
    expected = n * m * 4 + (n * 4 if labelled else 0)
    actual = os.path.getsize(path)
    if actual != expected:
        raise SidecarError(f"{path} holds {actual} bytes but sidecar implies {expected}")
    a = BinaryLogits(path, (n, m))
    if not labelled:
        return a, None
    labels = np.empty(n, dtype="<u4")
    with open(path, "rb") as fh:
        fh.seek(n * m * 4)
        _read_into(fh, labels, path)
    return a, labels.astype(np.int64)


def _read_into(fh, out, path):
    """Fill the contiguous array ``out`` from ``fh``; :class:`SidecarError` if the file ends first."""
    if fh.readinto(out.view(np.uint8)) != out.nbytes:
        raise SidecarError(f"{path} ended before the size its sidecar implies")


class BinaryLogits:
    """The (n, m) float32 payload of a binary file, read one row block at a time.

    ``z[rows]``, for a slice of consecutive rows, reads those rows and
    returns them as a float32 block, the file's own values; any other index
    is refused with a ValueError.  ``np.asarray(z)`` reads every block of
    ``core._row_blocks`` into the whole float64 matrix.  Each read opens the
    file for itself, so no descriptor outlives it and threads read
    independently.  A read checks only that the file holds the rows
    (:class:`SidecarError` if it ends first), not their values.
    """

    def __init__(self, path, shape):
        self.path, self.shape = path, shape

    def _read(self, start, out):
        """Fill the float32 array ``out`` with the payload's rows from ``start`` on; return it."""
        with open(self.path, "rb") as fh:
            fh.seek(start * self.shape[1] * 4)
            _read_into(fh, out, self.path)
        return out

    def __getitem__(self, rows):
        if not isinstance(rows, slice) or rows.indices(self.shape[0])[2] != 1:
            raise ValueError("a binary payload is read by slices of consecutive rows")
        start, stop, _ = rows.indices(self.shape[0])
        return self._read(start, np.empty((max(stop - start, 0), self.shape[1]), dtype="<f4"))

    def __array__(self, dtype=None, copy=None):
        # One float32 buffer, reused, takes each block and converts into the matrix.
        a = np.empty(self.shape)
        blocks = list(core._row_blocks(self.shape))
        chunk = np.empty(a[blocks[0]].shape if blocks else 0, dtype="<f4")
        for rows in blocks:
            block = a[rows]
            block[...] = self._read(rows.start, chunk[: len(block)])
        return a if dtype is None else a.astype(dtype, copy=False)


def _logit_rows(z):
    """``z`` to be walked by row blocks, its shape checked: a :class:`BinaryLogits` as it is, else ``core._logit_matrix(z)``.

    Either way ``z.shape`` is ``(n, m)`` and ``z[rows]`` an unchecked
    block, float32 from a reader and float64 from a matrix: what each walk
    calls on the block checks its finiteness (``core.validate_distinct`` in
    the fit, every ``probs_of`` in the report).
    """
    if isinstance(z, BinaryLogits):
        core._check_logit_shape(z.shape)
        return z
    return core._logit_matrix(z)


def write_dataset(path, z, y, fmt=None):
    """Write a logit matrix and its labels to ``path`` in the given format."""
    _write_table(path, *core.validate_dataset(z, y), fmt)


def read_dataset(path, fmt=None):
    """Read a ``(logits, labels)`` pair written by :func:`write_dataset`.

    The labels are read and checked (:class:`LabelRangeError`), then the
    logits' shape.  A CSV file's logits come as a float64 matrix, checked
    for finiteness.  A binary file's come as a :class:`BinaryLogits`
    reader, and nothing of its payload is read yet: a walk over its row
    blocks checks each one's finiteness as it reads it, and
    ``core.validate_logits(z)`` reads and checks the whole matrix.
    """
    z, y = _read_table(path, fmt, labelled=True)
    try:
        y = core.validate_labels(y, z.shape[1])
    except ValueError as exc:
        raise LabelRangeError(str(exc)) from exc
    return (_logit_rows(z) if isinstance(z, BinaryLogits) else core.validate_logits(z)), y


def write_matrix(path, a, fmt=None):
    """Write a bare real matrix (e.g. reference probabilities) beside a dataset."""
    a = np.asarray(a, dtype=np.float64)
    if a.ndim != 2:
        raise ValueError("expected a 2-D matrix")
    _write_table(path, a, None, fmt)


def read_matrix(path, fmt=None):
    """Read a matrix written by :func:`write_matrix`: its tested inverse, which no command calls."""
    return np.asarray(_read_table(path, fmt, labelled=False)[0])


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
    yields perfectly calibrated logits; values above 1 sharpen the softmax
    output and induce systematic overconfidence.
    """

    n: int = 10_000
    m: int = 10
    alpha: float = 0.5
    overconfidence: float = 1.0
    seed: int = 0

    def __post_init__(self):
        if self.n < 1 or self.m < 2:
            raise ValueError("need n >= 1 and m >= 2")
        # Written so that NaN fails each comparison, as inf fails the upper one.
        if not (0 < self.alpha < np.inf and 0 < self.overconfidence < np.inf):
            raise ValueError("alpha and overconfidence must be finite and > 0")


def generate_synthetic(cfg):
    """Draw a synthetic classification problem with known true probabilities.

    Per sample: a class distribution ``p`` is drawn from a symmetric
    Dirichlet, a label from Categorical(p), and the logits are the
    overconfidence-scaled, row-centered log-probabilities.  Row-centering
    leaves every softmax unchanged while matching the sign structure of
    real classifier logits (top scores non-negative, tail negative);
    without it all logits would be negative, which no softmax classifier
    produces.  Softmax of the logits at overconfidence 1 recovers ``p``
    exactly, so the returned true probabilities serve as an oracle for
    calibration checks.  Fully determined by the seed.
    """
    rng = np.random.default_rng(cfg.seed)
    p = rng.dirichlet(np.full(cfg.m, cfg.alpha), size=cfg.n)
    u = rng.random(cfg.n)
    labels = (p.cumsum(axis=1) < u[:, None]).sum(axis=1)
    labels = np.minimum(labels, cfg.m - 1).astype(np.int64)
    log_p = np.log(np.maximum(p, core.LOG_FLOOR))
    z = cfg.overconfidence * (log_p - log_p.mean(axis=1, keepdims=True))
    return z, labels, p
