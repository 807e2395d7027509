"""Row-wise numeric primitives shared by all calibrators and metrics.

Data model: a logit matrix is an (n, m) float array of finite pre-softmax
scores (one row per sample), a label vector is a length-n integer array of
class indices in [0, m), and a probability matrix is an (n, m) array whose
rows lie on the simplex.  All public functions here are pure and never
mutate their inputs.

The softmax and the probability check walk a matrix in row blocks of about
1 MB (``BLOCK_DOUBLES`` entries), doing every pass over a block while it is
in cache.  Each row is reduced exactly as in the whole-matrix formulas, so
the results are bitwise theirs (for a column-major matrix, when a row fits
in one block).
"""

import numpy as np

# Rows of a probability matrix must sum to 1 within this tolerance.
PROB_ROW_SUM_TOL = 1e-9

# Probabilities are clamped here before taking logs, so degenerate
# calibrators (e.g. a binning map emitting an exact zero) yield a large
# finite loss instead of -inf.
LOG_FLOOR = 1e-300

# Entries per row block (1 MB of doubles) of the blocked passes; a block holds
# at least one row.
BLOCK_DOUBLES = 131072

_NONFINITE_LOGITS = "logit matrix contains NaN or infinite entries"


def _row_blocks(n, m):
    """Row slices covering an (n, m) matrix, each of at most ``BLOCK_DOUBLES`` entries or one row."""
    rows = max(1, BLOCK_DOUBLES // m)
    return (slice(start, start + rows) for start in range(0, n, rows))


def _logit_matrix(z):
    """Coerce to a float64 (n, m) logit matrix, checking its shape only."""
    z = np.asarray(z, dtype=np.float64)
    if z.ndim != 2:
        raise ValueError(f"logit matrix must be 2-D (n, m), got shape {z.shape}")
    n, m = z.shape
    if n < 1 or m < 2:
        raise ValueError(f"need n >= 1 samples and m >= 2 classes, got shape {z.shape}")
    return z


def validate_logits(z):
    """Coerce to a float64 (n, m) logit matrix, checking shape and finiteness."""
    z = _logit_matrix(z)
    if not np.all(np.isfinite(z)):
        raise ValueError(_NONFINITE_LOGITS)
    return z


def validate_labels(y, m, n=None):
    """Coerce to an int64 label vector with every entry in [0, m)."""
    y = np.asarray(y)
    if y.ndim != 1:
        raise ValueError(f"label vector must be 1-D, got shape {y.shape}")
    if not np.issubdtype(y.dtype, np.integer):
        cast = y.astype(np.int64)
        if not np.array_equal(cast, y):
            raise ValueError("labels must be integers")
        y = cast
    else:
        y = y.astype(np.int64)
    if n is not None and y.shape[0] != n:
        raise ValueError(f"expected {n} labels, got {y.shape[0]}")
    if y.size and (y.min() < 0 or y.max() >= m):
        raise ValueError(f"labels must lie in [0, {m})")
    return y


def validate_dataset(z, y):
    """A checked ``(logits, labels)`` pair: :func:`validate_logits`, then :func:`validate_labels` of its shape."""
    z = validate_logits(z)
    return z, validate_labels(y, z.shape[1], n=z.shape[0])


def validate_probs(p):
    """Coerce to a float64 (n, m) probability matrix with unit row sums."""
    p = np.asarray(p, dtype=np.float64)
    if p.ndim != 2:
        raise ValueError(f"probability matrix must be 2-D, got shape {p.shape}")
    if p.shape[1] < 2:
        raise ValueError("probability matrix needs at least 2 classes")
    if p.shape[0] < 1:
        raise ValueError("probability matrix needs at least one row")
    # One blocked pass gathers what the three checks need; they are then
    # made in order over the whole matrix.  A NaN propagates through min and
    # max, so both are finite exactly when every entry is.
    lo, hi, worst = np.inf, -np.inf, 0.0
    for rows in _row_blocks(*p.shape):
        block = p[rows]
        block_lo, block_hi = block.min(), block.max()
        if not (np.isfinite(block_lo) and np.isfinite(block_hi)):
            raise ValueError("probability matrix contains NaN or infinite entries")
        lo, hi = min(lo, block_lo), max(hi, block_hi)
        worst = max(worst, np.abs(block.sum(axis=1) - 1.0).max())
    if lo < -1e-12 or hi > 1 + 1e-12:
        raise ValueError("probabilities must lie in [0, 1]")
    if worst > PROB_ROW_SUM_TOL:
        raise ValueError(f"rows must sum to 1 within {PROB_ROW_SUM_TOL}, worst deviation {worst:.3g}")
    return p


def softmax_rows(z):
    """Row-wise softmax with per-row max subtraction for overflow safety."""
    z = _logit_matrix(z)
    return _softmax(z, np.empty_like(z))


def _softmax(z, out):
    """Row softmax of a float64 (n, m) matrix ``z`` written into ``out``, which may be ``z``.

    Each row block is checked for finiteness, shifted by its row maxima,
    exponentiated and divided by its row sums, all in ``out``: bitwise
    ``e = exp(z - max); e / e.sum`` without its whole-matrix temporaries.
    A non-finite entry raises, leaving the blocks before it written.
    """
    for rows in _row_blocks(*z.shape):
        block, e = z[rows], out[rows]
        top = block.max(axis=1, keepdims=True)
        # NaN or +inf shows in the row maxima, -inf (or NaN) in the minimum.
        if not (np.isfinite(block.min()) and np.isfinite(top.max())):
            raise ValueError(_NONFINITE_LOGITS)
        np.subtract(block, top, out=e)
        np.exp(e, out=e)
        e /= e.sum(axis=1, keepdims=True)
    return out


def nll(p, y):
    """Mean negative log-likelihood of the true-class probabilities.

    Probabilities are clamped below at ``LOG_FLOOR`` before the log, so the
    result is always finite and non-negative.
    """
    p = validate_probs(p)
    return _nll(p, validate_labels(y, p.shape[1], n=p.shape[0]))


def _nll(p, y):
    """:func:`nll` of an already validated probability matrix and label vector."""
    return _picked_nll(p[np.arange(p.shape[0]), y])


def _picked_nll(picked):
    """Mean of ``-log`` of the true-class probabilities ``picked``, each clamped below at ``LOG_FLOOR``."""
    return float(-np.log(np.maximum(picked, LOG_FLOOR)).mean())


def sort_rows(z):
    """Sort each row ascending, returning the sorted matrix and the permutation.

    ``perm[i, j]`` is the original column of the j-th smallest value in row i.
    Ties are broken by original column index (stable sort), so the result is
    deterministic even for inputs with repeated values.
    """
    z = validate_logits(z)
    perm = np.argsort(z, axis=1, kind="stable")
    return np.take_along_axis(z, perm, axis=1), perm


def sort_values(z):
    """Each row's values in ascending order, without the permutation.

    A matrix whose rows are already ascending is returned as it is, so a
    caller can pass on its sorted matrix without paying for a second sort.
    Tied values may come out in either order, which matters only for a
    ``-0.0``/``0.0`` pair: :func:`sort_rows` puts it in column order.
    """
    z = validate_logits(z)
    return np.sort(z, axis=1) if (z[:, 1:] < z[:, :-1]).any() else z


def inverse_sort_rows(sorted_z, perm):
    """Undo :func:`sort_rows`: scatter sorted values back to original columns."""
    sorted_z = np.asarray(sorted_z, dtype=np.float64)
    perm = np.asarray(perm)
    if sorted_z.shape != perm.shape:
        raise ValueError(f"shape mismatch: values {sorted_z.shape} vs permutation {perm.shape}")
    out = np.empty_like(sorted_z)
    np.put_along_axis(out, perm, sorted_z, axis=1)
    return out


def validate_distinct(z):
    """Report rows whose entries are not pairwise distinct.

    Returns a list of ``(row_index, tied_value)`` pairs, one per repeated
    value per row; an empty list means every row is strictly ordered once
    sorted.  Ties are reported, not fatal: callers that depend on strict
    ordering should warn and continue with the stable tie-breaking rule.
    """
    s = sort_values(z)
    dup = s[:, 1:] == s[:, :-1]
    report = []
    for i in np.flatnonzero(dup.any(axis=1)):
        row = s[i]
        for v in np.unique(row[1:][dup[i]]):
            report.append((int(i), float(v)))
    return report


def argmax_rows(a):
    """Per-row index of the maximum; ties resolve to the lowest index."""
    a = np.asarray(a)
    if a.ndim != 2:
        raise ValueError(f"expected a 2-D matrix, got shape {a.shape}")
    return np.argmax(a, axis=1).astype(np.int64)


def one_hot(y, m):
    """Expand class indices to an (n, m) one-hot float matrix."""
    y = validate_labels(y, m)
    out = np.zeros((y.shape[0], m))
    out[np.arange(y.shape[0]), y] = 1.0
    return out
