"""Row-wise numeric primitives shared by all calibrators and metrics.

Data model: a logit matrix is an (n, m) float array of finite pre-softmax
scores (one row per sample), a label vector is a length-n integer array of
class indices in [0, m), and a probability matrix is an (n, m) array whose
rows lie on the simplex.  All functions here are pure and never mutate
their inputs.
"""

import numpy as np

# Rows of a probability matrix must sum to 1 within this tolerance.
PROB_ROW_SUM_TOL = 1e-9

# Probabilities are clamped here before taking logs, so degenerate
# calibrators (e.g. a binning map emitting an exact zero) yield a large
# finite loss instead of -inf.
LOG_FLOOR = 1e-300


def validate_logits(z):
    """Coerce to a float64 (n, m) logit matrix, checking shape and finiteness."""
    z = np.asarray(z, dtype=np.float64)
    if z.ndim != 2:
        raise ValueError(f"logit matrix must be 2-D (n, m), got shape {z.shape}")
    n, m = z.shape
    if n < 1 or m < 2:
        raise ValueError(f"need n >= 1 samples and m >= 2 classes, got shape {z.shape}")
    if not np.all(np.isfinite(z)):
        raise ValueError("logit matrix contains NaN or infinite entries")
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


def validate_probs(p):
    """Coerce to a float64 (n, m) probability matrix with unit row sums."""
    p = np.asarray(p, dtype=np.float64)
    if p.ndim != 2:
        raise ValueError(f"probability matrix must be 2-D, got shape {p.shape}")
    if p.shape[1] < 2:
        raise ValueError("probability matrix needs at least 2 classes")
    if not np.all(np.isfinite(p)):
        raise ValueError("probability matrix contains NaN or infinite entries")
    if p.min() < -1e-12 or p.max() > 1 + 1e-12:
        raise ValueError("probabilities must lie in [0, 1]")
    row_sums = p.sum(axis=1)
    worst = np.abs(row_sums - 1.0).max()
    if worst > PROB_ROW_SUM_TOL:
        raise ValueError(f"rows must sum to 1 within {PROB_ROW_SUM_TOL}, worst deviation {worst:.3g}")
    return p


def softmax_rows(z):
    """Row-wise softmax with per-row max subtraction for overflow safety."""
    z = validate_logits(z)
    shifted = z - z.max(axis=1, keepdims=True)
    e = np.exp(shifted)
    return e / e.sum(axis=1, keepdims=True)


def nll(p, y):
    """Mean negative log-likelihood of the true-class probabilities.

    Probabilities are clamped below at ``LOG_FLOOR`` before the log, so the
    result is always finite and non-negative.
    """
    p = validate_probs(p)
    return _nll(p, validate_labels(y, p.shape[1], n=p.shape[0]))


def _nll(p, y):
    """:func:`nll` of an already validated probability matrix and label vector."""
    picked = p[np.arange(p.shape[0]), y]
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
