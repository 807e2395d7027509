"""Rank-indexed monotone calibration maps on sorted logits.

A map is parameterized by a scale vector ``w`` and a bias vector ``b``
indexed by rank (position in the per-row ascending sort), not by class.
Each row is sorted, transformed elementwise, and scattered back to its
original column order: sorted row ``s`` maps to ``s * w + b``, with ``w``
positive and non-decreasing and ``b`` non-decreasing.  mcct and mcct-i are
this one map; an mcct-i model file writes each scale as its divisor
``1 / w``, which only :class:`monocal.baselines.CalibratedModel` reads
and writes.

With fewer parameters than classes (``k < m``), the top k ranks get their
own entries and every lower rank is transformed with the first (lowest-rank)
scale/bias pair.  Only the top k columns of a row then need an order: the
apply transforms the whole row with the first pair, picks the top k columns
with ``argpartition``, sorts those k by value (ties by column index, as a
stable sort would) and overwrites them with their rank-specific values.
A row whose tie group straddles the cut, with two or more tied values kept
and one or more left out, does not determine which column takes the second
kept rank; such rows, and only those, go through the stable full-row sort.
The result is bitwise that of the full sort.

Order preservation is conditional, not universal.  Rescaling two sorted
values keeps their order only when the pair is not both negative: for
``s = (-10, -1)`` and ``w = (0.1, 2)`` the transform yields ``(-1, -2)``
and reverses them.  The exact guarantees (any valid parameters)
are:

* every comparison involving a non-negative value is preserved, so rows
  whose entries are all non-negative are fully order-preserved, and the
  argmax is preserved for every row whose maximum is non-negative
  (true of real classifier logits in practice);
* constant ``w`` with zero ``b`` preserves every row exactly (temperature
  scaling).

Pairs of negative values can swap when the scale gap is large relative to
the value gap.  :func:`order_violations` counts affected rows, and the
fitting routine warns when a fitted map violates ordering on its own
calibration data.
"""

from dataclasses import dataclass

import numpy as np

from . import core


@dataclass(frozen=True)
class MonotoneParams:
    """Fitted parameters of a rank-indexed monotone map.

    ``w`` and ``b`` have length ``k <= m`` where ``m`` is the number of
    classes the map applies to.  The ordering invariants (see module
    docstring) are checked on construction.
    """

    w: np.ndarray
    b: np.ndarray
    m: int

    def __post_init__(self):
        w = np.asarray(self.w, dtype=np.float64)
        b = np.asarray(self.b, dtype=np.float64)
        object.__setattr__(self, "w", w)
        object.__setattr__(self, "b", b)
        if w.ndim != 1 or b.ndim != 1 or w.shape != b.shape:
            raise ValueError("w and b must be 1-D vectors of equal length")
        k = w.shape[0]
        if not 2 <= k <= self.m:
            raise ValueError(f"need 2 <= k <= m, got k={k}, m={self.m}")
        if not (np.all(np.isfinite(w)) and np.all(np.isfinite(b))):
            raise ValueError("parameters must be finite")
        if np.any(w <= 0):
            raise ValueError("every scale entry must be strictly positive")
        if np.any(np.diff(w) < 0):
            raise ValueError("w must be non-decreasing")
        if np.any(np.diff(b) < 0):
            raise ValueError("b must be non-decreasing")

    @property
    def k(self):
        return self.w.shape[0]


def _rank_aligned_wb(params):
    """Length-m scale/bias vectors: top k ranks get w/b, lower ranks w[0]/b[0]."""
    pad = params.m - params.k
    if pad == 0:
        return params.w, params.b
    return (
        np.concatenate([np.full(pad, params.w[0]), params.w]),
        np.concatenate([np.full(pad, params.b[0]), params.b]),
    )


def _transform_sorted(s, w, b):
    t = s * w
    t += b
    return t


def _apply_full_sort(z, params):
    s, perm = core.sort_rows(z)
    w, b = _rank_aligned_wb(params)
    return core.inverse_sort_rows(_transform_sorted(s, w, b), perm)


def apply_map_topk(z, params):
    """Apply a monotone map with k <= m retained ranks to a logit matrix.

    The k largest sorted logits of each row are transformed with the k
    scale/bias entries aligned to the top ranks; every lower-ranked logit is
    transformed with the first entry pair.  The per-row ordering of the
    output matches the input's.  With ``k < m`` only the top k columns are
    sorted (see the module docstring); the output is bitwise that of the
    stable full-row sort.
    """
    z = core.validate_logits(z)
    if z.shape[1] != params.m:
        raise ValueError(f"map was built for m={params.m} classes, data has m={z.shape[1]}")
    if params.k == params.m:
        return _apply_full_sort(z, params)
    cut = params.m - params.k
    out = _transform_sorted(z, params.w[0], params.b[0])
    top = np.sort(np.argpartition(z, cut, axis=1)[:, cut:], axis=1)
    vals = np.take_along_axis(z, top, axis=1)
    order = np.argsort(vals, axis=1, kind="stable")
    top = np.take_along_axis(top, order, axis=1)
    vals = np.take_along_axis(vals, order, axis=1)
    np.put_along_axis(out, top, _transform_sorted(vals, params.w, params.b), axis=1)
    # Every kept value is >= every dropped one, so a dropped value ties with
    # the lowest kept one exactly when more than k values reach it.
    tied = np.flatnonzero(vals[:, 1] == vals[:, 0])
    straddling = tied[np.count_nonzero(z[tied] >= vals[tied, :1], axis=1) > params.k]
    if straddling.size:
        out[straddling] = _apply_full_sort(z[straddling], params)
    return out


def order_violations(z, params):
    """Number of rows whose score ordering the map fails to preserve.

    A row is counted when some pair of strictly ordered scores comes out of
    the map not strictly ordered; tied scores may come out in any order.
    Only a row whose transformed sorted values fail to rise somewhere can
    be counted; in such a row, everything before each boundary between tie
    groups is compared with everything after it.  A matrix already sorted
    row-wise, such as the one the fit holds, is not sorted again.
    """
    s = core.sort_values(z)
    w, b = _rank_aligned_wb(params)
    t = _transform_sorted(s, w, b)
    rows = np.flatnonzero((t[:, 1:] <= t[:, :-1]).any(axis=1))
    s, t = s[rows], t[rows]
    before = np.maximum.accumulate(t, axis=1)[:, :-1]
    after = np.minimum.accumulate(t[:, ::-1], axis=1)[:, -2::-1]
    return int(((before >= after) & (s[:, 1:] > s[:, :-1])).any(axis=1).sum())


def label_positions(z, y):
    """Rank position (0 = smallest logit) of each sample's true class.

    The rank of the true class ``y`` in row ``z`` is the number of entries
    below ``z[y]`` plus the number equal to it in a lower column: the
    position a stable row sort would give it, counted without sorting.
    Equal entries in lower columns are looked for only in the rows that
    have an entry equal to ``z[y]`` besides it.
    """
    zy = z[np.arange(z.shape[0]), y][:, None]
    below = np.count_nonzero(z < zy, axis=1)
    tied = np.flatnonzero(np.count_nonzero(z <= zy, axis=1) > below + 1)
    below[tied] += np.count_nonzero((z[tied] == zy[tied]) & (np.arange(z.shape[1]) < y[tied, None]), axis=1)
    return below


def truncate_training_set(z_sorted, y_pos, k):
    """Restrict a sorted fitting set to its top-k columns.

    ``y_pos`` holds per-sample rank positions of the true class (as from
    :func:`label_positions`).  Samples whose true class falls below the top
    k ranks would have no target inside the retained columns, so they are
    dropped from the fitting set and counted.

    Returns ``(reduced sorted matrix, reduced positions, dropped count)``
    where positions are re-indexed into [0, k).
    """
    z_sorted = np.asarray(z_sorted, dtype=np.float64)
    n, m = z_sorted.shape
    if not 2 <= k <= m:
        raise ValueError(f"need 2 <= k <= m, got k={k}, m={m}")
    y_pos = np.asarray(y_pos)
    cut = m - k
    keep = y_pos >= cut
    return z_sorted[keep, cut:], (y_pos[keep] - cut).astype(np.int64), int(n - keep.sum())


def softmax_nll(t, label):
    """Mean NLL of the class-major logits ``t`` (k, n) at the flat target indices ``label``.

    Returns ``(loss, e, total)``: ``e``, made in place of ``t``, holds each
    column's exponentials after its maximum is subtracted, and ``total``
    their column sums, so ``e / total`` is the column softmax.
    """
    t -= t.max(axis=0)
    e = np.exp(t, out=t)
    total = e.sum(axis=0)
    return core._picked_nll(e.ravel()[label] / total), e, total


def sorted_nll_objective(s, y_pos, w, b, order=1):
    """Mean NLL of the transformed sorted logits, with derivatives up to ``order``.

    ``s`` is an (n, k) logit block and ``y_pos`` the true class's position
    within each row.  The monotone fit passes rows sorted ascending; nothing
    here depends on that, and vector scaling passes its logits as they are
    (``w`` may then be any sign).  ``order`` 0 returns the loss; 1 adds
    ``(grad_w, grad_b)``, the means over samples of the per-sample
    expressions ``s * (p - e_y)`` and ``p - e_y``, with ``p`` the row
    softmax of the transformed block ``s * w + b`` and ``e_y`` the one-hot
    target at ``y_pos``; 2 adds the exact Hessian over ``(w, b[1:])``:
    ``diag(...) - A A^T / n`` with ``A = [s * p ; p[1:]]`` of shape
    (2k - 1, n), where the first term holds ``mean(s**2 p)``,
    ``mean(p[1:])`` and, between ``w[j]`` and ``b[j]``, ``mean(s p)``.
    ``b[0]`` is left out because a common shift of ``b`` does not change
    the softmax.  ``order`` None returns ``(loss, derivatives)``:
    ``derivatives(order)``, for ``order`` 1 or 2, returns what that order
    adds, from this call's softmax, which it normalizes in place, so it may
    be called once.  A solver that accepts a point only after its loss
    passes a test so computes each point's softmax once, and normalizes it
    only if it accepts the point.

    The work is done on the C-contiguous (k, n) transpose of ``s``, so every
    reduction over a row's k entries runs along the long axis.  An ``s`` that
    is already the transpose of a C-contiguous block is not copied.
    """
    w = np.asarray(w, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    S = np.ascontiguousarray(np.asarray(s, dtype=np.float64).T)
    y_pos = np.asarray(y_pos, dtype=np.int64)
    k, n = S.shape
    label = y_pos * n + np.arange(n)  # flat index of each sample's target in S
    t = _transform_sorted(S, w[:, None], b[:, None])
    loss, p, total = softmax_nll(t, label)
    if order == 0:
        return loss

    def derivatives(order):
        np.divide(p, total, out=p)
        A = np.empty((2 * k - 1 if order == 2 else k, n))
        sp = np.multiply(S, p, out=A[:k])
        p_sum, sp_sum = p.sum(axis=1), sp.sum(axis=1)
        grad_b = (p_sum - np.bincount(y_pos, minlength=k)) / n
        grad_w = (sp_sum - np.bincount(y_pos, weights=S.ravel()[label], minlength=k)) / n
        if order == 1:
            return grad_w, grad_b
        A[k:] = p[1:]
        # A A^T row by row with einsum, not BLAS: a threaded BLAS product sums in
        # an order that depends on its thread count, and so would the fit.
        hess = np.empty((2 * k - 1, 2 * k - 1))
        for i in range(2 * k - 1):
            hess[i, i:] = np.einsum("j,kj->k", A[i], A[i:])
            hess[i:, i] = hess[i, i:]
        hess /= -n
        hess[np.diag_indices(2 * k - 1)] += np.concatenate([np.einsum("ij,ij->i", S, sp), p_sum[1:]]) / n
        wb = np.arange(1, k)
        hess[wb, wb + k - 1] += sp_sum[1:] / n
        hess[wb + k - 1, wb] += sp_sum[1:] / n
        return grad_w, grad_b, hess

    return (loss, derivatives) if order is None else (loss, *derivatives(order))
