"""Constrained fitting of the rank-indexed monotone calibration maps.

Projected Newton minimizes the mean NLL of the calibrated probabilities
over the cumulative increments of ``w`` and ``b``, on which the ordering
constraints are simple bounds (see :func:`fit_mcct`).  There is no
randomness anywhere in the fit path: identical inputs and configuration
produce bitwise-identical results.
"""

import warnings
from dataclasses import dataclass, replace

import numpy as np

from . import core, data_io
from .transform import (
    DIRECT,
    INVERSE,
    MonotoneParams,
    label_positions,
    order_violations,
    sorted_nll_objective,
    truncate_training_set,
)


# Every fitted scale lies in [W_FLOOR, 1 / W_FLOOR].  Strict positivity is an
# open condition unusable as a solver bound, so the feasible set is closed at a
# negligible distance from it; the cap keeps mcct-i's divisors above the floor.
W_FLOOR = 1e-8
# Projected Newton: the cap on the active-set margin, the bound on the loss
# still to gain at a stationary point (see _projected_newton), the Armijo
# constant, the shortest step tried before the line search gives up, and the
# default iteration limit.
ACTIVE_EPS = 1e-3
STATIONARITY_TOL = 1e-8
ARMIJO = 1e-4
MIN_STEP = 2.0**-40
MAX_ITERATIONS = 500


@dataclass(frozen=True)
class FitResult:
    params: MonotoneParams
    initial_loss: float
    final_loss: float
    iterations: int
    converged: bool
    constraint_violation: float
    dropped_samples: int = 0
    tied_rows: int = 0
    reordered_rows: int = 0
    distinct_labels: int = 0


def init_params(mode, k, m=None):
    """Starting point of the fit: the identity map (``w`` ones, ``b`` zero).

    It is the same map in either mode, satisfies every constraint, and
    reproduces the uncalibrated logits.
    """
    if k < 2:
        raise ValueError("need k >= 2")
    return MonotoneParams(w=np.ones(k), b=np.zeros(k), mode=mode, m=k if m is None else m)


def constraint_violation(params):
    """Largest violation of the ordering constraints and the scale floor ``W_FLOOR`` (0 if feasible)."""
    dw = np.diff(params.w)
    if params.mode == INVERSE:
        dw = -dw
    worst = max(
        float((-dw).max(initial=0.0)),
        float((-np.diff(params.b)).max(initial=0.0)),
        float((W_FLOOR - params.w).max(initial=0.0)),
    )
    return worst if worst > 0.0 else 0.0


def _reverse_cumsum(v, k, axis):
    """Reverse cumulative sums of the ``w`` block ``[:k]`` and the ``b`` block ``[k:]`` along ``axis``.

    This is the transpose of the cumulative sums that turn increments into
    parameters, so it takes a gradient or (applied along both axes) a
    Hessian from parameters to increments.
    """
    parts = np.split(v, [k], axis=axis)
    return np.concatenate([np.flip(np.cumsum(np.flip(a, axis), axis), axis) for a in parts], axis=axis)


def _cholesky_solve(a, g):
    """Solve ``a d = g`` for a symmetric positive definite ``a``, summing in a fixed order.

    ``g`` may hold several right-hand sides as columns.  A plain Cholesky
    factorization and two triangular solves with numpy reductions: LAPACK's
    threaded factorization rounds differently with different BLAS thread
    counts.  Raises ``LinAlgError`` on a pivot that is not positive.
    """
    n = len(g)
    low = np.zeros_like(a)
    for j in range(n):
        col = a[j:, j] - np.einsum("ij,j->i", low[j:, :j], low[j, :j])
        if not col[0] > 0:
            raise np.linalg.LinAlgError("matrix is not positive definite")
        low[j:, j] = col / np.sqrt(col[0])
    u = np.empty_like(g)
    for i in range(n):
        u[i] = (g[i] - np.einsum("j,j...->...", low[i, :i], u[:i])) / low[i, i]
    d = np.empty_like(g)
    for i in reversed(range(n)):
        d[i] = (u[i] - np.einsum("j,j...->...", low[i + 1 :, i], d[i + 1 :])) / low[i, i]
    return d


def _newton_direction(hess, grad):
    """``-hess^-1 grad``, with a growing ridge while ``hess`` is not numerically positive definite.

    A Hessian that no ridge up to its own scale makes positive definite (one
    holding a NaN from overflowing logits, say) gives the steepest-descent
    direction ``-grad``.
    """
    scale = np.abs(np.diag(hess)).max(initial=0.0) or 1.0
    for ridge in (0.0, *(scale * 10.0 ** np.arange(-12, 1))):
        try:
            return -_cholesky_solve(hess + ridge * np.eye(len(grad)), grad)
        except np.linalg.LinAlgError:
            pass
    return -grad


def _projected_newton(evaluate, x, lower, max_iterations, trace=None):
    """Minimize a convex function over ``x >= lower`` from a feasible ``x`` by projected Newton.

    A ``lower`` entry of ``-inf`` leaves its variable unbounded.

    ``evaluate(x, order)`` returns the loss (order 0), the loss and gradient
    (order 1), or the loss, gradient and Hessian (order 2).  The method is
    Bertsekas's (1982, "Projected Newton methods for optimization problems
    with simple constraints").  Each iteration holds the variables within
    ``eps`` of their bound whose gradient points out of the feasible set,
    ``eps`` being the projected-gradient residual's norm capped at
    ``ACTIVE_EPS``.  The held variables move onto their bounds, and the free
    ones take the Newton step given that move, solved by Cholesky on the
    free block of the exact Hessian.  A free variable on its bound that the
    step would push out is held as well (it stays), so that the projection
    does not bend the path.  An Armijo backtracking search runs along the
    projection arc ``max(x + t d, lower)``; every accepted step lowers the
    loss.

    The solve has converged when half the free block's Newton decrement,
    ``g_F^T H_FF^-1 g_F / 2``, is at most ``STATIONARITY_TOL`` and
    moving the held variables onto their bounds gains no more than that to
    first order: then no held bound has a gradient pointing into the
    feasible set.  The converged point still takes its full step when that
    step passes the Armijo test.  ``trace``, if given, is called with one
    dict per iterate: ``iteration``, ``loss``, ``pg_norm`` (the largest
    projected-gradient component), ``free`` (the free-variable count) and
    ``step`` (the accepted step length, 0 at the returned point).  The solve
    takes at most ``max_iterations`` steps.

    Returns ``(x, initial_loss, final_loss, iterations, converged)``, the
    losses being those at the start and at the returned ``x``.
    """

    def near_bound(x, grad):
        """Projected-gradient residual, and the variables within ``eps`` of their bound."""
        residual = x - np.maximum(x - grad, lower)
        return residual, x - lower <= min(ACTIVE_EPS, float(np.linalg.norm(residual)))

    def newton_step(x, grad, hess, held):
        """The step, and the free block's Newton decrement."""
        free = ~held
        step = np.where(held & (grad > 0), lower - x, 0.0)
        coupled = grad[free] + np.einsum("ij,j->i", hess[np.ix_(free, held)], step[held])
        solved = _newton_direction(hess[np.ix_(free, free)], np.stack([grad[free], coupled], axis=1))
        step[free] = solved[:, 1]
        return step, -float((grad[free] * solved[:, 0]).sum())

    def record(loss, residual, held, step):
        if trace is not None:
            trace({
                "iteration": iterations,
                "loss": loss,
                "pg_norm": float(np.abs(residual).max()),
                "free": int(held.size - held.sum()),
                "step": step,
            })

    loss, grad, hess = evaluate(x, 2)
    initial_loss, iterations = loss, 0
    while True:
        residual, near = near_bound(x, grad)
        held = near & (grad > 0)
        direction, decrement = newton_step(x, grad, hess, held)
        converged = (
            decrement / 2 <= STATIONARITY_TOL
            and float((grad[held] * (x[held] - lower[held])).sum()) <= STATIONARITY_TOL
        )
        while (pushed := ~held & near & (direction < 0)).any():
            held |= pushed
            direction = newton_step(x, grad, hess, held)[0]
        if (grad * direction).sum() >= 0:
            direction = -residual
        step = 1.0 if iterations < max_iterations else 0.0
        while step:
            trial = np.maximum(x + step * direction, lower)
            slope = -float((grad * (trial - x)).sum())
            if slope > 0 and loss - evaluate(trial, 0) >= ARMIJO * slope:
                break
            step = step / 2 if step > MIN_STEP and not converged else 0.0
        record(loss, residual, held, step)
        if not step:
            return x, initial_loss, loss, iterations, converged
        x = trial
        iterations += 1
        if converged:
            loss, grad = evaluate(x, 1)
            residual, near = near_bound(x, grad)
            record(loss, residual, near & (grad > 0), 0.0)
            return x, initial_loss, loss, iterations, converged
        loss, grad, hess = evaluate(x, 2)


def _kept_columns(ordered, k):
    """The top ``min(k + 1, m)`` columns of the sorted rows ``ordered``, the lowest set below the cut in place.

    With ``k < m``, rank ``lo = m - k - 1`` takes each row's largest value
    strictly below rank ``m - k`` (the tied value where there is none).
    Every rank up to ``m - k`` shares the increasing map of ``(w[0], b[0])``,
    so a pair reversed across the cut shows as one within these columns:
    ``order_violations`` of them, with the map cut to their width, is that of
    the whole row, but for two values below the kept ones that rounding merges.
    """
    m = ordered.shape[1]
    lo = max(m - k - 1, 0)
    if k < m:
        rows = np.flatnonzero(ordered[:, lo] == ordered[:, lo + 1])
        below = np.count_nonzero(ordered[rows, :lo] < ordered[rows, lo + 1 : lo + 2], axis=1)
        rows, below = rows[below > 0], below[below > 0]
        ordered[rows, lo] = ordered[rows, below - 1]
    return ordered[:, lo:]


def fit_mcct(z, y, mode=DIRECT, k=None, max_iterations=MAX_ITERATIONS, trace=None, threads=1):
    """Fit a monotone calibration map by constrained NLL minimization.

    Both modes solve the same problem: the direct map ``s * w + b`` over the
    increments ``x = (dw, db[1:])`` with ``w = minimum(cumsum(dw), 1 /
    W_FLOOR)`` and ``b = (0, cumsum(db[1:]))``, under the bounds ``dw[0] >=
    W_FLOOR`` and ``dw[1:], db[1:] >= 0``, starting from the identity map
    (``dw = (1, 0, ...)``, ``db = 0``).  ``b[0]`` is pinned at 0: a common
    shift of ``b`` leaves every softmax unchanged.  ``mode=INVERSE``
    returns exactly the direct ``FitResult`` with its scales written as
    divisors (``w`` replaced by ``1 / w``): every other field, the reorder
    count and constraint violation included, is the direct fit's.

    The solver is projected Newton (see :func:`_projected_newton`) on the
    exact Hessian, for at most ``max_iterations`` steps.  Each of its
    evaluations is one call of :func:`~monocal.transform.sorted_nll_objective`
    on the transpose view of a class-major copy of the sorted block, made
    once per fit; the initial and final losses are the solver's own.  In
    increment coordinates the Hessian is ``L^T H L`` with ``L`` the
    cumulative-sum matrix, formed by reverse cumulative sums of ``H``'s rows
    and columns.  Every accepted step lowers the loss, so the fit is never
    worse than the uncalibrated logits.  ``trace``, if given, receives the
    solver's per-iterate records.  Every sum in the fit runs in a fixed
    order, so the result does not depend on the BLAS thread count either.

    ``z`` is a logit matrix or a binary file's block reader
    (``data_io.BinaryLogits``).  The labels, the sample count and ``k`` are
    checked first.  The fitting set is then prepared in one walk over row
    blocks of ``core.BLOCK_DOUBLES`` entries (1 MB of float64), the only
    read of ``z``: each block is read once, sorted into a temporary and
    checked for finiteness, its tied rows and label ranks are counted while
    it is in cache, and its top ``min(k + 1, m)`` sorted columns are kept,
    the lowest set below the cut (:func:`_kept_columns`), widened to
    float64.  A reader's blocks are float32 and are sorted, tie-counted and
    ranked at float32, which is exact: widening to float64 keeps every
    value's order and distinctness.  Rows are sorted by value
    only; each label's rank is counted, not read from a permutation.  With
    ``k`` below the class count, the fit uses the top k columns and drops
    the samples whose true class falls outside them from the fitting set
    (their count is reported on the result).  The result also counts the
    calibration rows with tied logits anywhere in the row, the rows the
    fitted map reorders (``order_violations`` of the kept columns, walked
    over their own row blocks after the solve) and the distinct labels, and
    the fit warns about ties, reordered rows and a single label.  So the fit
    holds ``(n, min(k + 1, m))`` sorted columns, the label ranks and a few
    blocks per thread besides its top-k fitting set; from a reader it holds
    no (n, m) logit matrix (at k < m - 1, nothing of that size at all).

    The blocks of both walks run on up to ``threads`` threads
    (``core._map_blocks``).  Each block writes only its own rows and the
    counts are summed in block order, so nothing in the result depends on
    ``threads``.

    The returned parameters are feasible by construction: rounding is
    monotone, so a cumulative sum of non-negative increments is exactly
    non-decreasing in floating point, and so is its minimum with a constant.
    Nothing is repaired after the solve.
    """
    if max_iterations < 1:
        raise ValueError("max_iterations must be >= 1")
    z = data_io._logit_rows(z)
    n, m = z.shape
    y = core.validate_labels(y, m, n=n)
    if n < 2:
        raise ValueError("need at least 2 samples to fit")
    k = m if k is None else int(k)
    if not 2 <= k <= m:
        raise ValueError(f"need 2 <= k <= m, got k={k}, m={m}")
    # The identity map, in either mode; building it refuses an unknown mode.
    start = init_params(mode, k, m=m)
    # Each block is sorted into a temporary and counted while it is in cache;
    # only its top k + 1 sorted columns are kept (all m when k >= m - 1).
    lo = max(m - k - 1, 0)
    top, positions = np.empty((n, m - lo)), np.empty(n, dtype=np.int64)

    def prepare(rows):
        block = z[rows]
        ordered = np.sort(block, axis=1)
        # validate_distinct's check is the block's only finiteness check.
        tied = len({row for row, _ in core.validate_distinct(ordered)})
        positions[rows] = label_positions(block, y[rows])
        top[rows] = _kept_columns(ordered, k)
        return tied

    tied = sum(core._map_blocks(prepare, z.shape, threads))
    if tied:
        warnings.warn(f"{tied} rows contain tied logits; rank order within ties follows column index")
    distinct_labels = int(np.unique(y).size)
    if distinct_labels == 1:
        warnings.warn("all calibration labels are identical; the fit is degenerate")

    # A label ranked below lo gets a negative position and is dropped.
    s_fit, pos_fit, dropped = truncate_training_set(top, positions - lo, k)
    if s_fit.shape[0] == 0:
        raise ValueError("every sample's true class fell outside the top k ranks")
    # The objective works on the class-major block and does not copy this view of it.
    s_fit = np.ascontiguousarray(s_fit.T).T

    def params_of(x):
        return np.minimum(np.cumsum(x[:k]), 1.0 / W_FLOOR), np.concatenate([[0.0], np.cumsum(x[k:])])

    def evaluate(x, order):
        out = sorted_nll_objective(s_fit, pos_fit, *params_of(x), DIRECT, order)
        if order == 0:
            return out
        # Through the cumulative sums, the gradient and Hessian take reverse
        # cumulative sums; the cap on w is never reached in practice and is
        # ignored here.
        loss, gw, gb, *hess = out
        grad = _reverse_cumsum(np.concatenate([gw, gb[1:]]), k, 0)
        return (loss, grad, *(_reverse_cumsum(_reverse_cumsum(h, k, 0), k, 1) for h in hess))

    lower = np.zeros(2 * k - 1)
    lower[0] = W_FLOOR
    x0 = np.concatenate([np.diff(start.w, prepend=0.0), np.diff(start.b)])
    x, initial_loss, final_loss, iterations, converged = _projected_newton(evaluate, x0, lower, max_iterations, trace)
    params = MonotoneParams(*params_of(x), mode=DIRECT, m=m)
    reduced = replace(params, m=top.shape[1])
    broken = sum(core._map_blocks(lambda rows: order_violations(top[rows], reduced), top.shape, threads))
    if broken:
        warnings.warn(
            f"fitted map reorders scores on {broken} of {n} calibration rows "
            "(possible for rows with negative score pairs; predictions for rows "
            "with a non-negative maximum are still preserved)"
        )
    return FitResult(
        params=params.in_mode(mode),
        initial_loss=initial_loss,
        final_loss=final_loss,
        iterations=iterations,
        converged=converged,
        constraint_violation=constraint_violation(params),
        dropped_samples=dropped,
        tied_rows=tied,
        reordered_rows=broken,
        distinct_labels=distinct_labels,
    )
