"""Constrained fitting of the rank-indexed monotone calibration maps.

SLSQP minimizes the mean NLL of the calibrated probabilities over the
cumulative increments of ``w`` and ``b``, on which the ordering constraints
are simple bounds (see :func:`fit_mcct`).  There is no randomness anywhere
in the fit path: identical inputs and configuration produce
bitwise-identical results.
"""

import warnings
from dataclasses import asdict, dataclass

import numpy as np
from scipy.optimize import minimize

from . import core
from .transform import (
    DIRECT,
    INVERSE,
    MODES,
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


@dataclass(frozen=True)
class SolverConfig:
    """SLSQP's iteration limit and its stopping tolerance on the loss."""

    max_iterations: int = 500
    stationarity_tol: float = 1e-8

    def __post_init__(self):
        if self.max_iterations < 1:
            raise ValueError("max_iterations must be >= 1")
        if self.stationarity_tol <= 0:
            raise ValueError("stationarity_tol must be > 0")

    def to_json(self):
        return asdict(self)

    @classmethod
    def from_json(cls, doc):
        known = {f: doc[f] for f in ("max_iterations", "stationarity_tol") if f in doc}
        unknown = set(doc) - set(known)
        if unknown:
            raise ValueError(f"unknown solver config fields: {sorted(unknown)}")
        return cls(**known)


@dataclass(frozen=True)
class FitResult:
    params: MonotoneParams
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


def constraint_violation(params, w_floor=W_FLOOR):
    """Largest violation of the ordering constraints and the scale floor (0 if feasible)."""
    dw = np.diff(params.w)
    if params.mode == INVERSE:
        dw = -dw
    worst = max(
        float((-dw).max(initial=0.0)),
        float((-np.diff(params.b)).max(initial=0.0)),
        float((w_floor - params.w).max(initial=0.0)),
    )
    return worst if worst > 0.0 else 0.0


def fit_mcct(z, y, mode=DIRECT, k=None, cfg=None):
    """Fit a monotone calibration map by constrained NLL minimization.

    Both modes solve the same problem: SLSQP fits the direct map ``s * w + b``
    over the increments ``(dw, db)`` with ``w = minimum(cumsum(dw),
    1 / W_FLOOR)`` and ``b = cumsum(db)``, under the bounds ``dw[0] >=
    W_FLOOR`` and ``dw[1:], db[1:] >= 0``, starting from the identity map
    (``dw = (1, 0, ...)``, ``db = 0``).  Inverse mode returns that fit with
    its scales written as divisors (``w`` replaced by ``1 / w``), and the
    same biases, loss and iteration count.

    With ``k`` below the class count, each row's sorted logits are truncated
    to the top k columns and samples whose true class falls outside them are
    dropped from the fitting set (their count is reported on the result).
    The result also counts the calibration rows with tied logits, the rows
    the fitted map reorders and the distinct labels, and the fit warns about
    ties, reordered rows and a single label.  Rows are sorted by value only;
    each label's rank is counted, not read from a permutation.

    The returned parameters are feasible by construction: rounding is
    monotone, so a cumulative sum of non-negative increments is exactly
    non-decreasing in floating point, and so is its minimum with a constant.
    Nothing is repaired after the solve.  The fit is never worse in loss
    than the uncalibrated logits.
    """
    if mode not in MODES:
        raise ValueError(f"mode must be one of {MODES}, got {mode!r}")
    cfg = cfg or SolverConfig()
    z = core.validate_logits(z)
    n, m = z.shape
    y = core.validate_labels(y, m, n=n)
    if n < 2:
        raise ValueError("need at least 2 samples to fit")
    k = m if k is None else int(k)
    if not 2 <= k <= m:
        raise ValueError(f"need 2 <= k <= m, got k={k}, m={m}")
    s = np.sort(z, axis=1)
    tied = len({row for row, _ in core.validate_distinct(s)})
    if tied:
        warnings.warn(f"{tied} rows contain tied logits; rank order within ties follows column index")
    distinct_labels = int(np.unique(y).size)
    if distinct_labels == 1:
        warnings.warn("all calibration labels are identical; the fit is degenerate")

    s_fit, pos_fit, dropped = truncate_training_set(s, label_positions(z, y), k)
    if s_fit.shape[0] == 0:
        raise ValueError("every sample's true class fell outside the top k ranks")

    def params_of(x):
        return np.minimum(np.cumsum(x[:k]), 1.0 / W_FLOOR), np.cumsum(x[k:])

    def fun(x):
        loss, gw, gb = sorted_nll_objective(s_fit, pos_fit, *params_of(x), DIRECT)
        # The gradient of a cumulative sum is the reverse cumulative sum;
        # the cap on w is never reached in practice and is ignored here.
        return loss, np.concatenate([np.cumsum(gw[::-1])[::-1], np.cumsum(gb[::-1])[::-1]])

    start = init_params(DIRECT, k, m=m)
    x0 = np.concatenate([np.diff(start.w, prepend=0.0), np.diff(start.b, prepend=0.0)])
    init_loss = fun(x0)[0]
    res = minimize(
        fun,
        x0,
        jac=True,
        method="SLSQP",
        bounds=[(W_FLOOR, None)] + [(0.0, None)] * (k - 1) + [(None, None)] + [(0.0, None)] * (k - 1),
        options={"maxiter": cfg.max_iterations, "ftol": cfg.stationarity_tol},
    )
    w, b = params_of(res.x)
    final_loss = sorted_nll_objective(s_fit, pos_fit, w, b, DIRECT)[0]
    converged = bool(res.success)
    if final_loss > init_loss:
        w, b, final_loss, converged = start.w, start.b, init_loss, False
    params = MonotoneParams(w=w, b=b, mode=DIRECT, m=m).in_mode(mode)
    broken = order_violations(s, params)
    if broken:
        warnings.warn(
            f"fitted map reorders scores on {broken} of {n} calibration rows "
            "(possible for rows with negative score pairs; predictions for rows "
            "with a non-negative maximum are still preserved)"
        )
    return FitResult(
        params=params,
        final_loss=float(final_loss),
        iterations=int(res.nit),
        converged=converged,
        constraint_violation=constraint_violation(params),
        dropped_samples=dropped,
        tied_rows=tied,
        reordered_rows=broken,
        distinct_labels=distinct_labels,
    )
