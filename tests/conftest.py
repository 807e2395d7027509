import numpy as np
import pytest
from scipy.optimize import minimize, minimize_scalar

from monocal import core, data_io, optim, transform


@pytest.fixture(scope="session")
def overconfident_split():
    """Overconfident synthetic problem split into 5000 calibration / 10000 test."""
    cfg = data_io.SynthConfig(n=15_000, m=10, alpha=0.5, overconfidence=2.5, seed=0)
    z, y, true_probs = data_io.generate_synthetic(cfg)
    (zc, yc), (zt, yt) = data_io.split_dataset(z, y, 1 / 3, seed=0)
    return (zc, yc), (zt, yt)


@pytest.fixture(scope="session")
def calibrated_split():
    """Perfectly calibrated synthetic problem, same shape as overconfident_split."""
    cfg = data_io.SynthConfig(n=15_000, m=10, alpha=0.5, overconfidence=1.0, seed=5)
    z, y, true_probs = data_io.generate_synthetic(cfg)
    (zc, yc), (zt, yt) = data_io.split_dataset(z, y, 1 / 3, seed=5)
    return (zc, yc), (zt, yt)


@pytest.fixture(scope="session")
def fitted_map(overconfident_split):
    (zc, yc), _ = overconfident_split
    return optim.fit_mcct(zc, yc)


def random_valid_params(rng, m, m_total=None, divisors=False):
    """Random parameters satisfying the ordering invariants.

    With ``divisors``, the scales are drawn as non-increasing divisors, the
    way an mcct-i model file writes them, and turned into scales by ``1 / w``.
    """
    w = np.sort(rng.uniform(0.05, 3.0, m))
    if divisors:
        w = 1.0 / w[::-1]
    b = np.sort(rng.normal(0.0, 1.0, m))
    return transform.MonotoneParams(w=w, b=b, m=m if m_total is None else m_total)


# Row patterns for the fast-path oracle tests; every pattern but "plain" is
# applied to every other row, so fast rows and fallback rows share a matrix.
ROW_PATTERNS = ("plain", "float32", "coarse", "kept_ties", "straddle", "signed_zeros")


def patterned_logits(rng, n, m, k, pattern):
    """An (n, m) logit matrix whose odd rows carry ``pattern``, with ``k`` the retained ranks.

    ``float32`` quantizes to float32 values; ``coarse`` rounds to halves so ties
    fall anywhere; ``kept_ties`` ties the two top columns; ``straddle`` ties
    the sorted positions ``c-1``, ``c`` and ``c+1`` with ``c = max(m-k, 1)``,
    so for ``k < m`` two tied values are kept and one is not;
    ``signed_zeros`` shifts the row to put zero at position ``c``, does the
    same with ``-0.0``, ``0.0`` and ``-0.0``, and (for k >= 4) makes the top
    two columns a ``0.0``/``-0.0`` pair.  Needs ``m >= 3``.
    """
    z = rng.normal(0.0, 2.0, (n, m))
    cut = max(m - k, 1)
    for i in range(1, n, 2):
        order = np.argsort(z[i], kind="stable")
        if pattern == "float32":
            z[i] = z[i].astype(np.float32)
        elif pattern == "coarse":
            z[i] = np.round(z[i] * 2.0) / 2.0
        elif pattern == "kept_ties":
            z[i, order[-2]] = z[i, order[-1]]
        elif pattern == "straddle":
            z[i, order[cut - 1 : cut + 2]] = z[i, order[cut]]
        elif pattern == "signed_zeros":
            z[i] -= z[i, order[cut]]
            z[i, order[cut - 1 : cut + 2]] = (-0.0, 0.0, -0.0)
            if k >= 4:
                z[i, order[-2:]] = (0.0, -0.0)
    return z


def stable_label_positions(z, y):
    """Reference label ranks: the inverse of a stable row sort's permutation."""
    _, perm = core.sort_rows(z)
    return np.argsort(perm, axis=1, kind="stable")[np.arange(len(y)), y]


def stable_apply(z, params):
    """Reference apply: stable full-row sort, rank-aligned ``w``/``b``, scatter back."""
    perm = np.argsort(z, axis=1, kind="stable")
    s = np.take_along_axis(z, perm, axis=1)
    pad = params.m - params.k
    w = np.concatenate([np.full(pad, params.w[0]), params.w])
    b = np.concatenate([np.full(pad, params.b[0]), params.b])
    t = s * w + b
    out = np.empty_like(z)
    np.put_along_axis(out, perm, t, axis=1)
    return out


def stable_fit_inputs(z, y, k):
    """Reference top-k fitting set: sorted block, label ranks and dropped count."""
    s, _ = core.sort_rows(z)
    pos = stable_label_positions(z, y)
    cut = z.shape[1] - k
    keep = pos >= cut
    return s[keep][:, cut:], (pos[keep] - cut).astype(np.int64), int(len(y) - keep.sum())


def reference_nll_objective(s, y_pos, w, b):
    """Reference objective on a row-major (n, k) sorted block: ``(loss, grad_w, grad_b)``."""
    t = s * w + b
    t = t - t.max(axis=1, keepdims=True)
    e = np.exp(t)
    p = e / e.sum(axis=1, keepdims=True)
    rows = np.arange(s.shape[0])
    loss = float(-np.log(np.maximum(p[rows, y_pos], core.LOG_FLOOR)).mean())
    resid = p.copy()
    resid[rows, y_pos] -= 1.0
    return loss, (s * resid).mean(axis=0), resid.mean(axis=0)


def reverse_cumsum(v):
    return np.cumsum(v[::-1])[::-1]


def slsqp_fit(z, y, k=None):
    """Reference solve: SLSQP over the increments ``(dw, db)`` from the identity map.

    It fits the map on the stable-sort fitting set with the reference
    objective, under the bounds ``dw[0] >= W_FLOOR``, ``dw[1:] >= 0`` and
    ``db[1:] >= 0`` (``db[0]`` free).  Returns ``(w, b, loss)``.
    """
    k = z.shape[1] if k is None else k
    s, pos, _ = stable_fit_inputs(z, y, k)

    def params_of(x):
        return np.cumsum(x[:k]), np.cumsum(x[k:])

    def fun(x):
        loss, gw, gb = reference_nll_objective(s, pos, *params_of(x))
        return loss, np.concatenate([reverse_cumsum(gw), reverse_cumsum(gb)])

    x0 = np.concatenate([[1.0], np.zeros(2 * k - 1)])
    bounds = [(optim.W_FLOOR, None)] + [(0.0, None)] * (k - 1) + [(None, None)] + [(0.0, None)] * (k - 1)
    res = minimize(fun, x0, jac=True, method="SLSQP", bounds=bounds, options={"maxiter": 500, "ftol": 1e-8})
    w, b = params_of(res.x)
    return w, b, reference_nll_objective(s, pos, w, b)[0]


def projected_gradient_residual(z, y, params):
    """Largest projected-gradient component of the fit's problem at a map with ``b[0] = 0``.

    The problem is over the increments ``x = (dw, db[1:])`` with the bounds
    ``dw[0] >= W_FLOOR`` and every other increment ``>= 0``; the residual is
    ``x - max(x - grad, lower)``, zero exactly at a stationary point.
    """
    s, pos, _ = stable_fit_inputs(z, y, params.k)
    _, gw, gb = reference_nll_objective(s, pos, params.w, params.b)
    x = np.concatenate([np.diff(params.w, prepend=0.0), np.diff(params.b)])
    grad = np.concatenate([reverse_cumsum(gw), reverse_cumsum(gb[1:])])
    lower = np.zeros_like(x)
    lower[0] = optim.W_FLOOR
    return float(np.abs(x - np.maximum(x - grad, lower)).max())


# The baseline fits as they were before they moved onto projected Newton
# (bounded Brent for ts, L-BFGS-B for vs, SLSQP for the ets weights), kept as
# the oracles of the Newton fits.


def brent_temperature(z, y):
    """Reference ts fit: bounded Brent on T over [1e-3, 1e3]."""
    z = core.validate_logits(z)
    y = core.validate_labels(y, z.shape[1], n=z.shape[0])

    def nll_at(t):
        return core.nll(core.softmax_rows(z / t), y)

    res = minimize_scalar(nll_at, bounds=(1e-3, 1e3), method="bounded", options={"xatol": 1e-6})
    return float(res.x)


def lbfgsb_vector_scaling(z, y):
    """Reference vs fit: L-BFGS-B on every scale and bias.  Returns ``(scale, bias)``."""
    z = core.validate_logits(z)
    n, m = z.shape
    y = core.validate_labels(y, m, n=n)
    onehot = core.one_hot(y, m)
    rows = np.arange(n)

    def fun(x):
        t = z * x[:m] + x[m:]
        t = t - t.max(axis=1, keepdims=True)
        e = np.exp(t)
        p = e / e.sum(axis=1, keepdims=True)
        loss = float(-np.log(np.maximum(p[rows, y], core.LOG_FLOOR)).mean())
        resid = (p - onehot) / n
        return loss, np.concatenate([(z * resid).sum(axis=0), resid.sum(axis=0)])

    x0 = np.concatenate([np.ones(m), np.zeros(m)])
    res = minimize(fun, x0, jac=True, method="L-BFGS-B", options={"gtol": 1e-6, "ftol": 1e-15, "maxiter": 2000})
    return res.x[:m].copy(), res.x[m:].copy()


def slsqp_ensemble_weights(z, y, temperature, loss="nll"):
    """Reference ets weight fit at a given temperature: SLSQP on the simplex."""
    z = core.validate_logits(z)
    n, m = z.shape
    y = core.validate_labels(y, m, n=n)
    q1 = core.softmax_rows(z / temperature)
    q2 = core.softmax_rows(z)
    onehot = core.one_hot(y, m)
    rows = np.arange(n)

    def fun(x):
        p = x[0] * q1 + x[1] * q2 + x[2] / m
        if loss == "nll":
            true = np.maximum(p[rows, y], core.LOG_FLOOR)
            value = float(-np.log(true).mean())
            grad = -np.array(
                [
                    (q1[rows, y] / true).mean(),
                    (q2[rows, y] / true).mean(),
                    (1.0 / (m * true)).mean(),
                ]
            )
        else:
            resid = p - onehot
            value = float((resid * resid).sum(axis=1).mean())
            grad = 2.0 * np.array(
                [
                    (resid * q1).sum(axis=1).mean(),
                    (resid * q2).sum(axis=1).mean(),
                    resid.sum(axis=1).mean() / m,
                ]
            )
        return value, grad

    res = minimize(
        fun,
        np.array([1.0, 0.0, 0.0]),
        jac=True,
        method="SLSQP",
        bounds=[(0.0, 1.0)] * 3,
        constraints=[{"type": "eq", "fun": lambda x: x.sum() - 1.0, "jac": lambda x: np.ones(3)}],
        options={"maxiter": 200, "ftol": 1e-12},
    )
    weights = np.clip(res.x, 0.0, None)
    return weights / weights.sum()
