"""Reference post-hoc calibrators and the tagged fitted-model container.

Implemented baselines:

* ``ts``: temperature scaling, one scalar divisor on the logits;
* ``vs``: vector scaling, per-class affine map on the logits;
* ``hb``: top-label histogram binning with proportional redistribution of
  the remaining mass;
* ``ets-nll`` / ``ets-mse``: ensemble temperature scaling, a learned
  convex mixture of the temperature-scaled output, the raw output, and
  the uniform distribution.

Temperature and ensemble scaling preserve each sample's prediction; vector
scaling and histogram binning may change it.

Every iterative fit here runs the monotone maps' solver, projected Newton on
the exact Hessian (:func:`monocal.optim._projected_newton`), on a convex
objective: temperature scaling on ``1 / T``, vector scaling on its scales
and biases, and ensemble NLL scaling on its weights.  Ensemble MSE scaling
is a quadratic in three weights, solved exactly.  Every sum runs in a fixed
order, so the fits do not depend on the BLAS thread count.
"""

import itertools
import json

import numpy as np

from . import core, optim
from .transform import DIRECT, INVERSE, MonotoneParams, apply_map_topk, softmax_nll, sorted_nll_objective

TS = "ts"
VS = "vs"
HB = "hb"
ETS_NLL = "ets-nll"
ETS_MSE = "ets-mse"
MCCT = "mcct"
MCCT_I = "mcct-i"
KINDS = (TS, VS, HB, ETS_NLL, ETS_MSE, MCCT, MCCT_I)
# The monotone-map kinds and the mode each one is applied in.
MONOTONE_MODES = {MCCT: DIRECT, MCCT_I: INVERSE}
# The ensemble kinds and the loss each one fits its weights against.
ENSEMBLE_LOSSES = {ETS_NLL: "nll", ETS_MSE: "mse"}
# Temperature scaling fits beta = 1 / T within these bounds: T in [1e-3, 1e3].
BETA_MIN, BETA_MAX = 1e-3, 1e3

HB_DEFAULT_BINS = 15


class CalibratedModel:
    """A fitted calibrator, applicable to new logit matrices.

    ``kind`` discriminates the method; ``payload`` holds its parameters
    (plain floats/arrays, or :class:`MonotoneParams` under ``"params"`` for
    the monotone-map kinds).  Serializes to a flat JSON document with a
    ``kind`` field.
    """

    def __init__(self, kind, payload):
        if kind not in KINDS:
            raise ValueError(f"unknown model kind {kind!r}")
        self.kind = kind
        self.payload = payload
        self._validate()

    def _validate(self):
        p = self.payload
        if self.kind == TS and not p["T"] > 0:
            raise ValueError("temperature must be > 0")
        if self.kind in (ETS_NLL, ETS_MSE):
            w = np.asarray(p["weights"], dtype=np.float64)
            if w.shape != (3,) or np.any(w < 0) or abs(w.sum() - 1.0) > 1e-9:
                raise ValueError("ensemble weights must be non-negative and sum to 1")
        if self.kind == HB:
            edges = np.asarray(p["edges"], dtype=np.float64)
            if np.any(np.diff(edges) <= 0) or edges[0] != 0.0 or edges[-1] != 1.0:
                raise ValueError("bin edges must strictly increase over [0, 1]")

    @property
    def m(self):
        return int(self.payload["m"])

    def apply(self, z):
        """Calibrated probability matrix for a logit matrix."""
        z = core.validate_logits(z)
        if z.shape[1] != self.m:
            raise ValueError(f"model was fitted for m={self.m} classes, data has m={z.shape[1]}")
        p = self.payload
        if self.kind in (ETS_NLL, ETS_MSE):
            w = p["weights"]
            t = z / p["T"]
            return w[0] * core._softmax(t, t) + w[1] * core.softmax_rows(z) + w[2] / self.m
        if self.kind == HB:
            return _apply_binning(core.softmax_rows(z), p["edges"], p["bin_confidence"])
        if self.kind == TS:
            t = z / p["T"]
        elif self.kind == VS:
            t = z * p["scale"] + p["bias"]
        else:
            # A stored model's kind names the formula; never apply the other one.
            if p["params"].mode != MONOTONE_MODES[self.kind]:
                raise ValueError(f"model kind {self.kind!r} does not match mode {p['params'].mode!r}")
            t = apply_map_topk(z, p["params"])
        # The transformed logits are this call's own temporary: softmax them in place.
        return core._softmax(t, t)

    def to_json(self):
        doc = {"kind": self.kind}
        for key, value in self.payload.items():
            if isinstance(value, MonotoneParams):
                doc.update(value.to_json())
            elif isinstance(value, np.ndarray):
                doc[key] = [float(v) for v in value]
            elif isinstance(value, (np.floating, float)):
                doc[key] = float(value)
            else:
                doc[key] = int(value)
        return doc

    @classmethod
    def from_json(cls, doc):
        doc = dict(doc)
        kind = doc.pop("kind")
        if kind in MONOTONE_MODES:
            return cls(kind, {"params": MonotoneParams.from_json(doc), "m": doc["m"]})
        payload = {}
        for key, value in doc.items():
            payload[key] = np.asarray(value, dtype=np.float64) if isinstance(value, list) else value
        return cls(kind, payload)

    def save(self, path):
        with open(path, "w") as fh:
            json.dump(self.to_json(), fh, indent=2)
            fh.write("\n")

    @classmethod
    def load(cls, path):
        with open(path) as fh:
            return cls.from_json(json.load(fh))


def from_monotone_params(params):
    """Wrap fitted monotone-map parameters as a tagged model."""
    kind = next(kind for kind, mode in MONOTONE_MODES.items() if mode == params.mode)
    return CalibratedModel(kind, {"params": params, "m": params.m})


def fit_ts(z, y):
    """Fit temperature scaling: the scalar T > 0 minimizing mean NLL of softmax(z / T).

    The loss is convex in ``beta = 1 / T``, which is fitted by projected
    Newton from ``beta = 1``: its derivatives are the mean over samples of
    ``E_p[z] - z_y`` and of ``Var_p(z)``, ``p`` being the row softmax of
    ``z * beta``.  The solver bounds ``beta`` below by ``BETA_MIN``; its
    point is capped at ``BETA_MAX``, and ``BETA_MAX`` itself is taken when
    its loss is lower.  So on a calibration set that the logits separate,
    where the loss falls as T falls, T is its bound ``1 / BETA_MAX``.  Logits
    constant within each row leave the loss flat, and T stays 1.
    """
    z = core.validate_logits(z)
    n, m = z.shape
    y = core.validate_labels(y, m, n=n)
    s = np.ascontiguousarray(z.T)
    label = y * n + np.arange(n)  # flat index of each sample's target in s

    def evaluate(x, order):
        loss, p, total = softmax_nll(s * x[0], label)
        if order == 0:
            return loss
        p /= total
        mean = np.einsum("ij,ij->j", p, s)
        grad = np.array([(mean - s.ravel()[label]).mean()])
        if order == 1:
            return loss, grad
        centred = s - mean
        return loss, grad, np.array([[np.einsum("ij,ij,ij->", p, centred, centred) / n]])

    x, _, loss, _, _ = optim._projected_newton(evaluate, np.ones(1), np.full(1, BETA_MIN), optim.MAX_ITERATIONS)
    beta = BETA_MAX if x[0] >= BETA_MAX or evaluate(np.full(1, BETA_MAX), 0) < loss else x[0]
    return CalibratedModel(TS, {"T": 1.0 / beta, "m": m})


def fit_vs(z, y):
    """Fit vector scaling: per-class scale and bias minimizing mean NLL.

    Newton with no bounds on ``(scale, bias[1:])`` from the identity map,
    on the exact Hessian of :func:`~monocal.transform.sorted_nll_objective`
    (``z * scale + bias`` is a rank map's formula applied by class).
    ``bias[0]`` is pinned at 0: a common shift of the biases leaves the
    softmax unchanged.  The Hessian has ``(2m - 1)**2`` entries, so one
    iteration costs of order ``n * m**2``.
    """
    z = core.validate_logits(z)
    n, m = z.shape
    y = core.validate_labels(y, m, n=n)
    # The objective works on a class-major block and does not copy this view of it.
    s = np.ascontiguousarray(z.T).T

    def params_of(x):
        return x[:m], np.concatenate([[0.0], x[m:]])

    def evaluate(x, order):
        out = sorted_nll_objective(s, y, *params_of(x), DIRECT, order)
        if order == 0:
            return out
        loss, grad_w, grad_b, *hess = out
        return (loss, np.concatenate([grad_w, grad_b[1:]]), *hess)

    x0 = np.concatenate([np.ones(m), np.zeros(m - 1)])
    scale, bias = params_of(optim._projected_newton(evaluate, x0, np.full(2 * m - 1, -np.inf), optim.MAX_ITERATIONS)[0])
    return CalibratedModel(VS, {"scale": scale.copy(), "bias": bias, "m": m})


def ensemble_terms(z, y, temperature):
    """What both ensemble losses read of a calibration set: ``(temperature, true, gram)``.

    The components are ``softmax(z / temperature)``, ``softmax(z)`` and the
    uniform distribution.  ``true`` is the (n, 3) matrix of each sample's
    inner products of the components with its one-hot target, that is its
    true-class probabilities, and ``gram`` the (3, 3) means over samples of
    the components' inner products with each other.
    """
    z = core.validate_logits(z)
    n, m = z.shape
    y = core.validate_labels(y, m, n=n)
    q = np.stack([core.softmax_rows(z / temperature), core.softmax_rows(z), np.full((n, m), 1.0 / m)])
    return temperature, np.einsum("aij,ij->ia", q, core.one_hot(y, m)), np.einsum("aij,bij->ab", q, q) / n


def _ensemble_nll_weights(true):
    """Weights ``v >= 0`` minimizing ``-mean(log(true @ v)) + sum(v)``, by projected Newton.

    Each component is a probability vector, so at the minimum over the
    simplex its constraint's multiplier is 1: this unconstrained-sum problem
    has the same minimizer, and its weights sum to 1 without the constraint.
    The start is the uniform mixture, whose loss is finite.
    """
    n = true.shape[0]

    def evaluate(v, order):
        mix = np.maximum(np.einsum("ij,j->i", true, v), core.LOG_FLOOR)
        loss = float(v.sum() - np.log(mix).mean())
        if order == 0:
            return loss
        ratio = true / mix[:, None]
        grad = 1.0 - ratio.mean(axis=0)
        if order == 1:
            return loss, grad
        return loss, grad, np.einsum("ij,ik->jk", ratio, ratio) / n

    return optim._projected_newton(evaluate, np.full(3, 1.0 / 3.0), np.zeros(3), optim.MAX_ITERATIONS)[0]


def _simplex_quadratic_min(gram, h):
    """The minimizer of ``v @ gram @ v - 2 h @ v`` over the probability simplex in three weights.

    On each face the minimizer over its affine hull solves ``gram_F v_F = h_F
    + mu`` with ``mu`` set by ``sum(v_F) = 1``.  Every face is tried,
    vertices first; a face whose Gram block is singular or whose point
    leaves the simplex is skipped, and the point of least value wins (the
    first one found, on a tie).  A convex quadratic's minimum over the
    simplex lies in the relative interior of some face, so no iteration is
    needed.
    """
    best, best_value = None, np.inf
    for size in (1, 2, 3):
        for face in map(list, itertools.combinations(range(3), size)):
            try:
                a, b = optim._cholesky_solve(gram[np.ix_(face, face)], np.stack([h[face], np.ones(size)], axis=1)).T
            except np.linalg.LinAlgError:
                continue
            v = np.zeros(3)
            v[face] = a + (1.0 - a.sum()) / b.sum() * b
            value = float(np.einsum("i,ij,j->", v, gram, v) - 2.0 * np.einsum("i,i->", h, v))
            if (v >= 0).all() and value < best_value:
                best, best_value = v, value
    return best


def fit_ets(z, y, loss="nll", terms=None):
    """Fit ensemble temperature scaling.

    The mixture of ``softmax(z / T)``, ``softmax(z)`` and the uniform
    distribution takes its temperature from :func:`fit_ts`; its weights are
    then fitted on the probability simplex against the chosen loss, mean
    NLL (by :func:`_ensemble_nll_weights`) or mean squared error to the
    one-hot labels (a quadratic, solved exactly face by face).  ``terms``,
    if given, are :func:`ensemble_terms` of the same calibration set, which
    the fit then reads instead of fitting a temperature and both softmaxes.
    """
    if loss not in ("nll", "mse"):
        raise ValueError("loss must be 'nll' or 'mse'")
    z = core.validate_logits(z)
    n, m = z.shape
    y = core.validate_labels(y, m, n=n)
    if terms is None:
        terms = ensemble_terms(z, y, fit_ts(z, y).payload["T"])
    temperature, true, gram = terms
    if loss == "nll":
        v = _ensemble_nll_weights(true)
    else:
        # mean |v @ q - e_y|^2 = v @ gram @ v - 2 * mean(true) @ v + 1
        v = _simplex_quadratic_min(gram, true.mean(axis=0))
    weights = np.clip(v, 0.0, None)
    weights = weights / weights.sum()
    kind = ETS_NLL if loss == "nll" else ETS_MSE
    return CalibratedModel(kind, {"T": temperature, "weights": weights, "m": m})


def fit_hb(p, y, num_bins=HB_DEFAULT_BINS):
    """Fit top-label histogram binning on a probability matrix.

    Confidences are grouped into ``num_bins`` equal-width bins over (0, 1];
    each bin's calibrated confidence is its empirical accuracy, and empty
    bins fall back to their midpoint.
    """
    p = core.validate_probs(p)
    y = core.validate_labels(y, p.shape[1], n=p.shape[0])
    if num_bins < 1:
        raise ValueError("need num_bins >= 1")
    conf = p.max(axis=1)
    correct = (core.argmax_rows(p) == y).astype(float)
    upper = np.arange(1, num_bins + 1) / num_bins
    idx = np.minimum(np.searchsorted(upper, conf, side="left"), num_bins - 1)
    count = np.bincount(idx, minlength=num_bins)
    hits = np.bincount(idx, weights=correct, minlength=num_bins)
    midpoints = (np.arange(num_bins) + 0.5) / num_bins
    bin_conf = np.where(count > 0, hits / np.maximum(count, 1), midpoints)
    edges = np.concatenate([[0.0], upper])
    return CalibratedModel(HB, {"edges": edges, "bin_confidence": bin_conf, "m": p.shape[1]})


def _apply_binning(p, edges, bin_conf):
    """Replace each row's top-label confidence by its bin value.

    The remaining mass is spread over the non-top classes proportionally to
    their original probabilities (uniformly when those are all zero), and
    rows are renormalized.
    """
    edges = np.asarray(edges, dtype=np.float64)
    bin_conf = np.asarray(bin_conf, dtype=np.float64)
    num_bins = bin_conf.shape[0]
    n, m = p.shape
    conf = p.max(axis=1)
    pred = core.argmax_rows(p)
    idx = np.minimum(np.searchsorted(edges[1:], conf, side="left"), num_bins - 1)
    new_conf = bin_conf[idx]
    rest = 1.0 - conf
    rows = np.arange(n)
    out = np.empty_like(p)
    safe = rest > 1e-12
    factor = np.where(safe, (1.0 - new_conf) / np.where(safe, rest, 1.0), 0.0)
    out[:] = p * factor[:, None]
    uniform_rows = ~safe
    if uniform_rows.any():
        out[uniform_rows] = ((1.0 - new_conf[uniform_rows]) / (m - 1))[:, None]
    out[rows, pred] = new_conf
    return out / out.sum(axis=1, keepdims=True)


def fit_baseline(kind, z, y):
    """Fit one of the baseline calibrators by kind name."""
    if kind == TS:
        return fit_ts(z, y)
    if kind == VS:
        return fit_vs(z, y)
    if kind == HB:
        return fit_hb(core.softmax_rows(z), y)
    if kind in ENSEMBLE_LOSSES:
        return fit_ets(z, y, loss=ENSEMBLE_LOSSES[kind])
    raise ValueError(f"not a baseline kind: {kind!r}")
