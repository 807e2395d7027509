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

from . import core, data_io, metrics, optim
from .transform import DIRECT, INVERSE, MonotoneParams, apply_map_topk, json_floats, softmax_nll, sorted_nll_objective

MCCT = "mcct"
MCCT_I = "mcct-i"
TS = "ts"
VS = "vs"
HB = "hb"
ETS_NLL = "ets-nll"
ETS_MSE = "ets-mse"
KINDS = (MCCT, MCCT_I, TS, VS, HB, ETS_NLL, ETS_MSE)
# The monotone-map kinds and the mode each one is applied in.
MONOTONE_MODES = {MCCT: DIRECT, MCCT_I: INVERSE}
# The ensemble kinds and the loss each one fits its weights against.
ENSEMBLE_LOSSES = {ETS_NLL: "nll", ETS_MSE: "mse"}
# The fields of each kind's JSON document besides ``kind`` and ``m``.
_JSON_FIELDS = {
    TS: ("T",),
    VS: ("scale", "bias"),
    HB: ("edges", "bin_confidence"),
    ETS_NLL: ("T", "weights"),
    ETS_MSE: ("T", "weights"),
    **dict.fromkeys(MONOTONE_MODES, ("mode", "k", "w", "b")),
}
# The JSON types of a document's scalar fields, compared exactly: bool is a subclass of int.
_SCALAR_TYPES = {"kind": (str,), "m": (int,), "k": (int,), "T": (int, float)}
# Temperature scaling fits beta = 1 / T within these bounds: T in [1e-3, 1e3].
BETA_MIN, BETA_MAX = 1e-3, 1e3


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
        # (iterations, converged) of the Newton solves that fitted this model, if
        # any (see _solved); the fit's manifest reports them, the model file does not.
        self._solver = None
        self._validate()

    def _validate(self):
        if self.kind in MONOTONE_MODES:
            return  # MonotoneParams has checked the parameters
        p = self.payload
        if self.kind in (TS, ETS_NLL, ETS_MSE) and not p["T"] > 0:
            raise ValueError("temperature must be > 0")
        arrays = {name: np.asarray(p[name], dtype=np.float64) for name in _JSON_FIELDS[self.kind]}
        if not all(np.isfinite(v).all() for v in arrays.values()):
            raise ValueError(f"{self.kind} model parameters must be finite")
        w = arrays.get("weights")
        if w is not None and (w.shape != (3,) or np.any(w < 0) or abs(w.sum() - 1.0) > 1e-9):
            raise ValueError("ensemble weights must be non-negative and sum to 1")
        if self.kind == VS and not arrays["scale"].shape == arrays["bias"].shape == (self.m,):
            raise ValueError(f"vector scaling needs {self.m} scales and {self.m} biases")
        if self.kind == HB:
            edges, conf = arrays["edges"], arrays["bin_confidence"]
            if edges.ndim != 1 or edges.size < 2 or np.any(np.diff(edges) <= 0) or edges[0] != 0.0 or edges[-1] != 1.0:
                raise ValueError("bin edges must strictly increase over [0, 1]")
            if conf.shape != (edges.size - 1,) or np.any(conf < 0) or np.any(conf > 1):
                raise ValueError("histogram binning needs one bin confidence in [0, 1] per bin")

    @property
    def m(self):
        return int(self.payload["m"])

    def apply(self, z):
        """Calibrated probability matrix for a logit matrix."""
        # A monotone map's entries are checked by apply_map_topk; here only its shape.
        z = core._logit_matrix(z) if self.kind in MONOTONE_MODES else core.validate_logits(z)
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
        if not isinstance(doc, dict):
            raise ValueError("model document must be a JSON object")
        for name, types in _SCALAR_TYPES.items():
            if name in doc and type(doc[name]) not in types:
                raise ValueError(f"model field {name!r} must be {' or '.join(t.__name__ for t in types)}, got {doc[name]!r}")
        missing = [name for name in ("kind", "m", *_JSON_FIELDS.get(doc.get("kind"), ())) if name not in doc]
        if missing:
            raise ValueError(f"model document has no {missing[0]!r} field")
        doc = dict(doc)
        kind = doc.pop("kind")
        if kind in MONOTONE_MODES:
            return cls(kind, {"params": MonotoneParams.from_json(doc), "m": doc["m"]})
        # A baseline kind's fields that are not scalars are lists of numbers, and
        # so is any other list the document carries (the payload keeps it).
        lists = set(_JSON_FIELDS.get(kind, ())).difference(_SCALAR_TYPES)
        return cls(kind, {
            key: json_floats(doc, key) if key in lists or type(value) is list else value for key, value in doc.items()
        })

    def save(self, path):
        data_io.write_json(path, self.to_json())

    @classmethod
    def load(cls, path):
        with open(path) as fh:
            return cls.from_json(json.load(fh))


def from_monotone_params(params):
    """Wrap fitted monotone-map parameters as a tagged model."""
    kind = next(kind for kind, mode in MONOTONE_MODES.items() if mode == params.mode)
    return CalibratedModel(kind, {"params": params, "m": params.m})


def _solved(model, *solves):
    """``model`` with its fit's Newton solves, each ``(iterations, converged)``, summed and kept as ``_solver``."""
    if solves:
        model._solver = (sum(i for i, _ in solves), all(c for _, c in solves))
    return model


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
    z, y = core.validate_dataset(z, y)
    n, m = z.shape
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

    x, _, loss, *solve = optim._projected_newton(evaluate, np.ones(1), np.full(1, BETA_MIN), optim.MAX_ITERATIONS)
    beta = BETA_MAX if x[0] >= BETA_MAX or evaluate(np.full(1, BETA_MAX), 0) < loss else x[0]
    return _solved(CalibratedModel(TS, {"T": 1.0 / beta, "m": m}), solve)


def fit_vs(z, y):
    """Fit vector scaling: per-class scale and bias minimizing mean NLL.

    Newton with no bounds on ``(scale, bias[1:])`` from the identity map,
    on the exact Hessian of :func:`~monocal.transform.sorted_nll_objective`
    (``z * scale + bias`` is a rank map's formula applied by class).
    ``bias[0]`` is pinned at 0: a common shift of the biases leaves the
    softmax unchanged.  The Hessian has ``(2m - 1)**2`` entries, so one
    iteration costs of order ``n * m**2``.
    """
    z, y = core.validate_dataset(z, y)
    n, m = z.shape
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
    x, _, _, *solve = optim._projected_newton(evaluate, x0, np.full(2 * m - 1, -np.inf), optim.MAX_ITERATIONS)
    scale, bias = params_of(x)
    return _solved(CalibratedModel(VS, {"scale": scale.copy(), "bias": bias, "m": m}), solve)


def ensemble_terms(z, y, ts):
    """What both ensemble losses read of a calibration set: ``(ts, true, gram)``.

    ``ts`` is the set's fitted temperature-scaling model, returned as is.
    The components are ``softmax(z / T)``, ``softmax(z)`` and the uniform
    distribution.  ``true`` is the (n, 3) matrix of each sample's
    inner products of the components with its one-hot target, that is its
    true-class probabilities, and ``gram`` the (3, 3) means over samples of
    the components' inner products with each other.
    """
    z, y = core.validate_dataset(z, y)
    n, m = z.shape
    q = np.stack([core.softmax_rows(z / ts.payload["T"]), core.softmax_rows(z), np.full((n, m), 1.0 / m)])
    return ts, np.einsum("aij,ij->ia", q, core.one_hot(y, m)), np.einsum("aij,bij->ab", q, q) / n


def _ensemble_nll_weights(true):
    """Weights ``v >= 0`` minimizing ``-mean(log(true @ v)) + sum(v)``, by projected Newton.

    Returns ``(v, (iterations, converged))``.

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

    v, _, _, *solve = optim._projected_newton(evaluate, np.full(3, 1.0 / 3.0), np.zeros(3), optim.MAX_ITERATIONS)
    return v, solve


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
    Either way the fit's solves include the temperature's.
    """
    if loss not in ("nll", "mse"):
        raise ValueError("loss must be 'nll' or 'mse'")
    # fit_ts and ensemble_terms check z and y.
    ts, true, gram = terms or ensemble_terms(z, y, fit_ts(z, y))
    solves = [ts._solver]
    if loss == "nll":
        v, solve = _ensemble_nll_weights(true)
        solves.append(solve)
    else:
        # mean |v @ q - e_y|^2 = v @ gram @ v - 2 * mean(true) @ v + 1
        v = _simplex_quadratic_min(gram, true.mean(axis=0))
    weights = np.clip(v, 0.0, None)
    weights = weights / weights.sum()
    kind = ETS_NLL if loss == "nll" else ETS_MSE
    return _solved(CalibratedModel(kind, {"T": ts.payload["T"], "weights": weights, "m": ts.payload["m"]}), *solves)


def fit_hb(p, y, num_bins=metrics.NUM_BINS):
    """Fit top-label histogram binning on a probability matrix.

    Confidences are grouped into the ``num_bins`` equal-width bins over
    (0, 1] of :func:`monocal.metrics.ece`; each bin's calibrated confidence
    is its empirical accuracy, and empty bins fall back to their midpoint.
    """
    bins = metrics.ece(p, y, num_bins)[1]
    midpoints = (np.arange(num_bins) + 0.5) / num_bins
    bin_conf = np.where(bins.count > 0, bins.accuracy, midpoints)
    edges = np.concatenate([[0.0], bins.upper])
    return CalibratedModel(HB, {"edges": edges, "bin_confidence": bin_conf, "m": np.shape(p)[1]})


def _apply_binning(p, edges, bin_conf):
    """Replace each row's top-label confidence by its bin value.

    The remaining mass is spread over the non-top classes proportionally to
    their original probabilities (uniformly when those are all zero), and
    rows are renormalized.
    """
    edges = np.asarray(edges, dtype=np.float64)
    bin_conf = np.asarray(bin_conf, dtype=np.float64)
    n, m = p.shape
    pred, conf, _ = metrics._row_stats(p)
    new_conf = bin_conf[metrics._bin_index(conf, edges[1:])]
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
