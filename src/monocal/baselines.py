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
"""

import json

import numpy as np
from scipy.optimize import minimize, minimize_scalar

from . import core
from .transform import DIRECT, INVERSE, MonotoneParams, apply_map_topk

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
    """Fit temperature scaling: the scalar T > 0 minimizing mean NLL of softmax(z / T)."""
    z = core.validate_logits(z)
    y = core.validate_labels(y, z.shape[1], n=z.shape[0])

    def nll_at(t):
        return core._nll(core.softmax_rows(z / t), y)

    res = minimize_scalar(nll_at, bounds=(1e-3, 1e3), method="bounded", options={"xatol": 1e-6})
    return CalibratedModel(TS, {"T": float(res.x), "m": z.shape[1]})


def fit_vs(z, y):
    """Fit vector scaling: per-class scale and bias minimizing mean NLL."""
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
    return CalibratedModel(VS, {"scale": res.x[:m].copy(), "bias": res.x[m:].copy(), "m": m})


def fit_ets(z, y, loss="nll"):
    """Fit ensemble temperature scaling.

    The temperature is taken from :func:`fit_ts` first; the three mixture
    weights are then fitted on the probability simplex against the chosen
    loss (mean NLL or mean squared error to the one-hot labels).
    """
    if loss not in ("nll", "mse"):
        raise ValueError("loss must be 'nll' or 'mse'")
    z = core.validate_logits(z)
    n, m = z.shape
    y = core.validate_labels(y, m, n=n)
    temperature = fit_ts(z, y).payload["T"]
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
    if kind == ETS_NLL:
        return fit_ets(z, y, loss="nll")
    if kind == ETS_MSE:
        return fit_ets(z, y, loss="mse")
    raise ValueError(f"not a baseline kind: {kind!r}")
