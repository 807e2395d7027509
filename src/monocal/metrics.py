"""Calibration-error estimators and ranking-preservation diagnostics.

All estimators work on the top-label confidence: the maximum entry of each
predicted probability row, compared against whether the prediction was
correct.  Three estimators are provided:

* :func:`ece`: equal-width binning, bin-proportion weighted;
* :func:`eq_mass_ece`: equal-count binning, unweighted sum over bins
  (note the ~num_bins-times larger scale);
* :func:`ece_kde`: binning-free kernel estimate, a Gaussian-kernel
  regression of correctness on confidence integrated against the kernel
  density estimate of the confidence distribution.
"""

import warnings
from dataclasses import dataclass

import numpy as np

from . import core


@dataclass(frozen=True)
class BinStats:
    """Per-bin statistics behind the equal-width ECE and reliability diagrams.

    Empty bins carry count 0 and NaN confidence/accuracy.
    """

    lower: np.ndarray
    upper: np.ndarray
    count: np.ndarray
    confidence: np.ndarray
    accuracy: np.ndarray

    def to_json(self):
        def col(a):
            return [None if np.isnan(v) else float(v) for v in a]

        return {
            "lower": [float(v) for v in self.lower],
            "upper": [float(v) for v in self.upper],
            "count": [int(v) for v in self.count],
            "confidence": col(self.confidence),
            "accuracy": col(self.accuracy),
        }

    def to_csv(self):
        lines = ["bin,lower,upper,count,confidence,accuracy"]
        for i in range(len(self.count)):
            lines.append(
                f"{i},{float(self.lower[i])!r},{float(self.upper[i])!r},{int(self.count[i])},"
                f"{float(self.confidence[i])!r},{float(self.accuracy[i])!r}"
            )
        return "\n".join(lines) + "\n"


def _confidence_and_correct(p, y):
    p = core.validate_probs(p)
    y = core.validate_labels(y, p.shape[1], n=p.shape[0])
    return p.max(axis=1), (core.argmax_rows(p) == y).astype(float)


def _bin_index(conf, num_bins):
    # Half-open bins ((k-1)/K, k/K]; a confidence of exactly 0 joins bin 1.
    upper = np.arange(1, num_bins + 1) / num_bins
    return np.minimum(np.searchsorted(upper, conf, side="left"), num_bins - 1)


def ece(p, y, num_bins=15):
    """Expected calibration error with equal-width confidence bins.

    Returns the bin-proportion-weighted sum of |accuracy - confidence| over
    bins, together with the per-bin statistics.  Empty bins contribute 0.
    """
    if num_bins < 1:
        raise ValueError("need num_bins >= 1")
    conf, correct = _confidence_and_correct(p, y)
    n = conf.shape[0]
    idx = _bin_index(conf, num_bins)
    count = np.bincount(idx, minlength=num_bins)
    conf_sum = np.bincount(idx, weights=conf, minlength=num_bins)
    hit_sum = np.bincount(idx, weights=correct, minlength=num_bins)
    mean_conf = np.full(num_bins, np.nan)
    accuracy = np.full(num_bins, np.nan)
    nonempty = count > 0
    mean_conf[nonempty] = conf_sum[nonempty] / count[nonempty]
    accuracy[nonempty] = hit_sum[nonempty] / count[nonempty]
    value = float(
        ((count[nonempty] / n) * np.abs(accuracy[nonempty] - mean_conf[nonempty])).sum()
    )
    bins = BinStats(
        lower=np.arange(num_bins) / num_bins,
        upper=np.arange(1, num_bins + 1) / num_bins,
        count=count,
        confidence=mean_conf,
        accuracy=accuracy,
    )
    return value, bins


def reliability_data(p, y, num_bins=15):
    """Per-bin (count, mean confidence, accuracy) for external plotting."""
    return ece(p, y, num_bins)[1]


def eq_mass_ece(p, y, num_bins=15):
    """Calibration error with equal-count confidence bins.

    Samples are sorted by confidence and split into ``num_bins`` contiguous
    groups of near-equal size (any remainder goes to the lowest-confidence
    bins); the result is the unweighted sum of |accuracy - confidence| over
    bins.
    """
    conf, correct = _confidence_and_correct(p, y)
    n = conf.shape[0]
    if num_bins < 1:
        raise ValueError("need num_bins >= 1")
    if n < num_bins:
        raise ValueError(f"need at least num_bins={num_bins} samples, got {n}")
    order = np.argsort(conf, kind="stable")
    q, r = divmod(n, num_bins)
    sizes = np.full(num_bins, q)
    sizes[:r] += 1
    total = 0.0
    start = 0
    for size in sizes:
        chunk = order[start : start + size]
        total += abs(correct[chunk].mean() - conf[chunk].mean())
        start += size
    return float(total)


def kde_bandwidth(conf):
    """Rule-of-thumb kernel bandwidth: 1.06 times the sample standard deviation times n^(-1/5)."""
    conf = np.asarray(conf, dtype=np.float64)
    return float(1.06 * conf.std(ddof=1) * conf.shape[0] ** (-1 / 5))


def ece_kde(p, y, grid_size=1024):
    """Binning-free calibration error via Gaussian-kernel regression.

    Estimates E over the confidence distribution of |confidence -
    P(correct | confidence)|: a Nadaraya-Watson regression of correctness on
    confidence is evaluated on a uniform grid spanning the observed
    confidences and integrated with kernel-density weights.  Falls back to
    |accuracy - mean confidence| (with a warning) when all confidences are
    identical.
    """
    conf, correct = _confidence_and_correct(p, y)
    n = conf.shape[0]
    if n < 10:
        raise ValueError(f"kernel estimate needs at least 10 samples, got {n}")
    if conf.max() == conf.min():
        warnings.warn("all confidences identical; falling back to |accuracy - mean confidence|")
        return float(abs(correct.mean() - conf.mean()))
    h = kde_bandwidth(conf)
    grid = np.linspace(conf.min(), conf.max(), grid_size)
    density = np.empty(grid_size)
    hits = np.empty(grid_size)
    # Chunked so each (grid, n) kernel temporary stays near 1 MB.  At 32 MB
    # every temporary was page-faulted in afresh, which doubled the time.
    chunk = max(1, 131_072 // n)
    for start in range(0, grid_size, chunk):
        g = grid[start : start + chunk, None]
        k = np.exp(-0.5 * ((g - conf[None, :]) / h) ** 2)
        density[start : start + chunk] = k.sum(axis=1)
        hits[start : start + chunk] = (k * correct[None, :]).sum(axis=1)
    covered = density > 0.0
    regression = np.zeros(grid_size)
    regression[covered] = hits[covered] / density[covered]
    err = np.abs(grid - regression)
    return float((err[covered] * density[covered]).sum() / density[covered].sum())


@dataclass(frozen=True)
class RankingDiagnostics:
    """How much a calibrator moved the per-sample top prediction.

    ``prediction_change_rate`` is over all rows; ``uncertain_alteration_rate``
    is the same fraction restricted to rows whose pre-calibration confidence
    fell below the threshold (0 when that set is empty, see ``n_uncertain``).
    """

    prediction_change_rate: float
    uncertain_alteration_rate: float
    n_uncertain: int


def ranking_diagnostics(p_before, p_after, threshold=0.7):
    """Fraction of rows whose argmax changed, overall and on low-confidence rows."""
    p_before = core.validate_probs(p_before)
    p_after = core.validate_probs(p_after)
    if p_before.shape != p_after.shape:
        raise ValueError(f"shape mismatch: {p_before.shape} vs {p_after.shape}")
    changed = core.argmax_rows(p_after) != core.argmax_rows(p_before)
    uncertain = p_before.max(axis=1) < threshold
    n_uncertain = int(uncertain.sum())
    if n_uncertain == 0:
        warnings.warn(f"no rows with confidence below {threshold}; uncertain-set rate is 0 by convention")
        uncertain_rate = 0.0
    else:
        uncertain_rate = float(changed[uncertain].mean())
    return RankingDiagnostics(float(changed.mean()), uncertain_rate, n_uncertain)


def accuracy(p, y):
    """Top-label accuracy of a probability matrix."""
    conf_correct = _confidence_and_correct(p, y)[1]
    return float(conf_correct.mean())


@dataclass(frozen=True)
class MetricReport:
    """All calibration metrics for one method on one evaluation set.

    ``eq_mass_ece`` / ``ece_kde`` are NaN when the set is too small for
    them (fewer samples than bins, or fewer than 10).
    """

    ece: float
    eq_mass_ece: float
    ece_kde: float
    accuracy: float
    nll: float
    prediction_change_rate: float
    uncertain_alteration_rate: float
    bins: BinStats

    def scalars(self):
        def clean(v):
            return None if np.isnan(v) else float(v)

        return {
            "ece": float(self.ece),
            "eq_mass_ece": clean(self.eq_mass_ece),
            "ece_kde": clean(self.ece_kde),
            "accuracy": float(self.accuracy),
            "nll": float(self.nll),
            "prediction_change_rate": float(self.prediction_change_rate),
            "uncertain_alteration_rate": float(self.uncertain_alteration_rate),
        }

    def to_json(self):
        doc = self.scalars()
        doc["bins"] = self.bins.to_json()
        return doc


def compute_report(p, y, p_base, num_bins=15):
    """Full metric report for calibrated probabilities ``p``.

    ``p_base`` holds the pre-calibration probabilities used for the
    ranking-preservation diagnostics.
    """
    ece_value, bins = ece(p, y, num_bins)
    n = np.asarray(p).shape[0]
    if n >= num_bins:
        eq_mass = eq_mass_ece(p, y, num_bins)
    else:
        warnings.warn(f"{n} samples is too few for {num_bins} equal-count bins; reporting NaN")
        eq_mass = float("nan")
    if n >= 10:
        kde = ece_kde(p, y)
    else:
        warnings.warn(f"{n} samples is too few for the kernel estimate; reporting NaN")
        kde = float("nan")
    ranking = ranking_diagnostics(p_base, p)
    return MetricReport(
        ece=ece_value,
        eq_mass_ece=eq_mass,
        ece_kde=kde,
        accuracy=accuracy(p, y),
        nll=core.nll(p, y),
        prediction_change_rate=ranking.prediction_change_rate,
        uncertain_alteration_rate=ranking.uncertain_alteration_rate,
        bins=bins,
    )
