"""Calibration-error estimators and ranking-preservation diagnostics.

All estimators work on the top-label confidence: the maximum entry of each
predicted probability row, compared against whether the prediction was
correct.  Three estimators are provided:

* :func:`ece`: equal-width binning, bin-proportion weighted;
* :func:`eq_mass_ece`: equal-count binning, unweighted sum over bins
  (note the ~num_bins-times larger scale);
* :func:`ece_kde`: binning-free kernel estimate, a Gaussian-kernel
  regression of correctness on confidence integrated against the kernel
  density estimate of the confidence distribution (the KDE-ECE of Zhang,
  Kailkhura & Han, ICML 2020).  Its kernel sums are a binned fast Gauss
  transform (Greengard & Strain 1991), exact to rounding; see
  :func:`ece_kde`.

Every metric reads a probability matrix through four numbers per row: its
prediction, its confidence and, given labels, its correctness and its
true-class probability.  :func:`_top_labels` takes them from logits one row
block of about 1 MB (``core.BLOCK_DOUBLES`` entries) at a time, calling a
model's apply (or the softmax, or both on one read of the block) on each
block and validating its probabilities there, so no (n, m) probability
matrix is ever held, nor, from a binary file's block reader, the logits;
:func:`_top_label` takes them from a whole matrix with the same per-row
code.  :func:`compute_report` accepts either in place of a matrix and
passes the one set to every metric function, so its values equal theirs
bitwise.
"""

import math
import warnings
from dataclasses import dataclass, fields

import numpy as np

from . import core, data_io

# Equal-width (and equal-count) confidence bins of a report, and histogram binning's bins, by default.
NUM_BINS = 15


def _json_float(v):
    """``v`` as a JSON number, or None (null) when it is NaN."""
    return None if np.isnan(v) else float(v)


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
        return {
            "lower": [float(v) for v in self.lower],
            "upper": [float(v) for v in self.upper],
            "count": [int(v) for v in self.count],
            "confidence": [_json_float(v) for v in self.confidence],
            "accuracy": [_json_float(v) for v in self.accuracy],
        }

    def to_csv(self):
        names = [f.name for f in fields(self)]
        rows = zip(range(len(self.count)), *(getattr(self, name) for name in names))
        return "".join(map(data_io.csv_line, [["bin", *names], *rows]))


@dataclass(frozen=True)
class _TopLabel:
    """Each row's prediction and confidence from a validated probability matrix of ``shape``.

    ``correct`` (prediction equals label, as floats) and ``picked`` (the
    true-class probability) are set when labels were given.  The metric
    functions accept one in place of ``p``, which is how :func:`compute_report`
    reads each matrix once and how the commands report without holding one.
    """

    shape: tuple
    pred: np.ndarray
    conf: np.ndarray
    correct: np.ndarray = None
    picked: np.ndarray = None


def _row_stats(p, y=None):
    """``(pred, conf, picked)`` of a validated probability matrix; ``picked`` is None without labels.

    ``conf`` is the entry at the prediction, bitwise ``p.max(axis=1)``.
    """
    rows = np.arange(p.shape[0])
    pred = core.argmax_rows(p)
    return pred, p[rows, pred], None if y is None else p[rows, y]


def _labelled(shape, y, pred, conf, picked):
    if y is None:
        return _TopLabel(shape, pred, conf)
    return _TopLabel(shape, pred, conf, (pred == y).astype(float), picked)


def _top_label(p, y=None):
    if isinstance(p, _TopLabel):
        return p
    p = core.validate_probs(p)
    if y is not None:
        y = core.validate_labels(y, p.shape[1], n=p.shape[0])
    return _labelled(p.shape, y, *_row_stats(p, y))


def _top_labels(probs_of, z, y=None, threads=1):
    """:func:`_top_label` of ``probs_of(z)``, computed one row block of the logits ``z`` at a time.

    ``z`` is a logit matrix or a binary file's block reader
    (``data_io.BinaryLogits``); each block is read once and widened to
    float64 (a reader's blocks are float32).  ``probs_of`` maps a logit
    block to its probability rows, checking its finiteness: a model's
    ``apply`` or ``core.softmax_rows``.  It may also be a
    tuple of such functions: then the result is a tuple, one entry per
    function, all taken from the one read of each block.  Each block's
    probabilities are validated, reduced by :func:`_row_stats` and dropped,
    so at most one block of them exists per thread at a time, and the
    result equals the whole matrix's bitwise.  The blocks run on up to
    ``threads`` threads (``core._map_blocks``); the result does not depend
    on how many.
    """
    z = data_io._logit_rows(z)
    n, m = z.shape
    if y is not None:
        y = core.validate_labels(y, m, n=n)
    functions = probs_of if isinstance(probs_of, tuple) else (probs_of,)

    def block_stats(rows):
        block, labels = np.asarray(z[rows], dtype=np.float64), None if y is None else y[rows]
        return [_row_stats(core.validate_probs(f(block)), labels) for f in functions]

    blocks = core._map_blocks(block_stats, z.shape, threads)
    tops = tuple(
        _labelled((n, m), y, *(None if parts[0] is None else np.concatenate(parts) for parts in zip(*stats)))
        for stats in zip(*blocks)
    )
    return tops if isinstance(probs_of, tuple) else tops[0]


def _bin_index(conf, upper):
    """Bin of each confidence among half-open bins (lower, upper], for ece and hb; 0 joins the first bin."""
    return np.minimum(np.searchsorted(upper, conf, side="left"), len(upper) - 1)


def ece(p, y, num_bins=NUM_BINS):
    """Expected calibration error with equal-width confidence bins.

    Returns the bin-proportion-weighted sum of |accuracy - confidence| over
    bins, together with the per-bin statistics.  Empty bins contribute 0.
    """
    if num_bins < 1:
        raise ValueError("need num_bins >= 1")
    top = _top_label(p, y)
    conf, correct = top.conf, top.correct
    n = conf.shape[0]
    upper = np.arange(1, num_bins + 1) / num_bins
    idx = _bin_index(conf, upper)
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
        upper=upper,
        count=count,
        confidence=mean_conf,
        accuracy=accuracy,
    )
    return value, bins


def eq_mass_ece(p, y, num_bins=NUM_BINS):
    """Calibration error with equal-count confidence bins.

    Samples are sorted by confidence and split into ``num_bins`` contiguous
    groups of near-equal size (any remainder goes to the lowest-confidence
    bins); the result is the unweighted sum of |accuracy - confidence| over
    bins.
    """
    top = _top_label(p, y)
    conf, correct = top.conf, top.correct
    n = conf.shape[0]
    if num_bins < 1:
        raise ValueError("need num_bins >= 1")
    if n < num_bins:
        raise ValueError(f"need at least num_bins={num_bins} samples, got {n}")
    total = 0.0
    for chunk in np.array_split(np.argsort(conf, kind="stable"), num_bins):
        total += abs(correct[chunk].mean() - conf[chunk].mean())
    return float(total)


def kde_bandwidth(conf):
    """Rule-of-thumb kernel bandwidth: 1.06 times the sample standard deviation times n^(-1/5)."""
    conf = np.asarray(conf, dtype=np.float64)
    return float(1.06 * conf.std(ddof=1) * conf.shape[0] ** (-1 / 5))


# Kernel sums stop this many bandwidths from each point, where the kernel is
# exp(-9**2 / 2) = 2.6e-18 of its peak.
KDE_CUTOFF = 9.0
# Taylor terms are added until the remainder is below this fraction of every
# kernel value the series stands for.
KDE_TERM_TOL = 1e-17
# Points of the uniform grid the kernel regression is evaluated on.
KDE_GRID_SIZE = 1024


def ece_kde(p, y):
    """Binning-free calibration error via Gaussian-kernel regression.

    Estimates E over the confidence distribution of |confidence -
    P(correct | confidence)|: a Nadaraya-Watson regression of correctness on
    confidence is evaluated on a uniform grid spanning the observed
    confidences and integrated with kernel-density weights.  Falls back to
    |accuracy - mean confidence| (with a warning) when all confidences are
    identical.

    The kernel sums at the grid points are a binned fast Gauss transform,
    exact to rounding, in O(n * terms + grid * reach * terms) instead of
    O(grid * n).  Each confidence is snapped to its nearest grid point ``q``,
    leaving an offset ``f`` of at most half a step.  With ``a`` the grid
    step over the bandwidth, the kernel between grid point ``q + d`` and the
    confidence is ``exp(-a**2 d**2 / 2) * exp(a**2 d f) * exp(-a**2 f**2 / 2)``.
    The middle factor is expanded in a Taylor series; per term, the moments
    of ``f`` at each grid point (``np.bincount``) are convolved with the
    kernel's ``d`` factor (``np.convolve``, direct and deterministic).
    Bounds:

    * the kernel is cut off ``KDE_CUTOFF`` = 9 bandwidths from each point,
      where it is 2.6e-18 of its peak;
    * terms are added until the remainder is below ``KDE_TERM_TOL`` = 1e-17
      of every kernel value it stands for;
    * a bandwidth below two grid steps is handled on a finer grid, ``r``
      points per step with ``a / r <= 1/2``, read off at every ``r``-th
      point.  Then at most 28 terms are needed, and the absolute values of
      the signed terms for one kernel value add up to at most
      ``exp(a**2 * reach) < 116`` times that value.

    Each grid sum is therefore computed to a small relative error, plus at
    most 2.6e-18 per point cut off: low-density grid points keep their
    accuracy, which an FFT convolution's rounding would swamp.  On the test
    patterns the result agrees with the dense ``grid x n`` kernel to within
    3e-13 relative.
    """
    top = _top_label(p, y)
    conf, correct = top.conf, top.correct
    n = conf.shape[0]
    if n < 10:
        raise ValueError(f"kernel estimate needs at least 10 samples, got {n}")
    lo, hi = conf.min(), conf.max()
    if lo == hi:
        warnings.warn("all confidences identical; falling back to |accuracy - mean confidence|")
        return float(abs(correct.mean() - conf.mean()))
    h = kde_bandwidth(conf)
    grid = np.linspace(lo, hi, KDE_GRID_SIZE)
    density, hits = _gauss_sums(conf, correct, lo, (hi - lo) / (KDE_GRID_SIZE - 1), h, KDE_GRID_SIZE)
    covered = density > 0.0
    regression = np.zeros(KDE_GRID_SIZE)
    regression[covered] = hits[covered] / density[covered]
    err = np.abs(grid - regression)
    return float((err[covered] * density[covered]).sum() / density[covered].sum())


def _gauss_sums(x, weights, lo, step, h, size):
    """Gaussian kernel sums ``sum_i K(g, i)`` and ``sum_i weights_i K(g, i)`` on a grid.

    ``K(g, i) = exp(-((lo + g * step - x_i) / h)**2 / 2)`` for ``g`` in
    ``[0, size)``; returns a ``(2, size)`` array.  See :func:`ece_kde` for the
    method and its bounds.
    """
    r = math.ceil(2.0 * step / h)
    a = step / r / h
    fine = (size - 1) * r + 1
    u = (x - lo) * (r / step)
    q = np.rint(u)
    f = u - q
    q = q.astype(np.intp)
    # Offsets past the reach are more than KDE_CUTOFF bandwidths away.
    reach = min(math.ceil(KDE_CUTOFF / a), fine - 1)
    d = np.arange(-reach, reach + 1)
    # |a**2 d f| <= top; the series for exp(y), |y| <= top, cut after `terms`
    # terms errs by at most top**terms / terms! * exp(top) of exp(y).
    top = a * a * reach / 2.0
    terms, remainder = 1, top * math.exp(top)
    while remainder > KDE_TERM_TOL:
        terms += 1
        remainder *= top / terms
    kernel = np.exp(-0.5 * (a * d) ** 2)
    moment = np.exp(-0.5 * (a * f) ** 2)
    sums = np.zeros((2, fine))
    for t in range(terms):
        if t:
            kernel *= (a * a / t) * d
            moment *= f
        for row, w in enumerate((moment, moment * weights)):
            sums[row] += np.convolve(np.bincount(q, w, fine), kernel)[reach : reach + fine]
    return sums[:, ::r]


@dataclass(frozen=True)
class RankingDiagnostics:
    """How much a calibrator moved the per-sample top prediction.

    ``prediction_change_rate`` is over all rows; ``uncertain_alteration_rate``
    is the same fraction restricted to rows whose pre-calibration confidence
    fell below ``UNCERTAIN_CONFIDENCE`` (0 when that set is empty, see
    ``n_uncertain``).
    """

    prediction_change_rate: float
    uncertain_alteration_rate: float
    n_uncertain: int


# Rows whose pre-calibration confidence is below this form the uncertain set.
UNCERTAIN_CONFIDENCE = 0.7


def ranking_diagnostics(p_before, p_after):
    """Fraction of rows whose argmax changed, overall and on low-confidence rows."""
    before = _top_label(p_before)
    after = _top_label(p_after)
    if before.shape != after.shape:
        raise ValueError(f"shape mismatch: {before.shape} vs {after.shape}")
    changed = after.pred != before.pred
    uncertain = before.conf < UNCERTAIN_CONFIDENCE
    n_uncertain = int(uncertain.sum())
    if n_uncertain == 0:
        warnings.warn(f"no rows with confidence below {UNCERTAIN_CONFIDENCE}; uncertain-set rate is 0 by convention")
        uncertain_rate = 0.0
    else:
        uncertain_rate = float(changed[uncertain].mean())
    return RankingDiagnostics(float(changed.mean()), uncertain_rate, n_uncertain)


def accuracy(p, y):
    """Top-label accuracy of a probability matrix."""
    return float(_top_label(p, y).correct.mean())


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
        return {name: _json_float(getattr(self, name)) for name in SCALAR_FIELDS}

    def to_json(self):
        doc = self.scalars()
        doc["bins"] = self.bins.to_json()
        return doc


# The report's scalar fields in order: every field but ``bins``.
SCALAR_FIELDS = tuple(f.name for f in fields(MetricReport) if f.name != "bins")


def compute_report(p, y, p_base, num_bins=NUM_BINS):
    """Full metric report for calibrated probabilities ``p``.

    ``p_base`` holds the pre-calibration probabilities used for the
    ranking-preservation diagnostics.  Either may be given as a matrix or as
    its per-row top-label statistics (from :func:`_top_labels`, which is how
    the commands report without building a probability matrix).  Each
    matrix is validated once and each row's prediction, confidence,
    correctness and true-class probability are taken once, then passed to
    the metric functions, so every value equals theirs bitwise.
    """
    top = _top_label(p, y)
    ece_value, bins = ece(top, y, num_bins)
    n = top.conf.shape[0]
    if n >= num_bins:
        eq_mass = eq_mass_ece(top, y, num_bins)
    else:
        warnings.warn(f"{n} samples is too few for {num_bins} equal-count bins; reporting NaN")
        eq_mass = float("nan")
    if n >= 10:
        kde = ece_kde(top, y)
    else:
        warnings.warn(f"{n} samples is too few for the kernel estimate; reporting NaN")
        kde = float("nan")
    ranking = ranking_diagnostics(p_base, top)
    return MetricReport(
        ece=ece_value,
        eq_mass_ece=eq_mass,
        ece_kde=kde,
        accuracy=accuracy(top, y),
        nll=core._picked_nll(top.picked),
        prediction_change_rate=ranking.prediction_change_rate,
        uncertain_alteration_rate=ranking.uncertain_alteration_rate,
        bins=bins,
    )
