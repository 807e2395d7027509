import concurrent.futures
import sys
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from monocal import baselines, core, data_io, optim, transform


@st.composite
def logit_matrices(draw, max_n=20, max_m=12, scale=10.0):
    n = draw(st.integers(1, max_n))
    m = draw(st.integers(2, max_m))
    flat = draw(
        st.lists(
            st.floats(-scale, scale, allow_nan=False, allow_infinity=False),
            min_size=n * m,
            max_size=n * m,
        )
    )
    return np.array(flat).reshape(n, m)


class TestSoftmax:
    def test_symmetric_row(self):
        out = core.softmax_rows([[0.0, 0.0]])
        assert np.array_equal(out, [[0.5, 0.5]])

    def test_log_two_row(self):
        out = core.softmax_rows([[0.0, np.log(2.0)]])
        np.testing.assert_allclose(out, [[1 / 3, 2 / 3]], rtol=1e-12)

    def test_large_logits_match_shifted(self):
        # Max subtraction turns (1000, 1000, 999) into exactly (0, 0, -1).
        big = core.softmax_rows([[1000.0, 1000.0, 999.0]])
        small = core.softmax_rows([[0.0, 0.0, -1.0]])
        assert np.all(np.isfinite(big))
        np.testing.assert_allclose(big.sum(axis=1), 1.0, atol=1e-9)
        assert np.array_equal(big, small)

    def test_overflow_safety(self):
        out = core.softmax_rows([[900.0, -900.0, 0.0]])
        assert np.all(np.isfinite(out))

    @settings(max_examples=50, deadline=None)
    @given(logit_matrices())
    def test_rows_sum_to_one(self, z):
        out = core.softmax_rows(z)
        np.testing.assert_allclose(out.sum(axis=1), 1.0, atol=1e-9)

    @settings(max_examples=50, deadline=None)
    @given(logit_matrices(), st.floats(-50, 50, allow_nan=False))
    def test_shift_invariance(self, z, shift):
        np.testing.assert_allclose(
            core.softmax_rows(z + shift), core.softmax_rows(z), atol=1e-12
        )

    @settings(max_examples=50, deadline=None)
    @given(st.integers(1, 15), st.integers(2, 10), st.integers(0, 2**32 - 1))
    def test_argmax_commutes(self, n, m, seed):
        # Values on a coarse grid: gaps either zero (consistent tie handling)
        # or large enough to survive exp() rounding.
        z = np.random.default_rng(seed).integers(-40, 40, (n, m)) * 0.25
        assert np.array_equal(
            core.argmax_rows(core.softmax_rows(z)), core.argmax_rows(z)
        )

    def test_rejects_nan(self):
        with pytest.raises(ValueError, match="NaN or infinite"):
            core.softmax_rows([[0.0, np.nan]])

    def test_rejects_single_class(self):
        with pytest.raises(ValueError):
            core.softmax_rows([[1.0]])


def whole_matrix_softmax(z):
    """The unblocked softmax formula, kept as the blocked kernel's oracle."""
    e = np.exp(z - z.max(axis=1, keepdims=True))
    return e / e.sum(axis=1, keepdims=True)


# Rows in a block of a 10-column matrix; PARTIAL_N rows end in a partial block.
BLOCK_ROWS_M10 = core.BLOCK_DOUBLES // 10
PARTIAL_N = 2 * BLOCK_ROWS_M10 + 5


class TestBlockedKernels:
    @pytest.mark.parametrize("n, m", [
        (PARTIAL_N, 10),  # n not a multiple of the block's row count
        (3, core.BLOCK_DOUBLES + 5),  # a row wider than a block: one row per block
        (3 * core.BLOCK_DOUBLES // 2 + 1, 2),
    ])
    def test_softmax_matches_whole_matrix_formula(self, n, m):
        z = np.random.default_rng(n).normal(0, 20, (n, m))
        expected = whole_matrix_softmax(z)
        assert np.array_equal(core.softmax_rows(z), expected)
        out = np.empty_like(z)
        assert core._softmax(z, out) is out
        assert np.array_equal(out, expected)
        assert core._softmax(z, z) is z
        assert np.array_equal(z, expected)

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_softmax_checks_the_last_partial_block(self, value):
        z = np.random.default_rng(1).normal(0, 2, (PARTIAL_N, 10))
        z[-1, 3] = value
        with pytest.raises(ValueError, match="^logit matrix contains NaN or infinite entries$"):
            core.softmax_rows(z)

    @staticmethod
    def probs():
        return core.softmax_rows(np.random.default_rng(2).normal(0, 2, (PARTIAL_N, 10)))

    @pytest.mark.parametrize("value, message", [
        (np.nan, "probability matrix contains NaN or infinite entries"),
        (np.inf, "probability matrix contains NaN or infinite entries"),
        (-np.inf, "probability matrix contains NaN or infinite entries"),
        (1.5, r"probabilities must lie in \[0, 1\]"),
        (-0.25, r"probabilities must lie in \[0, 1\]"),
    ])
    def test_validate_probs_checks_the_last_partial_block(self, value, message):
        p = self.probs()
        p[-1, 3] = value
        with pytest.raises(ValueError, match=f"^{message}$"):
            core.validate_probs(p)

    def test_validate_probs_reports_the_worst_row_sum_of_the_whole_matrix(self):
        p = self.probs()
        p[0] *= 1 + 1e-7
        p[-1] *= 1 + 1e-6
        with pytest.raises(ValueError, match=r"^rows must sum to 1 within 1e-09, worst deviation 1e-06$"):
            core.validate_probs(p)

    def test_validate_probs_checks_in_order_over_the_whole_matrix(self):
        # An out-of-range entry in the first block does not mask a NaN in the last.
        p = self.probs()
        p[0, 0] = 2.0
        p[-1, 3] = np.nan
        with pytest.raises(ValueError, match="NaN or infinite"):
            core.validate_probs(p)
        p[-1, 3] = 0.5
        with pytest.raises(ValueError, match="must lie in"):
            core.validate_probs(p)

    def test_validate_probs_refuses_an_empty_matrix(self):
        with pytest.raises(ValueError, match="at least one row"):
            core.validate_probs(np.zeros((0, 3)))

    def test_validate_probs_returns_its_input(self):
        p = self.probs()
        assert core.validate_probs(p) is p


def refuse_pools(monkeypatch):
    """Make starting a block pool fail."""

    def refuse(*args, **kwargs):
        raise AssertionError("a pool was started")

    monkeypatch.setattr(concurrent.futures, "ThreadPoolExecutor", refuse)


class TestMapBlocks:
    @pytest.mark.parametrize("threads", [1, 2, 3, 8])
    def test_results_come_back_in_block_order(self, monkeypatch, threads):
        monkeypatch.setattr(core, "BLOCK_DOUBLES", 7 * 10)
        blocks = core._map_blocks(lambda rows: range(53)[rows], (53, 10), threads)
        assert blocks == [range(53)[rows] for rows in core._row_blocks((53, 10))]
        assert len(blocks) == 8

    @pytest.mark.parametrize("n, m, threads", [(5, 10, 3), (PARTIAL_N, 10, 1), (PARTIAL_N, 10, 0)])
    def test_one_block_or_one_thread_starts_no_pool(self, monkeypatch, n, m, threads):
        refuse_pools(monkeypatch)
        assert core._map_blocks(lambda rows: rows, (n, m), threads) == list(core._row_blocks((n, m)))

    def test_blocks_writing_their_own_rows_lose_no_update(self, monkeypatch):
        # More threads than cores, switching often: every block's rows and
        # result must come through.
        monkeypatch.setattr(core, "BLOCK_DOUBLES", 2 * 50)
        z = np.random.default_rng(8).normal(0, 1, (2001, 50))
        out = np.empty_like(z)

        def sort_block(rows):
            out[rows] = np.sort(z[rows], axis=1)
            return float(out[rows, -1].sum())

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            maxima = core._map_blocks(sort_block, z.shape, threads=8)
        finally:
            sys.setswitchinterval(interval)
        expected = np.sort(z, axis=1)
        assert np.array_equal(out, expected)
        assert maxima == [float(expected[rows, -1].sum()) for rows in core._row_blocks(z.shape)]

    @pytest.mark.parametrize("threads", [1, 3])
    def test_the_first_failing_block_raises(self, monkeypatch, threads):
        monkeypatch.setattr(core, "BLOCK_DOUBLES", 10)

        def fail_from_block_2(rows):
            if rows.start >= 2:
                raise ValueError(f"block {rows.start}")
            return rows.start

        with pytest.raises(ValueError, match="^block 2$"):
            core._map_blocks(fail_from_block_2, (6, 10), threads)


@pytest.mark.parametrize("check, value, message", [
    (core.validate_logits, np.zeros(3), r"logit matrix must be 2-D \(n, m\), got shape \(3,\)"),
    (core.validate_logits, np.zeros((2, 2, 2)), r"logit matrix must be 2-D \(n, m\), got shape \(2, 2, 2\)"),
    (core.sort_values, np.zeros(3, dtype=np.float32), r"logit matrix must be 2-D \(n, m\), got shape \(3,\)"),
    (lambda y: core.validate_labels(y, 3), np.zeros((2, 1), dtype=int), r"label vector must be 1-D, got shape \(2, 1\)"),
    (core.validate_probs, np.full(3, 1 / 3), r"probability matrix must be 2-D, got shape \(3,\)"),
    (core.validate_probs, np.ones((3, 1)), "probability matrix needs at least 2 classes"),
    (core.argmax_rows, np.zeros(3), r"expected a 2-D matrix, got shape \(3,\)"),
])
def test_refuses_a_wrong_shape(check, value, message):
    with pytest.raises(ValueError, match=message):
        check(value)


class TestNll:
    def test_perfect_prediction_is_zero(self):
        p = np.eye(3)
        assert core.nll(p, [0, 1, 2]) == 0.0

    def test_coin_flip_is_log_two(self):
        assert abs(core.nll([[0.5, 0.5]], [0]) - np.log(2.0)) < 1e-15

    def test_matches_scalar_loop(self):
        rng = np.random.default_rng(11)
        p = core.softmax_rows(rng.normal(0, 2, (3, 4)))
        y = np.array([2, 0, 3])
        expected = 0.0
        for i in range(3):
            expected += -np.log(p[i, y[i]])
        expected /= 3
        assert core.nll(p, y) == pytest.approx(expected, rel=1e-15)

    def test_zero_probability_is_finite(self):
        p = np.array([[1.0, 0.0]])
        value = core.nll(p, [1])
        assert np.isfinite(value) and value > 600  # -log(1e-300)

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError, match="expected 2 labels"):
            core.nll([[0.5, 0.5], [0.5, 0.5]], [0])

    @settings(max_examples=30, deadline=None)
    @given(logit_matrices())
    def test_non_negative(self, z):
        p = core.softmax_rows(z)
        y = np.zeros(z.shape[0], dtype=int)
        assert core.nll(p, y) >= 0.0


class TestSorting:
    def test_simple_row(self):
        s, perm = core.sort_rows([[1.0, 3.0, 2.0]])
        assert np.array_equal(s, [[1.0, 2.0, 3.0]])
        assert np.array_equal(perm, [[0, 2, 1]])

    def test_already_sorted_gives_identity_perm(self):
        s, perm = core.sort_rows([[1.0, 2.0, 3.0]])
        assert np.array_equal(perm, [[0, 1, 2]])

    def test_inverse_of_simple_row(self):
        out = core.inverse_sort_rows(np.array([[1.0, 2.0, 3.0]]), np.array([[0, 2, 1]]))
        assert np.array_equal(out, [[1.0, 3.0, 2.0]])

    def test_identity_perm_unchanged(self):
        z = np.array([[4.0, 5.0, 6.0]])
        assert np.array_equal(core.inverse_sort_rows(z, np.array([[0, 1, 2]])), z)

    def test_shape_mismatch(self):
        with pytest.raises(ValueError, match="shape mismatch"):
            core.inverse_sort_rows(np.ones((1, 3)), np.zeros((2, 3), dtype=int))

    def test_round_trip_many_rows(self):
        rng = np.random.default_rng(7)
        z = rng.normal(0, 5, (100, 9))
        s, perm = core.sort_rows(z)
        assert np.array_equal(core.inverse_sort_rows(s, perm), z)

    @settings(max_examples=60, deadline=None)
    @given(logit_matrices())
    def test_round_trip_property(self, z):
        s, perm = core.sort_rows(z)
        assert np.all(np.diff(s, axis=1) >= 0)
        assert np.array_equal(core.inverse_sort_rows(s, perm), z)

    def test_stable_tie_break(self):
        _, perm = core.sort_rows([[2.0, 1.0, 1.0]])
        assert np.array_equal(perm, [[1, 2, 0]])

    @given(logit_matrices())
    def test_sort_values_matches_sort_rows(self, z):
        s = core.sort_values(z)
        assert np.array_equal(s, core.sort_rows(z)[0])
        # A row-wise sorted matrix is passed on without a second sort.
        assert core.sort_values(s) is s


class TestValidateDistinct:
    def test_distinct_row_clean(self):
        assert core.validate_distinct([[1.0, 2.0, 3.0]]) == []

    def test_tied_row_flagged(self):
        report = core.validate_distinct([[1.0, 1.0, 3.0]])
        assert report == [(0, 1.0)]

    def test_continuous_draws_have_no_ties(self):
        rng = np.random.default_rng(3)
        assert core.validate_distinct(rng.normal(0, 1, (1000, 6))) == []

    def test_reports_each_tied_value(self):
        report = core.validate_distinct([[2.0, 2.0, 5.0, 5.0, 1.0]])
        assert report == [(0, 2.0), (0, 5.0)]
        assert core.validate_distinct([[1.0, 2.0, 2.0, 5.0, 5.0]]) == report


NONFINITE_ROWS = {
    "nan first": [np.nan, 1.0, 2.0, 3.0],
    "nan in an ascending row": [0.0, 1.0, np.nan, 3.0],
    "nan last": [0.0, 1.0, 2.0, np.nan],
    "-inf": [1.0, -np.inf, 2.0, 0.0],
    "+inf": [1.0, np.inf, 2.0, 0.0],
    "sorted -inf": [-np.inf, 0.0, 1.0, 2.0],
    "sorted +inf": [0.0, 1.0, 2.0, np.inf],
}


class TestNonFiniteRows:
    """sort_values finds a non-finite entry at a sorted row's ends, for every caller and float width."""

    CHECKS = {
        "sort_values": core.sort_values,
        "validate_distinct": core.validate_distinct,
        "order_violations": lambda z: transform.order_violations(
            z, transform.MonotoneParams(w=np.ones(4), b=np.zeros(4), mode="direct", m=4)
        ),
    }

    @pytest.mark.parametrize("check", CHECKS)
    @pytest.mark.parametrize("row", NONFINITE_ROWS)
    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    @pytest.mark.parametrize("first", [[0.0, 1.0, 2.0, 3.0], [3.0, 2.0, 1.0, 0.0]], ids=["ascending", "descending"])
    def test_refused(self, check, row, dtype, first):
        # Beside ascending rows the bad row alone decides whether the matrix is sorted.
        z = np.array([first, NONFINITE_ROWS[row], [0.0, 1.0, 2.0, 3.0]], dtype=dtype)
        with pytest.raises(ValueError, match="^logit matrix contains NaN or infinite entries$"):
            self.CHECKS[check](z)

    def test_float32_keeps_its_width_and_its_ties(self):
        rng = np.random.default_rng(5)
        z = np.round(rng.normal(0, 2, (300, 7)), 1).astype(np.float32)
        wide = z.astype(np.float64)
        s = core.sort_values(z)
        assert s.dtype == np.float32 and s.tobytes() == np.sort(z, axis=1).tobytes()
        assert core.sort_values(s) is s
        report = core.validate_distinct(z)
        assert len(report) > 50 and report == core.validate_distinct(wide)
        # Input that is not floating is sorted as float64.
        assert core.sort_values([[2, 1], [0, 3]]).dtype == np.float64


class TestValidateLabels:
    @pytest.mark.parametrize("bad, message", [
        (np.nan, "labels must be finite, got NaN or infinity"),
        (np.inf, "labels must be finite, got NaN or infinity"),
        (-np.inf, "labels must be finite, got NaN or infinity"),
        (1e20, r"labels must lie in \[0, 3\)"),
        (-1e20, r"labels must lie in \[0, 3\)"),
        (3.0, r"labels must lie in \[0, 3\)"),
        (1.5, "labels must be integers"),
    ])
    def test_float_labels_are_checked_before_the_cast(self, bad, message):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            with pytest.raises(ValueError, match=f"^{message}$"):
                core.validate_labels(np.array([0.0, bad, 2.0]), 3)
        assert caught == []


class TestArgmax:
    def test_simple(self):
        assert core.argmax_rows([[0.1, 0.7, 0.2]]) == np.array([1])

    def test_tie_resolves_low(self):
        assert core.argmax_rows([[0.5, 0.5]]) == np.array([0])

    def test_matches_scalar_scan(self):
        rng = np.random.default_rng(19)
        z = rng.normal(0, 1, (50, 7))
        expected = []
        for row in z:
            best, best_v = 0, row[0]
            for j, v in enumerate(row):
                if v > best_v:
                    best, best_v = j, v
            expected.append(best)
        assert np.array_equal(core.argmax_rows(z), expected)


# Every function that takes a labelled logit set, called on (z, y) with any
# other argument it needs.
LABELLED_CALLERS = {
    "fit_mcct": lambda z, y, path: optim.fit_mcct(z, y),
    "fit_ts": lambda z, y, path: baselines.fit_ts(z, y),
    "fit_vs": lambda z, y, path: baselines.fit_vs(z, y),
    "ensemble_terms": lambda z, y, path: baselines.ensemble_terms(
        z, y, baselines.CalibratedModel("ts", {"T": 1.5, "m": 4})
    ),
    "fit_ets": lambda z, y, path: baselines.fit_ets(z, y),
    "split_dataset": lambda z, y, path: data_io.split_dataset(z, y, 0.5, 0),
    "write_dataset": lambda z, y, path: data_io.write_dataset(path, z, y),
}


class TestValidateDataset:
    def test_returns_the_checked_pair(self):
        z, y = core.validate_dataset([[0, 1], [2, 3]], [1.0, 0.0])
        assert z.dtype == np.float64 and y.dtype == np.int64
        assert np.array_equal(z, [[0.0, 1.0], [2.0, 3.0]]) and np.array_equal(y, [1, 0])

    @pytest.mark.parametrize("caller", LABELLED_CALLERS)
    @pytest.mark.parametrize("broken, message", [
        ("nan_logit", "logit matrix contains NaN or infinite entries"),
        ("short_labels", "expected 20 labels, got 19"),
        ("label_too_large", "labels must lie in \\[0, 4\\)"),
    ])
    def test_every_caller_refuses_a_broken_set(self, caller, broken, message, tmp_path):
        rng = np.random.default_rng(0)
        z, y = rng.normal(0, 1, (20, 4)), rng.integers(0, 4, 20)
        if broken == "nan_logit":
            z[3, 2] = np.nan
        elif broken == "short_labels":
            y = y[:-1]
        else:
            y[5] = 4
        path = tmp_path / "data.csv"
        with pytest.raises(ValueError, match=message):
            LABELLED_CALLERS[caller](z, y, str(path))
        assert not path.exists()
