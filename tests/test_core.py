import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from monocal import baselines, core, data_io, optim


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
    "ensemble_terms": lambda z, y, path: baselines.ensemble_terms(z, y, 1.5),
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
