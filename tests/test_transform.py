import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from monocal import core, transform
from monocal.transform import MonotoneParams

from conftest import (
    ROW_PATTERNS,
    patterned_logits,
    random_valid_params,
    reference_nll_objective,
    stable_apply,
    stable_label_positions,
)


def identity_params(m, mode=transform.DIRECT):
    return MonotoneParams(w=np.ones(m), b=np.zeros(m), mode=mode, m=m)


class TestParams:
    def test_direct_requires_nondecreasing_w(self):
        with pytest.raises(ValueError, match="non-decreasing w"):
            MonotoneParams(w=np.array([2.0, 1.0]), b=np.zeros(2), mode="direct", m=2)

    def test_inverse_requires_nonincreasing_w(self):
        with pytest.raises(ValueError, match="non-increasing w"):
            MonotoneParams(w=np.array([1.0, 2.0]), b=np.zeros(2), mode="inverse", m=2)

    def test_w_must_be_positive(self):
        with pytest.raises(ValueError, match="strictly positive"):
            MonotoneParams(w=np.array([0.0, 1.0]), b=np.zeros(2), mode="direct", m=2)

    def test_b_must_be_nondecreasing(self):
        with pytest.raises(ValueError, match="non-decreasing"):
            MonotoneParams(w=np.ones(2), b=np.array([1.0, 0.0]), mode="direct", m=2)

    def test_k_bounds(self):
        with pytest.raises(ValueError, match="2 <= k <= m"):
            MonotoneParams(w=np.ones(3), b=np.zeros(3), mode="direct", m=2)

    @pytest.mark.parametrize("make, message", [
        (lambda: MonotoneParams(w=np.ones(2), b=np.zeros(3), mode="direct", m=4), "1-D vectors of equal length"),
        (lambda: MonotoneParams(w=np.ones((1, 2)), b=np.zeros((1, 2)), mode="direct", m=4), "1-D vectors of equal length"),
        (lambda: MonotoneParams(w=np.array([1.0, np.inf]), b=np.zeros(2), mode="direct", m=4), "parameters must be finite"),
        (lambda: MonotoneParams(w=np.ones(2), b=np.array([0.0, np.nan]), mode="direct", m=4), "parameters must be finite"),
        (
            lambda: MonotoneParams.from_json({"mode": "direct", "m": 4, "k": 3, "w": [1.0, 2.0], "b": [0.0, 1.0]}),
            r"declared k=3 does not match len\(w\)=2",
        ),
    ], ids=["unequal", "not-1-D", "infinite-w", "nan-b", "declared-k"])
    def test_refuses_malformed_vectors(self, make, message):
        with pytest.raises(ValueError, match=message):
            make()

    def test_json_round_trip(self):
        params = MonotoneParams(
            w=np.array([1.5, 0.5]), b=np.array([-1.0, 2.0]), mode="inverse", m=4
        )
        doc = params.to_json()
        assert doc == {"mode": "inverse", "m": 4, "k": 2, "w": [1.5, 0.5], "b": [-1.0, 2.0]}
        back = MonotoneParams.from_json(doc)
        assert np.array_equal(back.w, params.w)
        assert np.array_equal(back.b, params.b)
        assert back.mode == params.mode and back.m == params.m


    def test_in_mode_writes_scales_as_divisors(self):
        params = MonotoneParams(w=np.array([0.5, 3.0]), b=np.array([-1.0, 2.0]), mode="direct", m=4)
        inverse = params.in_mode("inverse")
        assert inverse.mode == "inverse" and inverse.m == 4
        assert np.array_equal(inverse.w, 1.0 / params.w)
        assert np.array_equal(inverse.b, params.b)
        assert params.in_mode("direct") is params

class TestApplyMap:
    def test_identity(self):
        z = np.array([[1.0, 3.0, 2.0]])
        assert np.array_equal(transform.apply_map_topk(z, identity_params(3)), z)

    def test_rank_scaling(self):
        z = np.array([[1.0, 3.0, 2.0]])
        params = MonotoneParams(w=np.array([1.0, 2.0, 3.0]), b=np.zeros(3), mode="direct", m=3)
        assert np.array_equal(transform.apply_map_topk(z, params), [[1.0, 9.0, 4.0]])

    def test_temperature_scaling_equivalence(self):
        # Constant w = 1/2 on (0, ln 2) reproduces temperature 2 exactly.
        z = np.array([[0.0, np.log(2.0)]])
        params = MonotoneParams(w=np.array([0.5, 0.5]), b=np.zeros(2), mode="direct", m=2)
        probs = core.softmax_rows(transform.apply_map_topk(z, params))
        expected = np.array([[1 / (1 + np.sqrt(2)), np.sqrt(2) / (1 + np.sqrt(2))]])
        np.testing.assert_allclose(probs, expected, atol=1e-12)
        np.testing.assert_allclose(probs, core.softmax_rows(z / 2.0), atol=1e-15)

    def test_class_count_mismatch(self):
        with pytest.raises(ValueError, match="m=3"):
            transform.apply_map_topk(np.array([[0.0, 1.0]]), identity_params(3))

    @settings(max_examples=80, deadline=None)
    @given(st.integers(0, 2**32 - 1), st.integers(2, 30), st.sampled_from(transform.MODES))
    def test_order_preserved_on_nonnegative_rows(self, seed, m, mode):
        # Full order preservation is guaranteed when all entries are >= 0.
        rng = np.random.default_rng(seed)
        z = rng.uniform(0.0, 10.0, (4, m))
        params = random_valid_params(rng, m, mode)
        out = transform.apply_map_topk(z, params)
        order_in = np.argsort(z, axis=1, kind="stable")
        for i in range(z.shape[0]):
            transformed_in_input_order = out[i][order_in[i]]
            assert np.all(np.diff(transformed_in_input_order) > 0)
        assert np.array_equal(core.argmax_rows(out), core.argmax_rows(z))

    @settings(max_examples=80, deadline=None)
    @given(st.integers(0, 2**32 - 1), st.integers(2, 30), st.sampled_from(transform.MODES))
    def test_argmax_preserved_when_row_max_nonnegative(self, seed, m, mode):
        rng = np.random.default_rng(seed)
        z = rng.normal(0.0, 3.0, (6, m))
        z -= np.median(z, axis=1, keepdims=True)  # guarantees row max >= 0
        params = random_valid_params(rng, m, mode)
        out = transform.apply_map_topk(z, params)
        assert np.array_equal(core.argmax_rows(out), core.argmax_rows(z))

    def test_negative_pair_counterexample(self):
        # Rescaling can reverse pairs of negative values: the guarantee is
        # conditional, and the diagnostic must report such rows.
        z = np.array([[-10.0, -1.0]])
        params = MonotoneParams(w=np.array([0.1, 2.0]), b=np.zeros(2), mode="direct", m=2)
        out = transform.apply_map_topk(z, params)
        assert out[0, 1] < out[0, 0]  # order reversed
        assert transform.order_violations(z, params) == 1
        assert transform.order_violations(z[:, ::-1], params) == 1
        safe = np.array([[1.0, 10.0]])
        assert transform.order_violations(safe, params) == 0

    def test_ties_are_not_reorders(self):
        # Equal scores may map to any order; the identity map keeps them equal.
        z = np.array([[1.0, 1.0, 3.0], [-2.0, -2.0, -2.0], [0.5, -1.0, 0.5]])
        identity = MonotoneParams(w=np.ones(3), b=np.zeros(3), mode="direct", m=3)
        assert transform.order_violations(z, identity) == 0
        topk = MonotoneParams(w=np.array([1.0, 2.0]), b=np.array([0.0, 1.0]), mode="direct", m=3)
        assert transform.order_violations(np.abs(z), topk) == 0

    def test_reversal_across_a_tie_group(self):
        # In each row the reversed pair is not a neighbour pair.  Ranks 0 and
        # 2: -3 < -2 maps to -3 > -4, while the tied -2 at rank 1 maps above -3.
        params = MonotoneParams(w=np.array([1.0, 1.0, 2.0]), b=np.zeros(3), mode="direct", m=3)
        assert transform.order_violations(np.array([[-3.0, -2.0, -2.0]]), params) == 1
        # Ranks 0 and 2: -2 < -1 maps to -2 > -2.5, while the tied -2 at rank 1
        # maps below -2.5.
        params = MonotoneParams(w=np.array([1.0, 2.5, 2.5]), b=np.zeros(3), mode="direct", m=3)
        assert transform.order_violations(np.array([[-2.0, -2.0, -1.0]]), params) == 1

    @settings(max_examples=60, deadline=None)
    @given(
        st.integers(0, 2**32 - 1),
        st.integers(3, 12),
        st.sampled_from(transform.MODES),
        st.sampled_from(ROW_PATTERNS),
        st.data(),
    )
    def test_order_violations_match_pairwise_oracle(self, seed, m, mode, pattern, data):
        rng = np.random.default_rng(seed)
        k = data.draw(st.integers(2, m))
        z = patterned_logits(rng, 8, m, k, pattern)
        params = random_valid_params(rng, k, mode, m_total=m)
        out = transform.apply_map_topk(z, params)
        below = z[:, :, None] < z[:, None, :]
        expected = int((below & (out[:, :, None] >= out[:, None, :])).any(axis=(1, 2)).sum())
        assert transform.order_violations(z, params) == expected

    @settings(max_examples=40, deadline=None)
    @given(st.integers(0, 2**32 - 1), st.integers(2, 12))
    def test_mode_equivalence(self, seed, m):
        # Direct (w, b) and inverse (1/w, b) are the same map.
        rng = np.random.default_rng(seed)
        z = rng.normal(0, 2, (5, m))
        w = np.sort(rng.uniform(0.2, 4.0, m))
        b = np.sort(rng.normal(0, 1, m))
        direct = MonotoneParams(w=w, b=b, mode="direct", m=m)
        inverse = MonotoneParams(w=1.0 / w, b=b, mode="inverse", m=m)
        np.testing.assert_allclose(
            transform.apply_map_topk(z, direct), transform.apply_map_topk(z, inverse), atol=1e-12
        )


class TestObjective:
    def test_identity_transform_is_plain_nll(self):
        z = np.array([[0.0, 0.1]])
        y = np.array([0])
        loss, grad_w, grad_b = transform.sorted_nll_objective(
            np.sort(z, axis=1), transform.label_positions(z, y), np.ones(2), np.zeros(2), transform.DIRECT
        )
        p = core.softmax_rows(z)
        assert loss == pytest.approx(-np.log(p[0, 0]), rel=1e-15)
        # Sorted order is already ascending, so the permuted target is (1, 0).
        np.testing.assert_allclose(grad_b, p[0] - np.array([1.0, 0.0]), atol=1e-15)
        np.testing.assert_allclose(grad_w, z[0] * (p[0] - np.array([1.0, 0.0])), atol=1e-15)

    def test_inverse_at_unit_w_matches_direct(self):
        rng = np.random.default_rng(2)
        z = rng.normal(0, 1, (6, 4))
        y = rng.integers(0, 4, 6)
        s, y_pos = np.sort(z, axis=1), transform.label_positions(z, y)
        loss_d = transform.sorted_nll_objective(s, y_pos, np.ones(4), np.zeros(4), "direct")[0]
        loss_i = transform.sorted_nll_objective(s, y_pos, np.ones(4), np.zeros(4), "inverse")[0]
        assert loss_d == loss_i

    @pytest.mark.parametrize("mode", transform.MODES)
    def test_gradients_match_finite_differences(self, mode):
        rng = np.random.default_rng(17)
        step = 1e-6
        for _ in range(25):
            n = int(rng.integers(2, 50))
            m = int(rng.integers(2, 10))
            s = np.sort(rng.normal(0, 2, (n, m)), axis=1)
            pos = rng.integers(0, m, n)
            w = np.sort(rng.uniform(0.2, 3.0, m))
            if mode == "inverse":
                w = w[::-1].copy()
            b = np.sort(rng.normal(0, 0.5, m))
            _, grad_w, grad_b = transform.sorted_nll_objective(s, pos, w, b, mode)
            for grad, vec in ((grad_w, w), (grad_b, b)):
                fd = np.empty(m)
                for j in range(m):
                    hi, lo = vec.copy(), vec.copy()
                    hi[j] += step
                    lo[j] -= step
                    if vec is w:
                        f_hi = transform.sorted_nll_objective(s, pos, hi, b, mode)[0]
                        f_lo = transform.sorted_nll_objective(s, pos, lo, b, mode)[0]
                    else:
                        f_hi = transform.sorted_nll_objective(s, pos, w, hi, mode)[0]
                        f_lo = transform.sorted_nll_objective(s, pos, w, lo, mode)[0]
                    fd[j] = (f_hi - f_lo) / (2 * step)
                rel = np.abs(grad - fd).max() / max(np.abs(fd).max(), 1e-8)
                assert rel <= 1e-5

    @pytest.mark.parametrize("mode", transform.MODES)
    def test_class_major_kernel_matches_reference(self, mode):
        # The objective works on the (k, n) transpose, copied from a row-major
        # block or read through the transpose view of a class-major one; the
        # row-major reference computes the same sums in another order.
        rng = np.random.default_rng(18)
        for _ in range(25):
            n = int(rng.integers(2, 400))
            m = int(rng.integers(2, 12))
            s = np.sort(rng.normal(0, 3, (n, m)), axis=1)
            pos = rng.integers(0, m, n)
            w = np.sort(rng.uniform(0.2, 3.0, m))
            if mode == "inverse":
                w = w[::-1].copy()
            b = np.sort(rng.normal(0, 1.0, m))
            want = reference_nll_objective(s, pos, w, b, mode)
            got = transform.sorted_nll_objective(s, pos, w, b, mode)
            S = np.ascontiguousarray(s.T)
            kernel = transform.sorted_nll_objective(S.T, pos, w, b, mode)
            assert got[0] == kernel[0]
            assert all(np.array_equal(g, k) for g, k in zip(got[1:], kernel[1:]))
            assert got[0] == pytest.approx(want[0], rel=1e-12, abs=1e-12)
            for g, r in zip(got[1:], want[1:]):
                np.testing.assert_allclose(g, r, rtol=1e-12, atol=1e-12)
            if mode == "direct":
                # The loss and gradient do not depend on the order asked for.
                full = transform.sorted_nll_objective(S.T, pos, w, b, mode, order=2)
                assert full[0] == got[0] == transform.sorted_nll_objective(S.T, pos, w, b, mode, order=0)
                assert all(np.array_equal(g, f) for g, f in zip(got[1:], full[1:3]))

    def test_hessian_matches_finite_differences(self):
        # The Hessian over (w, b[1:]) against central differences of the
        # analytic gradient, at random feasible points (as criterion 2 does
        # for the gradient).
        rng = np.random.default_rng(19)
        step = 1e-6
        worst = 0.0
        for _ in range(40):
            n = int(rng.integers(2, 60))
            k = int(rng.integers(2, 11))
            S = np.ascontiguousarray(np.sort(rng.normal(0, 2, (n, k)), axis=1).T)
            pos = rng.integers(0, k, n)

            def gradient(theta):
                b = np.concatenate([[0.0], theta[k:]])
                _, gw, gb = transform.sorted_nll_objective(S.T, pos, theta[:k], b, "direct")
                return np.concatenate([gw, gb[1:]])

            theta = np.concatenate([np.sort(rng.uniform(0.2, 3.0, k)), np.sort(rng.normal(0, 0.5, k - 1))])
            hess = transform.sorted_nll_objective(S.T, pos, theta[:k], np.concatenate([[0.0], theta[k:]]), "direct", 2)[3]
            fd = np.empty_like(hess)
            for j in range(2 * k - 1):
                e = np.zeros(2 * k - 1)
                e[j] = step
                fd[:, j] = (gradient(theta + e) - gradient(theta - e)) / (2 * step)
            worst = max(worst, np.abs(hess - fd).max() / max(np.abs(fd).max(), 1e-8))
            assert np.array_equal(hess, hess.T)
        assert worst <= 1e-5

    def test_hessian_is_direct_mode_only(self):
        with pytest.raises(ValueError, match="direct mode only"):
            transform.sorted_nll_objective(np.zeros((1, 2)), np.array([0]), np.ones(2), np.zeros(2), "inverse", 2)

    def test_rejects_nonpositive_w(self):
        with pytest.raises(ValueError, match="strictly positive"):
            transform.sorted_nll_objective(
                np.zeros((1, 2)), np.array([0]), np.array([1.0, 0.0]), np.zeros(2), "inverse"
            )


class TestTopK:
    def test_k_equals_m_matches_full_map(self):
        rng = np.random.default_rng(23)
        z = rng.normal(0, 2, (40, 10))
        params = random_valid_params(rng, 10, "direct")
        expected = np.empty_like(z)
        for i, row in enumerate(z):
            order = np.argsort(row)
            expected[i, order] = row[order] * params.w + params.b
        assert np.array_equal(transform.apply_map_topk(z, params), expected)

    def test_hand_example(self):
        # m=4, k=2: top two ranks get (1, 2); everything below gets w[0]=1.
        z = np.array([[1.0, 2.0, 3.0, 4.0]])
        params = MonotoneParams(w=np.array([1.0, 2.0]), b=np.zeros(2), mode="direct", m=4)
        assert np.array_equal(transform.apply_map_topk(z, params), [[1.0, 2.0, 3.0, 8.0]])

    def test_low_ranks_use_first_entries(self):
        rng = np.random.default_rng(29)
        z = rng.uniform(0, 5, (20, 6))
        params = MonotoneParams(
            w=np.array([0.5, 1.0, 2.0]), b=np.array([-1.0, 0.0, 1.0]), mode="direct", m=6
        )
        manual_w = np.array([0.5, 0.5, 0.5, 0.5, 1.0, 2.0])
        manual_b = np.array([-1.0, -1.0, -1.0, -1.0, 0.0, 1.0])
        s, perm = core.sort_rows(z)
        expected = core.inverse_sort_rows(s * manual_w + manual_b, perm)
        assert np.array_equal(transform.apply_map_topk(z, params), expected)

    @settings(max_examples=150, deadline=None)
    @given(
        st.integers(0, 2**32 - 1),
        st.integers(3, 30),
        st.sampled_from(("two", "m-1", "between")),
        st.sampled_from(transform.MODES),
        st.sampled_from(ROW_PATTERNS),
        st.booleans(),
    )
    def test_partitioned_apply_matches_stable_full_sort(self, seed, m, k_choice, mode, pattern, zero_bias):
        rng = np.random.default_rng(seed)
        k = {"two": 2, "m-1": m - 1, "between": int(rng.integers(2, m))}[k_choice]
        z = patterned_logits(rng, 20, m, k, pattern)
        params = random_valid_params(rng, k, mode, m_total=m)
        if zero_bias:
            # A -0.0 bias keeps the sign of a transformed zero, so a zero
            # given to the wrong column shows in the bytes.
            params = MonotoneParams(w=params.w, b=np.full(k, -0.0), mode=mode, m=m)
        out = transform.apply_map_topk(z, params)
        assert out.tobytes() == stable_apply(z, params).tobytes()


class TestTruncation:
    def test_k_equal_m_keeps_everything(self):
        rng = np.random.default_rng(31)
        s = np.sort(rng.normal(0, 1, (12, 5)), axis=1)
        pos = rng.integers(0, 5, 12)
        out_s, out_pos, dropped = transform.truncate_training_set(s, pos, 5)
        assert np.array_equal(out_s, s)
        assert np.array_equal(out_pos, pos)
        assert dropped == 0

    def test_top_rank_always_retained(self):
        s = np.sort(np.random.default_rng(5).normal(0, 1, (8, 6)), axis=1)
        pos = np.full(8, 5)  # true class is the argmax everywhere
        for k in range(2, 7):
            _, out_pos, dropped = transform.truncate_training_set(s, pos, k)
            assert dropped == 0
            assert np.all(out_pos == k - 1)

    def test_dropped_count_matches_brute_force(self):
        rng = np.random.default_rng(37)
        n, m, k = 200, 9, 4
        s = np.sort(rng.normal(0, 1, (n, m)), axis=1)
        pos = rng.integers(0, m, n)
        out_s, out_pos, dropped = transform.truncate_training_set(s, pos, k)
        expected_drop = sum(1 for p in pos if p < m - k)
        assert dropped == expected_drop
        assert out_s.shape == (n - expected_drop, k)
        assert np.all((out_pos >= 0) & (out_pos < k))

    def test_k_too_small(self):
        with pytest.raises(ValueError, match="2 <= k <= m"):
            transform.truncate_training_set(np.zeros((2, 4)), np.zeros(2, dtype=int), 1)


class TestLabelPositions:
    def test_positions_point_at_true_class(self):
        rng = np.random.default_rng(41)
        z = rng.normal(0, 1, (30, 7))
        y = rng.integers(0, 7, 30)
        s, perm = core.sort_rows(z)
        pos = transform.label_positions(z, y)
        assert np.array_equal(pos, stable_label_positions(z, y))
        for i in range(30):
            assert perm[i, pos[i]] == y[i]
            assert s[i, pos[i]] == z[i, y[i]]

    def test_tie_heavy_integer_logits(self):
        # Five values over 9 columns: most labels tie with another entry, in
        # a lower column, a higher one or both; signed zeros tie too.
        rng = np.random.default_rng(43)
        z = rng.integers(-2, 3, (400, 9)).astype(np.float64)
        z[z == 0] = rng.choice([-0.0, 0.0], size=int((z == 0).sum()))
        y = rng.integers(0, 9, 400)
        pos = transform.label_positions(z, y)
        assert (np.count_nonzero(z == z[np.arange(400), y][:, None], axis=1) > 1).mean() > 0.75
        assert pos.dtype == np.int64
        assert pos.tobytes() == stable_label_positions(z, y).tobytes()

    @settings(max_examples=60, deadline=None)
    @given(st.integers(0, 2**32 - 1), st.integers(3, 30), st.sampled_from(ROW_PATTERNS))
    def test_matches_stable_sort_oracle(self, seed, m, pattern):
        rng = np.random.default_rng(seed)
        z = patterned_logits(rng, 16, m, int(rng.integers(2, m)), pattern)
        y = rng.integers(0, m, 16)
        assert np.array_equal(transform.label_positions(z, y), stable_label_positions(z, y))
