"""Tests for attention pooling, its gradients, and the two regularizers."""

import numpy as np
import pytest

from wtal.attention import (
    AttentionParams,
    attend,
    attention_grads,
    smooth_reg_direct,
    smooth_reg_grad,
    sparsity_reg,
    sparsity_reg_grad,
    uniform_attention,
)
from wtal.dataset import FeatureMatrix
from wtal.errors import ConfigError, ShapeError
from wtal.numerics import finite_diff_grad, grad_rel_error, stable_softmax

import oracles


def _random_instance(rng, d=None, n=None, b=None, r=1):
    d = d or int(rng.integers(2, 7))
    n = n or int(rng.integers(2, 12))
    b = b or int(rng.integers(1, 5))
    x = FeatureMatrix(rng.normal(size=(d, n)))
    p = AttentionParams(rng.normal(size=(b, d)) * 0.7,
                        rng.normal(size=(r, b)) * 0.7)
    return x, p


class TestAttend:
    def test_zero_scorer_gives_uniform_weights(self):
        x = FeatureMatrix(np.arange(8, dtype=np.float64).reshape(2, 4))
        p = AttentionParams(np.zeros((3, 2)), np.ones((1, 3)))
        out = attend(x, p)
        np.testing.assert_allclose(out.a, np.full((1, 4), 0.25), rtol=0, atol=1e-15)
        np.testing.assert_allclose(out.m, x.values.mean(axis=1), rtol=0, atol=1e-15)

    def test_single_frame(self):
        x = FeatureMatrix(np.array([[2.0], [-1.0], [0.5]]))
        rng = np.random.default_rng(0)
        p = AttentionParams(rng.normal(size=(4, 3)), rng.normal(size=(1, 4)))
        out = attend(x, p)
        np.testing.assert_array_equal(out.a, [[1.0]])
        np.testing.assert_array_equal(out.m, x.values[:, 0])

    def test_pool_matches_per_frame_summation(self):
        rng = np.random.default_rng(1)
        x, p = _random_instance(rng, d=3, n=5)
        out = attend(x, p)
        np.testing.assert_allclose(
            out.m, oracles.pool_by_summation(x.values, out.a[0]),
            rtol=0, atol=1e-12)

    def test_weights_are_simplex_rows(self):
        rng = np.random.default_rng(2)
        for mode in ("softmax", "sigmoid"):
            for _ in range(20):
                x, p = _random_instance(rng, r=2)
                out = attend(x, p, mode=mode)
                assert np.all(out.a > 0)
                np.testing.assert_allclose(out.a.sum(axis=1), [1.0, 1.0],
                                           rtol=0, atol=1e-9)

    def test_multi_head_layout(self):
        rng = np.random.default_rng(3)
        x, p = _random_instance(rng, d=4, r=3)
        out = attend(x, p)
        assert out.a.shape == (3, x.n)
        assert out.m.shape == (12,)
        for k in range(3):
            np.testing.assert_allclose(
                out.m[4 * k:4 * (k + 1)],
                oracles.pool_by_summation(x.values, out.a[k]),
                rtol=0, atol=1e-12)
        np.testing.assert_allclose(out.frame_weights, out.a.mean(axis=0),
                                   rtol=0, atol=0)

    def test_argmax_invariant_under_logit_shift(self):
        rng = np.random.default_rng(4)
        x, p = _random_instance(rng)
        out = attend(x, p)
        shifted = stable_softmax(out.logits[0] + 37.5)
        assert int(np.argmax(shifted)) == int(np.argmax(out.a[0]))

    def test_sigmoid_mode_normalizes_scores(self):
        rng = np.random.default_rng(5)
        x, p = _random_instance(rng)
        out = attend(x, p, mode="sigmoid")
        assert np.all(out.scores > 0) and np.all(out.scores < 1)
        np.testing.assert_allclose(out.a, out.scores / out.scores.sum(),
                                   rtol=0, atol=1e-15)

    def test_rejects_unknown_mode(self):
        x = FeatureMatrix(np.zeros((2, 3)))
        p = AttentionParams(np.zeros((2, 2)), np.zeros((1, 2)))
        with pytest.raises(ConfigError):
            attend(x, p, mode="relu")

    def test_rejects_dimension_mismatch(self):
        x = FeatureMatrix(np.zeros((2, 3)))
        p = AttentionParams(np.zeros((2, 5)), np.zeros((1, 2)))
        with pytest.raises(ShapeError):
            attend(x, p)


class TestUniformAttention:
    def test_mean_pooling(self):
        x = FeatureMatrix(np.array([[1.0, 3.0], [0.0, 4.0]]))
        out = uniform_attention(x, r=2)
        np.testing.assert_array_equal(out.a, np.full((2, 2), 0.5))
        np.testing.assert_array_equal(out.m, [2.0, 2.0, 2.0, 2.0])

    def test_zero_gradient_path(self):
        x = FeatureMatrix(np.ones((3, 4)))
        p = AttentionParams(np.ones((2, 3)), np.ones((1, 2)))
        out = uniform_attention(x)
        g_w1, g_w2 = attention_grads(x, p, out, g_m=np.ones(3))
        np.testing.assert_array_equal(g_w1, np.zeros((2, 3)))
        np.testing.assert_array_equal(g_w2, np.zeros((1, 2)))


class TestSmoothness:
    def test_constant_weights_cost_nothing(self):
        assert smooth_reg_direct(np.full(7, 1.0 / 7.0)) == pytest.approx(0.0, abs=1e-18)

    def test_hand_computed_value(self):
        np.testing.assert_allclose(smooth_reg_direct(np.array([0.1, 0.3, 0.6])),
                                   0.13, rtol=0, atol=1e-15)

    def test_spike(self):
        np.testing.assert_allclose(smooth_reg_direct(np.array([0.0, 1.0, 0.0])),
                                   2.0, rtol=0, atol=1e-15)

    def test_single_frame_is_zero(self):
        assert smooth_reg_direct(np.array([1.0])) == 0.0

    def test_quadratic_hand_values(self):
        np.testing.assert_allclose(oracles.smooth_reg_quadratic(np.array([1.0, 0.0])),
                                   1.0, rtol=0, atol=1e-15)
        np.testing.assert_allclose(oracles.smooth_reg_quadratic(np.array([0.5, 0.5])),
                                   0.0, rtol=0, atol=1e-15)

    def test_quadratic_needs_two_frames(self):
        with pytest.raises(ValueError):
            oracles.smooth_reg_quadratic(np.array([1.0]))

    def test_forms_agree_on_random_simplex_vectors(self):
        # the acceptance suite reruns this at scale; keep a smaller guard here
        rng = np.random.default_rng(6)
        for _ in range(200):
            n = int(rng.integers(2, 513))
            a = stable_softmax(rng.normal(size=n) * 3.0)
            direct = smooth_reg_direct(a)
            quad = oracles.smooth_reg_quadratic(a)
            denom = max(abs(direct), 1e-30)
            assert abs(direct - quad) / denom <= 1e-12

    def test_matches_summation_oracle(self):
        rng = np.random.default_rng(7)
        a = rng.normal(size=20)
        np.testing.assert_allclose(smooth_reg_direct(a),
                                   oracles.smooth_by_summation(a),
                                   rtol=0, atol=1e-12)

    def test_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(8)
        a = rng.normal(size=9)
        num = finite_diff_grad(lambda v: smooth_reg_direct(v), a)
        assert grad_rel_error(smooth_reg_grad(a), num) < 1e-6


class TestHeadMatrices:
    def test_regularizers_sum_the_head_rows(self):
        rng = np.random.default_rng(17)
        a = rng.normal(size=(3, 8))
        np.testing.assert_allclose(smooth_reg_direct(a),
                                   sum(smooth_reg_direct(row) for row in a),
                                   rtol=0, atol=1e-14)
        np.testing.assert_allclose(sparsity_reg(a), sum(sparsity_reg(row) for row in a),
                                   rtol=0, atol=1e-14)
        np.testing.assert_array_equal(smooth_reg_grad(a),
                                      np.vstack([smooth_reg_grad(row) for row in a]))
        np.testing.assert_array_equal(sparsity_reg_grad(a),
                                      np.vstack([sparsity_reg_grad(row) for row in a]))
        assert smooth_reg_direct(np.ones((2, 1))) == 0.0
        with pytest.raises(ShapeError):
            smooth_reg_direct(np.zeros((2, 0)))

    @pytest.mark.parametrize("mode", ["softmax", "sigmoid"])
    def test_all_heads_at_once_match_finite_differences(self, mode):
        # every upstream gradient at once, over three heads
        rng = np.random.default_rng(18)
        x, p = _random_instance(rng, d=3, n=6, b=4, r=3)
        g_m = rng.normal(size=9)

        def loss(params):
            out = attend(x, params, mode=mode)
            value = float(out.m @ g_m) + smooth_reg_direct(out.a)
            return value + (sparsity_reg(out.scores) if mode == "sigmoid" else 0.0)

        out = attend(x, p, mode=mode)
        g_scores = sparsity_reg_grad(out.scores) if mode == "sigmoid" else None
        g_w1, g_w2 = attention_grads(x, p, out, g_m=g_m, g_a=smooth_reg_grad(out.a),
                                     g_scores=g_scores)
        num_w1 = finite_diff_grad(lambda v: loss(AttentionParams(v, p.w2)), p.w1)
        num_w2 = finite_diff_grad(lambda v: loss(AttentionParams(p.w1, v)), p.w2)
        assert grad_rel_error(g_w1, num_w1) < 1e-6
        assert grad_rel_error(g_w2, num_w2) < 1e-6


class TestSparsity:
    def test_simplex_weights_sum_to_one(self):
        rng = np.random.default_rng(9)
        a = stable_softmax(rng.normal(size=30))
        np.testing.assert_allclose(sparsity_reg(a), 1.0, rtol=0, atol=1e-9)

    def test_absolute_values(self):
        assert sparsity_reg(np.array([-1.0, 2.0])) == 3.0

    def test_raw_score_value(self):
        np.testing.assert_allclose(sparsity_reg(np.array([0.9, 0.1, 0.05])),
                                   1.05, rtol=0, atol=1e-15)

    def test_gradient_is_sign(self):
        np.testing.assert_array_equal(sparsity_reg_grad(np.array([-0.5, 0.0, 2.0])),
                                      [-1.0, 0.0, 1.0])

    def test_inert_through_softmax(self):
        # L1 of a simplex vector is constant, so the parameter gradient of
        # the penalty must vanish identically.
        rng = np.random.default_rng(10)
        x, p = _random_instance(rng, d=4, n=8, b=3)
        out = attend(x, p)
        g_w1, g_w2 = attention_grads(x, p, out, g_a=sparsity_reg_grad(out.a))
        assert np.linalg.norm(g_w1) <= 1e-9
        assert np.linalg.norm(g_w2) <= 1e-9

    def test_active_through_sigmoid(self):
        rng = np.random.default_rng(11)
        x, p = _random_instance(rng, d=4, n=8, b=3)
        out = attend(x, p, mode="sigmoid")
        g_w1, g_w2 = attention_grads(x, p, out,
                                     g_scores=sparsity_reg_grad(out.scores))
        assert np.linalg.norm(g_w1) > 1e-6
        assert np.linalg.norm(g_w2) > 1e-6


class TestAttentionGrads:
    @pytest.mark.parametrize("mode", ["softmax", "sigmoid"])
    def test_pooled_vector_gradient(self, mode):
        rng = np.random.default_rng(12)
        for _ in range(5):
            x, p = _random_instance(rng, r=2)
            g_m = rng.normal(size=2 * x.d)

            def loss(params):
                out = attend(x, params, mode=mode)
                return float(out.m @ g_m)

            out = attend(x, p, mode=mode)
            g_w1, g_w2 = attention_grads(x, p, out, g_m=g_m)
            num_w1 = finite_diff_grad(
                lambda v: loss(AttentionParams(v, p.w2)), p.w1)
            num_w2 = finite_diff_grad(
                lambda v: loss(AttentionParams(p.w1, v)), p.w2)
            assert grad_rel_error(g_w1, num_w1) < 1e-6
            assert grad_rel_error(g_w2, num_w2) < 1e-6

    @pytest.mark.parametrize("mode", ["softmax", "sigmoid"])
    def test_weight_gradient_through_smoothness(self, mode):
        rng = np.random.default_rng(13)
        x, p = _random_instance(rng)

        def loss(w1_vals):
            out = attend(x, AttentionParams(w1_vals, p.w2), mode=mode)
            return smooth_reg_direct(out.a[0])

        out = attend(x, p, mode=mode)
        g_a = np.vstack([smooth_reg_grad(out.a[0])])
        g_w1, _ = attention_grads(x, p, out, g_a=g_a)
        num = finite_diff_grad(loss, p.w1)
        assert grad_rel_error(g_w1, num) < 1e-6

    def test_sigmoid_score_gradient(self):
        rng = np.random.default_rng(14)
        x, p = _random_instance(rng)

        def loss(w1_vals):
            out = attend(x, AttentionParams(w1_vals, p.w2), mode="sigmoid")
            return sparsity_reg(out.scores)

        out = attend(x, p, mode="sigmoid")
        g_w1, _ = attention_grads(x, p, out,
                                  g_scores=sparsity_reg_grad(out.scores))
        num = finite_diff_grad(loss, p.w1)
        assert grad_rel_error(g_w1, num) < 1e-6

    def test_rejects_score_gradient_in_softmax_mode(self):
        rng = np.random.default_rng(15)
        x, p = _random_instance(rng)
        out = attend(x, p)
        with pytest.raises(ShapeError):
            attention_grads(x, p, out, g_scores=np.ones_like(out.a))

    def test_rejects_wrong_gradient_shapes(self):
        rng = np.random.default_rng(16)
        x, p = _random_instance(rng)
        out = attend(x, p)
        with pytest.raises(ShapeError):
            attention_grads(x, p, out, g_m=np.zeros(x.d + 1))
        with pytest.raises(ShapeError):
            attention_grads(x, p, out, g_a=np.zeros((2, x.n)))
