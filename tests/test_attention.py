"""Tests for attention pooling, its gradients, and the two regularizers."""

import math

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
from wtal.dataset import FeatureMatrix, Stream
from wtal.errors import ConfigError, ShapeError
from wtal.numerics import finite_diff_grad, grad_rel_error, stable_softmax
from wtal.training import Model, TrainConfig

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
        np.testing.assert_allclose(out.m[0], x.values.mean(axis=1), rtol=0, atol=1e-15)

    def test_single_frame(self):
        x = FeatureMatrix(np.array([[2.0], [-1.0], [0.5]]))
        rng = np.random.default_rng(0)
        p = AttentionParams(rng.normal(size=(4, 3)), rng.normal(size=(1, 4)))
        out = attend(x, p)
        np.testing.assert_array_equal(out.a, [[1.0]])
        np.testing.assert_array_equal(out.m[0], x.values[:, 0])

    def test_pool_matches_per_frame_summation(self):
        rng = np.random.default_rng(1)
        x, p = _random_instance(rng, d=3, n=5)
        out = attend(x, p)
        np.testing.assert_allclose(
            out.m[0], oracles.pool_by_summation(x.values, out.a[0]),
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
        assert out.m.shape == (1, 12)
        for k in range(3):
            np.testing.assert_allclose(
                out.m[0, 4 * k:4 * (k + 1)],
                oracles.pool_by_summation(x.values, out.a[k]),
                rtol=0, atol=1e-12)
        np.testing.assert_allclose(out.frame_weights, out.a.mean(axis=0),
                                   rtol=0, atol=0)

    def test_argmax_invariant_under_logit_shift(self):
        rng = np.random.default_rng(4)
        x, p = _random_instance(rng)
        out = attend(x, p)
        shifted = stable_softmax((p.w2 @ out.hidden)[0] + 37.5)
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
        # a 1-D w2 is rejected where the parameters live, in training.Model
        cfg = TrainConfig(attention_hidden=2, classifier_hidden=3)
        shapes = ((2, 5), (2,), (3, 5), (3,), (2, 3), (2,))
        with pytest.raises(ShapeError, match="must be"):
            Model(np.zeros(sum(map(math.prod, shapes))), shapes, Stream.RGB, "target", cfg)


class TestUniformAttention:
    def test_mean_pooling(self):
        x = FeatureMatrix(np.array([[1.0, 3.0], [0.0, 4.0]]))
        out = uniform_attention(x, r=2)
        np.testing.assert_array_equal(out.a, np.full((2, 2), 0.5))
        np.testing.assert_array_equal(out.m, [[2.0, 2.0, 2.0, 2.0]])

    def test_zero_gradient_path(self):
        x = FeatureMatrix(np.ones((3, 4)))
        p = AttentionParams(np.ones((2, 3)), np.ones((1, 2)))
        out = uniform_attention(x)
        g_w1, g_w2 = attention_grads(x, p, out, g_m=np.ones((1, 3)))
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
        g_m = rng.normal(size=(1, 9))

        def loss(params):
            out = attend(x, params, mode=mode)
            value = float(out.m[0] @ g_m[0]) + smooth_reg_direct(out.a)
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
            g_m = rng.normal(size=(1, 2 * x.d))

            def loss(params):
                out = attend(x, params, mode=mode)
                return float(out.m[0] @ g_m[0])

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


def _chunk(rng, lengths, d=3, b=4, r=1):
    """Videos of the given lengths, the chunk holding them side by side,
    and attention parameters."""
    videos = [FeatureMatrix(rng.normal(size=(d, n))) for n in lengths]
    chunk = FeatureMatrix(np.hstack([v.values for v in videos]))
    p = AttentionParams(rng.normal(size=(b, d)) * 0.7, rng.normal(size=(r, b)) * 0.7)
    return videos, chunk, p


class TestChunks:
    """A chunk of videos computes what its videos compute one at a time."""

    LENGTHS = (4, 1, 7, 2, 1, 5)

    @pytest.mark.parametrize("r", [1, 2])
    @pytest.mark.parametrize("mode", ["softmax", "sigmoid"])
    def test_forward_matches_one_video_at_a_time(self, mode, r):
        rng = np.random.default_rng(40)
        videos, chunk, p = _chunk(rng, self.LENGTHS, r=r)
        out = attend(chunk, p, mode, counts=self.LENGTHS)
        singles = [attend(v, p, mode) for v in videos]
        assert out.a.shape == (r, chunk.n) and out.m.shape == (len(videos), r * chunk.d)
        for name in ("a", "scores", "hidden"):
            np.testing.assert_allclose(getattr(out, name),
                                       np.hstack([getattr(s, name) for s in singles]),
                                       rtol=0, atol=1e-12, err_msg=name)
        np.testing.assert_allclose(out.m, np.vstack([s.m for s in singles]),
                                   rtol=0, atol=1e-12)
        np.testing.assert_allclose(out.frame_weights,
                                   np.concatenate([s.frame_weights for s in singles]),
                                   rtol=0, atol=1e-12)

    @pytest.mark.parametrize("r", [1, 2])
    @pytest.mark.parametrize("mode", ["softmax", "sigmoid"])
    def test_gradient_is_the_sum_over_videos(self, mode, r):
        rng = np.random.default_rng(41)
        videos, chunk, p = _chunk(rng, self.LENGTHS, r=r)
        out = attend(chunk, p, mode, counts=self.LENGTHS)
        g_m = rng.normal(size=out.m.shape)
        g_a = rng.normal(size=out.a.shape)
        g_scores = rng.normal(size=out.a.shape) if mode == "sigmoid" else None
        got = attention_grads(chunk, p, out, g_m=g_m, g_a=g_a, g_scores=g_scores)
        want = [np.zeros_like(p.w1), np.zeros_like(p.w2)]
        lo = 0
        for i, v in enumerate(videos):
            cols = slice(lo, lo + v.n)
            single = attention_grads(v, p, attend(v, p, mode), g_m=g_m[i:i + 1],
                                     g_a=g_a[:, cols],
                                     g_scores=None if g_scores is None else g_scores[:, cols])
            for acc, g in zip(want, single):
                acc += g
            lo += v.n
        for g, w in zip(got, want):
            np.testing.assert_allclose(g, w, rtol=0, atol=1e-12)

    @pytest.mark.parametrize("mode", ["softmax", "sigmoid"])
    def test_chunk_gradient_matches_finite_differences(self, mode):
        rng = np.random.default_rng(42)
        _, chunk, p = _chunk(rng, self.LENGTHS, r=2)
        g_m = rng.normal(size=(len(self.LENGTHS), 2 * chunk.d))

        def loss(params):
            out = attend(chunk, params, mode, counts=self.LENGTHS)
            value = float(np.sum(out.m * g_m)) + smooth_reg_direct(out.a, self.LENGTHS)
            return value + (sparsity_reg(out.scores) if mode == "sigmoid" else 0.0)

        out = attend(chunk, p, mode, counts=self.LENGTHS)
        g_scores = sparsity_reg_grad(out.scores) if mode == "sigmoid" else None
        g_w1, g_w2 = attention_grads(chunk, p, out, g_m=g_m,
                                     g_a=smooth_reg_grad(out.a, self.LENGTHS),
                                     g_scores=g_scores)
        num_w1 = finite_diff_grad(lambda v: loss(AttentionParams(v, p.w2)), p.w1)
        num_w2 = finite_diff_grad(lambda v: loss(AttentionParams(p.w1, v)), p.w2)
        assert grad_rel_error(g_w1, num_w1) < 1e-6
        assert grad_rel_error(g_w2, num_w2) < 1e-6

    def test_uniform_pooling_per_video(self):
        rng = np.random.default_rng(43)
        videos, chunk, p = _chunk(rng, self.LENGTHS)
        out = uniform_attention(chunk, r=2, counts=self.LENGTHS)
        singles = [uniform_attention(v, r=2) for v in videos]
        np.testing.assert_array_equal(out.a, np.hstack([s.a for s in singles]))
        np.testing.assert_allclose(out.m, np.vstack([s.m for s in singles]),
                                   rtol=0, atol=1e-12)
        for v, row in zip(videos, out.m):
            np.testing.assert_allclose(row, np.tile(v.values.mean(axis=1), 2),
                                       rtol=0, atol=1e-12)
        g_w1, g_w2 = attention_grads(chunk, p, out, g_m=np.ones((len(videos), 2 * chunk.d)))
        assert not np.any(g_w1) and not np.any(g_w2)

    def test_smoothness_skips_pairs_that_straddle_videos(self):
        a = np.array([[0.5, 0.5, 1.0, 0.25, 0.75]])
        assert smooth_reg_direct(a, (2, 1, 2)) == 0.25
        assert smooth_reg_direct(a, (5,)) == smooth_reg_direct(a) == 0.25 + 0.5625 + 0.25
        np.testing.assert_array_equal(smooth_reg_grad(a, (2, 1, 2)),
                                      [[0.0, 0.0, 0.0, -1.0, 1.0]])

    @pytest.mark.parametrize("r", [1, 2])
    def test_regularizers_sum_over_videos(self, r):
        rng = np.random.default_rng(44)
        videos, chunk, p = _chunk(rng, self.LENGTHS, r=r)
        out = attend(chunk, p, "sigmoid", counts=self.LENGTHS)
        singles = [attend(v, p, "sigmoid") for v in videos]
        np.testing.assert_allclose(smooth_reg_direct(out.a, self.LENGTHS),
                                   sum(smooth_reg_direct(s.a) for s in singles),
                                   rtol=0, atol=1e-12)
        np.testing.assert_allclose(smooth_reg_grad(out.a, self.LENGTHS),
                                   np.hstack([smooth_reg_grad(s.a) for s in singles]),
                                   rtol=0, atol=1e-12)
        np.testing.assert_allclose(sparsity_reg(out.scores),
                                   sum(sparsity_reg(s.scores) for s in singles),
                                   rtol=0, atol=1e-12)

    def test_rejects_counts_that_do_not_split_the_frames(self):
        rng = np.random.default_rng(45)
        _, chunk, p = _chunk(rng, (3, 2))
        for counts in ((3, 3), (5, 0), (), (6, -1)):
            with pytest.raises(ShapeError):
                attend(chunk, p, counts=counts)
        out = attend(chunk, p, counts=(3, 2))
        with pytest.raises(ShapeError):
            attention_grads(chunk, p, out, g_m=np.zeros((1, chunk.d)))
