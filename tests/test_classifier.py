"""Tests for the classification head, and for the stream-fusion and
frame-scoring oracles that the detection tests compare against."""

import math

import numpy as np
import pytest

from wtal.classifier import (
    ClassifierParams,
    class_loss,
    class_loss_grad_logits,
    classifier_grads,
    classify,
    label_vector,
)
from wtal.dataset import Stream
from wtal.errors import InputError, ShapeError
from wtal.numerics import finite_diff_grad, grad_rel_error, sigmoid, stable_softmax
from wtal.training import Model, TrainConfig, init_model

import oracles


def _random_params(rng, in_dim=4, h=3, c=2, scale=0.8):
    return ClassifierParams(
        fc1_w=rng.normal(size=(h, in_dim)) * scale,
        fc1_b=rng.normal(size=h) * scale,
        fc2_w=rng.normal(size=(c, h)) * scale,
        fc2_b=rng.normal(size=c) * scale,
    )


class TestClassify:
    def test_zero_parameters_give_uniform_probs(self):
        p = ClassifierParams(np.zeros((3, 4)), np.zeros(3), np.zeros((5, 3)), np.zeros(5))
        out = classify(np.ones(4), p)
        np.testing.assert_allclose(out.probs, np.full(5, 0.2), rtol=0, atol=1e-15)

    def test_all_zero_dropout_mask_leaves_only_bias(self):
        rng = np.random.default_rng(0)
        p = _random_params(rng)
        out = classify(rng.normal(size=4), p, dropout_mask=np.zeros(3))
        np.testing.assert_array_equal(out.logits, p.fc2_b)

    def test_matches_step_by_step_oracle(self):
        rng = np.random.default_rng(1)
        for _ in range(10):
            p = _random_params(rng)
            m = rng.normal(size=4)
            out = classify(m, p)
            hidden, logits, probs = oracles.classifier_by_hand(
                m, p.fc1_w, p.fc1_b, p.fc2_w, p.fc2_b)
            np.testing.assert_allclose(out.hidden, hidden, rtol=0, atol=1e-12)
            np.testing.assert_allclose(out.logits, logits, rtol=0, atol=1e-12)
            np.testing.assert_allclose(out.probs, probs, rtol=0, atol=1e-12)

    def test_dropout_mask_scales_hidden_only(self):
        rng = np.random.default_rng(2)
        p = _random_params(rng)
        m = rng.normal(size=4)
        mask = np.array([2.0, 0.0, 2.0])  # keep rate 0.5 pre-scaled
        out = classify(m, p, dropout_mask=mask)
        np.testing.assert_array_equal(out.hidden, out.hidden_clean * mask)
        np.testing.assert_array_equal(out.logits, p.fc2_w @ out.hidden + p.fc2_b)

    def test_hidden_clean_ignores_mask(self):
        rng = np.random.default_rng(3)
        p = _random_params(rng)
        m = rng.normal(size=4)
        masked = classify(m, p, dropout_mask=np.zeros(3))
        plain = classify(m, p)
        np.testing.assert_array_equal(masked.hidden_clean, plain.hidden_clean)

    def test_row_batch_matches_rows_and_oracle(self):
        rng = np.random.default_rng(15)
        p = _random_params(rng)
        batch = rng.normal(size=(6, 4))
        mask = (rng.random((6, 3)) < 0.5) / 0.5
        for dropout in (None, mask):
            out = classify(batch, p, dropout_mask=dropout)
            assert out.logits.shape == out.probs.shape == (6, 2)
            assert out.hidden.shape == out.hidden_clean.shape == (6, 3)
            for i, m in enumerate(batch):
                row = classify(m, p, None if dropout is None else dropout[i])
                for name in ("hidden_clean", "hidden", "logits", "probs"):
                    np.testing.assert_allclose(getattr(out, name)[i], getattr(row, name),
                                               rtol=0, atol=1e-12)
        out = classify(batch, p)
        for m, hidden, logits, probs in zip(batch, out.hidden, out.logits, out.probs):
            ref = oracles.classifier_by_hand(m, p.fc1_w, p.fc1_b, p.fc2_w, p.fc2_b)
            for got, want in zip((hidden, logits, probs), ref):
                np.testing.assert_allclose(got, want, rtol=0, atol=1e-12)

    def test_rejects_bad_shapes(self):
        rng = np.random.default_rng(4)
        p = _random_params(rng)
        with pytest.raises(ShapeError):
            classify(np.zeros(5), p)
        with pytest.raises(ShapeError):
            classify(np.zeros(4), p, dropout_mask=np.zeros(2))
        with pytest.raises(ShapeError):
            classify(np.zeros((2, 5)), p)
        with pytest.raises(ShapeError):
            classify(np.zeros((2, 2, 4)), p)
        with pytest.raises(ShapeError):
            classify(np.zeros((2, 4)), p, dropout_mask=np.zeros(3))

    # the head's shapes are checked where its parameters live, in training.Model
    def test_rejects_single_class_head(self):
        with pytest.raises(ShapeError, match="1 >= 2 classes"):
            init_model(4, 1, Stream.RGB, "target", TrainConfig(), np.random.default_rng(0))

    def test_rejects_inconsistent_parameter_shapes(self):
        # FC2 (2 x 4) after a 3-unit FC1
        cfg = TrainConfig(attention_hidden=2, classifier_hidden=3)
        shapes = ((2, 4), (1, 2), (3, 4), (3,), (2, 4), (2,))
        with pytest.raises(ShapeError, match="must be"):
            Model(np.zeros(sum(map(math.prod, shapes))), shapes, Stream.RGB, "target", cfg)


class TestLabelsAndLoss:
    def test_single_label_one_hot(self):
        np.testing.assert_array_equal(label_vector([2], 4), [0, 0, 1, 0])

    def test_multi_label_uniform_mass(self):
        np.testing.assert_array_equal(label_vector([0, 3], 4), [0.5, 0, 0, 0.5])

    def test_duplicates_collapse(self):
        np.testing.assert_array_equal(label_vector([1, 1], 3), [0, 1, 0])

    def test_rejects_empty_or_out_of_range(self):
        with pytest.raises(InputError):
            label_vector([], 3)
        with pytest.raises(InputError):
            label_vector([3], 3)

    def test_loss_rejects_unequal_shapes(self):
        with pytest.raises(ShapeError, match="equal shapes"):
            class_loss(np.full(4, 0.25), label_vector([1], 3))

    def test_uniform_probs_cost_log_c(self):
        probs = np.full(4, 0.25)
        np.testing.assert_allclose(class_loss(probs, label_vector([1], 4)),
                                   math.log(4.0), rtol=0, atol=1e-9)

    def test_confident_correct_costs_nothing(self):
        probs = np.array([1.0, 0.0, 0.0])
        assert class_loss(probs, label_vector([0], 3)) <= 1e-11

    def test_two_label_video(self):
        probs = np.array([0.5, 0.5, 0.0])
        np.testing.assert_allclose(class_loss(probs, label_vector([0, 1], 3)),
                                   math.log(2.0), rtol=0, atol=1e-9)

    def test_row_batch_gives_one_loss_and_gradient_row_per_video(self):
        rng = np.random.default_rng(16)
        probs = stable_softmax(rng.normal(size=(5, 4)))
        y = np.vstack([label_vector([c], 4) for c in (0, 3, 1, 1, 2)])
        losses = class_loss(probs, y)
        grads = class_loss_grad_logits(probs, y)
        assert losses.shape == (5,) and grads.shape == (5, 4)
        for i in range(5):
            np.testing.assert_allclose(losses[i], class_loss(probs[i], y[i]), rtol=0, atol=1e-15)
            np.testing.assert_allclose(grads[i], class_loss_grad_logits(probs[i], y[i]),
                                       rtol=0, atol=1e-15)

    def test_loss_grad_matches_finite_differences(self):
        rng = np.random.default_rng(5)
        z = rng.normal(size=5)
        y = label_vector([1, 3], 5)

        def loss(logits):
            return class_loss(stable_softmax(logits), y)

        analytic = class_loss_grad_logits(stable_softmax(z), y)
        numeric = finite_diff_grad(loss, z)
        assert grad_rel_error(analytic, numeric) < 1e-6


class TestClassifierGrads:
    def test_full_backward_matches_finite_differences(self):
        rng = np.random.default_rng(6)
        for mask in (None, np.array([2.0, 0.0, 2.0])):
            p = _random_params(rng)
            m = rng.normal(size=4)
            y = label_vector([1], 2)

            def loss_for(p2):
                out2 = classify(m, p2, dropout_mask=mask)
                return class_loss(out2.probs, y)

            out = classify(m, p, dropout_mask=mask)
            g_logits = class_loss_grad_logits(out.probs, y)
            grads, g_m = classifier_grads(m, p, out, g_logits, dropout_mask=mask)

            for name in ("fc1_w", "fc1_b", "fc2_w", "fc2_b"):
                ref = getattr(p, name)

                def loss_param(v, name=name):
                    fields = {k: getattr(p, k) for k in ("fc1_w", "fc1_b", "fc2_w", "fc2_b")}
                    fields[name] = v
                    return loss_for(ClassifierParams(**fields))

                numeric = finite_diff_grad(loss_param, ref)
                assert grad_rel_error(getattr(grads, name), numeric) < 1e-6, name

            numeric_m = finite_diff_grad(
                lambda v: class_loss(classify(v, p, dropout_mask=mask).probs, y), m)
            assert grad_rel_error(g_m, numeric_m) < 1e-6

    def test_transfer_tap_gradient_injection(self):
        rng = np.random.default_rng(7)
        p = _random_params(rng)
        m = rng.normal(size=4)
        g_hc = rng.normal(size=3)

        def loss(v):
            fields = {k: getattr(p, k) for k in ("fc1_b", "fc2_w", "fc2_b")}
            out2 = classify(m, ClassifierParams(fc1_w=v, **fields))
            return float(out2.hidden_clean @ g_hc)

        out = classify(m, p)
        grads, _ = classifier_grads(m, p, out, np.zeros(2), g_hidden_clean=g_hc)
        numeric = finite_diff_grad(loss, p.fc1_w)
        assert grad_rel_error(grads.fc1_w, numeric) < 1e-6
        # the tap sits before dropout, so a zero mask must not block it
        grads0, _ = classifier_grads(m, p, out, np.zeros(2),
                                     dropout_mask=np.zeros(3), g_hidden_clean=g_hc)
        np.testing.assert_array_equal(grads0.fc1_w, grads.fc1_w)


    def test_row_batch_sums_parameter_grads(self):
        rng = np.random.default_rng(17)
        p = _random_params(rng)
        batch = rng.normal(size=(5, 4))
        mask = (rng.random((5, 3)) < 0.5) / 0.5
        g_logits = rng.normal(size=(5, 2))
        g_hc = rng.normal(size=(5, 3))
        out = classify(batch, p, dropout_mask=mask)
        grads, g_m = classifier_grads(batch, p, out, g_logits, dropout_mask=mask,
                                      g_hidden_clean=g_hc)
        rows = [classifier_grads(m, p, classify(m, p, dropout_mask=mask[i]), g_logits[i],
                                 dropout_mask=mask[i], g_hidden_clean=g_hc[i])
                for i, m in enumerate(batch)]
        for name in ("fc1_w", "fc1_b", "fc2_w", "fc2_b"):
            np.testing.assert_allclose(getattr(grads, name),
                                       sum(getattr(g, name) for g, _ in rows),
                                       rtol=0, atol=1e-12)
        assert g_m.shape == batch.shape
        for got, (_, row) in zip(g_m, rows):
            np.testing.assert_allclose(got, row, rtol=0, atol=1e-12)


class TestFusion:
    def test_identical_streams_reduce_to_softmax(self):
        z = np.array([1.0, -0.5, 0.2])
        np.testing.assert_allclose(oracles.fuse_streams(z, z), stable_softmax(z),
                                   rtol=0, atol=1e-15)

    def test_opposite_streams_give_uniform(self):
        z = np.array([3.0, -1.0, 0.5])
        np.testing.assert_allclose(oracles.fuse_streams(z, -z), np.full(3, 1.0 / 3.0),
                                   rtol=0, atol=1e-15)

    def test_hand_computed_average(self):
        fused = oracles.fuse_streams(np.array([2.0, 0.0]), np.array([0.0, 0.0]))
        np.testing.assert_allclose(fused, [0.7310585786300049, 0.2689414213699951],
                                   rtol=0, atol=1e-12)

    def test_symmetric_in_streams(self):
        rng = np.random.default_rng(8)
        a, b = rng.normal(size=(2, 4))
        np.testing.assert_array_equal(oracles.fuse_streams(a, b), oracles.fuse_streams(b, a))

    def test_argmax_invariant_under_shift(self):
        rng = np.random.default_rng(9)
        a, b = rng.normal(size=(2, 6))
        base = oracles.fuse_streams(a, b)
        shifted = oracles.fuse_streams(a + 11.0, b + 11.0)
        assert int(np.argmax(base)) == int(np.argmax(shifted))


class TestFrameScoring:
    def test_zero_logit_half_weight(self):
        # sigmoid(0) = 0.5 gated by a_i = 0.5
        p = ClassifierParams(np.zeros((3, 4)), np.zeros(3), np.zeros((2, 3)), np.zeros(2))
        assert oracles.frame_class_score(np.ones(4), 0.5, p, c=0) == pytest.approx(0.25)

    def test_zero_attention_kills_score(self):
        rng = np.random.default_rng(10)
        p = _random_params(rng)
        assert oracles.frame_class_score(rng.normal(size=4), 0.0, p, c=1) == 0.0

    def test_known_sigmoid_value(self):
        # rig the head so the class-0 frame logit is exactly 2
        p = ClassifierParams(np.array([[1.0]]), np.zeros(1),
                             np.array([[2.0], [0.0]]), np.zeros(2))
        score = oracles.frame_class_score(np.array([1.0]), 1.0, p, c=0)
        np.testing.assert_allclose(score, 0.8807970779778823, rtol=0, atol=1e-12)

    def test_score_bounded(self):
        rng = np.random.default_rng(11)
        for _ in range(30):
            p = _random_params(rng, scale=2.0)
            a_i = float(rng.uniform())
            s = oracles.frame_class_score(rng.normal(size=4) * 3.0, a_i, p, c=0)
            assert 0.0 <= s <= 1.0

    def test_tiled_frame_matches_classify(self):
        rng = np.random.default_rng(12)
        p = _random_params(rng, in_dim=8)  # two heads over d=4
        x_i = rng.normal(size=4)
        out = classify(np.tile(x_i, 2), p)
        np.testing.assert_allclose(oracles.frame_logits(x_i, p, heads=2), out.logits,
                                   rtol=0, atol=1e-12)

    def test_matches_manual_gate(self):
        rng = np.random.default_rng(14)
        p = _random_params(rng)
        x_i = rng.normal(size=4)
        expected = 0.3 * sigmoid(np.asarray(oracles.frame_logits(x_i, p)[1]))
        np.testing.assert_allclose(oracles.frame_class_score(x_i, 0.3, p, c=1),
                                   expected, rtol=0, atol=1e-15)
