"""Tests for the Gaussian-kernel discrepancy loss and its gradients."""

import dataclasses
import math

import numpy as np
import pytest

from wtal import training
from wtal.dataset import FeatureMatrix, Stream
from wtal.errors import ConfigError, SampleError, ShapeError
from wtal.numerics import finite_diff_grad, grad_rel_error
from wtal.training import TrainConfig, init_model, loss_weights, total_loss
from wtal.transfer import (
    KernelConfig,
    TransferConfig,
    median_bandwidth,
    mmd2,
    mmd2_grad_u,
    transfer_grads,
    transfer_loss,
)

import oracles


def kernel_via_mmd2(x, y, sigma):
    """The library's kernel value, read off one-vector batches:
    mmd2({x}, {y}) = k(x, x) + k(y, y) - 2 k(x, y) = 2 - 2 k(x, y)."""
    return 1.0 - mmd2(np.atleast_2d(x), np.atleast_2d(y), sigma) / 2.0


class TestKernel:
    def test_one_at_identical_points(self):
        x = np.array([1.0, -2.0, 0.5])
        assert kernel_via_mmd2(x, x.copy(), sigma=0.7) == 1.0

    def test_unit_distance_value(self):
        # ||x - y|| = 2, sigma = 1 -> exp(-2)
        k = kernel_via_mmd2(np.array([0.0, 0.0]), np.array([2.0, 0.0]), 1.0)
        np.testing.assert_allclose(k, math.exp(-2.0), rtol=0, atol=1e-15)

    def test_huge_bandwidth_flattens_kernel(self):
        k = kernel_via_mmd2(np.zeros(3), np.ones(3), sigma=1e6)
        np.testing.assert_allclose(k, 1.0, rtol=0, atol=1e-9)

    def test_matches_scalar_oracle(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            x, y = rng.normal(size=(2, 5))
            sigma = float(rng.uniform(0.3, 3.0))
            np.testing.assert_allclose(kernel_via_mmd2(x, y, sigma),
                                       oracles.kernel_by_hand(x, y, sigma),
                                       rtol=0, atol=1e-15)


class TestMedianBandwidth:
    def test_two_points(self):
        pts = np.array([[0.0, 0.0], [0.0, 4.0]])
        assert median_bandwidth(pts) == 4.0

    def test_identical_points_fall_back_to_one(self):
        assert median_bandwidth(np.ones((5, 3))) == 1.0

    def test_matches_brute_force(self):
        rng = np.random.default_rng(1)
        pts = rng.normal(size=(5, 4))
        np.testing.assert_allclose(median_bandwidth(pts),
                                   oracles.median_pairwise_distance(pts),
                                   rtol=0, atol=1e-12)

    def test_needs_two_vectors(self):
        with pytest.raises(SampleError):
            median_bandwidth(np.ones((1, 3)))

    def test_resolve_sigma_fixed_or_median(self):
        t = np.zeros((2, 2))
        u = np.array([[3.0, 0.0], [0.0, 3.0]])
        assert transfer_loss(t, u, KernelConfig(sigma=1.3))[1] == 1.3
        med = transfer_loss(t, u, KernelConfig(sigma="median"))[1]
        np.testing.assert_allclose(
            med, oracles.median_pairwise_distance(np.vstack([t, u])),
            rtol=0, atol=1e-12)

    def test_kernel_config_validation(self):
        with pytest.raises(ConfigError):
            KernelConfig(sigma=-1.0)
        with pytest.raises(ConfigError):
            KernelConfig(sigma="mean")


class TestMmd2:
    def test_identical_batches_give_exact_zero(self):
        rng = np.random.default_rng(2)
        t = rng.normal(size=(6, 4))
        assert mmd2(t, t.copy(), sigma=1.1) == 0.0

    def test_singleton_closed_form(self):
        # n_t = n_u = 1 at distance 2, sigma 1: 1 + 1 - 2 exp(-2)
        val = mmd2(np.array([[0.0, 0.0]]), np.array([[2.0, 0.0]]), 1.0)
        np.testing.assert_allclose(val, 2.0 - 2.0 * math.exp(-2.0),
                                   rtol=0, atol=1e-12)

    def test_matches_triple_loop_oracle(self):
        rng = np.random.default_rng(3)
        for _ in range(100):
            n_t = int(rng.integers(1, 9))
            n_u = int(rng.integers(1, 9))
            dim = int(rng.integers(1, 7))
            t = rng.normal(size=(n_t, dim)) * 2.0
            u = rng.normal(size=(n_u, dim)) * 2.0
            sigma = float(rng.uniform(0.4, 3.0))
            np.testing.assert_allclose(mmd2(t, u, sigma),
                                       oracles.mmd2_triple_loop(t, u, sigma),
                                       rtol=0, atol=1e-12)

    def test_symmetry(self):
        rng = np.random.default_rng(4)
        t = rng.normal(size=(4, 3))
        u = rng.normal(size=(6, 3))
        np.testing.assert_allclose(mmd2(t, u, 0.9), mmd2(u, t, 0.9),
                                   rtol=0, atol=1e-15)

    def test_nonnegative(self):
        rng = np.random.default_rng(5)
        for _ in range(50):
            t = rng.normal(size=(int(rng.integers(1, 7)), 3))
            u = rng.normal(size=(int(rng.integers(1, 7)), 3))
            assert mmd2(t, u, 1.0) >= -1e-12

    def test_permutation_invariance(self):
        rng = np.random.default_rng(6)
        t = rng.normal(size=(5, 3))
        u = rng.normal(size=(7, 3))
        perm = rng.permutation(7)
        np.testing.assert_allclose(mmd2(t, u, 1.2), mmd2(t, u[perm], 1.2),
                                   rtol=0, atol=1e-14)

    def test_shrinks_as_distributions_align(self):
        # Move the target batch toward the source along a fixed offset;
        # the discrepancy must fall monotonically.
        rng = np.random.default_rng(7)
        t = rng.normal(size=(40, 4))
        base = rng.normal(size=(40, 4))
        shift = np.array([3.0, 0.0, 0.0, 0.0])
        vals = [mmd2(t, base + lam * shift, sigma=2.0)
                for lam in (1.0, 0.5, 0.25, 0.0)]
        assert vals[0] > vals[1] > vals[2] > vals[3]

    def test_rejects_bad_batches(self):
        with pytest.raises(ShapeError):
            mmd2(np.zeros(3), np.zeros((2, 3)), 1.0)
        with pytest.raises(SampleError):
            mmd2(np.zeros((0, 3)), np.zeros((2, 3)), 1.0)
        with pytest.raises(ShapeError):
            mmd2(np.zeros((2, 3)), np.zeros((2, 4)), 1.0)


class TestMmd2Grad:
    def test_matches_finite_differences(self):
        rng = np.random.default_rng(8)
        for _ in range(5):
            t = rng.normal(size=(4, 3))
            u = rng.normal(size=(5, 3))
            sigma = float(rng.uniform(0.6, 2.0))
            analytic = mmd2_grad_u(t, u, sigma)
            numeric = finite_diff_grad(lambda v: mmd2(t, v, sigma), u)
            assert grad_rel_error(analytic, numeric) < 1e-6

    def test_zero_at_identical_batches(self):
        rng = np.random.default_rng(9)
        t = rng.normal(size=(4, 2))
        g = mmd2_grad_u(t, t.copy(), sigma=1.0)
        np.testing.assert_allclose(g, np.zeros_like(t), rtol=0, atol=1e-12)


class TestGramForm:
    """The Gram-form kernel against its exact identities and against the
    broadcast-difference oracle it replaced."""

    def test_exact_identities_over_seeded_draws(self):
        rng = np.random.default_rng(15)
        failures, worst_swap = [], 0.0
        for draw in range(1000):
            scale = (0.1, 2.0, 10.0)[draw % 3]
            dim = int(rng.integers(1, 129))
            t = rng.normal(size=(int(rng.integers(1, 33)), dim)) * scale
            u = rng.normal(size=(int(rng.integers(1, 33)), dim)) * scale
            sigma = median_bandwidth(np.vstack([t, u]))
            swap = abs(mmd2(t, u, sigma) - mmd2(u, t, sigma))
            worst_swap = max(worst_swap, swap)
            if (mmd2(t, t.copy(), sigma) != 0.0 or swap > 1e-14
                    or transfer_loss(t, t.copy(), KernelConfig(sigma=1.0)) != (0.0, 1.0)):
                failures.append(draw)
        assert not failures, f"draws {failures[:10]} fail; worst swap {worst_swap:.2e}"

    @pytest.mark.parametrize("width", [16, 128])
    @pytest.mark.parametrize("offset, spread", [(0.0, 1.0), (0.0, 10.0), (50.0, 0.01)])
    def test_matches_broadcast_oracle_at_training_shapes(self, width, offset, spread):
        # offset 50 with spread 0.01 loses ~1e-10 to cancellation uncentred
        rng = np.random.default_rng(16)
        source, target = offset + spread * rng.normal(size=(2, 16, width))
        value, sigma = transfer_loss(source, target, KernelConfig())
        want_value, want_sigma = oracles.broadcast_transfer_loss(source, target, KernelConfig())
        np.testing.assert_allclose(sigma, want_sigma, rtol=0, atol=1e-12)
        np.testing.assert_allclose(value, want_value, rtol=0, atol=1e-12)
        np.testing.assert_allclose(transfer_grads(source, target, sigma),
                                   oracles.broadcast_transfer_grads(source, target, sigma),
                                   rtol=0, atol=1e-12)

    def test_total_loss_matches_broadcast_oracle(self, monkeypatch):
        rng = np.random.default_rng(17)
        cfg = TrainConfig()
        model = init_model(16, 5, Stream.RGB, "target", cfg, rng)
        batch = [(FeatureMatrix(rng.normal(size=(16, int(rng.integers(15, 26))))),
                  np.eye(5)[int(rng.integers(5))]) for _ in range(cfg.batch_size)]
        acts = (rng.normal(size=(16, 16)), np.maximum(rng.normal(size=(16, 128)), 0.0))
        mask = (rng.random((cfg.batch_size, cfg.classifier_hidden)) < 0.2) / 0.2
        total, terms, grad = total_loss(batch, model, mask, acts)
        monkeypatch.setattr(training, "transfer_loss", oracles.broadcast_transfer_loss)
        monkeypatch.setattr(training, "transfer_grads", oracles.broadcast_transfer_grads)
        want_total, want_terms, want_grad = total_loss(batch, model, mask, acts)
        assert terms["fc1"] > 0.0 and terms["fc2"] > 0.0
        np.testing.assert_allclose([total, *terms.values()], [want_total, *want_terms.values()],
                                   rtol=0, atol=1e-12)
        np.testing.assert_allclose(grad, want_grad, rtol=0, atol=1e-12)


def fc2_switch_case(seed):
    """A tiny target model built with the FC1-only config that switches FC2
    off, a batch of three videos and random source (pooled, hidden)
    activations."""
    rng = np.random.default_rng(seed)
    cfg = TrainConfig(attention_hidden=2, classifier_hidden=3, kernel=KernelConfig(sigma=1.0),
                      transfer=TransferConfig(fc2_enabled=False))
    model = init_model(3, 2, Stream.RGB, "target", cfg, rng)
    batch = [(FeatureMatrix(rng.normal(size=(3, int(rng.integers(3, 8))))),
              np.eye(2)[int(rng.integers(2))]) for _ in range(3)]
    acts = (rng.normal(size=(4, 3)), rng.normal(size=(4, 3)))
    return model, batch, acts


def with_transfer(model, transfer):
    """``model``'s parameters under its config with ``transfer`` swapped in."""
    return dataclasses.replace(model, cfg=dataclasses.replace(model.cfg, transfer=transfer))


class TestTransferLoss:
    """One call per tap: the pooled (FC1) and hidden (FC2) batches alike."""

    def test_each_tap_matches_oracle(self):
        rng = np.random.default_rng(10)
        for width in (4, 3):
            source, target = rng.normal(size=(2, 5, width))
            value, sigma = transfer_loss(source, target, KernelConfig())
            expected_sigma = oracles.median_pairwise_distance(np.vstack([source, target]))
            np.testing.assert_allclose(sigma, expected_sigma, rtol=0, atol=1e-12)
            np.testing.assert_allclose(
                value, oracles.mmd2_triple_loop(source, target, expected_sigma),
                rtol=0, atol=1e-12)

    def test_identical_batches_cost_nothing(self):
        rng = np.random.default_rng(12)
        for width in (3, 2):
            batch = rng.normal(size=(4, width))
            assert transfer_loss(batch, batch.copy(), KernelConfig(sigma=1.0)) == (0.0, 1.0)

    def test_width_mismatch_rejected(self):
        with pytest.raises(ShapeError, match="3 vs 4"):
            transfer_loss(np.zeros((2, 3)), np.zeros((2, 4)), KernelConfig(sigma=1.0))
        with pytest.raises(ShapeError, match="2-D"):
            transfer_loss(np.zeros(3), np.zeros((2, 3)), KernelConfig(sigma=1.0))

    def test_grads_match_finite_differences_at_fixed_sigma(self):
        rng = np.random.default_rng(13)
        kcfg = KernelConfig(sigma=1.3)
        for width in (3, 2):
            source, target = rng.normal(size=(2, 4, width))
            _, sigma = transfer_loss(source, target, kcfg)
            analytic = transfer_grads(source, target, sigma)
            numeric = finite_diff_grad(
                lambda v: transfer_loss(source, v, kcfg)[0], target)
            assert grad_rel_error(analytic, numeric) < 1e-6

    def test_fc2_can_be_disabled(self):
        model, batch, acts = fc2_switch_case(11)
        assert loss_weights(model.cfg)["fc1"] == 1.0 and loss_weights(model.cfg)["fc2"] == 0.0
        total, terms, _ = total_loss(batch, model, source_acts=acts)
        off = with_transfer(model, TransferConfig(enabled=False))
        total_off, _, _ = total_loss(batch, off, source_acts=acts)
        assert terms["fc2"] == 0.0 and terms["fc1"] > 0.0
        assert total == total_off + terms["fc1"]

    def test_disabled_fc2_grad_is_zero(self):
        model, batch, acts = fc2_switch_case(14)
        # with FC2 off its tap is never computed: any hidden batch gives the same bits
        nan_hidden = (acts[0], np.full_like(acts[1], np.nan))
        _, terms, grad = total_loss(batch, model, source_acts=acts)
        _, terms_nan, grad_nan = total_loss(batch, model, source_acts=nan_hidden)
        assert terms == terms_nan
        np.testing.assert_array_equal(grad, grad_nan)
        _, _, grad_on = total_loss(batch, with_transfer(model, TransferConfig()),
                                   source_acts=acts)
        assert not np.array_equal(grad, grad_on)
