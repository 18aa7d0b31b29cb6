"""Tests for the Gaussian-kernel discrepancy loss and its gradients."""

import math

import numpy as np
import pytest

from wtal.errors import ConfigError, SampleError, ShapeError
from wtal.numerics import finite_diff_grad, grad_rel_error
from wtal.transfer import (
    KernelConfig,
    median_bandwidth,
    mmd2,
    mmd2_grad_u,
    resolve_sigma,
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
        assert resolve_sigma(t, u, KernelConfig(sigma=1.3)) == 1.3
        med = resolve_sigma(t, u, KernelConfig(sigma="median"))
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


class TestTransferLoss:
    def test_sum_of_two_independent_terms(self):
        rng = np.random.default_rng(10)
        sm, tm = rng.normal(size=(2, 5, 4))
        sh, th = rng.normal(size=(2, 5, 3))
        terms = transfer_loss(sm, sh, tm, th, KernelConfig())
        sigma1 = oracles.median_pairwise_distance(np.vstack([sm, tm]))
        sigma2 = oracles.median_pairwise_distance(np.vstack([sh, th]))
        np.testing.assert_allclose(terms.fc1,
                                   oracles.mmd2_triple_loop(sm, tm, sigma1),
                                   rtol=0, atol=1e-12)
        np.testing.assert_allclose(terms.fc2,
                                   oracles.mmd2_triple_loop(sh, th, sigma2),
                                   rtol=0, atol=1e-12)
        np.testing.assert_allclose(terms.total, terms.fc1 + terms.fc2,
                                   rtol=0, atol=0)

    def test_fc2_can_be_disabled(self):
        rng = np.random.default_rng(11)
        sm, tm = rng.normal(size=(2, 4, 3))
        sh, th = rng.normal(size=(2, 4, 2))
        terms = transfer_loss(sm, sh, tm, th, KernelConfig(), fc2_enabled=False)
        assert terms.fc2 == 0.0
        assert terms.total == terms.fc1

    def test_identical_batches_cost_nothing(self):
        rng = np.random.default_rng(12)
        m = rng.normal(size=(4, 3))
        h = rng.normal(size=(4, 2))
        terms = transfer_loss(m, h, m.copy(), h.copy(), KernelConfig(sigma=1.0))
        assert terms.total == 0.0

    def test_width_mismatch_rejected(self):
        with pytest.raises(ConfigError):
            transfer_loss(np.zeros((2, 3)), np.zeros((2, 2)),
                          np.zeros((2, 4)), np.zeros((2, 2)), KernelConfig(sigma=1.0))

    def test_grads_match_finite_differences_at_fixed_sigma(self):
        rng = np.random.default_rng(13)
        sm, tm = rng.normal(size=(2, 4, 3))
        sh, th = rng.normal(size=(2, 4, 2))
        kcfg = KernelConfig(sigma=1.3)
        terms = transfer_loss(sm, sh, tm, th, kcfg)
        g_m, g_h = transfer_grads(sm, sh, tm, th, terms)
        num_m = finite_diff_grad(
            lambda v: transfer_loss(sm, sh, v, th, kcfg).total, tm)
        num_h = finite_diff_grad(
            lambda v: transfer_loss(sm, sh, tm, v, kcfg).total, th)
        assert grad_rel_error(g_m, num_m) < 1e-6
        assert grad_rel_error(g_h, num_h) < 1e-6

    def test_disabled_fc2_grad_is_zero(self):
        rng = np.random.default_rng(14)
        sm, tm = rng.normal(size=(2, 4, 3))
        sh, th = rng.normal(size=(2, 4, 2))
        kcfg = KernelConfig(sigma=1.0)
        terms = transfer_loss(sm, sh, tm, th, kcfg, fc2_enabled=False)
        _, g_h = transfer_grads(sm, sh, tm, th, terms, fc2_enabled=False)
        np.testing.assert_array_equal(g_h, np.zeros_like(th))
