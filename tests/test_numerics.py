"""Tests for the shared numeric helpers."""

import numpy as np
import pytest

from wtal.errors import ShapeError
from wtal.numerics import (
    FD_STEP,
    finite_diff_grad,
    grad_rel_error,
    sigmoid,
    stable_softmax,
)

import oracles


class TestStableSoftmax:
    def test_uniform_on_equal_logits(self):
        np.testing.assert_allclose(stable_softmax(np.zeros(3)),
                                   np.full(3, 1.0 / 3.0), rtol=0, atol=1e-15)

    def test_no_overflow_on_large_logits(self):
        out = stable_softmax(np.array([1000.0, 0.0]))
        assert np.all(np.isfinite(out))
        np.testing.assert_allclose(out, [1.0, 0.0], rtol=0, atol=1e-300)

    def test_shift_invariance(self):
        rng = np.random.default_rng(0)
        for _ in range(50):
            z = rng.normal(size=rng.integers(1, 9))
            shift = rng.normal() * 100.0
            np.testing.assert_allclose(stable_softmax(z + shift),
                                       stable_softmax(z), rtol=0, atol=1e-12)

    def test_simplex_property(self):
        rng = np.random.default_rng(1)
        for _ in range(200):
            z = rng.normal(size=rng.integers(1, 17)) * 1e3
            a = stable_softmax(z)
            assert np.all(a >= 0.0)
            np.testing.assert_allclose(a.sum(), 1.0, rtol=0, atol=1e-12)

    def test_matches_scalar_oracle(self):
        rng = np.random.default_rng(2)
        for _ in range(50):
            z = rng.normal(size=6) * 10.0
            np.testing.assert_allclose(stable_softmax(z),
                                       oracles.softmax_exact(list(z)),
                                       rtol=0, atol=1e-14)

    def test_matrix_matches_scalar_oracle_row_by_row(self):
        rng = np.random.default_rng(3)
        z = rng.normal(size=(7, 5)) * 10.0
        out = stable_softmax(z)
        assert out.shape == z.shape
        for row, probs in zip(z, out):
            np.testing.assert_allclose(probs, oracles.softmax_exact(list(row)),
                                       rtol=0, atol=1e-14)

    def test_rejects_non_vector(self):
        with pytest.raises(ShapeError):
            stable_softmax(np.float64(1.0))
        with pytest.raises(ShapeError):
            stable_softmax(np.zeros(0))
        with pytest.raises(ShapeError):
            stable_softmax(np.zeros((2, 0)))


class TestSigmoid:
    def test_center(self):
        assert sigmoid(np.array(0.0)) == 0.5

    def test_known_value(self):
        np.testing.assert_allclose(sigmoid(np.array(2.0)), 0.8807970779778823,
                                   rtol=0, atol=1e-15)

    def test_saturation_without_overflow(self):
        out = sigmoid(np.array([-1000.0, 1000.0]))
        assert np.all(np.isfinite(out))
        np.testing.assert_allclose(out, [0.0, 1.0], rtol=0, atol=1e-300)

    def test_symmetry(self):
        rng = np.random.default_rng(3)
        z = rng.normal(size=100) * 20.0
        np.testing.assert_allclose(sigmoid(z) + sigmoid(-z), np.ones(100),
                                   rtol=0, atol=1e-12)


class TestFiniteDiffGrad:
    def test_quadratic(self):
        g = finite_diff_grad(lambda x: float(x[0] ** 2), np.array([3.0]))
        np.testing.assert_allclose(g, [6.0], rtol=0, atol=1e-8)

    def test_cubic_sum(self):
        g = finite_diff_grad(lambda x: float(np.sum(x ** 3)),
                             np.array([1.0, 2.0]))
        np.testing.assert_allclose(g, [3.0, 12.0], rtol=0, atol=1e-6)

    def test_constant_function(self):
        g = finite_diff_grad(lambda x: 4.2, np.array([[0.3, -0.7], [1.1, 0.0]]))
        np.testing.assert_allclose(g, np.zeros((2, 2)), rtol=0, atol=0)

    def test_matrix_shape_preserved(self):
        x = np.arange(6, dtype=np.float64).reshape(2, 3)
        g = finite_diff_grad(lambda v: float(np.sum(v ** 2)), x)
        assert g.shape == (2, 3)
        np.testing.assert_allclose(g, 2.0 * x, rtol=0, atol=1e-6)

    def test_step_is_central(self):
        # A linear function is exact under central differences at any step.
        g = finite_diff_grad(lambda x: 7.0 * float(x[0]), np.array([0.25]))
        np.testing.assert_allclose(g, [7.0], rtol=0, atol=1e-9)
        assert FD_STEP == 1e-5

    def test_rejects_bad_step(self):
        with pytest.raises(ShapeError):
            finite_diff_grad(lambda x: 0.0, np.zeros(2), h=0.0)


class TestGradRelError:
    def test_zero_for_identical(self):
        g = np.array([1.0, -2.0, 3.0])
        assert grad_rel_error(g, g.copy()) == 0.0

    def test_scales_by_magnitude(self):
        a = np.array([100.0])
        n = np.array([101.0])
        np.testing.assert_allclose(grad_rel_error(a, n), 1.0 / 101.0,
                                   rtol=0, atol=1e-15)

    def test_absolute_floor_for_tiny_gradients(self):
        # Both gradients effectively zero: noise at 1e-12 must not register
        # as a large relative error.
        a = np.zeros(3)
        n = np.full(3, 1e-12)
        assert grad_rel_error(a, n) <= 1e-7

    def test_rejects_shape_mismatch(self):
        with pytest.raises(ShapeError):
            grad_rel_error(np.zeros(3), np.zeros(4))
