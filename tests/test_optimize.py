"""Least-squares machinery."""

import numpy as np
import pytest

from cavreset.optimize import central_difference_jacobian, levenberg_marquardt


class TestJacobian:
    def test_matches_analytic(self):
        def residuals(p):
            x, y = p
            return np.array([x * x + y, np.sin(x) * y, 3.0 * y])

        p = np.array([0.7, -1.2])
        jac = central_difference_jacobian(residuals, p)
        expected = np.array(
            [
                [2.0 * p[0], 1.0],
                [np.cos(p[0]) * p[1], np.sin(p[0])],
                [0.0, 3.0],
            ]
        )
        assert jac == pytest.approx(expected, abs=1e-7)

    def test_handles_zero_parameter(self):
        def residuals(p):
            return np.array([p[0] ** 3])

        jac = central_difference_jacobian(residuals, np.array([0.0]))
        assert jac[0, 0] == pytest.approx(0.0, abs=1e-9)


class TestLevenbergMarquardt:
    def test_linear_model_exact(self):
        rng = np.random.default_rng(0)
        x = np.linspace(0.0, 1.0, 20)
        a_true, b_true = 2.5, -0.7
        y = a_true * x + b_true

        def residuals(p):
            return p[0] * x + p[1] - y

        fit = levenberg_marquardt(residuals, [0.0, 0.0])
        assert fit.success
        assert fit.params == pytest.approx([a_true, b_true], abs=1e-10)
        assert fit.cost == pytest.approx(0.0, abs=1e-18)

    def test_exponential_recovery(self):
        x = np.linspace(0.0, 3.0, 40)
        y = 1.8 * np.exp(-0.9 * x)

        def residuals(p):
            return p[0] * np.exp(-p[1] * x) - y

        fit = levenberg_marquardt(residuals, [1.0, 0.5])
        assert fit.params == pytest.approx([1.8, 0.9], rel=1e-8)

    def test_supplied_jacobian_replaces_differences(self):
        x = np.linspace(0.0, 3.0, 40)
        y = 1.8 * np.exp(-0.9 * x)
        evaluations = []

        def residuals(p):
            evaluations.append(p.copy())
            return p[0] * np.exp(-p[1] * x) - y

        def jac(p):
            e = np.exp(-p[1] * x)
            return np.column_stack([e, -p[0] * x * e])

        fit = levenberg_marquardt(residuals, [1.0, 0.5], jac=jac)
        assert fit.success
        assert fit.params == pytest.approx([1.8, 0.9], rel=1e-10)
        # no difference quotients: every residual call is one LM evaluation
        # (plus the initial-point evaluation in scipy's least_squares)
        assert len(evaluations) <= fit.nfev + 1

    def test_covariance_matches_linear_algebra(self):
        rng = np.random.default_rng(7)
        x = np.linspace(0.0, 1.0, 50)
        y = 1.0 * x + 0.2 + rng.normal(0.0, 0.05, x.size)

        def residuals(p):
            return p[0] * x + p[1] - y

        fit = levenberg_marquardt(residuals, [0.0, 0.0])
        cov = fit.covariance()
        assert cov is not None
        jac = np.column_stack([x, np.ones_like(x)])
        dof = x.size - 2
        sigma2 = 2.0 * fit.cost / dof
        expected = np.linalg.inv(jac.T @ jac) * sigma2
        assert cov == pytest.approx(expected, rel=1e-6)
