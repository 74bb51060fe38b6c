"""Least-squares machinery, and the central-difference reference of the tests."""

import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from conftest import central_difference_jacobian

import cavreset
from cavreset.optimize import _MAX_NFEV, levenberg_marquardt


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

        def model(p):
            return p[0] * x + p[1] - y, np.column_stack([x, np.ones_like(x)])

        fit = levenberg_marquardt(model, [0.0, 0.0])
        assert fit.success
        assert fit.params == pytest.approx([a_true, b_true], abs=1e-10)
        assert fit.cost == pytest.approx(0.0, abs=1e-18)

    def test_exponential_recovery(self):
        x = np.linspace(0.0, 3.0, 40)
        y = 1.8 * np.exp(-0.9 * x)

        def model(p):
            e = np.exp(-p[1] * x)
            return p[0] * e - y, np.column_stack([e, -p[0] * x * e])

        fit = levenberg_marquardt(model, [1.0, 0.5])
        assert fit.params == pytest.approx([1.8, 0.9], rel=1e-8)

    def test_supplied_jacobian_replaces_differences(self):
        x = np.linspace(0.0, 3.0, 40)
        y = 1.8 * np.exp(-0.9 * x)
        evaluations = []

        def model(p):
            evaluations.append(p.tobytes())
            e = np.exp(-p[1] * x)
            return p[0] * e - y, np.column_stack([e, -p[0] * x * e])

        fit = levenberg_marquardt(model, [1.0, 0.5])
        assert fit.success
        assert fit.params == pytest.approx([1.8, 0.9], rel=1e-10)
        # no difference quotients, and the Jacobian comes from the residuals'
        # evaluation: no point is evaluated twice, and every evaluation is an
        # LM step or the final Jacobian at the returned point
        assert len(set(evaluations)) == len(evaluations)
        assert len(evaluations) <= fit.nfev + 1

    def test_covariance_matches_linear_algebra(self):
        rng = np.random.default_rng(7)
        x = np.linspace(0.0, 1.0, 50)
        y = 1.0 * x + 0.2 + rng.normal(0.0, 0.05, x.size)

        jac = np.column_stack([x, np.ones_like(x)])

        def model(p):
            return p[0] * x + p[1] - y, jac

        fit = levenberg_marquardt(model, [0.0, 0.0])
        cov = fit.covariance()
        assert cov is not None
        dof = x.size - 2
        sigma2 = 2.0 * fit.cost / dof
        expected = np.linalg.inv(jac.T @ jac) * sigma2
        assert cov == pytest.approx(expected, rel=1e-6)


def _ramsey_fit(device, readout):
    from cavreset import NoiseSpec, RamseyModel, fit_ramsey, gen_ramsey_dataset

    truth = RamseyModel.from_device(device, fringe=2.0 * np.pi, phi0=0.3, n0=2.0)
    data = gen_ramsey_dataset(truth, np.linspace(0.0, 2.0, 200), NoiseSpec.gaussian(0.02, seed=3))
    fixed = {"gamma2": truth.gamma2, "chi": truth.chi, "kappa": truth.kappa}
    return fit_ramsey(data, fixed, init={"fringe": 2.0 * np.pi, "phi0": 0.3})


def _backaction_fit(device, readout):
    from cavreset import BackactionModel, NoiseSpec, fit_backaction, gen_backaction_sequence

    truth = BackactionModel(gamma_out=0.0722, gamma_back=0.01, p0=1.0)
    return fit_backaction(gen_backaction_sequence(truth, 60, NoiseSpec.binomial(4000, seed=5)))


def _kerr_calibration_fit(device, readout):
    from cavreset import fit_kerr_calibration, ring_up_segment

    kerr_dev = device.with_(kerr_coeff=-0.025)
    rng = np.random.default_rng(11)
    points = []
    for n in (0.5, 1.0, 2.0, 4.0, 7.0, 10.0, 14.0, 18.0, 22.0):
        eps = ring_up_segment(kerr_dev, 0, n, 100.0).amplitude
        points.append(((eps / 0.02) ** 2, n * (1.0 + 0.01 * rng.normal())))
    return fit_kerr_calibration(points, device)


def _kerr_design(states):
    def design(device, readout):
        from cavreset import sspe_optimize

        return sspe_optimize(device.with_(kerr_coeff=-0.3), states, readout, 50.0)

    return design


_LM_RUNNERS = pytest.mark.parametrize(
    "run",
    [_ramsey_fit, _backaction_fit, _kerr_calibration_fit, _kerr_design(0), _kerr_design((0, 1))],
    ids=["ramsey", "backaction", "kerr_calibration", "kerr_design", "kerr_design_joint"],
)


class TestModelJacobians:
    """Every model handed to LM returns the Jacobian of its own residuals."""

    @_LM_RUNNERS
    def test_matches_central_differences_at_every_visited_point(self, device, readout, run, monkeypatch):
        import cavreset.design
        import cavreset.fitting

        errors = []

        def spy(model, p0):
            def checked(p):
                residuals, jac = model(p)
                numeric = central_difference_jacobian(lambda q: model(q)[0], p)
                # worst column error relative to that column's largest entry
                errors.append(np.max(np.abs(jac - numeric).max(axis=0) / np.abs(jac).max(axis=0)))
                return residuals, jac

            return levenberg_marquardt(checked, p0)

        monkeypatch.setattr(cavreset.fitting, "levenberg_marquardt", spy)
        monkeypatch.setattr(cavreset.design, "levenberg_marquardt", spy)
        result = run(device, readout)
        assert result.converged
        assert len(errors) >= 3
        assert max(errors) <= 1e-6

    def test_backaction_jacobian_is_finite_where_the_rates_sum_to_one(self, monkeypatch):
        # gamma_out = gamma_back = 1/2: the m = 1 row meets 0 * 0^-1 in d power / d total
        import cavreset.fitting

        at_sum_one = []

        def spy(model, p0):
            at_sum_one.append(model(np.array([0.0, 0.0, 1.0])))
            return levenberg_marquardt(model, p0)

        monkeypatch.setattr(cavreset.fitting, "levenberg_marquardt", spy)
        _backaction_fit(None, None)
        residuals, jac = at_sum_one[0]
        assert np.isfinite(residuals).all()
        assert np.isfinite(jac).all()


class TestMinpackRoute:
    """`leastsq` makes the MINPACK call of `least_squares(method="lm")`."""

    @_LM_RUNNERS
    def test_matches_least_squares_bit_for_bit(self, device, readout, run, monkeypatch):
        import cavreset.design
        import cavreset.fitting
        from scipy.optimize import least_squares

        calls = []

        def spy(model, p0):
            calls.append((model, p0))
            return levenberg_marquardt(model, p0)

        monkeypatch.setattr(cavreset.fitting, "levenberg_marquardt", spy)
        monkeypatch.setattr(cavreset.design, "levenberg_marquardt", spy)
        run(device, readout)
        assert calls
        for model, p0 in calls:
            ours = levenberg_marquardt(model, p0)
            # x_scale="jac" is MINPACK's diag = None, the default only from scipy 1.16 on
            ref = least_squares(
                lambda p: model(p)[0],
                np.asarray(p0, dtype=float),
                jac=lambda p: model(p)[1],
                method="lm",
                x_scale="jac",
                xtol=1e-14,
                ftol=1e-14,
                gtol=1e-14,
                max_nfev=_MAX_NFEV,
            )
            assert ours.params.tolist() == ref.x.tolist()
            assert ours.cost == ref.cost
            assert ours.nfev == ref.nfev
            assert ours.success == ref.success


def test_import_does_not_load_scipy():
    # scipy.optimize takes most of a second to import; only the first fit or
    # Kerr design of a process may pay for it.  No thread or process pool
    # (concurrent.futures) loads at import either: perfbench's setup_s
    # times `import cavreset` in a fresh process
    src = Path(cavreset.__file__).resolve().parents[1]
    code = (
        "import sys, cavreset; "
        "print(sorted(m for m in sys.modules if m.split('.')[0] in ('scipy', 'concurrent')))"
    )
    out = subprocess.run(
        [sys.executable, "-c", code],
        env={"PYTHONPATH": str(src)},
        capture_output=True,
        text=True,
        check=True,
    )
    assert out.stdout.strip() == "[]"
