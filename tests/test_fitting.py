"""Estimators: Ramsey photometry, backaction, decay, Kerr calibration."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cavreset import (
    BackactionModel,
    ConfigError,
    NumericError,
    RamseyModel,
    ac_stark_reconstruct,
    backaction_forward,
    chi_shift,
    critical_photon_number,
    default_device,
    exp_decay_fit,
    fit_backaction,
    fit_kerr_calibration,
    fit_ramsey,
    kerr_steady_state,
    ramsey_forward,
    ring_up_segment,
)

MHZ_TO_RAD_NS = 2.0 * math.pi * 1e-3


def fixed_for(device):
    from cavreset import chi_shift

    pull = 0.5 * (chi_shift(device, 1) - chi_shift(device, 0))
    return {
        "gamma2": 1.0 / device.t2_echo,
        "chi": pull * 2.0 * math.pi,
        "kappa": device.kappa * 2.0 * math.pi,
    }


def trace(device, n0, fringe=2.0 * math.pi, phi0=0.3, points=200, span=2.0):
    fixed = fixed_for(device)
    model = RamseyModel(
        gamma2=fixed["gamma2"],
        fringe=fringe,
        chi=fixed["chi"],
        kappa=fixed["kappa"],
        phi0=phi0,
        n0=n0,
    )
    times = np.linspace(0.0, span, points)
    return [(float(t), float(ramsey_forward(model, t))) for t in times]


class TestRamseyForward:
    def test_time_zero(self, device):
        fixed = fixed_for(device)
        model = RamseyModel(
            gamma2=fixed["gamma2"],
            fringe=1.0,
            chi=fixed["chi"],
            kappa=fixed["kappa"],
            phi0=0.7,
            n0=3.0,
        )
        # Z(0) = 0 so photons play no role at t = 0
        assert ramsey_forward(model, 0.0) == pytest.approx(0.5 * (1.0 - math.sin(0.7)))

    def test_no_photons_is_damped_sinusoid(self, device):
        fixed = fixed_for(device)
        model = RamseyModel(
            gamma2=fixed["gamma2"],
            fringe=2.0 * math.pi,
            chi=fixed["chi"],
            kappa=fixed["kappa"],
            phi0=0.0,
            n0=0.0,
        )
        for t in (0.1, 0.5, 1.3):
            expected = 0.5 * (
                1.0 - math.exp(-fixed["gamma2"] * t) * math.sin(-2.0 * math.pi * t)
            )
            assert ramsey_forward(model, t) == pytest.approx(expected, rel=1e-12)

    def test_photons_dephase_early_fringes(self, device):
        empty = trace(device, 0.0)
        full = trace(device, 2.0)
        # contrast around the first fringe is visibly reduced with photons
        early = slice(5, 40)
        amp_empty = np.ptp([s for _, s in empty[early]])
        amp_full = np.ptp([s for _, s in full[early]])
        assert amp_full < 0.8 * amp_empty

    def test_array_input(self, device):
        fixed = fixed_for(device)
        model = RamseyModel(gamma2=fixed["gamma2"], fringe=1.0, chi=fixed["chi"], kappa=fixed["kappa"])
        out = ramsey_forward(model, np.array([0.0, 0.5, 1.0]))
        assert out.shape == (3,)

    def test_validation(self, device):
        fixed = fixed_for(device)
        with pytest.raises(ConfigError):
            RamseyModel(gamma2=-1.0, fringe=0.0, chi=fixed["chi"], kappa=fixed["kappa"])
        with pytest.raises(ConfigError):
            RamseyModel(gamma2=0.1, fringe=0.0, chi=fixed["chi"], kappa=0.0)
        with pytest.raises(ConfigError):
            RamseyModel(gamma2=0.1, fringe=0.0, chi=fixed["chi"], kappa=fixed["kappa"], n0=-1.0)

    @pytest.mark.parametrize("field", ["gamma2", "fringe", "chi", "kappa", "phi0", "n0"])
    @pytest.mark.parametrize("value", [math.nan, math.inf])
    def test_non_finite_field_rejected(self, device, field, value):
        fixed = fixed_for(device)
        fields = {"gamma2": fixed["gamma2"], "fringe": 1.0, "chi": fixed["chi"], "kappa": fixed["kappa"]}
        fields[field] = value
        with pytest.raises(ConfigError, match="finite"):
            RamseyModel(**fields)

    def test_from_device_uses_qubit_pull(self, device):
        from cavreset import chi_shift

        model = RamseyModel.from_device(device)
        pull = 0.5 * (chi_shift(device, 1) - chi_shift(device, 0))
        assert model.chi == pytest.approx(pull * 2.0 * math.pi, rel=1e-12)
        assert model.gamma2 == pytest.approx(1.0 / device.t2_echo)


class TestFitRamsey:
    @pytest.mark.parametrize("n0", [0.0, 0.5, 2.0])
    def test_noiseless_round_trip(self, device, n0):
        result = fit_ramsey(
            trace(device, n0), fixed_for(device), init={"fringe": 2.0 * math.pi, "phi0": 0.3}
        )
        assert result.converged
        if n0 == 0.0:
            assert abs(result.values["n0"]) < 0.01
        else:
            assert result.values["n0"] == pytest.approx(n0, rel=0.01)

    def test_recovers_fringe_and_phase(self, device):
        result = fit_ramsey(
            trace(device, 1.0, fringe=5.0, phi0=1.1),
            fixed_for(device),
            init={"fringe": 4.5, "phi0": 1.0},
        )
        assert result.values["fringe"] == pytest.approx(5.0, rel=1e-6)
        assert result.values["phi0"] == pytest.approx(1.1, rel=1e-6)

    def test_n0_never_negative(self, device):
        rng = np.random.default_rng(11)
        data = [(t, s + rng.normal(0.0, 0.02)) for t, s in trace(device, 0.0)]
        result = fit_ramsey(data, fixed_for(device), init={"fringe": 2.0 * math.pi, "phi0": 0.3})
        assert result.values["n0"] >= 0.0

    def test_too_few_points(self, device):
        with pytest.raises(NumericError, match=r"need >= 10 Ramsey samples, got 9"):
            fit_ramsey(trace(device, 1.0, points=9), fixed_for(device))

    def test_span_too_short(self, device):
        # 2/kappa with kappa in rad/us is about 0.19 us here
        with pytest.raises(NumericError, match=r"Ramsey span .* under 2/kappa"):
            fit_ramsey(trace(device, 1.0, points=50, span=0.1), fixed_for(device))

    def test_missing_fixed_key(self, device):
        fixed = fixed_for(device)
        del fixed["kappa"]
        with pytest.raises(ConfigError):
            fit_ramsey(trace(device, 1.0), fixed)

    @pytest.mark.parametrize(
        "key, value",
        [("kappa", 0.0), ("kappa", math.nan), ("kappa", math.inf), ("chi", math.nan), ("gamma2", -1.0)],
    )
    def test_bad_fixed_rate_rejected(self, device, key, value):
        fixed = fixed_for(device)
        fixed[key] = value
        with pytest.raises(ConfigError):
            fit_ramsey(trace(device, 1.0), fixed)

    def test_nan_sample_rejected(self, device):
        data = trace(device, 1.0)
        data[50] = (data[50][0], float("nan"))
        with pytest.raises(ConfigError):
            fit_ramsey(data, fixed_for(device), init={"fringe": 2.0 * math.pi, "phi0": 0.3})

    def test_covariance_reported(self, device):
        result = fit_ramsey(
            trace(device, 1.0), fixed_for(device), init={"fringe": 2.0 * math.pi, "phi0": 0.3}
        )
        assert result.covariance_diag is not None
        assert set(result.covariance_diag) == {"fringe", "phi0", "n0"}


class TestExpDecay:
    def test_exact_recovery(self, device):
        rate_mhz = 1.711
        rate_ang = rate_mhz * MHZ_TO_RAD_NS
        times = np.linspace(0.0, 400.0, 30)
        data = [(float(t), 5.0 * math.exp(-rate_ang * t)) for t in times]
        result = exp_decay_fit(data)
        assert result.values["rate"] == pytest.approx(rate_mhz, rel=1e-12)
        assert result.values["n0"] == pytest.approx(5.0, rel=1e-12)

    def test_nonpositive_sample(self):
        with pytest.raises(NumericError, match=r"strictly positive photon numbers"):
            exp_decay_fit([(0.0, 1.0), (1.0, 0.0), (2.0, 0.5)])

    def test_too_few(self):
        with pytest.raises(NumericError, match=r"need >= 3 decay samples, got 2"):
            exp_decay_fit([(0.0, 1.0), (1.0, 0.5)])

    def test_nan_sample_rejected(self):
        with pytest.raises(ConfigError):
            exp_decay_fit([(0.0, 1.0), (1.0, float("nan")), (2.0, 0.5), (3.0, 0.3)])


class TestAcStark:
    def lorentzian_sweep(self, center, width=4.0, lo=-40.0, hi=10.0, step=0.1):
        freqs = np.arange(lo, hi + 1e-9, step)
        amps = 1.0 / (1.0 + ((freqs - center) / (width / 2.0)) ** 2)
        return freqs, amps

    def test_round_trip(self):
        chi = -1.4757
        for n_true in (0.3, 2.0, 5.0):
            center = 2.0 * chi * n_true
            freqs, amps = self.lorentzian_sweep(center)
            [(delay, n_hat)] = ac_stark_reconstruct([(0.0, freqs, amps)], chi, 0.0)
            assert n_hat == pytest.approx(n_true, abs=0.01)

    def test_small_negative_clamps_to_zero(self):
        chi = -1.4757
        center = 2.0 * chi * (-0.02)  # slightly above the bare line
        freqs, amps = self.lorentzian_sweep(center)
        [(_, n_hat)] = ac_stark_reconstruct([(0.0, freqs, amps)], chi, 0.0)
        assert n_hat == 0.0

    def test_large_negative_passes_through(self):
        chi = -1.4757
        center = 2.0 * chi * (-1.0)
        freqs, amps = self.lorentzian_sweep(center, lo=-20.0, hi=20.0)
        [(_, n_hat)] = ac_stark_reconstruct([(0.0, freqs, amps)], chi, 0.0)
        assert n_hat == pytest.approx(-1.0, abs=0.01)

    def test_peak_at_edge(self):
        chi = -1.4757
        freqs, amps = self.lorentzian_sweep(-50.0)  # peak below the window
        with pytest.raises(NumericError, match=r"peaks at its first point"):
            ac_stark_reconstruct([(0.0, freqs, amps)], chi, 0.0)

    def test_too_few_points(self):
        with pytest.raises(NumericError, match=r"has 3 points, need >= 5"):
            ac_stark_reconstruct([(0.0, [0, 1, 2], [0, 1, 0])], -1.0, 0.0)

    def test_zero_chi_rejected(self):
        freqs, amps = self.lorentzian_sweep(-3.0)
        with pytest.raises(ConfigError):
            ac_stark_reconstruct([(0.0, freqs, amps)], 0.0, 0.0)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("arg", ["chi", "line_center"])
    def test_non_finite_argument_rejected(self, arg, bad):
        freqs, amps = self.lorentzian_sweep(-3.0)
        args = {"chi": -1.4757, "line_center": 0.0, arg: bad}
        with pytest.raises(ConfigError):
            ac_stark_reconstruct([(0.0, freqs, amps)], **args)


class TestBackactionModel:
    def test_forward_formula(self):
        model = BackactionModel(gamma_out=0.0722, gamma_back=0.01, p0=1.0)
        total = model.gamma_out + model.gamma_back
        p_inf = model.gamma_back / total
        for m in (1, 2, 10, 100):
            expected = (model.p0 - p_inf) * (1.0 - total) ** (m - 1) + p_inf
            assert backaction_forward(model, m) == pytest.approx(expected, rel=1e-14)

    def test_first_measurement_is_p0(self):
        model = BackactionModel(gamma_out=0.0722, gamma_back=0.01, p0=0.83)
        assert backaction_forward(model, 1) == pytest.approx(0.83)

    def test_steady_state_identity(self):
        model = BackactionModel(gamma_out=0.0722, gamma_back=0.01, p0=1.0)
        assert abs(backaction_forward(model, 4000) - model.steady) < 1e-12

    def test_m_below_one_rejected(self):
        model = BackactionModel(gamma_out=0.1, gamma_back=0.1, p0=1.0)
        with pytest.raises(ConfigError):
            backaction_forward(model, 0)

    def test_zero_rates_stay_constant(self):
        model = BackactionModel(gamma_out=0.0, gamma_back=0.0, p0=0.6)
        assert backaction_forward(model, 50) == 0.6
        with pytest.raises(NumericError, match=r"steady state undefined"):
            model.steady

    def test_validation(self):
        with pytest.raises(ConfigError):
            BackactionModel(gamma_out=-0.1, gamma_back=0.1, p0=1.0)
        with pytest.raises(ConfigError):
            BackactionModel(gamma_out=0.6, gamma_back=0.5, p0=1.0)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("field", ["gamma_out", "gamma_back", "p0"])
    def test_non_finite_field_rejected(self, field, bad):
        fields = {"gamma_out": 0.01, "gamma_back": 0.01, "p0": 1.0, field: bad}
        with pytest.raises(ConfigError, match="finite"):
            BackactionModel(**fields)


class TestFitBackaction:
    def dataset(self, gamma_out, gamma_back, p0=1.0, m_max=60):
        model = BackactionModel(gamma_out=gamma_out, gamma_back=gamma_back, p0=p0)
        return [(m, backaction_forward(model, m)) for m in range(1, m_max + 1)]

    def test_noiseless_recovery(self):
        result = fit_backaction(self.dataset(0.0722, 0.01))
        assert result.values["gamma_out"] == pytest.approx(0.0722, rel=1e-5)
        assert result.values["gamma_back"] == pytest.approx(0.01, rel=1e-5)
        assert result.values["p0"] == pytest.approx(1.0, rel=1e-5)

    def test_slow_excitation_recovery(self):
        result = fit_backaction(self.dataset(0.0005, 0.04, m_max=150))
        assert result.values["gamma_out"] == pytest.approx(0.0005, abs=1e-6)

    def test_binomial_noise_recovery(self):
        from cavreset import NoiseSpec, gen_backaction_sequence

        model = BackactionModel(gamma_out=0.0722, gamma_back=0.01, p0=1.0)
        data = gen_backaction_sequence(model, 60, NoiseSpec.binomial(4000, seed=5))
        result = fit_backaction(data)
        assert result.values["gamma_out"] == pytest.approx(0.0722, abs=0.005)

    def test_flat_data_degenerate_branch(self):
        data = [(m, 0.37) for m in range(1, 30)]
        result = fit_backaction(data)
        assert result.converged
        assert result.values["p0"] == pytest.approx(0.37)

    def test_too_few_distinct(self):
        with pytest.raises(NumericError, match=r"need >= 5 distinct measurement indices"):
            fit_backaction([(1, 0.9), (1, 0.9), (2, 0.8), (2, 0.8), (3, 0.7)])

    def test_nan_sample_rejected(self):
        data = self.dataset(0.0722, 0.01)
        data[10] = (data[10][0], float("nan"))
        with pytest.raises(ConfigError):
            fit_backaction(data)


class TestKerrSteadyState:
    def test_linear_limit_identity(self, device):
        from cavreset import chi_shift

        amp = 0.03
        delta = (device.detuning_r() + chi_shift(device, 0)) * MHZ_TO_RAD_NS
        kappa = device.kappa * MHZ_TO_RAD_NS
        expected = 4.0 * amp * amp / (4.0 * delta * delta + kappa * kappa)
        assert kerr_steady_state(device, 0, amp) == pytest.approx(expected, rel=1e-12)

    def test_root_satisfies_cubic(self, device):
        kerr_dev = device.with_(kerr_coeff=-0.011)
        kc = kerr_dev.kerr_coeff * MHZ_TO_RAD_NS
        from cavreset import chi_shift

        delta = (kerr_dev.detuning_r() + chi_shift(kerr_dev, 0)) * MHZ_TO_RAD_NS
        kappa = kerr_dev.kappa * MHZ_TO_RAD_NS
        for amp in (0.01, 0.05, 0.1):
            n = kerr_steady_state(kerr_dev, 0, amp)
            residual = n * (4.0 * (delta + kc * n) ** 2 + kappa**2) - 4.0 * amp * amp
            assert abs(residual) < 1e-12 * max(1.0, 4.0 * amp * amp)

    def test_zero_drive(self, device):
        assert kerr_steady_state(device, 0, 0.0) == 0.0

    def test_negative_drive_rejected(self, device):
        with pytest.raises(ConfigError):
            kerr_steady_state(device, 0, -0.01)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("kerr", [0.0, -0.011])
    def test_non_finite_drive_rejected(self, device, kerr, bad):
        with pytest.raises(ConfigError, match="finite"):
            kerr_steady_state(device.with_(kerr_coeff=kerr), 0, bad)

    def test_kerr_softens_response(self, device):
        # negative Kerr pushes the cavity further from resonance here,
        # so the same drive holds fewer photons than the linear model
        kerr_dev = device.with_(kerr_coeff=-0.011)
        amp = 0.1
        assert kerr_steady_state(kerr_dev, 0, amp) != pytest.approx(
            kerr_steady_state(device, 0, amp), rel=1e-3
        )


def scan_bisect_root(params, state, eps, chi_source):
    """Reference steady state: first sign change on a 513-point scan, 80
    bisections, then Newton steps; the lowest root wherever the two lowest
    roots do not share one scan cell."""
    delta = (params.detuning_r(chi_source) + chi_shift(params, state, chi_source)) * MHZ_TO_RAD_NS
    kappa = params.kappa * MHZ_TO_RAD_NS
    kc = params.kerr_coeff * MHZ_TO_RAD_NS

    def f(n):
        shifted = delta + kc * n
        return n * (4.0 * shifted * shifted + kappa * kappa) - 4.0 * eps * eps

    def df(n):
        shifted = delta + kc * n
        return 4.0 * shifted * shifted + kappa * kappa + 8.0 * n * shifted * kc

    upper = 8.0 * eps * eps / (kappa * kappa)
    while f(upper) <= 0.0:
        upper *= 2.0
    grid = np.linspace(0.0, upper, 513)
    lo, hi = 0.0, upper
    for left, right in zip(grid[:-1], grid[1:]):
        if f(float(right)) >= 0.0:
            lo, hi = float(left), float(right)
            break
    for _ in range(80):
        mid = 0.5 * (lo + hi)
        if f(mid) < 0.0:
            lo = mid
        else:
            hi = mid
    root = 0.5 * (lo + hi)
    for _ in range(8):
        deriv = df(root)
        if deriv == 0.0:
            break
        step = f(root) / deriv
        candidate = root - step
        if candidate < 0.0 or not math.isfinite(candidate):
            break
        root = candidate
        if abs(step) < 1e-15 * max(root, 1.0):
            break
    return max(root, 0.0)


class TestKerrSteadyStateClosedForm:
    @settings(max_examples=200, deadline=None)
    @given(
        qubit=st.sampled_from([1, 2]),
        chi_source=st.sampled_from(["formula", "measured"]),
        state=st.sampled_from([0, 1]),
        log10_kerr=st.floats(-12.0, math.log10(0.5)),
        kerr_sign=st.sampled_from([-1.0, 1.0]),
        target=st.floats(0.1, 300.0),
        drive_scale=st.floats(0.5, 1.5),
    )
    def test_matches_scan_and_bisection(
        self, qubit, chi_source, state, log10_kerr, kerr_sign, target, drive_scale
    ):
        device = default_device(qubit).with_(kerr_coeff=kerr_sign * 10.0**log10_kerr)
        eps = drive_scale * ring_up_segment(device, state, target, 100.0, chi_source=chi_source).amplitude
        got = kerr_steady_state(device, state, eps, chi_source)
        want = scan_bisect_root(device, state, eps, chi_source)
        assert abs(got - want) <= 1e-12 * want

    @pytest.mark.parametrize("state, kerr", [(0, -0.05), (1, 0.05)])
    def test_lowest_root_just_below_the_fold(self, device, state, kerr):
        # Drive 1e-9 below the upper end of the low branch (measured shifts
        # put qubit 1 in the bistable range): the two lowest roots of the
        # cubic nearly coincide, and the steady state is the lower of them,
        # not the far high-photon branch.
        chi_source = "measured"
        kerr_dev = device.with_(kerr_coeff=kerr)
        delta = (kerr_dev.detuning_r(chi_source) + chi_shift(kerr_dev, state, chi_source)) * MHZ_TO_RAD_NS
        kappa = kerr_dev.kappa * MHZ_TO_RAD_NS
        kc = kerr_dev.kerr_coeff * MHZ_TO_RAD_NS
        # f'(n) = 12 K^2 n^2 + 16 delta K n + 4 delta^2 + kappa^2 = 0 at the fold
        n_fold = min(np.roots([12.0 * kc * kc, 16.0 * delta * kc, 4.0 * delta * delta + kappa * kappa]).real)
        eps = 0.5 * math.sqrt((1.0 - 1e-9) * n_fold * (4.0 * (delta + kc * n_fold) ** 2 + kappa**2))
        roots = np.roots([4.0 * kc * kc, 8.0 * delta * kc, 4.0 * delta * delta + kappa**2, -4.0 * eps * eps])
        assert np.all(np.abs(roots.imag) < 1e-9 * np.abs(roots))
        lowest = min(roots.real)
        n = kerr_steady_state(kerr_dev, state, eps, chi_source)
        assert n == pytest.approx(lowest, rel=1e-6)
        assert n < n_fold


class TestFitKerrCalibration:
    def synth_points(self, device, volt_to_eps=0.02, kerr_khz=-11.0):
        """(V^2, n) ladder targeting photon numbers below 0.8 n_crit.

        The drive for each target inverts the steady-state cubic, so the
        points sit exactly on the model being fit."""
        from cavreset import chi_shift

        kerr_dev = device.with_(kerr_coeff=kerr_khz * 1e-3)
        delta = (kerr_dev.detuning_r() + chi_shift(kerr_dev, 0)) * MHZ_TO_RAD_NS
        kappa = kerr_dev.kappa * MHZ_TO_RAD_NS
        kc = kerr_dev.kerr_coeff * MHZ_TO_RAD_NS
        points = []
        for n in (0.5, 1.0, 2.0, 4.0, 7.0, 10.0, 14.0, 18.0, 22.0, 26.0):
            eps = 0.5 * math.sqrt(n * (4.0 * (delta + kc * n) ** 2 + kappa**2))
            points.append(((eps / volt_to_eps) ** 2, n))
        return points

    def test_recovery(self, device):
        result = fit_kerr_calibration(self.synth_points(device), device)
        assert result.converged
        assert result.values["kerr_khz"] == pytest.approx(-11.0, abs=1.0)
        assert result.values["volt_to_eps"] == pytest.approx(0.02, rel=1e-3)

    @pytest.mark.parametrize(
        "chi_source, kerr_khz", [("formula", -25.0), ("formula", -30.0), ("measured", -30.0)]
    )
    def test_recovery_up_to_critical_photon_number(self, device, chi_source, kerr_khz):
        # ladder up to 0.8 n_crit, near the bistable range; a fit started at
        # K_c = 0 lands in a wrong minimum on each of these inputs
        kerr_dev = device.with_(kerr_coeff=kerr_khz * 1e-3)
        targets = (0.5, 1.0, 2.0, 4.0, 7.0, 10.0, 14.0, 18.0, 22.0)
        points = []
        for n in (*targets, 0.8 * critical_photon_number(device)):
            eps = ring_up_segment(kerr_dev, 0, n, 100.0, chi_source=chi_source).amplitude
            points.append(((eps / 0.02) ** 2, n))
        result = fit_kerr_calibration(points, device, 0, chi_source)
        assert result.converged
        assert result.values["kerr_khz"] == pytest.approx(kerr_khz, abs=1.0)
        assert result.values["volt_to_eps"] == pytest.approx(0.02, rel=1e-3)

    def test_null_case(self, device):
        result = fit_kerr_calibration(self.synth_points(device, kerr_khz=0.0), device)
        assert abs(result.values["kerr_khz"]) < 0.1

    def test_too_few_points(self, device):
        with pytest.raises(NumericError, match=r"need >= 6 calibration points, got 5"):
            fit_kerr_calibration(self.synth_points(device)[:5], device)

    def test_negative_v2_rejected(self, device):
        pts = self.synth_points(device)
        pts[0] = (-1.0, pts[0][1])
        with pytest.raises(ConfigError):
            fit_kerr_calibration(pts, device)

    def test_nan_point_rejected(self, device):
        pts = self.synth_points(device)
        pts[3] = (pts[3][0], float("nan"))
        with pytest.raises(ConfigError):
            fit_kerr_calibration(pts, device)
