"""Cavity field propagation: exact piecewise solution and RK4."""

import cmath
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cavreset import (
    ConfigError,
    DriveSegment,
    NumericError,
    PulseSchedule,
    Trajectory,
    complex_rate,
    default_device,
    final_alpha,
    kerr_steady_state,
    photon_number,
    propagate,
    propagate_closed_form,
    propagate_ode,
    ring_up_segment,
)
from cavreset.design import DESIGN_DT
from cavreset.dynamics import ode_final_alpha

MHZ_TO_RAD_NS = 2.0 * math.pi * 1e-3


def diverging_kerr_run(device):
    """A Kerr device and a drive whose RK4 run overflows within a nanosecond."""
    return device.with_(kerr_coeff=-500.0), DriveSegment(100.0, 0.0, 20.0)


def two_segment_schedule():
    return PulseSchedule(
        (
            DriveSegment(0.02, 0.3, 120.0),
            DriveSegment(0.05, 2.0, 60.0),
        )
    )


class TestSteadyState:
    def test_long_drive_settles_there(self, device):
        # transient leftover is e^{-kappa t / 2} ~ 1e-7 after 3 us
        seg = DriveSegment(0.02, 0.4, 3000.0)
        sched = PulseSchedule((seg,))
        alpha_end = final_alpha(device, sched, 0)
        ss = -2j * seg.complex_amplitude / complex_rate(device, 0)
        assert alpha_end == pytest.approx(ss, rel=1e-6)

    def test_ring_up_segment_targets_photons(self, device):
        seg = ring_up_segment(device, 0, 5.0, 900.0)
        ss = -2j * seg.complex_amplitude / complex_rate(device, 0)
        assert abs(ss) ** 2 == pytest.approx(5.0, rel=1e-12)

    @pytest.mark.parametrize("kerr", [-0.5, -0.011, 0.5])
    def test_ring_up_segment_honors_kerr(self, device, kerr):
        kerr_dev = device.with_(kerr_coeff=kerr)
        seg = ring_up_segment(kerr_dev, 0, 20.0, 4000.0)
        assert kerr_steady_state(kerr_dev, 0, seg.amplitude) == pytest.approx(20.0, rel=1e-9)


class TestClosedForm:
    def test_solves_the_ode(self, device):
        """Central finite differences of the exact path satisfy
        d(alpha)/dt = -i*eps - (C/2) alpha at interior points."""
        sched = two_segment_schedule()
        c = complex_rate(device, 0)
        h = 1e-4
        for seg, t0 in zip(sched.segments, (0.0, sched.segments[0].duration)):
            for t in np.linspace(t0 + 1.0, t0 + seg.duration - 1.0, 7):
                am = _alpha_at_time(device, sched, t - h)
                a0 = _alpha_at_time(device, sched, t)
                ap = _alpha_at_time(device, sched, t + h)
                deriv = (ap - am) / (2.0 * h)
                rhs = -1j * seg.complex_amplitude - 0.5 * c * a0
                assert deriv == pytest.approx(rhs, rel=1e-6, abs=1e-9)

    def test_segment_boundaries_sampled(self, device):
        sched = two_segment_schedule()
        traj = propagate_closed_form(device, sched, 0, sample_dt=7.3)
        for edge in (0.0, sched.segments[0].duration, sched.total_duration):
            assert np.min(np.abs(traj.times - edge)) < 1e-9

    def test_continuous_across_boundary(self, device):
        sched = two_segment_schedule()
        traj = propagate_closed_form(device, sched, 0, sample_dt=0.5)
        steps = np.abs(np.diff(traj.alpha))
        assert np.max(steps) < 0.05  # no jumps, just smooth evolution

    def test_free_decay_is_exponential(self, device):
        kappa_ang = device.kappa * MHZ_TO_RAD_NS
        alpha0 = 1.7 - 0.4j
        sched = PulseSchedule((DriveSegment(0.0, 0.0, 200.0),))
        traj = propagate_closed_form(device, sched, 0, sample_dt=10.0, alpha0=alpha0)
        expected = abs(alpha0) ** 2 * np.exp(-kappa_ang * traj.times)
        assert traj.photon == pytest.approx(expected, rel=1e-10)

    def test_kerr_rejected(self, device):
        kerr_dev = device.with_(kerr_coeff=-0.011)
        with pytest.raises(NumericError, match=r"closed form only covers the linear model"):
            propagate_closed_form(kerr_dev, two_segment_schedule(), 0)

    def test_final_alpha_kerr_rejected(self, device):
        # the closed-form endpoint must not hand back the linear answer
        with pytest.raises(NumericError, match=r"closed form only covers the linear model"):
            final_alpha(device.with_(kerr_coeff=-0.3), two_segment_schedule(), 0)

    def test_nan_sample_dt_is_config_error(self, device):
        with pytest.raises(ConfigError):
            propagate_closed_form(device, two_segment_schedule(), 0, sample_dt=math.nan)

    def test_final_alpha_matches_sampled_path(self, device):
        sched = two_segment_schedule()
        traj = propagate_closed_form(device, sched, 0, sample_dt=0.25)
        assert traj.final_alpha == pytest.approx(final_alpha(device, sched, 0), rel=1e-12)

    @settings(max_examples=25, deadline=None)
    @given(scale=st.floats(min_value=0.01, max_value=10.0, allow_nan=False))
    def test_linearity_in_drive(self, device, scale):
        sched = two_segment_schedule()
        scaled = PulseSchedule(
            tuple(DriveSegment(s.amplitude * scale, s.phase, s.duration) for s in sched)
        )
        base = final_alpha(device, sched, 0)
        assert final_alpha(device, scaled, 0) == pytest.approx(scale * base, rel=1e-12)

    @settings(max_examples=25, deadline=None)
    @given(shift=st.floats(min_value=-10.0, max_value=10.0, allow_nan=False))
    def test_global_phase_covariance(self, device, shift):
        """Rotating every drive phase by delta rotates the field by delta."""
        sched = two_segment_schedule()
        rotated = PulseSchedule(
            tuple(DriveSegment(s.amplitude, s.phase + shift, s.duration) for s in sched)
        )
        base = final_alpha(device, sched, 0)
        assert final_alpha(device, rotated, 0) == pytest.approx(
            cmath.exp(1j * shift) * base, rel=1e-11, abs=1e-14
        )

    def test_superposition(self, device):
        """Responses to two drives add (starting from vacuum)."""
        seg_a = PulseSchedule((DriveSegment(0.02, 0.3, 80.0),))
        seg_b = PulseSchedule((DriveSegment(0.013, 1.9, 80.0),))
        summed = DriveSegment.from_complex(
            seg_a.segments[0].complex_amplitude + seg_b.segments[0].complex_amplitude, 80.0
        )
        lhs = final_alpha(device, PulseSchedule((summed,)), 0)
        rhs = final_alpha(device, seg_a, 0) + final_alpha(device, seg_b, 0)
        assert lhs == pytest.approx(rhs, rel=1e-12)


class TestOde:
    def test_matches_closed_form(self, device, readout):
        sched = PulseSchedule((readout, DriveSegment(0.0395, 1.86, 50.0)))
        cf = propagate_closed_form(device, sched, 0, sample_dt=0.05)
        ode = propagate_ode(device, sched, 0, dt=0.05)
        assert cf.times == pytest.approx(ode.times, abs=1e-9)
        err = np.max(np.abs(cf.alpha - ode.alpha))
        assert err < 1e-9 * np.max(np.abs(cf.alpha))

    def test_fourth_order_convergence(self, device):
        sched = two_segment_schedule()
        exact = final_alpha(device, sched, 0)
        errs = []
        for dt in (0.5, 0.25):
            traj = propagate_ode(device, sched, 0, dt=dt)
            errs.append(abs(traj.final_alpha - exact))
        ratio = errs[0] / errs[1]
        assert 8.0 < ratio < 32.0  # fourth order gives ~16 per halving

    def test_step_too_large(self, device):
        sched = PulseSchedule((DriveSegment(0.01, 0.0, 50.0),))
        with pytest.raises(NumericError, match=r"too coarse for a 50\.0 ns segment"):
            propagate_ode(device, sched, 0, dt=6.0)

    @pytest.mark.parametrize("dt", [math.nan, 0.0, -0.1])
    def test_invalid_dt_is_config_error(self, device, dt):
        sched = PulseSchedule((DriveSegment(0.01, 0.0, 50.0),))
        with pytest.raises(ConfigError):
            propagate_ode(device, sched, 0, dt=dt)
        with pytest.raises(ConfigError):
            ode_final_alpha(device, sched, 0, dt=dt)

    def test_endpoint_with_infinite_dt_is_config_error(self, device):
        sched = PulseSchedule((DriveSegment(0.01, 0.0, 50.0),))
        with pytest.raises(ConfigError):
            ode_final_alpha(device, sched, 0, dt=math.inf)

    def test_diverging_kerr_run_is_non_finite(self, device):
        kerr_dev, segment = diverging_kerr_run(device)
        sched = PulseSchedule((segment,))
        with pytest.raises(NumericError, match=r"diverged during endpoint integration"):
            ode_final_alpha(kerr_dev, sched, 0)
        with pytest.raises(NumericError, match=r"t = 0\.15"):
            propagate_ode(kerr_dev, sched, 0)

    def test_endpoint_takes_ten_steps_on_short_segments(self, device):
        # 0.3 ns at dt 0.05 gets the 10-step floor: the path at dt 0.03
        kerr_dev = device.with_(kerr_coeff=-0.011)
        sched = PulseSchedule((DriveSegment(0.5, 1.0, 0.3),))
        end = ode_final_alpha(kerr_dev, sched, 0, dt=0.05, alpha0=2.0 - 1.0j)
        assert end == propagate_ode(kerr_dev, sched, 0, dt=0.03, alpha0=2.0 - 1.0j).final_alpha

    def test_kerr_shifts_the_field(self, device):
        sched = PulseSchedule((DriveSegment(0.05, 0.0, 300.0),))
        linear = propagate_ode(device, sched, 0, dt=0.1)
        kerr = propagate_ode(device.with_(kerr_coeff=-0.011), sched, 0, dt=0.1)
        assert abs(linear.final_alpha - kerr.final_alpha) > 1e-3

    def test_kerr_steady_photon_matches_cubic(self, device):
        from cavreset import kerr_steady_state

        kerr_dev = device.with_(kerr_coeff=-0.011)
        amp = 0.08
        sched = PulseSchedule((DriveSegment(amp, 0.0, 4000.0),))
        traj = propagate_ode(kerr_dev, sched, 0, dt=0.05)
        n_ode = traj.photon[-1]
        n_cubic = kerr_steady_state(kerr_dev, 0, amp)
        assert n_ode == pytest.approx(n_cubic, rel=1e-6)


    @settings(max_examples=40, deadline=None)
    @given(
        qubit=st.sampled_from([1, 2]),
        kappa_scale=st.floats(min_value=0.3, max_value=3.0),
        chi_source=st.sampled_from(["formula", "measured"]),
        state=st.sampled_from([0, 1]),
        photons=st.floats(min_value=0.1, max_value=30.0),
        readout_phase=st.floats(min_value=0.0, max_value=2.0 * math.pi),
        readout_duration=st.floats(min_value=20.0, max_value=400.0),
        window=st.floats(min_value=1.0, max_value=200.0),
        drive_amp=st.floats(min_value=0.0, max_value=0.2),
        drive_phase=st.floats(min_value=0.0, max_value=2.0 * math.pi),
    )
    def test_rk4_equals_closed_form_in_the_linear_limit(
        self, qubit, kappa_scale, chi_source, state, photons, readout_phase, readout_duration, window,
        drive_amp, drive_phase,
    ):
        """At DESIGN_DT both RK4 branches, kc == 0 and a 1e-18 MHz Kerr term, track the exact map."""
        base = default_device(qubit)
        linear = base.with_(kappa=base.kappa * kappa_scale)
        ring_up = ring_up_segment(linear, state, photons, readout_duration, chi_source)
        sched = PulseSchedule(
            (
                DriveSegment(ring_up.amplitude, readout_phase, readout_duration),
                DriveSegment(drive_amp, drive_phase, window),
            )
        )
        exact = final_alpha(linear, sched, state, chi_source=chi_source)
        for params in (linear, linear.with_(kerr_coeff=1e-18)):
            stepped = ode_final_alpha(params, sched, state, dt=DESIGN_DT, chi_source=chi_source)
            assert abs(stepped - exact) / max(abs(exact), 1.0) < 1e-11


class TestDispatchAndTrajectory:
    def test_propagate_picks_closed_form(self, device):
        sched = two_segment_schedule()
        traj = propagate(device, sched, 0, sample_dt=0.5)
        ode = propagate(device, sched, 0, sample_dt=0.05, force_ode=True)
        assert traj.final_alpha == pytest.approx(ode.final_alpha, rel=1e-9)

    def test_propagate_kerr_uses_ode(self, device):
        kerr_dev = device.with_(kerr_coeff=-0.011)
        traj = propagate(kerr_dev, two_segment_schedule(), 0, sample_dt=0.1)
        assert np.isfinite(traj.photon).all()

    def test_photon_number_interpolates(self, device):
        sched = two_segment_schedule()
        traj = propagate_closed_form(device, sched, 0, sample_dt=0.01)
        coarse = propagate_closed_form(device, sched, 0, sample_dt=1.0)
        for t in (13.7, 55.2, 150.9):
            dense = photon_number(traj, t)
            assert photon_number(coarse, t) == pytest.approx(dense, rel=1e-4, abs=1e-9)

    def test_photon_number_out_of_range(self, device):
        traj = propagate_closed_form(device, two_segment_schedule(), 0)
        with pytest.raises(NumericError, match=r"time -1\.0 outside trajectory span"):
            photon_number(traj, -1.0)
        with pytest.raises(NumericError, match=r"time 10000\.0 outside trajectory span"):
            photon_number(traj, 1e4)

    def test_photon_number_nan_is_out_of_range(self, device):
        traj = propagate_closed_form(device, two_segment_schedule(), 0)
        with pytest.raises(NumericError, match=r"time nan outside trajectory span"):
            photon_number(traj, math.nan)

    def test_csv_round_trip(self, device, tmp_path):
        traj = propagate_closed_form(device, two_segment_schedule(), 0, sample_dt=5.0)
        path = tmp_path / "traj.csv"
        traj.write_csv(path)
        header = path.read_text().splitlines()[0]
        assert header == "t_ns,re_alpha,im_alpha,n"
        back = np.genfromtxt(path, delimiter=",", names=True, ndmin=1)
        assert back["t_ns"] == pytest.approx(traj.times)
        assert back["re_alpha"] + 1j * back["im_alpha"] == pytest.approx(traj.alpha)

    def test_csv_one_row(self, tmp_path):
        path = tmp_path / "one.csv"
        Trajectory(times=[2.5], alpha=[0.1 - 0.2j], qubit_state=0).write_csv(path)
        back = np.genfromtxt(path, delimiter=",", names=True, ndmin=1)
        assert back.shape == (1,)
        assert complex(back["re_alpha"][0], back["im_alpha"][0]) == pytest.approx(0.1 - 0.2j)

    def test_qubit_state_recorded(self, device):
        traj = propagate_closed_form(device, two_segment_schedule(), 1)
        assert int(traj.qubit_state) == 1

    def test_starts_at_given_alpha0(self, device):
        a0 = 0.3 + 0.1j
        traj = propagate_closed_form(device, two_segment_schedule(), 0, alpha0=a0)
        assert traj.alpha[0] == pytest.approx(a0)
        assert traj.times[0] == 0.0


def _alpha_at_time(device, schedule, t):
    """Exact field at an arbitrary time: evolve whole segments, then a
    partial step inside the one containing t."""
    c = complex_rate(device, 0)
    alpha = 0j
    clock = 0.0
    for seg in schedule.segments:
        ss = -2j * seg.complex_amplitude / c
        if t >= clock + seg.duration:
            alpha = ss + (alpha - ss) * cmath.exp(-0.5 * c * seg.duration)
            clock += seg.duration
            continue
        return ss + (alpha - ss) * cmath.exp(-0.5 * c * (t - clock))
    return alpha


def _closure_rk4(alpha0, segments, half_c, kc, dt, samples=None):
    """RK4 with the right-hand side as a closure per segment.

    The plain form of `dynamics._rk4`, whose stages write the right-hand
    side out inline; kept here as the bit-identity reference for it.
    """
    from cavreset.dynamics import _rk4_steps

    a = alpha0
    for drive, duration in segments:
        n, h = _rk4_steps(duration, dt)
        drive_term = -1j * drive
        if kc == 0.0:

            def rhs(x):
                return drive_term - half_c * x

        else:

            def rhs(x):
                return drive_term - half_c * x - 1j * kc * (x.real * x.real + x.imag * x.imag) * x

        for _ in range(n):
            k1 = rhs(a)
            k2 = rhs(a + 0.5 * h * k1)
            k3 = rhs(a + 0.5 * h * k2)
            k4 = rhs(a + h * k3)
            a = a + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
            if samples is not None:
                samples.append(a)
    return a


def _segments(schedule):
    return [(seg.complex_amplitude, seg.duration) for seg in schedule]


class TestInlineRk4:
    """The inlined RK4 stages give the same bits as the closure form."""

    @pytest.mark.parametrize("kerr", [0.0, -0.011, 0.2])
    @pytest.mark.parametrize("state", [0, 1])
    def test_propagate_ode_samples(self, device, kerr, state):
        dev = device.with_(kerr_coeff=kerr)
        sched = two_segment_schedule()
        traj = propagate_ode(dev, sched, state, dt=0.05)
        half_c = 0.5 * complex_rate(dev, state)
        samples = [0j]
        _closure_rk4(0j, _segments(sched), half_c, kerr * MHZ_TO_RAD_NS, 0.05, samples)
        assert np.array_equal(traj.alpha, np.array(samples))

    @pytest.mark.parametrize("kerr", [0.0, -0.5])
    @pytest.mark.parametrize("dt", [0.05, 0.013])
    def test_ode_final_alpha(self, device, readout, kerr, dt):
        dev = device.with_(kerr_coeff=kerr)
        sched = PulseSchedule((readout, DriveSegment(0.04, 1.9, 37.3)))
        half_c = 0.5 * complex_rate(dev, 1)
        expected = _closure_rk4(0j, _segments(sched), half_c, kerr * MHZ_TO_RAD_NS, dt)
        assert ode_final_alpha(dev, sched, 1, dt=dt, alpha0=0j) == expected


class TestGridTiles:
    """Residual maps go tile by tile through the drive grid; no bit depends on the tiling."""

    readout = DriveSegment(0.03, 0.4, 200.0)

    def _axes(self, na, nphi, amp_max=0.08):
        return np.linspace(0.0, amp_max, na), np.linspace(0.0, 2.0 * math.pi, nphi, endpoint=False)

    def _untiled(self, dev, state, window, amps, phases):
        """The whole grid in one call: closed form, or the extrapolation steppers."""
        from cavreset.dynamics import _gbs_field, _gbs_grid, _gbs_steps, _segment_end_alpha

        c = complex_rate(dev, state)
        drives = amps[:, None] * np.exp(1j * phases[None, :])
        if dev.kerr_coeff == 0.0:
            alpha_tau = final_alpha(dev, PulseSchedule((self.readout,)), state)
            end = _segment_end_alpha(alpha_tau, c, drives, window)
        else:
            kc = dev.kerr_coeff * MHZ_TO_RAD_NS
            ro = self.readout
            steps = _gbs_steps(0j, ro.amplitude, ro.duration, c, kc)
            alpha_tau = _gbs_field(0j, ro.complex_amplitude, ro.duration, 0.5 * c, kc, steps)
            steps = _gbs_steps(alpha_tau, float(amps.max()), window, c, kc)
            end = _gbs_grid(alpha_tau, drives, window, 0.5 * c, kc, steps)
        return np.abs(end) ** 2

    @staticmethod
    def _same_bits(a, b):
        return a.shape == b.shape and np.array_equal(a.view(np.uint64), b.view(np.uint64))

    @pytest.mark.parametrize("kerr", [0.0, -0.2])
    def test_full_and_partial_tiles(self, device, monkeypatch, kerr):
        from cavreset import design

        monkeypatch.setattr(design, "_GRID_TILE", 5)  # 42 cells: 8 full tiles and one of 2
        dev = device.with_(kerr_coeff=kerr)
        amps, phases = self._axes(7, 6)
        rmap = design.residual_map(dev, 1, self.readout, 20.0, amps, phases)
        assert self._same_bits(rmap.residual, self._untiled(dev, 1, 20.0, amps, phases))
        for i, eps in enumerate(amps):
            for j, phi in enumerate(phases):
                sched = PulseSchedule((self.readout, DriveSegment(eps, phi, 20.0)))
                if kerr == 0.0:
                    direct = abs(final_alpha(dev, sched, 1)) ** 2
                else:
                    direct = abs(ode_final_alpha(dev, sched, 1, dt=design.DESIGN_DT)) ** 2
                assert rmap.residual[i, j] == pytest.approx(direct, rel=1e-12, abs=1e-20)

    @pytest.mark.parametrize("kerr", [0.0, -0.2])
    def test_grid_crossing_one_tile(self, device, kerr):
        from cavreset.design import _GRID_TILE, residual_map

        amps, phases = self._axes(129, 128)
        assert 128 * 128 == _GRID_TILE < amps.size * phases.size
        dev = device.with_(kerr_coeff=kerr)
        rmap = residual_map(dev, 0, self.readout, 0.5, amps, phases)
        assert self._same_bits(rmap.residual, self._untiled(dev, 0, 0.5, amps, phases))

    @pytest.mark.parametrize("kerr", [0.0, -0.2])
    def test_one_cell(self, device, kerr):
        from cavreset.design import residual_map

        dev = device.with_(kerr_coeff=kerr)
        amps, phases = np.array([0.05]), np.array([1.1])
        rmap = residual_map(dev, 0, self.readout, 20.0, amps, phases)
        assert self._same_bits(rmap.residual, self._untiled(dev, 0, 20.0, amps, phases))

    def test_diverging_cells_stay_non_finite(self, device):
        from cavreset.design import residual_map

        dev = device.with_(kerr_coeff=0.5)
        amps, phases = np.array([0.0, 0.05, 500.0, 5000.0]), np.array([0.0, 2.0])
        with np.errstate(over="ignore", invalid="ignore"):
            rmap = residual_map(dev, 0, self.readout, 20.0, amps, phases)
            expected = self._untiled(dev, 0, 20.0, amps, phases)
        finite = np.isfinite(rmap.residual)
        assert finite.any() and not finite.all()
        assert np.array_equal(rmap.residual, expected, equal_nan=True)

    def test_strong_drive_stops_at_the_step_floor(self, device, monkeypatch):
        # at the floor a macro-step costs about as much as RK4 at 0.05 ns:
        # a 5000 rad/ns drive makes a map slow, never hang
        from cavreset import design, dynamics

        steps = []

        def spy(alpha0, drives, duration, half_c, kc, n):
            steps.append(n)
            return dynamics._gbs_grid(alpha0, drives, duration, half_c, kc, n)

        monkeypatch.setattr(design, "_gbs_grid", spy)
        amps, phases = np.array([0.0, 5000.0]), np.array([0.0, 2.0])
        dev = device.with_(kerr_coeff=-0.2)
        design.residual_map(dev, 0, self.readout, 20.0, amps, phases)
        assert steps and max(steps) <= math.ceil(20.0 / dynamics._GBS_MIN_STEP)


class TestGbsField:
    """`_gbs_field`: the extrapolation stepper on one Python complex field."""

    @pytest.mark.parametrize(
        "kerr,alpha0,drive,duration",
        [
            (-0.011, 0j, 0.02 * cmath.exp(0.7j), 1294.0),
            (-0.2, 0j, 0.03 * cmath.exp(0.4j), 200.0),
            (-0.5, 3.0 - 2.0j, 0.1 * cmath.exp(-2.1j), 60.0),
            (0.5, 1.5j, 0.2, 30.0),
            (0.0, 2.0 + 1.0j, 0.05j, 45.0),
        ],
    )
    @pytest.mark.parametrize("state", [0, 1])
    def test_matches_one_cell_grid(self, device, kerr, alpha0, drive, duration, state):
        from cavreset.dynamics import _gbs_field, _gbs_grid, _gbs_steps

        c = complex_rate(device, state)
        kc = kerr * MHZ_TO_RAD_NS
        steps = _gbs_steps(alpha0, abs(drive), duration, c, kc)
        field = _gbs_field(alpha0, drive, duration, 0.5 * c, kc, steps)
        cell = complex(_gbs_grid(alpha0, np.array([drive]), duration, 0.5 * c, kc, steps)[0])
        assert type(field) is complex
        assert abs(field - cell) <= 1e-13 * max(abs(cell), 1.0)

    def test_diverging_field_is_numeric_error(self, device):
        from cavreset.dynamics import _gbs_field, _gbs_steps

        kerr_dev, segment = diverging_kerr_run(device)
        c = complex_rate(kerr_dev, 0)
        kc = kerr_dev.kerr_coeff * MHZ_TO_RAD_NS
        steps = _gbs_steps(0j, segment.amplitude, segment.duration, c, kc)
        with pytest.raises(NumericError, match=r"diverged during endpoint integration"):
            _gbs_field(0j, segment.complex_amplitude, segment.duration, 0.5 * c, kc, steps)

    def test_diverging_map_readout_is_numeric_error(self, device):
        from cavreset.design import residual_map

        kerr_dev, segment = diverging_kerr_run(device)
        with pytest.raises(NumericError):
            residual_map(kerr_dev, 0, segment, 20.0, np.array([0.0, 0.05]), np.array([0.0, 2.0]))


class TestAmplitudeBound:
    """The decay-envelope bound on |alpha| that sets the extrapolation macro-step."""

    @settings(max_examples=30, deadline=None)
    @given(
        qubit=st.sampled_from([1, 2]),
        state=st.sampled_from([0, 1]),
        kappa_scale=st.floats(min_value=0.3, max_value=3.0),
        kerr=st.floats(min_value=-0.5, max_value=0.5),
        r0=st.floats(min_value=0.0, max_value=6.0),
        theta0=st.floats(min_value=0.0, max_value=2.0 * math.pi),
        drive_amp=st.floats(min_value=0.0, max_value=0.2),
        drive_phase=st.floats(min_value=0.0, max_value=2.0 * math.pi),
        window=st.floats(min_value=1.0, max_value=200.0),
    )
    def test_bounds_the_field_and_never_exceeds_the_former_bound(
        self, qubit, state, kappa_scale, kerr, r0, theta0, drive_amp, drive_phase, window
    ):
        from cavreset.dynamics import _amplitude_bound

        base = default_device(qubit)
        dev = base.with_(kappa=base.kappa * kappa_scale, kerr_coeff=kerr)
        alpha0 = cmath.rect(r0, theta0)
        sched = PulseSchedule((DriveSegment(drive_amp, drive_phase, window),))
        traj = propagate_ode(dev, sched, state, dt=0.01, alpha0=alpha0)
        c = complex_rate(dev, state)
        bound = _amplitude_bound(alpha0, drive_amp, window, c)
        assert np.abs(traj.alpha).max() <= bound * (1.0 + 1e-9)
        former = min(abs(alpha0) + drive_amp * window, max(abs(alpha0), 2.0 * drive_amp / c.real))
        assert bound <= former

    @pytest.mark.parametrize("window", [1.0, 50.0, 400.0])
    def test_a_resonant_drive_from_vacuum_reaches_it(self, device, window):
        # at zero detuning |alpha| grows along the envelope itself, so the bound is tight
        from cavreset.core import chi_shift
        from cavreset.dynamics import _amplitude_bound

        dev = device.with_(drive_freq=device.bare_cavity_freq + chi_shift(device, 0))
        end = final_alpha(dev, PulseSchedule((DriveSegment(0.05, 0.3, window),)), 0)
        bound = _amplitude_bound(0j, 0.05, window, complex_rate(dev, 0))
        assert abs(end) == pytest.approx(bound, rel=1e-12)


class TestRk4Tangent:
    """The sensitivity pass: `_rk4` plus the exact derivative of its map."""

    def _window(self, drives, durations):
        # the drive of every segment is x0 * drives[k] + x1 * 1j * drives[k]
        def segments(x):
            return [
                (complex(x[0], x[1]) * d, t, d, 1j * d) for d, t in zip(drives, durations)
            ]

        return segments

    @pytest.mark.parametrize(
        "drives,durations",
        [((1.0,), (60.0,)), ((1.0, -0.7 + 0.2j), (25.0, 25.0))],
        ids=["one_segment", "two_segments"],
    )
    def test_field_equals_rk4(self, device, drives, durations):
        from cavreset.dynamics import _rk4, _rk4_tangent

        half_c = 0.5 * complex_rate(device, 0)
        kc = -0.5 * MHZ_TO_RAD_NS
        segments = self._window(drives, durations)([0.03, -0.05])
        alpha0 = 1.7 - 2.2j
        a, _, _ = _rk4_tangent(alpha0, segments, half_c, kc, 0.05)
        assert a == _rk4(alpha0, [(d, t) for d, t, _, _ in segments], half_c, kc, 0.05)

    @pytest.mark.parametrize(
        "drives,durations",
        [((1.0,), (60.0,)), ((1.0, -0.7 + 0.2j), (25.0, 25.0))],
        ids=["one_segment", "two_segments"],
    )
    def test_jacobian_matches_central_differences(self, device, drives, durations):
        from conftest import central_difference_jacobian

        from cavreset.dynamics import _rk4, _rk4_tangent

        half_c = 0.5 * complex_rate(device, 1)
        kc = -0.5 * MHZ_TO_RAD_NS
        window = self._window(drives, durations)
        alpha0 = 1.7 - 2.2j
        x = np.array([0.03, -0.05])

        def residuals(p):
            a = _rk4(alpha0, [(d, t) for d, t, _, _ in window(p)], half_c, kc, 0.05)
            return np.array([a.real, a.imag])

        _, d0, d1 = _rk4_tangent(alpha0, window(x), half_c, kc, 0.05)
        exact = np.array([[d0.real, d1.real], [d0.imag, d1.imag]])
        numeric = central_difference_jacobian(residuals, x)
        assert np.max(np.abs(exact - numeric)) <= 1e-7 * np.max(np.abs(exact))

    def test_invalid_dt_is_config_error(self, device):
        from cavreset.dynamics import _rk4_tangent

        with pytest.raises(ConfigError):
            _rk4_tangent(0j, [(0.01, 10.0, 1.0, 1j)], 0.5 * complex_rate(device, 0), -0.01, 0.0)

    def test_diverging_run_is_non_finite(self, device):
        from cavreset.dynamics import _rk4_tangent

        kerr_dev, segment = diverging_kerr_run(device)
        segments = [(segment.complex_amplitude, segment.duration, 1.0, 1j)]
        half_c = 0.5 * complex_rate(kerr_dev, 0)
        with pytest.raises(NumericError, match=r"diverged during sensitivity integration"):
            _rk4_tangent(0j, segments, half_c, kerr_dev.kerr_coeff * MHZ_TO_RAD_NS, 0.05)
