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
    KerrNotSupported,
    OutOfRange,
    PulseSchedule,
    StepTooLarge,
    Trajectory,
    complex_rate,
    final_alpha,
    kerr_steady_state,
    photon_number,
    propagate,
    propagate_closed_form,
    propagate_ode,
    read_trajectory_csv,
    ring_up_segment,
    steady_state_alpha,
)
from cavreset.dynamics import ode_final_alpha

MHZ_TO_RAD_NS = 2.0 * math.pi * 1e-3


def two_segment_schedule():
    return PulseSchedule(
        (
            DriveSegment(0.02, 0.3, 120.0),
            DriveSegment(0.05, 2.0, 60.0),
        )
    )


class TestSteadyState:
    def test_matches_analytic(self, device):
        c = complex_rate(device, 0).c
        drive = 0.02 * cmath.exp(0.4j)
        assert steady_state_alpha(c, drive) == pytest.approx(-2j * drive / c)

    def test_long_drive_settles_there(self, device):
        # transient leftover is e^{-kappa t / 2} ~ 1e-7 after 3 us
        seg = DriveSegment(0.02, 0.4, 3000.0)
        sched = PulseSchedule((seg,))
        alpha_end = final_alpha(device, sched, 0)
        ss = steady_state_alpha(complex_rate(device, 0).c, seg.complex_amplitude)
        assert alpha_end == pytest.approx(ss, rel=1e-6)

    def test_ring_up_segment_targets_photons(self, device):
        seg = ring_up_segment(device, 0, 5.0, 900.0)
        ss = steady_state_alpha(complex_rate(device, 0).c, seg.complex_amplitude)
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
        c = complex_rate(device, 0).c
        h = 1e-4
        for seg, t0 in zip(sched.segments, sched.boundaries()):
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
        for edge in sched.boundaries():
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
        with pytest.raises(KerrNotSupported):
            propagate_closed_form(kerr_dev, two_segment_schedule(), 0)

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
        with pytest.raises(StepTooLarge):
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


class TestDispatchAndTrajectory:
    def test_propagate_picks_closed_form(self, device):
        sched = two_segment_schedule()
        traj = propagate(device, sched, 0, sample_dt=0.5)
        ode = propagate(device, sched, 0, sample_dt=0.5, force_ode=True, ode_dt=0.05)
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
        with pytest.raises(OutOfRange):
            photon_number(traj, -1.0)
        with pytest.raises(OutOfRange):
            photon_number(traj, 1e4)

    def test_csv_round_trip(self, device, tmp_path):
        traj = propagate_closed_form(device, two_segment_schedule(), 0, sample_dt=5.0)
        path = tmp_path / "traj.csv"
        traj.write_csv(path)
        header = path.read_text().splitlines()[0]
        assert header == "t_ns,re_alpha,im_alpha,n"
        back = read_trajectory_csv(path)
        assert back.times == pytest.approx(traj.times)
        assert back.alpha == pytest.approx(traj.alpha)

    def test_csv_one_row(self, tmp_path):
        path = tmp_path / "one.csv"
        Trajectory(times=[2.5], alpha=[0.1 - 0.2j], qubit_state=0).write_csv(path)
        back = read_trajectory_csv(path)
        assert back.times.shape == (1,)
        assert back.alpha.shape == (1,)
        assert back.final_alpha == pytest.approx(0.1 - 0.2j)

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
    c = complex_rate(device, 0).c
    alpha = 0j
    clock = 0.0
    for seg in schedule.segments:
        if t >= clock + seg.duration:
            ss = steady_state_alpha(c, seg.complex_amplitude)
            alpha = ss + (alpha - ss) * cmath.exp(-0.5 * c * seg.duration)
            clock += seg.duration
            continue
        ss = steady_state_alpha(c, seg.complex_amplitude)
        return ss + (alpha - ss) * cmath.exp(-0.5 * c * (t - clock))
    return alpha
