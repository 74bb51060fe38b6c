"""Reset drive design: closed form, optimizer, maps, scheme comparison."""

import cmath
import json
import math

import numpy as np
import pytest

from cavreset import (
    ConfigError,
    DriveSegment,
    NotConverged,
    NumericError,
    PulseSchedule,
    SolutionMode,
    clear_optimize,
    compare_schemes,
    complex_rate,
    final_alpha,
    propagate,
    residual_map,
    ring_up_segment,
    scaling_law_check,
    sspe_analytic,
    sspe_optimize,
)
from cavreset.design import DESIGN_DT
from cavreset.dynamics import ode_final_alpha

MHZ_TO_RAD_NS = 2.0 * math.pi * 1e-3
RESET = 50.0


class TestAnalytic:
    def test_exact_for_ground(self, device, readout):
        sol = sspe_analytic(device, 0, readout, RESET)
        assert sol.residual_photons[0] < 1e-20
        assert sol.method == "analytic"
        assert sol.converged

    def test_exact_for_excited(self, device, readout):
        sol = sspe_analytic(device, 1, readout, RESET)
        assert sol.residual_photons[1] < 1e-20

    def test_frozen_solution_values(self, device, readout):
        sol0 = sspe_analytic(device, 0, readout, RESET)
        assert sol0.reset_amplitude == pytest.approx(0.03947849508018339, rel=1e-10)
        assert sol0.reset_phase == pytest.approx(1.8609065627414016, rel=1e-10)
        sol1 = sspe_analytic(device, 1, readout, RESET)
        assert sol1.reset_amplitude == pytest.approx(sol0.reset_amplitude, rel=1e-9)
        assert sol1.reset_phase == pytest.approx(4.42227874443785, rel=1e-10)

    def test_matches_transfer_formula(self, device, readout):
        # eps_r e^{i phi_r} = eps_n e^{i phi_n} (1 - e^{-tau C/2}) / (1 - e^{dtau C/2})
        c = complex_rate(device, 0)
        drive = readout.complex_amplitude
        expected = drive * (1.0 - cmath.exp(-0.5 * readout.duration * c)) / (
            1.0 - cmath.exp(0.5 * RESET * c)
        )
        sol = sspe_analytic(device, 0, readout, RESET)
        got = sol.reset_amplitude * cmath.exp(1j * sol.reset_phase)
        assert got == pytest.approx(expected, rel=1e-12)

    def test_wrong_state_left_hot(self, device, readout):
        sol = sspe_analytic(device, 0, readout, RESET)
        assert sol.residual_photons[1] > 1.0  # the other state stays far from vacuum

    def test_schedule_round_trip(self, device, readout):
        sol = sspe_analytic(device, 0, readout, RESET)
        sched = sol.schedule()
        assert len(sched) == 2
        assert sched.total_duration == pytest.approx(readout.duration + RESET)
        assert abs(final_alpha(device, sched, 0)) ** 2 < 1e-20

    def test_amplitude_shrinks_with_longer_window(self, device, readout):
        amps = [
            sspe_analytic(device, 0, readout, dtau).reset_amplitude
            for dtau in (25.0, 50.0, 100.0, 200.0)
        ]
        assert all(a > b for a, b in zip(amps, amps[1:]))

    def test_kerr_rejected(self, device, readout):
        with pytest.raises(NumericError, match=r"requires kerr_coeff = 0"):
            sspe_analytic(device.with_(kerr_coeff=-0.011), 0, readout, RESET)

    def test_nonpositive_duration_rejected(self, device, readout):
        with pytest.raises(ConfigError):
            sspe_analytic(device, 0, readout, 0.0)

    def test_degenerate_duration_lossless(self, device, readout):
        lossless = device.with_(kappa=0.0)
        delta = complex_rate(lossless, 0).imag / 2.0
        with pytest.raises(NumericError, match=r"reset window .* is degenerate"):
            sspe_analytic(lossless, 0, readout, 2.0 * math.pi / abs(delta))

    def test_zero_readout_needs_no_drive(self, device):
        silent = DriveSegment(0.0, 0.0, 900.0)
        sol = sspe_analytic(device, 0, silent, RESET)
        assert sol.reset_amplitude == pytest.approx(0.0, abs=1e-15)


class TestOptimizer:
    def test_recovers_analytic_solution(self, device, readout):
        analytic = sspe_analytic(device, 0, readout, RESET)
        numeric = sspe_optimize(device, 0, readout, RESET)
        assert numeric.converged
        assert numeric.method == "numeric"
        assert numeric.reset_amplitude == pytest.approx(analytic.reset_amplitude, rel=1e-6)
        assert numeric.reset_phase == pytest.approx(analytic.reset_phase, abs=1e-6)
        assert numeric.residual_photons[0] < 1e-6

    def test_joint_mode_balances_states(self, device, readout):
        joint = sspe_optimize(device, (0, 1), readout, RESET)
        assert joint.mode is SolutionMode.JOINT
        r0 = joint.residual_photons[0]
        r1 = joint.residual_photons[1]
        assert r0 > 0.1 and r1 > 0.1  # no single drive empties both states

        def weighted(sol):
            return 0.5 * (sol.residual_photons[0] + sol.residual_photons[1])

        assert weighted(joint) < weighted(sspe_analytic(device, 0, readout, RESET))
        assert weighted(joint) < weighted(sspe_analytic(device, 1, readout, RESET))

    def test_kerr_device_optimizes(self, device, readout):
        kerr_dev = device.with_(kerr_coeff=-0.011)
        sol = sspe_optimize(kerr_dev, 0, readout, RESET)
        assert sol.converged
        assert sol.residual_photons[0] < 1e-6

    def test_kerr_window_shorter_than_ten_design_steps(self, device, readout):
        # 0.3 ns < 10 * DESIGN_DT: the window still gets the 10-step floor
        sol = sspe_optimize(device.with_(kerr_coeff=-0.011), 0, readout, 0.3)
        assert sol.converged
        assert sol.residual_photons[0] < 1e-6

    @pytest.mark.parametrize("kerr", [0.0, -0.05])
    def test_residuals_equal_full_schedule_endpoints(self, device, readout, kerr):
        # the readout end is shared, the window continues from it
        dev = device.with_(kerr_coeff=kerr)
        sol = sspe_optimize(dev, (0, 1), readout, RESET)
        for j in (0, 1):
            if kerr == 0.0:
                end = final_alpha(dev, sol.schedule(), j)
            else:
                end = ode_final_alpha(dev, sol.schedule(), j, dt=DESIGN_DT)
            assert sol.residual_photons[j] == abs(end) ** 2

    def test_kerr_design_escapes_local_minimum(self, device):
        # LM from the linear optimum stalls at 0.61 photons here; the restart
        # from the linear drive for the Kerr readout end reaches zero
        dev = device.with_(kerr_coeff=-0.3572)
        sol = sspe_optimize(dev, 0, DriveSegment(0.03284, 3.112, 530.4), 70.7)
        assert sol.converged
        assert sol.residual_photons[0] <= 1e-20

    def test_kerr_stall_is_not_reported_as_converged(self, device, readout, monkeypatch):
        import cavreset.design as design_module
        from cavreset.optimize import LMResult

        def stalled(model, p0):
            r, jac = model(np.asarray(p0, dtype=float))
            return LMResult(np.asarray(p0, dtype=float), 0.5 * float(r @ r), r,
                            jac, 1, True, "stalled")

        monkeypatch.setattr(design_module, "levenberg_marquardt", stalled)
        sol = sspe_optimize(device.with_(kerr_coeff=-0.3), 0, readout, RESET)
        assert sol.residual_photons[0] > 1e-12
        assert not sol.converged
        assert sol.iterations == 2  # the first run and the one restart
        with pytest.raises(NotConverged):
            sol.require_converged()

    def test_result_serializes(self, device, readout):
        sol = sspe_optimize(device, 0, readout, RESET)
        blob = json.dumps(sol.to_dict(), sort_keys=True)
        assert "reset_amplitude" in blob


class TestClear:
    def test_structure(self, device, readout):
        sched = clear_optimize(device, 0, readout, RESET)
        assert len(sched) == 3
        assert sched.label == "clear"
        assert sched.segments[0] == readout
        assert sched.segments[1].duration == pytest.approx(RESET / 2.0)
        assert sched.segments[2].duration == pytest.approx(RESET / 2.0)
        # phases stay on the readout axis, up to sign flips
        for seg in sched.segments[1:]:
            rel = (seg.phase - readout.phase) % math.pi
            assert min(rel, math.pi - rel) < 1e-6

    def test_resets_the_target_state(self, device, readout):
        sched = clear_optimize(device, 0, readout, RESET)
        assert abs(final_alpha(device, sched, 0)) ** 2 < 1e-4

    def test_frozen_amplitudes(self, device, readout):
        sched = clear_optimize(device, 0, readout, RESET)
        assert sched.segments[1].amplitude == pytest.approx(0.3598921145315342, rel=1e-6)
        assert sched.segments[2].amplitude == pytest.approx(0.2929179347435854, rel=1e-6)

    def test_beats_grid_oracle(self, device, readout):
        """No (e1, e2) pair on a coarse grid does better than the solution."""
        sched = clear_optimize(device, 0, readout, RESET)
        best = abs(final_alpha(device, sched, 0)) ** 2

        alpha_tau = final_alpha(device, PulseSchedule((readout,)), 0)
        half = RESET / 2.0
        grid = np.linspace(-0.6, 0.6, 21)
        phases = (readout.phase, readout.phase + math.pi)
        for e1 in grid:
            for e2 in grid:
                segs = []
                for e, ph in ((e1, phases[0]), (e2, phases[1])):
                    segs.append(DriveSegment(abs(e), ph + (math.pi if e < 0 else 0.0), half))
                trial = PulseSchedule((readout, *segs))
                assert abs(final_alpha(device, trial, 0)) ** 2 >= best - 1e-12

    def test_excited_state_target(self, device, readout):
        sched = clear_optimize(device, 1, readout, RESET)
        assert abs(final_alpha(device, sched, 1)) ** 2 < 1e-4

    def test_kerr_window_shorter_than_ten_design_steps(self, device, readout):
        # two 0.4 ns halves, each shorter than 10 * DESIGN_DT
        kerr_dev = device.with_(kerr_coeff=-0.011)
        sched = clear_optimize(kerr_dev, 0, readout, 0.8)
        assert abs(ode_final_alpha(kerr_dev, sched, 0, dt=DESIGN_DT)) ** 2 < 1e-6


class TestResidualMap:
    def make(self, device, readout, amps=25, phases=24):
        amp_axis = np.linspace(0.0, 0.06, amps)
        phase_axis = np.linspace(0.0, 2.0 * math.pi, phases, endpoint=False)
        return residual_map(device, 0, readout, RESET, amp_axis, phase_axis)

    def test_shape_and_layout(self, device, readout):
        rmap = self.make(device, readout)
        assert rmap.residual.shape == (25, 24)
        assert rmap.qubit_state == 0

    def test_minimum_near_analytic(self, device, readout):
        rmap = self.make(device, readout, amps=61, phases=64)
        sol = sspe_analytic(device, 0, readout, RESET)
        eps, phi, val = rmap.minimum()
        d_amp = rmap.amplitude_axis[1] - rmap.amplitude_axis[0]
        d_phi = rmap.phase_axis[1] - rmap.phase_axis[0]
        assert abs(eps - sol.reset_amplitude) <= d_amp
        assert abs(phi - sol.reset_phase) <= d_phi

    def test_zero_amplitude_row_is_free_decay(self, device, readout):
        rmap = self.make(device, readout)
        alpha_tau = final_alpha(device, PulseSchedule((readout,)), 0)
        kappa_ang = device.kappa * MHZ_TO_RAD_NS
        expected = abs(alpha_tau) ** 2 * math.exp(-kappa_ang * RESET)
        assert rmap.residual[0, :] == pytest.approx(expected, rel=1e-10)

    def test_grid_points_match_pointwise_propagation(self, device, readout):
        rmap = self.make(device, readout, amps=5, phases=4)
        for i, eps in enumerate(rmap.amplitude_axis):
            for j, phi in enumerate(rmap.phase_axis):
                sched = PulseSchedule((readout, DriveSegment(eps, phi, RESET)))
                direct = abs(final_alpha(device, sched, 0)) ** 2
                assert rmap.residual[i, j] == pytest.approx(direct, rel=1e-10, abs=1e-18)

    def test_contour_cells(self, device, readout):
        rmap = self.make(device, readout, amps=61, phases=64)
        assert rmap.contour_level == 0.1
        inside = {(i, j) for i, j in rmap.contour_cells}
        assert inside  # the analytic solution region is on the grid
        for i in range(rmap.residual.shape[0]):
            for j in range(rmap.residual.shape[1]):
                assert ((i, j) in inside) == (rmap.residual[i, j] <= 0.1)

    def test_csv_and_sidecar(self, device, readout, tmp_path):
        rmap = self.make(device, readout, amps=4, phases=3)
        csv_path = tmp_path / "map.csv"
        rmap.write_csv(csv_path)
        lines = csv_path.read_text().splitlines()
        assert lines[0] == "eps_r,phi_r,residual"
        assert len(lines) == 1 + 4 * 3
        side = rmap.sidecar_dict()
        assert side["shape"] == [4, 3]
        assert "minimum" in side and "contour_cells" in side

    def test_kerr_map_differs_from_linear(self, device, readout):
        amp_axis = np.linspace(0.0, 0.06, 7)
        phase_axis = np.linspace(0.0, 2.0 * math.pi, 6, endpoint=False)
        lin = residual_map(device, 0, readout, RESET, amp_axis, phase_axis)
        kerr = residual_map(
            device.with_(kerr_coeff=-0.011), 0, readout, RESET, amp_axis, phase_axis
        )
        assert np.max(np.abs(lin.residual - kerr.residual)) > 1e-3

    @pytest.mark.parametrize("state", [0, 1])
    def test_kerr_cells_match_scalar_rk4(self, device, readout, state):
        kerr_dev = device.with_(kerr_coeff=-0.011)
        amp_axis = np.linspace(0.0, 0.06, 3)
        phase_axis = np.linspace(0.0, 2.0 * math.pi, 2, endpoint=False)
        rmap = residual_map(kerr_dev, state, readout, RESET, amp_axis, phase_axis)
        for i, eps in enumerate(amp_axis):
            for j, phi in enumerate(phase_axis):
                sched = PulseSchedule((readout, DriveSegment(eps, phi, RESET)))
                direct = abs(ode_final_alpha(kerr_dev, sched, state, dt=DESIGN_DT)) ** 2
                assert rmap.residual[i, j] == pytest.approx(direct, rel=1e-12)

    @pytest.mark.filterwarnings("error")
    def test_zero_rate_cells_match_final_alpha(self, device):
        # kappa = 0, g = 0 and a resonant drive give C_j = 0: lossless drift
        lossless = device.with_(kappa=0.0, coupling=0.0, drive_freq=device.bare_cavity_freq)
        readout = DriveSegment(0.02, 0.3, 100.0)
        amp_axis = np.linspace(0.0, 0.06, 4)
        phase_axis = np.linspace(0.0, 2.0 * math.pi, 3, endpoint=False)
        rmap = residual_map(lossless, 0, readout, RESET, amp_axis, phase_axis)
        for i, eps in enumerate(amp_axis):
            for j, phi in enumerate(phase_axis):
                sched = PulseSchedule((readout, DriveSegment(eps, phi, RESET)))
                direct = abs(final_alpha(lossless, sched, 0)) ** 2
                assert rmap.residual[i, j] == pytest.approx(direct, rel=1e-12, abs=1e-18)

    def test_empty_grid_rejected(self, device, readout):
        with pytest.raises(ConfigError):
            residual_map(device, 0, readout, RESET, [], [0.0])

    def test_negative_amplitude_rejected(self, device, readout):
        with pytest.raises(ConfigError):
            residual_map(device, 0, readout, RESET, [-0.1, 0.0], [0.0])

    @pytest.mark.parametrize(
        "amps, phases, window",
        [
            ([math.nan, 0.01], [0.0], RESET),
            ([math.inf], [0.0], RESET),
            ([0.01], [0.0, math.nan], RESET),
            ([0.01], [-math.inf], RESET),
            ([0.01], [0.0], math.nan),
            ([0.01], [0.0], math.inf),
        ],
    )
    def test_non_finite_input_rejected(self, device, readout, amps, phases, window):
        with pytest.raises(ConfigError):
            residual_map(device, 0, readout, window, amps, phases)

    def diverging_map(self, device, amps):
        kerr_dev = device.with_(kerr_coeff=-500.0)
        return residual_map(kerr_dev, 0, DriveSegment(0.01, 0.0, 100.0), 20.0, amps, [0.0])

    def test_minimum_skips_diverged_cells(self, device, tmp_path):
        rmap = self.diverging_map(device, [0.0, 100.0])
        assert math.isfinite(rmap.residual[0, 0]) and math.isnan(rmap.residual[1, 0])
        assert rmap.minimum() == (0.0, 0.0, rmap.residual[0, 0])
        rmap.write_sidecar(tmp_path / "map.json")

        def reject(token):
            raise ValueError(f"non-standard JSON token {token}")

        side = json.loads((tmp_path / "map.json").read_text(), parse_constant=reject)
        assert side["minimum"]["eps_r"] == 0.0

    def test_minimum_of_all_diverged_map_raises(self, device):
        rmap = self.diverging_map(device, [100.0])
        with pytest.raises(NumericError, match=r"every residual-map cell diverged"):
            rmap.minimum()


class TestScaling:
    def test_linear_model_scales_exactly(self, device, readout):
        rows = scaling_law_check(device, 0, readout, RESET, (0.25, 0.5, 1.0, 2.0, 4.0))
        for row in rows:
            ratio = row.beta_r / row.beta_n
            assert abs(ratio - 1.0) < 1e-10
            assert row.phase_delta < 1e-10

    def test_rejects_nonpositive_beta(self, device, readout):
        with pytest.raises(ConfigError):
            scaling_law_check(device, 0, readout, RESET, (0.0, 1.0))


class TestCompare:
    def test_entries_and_durations(self, device, readout):
        comp = compare_schemes(device, (0,), readout, RESET)
        assert set(s for s, _ in comp.entries) == {"square", "sspe", "clear"}
        total = readout.duration + RESET
        for metrics in comp.entries.values():
            assert metrics.schedule.total_duration == pytest.approx(total)

    def test_square_is_free_decay(self, device, readout):
        comp = compare_schemes(device, (0,), readout, RESET)
        square = comp.metrics("square", 0)
        tail = square.schedule.segments[-1]
        assert tail.amplitude == 0.0
        assert square.rate_mhz == pytest.approx(device.kappa, rel=1e-6)

    def test_square_residual_identity(self, device, readout):
        comp = compare_schemes(device, (0,), readout, RESET)
        square = comp.metrics("square", 0)
        alpha_tau = final_alpha(device, PulseSchedule((readout,)), 0)
        kappa_ang = device.kappa * MHZ_TO_RAD_NS
        expected = abs(alpha_tau) ** 2 * math.exp(-kappa_ang * RESET)
        assert square.residual_end == pytest.approx(expected, rel=1e-6)

    def test_engineered_resets_beat_free_decay(self, device, readout):
        comp = compare_schemes(device, (0,), readout, RESET)
        square = comp.metrics("square", 0)
        assert comp.metrics("sspe", 0).residual_end < 1e-4
        assert comp.metrics("clear", 0).residual_end < 1e-4
        assert comp.metrics("sspe", 0).rate_mhz > 5.0 * device.kappa
        assert square.residual_end > 1.0

    def test_clear_overshoots_sspe_does_not(self, device, readout):
        comp = compare_schemes(device, (0,), readout, RESET)
        assert comp.metrics("clear", 0).peak_photons > 5.0 * comp.metrics("sspe", 0).peak_photons

    def test_kerr_residual_end_is_the_design_endpoint(self, device):
        # the CLEAR window peaks at 525 photons: a 0.1 ns trajectory is
        # 2e-8 photons off at its end, DESIGN_DT RK4 is not
        dev = device.with_(kerr_coeff=-0.31254)
        readout = DriveSegment(0.031481, 2.65502, 399.19)
        comp = compare_schemes(dev, 0, readout, 42.994)
        assert comp.metrics("clear", 0).peak_photons > 500.0
        for scheme in ("square", "sspe", "clear"):
            m = comp.metrics(scheme, 0)
            fine = abs(ode_final_alpha(dev, m.schedule, 0, dt=0.005)) ** 2
            assert abs(m.residual_end - fine) <= 1e-9
            assert m.residual_end == abs(ode_final_alpha(dev, m.schedule, 0, dt=DESIGN_DT)) ** 2

    def test_kerr_trajectories_equal_propagate(self, device, readout):
        # the three schemes share one readout integration per state
        dev = device.with_(kerr_coeff=-0.3)
        comp = compare_schemes(dev, (0, 1), readout, RESET)
        assert len(comp.entries) == 6
        for (_, j), m in comp.entries.items():
            full = propagate(dev, m.schedule, j, sample_dt=0.1)
            assert np.array_equal(m.trajectory.times, full.times)
            assert np.array_equal(m.trajectory.alpha, full.alpha)

    def test_linear_residual_end_is_the_exact_endpoint(self, device, readout):
        comp = compare_schemes(device, (0, 1), readout, RESET)
        for (_, j), m in comp.entries.items():
            expected = abs(final_alpha(device, m.schedule, j)) ** 2
            assert m.residual_end == pytest.approx(expected, rel=1e-12, abs=1e-20)

    def test_write_bundle(self, device, readout, tmp_path):
        comp = compare_schemes(device, (0,), readout, RESET)
        summary = comp.write(tmp_path)
        for scheme in ("square", "sspe", "clear"):
            rel = summary["schemes"][scheme]["0"]["trajectory_csv"]
            assert (tmp_path / rel).exists()
            assert "/" not in rel  # relative, flat layout
