"""Properties of the least-squares reset design over random devices."""

import cmath
import math

from hypothesis import given, settings
from hypothesis import strategies as st

from cavreset import (
    DriveSegment,
    PulseSchedule,
    clear_optimize,
    complex_rate,
    default_device,
    final_alpha,
    ring_up_segment,
    sspe_analytic,
    sspe_optimize,
)
from cavreset.design import DESIGN_DT
from cavreset.dynamics import ode_final_alpha

STATES = (0, 1)


@st.composite
def problems(draw, readout_ns=(50.0, 1500.0), reset_ns=(10.0, 300.0)):
    """(device, readout, reset window, chi source) of a linear device."""
    base = default_device(draw(st.sampled_from([1, 2])))
    offset = draw(st.one_of(st.none(), st.floats(-10.0, 10.0)))
    device = base.with_(
        kappa=draw(st.floats(0.5, 5.0)),
        coupling=draw(st.floats(50.0, 150.0)),
        drive_freq=None if offset is None else base.bare_cavity_freq + offset,
    )
    chi = draw(st.sampled_from(["formula", "measured"]))
    ring_up = ring_up_segment(device, 0, draw(st.floats(0.5, 10.0)), draw(st.floats(*readout_ns)), chi_source=chi)
    readout = DriveSegment(ring_up.amplitude, draw(st.floats(0.0, 2.0 * math.pi)), ring_up.duration)
    return device, readout, draw(st.floats(*reset_ns)), chi


def photon_sum(device, schedule, chi):
    return sum(abs(final_alpha(device, schedule, j, chi_source=chi)) ** 2 for j in STATES)


def drive_of(sol):
    return sol.reset_amplitude * cmath.exp(1j * sol.reset_phase)


@settings(max_examples=40, deadline=None)
@given(problems())
def test_linear_joint_drive_is_weighted_closed_form(problem):
    """u* = -sum_j conj(b_j) alpha_j(tau) e_j / sum_j |b_j|^2."""
    device, readout, dtau, chi = problem
    num = 0j
    den = size = 0.0
    for j in STATES:
        c = complex_rate(device, j, chi)
        e = cmath.exp(-0.5 * c * dtau)
        b = -2j * (1.0 - e) / c
        term = b.conjugate() * final_alpha(device, PulseSchedule((readout,)), j, chi_source=chi) * e
        num += term
        den += abs(b) ** 2
        size += abs(term)
    expected = -num / den
    sol = sspe_optimize(device, STATES, readout, dtau, chi_source=chi)
    assert sol.converged and sol.iterations == 0
    # relative to the size of the summed terms, so a cancelling sum stays fair
    assert abs(drive_of(sol) - expected) <= 1e-12 * max(abs(expected), size / den)


@settings(max_examples=40, deadline=None)
@given(problems(), st.sampled_from([1e-3, 1e-6]), st.floats(0.0, 2.0 * math.pi))
def test_linear_joint_drive_beats_perturbations(problem, step, angle):
    device, readout, dtau, chi = problem
    sol = sspe_optimize(device, STATES, readout, dtau, chi_source=chi)
    best = photon_sum(device, sol.schedule(), chi)
    u = drive_of(sol)
    nudged = DriveSegment.from_complex(u + step * abs(u) * cmath.exp(1j * angle), dtau)
    trial = photon_sum(device, PulseSchedule((readout, nudged)), chi)
    assert trial >= best - 1e-13 * max(1.0, best)


@settings(max_examples=40, deadline=None)
@given(problems(), st.sampled_from(STATES))
def test_one_state_solve_is_the_transfer_formula(problem, state):
    """eps_r e^{i phi_r} = eps_n e^{i phi_n} (1 - e^{-tau C/2}) / (1 - e^{dtau C/2})."""
    device, readout, dtau, chi = problem
    c = complex_rate(device, state, chi)
    expected = (
        readout.complex_amplitude
        * (1.0 - cmath.exp(-0.5 * c * readout.duration))
        / (1.0 - cmath.exp(0.5 * c * dtau))
    )
    analytic = sspe_analytic(device, state, readout, dtau, chi)
    numeric = sspe_optimize(device, state, readout, dtau, chi_source=chi)
    assert abs(drive_of(analytic) - expected) <= 1e-11 * abs(expected)
    assert abs(drive_of(numeric) - drive_of(analytic)) <= 1e-12 * abs(expected)
    assert numeric.residual_photons[state] < 1e-20


@settings(max_examples=40, deadline=None)
@given(problems(), st.sampled_from(STATES), st.floats(0.01, 100.0))
def test_linear_reset_scales_with_readout(problem, state, beta):
    """eps_n -> beta eps_n scales the exact reset amplitude by beta; the phase stays."""
    device, readout, dtau, chi = problem
    scaled = DriveSegment(beta * readout.amplitude, readout.phase, readout.duration)
    base = sspe_analytic(device, state, readout, dtau, chi)
    sol = sspe_analytic(device, state, scaled, dtau, chi)
    expected = beta * base.reset_amplitude
    assert abs(sol.reset_amplitude - expected) <= 1e-10 * expected
    dphi = abs(sol.reset_phase - base.reset_phase)
    assert min(dphi, 2.0 * math.pi - dphi) <= 1e-10


@settings(max_examples=20, deadline=None)
@given(problems())
def test_linear_joint_clear_beats_grid_oracle(problem):
    """No (e1, e2) pair on a grid around the solution does better."""
    device, readout, dtau, chi = problem
    sched = clear_optimize(device, STATES, readout, dtau, chi_source=chi)
    best = photon_sum(device, sched, chi)
    half = dtau / 2.0
    span = 2.0 * max(seg.amplitude for seg in sched.segments[1:]) + 1e-3
    phases = (readout.phase, readout.phase + math.pi)
    for e1 in [span * k / 10.0 for k in range(-10, 11)]:
        for e2 in [span * k / 10.0 for k in range(-10, 11)]:
            segs = [
                DriveSegment(abs(e), ph + (math.pi if e < 0 else 0.0), half)
                for e, ph in ((e1, phases[0]), (e2, phases[1]))
            ]
            trial = photon_sum(device, PulseSchedule((readout, *segs)), chi)
            assert trial >= best - 1e-12 * max(1.0, best)


@settings(max_examples=5, deadline=None)
@given(problems(readout_ns=(50.0, 200.0), reset_ns=(20.0, 60.0)), st.floats(-0.5, -0.005))
def test_kerr_joint_design_no_worse_than_linear_start(problem, kerr):
    device, readout, dtau, chi = problem
    kerr_device = device.with_(kerr_coeff=kerr)

    def kerr_photons(segment):
        sched = PulseSchedule((readout, segment))
        return sum(
            abs(ode_final_alpha(kerr_device, sched, j, dt=DESIGN_DT, chi_source=chi)) ** 2
            for j in STATES
        )

    start = sspe_optimize(device, STATES, readout, dtau, chi_source=chi)
    sol = sspe_optimize(kerr_device, STATES, readout, dtau, chi_source=chi)
    assert sol.converged and sol.iterations > 0
    assert kerr_photons(sol.segment()) <= kerr_photons(start.segment()) * (1.0 + 1e-12)
