"""Kerr integration against an independent reference.

`perfbench/reference.py` integrates the same model with scipy's DOP853 at
rtol 1e-12 and shares no code with the package.  Every gap is
|alpha - alpha_ref| / max(|alpha_ref|, 1).  Smooth cases must agree to
1e-11.  The stiff windows, which peak above 100 photons at K_c = -0.31254
MHz, must agree to 1e-8.  At a fixed point every Runge-Kutta stage
vanishes, so only transients like these can show a stepper error.
"""

from __future__ import annotations

import cmath
import dataclasses
import functools
import importlib.util
from pathlib import Path

import numpy as np
import pytest

from cavreset import DriveSegment, PulseSchedule, default_device, design, dynamics, ring_up_segment, sspe_optimize
from cavreset.core import MHZ_TO_RAD_NS, complex_rate, critical_photon_number
from cavreset.design import DESIGN_DT
from cavreset.dynamics import _Cavity, _gbs_grid, _gbs_steps, ode_final_alpha

_SPEC = importlib.util.spec_from_file_location(
    "cavreset_reference", Path(__file__).resolve().parents[1] / "perfbench" / "reference.py"
)
ref = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(ref)

SMOOTH = 1e-11
STIFF = 1e-8
STIFF_KERR = -0.31254  # MHz
CHI = "formula"


def gap(alpha: complex, expected: complex) -> float:
    return abs(alpha - expected) / max(abs(expected), 1.0)


def schedule(segments) -> PulseSchedule:
    return PulseSchedule(tuple(DriveSegment.from_complex(d, t) for d, t in segments))


@functools.lru_cache(maxsize=None)
def readout_end(kerr: float, photons: float, duration: float, state: int):
    """(device, reference device, readout drive, RK4 and reference end fields)

    for a zero-phase readout holding `photons` in the linear steady state
    of state 0.  A window continued from the RK4 end field with
    `ode_final_alpha(..., alpha0=)` is bit-identical to `ode_final_alpha`
    of the whole schedule.
    """
    dev = default_device().with_(kerr_coeff=kerr)
    refdev = dataclasses.asdict(dev)
    drive = complex(ref.readout_amplitude(refdev, CHI, photons))
    alpha = ode_final_alpha(dev, schedule([(drive, duration)]), state, dt=DESIGN_DT, chi_source=CHI)
    expected = ref.endpoint(refdev, state, CHI, [(drive, duration)])
    return dev, refdev, drive, alpha, expected


def grid_cells(dev, state: int, alpha0: complex, drives: np.ndarray, duration: float) -> np.ndarray:
    """Window end fields as a Kerr `residual_map` computes them for these drives."""
    c = complex_rate(dev, state, CHI)
    kc = dev.kerr_coeff * MHZ_TO_RAD_NS
    steps = _gbs_steps(alpha0, float(np.abs(drives).max()), duration, c, kc)
    return _gbs_grid(alpha0, drives, duration, 0.5 * c, kc, steps)


SMOOTH_CASES = [
    (kerr, photons, state) for kerr in (-0.011, -0.1, -0.5) for photons in (1.0, 10.0) for state in (0, 1)
]


@pytest.mark.parametrize("kerr,photons,state", SMOOTH_CASES)
def test_smooth_endpoints(kerr, photons, state):
    # a 1500 ns readout, then 60 ns at half its drive, 1 rad ahead
    dev, refdev, drive, alpha_tau, expected_tau = readout_end(kerr, photons, 1500.0, state)
    assert gap(alpha_tau, expected_tau) <= SMOOTH
    window = [(0.5 * drive * cmath.exp(1j), 60.0)]
    alpha = ode_final_alpha(dev, schedule(window), state, dt=DESIGN_DT, alpha0=alpha_tau, chi_source=CHI)
    assert gap(alpha, ref.endpoint(refdev, state, CHI, window, alpha0=expected_tau)) <= SMOOTH


@pytest.mark.parametrize("kerr,photons,state", SMOOTH_CASES)
def test_smooth_map_cells(kerr, photons, state):
    dev, refdev, drive, alpha_tau, _ = readout_end(kerr, photons, 1500.0, state)
    drives = drive * np.array([0.0, 0.5 * cmath.exp(1j), -1.5 + 0.5j])
    cells = grid_cells(dev, state, alpha_tau, drives, 60.0)
    for cell, d in zip(cells, drives):
        assert gap(cell, ref.endpoint(refdev, state, CHI, [(d, 60.0)], alpha0=alpha_tau)) <= SMOOTH


def map_gaps(monkeypatch, dev, refdev, state: int, readout: DriveSegment, duration: float, amps, phases):
    """Gaps of a Kerr `residual_map`'s complex cells, readout included, to the whole schedule."""
    fields = []

    def record(*args):
        out = _gbs_grid(*args)
        fields.append(out.copy())
        return out

    monkeypatch.setattr(dynamics, "_gbs_grid", record)
    rmap = design.residual_map(dev, state, readout, duration, amps, phases, chi_source=CHI)
    cells = np.concatenate(fields)
    assert np.array_equal(rmap.residual.ravel(), np.abs(cells) ** 2)
    drives = (amps[:, None] * np.exp(1j * phases[None, :])).ravel()
    head = (readout.complex_amplitude, readout.duration)
    return [
        gap(cell, ref.endpoint(refdev, state, CHI, [head, (d, duration)])) for cell, d in zip(cells, drives)
    ]


@pytest.mark.parametrize("kerr,photons,state", SMOOTH_CASES)
def test_smooth_map_with_its_readout(monkeypatch, kerr, photons, state):
    # the map integrates its own 1500 ns readout; each cell against the whole schedule
    dev, refdev, drive, _, _ = readout_end(kerr, photons, 1500.0, state)
    readout = DriveSegment.from_complex(drive, 1500.0)
    amps, phases = abs(drive) * np.array([0.5, 1.6]), np.array([1.0, 2.8])
    assert max(map_gaps(monkeypatch, dev, refdev, state, readout, 60.0, amps, phases)) <= SMOOTH


def test_stiff_map_with_its_readout(monkeypatch):
    dev, refdev, drive, _, _ = readout_end(STIFF_KERR, 8.0, 1200.0, 0)
    readout = DriveSegment.from_complex(drive, 1200.0)
    amps, phases = abs(drive) * np.array([8.0, 25.0, 80.0]), np.array([0.5, 1.5]) * np.pi
    assert max(map_gaps(monkeypatch, dev, refdev, 0, readout, 30.0, amps, phases)) <= STIFF


def test_tiled_map_cells():
    # the readout, window and grid of the tiling tests of test_dynamics
    dev = default_device().with_(kerr_coeff=-0.2)
    refdev = dataclasses.asdict(dev)
    readout = DriveSegment(0.03, 0.4, 200.0)
    amps = np.linspace(0.0, 0.08, 7)
    phases = np.linspace(0.0, 2.0 * np.pi, 6, endpoint=False)
    drives = (amps[:, None] * np.exp(1j * phases[None, :])).ravel()
    for state in (0, 1):
        alpha_tau = ode_final_alpha(dev, PulseSchedule((readout,)), state, dt=DESIGN_DT)
        cells = grid_cells(dev, state, alpha_tau, drives, 20.0)
        for cell, d in zip(cells, drives):
            assert gap(cell, ref.endpoint(refdev, state, CHI, [(d, 20.0)], alpha0=alpha_tau)) <= SMOOTH


@pytest.mark.parametrize("b", [8.0, 25.0])
def test_stiff_windows(b):
    # two 30 ns segments of +i b and -i b times the readout drive: peaks of 104 and 142 photons
    dev, refdev, drive, alpha_tau, expected_tau = readout_end(STIFF_KERR, 8.0, 1200.0, 0)
    window = [(1j * b * drive, 30.0), (-1j * b * drive, 30.0)]
    alpha = ode_final_alpha(dev, schedule(window), 0, dt=DESIGN_DT, alpha0=alpha_tau, chi_source=CHI)
    assert gap(alpha, ref.endpoint(refdev, 0, CHI, window, alpha0=expected_tau)) <= STIFF


def test_stiff_map_cells():
    # window drives 8-80x the readout: the map's step sits at its floor
    dev, refdev, drive, alpha_tau, _ = readout_end(STIFF_KERR, 8.0, 1200.0, 0)
    drives = drive * np.array([8j, -8j, 25j, -25j, 80j, -80j])
    cells = grid_cells(dev, 0, alpha_tau, drives, 30.0)
    for cell, d in zip(cells, drives):
        assert gap(cell, ref.endpoint(refdev, 0, CHI, [(d, 30.0)], alpha0=alpha_tau)) <= STIFF


def test_kerr_design_endpoint():
    dev = default_device().with_(kerr_coeff=-0.2)
    refdev = dataclasses.asdict(dev)
    readout = DriveSegment(ref.readout_amplitude(refdev, CHI, 5.0), 0.0, 900.0)
    sol = sspe_optimize(dev, 0, readout, 50.0).require_converged()
    segments = [(seg.complex_amplitude, seg.duration) for seg in sol.schedule()]
    alpha = ode_final_alpha(dev, sol.schedule(), 0, dt=DESIGN_DT)
    assert abs(alpha) ** 2 == sol.residual_photons[0]
    assert gap(alpha, ref.endpoint(refdev, 0, CHI, segments)) <= SMOOTH


@pytest.mark.parametrize("duration", [400.0, 4000.0])
@pytest.mark.parametrize("source", ["formula", "measured"])
def test_appc_ring_up_ladder(source, duration):
    # appC_calibration's photon ladder from vacuum at K_c = -0.011 MHz.  Its
    # 4000 ns ring-ups end within 1e-9 of the fixed point, which every
    # consistent stepper keeps, so 400 ns, mid ring-up, shows stepper errors.
    base = default_device()
    dev = base.with_(kerr_coeff=-0.011)
    refdev = dataclasses.asdict(dev)
    cavity = _Cavity.of(dev, source)
    for n in [1.0, 5.0, 10.0, 15.0, 20.0, 0.8 * critical_photon_number(base)]:
        # the calls appC_calibration makes per rung
        ring_up = ring_up_segment(dev, 0, n, duration, source)
        end = cavity.segment_end(0, 0j, ring_up)
        assert gap(end, ref.endpoint(refdev, 0, source, [(ring_up.complex_amplitude, duration)])) <= SMOOTH
