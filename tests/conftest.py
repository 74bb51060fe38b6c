import numpy as np
import pytest

from cavreset import DriveSegment, PulseSchedule, default_device, ring_up_segment, run_all

READOUT_DURATION = 900.0
RESET_DURATION = 50.0
READOUT_PHOTONS = 5.0


@pytest.fixture(scope="session")
def device():
    return default_device()


@pytest.fixture(scope="session")
def device2():
    return default_device(qubit=2)


@pytest.fixture(scope="session")
def readout(device):
    # steady state of 5 photons for the ground state, long enough to settle
    return ring_up_segment(device, 0, READOUT_PHOTONS, READOUT_DURATION)


@pytest.fixture(scope="session")
def readout_schedule(readout):
    return PulseSchedule((readout,), label="square")


@pytest.fixture()
def short_segment():
    return DriveSegment(amplitude=0.01, phase=0.5, duration=40.0)


@pytest.fixture(scope="session")
def all_reports(tmp_path_factory):
    """(out_root, reports) of one `run_all` at seed 0, shared by the session."""
    root = tmp_path_factory.mktemp("scenarios")
    return root, run_all(out_root=root, seed=0, raise_on_fail=False)


@pytest.fixture(scope="session")
def measured_reports(tmp_path_factory):
    """(out_root, reports) of one `run_all` at seed 0 with measured dispersive shifts."""
    root = tmp_path_factory.mktemp("scenarios_measured")
    return root, run_all(out_root=root, seed=0, chi_source="measured", raise_on_fail=False)


def central_difference_jacobian(residuals, params):
    """Jacobian d r_i / d p_j by symmetric differences: the reference that
    the exact Jacobians of the least-squares models are checked against.

    The step per parameter is 1e-6 * max(|p_j|, 1), which keeps the
    truncation and roundoff errors balanced for parameters spanning many
    decades (rates in 1/us next to photon numbers in tens).
    """
    params = np.asarray(params, dtype=float)
    cols = []
    for j in range(params.size):
        h = 1e-6 * max(abs(params[j]), 1.0)
        up = params.copy()
        dn = params.copy()
        up[j] += h
        dn[j] -= h
        cols.append((residuals(up) - residuals(dn)) / (2.0 * h))
    return np.column_stack(cols)
