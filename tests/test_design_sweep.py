"""Linear design requests over the design workload's ranges, against the reference.

`perfbench/reference.py` computes every end field from the model equations
and shares no code with the package.  Each request draws a device, a chi
source, one state or both, a route (sspe, clear or compare), a readout of
300-1500 ns holding 1-10 photons and a window of 30-200 ns.  A one-state
design must leave at most 1e-20 photons; a joint design must leave the
photon sum of the reference's closed-form optimum, within 1e-9 relative.
"""

from __future__ import annotations

import importlib.util
import json
import math
from pathlib import Path

import numpy as np
from hypothesis import given, seed, settings
from hypothesis import strategies as st

from cavreset import DeviceParams, DriveSegment, clear_optimize, compare_schemes, sspe_optimize

_ROOT = Path(__file__).resolve().parents[1]
_SPEC = importlib.util.spec_from_file_location("cavreset_reference", _ROOT / "perfbench" / "reference.py")
ref = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(ref)

CONFIGS = {name: json.loads((_ROOT / "configs" / f"{name}.json").read_text()) for name in ("qubit1", "qubit2")}
ONE_STATE = 1e-20
REL = 1e-9


@st.composite
def requests(draw):
    dev = CONFIGS[draw(st.sampled_from(sorted(CONFIGS)))]
    chi = draw(st.sampled_from(["formula", "measured"]))
    amp = ref.readout_amplitude(dev, chi, draw(st.floats(1.0, 10.0)))
    readout = DriveSegment(amp, draw(st.floats(0.0, 2.0 * math.pi)), draw(st.floats(300.0, 1500.0)))
    states = draw(st.sampled_from([(0,), (1,), (0, 1)]))
    route = draw(st.sampled_from(["sspe", "clear", "compare"]))
    return dev, chi, readout, draw(st.floats(30.0, 200.0)), states, route


def photons(dev, chi, ends, segments, states) -> float:
    return sum(abs(ref.endpoint(dev, j, chi, segments, alpha0=ends[j])) ** 2 for j in states)


def joint_optimum(dev, chi, readout, dtau, ends, route) -> list:
    """Reference least-squares window for both states: one complex drive, or two real halves."""
    unit, half = readout.complex_amplitude / readout.amplitude, dtau / 2.0
    if route == "sspe":
        columns = [[(1.0, dtau)], [(1j, dtau)]]
    else:
        columns = [[(unit, half), (0j, half)], [(0j, half), (-unit, half)]]
    rows, rhs = [], []
    for j in (0, 1):
        free = ref.endpoint(dev, j, chi, [(0j, dtau)], alpha0=ends[j])
        cols = [ref.endpoint(dev, j, chi, col) for col in columns]
        rows += [[b.real for b in cols], [b.imag for b in cols]]
        rhs += [-free.real, -free.imag]
    x, *_ = np.linalg.lstsq(np.array(rows), np.array(rhs), rcond=None)
    if route == "sspe":
        return [(complex(x[0], x[1]), dtau)]
    return [(x[0] * unit, half), (-x[1] * unit, half)]


@seed(20251022)
@settings(max_examples=200, deadline=None)
@given(requests())
def test_linear_designs_match_the_reference(request):
    dev, chi, readout, dtau, states, route = request
    params = DeviceParams.from_dict(dev)
    head = [(readout.complex_amplitude, readout.duration)]
    ends = {j: ref.endpoint(dev, j, chi, head) for j in (0, 1)}

    if route == "compare":
        result = compare_schemes(params, states, readout, dtau, chi_source=chi)
        for j in states:
            for scheme in ("square", "sspe", "clear"):
                m = result.metrics(scheme, j)
                window = [(s.complex_amplitude, s.duration) for s in m.schedule.segments[1:]]
                got = photons(dev, chi, ends, window, [j])
                assert abs(m.residual_end - got) <= REL * got + ONE_STATE
                if scheme != "square":
                    assert got <= ONE_STATE
        return

    if route == "sspe":
        seg = sspe_optimize(params, states, readout, dtau, chi_source=chi).require_converged().segment()
        window = [(seg.complex_amplitude, seg.duration)]
    else:
        schedule = clear_optimize(params, states, readout, dtau, chi_source=chi)
        window = [(s.complex_amplitude, s.duration) for s in schedule.segments[1:]]
    got = photons(dev, chi, ends, window, states)
    if len(states) == 1:
        assert got <= ONE_STATE
    else:
        best = photons(dev, chi, ends, joint_optimum(dev, chi, readout, dtau, ends, route), states)
        assert abs(got - best) <= REL * best + ONE_STATE
