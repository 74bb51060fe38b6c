"""The artefact writer: its exact bytes, and round trips through every reader."""

import json
import tempfile
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from cavreset import ConfigError, DeviceParams, DriveSegment, Trajectory, read_samples_csv, write_samples_csv
from cavreset._artefacts import write_csv, write_json
from cavreset.cli import _schedule_from_spec

FINITE = st.floats(allow_nan=False, allow_infinity=False)


def same_bits(a: float, b: float) -> bool:
    """Bit equality of two finite floats (tells -0.0 from 0.0)."""
    return a.hex() == b.hex()


def test_json_format(tmp_path):
    path = tmp_path / "new" / "dir" / "out.json"
    write_json(path, {"b": [1.5, -0.0], "a": {"z": None, "y": True}})
    assert path.read_bytes() == (
        b'{\n  "a": {\n    "y": true,\n    "z": null\n  },\n  "b": [\n    1.5,\n    -0.0\n  ]\n}\n'
    )


def test_csv_format(tmp_path):
    path = tmp_path / "new" / "dir" / "out.csv"
    write_csv(path, ["t", "x"], [(0, 0.1), (2.5, -1e-300)])
    assert path.read_bytes() == b"t,x\r\n0,0.10000000000000001\r\n2.5,-1e-300\r\n"


def per_value_lines(rows) -> str:
    """The rows as the writer formatted them one value at a time."""
    return "".join(",".join(["%.17g" % float(v) for v in row]) + "\r\n" for row in rows)


def test_csv_rows_match_the_per_value_format(tmp_path):
    rows = [
        (-0.0, 5e-324, 1e308),
        (0, -3, 2**53 + 1),
        (np.float64(0.1), np.float32(0.1), np.int64(-7)),
        [-1e-300, np.float64(-0.0), 2.5],
    ]
    path = tmp_path / "rows.csv"
    write_csv(path, ["a", "b", "c"], rows)
    assert path.read_bytes() == ("a,b,c\r\n" + per_value_lines(rows)).encode()


@pytest.mark.parametrize("row", [(1.0, 2.0), (1.0, 2.0, 3.0, 4.0), ()], ids=["short", "long", "empty"])
def test_ragged_csv_row_is_config_error(tmp_path, row):
    with pytest.raises(ConfigError, match="needs 3 numbers"):
        write_csv(tmp_path / "rows.csv", ["a", "b", "c"], [(1.0, 2.0, 3.0), row])


@settings(max_examples=100, deadline=None)
@given(st.integers(1, 4).flatmap(lambda w: st.lists(st.lists(FINITE, min_size=w, max_size=w), max_size=20)))
@example([[-0.0, 5e-324, 1e308, -1e308, 2.2250738585072014e-308, -2.225073858507201e-308]])
def test_samples_csv_round_trip_is_bit_exact(rows):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "rows.csv"
        write_samples_csv(path, [f"c{k}" for k in range(len(rows[0]) if rows else 1)], rows)
        back = read_samples_csv(path)
    assert len(back) == len(rows)
    for row, got in zip(rows, back):
        assert len(got) == len(row)
        assert all(same_bits(a, b) for a, b in zip(row, got))


# |alpha|^2 stays finite below 1e150 per component
COMPONENT = st.floats(-1e150, 1e150)


@settings(max_examples=100, deadline=None)
@given(st.lists(st.tuples(FINITE, COMPONENT, COMPONENT), min_size=1, max_size=30))
@example([(-0.0, -0.0, 5e-324), (1e308, -1e150, 1e150)])
def test_trajectory_csv_reads_back_exactly(samples):
    times = [t for t, _, _ in samples]
    alpha = [complex(re, im) for _, re, im in samples]
    traj = Trajectory(times=times, alpha=alpha, qubit_state=0)
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "traj.csv"
        traj.write_csv(path)
        assert path.read_text().splitlines()[0] == "t_ns,re_alpha,im_alpha,n"
        back = read_samples_csv(path)
    assert len(back) == len(samples)
    for t, a, (t_b, re_b, im_b, n_b) in zip(times, alpha, back):
        assert same_bits(t, t_b)
        assert same_bits(a.real, re_b) and same_bits(a.imag, im_b)
        assert same_bits(abs(a) ** 2, n_b)


@st.composite
def devices(draw):
    """Valid DeviceParams over wide finite ranges, optional fields included."""
    optional = st.one_of(st.none(), FINITE)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # the weak-dispersive warning
        return DeviceParams(
            qubit_freq=draw(FINITE),
            bare_cavity_freq=draw(FINITE),
            anharmonicity=draw(st.floats(max_value=0.0, allow_infinity=False)),
            coupling=draw(st.floats(min_value=0.0, allow_infinity=False)),
            kappa=draw(st.floats(min_value=0.0, allow_infinity=False)),
            t1=draw(st.floats(min_value=5e-324, allow_infinity=False)),
            t2_echo=draw(st.floats(min_value=5e-324, allow_infinity=False)),
            kerr_coeff=draw(FINITE),
            drive_freq=draw(optional),
            dressed_freq_0=draw(optional),
            dispersive_shift_01=draw(optional),
        )


@settings(max_examples=100, deadline=None)
@given(devices())
def test_device_json_round_trip_is_identity(params):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "device.json"
        params.to_json(path)
        keys = list(json.loads(path.read_text()))
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            back = DeviceParams.from_json(path)
    assert back == params
    assert keys == sorted(keys)
    for name, value in params.to_dict().items():
        got = getattr(back, name)
        assert (got is None) if value is None else same_bits(value, got)


SEGMENTS = st.builds(
    DriveSegment,
    amplitude=st.floats(min_value=0.0, allow_infinity=False),
    phase=FINITE,
    duration=st.floats(min_value=5e-324, allow_infinity=False),
)


@settings(max_examples=100, deadline=None)
@given(st.lists(SEGMENTS, min_size=1, max_size=10), st.sampled_from(["amp", "amplitude"]))
def test_schedule_json_round_trip_is_identity(segments, amp_key):
    """Segments written as `design --mode clear` writes them read back unchanged."""
    spec = [{amp_key: s.amplitude, "phase": s.phase, "duration": s.duration} for s in segments]
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "schedule.json"
        write_json(path, spec)
        back = _schedule_from_spec(str(path))
    assert back.segments == tuple(segments)
    assert all(same_bits(a.phase, b.phase) for a, b in zip(segments, back))
