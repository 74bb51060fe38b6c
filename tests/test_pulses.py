"""Drive segments and schedules."""

import math

import pytest
from hypothesis import given
from hypothesis import strategies as st

from cavreset import ConfigError, DriveSegment, PulseSchedule, SchemeLabel, wrap_phase


class TestWrapPhase:
    @given(st.floats(min_value=-1e6, max_value=1e6, allow_nan=False))
    def test_range(self, phi):
        wrapped = wrap_phase(phi)
        assert 0.0 <= wrapped < 2.0 * math.pi

    @given(st.floats(min_value=-100.0, max_value=100.0))
    def test_equivalence_mod_two_pi(self, phi):
        delta = wrap_phase(phi) - phi
        cycles = delta / (2.0 * math.pi)
        assert cycles == pytest.approx(round(cycles), abs=1e-9)

    def test_exact_boundaries(self):
        assert wrap_phase(0.0) == 0.0
        assert wrap_phase(2.0 * math.pi) == 0.0
        assert wrap_phase(-math.pi) == pytest.approx(math.pi)


class TestDriveSegment:
    def test_phase_normalized(self):
        seg = DriveSegment(amplitude=0.1, phase=7.0, duration=10.0)
        assert seg.phase == pytest.approx(7.0 - 2.0 * math.pi)

    def test_complex_amplitude(self):
        seg = DriveSegment(amplitude=2.0, phase=math.pi / 2.0, duration=1.0)
        assert seg.complex_amplitude == pytest.approx(2.0j)

    def test_from_complex_round_trip(self):
        seg = DriveSegment.from_complex(0.3 - 0.4j, duration=5.0)
        assert seg.amplitude == pytest.approx(0.5)
        assert seg.complex_amplitude == pytest.approx(0.3 - 0.4j)

    def test_from_complex_zero(self):
        seg = DriveSegment.from_complex(0.0, duration=1.0)
        assert seg.amplitude == 0.0
        assert seg.phase == 0.0

    def test_negative_amplitude_rejected(self):
        with pytest.raises(ConfigError):
            DriveSegment(amplitude=-0.1, phase=0.0, duration=1.0)

    def test_nonpositive_duration_rejected(self):
        with pytest.raises(ConfigError):
            DriveSegment(amplitude=0.1, phase=0.0, duration=0.0)

    def test_nonfinite_rejected(self):
        with pytest.raises(ConfigError):
            DriveSegment(amplitude=float("nan"), phase=0.0, duration=1.0)

    def test_frozen(self):
        seg = DriveSegment(amplitude=0.1, phase=0.0, duration=1.0)
        with pytest.raises(Exception):
            seg.amplitude = 0.2


class TestPulseSchedule:
    def make(self):
        return PulseSchedule(
            (
                DriveSegment(0.1, 0.0, 10.0),
                DriveSegment(0.2, 1.0, 5.0),
                DriveSegment(0.0, 0.0, 2.5),
            ),
            label=SchemeLabel.CUSTOM.value,
        )

    def test_total_duration(self):
        assert self.make().total_duration == pytest.approx(17.5)

    def test_min_segment_duration(self):
        assert self.make().min_segment_duration == pytest.approx(2.5)

    def test_empty_rejected(self):
        with pytest.raises(ConfigError):
            PulseSchedule(())

    def test_iter_and_len(self):
        sched = self.make()
        assert len(sched) == 3
        assert [s.duration for s in sched] == [10.0, 5.0, 2.5]
