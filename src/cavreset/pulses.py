"""Piecewise-constant drive schedules.

A schedule is an ordered list of segments, each holding a constant complex
drive eps * exp(i*phi) for a fixed duration.  Amplitudes are angular rates
in rad/ns (the drive enters the cavity equation of motion as a rate);
phases are radians, normalized into [0, 2*pi); durations are ns.

Sign conventions: a negative real amplitude is expressed as a positive
amplitude with the phase advanced by pi, so ``amplitude`` is always >= 0.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from typing import Iterator

from .errors import ConfigError

TWO_PI = 2.0 * math.pi


def wrap_phase(phi: float) -> float:
    """Fold a phase into [0, 2*pi)."""
    out = math.fmod(phi, TWO_PI)
    if out < 0.0:
        out += TWO_PI
    # fmod can round 2*pi - eps up to 2*pi for tiny negative inputs
    if out >= TWO_PI:
        out -= TWO_PI
    return out


@dataclass(frozen=True)
class DriveSegment:
    """One constant-drive interval.

    Attributes:
        amplitude: drive strength eps >= 0, rad/ns.
        phase: drive phase, radians, stored in [0, 2*pi).
        duration: segment length, ns, > 0.
    """

    amplitude: float
    phase: float
    duration: float

    def __post_init__(self) -> None:
        if not math.isfinite(self.amplitude) or self.amplitude < 0.0:
            raise ConfigError(f"segment amplitude must be finite and >= 0, got {self.amplitude}")
        if not math.isfinite(self.duration) or self.duration <= 0.0:
            raise ConfigError(f"segment duration must be finite and > 0, got {self.duration}")
        if not math.isfinite(self.phase):
            raise ConfigError(f"segment phase must be finite, got {self.phase}")
        object.__setattr__(self, "phase", wrap_phase(self.phase))

    @property
    def complex_amplitude(self) -> complex:
        """eps * exp(i*phi), rad/ns."""
        return self.amplitude * complex(math.cos(self.phase), math.sin(self.phase))

    @classmethod
    def from_complex(cls, value: complex, duration: float) -> "DriveSegment":
        """Segment with the given complex drive; zero maps to phase 0."""
        amp = abs(value)
        phase = math.atan2(value.imag, value.real) if amp > 0.0 else 0.0
        return cls(amplitude=amp, phase=phase, duration=duration)


class SchemeLabel(str, Enum):
    """Named drive strategies compared by the benchmark utilities."""

    SSPE = "sspe"
    SQUARE = "square"
    CLEAR = "clear"
    CUSTOM = "custom"


@dataclass(frozen=True)
class PulseSchedule:
    """Ordered drive segments with an identifying label."""

    segments: tuple[DriveSegment, ...]
    label: str = ""

    def __post_init__(self) -> None:
        segs = tuple(self.segments)
        if not segs:
            raise ConfigError("a schedule needs at least one segment")
        object.__setattr__(self, "segments", segs)

    def __iter__(self) -> Iterator[DriveSegment]:
        return iter(self.segments)

    def __len__(self) -> int:
        return len(self.segments)

    @property
    def total_duration(self) -> float:
        return sum(s.duration for s in self.segments)

    @property
    def min_segment_duration(self) -> float:
        return min(s.duration for s in self.segments)
