"""Device parameters, unit conventions, and dispersive-shift arithmetic.

Unit conventions
----------------
External interfaces (constructors, JSON, CSV) use ordinary frequencies in
MHz and times in ns (coherence times in us), matching how such quantities
are usually quoted.  All internal rates are angular, in rad/ns; the
conversion factor is 2*pi*1e-3 per MHz.  Drive amplitudes are an exception:
they are angular rad/ns already, because the semiclassical cavity equation
treats the drive as a rate.

The dispersive shift chi_j of the cavity resonance for qubit state |j> can
be taken from two sources: the transmon ladder formula

    chi_0 = -g^2 / Delta,      chi_j = chi_{j-1,j} - chi_{j,j+1},
    chi_{j-1,j} = j g^2 / (Delta + (j-1) eta),

with Delta = omega_q - omega_bare, or from measured dressed-cavity
frequencies supplied alongside the device parameters.  Formula and
measurement disagree on real devices, so both are exposed via a
``chi_source`` switch and neither is privileged.
"""

from __future__ import annotations

import json
import math
import warnings
from dataclasses import asdict, dataclass, fields, replace
from enum import IntEnum
from pathlib import Path

from ._artefacts import write_json
from .errors import ConfigError, NumericError

TWO_PI = 2.0 * math.pi

#: Ordinary frequency in MHz -> angular rate in rad/ns.
MHZ_TO_RAD_NS = TWO_PI * 1e-3

#: Denominators smaller than this (MHz) count as degenerate.
DEGENERACY_TOL_MHZ = 1e-9

CHI_SOURCES = ("formula", "measured")


class QubitState(IntEnum):
    """Qubit level index; the reset analysis covers the lowest two only."""

    GROUND = 0
    EXCITED = 1


@dataclass(frozen=True)
class DeviceParams:
    """Static qubit-cavity device quantities.

    All frequencies are ordinary (cycles) in MHz; coherence times in us.

    Attributes:
        qubit_freq: qubit 0-1 transition frequency.
        bare_cavity_freq: bare (undressed) cavity resonance frequency.
        anharmonicity: transmon anharmonicity, negative.
        coupling: qubit-cavity coupling strength g.
        kappa: cavity energy decay rate.
        t1: qubit relaxation time at the operating point, us.
        t2_echo: qubit echo coherence time, us.
        kerr_coeff: cavity Kerr coefficient; 0 selects the linear model.
        drive_freq: cavity drive frequency; None selects the average of the
            two dressed cavity frequencies.
        dressed_freq_0: measured dressed cavity frequency for |0>, used by
            chi_source="measured".
        dispersive_shift_01: measured dressed splitting (omega_1 - omega_0),
            used by chi_source="measured".
    """

    qubit_freq: float
    bare_cavity_freq: float
    anharmonicity: float
    coupling: float
    kappa: float
    t1: float
    t2_echo: float
    kerr_coeff: float = 0.0
    drive_freq: float | None = None
    dressed_freq_0: float | None = None
    dispersive_shift_01: float | None = None

    def __post_init__(self) -> None:
        for f in fields(self):
            value = getattr(self, f.name)
            if value is not None and not math.isfinite(value):
                raise ConfigError(f"{f.name} must be finite, got {value}")
        if self.kappa < 0:
            raise ConfigError(f"kappa must be >= 0, got {self.kappa}")
        if self.coupling < 0:
            raise ConfigError(f"coupling must be >= 0, got {self.coupling}")
        if self.anharmonicity > 0:
            raise ConfigError(
                f"anharmonicity must be <= 0 for a transmon, got {self.anharmonicity}"
            )
        if self.t1 <= 0 or self.t2_echo <= 0:
            raise ConfigError("t1 and t2_echo must be positive")
        detuning = abs(self.qubit_freq - self.bare_cavity_freq)
        if self.coupling > 0 and detuning <= 10.0 * self.coupling:
            warnings.warn(
                "qubit-cavity detuning |Delta| = "
                f"{detuning:.1f} MHz is within 10 g = {10 * self.coupling:.1f} MHz; "
                "the dispersive approximation is questionable",
                stacklevel=2,
            )

    # -- dispersive shifts -------------------------------------------------

    @property
    def qubit_detuning(self) -> float:
        """Delta = omega_q - omega_bare, MHz."""
        return self.qubit_freq - self.bare_cavity_freq

    def drive_frequency(self, source: str = "formula") -> float:
        """Cavity drive frequency in MHz.

        Explicit ``drive_freq`` wins; otherwise the average of the dressed
        cavity frequencies for |0> and |1> is used.
        """
        if self.drive_freq is not None:
            return self.drive_freq
        chi0 = chi_shift(self, QubitState.GROUND, source)
        chi1 = chi_shift(self, QubitState.EXCITED, source)
        return self.bare_cavity_freq + 0.5 * (chi0 + chi1)

    def detuning_r(self, source: str = "formula") -> float:
        """Delta_r = omega_bare - omega_drive, MHz."""
        return self.bare_cavity_freq - self.drive_frequency(source)

    # -- serialization -----------------------------------------------------

    def to_dict(self) -> dict:
        return asdict(self)

    @classmethod
    def from_dict(cls, data: dict) -> "DeviceParams":
        known = {f for f in cls.__dataclass_fields__}
        extra = set(data) - known
        if extra:
            raise ConfigError(f"unknown device parameter(s): {sorted(extra)}")
        try:
            return cls(**data)
        except TypeError as exc:
            raise ConfigError(f"bad device parameters: {exc}") from exc

    def to_json(self, path: str | Path) -> None:
        write_json(path, self.to_dict())

    @classmethod
    def from_json(cls, path: str | Path) -> "DeviceParams":
        try:
            data = json.loads(Path(path).read_text())
        except (OSError, json.JSONDecodeError) as exc:
            raise ConfigError(f"cannot read device parameters from {path}: {exc}") from exc
        if not isinstance(data, dict):
            raise ConfigError(f"device parameter file {path} must hold a JSON object")
        return cls.from_dict(data)

    def with_(self, **changes) -> "DeviceParams":
        """Functional update, e.g. ``params.with_(kerr_coeff=-0.011)``."""
        return replace(self, **changes)


def _require_state(state: QubitState | int) -> QubitState:
    try:
        return QubitState(state)
    except ValueError as exc:
        raise ConfigError(f"unsupported qubit state {state!r}; only 0 and 1") from exc


def chi_shift(params: DeviceParams, state: QubitState | int, source: str = "formula") -> float:
    """Dispersive cavity shift chi_j in MHz for qubit state |j>.

    source="formula" evaluates the transmon ladder expression; for |0> this
    is -g^2/Delta, for |1> it is chi_01 - chi_12.  source="measured" uses
    the supplied dressed-frequency data instead.

    Raises:
        NumericError: a ladder denominator is numerically zero.
        ConfigError: unknown source, unsupported state, or missing
            measured-shift data.
    """
    j = _require_state(state)
    if source == "measured":
        if params.dressed_freq_0 is None or params.dispersive_shift_01 is None:
            raise ConfigError(
                "chi_source='measured' needs dressed_freq_0 and dispersive_shift_01"
            )
        chi0 = params.dressed_freq_0 - params.bare_cavity_freq
        if j == QubitState.GROUND:
            return chi0
        return chi0 + params.dispersive_shift_01
    if source != "formula":
        raise ConfigError(f"chi source must be one of {CHI_SOURCES}, got {source!r}")

    g = params.coupling
    if g == 0.0:
        return 0.0
    delta = params.qubit_detuning
    if abs(delta) < DEGENERACY_TOL_MHZ:
        raise NumericError("qubit-cavity detuning Delta is zero")
    chi0 = -(g * g) / delta
    if j == QubitState.GROUND:
        return chi0
    # chi_1 = chi_01 - chi_12 with chi_01 = g^2/Delta, chi_12 = 2 g^2/(Delta + eta)
    den12 = delta + params.anharmonicity
    if abs(den12) < DEGENERACY_TOL_MHZ:
        raise NumericError("Delta + eta is zero; chi_12 diverges")
    chi01 = (g * g) / delta
    chi12 = 2.0 * (g * g) / den12
    return chi01 - chi12


def qubit_pull(params: DeviceParams, source: str = "formula") -> float:
    """Qubit frequency shift per photon over two, (chi_1 - chi_0) / 2 in MHz.

    The qubit line moves by the full dressed splitting chi_1 - chi_0 per
    photon; the Ramsey and ac-Stark models carry the factor of two.
    """
    return 0.5 * (
        chi_shift(params, QubitState.EXCITED, source) - chi_shift(params, QubitState.GROUND, source)
    )


def complex_rate(
    params: DeviceParams, state: QubitState | int, source: str = "formula"
) -> complex:
    """Complex rate C_j = 2i*Delta_r + kappa + 2i*chi_j in rad/ns.

    The real part is the energy decay rate kappa; half the imaginary part
    is the net drive detuning delta_j = Delta_r + chi_j seen by the
    rotating cavity field.
    """
    j = _require_state(state)
    chi = chi_shift(params, j, source)
    delta_r = params.detuning_r(source)
    return (params.kappa + 2j * (delta_r + chi)) * MHZ_TO_RAD_NS


def critical_photon_number(params: DeviceParams) -> float:
    """Critical photon number (Delta / 2g)^2 of the dispersive regime."""
    if params.coupling == 0.0:
        raise NumericError("critical photon number undefined at g = 0")
    return (params.qubit_detuning / (2.0 * params.coupling)) ** 2


def default_device(qubit: int = 1) -> DeviceParams:
    """Reference transmon-cavity parameter sets used by the bundled scenarios.

    Two measured devices are available; qubit 1 is the default everywhere.
    t1 is the value at the photon-shifted operating point, which is what the
    repeated-measurement analysis compares against.
    """
    if qubit == 1:
        return DeviceParams(
            qubit_freq=5445.786,
            bare_cavity_freq=7123.9,
            anharmonicity=-216.744,
            coupling=147.14,
            kappa=1.711,
            t1=26.51,
            t2_echo=45.566,
            dressed_freq_0=7139.389,
            dispersive_shift_01=-3.861,
        )
    if qubit == 2:
        return DeviceParams(
            qubit_freq=5512.566,
            bare_cavity_freq=7103.79,
            anharmonicity=-218.93,
            coupling=150.465,
            kappa=4.054,
            t1=19.847,
            t2_echo=28.723,
            dressed_freq_0=7116.255,
            dispersive_shift_01=-4.435,
        )
    raise ConfigError(f"no reference device numbered {qubit}")
