"""Semiclassical cavity propagation under piecewise-constant drives.

The coherent cavity amplitude alpha obeys

    d alpha / dt = -i eps(t) - i (Delta_r + chi_j) alpha - (kappa/2) alpha
                   - i K_c |alpha|^2 alpha,

in the frame rotating at the drive frequency, with all rates angular in
rad/ns.  Grouping the linear terms through C_j = 2i*Delta_r + kappa +
2i*chi_j, each constant-drive segment of the linear model (K_c = 0) has the
exact solution

    alpha(t) = alpha_ss + (alpha(t0) - alpha_ss) * exp(-C_j (t - t0) / 2),
    alpha_ss = -2i eps~ / C_j,

which is what `propagate_closed_form` chains across segments.  With a Kerr
term the equation is nonlinear and `propagate_ode` integrates it with a
fixed-step RK4.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .core import MHZ_TO_RAD_NS, DeviceParams, QubitState, complex_rate
from .errors import ConfigError, KerrNotSupported, NonFinite, OutOfRange, StepTooLarge
from .pulses import DriveSegment, PulseSchedule

#: |C_j| below this (rad/ns) is treated as drift-free lossless evolution.
_C_TINY = 1e-15

#: ODE steps must resolve every segment with at least this many sub-steps.
_MIN_STEPS_PER_SEGMENT = 10


@dataclass(eq=False)
class Trajectory:
    """Sampled cavity amplitude for one qubit state.

    times are ns from the start of the schedule; alpha is the complex field
    amplitude at those times.
    """

    times: np.ndarray
    alpha: np.ndarray
    qubit_state: QubitState
    label: str = ""

    def __post_init__(self) -> None:
        self.times = np.asarray(self.times, dtype=float)
        self.alpha = np.asarray(self.alpha, dtype=complex)
        if self.times.shape != self.alpha.shape:
            raise ConfigError("times and alpha must have matching shapes")

    @property
    def photon(self) -> np.ndarray:
        """Instantaneous photon number |alpha|^2 at each sample."""
        return np.abs(self.alpha) ** 2

    @property
    def final_alpha(self) -> complex:
        return complex(self.alpha[-1])

    def write_csv(self, path: str | Path) -> None:
        """Write `t_ns,re_alpha,im_alpha,n` rows with full float precision."""
        with Path(path).open("w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["t_ns", "re_alpha", "im_alpha", "n"])
            for t, a in zip(self.times, self.alpha):
                writer.writerow(
                    [
                        format(t, ".17g"),
                        format(a.real, ".17g"),
                        format(a.imag, ".17g"),
                        format(abs(a) ** 2, ".17g"),
                    ]
                )


def read_trajectory_csv(path: str | Path, qubit_state: QubitState | int = 0) -> Trajectory:
    data = np.genfromtxt(path, delimiter=",", names=True, ndmin=1)
    alpha = data["re_alpha"] + 1j * data["im_alpha"]
    return Trajectory(times=data["t_ns"], alpha=alpha, qubit_state=QubitState(qubit_state))


def photon_number(traj: Trajectory, t: float) -> float:
    """Photon number at time t, interpolating alpha linearly in between samples."""
    if t < traj.times[0] or t > traj.times[-1]:
        raise OutOfRange(
            f"time {t} outside trajectory span [{traj.times[0]}, {traj.times[-1]}]"
        )
    re = np.interp(t, traj.times, traj.alpha.real)
    im = np.interp(t, traj.times, traj.alpha.imag)
    return float(re * re + im * im)


def steady_state_alpha(c: complex, drive: complex) -> complex:
    """Fixed point -2i eps~ / C of one linear segment."""
    if abs(c) < _C_TINY:
        raise ConfigError("steady state undefined for C = 0")
    return -2j * drive / c


def _segment_end_alpha(alpha0: complex, c: complex, drive: complex, duration: float) -> complex:
    if abs(c) < _C_TINY:
        return alpha0 - 1j * drive * duration
    ss = -2j * drive / c
    return ss + (alpha0 - ss) * np.exp(-0.5 * c * duration)


def final_alpha(
    params: DeviceParams,
    schedule: PulseSchedule,
    state: QubitState | int,
    alpha0: complex = 0j,
    chi_source: str = "formula",
) -> complex:
    """Exact endpoint of the linear model after the whole schedule."""
    c = complex_rate(params, state, chi_source).c
    a = complex(alpha0)
    for seg in schedule:
        a = _segment_end_alpha(a, c, seg.complex_amplitude, seg.duration)
    return a


def propagate_closed_form(
    params: DeviceParams,
    schedule: PulseSchedule,
    state: QubitState | int,
    sample_dt: float = 1.0,
    alpha0: complex = 0j,
    chi_source: str = "formula",
) -> Trajectory:
    """Exact piecewise solution of the linear model, sampled per segment.

    Within each segment samples are spaced by at most sample_dt (the
    segment is subdivided evenly) and every segment boundary is a sample,
    so discontinuous drive switches land exactly on grid points.

    Only valid for kerr_coeff == 0; use `propagate` to dispatch.
    """
    if params.kerr_coeff != 0.0:
        raise KerrNotSupported("closed form only covers the linear model; use propagate_ode")
    if sample_dt <= 0.0:
        raise ConfigError(f"sample_dt must be > 0, got {sample_dt}")
    c = complex_rate(params, state, chi_source).c

    times = [np.array([0.0])]
    alphas = [np.array([alpha0], dtype=complex)]
    t0 = 0.0
    a = complex(alpha0)
    for seg in schedule:
        n = max(1, int(math.ceil(seg.duration / sample_dt - 1e-12)))
        local = np.linspace(0.0, seg.duration, n + 1)[1:]
        drive = seg.complex_amplitude
        if abs(c) < _C_TINY:
            vals = a - 1j * drive * local
        else:
            ss = -2j * drive / c
            vals = ss + (a - ss) * np.exp(-0.5 * c * local)
        times.append(t0 + local)
        alphas.append(vals)
        t0 += seg.duration
        a = complex(vals[-1])
    return Trajectory(
        times=np.concatenate(times),
        alpha=np.concatenate(alphas),
        qubit_state=QubitState(state),
        label=schedule.label,
    )


def propagate_ode(
    params: DeviceParams,
    schedule: PulseSchedule,
    state: QubitState | int,
    dt: float = 0.05,
    alpha0: complex = 0j,
    chi_source: str = "formula",
) -> Trajectory:
    """Fixed-step RK4 integration, including the Kerr nonlinearity.

    Each segment is subdivided into ceil(duration/dt) equal steps so that
    drive switches always coincide with step boundaries; the effective step
    never exceeds dt.  Samples are recorded at every step.

    Raises:
        StepTooLarge: dt does not give at least 10 steps in every segment.
        NonFinite: the integration blew up (diverging Kerr trajectory).
    """
    if dt <= 0.0:
        raise ConfigError(f"dt must be > 0, got {dt}")
    shortest = schedule.min_segment_duration
    if dt > shortest / _MIN_STEPS_PER_SEGMENT:
        raise StepTooLarge(
            f"dt = {dt} ns too coarse for a {shortest} ns segment; "
            f"need dt <= {shortest / _MIN_STEPS_PER_SEGMENT}"
        )
    c = complex_rate(params, state, chi_source).c
    half_c = 0.5 * c
    kc = params.kerr_coeff * MHZ_TO_RAD_NS

    # Plain Python complex arithmetic in the inner loop: numpy scalar
    # overhead is ~20x worse for this scalar recurrence.
    a = complex(alpha0)
    t = 0.0
    times = [0.0]
    values = [a]
    for seg in schedule:
        n = max(_MIN_STEPS_PER_SEGMENT, int(math.ceil(seg.duration / dt - 1e-12)))
        h = seg.duration / n
        drive_term = -1j * seg.complex_amplitude
        if kc == 0.0:

            def rhs(x: complex) -> complex:
                return drive_term - half_c * x

        else:

            def rhs(x: complex) -> complex:
                return drive_term - half_c * x - 1j * kc * (x.real * x.real + x.imag * x.imag) * x

        for k in range(n):
            k1 = rhs(a)
            k2 = rhs(a + 0.5 * h * k1)
            k3 = rhs(a + 0.5 * h * k2)
            k4 = rhs(a + h * k3)
            a = a + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
            times.append(t + (k + 1) * h)
            values.append(a)
        if not (math.isfinite(a.real) and math.isfinite(a.imag)):
            raise NonFinite(f"cavity amplitude diverged during segment ending at t = {t + seg.duration} ns")
        t += seg.duration

    return Trajectory(
        times=np.array(times),
        alpha=np.array(values, dtype=complex),
        qubit_state=QubitState(state),
        label=schedule.label,
    )


def ode_final_alpha(
    params: DeviceParams,
    schedule: PulseSchedule,
    state: QubitState | int,
    dt: float = 0.05,
    alpha0: complex = 0j,
    chi_source: str = "formula",
) -> complex:
    """Endpoint of the RK4 integration without recording samples.

    Same stepping rules as `propagate_ode`; meant for optimizer inner loops
    where only |alpha(end)|^2 matters and the sample arrays would dominate
    the cost.
    """
    if dt <= 0.0:
        raise ConfigError(f"dt must be > 0, got {dt}")
    shortest = schedule.min_segment_duration
    if dt > shortest / _MIN_STEPS_PER_SEGMENT:
        raise StepTooLarge(
            f"dt = {dt} ns too coarse for a {shortest} ns segment; "
            f"need dt <= {shortest / _MIN_STEPS_PER_SEGMENT}"
        )
    half_c = 0.5 * complex_rate(params, state, chi_source).c
    kc = params.kerr_coeff * MHZ_TO_RAD_NS
    a = complex(alpha0)
    for seg in schedule:
        n = int(math.ceil(seg.duration / dt - 1e-12))
        h = seg.duration / n
        drive_term = -1j * seg.complex_amplitude
        if kc == 0.0:

            def rhs(x: complex) -> complex:
                return drive_term - half_c * x

        else:

            def rhs(x: complex) -> complex:
                return drive_term - half_c * x - 1j * kc * (x.real * x.real + x.imag * x.imag) * x

        for _ in range(n):
            k1 = rhs(a)
            k2 = rhs(a + 0.5 * h * k1)
            k3 = rhs(a + 0.5 * h * k2)
            k4 = rhs(a + h * k3)
            a = a + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        if not (math.isfinite(a.real) and math.isfinite(a.imag)):
            raise NonFinite("cavity amplitude diverged during endpoint integration")
    return a


def propagate(
    params: DeviceParams,
    schedule: PulseSchedule,
    state: QubitState | int,
    sample_dt: float = 1.0,
    alpha0: complex = 0j,
    chi_source: str = "formula",
    force_ode: bool = False,
    ode_dt: float | None = None,
) -> Trajectory:
    """Propagate one qubit state, picking the exact route when it applies.

    The closed form is used for the linear model; any nonzero Kerr
    coefficient (or force_ode=True) switches to RK4 with step ode_dt
    (defaulting to sample_dt).
    """
    if params.kerr_coeff == 0.0 and not force_ode:
        return propagate_closed_form(
            params, schedule, state, sample_dt=sample_dt, alpha0=alpha0, chi_source=chi_source
        )
    return propagate_ode(
        params,
        schedule,
        state,
        dt=sample_dt if ode_dt is None else ode_dt,
        alpha0=alpha0,
        chi_source=chi_source,
    )


def ring_up_segment(
    params: DeviceParams,
    state: QubitState | int,
    target_photons: float,
    duration: float,
    phase: float = 0.0,
    chi_source: str = "formula",
) -> DriveSegment:
    """Constant segment whose steady state holds target_photons for `state`.

    The amplitude inverts the steady-state condition of the Kerr cavity,
    n [4 (delta + K_c n)^2 + kappa^2] = 4 eps^2, i.e.
    eps = sqrt(n [4 (delta + K_c n)^2 + kappa^2]) / 2, which is
    sqrt(n) |C| / 2 at K_c = 0.  With a Kerr term a strong drive can hold
    more than one steady state; n is the one reached from vacuum as long as
    the drive stays below the bistable range.  The segment does not
    necessarily reach n within `duration`, it just drives toward it.
    """
    if target_photons < 0.0:
        raise ConfigError(f"target photon number must be >= 0, got {target_photons}")
    c = complex_rate(params, state, chi_source).c
    if abs(c) < _C_TINY:
        raise ConfigError("steady-state targeting undefined for C = 0")
    shifted = 0.5 * c.imag + params.kerr_coeff * MHZ_TO_RAD_NS * target_photons
    eps = 0.5 * math.sqrt(target_photons * (4.0 * shifted * shifted + c.real * c.real))
    return DriveSegment(amplitude=eps, phase=phase, duration=duration)
