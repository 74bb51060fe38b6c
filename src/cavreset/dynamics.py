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

evaluated in one place, `_segment_end_alpha`, which `final_alpha`,
`propagate_closed_form` and the linear residual maps of `design` share.
With a Kerr term the equation is nonlinear and fixed-step RK4 integrates
it, always with the step rule of `_rk4_steps`.  `_rk4` steps one Python
complex trajectory (`propagate_ode`, `ode_final_alpha`).  `_rk4_tangent`
is `_rk4` run together with its derivative along two real drive unknowns;
the Kerr reset design takes its residuals and their exact Jacobian from
it.  A Kerr residual map integrates its window, one trajectory per drive
cell, with `_gbs_grid`: order-8 extrapolation on numpy arrays at a step
set from the field's fastest rate, which `_gbs_steps` bounds through the
decay envelope of |alpha|.  Its readout goes through `_gbs_field`, the
same stepper on one Python complex.  Both match `_rk4` at dt = 0.05 ns to
roundoff on smooth windows and beat it on stiff ones.  The six 4000 ns
ring-ups of the appC_calibration scenario share one `_gbs_grid` call;
their endpoints agree with DOP853 to 5.0e-14 of max(|alpha|, 1), where
`_rk4` at 0.05 ns gives 5.2e-14.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from ._artefacts import write_csv
from .core import MHZ_TO_RAD_NS, DeviceParams, QubitState, complex_rate
from .errors import ConfigError, NumericError
from .pulses import DriveSegment, PulseSchedule

#: |C_j| below this (rad/ns) is treated as drift-free lossless evolution.
_C_TINY = 1e-15

#: RK4 resolves every segment with at least this many sub-steps.
_MIN_STEPS_PER_SEGMENT = 10

#: `_gbs_grid` and `_gbs_field` run these modified-midpoint substeps per
#: macro-step, and their macro-step is _GBS_THETA over the field's fastest
#: rate, within [_GBS_MIN_STEP, _GBS_MAX_STEP] ns.  At the floor, 17 evaluations per
#: macro-step cost per ns what RK4's 4 per 0.05 ns step do.
_GBS_SUBSTEPS, _GBS_THETA = (2, 4, 6, 8), 0.15
_GBS_MIN_STEP, _GBS_MAX_STEP = 17.0 / 4.0 * 0.05, 5.0


@dataclass(eq=False)
class Trajectory:
    """Sampled cavity amplitude for one qubit state.

    times are ns from the start of the schedule; alpha is the complex field
    amplitude at those times.
    """

    times: np.ndarray
    alpha: np.ndarray
    qubit_state: QubitState

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
        write_csv(
            path,
            ["t_ns", "re_alpha", "im_alpha", "n"],
            [(t, a.real, a.imag, abs(a) ** 2) for t, a in zip(self.times.tolist(), self.alpha.tolist())],
        )


def photon_number(traj: Trajectory, t: float) -> float:
    """Photon number at time t, interpolating alpha linearly in between samples."""
    if not traj.times[0] <= t <= traj.times[-1]:
        raise NumericError(
            f"time {t} outside trajectory span [{traj.times[0]}, {traj.times[-1]}]"
        )
    re = np.interp(t, traj.times, traj.alpha.real)
    im = np.interp(t, traj.times, traj.alpha.imag)
    return float(re * re + im * im)


def _segment_end_alpha(alpha0, c: complex, drive, duration):
    """Exact linear-model field after `duration` ns of constant `drive` from alpha0.

    Broadcasts over an array of drives or an array of local times.
    """
    if abs(c) < _C_TINY:
        return alpha0 - 1j * drive * duration
    ss = -2j * drive / c
    return ss + (alpha0 - ss) * np.exp(-0.5 * c * duration)


def _rk4_steps(duration: float, dt: float) -> tuple[int, float]:
    """(n, h): n equal RK4 steps of h ns over one segment, n >= 10 and h <= dt."""
    n = max(_MIN_STEPS_PER_SEGMENT, int(math.ceil(duration / dt - 1e-12)))
    return n, duration / n


def _rk4(alpha0, segments, half_c: complex, kc: float, dt: float, samples: list | None = None):
    """Fixed-step RK4 through (drive, duration) segments; returns the endpoint.

    alpha0 and the drives are Python complex numbers (numpy scalar overhead
    is ~20x worse for this scalar recurrence).
    Each segment takes `_rk4_steps(duration, dt)`, so drive switches land on
    step boundaries.  If `samples` is a list, the field after every step is
    appended to it.  The right-hand side is written out in each stage (a
    closure call costs about a quarter of a scalar Kerr step).
    """
    if not (math.isfinite(dt) and dt > 0.0):
        raise ConfigError(f"dt must be finite and > 0, got {dt}")
    a = alpha0
    ikc = 1j * kc
    for drive, duration in segments:
        n, h = _rk4_steps(duration, dt)
        half_h, sixth_h = 0.5 * h, h / 6.0
        drive_term = -1j * drive
        if kc == 0.0:
            for _ in range(n):
                k1 = drive_term - half_c * a
                k2 = drive_term - half_c * (a + half_h * k1)
                k3 = drive_term - half_c * (a + half_h * k2)
                k4 = drive_term - half_c * (a + h * k3)
                a = a + sixth_h * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
                if samples is not None:
                    samples.append(a)
        else:
            for _ in range(n):
                k1 = drive_term - half_c * a - ikc * (a.real * a.real + a.imag * a.imag) * a
                x = a + half_h * k1
                k2 = drive_term - half_c * x - ikc * (x.real * x.real + x.imag * x.imag) * x
                x = a + half_h * k2
                k3 = drive_term - half_c * x - ikc * (x.real * x.real + x.imag * x.imag) * x
                x = a + h * k3
                k4 = drive_term - half_c * x - ikc * (x.real * x.real + x.imag * x.imag) * x
                a = a + sixth_h * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
                if samples is not None:
                    samples.append(a)
    return a


def _amplitude_bound(alpha0: complex, eps_max: float, duration: float, c: complex) -> float:
    """Bound A on |alpha| over `duration` ns of any drive up to eps_max in modulus.

    Detuning, chi and the Kerr term only rotate alpha, so
    d|alpha|/dt <= -(kappa/2) |alpha| + eps_max, and |alpha| stays below
    A = max(|alpha0|, |alpha0| e^{-kappa T/2} + (2 eps_max/kappa)(1 - e^{-kappa T/2})),
    or |alpha0| + eps_max T at kappa = 0.
    """
    r0 = abs(alpha0)
    bound = r0 + eps_max * duration
    if c.real > 0.0:
        ceiling = 2.0 * eps_max / c.real
        envelope = r0 + max(0.0, ceiling - r0) * -math.expm1(-0.5 * c.real * duration)
        # the envelope lies below both looser bounds; min() keeps rounding from passing them
        bound = min(bound, max(r0, ceiling), envelope)
    return bound


def _gbs_steps(alpha0: complex, eps_max: float, duration: float, c: complex, kc: float) -> int:
    """Macro-steps of `_gbs_grid` or `_gbs_field` through drives up to eps_max in modulus.

    omega = |C|/2 + 2 |K_c| A^2 bounds the field's fastest rate, with A the
    decay-envelope bound of `_amplitude_bound`.
    """
    bound = _amplitude_bound(alpha0, eps_max, duration, c)
    omega = 0.5 * abs(c) + 2.0 * abs(kc) * bound * bound
    step = max(_GBS_MIN_STEP, _GBS_THETA / max(omega, _GBS_THETA / _GBS_MAX_STEP))
    return max(1, math.ceil(duration / step - 1e-12))


def _gbs_grid(
    alpha0: complex, drives: np.ndarray, duration: float, half_c: complex, kc: float, steps: int
) -> np.ndarray:
    """Kerr field after `duration` ns of each of `drives`, all from alpha0.

    Gragg-Bulirsch-Stoer extrapolation (Hairer, Norsett and Wanner, *Solving
    ODEs I*, II.9) in `steps` equal macro-steps H: the modified midpoint rule
    with n = 2, 4, 6, 8 substeps from one shared slope, then Aitken-Neville
    extrapolation in (H/n)^2 to order 8; 17 evaluations per macro-step.
    Every operation is elementwise on buffers allocated once, so no cell
    depends on how a grid is split into calls.  Diverging cells come out
    non-finite; nothing is raised.
    """
    h_macro = duration / steps
    drive_term = np.multiply(-1j, drives)
    a = np.full(drive_term.shape, complex(alpha0))
    g = np.full(drive_term.shape, complex(half_c))  # half_c + i K_c |z|^2
    slope0, work, *pool = (np.empty_like(a) for _ in range(7))
    nx, sq = np.empty(a.shape), np.empty(a.shape)

    def rhs(z: np.ndarray, out: np.ndarray) -> np.ndarray:
        # drive_term - (half_c + i K_c |z|^2) z
        np.add(np.multiply(z.real, z.real, out=nx), np.multiply(z.imag, z.imag, out=sq), out=nx)
        np.add(np.multiply(nx, kc, out=g.imag), half_c.imag, out=g.imag)
        return np.subtract(drive_term, np.multiply(g, z, out=out), out=out)

    for _ in range(steps):
        rhs(a, slope0)
        table: list[np.ndarray] = []  # T[j, k] of the latest row j, k = 0..j
        for j, n in enumerate(_GBS_SUBSTEPS):
            h = h_macro / n
            odd, even = pool.pop(), pool.pop()
            np.add(a, np.multiply(h, slope0, out=odd), out=odd)  # z_1
            np.add(a, np.multiply(2.0 * h, rhs(odd, work), out=work), out=even)  # z_2
            for m in range(2, n):  # z_{m+1} = z_{m-1} + 2 h f(z_m)
                z, prev = (even, odd) if m % 2 == 0 else (odd, even)
                np.add(prev, np.multiply(2.0 * h, rhs(z, work), out=work), out=prev)
            pool.append(odd)
            # T[j, k] = T[j, k-1] + (T[j, k-1] - T[j-1, k-1]) / ((n_j / n_{j-k})^2 - 1)
            cur = even
            for k in range(1, j + 1):
                older, ratio = table[k - 1], n / _GBS_SUBSTEPS[j - k]
                np.divide(np.subtract(cur, older, out=older), ratio * ratio - 1.0, out=older)
                table[k - 1], cur = cur, np.add(cur, older, out=older)
            table.append(cur)
        pool += [*table[:-1], a]
        a = table[-1]
    return a


def _gbs_field(
    alpha0: complex, drive: complex, duration: float, half_c: complex, kc: float, steps: int
) -> complex:
    """`_gbs_grid` for one drive, on Python complex numbers.

    The same substeps and Aitken-Neville weights; it agrees with a one-cell
    `_gbs_grid` to roundoff, not bit for bit.  A one-cell numpy grid costs
    about twice a scalar RK4 run at 0.05 ns; this form costs a fraction.

    Raises:
        NumericError: the field diverged.
    """
    h_macro = duration / steps
    drive_term = -1j * drive
    ikc = 1j * kc
    a = complex(alpha0)
    for _ in range(steps):
        slope0 = drive_term - (half_c + ikc * (a.real * a.real + a.imag * a.imag)) * a
        row: list[complex] = []  # T[j, k] of the latest row j, k = 0..j
        for j, n in enumerate(_GBS_SUBSTEPS):
            h = h_macro / n
            two_h = 2.0 * h
            prev, z = a, a + h * slope0
            for _m in range(1, n):  # z_{m+1} = z_{m-1} + 2 h f(z_m)
                prev, z = z, prev + two_h * (
                    drive_term - (half_c + ikc * (z.real * z.real + z.imag * z.imag)) * z
                )
            new_row = [z]
            for k in range(1, j + 1):
                ratio = n / _GBS_SUBSTEPS[j - k]
                z = z + (z - row[k - 1]) / (ratio * ratio - 1.0)
                new_row.append(z)
            row = new_row
        a = row[-1]
    if not cmath.isfinite(a):
        raise NumericError("cavity amplitude diverged during endpoint integration")
    return a


def _rk4_tangent(alpha0: complex, segments, half_c: complex, kc: float, dt: float):
    """Kerr `_rk4` on one Python-complex trajectory, with its derivative.

    `segments` holds (drive, duration, d drive/d x0, d drive/d x1) for two
    real unknowns x that the drives depend on linearly.  Returns
    (alpha_end, d alpha_end/d x0, d alpha_end/d x1).  The field runs the
    same operations as `_rk4` and is bit-identical to it; the derivatives
    differentiate every RK4 stage (forward mode), so they are the exact
    Jacobian of the discrete map, not a difference quotient.  The Kerr
    term is not holomorphic, so each stage derivative carries conj(d x):

        d k = -i d drive - (C/2 + 2 i K_c |x|^2) d x - i K_c x^2 conj(d x).

    Costs about 2.3 `_rk4` passes.

    Raises:
        ConfigError: dt is not finite and > 0.
        NumericError: the integration blew up (diverging Kerr trajectory).
    """
    if not (math.isfinite(dt) and dt > 0.0):
        raise ConfigError(f"dt must be finite and > 0, got {dt}")
    ikc = 1j * kc
    two_ikc = 2.0 * ikc
    a, da, db = alpha0, 0j, 0j
    for drive, duration, d0, d1 in segments:
        n, h = _rk4_steps(duration, dt)
        half_h, sixth_h = 0.5 * h, h / 6.0
        drive_term, d0_term, d1_term = -1j * drive, -1j * d0, -1j * d1
        for _ in range(n):
            x, u, v = a, da, db
            nx = x.real * x.real + x.imag * x.imag
            g, q = half_c + two_ikc * nx, ikc * x * x
            k1 = drive_term - half_c * x - ikc * nx * x
            u1 = d0_term - g * u - q * u.conjugate()
            v1 = d1_term - g * v - q * v.conjugate()
            x, u, v = a + half_h * k1, da + half_h * u1, db + half_h * v1
            nx = x.real * x.real + x.imag * x.imag
            g, q = half_c + two_ikc * nx, ikc * x * x
            k2 = drive_term - half_c * x - ikc * nx * x
            u2 = d0_term - g * u - q * u.conjugate()
            v2 = d1_term - g * v - q * v.conjugate()
            x, u, v = a + half_h * k2, da + half_h * u2, db + half_h * v2
            nx = x.real * x.real + x.imag * x.imag
            g, q = half_c + two_ikc * nx, ikc * x * x
            k3 = drive_term - half_c * x - ikc * nx * x
            u3 = d0_term - g * u - q * u.conjugate()
            v3 = d1_term - g * v - q * v.conjugate()
            x, u, v = a + h * k3, da + h * u3, db + h * v3
            nx = x.real * x.real + x.imag * x.imag
            g, q = half_c + two_ikc * nx, ikc * x * x
            k4 = drive_term - half_c * x - ikc * nx * x
            u4 = d0_term - g * u - q * u.conjugate()
            v4 = d1_term - g * v - q * v.conjugate()
            a = a + sixth_h * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
            da = da + sixth_h * (u1 + 2.0 * u2 + 2.0 * u3 + u4)
            db = db + sixth_h * (v1 + 2.0 * v2 + 2.0 * v3 + v4)
    if not (cmath.isfinite(a) and cmath.isfinite(da) and cmath.isfinite(db)):
        raise NumericError("cavity amplitude diverged during sensitivity integration")
    return a, da, db


def final_alpha(
    params: DeviceParams,
    schedule: PulseSchedule,
    state: QubitState | int,
    alpha0: complex = 0j,
    chi_source: str = "formula",
) -> complex:
    """Exact endpoint of the linear model after the whole schedule."""
    if params.kerr_coeff != 0.0:
        raise NumericError("closed form only covers the linear model; use ode_final_alpha")
    return _closed_form_end(alpha0, complex_rate(params, state, chi_source), schedule)


def _closed_form_end(alpha0: complex, c: complex, schedule: PulseSchedule) -> complex:
    """`final_alpha` for a known complex rate C, for callers that reuse it."""
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
        raise NumericError("closed form only covers the linear model; use propagate_ode")
    if not sample_dt > 0.0:
        raise ConfigError(f"sample_dt must be > 0, got {sample_dt}")
    c = complex_rate(params, state, chi_source)

    times = [np.array([0.0])]
    alphas = [np.array([alpha0], dtype=complex)]
    t0 = 0.0
    a = complex(alpha0)
    for seg in schedule:
        n = max(1, int(math.ceil(seg.duration / sample_dt - 1e-12)))
        local = np.linspace(0.0, seg.duration, n + 1)[1:]
        vals = _segment_end_alpha(a, c, seg.complex_amplitude, local)
        times.append(t0 + local)
        alphas.append(vals)
        t0 += seg.duration
        a = complex(vals[-1])
    return Trajectory(
        times=np.concatenate(times), alpha=np.concatenate(alphas), qubit_state=QubitState(state)
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
        ConfigError: dt is not finite and > 0.
        NumericError: dt does not give at least 10 steps in every segment,
            or the integration blew up (diverging Kerr trajectory).
    """
    return _propagate_ode_shared(params, (schedule,), state, dt, alpha0, chi_source)[0]


def _propagate_ode_shared(
    params: DeviceParams,
    schedules,
    state: QubitState | int,
    dt: float,
    alpha0: complex = 0j,
    chi_source: str = "formula",
) -> list[Trajectory]:
    """`propagate_ode` of schedules that open with the same segment.

    The common first segment is integrated once; each schedule continues
    `_rk4` from the Python complex field at its end, so every trajectory
    is bit-identical to `propagate_ode` of its own schedule.

    Raises:
        ConfigError: dt is not finite and > 0, or the first segments differ.
        NumericError: dt does not give at least 10 steps in every segment,
            or the integration blew up (diverging Kerr trajectory).
    """
    for schedule in schedules:
        shortest = schedule.min_segment_duration
        if dt > shortest / _MIN_STEPS_PER_SEGMENT:
            raise NumericError(
                f"dt = {dt} ns too coarse for a {shortest} ns segment; "
                f"need dt <= {shortest / _MIN_STEPS_PER_SEGMENT}"
            )
    head = schedules[0].segments[0]
    if any(schedule.segments[0] != head for schedule in schedules):
        raise ConfigError("schedules sharing a first segment must open with the same segment")
    half_c = 0.5 * complex_rate(params, state, chi_source)
    kc = params.kerr_coeff * MHZ_TO_RAD_NS
    head_values = [complex(alpha0)]
    _rk4(head_values[0], [(head.complex_amplitude, head.duration)], half_c, kc, dt, head_values)

    trajectories = []
    for schedule in schedules:
        segments = [(seg.complex_amplitude, seg.duration) for seg in schedule]
        values = list(head_values)
        _rk4(values[-1], segments[1:], half_c, kc, dt, values)
        times = [np.zeros(1)]
        t = 0.0
        for _, duration in segments:
            n, h = _rk4_steps(duration, dt)
            times.append(t + np.arange(1, n + 1) * h)
            t += duration
        times = np.concatenate(times)
        alpha = np.array(values, dtype=complex)
        diverged = ~np.isfinite(alpha)
        if diverged.any():
            raise NumericError(f"cavity amplitude diverged at t = {times[diverged.argmax()]} ns")
        trajectories.append(Trajectory(times=times, alpha=alpha, qubit_state=QubitState(state)))
    return trajectories


def ode_final_alpha(
    params: DeviceParams,
    schedule: PulseSchedule,
    state: QubitState | int,
    dt: float = 0.05,
    alpha0: complex = 0j,
    chi_source: str = "formula",
) -> complex:
    """Endpoint of the RK4 integration without recording samples.

    Same stepper and step rule as `propagate_ode`, for optimizer inner loops
    where only alpha(end) matters.  Unlike `propagate_ode` it accepts any
    finite dt > 0: a segment shorter than 10 dt still gets 10 steps.

    Raises:
        ConfigError: dt is not finite and > 0.
        NumericError: the integration blew up (diverging Kerr trajectory).
    """
    half_c = 0.5 * complex_rate(params, state, chi_source)
    kc = params.kerr_coeff * MHZ_TO_RAD_NS
    segments = [(seg.complex_amplitude, seg.duration) for seg in schedule]
    a = _rk4(complex(alpha0), segments, half_c, kc, dt)
    if not cmath.isfinite(a):
        raise NumericError("cavity amplitude diverged during endpoint integration")
    return a


def propagate(
    params: DeviceParams,
    schedule: PulseSchedule,
    state: QubitState | int,
    sample_dt: float = 1.0,
    alpha0: complex = 0j,
    chi_source: str = "formula",
    force_ode: bool = False,
) -> Trajectory:
    """Propagate one qubit state, picking the exact route when it applies.

    The closed form is used for the linear model; any nonzero Kerr
    coefficient (or force_ode=True) switches to RK4 with step sample_dt.
    """
    if params.kerr_coeff == 0.0 and not force_ode:
        return propagate_closed_form(
            params, schedule, state, sample_dt=sample_dt, alpha0=alpha0, chi_source=chi_source
        )
    return propagate_ode(
        params, schedule, state, dt=sample_dt, alpha0=alpha0, chi_source=chi_source
    )


def ring_up_segment(
    params: DeviceParams,
    state: QubitState | int,
    target_photons: float,
    duration: float,
    chi_source: str = "formula",
) -> DriveSegment:
    """Constant zero-phase segment whose steady state holds target_photons for `state`.

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
    c = complex_rate(params, state, chi_source)
    if abs(c) < _C_TINY:
        raise ConfigError("steady-state targeting undefined for C = 0")
    shifted = 0.5 * c.imag + params.kerr_coeff * MHZ_TO_RAD_NS * target_photons
    eps = 0.5 * math.sqrt(target_photons * (4.0 * shifted * shifted + c.real * c.real))
    return DriveSegment(amplitude=eps, phase=0.0, duration=duration)
