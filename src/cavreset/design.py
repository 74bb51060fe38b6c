"""Reset-pulse design and benchmarking.

The readout tone leaves the cavity with a state-dependent field alpha_j(tau).
A single constant reset segment of duration dtau can return that field to
vacuum exactly in the linear model; the closed form is

    eps_r e^{i phi_r} = eps_n e^{i phi_n} (1 - e^{-tau C_j/2}) / (1 - e^{dtau C_j/2}),

one complex condition solved by one complex drive.  Because every end
field of the linear model is affine in the reset drive, the joint design
for both qubit states and the two-segment baseline are weighted linear
least-squares problems with exact solutions too.  With a Kerr term no
closed form exists: Levenberg-Marquardt polishes the same residual vector
on RK4 endpoints, starting from the linear optimum.  This module provides
both routes, plus residual-landscape maps, an amplitude-scaling check, and
a three-way comparison against square-pulse free decay and a two-segment
active baseline.
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass, field
from enum import Enum
from pathlib import Path
from typing import Callable, Iterable, Mapping, Sequence

import numpy as np

from .core import MHZ_TO_RAD_NS, DeviceParams, QubitState, complex_rate
from .dynamics import (
    Trajectory,
    final_alpha,
    ode_final_alpha,
    propagate,
)
from .errors import (
    AmplitudeCapExceeded,
    ConfigError,
    DegenerateDuration,
    KerrNotSupported,
    NotConverged,
)
from .fitting import FitResult, exp_decay_fit
from .optimize import levenberg_marquardt
from .pulses import DriveSegment, PulseSchedule, SchemeLabel

#: Residual-photon level whose enclosing grid cells the maps report.
CONTOUR_LEVEL = 0.1

#: RK4 step for Kerr-model endpoints, ns.
DESIGN_DT = 0.05


class SolutionMode(str, Enum):
    PER_STATE = "per_state"
    JOINT = "joint"


def _normalize_states(states: QubitState | int | Iterable[QubitState | int]) -> tuple[QubitState, ...]:
    if isinstance(states, (QubitState, int)):
        states = [states]
    out = tuple(sorted({QubitState(s) for s in states}))
    if not out:
        raise ConfigError("need at least one target state")
    return out


def _resolve_weights(
    targets: tuple[QubitState, ...],
    weights: Mapping[QubitState | int, float] | None,
) -> dict[QubitState, float]:
    if weights is None:
        return {j: 1.0 for j in targets}
    w = {QubitState(k): float(v) for k, v in weights.items()}
    missing = [j for j in targets if j not in w]
    if missing:
        raise ConfigError(f"missing weight for state(s) {missing}")
    if any(v < 0.0 for v in w.values()):
        raise ConfigError("weights must be >= 0")
    if all(w[j] == 0.0 for j in targets):
        raise ConfigError("at least one weight must be positive")
    return w


@dataclass(frozen=True)
class ResetSolution:
    """One reset segment (amplitude, phase, duration) and how it was found."""

    reset_amplitude: float
    reset_phase: float
    reset_duration: float
    readout: DriveSegment
    residual_photons: Mapping[QubitState, float]
    target_states: tuple[QubitState, ...]
    mode: SolutionMode
    method: str
    converged: bool
    iterations: int

    def segment(self) -> DriveSegment:
        return DriveSegment(
            amplitude=self.reset_amplitude,
            phase=self.reset_phase,
            duration=self.reset_duration,
        )

    def schedule(self, label: str = SchemeLabel.SSPE.value) -> PulseSchedule:
        return PulseSchedule(segments=(self.readout, self.segment()), label=label)

    def require_converged(self) -> "ResetSolution":
        if not self.converged:
            raise NotConverged(
                f"reset optimization did not converge after {self.iterations} iterations"
            )
        return self

    def to_dict(self) -> dict:
        return {
            "reset_amplitude": self.reset_amplitude,
            "reset_phase": self.reset_phase,
            "reset_duration": self.reset_duration,
            "readout": {
                "amplitude": self.readout.amplitude,
                "phase": self.readout.phase,
                "duration": self.readout.duration,
            },
            "residual_photons": {int(k): v for k, v in self.residual_photons.items()},
            "target_states": [int(s) for s in self.target_states],
            "mode": self.mode.value,
            "method": self.method,
            "converged": self.converged,
            "iterations": self.iterations,
        }


def _end_photons(
    params: DeviceParams,
    schedule: PulseSchedule,
    chi_source: str,
) -> dict[QubitState, float]:
    """|alpha_j|^2 after the whole schedule for both qubit states.

    Exact in the linear model; RK4 at DESIGN_DT with a Kerr term.
    """
    if params.kerr_coeff == 0.0:
        ends = {j: final_alpha(params, schedule, j, chi_source=chi_source) for j in QubitState}
    else:
        ends = {
            j: ode_final_alpha(params, schedule, j, dt=DESIGN_DT, chi_source=chi_source)
            for j in QubitState
        }
    return {j: abs(a) ** 2 for j, a in ends.items()}


def _least_squares_drive(
    params: DeviceParams,
    targets: tuple[QubitState, ...],
    weights: Mapping[QubitState, float],
    readout: DriveSegment,
    reset: Callable[[np.ndarray], PulseSchedule],
    chi_source: str,
    start: Sequence[float] | None = None,
) -> tuple[np.ndarray, bool, int]:
    """Two real unknowns x minimizing sum_j w_j |alpha_j(end)|^2.

    `reset(x)` builds the reset segments and must be linear in x.  In the
    linear model each end field is affine in x, alpha_j = f_j + B_j x, so
    the minimum is one least-squares solve over the rows sqrt(w_j) [Re, Im]
    stacked across the target states.  With a Kerr term Levenberg-Marquardt
    minimizes the same residual vector over RK4 endpoints, started from
    `start` or else from the linear optimum.

    Returns (x, converged, objective evaluations).
    """
    readout_sched = PulseSchedule(segments=(readout,))
    scale = {j: math.sqrt(weights[j]) for j in targets}
    if params.kerr_coeff == 0.0:
        rows, rhs = [], []
        for j in targets:
            alpha_tau = final_alpha(params, readout_sched, j, chi_source=chi_source)
            free = final_alpha(params, reset(np.zeros(2)), j, alpha0=alpha_tau, chi_source=chi_source)
            cols = [final_alpha(params, reset(e), j, chi_source=chi_source) for e in np.eye(2)]
            rows += [[scale[j] * b.real for b in cols], [scale[j] * b.imag for b in cols]]
            rhs += [-scale[j] * free.real, -scale[j] * free.imag]
        x, *_ = np.linalg.lstsq(np.array(rows), np.array(rhs), rcond=None)
        return x, True, 0

    if start is None:
        start, _, _ = _least_squares_drive(
            params.with_(kerr_coeff=0.0), targets, weights, readout, reset, chi_source
        )
    alpha_tau = {
        j: ode_final_alpha(params, readout_sched, j, dt=DESIGN_DT, chi_source=chi_source)
        for j in targets
    }

    def residuals(x: np.ndarray) -> np.ndarray:
        sched = reset(x)
        out = []
        for j in targets:
            a = ode_final_alpha(
                params, sched, j, dt=DESIGN_DT, alpha0=alpha_tau[j], chi_source=chi_source
            )
            out += [scale[j] * a.real, scale[j] * a.imag]
        return np.array(out)

    lm = levenberg_marquardt(residuals, start)
    return lm.params, lm.success, lm.nfev


def _sspe_solution(
    params: DeviceParams,
    targets: tuple[QubitState, ...],
    weights: Mapping[QubitState, float],
    readout: DriveSegment,
    reset_duration: float,
    chi_source: str,
    method: str,
    start: Sequence[float] | None = None,
) -> ResetSolution:
    """Best single reset segment for the weighted targets; x = (Re, Im) of the drive."""

    def reset(x: np.ndarray) -> PulseSchedule:
        drive = complex(float(x[0]), float(x[1]))
        return PulseSchedule(segments=(DriveSegment.from_complex(drive, reset_duration),))

    x, converged, evaluations = _least_squares_drive(
        params, targets, weights, readout, reset, chi_source, start
    )
    segment = reset(x).segments[0]
    schedule = PulseSchedule(segments=(readout, segment))
    return ResetSolution(
        reset_amplitude=segment.amplitude,
        reset_phase=segment.phase,
        reset_duration=reset_duration,
        readout=readout,
        residual_photons=_end_photons(params, schedule, chi_source),
        target_states=targets,
        mode=SolutionMode.PER_STATE if len(targets) == 1 else SolutionMode.JOINT,
        method=method,
        converged=converged,
        iterations=evaluations,
    )


def sspe_analytic(
    params: DeviceParams,
    state: QubitState | int,
    readout: DriveSegment,
    reset_duration: float,
    chi_source: str = "formula",
) -> ResetSolution:
    """Exact linear-model reset drive for one qubit state.

    This is the one-state case of the weighted solve of `sspe_optimize`.

    Raises:
        KerrNotSupported: the closed form does not cover kerr_coeff != 0.
        DegenerateDuration: the reset window makes the formula's
            denominator vanish (|1 - e^{dtau C/2}| below 1e-12).
    """
    j = QubitState(state)
    if params.kerr_coeff != 0.0:
        raise KerrNotSupported("analytic reset solution requires kerr_coeff = 0")
    if reset_duration <= 0.0:
        raise ConfigError(f"reset_duration must be > 0, got {reset_duration}")
    c = complex_rate(params, j, chi_source).c
    if abs(1.0 - np.exp(0.5 * c * reset_duration)) < 1e-12:
        raise DegenerateDuration(
            f"reset window {reset_duration} ns is degenerate for C = {c}"
        )
    return _sspe_solution(params, (j,), {j: 1.0}, readout, reset_duration, chi_source, "analytic")


def sspe_optimize(
    params: DeviceParams,
    states: QubitState | int | Iterable[QubitState | int],
    readout: DriveSegment,
    reset_duration: float,
    weights: Mapping[QubitState | int, float] | None = None,
    chi_source: str = "formula",
    max_amplitude: float | None = None,
    seed: tuple[float, float] | None = None,
) -> ResetSolution:
    """Minimize the weighted end-of-window photon number over (eps_r, phi_r).

    Linear model: each state's end field is affine in the complex drive u,
    alpha_j = alpha_j(tau) e_j + b_j u, so the optimum is the weighted
    least-squares drive u* = -sum_j w_j conj(b_j) alpha_j(tau) e_j /
    sum_j w_j |b_j|^2, exact and found without iteration.  With a Kerr term
    Levenberg-Marquardt polishes (Re u, Im u) on RK4 endpoints, starting
    from `seed` (amplitude, phase) or else the joint linear optimum; a
    result whose polish did not converge comes back with the flag down
    (use `require_converged` to make it fatal).

    Raises:
        AmplitudeCapExceeded: optimum violates max_amplitude.
    """
    targets = _normalize_states(states)
    if reset_duration <= 0.0:
        raise ConfigError(f"reset_duration must be > 0, got {reset_duration}")
    w = _resolve_weights(targets, weights)
    start = None if seed is None else [seed[0] * math.cos(seed[1]), seed[0] * math.sin(seed[1])]
    sol = _sspe_solution(params, targets, w, readout, reset_duration, chi_source, "numeric", start)
    if max_amplitude is not None and sol.reset_amplitude > max_amplitude:
        raise AmplitudeCapExceeded(
            f"optimal reset amplitude {sol.reset_amplitude:.6g} rad/ns exceeds cap {max_amplitude}"
        )
    return sol


def clear_optimize(
    params: DeviceParams,
    states: QubitState | int | Iterable[QubitState | int],
    readout: DriveSegment,
    reset_duration: float,
    weights: Mapping[QubitState | int, float] | None = None,
    chi_source: str = "formula",
) -> PulseSchedule:
    """Two-segment active baseline: fixed phases, two real amplitudes.

    The reset window is split into equal halves with phases pinned to
    phi_n and phi_n + pi; the two signed amplitudes are the free
    parameters of the same weighted least-squares solve as `sspe_optimize`
    (exact in the linear model, Levenberg-Marquardt from the linear
    optimum with a Kerr term).  Negative amplitudes fold into a pi phase
    advance in the returned segments.

    Raises:
        NotConverged: the Kerr polish did not converge.
    """
    targets = _normalize_states(states)
    if reset_duration <= 0.0:
        raise ConfigError(f"reset_duration must be > 0, got {reset_duration}")
    w = _resolve_weights(targets, weights)
    half = reset_duration / 2.0

    def reset(x: np.ndarray) -> PulseSchedule:
        e1, e2 = float(x[0]), float(x[1])
        p1 = readout.phase + (math.pi if e1 < 0.0 else 0.0)
        p2 = readout.phase + math.pi + (math.pi if e2 < 0.0 else 0.0)
        return PulseSchedule(segments=(DriveSegment(abs(e1), p1, half), DriveSegment(abs(e2), p2, half)))

    x, converged, _ = _least_squares_drive(params, targets, w, readout, reset, chi_source)
    if not converged:
        raise NotConverged("baseline amplitude polish did not converge")
    return PulseSchedule(segments=(readout, *reset(x)), label=SchemeLabel.CLEAR.value)


# -- residual maps ---------------------------------------------------------


@dataclass(eq=False)
class ResidualMap:
    """End-of-window photon number over an (eps_r, phi_r) grid."""

    amplitude_axis: np.ndarray
    phase_axis: np.ndarray
    residual: np.ndarray
    qubit_state: QubitState
    contour_level: float = CONTOUR_LEVEL
    contour_cells: list[tuple[int, int]] = field(default_factory=list)

    def minimum(self) -> tuple[float, float, float]:
        """(eps_r, phi_r, residual) at the best grid cell."""
        i, j = np.unravel_index(int(np.argmin(self.residual)), self.residual.shape)
        return (
            float(self.amplitude_axis[i]),
            float(self.phase_axis[j]),
            float(self.residual[i, j]),
        )

    def write_csv(self, path: str | Path) -> None:
        with Path(path).open("w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["eps_r", "phi_r", "residual"])
            for i, amp in enumerate(self.amplitude_axis):
                for j, phi in enumerate(self.phase_axis):
                    writer.writerow(
                        [
                            format(amp, ".17g"),
                            format(phi, ".17g"),
                            format(self.residual[i, j], ".17g"),
                        ]
                    )

    def sidecar_dict(self) -> dict:
        return {
            "qubit_state": int(self.qubit_state),
            "amplitude_axis": [float(a) for a in self.amplitude_axis],
            "phase_axis": [float(p) for p in self.phase_axis],
            "shape": list(self.residual.shape),
            "contour_level": self.contour_level,
            "contour_cells": [[int(i), int(j)] for i, j in self.contour_cells],
            "minimum": dict(
                zip(("eps_r", "phi_r", "residual"), self.minimum())
            ),
        }

    def write_sidecar(self, path: str | Path) -> None:
        Path(path).write_text(json.dumps(self.sidecar_dict(), indent=2, sort_keys=True) + "\n")


def residual_map(
    params: DeviceParams,
    state: QubitState | int,
    readout: DriveSegment,
    reset_duration: float,
    amp_grid: Sequence[float],
    phase_grid: Sequence[float],
    chi_source: str = "formula",
    dt: float = DESIGN_DT,
) -> ResidualMap:
    """|alpha_j(dtau)|^2 over the Cartesian (amplitude, phase) grid.

    Linear model evaluates the closed form vectorized over the grid; with a
    Kerr term the reset segment is RK4-integrated for all grid points at
    once (the readout endpoint is shared, so only the window varies).
    Cells at or below the 0.1-photon level are listed as the contour set.
    """
    j = QubitState(state)
    amps = np.asarray(amp_grid, dtype=float)
    phases = np.asarray(phase_grid, dtype=float)
    if amps.size == 0 or phases.size == 0:
        raise ConfigError("amplitude and phase grids must be non-empty")
    if np.any(amps < 0.0):
        raise ConfigError("amplitude grid must be >= 0")
    if reset_duration <= 0.0:
        raise ConfigError(f"reset_duration must be > 0, got {reset_duration}")

    drive_grid = amps[:, None] * np.exp(1j * phases[None, :])

    if params.kerr_coeff == 0.0:
        c = complex_rate(params, j, chi_source).c
        alpha_tau = final_alpha(
            params, PulseSchedule(segments=(readout,)), j, chi_source=chi_source
        )
        decay = np.exp(-0.5 * c * reset_duration)
        ss = -2j * drive_grid / c
        alpha_end = ss + (alpha_tau - ss) * decay
    else:
        alpha_tau = ode_final_alpha(
            params,
            PulseSchedule(segments=(readout,)),
            j,
            dt=dt,
            chi_source=chi_source,
        )
        half_c = 0.5 * complex_rate(params, j, chi_source).c
        kc = params.kerr_coeff * MHZ_TO_RAD_NS
        n_steps = max(1, int(math.ceil(reset_duration / dt - 1e-12)))
        h = reset_duration / n_steps
        drive_term = -1j * drive_grid

        def rhs(x: np.ndarray) -> np.ndarray:
            return drive_term - half_c * x - 1j * kc * (x.real**2 + x.imag**2) * x

        a = np.full_like(drive_grid, alpha_tau)
        for _ in range(n_steps):
            k1 = rhs(a)
            k2 = rhs(a + 0.5 * h * k1)
            k3 = rhs(a + 0.5 * h * k2)
            k4 = rhs(a + h * k3)
            a = a + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        alpha_end = a

    residual = np.abs(alpha_end) ** 2
    cells = [(int(i), int(k)) for i, k in zip(*np.nonzero(residual <= CONTOUR_LEVEL))]
    return ResidualMap(
        amplitude_axis=amps,
        phase_axis=phases,
        residual=residual,
        qubit_state=j,
        contour_level=CONTOUR_LEVEL,
        contour_cells=cells,
    )


# -- scaling law -----------------------------------------------------------


@dataclass(frozen=True)
class ScalingRow:
    """Optimal-drive response to scaling the readout amplitude by beta_n."""

    beta_n: float
    beta_r: float
    beta_phi: float
    phase_delta: float


def scaling_law_check(
    params: DeviceParams,
    state: QubitState | int,
    readout: DriveSegment,
    reset_duration: float,
    betas: Sequence[float],
    chi_source: str = "formula",
) -> list[ScalingRow]:
    """Re-solve the reset for scaled readout drives eps_n -> beta * eps_n.

    In the linear model the optimal amplitude scales by exactly beta and the
    phase is unchanged; with a Kerr term the rows report the deviation.
    The linear route uses the analytic solution so the claim is checked
    against algebra, not optimizer noise.
    """
    if any(b <= 0.0 for b in betas):
        raise ConfigError("betas must be > 0")
    j = QubitState(state)

    def solve(segment: DriveSegment) -> tuple[float, float]:
        if params.kerr_coeff == 0.0:
            sol = sspe_analytic(params, j, segment, reset_duration, chi_source)
        else:
            sol = sspe_optimize(params, j, segment, reset_duration, chi_source=chi_source)
        return sol.reset_amplitude, sol.reset_phase

    eps_ref, phi_ref = solve(readout)
    rows = []
    for beta in betas:
        scaled = DriveSegment(beta * readout.amplitude, readout.phase, readout.duration)
        eps_b, phi_b = solve(scaled)
        delta = abs(phi_b - phi_ref)
        delta = min(delta, 2.0 * math.pi - delta)
        rows.append(
            ScalingRow(
                beta_n=float(beta),
                beta_r=eps_b / eps_ref if eps_ref != 0.0 else math.nan,
                beta_phi=phi_b / phi_ref if phi_ref != 0.0 else math.nan,
                phase_delta=delta,
            )
        )
    return rows


# -- scheme comparison -------------------------------------------------------


@dataclass(eq=False)
class SchemeMetrics:
    """One scheme simulated for one qubit state."""

    scheme: str
    qubit_state: QubitState
    schedule: PulseSchedule
    trajectory: Trajectory
    residual_end: float
    peak_photons: float
    rate_fit: FitResult | None

    @property
    def rate_mhz(self) -> float | None:
        if self.rate_fit is None:
            return None
        return self.rate_fit.values["rate"]


@dataclass(eq=False)
class SchemeComparison:
    """Square / single-segment / two-segment reset performance side by side."""

    readout: DriveSegment
    reset_duration: float
    entries: dict[tuple[str, QubitState], SchemeMetrics]

    def metrics(self, scheme: str | SchemeLabel, state: QubitState | int) -> SchemeMetrics:
        key = (SchemeLabel(scheme).value, QubitState(state))
        return self.entries[key]

    def write(self, out_dir: str | Path) -> dict:
        """Write per-entry trajectory CSVs; return a JSON-ready summary.

        Trajectory paths in the summary are relative to out_dir so the
        bundle can be moved wholesale.
        """
        out = Path(out_dir)
        out.mkdir(parents=True, exist_ok=True)
        summary: dict = {
            "readout": {
                "amplitude": self.readout.amplitude,
                "phase": self.readout.phase,
                "duration": self.readout.duration,
            },
            "reset_duration": self.reset_duration,
            "schemes": {},
        }
        for (scheme, state), m in sorted(self.entries.items()):
            fname = f"trajectory_{scheme}_state{int(state)}.csv"
            m.trajectory.write_csv(out / fname)
            summary["schemes"].setdefault(scheme, {})[str(int(state))] = {
                "trajectory_csv": fname,
                "residual_end": m.residual_end,
                "peak_photons": m.peak_photons,
                "rate_mhz": m.rate_mhz,
            }
        return summary


def reset_window_rate(
    traj: Trajectory, window_start: float, window_end: float
) -> FitResult | None:
    """Effective decay rate over [window_start, window_end], MHz.

    Only samples with n > max(1e-3, 1e-3 * n(window_start)) enter the
    log-linear fit; a drive that reaches vacuum crosses zero and the tail
    would otherwise dominate the fit with -inf logs.  Returns None when
    fewer than 3 samples survive.
    """
    mask = (traj.times >= window_start - 1e-12) & (traj.times <= window_end + 1e-12)
    times = traj.times[mask]
    photons = traj.photon[mask]
    if times.size == 0:
        return None
    floor = max(1e-3, 1e-3 * float(photons[0]))
    keep = photons > floor
    if int(keep.sum()) < 3:
        return None
    return exp_decay_fit(list(zip(times[keep], photons[keep])))


def compare_schemes(
    params: DeviceParams,
    states: QubitState | int | Iterable[QubitState | int],
    readout: DriveSegment,
    reset_duration: float,
    chi_source: str = "formula",
    sample_dt: float = 0.1,
) -> SchemeComparison:
    """Simulate square-tail, single-segment, and two-segment resets.

    All three schedules span the same total duration tau + dtau: the square
    scheme pads the readout with a zero-amplitude tail so its reset window
    is pure free decay.  Reset drives are designed per state (analytically
    in the linear model).  Each entry reports the end-of-window residual,
    the peak photon number inside the window, and the fitted effective
    decay rate under the fit-window rule of `reset_window_rate`.
    """
    targets = _normalize_states(states)
    tau = readout.duration
    total = tau + reset_duration

    entries: dict[tuple[str, QubitState], SchemeMetrics] = {}
    for j in targets:
        schedules: dict[str, PulseSchedule] = {}

        schedules[SchemeLabel.SQUARE.value] = PulseSchedule(
            segments=(readout, DriveSegment(0.0, 0.0, reset_duration)),
            label=SchemeLabel.SQUARE.value,
        )
        if params.kerr_coeff == 0.0:
            sol = sspe_analytic(params, j, readout, reset_duration, chi_source)
        else:
            sol = sspe_optimize(params, j, readout, reset_duration, chi_source=chi_source)
        schedules[SchemeLabel.SSPE.value] = sol.schedule()
        schedules[SchemeLabel.CLEAR.value] = clear_optimize(
            params, j, readout, reset_duration, chi_source=chi_source
        )

        for scheme, sched in schedules.items():
            if abs(sched.total_duration - total) > 1e-9:
                raise ConfigError(
                    f"{scheme} schedule spans {sched.total_duration} ns, expected {total}"
                )
            traj = propagate(params, sched, j, sample_dt=sample_dt, chi_source=chi_source)
            window = (traj.times >= tau - 1e-12)
            peak = float(np.max(traj.photon[window]))
            entries[(scheme, j)] = SchemeMetrics(
                scheme=scheme,
                qubit_state=j,
                schedule=sched,
                trajectory=traj,
                residual_end=float(traj.photon[-1]),
                peak_photons=peak,
                rate_fit=reset_window_rate(traj, tau, total),
            )

    return SchemeComparison(readout=readout, reset_duration=reset_duration, entries=entries)
