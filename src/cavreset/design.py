"""Reset-pulse design and benchmarking.

The readout tone leaves the cavity with a state-dependent field alpha_j(tau).
A single constant reset segment of duration dtau can return that field to
vacuum exactly in the linear model; the closed form is

    eps_r e^{i phi_r} = eps_n e^{i phi_n} (1 - e^{-tau C_j/2}) / (1 - e^{dtau C_j/2}),

one complex condition solved by one complex drive.  Because every end
field of the linear model is affine in the reset drive, the joint design
for both qubit states (the photon sum over both) and the two-segment
baseline are linear least-squares problems with exact solutions too.  With a Kerr term no
closed form exists: Levenberg-Marquardt polishes the same residual vector
on RK4 endpoints, starting from the linear optimum, with the exact
Jacobian of the RK4 map from the sensitivity pass of `dynamics`.  Every
design integrates the readout once per qubit state and continues each
reset window from that end field.  This module provides
both routes, plus residual-landscape maps, an amplitude-scaling check, and
a three-way comparison against square-pulse free decay and a two-segment
active baseline.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, field
from enum import Enum
from pathlib import Path
from typing import Callable, Iterable, Mapping, Sequence

import numpy as np

from ._artefacts import write_csv, write_json
from .core import MHZ_TO_RAD_NS, DeviceParams, QubitState, complex_rate
from .dynamics import (
    Trajectory,
    _closed_form_end,
    _propagate_ode_shared,
    _rk4_grid,
    _rk4_tangent,
    _segment_end_alpha,
    final_alpha,
    ode_final_alpha,
    propagate,
)
from .errors import ConfigError, NotConverged, NumericError
from .fitting import FitResult, exp_decay_fit
from .optimize import levenberg_marquardt
from .pulses import DriveSegment, PulseSchedule, SchemeLabel

#: Residual-photon level whose enclosing grid cells the maps report.
CONTOUR_LEVEL = 0.1

#: RK4 step for Kerr-model endpoints, ns.
DESIGN_DT = 0.05

#: Trajectory sample spacing of `compare_schemes`, ns.
_COMPARE_SAMPLE_DT = 0.1

#: Drive cells per tile of a residual map.  The Kerr stepper's nine
#: buffers then take about 2 MB, one core's L2 cache on a 2-vCPU Xeon,
#: where a 201x200 Kerr map runs as fast in 4k-cell tiles and about 20 %
#: slower in one piece.
_GRID_TILE = 16384

#: Photons at or below which a one-state Kerr design has found its zero;
#: found zeros sit at <= 1e-26 photons, stalled ones at >= 0.01.
_REACHED_ZERO = 1e-12


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

    def schedule(self) -> PulseSchedule:
        return PulseSchedule(segments=(self.readout, self.segment()), label=SchemeLabel.SSPE.value)

    def require_converged(self) -> "ResetSolution":
        if not self.converged:
            raise NotConverged(
                f"reset optimization did not converge after {self.iterations} iterations"
            )
        return self

    def to_dict(self) -> dict:
        return asdict(self)


def _end_fields(
    params: DeviceParams,
    schedule: PulseSchedule,
    starts: Mapping[QubitState, complex],
    chi_source: str,
) -> dict[QubitState, complex]:
    """Field after `schedule` for each state in `starts`, from its start field.

    Exact in the linear model; RK4 at DESIGN_DT with a Kerr term.  Both
    routes go segment by segment, so continuing from a readout end gives
    the same bits as one call over readout and reset window together.
    """
    if params.kerr_coeff == 0.0:
        return {
            j: final_alpha(params, schedule, j, alpha0=a, chi_source=chi_source)
            for j, a in starts.items()
        }
    return {
        j: ode_final_alpha(params, schedule, j, dt=DESIGN_DT, alpha0=a, chi_source=chi_source)
        for j, a in starts.items()
    }


def _readout_ends(
    params: DeviceParams,
    readout: DriveSegment,
    states: Iterable[QubitState],
    chi_source: str,
) -> dict[QubitState, complex]:
    """Fields of `states` at the end of the readout, from vacuum."""
    vacuum = dict.fromkeys(states, 0j)
    return _end_fields(params, PulseSchedule(segments=(readout,)), vacuum, chi_source)


def _least_squares_drive(
    params: DeviceParams,
    targets: tuple[QubitState, ...],
    readout: DriveSegment,
    reset: Callable[[np.ndarray], PulseSchedule],
    ends: Mapping[QubitState, complex],
    chi_source: str,
    start: Sequence[float] | None = None,
) -> tuple[np.ndarray, bool, int]:
    """Two real unknowns x minimizing sum_j |alpha_j(end)|^2.

    `reset(x)` builds the reset segments and must be linear in x; `ends`
    holds each state's field at the start of the reset window.  In the
    linear model each end field is affine in x, alpha_j = f_j + B_j x, so
    the minimum is one least-squares solve over the rows [Re, Im] stacked
    across the target states.  With a Kerr term Levenberg-Marquardt
    minimizes the same residual vector over RK4 endpoints, started from
    `start` or else from the linear optimum for the linear readout.  One
    `_rk4_tangent` pass per state gives both the residuals and their exact
    Jacobian.

    Returns (x, converged, objective evaluations).
    """
    if params.kerr_coeff == 0.0:
        rows, rhs = [], []
        for j in targets:
            c = complex_rate(params, j, chi_source)
            free = _closed_form_end(ends[j], c, reset(np.zeros(2)))
            cols = [_closed_form_end(0j, c, reset(e)) for e in np.eye(2)]
            rows += [[b.real for b in cols], [b.imag for b in cols]]
            rhs += [-free.real, -free.imag]
        x, *_ = np.linalg.lstsq(np.array(rows), np.array(rhs), rcond=None)
        return x, True, 0

    if start is None:
        linear = params.with_(kerr_coeff=0.0)
        linear_ends = _readout_ends(linear, readout, targets, chi_source)
        start, _, _ = _least_squares_drive(linear, targets, readout, reset, linear_ends, chi_source)
    half_c = {j: 0.5 * complex_rate(params, j, chi_source) for j in targets}
    kc = params.kerr_coeff * MHZ_TO_RAD_NS
    # reset is linear in x, so reset(e_k) holds d drive / d x_k per segment
    units = [reset(e).segments for e in np.eye(2)]

    def model(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        segments = [
            (seg.complex_amplitude, seg.duration, u0.complex_amplitude, u1.complex_amplitude)
            for seg, u0, u1 in zip(reset(x), *units)
        ]
        out, jac = [], []
        for j in targets:
            a, d0, d1 = _rk4_tangent(ends[j], segments, half_c[j], kc, DESIGN_DT)
            out += [a.real, a.imag]
            jac += [[d0.real, d1.real], [d0.imag, d1.imag]]
        return np.array(out), np.array(jac)

    lm = levenberg_marquardt(model, start)
    return lm.params, lm.success, lm.nfev


def _sspe_solution(
    params: DeviceParams,
    targets: tuple[QubitState, ...],
    readout: DriveSegment,
    reset_duration: float,
    chi_source: str,
    method: str,
    ends: Mapping[QubitState, complex],
) -> ResetSolution:
    """Best single reset segment for the targets; x = (Re, Im) of the drive.

    `ends` holds the readout end fields of the target states and of any
    other state whose residual photons are wanted; the residuals continue
    from them.  A one-state Kerr design can stall in a local minimum: if
    it ends above _REACHED_ZERO photons, LM restarts once from the
    linear-model drive for the Kerr readout end, the lower result is kept,
    and it counts as converged only at or below _REACHED_ZERO photons.
    """

    def reset(x: np.ndarray) -> PulseSchedule:
        drive = complex(float(x[0]), float(x[1]))
        return PulseSchedule(segments=(DriveSegment.from_complex(drive, reset_duration),))

    def solve(start: Sequence[float] | None) -> tuple[PulseSchedule, bool, int, dict[QubitState, float]]:
        x, converged, evaluations = _least_squares_drive(
            params, targets, readout, reset, ends, chi_source, start
        )
        window = reset(x)
        fields = _end_fields(params, window, ends, chi_source)
        return window, converged, evaluations, {j: abs(a) ** 2 for j, a in fields.items()}

    window, converged, evaluations, residual = solve(None)
    if params.kerr_coeff != 0.0 and len(targets) == 1:
        (j,) = targets
        if residual[j] > _REACHED_ZERO:
            restart, _, _ = _least_squares_drive(
                params.with_(kerr_coeff=0.0), targets, readout, reset, ends, chi_source
            )
            window2, converged2, more, residual2 = solve(restart)
            evaluations += more
            if residual2[j] < residual[j]:
                window, converged, residual = window2, converged2, residual2
        converged = converged and residual[j] <= _REACHED_ZERO
    segment = window.segments[0]
    return ResetSolution(
        reset_amplitude=segment.amplitude,
        reset_phase=segment.phase,
        reset_duration=reset_duration,
        readout=readout,
        residual_photons=residual,
        target_states=targets,
        mode=SolutionMode.PER_STATE if len(targets) == 1 else SolutionMode.JOINT,
        method=method,
        converged=converged,
        iterations=evaluations,
    )


def _require_analytic(
    params: DeviceParams, state: QubitState, reset_duration: float, chi_source: str
) -> None:
    """Raise unless the closed-form reset exists for `state` and the window."""
    if params.kerr_coeff != 0.0:
        raise NumericError("analytic reset solution requires kerr_coeff = 0")
    if reset_duration <= 0.0:
        raise ConfigError(f"reset_duration must be > 0, got {reset_duration}")
    c = complex_rate(params, state, chi_source)
    if abs(1.0 - np.exp(0.5 * c * reset_duration)) < 1e-12:
        raise NumericError(
            f"reset window {reset_duration} ns is degenerate for C = {c}"
        )


def sspe_analytic(
    params: DeviceParams,
    state: QubitState | int,
    readout: DriveSegment,
    reset_duration: float,
    chi_source: str = "formula",
) -> ResetSolution:
    """Exact linear-model reset drive for one qubit state.

    This is the one-state case of the least-squares solve of `sspe_optimize`.

    Raises:
        NumericError: kerr_coeff != 0, which the closed form does not
            cover, or the reset window makes the formula's denominator
            vanish (|1 - e^{dtau C/2}| below 1e-12).
    """
    j = QubitState(state)
    _require_analytic(params, j, reset_duration, chi_source)
    ends = _readout_ends(params, readout, QubitState, chi_source)
    return _sspe_solution(params, (j,), readout, reset_duration, chi_source, "analytic", ends)


def sspe_optimize(
    params: DeviceParams,
    states: QubitState | int | Iterable[QubitState | int],
    readout: DriveSegment,
    reset_duration: float,
    chi_source: str = "formula",
) -> ResetSolution:
    """Minimize the end-of-window photon sum of `states` over (eps_r, phi_r).

    Linear model: each state's end field is affine in the complex drive u,
    alpha_j = alpha_j(tau) e_j + b_j u, so the optimum is the least-squares
    drive u* = -sum_j conj(b_j) alpha_j(tau) e_j / sum_j |b_j|^2, exact and
    found without iteration.  With a Kerr term Levenberg-Marquardt polishes
    (Re u, Im u) on RK4 endpoints with the exact Jacobian of the RK4 map,
    starting from the linear optimum.  A one-state Kerr design that stalls
    above 1e-12 photons restarts once from the linear drive for the Kerr
    readout end.  A result whose polish did not converge, or a one-state
    Kerr result still above 1e-12 photons, comes back with the flag down
    (use `require_converged` to make it fatal).
    """
    targets = _normalize_states(states)
    if reset_duration <= 0.0:
        raise ConfigError(f"reset_duration must be > 0, got {reset_duration}")
    ends = _readout_ends(params, readout, QubitState, chi_source)
    return _sspe_solution(params, targets, readout, reset_duration, chi_source, "numeric", ends)


def _clear_schedule(
    params: DeviceParams,
    targets: tuple[QubitState, ...],
    readout: DriveSegment,
    reset_duration: float,
    chi_source: str,
    ends: Mapping[QubitState, complex],
) -> PulseSchedule:
    """`clear_optimize` from the readout end fields `ends`."""
    half = reset_duration / 2.0

    def reset(x: np.ndarray) -> PulseSchedule:
        e1, e2 = float(x[0]), float(x[1])
        p1 = readout.phase + (math.pi if e1 < 0.0 else 0.0)
        p2 = readout.phase + math.pi + (math.pi if e2 < 0.0 else 0.0)
        return PulseSchedule(segments=(DriveSegment(abs(e1), p1, half), DriveSegment(abs(e2), p2, half)))

    x, converged, _ = _least_squares_drive(params, targets, readout, reset, ends, chi_source)
    if not converged:
        raise NotConverged("baseline amplitude polish did not converge")
    return PulseSchedule(segments=(readout, *reset(x)), label=SchemeLabel.CLEAR.value)


def clear_optimize(
    params: DeviceParams,
    states: QubitState | int | Iterable[QubitState | int],
    readout: DriveSegment,
    reset_duration: float,
    chi_source: str = "formula",
) -> PulseSchedule:
    """Two-segment active baseline: fixed phases, two real amplitudes.

    The reset window is split into equal halves with phases pinned to
    phi_n and phi_n + pi; the two signed amplitudes are the free
    parameters of the same least-squares solve as `sspe_optimize`
    (exact in the linear model, Levenberg-Marquardt with the exact RK4
    Jacobian from the linear optimum with a Kerr term).  Negative
    amplitudes fold into a pi phase advance in the returned segments.

    Raises:
        NotConverged: the Kerr polish did not converge.
    """
    targets = _normalize_states(states)
    if reset_duration <= 0.0:
        raise ConfigError(f"reset_duration must be > 0, got {reset_duration}")
    ends = _readout_ends(params, readout, targets, chi_source)
    return _clear_schedule(params, targets, readout, reset_duration, chi_source, ends)


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
        """(eps_r, phi_r, residual) at the best finite grid cell.

        Raises:
            NumericError: every cell diverged.
        """
        finite = np.isfinite(self.residual)
        if not finite.any():
            raise NumericError("every residual-map cell diverged")
        i, j = np.unravel_index(int(np.argmin(np.where(finite, self.residual, np.inf))), self.residual.shape)
        return (
            float(self.amplitude_axis[i]),
            float(self.phase_axis[j]),
            float(self.residual[i, j]),
        )

    def write_csv(self, path: str | Path) -> None:
        phases = self.phase_axis.tolist()
        write_csv(
            path,
            ["eps_r", "phi_r", "residual"],
            [
                (amp, phi, r)
                for amp, row in zip(self.amplitude_axis.tolist(), self.residual.tolist())
                for phi, r in zip(phases, row)
            ],
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
        write_json(path, self.sidecar_dict())


def residual_map(
    params: DeviceParams,
    state: QubitState | int,
    readout: DriveSegment,
    reset_duration: float,
    amp_grid: Sequence[float],
    phase_grid: Sequence[float],
    chi_source: str = "formula",
) -> ResidualMap:
    """|alpha_j(dtau)|^2 over the Cartesian (amplitude, phase) grid.

    Each cell is the end field of the (readout, reset) schedule, computed
    by the same code as the single-schedule paths.  The readout endpoint is
    shared, so only the window varies: the flattened drive grid goes tile
    by tile (`_GRID_TILE` cells) through the closed-form segment map of
    `final_alpha` for the linear model, or with a Kerr term through
    `dynamics._rk4_grid` at DESIGN_DT, the array form of the stepper of
    `ode_final_alpha`.  Diverging Kerr cells come out non-finite, without
    a numpy warning.  Cells at or below the 0.1-photon level are listed as
    the contour set.
    """
    j = QubitState(state)
    amps = np.asarray(amp_grid, dtype=float)
    phases = np.asarray(phase_grid, dtype=float)
    if amps.size == 0 or phases.size == 0:
        raise ConfigError("amplitude and phase grids must be non-empty")
    if not (np.isfinite(amps).all() and np.isfinite(phases).all()):
        raise ConfigError("amplitude and phase grids must be finite")
    if np.any(amps < 0.0):
        raise ConfigError("amplitude grid must be >= 0")
    if not (math.isfinite(reset_duration) and reset_duration > 0.0):
        raise ConfigError(f"reset_duration must be finite and > 0, got {reset_duration}")

    drives = (amps[:, None] * np.exp(1j * phases[None, :])).ravel()
    readout_sched = PulseSchedule(segments=(readout,))
    c = complex_rate(params, j, chi_source)
    if params.kerr_coeff == 0.0:
        alpha_tau = final_alpha(params, readout_sched, j, chi_source=chi_source)

        def window_end(tile: np.ndarray) -> np.ndarray:
            return _segment_end_alpha(alpha_tau, c, tile, reset_duration)
    else:
        alpha_tau = ode_final_alpha(params, readout_sched, j, dt=DESIGN_DT, chi_source=chi_source)
        kc = params.kerr_coeff * MHZ_TO_RAD_NS

        def window_end(tile: np.ndarray) -> np.ndarray:
            return _rk4_grid(alpha_tau, tile, reset_duration, 0.5 * c, kc, DESIGN_DT)

    residual = np.empty(drives.size)
    with np.errstate(over="ignore", invalid="ignore"):
        for start in range(0, drives.size, _GRID_TILE):
            stop = start + _GRID_TILE
            residual[start:stop] = np.abs(window_end(drives[start:stop])) ** 2
    residual = residual.reshape(amps.size, phases.size)
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
    phase is unchanged, up to roundoff of the least-squares solve; with a
    Kerr term the rows report the deviation.  phase_delta is the distance
    of the two reset phases on the circle, in [0, pi].
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
        summary: dict = {
            "readout": asdict(self.readout),
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
) -> SchemeComparison:
    """Simulate square-tail, single-segment, and two-segment resets.

    All three schedules span the same total duration tau + dtau: the square
    scheme pads the readout with a zero-amplitude tail so its reset window
    is pure free decay.  Reset drives are designed per state (analytically
    in the linear model), all from one readout end field per state.  Each
    entry reports the end-of-window residual, the peak photon number inside
    the window, and the fitted effective decay rate under the fit-window
    rule of `reset_window_rate`.  Peak and rate come from the trajectory
    sampled every _COMPARE_SAMPLE_DT ns (with a Kerr term the three
    trajectories of a state share one readout integration); the residual
    is the design endpoint (exact in the linear model, RK4 at DESIGN_DT
    with a Kerr term), because a coarse RK4 trajectory through a strong
    two-segment window can miss it by 1e-8 photons.
    """
    targets = _normalize_states(states)
    if reset_duration <= 0.0:
        raise ConfigError(f"reset_duration must be > 0, got {reset_duration}")
    tau = readout.duration
    total = tau + reset_duration
    linear = params.kerr_coeff == 0.0
    ends = _readout_ends(params, readout, targets, chi_source)
    square = PulseSchedule(
        segments=(readout, DriveSegment(0.0, 0.0, reset_duration)),
        label=SchemeLabel.SQUARE.value,
    )

    entries: dict[tuple[str, QubitState], SchemeMetrics] = {}
    for j in targets:
        if linear:
            _require_analytic(params, j, reset_duration, chi_source)
        sol = _sspe_solution(
            params, (j,), readout, reset_duration, chi_source, "analytic" if linear else "numeric", ends
        )
        schedules = {
            SchemeLabel.SQUARE.value: square,
            SchemeLabel.SSPE.value: sol.schedule(),
            SchemeLabel.CLEAR.value: _clear_schedule(params, (j,), readout, reset_duration, chi_source, ends),
        }

        for scheme, sched in schedules.items():
            if abs(sched.total_duration - total) > 1e-9:
                raise ConfigError(
                    f"{scheme} schedule spans {sched.total_duration} ns, expected {total}"
                )
        if linear:
            trajectories = [
                propagate(params, sched, j, sample_dt=_COMPARE_SAMPLE_DT, chi_source=chi_source)
                for sched in schedules.values()
            ]
        else:
            trajectories = _propagate_ode_shared(
                params, list(schedules.values()), j, _COMPARE_SAMPLE_DT, chi_source=chi_source
            )

        for (scheme, sched), traj in zip(schedules.items(), trajectories):
            window = (traj.times >= tau - 1e-12)
            peak = float(np.max(traj.photon[window]))
            if linear:
                # the closed-form trajectory ends on the exact endpoint
                residual_end = float(traj.photon[-1])
            else:
                reset_window = PulseSchedule(segments=sched.segments[1:])
                residual_end = abs(_end_fields(params, reset_window, {j: ends[j]}, chi_source)[j]) ** 2
            entries[(scheme, j)] = SchemeMetrics(
                scheme=scheme,
                qubit_state=j,
                schedule=sched,
                trajectory=traj,
                residual_end=residual_end,
                peak_photons=peak,
                rate_fit=reset_window_rate(traj, tau, total),
            )

    return SchemeComparison(readout=readout, reset_duration=reset_duration, entries=entries)
