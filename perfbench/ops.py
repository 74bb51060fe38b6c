"""The four workloads: seeded operation streams, execution and verification.

A workload is a closed loop with one client: each operation is generated
from the seed, handed to ``cavreset`` through its public API, timed, and
verified against `reference` before the next one is sent.  Operations come
in rounds.  Every round holds each stratum of the workload (route, Kerr
on/off, target states, grid size, ...) the same number of times, and the
continuous inputs of a stratum are drawn in antithetic pairs (u, 1 - u), so
a round's mix of work barely depends on the seed.

Generation uses only this file and numpy; the program sees nothing but the
generated inputs.
"""

from __future__ import annotations

import contextlib
import dataclasses
import hashlib
import io
import json
import math
import shutil
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import reference as ref

TWO_PI = 2.0 * math.pi
TARGET_SETS = ((0,), (1,), (0, 1))
CHI_SOURCES = ("formula", "measured")
KERR_RANGE_MHZ = (0.011, 0.5)  # appendix value .. roadmap stress value
DESIGN_TARGET = 1e-6  # photons, the package's per-state design target
#: Relative allowance for the reference integrator vs the package's RK4
#: when a residual is compared against the 1e-6-photon design target.
INTEGRATOR_ALLOWANCE = 1e-6


@dataclass
class Check:
    """One verified quantity: passes when value <= limit."""

    name: str
    value: float
    limit: float

    @property
    def passed(self) -> bool:
        return math.isfinite(self.value) and self.value <= self.limit

    @property
    def margin_log10(self) -> float | None:
        """log10(limit / value): decades of room; None for pass/fail checks."""
        if self.limit <= 0.0:
            return None
        return math.log10(self.limit / max(self.value, 1e-300)) if math.isfinite(self.value) else -300.0


@dataclass
class Op:
    kind: str
    params: dict
    kerr: bool = False
    # filled in by the workload while running
    extra: dict = field(default_factory=dict)

    def key(self) -> dict:
        return {"kind": self.kind, **self.params}


def _uniforms(seed: int, workload: int, pair: int, shape) -> np.ndarray:
    rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence([seed, workload, pair])))
    return rng.random(shape)


def _stratify(u: np.ndarray, column: int, stride: int, offset: int) -> None:
    """Latin-hypercube a column in place: stratum s gets bin (s*stride + offset) % n.

    The bin of each stratum is fixed and only the position inside it comes
    from the seed, so the inputs that drive the cost of an operation
    (durations, photons, Kerr) cover their range evenly in every round and
    meet the same strata whatever the seed.
    """
    n = u.shape[0]
    assert math.gcd(stride, n) == 1
    u[:, column] = ((np.arange(n) * stride + offset) % n + u[:, column]) / n


def _lerp(lo: float, hi: float, u: float) -> float:
    return float(lo + (hi - lo) * u)


def _log_lerp(lo: float, hi: float, u: float) -> float:
    return float(math.exp(math.log(lo) + (math.log(hi) - math.log(lo)) * u))


def _seed_int(u: float) -> int:
    return int(u * 2**31)


class Workload:
    name = ""
    wid = 0
    min_rounds = 1  # rounds an untraced run always completes
    round_group = 1  # an untraced run stops only after a whole group of rounds
    trace_rounds = 1  # rounds of each phase in a traced run
    configs = ("qubit1", "qubit2")

    def __init__(self, root: Path, seed: int, cavreset, scratch: Path):
        self.root = root
        self.seed = seed
        self.cr = cavreset
        self.scratch = scratch
        self.dev = {c: json.loads((root / "configs" / f"{c}.json").read_text()) for c in self.configs}
        self.params = {c: cavreset.DeviceParams.from_json(root / "configs" / f"{c}.json") for c in self.configs}

    # subclasses: rounds(r) -> list[Op]; prepare(op) -> callable; verify(op, result) -> list[Check];
    # perturb(op, result) -> a deliberately wrong result of the same shape

    def device(self, op: Op):
        p = self.params[op.params["device"]]
        k = op.params.get("kerr_mhz", 0.0)
        return p.with_(kerr_coeff=k) if k else p

    def refdev(self, op: Op) -> dict:
        return dict(self.dev[op.params["device"]], kerr_coeff=op.params.get("kerr_mhz", 0.0))

    def finish(self, op: Op, result) -> None:
        """Release what an operation left behind (outside the timed region)."""


# -- design ------------------------------------------------------------------


class Design(Workload):
    """Reset-design requests over devices, chi sources, windows, Kerr and targets.

    A round holds 45 strata: 3 routes x (4 linear, 1 Kerr) x 3 target sets.
    Linear requests are the common case (the bundled devices have K_c = 0),
    so they are four fifths of the stream; Kerr requests span the
    appendix value to the stress value.  The many short linear requests also
    keep the median latency away from the sparse region between the short
    and the long requests, where it would jump from run to run.
    """

    name = "design"
    wid = 1
    min_rounds = 2
    round_group = 2  # rounds 2m and 2m+1 are antithetic halves
    trace_rounds = 1
    routes = ("sspe", "clear", "compare")

    def rounds(self, r: int) -> list[Op]:
        pair, flip = divmod(r, 2)
        kerr_rows = [s for s in range(45) if (s // 3) % 5 == 4]
        u = _uniforms(self.seed, self.wid, pair, (45, 6))
        _stratify(u, 0, 7, 5 * pair)  # readout duration
        _stratify(u, 1, 11, 7 * pair)  # reset window
        _stratify(u, 2, 13, 3 * pair)  # readout photons
        kerr_u = u[kerr_rows]
        _stratify(kerr_u, 4, 4, pair)  # Kerr coefficient, over the Kerr strata
        u[kerr_rows] = kerr_u
        if flip:
            u = 1.0 - u
        ops = []
        for s in range(45):
            route, kerr, targets = self.routes[s // 15], s in kerr_rows, TARGET_SETS[s % 3]
            v = u[s]
            device = self.configs[(s + r) % 2]
            chi = CHI_SOURCES[(s // 2 + r) % 2]
            dev = self.dev[device]
            photons = _lerp(1.0, 10.0, v[2])
            ops.append(Op("design." + route, {
                "device": device,
                "chi_source": chi,
                "states": list(targets),
                "readout_duration": _lerp(300.0, 1500.0, v[0]),
                "reset_duration": _lerp(30.0, 200.0, v[1]),
                "readout_amp": ref.readout_amplitude(dev, chi, photons),
                "readout_phase": TWO_PI * float(v[3]),
                "kerr_mhz": -_log_lerp(*KERR_RANGE_MHZ, v[4]) if kerr else 0.0,
            }, kerr=kerr))
        return ops

    def prepare(self, op: Op):
        cr, p = self.cr, op.params
        device = self.device(op)
        readout = cr.DriveSegment(p["readout_amp"], p["readout_phase"], p["readout_duration"])
        states, dtau, chi = p["states"], p["reset_duration"], p["chi_source"]
        route = op.kind.split(".")[1]
        if route == "sspe":
            def call():
                # what `cavreset design --mode sspe` runs
                out = []
                if device.kerr_coeff == 0.0 and len(states) == 1:
                    out.append(cr.design.sspe_analytic(device, states[0], readout, dtau, chi))
                out.append(cr.design.sspe_optimize(device, states, readout, dtau, chi_source=chi).require_converged())
                return out
        elif route == "clear":
            def call():
                return cr.design.clear_optimize(device, states, readout, dtau, chi_source=chi)
        else:
            def call():
                return cr.design.compare_schemes(device, states, readout, dtau, chi_source=chi)
        return call

    # reference quantities ------------------------------------------------

    def _readout_ends(self, op: Op, dev: dict) -> dict:
        p = op.params
        drive = p["readout_amp"] * complex(math.cos(p["readout_phase"]), math.sin(p["readout_phase"]))
        return {j: ref.endpoint(dev, j, p["chi_source"], [(drive, p["readout_duration"])]) for j in (0, 1)}

    def _weighted(self, op: Op, dev: dict, ends: dict, segments, states) -> float:
        chi = op.params["chi_source"]
        return sum(abs(ref.endpoint(dev, j, chi, segments, alpha0=ends[j])) ** 2 for j in states)

    def _sspe_optimum(self, op: Op, ends_linear: dict, states) -> list:
        """Closed-form weighted least-squares drive of the linear model."""
        p, dev = op.params, self.dev[op.params["device"]]
        num = den = 0j
        for j in states:
            c = ref.rate(dev, j, p["chi_source"])
            e = np.exp(-0.5 * c * p["reset_duration"])
            b = -2j * (1.0 - e) / c
            num += np.conj(b) * ends_linear[j] * e
            den += abs(b) ** 2
        return [(complex(-num / den), p["reset_duration"])]

    def _clear_segments(self, op: Op, e1: float, e2: float) -> list:
        """Two half-window segments at phases phi_n and phi_n + pi, signed amplitudes."""
        p = op.params
        unit = complex(math.cos(p["readout_phase"]), math.sin(p["readout_phase"]))
        half = p["reset_duration"] / 2.0
        return [(e1 * unit, half), (-e2 * unit, half)]

    def _clear_optimum(self, op: Op, ends_linear: dict, states) -> list:
        """Two-unknown real least squares of the linear two-segment baseline."""
        p, dev = op.params, self.dev[op.params["device"]]
        (d1, half), (d2, _) = self._clear_segments(op, 1.0, 1.0)
        rows, rhs = [], []
        for j in states:
            c = ref.rate(dev, j, p["chi_source"])
            e = np.exp(-0.5 * c * half)
            c1, c2 = -2j * d1 / c * (1.0 - e) * e, -2j * d2 / c * (1.0 - e)
            target = -ends_linear[j] * e * e
            rows += [[c1.real, c2.real], [c1.imag, c2.imag]]
            rhs += [target.real, target.imag]
        (e1, e2), *_ = np.linalg.lstsq(np.array(rows), np.array(rhs), rcond=None)
        return self._clear_segments(op, e1, e2)

    def _clear_polished(self, op: Op, dev: dict, ends: dict, segments, states) -> float:
        """Residual after an independent LM polish of the two amplitudes."""
        from scipy.optimize import least_squares

        chi = op.params["chi_source"]

        def residuals(x):
            segs = self._clear_segments(op, x[0], x[1])
            out = []
            for j in states:
                a = ref.endpoint(dev, j, chi, segs, alpha0=ends[j])
                out += [a.real, a.imag]
            return out

        phase = complex(math.cos(op.params["readout_phase"]), math.sin(op.params["readout_phase"]))
        x0 = [(segments[0][0] / phase).real, -(segments[1][0] / phase).real]
        fit = least_squares(residuals, x0, method="lm", xtol=1e-15, ftol=1e-15, gtol=1e-15)
        return 2.0 * float(fit.cost)

    def _design_checks(self, op: Op, route: str, segments, states, dev, ends, ends_linear) -> list[Check]:
        """Checks for one designed reset (route "sspe" or "clear") against the reference."""
        got = self._weighted(op, dev, ends, segments, states)
        optimum = (self._sspe_optimum if route == "sspe" else self._clear_optimum)(op, ends_linear, states)
        if not op.kerr:
            if len(states) == 1:
                return [Check(f"{route}.target_residual", got, DESIGN_TARGET * (1.0 + INTEGRATOR_ALLOWANCE))]
            best = self._weighted(op, dev, ends, optimum, states)
            return [Check(f"{route}.joint_excess_over_closed_form", got - best, 1e-9 * best + 1e-20)]
        if route == "sspe" and len(states) == 1:
            return [Check("sspe.target_residual", got, DESIGN_TARGET * (1.0 + INTEGRATOR_ALLOWANCE))]
        # Kerr, joint or two-segment: zero may be out of reach.  No worse than
        # the linear optimum run under Kerr, and (two-segment, one state)
        # within the design target of an independent least-squares polish.
        linear = self._weighted(op, dev, ends, optimum, states)
        checks = [Check(f"{route}.kerr_vs_linear_optimum", got, linear * (1.0 + 1e-9) + 1e-15)]
        if route == "clear" and len(states) == 1:
            polished = self._clear_polished(op, dev, ends, segments, states)
            checks.append(Check("clear.kerr_excess_over_polish", got - polished, DESIGN_TARGET * (1.0 + INTEGRATOR_ALLOWANCE)))
        return checks

    def verify(self, op: Op, result) -> list[Check]:
        p = op.params
        dev = self.refdev(op)
        ends = self._readout_ends(op, dev)
        ends_linear = ends if not op.kerr else self._readout_ends(op, self.dev[p["device"]])
        route = op.kind.split(".")[1]
        checks = []
        if route == "sspe":
            for sol in result:
                seg = sol.segment()
                segments = [(seg.complex_amplitude, seg.duration)]
                if sol.method == "analytic":
                    j = sol.target_states[0]
                    got = abs(ref.endpoint(dev, j, p["chi_source"], segments, alpha0=ends[j])) ** 2
                    checks.append(Check("sspe_analytic.residual", got, 1e-20))
                else:
                    checks += self._design_checks(op, "sspe", segments, p["states"], dev, ends, ends_linear)
        elif route == "clear":
            segments = [(s.complex_amplitude, s.duration) for s in result.segments[1:]]
            checks += self._design_checks(op, "clear", segments, p["states"], dev, ends, ends_linear)
        else:
            chi, dtau = p["chi_source"], p["reset_duration"]
            for j in p["states"]:
                for scheme in ("square", "sspe", "clear"):
                    m = result.metrics(scheme, j)
                    segments = [(s.complex_amplitude, s.duration) for s in m.schedule.segments[1:]]
                    expect = abs(ref.endpoint(dev, j, chi, segments, alpha0=ends[j])) ** 2
                    checks.append(Check(f"compare.{scheme}.residual_end_vs_reference",
                                        abs(m.residual_end - expect), 1e-9 + 1e-8 * expect))
                    if scheme == "square":
                        if not op.kerr:
                            free = abs(ends[j]) ** 2 * math.exp(-dev["kappa"] * ref.MHZ * dtau)
                            checks.append(Check("compare.square.free_decay", abs(expect / free - 1.0), 1e-9))
                    elif scheme == "sspe" and not op.kerr:
                        checks.append(Check("compare.sspe_analytic.residual", expect, 1e-20))
                    else:
                        checks += self._design_checks(op, scheme, segments, [j], dev, ends, ends_linear)
        return checks

    def perturb(self, op: Op, result):
        """Turn the reset drive a quarter period: clearly no longer a reset."""
        cr = self.cr
        route = op.kind.split(".")[1]

        def turn(seg):
            return cr.DriveSegment(seg.amplitude, seg.phase + math.pi / 2, seg.duration)

        if route == "sspe":
            return [dataclasses.replace(s, reset_phase=s.reset_phase + math.pi / 2) for s in result]
        if route == "clear":
            segs = result.segments
            return cr.PulseSchedule(segments=(segs[0], *[turn(s) for s in segs[1:]]), label=result.label)
        j = op.params["states"][0]
        m = result.metrics("sspe", j)
        segs = m.schedule.segments
        m.schedule = cr.PulseSchedule(segments=(segs[0], *[turn(s) for s in segs[1:]]), label=m.schedule.label)
        return result


# -- maps --------------------------------------------------------------------


class Maps(Workload):
    """Residual maps over (amplitude, phase) grids, linear and Kerr."""

    name = "maps"
    wid = 2
    min_rounds = 4
    trace_rounds = 1
    linear_grids = ((31, 40), (101, 100), (201, 200), (301, 400))
    kerr_grids = ((31, 40), (81, 100), (201, 200))
    sampled_cells = 8

    def rounds(self, r: int) -> list[Op]:
        strata = [(g, False) for g in self.linear_grids] + [(g, True) for g in self.kerr_grids]
        u = _uniforms(self.seed, self.wid, r, (len(strata), 7))
        _stratify(u, 0, 3, 2 * r)  # readout duration
        _stratify(u, 1, 2, 3 * r)  # reset window
        ops = []
        for s, ((na, nphi), kerr) in enumerate(strata):
            for flip in (0, 1):
                v = 1.0 - u[s] if flip else u[s]
                device = self.configs[(s + flip + r) % 2]
                chi = CHI_SOURCES[(s + r) % 2]
                dev = self.dev[device]
                state = (s + flip) % 2
                p = {
                    "device": device,
                    "chi_source": chi,
                    "state": state,
                    "readout_duration": _lerp(300.0, 1500.0, v[0]),
                    "reset_duration": _lerp(40.0, 60.0, v[1]),
                    "readout_amp": ref.readout_amplitude(dev, chi, _lerp(1.0, 10.0, v[2])),
                    "readout_phase": TWO_PI * float(v[3]),
                    "kerr_mhz": -_log_lerp(*KERR_RANGE_MHZ, v[4]) if kerr else 0.0,
                    "amp_points": na,
                    "phase_points": nphi,
                    "span": _lerp(1.2, 1.8, v[5]),
                    "cell_seed": _seed_int(v[6]),
                }
                p["amp_max"] = p["span"] * self._linear_reset_amplitude(p)
                ops.append(Op("maps.kerr" if kerr else "maps.linear", p, kerr=kerr))
        return ops

    def _linear_reset_amplitude(self, p: dict) -> float:
        dev, chi, j = self.dev[p["device"]], p["chi_source"], p["state"]
        c = ref.rate(dev, j, chi)
        drive = p["readout_amp"] * complex(math.cos(p["readout_phase"]), math.sin(p["readout_phase"]))
        end = ref.linear_step(0j, c, drive, p["readout_duration"])
        e = np.exp(-0.5 * c * p["reset_duration"])
        return float(abs(end * e / (-2j * (1.0 - e) / c)))

    def _axes(self, p: dict):
        return (np.linspace(0.0, p["amp_max"], p["amp_points"]),
                np.linspace(0.0, TWO_PI, p["phase_points"], endpoint=False))

    def prepare(self, op: Op):
        cr, p = self.cr, op.params
        device = self.device(op)
        readout = cr.DriveSegment(p["readout_amp"], p["readout_phase"], p["readout_duration"])
        amps, phases = self._axes(p)

        def call():
            return cr.design.residual_map(device, p["state"], readout, p["reset_duration"], amps, phases, p["chi_source"])
        return call

    def verify(self, op: Op, result) -> list[Check]:
        p = op.params
        dev = self.refdev(op)
        j, chi = p["state"], p["chi_source"]
        amps, phases = self._axes(p)
        drive = p["readout_amp"] * complex(math.cos(p["readout_phase"]), math.sin(p["readout_phase"]))
        start = ref.endpoint(dev, j, chi, [(drive, p["readout_duration"])])
        grid = amps[:, None] * np.exp(1j * phases[None, :])
        res = np.asarray(result.residual)
        checks = [Check("map.shape", float(res.shape != grid.shape), 0.0)]
        if res.shape != grid.shape:
            return checks
        listed = [tuple(cell) for cell in result.contour_cells]
        below = list(zip(*(idx.tolist() for idx in np.nonzero(res <= result.contour_level))))
        checks.append(Check("map.contour_cells_consistent", float(listed != below), 0.0))
        if not op.kerr:
            c = ref.rate(dev, j, chi)
            expect = np.abs(ref.linear_step(start, c, grid, p["reset_duration"])) ** 2
            checks.append(Check("map.linear_cells_vs_reference",
                                float(np.max(np.abs(res - expect) / np.maximum(1.0, expect))), 1e-9))
            return checks
        rng = np.random.Generator(np.random.PCG64(p["cell_seed"]))
        picks = {np.unravel_index(int(np.argmin(res)), res.shape), (0, 0)}
        while len(picks) < self.sampled_cells:
            picks.add((int(rng.integers(res.shape[0])), int(rng.integers(res.shape[1]))))
        worst = 0.0
        for a, b in sorted(picks):
            expect = abs(ref.endpoint(dev, j, chi, [(grid[a, b], p["reset_duration"])], alpha0=start)) ** 2
            worst = max(worst, abs(res[a, b] - expect) / max(1.0, expect))
        checks.append(Check("map.kerr_sampled_cells_vs_reference", worst, 1e-8))
        return checks

    def perturb(self, op: Op, result):
        """Scale the whole grid slightly: every sampled cell must notice."""
        result.residual = np.asarray(result.residual) * 1.001 + 1e-6
        return result


# -- analysis ------------------------------------------------------------------


class Analysis(Workload):
    """One seeded synthetic dataset plus its fit per operation."""

    name = "analysis"
    wid = 3
    min_rounds = 2
    trace_rounds = 80
    kinds = ("ramsey", "backaction", "decay", "kerr_calibration", "ac_stark")
    relax = {"gamma_out": 0.0722, "gamma_back": 0.01, "p0": 1.0, "m_max": 60, "tol": 0.005}
    excite = {"gamma_out": 0.0005, "gamma_back": 0.04, "p0": 1.0, "m_max": 150, "tol": 0.0005}
    cal_targets = (0.5, 1.0, 2.0, 4.0, 7.0, 10.0, 14.0, 18.0, 22.0)
    #: |K_c| range of the calibration ops, kHz, around the appendix's 11 kHz.
    kerr_khz = (5.0, 20.0)

    def probes(self) -> list[Op]:
        """Known seed defect, run untimed in every run and listed in the record:
        on qubit 1 (formula shifts) the calibration fit, started at K_c = 0,
        settles in a wrong minimum once |K_c| reaches about 25 kHz."""
        return [Op("analysis.kerr_calibration", {"device": "qubit1", "chi_source": "formula", "noise_seed": 0,
                                                 "kerr_khz": k, "volt_to_eps": 0.02}) for k in (-25.0, -30.0)]

    def rounds(self, r: int) -> list[Op]:
        u = _uniforms(self.seed, self.wid, r, (len(self.kinds), 8))
        ops = []
        for s, kind in enumerate(self.kinds):
            for flip in (0, 1):
                v = 1.0 - u[s] if flip else u[s]
                device = self.configs[(s + flip + r) % 2]
                chi = CHI_SOURCES[(s + r) % 2]
                p = {"device": device, "chi_source": chi, "noise_seed": _seed_int(v[7])}
                if kind == "ramsey":
                    p.update(n0=_lerp(0.5, 2.0, v[0]), phi0=_lerp(0.0, 0.6, v[1]))
                elif kind == "backaction":
                    p.update(model="excite" if flip else "relax")
                elif kind == "decay":
                    p.update(n0=_lerp(1.0, 10.0, v[0]), duration=_lerp(200.0, 600.0, v[1]))
                elif kind == "kerr_calibration":
                    p.update(kerr_khz=-_lerp(*self.kerr_khz, v[0]), volt_to_eps=_lerp(0.01, 0.04, v[1]))
                else:
                    dev = self.dev[device]
                    p.update(readout_duration=_lerp(300.0, 1500.0, v[0]),
                             readout_amp=ref.readout_amplitude(dev, chi, _lerp(1.0, 10.0, v[1])),
                             readout_phase=TWO_PI * float(v[2]),
                             decay_duration=_lerp(300.0, 600.0, v[3]))
                ops.append(Op("analysis." + kind, p))
        return ops

    def _ramsey_fixed(self, p: dict) -> dict:
        dev, chi = self.dev[p["device"]], p["chi_source"]
        pull = 0.5 * (ref.chi(dev, 1, chi) - ref.chi(dev, 0, chi))
        return {"gamma2": 1.0 / dev["t2_echo"], "chi": pull * TWO_PI, "kappa": dev["kappa"] * TWO_PI}

    def _kerr_points(self, p: dict) -> list:
        dev, chi = self.dev[p["device"]], p["chi_source"]
        k = p["kerr_khz"] * 1e-3
        c = ref.rate(dev, 0, chi)
        kappa, delta = c.real, c.imag / 2.0
        n_crit = ((dev["qubit_freq"] - dev["bare_cavity_freq"]) / (2.0 * dev["coupling"])) ** 2
        pts = []
        for n in (*self.cal_targets, 0.8 * n_crit):
            shifted = delta + k * ref.MHZ * n
            eps = 0.5 * math.sqrt(n * (4.0 * shifted * shifted + kappa * kappa))
            volts = eps / p["volt_to_eps"]
            pts.append((volts * volts, ref.kerr_steady_photons(dev, 0, chi, eps, k)))
        return pts

    def _decay_samples(self, p: dict) -> list:
        dev = self.dev[p["device"]]
        t = np.linspace(0.0, p["duration"], 60)
        rng = np.random.Generator(np.random.PCG64(p["noise_seed"]))
        n = p["n0"] * np.exp(-dev["kappa"] * ref.MHZ * t) * (1.0 + 0.01 * rng.standard_normal(t.size))
        return list(zip(t.tolist(), n.tolist()))

    def _ac_stark_setup(self, p: dict):
        dev, chi = self.dev[p["device"]], p["chi_source"]
        pull = 0.5 * (ref.chi(dev, 1, chi) - ref.chi(dev, 0, chi))
        drive = p["readout_amp"] * complex(math.cos(p["readout_phase"]), math.sin(p["readout_phase"]))
        c = ref.rate(dev, 0, chi)
        total = p["readout_duration"] + p["decay_duration"]
        delays = np.arange(0.0, total + 1e-9, 50.0)
        truth = []
        for d in delays:
            a = ref.linear_step(0j, c, drive, min(d, p["readout_duration"]))
            if d > p["readout_duration"]:
                a = ref.linear_step(a, c, 0j, d - p["readout_duration"])
            truth.append(abs(a) ** 2)
        linewidth = 4.0
        edge = 2.0 * pull * max(truth) * 1.05
        grid = np.arange(min(edge, 0.0) - 4.0 * linewidth, max(edge, 0.0) + 4.0 * linewidth + 1e-9, 0.1)
        return pull, delays, np.array(truth), linewidth, grid

    def prepare(self, op: Op):
        cr, p = self.cr, op.params
        kind = op.kind.split(".")[1]
        if kind == "ramsey":
            fixed = self._ramsey_fixed(p)
            model = cr.RamseyModel(gamma2=fixed["gamma2"], fringe=TWO_PI, chi=fixed["chi"],
                                   kappa=fixed["kappa"], phi0=p["phi0"], n0=p["n0"])
            times = np.linspace(0.0, 2.0, 200)

            def call():
                data = cr.synth.gen_ramsey_dataset(model, times, cr.NoiseSpec.gaussian(0.01, p["noise_seed"]))
                return cr.fitting.fit_ramsey(data, fixed, init={"fringe": TWO_PI, "phi0": p["phi0"]})
        elif kind == "backaction":
            m = self.relax if p["model"] == "relax" else self.excite
            model = cr.BackactionModel(gamma_out=m["gamma_out"], gamma_back=m["gamma_back"], p0=m["p0"])

            def call():
                data = cr.synth.gen_backaction_sequence(model, m["m_max"], cr.NoiseSpec.binomial(4000, p["noise_seed"]))
                return cr.fitting.fit_backaction(data)
        elif kind == "decay":
            samples = self._decay_samples(p)

            def call():
                return cr.fitting.exp_decay_fit(samples)
        elif kind == "kerr_calibration":
            points = self._kerr_points(p)
            device = self.params[p["device"]]

            def call():
                return cr.fitting.fit_kerr_calibration(points, device, 0, p["chi_source"])
        else:
            pull, delays, _truth, linewidth, grid = self._ac_stark_setup(p)
            device = self.params[p["device"]]
            schedule = cr.PulseSchedule(segments=(
                cr.DriveSegment(p["readout_amp"], p["readout_phase"], p["readout_duration"]),
                cr.DriveSegment(0.0, 0.0, p["decay_duration"])))

            def call():
                traj = cr.dynamics.propagate_closed_form(device, schedule, 0, sample_dt=1.0, chi_source=p["chi_source"])
                spectra = cr.synth.gen_spectroscopy(traj, pull, linewidth, grid, cr.NoiseSpec.none(), delays=delays)
                return cr.fitting.ac_stark_reconstruct(spectra, pull, line_center=0.0)
        return call

    def verify(self, op: Op, result) -> list[Check]:
        p = op.params
        kind = op.kind.split(".")[1]
        if kind == "ac_stark":
            *_, truth, _lw, _grid = self._ac_stark_setup(p)
            est = np.array([n for _, n in result])
            if est.shape != truth.shape:
                return [Check("ac_stark.samples", 1.0, 0.0)]
            return [Check("ac_stark.round_trip", float(np.max(np.abs(est - truth)) / np.max(truth)), 0.01)]
        checks = [Check(f"{kind}.converged", float(not result.converged), 0.0)]
        v = result.values
        if kind == "ramsey":
            checks.append(Check("ramsey.n0", abs(v["n0"] - p["n0"]), 0.1))
        elif kind == "backaction":
            m = self.relax if p["model"] == "relax" else self.excite
            checks.append(Check(f"backaction.{p['model']}.gamma_out", abs(v["gamma_out"] - m["gamma_out"]), m["tol"]))
        elif kind == "decay":
            kappa = self.dev[p["device"]]["kappa"]
            checks.append(Check("decay.rate", abs(v["rate"] / kappa - 1.0), 0.02))
            checks.append(Check("decay.n0", abs(v["n0"] / p["n0"] - 1.0), 0.02))
        else:
            checks.append(Check("kerr_calibration.kerr_khz", abs(v["kerr_khz"] - p["kerr_khz"]), 1.0))
            checks.append(Check("kerr_calibration.volt_to_eps", abs(v["volt_to_eps"] / p["volt_to_eps"] - 1.0), 1e-3))
        return checks

    def perturb(self, op: Op, result):
        """Move the checked value by ten times its tolerance."""
        kind = op.kind.split(".")[1]
        if kind == "ac_stark":
            return [(d, n + 0.1 * max(1.0, n)) for d, n in result]
        v = result.values
        if kind == "ramsey":
            v["n0"] += 1.0
        elif kind == "backaction":
            v["gamma_out"] += 0.05
        elif kind == "decay":
            v["rate"] *= 1.2
        else:
            v["kerr_khz"] += 10.0
        return result


# -- scenarios -------------------------------------------------------------------


class Scenarios(Workload):
    """`cavreset scenario <name>` calls, in process, on the qubit-1 device."""

    name = "scenarios"
    wid = 4
    min_rounds = 5
    trace_rounds = 2
    configs = ("qubit1",)
    names = ("fig1_maps", "fig2_scaling", "fig3_dynamics", "fig4_backaction", "appC_calibration")

    def __init__(self, *args):
        super().__init__(*args)
        self.first_hash = {}
        self.bytes_written = 0
        self._n = 0

    def rounds(self, r: int) -> list[Op]:
        u = _uniforms(self.seed, self.wid, r, (len(self.names), 2))
        ops = []
        for s, name in enumerate(self.names):
            for c in range(2):
                chi = CHI_SOURCES[(c + r) % 2]
                ops.append(Op("scenarios." + name, {"scenario": name, "chi_source": chi, "seed": _seed_int(u[s, c])}))
        return ops

    def prepare(self, op: Op):
        p = op.params
        self._n += 1
        out = self.scratch / f"op{self._n}"
        op.extra["out"] = out
        argv = ["scenario", p["scenario"], "--config", str(self.root / "configs" / "qubit1.json"),
                "--out", str(out), "--seed", str(p["seed"]), "--chi-source", p["chi_source"]]
        cli = self.cr.cli

        def call():
            buf = io.StringIO()
            with contextlib.redirect_stdout(buf):
                code = cli.main(argv)
            return {"exit": code, "stdout": buf.getvalue()}
        return call

    def _digest(self, out: Path) -> tuple[str, int]:
        h = hashlib.sha256()
        size = 0
        for path in sorted(out.rglob("*")):
            if path.is_file():
                data = path.read_bytes()
                size += len(data)
                h.update(str(path.relative_to(out)).encode() + b"\0" + hashlib.sha256(data).digest())
        return h.hexdigest(), size

    def verify(self, op: Op, result) -> list[Check]:
        p = op.params
        out = op.extra["out"]
        if "digest" not in result:
            result["digest"], result["bytes"] = self._digest(out)
            report_path = out / p["scenario"] / "report.json"
            result["report_passed"] = report_path.is_file() and json.loads(report_path.read_text())["passed"] is True
        checks = [
            Check("scenario.exit_code", float(result["exit"] != 0), 0.0),
            Check("scenario.printed_pass", float(f"{p['scenario']}: pass" not in result["stdout"]), 0.0),
            Check("scenario.report_passed", float(not result["report_passed"]), 0.0),
        ]
        key = json.dumps(op.key(), sort_keys=True)
        first = self.first_hash.setdefault(key, result["digest"])
        checks.append(Check("scenario.byte_identical_rerun", float(first != result["digest"]), 0.0))
        return checks

    def finish(self, op: Op, result) -> None:
        if isinstance(result, dict) and "bytes" in result:
            self.bytes_written += result["bytes"]
        shutil.rmtree(op.extra["out"], ignore_errors=True)

    def perturb(self, op: Op, result):
        bad = dict(result)
        bad["digest"] = hashlib.sha256(result["digest"].encode()).hexdigest()
        return bad


WORKLOADS = {w.name: w for w in (Design, Maps, Analysis, Scenarios)}
