"""End-to-end desk-scale scenarios: simulate, fit, assert, write artifacts.

Each scenario exercises one slice of the toolkit against frozen expected
values (closed-form results, device constants, round-trip identities),
writes its datasets and a `report.json` under `<out_root>/<name>/`, and
returns a ScenarioReport listing expected vs measured per assertion.

Everything a scenario writes is a pure function of (device params, seed,
chi_source): reruns with the same inputs reproduce every file byte for
byte.  That rules out wall-clock measurements in reports; the runtime
bound on the dense ODE run is enforced by the test suite instead, where
nothing is persisted.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, field, replace
from pathlib import Path
from typing import Callable, Sequence

import numpy as np

from ._artefacts import write_csv, write_json
from ._version import __version__
from .core import (
    MHZ_TO_RAD_NS,
    DeviceParams,
    QubitState,
    critical_photon_number,
    default_device,
    qubit_pull,
)
from .design import (
    compare_schemes,
    residual_map,
    scaling_law_check,
    sspe_optimize,
)
from .dynamics import (
    _Cavity,
    final_alpha,
    photon_number,
    propagate_closed_form,
    propagate_ode,
    ring_up_segment,
)
from .errors import ConfigError, ScenarioFailed
from .fitting import (
    BackactionModel,
    RamseyModel,
    ac_stark_reconstruct,
    backaction_forward,
    fit_backaction,
    fit_kerr_calibration,
    fit_ramsey,
    kerr_steady_state,
)
from .pulses import DriveSegment, PulseSchedule, SchemeLabel
from .synth import (
    NoiseSpec,
    gen_backaction_sequence,
    gen_ramsey_dataset,
    gen_spectroscopy,
)

SCENARIO_NAMES = (
    "fig1_maps",
    "fig2_scaling",
    "fig3_dynamics",
    "fig4_backaction",
    "appC_calibration",
)

READOUT_DURATION = 900.0
RESET_DURATION = 50.0
READOUT_PHOTONS = 5.0  # steady-state target of the standard readout tone


@dataclass
class Assertion:
    """One expected-vs-measured check inside a scenario."""

    name: str
    expected: float
    measured: float
    tolerance: float
    kind: str  # "abs" | "rel" | "le" | "ge"
    passed: bool
    note: str = ""

    def to_dict(self) -> dict:
        return asdict(self)


@dataclass
class ScenarioReport:
    scenario: str
    passed: bool
    assertions: list[Assertion]
    files: list[str]
    metadata: dict
    notes: dict

    def to_dict(self) -> dict:
        return asdict(self)

    def failures(self) -> list[Assertion]:
        return [a for a in self.assertions if not a.passed]


@dataclass
class _Context:
    params: DeviceParams
    out_dir: Path
    seed: int
    chi_source: str
    assertions: list[Assertion] = field(default_factory=list)
    files: list[str] = field(default_factory=list)
    notes: dict = field(default_factory=dict)

    def check_abs(self, name: str, measured: float, expected: float, tol: float, note: str = "") -> None:
        ok = bool(abs(measured - expected) <= tol)
        self.assertions.append(Assertion(name, float(expected), float(measured), float(tol), "abs", ok, note))

    def check_rel(self, name: str, measured: float, expected: float, tol: float, note: str = "") -> None:
        ok = bool(abs(measured - expected) <= tol * abs(expected))
        self.assertions.append(Assertion(name, float(expected), float(measured), float(tol), "rel", ok, note))

    def check_le(self, name: str, measured: float, bound: float, note: str = "") -> None:
        ok = bool(measured <= bound)
        self.assertions.append(Assertion(name, float(bound), float(measured), float(bound), "le", ok, note))

    def check_ge(self, name: str, measured: float, bound: float, note: str = "") -> None:
        ok = bool(measured >= bound)
        self.assertions.append(Assertion(name, float(bound), float(measured), float(bound), "ge", ok, note))

    def add_file(self, name: str) -> Path:
        self.files.append(name)
        return self.out_dir / name

    def write_json(self, name: str, payload: object) -> None:
        write_json(self.add_file(name), payload)

    def write_csv(self, name: str, header: Sequence[str], rows: Sequence[Sequence[float]]) -> None:
        write_csv(self.add_file(name), header, rows)

    def readout(self) -> DriveSegment:
        return ring_up_segment(
            self.params,
            QubitState.GROUND,
            READOUT_PHOTONS,
            READOUT_DURATION,
            chi_source=self.chi_source,
        )


def derive_seeds(base: int, count: int) -> list[int]:
    """count reproducible 63-bit sub-seeds from one base seed."""
    children = np.random.SeedSequence(base).spawn(count)
    return [int(c.generate_state(1, dtype=np.uint64)[0] >> 1) for c in children]


# -- individual scenarios -----------------------------------------------------


def _fig1_maps(ctx: _Context) -> None:
    """Exact reset solutions and the residual landscape around them."""
    params = ctx.params
    readout = ctx.readout()
    solutions = {}
    for j in (QubitState.GROUND, QubitState.EXCITED):
        sol = sspe_optimize(params, j, readout, RESET_DURATION, ctx.chi_source)
        solutions[j] = sol
        ctx.check_le(
            f"exact_reset_state{int(j)}",
            sol.residual_photons[j],
            1e-20,
            note="closed-form residual photons after the reset window",
        )

    sol0 = solutions[QubitState.GROUND]
    amp_axis = np.linspace(0.0, 1.5 * sol0.reset_amplitude, 31)
    phase_axis = np.linspace(0.0, 2.0 * math.pi, 40, endpoint=False)
    rmap = residual_map(
        params,
        QubitState.GROUND,
        readout,
        RESET_DURATION,
        amp_axis,
        phase_axis,
        ctx.chi_source,
    )
    rmap.write_csv(ctx.add_file("residual_map_state0.csv"))
    rmap.write_sidecar(ctx.add_file("residual_map_state0.json"))

    amp_step = float(amp_axis[1] - amp_axis[0])
    phase_step = float(phase_axis[1] - phase_axis[0])
    eps_min, phi_min, _ = rmap.minimum()
    dphi = abs(phi_min - sol0.reset_phase)
    dphi = min(dphi, 2.0 * math.pi - dphi)
    offset = max(abs(eps_min - sol0.reset_amplitude) / amp_step, dphi / phase_step)
    ctx.check_le(
        "map_minimum_near_analytic",
        offset,
        1.0 + 1e-9,
        note="grid-minimum distance from the analytic optimum, in grid spacings",
    )

    # amplitude 0 means the window is pure free decay
    kappa_ang = params.kappa * MHZ_TO_RAD_NS
    n_tau = abs(
        final_alpha(params, PulseSchedule(segments=(readout,)), QubitState.GROUND, chi_source=ctx.chi_source)
    ) ** 2
    expected_free = n_tau * math.exp(-kappa_ang * RESET_DURATION)
    measured_free = float(rmap.residual[0, 0])
    ctx.check_rel(
        "map_free_decay_at_zero_amplitude",
        measured_free,
        expected_free,
        1e-10,
        note="residual at eps_r = 0 equals n(tau) e^{-kappa dtau}",
    )

    ctx.write_json("reset_solutions.json", {str(int(j)): sol.to_dict() for j, sol in solutions.items()})


def _fig2_scaling(ctx: _Context) -> None:
    """Amplitude scaling law of the optimum, plus Ramsey photon readback."""
    params = ctx.params
    readout = ctx.readout()
    betas = (0.25, 0.5, 1.0, 2.0, 4.0)
    rows = scaling_law_check(
        params, QubitState.GROUND, readout, RESET_DURATION, betas, ctx.chi_source
    )
    ctx.write_csv(
        "scaling_rows.csv",
        ["beta_n", "beta_r", "phase_delta"],
        [[r.beta_n, r.beta_r, r.phase_delta] for r in rows],
    )
    ctx.check_le(
        "scaling_amplitude_ratio",
        max(abs(r.beta_r / r.beta_n - 1.0) for r in rows),
        1e-10,
        note="max |beta_r/beta_n - 1| over beta_n in {0.25, 0.5, 1, 2, 4}",
    )
    ctx.check_le(
        "scaling_phase_invariance",
        max(r.phase_delta for r in rows),
        1e-10,
        note="max |phi_r' - phi_r| (rad) over the same betas",
    )

    # Ramsey round trip: the same fit chain that reads residual photons off
    # hardware, fed by its own forward model.
    fringe_true = 2.0 * math.pi
    phi0_true = 0.3
    base = RamseyModel.from_device(params, ctx.chi_source, fringe=fringe_true, phi0=phi0_true)
    fixed = {"gamma2": base.gamma2, "chi": base.chi, "kappa": base.kappa}
    times = np.linspace(0.0, 2.0, 200)

    fit_records = {}
    for n0_true in (0.0, 0.5, 2.0):
        data = gen_ramsey_dataset(replace(base, n0=n0_true), times, NoiseSpec.none())
        result = fit_ramsey(data, fixed, init={"fringe": fringe_true, "phi0": phi0_true})
        n0_hat = result.values["n0"]
        label = f"ramsey_noiseless_n0_{n0_true:g}"
        if n0_true == 0.0:
            ctx.check_abs(label, n0_hat, 0.0, 0.01)
        else:
            ctx.check_rel(label, n0_hat, n0_true, 0.01)
        fit_records[label] = result.to_dict()

    n0_noisy = 1.0
    model = replace(base, n0=n0_noisy)
    estimates = []
    for trial_seed in derive_seeds(ctx.seed, 100):
        data = gen_ramsey_dataset(model, times, NoiseSpec.gaussian(0.01, trial_seed))
        result = fit_ramsey(data, fixed, init={"fringe": fringe_true, "phi0": phi0_true})
        estimates.append(result.values["n0"])
    estimates_arr = np.array(estimates)
    ctx.check_le(
        "ramsey_noisy_max_error",
        float(np.max(np.abs(estimates_arr - n0_noisy))),
        0.1,
        note="max |n0_hat - 1| over 100 trials, sigma = 0.01, 200 points",
    )
    ctx.check_le(
        "ramsey_noisy_median_bias",
        abs(float(np.median(estimates_arr)) - n0_noisy),
        0.02,
    )

    example = gen_ramsey_dataset(model, times, NoiseSpec.gaussian(0.01, derive_seeds(ctx.seed, 1)[0]))
    ctx.write_csv("ramsey_example.csv", ["t", "S"], example)
    ctx.write_json("ramsey_fits.json", fit_records)
    ctx.notes["ramsey_noisy_estimates_mean"] = float(np.mean(estimates_arr))


def _fig3_dynamics(ctx: _Context) -> None:
    """Reset dynamics: exact-vs-ODE agreement, scheme comparison, ac-Stark."""
    params = ctx.params
    readout = ctx.readout()
    sol0 = sspe_optimize(params, QubitState.GROUND, readout, RESET_DURATION, ctx.chi_source)
    schedule = sol0.schedule()

    cf = propagate_closed_form(params, schedule, QubitState.GROUND, sample_dt=0.01, chi_source=ctx.chi_source)
    ode = propagate_ode(params, schedule, QubitState.GROUND, dt=0.01, chi_source=ctx.chi_source)
    if cf.times.size != ode.times.size:
        raise ConfigError("sampling grids diverged between the two propagators")
    scale = float(np.max(np.abs(cf.alpha)))
    deviation = float(np.max(np.abs(cf.alpha - ode.alpha))) / scale
    ctx.check_le(
        "closed_form_ode_agreement",
        deviation,
        1e-8,
        note="max |alpha_cf - alpha_ode| / max |alpha| at dt = 0.01 ns",
    )

    comparison = compare_schemes(
        params,
        (QubitState.GROUND,),
        readout,
        RESET_DURATION,
        chi_source=ctx.chi_source,
    )
    summary = comparison.write(ctx.out_dir)
    for by_state in summary["schemes"].values():
        ctx.files.extend(entry["trajectory_csv"] for entry in by_state.values())

    square = comparison.metrics(SchemeLabel.SQUARE, QubitState.GROUND)
    sspe = comparison.metrics(SchemeLabel.SSPE, QubitState.GROUND)
    clear = comparison.metrics(SchemeLabel.CLEAR, QubitState.GROUND)

    ctx.check_rel(
        "square_rate_equals_kappa",
        square.rate_mhz,
        params.kappa,
        0.02,
        note="free-decay window fit recovers the cavity decay rate (MHz)",
    )
    kappa_ang = params.kappa * MHZ_TO_RAD_NS
    n_tau = photon_number(square.trajectory, READOUT_DURATION)
    ctx.check_rel(
        "square_free_decay_ratio",
        square.residual_end / n_tau,
        math.exp(-kappa_ang * RESET_DURATION),
        1e-6,
        note="end-of-window photons over pre-window photons",
    )
    ctx.check_ge(
        "sspe_rate_speedup",
        sspe.rate_mhz,
        5.0 * params.kappa,
        note="fitted effective depletion rate (MHz) >= 5x the passive rate",
    )
    ctx.check_le("sspe_residual_end", sspe.residual_end, 1e-4)
    ctx.check_le("clear_residual_end", clear.residual_end, 1e-4)
    ctx.notes["rates_mhz"] = {
        "square": square.rate_mhz,
        "sspe": sspe.rate_mhz,
        "clear": clear.rate_mhz,
    }
    ctx.notes["peak_photons"] = {
        "square": square.peak_photons,
        "sspe": sspe.peak_photons,
        "clear": clear.peak_photons,
    }
    ctx.notes["clear_overshoot_vs_sspe"] = clear.peak_photons / max(sspe.peak_photons, 1e-30)

    # ac-Stark readback of the square trajectory's photon transient
    chi_pull = qubit_pull(ctx.params, ctx.chi_source)
    traj = square.trajectory
    delays = np.arange(0.0, traj.times[-1] + 1e-9, 50.0)
    linewidth = 4.0
    shift_edge = 2.0 * chi_pull * float(np.max(traj.photon))
    grid_lo = min(shift_edge, 0.0) - 4.0 * linewidth
    grid_hi = max(shift_edge, 0.0) + 4.0 * linewidth
    freq_grid = np.arange(grid_lo, grid_hi + 1e-9, 0.1)
    spectra = gen_spectroscopy(
        traj, chi_pull, linewidth, freq_grid, NoiseSpec.none(), line_center=0.0, delays=delays
    )
    recon = ac_stark_reconstruct(spectra, chi_pull, line_center=0.0)
    truth = np.array([photon_number(traj, d) for d, _ in recon])
    estimate = np.array([n for _, n in recon])
    ctx.check_le(
        "ac_stark_round_trip",
        float(np.max(np.abs(estimate - truth))) / float(np.max(truth)),
        0.01,
        note="max reconstruction error over the transient, relative to peak n",
    )
    ctx.write_csv(
        "ac_stark_reconstruction.csv",
        ["delay_ns", "n_true", "n_reconstructed"],
        [[d, t, e] for (d, _), t, e in zip(recon, truth, estimate)],
    )
    ctx.write_json("scheme_comparison.json", summary)


def _fig4_backaction(ctx: _Context) -> None:
    """Repeated-measurement model: identities, round trips, intrinsic rate."""
    params = ctx.params

    relax = BackactionModel(gamma_out=0.0722, gamma_back=0.01, p0=1.0)
    excite = BackactionModel(gamma_out=0.0005, gamma_back=0.04, p0=1.0)

    ctx.check_abs(
        "steady_state_identity",
        backaction_forward(relax, 4000),
        relax.steady,
        1e-12,
        note="P_m at large m equals gamma_back/(gamma_out+gamma_back)",
    )

    noiseless = gen_backaction_sequence(relax, 60, NoiseSpec.none())
    fit = fit_backaction(noiseless)
    ctx.check_rel("backaction_noiseless_gamma_out", fit.values["gamma_out"], relax.gamma_out, 1e-5)
    ctx.check_rel("backaction_noiseless_gamma_back", fit.values["gamma_back"], relax.gamma_back, 1e-5)

    seeds = derive_seeds(ctx.seed, 40)
    relax_err = []
    for s in seeds[:20]:
        data = gen_backaction_sequence(relax, 60, NoiseSpec.binomial(4000, s))
        relax_err.append(abs(fit_backaction(data).values["gamma_out"] - relax.gamma_out))
    ctx.check_le(
        "backaction_binomial_relaxation",
        float(max(relax_err)),
        0.005,
        note="max |gamma_out_hat - 0.0722| over 20 seeded 4000-shot trials",
    )
    excite_err = []
    for s in seeds[20:]:
        data = gen_backaction_sequence(excite, 150, NoiseSpec.binomial(4000, s))
        excite_err.append(abs(fit_backaction(data).values["gamma_out"] - excite.gamma_out))
    ctx.check_le(
        "backaction_binomial_excitation",
        float(max(excite_err)),
        0.0005,
        note="max |gamma_out_hat - 0.0005| over 20 seeded 4000-shot trials",
    )

    intrinsic = 1.0 - math.exp(-1.0 / params.t1)
    ctx.check_abs(
        "intrinsic_relaxation_per_microsecond",
        intrinsic,
        0.037,
        1e-4,
        note="1 - e^{-dt/T1} at dt = 1 us against the quoted 3.7%",
    )

    example = gen_backaction_sequence(relax, 60, NoiseSpec.binomial(4000, seeds[0]))
    ctx.write_csv("backaction_relaxation_example.csv", ["m", "P"], example)
    example2 = gen_backaction_sequence(excite, 150, NoiseSpec.binomial(4000, seeds[20]))
    ctx.write_csv("backaction_excitation_example.csv", ["m", "P"], example2)
    ctx.write_json("backaction_fit.json", fit.to_dict())


def _appc_calibration(ctx: _Context) -> None:
    """Kerr steady-state solver vs long-time ODE plus the calibration fit."""
    base = ctx.params
    kerr_params = base.with_(kerr_coeff=-0.011)
    j = QubitState.GROUND
    n_crit = critical_photon_number(base)
    ctx.notes["critical_photon_number"] = n_crit

    # cubic root against the ODE ring-up limit, photon ladder up to 0.8 n_crit
    cavity = _Cavity.of(kerr_params, ctx.chi_source)
    worst = 0.0
    rows = []
    for n_target in (1.0, 5.0, 10.0, 15.0, 20.0, 0.8 * n_crit):
        ring_up = ring_up_segment(kerr_params, j, n_target, 4000.0, ctx.chi_source)
        n_cubic = kerr_steady_state(kerr_params, j, ring_up.amplitude, ctx.chi_source)
        n_ode = abs(cavity.segment_end(j, 0j, ring_up)) ** 2
        rel = abs(n_cubic - n_ode) / n_ode
        worst = max(worst, rel)
        rows.append([n_target, n_cubic, n_ode, rel])
    ctx.write_csv(
        "kerr_steady_state_check.csv",
        ["n_target", "n_cubic", "n_ode", "relative_gap"],
        rows,
    )
    ctx.check_le(
        "kerr_cubic_vs_ode",
        worst,
        1e-4,
        note=f"max relative gap on a photon ladder up to 0.8 n_crit (n_crit = {n_crit:.1f})",
    )

    # calibration round trip: voltage scale and Kerr coefficient from (V^2, n)
    volt_to_eps_true = 0.02
    cal_targets = (0.5, 1.0, 2.0, 4.0, 7.0, 10.0, 14.0, 18.0, 22.0, 0.8 * n_crit)

    def synth_points(device: DeviceParams) -> list[tuple[float, float]]:
        pts = []
        for n_target in cal_targets:
            eps = ring_up_segment(device, j, n_target, 4000.0, chi_source=ctx.chi_source).amplitude
            volts = eps / volt_to_eps_true
            pts.append((volts * volts, kerr_steady_state(device, j, eps, ctx.chi_source)))
        return pts

    points = synth_points(kerr_params)
    ctx.write_csv("kerr_calibration_points.csv", ["v2", "n"], points)
    fit = fit_kerr_calibration(points, base, j, ctx.chi_source)
    ctx.check_abs(
        "kerr_fit_recovery_khz",
        fit.values["kerr_khz"],
        -11.0,
        1.0,
        note="Kerr coefficient recovered from noiseless calibration data",
    )
    ctx.check_rel("kerr_fit_voltage_scale", fit.values["volt_to_eps"], volt_to_eps_true, 1e-3)

    null_fit = fit_kerr_calibration(synth_points(base), base, j, ctx.chi_source)
    ctx.check_abs(
        "kerr_fit_null_case_khz",
        null_fit.values["kerr_khz"],
        0.0,
        0.1,
        note="linear synthetic data must not produce a spurious Kerr term",
    )
    ctx.write_json("kerr_fit.json", {"kerr": fit.to_dict(), "null": null_fit.to_dict()})


_SCENARIOS: dict[str, Callable[[_Context], None]] = {
    "fig1_maps": _fig1_maps,
    "fig2_scaling": _fig2_scaling,
    "fig3_dynamics": _fig3_dynamics,
    "fig4_backaction": _fig4_backaction,
    "appC_calibration": _appc_calibration,
}


def run_scenario(
    name: str,
    params: DeviceParams | None = None,
    out_root: str | Path = "out",
    seed: int = 0,
    chi_source: str = "formula",
    raise_on_fail: bool = True,
) -> ScenarioReport:
    """Run one named scenario on a linear device; write artifacts and report.json.

    The report is written whether or not its assertions pass.  With
    raise_on_fail (default) a failing scenario raises ScenarioFailed after
    writing, carrying the report on the exception as `.report`.
    """
    if name not in _SCENARIOS:
        raise ConfigError(f"unknown scenario {name!r}; choose from {SCENARIO_NAMES}")
    if params is None:
        params = default_device()
    if params.kerr_coeff != 0.0:
        raise ConfigError(
            f"scenarios expect a linear device, got a Kerr term kerr_coeff = {params.kerr_coeff} MHz; "
            "appC_calibration adds its own"
        )
    out_dir = Path(out_root) / name
    ctx = _Context(params=params, out_dir=out_dir, seed=int(seed), chi_source=chi_source)

    _SCENARIOS[name](ctx)

    report = ScenarioReport(
        scenario=name,
        passed=all(a.passed for a in ctx.assertions),
        assertions=ctx.assertions,
        files=sorted(set(ctx.files)) + ["report.json"],
        metadata={
            "version": __version__,
            "device": params.to_dict(),
            "seed": ctx.seed,
            "chi_source": chi_source,
        },
        notes=ctx.notes,
    )
    write_json(out_dir / "report.json", report.to_dict())
    if raise_on_fail and not report.passed:
        failed = ", ".join(a.name for a in report.failures())
        exc = ScenarioFailed(f"scenario {name} failed: {failed}")
        exc.report = report
        raise exc
    return report


def run_all(
    params: DeviceParams | None = None,
    out_root: str | Path = "out",
    seed: int = 0,
    chi_source: str = "formula",
    raise_on_fail: bool = True,
) -> dict[str, ScenarioReport]:
    return {
        name: run_scenario(name, params, out_root, seed, chi_source, raise_on_fail)
        for name in SCENARIO_NAMES
    }
