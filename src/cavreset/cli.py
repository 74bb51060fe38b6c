"""Command-line front end.

One binary, subcommands for simulation, pulse design, residual maps, scheme
comparison, data fitting, device calibration constants, and the bundled
end-to-end scenarios.  All JSON outputs embed the resolved device config
and toolkit version; exit codes are 2 for configuration problems, 3 for
numeric failures, 4 for non-converged fits or optimizations, and 1 for a
scenario whose assertions fail.

Units at this boundary: frequencies in ordinary MHz, durations in ns,
coherence times in us, drive amplitudes in rad/ns, phases in radians.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from ._artefacts import write_json
from ._version import __version__
from .core import (
    CHI_SOURCES,
    DeviceParams,
    QubitState,
    chi_shift,
    complex_rate,
    critical_photon_number,
    default_device,
)
from .design import (
    clear_optimize,
    compare_schemes,
    residual_map,
    sspe_analytic,
    sspe_optimize,
)
from .dynamics import propagate
from .errors import (
    CavityResetError,
    ConfigError,
    NotConverged,
    NumericError,
    ScenarioFailed,
)
from .fitting import (
    RamseyModel,
    exp_decay_fit,
    fit_backaction,
    fit_kerr_calibration,
    fit_ramsey,
)
from .pulses import DriveSegment, PulseSchedule, SchemeLabel
from .scenarios import SCENARIO_NAMES, run_scenario
from .synth import read_samples_csv


@dataclass
class CliConfig:
    device: DeviceParams
    chi_source: str
    output_dir: Path
    seed: int

    def provenance(self, command: str) -> dict:
        return {
            "version": __version__,
            "command": command,
            "device": self.device.to_dict(),
            "chi_source": self.chi_source,
            "seed": self.seed,
        }


def _json_spec(text: str) -> object:
    """Parse an inline JSON value, or the contents of a file path."""
    candidate = Path(text)
    try:
        if candidate.is_file():
            text = candidate.read_text()
    except OSError:
        pass
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"not valid JSON (or a JSON file path): {text[:80]!r}: {exc}") from exc


def _segment_from_spec(spec: object, what: str) -> DriveSegment:
    # "amplitude" is accepted alongside "amp" so design output JSON can be
    # fed straight back into `simulate --schedule`.
    if not isinstance(spec, dict):
        raise ConfigError(f"{what} must be a JSON object with amp, phase, duration")
    unknown = set(spec) - {"amp", "amplitude", "phase", "duration"}
    if unknown:
        raise ConfigError(f"{what} has unknown key(s) {sorted(unknown)}")
    if "amp" in spec and "amplitude" in spec:
        raise ConfigError(f"{what} has both amp and amplitude")
    amp = spec.get("amp", spec.get("amplitude", 0.0))
    try:
        return DriveSegment(
            amplitude=float(amp),
            phase=float(spec.get("phase", 0.0)),
            duration=float(spec["duration"]),
        )
    except KeyError as exc:
        raise ConfigError(f"{what} needs a duration") from exc


def _schedule_from_spec(text: str) -> PulseSchedule:
    spec = _json_spec(text)
    if not isinstance(spec, list) or not spec:
        raise ConfigError("schedule must be a non-empty JSON list of {amp, phase, duration}")
    segs = tuple(_segment_from_spec(s, f"segment {i}") for i, s in enumerate(spec))
    return PulseSchedule(segments=segs, label=SchemeLabel.CUSTOM.value)


# -- subcommand handlers -----------------------------------------------------


def cmd_simulate(config: CliConfig, args: argparse.Namespace) -> int:
    schedule = _schedule_from_spec(args.schedule)
    traj = propagate(
        config.device,
        schedule,
        QubitState(args.state),
        sample_dt=args.dt,
        chi_source=config.chi_source,
        force_ode=args.force_ode,
    )
    out = config.output_dir
    csv_path = out / args.name
    traj.write_csv(csv_path)
    write_json(
        out / (csv_path.stem + ".provenance.json"),
        {
            "provenance": config.provenance("simulate"),
            "trajectory_csv": csv_path.name,
            "state": int(args.state),
            "sample_dt": args.dt,
            "force_ode": bool(args.force_ode),
            "final_photons": float(traj.photon[-1]),
        },
    )
    print(csv_path)
    return 0


def cmd_design(config: CliConfig, args: argparse.Namespace) -> int:
    readout = _segment_from_spec(_json_spec(args.readout), "readout")
    states = [QubitState(s) for s in args.states]
    payload: dict = {"provenance": config.provenance("design"), "mode": args.mode}
    if args.mode == "sspe":
        solutions = []
        if config.device.kerr_coeff == 0.0 and len(states) == 1:
            solutions.append(
                sspe_analytic(
                    config.device, states[0], readout, args.reset_duration, config.chi_source
                )
            )
        numeric = sspe_optimize(
            config.device,
            states,
            readout,
            args.reset_duration,
            chi_source=config.chi_source,
        )
        numeric.require_converged()
        solutions.append(numeric)
        payload["solutions"] = [s.to_dict() for s in solutions]
    else:
        schedule = clear_optimize(
            config.device, states, readout, args.reset_duration, chi_source=config.chi_source
        )
        payload["schedule"] = {
            "label": schedule.label,
            "segments": [
                {"amp": s.amplitude, "phase": s.phase, "duration": s.duration}
                for s in schedule
            ],
        }
    path = config.output_dir / f"design_{args.mode}.json"
    write_json(path, payload)
    print(path)
    return 0


def cmd_map(config: CliConfig, args: argparse.Namespace) -> int:
    readout = _segment_from_spec(_json_spec(args.readout), "readout")
    if args.amp_points < 1 or args.phase_points < 1:
        raise ConfigError(
            f"grid sizes must be >= 1, got {args.amp_points} x {args.phase_points} points"
        )
    amp_grid = np.linspace(args.amp_min, args.amp_max, args.amp_points)
    phase_grid = np.linspace(0.0, 2.0 * math.pi, args.phase_points, endpoint=False)
    rmap = residual_map(
        config.device,
        QubitState(args.state),
        readout,
        args.reset_duration,
        amp_grid,
        phase_grid,
        config.chi_source,
    )
    out = config.output_dir
    sidecar = rmap.sidecar_dict()  # raises NumericError before any file if every cell diverged
    sidecar["provenance"] = config.provenance("map")
    rmap.write_csv(out / "residual_map.csv")
    write_json(out / "residual_map.json", sidecar)
    print(out / "residual_map.csv")
    return 0


def cmd_compare(config: CliConfig, args: argparse.Namespace) -> int:
    readout = _segment_from_spec(_json_spec(args.readout), "readout")
    comparison = compare_schemes(
        config.device,
        [QubitState(s) for s in args.states],
        readout,
        args.reset_duration,
        chi_source=config.chi_source,
    )
    summary = comparison.write(config.output_dir)
    summary["provenance"] = config.provenance("compare")
    path = config.output_dir / "comparison.json"
    write_json(path, summary)
    print(path)
    return 0


def _fit_payload(config: CliConfig, kind: str, result) -> int:
    if not result.converged:
        raise NotConverged(f"{kind} fit did not converge")
    payload = {"provenance": config.provenance(f"fit {kind}"), "fit": result.to_dict()}
    path = config.output_dir / f"fit_{kind}.json"
    write_json(path, payload)
    print(path)
    return 0


def cmd_fit(config: CliConfig, args: argparse.Namespace) -> int:
    rows = read_samples_csv(args.data)
    device = config.device
    if args.fit_kind == "ramsey":
        model = RamseyModel.from_device(device, config.chi_source)
        fixed = {
            "gamma2": model.gamma2 if args.gamma2 is None else args.gamma2,
            "chi": model.chi if args.chi is None else args.chi,
            "kappa": model.kappa if args.kappa is None else args.kappa,
        }
        init = {"fringe": args.fringe_init, "phi0": args.phi0_init, "n0": args.n0_init}
        result = fit_ramsey([(r[0], r[1]) for r in rows], fixed, init)
    elif args.fit_kind == "backaction":
        result = fit_backaction([(r[0], r[1]) for r in rows])
    elif args.fit_kind == "decay":
        result = exp_decay_fit([(r[0], r[1]) for r in rows])
    else:
        result = fit_kerr_calibration(
            [(r[0], r[1]) for r in rows],
            device,
            QubitState(args.state),
            config.chi_source,
        )
    return _fit_payload(config, args.fit_kind, result)


def cmd_calibrate(config: CliConfig, args: argparse.Namespace) -> int:
    device = config.device
    payload: dict = {"provenance": config.provenance("calibrate")}
    for source in CHI_SOURCES:
        if source == "measured" and (
            device.dressed_freq_0 is None or device.dispersive_shift_01 is None
        ):
            continue
        c0 = complex_rate(device, QubitState.GROUND, source)
        c1 = complex_rate(device, QubitState.EXCITED, source)
        payload[source] = {
            "chi_0_mhz": chi_shift(device, QubitState.GROUND, source),
            "chi_1_mhz": chi_shift(device, QubitState.EXCITED, source),
            "drive_freq_mhz": device.drive_frequency(source),
            "detuning_r_mhz": device.detuning_r(source),
            "c0_rad_ns": [c0.real, c0.imag],
            "c1_rad_ns": [c1.real, c1.imag],
        }
    if device.coupling > 0.0:
        payload["critical_photon_number"] = critical_photon_number(device)
    path = config.output_dir / "calibration.json"
    write_json(path, payload)
    print(path)
    return 0


def cmd_scenario(config: CliConfig, args: argparse.Namespace) -> int:
    names = SCENARIO_NAMES if args.name == "all" else (args.name,)
    worst = 0
    for name in names:
        report = run_scenario(
            name,
            params=config.device,
            out_root=config.output_dir,
            seed=config.seed,
            chi_source=config.chi_source,
            raise_on_fail=False,
        )
        status = "pass" if report.passed else "FAIL"
        print(f"{name}: {status} ({len(report.assertions)} assertions)")
        if not report.passed:
            for a in report.failures():
                print(f"  {a.name}: measured {a.measured:.6g} vs {a.kind} {a.expected:.6g}")
            worst = 1
    return worst


# -- parser ------------------------------------------------------------------


def _add_readout_args(p: argparse.ArgumentParser) -> None:
    p.add_argument(
        "--readout",
        required=True,
        help='readout segment as JSON {"amp": rad/ns, "phase": rad, "duration": ns} (inline or a file path)',
    )
    p.add_argument(
        "--reset-duration",
        type=float,
        required=True,
        help="reset window length in ns",
    )


def build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", help="device parameter JSON file (MHz / ns / us units)")
    common.add_argument("--out", default="out", help="output directory (default: out)")
    common.add_argument("--seed", type=int, default=0, help="base RNG seed for synthetic data")
    common.add_argument(
        "--chi-source",
        choices=list(CHI_SOURCES),
        default="formula",
        help="dispersive shifts from the transmon ladder formula or measured dressed frequencies",
    )

    parser = argparse.ArgumentParser(
        prog="cavreset",
        description="Readout-cavity reset toolkit: simulate, design, fit, reproduce.",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser(
        "simulate",
        parents=[common],
        help="propagate a drive schedule and write the trajectory CSV",
        description="Propagate the cavity field under a piecewise-constant schedule. "
        "Amplitudes are rad/ns, durations ns; the closed form is used when the "
        "device has no Kerr term unless --force-ode.",
    )
    p.add_argument(
        "--schedule",
        required=True,
        help='JSON list of {"amp", "phase", "duration"} segments (inline or a file path)',
    )
    p.add_argument("--state", type=int, choices=[0, 1], default=0, help="qubit state index")
    p.add_argument("--dt", type=float, default=1.0, help="sample spacing / ODE step in ns")
    p.add_argument("--force-ode", action="store_true", help="integrate even when the model is linear")
    p.add_argument("--name", default="trajectory.csv", help="output CSV filename")
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser(
        "design",
        parents=[common],
        help="solve for reset segment(s) returning the cavity to vacuum",
        description="Design a reset drive for the given readout segment. Durations in ns, "
        "amplitudes rad/ns. Emits the analytic and the optimized solution when both apply.",
    )
    p.add_argument("--mode", choices=["sspe", "clear"], default="sspe")
    p.add_argument(
        "--states",
        type=int,
        nargs="+",
        choices=[0, 1],
        default=[0],
        help="target qubit state(s); two states minimize the photon sum over both",
    )
    _add_readout_args(p)
    p.set_defaults(func=cmd_design)

    p = sub.add_parser(
        "map",
        parents=[common],
        help="residual photons over an (amplitude, phase) grid",
        description="End-of-window photon number across a reset drive grid. "
        "Amplitudes rad/ns, phases sweep [0, 2pi).",
    )
    p.add_argument("--state", type=int, choices=[0, 1], default=0)
    _add_readout_args(p)
    p.add_argument("--amp-min", type=float, default=0.0, help="grid start, rad/ns")
    p.add_argument("--amp-max", type=float, required=True, help="grid end, rad/ns")
    p.add_argument("--amp-points", type=int, default=41)
    p.add_argument("--phase-points", type=int, default=40)
    p.set_defaults(func=cmd_map)

    p = sub.add_parser(
        "compare",
        parents=[common],
        help="square vs single-segment vs two-segment reset over one window",
        description="Simulate the three reset schemes over the same total duration and fit "
        "effective decay rates (MHz) in the reset window.",
    )
    p.add_argument("--states", type=int, nargs="+", choices=[0, 1], default=[0])
    _add_readout_args(p)
    p.set_defaults(func=cmd_compare)

    # the options follow the fit kind, so none can be given before it
    p = sub.add_parser("fit", help="least-squares fits of measurement CSVs")
    fit_sub = p.add_subparsers(dest="fit_kind", required=True)

    f = fit_sub.add_parser(
        "ramsey",
        parents=[common],
        help="recover residual photons from a Ramsey trace CSV (t in us, S in [0,1])",
    )
    f.add_argument("--data", required=True, help="CSV with header t,S")
    f.add_argument("--gamma2", type=float, help="dephasing rate 1/us (default: 1/t2_echo)")
    f.add_argument("--chi", type=float, help="photon pull, rad/us (default: from device)")
    f.add_argument("--kappa", type=float, help="cavity decay, rad/us (default: from device)")
    f.add_argument("--fringe-init", type=float, default=0.0, help="initial detuning guess, rad/us")
    f.add_argument("--phi0-init", type=float, default=0.0, help="initial phase guess, rad")
    f.add_argument("--n0-init", type=float, default=0.5, help="initial photon guess")
    f.set_defaults(func=cmd_fit)

    f = fit_sub.add_parser(
        "backaction",
        parents=[common],
        help="per-measurement leave/return rates from repeated-measurement CSV (m,P)",
    )
    f.add_argument("--data", required=True, help="CSV with header m,P")
    f.set_defaults(func=cmd_fit)

    f = fit_sub.add_parser(
        "decay",
        parents=[common],
        help="log-linear decay rate (MHz) from a photon-number CSV (t in ns)",
    )
    f.add_argument("--data", required=True, help="CSV with header t,n")
    f.set_defaults(func=cmd_fit)

    f = fit_sub.add_parser(
        "kerr",
        parents=[common],
        help="Kerr coefficient (kHz) and drive scale from steady-state CSV (v2,n)",
    )
    f.add_argument("--data", required=True, help="CSV with header v2,n")
    f.add_argument("--state", type=int, choices=[0, 1], default=0)
    f.set_defaults(func=cmd_fit)

    p = sub.add_parser(
        "calibrate",
        parents=[common],
        help="derived device quantities: shifts (MHz), complex rates (rad/ns), photon bounds",
    )
    p.set_defaults(func=cmd_calibrate)

    p = sub.add_parser(
        "scenario",
        parents=[common],
        help="run a bundled end-to-end scenario (or 'all') and check its assertions",
    )
    p.add_argument("name", choices=[*SCENARIO_NAMES, "all"])
    p.set_defaults(func=cmd_scenario)

    return parser


def _load_config(args: argparse.Namespace) -> CliConfig:
    if getattr(args, "config", None):
        device = DeviceParams.from_json(args.config)
    else:
        device = default_device()
    return CliConfig(
        device=device,
        chi_source=args.chi_source,
        output_dir=Path(args.out),
        seed=int(args.seed),
    )


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        config = _load_config(args)
        return int(args.func(config, args) or 0)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except NotConverged as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 4
    except NumericError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except ScenarioFailed as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except CavityResetError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
