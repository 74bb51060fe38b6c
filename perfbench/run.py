"""cavreset benchmark: closed-loop workloads with verified results.

    python3 perfbench/run.py --workload design --seed 1 --seconds 10 --trace 0

Run from the root of a checkout.  The package is imported from ``src/`` of
that checkout, never from an installed copy.  One client sends operations
of the chosen workload (see ``ops.py``) one after another, times each call
into the package, and verifies each result against an independent
reference.  The last line of standard output is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``; the line before it
is the run record (versions, hardware, seed, input hash, failures).

--trace 0 reports the end-to-end metrics.  --trace 1 runs the same
operations twice, first untraced and then with spans around every public
function of the package (``tracing.py``), and reports the per-layer metrics
plus the tracing overhead.
"""

from __future__ import annotations

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"  # before numpy loads: one thread per pool

import argparse
import hashlib
import json
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = Path.cwd().resolve()
sys.path.insert(0, str(HERE))

#: Seeds kept out of every tuning run; a later performance claim must also
#: hold on these.
HELD_OUT_SEEDS = list(range(9001, 9011))

#: Fresh-process set-up measurements per run (after one warm-up process).
SETUP_SAMPLES = 4

PER_LAYER = (
    ("dynamics.ode_final_alpha.calls", "count"),
    ("dynamics.ode_final_alpha.self_s", "s"),
    ("dynamics.propagate_ode.calls", "count"),
    ("dynamics.propagate_ode.self_s", "s"),
    ("dynamics.rk4_steps", "count"),
    ("dynamics.rk4_steps_per_s", "1/s"),
    ("dynamics.closed_form.calls", "count"),
    ("dynamics.closed_form.self_s", "s"),
    ("optimize.nelder_mead.calls", "count"),
    ("optimize.nelder_mead.self_s", "s"),
    ("optimize.nelder_mead.evals", "count"),
    ("design.objective_evals_per_design", "count"),
    ("design.sspe_optimize.self_s", "s"),
    ("design.clear_optimize.self_s", "s"),
    ("design.sspe_analytic.self_s", "s"),
    ("design.compare_schemes.self_s", "s"),
    ("design.target_met_ratio", "ratio"),
    ("design.kerr_share", "ratio"),
    ("design.residual_map.calls", "count"),
    ("design.residual_map.self_s", "s"),
    ("design.residual_map.cells_per_s", "1/s"),
    ("maps.kerr_share", "ratio"),
    ("optimize.levenberg_marquardt.calls", "count"),
    ("optimize.levenberg_marquardt.self_s", "s"),
    ("optimize.levenberg_marquardt.nfev", "count"),
    ("fitting.fit_ramsey.self_s", "s"),
    ("fitting.fit_backaction.self_s", "s"),
    ("fitting.fit_kerr_calibration.self_s", "s"),
    ("fitting.exp_decay_fit.self_s", "s"),
    ("fitting.ac_stark_reconstruct.self_s", "s"),
    ("fitting.kerr_steady_state.calls", "count"),
    ("fitting.kerr_steady_state.self_s", "s"),
    ("fitting.converged_ratio", "ratio"),
    ("synth.generate.self_s", "s"),
    ("core.complex_rate.calls", "count"),
    ("core.chi_shift.calls", "count"),
    ("pulses.segments_built", "count"),
    ("scenarios.run_scenario.self_s", "s"),
    ("scenarios.fig1_maps.wall_s", "s"),
    ("scenarios.fig2_scaling.wall_s", "s"),
    ("scenarios.fig3_dynamics.wall_s", "s"),
    ("scenarios.fig4_backaction.wall_s", "s"),
    ("scenarios.appC_calibration.wall_s", "s"),
    ("cli.main.self_s", "s"),
    ("io.write_s", "s"),
    ("io.bytes_written", "bytes"),
    ("trace.overhead_ratio", "ratio"),
    ("verify.worst_margin_log10", "log10"),
)


def die(message: str, code: int = 2) -> None:
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(code)


def load_package():
    """Import cavreset from this checkout's src/ and nowhere else."""
    src = ROOT / "src"
    if not (src / "cavreset" / "__init__.py").is_file():
        die(f"no package source at {src / 'cavreset'}; run from the root of a checkout")
    sys.path.insert(0, str(src))
    import cavreset
    import cavreset.cli  # the package namespace does not load the CLI

    if not Path(cavreset.__file__).resolve().is_relative_to(src):
        die(f"cavreset was imported from {cavreset.__file__}, not from {src}")
    return cavreset


def measure_setup(configs) -> list[float]:
    """Seconds to import cavreset and load the devices, each in a fresh process."""
    cmd = [sys.executable, str(HERE / "probe.py"), str(ROOT), *configs]
    samples = []
    for i in range(SETUP_SAMPLES + 1):
        out = subprocess.run(cmd, capture_output=True, text=True, timeout=60, check=True)
        if i:  # the first process fills the bytecode and file caches
            samples.append(json.loads(out.stdout.strip().splitlines()[-1])["setup_s"])
    return samples


# -- running operations ----------------------------------------------------------


class Phase:
    """One pass over a number of rounds: latencies, failures, checks."""

    def __init__(self, workload, recorder=None):
        self.w = workload
        self.recorder = recorder
        self.latency_ns: list[int] = []
        self.failures: list[dict] = []
        self.margins: list[float] = []
        self.keys: list[dict] = []
        self.reruns = 0  # untimed repeats made only to check determinism
        self.rounds = 0
        self.examples: dict = {}  # kind -> first verified (op, result)

    @property
    def verified(self) -> int:
        return len(self.keys) - sum(1 for f in self.failures if f["timed"])

    @property
    def busy_s(self) -> float:
        return sum(self.latency_ns) * 1e-9

    def run(self, min_rounds: int, seconds: float = 0.0, group: int | None = None) -> "Phase":
        """Run whole rounds, in groups (default: the workload's round_group):
        at least `min_rounds`, then more while another group would end nearer
        to `seconds` of busy time than stopping now does."""
        group = group or self.w.round_group
        while True:
            done = self.rounds >= min_rounds and self.rounds % group == 0
            if done and self.busy_s + 0.5 * group * self.busy_s / self.rounds >= seconds:
                return self
            for op in self.w.rounds(self.rounds):
                self.execute(op)
            self.rounds += 1

    def execute(self, op, timed: bool = True) -> None:
        call = self.w.prepare(op)
        rec = self.recorder
        if rec is not None:
            rec.op_id = len(self.keys) + 1
            rec.enabled = True
        start = time.perf_counter_ns()
        try:
            result, error = call(), None
        except Exception as exc:  # a failed operation is counted, not fatal
            result, error = None, f"{type(exc).__name__}: {exc}"
        elapsed = time.perf_counter_ns() - start
        if rec is not None:
            rec.enabled = False
        if error is None:
            error = self._verify(op, result)
        self.w.finish(op, result)
        if timed:
            self.latency_ns.append(elapsed)
            self.keys.append(op.key())
        else:
            self.reruns += 1
        if error is not None:
            self.failures.append({"op": len(self.keys), "timed": timed, "kind": op.kind, "reason": error[:300]})
        elif op.kind not in self.examples:
            self.examples[op.kind] = (op, result)

    def _verify(self, op, result) -> str | None:
        try:
            checks = self.w.verify(op, result)
        except Exception as exc:
            return f"verification raised {type(exc).__name__}: {exc}"
        self.margins += [c.margin_log10 for c in checks if c.margin_log10 is not None]
        bad = [f"{c.name} = {c.value:.3g} > {c.limit:.3g}" for c in checks if not c.passed]
        return "; ".join(bad) if bad else None

    def self_test(self) -> dict:
        """Feed each verifier a deliberately wrong answer; it must reject it."""
        accepted = []
        for kind, (op, result) in sorted(self.examples.items()):
            checks = self.w.verify(op, self.w.perturb(op, result))
            if all(c.passed for c in checks):
                accepted.append(kind)
        return {"perturbed": len(self.examples), "rejected": len(self.examples) - len(accepted), "accepted": accepted}


def tail(latencies_ms: list[float]) -> tuple[float, float, int]:
    """(value, percentile, n): the highest percentile with >= 10 samples beyond it."""
    xs = sorted(latencies_ms)
    n = len(xs)
    if n <= 10:
        return xs[-1], 100.0, n
    return xs[n - 11], 100.0 * (n - 10) / n, n


def digest(keys: list[dict]) -> str:
    return hashlib.sha256(json.dumps(keys, sort_keys=True).encode()).hexdigest()[:16]


def run_record(args, workload, phases) -> dict:
    import numpy
    import scipy

    def cache(level: int) -> str | None:
        for index in Path("/sys/devices/system/cpu/cpu0/cache").glob("index*"):
            try:
                if int((index / "level").read_text()) == level and (index / "type").read_text().strip() != "Instruction":
                    return (index / "size").read_text().strip()
            except OSError:
                return None
        return None

    cpu = None
    try:
        cpu = next((line.split(":", 1)[1].strip() for line in Path("/proc/cpuinfo").read_text().splitlines()
                    if line.startswith("model name")), None)
    except OSError:
        pass
    first = [k for p in phases[:1] for k in p.keys[: len(workload.rounds(0)) * workload.min_rounds]]
    return {
        "workload": args.workload,
        "seed": args.seed,
        "held_out_seeds": HELD_OUT_SEEDS,
        "inputs_sha256": digest([k for p in phases for k in p.keys]),
        "first_rounds_sha256": digest(first),
        "rounds": [p.rounds for p in phases],
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "l2": cache(2),
        "l3": cache(3),
        "threads": {v: os.environ[v] for v in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
        "loop": "closed, one client",
    }


# -- per-layer metrics -----------------------------------------------------------


def layer_metrics(rec, traced: Phase, untraced: Phase, workload) -> dict:
    agg = rec.aggregate()
    c = rec.counters

    def calls(name):
        return agg[name]["calls"] if name in agg else 0

    def self_s(*names):
        return sum(agg[n]["self_s"] for n in names if n in agg)

    def ratio(a, b):
        return a / b if b else 0.0

    steps_s = self_s("dynamics.ode_final_alpha", "dynamics.propagate_ode")
    numeric_designs = calls("design.sspe_optimize") + calls("design.clear_optimize")
    fits = ("fitting.fit_ramsey", "fitting.fit_backaction", "fitting.fit_kerr_calibration", "fitting.exp_decay_fit")
    wall = {name: statistics.median(v) for name, v in rec.scenario_wall.items()}
    values = {
        "dynamics.ode_final_alpha.calls": calls("dynamics.ode_final_alpha"),
        "dynamics.ode_final_alpha.self_s": self_s("dynamics.ode_final_alpha"),
        "dynamics.propagate_ode.calls": calls("dynamics.propagate_ode"),
        "dynamics.propagate_ode.self_s": self_s("dynamics.propagate_ode"),
        "dynamics.rk4_steps": c["dynamics.rk4_steps"],
        "dynamics.rk4_steps_per_s": ratio(c["dynamics.rk4_steps"], steps_s),
        "dynamics.closed_form.calls": calls("dynamics.final_alpha") + calls("dynamics.propagate_closed_form"),
        "dynamics.closed_form.self_s": self_s("dynamics.final_alpha", "dynamics.propagate_closed_form"),
        "optimize.nelder_mead.calls": calls("optimize.nelder_mead"),
        "optimize.nelder_mead.self_s": self_s("optimize.nelder_mead"),
        "optimize.nelder_mead.evals": c["optimize.nelder_mead.evals"],
        "design.objective_evals_per_design": ratio(c["optimize.nelder_mead.evals"], numeric_designs),
        "design.sspe_optimize.self_s": self_s("design.sspe_optimize"),
        "design.clear_optimize.self_s": self_s("design.clear_optimize"),
        "design.sspe_analytic.self_s": self_s("design.sspe_analytic"),
        "design.compare_schemes.self_s": self_s("design.compare_schemes"),
        "design.target_met_ratio": ratio(c["optimize.nelder_mead.target_met"], calls("optimize.nelder_mead")),
        "design.kerr_share": ratio(c["design.kerr_entry_calls"], c["design.entry_calls"]),
        "design.residual_map.calls": calls("design.residual_map"),
        "design.residual_map.self_s": self_s("design.residual_map"),
        "design.residual_map.cells_per_s": ratio(c["design.residual_map.cells"], self_s("design.residual_map")),
        "maps.kerr_share": ratio(c["maps.kerr_calls"], calls("design.residual_map")),
        "optimize.levenberg_marquardt.calls": calls("optimize.levenberg_marquardt"),
        "optimize.levenberg_marquardt.self_s": self_s("optimize.levenberg_marquardt"),
        "optimize.levenberg_marquardt.nfev": c["optimize.levenberg_marquardt.nfev"],
        "fitting.fit_ramsey.self_s": self_s("fitting.fit_ramsey"),
        "fitting.fit_backaction.self_s": self_s("fitting.fit_backaction"),
        "fitting.fit_kerr_calibration.self_s": self_s("fitting.fit_kerr_calibration"),
        "fitting.exp_decay_fit.self_s": self_s("fitting.exp_decay_fit"),
        "fitting.ac_stark_reconstruct.self_s": self_s("fitting.ac_stark_reconstruct"),
        "fitting.kerr_steady_state.calls": calls("fitting.kerr_steady_state"),
        "fitting.kerr_steady_state.self_s": self_s("fitting.kerr_steady_state"),
        "fitting.converged_ratio": ratio(c["fitting.converged"], sum(calls(n) for n in fits)),
        "synth.generate.self_s": self_s("synth.gen_ramsey_dataset", "synth.gen_backaction_sequence", "synth.gen_spectroscopy"),
        "core.complex_rate.calls": c["core.complex_rate.calls"],
        "core.chi_shift.calls": c["core.chi_shift.calls"],
        "pulses.segments_built": c["pulses.segments.calls"],
        "scenarios.run_scenario.self_s": self_s("scenarios.run_scenario"),
        **{f"scenarios.{name}.wall_s": wall.get(name, 0.0) for name in
           ("fig1_maps", "fig2_scaling", "fig3_dynamics", "fig4_backaction", "appC_calibration")},
        "cli.main.self_s": self_s("cli.main"),
        "io.write_s": agg["io"]["total_s"],
        "io.bytes_written": float(getattr(workload, "bytes_written", 0)),
        "trace.overhead_ratio": ratio(traced.verified / traced.busy_s, untraced.verified / untraced.busy_s),
        "verify.worst_margin_log10": min(traced.margins + untraced.margins, default=0.0),
    }
    return {name: {"value": float(values[name]), "unit": unit} for name, unit in PER_LAYER}


# -- main ----------------------------------------------------------------------


def main() -> None:
    import ops

    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(ops.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True, help="minimum busy time to measure")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    cavreset = load_package()
    cls = ops.WORKLOADS[args.workload]
    setup = [] if args.trace else measure_setup(cls.configs)
    scratch = Path(tempfile.mkdtemp(prefix=".perfbench-", dir=ROOT))
    try:
        workload = cls(ROOT, args.seed, cavreset, scratch)
        if args.trace:
            from tracing import Recorder

            untraced = Phase(workload).run(cls.trace_rounds, group=1)
            workload.bytes_written = 0
            rec = Recorder()
            rec.install(cavreset)
            try:
                traced = Phase(workload, rec).run(cls.trace_rounds, group=1)
            finally:
                rec.uninstall()
            phases = [untraced, traced]
            metrics = layer_metrics(rec, traced, untraced, workload)
        else:
            main_phase = Phase(workload).run(cls.min_rounds, args.seconds)
            phases = [main_phase]
            if args.workload == "scenarios":  # rerun each scenario once: bytes must match
                seen = set()
                for op in workload.rounds(0):
                    if op.params["scenario"] not in seen:
                        seen.add(op.params["scenario"])
                        main_phase.execute(op, timed=False)
            lat_ms = [ns * 1e-6 for ns in main_phase.latency_ns]
            tail_ms, tail_pct, n = tail(lat_ms)
            metrics = {
                "setup_s": {"value": statistics.median(setup), "unit": "s"},
                "ops_per_s": {"value": main_phase.verified / main_phase.busy_s, "unit": "1/s"},
                "latency_p50_ms": {"value": statistics.median(lat_ms), "unit": "ms"},
                "latency_tail_ms": {"value": tail_ms, "unit": "ms"},
                "verified_ratio": {"value": main_phase.verified / len(lat_ms), "unit": "ratio"},
                "peak_rss_mb": {"value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "unit": "MB"},
            }
        selftest = phases[-1].self_test()
        known_defects = []
        for op in getattr(workload, "probes", list)():
            probe = Phase(workload)
            probe.execute(op)
            known_defects.append({"input": op.key(), "failure": probe.failures[0]["reason"] if probe.failures else None})
    finally:
        shutil.rmtree(scratch, ignore_errors=True)

    attempted = sum(len(p.keys) + p.reruns for p in phases)
    failures = [f for p in phases for f in p.failures]
    record = run_record(args, workload, phases)
    record.update({
        "busy_s": [round(p.busy_s, 3) for p in phases],
        "error_rate": len(failures) / attempted,
        "failures": failures[:20],
        "self_test": selftest,
        "known_defects": known_defects,
        "worst_margin_log10": min((m for p in phases for m in p.margins), default=None),
    })
    by_kind = {}
    for key, ns in zip(phases[0].keys, phases[0].latency_ns):
        by_kind.setdefault(key["kind"], []).append(ns * 1e-6)
    record["latency_ms_by_kind"] = {k: {"n": len(v), "median": statistics.median(v), "mean": statistics.fmean(v)}
                                    for k, v in sorted(by_kind.items())}
    if not args.trace:
        record.update({"latency_tail_percentile": tail_pct, "latency_samples": n, "setup_samples_s": setup})
    print(json.dumps({"record": record}, sort_keys=True))
    print(json.dumps({
        "correct": not failures and not selftest["accepted"],
        "attempted": attempted,
        "failed": len(failures),
        "metrics": metrics,
    }))


if __name__ == "__main__":
    main()
