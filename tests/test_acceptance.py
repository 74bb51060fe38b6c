"""Acceptance criteria for the reset toolkit, one test per criterion.

Each test prints a single PASS/FAIL line with the measured quantity so the
whole slate can be read off a captured run (pytest -rP shows the lines for
passing tests too).  Tolerances are fixed here and must not be loosened.
"""

import cmath
import filecmp
import math
import time
from pathlib import Path

import numpy as np

from cavreset import (
    BackactionModel,
    DriveSegment,
    NoiseSpec,
    PulseSchedule,
    RamseyModel,
    backaction_forward,
    chi_shift,
    clear_optimize,
    compare_schemes,
    critical_photon_number,
    default_device,
    final_alpha,
    fit_backaction,
    fit_kerr_calibration,
    fit_ramsey,
    gen_backaction_sequence,
    gen_ramsey_dataset,
    kerr_steady_state,
    propagate_closed_form,
    propagate_ode,
    ring_up_segment,
    run_all,
    sspe_optimize,
)

MHZ_TO_RAD_NS = 2.0 * math.pi * 1e-3
DEVICE = default_device()
READOUT = ring_up_segment(DEVICE, 0, 5.0, 900.0)
RESET = 50.0


def report(num: int, passed: bool, detail: str) -> None:
    line = f"CRITERION {num:02d}: {'PASS' if passed else 'FAIL'} - {detail}"
    print(line)
    assert passed, line


def reset_schedule(state=0):
    sol = sspe_optimize(DEVICE, state, READOUT, RESET)
    return PulseSchedule((READOUT, sol.segment()))


def test_criterion_01_closed_form_matches_ode():
    sched = reset_schedule()
    cf = propagate_closed_form(DEVICE, sched, 0, sample_dt=0.01)
    t0 = time.perf_counter()
    ode = propagate_ode(DEVICE, sched, 0, dt=0.01)
    elapsed = time.perf_counter() - t0
    assert cf.times.shape == ode.times.shape
    err = float(np.max(np.abs(cf.alpha - ode.alpha)))
    bound = 1e-8 * float(np.max(np.abs(cf.alpha)))
    ok = err < bound and elapsed < 1.0
    report(
        1,
        ok,
        f"max |alpha_cf - alpha_ode| = {err:.3e} (bound {bound:.3e}), "
        f"RK4 at dt=0.01 took {elapsed:.3f} s (bound 1 s)",
    )


def test_criterion_02_analytic_reset_is_exact():
    residuals = [
        float(sspe_optimize(DEVICE, state, READOUT, RESET).residual_photons[state])
        for state in (0, 1)
    ]
    ok = all(r < 1e-20 for r in residuals)
    report(
        2,
        ok,
        f"end-of-window photons state0 = {residuals[0]:.2e}, "
        f"state1 = {residuals[1]:.2e} (bound 1e-20)",
    )


def test_criterion_03_amplitude_scaling_law():
    base = sspe_optimize(DEVICE, 0, READOUT, RESET)
    worst_ratio = 0.0
    worst_phase = 0.0
    for beta in (0.25, 0.5, 1.0, 2.0, 4.0):
        scaled_readout = DriveSegment(READOUT.amplitude * beta, READOUT.phase, READOUT.duration)
        sol = sspe_optimize(DEVICE, 0, scaled_readout, RESET)
        ratio = sol.reset_amplitude / (base.reset_amplitude * beta)
        worst_ratio = max(worst_ratio, abs(ratio - 1.0))
        dphi = abs(sol.reset_phase - base.reset_phase)
        worst_phase = max(worst_phase, min(dphi, 2.0 * math.pi - dphi))
    ok = worst_ratio < 1e-10 and worst_phase < 1e-10
    report(
        3,
        ok,
        f"reset amplitude tracks readout scale: max |ratio-1| = {worst_ratio:.2e}, "
        f"max phase shift = {worst_phase:.2e} rad (bounds 1e-10)",
    )


def test_criterion_04_square_reset_is_bare_cavity_decay():
    comp = compare_schemes(DEVICE, (0,), READOUT, RESET)
    square = comp.metrics("square", 0)
    rate = square.rate_mhz
    rate_ok = abs(rate - DEVICE.kappa) <= 0.02 * DEVICE.kappa

    alpha_tau = final_alpha(DEVICE, PulseSchedule((READOUT,)), 0)
    n_tau = abs(alpha_tau) ** 2
    ratio = square.residual_end / n_tau
    expected = math.exp(-DEVICE.kappa * MHZ_TO_RAD_NS * RESET)
    ratio_ok = abs(ratio - expected) <= 1e-6 * expected
    report(
        4,
        rate_ok and ratio_ok,
        f"square-tail rate = {rate:.4f} MHz vs kappa = {DEVICE.kappa} (2% bound); "
        f"decay ratio = {ratio:.9f} vs e^(-kappa dt) = {expected:.9f} (1e-6 rel)",
    )


def test_criterion_05_engineered_reset_speedup():
    comp = compare_schemes(DEVICE, (0,), READOUT, RESET)
    rate = comp.metrics("sspe", 0).rate_mhz
    bound = 5.0 * DEVICE.kappa
    ok = rate is not None and rate >= bound
    report(
        5,
        ok,
        f"single-segment reset rate = {rate:.2f} MHz >= 5 kappa = {bound:.3f} MHz",
    )


def _ramsey_fixed():
    pull = 0.5 * (chi_shift(DEVICE, 1) - chi_shift(DEVICE, 0))
    return {
        "gamma2": 1.0 / DEVICE.t2_echo,
        "chi": pull * 2.0 * math.pi,
        "kappa": DEVICE.kappa * 2.0 * math.pi,
    }


def _ramsey_trace(n0, noise=None):
    fixed = _ramsey_fixed()
    model = RamseyModel(
        gamma2=fixed["gamma2"],
        fringe=2.0 * math.pi,
        chi=fixed["chi"],
        kappa=fixed["kappa"],
        phi0=0.3,
        n0=n0,
    )
    times = np.linspace(0.0, 2.0, 200)
    return gen_ramsey_dataset(model, times, noise or NoiseSpec.none())


def test_criterion_06_ramsey_photometry():
    fixed = _ramsey_fixed()
    init = {"fringe": 2.0 * math.pi, "phi0": 0.3}

    details = []
    noiseless_ok = True
    for n0 in (0.0, 0.5, 2.0):
        n_hat = fit_ramsey(_ramsey_trace(n0), fixed, init).values["n0"]
        if n0 == 0.0:
            good = abs(n_hat) <= 0.01
        else:
            good = abs(n_hat - n0) <= 0.01 * n0
        noiseless_ok = noiseless_ok and good
        details.append(f"n0={n0:g} -> {n_hat:.4f}")

    estimates = []
    for trial in range(100):
        data = _ramsey_trace(1.0, NoiseSpec.gaussian(0.01, seed=1000 + trial))
        estimates.append(fit_ramsey(data, fixed, init).values["n0"])
    errors = np.abs(np.array(estimates) - 1.0)
    max_err = float(np.max(errors))
    bias = float(np.median(np.array(estimates) - 1.0))
    noisy_ok = max_err <= 0.1 and abs(bias) < 0.02
    report(
        6,
        noiseless_ok and noisy_ok,
        "; ".join(details)
        + f"; 100 noisy trials: max |err| = {max_err:.4f} (<= 0.1), "
        f"median bias = {bias:+.4f} (< 0.02)",
    )


def test_criterion_07_backaction_rates():
    relax = BackactionModel(gamma_out=0.0722, gamma_back=0.01, p0=1.0)
    excite = BackactionModel(gamma_out=0.0005, gamma_back=0.04, p0=1.0)

    clean = fit_backaction(gen_backaction_sequence(relax, 60))
    clean_ok = (
        abs(clean.values["gamma_out"] - 0.0722) <= 1e-5 * 0.0722
        and abs(clean.values["gamma_back"] - 0.01) <= 1e-5 * 0.01
    )

    noisy_relax = fit_backaction(
        gen_backaction_sequence(relax, 60, NoiseSpec.binomial(4000, seed=21))
    )
    relax_err = abs(noisy_relax.values["gamma_out"] - 0.0722)
    noisy_excite = fit_backaction(
        gen_backaction_sequence(excite, 150, NoiseSpec.binomial(4000, seed=22))
    )
    excite_err = abs(noisy_excite.values["gamma_out"] - 0.0005)
    binom_ok = relax_err <= 0.005 and excite_err <= 0.0005

    steady_gap = abs(backaction_forward(relax, 4000) - relax.steady)
    steady_ok = steady_gap < 1e-12

    report(
        7,
        clean_ok and binom_ok and steady_ok,
        f"noiseless gamma recovery rel err <= 1e-5: {clean_ok}; "
        f"binomial 4000-shot gamma_out errors: relax {relax_err:.2e} (<= 5e-3), "
        f"excite {excite_err:.2e} (<= 5e-4); steady-state gap {steady_gap:.1e} (< 1e-12)",
    )


def test_criterion_08_kerr_calibration():
    kerr_dev = DEVICE.with_(kerr_coeff=-0.011)
    delta = (kerr_dev.detuning_r() + chi_shift(kerr_dev, 0)) * MHZ_TO_RAD_NS
    kappa = kerr_dev.kappa * MHZ_TO_RAD_NS
    kc = kerr_dev.kerr_coeff * MHZ_TO_RAD_NS

    def drive_for(n):
        return 0.5 * math.sqrt(n * (4.0 * (delta + kc * n) ** 2 + kappa**2))

    n_cap = 0.8 * critical_photon_number(kerr_dev)
    points = []
    for n in (0.5, 1.0, 2.0, 4.0, 7.0, 10.0, 14.0, 18.0, 22.0, n_cap):
        points.append(((drive_for(n) / 0.02) ** 2, n))
    fit = fit_kerr_calibration(points, DEVICE)
    kerr_hat = fit.values["kerr_khz"]
    fit_ok = abs(kerr_hat - (-11.0)) <= 1.0

    worst = 0.0
    for n_target in (1.0, 5.0, 10.0, 15.0, 20.0, n_cap):
        amp = drive_for(n_target)
        n_cubic = kerr_steady_state(kerr_dev, 0, amp)
        sched = PulseSchedule((DriveSegment(amp, 0.0, 4000.0),))
        n_ode = float(propagate_ode(kerr_dev, sched, 0, dt=0.05).photon[-1])
        worst = max(worst, abs(n_cubic - n_ode) / n_ode)
    ode_ok = worst <= 1e-4
    report(
        8,
        fit_ok and ode_ok,
        f"fitted Kerr = {kerr_hat:.3f} kHz vs -11 +/- 1; cubic-vs-ODE steady photons "
        f"worst rel err = {worst:.2e} (<= 1e-4) up to n = {n_cap:.1f}",
    )


def test_criterion_09_intrinsic_relaxation_probability():
    p = 1.0 - math.exp(-1.0 / DEVICE.t1)
    ok = abs(p - 0.037) <= 1e-4
    report(
        9,
        ok,
        f"per-us relaxation 1 - e^(-1/t1) = {100.0 * p:.4f}% vs 3.70% +/- 0.01%",
    )


def test_criterion_10_scenarios_reproduce_byte_identical(all_reports, tmp_path):
    # the session's shared run against one fresh, independent run
    a, reports_a = all_reports
    b = tmp_path / "runB"
    reports_b = run_all(out_root=b, seed=0, raise_on_fail=False)
    all_passed = all(r.passed for r in reports_a.values()) and all(
        r.passed for r in reports_b.values()
    )

    mismatches = []
    count = 0
    for sub in sorted(p.name for p in a.iterdir()):
        names = sorted(q.name for q in (a / sub).iterdir())
        if names != sorted(q.name for q in (b / sub).iterdir()):
            mismatches.append(f"{sub}: file sets differ")
            continue
        match, bad, errors = filecmp.cmpfiles(a / sub, b / sub, names, shallow=False)
        count += len(match)
        mismatches.extend(f"{sub}/{n}" for n in (*bad, *errors))
    ok = all_passed and not mismatches and count > 0
    report(
        10,
        ok,
        f"all scenarios passed twice and {count} artifact files were byte-identical"
        + (f"; mismatches: {mismatches}" if mismatches else ""),
    )
