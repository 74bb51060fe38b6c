"""Measurement-analysis models and their least-squares inverses.

Four analysis chains, each a forward model plus a fit:

* Ramsey trace with photon-induced dephasing and frequency shift; fitting
  it recovers the residual photon number n0 at the start of the scan.
* Plain exponential decay (log-linear fit), used for effective reset rates.
* ac-Stark spectroscopy: peak positions shifted by 2*chi*n map spectra back
  to photon numbers.
* Repeated-measurement backaction: geometric approach to a steady-state
  probability, parameterized by per-measurement leave/return rates.

Plus the steady-state response of the weakly nonlinear cavity, the lowest
root of a real cubic in closed form, which anchors the drive-voltage
calibration fit; that fit starts from one linear least-squares solve.

Every fit rejects samples that are not finite (x, y) pairs with ConfigError;
the ac-Stark peak is a parabola vertex in closed form.

Units here follow the data they fit: Ramsey times in us with angular rates
in rad/us; decay samples in ns with rates returned in ordinary MHz;
spectroscopy frequencies in ordinary MHz.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, replace
from typing import Mapping, Sequence

import numpy as np

from .core import MHZ_TO_RAD_NS, DeviceParams, QubitState, complex_rate, qubit_pull
from .errors import ConfigError, NumericError
from .optimize import LMResult, levenberg_marquardt


@dataclass
class FitResult:
    """Named parameters plus convergence metadata from one fit."""

    values: dict[str, float]
    residual_norm: float
    converged: bool
    iterations: int
    covariance_diag: dict[str, float] | None = None

    def to_dict(self) -> dict:
        return asdict(self)


def _lm_fit(
    lm: LMResult, values: dict[str, float], jacobian_sq: Mapping[str, float] | None = None
) -> FitResult:
    """FitResult of one LM run whose parameters map to `values`, in order.

    The covariance diagonal unfolds reparameterizations: the entry of each
    name in `jacobian_sq` is scaled by that squared derivative.
    """
    cov = lm.covariance()
    diag = None
    if cov is not None:
        scale = jacobian_sq or {}
        diag = {
            name: float(var * scale.get(name, 1.0)) for name, var in zip(values, np.diag(cov))
        }
    return FitResult(
        values=values,
        residual_norm=float(np.sum(lm.residuals**2)),
        converged=lm.success,
        iterations=lm.nfev,
        covariance_diag=diag,
    )


def _sample_columns(pts: Sequence[tuple[float, float]], what: str, sort: bool = True) -> np.ndarray:
    """Rows x and y of the samples, sorted by x and then y if sort; ConfigError unless finite pairs."""
    try:
        arr = np.array(pts, dtype=float)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"{what} samples must be (x, y) pairs: {exc}") from exc
    arr = arr.reshape(0, 2) if arr.size == 0 else arr
    if arr.ndim != 2 or arr.shape[1] != 2:
        raise ConfigError(f"{what} samples must be (x, y) pairs, got shape {arr.shape}")
    if not np.isfinite(arr).all():
        raise ConfigError(f"{what} samples must be finite, got NaN or infinity")
    if sort:
        arr = arr[np.lexsort((arr[:, 1], arr[:, 0]))]
    return np.ascontiguousarray(arr.T)


# -- Ramsey ------------------------------------------------------------------


@dataclass(frozen=True)
class RamseyModel:
    """Ramsey signal parameters; all rates angular in rad/us.

    gamma2 is the dephasing rate 1/T2_echo; fringe the deliberate detuning
    of the Ramsey drive; chi and kappa describe the cavity whose leftover
    photons dephase and shift the qubit; n0 is the photon number when the
    scan starts.
    """

    gamma2: float
    fringe: float
    chi: float
    kappa: float
    phi0: float = 0.0
    n0: float = 0.0

    def __post_init__(self) -> None:
        if not all(map(math.isfinite, (self.gamma2, self.fringe, self.chi, self.kappa, self.phi0, self.n0))):
            raise ConfigError(f"Ramsey model fields must be finite, got {self}")
        if self.gamma2 < 0.0:
            raise ConfigError(f"gamma2 must be >= 0, got {self.gamma2}")
        if self.kappa <= 0.0:
            raise ConfigError(f"kappa must be > 0, got {self.kappa}")
        if self.n0 < 0.0:
            raise ConfigError(f"n0 must be >= 0, got {self.n0}")

    @classmethod
    def from_device(
        cls,
        params: DeviceParams,
        chi_source: str = "formula",
        fringe: float = 0.0,
        phi0: float = 0.0,
        n0: float = 0.0,
    ) -> "RamseyModel":
        """Fix gamma2, chi, kappa from device values (rad/us).

        chi is `qubit_pull`, the per-photon qubit pull over two: the
        model's phase term carries the factor of two.
        """
        return cls(
            gamma2=1.0 / params.t2_echo,
            fringe=fringe,
            chi=qubit_pull(params, chi_source) * 2.0 * math.pi,
            kappa=params.kappa * 2.0 * math.pi,
            phi0=phi0,
            n0=n0,
        )


def ramsey_forward(model: RamseyModel, t):
    """Ramsey signal S(t) for t in us (scalar or array), in [0, 1].

    S(t) = (1 - Im exp[-(gamma2 + i*fringe) t + i(phi0 - 2 n0 chi Z(t))]) / 2
    with Z(t) = (1 - exp(-(kappa + 2i chi) t)) / (kappa + 2i chi): the
    integrated cavity response that both dephases (via Im Z) and shifts
    (via Re Z) the qubit while the leftover field decays.
    """
    signal, _, _ = _ramsey_terms(model, np.asarray(t, dtype=float))
    if signal.ndim == 0:
        return float(signal)
    return signal


def _ramsey_terms(model: RamseyModel, t: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(S, E, Z) at times t, with S = (1 - Im E) / 2 and E = exp(exponent).

    The fit differentiates through E and Z: d S / d p = -Im(E d exponent / d p) / 2.
    """
    rate = model.kappa + 2j * model.chi
    z = (1.0 - np.exp(-rate * t)) / rate
    exponent = -(model.gamma2 + 1j * model.fringe) * t + 1j * (
        model.phi0 - 2.0 * model.n0 * model.chi * z
    )
    phasor = np.exp(exponent)
    return 0.5 * (1.0 - np.imag(phasor)), phasor, z


def fit_ramsey(
    samples: Sequence[tuple[float, float]],
    fixed: Mapping[str, float],
    init: Mapping[str, float] | None = None,
) -> FitResult:
    """Recover (fringe, phi0, n0) from a Ramsey trace.

    fixed must supply gamma2, chi, kappa (rad/us); init may supply fringe,
    phi0, n0 starting values.  n0 is kept non-negative by fitting its
    square root.

    Raises:
        ConfigError: a sample that is not a finite pair, or fixed rates
            that no RamseyModel accepts.
        NumericError: fewer than 10 points or a span under 2/kappa.
    """
    times, data = _sample_columns(samples, "Ramsey")
    if times.size < 10:
        raise NumericError(f"need >= 10 Ramsey samples, got {times.size}")
    for key in ("gamma2", "chi", "kappa"):
        if key not in fixed:
            raise ConfigError(f"fixed parameters must include {key}")
    # reject bad fixed rates here, before the span check divides by kappa
    base = RamseyModel(gamma2=fixed["gamma2"], fringe=0.0, chi=fixed["chi"], kappa=fixed["kappa"])
    span = float(times[-1] - times[0])
    if span < 2.0 / fixed["kappa"]:
        raise NumericError(
            f"Ramsey span {span:.4g} us under 2/kappa = {2.0 / fixed['kappa']:.4g} us"
        )
    init = dict(init or {})
    fringe0 = float(init.get("fringe", 0.0))
    phi0_0 = float(init.get("phi0", 0.0))
    n0_0 = max(float(init.get("n0", 0.5)), 1e-4)

    def model(p: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        trial = replace(base, fringe=p[0], phi0=p[1], n0=p[2] * p[2])
        signal, phasor, z = _ramsey_terms(trial, times)
        # d exponent / d (fringe, phi0, u), with n0 = u^2
        d_exponent = np.column_stack([-1j * times, np.full(times.size, 1j), -4j * p[2] * trial.chi * z])
        return signal - data, -0.5 * np.imag(phasor[:, None] * d_exponent)

    lm = levenberg_marquardt(model, [fringe0, phi0_0, math.sqrt(n0_0)])
    u = float(lm.params[2])
    values = {"fringe": float(lm.params[0]), "phi0": float(lm.params[1]), "n0": u * u}
    return _lm_fit(lm, values, {"n0": (2.0 * u) ** 2})


# -- exponential decay ---------------------------------------------------------


def exp_decay_fit(samples: Sequence[tuple[float, float]]) -> FitResult:
    """Log-linear fit n(t) = n0 exp(-rate t) with t in ns.

    The returned rate is an ordinary frequency in MHz (the angular slope
    divided by 2*pi*1e-3), matching how cavity decay rates are quoted.

    Raises:
        ConfigError: a sample that is not a finite (t, n) pair.
        NumericError: fewer than 3 points, or any n <= 0 (take the log
            first elsewhere).
    """
    times, photons = _sample_columns(samples, "decay", sort=False)
    if times.size < 3:
        raise NumericError(f"need >= 3 decay samples, got {times.size}")
    if np.any(photons <= 0.0):
        raise NumericError("decay fit needs strictly positive photon numbers")
    logs = np.log(photons)
    coeffs = np.polyfit(times, logs, 1)
    slope, intercept = float(coeffs[0]), float(coeffs[1])
    fitted = np.polyval(coeffs, times)
    return FitResult(
        values={"n0": math.exp(intercept), "rate": -slope / MHZ_TO_RAD_NS},
        residual_norm=float(np.sum((fitted - logs) ** 2)),
        converged=True,
        iterations=0,
    )


# -- ac-Stark spectroscopy ------------------------------------------------------


def ac_stark_reconstruct(
    spectra: Sequence[tuple[float, Sequence[float], Sequence[float]]],
    chi: float,
    line_center: float,
) -> list[tuple[float, float]]:
    """Photon number per delay from shifted spectroscopy peaks.

    Each entry of spectra is (delay, frequencies, amplitudes); the peak is
    located by a 3-point quadratic interpolation around the maximum sample
    and converted via n = (f_peak - line_center) / (2 chi), all frequencies
    ordinary MHz.  Reconstructed values in [-0.05, 0) clamp to zero; larger
    negatives pass through so a broken model shows up in the output.

    Raises:
        ConfigError: chi or line_center is not finite, chi is zero, or a
            sweep's arrays differ in length.
        NumericError: a sweep has fewer than 5 points, or its maximum sits
            on its first or last point.
    """
    if not (math.isfinite(chi) and chi != 0.0 and math.isfinite(line_center)):
        raise ConfigError(f"chi must be finite and nonzero, line_center finite, got {chi}, {line_center}")
    out = []
    for delay, freqs, amps in spectra:
        f = np.asarray(freqs, dtype=float)
        a = np.asarray(amps, dtype=float)
        if f.size != a.size:
            raise ConfigError("frequency and amplitude arrays must match")
        if f.size < 5:
            raise NumericError(
                f"sweep at delay {delay} has {f.size} points, need >= 5"
            )
        k = int(np.argmax(a))
        if k == 0 or k == f.size - 1:
            raise NumericError(
                f"sweep at delay {delay} peaks at its {'first' if k == 0 else 'last'} point"
            )
        # vertex of a0 + d1 (x - x0) + curv (x - x0)(x - x1), the parabola through
        # the three samples around the max in divided differences
        (x0, x1, x2), (a0, a1, a2) = f[k - 1 : k + 2].tolist(), a[k - 1 : k + 2].tolist()
        d1 = (a1 - a0) / (x1 - x0)
        curv = ((a2 - a1) / (x2 - x1) - d1) / (x2 - x0)
        peak_freq = float(f[k]) if curv == 0.0 else 0.5 * (x0 + x1) - 0.5 * d1 / curv
        n = (peak_freq - line_center) / (2.0 * chi)
        if -0.05 <= n < 0.0:
            n = 0.0
        out.append((float(delay), float(n)))
    return out


# -- repeated-measurement backaction ---------------------------------------------


@dataclass(frozen=True)
class BackactionModel:
    """Geometric relaxation of an occupation probability under measurement.

    gamma_out is the per-measurement probability of leaving the initial
    state, gamma_back of returning to it; p0 the probability at the first
    measurement.
    """

    gamma_out: float
    gamma_back: float
    p0: float

    def __post_init__(self) -> None:
        if not all(map(math.isfinite, (self.gamma_out, self.gamma_back, self.p0))):
            raise ConfigError(f"backaction model fields must be finite, got {self}")
        if self.gamma_out < 0.0 or self.gamma_back < 0.0:
            raise ConfigError("rates must be >= 0")
        if self.gamma_out + self.gamma_back >= 1.0:
            raise ConfigError("gamma_out + gamma_back must be < 1")

    @property
    def steady(self) -> float:
        """P_inf = gamma_back / (gamma_out + gamma_back)."""
        total = self.gamma_out + self.gamma_back
        if total == 0.0:
            raise NumericError("steady state undefined at gamma_out = gamma_back = 0")
        return self.gamma_back / total


def backaction_forward(model: BackactionModel, m):
    """P_m for measurement index m >= 1 (scalar or array).

    P_m = (P0 - P_inf) (1 - gamma_out - gamma_back)^(m-1) + P_inf; with
    both rates zero nothing moves and P_m = P0 exactly.
    """
    m_arr = np.asarray(m)
    if np.any(m_arr < 1):
        raise ConfigError("measurement index starts at m = 1")
    total = model.gamma_out + model.gamma_back
    if total == 0.0:
        result = np.full(m_arr.shape, model.p0, dtype=float)
    else:
        steady = model.steady
        contrast = model.p0 - steady
        result = contrast * (1.0 - total) ** (m_arr - 1.0) + steady
    if result.ndim == 0:
        return float(result)
    return result


def _logit(p: float) -> float:
    p = min(max(p, 1e-9), 1.0 - 1e-9)
    return math.log(p / (1.0 - p))


def _sigmoid(x: float) -> float:
    if x >= 0.0:
        return 1.0 / (1.0 + math.exp(-x))
    e = math.exp(x)
    return e / (1.0 + e)


def fit_backaction(samples: Sequence[tuple[float, float]]) -> FitResult:
    """Recover (gamma_out, gamma_back, p0) from repeated-measurement data.

    Rates are kept in (0, 1) by a logistic reparameterization; starting
    values come from the data (tail mean for the steady state, log-slope of
    the deviations for the geometric ratio).  Constant data is degenerate:
    any gamma_out = gamma_back fits it, so that pair is returned with the
    steady state pinned to the constant.

    Raises:
        ConfigError: a sample that is not a finite (m, P) pair.
        NumericError: fewer than 5 distinct m values.
    """
    m_vals, p_vals = _sample_columns(samples, "backaction")
    if np.unique(m_vals).size < 5:
        raise NumericError("need >= 5 distinct measurement indices")

    tail = max(3, m_vals.size // 5)
    p_inf0 = float(np.mean(p_vals[-tail:]))
    p0_0 = float(p_vals[0])
    deviations = p_vals - p_inf0
    dev_scale = float(np.max(np.abs(deviations)))

    if dev_scale < 1e-12:
        # Flat sequence: started in the steady state, ratio unidentifiable.
        value = float(np.mean(p_vals))
        return FitResult(
            values={"gamma_out": 0.05, "gamma_back": 0.05, "p0": value},
            residual_norm=float(np.sum((p_vals - value) ** 2)),
            converged=True,
            iterations=0,
        )

    keep = np.abs(deviations) > 1e-3 * dev_scale
    if int(keep.sum()) >= 2:
        slope = float(np.polyfit(m_vals[keep], np.log(np.abs(deviations[keep])), 1)[0])
        ratio = min(max(math.exp(slope), 1e-6), 1.0 - 1e-6)
    else:
        ratio = 0.9
    gamma_sum = 1.0 - ratio
    gb0 = min(max(p_inf0 * gamma_sum, 1e-6), 0.5)
    go0 = min(max(gamma_sum - gb0, 1e-6), 0.5)

    k = m_vals - 1.0

    def model(p: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        go = _sigmoid(p[0])
        gb = _sigmoid(p[1])
        total = go + gb
        steady = gb / total
        contrast = p[2] - steady
        power = (1.0 - total) ** k
        # d power / d total; skipped at k = 0, where 0 * (1 - total)^-1 is NaN at total = 1
        d_power = -k * np.power(1.0 - total, k - 1.0, out=np.zeros_like(k), where=k != 0.0)
        # steady moves by -steady/total per unit gamma_out and (1 - steady)/total per gamma_back
        d_go = -steady / total * (1.0 - power) + contrast * d_power
        d_gb = (1.0 - steady) / total * (1.0 - power) + contrast * d_power
        jac = np.column_stack([d_go * go * (1.0 - go), d_gb * gb * (1.0 - gb), power])
        return contrast * power + steady - p_vals, jac

    lm = levenberg_marquardt(model, [_logit(go0), _logit(gb0), p0_0])
    go = _sigmoid(float(lm.params[0]))
    gb = _sigmoid(float(lm.params[1]))
    values = {"gamma_out": go, "gamma_back": gb, "p0": float(lm.params[2])}
    return _lm_fit(
        lm, values, {"gamma_out": (go * (1.0 - go)) ** 2, "gamma_back": (gb * (1.0 - gb)) ** 2}
    )


# -- Kerr steady state and drive calibration ----------------------------------------


def kerr_steady_state(
    params: DeviceParams,
    state: QubitState | int,
    drive_amp: float,
    chi_source: str = "formula",
) -> float:
    """Steady-state photon number of the (weakly) Kerr-shifted cavity.

    Solves n [4 (delta + K_c n)^2 + kappa^2] = 4 eps^2 (angular rad/ns
    throughout; delta = Im C / 2 and kappa = Re C from `complex_rate`) for
    the smallest non-negative root: the low-photon branch reached by ringing
    up from vacuum.  Every real root is positive.  With n = n_lin / z, where
    n_lin = 4 eps^2 / (4 delta^2 + kappa^2) is the linear response, the
    cubic becomes z^3 - z^2 - p z - q = 0, whose coefficients stay bounded
    as K_c -> 0, and the wanted root is its largest real z: the
    trigonometric form when there are three real roots, Cardano's form
    otherwise.  At most two Newton steps on the original cubic follow.
    """
    return _kerr_root(complex_rate(params, state, chi_source), params.kerr_coeff * MHZ_TO_RAD_NS, drive_amp)


def _kerr_root(c: complex, kc: float, drive_amp: float) -> float:
    """`kerr_steady_state` for a known complex rate C and K_c in rad/ns."""
    eps = float(drive_amp)
    if not (math.isfinite(eps) and eps >= 0.0):
        raise ConfigError(f"drive amplitude must be finite and >= 0, got {drive_amp}")
    if eps == 0.0:
        return 0.0
    delta, kappa = 0.5 * c.imag, c.real
    linear = 4.0 * delta * delta + kappa * kappa
    n_lin = 4.0 * eps * eps / linear
    if kc == 0.0:
        return n_lin

    p = 8.0 * delta * kc * n_lin / linear
    q = 4.0 * kc * kc * n_lin * n_lin / linear
    # depressed cubic t^3 + a t + b = 0 with z = t + 1/3
    a = -(p + 1.0 / 3.0)
    b = -(2.0 / 27.0 + p / 3.0 + q)
    disc = 0.25 * b * b + a * a * a / 27.0
    if disc < 0.0:
        r = math.sqrt(-a / 3.0)
        cos3 = min(max(-0.5 * b / (r * r * r), -1.0), 1.0)
        t = 2.0 * r * math.cos(math.acos(cos3) / 3.0)
    else:
        u = float(np.cbrt(-0.5 * b + math.copysign(math.sqrt(disc), -b)))
        t = u - a / (3.0 * u) if u != 0.0 else 0.0
    root = n_lin / (t + 1.0 / 3.0)

    for _ in range(2):
        shifted = delta + kc * root
        value = root * (4.0 * shifted * shifted + kappa * kappa) - 4.0 * eps * eps
        deriv = 4.0 * shifted * shifted + kappa * kappa + 8.0 * root * shifted * kc
        if deriv == 0.0:
            break
        step = value / deriv
        candidate = root - step
        if candidate < 0.0 or not math.isfinite(candidate):
            break
        root = candidate
        if abs(step) < 1e-15 * max(root, 1.0):
            break
    return root


def fit_kerr_calibration(
    points: Sequence[tuple[float, float]],
    params: DeviceParams,
    state: QubitState | int = QubitState.GROUND,
    chi_source: str = "formula",
) -> FitResult:
    """Fit (volt_to_eps, kerr_khz) to steady-state (V^2, n) calibration data.

    The model is n = kerr_steady_state(eps = volt_to_eps * V) with the Kerr
    coefficient free, reported as an ordinary frequency in kHz.  The
    steady-state condition n [4 (delta + K n)^2 + kappa^2] = 4 s^2 V^2 is
    linear in (s^2, K, K^2), so one least-squares solve gives the start;
    Levenberg-Marquardt then fits the photon numbers themselves, because
    the algebraic estimate is biased under noise.

    Raises:
        ConfigError: a point that is not a finite pair, or a negative V^2.
        NumericError: fewer than 6 points.
    """
    v2, n_meas = _sample_columns(points, "calibration")
    if v2.size < 6:
        raise NumericError(f"need >= 6 calibration points, got {v2.size}")
    if np.any(v2 < 0.0):
        raise ConfigError("squared voltages must be >= 0")

    c = complex_rate(params, state, chi_source)
    delta, kappa = 0.5 * c.imag, c.real
    design = np.column_stack([4.0 * v2, -8.0 * delta * n_meas**2, -4.0 * n_meas**3])
    norms = np.linalg.norm(design, axis=0)
    norms[norms == 0.0] = 1.0
    rhs = n_meas * (4.0 * delta * delta + kappa * kappa)
    start = np.linalg.lstsq(design / norms, rhs, rcond=None)[0] / norms
    volts = np.sqrt(v2)

    def model(p: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        scale, kerr_khz = float(p[0]), float(p[1])
        kc = kerr_khz * 1e-3 * MHZ_TO_RAD_NS
        eps = abs(scale) * volts
        n = np.array([_kerr_root(c, kc, e) for e in eps])
        # implicit derivatives of f(n) = n [4 (delta + K n)^2 + kappa^2] - 4 eps^2 = 0
        shifted = delta + kc * n
        f_n = 4.0 * shifted * shifted + kappa * kappa + 8.0 * kc * n * shifted
        d_scale = 8.0 * eps / f_n * math.copysign(1.0, scale) * volts
        d_kerr = -8.0 * n * n * shifted / f_n * (1e-3 * MHZ_TO_RAD_NS)
        return n - n_meas, np.column_stack([d_scale, d_kerr])

    lm = levenberg_marquardt(model, [math.sqrt(abs(start[0])), start[1] / MHZ_TO_RAD_NS * 1e3])
    return _lm_fit(
        lm, {"volt_to_eps": abs(float(lm.params[0])), "kerr_khz": float(lm.params[1])}
    )
