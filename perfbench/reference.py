"""Independent reference model of the driven readout cavity.

Written from the model equations alone (no code shared with ``cavreset``):

    d alpha / dt = -i eps - (C_j / 2) alpha - i K_c |alpha|^2 alpha,
    C_j = 2 pi 1e-3 (kappa + 2 i (Delta_r + chi_j))   [rad/ns, inputs in MHz].

Linear segments use the exact exponential map.  With a Kerr term the field
is integrated by scipy's DOP853 at a tight tolerance, an integrator the
package does not use.
"""

from __future__ import annotations

import cmath
import math

import numpy as np
from scipy.integrate import solve_ivp

MHZ = 2.0 * math.pi * 1e-3  # ordinary MHz -> rad/ns


def chi(dev: dict, state: int, source: str) -> float:
    """Dispersive shift chi_j in MHz."""
    if source == "measured":
        chi0 = dev["dressed_freq_0"] - dev["bare_cavity_freq"]
        return chi0 if state == 0 else chi0 + dev["dispersive_shift_01"]
    g2 = dev["coupling"] ** 2
    if g2 == 0.0:
        return 0.0
    delta = dev["qubit_freq"] - dev["bare_cavity_freq"]
    if state == 0:
        return -g2 / delta
    return g2 / delta - 2.0 * g2 / (delta + dev["anharmonicity"])


def rate(dev: dict, state: int, source: str) -> complex:
    """Complex cavity rate C_j in rad/ns."""
    drive = dev.get("drive_freq")
    if drive is None:
        drive = dev["bare_cavity_freq"] + 0.5 * (chi(dev, 0, source) + chi(dev, 1, source))
    detuning = dev["bare_cavity_freq"] - drive + chi(dev, state, source)
    return (dev["kappa"] + 2j * detuning) * MHZ


def linear_step(alpha0, c: complex, drive, duration: float):
    """Exact end of one constant-drive segment (alpha0/drive may be arrays)."""
    decay = cmath.exp(-0.5 * c * duration)
    ss = -2j * drive / c
    return ss + (alpha0 - ss) * decay


def endpoint(dev: dict, state: int, source: str, segments, alpha0: complex = 0j,
             kerr_mhz: float | None = None) -> complex:
    """Field after the (drive, duration) segments; Kerr from dev unless given."""
    c = rate(dev, state, source)
    kerr = (dev.get("kerr_coeff", 0.0) if kerr_mhz is None else kerr_mhz) * MHZ
    a = complex(alpha0)
    for drive, duration in segments:
        if kerr == 0.0:
            a = linear_step(a, c, drive, duration)
        else:
            a = _kerr_segment(a, c, kerr, complex(drive), duration)
    return a


def _kerr_segment(a: complex, c: complex, kerr: float, drive: complex, duration: float) -> complex:
    half_c = 0.5 * c

    def rhs(_t, y):
        x = complex(y[0], y[1])
        dx = -1j * drive - half_c * x - 1j * kerr * (y[0] * y[0] + y[1] * y[1]) * x
        return (dx.real, dx.imag)

    scale = max(abs(a), abs(2.0 * drive / c), 1e-3)
    sol = solve_ivp(rhs, (0.0, duration), (a.real, a.imag), method="DOP853",
                    rtol=1e-12, atol=1e-13 * scale)
    if not sol.success:
        raise RuntimeError(f"reference integration failed: {sol.message}")
    return complex(sol.y[0, -1], sol.y[1, -1])


def readout_amplitude(dev: dict, source: str, photons: float) -> float:
    """Drive whose linear steady state holds `photons` for state 0 (rad/ns)."""
    return math.sqrt(photons) * abs(rate(dev, 0, source)) / 2.0


def kerr_steady_photons(dev: dict, state: int, source: str, amplitude: float, kerr_mhz: float) -> float:
    """Lowest non-negative root of n [4 (delta + K n)^2 + kappa^2] = 4 eps^2."""
    c = rate(dev, state, source)
    kappa, delta, k = c.real, c.imag / 2.0, kerr_mhz * MHZ
    eps2 = amplitude * amplitude
    coeffs = [4.0 * k * k, 8.0 * delta * k, 4.0 * delta * delta + kappa * kappa, -4.0 * eps2]
    roots = np.roots(coeffs) if k != 0.0 else np.array([4.0 * eps2 / (4.0 * delta * delta + kappa * kappa)])
    real = sorted(r.real for r in roots if abs(r.imag) <= 1e-9 * max(1.0, abs(r)) and r.real >= 0.0)
    n = real[0]
    # one Newton step on the cubic removes the root finder's rounding
    f = n * (4.0 * (delta + k * n) ** 2 + kappa * kappa) - 4.0 * eps2
    df = 4.0 * (delta + k * n) ** 2 + kappa * kappa + 8.0 * n * (delta + k * n) * k
    return n - f / df if df else n
