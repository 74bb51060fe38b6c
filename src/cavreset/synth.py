"""Synthetic datasets from the forward models, with seeded noise.

Noise is applied to measured signals and probabilities only; the simulated
cavity field itself stays noise-free (measurement noise, not state noise).
Every generator takes a NoiseSpec and is a pure function of its inputs:
one seed, one dataset, byte-for-byte.
"""

from __future__ import annotations

import csv
import math
import warnings
from dataclasses import dataclass
from pathlib import Path
from typing import Sequence

import numpy as np

from ._artefacts import write_csv as write_samples_csv
from .dynamics import Trajectory, photon_number
from .errors import ConfigError
from .fitting import BackactionModel, RamseyModel, backaction_forward, ramsey_forward

NOISE_KINDS = ("none", "gaussian", "binomial")


class PeakOutsideGrid(UserWarning):
    """A shifted spectral line center fell outside the frequency grid."""


@dataclass(frozen=True)
class NoiseSpec:
    """What noise to apply and with which seed.

    kind "none" returns the forward model exactly; "gaussian" adds
    N(0, sigma^2) per sample; "binomial" replaces each probability p by a
    shots-trial frequency estimate.
    """

    kind: str = "none"
    sigma: float = 0.0
    shots: int = 1
    seed: int = 0

    def __post_init__(self) -> None:
        if self.kind not in NOISE_KINDS:
            raise ConfigError(f"noise kind must be one of {NOISE_KINDS}, got {self.kind!r}")
        if not (math.isfinite(self.sigma) and self.sigma >= 0.0):
            raise ConfigError(f"sigma must be finite and >= 0, got {self.sigma}")
        if self.shots < 1:
            raise ConfigError(f"shots must be >= 1, got {self.shots}")

    @classmethod
    def none(cls) -> "NoiseSpec":
        return cls(kind="none")

    @classmethod
    def gaussian(cls, sigma: float, seed: int = 0) -> "NoiseSpec":
        return cls(kind="gaussian", sigma=sigma, seed=seed)

    @classmethod
    def binomial(cls, shots: int, seed: int = 0) -> "NoiseSpec":
        return cls(kind="binomial", shots=shots, seed=seed)

    def generator(self) -> np.random.Generator:
        """Fresh generator for this spec; one per dataset call."""
        return np.random.Generator(np.random.PCG64(np.random.SeedSequence(self.seed)))

    def apply(self, values: np.ndarray, rng: np.random.Generator | None = None) -> np.ndarray:
        """Noisy copy of `values`; pass rng to chain several draws in one dataset."""
        values = np.asarray(values, dtype=float)
        if self.kind == "none":
            return values.copy()
        if rng is None:
            rng = self.generator()
        if self.kind == "gaussian":
            return values + rng.normal(0.0, self.sigma, size=values.shape)
        clipped = np.clip(values, 0.0, 1.0)
        return rng.binomial(self.shots, clipped) / float(self.shots)


def gen_ramsey_dataset(
    model: RamseyModel,
    times: Sequence[float],
    noise: NoiseSpec = NoiseSpec.none(),
) -> list[tuple[float, float]]:
    """(t_us, S) samples of the Ramsey signal under the given noise."""
    t = np.asarray(times, dtype=float)
    if t.size == 0:
        raise ConfigError("times must be non-empty")
    signal = noise.apply(ramsey_forward(model, t))
    return list(zip(t.tolist(), signal.tolist()))


def gen_backaction_sequence(
    model: BackactionModel,
    m_max: int,
    noise: NoiseSpec = NoiseSpec.none(),
) -> list[tuple[int, float]]:
    """(m, P_m) samples for every measurement cycle m = 1, 2, ..., m_max."""
    if m_max < 1:
        raise ConfigError(f"m_max must be >= 1, got {m_max}")
    m = np.arange(1, m_max + 1)
    probs = noise.apply(backaction_forward(model, m))
    return list(zip(m.tolist(), probs.tolist()))


def gen_spectroscopy(
    traj: Trajectory,
    chi: float,
    linewidth: float,
    freq_grid: Sequence[float],
    noise: NoiseSpec = NoiseSpec.none(),
    line_center: float = 0.0,
    delays: Sequence[float] | None = None,
) -> list[tuple[float, np.ndarray, np.ndarray]]:
    """Lorentzian qubit lines shifted by the instantaneous photon number.

    For each delay t the line sits at line_center + 2*chi*n(t) (ordinary
    MHz) with the given full width at half maximum; amplitudes are excited-
    state probabilities peaking at 1.  delays defaults to every trajectory
    sample, which is usually far denser than wanted for fits.

    Warns:
        PeakOutsideGrid: some shifted center is not bracketed by the grid.
    """
    if not (all(map(math.isfinite, (chi, line_center, linewidth))) and linewidth > 0.0):
        raise ConfigError(f"need finite chi, line_center, linewidth > 0: {chi}, {line_center}, {linewidth}")
    freqs = np.asarray(freq_grid, dtype=float)
    if freqs.size == 0:
        raise ConfigError("freq_grid must be non-empty")
    delays = np.asarray(traj.times if delays is None else delays, dtype=float)
    outside = ~((traj.times[0] <= delays) & (delays <= traj.times[-1]))
    if outside.any():
        photon_number(traj, float(delays[outside][0]))  # raises with its own message
    # photon_number's arithmetic, for every delay at once
    re, im = (np.interp(delays, traj.times, part) for part in (traj.alpha.real, traj.alpha.imag))
    rng = noise.generator()
    half = 0.5 * linewidth
    f_lo, f_hi = float(np.min(freqs)), float(np.max(freqs))

    out = []
    for delay, n in zip(delays.tolist(), (re * re + im * im).tolist()):
        center = line_center + 2.0 * chi * n
        if center < f_lo or center > f_hi:
            warnings.warn(
                f"line center {center:.4g} MHz at delay {delay} ns is outside "
                f"the grid [{f_lo:.4g}, {f_hi:.4g}]",
                PeakOutsideGrid,
                stacklevel=2,
            )
        amps = 1.0 / (1.0 + ((freqs - center) / half) ** 2)
        amps = noise.apply(amps, rng)
        out.append((delay, freqs.copy(), amps))
    return out


def read_samples_csv(path: str | Path) -> list[tuple[float, ...]]:
    """Rows of a finite numeric CSV with a header line."""
    try:
        fh = Path(path).open()
    except OSError as exc:
        raise ConfigError(f"cannot read {path}: {exc}") from exc
    with fh:
        reader = csv.reader(fh)
        try:
            next(reader)
        except StopIteration as exc:
            raise ConfigError(f"{path} is empty") from exc
        try:
            rows = [tuple(float(v) for v in row) for row in reader if row]
        except ValueError as exc:
            raise ConfigError(f"{path} holds non-numeric data: {exc}") from exc
    if not all(math.isfinite(v) for row in rows for v in row):
        raise ConfigError(f"{path} holds NaN or infinite values")
    return rows
