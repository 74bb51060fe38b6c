"""Least-squares machinery shared by the pulse-design and fit code.

One entry point, `levenberg_marquardt(model, p0)`, runs MINPACK's
Levenberg-Marquardt `lmder` (Moré 1978) through scipy's `leastsq`, with the
arguments `least_squares(method="lm")` passes to the same call, so the
iterates match it bit for bit without its per-evaluation bookkeeping
(before scipy 1.16 only with `x_scale="jac"`: the default was `diag = 1`).
Every model returns its residuals and their exact Jacobian from one
evaluation: the fits in `fitting` differentiate their formulas, and the
Kerr route of the reset design takes the RK4 map's Jacobian from the
sensitivity pass of `dynamics`.  The wrapper keeps the last evaluation, so
no point is evaluated twice.  scipy is imported on the first call, so
importing the package does not load it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

#: Residual evaluations after which Levenberg-Marquardt gives up.
_MAX_NFEV = 2000


@dataclass
class LMResult:
    params: np.ndarray
    cost: float
    residuals: np.ndarray
    jac: np.ndarray
    nfev: int
    success: bool
    message: str

    def covariance(self) -> np.ndarray | None:
        """Parameter covariance from the final Jacobian, or None if singular.

        Scales inv(J^T J) by the residual variance 2*cost/(m - n); with
        m <= n the variance is undefined and inv(J^T J) is returned bare.
        """
        m, n = self.jac.shape
        jtj = self.jac.T @ self.jac
        try:
            inv = np.linalg.inv(jtj)
        except np.linalg.LinAlgError:
            return None
        if m > n:
            inv = inv * (2.0 * self.cost / (m - n))
        return inv


def levenberg_marquardt(
    model: Callable[[np.ndarray], tuple[np.ndarray, np.ndarray]],
    p0: Sequence[float],
) -> LMResult:
    """Least-squares fit with LM steps.

    `model(p)` returns the residuals r_i and the Jacobian d r_i / d p_j at
    p.  `nfev` counts residual evaluations, at most _MAX_NFEV.
    """
    from scipy.optimize import leastsq

    last: dict = {}

    def evaluate(p: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        key = p.tobytes()
        if last.get("key") != key:
            last["key"], last["value"] = key, model(p)
        return last["value"]

    x, _, info, message, ier = leastsq(
        lambda p: evaluate(p)[0], np.asarray(p0, dtype=float), Dfun=lambda p: evaluate(p)[1],
        full_output=True, ftol=1e-14, xtol=1e-14, gtol=1e-14, maxfev=_MAX_NFEV,
    )
    residuals, jac = evaluate(x)
    return LMResult(
        params=x,
        cost=0.5 * float(np.dot(residuals, residuals)),
        residuals=residuals,
        jac=jac,
        nfev=int(info["nfev"]),
        success=ier in (1, 2, 3, 4),
        message=message,
    )
