"""Least-squares machinery shared by the pulse-design and fit code.

One workhorse lives here: a Levenberg-Marquardt wrapper.  The
data-fitting models use it with a central-difference Jacobian.  The Kerr
route of the reset design uses it to polish the linear-model optimum on
RK4 endpoints, and passes the exact Jacobian of the RK4 map, which its
sensitivity pass computes together with the residuals.  scipy is imported
on the first call, so importing the package does not load it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

#: Central-difference step relative to max(|p_j|, 1).
_REL_STEP = 1e-6

#: Residual evaluations after which Levenberg-Marquardt gives up.
_MAX_NFEV = 2000


def central_difference_jacobian(
    residuals: Callable[[np.ndarray], np.ndarray], params: np.ndarray
) -> np.ndarray:
    """Jacobian d r_i / d p_j by symmetric differences.

    Step per parameter is _REL_STEP * max(|p_j|, 1), which keeps the
    truncation and roundoff errors balanced for parameters spanning many
    decades (rates in 1/us next to photon numbers in tens).
    """
    params = np.asarray(params, dtype=float)
    cols = []
    for j in range(params.size):
        h = _REL_STEP * max(abs(params[j]), 1.0)
        up = params.copy()
        dn = params.copy()
        up[j] += h
        dn[j] -= h
        cols.append((residuals(up) - residuals(dn)) / (2.0 * h))
    return np.column_stack(cols)


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
    residuals: Callable[[np.ndarray], np.ndarray],
    p0: Sequence[float],
    jac: Callable[[np.ndarray], np.ndarray] | None = None,
) -> LMResult:
    """Least-squares fit with LM steps.

    `jac(p)` returns the Jacobian d r_i / d p_j; without it the Jacobian is
    `central_difference_jacobian`.  `nfev` counts residual evaluations only,
    at most _MAX_NFEV.
    """
    from scipy.optimize import least_squares

    if jac is None:
        def jac(p: np.ndarray) -> np.ndarray:
            return central_difference_jacobian(residuals, p)

    p0 = np.asarray(p0, dtype=float)
    res = least_squares(
        residuals,
        p0,
        jac=jac,
        method="lm",
        xtol=1e-14,
        ftol=1e-14,
        gtol=1e-14,
        max_nfev=_MAX_NFEV,
    )
    return LMResult(
        params=res.x,
        cost=float(res.cost),
        residuals=res.fun,
        jac=res.jac,
        nfev=int(res.nfev),
        success=bool(res.success),
        message=str(res.message),
    )
