"""Damped Gauss-Newton least squares for small calibration fits.

The Jacobian is the caller's analytic one.  Each iteration factors it once
(an SVD), stops at the rounding floor when the linear model predicts no
real decrease, and otherwise halves the step until the residual decreases,
so the residual norm is monotone over accepted steps.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import DegenerateFitError

__all__ = ["FitResult", "gauss_newton"]

_MAX_ITER = 60  # iterations before the fit stops
_MAX_HALVINGS = 30  # step halvings per iteration before the fit stops
_TOL = 1e-14  # relative decrease of the squared residual that ends the fit


@dataclass
class FitResult:
    params: np.ndarray
    residual_rms: float
    iterations: int
    converged: bool
    stop: str  # why the iteration ended: "tol", "exact", "floor", "halvings" or "max_iter"
    residual_trace: list = field(default_factory=list)

    def diagnostics(self) -> dict:
        return {
            "iterations": self.iterations,
            "converged": self.converged,
            "stop": self.stop,
            "residual_rms": self.residual_rms,
            "residual_trace": [float(r) for r in self.residual_trace],
        }


def gauss_newton(residual_fn, x0, bounds, jacobian) -> FitResult:
    """Minimize ``sum(residual_fn(x)**2)`` from ``x0``.

    Parameters
    ----------
    residual_fn : callable
        Maps a parameter vector to a residual vector.
    x0 : array-like
        Starting parameters.
    bounds : tuple
        Pair of arrays ``(lower, upper)``; the start and candidate steps are
        clipped to the box.
    jacobian : callable
        Maps a parameter vector to the Jacobian of the residuals, shape
        ``(residuals, parameters)``.

    The fit runs at most 60 iterations.  Each iteration halves its step up
    to 30 times until the residual decreases, and the fit has converged
    once the squared residual decreases by less than 1e-14 relative.  It
    has also converged, with ``stop="floor"`` and no step tried, when the
    decrease the linear model predicts, ``|J step|^2``, is below 1e-14 of
    the squared residual: what is left is rounding.

    Raises
    ------
    DegenerateFitError
        If the Jacobian is numerically rank deficient.
    """
    lo, hi = (np.asarray(b, dtype=float) for b in bounds)
    x = np.clip(np.asarray(x0, dtype=float), lo, hi)

    def residuals(params):
        return np.atleast_1d(np.asarray(residual_fn(params), dtype=float))

    r = residuals(x)
    n_res = r.size
    current = float(np.dot(r, r))
    trace = [math.sqrt(current / n_res)]
    converged = False
    stop = "max_iter"
    for iterations in range(1, _MAX_ITER + 1):
        jac = np.asarray(jacobian(x), dtype=float)
        if not np.all(np.isfinite(jac)):
            raise DegenerateFitError("non-finite Jacobian")
        u, sv, vt = np.linalg.svd(jac, full_matrices=False)
        if sv.size == 0 or sv[0] <= 0.0 or sv[-1] / sv[0] < 1e-12:
            raise DegenerateFitError("singular Jacobian, parameters not identifiable")
        # the least-squares step from the SVD; |J step|^2 = |U^T r|^2
        gain = u.T @ r
        if float(np.dot(gain, gain)) < _TOL * current:
            converged = True
            stop = "floor"
            break
        step = -(vt.T @ (gain / sv))

        accepted = False
        scale = 1.0
        for _ in range(_MAX_HALVINGS + 1):
            cand = np.clip(x + scale * step, lo, hi)
            r_cand = residuals(cand)
            new = float(np.dot(r_cand, r_cand))
            if new < current:
                improvement = (current - new) / max(current, 1e-300)
                x, r, current = cand, r_cand, new
                accepted = True
                break
            scale *= 0.5
        trace.append(math.sqrt(current / n_res))
        if not accepted:
            stop = "halvings"  # no halving improved the residual
            break
        if improvement < _TOL or current < n_res * 1e-28:
            converged = True
            stop = "tol" if improvement < _TOL else "exact"
            break

    if current <= n_res * 1e-24:
        converged = True
    return FitResult(
        params=x,
        residual_rms=math.sqrt(current / n_res),
        iterations=iterations,
        converged=converged,
        stop=stop,
        residual_trace=trace,
    )
