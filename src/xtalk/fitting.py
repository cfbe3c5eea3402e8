"""Damped Gauss-Newton least squares for small calibration fits.

The Jacobian is numerical (central differences, relative step 1e-6) and each
iteration halves the step until the residual decreases, so the residual norm
is monotone over accepted steps.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import DegenerateFitError

__all__ = ["FitResult", "gauss_newton"]

_REL_STEP = 1e-6


@dataclass
class FitResult:
    params: np.ndarray
    residual_rms: float
    iterations: int
    converged: bool
    stop: str  # why the iteration ended: "tol", "exact", "halvings" or "max_iter"
    residual_trace: list = field(default_factory=list)
    covariance: np.ndarray | None = None

    def diagnostics(self) -> dict:
        return {
            "iterations": self.iterations,
            "converged": self.converged,
            "stop": self.stop,
            "residual_rms": self.residual_rms,
            "residual_trace": [float(r) for r in self.residual_trace],
        }


def _jacobian(residual_fn, x: np.ndarray, n_res: int) -> np.ndarray:
    jac = np.empty((n_res, x.size))
    for j in range(x.size):
        h = _REL_STEP * max(abs(x[j]), 1.0)
        xp = x.copy()
        xm = x.copy()
        xp[j] += h
        xm[j] -= h
        jac[:, j] = (np.asarray(residual_fn(xp), dtype=float)
                     - np.asarray(residual_fn(xm), dtype=float)) / (2.0 * h)
    return jac


def gauss_newton(
    residual_fn,
    x0,
    bounds=None,
    max_iter: int = 60,
    max_halvings: int = 30,
    tol: float = 1e-14,
) -> FitResult:
    """Minimize ``sum(residual_fn(x)**2)`` from ``x0``.

    Parameters
    ----------
    residual_fn : callable
        Maps a parameter vector to a residual vector.
    x0 : array-like
        Starting parameters.
    bounds : optional
        Pair of arrays ``(lower, upper)``; candidate steps are clipped to
        the box.
    max_iter, max_halvings : int
        Iteration and per-step halving limits.
    tol : float
        Convergence threshold on the relative decrease of the squared
        residual between accepted steps.

    Raises
    ------
    DegenerateFitError
        If the Jacobian is numerically rank deficient.
    """
    x = np.asarray(x0, dtype=float).copy()
    lo = hi = None
    if bounds is not None:
        lo = np.asarray(bounds[0], dtype=float)
        hi = np.asarray(bounds[1], dtype=float)
        x = np.clip(x, lo, hi)

    def residuals(params):
        return np.atleast_1d(np.asarray(residual_fn(params), dtype=float))

    r = residuals(x)
    n_res = r.size
    current = float(np.dot(r, r))
    trace = [math.sqrt(current / n_res)]
    converged = False
    stop = "max_iter"
    jac = None
    iterations = 0
    for iterations in range(1, max_iter + 1):
        jac = _jacobian(residual_fn, x, n_res)
        if not np.all(np.isfinite(jac)):
            raise DegenerateFitError("non-finite Jacobian")
        sv = np.linalg.svd(jac, compute_uv=False)
        if sv.size == 0 or sv[0] <= 0.0 or sv[-1] / sv[0] < 1e-12:
            raise DegenerateFitError("singular Jacobian, parameters not identifiable")
        step, *_ = np.linalg.lstsq(jac, -r, rcond=None)

        accepted = False
        scale = 1.0
        for _ in range(max_halvings + 1):
            cand = x + scale * step
            if lo is not None:
                cand = np.clip(cand, lo, hi)
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
            stop = "halvings"  # the step-halving floor, without improvement
            break
        if improvement < tol or current < n_res * 1e-28:
            converged = True
            stop = "tol" if improvement < tol else "exact"
            break

    if current <= n_res * 1e-24:
        converged = True

    cov = None
    dof = n_res - x.size
    if jac is not None and dof > 0:
        try:
            cov = np.linalg.inv(jac.T @ jac) * (current / dof)
        except np.linalg.LinAlgError:
            cov = None
    return FitResult(
        params=x,
        residual_rms=math.sqrt(current / n_res),
        iterations=iterations,
        converged=converged,
        stop=stop,
        residual_trace=trace,
        covariance=cov,
    )
