import math

import numpy as np
import pytest

from xtalk.errors import DegenerateFitError
from xtalk.fitting import _jacobian, gauss_newton


def test_recovers_exponential_parameters():
    xs = np.linspace(0.0, 3.0, 40)
    truth = np.array([1.7, 0.8])
    data = truth[0] * np.exp(-truth[1] * xs)

    def residual(p):
        return p[0] * np.exp(-p[1] * xs) - data

    fit = gauss_newton(residual, np.array([1.0, 1.0]))
    assert fit.converged
    assert fit.params == pytest.approx(truth, abs=1e-9)
    assert fit.residual_rms < 1e-10


def test_recovers_sinusoid_with_noise():
    rng = np.random.default_rng(5)
    xs = np.linspace(0.0, 2.0 * math.pi, 60)
    truth = np.array([0.9, 2.3])
    data = truth[0] * np.sin(truth[1] * xs) ** 2 + rng.normal(0.0, 0.01, xs.size)

    def residual(p):
        return p[0] * np.sin(p[1] * xs) ** 2 - data

    fit = gauss_newton(residual, np.array([1.0, 2.0]))
    assert fit.params[0] == pytest.approx(0.9, abs=0.02)
    assert fit.params[1] == pytest.approx(2.3, abs=0.02)
    assert fit.covariance is not None
    assert np.all(np.diag(fit.covariance) > 0.0)


def test_residual_trace_is_monotone():
    xs = np.linspace(-1.0, 1.0, 25)
    data = 2.0 * xs**2 + 0.5 * xs

    def residual(p):
        return p[0] * xs**2 + p[1] * xs + p[2] - data

    fit = gauss_newton(residual, np.array([0.0, 0.0, 1.0]))
    trace = fit.residual_trace
    assert all(b <= a + 1e-15 for a, b in zip(trace[:-1], trace[1:]))
    assert fit.residual_rms < 1e-10


def test_jacobian_takes_two_residuals_per_parameter():
    xs = np.linspace(0.0, 1.0, 7)
    calls = []

    def residual(p):
        calls.append(p.copy())
        return p[0] * xs**2 + p[1] * xs + p[2]

    x = np.array([0.5, -1.0, 2.0])
    jac = _jacobian(residual, x, xs.size)
    assert len(calls) == 2 * len(x)
    assert jac == pytest.approx(np.stack([xs**2, xs, np.ones_like(xs)], axis=1), abs=1e-8)


def test_singular_jacobian_raises():
    xs = np.linspace(0.0, 1.0, 10)
    data = xs.copy()

    def residual(p):
        # second parameter never enters
        return p[0] * xs + 0.0 * p[1] - data

    with pytest.raises(DegenerateFitError):
        gauss_newton(residual, np.array([0.5, 0.5]))


def test_bounds_are_respected():
    xs = np.linspace(0.0, 1.0, 20)
    data = 3.0 * xs

    def residual(p):
        return p[0] * xs - data

    fit = gauss_newton(residual, np.array([1.0]), bounds=(np.array([0.0]), np.array([2.0])))
    assert fit.params[0] == pytest.approx(2.0, abs=1e-9)


def test_diagnostics_shape():
    def residual(p):
        return np.array([p[0] - 1.0, p[0] - 1.0])

    fit = gauss_newton(residual, np.array([0.0]))
    diag = fit.diagnostics()
    assert set(diag) == {"iterations", "converged", "stop", "residual_rms", "residual_trace"}
    assert diag["converged"]


def _line(slope, noise=0.0):
    xs = np.linspace(0.0, 1.0, 20)
    data = slope * xs + noise * np.cos(7.0 * xs)
    return lambda p: p[0] * xs + p[1] - data


@pytest.mark.parametrize(
    "residual, x0, max_iter, stop, converged",
    [
        (_line(2.0, noise=0.1), [0.0, 0.0], 60, "tol", True),
        (_line(2.0), [0.0, 0.0], 60, "exact", True),
        # already at the least-squares minimum: no halving improves on it
        (lambda p: np.array([p[0] - 1.0, p[0] + 1.0]), [0.0], 60, "halvings", False),
        (lambda p: np.exp(p) - np.array([2.0, 3.0]), [3.0], 1, "max_iter", False),
    ],
    ids=["tol", "exact", "halvings", "max_iter"],
)
def test_reports_why_it_stopped(residual, x0, max_iter, stop, converged):
    fit = gauss_newton(residual, np.array(x0), max_iter=max_iter)
    assert fit.stop == fit.diagnostics()["stop"] == stop
    assert fit.converged is converged
