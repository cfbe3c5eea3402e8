import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from xtalk.dynamics import (
    IDENTITY,
    QubitState,
    rotation_error,
    rotation_unitary,
    rz,
)

OMEGA = 2 * math.pi * 50e3


def rk4_propagator(omega, delta, duration, steps=10_000):
    """Step-wise integration of the two-level Schroedinger equation."""
    om = complex(omega)
    h = np.array([[-0.5 * delta, 0.5 * om.conjugate()], [0.5 * om, 0.5 * delta]])

    def deriv(u):
        return -1j * h @ u

    u = np.eye(2, dtype=complex)
    dt = duration / steps
    for _ in range(steps):
        k1 = deriv(u)
        k2 = deriv(u + 0.5 * dt * k1)
        k3 = deriv(u + 0.5 * dt * k2)
        k4 = deriv(u + dt * k3)
        u = u + (dt / 6.0) * (k1 + 2 * k2 + 2 * k3 + k4)
    return u


def random_state(rng):
    v = rng.normal(size=4)
    c0 = complex(v[0], v[1])
    c1 = complex(v[2], v[3])
    n = math.hypot(abs(c0), abs(c1))
    return QubitState(c0 / n, c1 / n)


def max_rotation_error(omega, delta, t):
    """The closed-form worst case over initial states, ``sin^2(gen t / 2)``:
    a rotation by ``gen t`` moves a state orthogonal to its axis the most."""
    return math.sin(0.5 * math.hypot(abs(omega), delta) * t) ** 2


def random_unitary(rng):
    omega = complex(rng.normal(), rng.normal()) * OMEGA
    return rotation_unitary(omega, rng.normal() * OMEGA, rng.uniform(0, 4) / OMEGA)


class TestRotationUnitary:
    def test_resonant_pi_pulse(self):
        u = rotation_unitary(OMEGA, 0.0, math.pi / OMEGA)
        assert abs(u[1, 0]) == pytest.approx(1.0, abs=1e-12)
        assert abs(u[0, 1]) == pytest.approx(1.0, abs=1e-12)

    def test_zero_drive_is_identity(self):
        u = rotation_unitary(0.0, 0.0, 1.0)
        assert np.allclose(u, IDENTITY, atol=0)

    @pytest.mark.parametrize("scale", [1e-150, 1e-160, 1e-162, 1e-200, 1e-300])
    def test_tiny_drive_keeps_its_rotation_angle(self, scale):
        # |omega|^2 + delta^2 is subnormal below about 1.5e-154 rad/s
        u = rotation_unitary(0.6 * scale, 0.8 * scale, math.pi / scale)
        assert u[0, 0] == pytest.approx(0.8j, abs=1e-14)
        assert abs(u[1, 0]) == pytest.approx(0.6, rel=1e-14)

    def test_detuned_half_population(self):
        # |omega| = delta puts the maximum transfer at one half
        gen = math.sqrt(2.0) * OMEGA
        t = math.pi / gen
        u = rotation_unitary(OMEGA, OMEGA, t)
        assert abs(u[1, 0]) ** 2 == pytest.approx(0.5, abs=1e-12)
        u_ode = rk4_propagator(OMEGA, OMEGA, t)
        assert np.max(np.abs(u - u_ode)) < 1e-8

    def test_matches_ode_integration(self):
        rng = np.random.default_rng(7)
        for _ in range(5):
            omega = complex(rng.normal(), rng.normal()) * OMEGA
            delta = rng.normal() * OMEGA
            t = rng.uniform(0.1, 3.0) / OMEGA
            u = rotation_unitary(omega, delta, t)
            u_ode = rk4_propagator(omega, delta, t)
            assert np.max(np.abs(u - u_ode)) < 1e-8

    def test_unitarity(self):
        rng = np.random.default_rng(11)
        for _ in range(200):
            u = random_unitary(rng)
            assert np.max(np.abs(u.conj().T @ u - IDENTITY)) <= 1e-10
            assert abs(abs(np.linalg.det(u)) - 1.0) <= 1e-10

    def test_composition(self):
        omega = OMEGA * complex(math.cos(0.7), math.sin(0.7))
        delta = 0.3 * OMEGA
        t1, t2 = 0.4 / OMEGA, 1.1 / OMEGA
        whole = rotation_unitary(omega, delta, t1 + t2)
        split = rotation_unitary(omega, delta, t2) @ rotation_unitary(omega, delta, t1)
        assert np.max(np.abs(whole - split)) < 1e-10

    def test_axis_phase_convention(self):
        # phase 0 rotates about +X, phase pi/2 about +Y
        ux = rotation_unitary(OMEGA, 0.0, 0.5 * math.pi / OMEGA)
        assert ux[0, 1] == pytest.approx(-1j * math.sin(math.pi / 4), abs=1e-12)
        uy = rotation_unitary(OMEGA * 1j, 0.0, 0.5 * math.pi / OMEGA)
        assert uy[0, 1] == pytest.approx(-math.sin(math.pi / 4), abs=1e-12)

    def test_invalid_inputs(self):
        with pytest.raises(ValueError):
            rotation_unitary(complex("nan"), 0.0, 1.0)
        with pytest.raises(ValueError):
            rotation_unitary(1.0, math.inf, 1.0)
        with pytest.raises(ValueError):
            rotation_unitary(1.0, 0.0, -1.0)


class TestApply:
    """A gate acts on a state as ``u @ state.vector``."""

    def test_identity_keeps_ground(self):
        out = QubitState(*(IDENTITY @ QubitState.ground().vector))
        assert out.c0 == pytest.approx(1.0) and out.c1 == pytest.approx(0.0)

    def test_pi_pulse_excites(self):
        u = rotation_unitary(OMEGA, 0.0, math.pi / OMEGA)
        out = QubitState(*(u @ QubitState.ground().vector))
        assert abs(out.c1) ** 2 == pytest.approx(1.0, abs=1e-12)

    def test_norm_preserved(self):
        rng = np.random.default_rng(3)
        for _ in range(100):
            out = QubitState(*(random_unitary(rng) @ random_state(rng).vector))
            assert abs(math.hypot(abs(out.c0), abs(out.c1)) - 1.0) < 1e-12


class TestRotationError:
    def test_identity_gives_zero(self):
        assert rotation_error(QubitState.ground(), IDENTITY) == 0.0

    def test_pi_pulse_gives_one(self):
        u = rotation_unitary(OMEGA, 0.0, math.pi / OMEGA)
        assert rotation_error(QubitState.ground(), u) == pytest.approx(1.0, abs=1e-12)

    def test_orthogonal_state_attains_maximum(self):
        # ground state is orthogonal to any equatorial rotation axis
        for phase in (0.0, 0.9, 2.4):
            omega = OMEGA * complex(math.cos(phase), math.sin(phase))
            t = 0.37 / OMEGA
            u = rotation_unitary(omega, 0.0, t)
            err = rotation_error(QubitState.ground(), u)
            assert err == pytest.approx(max_rotation_error(omega, 0.0, t), abs=1e-12)

    def test_orthogonal_state_attains_maximum_detuned(self):
        omega, delta = 0.8 * OMEGA, 0.6 * OMEGA
        t = 1.3 / OMEGA
        # axis is (o, 0, -d)/gen; Bloch vector (d, 0, o)/gen is orthogonal
        gen = math.hypot(omega, delta)
        theta = math.acos(omega / gen)
        psi = QubitState(math.cos(theta / 2), math.sin(theta / 2))
        u = rotation_unitary(omega, delta, t)
        err = rotation_error(psi, u)
        assert err == pytest.approx(max_rotation_error(omega, delta, t), abs=1e-12)

    @settings(max_examples=60, deadline=None)
    @given(
        alpha=st.floats(-math.pi, math.pi),
        beta=st.floats(-math.pi, math.pi),
        theta=st.floats(0.0, math.pi),
    )
    def test_global_phase_invariance(self, alpha, beta, theta):
        psi = QubitState(math.cos(theta / 2), math.sin(theta / 2))
        phased = QubitState(
            psi.c0 * complex(math.cos(alpha), math.sin(alpha)),
            psi.c1 * complex(math.cos(alpha), math.sin(alpha)),
        )
        u = rotation_unitary(0.6 * OMEGA, 0.2 * OMEGA, 0.8 / OMEGA)
        gu = complex(math.cos(beta), math.sin(beta)) * u
        assert rotation_error(psi, u) == pytest.approx(rotation_error(phased, gu), abs=1e-12)


class TestMaxRotationError:
    """The largest ``rotation_error`` over initial states: resonant, the
    ground state attains it."""

    def test_pi_rotation_is_one(self):
        u = rotation_unitary(OMEGA * complex(math.cos(1.1), math.sin(1.1)), 0.0, math.pi / OMEGA)
        assert rotation_error(QubitState.ground(), u) == pytest.approx(1.0)

    def test_small_area_error_value(self):
        # |omega| t = 0.096 pi reproduces the per-pulse error of a 9.6% drive
        u = rotation_unitary(0.096 * OMEGA, 0.0, math.pi / OMEGA)
        assert rotation_error(QubitState.ground(), u) == pytest.approx(2.26e-2, abs=1e-4)

    def test_brute_force_maximization(self):
        omega = OMEGA * complex(math.cos(0.4), math.sin(0.4)) * 0.7
        delta = 0.5 * OMEGA
        t = 0.9 / OMEGA
        u = rotation_unitary(omega, delta, t)
        rng = np.random.default_rng(17)
        worst = max(rotation_error(random_state(rng), u) for _ in range(1000))
        analytic = max_rotation_error(omega, delta, t)
        assert worst <= analytic + 1e-12
        assert worst == pytest.approx(analytic, abs=1e-6)

    def test_resonant_limit_closed_form(self):
        for f in (0.01, 0.096, 0.2):
            u = rotation_unitary(f * OMEGA, 0.0, math.pi / OMEGA)
            err = rotation_error(QubitState.ground(), u)
            assert err == pytest.approx(math.sin(0.5 * math.pi * f) ** 2, abs=1e-15)


class TestQubitState:
    def test_rejects_unnormalized(self):
        with pytest.raises(ValueError):
            QubitState(1.0, 1.0)

    def test_rejects_non_finite(self):
        with pytest.raises(ValueError):
            QubitState(complex("nan"), 0.0)

    def test_normalized_constructor(self):
        n = math.hypot(3.0, 4.0)
        psi = QubitState(3.0 / n, 4.0j / n)
        assert math.hypot(abs(psi.c0), abs(psi.c1)) == pytest.approx(1.0, abs=1e-15)
        assert abs(psi.c1) ** 2 == pytest.approx(0.64, abs=1e-15)


def test_rz_matches_rotation_about_z():
    u = rz(0.8)
    assert u[0, 0] == pytest.approx(complex(math.cos(0.4), -math.sin(0.4)), abs=1e-15)
    assert u[1, 1] == pytest.approx(complex(math.cos(0.4), math.sin(0.4)), abs=1e-15)
