"""Exact two-level unitary evolution under complex Rabi drives.

Conventions used throughout the package:

* States live in the frame rotating at the drive laser frequency, so the
  optical carrier phase is absorbed and all drive phases are frame phases.
* A drive with axis phase ``phi = 0`` rotates about +X, ``phi = pi/2``
  about +Y.
* ``detuning`` is the drive frequency minus the qubit frequency (rad/s).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "QubitState",
    "check_states",
    "IDENTITY",
    "SIGMA_X",
    "SIGMA_Y",
    "SIGMA_Z",
    "rotation_unitary",
    "rz",
    "apply",
    "rotation_error",
    "max_rotation_error",
    "is_unitary",
]

IDENTITY = np.eye(2, dtype=complex)
SIGMA_X = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
SIGMA_Y = np.array([[0.0, -1.0j], [1.0j, 0.0]], dtype=complex)
SIGMA_Z = np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex)

_NORM_TOL = 1e-6


@dataclass(frozen=True)
class QubitState:
    """Normalized two-level state with amplitudes ``c0`` for |0> and ``c1`` for |1>."""

    c0: complex
    c1: complex

    def __post_init__(self):
        check_states([self.c0, self.c1])

    @classmethod
    def ground(cls) -> "QubitState":
        return cls(1.0 + 0.0j, 0.0j)

    @classmethod
    def excited(cls) -> "QubitState":
        return cls(0.0j, 1.0 + 0.0j)

    @classmethod
    def normalized(cls, c0: complex, c1: complex) -> "QubitState":
        n = math.hypot(abs(c0), abs(c1))
        if n == 0.0:
            raise ValueError("cannot normalize the zero vector")
        return cls(c0 / n, c1 / n)

    @property
    def vector(self) -> np.ndarray:
        return np.array([self.c0, self.c1], dtype=complex)

    def norm(self) -> float:
        return math.sqrt(abs(self.c0) ** 2 + abs(self.c1) ** 2)

    def excited_population(self) -> float:
        return float(abs(self.c1) ** 2)


def check_states(amplitudes) -> None:
    """Raise ``ValueError`` unless every state ``(..., 2)`` is finite and normalized."""
    a = np.asarray(amplitudes, dtype=complex)
    if not np.isfinite(a).all():
        raise ValueError("state amplitudes must be finite")
    norm = np.sqrt(np.sum(np.abs(a) ** 2, axis=-1))
    off = np.abs(norm - 1.0) > _NORM_TOL
    if off.any():
        raise ValueError(f"state not normalized: |psi| = {float(np.extract(off, norm)[0])!r}")


def _check_finite(*values: float) -> None:
    for v in values:
        if not math.isfinite(v):
            raise ValueError("non-finite input")


def rotation_unitary(omega: complex, detuning: float, duration: float) -> np.ndarray:
    """Propagator of a constant two-level drive in the drive's rotating frame.

    The Hamiltonian is ``H = (|omega|/2)(cos(phi) X + sin(phi) Y) - (detuning/2) Z``
    with ``phi = arg(omega)``, whose exact propagator is a rotation by angle
    ``gen * duration`` about the tilted axis, where ``gen = sqrt(|omega|^2 +
    detuning^2)`` is the generalized Rabi frequency.

    Parameters
    ----------
    omega : complex
        Rabi frequency in rad/s; its complex phase is the rotation axis phase.
    detuning : float
        Drive detuning from the qubit resonance in rad/s.
    duration : float
        Pulse duration in seconds, must be >= 0.
    """
    om = complex(omega)
    _check_finite(om.real, om.imag, detuning, duration)
    if duration < 0.0:
        raise ValueError("duration must be >= 0")
    gen = math.sqrt(abs(om) ** 2 + detuning**2)
    if gen == 0.0 or duration == 0.0:
        return IDENTITY.copy()
    half_angle = 0.5 * gen * duration
    c = math.cos(half_angle)
    s = math.sin(half_angle)
    nx = om.real / gen
    ny = om.imag / gen
    nz = -detuning / gen
    return np.array(
        [
            [c - 1.0j * s * nz, -1.0j * s * (nx - 1.0j * ny)],
            [-1.0j * s * (nx + 1.0j * ny), c + 1.0j * s * nz],
        ],
        dtype=complex,
    )


def rz(angle) -> np.ndarray:
    """Z rotation ``exp(-i angle Z / 2)``; an array of angles gives a stack."""
    half = np.exp(0.5j * np.multiply.outer(angle, [-1.0, 1.0]))
    return half[..., None] * IDENTITY


def apply(unitary: np.ndarray, state: QubitState) -> QubitState:
    """Apply a 2x2 unitary to a qubit state."""
    out = np.asarray(unitary, dtype=complex) @ state.vector
    return QubitState(out[0], out[1])


def rotation_error(state: QubitState, unitary: np.ndarray) -> float:
    """Overlap-based rotation error ``1 - |<psi|U|psi>|^2`` in [0, 1]."""
    amp = np.vdot(state.vector, np.asarray(unitary, dtype=complex) @ state.vector)
    err = 1.0 - abs(amp) ** 2
    return float(min(max(err, 0.0), 1.0))


def max_rotation_error(omega_eff: complex, detuning: float, duration: float) -> float:
    """Rotation error maximized over initial states.

    For a rotation by angle ``gen * t`` about any axis, initial states whose
    Bloch vector is orthogonal to that axis attain the maximum error
    ``sin^2(gen * t / 2)`` with ``gen = sqrt(|omega|^2 + detuning^2)``.  At
    zero detuning this is ``sin^2(|omega| t / 2)``.
    """
    om = complex(omega_eff)
    _check_finite(om.real, om.imag, detuning, duration)
    if duration < 0.0:
        raise ValueError("duration must be >= 0")
    gen = math.sqrt(abs(om) ** 2 + detuning**2)
    return math.sin(0.5 * gen * duration) ** 2


def is_unitary(matrix: np.ndarray, tol: float = 1e-10) -> bool:
    m = np.asarray(matrix, dtype=complex)
    if m.shape != (2, 2):
        return False
    dev = np.max(np.abs(m.conj().T @ m - IDENTITY))
    return bool(dev <= tol and abs(abs(np.linalg.det(m)) - 1.0) <= tol)
