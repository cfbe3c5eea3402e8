"""Coherent field algebra of crosstalk plus a compensation tone.

The compensation tone is described relative to the crosstalk field by an
amplitude ratio ``f_comp`` and a phase ``delta_phi``; perfect cancellation
needs ``f_comp = 1`` and ``delta_phi = pi``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "CompensationSetting",
    "CrosstalkContext",
    "effective_magnitude",
    "effective_magnitude_polarized",
    "pi_pulse_error",
    "relative_error",
    "phase_tolerance",
    "amplitude_tolerance",
]

TWO_PI = 2.0 * math.pi


def _wrap_2pi(phi: float) -> float:
    return phi % TWO_PI


@dataclass(frozen=True)
class CompensationSetting:
    """Relative amplitude and phase of the cancellation tone.

    ``delta_phi`` is stored wrapped to [0, 2*pi).
    """

    f_comp: float
    delta_phi: float

    def __post_init__(self):
        if not math.isfinite(self.f_comp) or self.f_comp < 0.0:
            raise ValueError("f_comp must be finite and >= 0")
        if not math.isfinite(self.delta_phi):
            raise ValueError("delta_phi must be finite")
        object.__setattr__(self, "delta_phi", _wrap_2pi(self.delta_phi))


@dataclass(frozen=True)
class CrosstalkContext:
    """Physical context of one target/spectator channel pair.

    Parameters
    ----------
    omega_0 : float
        Target-ion Rabi frequency in rad/s, > 0.
    f_ct : float
        Crosstalk Rabi ratio |Omega_ct| / omega_0 on the spectator.
    delta_ct : float
        Detuning of the gate light from the spectator resonance (rad/s).
    pol_overlap : float
        Polarization overlap between crosstalk and compensation fields,
        in [0, 1]; 1 means fully interfering fields.
    ct_phase : float
        Optical phase of the crosstalk field relative to the compensation
        phase dial zero (rad); unknown to calibration routines.
    stark_shift : float
        Light shift of the driven target resonance (rad/s); gates track it.
    """

    omega_0: float
    f_ct: float
    delta_ct: float = 0.0
    pol_overlap: float = 1.0
    ct_phase: float = 0.0
    stark_shift: float = 0.0

    def __post_init__(self):
        if not (math.isfinite(self.omega_0) and self.omega_0 > 0.0):
            raise ValueError("omega_0 must be finite and > 0")
        if not (math.isfinite(self.f_ct) and self.f_ct >= 0.0):
            raise ValueError("f_ct must be finite and >= 0")
        if not (0.0 <= self.pol_overlap <= 1.0):
            raise ValueError("pol_overlap must be in [0, 1]")
        for name in ("delta_ct", "ct_phase", "stark_shift"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite")

    @property
    def t_pi(self) -> float:
        """Target pi time, pi / omega_0."""
        return math.pi / self.omega_0

    @property
    def t_pi_ct(self) -> float:
        """Crosstalk pi time on the spectator, pi / (f_ct * omega_0)."""
        rate = self.f_ct * self.omega_0
        if rate <= 0.0:  # f_ct = 0, or a product that underflows to 0
            raise ValueError("t_pi_ct undefined for f_ct * omega_0 = 0")
        return math.pi / rate


def effective_magnitude(f_comp: float, delta_phi: float) -> float:
    """Residual field magnitude ratio |1 + f_comp exp(i delta_phi)|."""
    if f_comp < 0.0:
        raise ValueError("f_comp must be >= 0")
    return float(effective_magnitude_polarized(f_comp, delta_phi, 1.0))


def effective_magnitude_polarized(
    f_comp: float, delta_phi: float | np.ndarray, pol_overlap: float = 1.0
) -> float | np.ndarray:
    """Residual field ratio when the compensation polarization is mismatched.

    A fraction ``pol_overlap`` of the compensation field interferes with the
    crosstalk; the orthogonal remainder still drives the ion but adds in
    quadrature, so it sets a cancellation floor.  Elementwise over an array
    ``delta_phi``.

    The squared ratio ``|1 + p f exp(i delta_phi)|^2 + (1 - p^2) f^2`` is
    written as a sum of non-negative terms, so it keeps full relative
    precision near cancellation.
    """
    if not (0.0 <= pol_overlap <= 1.0):
        raise ValueError("pol_overlap must be in [0, 1]")
    p = pol_overlap
    half = np.cos(0.5 * delta_phi)
    return np.sqrt(
        (1.0 - f_comp) ** 2 + 2.0 * f_comp * (1.0 - p) + 4.0 * p * f_comp * half * half
    )


def pi_pulse_error(
    n_pulses: int, f_ct: float, f_comp: float = 0.0, delta_phi: float = 0.0
) -> float:
    """Spectator rotation error after ``n_pulses`` target pi pulses.

    Closed form ``sin^2(pi n f_eff / 2)`` with
    ``f_eff = f_ct * |1 + f_comp exp(i delta_phi)|``, valid at zero
    spectator detuning.
    """
    if n_pulses < 1:
        raise ValueError("n_pulses must be >= 1")
    f_eff = f_ct * effective_magnitude(f_comp, delta_phi)
    return math.sin(0.5 * math.pi * n_pulses * f_eff) ** 2


def relative_error(f_comp: float, delta_phi: float) -> float:
    """Compensated-to-bare error ratio ``1 + f_comp^2 + 2 f_comp cos(delta_phi)``.

    Equals ``effective_magnitude(f_comp, delta_phi)**2``; the weak-crosstalk
    limit of the ratio of per-pulse errors with and without compensation.
    """
    if f_comp < 0.0:
        raise ValueError("f_comp must be >= 0")
    return float(effective_magnitude_polarized(f_comp, delta_phi, 1.0)) ** 2


def phase_tolerance(suppression: float) -> float:
    """Largest |delta_phi - pi| keeping ``relative_error <= suppression`` at f_comp = 1.

    Inverts ``4 sin^2(x/2) = suppression``.
    """
    if not 0.0 < suppression <= 4.0:
        raise ValueError("suppression must be in (0, 4]")
    return 2.0 * math.asin(math.sqrt(suppression) / 2.0)


def amplitude_tolerance(suppression: float) -> float:
    """Largest |f_comp - 1| keeping ``relative_error <= suppression`` at delta_phi = pi."""
    if suppression < 0.0:
        raise ValueError("suppression must be >= 0")
    return math.sqrt(suppression)
