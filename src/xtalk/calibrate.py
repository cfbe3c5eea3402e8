"""Closed-loop calibration of the cancellation tone.

The chain mirrors experimental practice: measure the crosstalk pi time on
the spectator, match the compensation power to that pi time, then scan the
compensation phase at a long pulse time and fit the population model to
locate the cancellation point.  A separate resonance scan calibrates the
light shift of the driven target.
"""

from __future__ import annotations

import json
import math
import time as _time
from dataclasses import dataclass
from datetime import datetime, timezone
from itertools import count

import numpy as np

from .errors import ConfigError, FitFailureError, LowSignalError, OutOfRangeError
from .field import (
    CompensationSetting,
    CrosstalkContext,
    effective_magnitude_polarized,
    phase_tolerance,
)
from .fitting import FitResult, gauss_newton
from .kernel import _compile_scan
from .pulses import (
    SPECTATOR,
    TARGET,
    ChannelPulse,
    PulseSegment,
    PulseSequence,
    with_pcc,
    _evaluate,
    _target_drive,
)

__all__ = [
    "CalibrationResult",
    "measure_pi_time",
    "calibrate_amplitude",
    "calibrate_phase",
    "calibrate_stark_shift",
    "recalibration_interval",
    "run_full_calibration",
    "save_result",
]

DEFAULT_SHOTS = 200
DEFAULT_SCAN_POINTS = 40
FLOP_POINTS = 20  # durations per Rabi flop scan
STARK_POINTS = 61  # detunings per resonance scan, over +-1.5 omega_0
PHASE_PERIODS = 2  # crosstalk flop periods of the chain's phase scan


@dataclass(frozen=True)
class CalibrationResult:
    """Outcome of one calibration pass."""

    t_pi_ct: float  # s
    f_comp_star: float
    delta_phi_star: float  # rad, in [0, 2 pi)
    delta_ct_star: float  # rad/s
    residual: float  # rms of the phase fit
    timestamp: float  # s since the epoch

    def __post_init__(self):
        if self.t_pi_ct <= 0.0:
            raise ValueError("t_pi_ct must be > 0")
        if self.residual < 0.0:
            raise ValueError("residual must be >= 0")

    def to_dict(self) -> dict:
        return {
            "t_pi_ct_s": self.t_pi_ct,
            "f_comp_star": self.f_comp_star,
            "delta_phi_star_rad": self.delta_phi_star,
            "delta_ct_star_rad_per_s": self.delta_ct_star,
            "residual": self.residual,
            "timestamp": datetime.fromtimestamp(self.timestamp, timezone.utc).isoformat(),
        }


def save_result(result: CalibrationResult, path, diagnostics: dict | None = None) -> None:
    """Write the result as JSON; fit diagnostics go to a ``.diag.json`` sidecar."""
    path = str(path)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(result.to_dict(), fh, indent=2, sort_keys=True)
        fh.write("\n")
    if diagnostics is not None:
        side = path[: -len(".json")] if path.endswith(".json") else path
        with open(side + ".diag.json", "w", encoding="utf-8") as fh:
            json.dump(diagnostics, fh, indent=2, sort_keys=True)
            fh.write("\n")


def _measure(seq, varied, values, ctx, shots, seed, keys, channel=SPECTATOR) -> np.ndarray:
    """Populations of ``channel`` over the scan that gives the one-slice
    ``seq`` each of ``values`` as its ``varied`` value (a duration, the dial
    or the target detuning), compiled by ``kernel._compile_scan``: one call.

    With ``shots`` each point is sampled from the stream ``(seed, k)`` for the
    next ``k`` of ``keys``, a counter shared by repeated scans so that they
    never share draws; without, the analytic populations are returned.
    """
    idx = None if shots is None else [next(keys) for _ in values]
    scan = _evaluate(*_compile_scan(seq, ctx, varied, values), ctx, shots, seed, keys=idx)
    return (scan.populations if shots is None else scan.sampled)[:, channel]


def _compensation_drive(ctx: CrosstalkContext, f_comp: float, duration: float) -> PulseSequence:
    seg = PulseSegment(f_comp * ctx.f_ct * ctx.omega_0, 0.0, ctx.delta_ct, duration)
    return PulseSequence((ChannelPulse(SPECTATOR, (seg,)),))


def _fit_flop_half_period(seq, ctx, t_guess, shots, seed, keys) -> tuple[float, FitResult]:
    """Scan the duration of the one-segment drive ``seq`` over one expected
    period and fit a sinusoid."""
    durations = np.linspace(0.0, 2.0 * t_guess, FLOP_POINTS + 1)[1:]
    pops = _measure(seq, "duration", durations, ctx, shots, seed, keys)
    floor = 1e-9 if shots is None else 5.0 * math.sqrt(0.25 / shots)
    if float(np.max(pops) - np.min(pops)) < floor:
        raise LowSignalError("flop contrast below five times the shot-noise floor")

    def residual(params):
        a, omega = params
        return a * np.sin(0.5 * omega * durations) ** 2 - pops

    def jacobian(params):
        a, omega = params
        half = 0.5 * omega * durations
        return np.stack([np.sin(half) ** 2, 0.5 * a * durations * np.sin(2.0 * half)], axis=1)

    x0 = np.array([max(float(np.max(pops)), 0.1), math.pi / t_guess])
    fit = gauss_newton(
        residual,
        x0,
        bounds=(np.array([0.0, 0.1 * math.pi / t_guess]),
                np.array([1.5, 10.0 * math.pi / t_guess])),
        jacobian=jacobian,
    )
    return math.pi / fit.params[1], fit


def measure_pi_time(
    ctx: CrosstalkContext,
    shots: int | None = DEFAULT_SHOTS,
    seed: int = 0,
    fits: list | None = None,
) -> float:
    """Spectator pi time under crosstalk from a target-channel Rabi scan.

    Scans the target drive duration over one expected spectator flop period
    (``FLOP_POINTS`` samples, ``shots`` measurements each), fits
    ``a sin^2(omega t / 2)`` and returns the fitted half period.  ``shots``
    of ``None`` uses the analytic populations.  The flop fit is appended to
    ``fits`` if given.

    Raises
    ------
    LowSignalError
        If the flop contrast is below five times the shot-noise floor,
        for example when ``f_ct = 0``.
    """
    if ctx.f_ct <= 0.0:
        raise LowSignalError("no crosstalk drive, cannot measure a pi time")
    t_pi, fit = _fit_flop_half_period(
        _target_drive(ctx.omega_0, ctx.t_pi_ct), ctx, ctx.t_pi_ct, shots, seed, count(1)
    )
    if fits is not None:
        fits.append(fit)
    return t_pi


def calibrate_amplitude(
    ctx: CrosstalkContext,
    t_pi_ct: float,
    shots: int | None = DEFAULT_SHOTS,
    seed: int = 0,
    bracket: tuple = (0.25, 4.0),
    fits: list | None = None,
) -> float:
    """Compensation amplitude whose own spectator pi time matches ``t_pi_ct``.

    A compensation-only flop at amplitude ratio ``f`` turns at the rate
    ``G(f) = sqrt((k f)^2 + delta^2)`` with ``k = f_ct omega_0`` and the
    programmed detuning ``delta = ctx.delta_ct``.  One flop scan at
    ``f0 = sqrt(lo hi)`` measures ``t(f0) = pi / G(f0)``; solving for the ``f``
    with ``G(f) = pi / t_pi_ct`` gives
    ``f1 = f0 sqrt(((pi / t_pi_ct)^2 - delta^2) / ((pi / t(f0))^2 - delta^2))``,
    and the same update from a scan at ``f1`` refines it: two scans in all.
    Both flop fits are appended to ``fits`` if given.

    Raises
    ------
    ConfigError
        If ``bracket`` does not enclose the matching amplitude: an estimate
        leaves ``(lo, hi)`` or a rate falls at or below the detuning.
    """
    if t_pi_ct <= 0.0:
        raise ValueError("t_pi_ct must be > 0")
    lo, hi = bracket
    if not 0.0 < lo < hi:
        raise ConfigError("bracket must satisfy 0 < lo < hi")
    delta_sq = ctx.delta_ct**2
    target_sq = (math.pi / t_pi_ct) ** 2 - delta_sq
    if target_sq <= 0.0:
        raise ConfigError("bracket does not enclose the matching amplitude")
    keys = count(1)
    f_comp = math.sqrt(lo * hi)
    for _ in range(2):
        guess = math.pi / (f_comp * ctx.f_ct * ctx.omega_0)
        t_meas, fit = _fit_flop_half_period(
            _compensation_drive(ctx, f_comp, guess), ctx, guess, shots, seed + 1, keys
        )
        if fits is not None:
            fits.append(fit)
        measured_sq = (math.pi / t_meas) ** 2 - delta_sq
        if measured_sq <= 0.0:
            raise ConfigError("bracket does not enclose the matching amplitude")
        f_comp *= math.sqrt(target_sq / measured_sq)
        if not lo < f_comp < hi:
            raise ConfigError("bracket does not enclose the matching amplitude")
    return float(f_comp)


def _phase_scan_fit(
    ctx: CrosstalkContext,
    f_comp: float,
    n_periods: int,
    shots: int | None,
    seed: int,
    points: int,
    t_pi_ct: float,
) -> tuple[float, FitResult]:
    if n_periods < 1:
        raise ValueError("n_periods must be >= 1")
    duration = 2.0 * n_periods * t_pi_ct
    dials = np.arange(points) * (2.0 * math.pi / points)
    template = with_pcc(_target_drive(ctx.omega_0, duration), ctx, CompensationSetting(f_comp, 0.0))
    pops = _measure(template, "phase", dials, ctx, shots, seed + 2, count(1))
    p = ctx.pol_overlap

    def model(a, kappa, offsets):
        mag = effective_magnitude_polarized(f_comp, dials - offsets, p)
        return a * np.sin(math.pi * n_periods * kappa * mag) ** 2

    def residual(params):
        a, kappa, offset = params
        return model(a, kappa, offset) - pops

    def jacobian(params):
        a, kappa, offset = params
        phi = dials - offset
        mag = effective_magnitude_polarized(f_comp, phi, p)
        theta = math.pi * n_periods * kappa * mag
        # d mag / d offset = p f_comp sin(phi) / mag, and sin(2 theta) / mag
        # = 2 pi n kappa sinc(2 theta / pi), which holds where mag is 0
        d_offset = (2.0 * a * (math.pi * n_periods * kappa) ** 2 * p * f_comp * np.sin(phi)
                    * np.sinc(2.0 * theta / math.pi))
        d_kappa = a * np.sin(2.0 * theta) * math.pi * n_periods * mag
        return np.stack([np.sin(theta) ** 2, d_kappa, d_offset], axis=1)

    # seed the phase from a coarse grid to dodge the periodic local optima:
    # one row per trial offset; argmin keeps the smallest dial on ties
    grid = model(1.0, 1.0, dials[:, None]) - pops
    best = float(dials[np.argmin((grid**2).sum(axis=1))])
    fit = gauss_newton(
        residual,
        np.array([1.0, 1.0, best]),
        bounds=(np.array([0.05, 0.5, best - math.pi]),
                np.array([1.5, 1.5, best + math.pi])),
        jacobian=jacobian,
    )
    floor = 1e-6 if shots is None else 3.0 * math.sqrt(0.25 / shots)
    if not fit.converged and fit.residual_rms > floor:
        raise FitFailureError("phase fit diverged", diagnostics=fit.diagnostics())
    dial_star = (math.pi + fit.params[2]) % (2.0 * math.pi)
    return dial_star, fit


def calibrate_phase(
    ctx: CrosstalkContext,
    f_comp: float,
    n_periods: int = 1,
    shots: int | None = DEFAULT_SHOTS,
    seed: int = 0,
    points: int = DEFAULT_SCAN_POINTS,
) -> float:
    """Compensation phase dial that extinguishes the crosstalk.

    Scans the dial over [0, 2 pi) at a pulse time of ``2 n_periods`` crosstalk
    pi times with both the gate pulse and the cancellation tone applied, then
    fits the two-level population model by damped least squares.  Longer
    pulse times (larger ``n_periods``) narrow the feature and sharpen the
    estimate.

    Raises
    ------
    FitFailureError
        If the damped fit stalls with a residual above the shot-noise scale;
        the exception carries the fit diagnostics.
    """
    dial_star, _ = _phase_scan_fit(ctx, f_comp, n_periods, shots, seed, points, ctx.t_pi_ct)
    return dial_star


def calibrate_stark_shift(
    ctx: CrosstalkContext,
    shots: int | None = DEFAULT_SHOTS,
    seed: int = 0,
) -> float:
    """Light shift of the driven target line from a resonance scan.

    Applies a pi pulse at each of ``STARK_POINTS`` scan detunings within
    ``1.5 omega_0`` of the bare resonance, fits the power-broadened
    lineshape and returns the fitted center.  By the sign convention used
    here the spectator detuning to store is minus the returned shift.

    Raises
    ------
    OutOfRangeError
        If the response peaks at the scan edge, i.e. the resonance lies
        outside the scanned range.
    """
    span = 1.5 * ctx.omega_0
    offsets = np.linspace(-span, span, STARK_POINTS)
    t_pi = math.pi / ctx.omega_0
    pops = _measure(_target_drive(ctx.omega_0, t_pi), "detuning", offsets - ctx.stark_shift,
                    ctx, shots, seed + 3, count(1), TARGET)
    peak = int(np.argmax(pops))
    if peak in (0, STARK_POINTS - 1):
        raise OutOfRangeError("resonance lies at the scan edge, beyond 1.5 omega_0")

    om = ctx.omega_0

    def residual(params):
        a, center = params
        u = offsets - center
        gen = np.sqrt(om**2 + u**2)
        return a * (om**2 / gen**2) * np.sin(0.5 * gen * t_pi) ** 2 - pops

    def jacobian(params):
        a, center = params
        u = offsets - center
        gen = np.sqrt(om**2 + u**2)
        flop = np.sin(0.5 * gen * t_pi) ** 2
        # the lineshape's derivative in gen, and d gen / d center = -u / gen
        d_gen = (om**2 / gen**2) * (0.5 * t_pi * np.sin(gen * t_pi) - 2.0 * flop / gen)
        return np.stack([(om**2 / gen**2) * flop, -a * (u / gen) * d_gen], axis=1)

    fit = gauss_newton(
        residual,
        np.array([1.0, offsets[peak]]),
        bounds=(np.array([0.1, -span]), np.array([1.5, span])),
        jacobian=jacobian,
    )
    center = float(fit.params[1])
    if abs(center) >= span:
        raise OutOfRangeError("fitted resonance outside the scanned range")
    return center


def recalibration_interval(drift_rate: float, suppression_target: float) -> float:
    """Minutes between phase recalibrations holding a given error suppression.

    The phase budget is the tolerance from the relative-error model at
    matched amplitude, ``2 asin(sqrt(target) / 2)``, divided by the drift
    rate in rad/min.
    """
    if drift_rate <= 0.0:
        raise ValueError("drift_rate must be > 0")
    if not 0.0 < suppression_target < 1.0:
        raise ValueError("suppression_target must be in (0, 1)")
    return phase_tolerance(suppression_target) / drift_rate


def run_full_calibration(
    ctx: CrosstalkContext,
    shots: int | None = DEFAULT_SHOTS,
    seed: int = 0,
    include_stark: bool = False,
    timestamp: float | None = None,
) -> tuple[CalibrationResult, dict]:
    """Full pi-time, amplitude and phase chain; returns result and diagnostics.

    The phase scan runs for ``PHASE_PERIODS`` flop periods of the measured
    crosstalk pi time.  The diagnostics hold every fit stage:
    ``pi_time_fit``, the two ``amplitude_fits`` and ``phase_fit``, each a
    ``FitResult.diagnostics()``.
    """
    pi_fits, amplitude_fits = [], []
    t_pi = measure_pi_time(ctx, shots=shots, seed=seed, fits=pi_fits)
    f_star = calibrate_amplitude(ctx, t_pi, shots=shots, seed=seed, fits=amplitude_fits)
    dial_star, fit = _phase_scan_fit(
        ctx, f_star, PHASE_PERIODS, shots, seed, DEFAULT_SCAN_POINTS, t_pi
    )
    delta_ct_star = 0.0
    if include_stark:
        delta_ct_star = -calibrate_stark_shift(ctx, shots=shots, seed=seed)
    result = CalibrationResult(
        t_pi_ct=t_pi,
        f_comp_star=f_star,
        delta_phi_star=dial_star,
        delta_ct_star=delta_ct_star,
        residual=fit.residual_rms,
        timestamp=_time.time() if timestamp is None else timestamp,
    )
    return result, {
        "pi_time_fit": pi_fits[0].diagnostics(),
        "amplitude_fits": [f.diagnostics() for f in amplitude_fits],
        "phase_fit": fit.diagnostics(),
    }
