"""Phase-noise processes and hardware models of the addressing chain.

Covers slow ambient drift of the differential optical phase, thermal phase
drift of pulsed fiber AOMs (duty-cycle effect) with its off-resonant
mitigation tone, the beatnote phase detector, and the Ramsey phase probe.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, replace

import numpy as np

from .schema import resolve

__all__ = [
    "DriftProcess",
    "AomModel",
    "DutyCycleState",
    "BeatnoteSetup",
    "sample_slow_drift",
    "diffraction_efficiency",
    "rf_absorption",
    "matched_drive_power",
    "step_duty_cycle",
    "duty_cycle_drift_rate",
    "beatnote_phase_measurement",
    "ramsey_phase_probe",
    "wrap_phase",
    "load_presets",
    "rng",
]

MITIGATION_FREQ_MHZ = 100.0
# relative calibration error of the matched drive power; sets the residual
# mitigated drift, 0.035 rad/s at worst-case duty cycle with the defaults
DEFAULT_MATCH_ERROR = 0.2


def rng(seed, *key) -> np.random.Generator:
    """The random stream keyed on ``(seed, *key)``, each word modulo 2**64.

    Every seeded draw in the package comes from here, so it never depends on
    the order in which scan points are evaluated.
    """
    words = [int(w) & 0xFFFFFFFFFFFFFFFF for w in (seed, *key)]
    return np.random.Generator(np.random.PCG64(np.random.SeedSequence(words)))


@dataclass(frozen=True)
class DriftProcess:
    """Slow differential-phase drift: deterministic ramp plus a random walk.

    ``walk_sigma`` is the standard deviation of trace samples expected over a
    reference window of ``walk_window`` minutes; the Wiener diffusion rate is
    scaled so a random-walk path has that expected sample variance.
    """

    linear_rate: float  # rad/min
    walk_sigma: float  # rad over the reference window
    walk_window: float = 8.0  # min
    preset: str | None = None

    def __post_init__(self):
        if self.walk_sigma < 0.0:
            raise ValueError("walk_sigma must be >= 0")
        if self.walk_window <= 0.0:
            raise ValueError("walk_window must be > 0")

    @classmethod
    def enclosed(cls) -> "DriftProcess":
        """Fiber paths boxed in a passive enclosure."""
        return cls(linear_rate=3.5e-3, walk_sigma=0.05, walk_window=8.0, preset="enclosed")

    @classmethod
    def exposed(cls) -> "DriftProcess":
        """Fiber paths open to ambient temperature and pressure swings."""
        return cls(linear_rate=0.0, walk_sigma=0.49, walk_window=8.0, preset="exposed")

    @property
    def diffusion(self) -> float:
        """Wiener diffusion rate in rad^2/min.

        For a Brownian path on [0, T] the expected sample variance of the
        trace is q*T/6, so q = 6 sigma^2 / T reproduces ``walk_sigma``.
        """
        return 6.0 * self.walk_sigma**2 / self.walk_window


# the named drift presets, as accepted by configs and preset files
DRIFT_PRESETS = {"enclosed": DriftProcess.enclosed, "exposed": DriftProcess.exposed}


def sample_slow_drift(
    process: DriftProcess, duration_min: float, dt_min: float, seed: int = 0
) -> np.ndarray:
    """Differential-phase trace sampled every ``dt_min``, starting at 0.

    Deterministic for a fixed ``(seed, dt, duration)``.
    """
    if dt_min <= 0.0:
        raise ValueError("dt_min must be > 0")
    if duration_min < 0.0:
        raise ValueError("duration_min must be >= 0")
    n_steps = int(round(duration_min / dt_min))
    t = np.arange(n_steps + 1) * dt_min
    trace = process.linear_rate * t
    if process.walk_sigma > 0.0 and n_steps > 0:
        steps = rng(seed).normal(0.0, math.sqrt(process.diffusion * dt_min), size=n_steps)
        trace = trace + np.concatenate([[0.0], np.cumsum(steps)])
    return trace


@dataclass(frozen=True)
class AomModel:
    """Fiber AOM response: optical diffraction, RF absorption, thermal phase.

    The diffraction efficiency is a Gaussian around the center frequency with
    a width chosen so the far-detuned mitigation frequency transmits 1e-4 of
    peak; the RF absorption is a broad Lorentzian at half strength there.
    Absorbed RF power heats the device and shifts the optical path length
    with coefficient ``thermal_coeff`` after low-pass filtering with time
    constant ``thermal_tau``.
    """

    center_mhz: float = 150.0
    efficiency_width_mhz: float = 50.0 / math.sqrt(math.log(1e4))
    absorption_width_mhz: float = 50.0
    thermal_coeff: float = 0.35  # rad per (W * s)
    thermal_tau: float = 10.0  # s
    max_rf_power: float = 1.0  # W (normalized)

    def __post_init__(self):
        for name in ("center_mhz", "efficiency_width_mhz", "absorption_width_mhz",
                     "thermal_tau", "max_rf_power"):
            if getattr(self, name) <= 0.0:
                raise ValueError(f"{name} must be > 0")


def diffraction_efficiency(model: AomModel, f_rf_mhz: float) -> float:
    """Optical diffraction efficiency in [0, 1], peak 1 at the center frequency."""
    if f_rf_mhz <= 0.0:
        raise ValueError("f_rf_mhz must be > 0")
    d = (f_rf_mhz - model.center_mhz) / model.efficiency_width_mhz
    return math.exp(-(d * d))


def rf_absorption(model: AomModel, f_rf_mhz: float) -> float:
    """RF power absorption in [0, 1], Lorentzian around the center frequency."""
    if f_rf_mhz <= 0.0:
        raise ValueError("f_rf_mhz must be > 0")
    g2 = model.absorption_width_mhz**2
    return g2 / ((f_rf_mhz - model.center_mhz) ** 2 + g2)


def matched_drive_power(model: AomModel, mitigation_freq_mhz: float = MITIGATION_FREQ_MHZ) -> float:
    """Resonant drive power absorbing as much as a full-power mitigation tone.

    Solves ``p * absorption(center) = max_rf_power * absorption(f_mitigation)``.
    """
    return (
        model.max_rf_power
        * rf_absorption(model, mitigation_freq_mhz)
        / rf_absorption(model, model.center_mhz)
    )


@dataclass(frozen=True)
class DutyCycleState:
    """Thermal state of the target/spectator AOM pair."""

    filtered_power: tuple = (0.0, 0.0)  # W, low-passed absorbed power per channel
    phase: float = 0.0  # rad, accumulated differential phase
    time: float = 0.0  # s

    def __post_init__(self):
        if len(self.filtered_power) != 2 or any(p < 0.0 for p in self.filtered_power):
            raise ValueError("filtered_power must be two values >= 0")


def step_duty_cycle(state: DutyCycleState, model: AomModel, loads, dt: float) -> DutyCycleState:
    """Advance the thermal state by ``dt`` under constant RF loads.

    ``loads`` holds one ``(power_w, freq_mhz)`` pair per channel (target,
    spectator); a channel may also list several simultaneous tones.  The
    filtered absorbed power relaxes exponentially toward the instantaneous
    absorbed power and the differential phase integrates
    ``thermal_coeff * (p_target - p_spectator)``; both integrals are exact
    for constant loads.
    """
    if dt <= 0.0:
        raise ValueError("dt must be > 0")
    if len(loads) != 2:
        raise ValueError("loads must list the target and spectator channels")
    absorbed = []
    for channel in loads:
        tones = [channel] if channel and np.isscalar(channel[0]) else list(channel)
        total = 0.0
        for power, freq in tones:
            if power < 0.0:
                raise ValueError("RF power must be >= 0")
            total += power * rf_absorption(model, freq)
        absorbed.append(total)

    tau = model.thermal_tau
    decay = math.exp(-dt / tau)
    new_power = tuple(
        p_inf + (p_old - p_inf) * decay
        for p_old, p_inf in zip(state.filtered_power, absorbed)
    )
    # exact integral of the filtered power difference over the step
    d_inf = absorbed[0] - absorbed[1]
    d_old = state.filtered_power[0] - state.filtered_power[1]
    integral = d_inf * dt + (d_old - d_inf) * tau * (1.0 - decay)
    return DutyCycleState(
        filtered_power=new_power,
        phase=state.phase + model.thermal_coeff * integral,
        time=state.time + dt,
    )


def duty_cycle_drift_rate(
    model: AomModel,
    duty_ratio: float,
    mitigated: bool = False,
    match_error: float = DEFAULT_MATCH_ERROR,
    settle_time: float | None = None,
) -> float:
    """Steady-state differential phase drift rate at a given duty-cycle ratio.

    ``duty_ratio`` is the spectator-to-target optical on-time ratio.  Loads
    are applied as cycle averages: unmitigated, the target runs at full power
    on resonance while the spectator is only driven for its probe fraction.
    With mitigation, the spectator AOM additionally absorbs a full-power
    far-detuned tone during the target drive window and the target power is
    turned down to the matched level, miscalibrated by ``match_error``.
    The 2 MHz probe-frequency offset between channels changes the absorption
    by well under the model fidelity and is neglected.
    """
    if not 0.0 <= duty_ratio <= 1.0:
        raise ValueError("duty_ratio must be in [0, 1]")
    if mitigated:
        p_drive = matched_drive_power(model) * (1.0 + match_error)
    else:
        p_drive = model.max_rf_power
    center = model.center_mhz
    target_load = (p_drive, center)
    spectator_tones = [(duty_ratio * p_drive, center)]
    if mitigated:
        spectator_tones.append(((1.0 - duty_ratio) * model.max_rf_power, MITIGATION_FREQ_MHZ))

    if settle_time is None:
        settle_time = 40.0 * model.thermal_tau
    state = DutyCycleState()
    state = step_duty_cycle(state, model, (target_load, spectator_tones), settle_time)
    probe = step_duty_cycle(state, model, (target_load, spectator_tones), 1.0)
    return probe.phase - state.phase


@dataclass(frozen=True)
class BeatnoteSetup:
    """Dual-tone beatnote phase detector configuration."""

    f1_mhz: float = 150.0
    f2_mhz: float = 152.0
    probe_duration_s: float = 100e-6

    def __post_init__(self):
        if self.f2_mhz <= self.f1_mhz:
            raise ValueError("f2 must exceed f1")

    @property
    def delta_f_mhz(self) -> float:
        return self.f2_mhz - self.f1_mhz


def wrap_phase(phi: float) -> float:
    """Wrap a phase to (-pi, pi]."""
    return -((-phi + math.pi) % (2.0 * math.pi) - math.pi)


def beatnote_phase_measurement(
    setup: BeatnoteSetup, true_phase: float, noise_sigma: float = 0.0, seed: int = 0
) -> float:
    """One phase-detector reading: true phase plus Gaussian noise, wrapped to (-pi, pi]."""
    if noise_sigma < 0.0:
        raise ValueError("noise_sigma must be >= 0")
    phi = float(true_phase)
    if noise_sigma > 0.0:
        phi += float(rng(seed).normal(0.0, noise_sigma))
    return wrap_phase(phi)


def ramsey_phase_probe(delta_phi: float, shots: int, seed: int = 0) -> float:
    """Shot-sampled excited fraction of a zero-wait Ramsey phase probe.

    The exact probability is ``(1 - cos(delta_phi)) / 2``.
    """
    if shots < 1:
        raise ValueError("shots must be >= 1")
    p = 0.5 * (1.0 - math.cos(delta_phi))
    p = min(max(p, 0.0), 1.0)
    return float(rng(seed).binomial(shots, p)) / shots


# preset-file keys and the DriftProcess / AomModel fields they set
_DRIFT_FIELDS = {
    "linear_rate_rad_per_min": "linear_rate",
    "walk_sigma_rad": "walk_sigma",
    "walk_window_min": "walk_window",
}
_AOM_FIELDS = {
    "center_mhz": "center_mhz",
    "efficiency_width_mhz": "efficiency_width_mhz",
    "absorption_width_mhz": "absorption_width_mhz",
    "thermal_coeff_rad_per_w_s": "thermal_coeff",
    "thermal_tau_s": "thermal_tau",
    "max_rf_power_w": "max_rf_power",
}
_ABSENT = object()  # default of a preset key: the field keeps its base value


def _fields(section, names: dict, what: str, extra: dict) -> dict:
    """The fields a preset section sets, typed by the schema."""
    table = {key: (float, _ABSENT, "") for key in names} | extra
    given = resolve(section, table, what)
    return {names.get(k, k): v for k, v in given.items() if v is not _ABSENT}


def load_presets(path) -> dict:
    """Load DriftProcess/AomModel constants from a JSON preset file.

    The file may hold a ``drift`` and an ``aom`` section; numeric keys carry
    SI unit suffixes (``_rad_per_min``, ``_mhz``, ``_s``, ...) and take
    finite numbers, ``preset`` one of the drift preset names.  Unknown keys
    and mistyped values raise :class:`ConfigError`; the dataclasses check
    the ranges.
    """
    with open(path, encoding="utf-8") as fh:
        doc = json.load(fh)
    doc = resolve(doc, {"drift": (dict, _ABSENT, ""), "aom": (dict, _ABSENT, "")},
                  "preset file", top=True)
    out = {}
    if doc["drift"] is not _ABSENT:
        kw = _fields(doc["drift"], _DRIFT_FIELDS, "drift",
                     {"preset": (tuple(DRIFT_PRESETS), _ABSENT, "")})
        preset = kw.pop("preset", None)
        base = DriftProcess(0.0, 0.0) if preset is None else DRIFT_PRESETS[preset]()
        out["drift"] = replace(base, **kw)
    if doc["aom"] is not _ABSENT:
        out["aom"] = AomModel(**_fields(doc["aom"], _AOM_FIELDS, "aom", {}))
    return out
