"""Phase-noise processes and hardware models of the addressing chain.

Covers slow ambient drift of the differential optical phase, thermal phase
drift of pulsed fiber AOMs (duty-cycle effect) with its off-resonant
mitigation tone, and the Ramsey phase probe.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields
from functools import lru_cache
from itertools import accumulate, repeat

import numpy as np

__all__ = [
    "DriftProcess",
    "AomModel",
    "DutyCycleState",
    "sample_slow_drift",
    "rf_absorption",
    "matched_drive_power",
    "step_duty_cycle",
    "duty_cycle_drift_rate",
    "ramsey_phase_probe",
]

MITIGATION_FREQ_MHZ = 100.0
# relative calibration error of the matched drive power; sets the residual
# mitigated drift, 0.035 rad/s at worst-case duty cycle with the defaults
DEFAULT_MATCH_ERROR = 0.2
SETTLE_TAUS = 40.0  # thermal time constants before the drift rate is read


# numpy's SeedSequence (bit_generator.pyx): its hash constants, a pool of
# four 32-bit words, and the words PCG64 asks of it, generate_state(4, uint64)
_MASK32, _MASK64 = (1 << 32) - 1, (1 << 64) - 1
_INIT_A, _MULT_A, _INIT_B, _MULT_B = 0x43B0D7E5, 0x931E8875, 0x8B51F9DD, 0x58F38DED
# uint32 scalars: a Python int operand is converted on every array operation
_MIX_L, _MIX_R, _SHIFT = np.uint32(0xCA01F9DD), np.uint32(0x4973F715), np.uint32(16)
_POOL = 4
_STATE_WORDS = 8


def _hash_constants(init: int, mult: int, n: int) -> np.ndarray:
    """``init * mult**k`` modulo 2**32 for ``k < n``, a read-only column;
    computed as masked Python ints, as numpy scalars would warn on overflow."""
    consts = np.array(list(accumulate(repeat(mult, n - 1), lambda c, m: c * m & _MASK32,
                                      initial=init)), dtype=np.uint32)[:, None]
    consts.flags.writeable = False
    return consts


# one hashmix call per pool word, then per ordered pair of them; per state word
_HASH_A = _hash_constants(_INIT_A, _MULT_A, _POOL * _POOL + 1)
_HASH_B = _hash_constants(_INIT_B, _MULT_B, _STATE_WORDS + 1)
_OTHERS = [np.array([d for d in range(_POOL) if d != s]) for s in range(_POOL)]
_STATE_ROWS = np.arange(_STATE_WORDS) % _POOL  # the pool word each state word hashes


def _hashmix(value: np.ndarray, consts: np.ndarray, j: int, rows: int) -> np.ndarray:
    """hashmix of ``rows`` rows of ``value``, or of its one row ``rows``
    times, row i taking the hash constant of call ``j + i``; uint32 arrays
    wrap silently."""
    value = (value ^ consts[j:j + rows]) * consts[j + 1:j + 1 + rows]
    return value ^ value >> _SHIFT


def _mix(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    r = x * _MIX_L - y * _MIX_R
    return r ^ r >> _SHIFT


def _words(value) -> list:
    """``value`` modulo 2**64 as SeedSequence splits it: 32-bit words, low first."""
    value = int(value) & _MASK64
    return [value & _MASK32, value >> 32] if value >> 32 else [value]


@lru_cache(maxsize=1)
def _seeded_type() -> type:
    """An ``ISeedSequence`` that hands ``PCG64`` a precomputed
    ``generate_state(4, uint64)``.  Made on first use: subclassing loads
    ``numpy.random``, which importing the package does not."""

    class Seeded(np.random.bit_generator.ISeedSequence):
        def __init__(self, state: np.ndarray):
            self.state = state

        def generate_state(self, n_words, dtype=np.uint32):
            return self.state

    return Seeded


def _streams(seed, keys) -> list:
    """The random stream keyed on ``(seed, key)``, or on ``key`` alone if
    ``seed`` is None, for every key of ``keys``, each value modulo 2**64:
    ``default_rng(SeedSequence(words))``, bit for bit, keyed in one pass as
    uint32 arithmetic over all keys at once.

    The seed's one or two words and the key's low and high words fill the
    four pool words, 0 in any slot left: SeedSequence hashes 0 for every
    pool word past its entropy, so a key below 2**32 keys as its one word.
    Every seeded draw in the package comes from here, so it never depends on
    the order in which scan points are evaluated.
    """
    head = [] if seed is None else _words(seed)
    keyed = np.array([int(k) & _MASK64 for k in keys], dtype=np.uint64)
    pool = np.zeros((_POOL, len(keyed)), dtype=np.uint32)
    pool[:len(head)] = np.array(head, dtype=np.uint32)[:, None]
    pool[len(head)], pool[len(head) + 1] = keyed & _MASK32, keyed >> 32
    pool = _hashmix(pool, _HASH_A, 0, _POOL)
    for src, others in enumerate(_OTHERS):  # after the pool's calls and earlier sources'
        j = _POOL + len(others) * src
        pool[others] = _mix(pool[others], _hashmix(pool[src], _HASH_A, j, len(others)))
    words = _hashmix(pool[_STATE_ROWS], _HASH_B, 0, _STATE_WORDS).astype(np.uint64)
    # uint64 word k is 32-bit words 2k (low) and 2k + 1, per key
    state = np.ascontiguousarray((words[0::2] | words[1::2] << 32).T)
    seeded = _seeded_type()
    return [np.random.Generator(np.random.PCG64(seeded(s))) for s in state]


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

    def __post_init__(self):
        for name in ("linear_rate", "walk_sigma", "walk_window"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite")
        if self.walk_sigma < 0.0:
            raise ValueError("walk_sigma must be >= 0")
        if self.walk_window <= 0.0:
            raise ValueError("walk_window must be > 0")

    @classmethod
    def enclosed(cls) -> "DriftProcess":
        """Fiber paths boxed in a passive enclosure."""
        return cls(linear_rate=3.5e-3, walk_sigma=0.05, walk_window=8.0)

    @classmethod
    def exposed(cls) -> "DriftProcess":
        """Fiber paths open to ambient temperature and pressure swings."""
        return cls(linear_rate=0.0, walk_sigma=0.49, walk_window=8.0)

    @property
    def diffusion(self) -> float:
        """Wiener diffusion rate in rad^2/min.

        For a Brownian path on [0, T] the expected sample variance of the
        trace is q*T/6, so q = 6 sigma^2 / T reproduces ``walk_sigma``.
        """
        return 6.0 * self.walk_sigma**2 / self.walk_window


# the named drift presets, as accepted by configs
DRIFT_PRESETS = {"enclosed": DriftProcess.enclosed, "exposed": DriftProcess.exposed}


def sample_slow_drift(
    process: DriftProcess, duration_min: float, dt_min: float, seed: int = 0
) -> np.ndarray:
    """Differential-phase trace sampled every ``dt_min``, starting at 0.

    Deterministic for a fixed ``(seed, dt, duration)``.
    """
    return _drift_traces(process, duration_min, dt_min, [seed])[0]


def _check_shots(shots) -> None:
    """Refuse a shot count that is not an integer >= 1, or is a bool."""
    if isinstance(shots, bool) or not isinstance(shots, (int, np.integer)):
        raise ValueError(f"shots must be an integer, got {shots!r}")
    if shots < 1:
        raise ValueError("shots must be >= 1")


def _drift_traces(process: DriftProcess, duration_min: float, dt_min: float, seeds) -> np.ndarray:
    """:func:`sample_slow_drift` for each of ``seeds`` (rows), their streams
    keyed in one pass."""
    if not 0.0 < dt_min < math.inf:
        raise ValueError(f"dt_min must be finite and > 0, got {dt_min!r}")
    if not 0.0 <= duration_min < math.inf:
        raise ValueError(f"duration_min must be finite and >= 0, got {duration_min!r}")
    if not duration_min / dt_min < 2**63:
        raise ValueError("duration_min / dt_min, the step count, must be < 2^63")
    n_steps = int(round(duration_min / dt_min))
    t = np.arange(n_steps + 1) * dt_min
    trace = process.linear_rate * t
    if not (process.walk_sigma > 0.0 and n_steps > 0):
        return np.tile(trace, (len(seeds), 1))
    sigma = math.sqrt(process.diffusion * dt_min)
    steps = np.zeros((len(seeds), n_steps + 1))
    for row, stream in zip(steps, _streams(None, seeds)):
        row[1:] = stream.normal(0.0, sigma, size=n_steps)
    # a sequential sum along each row, in place, as each walk's own
    # np.cumsum: 0 + d is d, since a draw, 0 + sigma * z, is never -0.0
    np.cumsum(steps, axis=1, out=steps)
    steps += trace
    return steps


@dataclass(frozen=True)
class AomModel:
    """Fiber AOM response: RF absorption and thermal phase.

    The RF absorption is a broad Lorentzian around the center frequency, at
    half strength at the far-detuned mitigation frequency.  Absorbed RF power
    heats the device and shifts the optical path length with coefficient
    ``thermal_coeff`` after low-pass filtering with time constant
    ``thermal_tau``.
    """

    center_mhz: float = 150.0
    absorption_width_mhz: float = 50.0
    thermal_coeff: float = 0.35  # rad per (W * s)
    thermal_tau: float = 10.0  # s
    max_rf_power: float = 1.0  # W (normalized)

    def __post_init__(self):
        for f in fields(self):
            if not math.isfinite(getattr(self, f.name)):
                raise ValueError(f"{f.name} must be finite")
        for name in ("center_mhz", "absorption_width_mhz", "thermal_tau", "max_rf_power"):
            if getattr(self, name) <= 0.0:
                raise ValueError(f"{name} must be > 0")


def rf_absorption(model: AomModel, f_rf_mhz: float) -> float:
    """RF power absorption in [0, 1], Lorentzian around the center frequency."""
    if f_rf_mhz <= 0.0:
        raise ValueError("f_rf_mhz must be > 0")
    g2 = model.absorption_width_mhz**2
    return g2 / ((f_rf_mhz - model.center_mhz) ** 2 + g2)


def matched_drive_power(model: AomModel) -> float:
    """Resonant drive power absorbing as much as a full-power mitigation tone
    at ``MITIGATION_FREQ_MHZ``.

    Solves ``p * absorption(center) = max_rf_power * absorption(f_mitigation)``.
    """
    return (
        model.max_rf_power
        * rf_absorption(model, MITIGATION_FREQ_MHZ)
        / rf_absorption(model, model.center_mhz)
    )


@dataclass(frozen=True)
class DutyCycleState:
    """Thermal state of the target/spectator AOM pair."""

    filtered_power: tuple = (0.0, 0.0)  # W, low-passed absorbed power per channel
    phase: float = 0.0  # rad, accumulated differential phase

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
    )


def duty_cycle_drift_rate(
    model: AomModel,
    duty_ratio: float,
    mitigated: bool = False,
    match_error: float = DEFAULT_MATCH_ERROR,
) -> float:
    """Steady-state differential phase drift rate at a given duty-cycle ratio.

    ``duty_ratio`` is the spectator-to-target optical on-time ratio.  Loads
    are applied as cycle averages: unmitigated, the target runs at full power
    on resonance while the spectator is only driven for its probe fraction.
    With mitigation, the spectator AOM additionally absorbs a full-power
    far-detuned tone during the target drive window and the target power is
    turned down to the matched level, miscalibrated by ``match_error``.
    The 2 MHz probe-frequency offset between channels changes the absorption
    by well under the model fidelity and is neglected.  The rate is read
    over one second after ``SETTLE_TAUS`` thermal time constants.
    """
    if not 0.0 <= duty_ratio <= 1.0:
        raise ValueError("duty_ratio must be in [0, 1]")
    if not (math.isfinite(match_error) and match_error > -1.0):  # -1 drives no power
        raise ValueError(f"match_error must be a finite number > -1, got {match_error!r}")
    if mitigated:
        p_drive = matched_drive_power(model) * (1.0 + match_error)
    else:
        p_drive = model.max_rf_power
    center = model.center_mhz
    target_load = (p_drive, center)
    spectator_tones = [(duty_ratio * p_drive, center)]
    if mitigated:
        spectator_tones.append(((1.0 - duty_ratio) * model.max_rf_power, MITIGATION_FREQ_MHZ))

    state = DutyCycleState()
    state = step_duty_cycle(state, model, (target_load, spectator_tones),
                            SETTLE_TAUS * model.thermal_tau)
    probe = step_duty_cycle(state, model, (target_load, spectator_tones), 1.0)
    return probe.phase - state.phase


def ramsey_phase_probe(delta_phi, shots: int, seed: int = 0) -> np.ndarray:
    """Shot-sampled excited fractions of zero-wait Ramsey phase probes, one
    per phase of the array ``delta_phi``, phase i drawn from the stream
    ``(seed, i)``.

    The exact probability is ``(1 - cos(delta_phi)) / 2``.
    """
    _check_shots(shots)
    phases = np.ravel(delta_phi).tolist()
    probs = [min(max(0.5 * (1.0 - math.cos(phi)), 0.0), 1.0) for phi in phases]
    streams = _streams(seed, range(len(probs)))
    return np.array([float(s.binomial(shots, p)) / shots for p, s in zip(probs, streams)])
