"""Construction and simulation of two-channel addressing pulse sequences.

A sequence holds per-channel lists of square segments.  Channel 0 addresses
the target ion and channel 1 the spectator.  During simulation each ion sees
its own channel's field plus a fraction ``f_ct`` of the other channel's
field (the crosstalk), evolved exactly with 2x2 propagators in the ion's own
frame so that off-resonant light also produces the physical phase shifts.

Simulation runs in one kernel, :mod:`xtalk.kernel`.  :func:`simulate_scan`
evolves both ions from the ground state through one sequence per scan
point in one kernel call; :func:`sequence_unitaries` returns one sequence's
gate per ion, for any other initial state (``dynamics.apply``).  Trains are
built by :func:`pi_trains`: the shorter ones are prefixes of the longest,
whose shared slices the kernel multiplies once.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from functools import lru_cache, reduce
from itertools import accumulate, chain, repeat
from operator import add

import numpy as np

from .dynamics import check_states
from .errors import ChannelConflictError
from .field import CompensationSetting, CrosstalkContext
from .kernel import SPECTATOR, TARGET, _abs2, _compile, _propagate
from .noise import rng

__all__ = [
    "TARGET",
    "SPECTATOR",
    "PulseSegment",
    "ChannelPulse",
    "PulseSequence",
    "SimulationResult",
    "square_pi",
    "sk1",
    "quadrilateral",
    "quad_frame_step",
    "pi_trains",
    "ramsey_wrap",
    "with_pcc",
    "concat",
    "simulate_scan",
    "sequence_unitaries",
]

SK1_PHI1 = math.acos(-1.0 / 4.0)  # inner-loop axis offset for a pi rotation


@dataclass(frozen=True)
class PulseSegment:
    """One square drive segment.

    ``amplitude`` is the Rabi frequency magnitude (rad/s), ``phase`` the
    rotation-axis phase (rad), ``detuning`` the drive offset from the ion the
    channel addresses (rad/s) and ``duration`` the length in seconds.
    """

    amplitude: float
    phase: float
    detuning: float = 0.0
    duration: float = 0.0

    def __post_init__(self):
        if self.duration < 0.0:
            raise ValueError("duration must be >= 0")
        if self.amplitude < 0.0:
            raise ValueError("amplitude must be >= 0; use the phase for the sign")
        for name in ("amplitude", "phase", "detuning", "duration"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite")


@dataclass(frozen=True)
class ChannelPulse:
    channel: int
    segments: tuple

    def __post_init__(self):
        if self.channel not in (TARGET, SPECTATOR):
            raise ValueError(f"channel must be TARGET (0) or SPECTATOR (1), got {self.channel!r}")
        object.__setattr__(self, "segments", tuple(self.segments))

    @property
    def total_duration(self) -> float:
        # left to right: the built-in sum compensates from Python 3.12 on
        return reduce(add, (s.duration for s in self.segments), 0.0)


@dataclass(frozen=True)
class PulseSequence:
    """Time-aligned channel pulses."""

    channels: tuple

    def __post_init__(self):
        object.__setattr__(self, "channels", tuple(self.channels))
        ids = [cp.channel for cp in self.channels]
        if len(set(ids)) != len(ids):
            raise ValueError("duplicate channel ids")

    def channel(self, channel_id: int) -> ChannelPulse:
        for cp in self.channels:
            if cp.channel == channel_id:
                return cp
        return ChannelPulse(channel_id, ())

    @property
    def total_duration(self) -> float:
        return max((cp.total_duration for cp in self.channels), default=0.0)


def square_pi(omega_0: float, phase: float = 0.0) -> PulseSequence:
    """Plain square pi pulse on the target channel, duration pi / omega_0."""
    if omega_0 <= 0.0:
        raise ValueError("omega_0 must be > 0")
    seg = PulseSegment(omega_0, phase, 0.0, math.pi / omega_0)
    return PulseSequence((ChannelPulse(TARGET, (seg,)),))


def sk1(theta: float, phase: float, omega_0: float) -> PulseSequence:
    """First-order amplitude-robust composite pulse on the target channel.

    A ``theta`` rotation about ``phase`` followed by two full 2*pi rotations
    at axis phases ``phase + phi1`` and ``phase - phi1`` with
    ``phi1 = arccos(-theta / 4 pi)``.
    """
    if not 0.0 < theta <= math.pi:
        raise ValueError("theta must be in (0, pi]")
    if omega_0 <= 0.0:
        raise ValueError("omega_0 must be > 0")
    phi1 = math.acos(-theta / (4.0 * math.pi))
    two_pi_t = 2.0 * math.pi / omega_0
    segs = (
        PulseSegment(omega_0, phase, 0.0, theta / omega_0),
        PulseSegment(omega_0, phase + phi1, 0.0, two_pi_t),
        PulseSegment(omega_0, phase - phi1, 0.0, two_pi_t),
    )
    return PulseSequence((ChannelPulse(TARGET, segs),))


def quadrilateral(omega_0: float, phase_offset: float = 0.0) -> PulseSequence:
    """Four-segment composite pi/2 block: +X, -Y, -X, +Y quarter rotations.

    At full drive it equals an X pi/2 rotation up to a software Z rotation
    (see :func:`quad_frame_step`); a weak parasitic drive traces a small
    closed square and is suppressed to high order.
    """
    if omega_0 <= 0.0:
        raise ValueError("omega_0 must be > 0")
    dur = 0.5 * math.pi / omega_0
    phases = (0.0, -0.5 * math.pi, math.pi, 0.5 * math.pi)
    segs = tuple(PulseSegment(omega_0, p + phase_offset, 0.0, dur) for p in phases)
    return PulseSequence((ChannelPulse(TARGET, segs),))


@lru_cache(maxsize=1)
def quad_frame_step() -> float:
    """Software Z-frame angle left behind by one quadrilateral block.

    Measured numerically from the full-drive block unitary: the angle alpha
    such that shifting all later axis phases by alpha absorbs the block's
    residual Z rotation, leaving an exact X pi/2 rotation.
    """
    seq = quadrilateral(1.0)
    u = sequence_unitaries(seq, CrosstalkContext(omega_0=1.0, f_ct=0.0))[TARGET]
    # u = Rz(-alpha) @ Rx(pi/2): e^{i alpha/2} u00 must be real positive
    return -2.0 * math.atan2(u[0, 0].imag, u[0, 0].real)


def pi_trains(
    method: str,
    omega_0: float,
    counts,
    ctx: CrosstalkContext | None = None,
    setting: CompensationSetting | None = None,
    phase: float = 0.0,
) -> list:
    """One train of target pi pulses per pulse count in ``counts``, in order.

    ``method`` is one of ``none`` (square pulses), ``pcc`` (square pulses
    with the cancellation tone), ``sk1`` or ``quad`` (the composite block
    applied twice per pi with Z-frame phase tracking).  Each train is a
    ``(sequence, trailing frame angle)`` pair; the angle is the software
    frame any later pulse must absorb.  The longest train is built once, by
    repeating its block's segments (the ``quad`` blocks differ only by their
    frame phase), and every shorter train is a prefix of it.
    """
    counts = list(counts)
    if any(n < 1 for n in counts):
        raise ValueError("n_pulses must be >= 1")
    step = 0.0
    if method in ("none", "pcc"):
        block = square_pi(omega_0, phase)
    elif method == "sk1":
        block = sk1(math.pi, phase, omega_0)
    elif method == "quad":
        block, step = quadrilateral(omega_0, phase), quad_frame_step()
    else:
        raise ValueError(f"unknown method {method!r}")
    if method == "pcc":
        if ctx is None or setting is None:
            raise ValueError("method 'pcc' needs a context and a compensation setting")
        block = with_pcc(block, ctx, setting)
    block = concat(block)  # an idle spectator gets one dark segment
    per_pulse = 2 if method == "quad" else 1
    blocks = per_pulse * max(counts, default=0)
    frames = list(accumulate(repeat(step, blocks), initial=0.0))  # the frame before each block
    target, spectator = (block.channel(ch).segments for ch in (TARGET, SPECTATOR))
    sizes = len(target), len(spectator)
    if method == "quad":
        target = tuple(chain.from_iterable(
            quadrilateral(omega_0, phase + f).channel(TARGET).segments for f in frames[:-1]))
    else:
        target *= blocks
    spectator *= blocks
    trains = []
    for k in (per_pulse * n for n in counts):
        seq = PulseSequence((ChannelPulse(TARGET, target[: k * sizes[0]]),
                             ChannelPulse(SPECTATOR, spectator[: k * sizes[1]])))
        trains.append((seq, frames[k]))
    return trains


def ramsey_wrap(
    seq: PulseSequence,
    omega_0: float,
    open_phase: float = 0.0,
    close_phase: float = math.pi,
) -> PulseSequence:
    """Spectator pi/2 pulses before and after ``seq``.

    With the default phases the second pulse undoes the first, so an ideal
    sequence returns the spectator to the ground state and the excited
    population directly reads the accumulated error.
    """
    half = PulseSegment(omega_0, open_phase, 0.0, 0.5 * math.pi / omega_0)
    back = PulseSegment(omega_0, close_phase, 0.0, 0.5 * math.pi / omega_0)
    opener = PulseSequence((ChannelPulse(SPECTATOR, (half,)),))
    closer = PulseSequence((ChannelPulse(SPECTATOR, (back,)),))
    return concat(opener, seq, closer)


def with_pcc(
    seq: PulseSequence, ctx: CrosstalkContext, setting: CompensationSetting
) -> PulseSequence:
    """Add the cancellation tone on the spectator channel.

    Every target segment gets a time-aligned spectator segment of amplitude
    ``f_comp * f_ct`` times the target amplitude, axis phase offset by the
    dial value ``delta_phi``, at the gate-light frequency (detuned by
    ``delta_ct`` from the spectator).
    """
    spec = seq.channel(SPECTATOR)
    if any(s.amplitude > 0.0 for s in spec.segments):
        raise ChannelConflictError("spectator channel already driven")
    comp = tuple(
        PulseSegment(
            setting.f_comp * ctx.f_ct * s.amplitude,
            s.phase + setting.delta_phi,
            ctx.delta_ct,
            s.duration,
        )
        for s in seq.channel(TARGET).segments
    )
    others = tuple(cp for cp in seq.channels if cp.channel != SPECTATOR)
    return replace(seq, channels=others + (ChannelPulse(SPECTATOR, comp),))


def concat(*seqs: PulseSequence) -> PulseSequence:
    """Concatenate sequences in time, padding idle channels with dark segments."""
    parts: dict[int, list] = {TARGET: [], SPECTATOR: []}
    for s in seqs:
        total = s.total_duration
        for ch, segs in parts.items():
            cp = s.channel(ch)
            segs.extend(cp.segments)
            gap = total - cp.total_duration
            if gap > 0.0:
                segs.append(PulseSegment(0.0, 0.0, 0.0, gap))
    return PulseSequence(tuple(ChannelPulse(ch, tuple(segs)) for ch, segs in parts.items()))


@dataclass(frozen=True)
class SimulationResult:
    """Final states, analytic populations and optional shot-sampled values.

    Indexed ``[point, ion]``: ``amplitudes`` holds the final ``(c0, c1)`` of
    each ion, shape ``(points, 2, 2)``; ``populations`` and ``sampled`` have
    shape ``(points, 2)``.
    """

    amplitudes: np.ndarray
    populations: np.ndarray
    sampled: np.ndarray | None = None


def sequence_unitaries(seq: PulseSequence, ctx: CrosstalkContext, scale: float = 1.0) -> dict:
    """Total qubit-frame propagator per ion for the full sequence."""
    table, lengths = _compile([seq], np.array([scale], dtype=float), ctx)
    u = next(_propagate(table, lengths, np.zeros((1, 1)), ctx.ct_phase))
    return {ch: u[ch, 0] for ch in (TARGET, SPECTATOR)}


def simulate_scan(
    seqs,
    ctx: CrosstalkContext,
    shots: int | None = None,
    seed: int | None = None,
    point_indices=None,
    phase_noise=None,
    scales=None,
) -> SimulationResult:
    """Evolve both ions from the ground state through one sequence per scan
    point, in one kernel call; each final state is its propagator's first
    column.

    ``seqs`` may be any iterable.  ``shots``, if given, samples both ions
    that many times per point.  Per point, ``point_indices`` (default ``0,
    1, ...``) keys those draws on ``(seed, index)`` (``seed`` defaults to
    0), ``phase_noise`` holds ``shots`` offsets (rad) of the whole spectator
    channel, modeling differential path phase drift, and ``scales`` a global
    amplitude scale (default 1).  Returns one :class:`SimulationResult` with
    a leading point axis.
    """
    if shots is None and phase_noise is not None:
        raise ValueError("phase_noise needs shots")
    if shots is not None and shots < 1:
        raise ValueError("shots must be >= 1")
    seqs = list(seqs)
    n = len(seqs)
    scales = np.ones(n) if scales is None else np.fromiter(scales, float)
    if len(scales) != n:
        raise ValueError("scales must hold one scale per point")
    keys = list(range(n) if point_indices is None else point_indices)
    if len(keys) != n:
        raise ValueError("point_indices must hold one key per point")
    noisy = phase_noise is not None
    if noisy and len(phase_noise) != n:
        raise ValueError("phase_noise must hold one row per point")
    # column 0 is the noiseless evolution, then one column per shot
    offsets = np.zeros((n, 1 + shots if noisy else 1))
    if noisy:
        for row, noise in zip(offsets, phase_noise):
            if np.size(noise) < shots:
                raise ValueError("phase_noise must provide one offset per shot")
            row[1:] = np.asarray(noise, dtype=float)[:shots]
    table, lengths = _compile(seqs, scales, ctx)
    streams = [] if shots is None else [rng(0 if seed is None else seed, k) for k in keys]

    amplitudes = np.empty((n, 2, 2), dtype=complex)
    sampled = None if shots is None else np.empty((n, 2))
    for i, u in enumerate(_propagate(table, lengths, offsets, ctx.ct_phase)):
        amplitudes[i] = u[:, 0, :, 0]
        if noisy:
            # one draw per shot and ion: column 0 the target, 1 the spectator
            c1 = u[:, 1:, 1, 0]
            hits = streams[i].random((shots, 2)) < np.clip(_abs2(c1.real, c1.imag), 0.0, 1.0).T
            sampled[i] = hits.sum(axis=0) / shots
    check_states(amplitudes)
    populations = _abs2(amplitudes[..., 1].real, amplitudes[..., 1].imag)
    if shots is not None and not noisy:
        # analytic populations may round just past 1
        for p, stream, out in zip(np.clip(populations, 0.0, 1.0), streams, sampled):
            out[:] = [stream.binomial(shots, pk) / shots for pk in p]
    return SimulationResult(amplitudes, populations, sampled)
