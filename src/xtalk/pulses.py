"""Construction and simulation of two-channel addressing pulse sequences.

A sequence holds per-channel lists of square segments.  Channel 0 addresses
the target ion and channel 1 the spectator.  During simulation each ion sees
its own channel's field plus a fraction ``f_ct`` of the other channel's
field (the crosstalk), evolved exactly with 2x2 propagators in the ion's own
frame so that off-resonant light also produces the physical phase shifts.

Simulation runs in one kernel, :mod:`xtalk.kernel`, in three calls: compile a
slice table, propagate it (``kernel._propagate``), sample it (``_evaluate``).
:func:`simulate_scan` evolves both ions from the ground state through one
sequence per scan point, noiseless; phase noise comes only from a scenario's
``noise`` block, whose drift offsets ``_evaluate`` applies to the spectator
channel, sampling the one ion the scenario reports.
:func:`sequence_unitaries` returns one sequence's gate per ion, for any other
initial state (``gate @ state.vector``).  Trains of pi pulses repeat one block
(``_train``): :func:`pi_trains` unrolls it, the shorter trains prefixes of the
longest.  ``_train_table`` compiles the trains, Ramsey-wrapped or not, from
the block and each train's block count without building them, with the plan
naming the rows each shares with the longest, multiplied once, and raising a
noisy shot's block to its count; and ``kernel._compile_scan`` a scan that
varies only the duration, the tone's dial or the target detuning of one square
pulse: the same rows, byte for byte.  Sequences compiled apart share no rows.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from functools import lru_cache, reduce
from itertools import accumulate, repeat
from operator import add

import numpy as np

from .dynamics import check_states
from .errors import ChannelConflictError
from .field import CompensationSetting, CrosstalkContext
from .kernel import SPECTATOR, TARGET, _abs2, _compile, _compile_train, _propagate
from .noise import _check_shots, _streams

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
    "scaled",
    "simulate_scan",
    "sequence_unitaries",
]


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


def _target_drive(omega_0: float, duration: float, phase: float = 0.0) -> PulseSequence:
    """One resonant square segment on the target channel; a scan template
    when a scan varies its duration, dial or detuning."""
    return PulseSequence((ChannelPulse(TARGET, (PulseSegment(omega_0, phase, 0.0, duration),)),))


def square_pi(omega_0: float, phase: float = 0.0) -> PulseSequence:
    """Plain square pi pulse on the target channel, duration pi / omega_0."""
    if omega_0 <= 0.0:
        raise ValueError("omega_0 must be > 0")
    return _target_drive(omega_0, math.pi / omega_0, phase)


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


def quadrilateral(omega_0: float) -> PulseSequence:
    """Four-segment composite pi/2 block: +X, -Y, -X, +Y quarter rotations.

    At full drive it equals an X pi/2 rotation up to a software Z rotation
    (see :func:`quad_frame_step`); a weak parasitic drive traces a small
    closed square and is suppressed to high order.
    """
    if omega_0 <= 0.0:
        raise ValueError("omega_0 must be > 0")
    dur = 0.5 * math.pi / omega_0
    phases = (0.0, -0.5 * math.pi, math.pi, 0.5 * math.pi)
    segs = tuple(PulseSegment(omega_0, p, 0.0, dur) for p in phases)
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
    frame any later pulse must absorb.  The longest train is unrolled once
    from one block (the ``quad`` blocks differ only by their frame phase),
    and every shorter train is a prefix of it.  The kernel tiles the same
    block without unrolling it (``_train_table``).
    """
    block, blocks, frames, offsets = _train(method, omega_0, counts, ctx, setting, phase)
    target, spectator = (block.channel(ch).segments for ch in (TARGET, SPECTATOR))
    sizes = len(target), len(spectator)
    longest = len(frames) - 1
    if offsets is None:
        target *= longest
    else:
        target = tuple(replace(s, phase=s.phase + o) for o in offsets for s in target)
    spectator *= longest
    return [(PulseSequence((ChannelPulse(TARGET, target[: k * sizes[0]]),
                            ChannelPulse(SPECTATOR, spectator[: k * sizes[1]]))), frames[k])
            for k in blocks]


def _train(method: str, omega_0: float, counts, ctx, setting, phase: float):
    """The trains of :func:`pi_trains` as one block and its repeats: the
    block, padded by :func:`concat`; each train's block count; the software
    frame before each block of the longest train and after its last; and,
    for ``quad``, each block's target phase offset (a block phase p drives
    at ``p + offset``), else None."""
    counts = list(counts)
    if any(n < 1 for n in counts):
        raise ValueError("n_pulses must be >= 1")
    step = 0.0
    if method in ("none", "pcc"):
        block = square_pi(omega_0, phase)
    elif method == "sk1":
        block = sk1(math.pi, phase, omega_0)
    elif method == "quad":
        block, step = quadrilateral(omega_0), quad_frame_step()
    else:
        raise ValueError(f"unknown method {method!r}")
    if method == "pcc":
        if ctx is None or setting is None:
            raise ValueError("method 'pcc' needs a context and a compensation setting")
        block = with_pcc(block, ctx, setting)
    blocks = [(2 if method == "quad" else 1) * n for n in counts]
    frames = list(accumulate(repeat(step, max(blocks, default=0)), initial=0.0))
    offsets = [phase + f for f in frames[:-1]] if method == "quad" else None
    return concat(block), blocks, frames, offsets  # an idle spectator gets one dark segment


def _ramsey_pulse(omega_0: float, phase: float) -> PulseSegment:
    """The spectator pi/2 pulse of :func:`ramsey_wrap` about axis ``phase``."""
    return PulseSegment(omega_0, phase, 0.0, 0.5 * math.pi / omega_0)


def ramsey_wrap(seq: PulseSequence, omega_0: float, close_phase: float = math.pi) -> PulseSequence:
    """Spectator pi/2 pulses before and after ``seq``, the first about +X.

    With the default closing phase the second pulse undoes the first, so an
    ideal sequence returns the spectator to the ground state and the excited
    population directly reads the accumulated error.
    """
    opener = PulseSequence((ChannelPulse(SPECTATOR, (_ramsey_pulse(omega_0, 0.0),)),))
    closer = PulseSequence((ChannelPulse(SPECTATOR, (_ramsey_pulse(omega_0, close_phase),)),))
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


def scaled(seq: PulseSequence, factor: float) -> PulseSequence:
    """``seq`` with every segment amplitude multiplied by ``factor``, a global
    drive amplitude scale; ``factor`` must be finite and >= 0."""
    if not (math.isfinite(factor) and factor >= 0.0):
        raise ValueError("factor must be finite and >= 0")
    return PulseSequence(tuple(
        ChannelPulse(cp.channel, tuple(replace(s, amplitude=factor * s.amplitude)
                                       for s in cp.segments))
        for cp in seq.channels))


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


def sequence_unitaries(seq: PulseSequence, ctx: CrosstalkContext) -> dict:
    """Total qubit-frame propagator per ion for the full sequence."""
    [u], _ = _propagate(*_compile([seq], ctx), None, ctx.ct_phase)
    return {ch: u[ch] for ch in (TARGET, SPECTATOR)}


def simulate_scan(seqs, ctx: CrosstalkContext, shots: int | None = None,
                  seed: int | None = None) -> SimulationResult:
    """Evolve both ions from the ground state through one sequence per scan
    point, in one kernel call; each final state is its propagator's first
    column.

    ``seqs`` may be any iterable.  ``shots``, if given, samples both ions
    that many times per point, point i from the stream ``(seed, i)``
    (``seed`` defaults to 0).  Returns one :class:`SimulationResult` with a
    leading point axis.  A drive amplitude scale goes into the sequences
    (:func:`scaled`).
    """
    if shots is not None:  # named before the sequences compile
        _check_shots(shots)
    return _evaluate(*_compile(seqs, ctx), ctx, shots, seed)


def _train_table(method: str, counts, ctx: CrosstalkContext, setting=None, close_phases=None):
    """``kernel._compile`` of ``pi_trains(method, ctx.omega_0, counts, ctx,
    setting)``, each train :func:`ramsey_wrap`-ped with its closing phase if
    ``close_phases`` holds one per train, without building them: the kernel
    tiles the trains' block (``kernel._train_segments``), byte for byte, and
    plans their shared rows and shots (``kernel._compile_train``)."""
    block, blocks, _, offsets = _train(method, ctx.omega_0, counts, ctx, setting, 0.0)
    wrap = None if close_phases is None else (
        _ramsey_pulse(ctx.omega_0, 0.0), [_ramsey_pulse(ctx.omega_0, c) for c in close_phases])
    alpha = quad_frame_step() if method == "quad" else 0.0
    return _compile_train(block, np.array(blocks, dtype=int), offsets, wrap, alpha, ctx)


def _evaluate(table, lengths, plan, ctx: CrosstalkContext, shots=None, seed=None, offsets=None,
              keys=None, ion=SPECTATOR) -> SimulationResult:
    """The scan result of a compiled table and train plan, sampled as
    :func:`simulate_scan` describes if given shots, point i from the stream
    ``(seed, keys[i])`` (``keys`` defaults to ``0, 1, ...``).  ``offsets``,
    one row of spectator phase offsets (rad) per point, one per shot, makes
    a noisy scan: only ``ion`` is sampled, the other's entries NaN."""
    n = len(lengths)
    u, excited = _propagate(table, lengths, plan, offsets, ctx.ct_phase, ion)
    amplitudes = u[..., 0]
    check_states(amplitudes)
    populations = _abs2(amplitudes[..., 1].real, amplitudes[..., 1].imag)
    if shots is None:
        return SimulationResult(amplitudes, populations)
    _check_shots(shots)
    streams = _streams(0 if seed is None else seed, range(n) if keys is None else keys)
    sampled = np.full((n, 2), np.nan)
    if excited is not None:
        # two draws per shot, column 0 the target's and 1 the spectator's,
        # whichever ion is sampled, so that no draw moves
        draws = np.empty((n, shots, 2))
        for stream, out in zip(streams, draws):
            stream.random(out=out)
        hits = draws[..., ion] < np.clip(excited, 0.0, 1.0, out=excited)
        sampled[:, ion] = np.count_nonzero(hits, axis=1) / shots
    else:
        # analytic populations may round just past 1
        for p, stream, out in zip(np.clip(populations, 0.0, 1.0), streams, sampled):
            out[:] = [stream.binomial(shots, pk) / shots for pk in p.tolist()]
    return SimulationResult(amplitudes, populations, sampled)
