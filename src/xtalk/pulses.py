"""Construction and simulation of two-channel addressing pulse sequences.

A sequence holds per-channel lists of square segments.  Channel 0 addresses
the target ion and channel 1 the spectator.  During simulation each ion sees
its own channel's field plus a fraction ``f_ct`` of the other channel's
field (the crosstalk), evolved exactly with 2x2 propagators in the ion's own
frame so that off-resonant light also produces the physical phase shifts.

Simulation has one kernel.  Each sequence is compiled once into a slice
table: per time slice its start, duration, detuning, the fixed field and
the spectator channel's term, whose phase moves with the per-shot spectator
phase offset.  The kernel then evaluates every slice propagator with numpy
over one batch axis of (scan point x offset), padding shorter points with
dark slices, and multiplies them slice by slice with stacked ``np.matmul``.
A scan is one kernel call; :func:`simulate` is its one-point case and
:func:`sequence_unitaries` its one-offset case.
"""

from __future__ import annotations

import math
from array import array
from dataclasses import dataclass, replace
from functools import lru_cache
from itertools import repeat

import numpy as np

from .dynamics import IDENTITY, QubitState, check_states, rz
from .errors import ChannelConflictError
from .field import CompensationSetting, CrosstalkContext
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
    "pi_train",
    "ramsey_wrap",
    "with_pcc",
    "concat",
    "simulate",
    "simulate_scan",
    "sequence_unitaries",
]

TARGET = 0
SPECTATOR = 1

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
        return sum(s.duration for s in self.segments)


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


def pi_train(
    method: str,
    omega_0: float,
    n_pulses: int,
    ctx: CrosstalkContext | None = None,
    setting: CompensationSetting | None = None,
    phase: float = 0.0,
) -> tuple[PulseSequence, float]:
    """Sequence of ``n_pulses`` target pi pulses built by the given method.

    ``method`` is one of ``none`` (square pulses), ``pcc`` (square pulses
    with the cancellation tone), ``sk1`` or ``quad`` (the composite block
    applied twice per pi with Z-frame phase tracking).  Returns the sequence
    and the trailing software frame angle to be absorbed by any later pulse.
    """
    if n_pulses < 1:
        raise ValueError("n_pulses must be >= 1")
    frame = 0.0
    parts = []
    if method in ("none", "pcc"):
        parts = [square_pi(omega_0, phase) for _ in range(n_pulses)]
    elif method == "sk1":
        parts = [sk1(math.pi, phase, omega_0) for _ in range(n_pulses)]
    elif method == "quad":
        step = quad_frame_step()
        for _ in range(2 * n_pulses):
            parts.append(quadrilateral(omega_0, phase + frame))
            frame += step
    else:
        raise ValueError(f"unknown method {method!r}")
    seq = concat(*parts)
    if method == "pcc":
        if ctx is None or setting is None:
            raise ValueError("method 'pcc' needs a context and a compensation setting")
        seq = with_pcc(seq, ctx, setting)
    return seq, frame


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
    shape ``(points, 2)``.  :func:`simulate` returns the one-point slice,
    without the point axis.
    """

    amplitudes: np.ndarray
    populations: np.ndarray
    sampled: np.ndarray | None = None


def _slices(seq: PulseSequence):
    """Common time grid: sorted union of all channel segment boundaries.

    Yields ``(start, duration, {channel: segment or None})`` per slice.
    """
    channels = {ch: seq.channel(ch).segments for ch in (TARGET, SPECTATOR)}
    total = seq.total_duration
    edges = {0.0, total}
    spans = {}
    for ch, segs in channels.items():
        t = 0.0
        spans[ch] = []
        for s in segs:
            if s.duration > 0.0:
                spans[ch].append((t, t + s.duration, s))
                t += s.duration
                edges.add(t)
    cuts = sorted(edges)
    tol = 1e-9 * max(total, 1e-300)
    merged = [cuts[0]]
    for c in cuts[1:]:
        if c - merged[-1] > tol:
            merged.append(c)
    cursor = {ch: 0 for ch in channels}
    for a, b in zip(merged[:-1], merged[1:]):
        active = {}
        for ch in channels:
            ch_spans = spans[ch]
            j = cursor[ch]
            while j < len(ch_spans) and ch_spans[j][1] <= a + tol:
                j += 1
            cursor[ch] = j
            active[ch] = None
            if j < len(ch_spans):
                lo, hi, s = ch_spans[j]
                if lo <= a + tol and hi >= b - tol:
                    active[ch] = s
        yield a, b - a, active


# slice-table columns: start, duration, then per ion its detuning, the fixed
# field (real, imaginary) and the spectator channel's term (in-phase
# amplitude, axis phase, quadrature amplitude)
_ION_COLUMNS = 6
_COLUMNS = 2 + 2 * _ION_COLUMNS
_BATCH = 1 << 11  # slice propagators evaluated at once, bounds the kernel's memory


def _compile(seq: PulseSequence, ctx: CrosstalkContext, scale: float) -> np.ndarray:
    """Slice table of one sequence, shape ``(slices, _COLUMNS)``.

    The spectator channel's term stays apart: the kernel moves its phase per
    shot, then adds its orthogonal polarization in quadrature.
    """
    p = ctx.pol_overlap
    q = math.sqrt(max(1.0 - p * p, 0.0))
    rows = array("d")
    for start, dur, active in _slices(seq):
        row = [start, dur]
        for ion in (TARGET, SPECTATOR):
            fixed = 0.0j
            spectator = [0.0, 0.0, 0.0]
            detunings = []
            for ch, seg in active.items():
                if seg is None or seg.amplitude <= 0.0:
                    continue
                amp, det = scale * seg.amplitude, seg.detuning
                if ch != ion:
                    # cross illumination
                    amp *= ctx.f_ct
                    det = det + ctx.delta_ct if ion == SPECTATOR else det - ctx.delta_ct
                if amp <= 0.0:
                    continue
                if ch == SPECTATOR:
                    spectator = [p * amp, seg.phase, q * amp]
                else:
                    phase = seg.phase + ctx.ct_phase if ch != ion else seg.phase
                    fixed += amp * complex(math.cos(phase), math.sin(phase))
                detunings.append(det)
            if detunings and max(detunings) - min(detunings) > 1e-6 * (1.0 + abs(detunings[0])):
                raise ValueError("overlapping drives at different detunings are not supported")
            row += [detunings[0] if detunings else 0.0, fixed.real, fixed.imag, *spectator]
        rows.extend(row)
    return np.array(rows, dtype=float).reshape(-1, _COLUMNS)


def _abs2(re, im) -> np.ndarray:
    """``|re + i im|^2`` elementwise, rounded as Python's ``abs(c) ** 2``."""
    return np.float_power(np.hypot(re, im), 2.0)


def _slice_propagators(table: np.ndarray, offsets: np.ndarray, ct_phase: float) -> np.ndarray:
    """Qubit-frame propagator of every slice, shape ``(2,) + batch + (2, 2)``.

    ``table`` and ``offsets`` broadcast to the batch shape.  A slice without
    light leaves the qubit frame inertial, so it is an exact identity.
    """
    start, dur, *cols = np.moveaxis(table, -1, 0)
    out = []
    for ion in (TARGET, SPECTATOR):
        det, fixed_re, fixed_im, amp, phase, quad = cols[_ION_COLUMNS * ion:][:_ION_COLUMNS]
        phase = phase + offsets + ct_phase if ion == TARGET else phase + offsets
        re = fixed_re + amp * np.cos(phase)
        im = fixed_im + amp * np.sin(phase)
        # the orthogonal polarization adds in quadrature: along i * (the
        # coherent field's direction), or along i when that field vanishes
        norm = np.hypot(re, im)
        safe = np.where(norm > 0.0, norm, 1.0)
        om_re = re - quad * (im / safe)
        om_im = im + quad * np.where(norm > 0.0, re / safe, 1.0)
        if not (np.isfinite(om_re).all() and np.isfinite(om_im).all()):
            raise ValueError("non-finite input")
        # rotation_unitary elementwise, with its roundings
        dark = (om_re == 0.0) & (om_im == 0.0)
        gen = np.sqrt(_abs2(om_re, om_im) + np.float_power(det, 2.0))
        gen = np.where(dark, 1.0, gen)
        half_angle = 0.5 * gen * dur
        c, s = np.cos(half_angle), np.sin(half_angle)
        sx, sy, sz = s * (om_re / gen), s * (om_im / gen), s * (-det / gen)
        u = np.stack([c - 1.0j * sz, -sy - 1.0j * sx, sy - 1.0j * sx, c + 1.0j * sz], axis=-1)
        u = u.reshape(u.shape[:-1] + (2, 2))
        framed = ~dark & (det != 0.0)
        if framed.any():
            # a detuned drive keeps its phase reference: in the qubit frame
            # the slice is sandwiched between Z rotations
            d, t0, t = (np.broadcast_to(a, framed.shape)[framed] for a in (det, start, dur))
            u[framed] = rz(d * (t0 + t)) @ u[framed] @ rz(-d * t0)
        u[dark] = IDENTITY
        out.append(u)
    return np.stack(out)


def _propagate(tables, offsets: np.ndarray, ct_phase: float):
    """The kernel: yields each point's total propagators, shape ``(2, n, 2, 2)``.

    Takes one slice table and one row of ``n`` spectator phase offsets (rad)
    per point, evaluated in batches of ``_BATCH`` propagators (at least one
    slice of one point).  The product is a sequential left product, so every
    element is bit-identical to multiplying one point's propagators in turn.
    """
    group = max(1, _BATCH // (2 * offsets.shape[1]))
    for g0 in range(0, len(tables), group):
        part, shifts = tables[g0: g0 + group], offsets[g0: g0 + group, :, None]
        n_slices = max(map(len, part))
        out = np.broadcast_to(IDENTITY, (2,) + shifts.shape[:2] + (2, 2)).copy()
        step = max(1, _BATCH // out[..., 0, 0].size)
        for k0 in range(0, n_slices, step):
            chunk = np.zeros((len(part), 1, min(step, n_slices - k0), _COLUMNS))
            for row, t in zip(chunk, part):
                row[0, : len(t[k0: k0 + step])] = t[k0: k0 + step]  # shorter points end dark
            props = _slice_propagators(chunk, shifts, ct_phase)
            for k in range(props.shape[3]):
                out = np.matmul(props[:, :, :, k], out)
        yield from np.moveaxis(out, 1, 0)


def sequence_unitaries(seq: PulseSequence, ctx: CrosstalkContext, scale: float = 1.0) -> dict:
    """Total qubit-frame propagator per ion for the full sequence."""
    u = next(_propagate([_compile(seq, ctx, scale)], np.zeros((1, 1)), ctx.ct_phase))
    return {ch: u[ch, 0] for ch in (TARGET, SPECTATOR)}


def simulate_scan(
    seqs,
    ctx: CrosstalkContext,
    initial: dict | None = None,
    shots: int | None = None,
    seed: int | None = None,
    point_indices=None,
    phase_noise=None,
    scales=None,
) -> SimulationResult:
    """Evolve one sequence per scan point with a single kernel call.

    Takes :func:`simulate`'s arguments with one ``point_indices`` (default
    ``0, 1, ...``), ``phase_noise`` and ``scales`` entry per point; ``seqs``
    may be any iterable.  Returns one :class:`SimulationResult` whose arrays
    have a leading point axis.
    """
    scales = repeat(1.0) if scales is None else scales
    tables = [_compile(seq, ctx, scale) for seq, scale in zip(seqs, scales)]
    n = len(tables)
    keys = list(range(n) if point_indices is None else point_indices)
    if len(keys) != n:
        raise ValueError("point_indices must hold one key per point")
    if shots is not None and shots < 1:
        raise ValueError("shots must be >= 1")
    noisy = shots is not None and phase_noise is not None
    if noisy and len(phase_noise) != n:
        raise ValueError("phase_noise must hold one row per point")
    # column 0 is the noiseless evolution, then one column per shot
    offsets = np.zeros((n, 1 + shots if noisy else 1))
    if noisy:
        for row, noise in zip(offsets, phase_noise):
            if np.size(noise) < shots:
                raise ValueError("phase_noise must provide one offset per shot")
            row[1:] = np.asarray(noise, dtype=float)[:shots]
    vectors = [(initial or {}).get(ch, QubitState.ground()).vector for ch in (TARGET, SPECTATOR)]
    streams = [] if shots is None else [rng(0 if seed is None else seed, k) for k in keys]

    amplitudes = np.empty((n, 2, 2), dtype=complex)
    sampled = None if shots is None else np.empty((n, 2))
    for i, u in enumerate(_propagate(tables, offsets, ctx.ct_phase)):
        amplitudes[i] = [u[ch, 0] @ vectors[ch] for ch in (TARGET, SPECTATOR)]
        if noisy:
            # one draw per shot and ion: column 0 the target, 1 the spectator
            c1 = np.array([(u[ch, 1:] @ vectors[ch])[:, 1] for ch in (TARGET, SPECTATOR)])
            hits = streams[i].random((shots, 2)) < np.clip(_abs2(c1.real, c1.imag), 0.0, 1.0).T
            sampled[i] = hits.sum(axis=0) / shots
    check_states(amplitudes)
    populations = _abs2(amplitudes[..., 1].real, amplitudes[..., 1].imag)
    if shots is not None and not noisy:
        # analytic populations may round just past 1
        for p, stream, out in zip(np.clip(populations, 0.0, 1.0), streams, sampled):
            out[:] = [stream.binomial(shots, pk) / shots for pk in p]
    return SimulationResult(amplitudes, populations, sampled)


def simulate(
    seq: PulseSequence,
    ctx: CrosstalkContext,
    initial: dict | None = None,
    shots: int | None = None,
    seed: int | None = None,
    point_index: int = 0,
    phase_noise=None,
    scale: float = 1.0,
) -> SimulationResult:
    """Evolve both channels through the sequence.

    Parameters
    ----------
    seq : PulseSequence
        The pulse program; channels are padded to a common duration.
    ctx : CrosstalkContext
        Crosstalk ratio, detuning, polarization overlap and crosstalk phase.
    initial : dict, optional
        Initial :class:`QubitState` per channel; defaults to ground states.
    shots : int, optional
        If given, draw binomial measurement outcomes per channel.
    seed, point_index : int
        Shot noise is drawn from a generator keyed on ``(seed, point_index)``
        (``seed`` defaults to 0) so scan points are reproducible independent
        of evaluation order.
    phase_noise : array-like, optional
        Per-shot phase offsets (rad) applied to the whole spectator channel,
        modeling differential path phase drift between the channels.
    scale : float
        Global amplitude scale applied to every segment.
    """
    noise = None if phase_noise is None else [phase_noise]
    res = simulate_scan([seq], ctx, initial, shots, seed, [point_index], noise, [scale])
    return SimulationResult(res.amplitudes[0], res.populations[0],
                            None if res.sampled is None else res.sampled[0])
