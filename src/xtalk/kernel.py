"""The simulation kernel: slice tables of whole scans and their propagators.

A scan is compiled in one numpy pass into one slice table holding each
point's slices in turn: per slice its start, duration, detuning, the fixed
field and the spectator channel's term, whose phase moves with each shot's
phase offset.  :func:`_segments` cuts it from sequences, :func:`_train_segments`
from the block a train repeats (an x-error table holds the longest train
alone), and :func:`_compile_scan` from a one-slice template, each with a plan
of the rows a point reads and shares (:func:`_compile`).  Column 0, the
noiseless evolution, multiplies shared rows once, then the rest longest first
through ``np.matmul`` of (matrices, 2, 2) stacks for both ions; whole 2x2
products are kept, since ``np.matmul`` on the first column alone rounds
differently and would move the exactly compared ``stderr`` outputs.  A noisy
scan adds a shot column per shot for the one ion it samples, in unit
quaternions: its head, its first block's product raised to the block count
in closed form, and its tail (:func:`_shot_propagate`), so a shot costs as
much at any pulse count.  Its population feeds only the draws, which move
only where one lands within about 1e-11 of its probability.  Points of at
most one slice skip the products: a propagator is its slice's, and a shot's
population the Rabi formula's (:func:`_excitations`).  Shots go in passes of
at most ``_BATCH`` point-shots, which bounds their memory.  Each point's
result is bit-identical to simulating it alone.  Every array is point-major.
"""

from __future__ import annotations

import math
from itertools import accumulate, chain
from operator import attrgetter

import numpy as np

from .dynamics import IDENTITY, rz
from .field import CrosstalkContext

# channel ids; ion TARGET is the ion channel TARGET addresses
TARGET = 0
SPECTATOR = 1

# slice-table columns: start, duration, then per ion its detuning, the fixed
# field (real, imaginary) and the spectator channel's term (in-phase
# amplitude, axis phase, quadrature amplitude)
_ION_COLUMNS = 6
_COLUMNS = 2 + 2 * _ION_COLUMNS
_BATCH = 1 << 12  # slice propagators evaluated at once, bounds the kernel's memory
_FIELDS = attrgetter("amplitude", "phase", "detuning", "duration")  # a segment's columns


def _segments(seqs: list):
    """Every point's segments, channel by channel, as columns (amplitude,
    phase, detuning, start, end) closed by one dark row, and the segment
    count of each (point, channel) row, ``2 * point + channel``."""
    per_row = [seq.channel(ch).segments for seq in seqs for ch in (TARGET, SPECTATOR)]
    counts = np.fromiter(map(len, per_row), int, len(per_row))
    fields = map(_FIELDS, chain.from_iterable(per_row))
    values = np.fromiter(chain.from_iterable(fields), float, 4 * counts.sum())
    return _columns(values.reshape(-1, 4), counts)


def _train_segments(block, blocks: np.ndarray, offsets=None, wrap=None):
    """:func:`_segments` of trains that repeat the sequence ``block``
    ``blocks[i]`` times each, without building them: the block's segments
    tiled.  With ``offsets``, repeat j drives the target at the block's
    phases plus ``offsets[j]``.  Unwrapped, only the longest train is cut:
    every other is its prefix.  ``wrap``, an opening spectator segment and
    one closing segment per train, puts each train between them as
    ``pulses.concat`` does: the other channel dark beside them, and after
    the train a dark gap on a channel that ends before the other."""
    longest = int(blocks.max(initial=0))
    tiled, sizes = [], []
    for ch in (TARGET, SPECTATOR):
        one = np.array(list(map(_FIELDS, block.channel(ch).segments)), dtype=float).reshape(-1, 4)
        rows = np.tile(one, (longest, 1))
        if ch == TARGET and offsets is not None:
            rows[:, 1] = (one[:, 1] + np.asarray(offsets)[:, None]).ravel()
        tiled.append(rows)
        sizes.append(len(one))
    if wrap is None:
        parts = tiled if len(blocks) else []
    else:
        # each channel's duration after each segment of the longest train,
        # summed from 0 in order as ChannelPulse.total_duration sums
        sums = [np.cumsum(np.append(0.0, rows[:, 3])) for rows in tiled]
        idle, opener, closers = (np.empty((0, 4)), 0.0), _one(wrap[0]), wrap[1]
        parts = []
        for k, closer in zip(blocks.tolist(), closers, strict=True):
            train = [(rows[:k * size], total[k * size])
                     for rows, size, total in zip(tiled, sizes, sums)]
            out = ([], [])
            for part in ((idle, opener), train, (idle, _one(closer))):
                length = max(total for _, total in part)
                for rows, (seg, total) in zip(out, part):
                    rows.append(seg)
                    if length - total > 0.0:
                        rows.append(np.array([[0.0, 0.0, 0.0, length - total]]))
            parts += [np.concatenate(rows) for rows in out]
    counts = np.fromiter(map(len, parts), int, len(parts))
    return _columns(np.concatenate(parts) if parts else np.empty((0, 4)), counts)


def _one(segment):
    """A segment's values as one row, and its channel's total duration."""
    return np.array([_FIELDS(segment)]), 0.0 + segment.duration


def _columns(values: np.ndarray, counts: np.ndarray):
    """Segment columns and row counts from each segment's (amplitude, phase,
    detuning, duration), row after row.  Start and end are running sums of
    the durations from the row's start, added in order as a loop would."""
    amp, phase, det, dur = np.append(values, np.zeros((1, 4)), axis=0).T
    running = np.zeros((len(counts), counts.max(initial=0) + 1))
    inside = np.arange(running.shape[1] - 1) < counts[:, None]
    running[:, 1:][inside] = dur[:-1]
    running = np.cumsum(running, axis=1)  # a sequential sum along each row
    start, end = np.zeros((2, len(amp)))
    start[:-1], end[:-1] = running[:, :-1][inside], running[:, 1:][inside]
    return (amp, phase, det, start, end), counts


def _keys(row, value) -> np.ndarray:
    """``row + i value``, flattened: complex numbers order by real part, then
    imaginary part, so these sort and search by row, then value, comparing
    the values exactly."""
    keys = np.empty(np.broadcast(row, value).shape, dtype=complex)
    keys.real, keys.imag = row, value
    return keys.ravel()


def _merge(cuts: np.ndarray, point: np.ndarray, tol: np.ndarray) -> np.ndarray:
    """Which sorted cuts open a slice: each point's first cut, then every cut
    more than its point's ``tol`` past the last one kept."""
    tol_at = tol[point]
    keep = np.ones(len(cuts), dtype=bool)
    keep[1:] = (point[1:] != point[:-1]) | (cuts[1:] - cuts[:-1] > tol_at[1:])
    # comparing with the previous cut instead of the last kept one differs
    # only where dropped cuts chain further than tol; such points run the rule
    last = np.flatnonzero(keep)[np.cumsum(keep) - 1]
    chained = ~keep & (cuts - cuts[last] > tol_at)
    for p in set(point[chained].tolist()):
        where = np.flatnonzero(point == p)
        kept = cuts[where[0]]
        for i in where[1:]:
            keep[i] = cuts[i] - kept > tol[p]
            kept = cuts[i] if keep[i] else kept
    return keep


def _cos_sin(phase: np.ndarray, on: np.ndarray) -> np.ndarray:
    """``cos`` and ``sin`` of ``phase`` where ``on``, else 0, from ``math``
    once per distinct phase."""
    phases = phase[on]
    values = np.sort(phases)
    distinct = np.ones(len(values), dtype=bool)
    distinct[1:] = values[1:] > values[:-1]
    values = values[distinct]
    both = [np.fromiter(map(f, values.tolist()), float, len(values)) for f in (math.cos, math.sin)]
    out = np.zeros((2,) + phase.shape)
    out[:, on] = np.array(both)[:, np.searchsorted(values, phases)]
    return out


def _grid(columns, counts: np.ndarray):
    """Every point's slices, point after point, and the segment each channel
    runs through them, from the segment columns and row counts of
    :func:`_segments` or :func:`_train_segments`.

    A point's slices cut its sequence at every segment edge of either
    channel; cuts less than 1e-9 of its duration apart merge.  Returns the
    slices' start, end and point, each point's slice count, and per channel
    (rows) whether a lit segment runs through the slice, and its amplitude,
    phase and detuning.
    """
    amp, phase, det, seg_start, seg_end = columns
    n = len(counts) // 2
    # a sequence lasts as long as its longer channel
    row_ends = np.where(counts > 0, seg_end[np.cumsum(counts) - 1], 0.0)
    totals = row_ends.reshape(n, 2).max(axis=1)
    tol = 1e-9 * np.maximum(totals, 1e-300)
    seg_row = np.repeat(np.arange(2 * n), counts)
    points = np.arange(n)
    edges = np.sort(_keys(np.concatenate([points, points, seg_row // 2]),
                          np.concatenate([np.zeros(n), totals, seg_end[:-1]])))
    cuts, point = edges.imag, edges.real.astype(int)
    keep = _merge(cuts, point, tol)
    cuts, point = cuts[keep], point[keep]
    inner = point[1:] == point[:-1]
    start, end, point = cuts[:-1][inner], cuts[1:][inner], point[:-1][inner]
    tol_at = tol[point]
    after, before = start + tol_at, end - tol_at
    # the segment running through a slice: the first of its (point,
    # channel) row to end past the slice's start, or the closing dark row
    slice_row = 2 * point + np.array([[TARGET], [SPECTATOR]])
    found = np.searchsorted(_keys(seg_row, seg_end[:-1]), _keys(slice_row, after), side="right")
    found = found.reshape(slice_row.shape)
    j = np.where(found < np.cumsum(counts)[slice_row], found, len(amp) - 1)
    lit = (seg_start[j] <= after) & (seg_end[j] >= before) & (amp[j] > 0.0)
    return start, end, point, np.bincount(point, minlength=n), (lit, amp[j], phase[j], det[j])


def _compile(seqs: list, ctx: CrosstalkContext):
    """Slice tables of all scan points in one pass.

    Returns every point's slices (see :func:`_grid`) as one table of shape
    ``(slices, _COLUMNS)``, each point's slice count and the plan ``(first,
    head, blocks, size, step)``: per point its first row and block count, the
    head's and a block's row counts and the frame step (:func:`_compile_train`).
    A point's first ``head + blocks size`` rows are those of the point of the
    most blocks; here, of none (:func:`_plan`).
    """
    return _compile_segments(_segments(seqs), ctx)


def _compile_segments(segments, ctx: CrosstalkContext):
    """:func:`_compile` from the segment columns and row counts instead."""
    start, end, _, lengths, channels = _grid(*segments)
    return _table(start, end, channels, ctx), lengths, _plan(lengths)


def _plan(lengths: np.ndarray) -> tuple:
    """The plan of points that repeat no block, each after the last."""
    return np.cumsum(lengths) - lengths, 0, 0 * lengths, 0, (0.0, 0.0)


def _compile_train(block, blocks: np.ndarray, offsets, wrap, alpha: float, ctx: CrosstalkContext):
    """:func:`_compile` of the trains of :func:`_train_segments` with their
    plan: one head row (``wrap``'s opener) or none, each train's block
    count, the block's row count and per ion the frame step ``phi = d T +
    alpha``: block m + 1 is block m turned, ``Rz(phi) B Rz(-phi)``, as its
    rows start ``T`` later at detuning ``d`` and ``offsets`` (quad's frames)
    drive it ``alpha`` further.  Unwrapped, every point reads its rows from
    row 0, of the longest train."""
    table, lengths, plan = _compile_segments(_train_segments(block, blocks, offsets, wrap), ctx)
    ends = {t for cp in block.channels for t in accumulate(s.duration for s in cp.segments)}
    size = len(ends - {0.0})  # the block's slices end where either channel's segments do
    head = 0 if wrap is None else 1
    det = table[head:head + size, 2::_ION_COLUMNS]  # the first block's, per ion: 0 or its d
    d = det[np.abs(det).argmax(axis=0), [TARGET, SPECTATOR]] if len(det) else 0.0
    step = d * block.total_duration + alpha
    if wrap is None:  # the table holds the longest train alone, every other its prefix
        return table, blocks * size, (0 * blocks, head, blocks, size, step)
    return table, lengths, (plan[0], head, blocks, size, step)


def _compile_scan(seq, ctx: CrosstalkContext, varied: str, values: np.ndarray):
    """:func:`_compile` of the scan that gives the one-slice sequence ``seq``
    each of ``values`` in turn, without building those sequences.

    ``varied`` names what a value sets: ``"duration"``, that of every
    segment; ``"phase"``, the spectator channel's axis phase, added to
    ``seq``'s own (so a value is the dial of a ``with_pcc`` template at dial
    0); or ``"detuning"``, the target channel's.  The template's slice is
    read from its segments, tiled and the value written into its channel
    columns, which then go through the table formulas of :func:`_compile`,
    so the table is the same, byte for byte.  Values are checked as
    ``PulseSegment`` checks them, first bad value first.
    """
    segs = [seq.channel(ch).segments for ch in (TARGET, SPECTATOR)]
    total = seq.total_duration
    # one slice: a channel holds at most one segment, as long as the
    # sequence, which is longer than its merge tolerance (as in _grid)
    if (any(len(s) > 1 or (s and s[0].duration != total) for s in segs)
            or not total > 1e-9 * max(total, 1e-300)):
        raise ValueError("a scan template must be one slice")
    values = np.asarray(values, dtype=float)
    n = len(values)
    # each channel's segment, or the dark row _grid finds for an idle one
    amp, phase, det = np.array([(s[0].amplitude, s[0].phase, s[0].detuning) if s else
                                (0.0, 0.0, 0.0) for s in segs]).T[..., None].repeat(n, axis=2)
    lit = amp > 0.0
    start, end = np.zeros(n), np.full(n, total)
    if varied == "duration":
        column = end = values
    elif varied == "phase":
        column = phase[SPECTATOR] = phase[SPECTATOR] + values
    elif varied == "detuning":
        column = det[TARGET] = values
    else:
        raise ValueError(f"unknown scanned value {varied!r}")
    negative = column < 0.0 if varied == "duration" else np.zeros(n, dtype=bool)
    bad = negative | ~np.isfinite(column)
    if bad.any():
        first = np.argmax(bad)
        raise ValueError("duration must be >= 0" if negative[first] else f"{varied} must be finite")
    # as in _grid: a duration within its merge tolerance of 0 makes no slice
    keep = end - start > 1e-9 * np.maximum(end, 1e-300)
    start, end, lit, amp, phase, det = (a[..., keep] for a in (start, end, lit, amp, phase, det))
    lengths = keep.astype(int)
    return _table(start, end, (lit, amp, phase, det), ctx), lengths, _plan(lengths)


def _table(start, end, channels, ctx: CrosstalkContext) -> np.ndarray:
    """The slice table of slices from ``start`` to ``end`` through which
    each channel (rows) runs ``channels``: whether a lit segment runs, its
    amplitude, phase and detuning.  The spectator channel's term stays
    apart: the kernel moves its phase per shot, then adds its orthogonal
    polarization in quadrature.
    """
    lit, amp, phase, det = channels
    # per ion (rows), the other ion's channel arrives as crosstalk; x * 1.0,
    # x + -0.0 and x - 0.0 leave every x exact
    a_t = amp[TARGET] * np.array([[1.0], [ctx.f_ct]])
    a_s = amp[SPECTATOR] * np.array([[ctx.f_ct], [1.0]])
    d_t = det[TARGET] + np.array([[-0.0], [ctx.delta_ct]])
    d_s = det[SPECTATOR] - np.array([[ctx.delta_ct], [0.0]])
    on_t, on_s = lit[TARGET] & (a_t > 0.0), lit[SPECTATOR] & (a_s > 0.0)
    both = on_t & on_s
    if both.any() and (np.abs(d_t - d_s) > 1e-6 * (1.0 + np.abs(d_t)))[both].any():
        raise ValueError("overlapping drives at different detunings are not supported")
    cos, sin = _cos_sin(phase[TARGET] + np.array([[-0.0], [ctx.ct_phase]]), on_t)
    p = ctx.pol_overlap
    q = math.sqrt(max(1.0 - p * p, 0.0))
    table = np.empty((len(start), _COLUMNS))
    table[:, 0], table[:, 1] = start, end - start
    ions = table[:, 2:].reshape(-1, 2, _ION_COLUMNS).T  # a view: [column, ion, slice]
    ions[0] = np.where(on_t, d_t, np.where(on_s, d_s, 0.0))
    # the fixed field adds into 0j, which turns -0.0 into 0.0
    ions[1] = np.where(on_t, a_t * cos + 0.0, 0.0)
    ions[2] = np.where(on_t, a_t * sin + 0.0, 0.0)
    ions[3] = np.where(on_s, p * a_s, 0.0)
    ions[4] = np.where(on_s, phase[SPECTATOR], 0.0)
    ions[5] = np.where(on_s, q * a_s, 0.0)
    return table


def _abs2(re, im) -> np.ndarray:
    """``|re + i im|^2`` elementwise, rounded as Python's ``abs(c) ** 2``."""
    return np.float_power(np.hypot(re, im), 2.0)


def _ion_field(table: np.ndarray, offsets, ct_phase: float, ion: int):
    """``ion``'s columns of every slice: start, duration, detuning, the
    in-phase field (real, imaginary) with the spectator channel's term under
    its phase offset, and the quadrature amplitude."""
    start, dur, *cols = np.moveaxis(table, -1, 0)
    det, fixed_re, fixed_im, amp, phase, quad = cols[_ION_COLUMNS * ion:][:_ION_COLUMNS]
    phase = phase + offsets + ct_phase if ion == TARGET else phase + offsets
    return start, dur, det, fixed_re + amp * np.cos(phase), fixed_im + amp * np.sin(phase), quad


def _slice_propagators(table: np.ndarray, offsets, ct_phase: float,
                       ions=(TARGET, SPECTATOR)) -> np.ndarray:
    """Qubit-frame propagator of every slice for each of ``ions``, shape
    ``batch + (ions, 2, 2)``: one entry per ion of ``ions``.

    ``table`` and ``offsets`` broadcast to the batch shape.  A slice without
    light leaves the qubit frame inertial, so it is an exact identity.
    """
    out = np.empty(np.broadcast_shapes(table.shape[:-1], np.shape(offsets)) + np.shape(ions)
                   + (2, 2), dtype=complex)
    for i, ion in enumerate(ions):
        u = out[..., i, :, :]
        start, dur, det, re, im, quad = _ion_field(table, offsets, ct_phase, ion)
        om_re, om_im = re, im
        if quad.any():  # else re - 0 * x and im + 0 * x are re and im: neither is -0.0
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
        squares = _abs2(om_re, om_im) + np.float_power(det, 2.0)
        gen = np.where(dark, 1.0, np.sqrt(squares))
        # below about 1.5e-154 rad/s the squares are subnormal or 0
        tiny = ~dark & (squares < np.finfo(float).tiny)
        if tiny.any():
            gen = np.where(tiny, np.hypot(np.hypot(om_re, om_im), det), gen)
        half_angle = 0.5 * gen * dur
        c, s = np.cos(half_angle), np.sin(half_angle)
        sx, sy, sz = s * (om_re / gen), s * (om_im / gen), s * (-det / gen)
        u[..., 0, 0], u[..., 0, 1] = c - 1.0j * sz, -sy - 1.0j * sx
        u[..., 1, 0], u[..., 1, 1] = sy - 1.0j * sx, c + 1.0j * sz
        framed = ~dark & (det != 0.0)
        if framed.any():
            # a detuned drive keeps its phase reference: in the qubit frame
            # the slice is sandwiched between Z rotations
            d, t0, t = (np.broadcast_to(a, framed.shape)[framed] for a in (det, start, dur))
            u[framed] = rz(d * (t0 + t)) @ u[framed] @ rz(-d * t0)
        u[dark] = IDENTITY
    return out


def _excitations(table: np.ndarray, offsets, ct_phase: float, ion: int) -> np.ndarray:
    """|u_10|^2 of every slice propagator of :func:`_slice_propagators` for
    ``ion``, shape ``batch``: the excited population a slice leaves from the
    ground state, by the Rabi formula ``|Omega|^2 / G^2 sin^2(G t / 2)`` with
    ``G^2 = |Omega|^2 + Delta^2``.

    The orthogonal polarization adds to ``|Omega|^2`` in quadrature, and a
    detuned slice's Z-frame sandwich leaves ``|u_10|`` as it is.  A dark
    slice gives 0.  Slices whose ``G^2`` is subnormal or 0, dark or not,
    take :func:`_slice_propagators` instead.
    """
    shape = np.broadcast_shapes(table.shape[:-1], np.shape(offsets))
    _, dur, det, re, im, quad = _ion_field(table, offsets, ct_phase, ion)
    if not (np.isfinite(re).all() and np.isfinite(im).all() and np.isfinite(quad).all()):
        raise ValueError("non-finite input")
    field = re * re + im * im + quad * quad
    squares = field + det * det
    # a dark detuned slice's field of 0 gives 0; a tiny G^2 (0 for a dark
    # resonant slice) is kept out of the division and overwritten below
    tiny = squares < np.finfo(float).tiny
    squares = np.where(tiny, 1.0, squares)
    p = np.multiply(field / squares, np.sin(0.5 * np.sqrt(squares) * dur) ** 2)
    if tiny.any():
        rows = np.broadcast_to(table, shape + table.shape[-1:])[tiny]
        u = _slice_propagators(rows, np.broadcast_to(offsets, shape)[tiny], ct_phase, (ion,))
        p[tiny] = _abs2(u[:, 0, 1, 0].real, u[:, 0, 1, 0].imag)
    return p


def _identities(points: int) -> np.ndarray:
    return np.broadcast_to(IDENTITY, (points, 2, 2, 2)).copy()


def _products(table, begin, count, out, ct_phase: float, marks=None) -> np.ndarray:
    """``out``, shape ``(points, 2, 2, 2)``, left-multiplied per point by
    the noiseless propagators of its ``count`` table rows from row ``begin``
    on, in order.  Points come longest first, so step k evaluates the rows
    of the leading ``m_k`` points still running, steps packed into calls of
    up to ``_BATCH`` propagators (at least one step), and multiplies them
    through ``np.matmul`` of (matrices, 2, 2) stacks.  ``marks``, a dict
    keyed by row counts, receives the product of a single point after each
    such count."""
    points = len(count)
    steps = np.arange(count[0] if points else 0)
    running = np.searchsorted(-count, -steps)  # m_k, as count is descending
    ends = np.cumsum(np.append(0, 2 * running))  # propagators before each step
    k0 = 0
    while k0 < len(steps):
        k1 = max(k0 + 1, int(np.searchsorted(ends, ends[k0] + _BATCH, side="right")) - 1)
        live = np.arange(points) < running[k0:k1, None]  # step-major (step, point)
        props = _slice_propagators(table[(begin + steps[k0:k1, None])[live]], 0.0, ct_phase)
        full = max(0, min(k1, count[-1]) - k0)  # leading steps that run every point
        out = out.reshape(2 * points, 2, 2)
        for i, u in enumerate(props[:full * points].reshape(full, 2 * points, 2, 2), k0 + 1):
            out = np.matmul(u, out)
            if marks is not None and i in marks:
                marks[i] = out.reshape(points, 2, 2, 2)
        out = out.reshape(points, 2, 2, 2)
        at = full * points
        for m in running[k0 + full:k1].tolist():
            out[:m] = np.matmul(props[at:at + m], out[:m])
            at += m
        k0 = k1
    return out


def _propagate(table: np.ndarray, lengths: np.ndarray, plan, offsets, ct_phase: float,
               ion: int = SPECTATOR):
    """The kernel: each point's noiseless propagator per ion, shape
    ``(points, 2, 2, 2)``, and the excited populations of its shot columns
    for ``ion``, shape ``(points, shots)``, or None.

    Takes the compiled table, slice counts and train plan, and in a noisy
    scan one row of spectator phase offsets (rad) per point, one per shot
    (else None).  :func:`_column_propagate` multiplies column 0, the
    noiseless evolution, and :func:`_shot_propagate` the shot columns.  A
    scan whose points have at most one slice each takes neither
    (:func:`_one_slice_propagate`).  Points come in the caller's order.
    """
    if lengths.max(initial=0) <= 1:
        return _one_slice_propagate(table, lengths, plan, offsets, ct_phase, ion)
    return (_column_propagate(table, lengths, plan, ct_phase), None if offsets is None else
            _shot_propagate(table, lengths, plan, offsets, ct_phase, ion))


def _column_propagate(table, lengths, plan, ct_phase: float) -> np.ndarray:
    """Column 0 of :func:`_propagate`: each point's noiseless propagator per
    ion.  The rows a point shares (:func:`_compile`) are multiplied once, on
    the point of the most blocks, a mark kept at each point's shared count; the
    rows past it go through :func:`_products` in groups of ``_BATCH // 2``
    points.  Every product is a sequential left product, so each element is
    bit-identical to multiplying one point's propagators in turn."""
    first, head, blocks, size, _ = plan
    shared = head + blocks * size
    longest = [int(np.argmax(blocks))]
    marks = dict.fromkeys(shared.tolist()) | {0: _identities(1)}
    _products(table, first[longest], shared[longest], _identities(1), ct_phase, marks)
    out = np.empty((len(lengths), 2, 2, 2), dtype=complex)
    for g0 in range(0, len(lengths), _BATCH // 2):
        part = np.arange(g0, min(g0 + _BATCH // 2, len(lengths)))
        order = part[np.argsort(shared[part] - lengths[part], kind="stable")]  # longest first
        u = np.concatenate([marks[k] for k in shared[order].tolist()])
        out[order] = _products(table, first[order] + shared[order], lengths[order] - shared[order],
                               u, ct_phase)
    return out


def _one_slice_propagate(table, lengths, plan, offsets, ct_phase: float, ion: int):
    """:func:`_propagate` of points of at most one slice each: a point's
    propagator is its slice's, evaluated once with no products, in groups of
    ``_BATCH // 2`` points, and its shots' excited populations those of the
    Rabi formula (:func:`_excitations`), in :func:`_passes`."""
    n = len(lengths)
    # a point without a slice reads a dark row, whose propagators are exact identities
    rows = np.where(lengths > 0, plan[0], len(table))
    table = np.append(table, np.zeros((1, _COLUMNS)), axis=0)
    u = np.empty((n, 2, 2, 2), dtype=complex)
    for g0 in range(0, n, _BATCH // 2):
        u[g0:g0 + _BATCH // 2] = _slice_propagators(table[rows[g0:g0 + _BATCH // 2]], 0.0, ct_phase)
    if offsets is None:
        return u, None
    probs = np.empty(offsets.shape)
    for p, s in _passes(*offsets.shape):
        probs[p, s] = _excitations(table[rows[p], None], offsets[p, s], ct_phase, ion)
    return u, probs


def _passes(points: int, width: int) -> list:
    """``(points, shots)`` slices in passes of at most ``_BATCH``
    point-shots: consecutive points, or one point's consecutive shots."""
    group = max(1, _BATCH // width)
    return [(slice(g0, g0 + group), slice(s0, s0 + _BATCH))
            for g0 in range(0, points, group) for s0 in range(0, width, _BATCH)]


def _hamilton(p, q) -> tuple:
    """The Hamilton product ``p q`` of quaternions ``(a, b, c, d)``: that of
    their propagators ``U = a - i(b X + c Y + d Z)``, in that order."""
    a, b, c, d = p
    w, x, y, z = q
    return (a * w - b * x - c * y - d * z, a * x + b * w + c * z - d * y,
            a * y - b * z + c * w + d * x, a * z + b * y - c * x + d * w)


def _power(q, k, phi: float) -> tuple:
    """``Rz(k phi) (Rz(-phi) q)^k`` of quaternions ``q`` and powers ``k``,
    with ``Rz(x) = (cos x/2, 0, 0, sin x/2)``: a unit quaternion
    ``(cos t, sin t v)`` to the power k is ``(cos kt, sin kt v)``."""
    if phi:
        q = _hamilton((math.cos(0.5 * phi), 0.0, 0.0, -math.sin(0.5 * phi)), q)
    norm = np.hypot(np.hypot(q[1], q[2]), q[3])
    angle = k * np.arctan2(norm, q[0])
    scale = np.sin(angle) / np.where(norm > 0.0, norm, 1.0)
    power = (np.cos(angle), *(scale * x for x in q[1:]))
    if phi:
        power = _hamilton((np.cos(0.5 * k * phi), 0.0, 0.0, np.sin(0.5 * k * phi)), power)
    return power


def _shot_propagate(table, lengths, plan, offsets, ct_phase: float, ion: int) -> np.ndarray:
    """The shot columns of :func:`_propagate`: per point and shot, the
    excited population of ``ion``'s state from the ground state under that
    shot's phase offset, shape ``(points, shots)``.

    A propagator is a unit quaternion (:func:`_hamilton`) and a state from
    the ground state its first column, ``(a - i d, c - i b)``, of population
    ``b^2 + c^2``.  A point-shot's state is ``tail Rz(k phi) (Rz(-phi) B)^k
    head`` (:func:`_power`), B its first block's product under its offset.
    Each call of a pass (:func:`_passes`) evaluates at most a batch of
    propagators, at least one row of the pass.
    """
    first, head, blocks, size, step = plan
    # per point its head, first block and tail rows, then dark rows: identities
    count = lengths - (blocks - 1) * size
    j = np.arange(count.max(initial=0))
    skipped = np.where(j >= head + size, (blocks - 1)[:, None] * size, 0)
    real = j < count[:, None]
    at = np.where(real, first[:, None] + j + skipped, 0)
    rows = np.where(real[..., None], table[at], 0.0)
    out = np.empty(offsets.shape)
    for p, s in _passes(*offsets.shape):
        state = block = None
        run = _BATCH // offsets[p, s].size
        for r0 in range(0, rows.shape[1], run):
            u = _slice_propagators(rows[p, r0:r0 + run, None].swapaxes(0, 1), offsets[p, s],
                                   ct_phase, (ion,))
            for r, (u00, u10) in enumerate(np.moveaxis(u[..., 0, :, 0], -1, 1), r0):
                q = (u00.real, -u10.imag, u10.real, -u00.imag)
                if head <= r < head + size:
                    block = q if block is None else _hamilton(q, block)
                    if r < head + size - 1:
                        continue
                    q = _power(block, blocks[p, None], step[ion])
                state = q if state is None else _hamilton(q, state)
        out[p, s] = state[1] * state[1] + state[2] * state[2]
    return out
