"""The simulation kernel: slice tables of whole scans and their propagators.

A scan is compiled in one numpy pass into one slice table holding each
point's own slices in turn: per time slice its start, duration, detuning,
the fixed field and the spectator channel's term, whose phase moves with the
per-shot spectator phase offset.  The table is cut from segment columns
(amplitude, phase, detuning, start, end): :func:`_segments` reads them from
sequences, and :func:`_train_segments` tiles them from the one block a train
repeats and each point's block count, with a train's Ramsey pulses and dark
gaps where ``pulses.ramsey_wrap`` puts them, so the table of an x-error or
z-error scan is built without unrolling its trains.  Each quantity has
one path.  Column 0, the noiseless evolution behind the amplitudes and
populations, runs the points longest first and multiplies them slice by
slice through ``np.matmul`` of (matrices, 2, 2) stacks for both ions,
evaluating only the slices of the points still running; leading slices the
points share, as a shorter train shares those of a longer one, are
multiplied once.  A noisy scan adds one shot column per shot, each under
its own spectator phase offset.  Per point, it evaluates each distinct
slice once for all its shots: rows compare by bit pattern, their start only
where an ion is detuned.  Shot columns are evaluated and carried only for
the ions being sampled, and only as the state from the ground state,
through the 2x2 entry products written out elementwise into reused
buffers; these round differently but make one numpy pass instead of one
matrix call per shot.  A shot column ends as the excited population
``|c_1|^2`` that its draws read, so a sampled value can change only where a
draw lands within a few ulps of its probability.  Each point's result is
bit-identical to simulating it alone.  A scan that only varies one value
of a one-slice sequence (a calibration flop, dial or resonance scan) tiles
that sequence's one slice, read from its segments, instead of compiling
every point, with the same table.  A scan whose points
hold at most one slice each, as such a scan's do, skips the products: a
point's propagator is its slice's, the value a product from the identity
gives (a product could only flip the sign of a zero), and each shot's
excited population comes from the Rabi formula, with no shot propagator
(:func:`_excitations`).  :mod:`xtalk.pulses` builds the sequences, calls
the kernel and reads each state, from the ground state, as its propagator's
first column.  Whole 2x2 products are kept: ``np.matmul`` on that column alone
rounds differently (in most entries of random stacks, numpy 2.4) and would
move the exactly compared ``stderr`` outputs.
"""

from __future__ import annotations

import math
from itertools import chain, repeat
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


def _segments(seqs: list):
    """Every point's segments, channel by channel, as columns (amplitude,
    phase, detuning, start, end) closed by one dark row, and the segment
    count of each (point, channel) row, ``2 * point + channel``."""
    per_row = [seq.channel(ch).segments for seq in seqs for ch in (TARGET, SPECTATOR)]
    counts = np.fromiter(map(len, per_row), int, len(per_row))
    fields = map(attrgetter("amplitude", "phase", "detuning", "duration"),
                 chain.from_iterable(per_row))
    values = np.fromiter(chain.from_iterable(fields), float, 4 * counts.sum())
    return _columns(values.reshape(-1, 4), counts)


def _train_segments(block, blocks: np.ndarray, offsets=None, wrap=None):
    """:func:`_segments` of trains that repeat the sequence ``block``
    ``blocks[i]`` times each, without building them: the block's segments
    tiled.  With ``offsets``, repeat j drives the target at the block's
    phases plus ``offsets[j]``.  ``wrap``, an opening spectator segment and
    one closing segment per train, puts each train between them as
    ``pulses.concat`` does: the other channel dark beside them, and after
    the train a dark gap on a channel that ends before the other."""
    longest = int(blocks.max(initial=0))
    tiled, sizes = [], []
    for ch in (TARGET, SPECTATOR):
        one = np.array([(s.amplitude, s.phase, s.detuning, s.duration)
                        for s in block.channel(ch).segments], dtype=float).reshape(-1, 4)
        rows = np.tile(one, (longest, 1))
        if ch == TARGET and offsets is not None:
            rows[:, 1] = (one[:, 1] + np.asarray(offsets)[:, None]).ravel()
        tiled.append(rows)
        sizes.append(len(one))
    if wrap is None:
        parts = [rows[:k * size] for k in blocks.tolist() for rows, size in zip(tiled, sizes)]
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
    values = (segment.amplitude, segment.phase, segment.detuning, segment.duration)
    return np.array([values]), 0.0 + segment.duration


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

    Returns every point's slices (see :func:`_grid`), point after point, as
    one table of shape ``(slices, _COLUMNS)``, and each point's slice count.
    """
    return _compile_segments(_segments(seqs), ctx)


def _compile_segments(segments, ctx: CrosstalkContext):
    """:func:`_compile` from the segment columns and row counts instead."""
    start, end, _, lengths, channels = _grid(*segments)
    return _table(start, end, channels, ctx), lengths


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
    return _table(start, end, (lit, amp, phase, det), ctx), lengths


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
    ``(len(ions),) + batch + (2, 2)``.

    ``table`` and ``offsets`` broadcast to the batch shape.  A slice without
    light leaves the qubit frame inertial, so it is an exact identity.
    """
    out = np.empty((len(ions),) + np.broadcast_shapes(table.shape[:-1], np.shape(offsets))
                   + (2, 2), dtype=complex)
    for u, ion in zip(out, ions):
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


def _excitations(table: np.ndarray, offsets, ct_phase: float, ions) -> np.ndarray:
    """|u_10|^2 of every slice propagator of :func:`_slice_propagators` for
    each of ``ions``, shape ``(len(ions),) + batch``: the excited population
    a slice leaves from the ground state, by the Rabi formula
    ``|Omega|^2 / G^2 sin^2(G t / 2)`` with ``G^2 = |Omega|^2 + Delta^2``.

    The orthogonal polarization adds to ``|Omega|^2`` in quadrature, and a
    detuned slice's Z-frame sandwich leaves ``|u_10|`` as it is.  A dark
    slice gives 0.  Slices whose ``G^2`` is subnormal or 0, dark or not,
    take :func:`_slice_propagators` instead.
    """
    shape = np.broadcast_shapes(table.shape[:-1], np.shape(offsets))
    out = np.empty((len(ions),) + shape)
    for p, ion in zip(out, ions):
        _, dur, det, re, im, quad = _ion_field(table, offsets, ct_phase, ion)
        if not (np.isfinite(re).all() and np.isfinite(im).all() and np.isfinite(quad).all()):
            raise ValueError("non-finite input")
        field = re * re + im * im + quad * quad
        squares = field + det * det
        # a dark detuned slice's field of 0 gives 0; a tiny G^2 (0 for a dark
        # resonant slice) is kept out of the division and overwritten below
        tiny = squares < np.finfo(float).tiny
        squares = np.where(tiny, 1.0, squares)
        np.multiply(field / squares, np.sin(0.5 * np.sqrt(squares) * dur) ** 2, out=p)
        if tiny.any():
            rows = np.broadcast_to(table, shape + table.shape[-1:])[tiny]
            [u] = _slice_propagators(rows, np.broadcast_to(offsets, shape)[tiny], ct_phase, (ion,))
            p[tiny] = _abs2(u[:, 1, 0].real, u[:, 1, 0].imag)
    return out


def _identities(points: int) -> np.ndarray:
    return np.broadcast_to(IDENTITY, (2, points, 2, 2)).copy()


def _products(table, begin, count, out, ct_phase: float, marks=None) -> np.ndarray:
    """``out``, shape ``(2, points, 2, 2)``, left-multiplied per point by
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
        whole = np.moveaxis(props[:, :full * points].reshape(2, full, points, 2, 2), 1, 0)
        out = out.reshape(2 * points, 2, 2)
        for i, u in enumerate(whole.reshape(full, 2 * points, 2, 2), k0 + 1):
            out = np.matmul(u, out)
            if marks is not None and i in marks:
                marks[i] = out.reshape(2, points, 2, 2)
        out = out.reshape(2, points, 2, 2)
        at = full * points
        for m in running[k0 + full:k1].tolist():
            out[:, :m] = np.matmul(props[:, at:at + m], out[:, :m])
            at += m
        k0 = k1
    return out


def _propagate(table: np.ndarray, lengths: np.ndarray, shots, ct_phase: float,
               ions=(TARGET, SPECTATOR)):
    """The kernel: an iterator of each point's noiseless propagator per
    ion, shape ``(2, 2, 2)``, and the excited populations of its shot
    columns for ``ions``, shape ``(len(ions), shots)``, or None.

    Takes the compiled table, each point's slice count and, in a noisy
    scan, one row of spectator phase offsets (rad) per point, one per shot
    (else None).  Each quantity has one owner: :func:`_column_propagate`
    multiplies column 0, the noiseless evolution, and
    :func:`_shot_propagate` the shot columns.  A scan whose points have at
    most one slice each, as every template scan's do, takes neither:
    :func:`_one_slice_propagate` evaluates each slice once, with no
    products, and its shot populations by the Rabi formula
    (:func:`_excitations`).  Points are yielded in the caller's order.
    """
    if lengths.max(initial=0) <= 1:
        return _one_slice_propagate(table, lengths, shots, ct_phase, ions)
    return zip(_column_propagate(table, lengths, ct_phase), repeat(None) if shots is None
               else _shot_propagate(table, lengths, shots, ct_phase, ions))


def _column_propagate(table, lengths, ct_phase: float):
    """Column 0 of :func:`_propagate`: yields each point's noiseless
    propagator per ion.  The leading rows a point shares with the longest
    point (a shorter train is a prefix of a longer one) are multiplied
    once, on the longest point; the other rows go through :func:`_products`
    in groups of ``_BATCH // 2`` points.  Every product is a sequential left
    product, so each element is bit-identical to multiplying one point's
    propagators in turn."""
    n = len(lengths)
    first = np.cumsum(lengths) - lengths
    done = np.zeros(n, dtype=int)
    shared_products = {}
    if n > 1 and len(table):
        longest = int(np.argmax(lengths))
        # each row against the longest point's row at the same position
        pos = np.arange(len(table)) - np.repeat(first, lengths)
        ref = first[longest] + np.minimum(pos, lengths[longest] - 1)
        bits = table.view(np.int64)
        differs = (bits != bits[ref]).any(axis=1) | (pos >= lengths[longest])
        differs = np.append(np.flatnonzero(differs), len(table))
        shared = np.minimum(differs[np.searchsorted(differs, first)] - first, lengths)
        if np.count_nonzero(shared) > 1:  # not the longest point alone
            done = shared
            shared_products = dict.fromkeys(done.tolist())
            _products(table, first[[longest]], done[[longest]], _identities(1), ct_phase,
                      shared_products)
    group = _BATCH // 2
    for g0 in range(0, n, group):
        part = np.arange(g0, min(g0 + group, n))
        order = part[np.argsort(done[part] - lengths[part], kind="stable")]  # longest first
        out = _identities(len(order))
        for i, k in enumerate(done[order].tolist()):
            if k:
                out[:, i] = shared_products[k][:, 0]
        u = _products(table, first[order] + done[order], lengths[order] - done[order], out,
                      ct_phase)
        yield from np.moveaxis(u[:, np.argsort(order)], 1, 0)


def _one_slice_propagate(table, lengths, shots, ct_phase: float, ions):
    """:func:`_propagate` of points of at most one slice each: a point's
    propagator is its slice's, and its shot columns' excited populations
    those of :func:`_excitations`.  Consecutive points go in groups that
    hold at most the entries of ``_BATCH`` propagators, four per propagator
    and one float per shot, at least one point a group."""
    width = 0 if shots is None else shots.shape[1]
    group = max(1, 4 * _BATCH // (4 * 2 + width * len(ions)))
    # a point without a slice reads a dark row, whose propagators are exact identities
    rows = np.where(lengths > 0, np.cumsum(lengths) - 1, len(table))
    table = np.append(table, np.zeros((1, _COLUMNS)), axis=0)
    for g0 in range(0, len(lengths), group):
        where = table[rows[g0:g0 + group]]
        u = np.moveaxis(_slice_propagators(where, 0.0, ct_phase), 1, 0)
        if shots is None:
            yield from zip(u, repeat(None))
        else:
            probs = _excitations(where[:, None], shots[g0:g0 + group], ct_phase, ions)
            yield from zip(u, np.moveaxis(probs, 1, 0))


def _distinct(table: np.ndarray, lengths: np.ndarray):
    """Each row's id among the distinct rows of its point, and each point's
    count of them.  Rows compare by bit pattern, their start only where an
    ion is detuned: only a detuned lit slice reads it, in its Z-frame
    sandwich."""
    point = np.repeat(np.arange(len(lengths)), lengths)
    keys = np.column_stack([point, table.view(np.int64)])
    keys[(table[:, 2] == 0.0) & (table[:, 2 + _ION_COLUMNS] == 0.0), 1] = 0
    rows = keys.view(np.dtype((np.void, keys.shape[1] * 8))).ravel()  # one bytes value a row
    _, rep, ids = np.unique(rows, return_index=True, return_inverse=True)
    return ids, np.bincount(point[rep], minlength=len(lengths))


def _windows(ids: list, cost: int) -> list:
    """Cuts of one point's rows, with distinct ``ids``, into runs whose
    distinct rows take at most ``_BATCH`` propagators of ``cost`` each, at
    least one row a run."""
    cuts, seen = [0], set()
    for k, i in enumerate(ids):
        if i not in seen:
            if seen and (len(seen) + 1) * cost > _BATCH:
                cuts.append(k)
                seen = set()
            seen.add(i)
    return cuts + [len(ids)]


def _shot_propagate(table, lengths, shots, ct_phase: float, ions):
    """The shot columns of :func:`_propagate`: yields per point, per ion of
    ``ions`` and shot, the excited population ``|c_1|^2`` of the state from
    the ground state under that shot's phase offset, shape ``(len(ions),
    shots)``.

    Per point, each distinct table row (:func:`_distinct`) is evaluated
    once for all its shots of ``ions``.  Consecutive points whose distinct
    rows take at most ``_BATCH`` propagators run as one group through
    :func:`_shot_steps`; a point beyond that runs alone, its rows cut into
    :func:`_windows`.
    """
    n, width = shots.shape
    cost = width * len(ions)  # propagators evaluated per distinct row
    first = np.cumsum(lengths) - lengths
    ids, distinct = _distinct(table, lengths)
    weight = (np.maximum(distinct, 1) * cost).tolist()  # a state costs as much as a row
    g0 = 0
    while g0 < n:
        g1, total = g0 + 1, weight[g0]
        while g1 < n and total + weight[g1] <= _BATCH:
            total, g1 = total + weight[g1], g1 + 1
        part = np.arange(g0, g1)
        order = part[np.argsort(-lengths[part], kind="stable")]  # longest first
        count = lengths[order]
        cuts = [0, int(count[0])]
        if total > _BATCH:  # one point
            cuts = _windows(ids[first[g0]:first[g0] + lengths[g0]].tolist(), cost)
        states = _shot_steps(table, ids, first[order], count, shots[order], ct_phase, ions, cuts)
        for i in np.argsort(order).tolist():
            c1 = states[count[i] % 2, i, :, 1]
            yield _abs2(c1.real, c1.imag)
        g0 = g1


def _shot_steps(table, ids, begin, count, shots, ct_phase: float, ions, cuts):
    """The shot states of :func:`_shot_propagate` for points longest first,
    per ion of ``ions``, in two buffers, shape ``(2, points, len(ions), 2,
    shots)``; a point's last step wrote buffer ``count % 2``.

    Steps between consecutive ``cuts`` evaluate their distinct rows in one
    call, and step k multiplies the states of the leading ``m_k`` points
    through :func:`_shot_products`, from one buffer into the other.
    """
    points, width = shots.shape
    steps = np.arange(count[0])
    running = np.searchsorted(-count, -steps)
    ends = np.cumsum(np.append(0, running))  # entries before each step
    live = np.arange(points) < running[:, None]
    rows, at = (begin + steps[:, None])[live], np.nonzero(live)[1]  # step-major entries
    states = np.zeros((2, points, len(ions), 2, width), dtype=complex)
    states[0, :, :, 0] = 1.0
    spare, gathered = np.empty_like(states[0]), np.empty(states[0].shape[:-1] + (2, width),
                                                            dtype=complex)
    for k0, k1 in zip(cuts[:-1], cuts[1:]):
        e0, e1 = ends[k0], ends[k1]
        _, pick, inverse = np.unique(ids[rows[e0:e1]], return_index=True, return_inverse=True)
        where, who = rows[e0:e1][pick, None], at[e0:e1][pick]
        # (i, j, shot) entries per distinct row and ion, contiguous: np.take
        # from the moved-axis view itself is several times slower
        entries = np.ascontiguousarray(np.moveaxis(
            _slice_propagators(table[where], shots[who], ct_phase, ions), (0, 2), (1, 4)))
        for k in range(k0, k1):
            m, idx = running[k], inverse[ends[k] - e0:ends[k + 1] - e0]
            np.take(entries, idx, axis=0, out=gathered[:m], mode="clip")  # "raise" would buffer
            _shot_products(gathered[:m], states[k % 2, :m], states[1 - k % 2, :m], spare[:m])
    return states


def _shot_products(u: np.ndarray, state: np.ndarray, out: np.ndarray, spare: np.ndarray):
    """``out``, the first column of ``u @ state`` per shot: ``u`` holds 2x2
    entries ``(..., i, j, shot)`` and ``state`` the column ``(..., j,
    shot)``.  Each entry is ``u_i0 c_0 + u_i1 c_1``, rounded as
    ``np.add(u_i0 * c_0, u_i1 * c_1)``: one numpy pass per term instead of
    one ``np.matmul`` call per matrix, written into ``out`` and ``spare``
    instead of fresh arrays."""
    np.multiply(u[..., 0, :], state[..., 0:1, :], out=out)
    np.multiply(u[..., 1, :], state[..., 1:2, :], out=spare)
    return np.add(out, spare, out=out)
