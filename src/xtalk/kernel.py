"""The simulation kernel: slice tables of whole scans and their propagators.

A scan is compiled in one numpy pass into one slice table holding each
point's own slices in turn: per time slice its start, duration, detuning,
the fixed field and the spectator channel's term, whose phase moves with the
per-shot spectator phase offset.  The kernel runs points longest first and
multiplies them slice by slice, evaluating with numpy only the slices of the
points still running, over one batch axis of (slice x offset).  Offset column
0, the noiseless evolution behind the amplitudes and populations, goes
through stacked ``np.matmul``; the shot columns go through the 2x2 entry
products written out elementwise, which round differently but make one numpy
pass instead of one matrix call per shot.  Shot columns only feed the draws,
so a sampled value can change only where a draw lands within a few ulps of
its probability.  Leading slices that points share under equal offsets, as a
shorter train shares those of a longer one, are multiplied once.  Each
point's result is bit-identical to simulating it alone.  A scan that only
varies one value of a one-slice sequence (a calibration flop, dial or
resonance scan) tiles that sequence's compiled slice instead of compiling
every point, with the same table.  :mod:`xtalk.pulses` builds the sequences,
calls the kernel and reads each state, from the ground state, as its
propagator's first column.  Whole 2x2 products are kept:
``np.matmul`` on that column alone rounds differently (in most entries of
random stacks, numpy 2.4) and would move the exactly compared ``stderr``
outputs.
"""

from __future__ import annotations

import math
from itertools import chain
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
    count of each (point, channel) row, ``2 * point + channel``.  Start and
    end are running sums of the durations from the point's start, added in
    sequence order as a loop would."""
    per_row = [seq.channel(ch).segments for seq in seqs for ch in (TARGET, SPECTATOR)]
    counts = np.fromiter(map(len, per_row), int, len(per_row))
    fields = map(attrgetter("amplitude", "phase", "detuning", "duration"),
                 chain.from_iterable(per_row))
    values = chain(chain.from_iterable(fields), (0.0,) * 4)
    amp, phase, det, dur = np.fromiter(values, float, 4 * counts.sum() + 4).reshape(-1, 4).T
    running = np.zeros((len(per_row), counts.max(initial=0) + 1))
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
    both = np.array([(math.cos(v), math.sin(v)) for v in values.tolist()]).reshape(-1, 2)
    out = np.zeros((2,) + phase.shape)
    out[:, on] = both[np.searchsorted(values, phases)].T
    return out


def _grid(seqs: list):
    """Every point's slices, point after point, and the segment each channel
    runs through them.

    A point's slices cut its sequence at every segment edge of either
    channel; cuts less than 1e-9 of its duration apart merge.  Returns the
    slices' start, end and point, each point's slice count, and per channel
    (rows) whether a lit segment runs through the slice, and its amplitude,
    phase and detuning.
    """
    n = len(seqs)
    totals = np.array([seq.total_duration for seq in seqs], dtype=float)
    tol = 1e-9 * np.maximum(totals, 1e-300)
    (amp, phase, det, seg_start, seg_end), counts = _segments(seqs)
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
    start, end, _, lengths, channels = _grid(seqs)
    return _table(start, end, channels, ctx), lengths


def _compile_scan(seq, ctx: CrosstalkContext, varied: str, values: np.ndarray):
    """:func:`_compile` of the scan that gives the one-slice sequence ``seq``
    each of ``values`` in turn, without building those sequences.

    ``varied`` names what a value sets: ``"duration"``, that of every
    segment; ``"phase"``, the spectator channel's axis phase, added to
    ``seq``'s own (so a value is the dial of a ``with_pcc`` template at dial
    0); or ``"detuning"``, the target channel's.  The template's slice is
    tiled and the value written into its channel columns, which then go
    through the table formulas of :func:`_compile`, so the table is the
    same, byte for byte.  Values are checked as ``PulseSegment`` checks
    them, first bad value first.
    """
    start, end, _, _, channels = _grid([seq])
    if len(start) != 1:
        raise ValueError("a scan template must be one slice")
    values = np.asarray(values, dtype=float)
    n = len(values)
    start, end = np.repeat(start, n), np.repeat(end, n)
    lit, amp, phase, det = (np.repeat(c, n, axis=1) for c in channels)
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


def _slice_propagators(table: np.ndarray, offsets: np.ndarray, ct_phase: float) -> np.ndarray:
    """Qubit-frame propagator of every slice, shape ``(2,) + batch + (2, 2)``.

    ``table`` and ``offsets`` broadcast to the batch shape.  A slice without
    light leaves the qubit frame inertial, so it is an exact identity.
    """
    start, dur, *cols = np.moveaxis(table, -1, 0)
    out = np.empty((2,) + np.broadcast_shapes(dur.shape, offsets.shape) + (2, 2), dtype=complex)
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
        squares = _abs2(om_re, om_im) + np.float_power(det, 2.0)
        gen = np.where(dark, 1.0, np.sqrt(squares))
        # below about 1.5e-154 rad/s the squares are subnormal or 0
        tiny = ~dark & (squares < np.finfo(float).tiny)
        if tiny.any():
            gen = np.where(tiny, np.hypot(np.hypot(om_re, om_im), det), gen)
        half_angle = 0.5 * gen * dur
        c, s = np.cos(half_angle), np.sin(half_angle)
        sx, sy, sz = s * (om_re / gen), s * (om_im / gen), s * (-det / gen)
        u = out[ion]
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


def _identities(points: int, width: int) -> np.ndarray:
    return np.broadcast_to(IDENTITY, (2, points, width, 2, 2)).copy()


def _shot_products(u: np.ndarray, out: np.ndarray) -> np.ndarray:
    """``u @ out`` over ``(2, points, width, 2, 2)`` stacks: the shot
    columns as the 2x2 entry products, one numpy pass per entry instead of
    one ``np.matmul`` call per matrix, and column 0 through ``np.matmul``,
    whose rounding the elementwise products do not keep."""
    prod = np.empty(out.shape, dtype=complex)
    for i, j in ((0, 0), (0, 1), (1, 0), (1, 1)):
        np.add(u[..., i, 0] * out[..., 0, j], u[..., i, 1] * out[..., 1, j], out=prod[..., i, j])
    prod[:, :, :1] = np.matmul(u[:, :, :1], out[:, :, :1])
    return prod


def _products(table, begin, count, out, shifts, ct_phase: float, marks=None) -> np.ndarray:
    """``out``, shape ``(2, points, n, 2, 2)``, left-multiplied per point by
    the propagators of its ``count`` table rows from row ``begin`` on, in
    order, under its ``n`` ``shifts``.  Points come longest first, so step k
    evaluates the rows of the leading ``m_k`` points still running, steps
    packed into calls of up to ``_BATCH`` propagators (at least one step).
    Column 0 goes through ``np.matmul``, shot columns (``n > 1``) through
    :func:`_shot_products`.  ``marks``, a dict keyed by row counts, receives
    the product of a single point after each such count."""
    points, width = shifts.shape
    mul = np.matmul if width == 1 else _shot_products
    steps = np.arange(count[0] if points else 0)
    running = np.searchsorted(-count, -steps)  # m_k, as count is descending
    ends = np.cumsum(np.append(0, 2 * width * running))  # propagators before each step
    k0 = 0
    while k0 < len(steps):
        k1 = max(k0 + 1, int(np.searchsorted(ends, ends[k0] + _BATCH, side="right")) - 1)
        live = np.arange(points) < running[k0:k1, None]  # step-major (step, point)
        props = _slice_propagators(table[(begin + steps[k0:k1, None])[live], None],
                                   shifts[np.nonzero(live)[1]], ct_phase)
        full = max(0, min(k1, count[-1]) - k0)  # leading steps that run every point
        whole = props[:, :full * points].reshape(2, full, points, width, 2, 2)
        for i, u in enumerate(np.moveaxis(whole, 1, 0), k0 + 1):
            out = mul(u, out)
            if marks is not None and i in marks:
                marks[i] = out
        at = full * points
        for m in running[k0 + full:k1].tolist():
            out[:, :m] = mul(props[:, at:at + m], out[:, :m])
            at += m
        k0 = k1
    return out


def _propagate(table: np.ndarray, lengths: np.ndarray, offsets: np.ndarray, ct_phase: float):
    """The kernel: yields each point's total propagators, shape ``(2, n, 2, 2)``.

    Takes the compiled table, each point's slice count and one row of ``n``
    spectator phase offsets (rad) per point.  When all points have the same
    offsets, the leading rows a point shares with the longest point (a
    shorter train is a prefix of a longer one) are multiplied once, on the
    longest point.  The other rows go through :func:`_products` in groups
    of ``_BATCH // (2 n)`` points, yielded in the caller's order.  Every
    product is a sequential left product, so each element is bit-identical
    to multiplying one point's propagators in turn.
    """
    n, width = offsets.shape
    first = np.cumsum(lengths) - lengths
    done = np.zeros(n, dtype=int)
    shared_products = {}
    if n > 1 and len(table) and (offsets == offsets[0]).all():
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
            _products(table, first[[longest]], done[[longest]], _identities(1, width),
                      offsets[:1], ct_phase, shared_products)
    group = max(1, _BATCH // (2 * width))
    for g0 in range(0, n, group):
        part = np.arange(g0, min(g0 + group, n))
        order = part[np.argsort(done[part] - lengths[part], kind="stable")]  # longest first
        out = _identities(len(order), width)
        for i, k in enumerate(done[order].tolist()):
            if k:
                out[:, i] = shared_products[k][:, 0]
        u = _products(table, first[order] + done[order], lengths[order] - done[order], out,
                      offsets[order], ct_phase)
        yield from np.moveaxis(u[:, np.argsort(order)], 1, 0)
