import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from xtalk.dynamics import QubitState, rz
from xtalk.errors import ChannelConflictError
from xtalk.field import CompensationSetting, CrosstalkContext
from xtalk.pulses import (
    SPECTATOR,
    TARGET,
    ChannelPulse,
    PulseSegment,
    PulseSequence,
    concat,
    pi_trains,
    quad_frame_step,
    quadrilateral,
    ramsey_wrap,
    scaled,
    sequence_unitaries,
    simulate_scan,
    sk1,
    square_pi,
    with_pcc,
)

OMEGA = 2 * math.pi * 50e3
CTX = CrosstalkContext(omega_0=OMEGA, f_ct=0.096)


def axis_rotation(theta, phi):
    """Independent rotation matrix for the composite-pulse oracles."""
    n_sigma = np.array(
        [[0.0, math.cos(phi) - 1j * math.sin(phi)], [math.cos(phi) + 1j * math.sin(phi), 0.0]]
    )
    return math.cos(theta / 2) * np.eye(2) - 1j * math.sin(theta / 2) * n_sigma


def gate_fidelity(u, v):
    return abs(np.trace(u.conj().T @ v) / 2.0) ** 2


class TestSquarePi:
    def test_target_fully_excited(self):
        res = simulate_scan([square_pi(OMEGA)], CTX)
        assert res.populations[0, TARGET] == pytest.approx(1.0, abs=1e-12)

    def test_spectator_crosstalk_error(self):
        res = simulate_scan([square_pi(OMEGA)], CTX)
        assert res.populations[0, SPECTATOR] == pytest.approx(2.26e-2, abs=1e-4)

    def test_two_pulses_compose_to_identity(self):
        seq = concat(square_pi(OMEGA), square_pi(OMEGA))
        u = sequence_unitaries(seq, CrosstalkContext(omega_0=OMEGA, f_ct=0.0))[TARGET]
        assert gate_fidelity(u, np.eye(2)) == pytest.approx(1.0, abs=1e-12)


class TestSk1:
    def test_nominal_is_exact_pi(self):
        u = sequence_unitaries(sk1(math.pi, 0.0, OMEGA), CTX)[TARGET]
        ideal = axis_rotation(math.pi, 0.0)
        assert gate_fidelity(u, ideal) >= 1.0 - 1e-9

    def test_flat_amplitude_response(self):
        def target_error(scale):
            res = simulate_scan([scaled(sk1(math.pi, 0.0, OMEGA), scale)], CTX)
            return 1.0 - res.populations[0, TARGET]

        h = 1e-4
        slope = (target_error(1.0 + h) - target_error(1.0 - h)) / (2.0 * h)
        assert abs(slope) <= 1e-6

    def test_miscalibration_stays_second_order(self):
        for scale in (0.9, 1.1):
            seqs = [scaled(sk1(math.pi, 0.0, OMEGA), scale), scaled(square_pi(OMEGA), scale)]
            pops = simulate_scan(seqs, CTX).populations[:, TARGET]
            sk1_err, square_err = 1.0 - pops
            assert sk1_err <= 10.0 * square_err
            assert sk1_err < 2e-4

    def test_spectator_error_scale(self):
        # weak-drive response lands near 1e-4 per pi pulse at 9.6% crosstalk
        res = simulate_scan([sk1(math.pi, 0.0, OMEGA)], CTX)
        err = res.populations[0, SPECTATOR]
        assert 1.3e-5 <= err <= 1.3e-3

    def test_segment_structure(self):
        seq = sk1(math.pi, 0.3, OMEGA)
        segs = seq.channel(TARGET).segments
        assert len(segs) == 3
        phi1 = math.acos(-1.0 / 4.0)
        assert segs[0].duration == pytest.approx(math.pi / OMEGA)
        assert segs[1].duration == pytest.approx(2.0 * math.pi / OMEGA)
        assert segs[1].phase == pytest.approx(0.3 + phi1)
        assert segs[2].phase == pytest.approx(0.3 - phi1)

    def test_rejects_bad_angle(self):
        with pytest.raises(ValueError):
            sk1(0.0, 0.0, OMEGA)


class TestQuadrilateral:
    def test_zero_scale_is_identity(self):
        res = simulate_scan([scaled(quadrilateral(OMEGA), 0.0)], CTX)
        assert res.populations[0, TARGET] == 0.0
        assert res.populations[0, SPECTATOR] == 0.0

    def test_full_drive_is_quarter_x_after_frame(self):
        u = sequence_unitaries(quadrilateral(OMEGA), CrosstalkContext(omega_0=OMEGA, f_ct=0.0))[TARGET]
        step = quad_frame_step()
        corrected = rz(-step) @ u
        assert gate_fidelity(corrected, axis_rotation(0.5 * math.pi, 0.0)) >= 1.0 - 1e-12

    def test_double_application_transfers_population(self):
        [(seq, frame)] = pi_trains("quad", OMEGA, [1])
        res = simulate_scan([seq], CrosstalkContext(omega_0=OMEGA, f_ct=0.0))
        assert res.populations[0, TARGET] == pytest.approx(1.0, abs=1e-12)
        assert frame == pytest.approx(2.0 * quad_frame_step())
        u = sequence_unitaries(seq, CrosstalkContext(omega_0=OMEGA, f_ct=0.0))[TARGET]
        expected = rz(frame) @ axis_rotation(math.pi, 0.0)
        assert np.max(np.abs(u - expected)) < 1e-9

    def test_spectator_leakage_scaling(self):
        # oracle: direct product of the four quarter rotations
        def oracle(eps):
            theta = eps * 0.5 * math.pi
            u = np.eye(2)
            for phi in (0.0, -0.5 * math.pi, math.pi, 0.5 * math.pi):
                u = axis_rotation(theta, phi) @ u
            return abs(u[1, 0]) ** 2

        eps_grid = np.geomspace(3e-3, 3e-2, 9)
        leak_sim = []
        for eps in eps_grid:
            res = simulate_scan([scaled(quadrilateral(OMEGA), eps / CTX.f_ct)], CTX)
            leak_sim.append(res.populations[0, SPECTATOR])
            assert res.populations[0, SPECTATOR] == pytest.approx(oracle(eps), rel=1e-6)
        slope = np.polyfit(np.log(eps_grid), np.log(leak_sim), 1)[0]
        assert slope >= 3.5


class TestWithPcc:
    def test_exact_cancellation(self):
        seq = with_pcc(square_pi(OMEGA), CTX, CompensationSetting(1.0, math.pi))
        res = simulate_scan([seq], CTX)
        assert res.populations[0, SPECTATOR] <= 1e-12

    def test_exact_cancellation_arbitrary_sequence(self):
        [(base, _)] = pi_trains("sk1", OMEGA, [2])
        seq = with_pcc(base, CTX, CompensationSetting(1.0, math.pi))
        res = simulate_scan([seq], CTX)
        assert res.populations[0, SPECTATOR] <= 1e-12

    def test_constructive_doubles_the_rate(self):
        # at twice the rate, half a crosstalk pi time already inverts
        duration = 0.5 * CTX.t_pi_ct
        base = PulseSequence((ChannelPulse(TARGET, (PulseSegment(OMEGA, 0.0, 0.0, duration),)),))
        seq = with_pcc(base, CTX, CompensationSetting(1.0, 0.0))
        res = simulate_scan([seq], CTX)
        assert res.populations[0, SPECTATOR] == pytest.approx(1.0, abs=1e-9)

    def test_forty_fold_suppression_setting(self):
        dial = 2.0 * math.acos(0.5 / 40.0)
        base = PulseSequence(
            (ChannelPulse(TARGET, (PulseSegment(OMEGA, 0.0, 0.0, CTX.t_pi_ct),)),)
        )
        seq = with_pcc(base, CTX, CompensationSetting(1.0, dial))
        u = sequence_unitaries(seq, CTX)[SPECTATOR]
        # residual rotation angle is 1/40 of the bare pi
        assert abs(u[1, 0]) == pytest.approx(math.sin(math.pi / 80.0), rel=1e-9)

    def test_spectator_collision_rejected(self):
        seq = with_pcc(square_pi(OMEGA), CTX, CompensationSetting(1.0, math.pi))
        with pytest.raises(ChannelConflictError):
            with_pcc(seq, CTX, CompensationSetting(1.0, math.pi))

    def test_polarization_mismatch_floor(self):
        # residual field magnitude in the simulation matches the quadrature model
        from xtalk.field import effective_magnitude_polarized

        p = 0.9
        ctx = CrosstalkContext(omega_0=OMEGA, f_ct=0.096, pol_overlap=p)
        seq = with_pcc(square_pi(OMEGA), ctx, CompensationSetting(p, math.pi))
        u = sequence_unitaries(seq, ctx)[SPECTATOR]
        floor = effective_magnitude_polarized(p, math.pi, p)
        assert floor == pytest.approx(math.sqrt(1.0 - p * p), abs=1e-12)
        expected = math.sin(0.5 * math.pi * ctx.f_ct * floor)
        assert abs(u[1, 0]) == pytest.approx(expected, rel=1e-9)

    def test_compensation_rides_at_gate_frequency(self):
        ctx = CrosstalkContext(omega_0=OMEGA, f_ct=0.096, delta_ct=0.1 * OMEGA)
        seq = with_pcc(square_pi(OMEGA), ctx, CompensationSetting(1.0, math.pi))
        comp = seq.channel(SPECTATOR).segments[0]
        assert comp.detuning == pytest.approx(0.1 * OMEGA)
        # matched tone still cancels exactly when detuned
        assert simulate_scan([seq], ctx).populations[0, SPECTATOR] <= 1e-12


class TestBackAction:
    def test_compensation_leaks_onto_target(self):
        duration = CTX.t_pi_ct
        comp_amp = 1.0 * CTX.f_ct * OMEGA
        seq = PulseSequence(
            (ChannelPulse(SPECTATOR, (PulseSegment(comp_amp, 0.0, 0.0, duration),)),)
        )
        u = sequence_unitaries(seq, CTX)[TARGET]
        # leakage rabi ratio f_ct^2, i.e. ~1e-4 intensity at the target
        back_angle = CTX.f_ct**2 * OMEGA * duration
        assert abs(u[1, 0]) == pytest.approx(math.sin(back_angle / 2.0), rel=1e-9)
        rabi_ratio = CTX.f_ct**2
        assert rabi_ratio**2 == pytest.approx(1e-4, rel=0.2)


class TestSimulate:
    def test_zero_amplitude_leaves_states(self):
        seq = PulseSequence((ChannelPulse(TARGET, (PulseSegment(0.0, 0.0, 0.0, 1e-3),)),))
        n = math.hypot(1.0, 1.0)
        plus = QubitState(1.0 / n, 1.0 / n)
        for u in sequence_unitaries(seq, CTX).values():
            out = u @ plus.vector
            assert out[0] == pytest.approx(plus.c0, abs=1e-15)
            assert out[1] == pytest.approx(plus.c1, abs=1e-15)

    def test_rabi_flop_periods(self):
        # target flops at omega_0, spectator at f_ct * omega_0
        for frac in (0.25, 0.5, 1.0):
            t = frac * math.pi / OMEGA
            base = PulseSequence((ChannelPulse(TARGET, (PulseSegment(OMEGA, 0.0, 0.0, t),)),))
            res = simulate_scan([base], CTX)
            assert res.populations[0, TARGET] == pytest.approx(
                math.sin(OMEGA * t / 2.0) ** 2, abs=1e-9
            )
            assert res.populations[0, SPECTATOR] == pytest.approx(
                math.sin(CTX.f_ct * OMEGA * t / 2.0) ** 2, abs=1e-9
            )

    def test_shot_sampling_converges(self):
        res = simulate_scan([square_pi(OMEGA)], CTX, shots=100_000, seed=42)
        p = res.populations[0, SPECTATOR]
        sigma = math.sqrt(p * (1.0 - p) / 100_000)
        assert abs(res.sampled[0, SPECTATOR] - p) < 5.0 * sigma

    def test_shot_sampling_deterministic(self):
        # point i draws from the stream (seed, i), whatever the other points
        a = simulate_scan([square_pi(OMEGA)] * 4, CTX, shots=500, seed=9)
        b = simulate_scan([square_pi(OMEGA)] * 4, CTX, shots=500, seed=9)
        assert np.array_equal(a.sampled, b.sampled)
        from xtalk.kernel import _compile

        for key in range(4):
            alone = evaluate_compiled(_compile([square_pi(OMEGA)], CTX), CTX, shots=500, seed=9,
                                      keys=[key])
            assert np.array_equal(alone.sampled[0], a.sampled[key])
        assert len({tuple(row) for row in a.sampled.tolist()}) > 1

    def test_phase_noise_shifts_cancellation(self):
        seq = with_pcc(square_pi(OMEGA), CTX, CompensationSetting(1.0, math.pi))
        from xtalk.kernel import _compile

        offsets = np.full((1, 400), 0.3)
        res = evaluate_compiled(_compile([seq], CTX), CTX, shots=400, seed=1, offsets=offsets)
        # a static 0.3 rad offset leaves a known residual error
        from xtalk.field import pi_pulse_error

        expected = pi_pulse_error(1, CTX.f_ct, 1.0, math.pi + 0.3)
        sigma = math.sqrt(expected * (1.0 - expected) / 400)
        assert abs(res.sampled[0, SPECTATOR] - expected) < 5.0 * sigma + 1e-3

    def test_ramsey_wrap_returns_ground_when_clean(self):
        ctx = CrosstalkContext(omega_0=OMEGA, f_ct=1e-12)
        [(seq, _)] = pi_trains("none", OMEGA, [1])
        wrapped = ramsey_wrap(seq, OMEGA)
        res = simulate_scan([wrapped], ctx)
        assert res.populations[0, SPECTATOR] <= 1e-9

    def test_mixed_detuning_overlap_rejected(self):
        segs_t = (PulseSegment(OMEGA, 0.0, 0.0, 1e-4),)
        segs_s = (PulseSegment(OMEGA, 0.0, 0.5 * OMEGA, 1e-4),)
        seq = PulseSequence((ChannelPulse(TARGET, segs_t), ChannelPulse(SPECTATOR, segs_s)))
        with pytest.raises(ValueError):
            simulate_scan([seq], CTX)


class TestSequenceTypes:
    def test_segment_validation(self):
        with pytest.raises(ValueError):
            PulseSegment(-1.0, 0.0, 0.0, 1.0)
        with pytest.raises(ValueError):
            PulseSegment(1.0, 0.0, 0.0, -1.0)

    def test_duplicate_channels_rejected(self):
        cp = ChannelPulse(TARGET, (PulseSegment(1.0, 0.0, 0.0, 1.0),))
        with pytest.raises(ValueError):
            PulseSequence((cp, cp))

    @pytest.mark.parametrize("channel", [2, -1])
    def test_unknown_channel_rejected(self, channel):
        # a third channel used to count as crosstalk on both ions
        with pytest.raises(ValueError, match="channel must be"):
            ChannelPulse(channel, (PulseSegment(OMEGA, 0.0, 0.0, math.pi / OMEGA),))

    @pytest.mark.parametrize("factor", [-1.0, math.nan, math.inf])
    def test_scaled_rejects_invalid_factor(self, factor):
        # a negative or NaN scale used to give a dark evolution without error
        with pytest.raises(ValueError, match="factor must be finite and >= 0"):
            scaled(square_pi(1.0), factor)

    def test_total_duration_sums_left_to_right(self):
        # Python 3.12's sum() compensates: 1.0000000000000002 here, not 1.0
        durations = [1.0, 1e-16, 1e-16]
        loop = 0.0
        for d in durations:
            loop += d
        pulse = ChannelPulse(TARGET, [PulseSegment(OMEGA, 0.0, 0.0, d) for d in durations])
        assert loop != math.fsum(durations)
        assert pulse.total_duration == loop
        assert PulseSequence((pulse,)).total_duration == loop

    def test_concat_pads_to_common_duration(self):
        seq = concat(square_pi(OMEGA), ramsey_wrap(square_pi(OMEGA), OMEGA))
        t_target = seq.channel(TARGET).total_duration
        t_spec = seq.channel(SPECTATOR).total_duration
        assert t_target == pytest.approx(t_spec, rel=1e-12)


def _frame_z(angle):
    return np.diag([np.exp(-0.5j * angle), np.exp(0.5j * angle)])


def _active(segments, t):
    """The segment of a channel running at time ``t``, or None."""
    start = 0.0
    for seg in segments:
        if start <= t < start + seg.duration:
            return seg
        start += seg.duration
    return None


def reference_unitaries(seq, ctx, scale=1.0, offset=0.0):
    """Slice-by-slice product of ``rotation_unitary`` in each ion's own frame."""
    from xtalk.dynamics import rotation_unitary

    channels = {ch: seq.channel(ch).segments for ch in (TARGET, SPECTATOR)}
    cuts = {0.0}
    for segs in channels.values():
        t = 0.0
        for seg in segs:
            t += seg.duration
            cuts.add(t)
    cuts = sorted(cuts)
    q = math.sqrt(1.0 - ctx.pol_overlap**2)
    out = {TARGET: np.eye(2, dtype=complex), SPECTATOR: np.eye(2, dtype=complex)}
    for t0, t1 in zip(cuts[:-1], cuts[1:]):
        lit = {ch: _active(segs, 0.5 * (t0 + t1)) for ch, segs in channels.items()}
        for ion in (TARGET, SPECTATOR):
            coherent, quad, det = 0.0j, 0.0, None
            for ch, seg in lit.items():
                if seg is None or seg.amplitude == 0.0:
                    continue
                amp, phase = scale * seg.amplitude, seg.phase
                delta = seg.detuning
                if ch == SPECTATOR:
                    phase += offset
                if ch != ion:
                    amp *= ctx.f_ct
                    phase += ctx.ct_phase
                    delta += ctx.delta_ct if ion == SPECTATOR else -ctx.delta_ct
                if ch == SPECTATOR:
                    coherent += ctx.pol_overlap * amp * np.exp(1j * phase)
                    quad = q * amp
                else:
                    coherent += amp * np.exp(1j * phase)
                det = delta
            if det is None:
                continue
            omega = coherent + 1j * quad * (coherent / abs(coherent) if coherent else 1.0)
            u = rotation_unitary(omega, det, t1 - t0)
            out[ion] = _frame_z(det * t1) @ u @ _frame_z(-det * t0) @ out[ion]
    return out


def random_sequence(rng, ctx):
    """Misaligned multi-segment channels; overlapping light shares one qubit detuning."""
    det = rng.choice([0.0, rng.normal() * OMEGA])
    chans = []
    for ch, delta in ((TARGET, det), (SPECTATOR, det + ctx.delta_ct)):
        segs = [
            PulseSegment(rng.choice([0.0, rng.uniform(0.1, 2.0) * OMEGA]), rng.uniform(-7, 7),
                         delta, rng.uniform(0.1, 3.0) / OMEGA)
            for _ in range(rng.integers(1, 6))
        ]
        chans.append(ChannelPulse(ch, segs))
    return PulseSequence(chans)


def loop_table(seq, ctx, scale=1.0):
    """One sequence's slice table, compiled slice by slice in Python: the
    reference for the kernel's one-pass compile, which must match it bit for
    bit."""
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
    p = ctx.pol_overlap
    q = math.sqrt(max(1.0 - p * p, 0.0))
    rows = []
    for a, b in zip(merged[:-1], merged[1:]):
        active = {}
        for ch in channels:
            active[ch] = None
            for lo, hi, s in spans[ch]:
                if hi > a + tol:
                    if lo <= a + tol and hi >= b - tol:
                        active[ch] = s
                    break
        row = [a, b - a]
        for ion in (TARGET, SPECTATOR):
            fixed, spectator, detunings = 0.0j, [0.0, 0.0, 0.0], []
            for ch, seg in active.items():
                if seg is None or seg.amplitude <= 0.0:
                    continue
                amp, det = scale * seg.amplitude, seg.detuning
                if ch != ion:
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
        rows.append(row)
    return np.array(rows, dtype=float).reshape(-1, 2 + 12)


def evaluate_compiled(compiled, ctx, shots=None, seed=None, keys=None, offsets=None,
                      ion=SPECTATOR):
    """The sampling of a compiled table and its slice counts: simulate_scan's
    without ``offsets``, else a noisy scenario's, which samples ``ion``."""
    from xtalk.pulses import _evaluate

    return _evaluate(*compiled, ctx, shots, seed, offsets, keys, ion)


class TestKernel:
    def test_compile_matches_loop_reference(self):
        from xtalk.kernel import _compile

        rng = np.random.default_rng(8)
        setting = CompensationSetting(0.9, 2.0)
        for _ in range(10):
            ctx = CrosstalkContext(omega_0=OMEGA, f_ct=rng.uniform(0.02, 0.3),
                                   delta_ct=rng.choice([0.0, rng.normal() * 0.3 * OMEGA]),
                                   pol_overlap=rng.uniform(0.2, 1.0),
                                   ct_phase=rng.uniform(0, 2 * math.pi))
            seqs = [random_sequence(rng, ctx) for _ in range(4)]
            for method in ("none", "pcc", "sk1", "quad"):
                [(train, _)] = pi_trains(method, OMEGA, [int(rng.integers(1, 4))], ctx, setting)
                seqs += [train, ramsey_wrap(train, OMEGA)]
            # cuts 0.6 and 1.2 of the merge tolerance past an edge
            tol = 1e-9 * 3e-5
            seqs.append(PulseSequence((
                ChannelPulse(TARGET, (PulseSegment(OMEGA, 0.2, 0.0, 1e-5),
                                      PulseSegment(OMEGA, 1.1, 0.0, 2e-5))),
                ChannelPulse(SPECTATOR, (PulseSegment(0.0, 0.0, 0.0, 1e-5 + 0.6 * tol),
                                         PulseSegment(0.0, 0.0, 0.0, 0.6 * tol))))))
            # signed zeros keep their sign, as in the loop
            seqs.append(PulseSequence((
                ChannelPulse(TARGET, (PulseSegment(OMEGA, -0.0, -0.0, 1e-5),)),
                ChannelPulse(SPECTATOR, (PulseSegment(0.0, 0.0, 0.0, 1e-5),
                                         PulseSegment(0.5 * OMEGA, -0.0, -0.0, 1e-5))))))
            scales = rng.uniform(0.0, 1.5, size=len(seqs))
            table, lengths, _ = _compile([scaled(s, x) for s, x in zip(seqs, scales)], ctx)
            reference = np.concatenate([loop_table(s, ctx, x) for s, x in zip(seqs, scales)])
            assert lengths.tolist() == [len(loop_table(s, ctx, x)) for s, x in zip(seqs, scales)]
            assert np.array_equal(table.view(np.int64), reference.view(np.int64))

    def test_matches_scalar_reference(self):
        from xtalk.kernel import _compile, _propagate

        rng = np.random.default_rng(2406)
        for _ in range(20):
            ctx = CrosstalkContext(omega_0=OMEGA, f_ct=rng.uniform(0.02, 0.3),
                                   delta_ct=rng.normal() * 0.3 * OMEGA,
                                   pol_overlap=rng.uniform(0.2, 0.95),
                                   ct_phase=rng.uniform(0, 2 * math.pi))
            seqs = [random_sequence(rng, ctx) for _ in range(3)]
            scales = rng.uniform(0.5, 1.5, size=3)
            offsets = rng.normal(size=(3, 3))  # one per shot
            compiled = _compile([scaled(s, x) for s, x in zip(seqs, scales)], ctx)
            for ion in (TARGET, SPECTATOR):
                kernel = zip(*_propagate(*compiled, offsets, ctx.ct_phase, ion))
                for seq, scale, shifts, (u, probs) in zip(seqs, scales, offsets, kernel):
                    # column 0 the whole noiseless gate of both ions, each
                    # shot ion's excited population from the ground state
                    # under its offset
                    ref = reference_unitaries(seq, ctx, scale, 0.0)
                    for each in (TARGET, SPECTATOR):
                        assert np.max(np.abs(u[each] - ref[each])) < 1e-12
                    for j, offset in enumerate(shifts):
                        ref = reference_unitaries(seq, ctx, scale, offset)
                        assert abs(probs[j] - abs(ref[ion][1, 0]) ** 2) < 1e-12

    @pytest.mark.parametrize("amp", [1e-150, 1e-160, 1e-162, 1e-200])
    def test_tiny_fields_match_scalar_reference(self, amp):
        # the spectator's |Omega|^2 is subnormal below about 1.5e-154 rad/s
        ctx = CrosstalkContext(omega_0=OMEGA, f_ct=0.096, pol_overlap=0.8, ct_phase=0.7)
        pulse = PulseSegment(amp, 0.3, 0.0, 3.0 / amp)
        seq = with_pcc(PulseSequence((ChannelPulse(TARGET, (pulse,)),)), ctx,
                       CompensationSetting(0.5, 1.1))
        ref = reference_unitaries(seq, ctx)
        for ion, u in sequence_unitaries(seq, ctx).items():
            assert np.max(np.abs(u - ref[ion])) < 1e-14

    def test_padding_is_exact(self):
        from xtalk.kernel import _compile, _propagate

        def first_point(seqs):
            return _propagate(*_compile(seqs, CTX), None, CTX.ct_phase)[0][0]

        (quad_1, _), (quad_3, _) = pi_trains("quad", OMEGA, [1, 3], CTX)
        [(sk1_3, _)] = pi_trains("sk1", OMEGA, [3], CTX)
        alone = first_point([quad_1])
        # a prefix of a longer train, then multiplied beside a longer point
        assert np.array_equal(alone, first_point([quad_1, quad_3]))
        assert np.array_equal(alone, first_point([quad_1, sk1_3]))

    def test_scan_matches_one_point_simulations(self):
        from xtalk.kernel import _compile

        setting = CompensationSetting(1.0, math.pi)
        seqs = [seq for seq, _ in pi_trains("pcc", OMEGA, [3, 1], CTX, setting)]
        noise = np.array([np.linspace(0.0, 0.5, 50), np.linspace(-0.3, 0.1, 50)])
        for ion in (TARGET, SPECTATOR):
            scan = evaluate_compiled(_compile(seqs, CTX), CTX, shots=50, seed=4, keys=[7, 8],
                                     offsets=noise, ion=ion)
            for i, (seq, index) in enumerate(zip(seqs, (7, 8))):
                alone = evaluate_compiled(_compile([seq], CTX), CTX, shots=50, seed=4,
                                          keys=[index], offsets=noise[i:i + 1], ion=ion)
                assert np.array_equal(scan.populations[i], alone.populations[0])
                assert np.array_equal(scan.sampled[i], alone.sampled[0], equal_nan=True)

    @pytest.mark.parametrize("noisy", [False, True])
    def test_scan_returns_point_arrays(self, noisy):
        from xtalk.kernel import _compile

        seqs = [seq for seq, _ in pi_trains("sk1", OMEGA, [1, 4, 2], CTX)]
        noise = np.array([np.linspace(0.0, 0.4 * k, 30) for k in range(3)]) if noisy else None
        for ion in (TARGET, SPECTATOR):
            scan = evaluate_compiled(_compile(seqs, CTX), CTX, shots=30, seed=2, offsets=noise,
                                     ion=ion)
            assert scan.amplitudes.shape == (3, 2, 2)
            assert scan.populations.shape == scan.sampled.shape == (3, 2)
            # a noisy scan samples only its ion
            assert np.isfinite(scan.sampled[:, ion]).all()
            assert np.isnan(scan.sampled[:, 1 - ion]).all() == noisy
            for i, seq in enumerate(seqs):
                alone = evaluate_compiled(_compile([seq], CTX), CTX, shots=30, seed=2, keys=[i],
                                          offsets=None if noise is None else noise[i:i + 1],
                                          ion=ion)
                assert np.array_equal(scan.amplitudes[i], alone.amplitudes[0])
                assert np.array_equal(scan.populations[i], alone.populations[0])
                assert np.array_equal(scan.sampled[i], alone.sampled[0], equal_nan=True)
        assert simulate_scan(seqs, CTX).sampled is None

    @pytest.mark.parametrize("noisy", [False, True], ids=["noiseless", "noisy"])
    @pytest.mark.parametrize("wrapped", [False, True], ids=["x-error", "z-error"])
    @pytest.mark.parametrize("method", ["none", "pcc", "sk1", "quad"])
    def test_train_scan_points_match_one_point_simulations(self, method, wrapped, noisy):
        # detuned crosstalk slices read the start column; pol_overlap < 1
        # adds the quadrature term
        ctx = CrosstalkContext(omega_0=OMEGA, f_ct=0.096, delta_ct=0.05 * OMEGA,
                               pol_overlap=0.8, ct_phase=0.7)
        setting = CompensationSetting(1.0, math.pi + 0.7)
        counts = [5, 1, 3, 5, 2, 1]
        seqs = [seq for seq, _ in pi_trains(method, OMEGA, counts, ctx, setting)]
        if wrapped:
            seqs = [ramsey_wrap(seq, OMEGA) for seq in seqs]
        from xtalk.kernel import _compile

        noise = (np.array([np.linspace(0.0, 0.2 * i, 20) for i in range(len(counts))])
                 if noisy else None)
        for ion in (TARGET, SPECTATOR):
            scan = evaluate_compiled(_compile(seqs, ctx), ctx, shots=20, seed=3, offsets=noise,
                                     ion=ion)
            for i, n in enumerate(counts):
                [(seq, _)] = pi_trains(method, OMEGA, [n], ctx, setting)
                alone = evaluate_compiled(
                    _compile([ramsey_wrap(seq, OMEGA) if wrapped else seq], ctx), ctx, shots=20,
                    seed=3, keys=[i], offsets=None if noise is None else noise[i:i + 1], ion=ion)
                assert np.array_equal(scan.amplitudes[i], alone.amplitudes[0])
                assert np.array_equal(scan.populations[i], alone.populations[0])
                assert np.array_equal(scan.sampled[i], alone.sampled[0], equal_nan=True)

    @pytest.mark.parametrize("wrapped", [False, True], ids=["x-error", "z-error"])
    @pytest.mark.parametrize("method", ["none", "pcc", "sk1", "quad"])
    def test_shot_columns_leave_the_noiseless_column_exact(self, method, wrapped):
        # the shot columns multiply elementwise, column 0 through np.matmul
        ctx = CrosstalkContext(omega_0=OMEGA, f_ct=0.096, delta_ct=0.05 * OMEGA,
                               pol_overlap=0.8, ct_phase=0.7)
        setting = CompensationSetting(0.9, math.pi + 0.8)
        seqs = [seq for seq, _ in pi_trains(method, OMEGA, [4, 1, 7, 2], ctx, setting)]
        if wrapped:
            seqs = [ramsey_wrap(seq, OMEGA) for seq in seqs]
        from xtalk.kernel import _compile

        noise = np.random.default_rng(5).normal(0.0, 0.3, size=(len(seqs), 37))
        clean = simulate_scan(seqs, ctx)
        for ion in (TARGET, SPECTATOR):
            noisy = evaluate_compiled(_compile(seqs, ctx), ctx, shots=37, seed=1, offsets=noise,
                                      ion=ion)
            assert np.array_equal(noisy.amplitudes, clean.amplitudes)
            assert np.array_equal(noisy.populations, clean.populations)

    @pytest.mark.parametrize("wrapped", [False, True], ids=["x-error", "z-error"])
    @pytest.mark.parametrize("method", ["none", "pcc", "sk1", "quad"])
    def test_states_are_the_first_column_of_the_gate(self, method, wrapped):
        # a scan starts from the ground state, so each state is read as the
        # first column of the point's propagator
        ctx = CrosstalkContext(omega_0=OMEGA, f_ct=0.096, delta_ct=0.05 * OMEGA,
                               pol_overlap=0.8, ct_phase=0.7)
        setting = CompensationSetting(0.9, math.pi + 0.8)
        seqs = [seq for seq, _ in pi_trains(method, OMEGA, [3, 1, 2], ctx, setting)]
        if wrapped:
            seqs = [ramsey_wrap(seq, OMEGA) for seq in seqs]
        scan = simulate_scan(seqs, ctx)
        for seq, amplitudes in zip(seqs, scan.amplitudes):
            gates = sequence_unitaries(seq, ctx)
            for ion in (TARGET, SPECTATOR):
                ground = gates[ion] @ QubitState.ground().vector
                assert np.array_equal(amplitudes[ion], gates[ion][:, 0])
                assert np.array_equal(amplitudes[ion], ground)

    @pytest.mark.parametrize("kwargs, match", [
        ({"shots": 0}, "shots must be"),
    ], ids=["shots"])
    def test_arguments_are_checked_before_compiling(self, kwargs, match):
        # the second sequence fails to compile; a bad argument is named first
        target = ChannelPulse(TARGET, (PulseSegment(OMEGA, 0.0, 0.0, 1e-4),))
        spectator = ChannelPulse(SPECTATOR, (PulseSegment(OMEGA, 0.0, 0.5 * OMEGA, 1e-4),))
        seqs = [square_pi(OMEGA), PulseSequence((target, spectator))]
        with pytest.raises(ValueError, match=match):
            simulate_scan(seqs, CTX, **kwargs)

    @pytest.mark.parametrize("method", ["pcc", "quad"])
    def test_unsorted_points_beyond_one_group_match_alone(self, method):
        # 200 shots make passes of a few points, each point's block raised
        # to its own count
        ctx = CrosstalkContext(omega_0=OMEGA, f_ct=0.096, delta_ct=0.05 * OMEGA,
                               pol_overlap=0.8, ct_phase=0.7)
        setting = CompensationSetting(0.9, math.pi + 0.8)
        counts = [5, 1, 32, 1, 17, 3, 40, 2, 9, 11, 13]
        seqs = [seq for seq, _ in pi_trains(method, OMEGA, counts, ctx, setting)]
        from xtalk.kernel import _compile

        noise = np.random.default_rng(8).normal(0.0, 0.3, size=(len(seqs), 200))
        for ion in (TARGET, SPECTATOR):
            scan = evaluate_compiled(_compile(seqs, ctx), ctx, shots=200, seed=2, offsets=noise,
                                     ion=ion)
            for i, seq in enumerate(seqs):
                alone = evaluate_compiled(_compile([seq], ctx), ctx, shots=200, seed=2, keys=[i],
                                          offsets=noise[i:i + 1], ion=ion)
                assert np.array_equal(scan.amplitudes[i], alone.amplitudes[0])
                assert np.array_equal(scan.sampled[i], alone.sampled[0], equal_nan=True)

    @pytest.mark.parametrize("batch, shots", [(4096, 200), (64, 6), (64, 40), (4, 1)])
    def test_a_shot_evaluates_one_block_at_any_count(self, monkeypatch, batch, shots):
        # per shot, a noisy train evaluates its head rows (the opener), one
        # block and its tail rows (the closer), and no column-0 propagator:
        # as many at n_values [1, 2] as at [1, 200]; a call evaluates at
        # most a batch of propagators, at least one row of a pass
        from xtalk import kernel
        from xtalk.pulses import _train_table

        sizes = []
        evaluate = kernel._slice_propagators

        def counted(table, offsets, ct_phase, ions=(TARGET, SPECTATOR)):
            if np.ndim(offsets):  # a shot call, one offset per shot; column 0 passes 0.0
                assert len(ions) == 1
                sizes.append(np.broadcast(table[..., 0], offsets).size)
            return evaluate(table, offsets, ct_phase, ions)

        monkeypatch.setattr(kernel, "_BATCH", batch)
        monkeypatch.setattr(kernel, "_slice_propagators", counted)
        ctx = CrosstalkContext(omega_0=OMEGA, f_ct=0.096, delta_ct=0.05 * OMEGA,
                               pol_overlap=0.8)
        setting = CompensationSetting(0.9, math.pi + 0.8)
        noise = np.random.default_rng(3).normal(0.0, 0.2, size=(2, shots))
        for method, rows in (("none", 1), ("pcc", 1), ("sk1", 3), ("quad", 4)):
            for wrapped in (False, True):
                for ion in (TARGET, SPECTATOR):
                    counted_at = []
                    for counts in ([1, 2], [1, 200]):
                        sizes.clear()
                        close = [math.pi] * 2 if wrapped else None
                        evaluate_compiled(_train_table(method, counts, ctx, setting, close), ctx,
                                          shots=shots, offsets=noise, ion=ion)
                        assert sum(sizes) == 2 * shots * (rows + 2 * wrapped)
                        assert max(sizes) <= batch
                        counted_at.append(list(sizes))
                    assert counted_at[0] == counted_at[1]

    @pytest.mark.parametrize("ions", [(TARGET, SPECTATOR), (SPECTATOR,)],
                             ids=["both", "spectator"])
    @pytest.mark.parametrize("method", ["pcc", "quad"])
    def test_shot_passes_change_no_value(self, monkeypatch, method, ions):
        # at a batch of 64, 300 shots run in passes of 64: each shot's
        # arithmetic is elementwise, so every value stays as in one pass
        from xtalk import kernel
        from xtalk.pulses import _train_table

        ctx = CrosstalkContext(omega_0=OMEGA, f_ct=0.096, delta_ct=0.05 * OMEGA,
                               pol_overlap=0.8, ct_phase=0.7)
        counts = [4, 1, 7, 2]
        compiled = _train_table(method, counts, ctx, CompensationSetting(0.9, math.pi + 0.8),
                                [math.pi + 0.1 * n for n in counts])
        noise = np.random.default_rng(7).normal(0.0, 0.3, size=(len(counts), 300))

        def run(ion):
            probs = kernel._propagate(*compiled, noise, ctx.ct_phase, ion)[1]
            return probs, evaluate_compiled(compiled, ctx, shots=300, seed=2, offsets=noise,
                                            ion=ion)

        for ion in ions:
            monkeypatch.setattr(kernel, "_BATCH", 4096)
            probs, scan = run(ion)
            monkeypatch.setattr(kernel, "_BATCH", 64)
            passed_probs, passed = run(ion)
            assert passed_probs.tobytes() == probs.tobytes()
            assert passed.sampled.tobytes() == scan.sampled.tobytes()
            assert passed.populations.tobytes() == scan.populations.tobytes()

    @pytest.mark.parametrize("wrapped", [False, True], ids=["x-error", "z-error"])
    @pytest.mark.parametrize("method", ["pcc", "quad"])
    def test_noisy_column_0_is_evaluated_as_without_noise(self, monkeypatch, method, wrapped):
        # column 0 has one path: a noisy train scan evaluates the same
        # column-0 propagators, in the same calls, as its noiseless twin
        from xtalk import kernel
        from xtalk.pulses import _train_table

        calls, shot_calls = [], []
        evaluate = kernel._slice_propagators

        def recorded(table, offsets, ct_phase, ions=(TARGET, SPECTATOR)):
            record = shot_calls if np.ndim(offsets) else calls
            record.append((table.tobytes(), np.asarray(offsets).tobytes(), tuple(ions)))
            return evaluate(table, offsets, ct_phase, ions)

        monkeypatch.setattr(kernel, "_slice_propagators", recorded)
        ctx = CrosstalkContext(omega_0=OMEGA, f_ct=0.096, delta_ct=0.05 * OMEGA,
                               pol_overlap=0.8, ct_phase=0.7)
        setting = CompensationSetting(0.9, math.pi + 0.8)
        counts = [4, 1, 7, 2, 7]
        close = [math.pi + 0.1 * n for n in counts] if wrapped else None
        noise = np.random.default_rng(5).normal(0.0, 0.3, size=(len(counts), 37))
        evaluate_compiled(_train_table(method, counts, ctx, setting, close), ctx)
        clean = list(calls)
        for ion in (TARGET, SPECTATOR):
            calls[:], shot_calls[:] = [], []
            evaluate_compiled(_train_table(method, counts, ctx, setting, close), ctx, shots=37,
                              seed=1, offsets=noise, ion=ion)
            assert clean and calls == clean
            assert shot_calls and all(ions == (ion,) for _, _, ions in shot_calls)

    @pytest.mark.parametrize("shots", [1, 200])
    @pytest.mark.parametrize("pol_overlap", [1.0, 0.8])
    @pytest.mark.parametrize("delta_ct", [0.0, 0.05 * OMEGA], ids=["resonant", "detuned"])
    def test_one_slice_scan_matches_the_general_path(self, delta_ct, pol_overlap, shots):
        # a trailing dark slice on every point sends the same scan through
        # the product path; a detuned ion's slices are Z-framed
        from xtalk.kernel import _compile

        ctx = CrosstalkContext(omega_0=OMEGA, f_ct=0.096, delta_ct=delta_ct,
                               pol_overlap=pol_overlap, ct_phase=0.7)

        def drive(channel, amp, phase, t):
            return PulseSequence((ChannelPulse(channel, (PulseSegment(amp, phase, 0.0, t),)),))

        setting = CompensationSetting(0.9, math.pi + 0.8)
        seqs = [with_pcc(drive(TARGET, OMEGA, 0.4, k * ctx.t_pi), ctx, setting)
                for k in (0.0, 0.3, 1.0, 2.5)]  # the first makes no slice
        seqs += [drive(SPECTATOR, 0.5 * OMEGA, 1.1, ctx.t_pi_ct / 3),
                 drive(TARGET, OMEGA, -0.2, ctx.t_pi)]
        dark = drive(TARGET, 0.0, 0.0, 1e-6)
        padded = [concat(seq, dark) for seq in seqs]
        noise = np.random.default_rng(4).normal(0.0, 0.3, size=(len(seqs), shots))
        assert _compile(seqs, ctx)[1].tolist() == [0, 1, 1, 1, 1, 1]
        assert _compile(padded, ctx)[1].tolist() == [1, 2, 2, 2, 2, 2]
        for offsets, ion in ((None, SPECTATOR), (noise, TARGET), (noise, SPECTATOR)):
            one, general = (evaluate_compiled(_compile(s, ctx), ctx, shots, 5, offsets=offsets,
                                              ion=ion) for s in (seqs, padded))
            assert one.populations.tobytes() == general.populations.tobytes()
            assert one.sampled.tobytes() == general.sampled.tobytes()  # NaN where unsampled
            assert (one.amplitudes == general.amplitudes).all()

    @pytest.mark.parametrize("batch", [4096, 256, 64])
    @pytest.mark.parametrize("ions", [(TARGET, SPECTATOR), (SPECTATOR,)],
                             ids=["both", "spectator"])
    def test_one_slice_groups_stay_within_a_batch(self, monkeypatch, batch, ions):
        # column 0 goes in groups of half a batch of points, a batch of
        # propagators, and the shots of the sampled ion in passes of at most
        # a batch of point-shots: consecutive points, or one point's shots
        from xtalk import kernel

        columns, passes = [], []
        propagators, excitations = kernel._slice_propagators, kernel._excitations

        def counted_propagators(table, offsets, ct_phase, ions=(TARGET, SPECTATOR)):
            assert np.ndim(offsets) == 0  # column 0 only: a shot needs no propagator
            columns.append(len(ions) * np.broadcast(table[..., 0], offsets).size)
            return propagators(table, offsets, ct_phase, ions)

        def counted_excitations(table, offsets, ct_phase, ion):
            passes.append(np.broadcast(table[..., 0], offsets).size)
            return excitations(table, offsets, ct_phase, ion)

        monkeypatch.setattr(kernel, "_BATCH", batch)
        monkeypatch.setattr(kernel, "_slice_propagators", counted_propagators)
        monkeypatch.setattr(kernel, "_excitations", counted_excitations)
        points, shots = 2000, 200
        template = with_pcc(square_pi(OMEGA), CTX, CompensationSetting(0.97, 0.0))
        dials = np.linspace(0.0, 2.0 * math.pi, points)
        noise = np.random.default_rng(6).normal(0.0, 0.3, size=(points, shots))
        for ion in ions:
            columns.clear()
            passes.clear()
            evaluate_compiled(kernel._compile_scan(template, CTX, "phase", dials), CTX,
                              shots=shots, offsets=noise, ion=ion)
            assert sum(columns) == 2 * points and max(columns) <= batch
            assert len(columns) == -(-points // (batch // 2))
            assert sum(passes) == points * shots and max(passes) <= batch
            group = max(1, batch // shots)
            assert len(passes) == -(-points // group) * -(-shots // batch)

    def test_excitations_match_the_slice_propagators(self):
        # |u_10|^2 of the propagators, for resonant and detuned rows, both
        # polarizations, dark rows, zero durations and subnormal |Omega|^2
        from xtalk.kernel import _COLUMNS, _ION_COLUMNS, _excitations, _slice_propagators

        rng = np.random.default_rng(22)
        for pol_overlap in (1.0, 0.8, 0.0):
            q = math.sqrt(1.0 - pol_overlap**2)
            table = np.zeros((60, _COLUMNS))
            table[:, 0] = rng.uniform(0.0, 1e-4, 60)
            table[:, 1] = rng.uniform(0.0, 3.0, 60) * CTX.t_pi
            for ion in (TARGET, SPECTATOR):
                cols = table[:, 2 + _ION_COLUMNS * ion:][:, :_ION_COLUMNS]
                amp = rng.uniform(0.0, OMEGA, 60)
                cols[:, 0] = rng.choice([0.0, 1.0], 60) * rng.normal(0.0, 0.2 * OMEGA, 60)
                cols[:, 1:3] = rng.normal(0.0, 0.3 * OMEGA, (60, 2))
                cols[:, 3], cols[:, 5] = pol_overlap * amp, q * amp
                cols[:, 4] = rng.uniform(0.0, 7.0, 60)
            table[:8, 2:] = 0.0  # dark rows, the last four detuned
            table[4:8, [2, 2 + _ION_COLUMNS]] = 0.1 * OMEGA
            table[8:12, 1] = 0.0
            # fields of 1e-160 rad/s, where |Omega|^2 is subnormal, and of
            # 1e-170 rad/s, where it is 0; half of them detuned as much
            field = np.repeat([1e-160, 1e-170], 4)[:, None]
            tiny = table[12:20, 2:]
            tiny[:, [1, 2, 3, 5, 7, 8, 9, 11]] = field
            tiny[:, [0, 6]] = np.where((np.arange(8) % 4 < 2)[:, None], 0.0, field)
            table[12:20, 1] = 3.0 / field[:, 0]
            offsets = rng.normal(0.0, 0.5, (60, 5))
            u = _slice_propagators(table[:, None], offsets, 0.7)
            for ion in (TARGET, SPECTATOR):
                probs = _excitations(table[:, None], offsets, 0.7, ion)
                assert probs.shape == (60, 5)
                assert np.max(np.abs(probs - np.abs(u[..., ion, 1, 0]) ** 2)) < 1e-14
                assert (probs[:8] == 0.0).all() and (probs[8:12] == 0.0).all()
                assert (probs[12:20] > 0.0).all()
        offsets[3, 2] = math.nan
        with pytest.raises(ValueError, match="non-finite input"):
            _excitations(table[:, None], offsets, 0.7, SPECTATOR)

    def test_block_power_matches_matrix_power(self):
        # a quaternion's product and power are those of its propagator
        # U = a - i(b X + c Y + d Z): Rz(k phi) (Rz(-phi) B)^k against
        # np.linalg.matrix_power, at k = 0, for identities and past a turn
        from xtalk.kernel import _hamilton, _power

        def matrix(q):
            a, b, c, d = (np.asarray(x) for x in q)
            return np.moveaxis(np.array([[a - 1j * d, -c - 1j * b], [c - 1j * b, a + 1j * d]]),
                               (0, 1), (-2, -1))

        rng = np.random.default_rng(9)
        q = rng.normal(size=(4, 200))
        q /= np.linalg.norm(q, axis=0)
        q[:, :2] = [[1.0, -1.0], [0.0, 0.0], [0.0, 0.0], [0.0, 0.0]]
        p = rng.normal(size=(4, 200))
        p /= np.linalg.norm(p, axis=0)
        product = matrix(_hamilton(tuple(p), tuple(q)))
        assert np.max(np.abs(product - matrix(p) @ matrix(q))) < 1e-15
        k = rng.integers(0, 300, 200)
        k[2:4] = 0
        for phi in (0.0, 0.3, -2.1):
            powered = matrix(_power(tuple(q), k, phi))
            for i, n in enumerate(k.tolist()):
                framed = rz(-phi) @ matrix(q[:, i])
                ref = rz(n * phi) @ np.linalg.matrix_power(framed, n)
                assert np.max(np.abs(powered[i] - ref)) < 1e-12 * max(n, 1)

    def test_trains_are_prefixes_of_the_longest(self):
        setting = CompensationSetting(1.0, math.pi)
        for method in ("none", "pcc", "sk1", "quad"):
            trains = pi_trains(method, OMEGA, [3, 1, 3], CTX, setting, phase=0.3)
            for n, train in zip([3, 1, 3], trains):
                assert [train] == pi_trains(method, OMEGA, [n], CTX, setting, phase=0.3)
        assert pi_trains("quad", OMEGA, []) == []
        with pytest.raises(ValueError, match="n_pulses"):
            pi_trains("sk1", OMEGA, [2, 0])

    def test_mixed_detuning_rejected_in_a_scan(self):
        target = ChannelPulse(TARGET, (PulseSegment(OMEGA, 0.0, 0.0, 1e-4),))
        spectator = ChannelPulse(SPECTATOR, (PulseSegment(OMEGA, 0.0, 0.5 * OMEGA, 1e-4),))
        bad = PulseSequence((target, spectator))
        with pytest.raises(ValueError, match="different detunings"):
            simulate_scan([square_pi(OMEGA), bad, square_pi(OMEGA)], CTX)

    def test_dark_slices_are_exact(self):
        from xtalk.kernel import _compile

        # durations whose sums are exact, so only the gap tells the two apart
        pulse = PulseSequence((ChannelPulse(TARGET, (PulseSegment(OMEGA, 0.3, 0.0, 2**-17),)),))
        gap = PulseSequence((ChannelPulse(TARGET, (PulseSegment(0.0, 0.0, 0.0, 2.0**-19),)),))
        seqs = [concat(pulse, gap, pulse), concat(pulse, pulse)]
        table, lengths, _ = _compile(seqs, CTX)
        assert lengths.tolist() == [3, 2]
        assert not table[1, 2:].any()  # no light on either ion during the gap
        with_gap, without = (sequence_unitaries(seq, CTX) for seq in seqs)
        for ion in (TARGET, SPECTATOR):
            assert np.array_equal(with_gap[ion], without[ion])

    def test_merge_compares_with_the_last_kept_cut(self):
        from xtalk.kernel import _merge

        # cuts closer than tol to their predecessor can still be kept: each
        # is measured from the last cut kept, per point
        cuts = np.array([0.0, 1.0, 1.6, 2.2, 5.0, 0.0, 0.7, 1.4, 2.1])
        point = np.array([0, 0, 0, 0, 0, 1, 1, 1, 1])
        keep = _merge(cuts, point, np.array([1.0, 1.0]))
        assert keep.tolist() == [True, False, True, False, True, True, False, True, False]

    def test_empty_scan(self):
        scan = simulate_scan([], CTX, shots=5)
        assert scan.amplitudes.shape == (0, 2, 2)
        assert scan.populations.shape == scan.sampled.shape == (0, 2)

    def test_non_finite_state_rejected(self):
        ctx = CrosstalkContext(omega_0=1e300, f_ct=0.096)
        with np.errstate(all="ignore"), pytest.raises(ValueError, match="must be finite"):
            simulate_scan([square_pi(1e300)], ctx)


@st.composite
def noisy_scans(draw):
    """A random noisy scan: its context, a compiler of per-point values
    (``_train_table`` for x-error and z-error trains, ``_compile_scan`` for
    a phase or flop scan), the values, a shot count and one row of
    spectator phase offsets per point."""
    from xtalk.kernel import _compile_scan
    from xtalk.pulses import _target_drive, _train_table

    ctx = CrosstalkContext(omega_0=OMEGA, f_ct=0.096,
                           delta_ct=draw(st.sampled_from([0.0, 0.05 * OMEGA])),
                           pol_overlap=draw(st.sampled_from([1.0, 0.8])), ct_phase=0.7)
    kind = draw(st.sampled_from(["x-error", "z-error", "phase", "duration"]))
    if kind in ("x-error", "z-error"):
        method = draw(st.sampled_from(["none", "pcc", "sk1", "quad"]))
        values = draw(st.lists(st.integers(1, 9), min_size=2, max_size=5))

        def build(counts):
            closes = [math.pi + 0.1 * n for n in counts] if kind == "z-error" else None
            return _train_table(method, counts, ctx, CompensationSetting(0.9, math.pi + 0.8),
                                closes)
    else:
        template = with_pcc(_target_drive(OMEGA, 2.0 * ctx.t_pi_ct), ctx,
                            CompensationSetting(0.97, 0.0))
        high = 2.0 * math.pi if kind == "phase" else 3.0 * ctx.t_pi_ct
        values = draw(st.lists(st.floats(0.0, high), min_size=1, max_size=6))

        def build(values):
            return _compile_scan(template, ctx, kind, np.array(values))
    shots = draw(st.integers(1, 40))
    rng = np.random.default_rng(draw(st.integers(0, 2**16)))
    return ctx, build, values, shots, rng.normal(0.0, 0.3, (len(values), shots))


def _scan_bytes(res, point=slice(None)):
    return [None if a is None else a[point].tobytes()
            for a in (res.amplitudes, res.populations, res.sampled)]


class TestKernelProperties:
    """The kernel's invariants over random noisy scans, through ``_evaluate``
    for either sampled ion: they need no reference output."""

    @settings(max_examples=40, deadline=None)
    @given(scan=noisy_scans())
    def test_each_point_is_its_scan_alone(self, scan):
        ctx, build, values, shots, offsets = scan
        for ion in (TARGET, SPECTATOR):
            whole = evaluate_compiled(build(values), ctx, shots, 5, offsets=offsets, ion=ion)
            for i, value in enumerate(values):
                alone = evaluate_compiled(build([value]), ctx, shots, 5, keys=[i],
                                          offsets=offsets[i:i + 1], ion=ion)
                assert _scan_bytes(alone) == _scan_bytes(whole, [i])

    @settings(max_examples=40, deadline=None)
    @given(scan=noisy_scans(), batch=st.sampled_from([8, 64]), data=st.data())
    def test_results_ignore_the_batch_point_order_and_shot_passes(self, scan, batch, data):
        # a batch of 8 or 64 cuts columns, groups, windows and shot passes
        # that a batch of 4,096 holds whole
        from xtalk import kernel

        ctx, build, values, shots, offsets = scan
        order = data.draw(st.permutations(range(len(values))))
        moved = build([values[i] for i in order])
        for ion in (TARGET, SPECTATOR):
            probs = kernel._propagate(*build(values), offsets, ctx.ct_phase, ion)[1]
            whole = evaluate_compiled(build(values), ctx, shots, 5, offsets=offsets, ion=ion)
            with mock.patch.object(kernel, "_BATCH", batch):
                cut = kernel._propagate(*build(values), offsets, ctx.ct_phase, ion)[1]
                batched = evaluate_compiled(build(values), ctx, shots, 5, offsets=offsets,
                                            ion=ion)
            assert cut.tobytes() == probs.tobytes()
            assert _scan_bytes(batched) == _scan_bytes(whole)
            reordered = kernel._propagate(*moved, offsets[order], ctx.ct_phase, ion)[1]
            permuted = evaluate_compiled(moved, ctx, shots, 5, keys=order, offsets=offsets[order],
                                         ion=ion)
            assert reordered.tobytes() == probs[order].tobytes()
            assert _scan_bytes(permuted) == _scan_bytes(whole, order)

    @settings(max_examples=40, deadline=None)
    @given(scan=noisy_scans())
    def test_noisy_column_0_is_the_noiseless_one(self, scan):
        ctx, build, values, shots, offsets = scan
        clean = evaluate_compiled(build(values), ctx)
        for ion in (TARGET, SPECTATOR):
            noisy = evaluate_compiled(build(values), ctx, shots, 5, offsets=offsets, ion=ion)
            assert _scan_bytes(noisy)[:2] == _scan_bytes(clean)[:2]

    @settings(max_examples=40, deadline=None)
    @given(scan=noisy_scans())
    def test_populations_lie_in_the_unit_interval(self, scan):
        # and column 0 stays unitary
        from xtalk.kernel import _propagate

        ctx, build, values, shots, offsets = scan
        u, _ = _propagate(*build(values), None, ctx.ct_phase)
        product = u @ np.swapaxes(u.conj(), -1, -2)
        assert np.max(np.abs(product - np.eye(2)), initial=0.0) <= 1e-14
        for ion in (TARGET, SPECTATOR):
            probs = _propagate(*build(values), offsets, ctx.ct_phase, ion)[1]
            res = evaluate_compiled(build(values), ctx, shots, 5, offsets=offsets, ion=ion)
            for p in (probs, res.populations, res.sampled[:, ion]):
                assert ((p >= 0.0) & (p <= 1.0)).all()

    @settings(max_examples=30, deadline=None)
    @given(wrapped=st.booleans(), delta_ct=st.sampled_from([0.0, 0.05 * OMEGA]),
           pol_overlap=st.sampled_from([1.0, 0.8]),
           counts=st.lists(st.integers(1, 300), min_size=1, max_size=3),
           shots=st.integers(1, 6), seed=st.integers(0, 2**16))
    def test_noisy_train_shots_are_the_slice_product(self, wrapped, delta_ct, pol_overlap,
                                                     counts, shots, seed):
        # a train's shots, head, block power and tail, against the product
        # of its table rows from the ground state; each block row lasts as
        # long as the first block's, as in the power: the table's durations,
        # differences of running sums, alone move a population by up to
        # 3e-11 at 300 pulses
        from xtalk.kernel import _propagate, _slice_propagators
        from xtalk.pulses import _train_table

        ctx = CrosstalkContext(omega_0=OMEGA, f_ct=0.096, delta_ct=delta_ct,
                               pol_overlap=pol_overlap, ct_phase=0.7)
        closes = [math.pi + 0.1 * n for n in counts] if wrapped else None
        offsets = np.random.default_rng(seed).normal(0.0, 0.3, (len(counts), shots))
        for method in ("none", "pcc", "sk1", "quad"):
            table, lengths, plan = _train_table(method, counts, ctx,
                                                CompensationSetting(0.9, math.pi + 0.8), closes)
            head, blocks, size, _ = plan
            for ion in (TARGET, SPECTATOR):
                probs = _propagate(table, lengths, plan, offsets, ctx.ct_phase, ion)[1]
                for i, (begin, n) in enumerate(zip(np.cumsum(lengths) - lengths, lengths)):
                    rows = table[begin:begin + n].copy()
                    block = rows[head[i]:head[i] + size, 1]
                    rows[head[i]:head[i] + blocks[i] * size, 1] = np.tile(block, blocks[i])
                    state = np.zeros((shots, 2, 1), dtype=complex)
                    state[:, 0] = 1.0
                    for u in _slice_propagators(rows[:, None], offsets[i], ctx.ct_phase, (ion,)):
                        state = np.matmul(u[:, 0], state)
                    assert np.max(np.abs(probs[i] - np.abs(state[:, 1, 0]) ** 2)) < 1e-11


def _template_cases(ctx):
    """(template, varied, values, unrolled sequences) per calibration scan."""
    t_pi = ctx.t_pi_ct

    def drive(channel, amp, det, t, phase=0.0):
        return PulseSequence((ChannelPulse(channel, (PulseSegment(amp, phase, det, t),)),))

    # 0 and a duration below the merge tolerance make no slice
    durations = np.concatenate([[0.0, 1e-320], np.linspace(0.0, 2.0 * t_pi, 21)[1:]])
    comp = 0.9 * ctx.f_ct * OMEGA
    dials = np.arange(40) * (2.0 * math.pi / 40)
    base = drive(TARGET, OMEGA, 0.0, 4.0 * t_pi, 0.4)  # the tone's phase is 0.4 + dial
    detunings = np.linspace(-1.5 * OMEGA, 1.5 * OMEGA, 61) - ctx.stark_shift
    return [
        (drive(TARGET, OMEGA, 0.0, t_pi), "duration", durations,
         [drive(TARGET, OMEGA, 0.0, t) for t in durations]),
        (drive(SPECTATOR, comp, ctx.delta_ct, t_pi), "duration", durations,
         [drive(SPECTATOR, comp, ctx.delta_ct, t) for t in durations]),
        (with_pcc(base, ctx, CompensationSetting(0.97, 0.0)), "phase", dials,
         [with_pcc(base, ctx, CompensationSetting(0.97, d)) for d in dials]),
        (drive(TARGET, OMEGA, 0.0, math.pi / OMEGA, 0.4), "detuning", detunings,
         [drive(TARGET, OMEGA, d, math.pi / OMEGA, 0.4) for d in detunings]),
    ]


class TestTemplateScans:
    CTX = CrosstalkContext(omega_0=OMEGA, f_ct=0.096, delta_ct=0.05 * OMEGA, pol_overlap=0.8,
                           ct_phase=0.7, stark_shift=2 * math.pi * 3e3)

    @pytest.mark.parametrize("case", range(4), ids=["target-flop", "spectator-flop", "phase",
                                                    "stark"])
    def test_table_is_the_unrolled_table(self, case):
        from xtalk.kernel import _compile, _compile_scan

        template, varied, values, seqs = _template_cases(self.CTX)[case]
        table, lengths, _ = _compile_scan(template, self.CTX, varied, values)
        ref_table, ref_lengths, _ = _compile(seqs, self.CTX)
        assert np.array_equal(lengths, ref_lengths)
        assert table.tobytes() == ref_table.tobytes()

    @pytest.mark.parametrize("case", range(4), ids=["target-flop", "spectator-flop", "phase",
                                                    "stark"])
    def test_scan_is_the_unrolled_scan(self, case):
        from xtalk.kernel import _compile, _compile_scan

        template, varied, values, seqs = _template_cases(self.CTX)[case]
        keys = list(range(7, 7 + len(seqs)))
        noise = np.random.default_rng(case).normal(0.0, 0.2, size=(len(seqs), 30))
        for kwargs in ({}, {"shots": 200, "seed": 3, "keys": keys},
                       {"shots": 30, "seed": 4, "offsets": noise, "ion": TARGET},
                       {"shots": 30, "seed": 4, "offsets": noise, "ion": SPECTATOR}):
            got = evaluate_compiled(_compile_scan(template, self.CTX, varied, values), self.CTX,
                                    **kwargs)
            ref = evaluate_compiled(_compile(seqs, self.CTX), self.CTX, **kwargs)
            for a, b in zip((got.amplitudes, got.populations, got.sampled),
                            (ref.amplitudes, ref.populations, ref.sampled)):
                assert (a is None and b is None) or np.array_equal(a, b, equal_nan=True)

    @pytest.mark.parametrize("varied, bad", [
        ("duration", -1e-9), ("duration", math.nan), ("duration", -math.inf),
        ("duration", math.inf), ("phase", math.nan), ("phase", -math.inf),
        ("detuning", math.nan), ("detuning", math.inf),
    ])
    def test_values_are_checked_as_segments(self, varied, bad):
        from xtalk.kernel import _compile_scan

        # the first bad value decides, as it would building the sequences
        with pytest.raises(ValueError) as segment:
            PulseSegment(**{"amplitude": OMEGA, "phase": 0.0, "detuning": 0.0,
                            "duration": 1e-6, varied: bad})
        with pytest.raises(ValueError, match=f"^{segment.value}$"):
            _compile_scan(square_pi(OMEGA), CTX, varied, [1e-6, bad, -1.0])

    def test_template_must_be_one_slice(self):
        from xtalk.kernel import _compile_scan

        with pytest.raises(ValueError, match="one slice"):
            _compile_scan(sk1(math.pi, 0.0, OMEGA), CTX, "phase", [0.0, 1.0])


class TestTrainScans:
    # detuned crosstalk reads the start column, pol_overlap < 1 adds the
    # quadrature term; counts of 1, odd, unsorted and repeated
    CTX = CrosstalkContext(omega_0=OMEGA, f_ct=0.096, delta_ct=0.05 * OMEGA, pol_overlap=0.8,
                           ct_phase=0.7)
    SETTING = CompensationSetting(0.97, math.pi + 0.02)
    COUNTS = ([1], [17], [33, 17, 1, 17, 4])

    def _unrolled(self, method, counts, closes=None):
        seqs = [seq for seq, _ in pi_trains(method, OMEGA, counts, self.CTX, self.SETTING)]
        if closes is not None:
            seqs = [ramsey_wrap(seq, OMEGA, close) for seq, close in zip(seqs, closes)]
        return seqs

    def _closes(self, method, counts):
        """z-error's closing phases: quad's read from its trains' spectator."""
        from xtalk.pulses import _evaluate, _train_table

        if method != "quad":
            return [math.pi] * len(counts)
        trains = _evaluate(*_train_table(method, counts, self.CTX, self.SETTING), self.CTX)
        u00 = trains.amplitudes[:, SPECTATOR, 0]
        return [math.pi + -2.0 * math.atan2(u.imag, u.real) for u in u00]

    @pytest.mark.parametrize("counts", COUNTS, ids=["1", "17", "unsorted"])
    @pytest.mark.parametrize("wrapped", [False, True], ids=["x-error", "z-error"])
    @pytest.mark.parametrize("method", ["none", "pcc", "sk1", "quad"])
    def test_table_is_the_unrolled_table(self, method, wrapped, counts):
        from xtalk.kernel import _compile, _compile_segments, _train_segments
        from xtalk.pulses import _ramsey_pulse, _train

        closes = self._closes(method, counts) if wrapped else None
        block, blocks, _, offsets = _train(method, OMEGA, counts, self.CTX, self.SETTING, 0.0)
        wrap = None if closes is None else (_ramsey_pulse(OMEGA, 0.0),
                                            [_ramsey_pulse(OMEGA, c) for c in closes])
        table, lengths, _ = _compile_segments(
            _train_segments(block, np.array(blocks), offsets, wrap), self.CTX)
        ref_table, ref_lengths, _ = _compile(self._unrolled(method, counts, closes), self.CTX)
        assert np.array_equal(lengths, ref_lengths)
        assert table.tobytes() == ref_table.tobytes()

    @pytest.mark.parametrize("wrapped", [False, True], ids=["x-error", "z-error"])
    @pytest.mark.parametrize("method", ["none", "pcc", "sk1", "quad"])
    def test_scan_is_the_unrolled_scan(self, method, wrapped):
        from xtalk.kernel import _compile
        from xtalk.pulses import _train_table

        counts = self.COUNTS[-1]
        closes = self._closes(method, counts) if wrapped else None
        seqs = self._unrolled(method, counts, closes)
        noise = np.random.default_rng(4).normal(0.0, 0.2, size=(len(counts), 30))
        for kwargs in ({}, {"shots": 1, "seed": 2}, {"shots": 200, "seed": 3,
                                                     "keys": [9, 7, 5, 3, 1]},
                       {"shots": 30, "seed": 4, "offsets": noise, "ion": TARGET},
                       {"shots": 30, "seed": 4, "offsets": noise, "ion": SPECTATOR}):
            got = evaluate_compiled(_train_table(method, counts, self.CTX, self.SETTING, closes),
                                    self.CTX, **kwargs)
            ref = evaluate_compiled(_compile(seqs, self.CTX), self.CTX, **kwargs)
            for a, b in zip((got.amplitudes, got.populations, got.sampled),
                            (ref.amplitudes, ref.populations, ref.sampled)):
                assert (a is None and b is None) or np.array_equal(a, b, equal_nan=True)

    def test_checks_are_pi_trains_checks(self):
        from xtalk.pulses import _train_table

        for args, match in ((("sk1", [2, 0]), "n_pulses"), (("sq", [1]), "unknown method"),
                            (("pcc", [1]), "needs a context")):
            with pytest.raises(ValueError, match=match):
                pi_trains(args[0], OMEGA, args[1])
            with pytest.raises(ValueError, match=match):
                _train_table(*args, self.CTX)
        with pytest.raises(ValueError, match="phase must be finite"):
            _train_table("none", [1], self.CTX, close_phases=[math.nan])
        empty = evaluate_compiled(_train_table("quad", [], self.CTX, close_phases=[]), self.CTX,
                                  shots=3)
        assert empty.amplitudes.shape == (0, 2, 2) and empty.sampled.shape == (0, 2)
