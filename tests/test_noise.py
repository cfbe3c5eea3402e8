import math

import numpy as np
import pytest

from xtalk.noise import (
    AomModel,
    DriftProcess,
    DutyCycleState,
    duty_cycle_drift_rate,
    matched_drive_power,
    ramsey_phase_probe,
    rf_absorption,
    sample_slow_drift,
    step_duty_cycle,
)


def _seed_sequence_stream(*words):
    return np.random.default_rng(np.random.SeedSequence([w & 0xFFFFFFFFFFFFFFFF for w in words]))


@pytest.mark.parametrize("key", [(0,), (7, 3), (-1, 2**64 + 5), (2**70, -(2**65), 11)])
def test_rng_is_the_seed_sequence_stream(key):
    from xtalk.noise import _streams

    # the stream keyed on ``key``, each word taken modulo 2**64
    (stream,) = _streams(key[:-1], [key[-1]])
    reference = _seed_sequence_stream(*key)
    assert np.array_equal(stream.random(16), reference.random(16))


@pytest.mark.parametrize("prefix", [
    (0,), (12345,), (2**64 + 17,), (-1,), (),
    # more than the four pool words: the entropy beyond the pool mixes in
    (2**40, 7, 2**63, 5),
], ids=["zero", "small", "past-64-bits", "minus-one", "no-seed", "long"])
def test_streams_key_each_point_as_seed_sequence(prefix):
    from xtalk.noise import _streams

    # one and two 32-bit words in one call, each modulo 2**64
    keys = [0, 1, 2**32, 2**64 + 5, -1, 2**32 - 1, np.int64(9), 2**33 + 7]
    streams = _streams(prefix, keys)
    assert len(streams) == len(keys)
    for stream, key in zip(streams, keys):
        reference = _seed_sequence_stream(*prefix, int(key))
        assert stream.bit_generator.state == reference.bit_generator.state
        assert np.array_equal(stream.random(8), reference.random(8))


def test_streams_of_no_keys():
    from xtalk.noise import _streams

    assert _streams([3], []) == []


class TestSlowDrift:
    def test_zero_process_is_flat(self):
        p = DriftProcess(linear_rate=0.0, walk_sigma=0.0)
        trace = sample_slow_drift(p, 8.0, 0.05, seed=1)
        assert np.all(trace == 0.0)

    def test_linear_component(self):
        p = DriftProcess(linear_rate=2e-3, walk_sigma=0.0)
        trace = sample_slow_drift(p, 10.0, 0.5, seed=0)
        assert trace[-1] == pytest.approx(2e-3 * 10.0, rel=1e-12)

    def test_bitwise_reproducible(self):
        p = DriftProcess.exposed()
        a = sample_slow_drift(p, 8.0, 0.05, seed=123)
        b = sample_slow_drift(p, 8.0, 0.05, seed=123)
        assert np.array_equal(a, b)
        c = sample_slow_drift(p, 8.0, 0.05, seed=124)
        assert not np.array_equal(a, c)

    @pytest.mark.parametrize(
        "process,target", [(DriftProcess.enclosed(), 0.05), (DriftProcess.exposed(), 0.49)]
    )
    def test_preset_sample_deviation(self, process, target):
        stds = [
            float(np.std(sample_slow_drift(process, 8.0, 0.05, seed=s))) for s in range(100)
        ]
        mean_std = float(np.mean(stds))
        assert 0.7 * target <= mean_std <= 1.3 * target

    def test_enclosed_linear_rate(self):
        assert DriftProcess.enclosed().linear_rate == pytest.approx(3.5e-3)

    def test_rejects_bad_dt(self):
        with pytest.raises(ValueError):
            sample_slow_drift(DriftProcess.enclosed(), 8.0, 0.0)


class TestAomCurves:
    def test_absorption_far_detuned(self):
        m = AomModel()
        assert rf_absorption(m, 150.0) == pytest.approx(1.0)
        assert rf_absorption(m, 100.0) == pytest.approx(0.5, rel=1e-12)

    def test_matched_power(self):
        m = AomModel()
        p = matched_drive_power(m)
        assert p * rf_absorption(m, 150.0) == pytest.approx(
            m.max_rf_power * rf_absorption(m, 100.0), rel=1e-12
        )
        assert p == pytest.approx(0.5, rel=1e-12)


class TestDutyCycle:
    def test_equal_loads_no_phase(self):
        m = AomModel()
        s = DutyCycleState()
        load = (0.7, 150.0)
        for _ in range(50):
            s = step_duty_cycle(s, m, (load, load), 1.0)
        assert s.phase == 0.0

    def test_antisymmetric_under_swap(self):
        m = AomModel()
        a = DutyCycleState()
        b = DutyCycleState()
        loads = ((1.0, 150.0), (0.3, 100.0))
        for _ in range(20):
            a = step_duty_cycle(a, m, loads, 0.5)
            b = step_duty_cycle(b, m, loads[::-1], 0.5)
        assert a.phase == pytest.approx(-b.phase, rel=1e-12)

    def test_steady_rate_matches_analytic_fixed_point(self):
        m = AomModel()
        loads = ((0.9, 150.0), (0.2, 100.0))
        s = DutyCycleState()
        s = step_duty_cycle(s, m, loads, 50.0 * m.thermal_tau)
        probe = step_duty_cycle(s, m, loads, 1.0)
        rate = probe.phase - s.phase
        analytic = m.thermal_coeff * (
            0.9 * rf_absorption(m, 150.0) - 0.2 * rf_absorption(m, 100.0)
        )
        assert rate == pytest.approx(analytic, abs=1e-9)

    def test_transient_settles_on_thermal_tau(self):
        m = AomModel()
        s = DutyCycleState()
        s1 = step_duty_cycle(s, m, ((1.0, 150.0), ()), 1.0)
        rate_early = s1.phase
        s2 = step_duty_cycle(s1, m, ((1.0, 150.0), ()), 5.0 * m.thermal_tau)
        s3 = step_duty_cycle(s2, m, ((1.0, 150.0), ()), 1.0)
        rate_late = s3.phase - s2.phase
        assert rate_early < 0.2 * rate_late

    def test_worst_case_rate(self):
        rate = duty_cycle_drift_rate(AomModel(), 1e-9, mitigated=False)
        assert rate == pytest.approx(0.35, rel=1e-6)

    def test_mitigated_rate_value(self):
        rate = duty_cycle_drift_rate(AomModel(), 1e-9, mitigated=True)
        assert rate == pytest.approx(0.035, rel=1e-6)

    def test_rate_decreases_with_duty_ratio(self):
        m = AomModel()
        ratios = np.linspace(1e-3, 1.0, 15)
        rates = [duty_cycle_drift_rate(m, float(r), mitigated=False) for r in ratios]
        assert all(b < a for a, b in zip(rates[:-1], rates[1:]))
        assert rates[-1] <= 0.01 * rates[0] + 1e-12

    def test_mitigation_ratio_bound(self):
        m = AomModel()
        for r in np.geomspace(1e-3, 1.0, 9):
            unmit = duty_cycle_drift_rate(m, float(r), mitigated=False)
            mit = duty_cycle_drift_rate(m, float(r), mitigated=True)
            assert mit <= 0.1 * unmit + 1e-12

    @pytest.mark.parametrize("match_error", [-1.0, -2.0, math.nan])
    def test_match_error_must_exceed_minus_one(self, match_error):
        # -1 returned a rate from zero drive power, -2 failed in step_duty_cycle
        with pytest.raises(ValueError, match="match_error must be a finite number > -1, got"):
            duty_cycle_drift_rate(AomModel(), 1e-3, True, match_error)

    def test_state_validation(self):
        with pytest.raises(ValueError):
            DutyCycleState(filtered_power=(-1.0, 0.0))
        with pytest.raises(ValueError):
            step_duty_cycle(DutyCycleState(), AomModel(), ((1.0, 150.0), ()), 0.0)


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("name", ["linear_rate", "walk_sigma", "walk_window"])
def test_drift_process_rejects_non_finite(name, value):
    # a NaN rate gave a NaN trace, a NaN walk a silent flat one
    fields = {"linear_rate": 0.0, "walk_sigma": 0.1, "walk_window": 8.0, name: value}
    with pytest.raises(ValueError, match=f"{name} must be finite"):
        DriftProcess(**fields)


@pytest.mark.parametrize("value", [math.nan, math.inf])
@pytest.mark.parametrize("name", ["center_mhz", "absorption_width_mhz", "thermal_coeff",
                                  "thermal_tau", "max_rf_power"])
def test_aom_model_rejects_non_finite(name, value):
    # a NaN center, coefficient or time constant gave a NaN drift rate
    with pytest.raises(ValueError, match=f"{name} must be finite"):
        AomModel(**{name: value})


class TestRamseyProbe:
    def test_endpoints(self):
        probe = ramsey_phase_probe(np.array([0.0, math.pi]), shots=10_000, seed=0)
        assert np.array_equal(probe, [0.0, 1.0])

    def test_quadrature_point(self):
        [p] = ramsey_phase_probe([0.5 * math.pi], shots=100_000, seed=3)
        assert p == pytest.approx(0.5, abs=5.0 * 0.5 / math.sqrt(100_000))

    def test_deterministic(self):
        phases = np.linspace(0.0, 2.0 * math.pi, 7)
        assert np.array_equal(ramsey_phase_probe(phases, 500, seed=7),
                              ramsey_phase_probe(phases, 500, seed=7))

    def test_entry_i_is_one_draw_from_stream_i(self):
        phases = [1.0, 0.5 * math.pi, -2.0, 4.0, math.pi]
        probe = ramsey_phase_probe(np.array(phases), 500, seed=7)
        assert probe.shape == (5,)
        for i, phi in enumerate(phases):
            p = min(max(0.5 * (1.0 - math.cos(phi)), 0.0), 1.0)
            assert probe[i] == _seed_sequence_stream(7, i).binomial(500, p) / 500

    def test_empty_array_gives_empty_array(self):
        probe = ramsey_phase_probe(np.array([]), 500, seed=7)
        assert probe.shape == (0,)

    def test_rejects_zero_shots(self):
        with pytest.raises(ValueError):
            ramsey_phase_probe(0.0, shots=0)
