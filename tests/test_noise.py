import json
import math

import numpy as np
import pytest

from xtalk.errors import ConfigError
from xtalk.noise import (
    AomModel,
    BeatnoteSetup,
    DriftProcess,
    DutyCycleState,
    beatnote_phase_measurement,
    diffraction_efficiency,
    duty_cycle_drift_rate,
    load_presets,
    matched_drive_power,
    ramsey_phase_probe,
    rf_absorption,
    rng,
    sample_slow_drift,
    step_duty_cycle,
    wrap_phase,
)


@pytest.mark.parametrize("key", [(0,), (7, 3), (-1, 2**64 + 5), (2**70, -(2**65), 11)])
def test_rng_is_the_seed_sequence_stream(key):
    # each word taken modulo 2**64, as the stream was keyed before
    words = [k & 0xFFFFFFFFFFFFFFFF for k in key]
    reference = np.random.default_rng(np.random.SeedSequence(words)).random(16)
    assert np.array_equal(rng(*key).random(16), reference)


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
    def test_efficiency_peak(self):
        m = AomModel()
        assert diffraction_efficiency(m, 150.0) == pytest.approx(1.0)

    def test_efficiency_far_detuned(self):
        m = AomModel()
        assert diffraction_efficiency(m, 100.0) <= 1e-3
        assert diffraction_efficiency(m, 100.0) == pytest.approx(1e-4, rel=1e-6)

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

    def test_state_validation(self):
        with pytest.raises(ValueError):
            DutyCycleState(filtered_power=(-1.0, 0.0))
        with pytest.raises(ValueError):
            step_duty_cycle(DutyCycleState(), AomModel(), ((1.0, 150.0), ()), 0.0)


class TestBeatnote:
    def test_noiseless_reading(self):
        b = BeatnoteSetup()
        assert b.delta_f_mhz == pytest.approx(2.0)
        assert beatnote_phase_measurement(b, 0.3) == pytest.approx(0.3, abs=1e-15)

    def test_wrapping_convention(self):
        b = BeatnoteSetup()
        assert beatnote_phase_measurement(b, math.pi + 0.1) == pytest.approx(
            -math.pi + 0.1, abs=1e-12
        )
        assert wrap_phase(math.pi) == pytest.approx(math.pi)
        assert wrap_phase(-math.pi) == pytest.approx(math.pi)

    def test_noise_statistics(self):
        b = BeatnoteSetup()
        draws = [
            beatnote_phase_measurement(b, 0.2, noise_sigma=0.01, seed=s) for s in range(10_000)
        ]
        sigma = float(np.std(draws))
        assert 0.008 <= sigma <= 0.012


class TestRamseyProbe:
    def test_endpoints(self):
        assert ramsey_phase_probe(0.0, shots=10_000, seed=0) == 0.0
        assert ramsey_phase_probe(math.pi, shots=10_000, seed=0) == 1.0

    def test_quadrature_point(self):
        p = ramsey_phase_probe(0.5 * math.pi, shots=100_000, seed=3)
        assert p == pytest.approx(0.5, abs=5.0 * 0.5 / math.sqrt(100_000))

    def test_deterministic(self):
        assert ramsey_phase_probe(1.0, 500, seed=7) == ramsey_phase_probe(1.0, 500, seed=7)

    def test_rejects_zero_shots(self):
        with pytest.raises(ValueError):
            ramsey_phase_probe(0.0, shots=0)


class TestPresets:
    def test_load_roundtrip(self, tmp_path):
        doc = {
            "drift": {
                "preset": "enclosed",
                "walk_sigma_rad": 0.07,
            },
            "aom": {
                "center_mhz": 150.0,
                "thermal_tau_s": 12.0,
            },
        }
        path = tmp_path / "presets.json"
        path.write_text(json.dumps(doc), encoding="utf-8")
        loaded = load_presets(path)
        assert loaded["drift"].walk_sigma == pytest.approx(0.07)
        assert loaded["drift"].linear_rate == pytest.approx(3.5e-3)
        assert loaded["aom"].thermal_tau == pytest.approx(12.0)

    def test_unknown_keys_rejected(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"drift": {"walk_sigma_rads": 0.1}}), encoding="utf-8")
        with pytest.raises(ConfigError):
            load_presets(path)

    def test_unknown_section_rejected(self, tmp_path):
        path = tmp_path / "bad2.json"
        path.write_text(json.dumps({"laser": {}}), encoding="utf-8")
        with pytest.raises(ConfigError):
            load_presets(path)

    @pytest.mark.parametrize("doc, name", [
        ({"drift": {"preset": []}}, "drift.preset"),
        ({"drift": {"preset": None}}, "drift.preset"),
        ({"drift": {"walk_sigma_rad": True}}, "drift.walk_sigma_rad"),
        ({"drift": {"linear_rate_rad_per_min": "0.1"}}, "drift.linear_rate_rad_per_min"),
        ({"aom": {"thermal_tau_s": None}}, "aom.thermal_tau_s"),
        ({"drift": []}, "drift"),
        ({"aom": None}, "aom"),
        ([], "preset file"),
    ])
    def test_mistyped_values_rejected(self, tmp_path, doc, name):
        path = tmp_path / "typed.json"
        path.write_text(json.dumps(doc), encoding="utf-8")
        with pytest.raises(ConfigError, match=name):
            load_presets(path)
