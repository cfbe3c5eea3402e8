import math

import numpy as np
import pytest

from xtalk.errors import ConfigError
from xtalk.field import pi_pulse_error
from xtalk.pulses import (SPECTATOR, TARGET, ChannelPulse, PulseSegment, PulseSequence,
                          simulate_scan, with_pcc)
from xtalk.scenarios import _ROWS, SCENARIOS, ScenarioConfig, run_scenario

OMEGA = 2 * math.pi * 50e3


def make_cfg(scenario, physics=None, scan=None, seed=0, **extra):
    # method and shots only where given: not every scenario reads them
    doc = {"scenario": scenario, "seed": seed}
    if physics:
        doc["physics"] = physics
    if scan is not None:
        doc["scan"] = scan
    doc.update(extra)
    return ScenarioConfig.from_dict(doc)


def dial_for_residual(f_eff, f_ct):
    # dial giving |1 + exp(i d)| = f_eff / f_ct at matched amplitude
    return 2.0 * math.acos(0.5 * f_eff / f_ct)


class TestConfigValidation:
    def test_unknown_top_key(self):
        with pytest.raises(ConfigError):
            ScenarioConfig.from_dict({"scenario": "x-error", "shotz": 10})

    def test_unknown_physics_key(self):
        with pytest.raises(ConfigError):
            make_cfg("x-error", physics={"f_tc": 0.1})

    def test_unknown_scan_key(self):
        with pytest.raises(ConfigError):
            make_cfg("x-error", scan={"points": 10})

    def test_bad_scenario(self):
        with pytest.raises(ConfigError):
            ScenarioConfig.from_dict({"scenario": "y-error"})

    def test_bad_method(self):
        with pytest.raises(ConfigError):
            make_cfg("x-error", method="bb1")

    def test_bad_shots(self):
        with pytest.raises(ConfigError):
            make_cfg("x-error", shots=0)

    def test_bad_physics_value(self):
        with pytest.raises(ConfigError):
            make_cfg("x-error", physics={"pol_overlap": 2.0})

    @pytest.mark.parametrize("scenario", SCENARIOS)
    def test_scan_holds_every_schema_key(self, scenario):
        scan = ScenarioConfig.from_dict({"scenario": scenario}).scan
        assert scan == {key: default for key, (_, default, _) in _ROWS[scenario].scan.items()}

    def test_defaults_leave_the_hash_alone(self):
        # the hash covers the document as given, not the filled-in defaults
        bare = ScenarioConfig.from_dict({"scenario": "phase-scan"})
        full = ScenarioConfig.from_dict({"scenario": "phase-scan", "scan": {"points": 40}})
        assert bare.scan == full.scan
        assert bare.config_hash() != full.config_hash()

    def test_hash_stable_under_key_order(self):
        a = ScenarioConfig.from_dict({"scenario": "x-error", "shots": 10, "seed": 1})
        b = ScenarioConfig.from_dict({"seed": 1, "shots": 10, "scenario": "x-error"})
        assert a.config_hash() == b.config_hash()


# per scenario: a small scan, and another scan that must change the rows
_SCANS = {
    "x-error": ({"n_values": [1, 2]}, {"n_values": [1, 3]}),
    "z-error": ({"n_values": [1, 2]}, {"n_values": [1, 3]}),
    "phase-scan": ({"points": 4}, {"points": 5}),
    "rabi-scan": ({"points": 4}, {"points": 4, "observe": "target"}),
    "amplitude-scan": ({"points": 4}, {"points": 4, "scale_max": 1.0}),
    "drift-monitor": ({"duration_min": 1.0, "preset": "exposed"}, {"duration_min": 1.0}),
    "duty-cycle-sweep": ({"points": 3}, {"points": 3, "mitigated": True}),
    "beam-profile": ({"points": 5, "curve": "gaussian"}, {"points": 5, "curve": "clipped"}),
}
# another value per top-level key; method takes each other choice of its row
_OTHER = {
    "physics": {"omega_0_rad_per_s": 2e5},
    "noise": {"preset": "exposed"},
    "shots": 50,
    "seed": 1,
}


def _csv_without_hash(doc):
    csv = run_scenario(ScenarioConfig.from_dict(doc)).to_csv()
    return [line for line in csv.splitlines() if not line.startswith("# config_hash:")]


class TestSchemaRows:
    @pytest.mark.parametrize("scenario", SCENARIOS)
    def test_every_accepted_key_changes_the_csv(self, scenario):
        row = _ROWS[scenario]
        scan, other_scan = _SCANS[scenario]
        base = {"scenario": scenario, "scan": scan}
        variants = [{"scan": other_scan}]
        variants += [{key: value} for key, value in _OTHER.items() if key in row.top]
        if "method" in row.top:
            choices, default, _ = row.top["method"]
            variants += [{"method": m} for m in choices if m != default]
        # out and the row's selector leave the CSV alone; phase-scan's method has one choice
        untested = {"out", "scenario"} | ({"method"} if scenario == "phase-scan" else set())
        assert {k for v in variants for k in v} == set(row.top) - untested
        reference = _csv_without_hash(base)
        for change in variants:
            assert _csv_without_hash({**base, **change}) != reference, change

    def test_phase_scan_header_names_pcc(self):
        cfg = ScenarioConfig.from_dict({"scenario": "phase-scan"})
        assert cfg.method == "pcc"
        assert run_scenario(cfg).to_csv().splitlines()[1] == "# method: pcc"


class TestXError:
    def test_bare_crosstalk_per_pi(self):
        cfg = make_cfg("x-error", scan={"n_values": [1]})
        res = run_scenario(cfg)
        assert res.value_mean[0] == pytest.approx(2.26e-2, abs=1e-3)
        assert res.value_mean[0] == pytest.approx(pi_pulse_error(1, 0.096), abs=1e-12)

    def test_pcc_residual_error(self):
        dial = dial_for_residual(4e-3, 0.096)
        cfg = make_cfg(
            "x-error",
            method="pcc",
            physics={"f_ct": 0.096, "f_comp": 1.0, "delta_phi_rad": dial},
            scan={"n_values": [1, 2, 4]},
        )
        res = run_scenario(cfg)
        assert res.value_mean[0] == pytest.approx(3.95e-5, rel=0.01)
        for n, v in zip((1, 2, 4), res.value_mean):
            assert v == pytest.approx(pi_pulse_error(n, 4e-3), rel=1e-6)

    def test_pcc_exact_setting_is_dark(self):
        cfg = make_cfg(
            "x-error",
            method="pcc",
            physics={"f_comp": 1.0, "delta_phi_rad": math.pi},
            scan={"n_values": [1, 4, 16, 64]},
        )
        res = run_scenario(cfg)
        assert np.all(res.value_mean <= 1e-12)

    def test_closed_form_tracks_all_counts(self):
        cfg = make_cfg("x-error", scan={"n_values": [1, 2, 3, 5, 8]})
        res = run_scenario(cfg)
        for n, v in zip((1, 2, 3, 5, 8), res.value_mean):
            assert v == pytest.approx(pi_pulse_error(n, 0.096), abs=1e-10)


class TestZError:
    def test_pcc_amplitude_residual(self):
        # a pure amplitude mismatch leaves an x-type residual the ramsey
        # wrapper converts one to one into measured population
        f_eff = 4.5e-3
        cfg = make_cfg(
            "z-error",
            method="pcc",
            physics={"f_ct": 0.096, "f_comp": 1.0 - f_eff / 0.096, "delta_phi_rad": math.pi},
            scan={"n_values": [1]},
        )
        res = run_scenario(cfg)
        assert res.value_mean[0] == pytest.approx(5.0e-5, rel=0.02)

    def test_sk1_detuned_z_error(self):
        cfg = make_cfg(
            "z-error",
            method="sk1",
            physics={"f_ct": 0.096, "delta_ct_rad_per_s": 0.1 * OMEGA},
            scan={"n_values": [1]},
        )
        res = run_scenario(cfg)
        assert res.value_mean[0] == pytest.approx(2.6e-2, rel=0.05)

    def test_full_revolution_returns(self):
        # n pulses completing a 2 pi crosstalk rotation restore the state
        cfg = make_cfg(
            "z-error",
            physics={"f_ct": 0.125},
            scan={"n_values": [16]},
        )
        res = run_scenario(cfg)
        assert res.value_mean[0] <= 1e-9
        # oracle: explicit unitary product
        u = np.eye(2, dtype=complex)
        seg = np.array(
            [
                [math.cos(0.5 * math.pi * 0.125), -1j * math.sin(0.5 * math.pi * 0.125)],
                [-1j * math.sin(0.5 * math.pi * 0.125), math.cos(0.5 * math.pi * 0.125)],
            ]
        )
        for _ in range(16):
            u = seg @ u
        assert abs(u[1, 0]) <= 1e-12

    def test_quad_frame_tracked(self):
        cfg = make_cfg(
            "z-error",
            method="quad",
            physics={"f_ct": 1e-9},
            scan={"n_values": [1, 2]},
        )
        res = run_scenario(cfg)
        assert np.all(res.value_mean <= 1e-9)


class TestPhaseScan:
    def test_minimum_at_pi_and_zero_at_constructive(self):
        cfg = make_cfg("phase-scan", method="pcc", scan={"points": 40, "n_periods": 1})
        res = run_scenario(cfg)
        dials = res.x
        at_pi = res.value_mean[np.argmin(np.abs(dials - math.pi))]
        assert at_pi <= 1e-12
        assert res.value_mean[0] <= 1e-9  # full 4 pi revolution at dial 0

    def test_matches_closed_form_model(self):
        cfg = make_cfg(
            "phase-scan",
            method="pcc",
            physics={"f_comp": 0.8},
            scan={"points": 24, "n_periods": 2},
        )
        res = run_scenario(cfg)
        for dial, value in zip(res.x, res.value_mean):
            mag = abs(1.0 + 0.8 * np.exp(1j * dial))
            expected = math.sin(2.0 * math.pi * mag) ** 2
            assert value == pytest.approx(expected, abs=1e-9)


class TestRabiScan:
    def test_target_flop_period(self):
        cfg = make_cfg("rabi-scan", scan={"observe": "target", "points": 33})
        res = run_scenario(cfg)
        for t, v in zip(res.x, res.value_mean):
            assert v == pytest.approx(math.sin(0.5 * OMEGA * t) ** 2, abs=1e-9)

    def test_spectator_flop_period(self):
        cfg = make_cfg("rabi-scan", scan={"observe": "spectator", "points": 33})
        res = run_scenario(cfg)
        for t, v in zip(res.x, res.value_mean):
            assert v == pytest.approx(math.sin(0.5 * 0.096 * OMEGA * t) ** 2, abs=1e-9)

    def test_pcc_slows_spectator_forty_fold(self):
        dial = dial_for_residual(0.096 / 40.0, 0.096)
        t_pi_ct = math.pi / (0.096 * OMEGA)
        cfg = make_cfg(
            "rabi-scan",
            method="pcc",
            physics={"f_comp": 1.0, "delta_phi_rad": dial},
            scan={"observe": "spectator", "points": 17, "t_max_s": 2.0 * t_pi_ct},
        )
        res = run_scenario(cfg)
        rate = 0.096 * OMEGA / 40.0
        for t, v in zip(res.x, res.value_mean):
            assert v == pytest.approx(math.sin(0.5 * rate * t) ** 2, abs=1e-6)


    @pytest.mark.parametrize("method, observe, physics, scan, shots", [
        ("none", "spectator", {}, {"points": 81}, 200),
        ("none", "target", {"delta_ct_rad_per_s": 2e4, "pol_overlap": 0.7}, {"points": 23}, 7),
        ("pcc", "spectator", {"f_comp": 0.9, "delta_phi_rad": 3.0, "delta_ct_rad_per_s": -1e4,
                              "pol_overlap": 0.8, "ct_phase_rad": 0.4}, {"points": 30}, 1),
        ("pcc", "target", {"f_ct": 1e-200}, {"points": 9, "t_max_s": 3e-4}, 200),
        ("pcc", "spectator", {}, {"points": 4, "t_max_s": 0.0}, 3),
        ("none", "spectator", {}, {"points": 1}, 5),
    ])
    def test_template_matches_unrolled_points(self, method, observe, physics, scan, shots):
        # the scan tiles one template whose duration each point sets: the
        # same populations and draws as one sequence per point, bit for bit
        cfg = make_cfg("rabi-scan", physics=physics, method=method, shots=shots, seed=11,
                       scan={"observe": observe, **scan})
        res = run_scenario(cfg)
        ctx, ion = cfg.context, TARGET if observe == "target" else SPECTATOR
        seqs = []
        for t in res.x:
            seq = PulseSequence((ChannelPulse(TARGET, (PulseSegment(ctx.omega_0, 0.0, 0.0, t),)),))
            seqs.append(with_pcc(seq, ctx, cfg.setting) if method == "pcc" else seq)
        ref = simulate_scan(seqs, ctx, shots=shots, seed=11)
        assert np.array_equal(res.value_mean, ref.populations[:, ion])
        assert np.array_equal(res.value_sampled, ref.sampled[:, ion])


class TestAmplitudeScan:
    def test_square_peaks_at_nominal(self):
        cfg = make_cfg("amplitude-scan", scan={"scale_min": 0.0, "scale_max": 1.5, "points": 31})
        res = run_scenario(cfg)
        i_one = np.argmin(np.abs(res.x - 1.0))
        assert res.value_mean[i_one] == pytest.approx(1.0, abs=1e-9)

    def test_sk1_flat_top(self):
        cfg = make_cfg(
            "amplitude-scan",
            method="sk1",
            scan={"scale_min": 0.9, "scale_max": 1.1, "points": 21},
        )
        res = run_scenario(cfg)
        assert np.all(res.value_mean >= 1.0 - 2e-4)

    def test_quad_suppresses_weak_drive(self):
        quad = run_scenario(
            make_cfg(
                "amplitude-scan",
                method="quad",
                scan={"scale_min": 0.02, "scale_max": 0.2, "points": 10},
            )
        )
        square = run_scenario(
            make_cfg(
                "amplitude-scan",
                method="none",
                scan={"scale_min": 0.02, "scale_max": 0.2, "points": 10},
            )
        )
        assert np.all(quad.value_mean < square.value_mean)


class TestDriftAndHardwareScenarios:
    def test_drift_monitor_deterministic(self):
        cfg = make_cfg("drift-monitor", scan={"preset": "exposed", "duration_min": 4.0})
        a = run_scenario(cfg)
        b = run_scenario(cfg)
        assert np.array_equal(a.value_mean, b.value_mean)
        assert np.array_equal(a.value_sampled, b.value_sampled)

    def test_duty_cycle_sweep_mitigation(self):
        unmit = run_scenario(make_cfg("duty-cycle-sweep", scan={"mitigated": False, "points": 5}))
        mit = run_scenario(make_cfg("duty-cycle-sweep", scan={"mitigated": True, "points": 5}))
        assert np.all(mit.value_mean <= 0.1 * unmit.value_mean + 1e-12)

    def test_beam_profile_curves(self):
        clipped = run_scenario(
            make_cfg("beam-profile", scan={"curve": "clipped", "points": 41})
        )
        gauss = run_scenario(
            make_cfg("beam-profile", scan={"curve": "gaussian", "points": 41})
        )
        device = run_scenario(
            make_cfg("beam-profile", scan={"curve": "device", "points": 41})
        )
        i5 = np.argmin(np.abs(clipped.x - 5.0))
        assert clipped.value_mean[i5] > gauss.value_mean[i5]
        assert device.value_mean[i5] == pytest.approx(1e-2, rel=0.1)


class TestStatisticsAndRuntime:
    def test_sampled_means_within_five_sigma(self):
        cfg = make_cfg(
            "phase-scan", method="pcc", scan={"points": 24}, shots=10_000, seed=8
        )
        res = run_scenario(cfg)
        for mean, sampled, err in zip(res.value_mean, res.value_sampled, res.stderr):
            assert abs(sampled - mean) <= 5.0 * err + 1e-12

    def test_default_configs_complete_quickly(self):
        import time

        for scenario in (
            "x-error",
            "z-error",
            "phase-scan",
            "rabi-scan",
            "amplitude-scan",
            "drift-monitor",
            "duty-cycle-sweep",
            "beam-profile",
        ):
            start = time.perf_counter()
            run_scenario(make_cfg(scenario))
            assert time.perf_counter() - start < 60.0

    def test_noisy_train_memory_is_bounded_per_shot(self):
        # the shot columns of a train point used to take about 460 B a shot
        # at once (some 46 MB here); in passes, the drift offsets, draws and
        # excited populations remain, about 40 B a shot for a lone point
        import tracemalloc

        cfg = make_cfg("x-error", method="pcc", scan={"n_values": [8]}, shots=100_000,
                       noise={"preset": "enclosed"}, seed=1)
        tracemalloc.start()
        try:
            run_scenario(cfg)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 15e6

    @pytest.mark.parametrize("scenario, doc", [
        # noisy point-shots: trains, and one-slice points, alone or not
        ("x-error", {"method": "pcc", "scan": {"n_values": [8]}, "shots": 100_000}),
        ("x-error", {"method": "none", "scan": {"n_values": [1]}, "shots": 100_000}),
        ("z-error", {"method": "quad", "scan": {"n_values": [2]}, "shots": 20_000}),
        ("phase-scan", {"scan": {"points": 2}, "shots": 50_000}),
        # quad pulses, noiseless and noisy
        ("x-error", {"method": "quad", "scan": {"n_values": [1, 10, 100, 1000]}}),
        ("z-error", {"method": "quad", "scan": {"n_values": [1000]}}),
        ("x-error", {"method": "quad", "scan": {"n_values": [200]}, "shots": 100}),
        # samples: points, or drift-monitor steps, at their dearest settings
        ("phase-scan", {"scan": {"points": 3000}}),
        ("rabi-scan", {"method": "pcc", "scan": {"points": 3000, "observe": "target"}}),
        ("amplitude-scan", {"method": "quad", "scan": {"points": 500}}),
        ("drift-monitor", {"scan": {"duration_min": 200.0}}),
        ("duty-cycle-sweep", {"scan": {"points": 300, "mitigated": True}}),
        ("beam-profile", {"scan": {"points": 1000}}),
    ])
    def test_peak_memory_is_within_the_plan(self, scenario, doc):
        # the bytes each size of the admission plan is priced at, checked:
        # a noisy point-shot takes 33 B, trains or one slice (40 B for a
        # lone point, whose drift walk peaks higher), a quad train pulse
        # 3.2 KB and a sample its _SAMPLE_BYTES; 2 MB covers the kernel's
        # batch of propagators and the optics' chunk at these sizes, which
        # no count grows
        import tracemalloc

        from xtalk import scenarios

        if "shots" in doc:
            doc = {**doc, "noise": {"preset": "enclosed"}}
        cfg = make_cfg(scenario, **doc)
        top = {"shots": cfg.shots, "method": cfg.method}
        sizes = {quantity: value for quantity, value, _, _ in scenarios._plan(
            scenario, top, cfg.scan, cfg.noise, cfg.context, cfg.setting)}
        budget = (2e6 + 41 * sizes.get("draws", 0) + 3200 * sizes.get("pulses", 0)
                  + sizes.get("samples", 0))
        run_scenario(make_cfg("x-error", scan={"n_values": [1]}))  # caches filled once
        tracemalloc.start()
        try:
            run_scenario(cfg)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= budget, (peak, budget)


class TestDeterminism:
    def test_byte_identical_rerun(self):
        cfg = make_cfg("x-error", scan={"n_values": [1, 2, 4]}, seed=5)
        assert run_scenario(cfg).to_csv() == run_scenario(cfg).to_csv()

    def test_seed_changes_samples_not_means(self):
        a = run_scenario(make_cfg("x-error", scan={"n_values": [2]}, seed=1))
        b = run_scenario(make_cfg("x-error", scan={"n_values": [2]}, seed=2))
        assert a.value_mean[0] == b.value_mean[0]
        assert a.metadata["config_hash"] != b.metadata["config_hash"]

    def test_build_id_spawns_git_once_per_process(self, monkeypatch):
        import subprocess

        from xtalk import scenarios

        calls = []
        real_run = subprocess.run

        def counting_run(*args, **kwargs):
            calls.append(args)
            return real_run(*args, **kwargs)

        monkeypatch.setattr(subprocess, "run", counting_run)
        scenarios._build_describe.cache_clear()
        cfg = make_cfg("x-error", scan={"n_values": [1]})
        first = run_scenario(cfg).metadata["build"]
        second = run_scenario(cfg).metadata["build"]
        assert first == second
        assert len(calls) <= 1

    # each ion's shot counts, out of 60, for z-error trains of 3, 1, 6 and 2
    # pulses under phase noise: each ion reads its own draws, so these are
    # the counts of sampling both ions at once
    BOTH_IONS_SAMPLED = {
        "none": [[59, 6], [59, 1], [0, 22], [0, 2]],
        "pcc": [[59, 2], [59, 0], [0, 14], [0, 1]],
        "sk1": [[60, 0], [59, 0], [0, 1], [1, 2]],
        "quad": [[59, 0], [60, 0], [0, 0], [0, 0]],
    }

    @pytest.mark.parametrize("method", ["none", "pcc", "sk1", "quad"])
    def test_noisy_scans_sample_only_the_reported_ion(self, monkeypatch, method):
        # detuned crosstalk keeps each slice's start; pol_overlap < 1 adds
        # the quadrature term
        from xtalk import scenarios
        from xtalk.field import CompensationSetting, CrosstalkContext
        from xtalk.pulses import pi_trains, ramsey_wrap

        physics = {"delta_ct_rad_per_s": 0.05 * OMEGA, "pol_overlap": 0.8, "ct_phase_rad": 0.7}
        cfgs = [make_cfg(scenario, physics, {"n_values": [3, 1, 6, 2]}, seed=4, method=method,
                         shots=60, noise={"preset": "exposed"})
                for scenario in ("x-error", "z-error")]
        if method == "pcc":
            cfgs.append(make_cfg("phase-scan", physics, {"points": 12}, seed=4, shots=60,
                                 noise={"preset": "exposed"}))
        single = [run_scenario(cfg).to_csv() for cfg in cfgs]
        sampled = []

        def each_ion(evaluate):
            def run(*args, ion=SPECTATOR):
                if len(args) < 6:  # z-error quad's noiseless closing-phase scan
                    return evaluate(*args, ion=ion)
                one, other = evaluate(*args, ion=ion), evaluate(*args, ion=TARGET)
                sampled.append(ion)
                assert np.isnan(one.sampled[:, TARGET]).all()
                assert np.isfinite(one.sampled[:, SPECTATOR]).all()
                assert np.isnan(other.sampled[:, SPECTATOR]).all()
                assert np.isfinite(other.sampled[:, TARGET]).all()
                assert np.array_equal(one.populations, other.populations)
                return one
            return run

        monkeypatch.setattr(scenarios, "_evaluate", each_ion(scenarios._evaluate))
        assert [run_scenario(cfg).to_csv() for cfg in cfgs] == single
        assert sampled == [SPECTATOR] * len(cfgs)
        # either ion sampled under the same noise, with the same draws
        from xtalk.kernel import _compile
        from xtalk.pulses import _evaluate

        ctx = CrosstalkContext(omega_0=OMEGA, f_ct=0.096, delta_ct=0.05 * OMEGA,
                               pol_overlap=0.8, ct_phase=0.7)
        trains = pi_trains(method, OMEGA, [3, 1, 6, 2], ctx, CompensationSetting(1.0, math.pi + 0.7))
        noise = np.random.default_rng(4).normal(0.0, 0.5, size=(4, 60))
        compiled = _compile([ramsey_wrap(seq, OMEGA) for seq, _ in trains], ctx)
        counts = [_evaluate(*compiled, ctx, 60, 4, noise, ion=ion).sampled[:, ion] * 60
                  for ion in (TARGET, SPECTATOR)]
        assert np.array_equal(np.column_stack(counts), self.BOTH_IONS_SAMPLED[method])

    def test_noise_block_reproducible(self):
        cfg = make_cfg(
            "x-error",
            method="pcc",
            scan={"n_values": [1, 2]},
            noise={"preset": "enclosed", "shot_interval_min": 0.01},
            seed=11,
        )
        assert run_scenario(cfg).to_csv() == run_scenario(cfg).to_csv()
        # drift noise lifts the sampled error above the noiseless mean
        assert np.all(run_scenario(cfg).value_mean <= 1e-12)
