"""Acceptance suite: one test per release criterion, each printing a
PASS/FAIL line with the measured numbers."""

import math
import time
from contextlib import contextmanager

import numpy as np
import pytest

from xtalk.calibrate import recalibration_interval, run_full_calibration
from xtalk.dynamics import QubitState, rotation_error, rotation_unitary
from xtalk.field import (
    CrosstalkContext,
    amplitude_tolerance,
    effective_magnitude,
    phase_tolerance,
    pi_pulse_error,
    relative_error,
)
from xtalk.noise import AomModel, DriftProcess, duty_cycle_drift_rate, sample_slow_drift
from xtalk.optics import clipped_focus_profile, focal_field, gaussian_intensity
from xtalk.scenarios import ScenarioConfig, run_scenario

OMEGA = 2 * math.pi * 50e3


@contextmanager
def criterion(number, description):
    try:
        yield
    except BaseException:
        print(f"FAIL criterion {number:2d}: {description}")
        raise
    print(f"PASS criterion {number:2d}: {description}")


def test_criterion_01_closed_form_matches_unitary_oracle():
    with criterion(1, "per-pulse error formula matches time-domain unitaries to 1e-9"):
        ground = QubitState.ground()
        start = time.perf_counter()
        worst = 0.0
        for n in range(1, 65):
            for f_eff in np.linspace(1e-4, 0.2, 20):
                u = rotation_unitary(f_eff * OMEGA, 0.0, n * math.pi / OMEGA)
                gap = abs(pi_pulse_error(n, float(f_eff)) - rotation_error(ground, u))
                worst = max(worst, gap)
        elapsed = time.perf_counter() - start
        assert worst <= 1e-9, f"worst deviation {worst:.2e}"
        assert elapsed < 1.0, f"took {elapsed:.2f} s"


def test_criterion_02_uncompensated_error_per_pi():
    with criterion(2, "bare crosstalk at f_ct=0.096 gives 2.26e-2 per pi pulse"):
        closed = pi_pulse_error(1, 0.096)
        assert closed == pytest.approx(2.26e-2, abs=0.1e-2)
        cfg = ScenarioConfig.from_dict(
            {"scenario": "x-error", "physics": {"f_ct": 0.096}, "scan": {"n_values": [1]}}
        )
        measured = run_scenario(cfg).value_mean[0]
        assert measured == pytest.approx(2.26e-2, abs=0.1e-2)


def test_criterion_03_pcc_benchmark_error_and_suppression():
    with criterion(3, "residual f_eff=4e-3 gives 3.95e-5 per pi, suppression consistent"):
        closed = pi_pulse_error(1, 4e-3)
        assert closed == pytest.approx(3.95e-5, rel=0.05)
        dial = 2.0 * math.acos(0.5 * 4e-3 / 0.096)
        cfg = ScenarioConfig.from_dict(
            {
                "scenario": "x-error",
                "method": "pcc",
                "physics": {"f_ct": 0.096, "f_comp": 1.0, "delta_phi_rad": dial},
                "scan": {"n_values": [1]},
            }
        )
        measured = run_scenario(cfg).value_mean[0]
        assert measured == pytest.approx(3.95e-5, rel=0.05)
        rabi_suppression = 0.096 / 4e-3
        assert 20.0 <= rabi_suppression <= 41.0  # the reported 25-40x band
        intensity_suppression = rabi_suppression**2
        assert 576.0 <= intensity_suppression <= 1600.0
        assert 32.0**2 >= 1e3  # above 1000x once the rabi factor passes 32


def test_criterion_04_break_even_boundary():
    with criterion(4, "suppression boundary matches cos(dphi) = -f/2 on a 1e-3 grid"):
        ground = QubitState.ground()
        dial_grid = np.arange(0.0, 2.0 * math.pi, 1e-3)

        def simulated_suppressing(f_comp, dial):
            f_eff = 0.096 * effective_magnitude(f_comp, dial)
            u = rotation_unitary(f_eff * OMEGA, 0.0, math.pi / OMEGA)
            bare = rotation_error(ground, rotation_unitary(0.096 * OMEGA, 0.0, math.pi / OMEGA))
            return rotation_error(ground, u) < bare

        for f_comp in (0.5, 1.0, 1.5):
            flags = np.array([simulated_suppressing(f_comp, d) for d in dial_grid])
            edges = dial_grid[np.flatnonzero(np.diff(flags.astype(int))) + 1]
            analytic = math.acos(-0.5 * f_comp)
            expected = np.array([analytic, 2.0 * math.pi - analytic])
            assert len(edges) == 2
            assert np.max(np.abs(np.sort(edges) - expected)) <= 2e-3
        # matched amplitude boundary sits exactly at pi +/- pi/3
        assert math.acos(-0.5) == pytest.approx(math.pi - math.pi / 3.0, abs=1e-12)
        assert not simulated_suppressing(1.0, math.pi + math.pi / 3.0 + 2e-3)
        assert simulated_suppressing(1.0, math.pi + math.pi / 3.0 - 2e-3)


def test_criterion_05_tolerance_contours():
    with criterion(5, "phase/amplitude tolerances for 10x and 100x suppression"):
        assert phase_tolerance(0.1) == pytest.approx(0.3176, abs=1e-4)
        assert amplitude_tolerance(0.1) == pytest.approx(0.316, abs=1e-3)
        assert phase_tolerance(0.01) == pytest.approx(0.1000, abs=1e-4)
        assert amplitude_tolerance(0.01) == pytest.approx(0.100, abs=1e-3)
        # contours are consistent with the relative-error model itself
        assert relative_error(1.0, math.pi + phase_tolerance(0.01)) == pytest.approx(
            0.01, rel=1e-9
        )
        assert relative_error(1.0 + amplitude_tolerance(0.01), math.pi) == pytest.approx(
            0.01, rel=1e-9
        )


def test_criterion_06_sk1_behavior():
    with criterion(6, "sk1 flat top, spectator error scale, and z-basis weakness"):
        from xtalk.pulses import TARGET, scaled, simulate_scan, sk1

        ctx = CrosstalkContext(omega_0=OMEGA, f_ct=0.096)

        def target_error(scale):
            res = simulate_scan([scaled(sk1(math.pi, 0.0, OMEGA), scale)], ctx)
            return 1.0 - res.populations[0, TARGET]

        h = 1e-4
        slope = (target_error(1.0 + h) - target_error(1.0 - h)) / (2.0 * h)
        assert abs(slope) <= 1e-6, f"slope {slope:.2e}"

        cfg_x = ScenarioConfig.from_dict(
            {
                "scenario": "x-error",
                "method": "sk1",
                "physics": {"f_ct": 0.096},
                "scan": {"n_values": [1]},
            }
        )
        sk1_x = run_scenario(cfg_x).value_mean[0]
        assert 1.3e-5 <= sk1_x <= 1.3e-3, f"sk1 x error {sk1_x:.2e}"

        delta = 0.1 * OMEGA
        cfg_z_sk1 = ScenarioConfig.from_dict(
            {
                "scenario": "z-error",
                "method": "sk1",
                "physics": {"f_ct": 0.096, "delta_ct_rad_per_s": delta},
                "scan": {"n_values": [1]},
            }
        )
        sk1_z = run_scenario(cfg_z_sk1).value_mean[0]
        cfg_z_pcc = ScenarioConfig.from_dict(
            {
                "scenario": "z-error",
                "method": "pcc",
                "physics": {
                    "f_ct": 0.096,
                    "f_comp": 1.0 - 4.5e-3 / 0.096,
                    "delta_phi_rad": math.pi,
                },
                "scan": {"n_values": [1]},
            }
        )
        pcc_z = run_scenario(cfg_z_pcc).value_mean[0]
        assert pcc_z == pytest.approx(5.0e-5, rel=0.05)
        assert sk1_z == pytest.approx(2.6e-2, rel=0.1)
        assert sk1_z > 100.0 * pcc_z, f"sk1 z {sk1_z:.2e} vs pcc z {pcc_z:.2e}"


def test_criterion_07_quadrilateral_scaling():
    with criterion(7, "quad spectator leakage exponent >= 3.5 over [3e-3, 3e-2]"):
        from xtalk.pulses import SPECTATOR, quadrilateral, scaled, simulate_scan

        ctx = CrosstalkContext(omega_0=OMEGA, f_ct=0.096)
        start = time.perf_counter()
        eps_grid = np.geomspace(3e-3, 3e-2, 12)
        leaks = [
            simulate_scan([scaled(quadrilateral(OMEGA), float(e) / ctx.f_ct)], ctx)
            .populations[0, SPECTATOR]
            for e in eps_grid
        ]
        slope = float(np.polyfit(np.log(eps_grid), np.log(leaks), 1)[0])
        elapsed = time.perf_counter() - start
        assert slope >= 3.5, f"slope {slope:.2f}"
        assert elapsed < 1.0, f"took {elapsed:.2f} s"


def test_criterion_08_noise_presets_and_mitigation():
    with criterion(8, "drift presets within 30%, duty-cycle mitigation 10x to 0.035 rad/s"):
        for name, process, target in (("enclosed", DriftProcess.enclosed(), 0.05),
                                      ("exposed", DriftProcess.exposed(), 0.49)):
            stds = [
                float(np.std(sample_slow_drift(process, 8.0, 0.05, seed=s)))
                for s in range(100)
            ]
            mean_std = float(np.mean(stds))
            assert 0.7 * target <= mean_std <= 1.3 * target, (
                f"{name}: {mean_std:.3f} vs {target}"
            )
        model = AomModel()
        unmit = duty_cycle_drift_rate(model, 1e-3, mitigated=False)
        mit = duty_cycle_drift_rate(model, 1e-3, mitigated=True)
        assert mit == pytest.approx(0.035, rel=0.2)
        assert unmit >= 10.0 * mit * (1.0 - 1e-9), f"ratio {unmit / mit:.3f}"


def test_criterion_09_recalibration_interval():
    with criterion(9, "recalibration interval for 100x at 3.5e-3 rad/min in [20, 30] min"):
        interval = recalibration_interval(3.5e-3, 0.01)
        assert 20.0 <= interval <= 30.0, f"interval {interval:.1f} min"


def test_criterion_10_closed_loop_calibration():
    with criterion(10, "calibration chain reaches 100x suppression in >= 90% of 50 seeds"):
        rng = np.random.default_rng(2024)
        start = time.perf_counter()
        hits = 0
        for seed in range(50):
            ctx = CrosstalkContext(
                omega_0=OMEGA, f_ct=0.096, ct_phase=float(rng.uniform(0.0, 2.0 * math.pi))
            )
            result, _ = run_full_calibration(ctx, shots=200, seed=seed)
            rel = relative_error(result.f_comp_star, result.delta_phi_star - ctx.ct_phase)
            hits += rel <= 0.01
        elapsed = time.perf_counter() - start
        assert hits >= 45, f"{hits}/50 seeds reached 100x"
        assert elapsed < 120.0, f"took {elapsed:.1f} s"


def test_criterion_11_diffraction_checks():
    with criterion(11, "unclipped Gaussian limit, lifted clipped tail, energy conservation"):
        w0, lam, na = 1.6, 729.0, 0.35
        sw = (lam * 1e-3) / (math.pi * w0)
        wide_na = 5.5 * sw
        grid = np.linspace(-2.0 * w0, 2.0 * w0, 101)
        unclipped = clipped_focus_profile(w0, lam, wide_na, grid)
        ideal = gaussian_intensity(grid, w0)
        assert np.max(np.abs(unclipped - ideal) / ideal) <= 1e-3

        at5 = clipped_focus_profile(w0, lam, na, np.array([5.0]))[0]
        assert at5 > gaussian_intensity(np.array([5.0]), w0)[0]
        assert at5 < 1e-2  # device crosstalk keeps dominating at one pitch

        span = np.linspace(-60.0, 60.0, 24001)
        e = focal_field(w0, lam, na, span)
        focal_energy = float(np.trapezoid(np.abs(e) ** 2, span))
        s = np.linspace(-na, na, 20001)
        pupil_energy = float(np.trapezoid(np.exp(-2.0 * (s / sw) ** 2), s))
        lam_um = lam * 1e-3
        rel = abs(focal_energy - lam_um * pupil_energy) / (lam_um * pupil_energy)
        assert rel <= 1e-4, f"energy mismatch {rel:.2e}"


def test_criterion_12_determinism():
    with criterion(12, "identical config and seed give byte-identical CSV"):
        doc = {
            "scenario": "z-error",
            "method": "pcc",
            "physics": {"f_comp": 1.0, "delta_phi_rad": 3.1},
            "scan": {"n_values": [1, 2, 4, 8]},
            "shots": 500,
            "seed": 99,
        }
        cfg = ScenarioConfig.from_dict(doc)
        first = run_scenario(cfg).to_csv()
        second = run_scenario(cfg).to_csv()
        third = run_scenario(ScenarioConfig.from_dict(doc)).to_csv()
        assert first == second == third
        assert first.encode("utf-8") == second.encode("utf-8")
