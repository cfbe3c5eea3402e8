import json
import math

import numpy as np
import pytest

from xtalk.calibrate import (
    CalibrationResult,
    calibrate_amplitude,
    calibrate_phase,
    calibrate_stark_shift,
    measure_pi_time,
    recalibration_interval,
    run_full_calibration,
    save_result,
)
from xtalk.errors import (
    ConfigError,
    LowSignalError,
    OutOfRangeError,
)
from xtalk.field import (CrosstalkContext, effective_magnitude_polarized, pi_pulse_error,
                         relative_error)
from xtalk.noise import ramsey_phase_probe
from xtalk.pulses import simulate_scan, square_pi

OMEGA = 2 * math.pi * 50e3
CTX = CrosstalkContext(omega_0=OMEGA, f_ct=0.096)


@pytest.mark.parametrize("calibrate", [
    lambda shots: measure_pi_time(CTX, shots=shots),
    lambda shots: calibrate_amplitude(CTX, CTX.t_pi_ct, shots=shots),
    lambda shots: calibrate_phase(CTX, 1.0, shots=shots),
    lambda shots: calibrate_stark_shift(CTX, shots=shots),
    lambda shots: run_full_calibration(CTX, shots=shots),
], ids=["pi-time", "amplitude", "phase", "stark", "full-chain"])
@pytest.mark.parametrize("shots", [0, -1])
def test_calibrators_refuse_fewer_than_one_shot(calibrate, shots):
    # zero shots is not the analytic populations, which shots=None asks for
    with pytest.raises(ValueError, match="shots must be >= 1"):
        calibrate(shots)


@pytest.mark.parametrize("draw", [
    lambda shots: measure_pi_time(CTX, shots=shots),
    lambda shots: calibrate_amplitude(CTX, CTX.t_pi_ct, shots=shots),
    lambda shots: calibrate_phase(CTX, 1.0, shots=shots),
    lambda shots: calibrate_stark_shift(CTX, shots=shots),
    lambda shots: run_full_calibration(CTX, shots=shots),
    lambda shots: simulate_scan([square_pi(1.0)], CrosstalkContext(omega_0=1.0, f_ct=0.1),
                                shots=shots),
    lambda shots: ramsey_phase_probe([1.0], shots),
], ids=["pi-time", "amplitude", "phase", "stark", "full-chain", "simulate-scan", "ramsey-probe"])
@pytest.mark.parametrize("shots", [2.5, True], ids=["float", "bool"])
def test_shot_counts_must_be_integers(draw, shots):
    # a fraction sampled over 2.5 shots, such as 0.8, is no count, and
    # True is no shot count either
    with pytest.raises(ValueError, match="shots must be an integer"):
        draw(shots)


class TestMeasurePiTime:
    def test_noiseless_closed_form(self):
        t_pi = measure_pi_time(CTX, shots=None)
        assert t_pi == pytest.approx(CTX.t_pi_ct, rel=1e-9)
        assert t_pi == pytest.approx(104.2e-6, rel=1e-3)

    def test_shot_noise_accuracy(self):
        hits = 0
        for seed in range(50):
            t_pi = measure_pi_time(CTX, shots=200, seed=seed)
            if abs(t_pi - CTX.t_pi_ct) / CTX.t_pi_ct <= 0.01:
                hits += 1
        assert hits >= 47

    def test_no_crosstalk_raises(self):
        ctx = CrosstalkContext(omega_0=OMEGA, f_ct=0.0)
        with pytest.raises(LowSignalError):
            measure_pi_time(ctx, shots=200, seed=0)


class TestCalibrateAmplitude:
    def test_noiseless_fixed_point(self):
        f_star = calibrate_amplitude(CTX, CTX.t_pi_ct, shots=None)
        assert abs(f_star - 1.0) <= 1e-3

    def test_shot_noise_accuracy(self):
        hits = 0
        for seed in range(30):
            t_pi = measure_pi_time(CTX, shots=200, seed=seed)
            f_star = calibrate_amplitude(CTX, t_pi, shots=200, seed=seed)
            if abs(f_star - 1.0) <= 0.03:
                hits += 1
        assert hits >= 28

    def test_polarization_mismatch_matches_field(self):
        # the procedure matches the measured field amplitude even when the
        # polarization overlap caps the achievable cancellation
        ctx = CrosstalkContext(omega_0=OMEGA, f_ct=0.096, pol_overlap=0.9)
        f_star = calibrate_amplitude(ctx, ctx.t_pi_ct, shots=None)
        assert abs(f_star - 1.0) <= 1e-3
        # the residual field floor, at f_comp = pol_overlap and delta_phi = pi
        floor = effective_magnitude_polarized(0.9, math.pi, 0.9)
        assert floor == pytest.approx(math.sqrt(1.0 - 0.81), abs=1e-12)

    @pytest.mark.parametrize("detuning", [0.0, 0.03, 0.06])
    @pytest.mark.parametrize("bracket", [(0.25, 4.0), (0.5, 4.0), (0.3, 1.2)])
    def test_direct_solve_is_exact(self, detuning, bracket):
        # the detuned compensation flop turns at sqrt((k f)^2 + delta^2); the
        # naive update f t(f) / t_pi misses f = 1 at (0.3, 1.2) and 0.06
        ctx = CrosstalkContext(omega_0=OMEGA, f_ct=0.096, delta_ct=detuning * OMEGA)
        t_pi = math.pi / math.hypot(ctx.f_ct * OMEGA, ctx.delta_ct)
        f_star = calibrate_amplitude(ctx, t_pi, shots=None, bracket=bracket)
        assert type(f_star) is float
        assert abs(f_star - 1.0) <= 1e-9

    def test_two_flop_scans(self, monkeypatch):
        from xtalk import calibrate

        scans = []
        real = calibrate._fit_flop_half_period

        def counting(*args, **kwargs):
            scans.append(args[2])
            return real(*args, **kwargs)

        monkeypatch.setattr(calibrate, "_fit_flop_half_period", counting)
        fits = []
        calibrate_amplitude(CTX, CTX.t_pi_ct, shots=200, seed=3, fits=fits)
        assert len(scans) == 2
        assert len(fits) == 2

    def test_pi_time_beyond_detuning_floor(self):
        # no amplitude flops slower than the detuning allows: pi / t < delta
        ctx = CrosstalkContext(omega_0=OMEGA, f_ct=0.096, delta_ct=0.2 * OMEGA)
        with pytest.raises(ConfigError):
            calibrate_amplitude(ctx, ctx.t_pi_ct, shots=None)

    def test_non_bracketing_interval(self):
        with pytest.raises(ConfigError):
            calibrate_amplitude(CTX, CTX.t_pi_ct, shots=None, bracket=(2.0, 4.0))


class TestCalibratePhase:
    def test_noiseless_returns_pi(self):
        dial = calibrate_phase(CTX, 1.0, shots=None)
        assert dial == pytest.approx(math.pi, abs=1e-6)

    def test_recovers_unknown_crosstalk_phase(self):
        ctx = CrosstalkContext(omega_0=OMEGA, f_ct=0.096, ct_phase=2.13)
        dial = calibrate_phase(ctx, 1.0, shots=None)
        assert dial == pytest.approx(math.pi + 2.13, abs=1e-6)

    def test_accuracy_at_200_shots(self):
        errors = [
            abs(calibrate_phase(CTX, 1.0, n_periods=1, shots=200, seed=s) - math.pi)
            for s in range(20)
        ]
        assert np.median(errors) <= 0.03

    def test_longer_pulses_sharpen_the_estimate(self):
        short = []
        long = []
        for seed in range(25):
            short.append(calibrate_phase(CTX, 1.0, n_periods=1, shots=200, seed=seed) - math.pi)
            long.append(calibrate_phase(CTX, 1.0, n_periods=4, shots=200, seed=seed) - math.pi)
        assert np.std(long) < np.std(short)

    def test_noisy_scan_residual_at_shot_scale(self):
        from xtalk.calibrate import _phase_scan_fit

        _, fit = _phase_scan_fit(CTX, 1.0, 1, 200, 11, 40, CTX.t_pi_ct)
        assert fit.residual_rms <= 3.0 * math.sqrt(0.25 / 200)


    @pytest.mark.parametrize("pol_overlap", [1.0, 0.9])
    def test_residual_matches_scalar_model(self, monkeypatch, pol_overlap):
        from xtalk import calibrate
        from xtalk.field import effective_magnitude_polarized

        seen = {}
        real_measure, real_fit = calibrate._measure, calibrate.gauss_newton

        def measure(*args, **kwargs):
            seen["pops"] = real_measure(*args, **kwargs)
            return seen["pops"]

        def fit(residual, *args, **kwargs):
            seen["residual"] = residual
            return real_fit(residual, *args, **kwargs)

        monkeypatch.setattr(calibrate, "_measure", measure)
        monkeypatch.setattr(calibrate, "gauss_newton", fit)
        ctx = CrosstalkContext(omega_0=OMEGA, f_ct=0.096, pol_overlap=pol_overlap, ct_phase=1.3)
        f_comp, n_periods, points = 0.97, 2, 40
        calibrate_phase(ctx, f_comp, n_periods=n_periods, shots=200, seed=4, points=points)
        dials = np.arange(points) * (2.0 * math.pi / points)
        for a, kappa, offset in [(1.0, 1.0, 0.0), (0.8, 1.2, 1.3), (1.4, 0.6, -2.5)]:
            expected = [
                a * math.sin(
                    math.pi * n_periods * kappa
                    * effective_magnitude_polarized(f_comp, d - offset, pol_overlap)
                ) ** 2 - pop
                for d, pop in zip(dials, seen["pops"])
            ]
            got = seen["residual"](np.array([a, kappa, offset]))
            np.testing.assert_allclose(got, expected, rtol=0.0, atol=1e-12)


def _fits(monkeypatch, run):
    """Each ``(residual, jacobian, fitted parameters)`` that ``run`` fits."""
    from xtalk import calibrate

    fits, real = [], calibrate.gauss_newton

    def fit(residual, *args, **kwargs):
        result = real(residual, *args, **kwargs)
        fits.append((residual, kwargs["jacobian"], result.params))
        return result

    monkeypatch.setattr(calibrate, "gauss_newton", fit)
    run()
    return fits


def _assert_jacobian_matches_differences(residual, jacobian, x):
    from test_fitting import central_differences

    analytic = jacobian(x)
    numeric = central_differences(residual, x, len(residual(x)))
    assert analytic.shape == numeric.shape
    for got, expected in zip(analytic.T, numeric.T):
        np.testing.assert_allclose(got, expected, rtol=1e-6, atol=1e-6 * np.abs(expected).max())


class TestAnalyticJacobians:
    CTX = CrosstalkContext(omega_0=OMEGA, f_ct=0.096, delta_ct=0.02 * OMEGA, ct_phase=1.1,
                           stark_shift=2 * math.pi * 4e3)

    @pytest.mark.parametrize("stage", ["pi-time", "amplitude", "stark"])
    def test_flop_and_lineshape_match_differences(self, monkeypatch, stage):
        ctx = self.CTX
        run = {"pi-time": lambda: measure_pi_time(ctx, shots=200, seed=3),
               "amplitude": lambda: calibrate_amplitude(ctx, ctx.t_pi_ct, shots=200, seed=3),
               "stark": lambda: calibrate_stark_shift(ctx, shots=200, seed=3)}[stage]
        rng = np.random.default_rng(11)
        for residual, jacobian, fitted in _fits(monkeypatch, run):
            _assert_jacobian_matches_differences(residual, jacobian, fitted)
            for _ in range(5):
                # a in [0.5, 1.4]; the rate or line center within 30% of the fit
                x = fitted * np.array([1.0, rng.uniform(0.7, 1.3)])
                x[0] = rng.uniform(0.5, 1.4)
                _assert_jacobian_matches_differences(residual, jacobian, x)

    @pytest.mark.parametrize("pol_overlap", [1.0, 0.8])
    def test_phase_model_matches_differences(self, monkeypatch, pol_overlap):
        ctx = CrosstalkContext(omega_0=OMEGA, f_ct=0.096, pol_overlap=pol_overlap, ct_phase=2.1)
        points = 40
        [(residual, jacobian, fitted)] = _fits(
            monkeypatch, lambda: calibrate_phase(ctx, 1.0, n_periods=2, shots=200, seed=5,
                                                 points=points))
        dials = np.arange(points) * (2.0 * math.pi / points)
        rng = np.random.default_rng(12)
        trials = [fitted] + [np.array([rng.uniform(0.5, 1.4), rng.uniform(0.6, 1.4),
                                       rng.uniform(-6.0, 6.0)]) for _ in range(5)]
        # a dial at the cancellation point: at pol_overlap 1 the magnitude
        # there is at its rounding floor, about 1e-16
        trials.append(np.array([1.1, 0.9, dials[13] - math.pi]))
        for x in trials:
            _assert_jacobian_matches_differences(residual, jacobian, x)


class TestCalibrateStarkShift:
    def test_zero_shift(self):
        shift = calibrate_stark_shift(CTX, shots=None)
        assert abs(shift) <= OMEGA / 20.0

    def test_recovers_injected_shift(self):
        ctx = CrosstalkContext(
            omega_0=OMEGA, f_ct=0.096, stark_shift=2 * math.pi * 5e3
        )
        shift = calibrate_stark_shift(ctx, shots=None)
        assert shift == pytest.approx(2 * math.pi * 5e3, rel=1e-6)
        for seed in range(10):
            noisy = calibrate_stark_shift(ctx, shots=2000, seed=seed)
            assert noisy == pytest.approx(2 * math.pi * 5e3, rel=0.05)

    def test_out_of_span_raises(self):
        ctx = CrosstalkContext(omega_0=OMEGA, f_ct=0.096, stark_shift=10.0 * OMEGA)
        with pytest.raises(OutOfRangeError):
            calibrate_stark_shift(ctx, shots=None)


class TestRecalibrationInterval:
    def test_hundredfold_suppression_interval(self):
        interval = recalibration_interval(3.5e-3, 0.01)
        assert 20.0 <= interval <= 30.0
        assert interval == pytest.approx(2.0 * math.asin(0.05) / 3.5e-3, rel=1e-12)

    def test_linear_in_inverse_rate(self):
        assert recalibration_interval(7e-3, 0.01) == pytest.approx(
            0.5 * recalibration_interval(3.5e-3, 0.01), rel=1e-12
        )

    def test_break_even_limit(self):
        # as the target approaches no suppression the budget tends to the
        # break-even phase radius pi/3
        interval = recalibration_interval(1.0, 1.0 - 1e-12)
        assert interval == pytest.approx(math.pi / 3.0, rel=1e-5)

    def test_monotonicity(self):
        rates = np.linspace(1e-3, 1e-1, 20)
        intervals = [recalibration_interval(r, 0.01) for r in rates]
        assert all(b < a for a, b in zip(intervals[:-1], intervals[1:]))
        targets = np.linspace(0.001, 0.9, 20)
        budgets = [recalibration_interval(1.0, t) for t in targets]
        assert all(b > a for a, b in zip(budgets[:-1], budgets[1:]))

    def test_input_validation(self):
        with pytest.raises(ValueError):
            recalibration_interval(0.0, 0.01)
        with pytest.raises(ValueError):
            recalibration_interval(1.0, 1.0)


class TestFullChain:
    def test_noiseless_chain_is_exact(self):
        ctx = CrosstalkContext(omega_0=OMEGA, f_ct=0.096, ct_phase=0.777)
        result, _ = run_full_calibration(ctx, shots=None, seed=0)
        residual_phase = result.delta_phi_star - ctx.ct_phase
        err = pi_pulse_error(1, ctx.f_ct, result.f_comp_star, residual_phase)
        assert err <= 1e-10

    def test_chain_with_shot_noise_suppresses(self):
        ctx = CrosstalkContext(omega_0=OMEGA, f_ct=0.096, ct_phase=5.0)
        result, _ = run_full_calibration(ctx, shots=200, seed=12)
        rel = relative_error(result.f_comp_star, result.delta_phi_star - ctx.ct_phase)
        assert rel <= 0.01

    def test_diagnostics_cover_every_stage(self, tmp_path):
        ctx = CrosstalkContext(omega_0=OMEGA, f_ct=0.096, ct_phase=2.0)
        result, diag = run_full_calibration(ctx, shots=200, seed=7)
        assert set(diag) == {"pi_time_fit", "amplitude_fits", "phase_fit"}
        assert len(diag["amplitude_fits"]) == 2
        stages = [diag["pi_time_fit"], *diag["amplitude_fits"], diag["phase_fit"]]
        for stage in stages:
            assert set(stage) == {"iterations", "converged", "stop", "residual_rms",
                                  "residual_trace"}
            assert stage["stop"] in ("tol", "exact", "floor", "halvings", "max_iter")
        save_result(result, tmp_path / "cal.json", diagnostics=diag)
        side = json.loads((tmp_path / "cal.diag.json").read_text(encoding="utf-8"))
        assert side == json.loads(json.dumps(diag))

    def test_stark_branch(self):
        ctx = CrosstalkContext(
            omega_0=OMEGA, f_ct=0.096, stark_shift=2 * math.pi * 4e3
        )
        result, _ = run_full_calibration(ctx, shots=None, seed=0, include_stark=True)
        assert result.delta_ct_star == pytest.approx(-2 * math.pi * 4e3, rel=0.05)

    def test_pcc_z_residual_dominated_by_rotations(self):
        # with the calibrated detuning the benchmark error is at the scale of
        # the x-type rotation error, not orders larger
        from xtalk.field import CompensationSetting
        from xtalk.pulses import SPECTATOR, pi_trains, ramsey_wrap, simulate_scan

        f_eff = 4.5e-3
        ctx = CrosstalkContext(omega_0=OMEGA, f_ct=0.096, delta_ct=0.05 * OMEGA)
        setting = CompensationSetting(1.0 - f_eff / ctx.f_ct, math.pi)
        [(seq, _)] = pi_trains("pcc", OMEGA, [1], ctx, setting)
        x_err = simulate_scan([seq], ctx).populations[0, SPECTATOR]
        wrapped = ramsey_wrap(seq, OMEGA)
        z_err = simulate_scan([wrapped], ctx).populations[0, SPECTATOR]
        assert z_err <= 3.0 * max(x_err, 1e-6)


class TestResultSerialization:
    def test_json_roundtrip_with_sidecar(self, tmp_path):
        result = CalibrationResult(
            t_pi_ct=1.04e-4,
            f_comp_star=1.002,
            delta_phi_star=3.14,
            delta_ct_star=0.0,
            residual=1.5e-3,
            timestamp=1.7e9,
        )
        path = tmp_path / "cal.json"
        save_result(result, path, diagnostics={"phase_fit": {"iterations": 4}})
        doc = json.loads(path.read_text(encoding="utf-8"))
        assert doc["t_pi_ct_s"] == pytest.approx(1.04e-4)
        assert doc["timestamp"].startswith("2023-")
        side = json.loads((tmp_path / "cal.diag.json").read_text(encoding="utf-8"))
        assert side["phase_fit"]["iterations"] == 4

    def test_invariants(self):
        with pytest.raises(ValueError):
            CalibrationResult(0.0, 1.0, math.pi, 0.0, 0.0, 0.0)
        with pytest.raises(ValueError):
            CalibrationResult(1.0, 1.0, math.pi, 0.0, -1.0, 0.0)
