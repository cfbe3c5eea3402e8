"""The public API: the names ``xtalk`` exports, the optional parameters of
every public callable, and the README's quick start."""

import importlib
import inspect
import re
import types
from pathlib import Path

import xtalk

README = Path(__file__).resolve().parents[1] / "README.md"

# removing a name from the public API is deliberate: change this list and
# say so in CHANGES.md
PUBLIC_NAMES = [
    "AomModel", "BeamProfile", "CalibrationResult", "ChannelConflictError",
    "ChannelPulse", "CompensationSetting", "ConfigError", "CrosstalkContext",
    "CrosstalkEstimate", "DegenerateFitError", "DriftProcess", "DutyCycleState",
    "FitFailureError", "FitModel", "LowSignalError", "NumericalFailureError",
    "OutOfRangeError", "PulseSegment", "PulseSequence", "QubitState", "SPECTATOR",
    "ScanResult", "ScenarioConfig", "SimulationResult", "TARGET", "XtalkError",
    "amplitude_tolerance", "apply", "beatnote_phase_measurement", "best_compensation",
    "calibrate_amplitude", "calibrate_phase", "calibrate_stark_shift",
    "clipped_focus_profile", "concat", "diffraction_efficiency", "duty_cycle_drift_rate",
    "effective_magnitude", "effective_rabi", "fit_crosstalk_model", "focal_field",
    "gaussian_intensity", "is_suppressing", "load_device_map_csv", "load_presets",
    "matched_drive_power", "max_rotation_error", "measure_pi_time", "phase_tolerance",
    "pi_pulse_error", "pi_trains", "quad_frame_step", "quadrilateral", "ramsey_phase_probe",
    "ramsey_wrap", "recalibration_interval", "relative_error", "rf_absorption",
    "rotation_error", "rotation_unitary", "run_full_calibration", "run_scenario",
    "sample_slow_drift", "save_result", "scaled", "simulate_scan", "sk1", "square_pi",
    "step_duty_cycle", "total_crosstalk_ratio", "with_pcc",
]


# every parameter with a default, per function, class and public method in
# the modules' __all__: adding a knob is deliberate too, so it changes this
# table; a parameter no caller sets is a constant instead
OPTIONAL_PARAMETERS = {
    "calibrate.FitModel": ["model_id", "params", "bounds"],
    "calibrate.measure_pi_time": ["shots", "seed", "fits"],
    "calibrate.calibrate_amplitude": ["shots", "seed", "bracket", "fits"],
    "calibrate.calibrate_phase": ["n_periods", "shots", "seed", "points"],
    "calibrate.calibrate_stark_shift": ["shots", "seed"],
    "calibrate.run_full_calibration": ["shots", "seed", "include_stark", "timestamp"],
    "calibrate.save_result": ["diagnostics"],
    "dynamics.is_unitary": ["tol"],
    "field.CrosstalkContext": ["delta_ct", "pol_overlap", "ct_phase", "stark_shift"],
    "field.effective_magnitude_polarized": ["pol_overlap"],
    "field.pi_pulse_error": ["f_comp", "delta_phi"],
    "field.best_compensation": ["pol_overlap"],
    "fitting.FitResult": ["residual_trace", "covariance"],
    "fitting.gauss_newton": ["bounds", "max_iter", "jacobian"],
    "noise.DriftProcess": ["walk_window", "preset"],
    "noise.AomModel": ["center_mhz", "efficiency_width_mhz", "absorption_width_mhz",
                       "thermal_coeff", "thermal_tau", "max_rf_power"],
    "noise.DutyCycleState": ["filtered_power", "phase"],
    "noise.sample_slow_drift": ["seed"],
    "noise.duty_cycle_drift_rate": ["mitigated", "match_error"],
    "noise.beatnote_phase_measurement": ["noise_sigma", "seed"],
    "noise.ramsey_phase_probe": ["seed"],
    "optics.BeamProfile.default": ["waist_um"],
    "optics.focal_field": ["max_refinements"],
    "optics.clipped_focus_profile": ["max_refinements"],
    "optics.total_crosstalk_ratio": ["pol_overlap", "relative_phase"],
    "pulses.PulseSegment": ["detuning", "duration"],
    "pulses.SimulationResult": ["sampled"],
    "pulses.square_pi": ["phase"],
    "pulses.quadrilateral": ["phase_offset"],
    "pulses.pi_trains": ["ctx", "setting", "phase"],
    "pulses.ramsey_wrap": ["close_phase"],
    "pulses.simulate_scan": ["shots", "seed", "point_indices", "phase_noise"],
}
MODULES = ("calibrate", "dynamics", "field", "fitting", "noise", "optics", "pulses",
           "scenarios")


def _public_callables():
    """``(label, function)`` per public function, class and public method,
    each function object once."""
    seen = set()
    for module in MODULES:
        mod = importlib.import_module(f"xtalk.{module}")
        for name in mod.__all__:
            obj = getattr(mod, name)
            found = [(name, obj)] if callable(obj) else []
            if inspect.isclass(obj):
                for attr, value in vars(obj).items():
                    value = getattr(value, "__func__", value)  # class and static methods
                    if not attr.startswith("_") and inspect.isfunction(value):
                        found.append((f"{name}.{attr}", value))
            for label, fn in found:
                if id(fn) not in seen:
                    seen.add(id(fn))
                    yield f"{module}.{label}", fn


def test_optional_parameters_are_pinned():
    optional = {}
    for label, fn in _public_callables():
        params = inspect.signature(fn).parameters.values()
        names = [p.name for p in params if p.default is not inspect.Parameter.empty]
        if names:
            optional[label] = names
    assert optional == OPTIONAL_PARAMETERS


def test_public_names_are_pinned():
    exported = [n for n in xtalk.__all__ if not isinstance(getattr(xtalk, n), types.ModuleType)]
    assert sorted(exported) == sorted(PUBLIC_NAMES)


def test_readme_quick_start_runs(capsys):
    text = README.read_text(encoding="utf-8")
    quick_start = text[text.index("## Library quick start"):]
    block = re.search(r"```python\n(.*?)```", quick_start, re.S).group(1)
    exec(compile(block, f"{README}:quick start", "exec"), {})
    printed = capsys.readouterr().out
    # the spectator's population after 1, 2 and 4 compensated pi pulses
    values = [float(v) for v in printed.strip(" []\n").split()]
    assert len(values) == 3 and all(0.0 <= v < 1e-3 for v in values)
