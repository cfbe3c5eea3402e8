"""The public API: the names ``xtalk`` exports and the README's quick start."""

import re
import types
from pathlib import Path

import xtalk

README = Path(__file__).resolve().parents[1] / "README.md"

# removing a name from the public API is deliberate: change this list and
# say so in CHANGES.md
PUBLIC_NAMES = [
    "AomModel", "BeamProfile", "BeatnoteSetup", "CalibrationResult", "ChannelConflictError",
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
    "sample_slow_drift", "save_result", "simulate_scan", "sk1", "square_pi",
    "step_duty_cycle", "total_crosstalk_ratio", "with_pcc",
]


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
