"""Deterministic simulator and calibration toolkit for coherent cancellation
of optical addressing crosstalk on spectator qubits."""

__version__ = "0.1.0"

from .dynamics import (
    QubitState,
    apply,
    max_rotation_error,
    rotation_error,
    rotation_unitary,
)
from .errors import (
    ChannelConflictError,
    ConfigError,
    DegenerateFitError,
    FitFailureError,
    LowSignalError,
    NumericalFailureError,
    OutOfRangeError,
    XtalkError,
)
from .field import (
    CompensationSetting,
    CrosstalkContext,
    amplitude_tolerance,
    best_compensation,
    effective_magnitude,
    effective_rabi,
    is_suppressing,
    phase_tolerance,
    pi_pulse_error,
    relative_error,
)
from .calibrate import (
    CalibrationResult,
    FitModel,
    calibrate_amplitude,
    calibrate_phase,
    calibrate_stark_shift,
    fit_crosstalk_model,
    measure_pi_time,
    recalibration_interval,
    run_full_calibration,
    save_result,
)
from .noise import (
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
    sample_slow_drift,
    step_duty_cycle,
)
from .optics import (
    BeamProfile,
    CrosstalkEstimate,
    clipped_focus_profile,
    focal_field,
    gaussian_intensity,
    load_device_map_csv,
    total_crosstalk_ratio,
)
from .pulses import (
    SPECTATOR,
    TARGET,
    ChannelPulse,
    PulseSegment,
    PulseSequence,
    SimulationResult,
    concat,
    pi_train,
    pi_trains,
    quad_frame_step,
    quadrilateral,
    ramsey_wrap,
    simulate,
    sk1,
    square_pi,
    with_pcc,
)
from .scenarios import ScanResult, ScenarioConfig, run_scenario

__all__ = [name for name in dir() if not name.startswith("_")]
