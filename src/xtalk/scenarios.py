"""Scenario runner: reproduces the benchmark scans as CSV datasets.

Each scenario is configured by a single JSON document (unknown keys are
rejected so typos in physics constants fail loudly), runs deterministically
for a fixed seed, and emits a CSV with one row per scan point plus comment
metadata identifying the configuration.
"""

from __future__ import annotations

import functools
import hashlib
import io
import json
import math
import subprocess
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import __version__
from .errors import ConfigError
from .field import CompensationSetting, CrosstalkContext
from .noise import (
    AomModel,
    DriftProcess,
    DEFAULT_MATCH_ERROR,
    duty_cycle_drift_rate,
    rng,
    sample_slow_drift,
)
from .optics import BeamProfile, clipped_focus_profile, gaussian_intensity
from .pulses import (
    SPECTATOR,
    TARGET,
    ChannelPulse,
    PulseSegment,
    PulseSequence,
    pi_train,
    ramsey_wrap,
    simulate_scan,
    with_pcc,
)

__all__ = ["ScenarioConfig", "ScanResult", "run_scenario", "SCENARIOS"]

SCENARIOS = (
    "x-error",
    "z-error",
    "phase-scan",
    "rabi-scan",
    "amplitude-scan",
    "drift-monitor",
    "duty-cycle-sweep",
    "beam-profile",
)
METHODS = ("none", "pcc", "sk1", "quad")

_TOP_KEYS = {"scenario", "method", "physics", "scan", "noise", "shots", "seed", "out"}
_PHYSICS_KEYS = {
    "omega_0_rad_per_s",
    "f_ct",
    "f_comp",
    "delta_phi_rad",
    "delta_ct_rad_per_s",
    "pol_overlap",
    "ct_phase_rad",
    "stark_shift_rad_per_s",
}
_NOISE_KEYS = {"preset", "shot_interval_min"}
_SCAN_KEYS = {
    "x-error": {"n_values"},
    "z-error": {"n_values"},
    "phase-scan": {"points", "n_periods"},
    "rabi-scan": {"t_max_s", "points", "observe"},
    "amplitude-scan": {"scale_min", "scale_max", "points"},
    "drift-monitor": {"preset", "duration_min", "dt_min"},
    "duty-cycle-sweep": {"ratio_min", "ratio_max", "points", "mitigated", "match_error"},
    "beam-profile": {
        "x_min_um",
        "x_max_um",
        "points",
        "curve",
        "w0_um",
        "wavelength_nm",
        "na",
        "device_csv",
        "max_refinements",
    },
}

DEFAULT_OMEGA_0 = 2.0 * math.pi * 50e3  # rad/s, simulation constant
DEFAULT_F_CT = 0.096


def _require_keys(section: dict, allowed: set, what: str) -> None:
    if not isinstance(section, dict):
        raise ConfigError(f"{what} must be a JSON object")
    unknown = set(section) - allowed
    if unknown:
        raise ConfigError(f"unknown {what} keys: {sorted(unknown)}")


@dataclass(frozen=True)
class ScenarioConfig:
    """Validated scenario configuration."""

    scenario: str
    method: str
    context: CrosstalkContext
    setting: CompensationSetting
    scan: dict
    noise: dict | None
    shots: int
    seed: int
    out: str | None
    raw: dict

    @classmethod
    def from_dict(
        cls,
        doc: dict,
        seed_override: int | None = None,
        shots_override: int | None = None,
        out_override: str | None = None,
        default_seed: int = 0,
    ) -> "ScenarioConfig":
        _require_keys(doc, _TOP_KEYS, "config")
        scenario = doc.get("scenario")
        if scenario not in SCENARIOS:
            raise ConfigError(f"scenario must be one of {SCENARIOS}, got {scenario!r}")
        method = doc.get("method", "none")
        if method not in METHODS:
            raise ConfigError(f"method must be one of {METHODS}, got {method!r}")

        phys = dict(doc.get("physics", {}))
        _require_keys(phys, _PHYSICS_KEYS, "physics")
        try:
            context = CrosstalkContext(
                omega_0=float(phys.get("omega_0_rad_per_s", DEFAULT_OMEGA_0)),
                f_ct=float(phys.get("f_ct", DEFAULT_F_CT)),
                delta_ct=float(phys.get("delta_ct_rad_per_s", 0.0)),
                pol_overlap=float(phys.get("pol_overlap", 1.0)),
                ct_phase=float(phys.get("ct_phase_rad", 0.0)),
                stark_shift=float(phys.get("stark_shift_rad_per_s", 0.0)),
            )
            setting = CompensationSetting(
                f_comp=float(phys.get("f_comp", 1.0)),
                delta_phi=float(phys.get("delta_phi_rad", math.pi)),
            )
        except ValueError as exc:
            raise ConfigError(str(exc)) from exc

        scan = dict(doc.get("scan", {}))
        _require_keys(scan, _SCAN_KEYS[scenario], f"{scenario} scan")

        noise = doc.get("noise")
        if noise is not None:
            noise = dict(noise)
            _require_keys(noise, _NOISE_KEYS, "noise")
            if noise.get("preset") not in ("enclosed", "exposed"):
                raise ConfigError("noise.preset must be 'enclosed' or 'exposed'")

        shots = shots_override if shots_override is not None else doc.get("shots", 200)
        if not isinstance(shots, int) or shots < 1:
            raise ConfigError("shots must be an integer >= 1")
        seed = seed_override if seed_override is not None else doc.get("seed", default_seed)
        if not isinstance(seed, int):
            raise ConfigError("seed must be an integer")
        out = out_override if out_override is not None else doc.get("out")

        # the hash identifies the physics configuration, not the output path
        resolved = {k: v for k, v in doc.items() if k != "out"}
        resolved["scenario"] = scenario
        resolved["method"] = method
        resolved["shots"] = shots
        resolved["seed"] = seed
        return cls(
            scenario=scenario,
            method=method,
            context=context,
            setting=setting,
            scan=scan,
            noise=noise,
            shots=shots,
            seed=seed,
            out=out,
            raw=resolved,
        )

    def config_hash(self) -> str:
        canonical = json.dumps(self.raw, sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


@functools.cache
def _build_describe() -> str:
    """Build id from ``git describe``, spawned once per process."""
    try:
        out = subprocess.run(
            ["git", "describe", "--always", "--dirty"],
            cwd=Path(__file__).resolve().parent,
            capture_output=True,
            text=True,
            timeout=5.0,
            check=False,
        )
        if out.returncode == 0 and out.stdout.strip():
            return f"xtalk-{__version__}+g{out.stdout.strip()}"
    except OSError:
        pass
    return f"xtalk-{__version__}"


@dataclass(frozen=True)
class ScanResult:
    """Per-point scan output plus the metadata identifying the run."""

    x: np.ndarray
    value_mean: np.ndarray
    value_sampled: np.ndarray
    stderr: np.ndarray
    metadata: dict

    def __post_init__(self):
        n = len(self.x)
        if not (len(self.value_mean) == len(self.value_sampled) == len(self.stderr) == n):
            raise ValueError("result arrays must have equal length")

    def to_csv(self) -> str:
        buf = io.StringIO()
        for key in ("scenario", "method", "seed", "config_hash", "build"):
            buf.write(f"# {key}: {self.metadata[key]}\n")
        buf.write("x,value_mean,value_sampled,stderr\n")
        for x, vm, vs, se in zip(self.x, self.value_mean, self.value_sampled, self.stderr):
            xs = repr(int(x)) if float(x).is_integer() and abs(x) < 1e15 else repr(float(x))
            buf.write(f"{xs},{float(vm)!r},{float(vs)!r},{float(se)!r}\n")
        return buf.getvalue()

    def write_csv(self, path) -> None:
        with open(path, "w", encoding="utf-8", newline="") as fh:
            fh.write(self.to_csv())


def _binomial_stderr(p: float, shots: int) -> float:
    return math.sqrt(max(p * (1.0 - p), 0.0) / shots)


def _pulse_counts(cfg: ScenarioConfig) -> list:
    ns = cfg.scan.get("n_values", [1, 2, 4, 8, 16, 32])
    counts = [int(n) for n in ns]
    if not counts or any(n < 1 for n in counts):
        raise ConfigError("n_values must be positive integers")
    return counts


def _sweep(cfg: ScenarioConfig, x, seqs, channel: int = SPECTATOR, noise: bool = True,
           scales=None) -> ScanResult:
    """One kernel call over the scan points: per point the population of
    ``channel``, its shot estimate and binomial error.  With ``noise`` the
    configured drift offsets the spectator channel per shot."""
    phase_noise = None
    if noise and cfg.noise is not None:
        preset = cfg.noise["preset"]
        process = DriftProcess.enclosed() if preset == "enclosed" else DriftProcess.exposed()
        dt = float(cfg.noise.get("shot_interval_min", 1e-3))
        phase_noise = [sample_slow_drift(process, dt * cfg.shots, dt,
                                         seed=(cfg.seed + 7919) * 65537 + i)[1:]
                       for i in range(len(x))]
    results = simulate_scan(seqs, cfg.context, shots=cfg.shots, seed=cfg.seed,
                            phase_noise=phase_noise, scales=scales)
    pops = [res.populations[channel] for res in results]
    rows = [(p, res.sampled[channel], _binomial_stderr(p, cfg.shots))
            for p, res in zip(pops, results)]
    return _result(cfg, x, rows)


def run_x_error(cfg: ScenarioConfig) -> ScanResult:
    """Spectator excited population after N target pi pulses, from ground."""
    counts = _pulse_counts(cfg)
    ctx = cfg.context
    seqs = (pi_train(cfg.method, ctx.omega_0, n, ctx, cfg.setting)[0] for n in counts)
    return _sweep(cfg, np.array(counts, dtype=float), seqs)


def run_z_error(cfg: ScenarioConfig) -> ScanResult:
    """Ramsey-wrapped benchmark measuring the spectator in the X basis.

    The spectator gets a pi/2 pulse before and after the target pulse train;
    the closing pulse inverts the opening one, so the excited population
    reads the accumulated error directly.  For the quad method the
    spectator's residual software Z rotation (the small-square geometric
    phase) is measured from the train unitary and absorbed into the closing
    pulse phase, as the protocol prescribes.
    """
    counts = _pulse_counts(cfg)
    ctx = cfg.context
    trains = [pi_train(cfg.method, ctx.omega_0, n, ctx, cfg.setting)[0] for n in counts]
    close_phases = [math.pi] * len(trains)
    if cfg.method == "quad":
        # from the ground state, the final |0> amplitude is the train unitary's u[0, 0]
        u00 = [res.states[SPECTATOR].c0 for res in simulate_scan(trains, ctx)]
        close_phases = [math.pi + -2.0 * math.atan2(u.imag, u.real) for u in u00]
    seqs = (ramsey_wrap(seq, ctx.omega_0, 0.0, close) for seq, close in zip(trains, close_phases))
    return _sweep(cfg, np.array(counts, dtype=float), seqs)


def run_phase_scan(cfg: ScenarioConfig) -> ScanResult:
    """Spectator population versus compensation phase at t = 2 n crosstalk pi times."""
    points = int(cfg.scan.get("points", 40))
    n_periods = int(cfg.scan.get("n_periods", 1))
    if points < 2 or n_periods < 1:
        raise ConfigError("phase-scan needs points >= 2 and n_periods >= 1")
    ctx = cfg.context
    duration = 2.0 * n_periods * ctx.t_pi_ct
    dials = np.arange(points) * (2.0 * math.pi / points)
    base = PulseSequence((ChannelPulse(TARGET, (PulseSegment(ctx.omega_0, 0.0, 0.0, duration),)),))
    seqs = (with_pcc(base, ctx, CompensationSetting(cfg.setting.f_comp, d)) for d in dials)
    return _sweep(cfg, dials, seqs)


def run_rabi_scan(cfg: ScenarioConfig) -> ScanResult:
    """Rabi flopping versus pulse duration on either channel."""
    observe = cfg.scan.get("observe", "spectator")
    if observe not in ("target", "spectator"):
        raise ConfigError("observe must be 'target' or 'spectator'")
    channel = TARGET if observe == "target" else SPECTATOR
    ctx = cfg.context
    if "t_max_s" in cfg.scan:
        t_max = float(cfg.scan["t_max_s"])
    else:
        t_max = 2.0 * ctx.t_pi_ct if channel == SPECTATOR else 4.0 * ctx.t_pi
    points = int(cfg.scan.get("points", 81))
    times = np.linspace(0.0, t_max, points)
    seqs = []
    for t in times:
        seq = PulseSequence((ChannelPulse(TARGET, (PulseSegment(ctx.omega_0, 0.0, 0.0, t),)),))
        seqs.append(with_pcc(seq, ctx, cfg.setting) if cfg.method == "pcc" else seq)
    return _sweep(cfg, times, seqs, channel, noise=False)


def run_amplitude_scan(cfg: ScenarioConfig) -> ScanResult:
    """Target excited population after a nominal pi pulse versus drive scale."""
    lo = float(cfg.scan.get("scale_min", 0.0))
    hi = float(cfg.scan.get("scale_max", 1.5))
    points = int(cfg.scan.get("points", 61))
    scales = np.linspace(lo, hi, points)
    ctx = cfg.context
    seq, _ = pi_train(cfg.method, ctx.omega_0, 1, ctx, cfg.setting)
    return _sweep(cfg, scales, [seq] * points, TARGET, noise=False,
                  scales=[float(s) for s in scales])


def run_drift_monitor(cfg: ScenarioConfig) -> ScanResult:
    """Slow differential-phase trace with a Ramsey-probe estimate per point."""
    preset = cfg.scan.get("preset", "enclosed")
    if preset not in ("enclosed", "exposed"):
        raise ConfigError("drift preset must be 'enclosed' or 'exposed'")
    duration = float(cfg.scan.get("duration_min", 8.0))
    dt = float(cfg.scan.get("dt_min", 0.1))
    process = DriftProcess.enclosed() if preset == "enclosed" else DriftProcess.exposed()
    trace = sample_slow_drift(process, duration, dt, seed=cfg.seed)
    times = np.arange(len(trace)) * dt
    rows = []
    for i, phi in enumerate(trace):
        phi = float(phi)
        p_true = 0.5 * (1.0 - math.cos(phi))
        p_hat = float(rng(cfg.seed, i).binomial(cfg.shots, min(max(p_true, 0.0), 1.0))) / cfg.shots
        phi_hat = math.acos(min(max(1.0 - 2.0 * p_hat, -1.0), 1.0))
        sigma_p = _binomial_stderr(p_hat, cfg.shots)
        slope = 2.0 / max(math.sin(phi_hat), 1e-3)
        rows.append((phi, phi_hat, slope * sigma_p))
    return _result(cfg, times, rows)


def run_duty_cycle_sweep(cfg: ScenarioConfig) -> ScanResult:
    """Steady thermal phase drift rate versus duty-cycle ratio."""
    lo = float(cfg.scan.get("ratio_min", 1e-3))
    hi = float(cfg.scan.get("ratio_max", 1.0))
    points = int(cfg.scan.get("points", 13))
    mitigated = bool(cfg.scan.get("mitigated", False))
    match_error = float(cfg.scan.get("match_error", DEFAULT_MATCH_ERROR))
    if not 0.0 < lo <= hi <= 1.0:
        raise ConfigError("ratios must satisfy 0 < ratio_min <= ratio_max <= 1")
    ratios = np.geomspace(lo, hi, points)
    model = AomModel()
    rates = [duty_cycle_drift_rate(model, float(r), mitigated, match_error) for r in ratios]
    return _result(cfg, ratios, [(rate, rate, 0.0) for rate in rates])


def run_beam_profile(cfg: ScenarioConfig) -> ScanResult:
    """Focal-plane intensity cut: clipped diffraction, device map, or ideal Gaussian."""
    curve = cfg.scan.get("curve", "clipped")
    if curve not in ("clipped", "device", "gaussian"):
        raise ConfigError("curve must be 'clipped', 'device' or 'gaussian'")
    x_min = float(cfg.scan.get("x_min_um", -10.0))
    x_max = float(cfg.scan.get("x_max_um", 10.0))
    points = int(cfg.scan.get("points", 401))
    w0 = float(cfg.scan.get("w0_um", 1.6))
    wavelength = float(cfg.scan.get("wavelength_nm", 729.0))
    na = float(cfg.scan.get("na", 0.35))
    grid = np.linspace(x_min, x_max, points)

    if curve == "clipped":
        max_ref = int(cfg.scan.get("max_refinements", 12))
        intensity = clipped_focus_profile(w0, wavelength, na, grid, max_refinements=max_ref)
    elif curve == "gaussian":
        intensity = gaussian_intensity(grid, w0)
    else:
        csv_path = cfg.scan.get("device_csv")
        if csv_path:
            profile = BeamProfile.from_csv(csv_path, waist_um=w0, wavelength_nm=wavelength, na=na)
        else:
            profile = BeamProfile.default(waist_um=w0, wavelength_nm=wavelength, na=na)
        core = len(profile.core_positions_um) // 2
        x0 = profile.core_positions_um[core]
        amp = np.array([profile.device_field(core, x0 + float(x)) for x in grid])
        intensity = amp**2

    rows = [(float(v), float(v), 0.0) for v in intensity]
    return _result(cfg, grid, rows)


def _result(cfg: ScenarioConfig, x: np.ndarray, rows: list) -> ScanResult:
    mean, sampled, err = (np.array([r[k] for r in rows]) for k in range(3))
    meta = {
        "scenario": cfg.scenario,
        "method": cfg.method,
        "seed": cfg.seed,
        "config_hash": cfg.config_hash(),
        "build": _build_describe(),
    }
    return ScanResult(x=x, value_mean=mean, value_sampled=sampled, stderr=err, metadata=meta)


_RUNNERS = {
    "x-error": run_x_error,
    "z-error": run_z_error,
    "phase-scan": run_phase_scan,
    "rabi-scan": run_rabi_scan,
    "amplitude-scan": run_amplitude_scan,
    "drift-monitor": run_drift_monitor,
    "duty-cycle-sweep": run_duty_cycle_sweep,
    "beam-profile": run_beam_profile,
}


def run_scenario(cfg: ScenarioConfig) -> ScanResult:
    """Dispatch a validated configuration to its scenario runner."""
    return _RUNNERS[cfg.scenario](cfg)
