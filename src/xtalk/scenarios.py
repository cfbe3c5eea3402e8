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
import sys
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import __version__
from .errors import ConfigError
from .field import CompensationSetting, CrosstalkContext
from .noise import (
    AomModel,
    DRIFT_PRESETS,
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

METHODS = ("none", "pcc", "sk1", "quad")

DEFAULT_OMEGA_0 = 2.0 * math.pi * 50e3  # rad/s, simulation constant
DEFAULT_F_CT = 0.096

# The config schema: per section, key -> (kind, default, lower bound).  A kind
# is int, float (finite), bool, str, dict, list (a non-empty list of ints) or a
# tuple of choices.  A default of None means no value unless given (or one the
# runner derives), and null then stands for it; a choice without a default must
# be given.  CrosstalkContext and CompensationSetting check the physics ranges.
_PHYSICS = {
    "omega_0_rad_per_s": (float, DEFAULT_OMEGA_0, ""),
    "f_ct": (float, DEFAULT_F_CT, ""),
    "f_comp": (float, 1.0, ""),
    "delta_phi_rad": (float, math.pi, ""),
    "delta_ct_rad_per_s": (float, 0.0, ""),
    "pol_overlap": (float, 1.0, ""),
    "ct_phase_rad": (float, 0.0, ""),
    "stark_shift_rad_per_s": (float, 0.0, ""),
}
_NOISE = {"preset": (tuple(DRIFT_PRESETS), None, ""), "shot_interval_min": (float, 1e-3, "> 0")}
_N_VALUES = {"n_values": (list, (1, 2, 4, 8, 16, 32), ">= 1")}
_SCAN = {
    "x-error": _N_VALUES,
    "z-error": _N_VALUES,
    "phase-scan": {"points": (int, 40, ">= 2"), "n_periods": (int, 1, ">= 1")},
    "rabi-scan": {
        "t_max_s": (float, None, ">= 0"),  # None: two spectator or four target pi times
        "points": (int, 81, ">= 1"),
        "observe": (("target", "spectator"), "spectator", ""),
    },
    "amplitude-scan": {
        "scale_min": (float, 0.0, ">= 0"),
        "scale_max": (float, 1.5, ">= 0"),
        "points": (int, 61, ">= 1"),
    },
    "drift-monitor": {
        "preset": (tuple(DRIFT_PRESETS), "enclosed", ""),
        "duration_min": (float, 8.0, ">= 0"),
        "dt_min": (float, 0.1, "> 0"),
    },
    "duty-cycle-sweep": {
        "ratio_min": (float, 1e-3, "> 0"),
        "ratio_max": (float, 1.0, "> 0"),
        "points": (int, 13, ">= 1"),
        "mitigated": (bool, False, ""),
        "match_error": (float, DEFAULT_MATCH_ERROR, ""),
    },
    "beam-profile": {
        "x_min_um": (float, -10.0, ""),
        "x_max_um": (float, 10.0, ""),
        "points": (int, 401, ">= 1"),
        "curve": (("clipped", "device", "gaussian"), "clipped", ""),
        "w0_um": (float, 1.6, "> 0"),
        "wavelength_nm": (float, 729.0, "> 0"),
        "na": (float, 0.35, "> 0"),
        "device_csv": (str, None, ""),
        "max_refinements": (int, 12, ">= 0"),
    },
}
SCENARIOS = tuple(_SCAN)
_TOP = {
    "scenario": (SCENARIOS, None, ""),
    "method": (METHODS, "none", ""),
    "physics": (dict, {}, ""),
    "scan": (dict, {}, ""),
    "noise": (dict, None, ""),
    "shots": (int, 200, ">= 1"),
    "seed": (int, 0, ""),
    "out": (str, None, ""),
}
_KIND_TEXT = {int: "an integer", float: "a finite number", bool: "true or false",
              str: "a string", dict: "an object", list: "a non-empty list of integers"}


def _typed(value, kind) -> bool:
    if isinstance(kind, tuple):
        return isinstance(value, str) and value in kind
    if kind is bool or isinstance(value, bool):
        return kind is bool and isinstance(value, bool)
    if kind is float:  # the bound also rejects NaN, inf and ints too large for a float
        return isinstance(value, (int, float)) and abs(value) <= sys.float_info.max
    if kind is list:
        return isinstance(value, list) and bool(value) and all(type(n) is int for n in value)
    return isinstance(value, kind)


def _resolve(section: dict, table: dict, what: str) -> dict:
    """``section`` checked against its schema ``table``, defaults filled in."""
    unknown = section.keys() - table.keys()
    if unknown:
        raise ConfigError(f"unknown {what} keys: {sorted(unknown)}")
    out = {}
    for key, (kind, default, bound) in table.items():
        value = section.get(key, default)
        # an absent key takes its default unchecked, but a choice is always checked
        if value is default and not isinstance(kind, tuple):
            out[key] = value
            continue
        ok = _typed(value, kind)
        if ok and bound:
            op, lo = bound.split()
            ok = all(v > float(lo) if op == ">" else v >= float(lo)
                     for v in (value if kind is list else (value,)))
        if not ok:
            name = key if what == "config" else f"{what}.{key}"
            text = f"one of {kind}" if isinstance(kind, tuple) else _KIND_TEXT[kind]
            raise ConfigError(f"{name} must be {text}{' ' + bound if bound else ''}, "
                              f"got {value!r}")
        out[key] = float(value) if kind is float else value
    return out


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
        if not isinstance(doc, dict):
            raise ConfigError("config must be a JSON object")
        overrides = {"seed": seed_override, "shots": shots_override, "out": out_override}
        top = {"seed": default_seed, **doc, **{k: v for k, v in overrides.items() if v is not None}}
        top = _resolve(top, _TOP, "config")
        scenario = top["scenario"]
        phys = _resolve(top["physics"], _PHYSICS, "physics")
        try:
            context = CrosstalkContext(
                omega_0=phys["omega_0_rad_per_s"], f_ct=phys["f_ct"],
                delta_ct=phys["delta_ct_rad_per_s"], pol_overlap=phys["pol_overlap"],
                ct_phase=phys["ct_phase_rad"], stark_shift=phys["stark_shift_rad_per_s"])
            setting = CompensationSetting(f_comp=phys["f_comp"], delta_phi=phys["delta_phi_rad"])
        except ValueError as exc:
            raise ConfigError(str(exc)) from exc
        noise = top["noise"]

        # the hash identifies the document as given, not the output path
        resolved = {k: v for k, v in doc.items() if k != "out"}
        resolved.update({k: top[k] for k in ("scenario", "method", "shots", "seed")})
        return cls(
            scenario=scenario,
            method=top["method"],
            context=context,
            setting=setting,
            scan=_resolve(top["scan"], _SCAN[scenario], f"{scenario} scan"),
            noise=None if noise is None else _resolve(noise, _NOISE, "noise"),
            shots=top["shots"],
            seed=top["seed"],
            out=top["out"],
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


def _sweep(cfg: ScenarioConfig, x, seqs, channel: int = SPECTATOR, noise: bool = True,
           scales=None) -> ScanResult:
    """One kernel call over the scan points: per point the population of
    ``channel``, its shot estimate and binomial error.  With ``noise`` the
    configured drift offsets the spectator channel per shot."""
    phase_noise = None
    if noise and cfg.noise is not None:
        process = DRIFT_PRESETS[cfg.noise["preset"]]()
        dt = cfg.noise["shot_interval_min"]
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
    counts = cfg.scan["n_values"]
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
    counts = cfg.scan["n_values"]
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
    points = cfg.scan["points"]
    ctx = cfg.context
    duration = 2.0 * cfg.scan["n_periods"] * ctx.t_pi_ct
    dials = np.arange(points) * (2.0 * math.pi / points)
    base = PulseSequence((ChannelPulse(TARGET, (PulseSegment(ctx.omega_0, 0.0, 0.0, duration),)),))
    seqs = (with_pcc(base, ctx, CompensationSetting(cfg.setting.f_comp, d)) for d in dials)
    return _sweep(cfg, dials, seqs)


def run_rabi_scan(cfg: ScenarioConfig) -> ScanResult:
    """Rabi flopping versus pulse duration on either channel."""
    channel = TARGET if cfg.scan["observe"] == "target" else SPECTATOR
    ctx = cfg.context
    t_max = cfg.scan["t_max_s"]
    if t_max is None:
        t_max = 2.0 * ctx.t_pi_ct if channel == SPECTATOR else 4.0 * ctx.t_pi
    times = np.linspace(0.0, t_max, cfg.scan["points"])
    seqs = []
    for t in times:
        seq = PulseSequence((ChannelPulse(TARGET, (PulseSegment(ctx.omega_0, 0.0, 0.0, t),)),))
        seqs.append(with_pcc(seq, ctx, cfg.setting) if cfg.method == "pcc" else seq)
    return _sweep(cfg, times, seqs, channel, noise=False)


def run_amplitude_scan(cfg: ScenarioConfig) -> ScanResult:
    """Target excited population after a nominal pi pulse versus drive scale."""
    scales = np.linspace(cfg.scan["scale_min"], cfg.scan["scale_max"], cfg.scan["points"])
    ctx = cfg.context
    seq, _ = pi_train(cfg.method, ctx.omega_0, 1, ctx, cfg.setting)
    return _sweep(cfg, scales, [seq] * len(scales), TARGET, noise=False,
                  scales=[float(s) for s in scales])


def run_drift_monitor(cfg: ScenarioConfig) -> ScanResult:
    """Slow differential-phase trace with a Ramsey-probe estimate per point."""
    dt = cfg.scan["dt_min"]
    process = DRIFT_PRESETS[cfg.scan["preset"]]()
    trace = sample_slow_drift(process, cfg.scan["duration_min"], dt, seed=cfg.seed)
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
    scan = cfg.scan
    if not scan["ratio_min"] <= scan["ratio_max"] <= 1.0:
        raise ConfigError("duty-cycle-sweep needs scan.ratio_min <= scan.ratio_max <= 1")
    ratios = np.geomspace(scan["ratio_min"], scan["ratio_max"], scan["points"])
    model = AomModel()
    rates = [duty_cycle_drift_rate(model, float(r), scan["mitigated"], scan["match_error"])
             for r in ratios]
    return _result(cfg, ratios, [(rate, rate, 0.0) for rate in rates])


def run_beam_profile(cfg: ScenarioConfig) -> ScanResult:
    """Focal-plane intensity cut: clipped diffraction, device map, or ideal Gaussian."""
    scan = cfg.scan
    curve, w0, wavelength, na = scan["curve"], scan["w0_um"], scan["wavelength_nm"], scan["na"]
    grid = np.linspace(scan["x_min_um"], scan["x_max_um"], scan["points"])

    if curve == "clipped":
        intensity = clipped_focus_profile(w0, wavelength, na, grid,
                                          max_refinements=scan["max_refinements"])
    elif curve == "gaussian":
        intensity = gaussian_intensity(grid, w0)
    else:
        csv_path = scan["device_csv"]
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
