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
from typing import Callable, NamedTuple

import numpy as np

from . import __version__
from .errors import ConfigError
from .field import CompensationSetting, CrosstalkContext
from .kernel import _compile, _compile_scan
from .noise import (
    AomModel,
    DRIFT_PRESETS,
    DEFAULT_MATCH_ERROR,
    duty_cycle_drift_rate,
    ramsey_phase_probe,
    sample_slow_drift,
    _drift_traces,
)
from .optics import BeamProfile, clipped_focus_profile, gaussian_intensity
from .pulses import (
    SPECTATOR,
    TARGET,
    pi_trains,
    scaled,
    with_pcc,
    _evaluate,
    _shot_plan,
    _target_drive,
    _train_table,
)
from .schema import resolve

__all__ = ["ScenarioConfig", "ScanResult", "run_scenario", "SCENARIOS"]

METHODS = ("none", "pcc", "sk1", "quad")

# The config schema (see xtalk.schema): each scenario's row in _ROWS, at the
# end of this module, holds its runner and the keys it reads, so a config sets
# only what its scenario uses.  A default of None may also leave the value to
# the runner.  CrosstalkContext and CompensationSetting check physics ranges.
_PHYSICS = {
    "omega_0_rad_per_s": (float, 2.0 * math.pi * 50e3, "> 0"),  # a 50 kHz target drive
    "f_ct": (float, 0.096, ""),
    "f_comp": (float, 1.0, ""),
    "delta_phi_rad": (float, math.pi, ""),
    "delta_ct_rad_per_s": (float, 0.0, ""),
    "pol_overlap": (float, 1.0, ""),
    "ct_phase_rad": (float, 0.0, ""),
}
_NOISE = {"preset": (tuple(DRIFT_PRESETS), None, ""), "shot_interval_min": (float, 1e-3, "> 0")}
_N_VALUES = {"n_values": (list, (1, 2, 4, 8, 16, 32), ">= 1")}
# top-level tables: every scenario, then those that sample shots, drive
# pulses and inject drift noise
_BASE = {"scenario": (str, None, ""), "scan": (dict, {}, ""), "seed": (int, 0, ""),
         "out": (str, None, "")}
_SHOTS = {**_BASE, "shots": (int, 200, ">= 1")}
_DRIVEN = {**_SHOTS, "method": (METHODS, "none", ""), "physics": (dict, {}, "")}
_NOISY = {**_DRIVEN, "noise": (dict, None, "")}
# what a scenario without these keys runs with, hashes and prints
_UNREAD = {"method": "none", "physics": {}, "noise": None, "shots": 200}
# points x shots a noisy scan may hold: each is a drift offset, its draws
# and excited population, 57 bytes at peak under tracemalloc for trains and
# one-slice scans alike (about 0.6 GB at the bound)
_NOISY_DRAWS = 10**7
# pulses an x-error or z-error scan may compile, summed over n_values: a quad
# train's table peaks at about 3.2 KB a pulse under tracemalloc (about 0.6 GB
# at the bound), the other methods' at less
_TRAIN_PULSES = 2 * 10**5


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
    def from_dict(cls, doc: dict) -> "ScenarioConfig":
        name = doc.get("scenario") if isinstance(doc, dict) else None
        if name not in SCENARIOS:
            resolve({"scenario": name}, {"scenario": (SCENARIOS, None, "")}, "config", top=True)
        row = _ROWS[name]
        top = {**_UNREAD, **resolve(doc, row.top, name, top=True)}
        phys = {key: default for key, (_, default, _) in _PHYSICS.items()}
        phys.update(resolve(top["physics"], row.physics, f"{name} physics"))
        try:
            context = CrosstalkContext(
                omega_0=phys["omega_0_rad_per_s"], f_ct=phys["f_ct"],
                delta_ct=phys["delta_ct_rad_per_s"], pol_overlap=phys["pol_overlap"],
                ct_phase=phys["ct_phase_rad"])
            setting = CompensationSetting(f_comp=phys["f_comp"], delta_phi=phys["delta_phi_rad"])
        except ValueError as exc:
            raise ConfigError(f"{name} physics: {exc}") from exc
        # the kernel squares each lit drive and detuning; a pi pulse lasts pi / omega_0
        w, ct = context.omega_0, context.f_ct * context.omega_0
        comp = setting.f_comp * ct if top["method"] == "pcc" else 0.0
        delta = context.delta_ct if ct > 0.0 else 0.0
        for key, value, rule in (
                ("omega_0_rad_per_s", w * w + math.pi / w, "omega_0^2 and pi / omega_0"),
                ("f_ct", ct * ct, "(f_ct omega_0)^2"),
                ("f_comp", comp * comp, "(f_comp f_ct omega_0)^2"),
                ("delta_ct_rad_per_s", delta * delta, "delta_ct^2")):
            if math.isinf(value):
                raise ConfigError(f"{name} physics.{key} overflows: {rule} must be finite, "
                                  f"got {phys[key]!r}")
        noise = None if top["noise"] is None else resolve(top["noise"], _NOISE, f"{name} noise")
        scan = resolve(top["scan"], row.scan, f"{name} scan")
        # before compiling the scan or drawing any drift trace
        pulses = sum(scan.get("n_values", ()))
        if pulses > _TRAIN_PULSES:
            raise ConfigError(f"{name} scan.n_values: {pulses} pulses in all exceed the "
                              f"{_TRAIN_PULSES} a scan may compile")
        # phase-scan, and rabi-scan's default spectator span, last 2 n_periods
        # crosstalk pi times, over which the kernel turns the target by omega_0
        # and frames the spectator by delta_ct
        periods = scan.get("n_periods", 0)
        if name == "rabi-scan" and scan["t_max_s"] is None and scan["observe"] == "spectator":
            periods = 1
        span = 2.0 * periods * (math.pi / ct) if ct > 0.0 else math.inf
        if periods and math.isinf(span * max(1.0, 0.5 * w, abs(delta))):
            raise ConfigError(f"{name} physics.f_ct overflows: 2 n_periods pi / (f_ct omega_0) "
                              f"times max(1, omega_0 / 2, |delta_ct|) must be finite, "
                              f"got {phys['f_ct']!r}")
        points = len(scan["n_values"]) if "n_values" in scan else scan.get("points")
        if noise is not None and points * top["shots"] > _NOISY_DRAWS:
            raise ConfigError(f"{name} shots: {points} points x {top['shots']} shots exceed "
                              f"the {_NOISY_DRAWS} drift offsets a noisy scan may hold")

        # the hash identifies the document as given, not the output path
        resolved = {k: v for k, v in doc.items() if k != "out"}
        resolved.update({k: top[k] for k in ("scenario", "method", "shots", "seed")})
        return cls(scenario=name, method=top["method"], context=context, setting=setting,
                   scan=scan, noise=noise, shots=top["shots"], seed=top["seed"], out=top["out"],
                   raw=resolved)

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


def _binomial_stderr(p, shots: int):
    return np.sqrt(np.maximum(p * (1.0 - p), 0.0) / shots)


def _sweep(cfg: ScenarioConfig, x, compiled, channel: int = SPECTATOR) -> ScanResult:
    """One kernel call over the scan points of the ``compiled`` table and
    slice counts: per point the population of ``channel``, its shot
    estimate and binomial error.  A ``noise`` block's drift offsets the
    spectator channel per shot, and only ``channel`` is sampled."""
    phase_noise = None
    if cfg.noise is not None:
        process = DRIFT_PRESETS[cfg.noise["preset"]]()
        dt = cfg.noise["shot_interval_min"]
        seeds = [(cfg.seed + 7919) * 65537 + i for i in range(len(x))]
        phase_noise = _drift_traces(process, dt * cfg.shots, dt, seeds)[:, 1:]
    plan = _shot_plan(len(x), cfg.shots, None, phase_noise)
    res = _evaluate(*compiled, cfg.context, cfg.shots, cfg.seed, *plan, ions=(channel,))
    mean = res.populations[:, channel]
    return _result(cfg, x, mean, res.sampled[:, channel], _binomial_stderr(mean, cfg.shots))


def run_x_error(cfg: ScenarioConfig) -> ScanResult:
    """Spectator excited population after N target pi pulses, from ground."""
    counts = cfg.scan["n_values"]
    table = _train_table(cfg.method, counts, cfg.context, cfg.setting)
    return _sweep(cfg, np.array(counts, dtype=float), table)


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
    close_phases = [math.pi] * len(counts)
    if cfg.method == "quad":
        # from the ground state, the final |0> amplitude is the train unitary's u[0, 0]
        trains = _evaluate(*_train_table(cfg.method, counts, ctx, cfg.setting), ctx)
        close_phases = [math.pi + -2.0 * math.atan2(u.imag, u.real)
                        for u in trains.amplitudes[:, SPECTATOR, 0]]
    table = _train_table(cfg.method, counts, ctx, cfg.setting, close_phases)
    return _sweep(cfg, np.array(counts, dtype=float), table)


def run_phase_scan(cfg: ScenarioConfig) -> ScanResult:
    """Spectator population versus compensation phase at t = 2 n crosstalk pi times."""
    points = cfg.scan["points"]
    ctx = cfg.context
    duration = 2.0 * cfg.scan["n_periods"] * ctx.t_pi_ct
    dials = np.arange(points) * (2.0 * math.pi / points)
    template = with_pcc(_target_drive(ctx.omega_0, duration), ctx,
                        CompensationSetting(cfg.setting.f_comp, 0.0))
    return _sweep(cfg, dials, _compile_scan(template, ctx, "phase", dials))


def run_rabi_scan(cfg: ScenarioConfig) -> ScanResult:
    """Rabi flopping versus pulse duration on either channel."""
    channel = TARGET if cfg.scan["observe"] == "target" else SPECTATOR
    ctx = cfg.context
    t_max = cfg.scan["t_max_s"]
    if t_max is None:
        t_max = 2.0 * ctx.t_pi_ct if channel == SPECTATOR else 4.0 * ctx.t_pi
    times = np.linspace(0.0, t_max, cfg.scan["points"])
    # each point sets the template's duration; a template of duration 0 is rejected
    template = _target_drive(ctx.omega_0, ctx.t_pi)
    if cfg.method == "pcc":
        template = with_pcc(template, ctx, cfg.setting)
    return _sweep(cfg, times, _compile_scan(template, ctx, "duration", times), channel)


def run_amplitude_scan(cfg: ScenarioConfig) -> ScanResult:
    """Target excited population after a nominal pi pulse versus drive scale."""
    scales = np.linspace(cfg.scan["scale_min"], cfg.scan["scale_max"], cfg.scan["points"])
    ctx = cfg.context
    seq, _ = pi_trains(cfg.method, ctx.omega_0, [1], ctx, cfg.setting)[0]
    return _sweep(cfg, scales, _compile([scaled(seq, float(s)) for s in scales], ctx), TARGET)


def run_drift_monitor(cfg: ScenarioConfig) -> ScanResult:
    """Slow differential-phase trace with a Ramsey-probe estimate per point."""
    dt = cfg.scan["dt_min"]
    process = DRIFT_PRESETS[cfg.scan["preset"]]()
    trace = sample_slow_drift(process, cfg.scan["duration_min"], dt, seed=cfg.seed)
    times = np.arange(len(trace)) * dt
    rows = []
    for phi, p_hat in zip(trace.tolist(), ramsey_phase_probe(trace, cfg.shots, cfg.seed).tolist()):
        phi_hat = math.acos(min(max(1.0 - 2.0 * p_hat, -1.0), 1.0))
        sigma_p = _binomial_stderr(p_hat, cfg.shots)
        slope = 2.0 / max(math.sin(phi_hat), 1e-3)
        rows.append((phi, phi_hat, slope * sigma_p))
    return _result(cfg, times, *np.array(rows).T)


def run_duty_cycle_sweep(cfg: ScenarioConfig) -> ScanResult:
    """Steady thermal phase drift rate versus duty-cycle ratio."""
    scan = cfg.scan
    if not scan["ratio_min"] <= scan["ratio_max"] <= 1.0:
        raise ConfigError("duty-cycle-sweep needs scan.ratio_min <= scan.ratio_max <= 1")
    ratios = np.geomspace(scan["ratio_min"], scan["ratio_max"], scan["points"])
    model = AomModel()
    rates = np.array([duty_cycle_drift_rate(model, float(r), scan["mitigated"],
                                            scan["match_error"]) for r in ratios])
    return _result(cfg, ratios, rates, rates, np.zeros(len(rates)))


def run_beam_profile(cfg: ScenarioConfig) -> ScanResult:
    """Focal-plane intensity cut: clipped diffraction, device map, or ideal Gaussian."""
    scan = cfg.scan
    curve, w0 = scan["curve"], scan["w0_um"]
    grid = np.linspace(scan["x_min_um"], scan["x_max_um"], scan["points"])

    if curve == "clipped":
        intensity = clipped_focus_profile(w0, scan["wavelength_nm"], scan["na"], grid,
                                          max_refinements=scan["max_refinements"])
    elif curve == "gaussian":
        intensity = gaussian_intensity(grid, w0)
    else:
        csv_path = scan["device_csv"]
        profile = BeamProfile.from_csv(csv_path) if csv_path else BeamProfile.default(w0)
        intensity = np.array([profile.device_field(float(x)) for x in grid]) ** 2

    return _result(cfg, grid, intensity, intensity, np.zeros(len(intensity)))


def _result(cfg: ScenarioConfig, x, mean, sampled, err) -> ScanResult:
    meta = {
        "scenario": cfg.scenario,
        "method": cfg.method,
        "seed": cfg.seed,
        "config_hash": cfg.config_hash(),
        "build": _build_describe(),
    }
    return ScanResult(x=x, value_mean=mean, value_sampled=sampled, stderr=err, metadata=meta)


class _Row(NamedTuple):
    """One scenario: its runner and the keys it reads, top level, scan and physics."""

    run: Callable[[ScenarioConfig], ScanResult]
    top: dict
    scan: dict
    physics: dict = _PHYSICS


_ROWS = {
    "x-error": _Row(run_x_error, _NOISY, _N_VALUES),
    "z-error": _Row(run_z_error, _NOISY, _N_VALUES),
    # always pcc; the dial scan sets the compensation phase
    "phase-scan": _Row(
        run_phase_scan, {**_NOISY, "method": (("pcc",), "pcc", "")},
        {"points": (int, 40, ">= 2"), "n_periods": (int, 1, ">= 1")},
        {k: v for k, v in _PHYSICS.items() if k != "delta_phi_rad"}),
    "rabi-scan": _Row(run_rabi_scan, {**_DRIVEN, "method": (("none", "pcc"), "none", "")}, {
        "t_max_s": (float, None, ">= 0"),  # None: two spectator or four target pi times
        "points": (int, 81, ">= 1"),
        "observe": (("target", "spectator"), "spectator", ""),
    }),
    # observes the target, which the crosstalk detuning never reaches
    "amplitude-scan": _Row(run_amplitude_scan, _DRIVEN, {
        "scale_min": (float, 0.0, ">= 0"),
        "scale_max": (float, 1.5, ">= 0"),
        "points": (int, 61, ">= 1"),
    }, {k: v for k, v in _PHYSICS.items() if k != "delta_ct_rad_per_s"}),
    "drift-monitor": _Row(run_drift_monitor, _SHOTS, {
        "preset": (tuple(DRIFT_PRESETS), "enclosed", ""),
        "duration_min": (float, 8.0, ">= 0"),
        "dt_min": (float, 0.1, "> 0"),
    }),
    "duty-cycle-sweep": _Row(run_duty_cycle_sweep, _BASE, {
        "ratio_min": (float, 1e-3, "> 0"),
        "ratio_max": (float, 1.0, "> 0"),
        "points": (int, 13, ">= 1"),
        "mitigated": (bool, False, ""),
        "match_error": (float, DEFAULT_MATCH_ERROR, "> -1"),  # -1 drives no power
    }),
    "beam-profile": _Row(run_beam_profile, _BASE, {
        "x_min_um": (float, -10.0, ""),
        "x_max_um": (float, 10.0, ""),
        "points": (int, 401, ">= 1"),
        "curve": (("clipped", "device", "gaussian"), "clipped", ""),
        "w0_um": (float, 1.6, "> 0"),
        "wavelength_nm": (float, 729.0, "> 0"),
        "na": (float, 0.35, "> 0"),
        "device_csv": (str, None, ""),
        "max_refinements": (int, 12, ">= 0"),
    }),
}
SCENARIOS = tuple(_ROWS)


def run_scenario(cfg: ScenarioConfig) -> ScanResult:
    """Dispatch a validated configuration to its scenario runner."""
    return _ROWS[cfg.scenario].run(cfg)
