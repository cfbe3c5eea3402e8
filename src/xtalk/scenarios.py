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
from typing import Callable, NamedTuple

import numpy as np

from . import __version__
from .errors import ConfigError
from .field import CompensationSetting, CrosstalkContext
from .kernel import _compile, _compile_scan
from .noise import (AomModel, DRIFT_PRESETS, DEFAULT_MATCH_ERROR, duty_cycle_drift_rate,
                    ramsey_phase_probe, sample_slow_drift, _drift_traces)
from .optics import BeamProfile, clipped_focus_profile, gaussian_intensity
from .pulses import (SPECTATOR, TARGET, pi_trains, scaled, with_pcc, _evaluate, _target_drive,
                     _train_table)
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
# Per quantity of a config's plan (_plan): its bound and message.  A size bound
# holds a tracemalloc peak near 0.6 GB (40 B a noisy point-shot; 3.2 KB a quad
# pulse; a sample its _SAMPLE_BYTES).  Past 2**42 rad an angle's float64
# spacing exceeds 1e-3 rad: a read channel keeps no digit.
_NOISY_DRAWS = 10**7
_TRAIN_PULSES = 2 * 10**5
_BOUNDS = {
    "shots": (2**63 - 1, "{value} shots exceed the {bound} numpy can count"),
    "pulses": (_TRAIN_PULSES, "{value} pulses in all exceed the {bound} a scan may compile"),
    "draws": (_NOISY_DRAWS, "{what} shots exceed the {bound} drift offsets a noisy scan may hold"),
    "samples": (6 * 10**8, "{what} exceed the 0.6 GB a scan may hold"),
    "rate": (sys.float_info.max, "({what})^2 must be finite, got {value!r}"),
    "span": (sys.float_info.max, "{what} must be finite, got {value!r}"),
    "angle": (2.0**42, "{what} is {value:.3g} rad, past 2^42 rad: float64 spacing > 1e-3 rad"),
}
# peak bytes a point or drift step may take; target pi times per method's pi pulse
_SAMPLE_BYTES = {"phase-scan": 1500, "rabi-scan": 1500, "amplitude-scan": 5000,
                 "drift-monitor": 1100, "duty-cycle-sweep": 300, "beam-profile": 20000}
_PI_TIMES = {"none": 1, "pcc": 1, "sk1": 5, "quad": 4}
_OMEGA = "physics.omega_0_rad_per_s"


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
        noise = None if top["noise"] is None else resolve(top["noise"], _NOISE, f"{name} noise")
        scan = resolve(top["scan"], row.scan, f"{name} scan")
        # every bound, before any table, trace or grid is built
        for quantity, value, keys, what in _plan(name, top, scan, noise, context, setting):
            bound, text = _BOUNDS[quantity]
            if not value <= bound:
                raise ConfigError(f"{name} {', '.join(dict.fromkeys(keys))}: "
                                  + text.format(value=value, bound=bound, what=what))

        # the hash identifies the document as given, not the output path
        resolved = {k: v for k, v in doc.items() if k != "out"}
        resolved.update({k: top[k] for k in ("scenario", "method", "shots", "seed")})
        return cls(scenario=name, method=top["method"], context=context, setting=setting,
                   scan=scan, noise=noise, shots=top["shots"], seed=top["seed"], out=top["out"],
                   raw=resolved)

    def config_hash(self) -> str:
        canonical = json.dumps(self.raw, sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


def _plan(name: str, top: dict, scan: dict, noise, ctx: CrosstalkContext, setting):
    """What a config asks of the host and the kernel, as (quantity, value, keys,
    what) entries for ``_BOUNDS``, sizes first.  A lit drive or detuning is a
    ``rate``; its half angle or Z-frame angle over the longest point is an
    ``angle`` if the scan reads its channel, else a ``span``."""
    shots, counts, points = top["shots"], scan.get("n_values"), scan.get("points")
    yield "shots", shots, ("shots",), ""
    if counts is not None:
        points = len(counts)
        yield "pulses", sum(counts), ("scan.n_values",), ""
    if noise is not None:
        yield "draws", points * shots, ("shots",), f"{points} points x {shots}"
        yield ("span", noise["shot_interval_min"] * shots, ("noise.shot_interval_min", "shots"),
               "the drift trace's shot_interval_min times shots")
    count, keys = min(points or 0, 2**64), ("scan.points",)  # past 2**64 any count fails alike
    if name == "drift-monitor":
        count, keys = scan["duration_min"] / scan["dt_min"], ("scan.duration_min", "scan.dt_min")
    if size := _SAMPLE_BYTES.get(name):
        yield "samples", count * size, keys, f"{count:.3g} samples of {size} B"
    if scan.get("curve") == "clipped":  # phases 2 pi x s / wavelength, s within the pupil
        lam, far = scan["wavelength_nm"] * 1e-3, max(abs(scan["x_min_um"]), abs(scan["x_max_um"]))
        phase = far * min(scan["na"], 6.0 * lam / (math.pi * scan["w0_um"])) * 2.0 * math.pi
        yield ("angle", phase / lam if lam else math.inf,
               ("scan.wavelength_nm", "scan.x_min_um", "scan.x_max_um"), "the diffraction phase")
    if "method" not in _ROWS[name].top:
        return
    w, ct, method = ctx.omega_0, ctx.f_ct * ctx.omega_0, top["method"]
    comp = setting.f_comp * ct if method == "pcc" else 0.0
    scale, scaled, target = 1.0, (), name == "amplitude-scan" or scan.get("observe") == "target"
    pi_t, cross = math.pi / w, 2.0 * math.pi / ct if ct else math.inf  # two crosstalk pi times
    # the longest point's duration, and the keys that set it
    if counts is not None:
        span = ((_PI_TIMES[method] * max(counts) + (name == "z-error")) * pi_t,
                (_OMEGA, "scan.n_values"))
    elif name == "phase-scan":  # past 2**64 periods every spectator angle fails alike
        span = min(scan["n_periods"], 2**64) * cross, ("physics.f_ct", "scan.n_periods")
    elif name == "amplitude-scan":
        scale, scaled = max(scan["scale_min"], scan["scale_max"]), ("scan.scale_max",
                                                                    "scan.scale_min")
        span = _PI_TIMES[method] * pi_t, (_OMEGA,)
    elif scan["t_max_s"] is not None:  # rabi-scan, whose template lasts a pi time
        span = max((scan["t_max_s"], ("scan.t_max_s",)), (pi_t, (_OMEGA,)))
    else:
        span = (4.0 * pi_t, (_OMEGA,)) if target else (cross, ("physics.f_ct",))
    for rate, half, key, what, on_target in (
            (w, 0.5, _OMEGA, "omega_0", True), (ct, 0.5, "physics.f_ct", "f_ct omega_0", False),
            (comp, 0.5, "physics.f_comp", "f_comp f_ct omega_0", False),
            (abs(ctx.delta_ct) if ct > 0.0 else 0.0, 1.0, "physics.delta_ct_rad_per_s",
             "delta_ct", False)):
        yield "rate", rate * scale * (rate * scale), (key, *scaled), what
        yield ("angle" if on_target == target else "span", half * rate * scale * span[0],
               (*span[1], *scaled, key), f"{what}{' / 2' * (half < 1.0)} times {span[0]:.3g} s")


@functools.cache
def _build_describe() -> str:
    """Build id from ``git describe``, spawned once per process."""
    try:
        out = subprocess.run(["git", "describe", "--always", "--dirty"],
                             cwd=Path(__file__).resolve().parent, capture_output=True, text=True,
                             timeout=5.0, check=False)
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
    offsets = None
    if cfg.noise is not None:
        process = DRIFT_PRESETS[cfg.noise["preset"]]()
        dt = cfg.noise["shot_interval_min"]
        seeds = [(cfg.seed + 7919) * 65537 + i for i in range(len(x))]
        offsets = _drift_traces(process, dt * cfg.shots, dt, seeds)[:, 1:]
    res = _evaluate(*compiled, cfg.context, cfg.shots, cfg.seed, offsets, ion=channel)
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
    meta = {"scenario": cfg.scenario, "method": cfg.method, "seed": cfg.seed,
            "config_hash": cfg.config_hash(), "build": _build_describe()}
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
        "points": (int, 81, ">= 1"), "observe": (("target", "spectator"), "spectator", "")}),
    # observes the target, which the crosstalk detuning never reaches
    "amplitude-scan": _Row(run_amplitude_scan, _DRIVEN, {
        "scale_min": (float, 0.0, ">= 0"), "scale_max": (float, 1.5, ">= 0"),
        "points": (int, 61, ">= 1"),
    }, {k: v for k, v in _PHYSICS.items() if k != "delta_ct_rad_per_s"}),
    "drift-monitor": _Row(run_drift_monitor, _SHOTS, {
        "preset": (tuple(DRIFT_PRESETS), "enclosed", ""),
        "duration_min": (float, 8.0, ">= 0"), "dt_min": (float, 0.1, "> 0")}),
    "duty-cycle-sweep": _Row(run_duty_cycle_sweep, _BASE, {
        "ratio_min": (float, 1e-3, "> 0"), "ratio_max": (float, 1.0, "> 0"),
        "points": (int, 13, ">= 1"), "mitigated": (bool, False, ""),
        "match_error": (float, DEFAULT_MATCH_ERROR, "> -1")}),  # -1 drives no power
    "beam-profile": _Row(run_beam_profile, _BASE, {
        "x_min_um": (float, -10.0, ""), "x_max_um": (float, 10.0, ""), "points": (int, 401, ">= 1"),
        "curve": (("clipped", "device", "gaussian"), "clipped", ""),
        "w0_um": (float, 1.6, "> 0"), "wavelength_nm": (float, 729.0, "> 0"),
        "na": (float, 0.35, "> 0"), "device_csv": (str, None, ""),
        "max_refinements": (int, 12, ">= 0")}),
}
SCENARIOS = tuple(_ROWS)


def run_scenario(cfg: ScenarioConfig) -> ScanResult:
    """Dispatch a validated configuration to its scenario runner."""
    return _ROWS[cfg.scenario].run(cfg)
