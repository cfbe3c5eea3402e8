"""Outside-in tracer: times calls into xtalk's modules without editing them.

Each traced function is replaced by a timing wrapper under every name a
caller looks it up by: the defining module's attribute and every alias that
another ``xtalk`` module imported (``from .pulses import simulate`` binds its
own name in ``xtalk.scenarios``, so patching only ``xtalk.pulses`` would miss
those calls).  Spans nest; a span's self time is its duration minus the
durations of the spans it directly contains.  Everything is aggregated in
memory per unit and handed back to the caller, which writes it at the end.
"""

from __future__ import annotations

import subprocess
import sys
from time import perf_counter_ns

LAYERS = ("cli", "scenarios", "pulses", "dynamics", "field", "noise", "optics",
          "fitting", "calibrate")

# (defining module, attribute path) per traced function; its layer is the
# module.  A name missing at some later commit is skipped and reported.
TARGETS = (
    ("xtalk.cli", "main"),
    ("xtalk.scenarios", "run_scenario"),
    ("xtalk.scenarios", "ScenarioConfig.from_dict"),
    ("xtalk.scenarios", "ScanResult.to_csv"),
    ("xtalk.pulses", "pi_train"),
    ("xtalk.pulses", "with_pcc"),
    ("xtalk.pulses", "concat"),
    ("xtalk.pulses", "ramsey_wrap"),
    ("xtalk.pulses", "simulate"),
    ("xtalk.pulses", "sequence_unitaries"),
    ("xtalk.dynamics", "frame_segment_unitary"),
    ("xtalk.field", "effective_magnitude"),
    ("xtalk.field", "effective_magnitude_polarized"),
    ("xtalk.noise", "sample_slow_drift"),
    ("xtalk.optics", "clipped_focus_profile"),
    ("xtalk.optics", "BeamProfile.device_field"),
    ("xtalk.fitting", "gauss_newton"),
    ("xtalk.calibrate", "run_full_calibration"),
    ("xtalk.calibrate", "measure_pi_time"),
    ("xtalk.calibrate", "calibrate_amplitude"),
    ("xtalk.calibrate", "_fit_flop_half_period"),
    ("xtalk.calibrate", "_phase_scan_fit"),
)

BUILD_SPANS = ("pulses.pi_train", "pulses.with_pcc", "pulses.concat", "pulses.ramsey_wrap")


class Stat:
    """Per-span-name aggregate: calls, total and self nanoseconds, errors."""

    __slots__ = ("calls", "total_ns", "self_ns", "errors")

    def __init__(self):
        self.calls = 0
        self.total_ns = 0
        self.self_ns = 0
        self.errors = 0


class Tracer:
    """Collects span aggregates for one unit at a time.

    ``install`` patches the targets, ``uninstall`` restores every patched
    attribute.  Between ``begin_unit`` and ``end_unit`` the tracer keeps, per
    span name, its aggregate plus per-layer totals (outermost spans of a
    layer only) and the counters the per-layer metrics need.
    """

    def __init__(self):
        self._patches = []
        self.missing = []
        self.begin_unit()

    # -- per-unit state -------------------------------------------------
    def begin_unit(self):
        self.stats = {}
        self.layer_total_ns = dict.fromkeys(LAYERS, 0)
        self.top_ns = 0
        self.counters = {"residual_evals": 0, "iterations": 0, "fits": 0,
                         "converged": 0, "segments": 0, "csv_bytes": 0,
                         "build_ns": 0}
        self._stack = []
        self._depth = dict.fromkeys(LAYERS, 0)
        self._last_exc = None

    def end_unit(self) -> dict:
        out = {
            "stats": {k: (s.calls, s.total_ns, s.self_ns, s.errors)
                      for k, s in self.stats.items()},
            "layer_total_ns": self.layer_total_ns,
            "top_ns": self.top_ns,
            "counters": self.counters,
        }
        self.begin_unit()
        return out

    # -- spans ------------------------------------------------------------
    def _stat(self, name):
        st = self.stats.get(name)
        if st is None:
            st = self.stats[name] = Stat()
        return st

    def wrap(self, fn, name, on_return=None):
        layer = name.split(".", 1)[0]
        stat_of = self._stat
        tracer = self

        def traced(*args, **kwargs):
            stack = tracer._stack
            depth = tracer._depth
            frame = [0]  # nanoseconds spent in direct child spans
            stack.append(frame)
            depth[layer] += 1
            t0 = perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                if exc is not tracer._last_exc:
                    tracer._last_exc = exc
                    stat_of(name).errors += 1
                raise
            finally:
                dt = perf_counter_ns() - t0
                stack.pop()
                depth[layer] -= 1
                st = stat_of(name)
                st.calls += 1
                st.total_ns += dt
                st.self_ns += dt - frame[0]
                if not depth[layer]:  # outermost span of its layer
                    tracer.layer_total_ns[layer] += dt
                if stack:
                    stack[-1][0] += dt
                else:
                    tracer.top_ns += dt
            if on_return is not None:
                on_return(result, dt, not depth[layer])
            return result

        return traced

    # -- hooks for counters -----------------------------------------------
    def _count_build(self, result, dt, outermost):
        # a nested build (concat inside pi_train) is part of its caller's
        if not outermost:
            return
        seq = result[0] if isinstance(result, tuple) else result
        self.counters["segments"] += sum(len(cp.segments) for cp in seq.channels)
        self.counters["build_ns"] += dt

    def _count_csv(self, result, dt, outermost):
        self.counters["csv_bytes"] += len(result.encode("utf-8"))

    def _count_fit(self, result, dt, outermost):
        self.counters["fits"] += 1
        self.counters["iterations"] += int(result.iterations)
        self.counters["converged"] += bool(result.converged)

    def _wrap_gauss_newton(self, fn):
        inner = self.wrap(fn, "fitting.gauss_newton", self._count_fit)
        tracer = self

        def gauss_newton(residual_fn, *args, **kwargs):
            layer = (getattr(residual_fn, "__module__", None) or "").split(".")[-1]
            if layer not in LAYERS:
                layer = "fitting"
            traced_residual = tracer.wrap(residual_fn, f"{layer}.residual",
                                          tracer._count_residual)
            return inner(traced_residual, *args, **kwargs)

        return gauss_newton

    def _count_residual(self, result, dt, outermost):
        self.counters["residual_evals"] += 1

    # -- patching ---------------------------------------------------------
    def install(self):
        self.missing = []
        modules = [m for n, m in sorted(sys.modules.items())
                   if m is not None and (n == "xtalk" or n.startswith("xtalk."))]
        for modname, path in TARGETS:
            mod = sys.modules.get(modname)
            if mod is None:  # module not loaded by this process
                continue
            layer = modname.split(".")[-1]
            owner_name, _, attr = path.rpartition(".")
            owner = getattr(mod, owner_name, None) if owner_name else mod
            raw = vars(owner).get(attr) if owner is not None else None
            if raw is None:
                self.missing.append(f"{modname}.{path}")
                continue
            name = f"{layer}.{attr.lstrip('_')}"
            if isinstance(raw, classmethod):
                wrapped = classmethod(self.wrap(raw.__func__, name))
                self._patch(owner, attr, raw, wrapped)
                continue
            if attr == "gauss_newton":
                wrapped = self._wrap_gauss_newton(raw)
            elif name in BUILD_SPANS:
                wrapped = self.wrap(raw, name, self._count_build)
            elif name == "scenarios.to_csv":
                wrapped = self.wrap(raw, name, self._count_csv)
            else:
                wrapped = self.wrap(raw, name)
            if owner is not mod:  # a method: one class dict entry
                self._patch(owner, attr, raw, wrapped)
                continue
            for m in modules:
                for alias, value in list(vars(m).items()):
                    if value is raw:
                        self._patch(m, alias, raw, wrapped)
        # every git (or other) subprocess the program spawns per run
        self._patch(subprocess, "run", subprocess.run,
                    self.wrap(subprocess.run, "scenarios.subprocess"))

    def _patch(self, owner, attr, old, new):
        setattr(owner, attr, new)
        self._patches.append((owner, attr, old))

    def uninstall(self):
        for owner, attr, old in reversed(self._patches):
            setattr(owner, attr, old)
        self._patches.clear()


def import_ms(stderr: str) -> dict:
    """Cumulative import times of numpy and of the xtalk modules from -X importtime."""
    numpy_us = xtalk_us = 0
    for line in stderr.splitlines():
        if not line.startswith("import time:"):
            continue
        parts = line[len("import time:"):].split("|")
        if len(parts) != 3 or not parts[1].strip().isdigit():
            continue
        cumulative, name = int(parts[1]), parts[2]
        depth = len(name) - len(name.lstrip())
        name = name.strip()
        if name == "numpy":
            numpy_us = cumulative
        if depth == 1 and (name == "xtalk" or name.startswith("xtalk.")):
            xtalk_us += cumulative
    return {"numpy": numpy_us / 1e3, "xtalk": xtalk_us / 1e3}
