"""The public API: the names ``xtalk`` exports, the optional parameters of
every public callable, the README's quick start and API references, and
that every definition and class member in the package reaches an output."""

import ast
import functools
import importlib
import inspect
import re
import shutil
import types
from pathlib import Path

import xtalk

README = Path(__file__).resolve().parents[1] / "README.md"

# removing a name from the public API is deliberate: change this list and
# say so in CHANGES.md
PUBLIC_NAMES = [
    "AomModel", "BeamProfile", "CalibrationResult", "ChannelConflictError",
    "ChannelPulse", "CompensationSetting", "ConfigError", "CrosstalkContext",
    "DegenerateFitError", "DriftProcess", "DutyCycleState",
    "FitFailureError", "LowSignalError", "NumericalFailureError",
    "OutOfRangeError", "PulseSegment", "PulseSequence", "QubitState", "SPECTATOR",
    "ScanResult", "ScenarioConfig", "SimulationResult", "TARGET", "XtalkError",
    "amplitude_tolerance",
    "calibrate_amplitude", "calibrate_phase", "calibrate_stark_shift",
    "clipped_focus_profile", "concat", "duty_cycle_drift_rate",
    "effective_magnitude", "focal_field",
    "gaussian_intensity", "load_device_map_csv",
    "matched_drive_power", "measure_pi_time", "phase_tolerance",
    "pi_pulse_error", "pi_trains", "quad_frame_step", "quadrilateral", "ramsey_phase_probe",
    "ramsey_wrap", "recalibration_interval", "relative_error", "rf_absorption",
    "rotation_error", "rotation_unitary", "run_full_calibration", "run_scenario",
    "sample_slow_drift", "save_result", "scaled", "simulate_scan", "sk1", "square_pi",
    "step_duty_cycle", "with_pcc",
]


# every parameter with a default, per function, class and public method in
# the modules' __all__: adding a knob is deliberate too, so it changes this
# table; a parameter no caller sets is a constant instead
OPTIONAL_PARAMETERS = {
    "calibrate.measure_pi_time": ["shots", "seed", "fits"],
    "calibrate.calibrate_amplitude": ["shots", "seed", "bracket", "fits"],
    "calibrate.calibrate_phase": ["n_periods", "shots", "seed", "points"],
    "calibrate.calibrate_stark_shift": ["shots", "seed"],
    "calibrate.run_full_calibration": ["shots", "seed", "include_stark", "timestamp"],
    "calibrate.save_result": ["diagnostics"],
    "field.CrosstalkContext": ["delta_ct", "pol_overlap", "ct_phase", "stark_shift"],
    "field.effective_magnitude_polarized": ["pol_overlap"],
    "field.pi_pulse_error": ["f_comp", "delta_phi"],
    "fitting.FitResult": ["residual_trace"],
    "noise.DriftProcess": ["walk_window"],
    "noise.AomModel": ["center_mhz", "absorption_width_mhz", "thermal_coeff", "thermal_tau",
                       "max_rf_power"],
    "noise.DutyCycleState": ["filtered_power", "phase"],
    "noise.sample_slow_drift": ["seed"],
    "noise.duty_cycle_drift_rate": ["mitigated", "match_error"],
    "noise.ramsey_phase_probe": ["seed"],
    "optics.BeamProfile.default": ["waist_um"],
    "optics.focal_field": ["max_refinements"],
    "optics.clipped_focus_profile": ["max_refinements"],
    "pulses.PulseSegment": ["detuning", "duration"],
    "pulses.SimulationResult": ["sampled"],
    "pulses.square_pi": ["phase"],
    "pulses.pi_trains": ["ctx", "setting", "phase"],
    "pulses.ramsey_wrap": ["close_phase"],
    "pulses.simulate_scan": ["shots", "seed"],
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


def _quick_start() -> str:
    text = README.read_text(encoding="utf-8")
    quick_start = text[text.index("## Library quick start"):]
    return re.search(r"```python\n(.*?)```", quick_start, re.S).group(1)


def test_readme_quick_start_runs(capsys):
    exec(compile(_quick_start(), f"{README}:quick start", "exec"), {})
    printed = capsys.readouterr().out
    # the spectator's population after 1, 2 and 4 compensated pi pulses
    values = [float(v) for v in printed.strip(" []\n").split()]
    assert len(values) == 3 and all(0.0 <= v < 1e-3 for v in values)


def test_readme_api_references_resolve():
    text = README.read_text(encoding="utf-8")
    refs = sorted(set(re.findall(r"xtalk\.(\w+)\.(\w+)", text)))
    missing = [f"xtalk.{m}.{n}" for m, n in refs
               if not hasattr(importlib.import_module(f"xtalk.{m}"), n)]
    assert refs and not missing


SRC = Path(xtalk.__file__).parent
ACCEPTANCE = Path(__file__).with_name("test_acceptance.py")
# the definitions that no output reaches, each kept for what a test measures
KEPT = {
    "pulses.ramsey_wrap": "the unrolled reference TestTrainScans compares _train_table to",
    "calibrate.calibrate_phase": "the one-stage phase calibrator test_calibrate measures",
    "calibrate.save_result": "the calibration chain's only file output",
}


def _imports(tree) -> dict:
    """``{alias: "module.name"}`` of the ``from xtalk...`` and relative imports
    in ``tree``; the package itself is the module ``__init__``."""
    out = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (node.level or node.module.startswith("xtalk.")
                                                 or node.module == "xtalk"):
            module = (node.module or "").removeprefix("xtalk").strip(".") or "__init__"
            out.update({a.asname or a.name: f"{module}.{a.name}" for a in node.names})
    return out


def _targets(node) -> list:
    """The names an assignment binds."""
    targets = getattr(node, "targets", [getattr(node, "target", None)])
    return [n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)]


def _reads(nodes, scope, members) -> set:
    """The labels ``nodes`` read: each loaded name through ``scope``, and
    each loaded attribute as every class member of that name."""
    out = set()
    for node in (n for top in nodes for n in ast.walk(top)):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            out.add(scope(node.id))
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            out |= members.get(node.attr, set())
    return out - {None}


def _walk(src: Path):
    """``(definitions, roots, reach)`` for the package in ``src``.

    ``definitions`` labels every top-level def, class and assignment and
    every class member: method, property, classmethod and field.  ``roots``
    are the outputs: the CLI, the calibration chain, and what the acceptance
    tests and the README's quick start import or read as attributes.
    ``reach`` maps labels to every label they reach.  A class reads its
    decorators, bases, fields and dunder methods, which Python calls for it;
    a member is reached when a reached definition reads its name as an
    attribute."""
    scopes, bodies, members = {}, {}, {}  # per module what each name stands for
    for path in sorted(src.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        scope = scopes[path.stem] = _imports(tree)
        for node in tree.body if path.stem != "__init__" else ():
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                names = [node.name]
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                names = _targets(node)
            else:
                continue
            own = [node]
            if isinstance(node, ast.ClassDef):
                own = [*node.decorator_list, *node.bases, *node.keywords]
                for item in node.body:
                    if isinstance(item, ast.FunctionDef) and not item.name.startswith("__"):
                        member = [item.name]
                    else:
                        own.append(item)
                        member = _targets(item) if isinstance(item, ast.AnnAssign) else []
                    for name in member:
                        label = f"{path.stem}.{node.name}.{name}"
                        bodies[label] = (path.stem, [item])
                        members.setdefault(name, set()).add(label)
            for name in names:
                if not name.startswith("__"):  # __all__, read by the import system
                    scope[name] = f"{path.stem}.{name}"
                    bodies[scope[name]] = (path.stem, own)

    def where(module, name):  # the definition a name stands for, through re-exports
        label = scopes[module].get(name)
        while label is not None and label not in bodies:
            label = scopes[label.split(".")[0]].get(label.split(".")[1])
        return label

    reads = {label: _reads(nodes, functools.partial(where, module), members)
             for label, (module, nodes) in bodies.items()}

    def reach(labels):
        seen, todo = set(), list(labels)
        while todo:
            label = todo.pop()
            if label not in seen:
                seen.add(label)
                todo.extend(reads[label])
        return seen

    outputs = [ast.parse(ACCEPTANCE.read_text(encoding="utf-8")), ast.parse(_quick_start())]
    imported = [label for tree in outputs for label in _imports(tree).values()]
    roots = ["cli.main", "calibrate.run_full_calibration",
             *(where(*label.split(".")) for label in imported),
             *_reads(outputs, lambda name: None, members)]
    assert None not in roots
    return bodies.keys(), roots, reach


def test_every_definition_reaches_an_output():
    """Every top-level definition and class member of ``src/xtalk`` is
    reached from an output, through the names and attributes each reached
    definition reads, or is one of ``KEPT``."""
    definitions, roots, reach = _walk(SRC)
    assert KEPT.keys() <= definitions
    assert not KEPT.keys() & reach(roots), "a kept definition is reached: drop it from KEPT"
    orphans = sorted(definitions - reach(roots + list(KEPT)))
    assert not orphans, f"reached from no output: {orphans}"


def _add_to_class(path: Path, cls: str, lines: list) -> None:
    """Append ``lines``, indented, to the body of class ``cls`` in ``path``."""
    text = path.read_text(encoding="utf-8").splitlines()
    node = next(n for n in ast.parse("\n".join(text)).body
                if isinstance(n, ast.ClassDef) and n.name == cls)
    text[node.end_lineno:node.end_lineno] = ["    " + line for line in lines]
    path.write_text("\n".join(text) + "\n", encoding="utf-8")


def test_the_walk_finds_an_unused_method_and_an_unread_field(tmp_path):
    src = tmp_path / "xtalk"
    shutil.copytree(SRC, src, ignore=shutil.ignore_patterns("__pycache__"))
    _add_to_class(src / "optics.py", "BeamProfile",
                  ["def unused_method(self):", "    return self.grid_um"])
    _add_to_class(src / "fitting.py", "FitResult", ["unread_field: float = 0.0"])
    definitions, roots, reach = _walk(src)
    assert sorted(definitions - reach(roots + list(KEPT))) == [
        "fitting.FitResult.unread_field", "optics.BeamProfile.unused_method"]
