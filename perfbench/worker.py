"""One benchmark process: set up a workload, then run timed units or traced
passes, and print one JSON record as the last line of standard output.

``run.py`` starts it as

    python3 perfbench/worker.py <workload> <seed> <stream> <budget_s> <trace>

with ``PYTHONPATH=<checkout>/src``.  Set-up (interpreter, ``import xtalk``,
inputs, one warm-up unit) ends at ``ready_ns`` on the system-wide monotonic
clock, which the parent compares with its own clock at spawn time.
"""

import sys

import xtalk  # first, so that -X importtime sees the package import on its own

import json
import os
import resource
import tempfile
import time
from pathlib import Path

from tracer import Tracer, import_ms
from workloads import GOLDEN_EVERY, WORKLOADS, CheckFailed, TargetMissed

ROOT = Path(__file__).resolve().parents[1]
HERE = Path(__file__).resolve().parent
MAX_NOTES = 5


def assert_checkout_package() -> None:
    src = (ROOT / "src").resolve()
    if src not in Path(xtalk.__file__).resolve().parents:
        raise SystemExit(f"xtalk imported from {xtalk.__file__}, not from {src}")


def classify(exc: BaseException) -> str:
    if isinstance(exc, CheckFailed):
        return "wrong"
    if isinstance(exc, TargetMissed):
        return "miss"
    return "error"


class Runner:
    def __init__(self, wl):
        self.wl = wl
        self.notes = []

    def unit(self, spec, run=None):
        """Run and check one unit; returns (wall_ns, status, output)."""
        run = run or self.wl.run
        out = None
        t0 = time.perf_counter_ns()
        try:
            out = run(spec)
            status = "ok"
        except Exception as exc:  # a failed unit is counted, the run goes on
            status, msg = "error", f"{type(exc).__name__}: {exc}"
        wall = time.perf_counter_ns() - t0
        if status == "ok":
            try:
                self.wl.check(spec, out)
            except Exception as exc:
                status, msg = classify(exc), f"{type(exc).__name__}: {exc}"
        if status != "ok" and len(self.notes) < MAX_NOTES:
            self.notes.append(msg[:400])
        return wall, status, out


def cpu_s() -> float:
    total = 0.0
    for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN):
        ru = resource.getrusage(who)
        total += ru.ru_utime + ru.ru_stime
    return total


def timed(runner, stream, budget_s):
    units = []
    fixed = runner.wl.fixed_units(budget_s)
    cpu0 = cpu_s()
    start = time.monotonic_ns()
    k = 0
    while not units or (len(units) < fixed if fixed else
                        time.monotonic_ns() - start < budget_s * 1e9):
        wall, status, _ = runner.unit(runner.wl.spec(stream, k))
        units.append((wall, status))
        k += 1
    return {"units": units, "loop_ns": time.monotonic_ns() - start, "cpu_s": cpu_s() - cpu0}


def cli_traced_unit(wl, spec, records):
    """One CLI process under the tracer bootstrap; its record goes to ``records``."""
    trace_file = wl.tmp / f"trace-{os.getpid()}-{time.monotonic_ns()}.json"
    prefix = ["-X", "importtime", str(HERE / "trace_child.py"), str(trace_file)]
    code, stderr, csv = wl.run(spec, prefix=prefix)
    try:
        rec = json.loads(trace_file.read_text(encoding="utf-8"))
        trace_file.unlink()
    except (OSError, ValueError):
        rec = None
    if rec is not None:
        add_import_span(rec, import_ms(stderr))
        records.append(rec)
    return code, stderr, csv


def traced(runner, budget_s):
    wl = runner.wl
    specs = [wl.spec("trace", k) for k in range(wl.trace_units)]
    tracer = Tracer()
    passes = []
    # an untraced and a traced pass of the fixed units take about two units' time
    fixed = wl.fixed_units(budget_s)
    pairs = fixed and max(1, fixed // (2 * len(specs)))
    start = time.monotonic_ns()
    pair = 0
    while pair == 0 or (pair < pairs if pairs else
                        time.monotonic_ns() - start < budget_s * 1e9):
        for on in ((False, True) if pair % 2 == 0 else (True, False)):
            passes.append(one_pass(runner, specs, tracer if on else None))
        pair += 1
    return {"passes": passes, "missing": tracer.missing}


def one_pass(runner, specs, tracer):
    wl = runner.wl
    units = []
    if tracer is not None and wl.in_process:
        tracer.install()
    try:
        for spec in specs:
            rec = None
            if tracer is None:
                wall, status, _ = runner.unit(spec)
            elif wl.in_process:
                tracer.begin_unit()
                wall, status, _ = runner.unit(spec)
                rec = tracer.end_unit()
            else:
                records = []
                wall, status, _ = runner.unit(spec, lambda s: cli_traced_unit(wl, s, records))
                rec = records[0] if records else None
            if rec is not None:
                self_ns = sum(s[2] for s in rec["stats"].values())
                if self_ns != rec["top_ns"] or rec["top_ns"] > wall:
                    raise RuntimeError("layer self times do not add up to the traced time")
                rec["wall_ns"] = wall
            units.append({"wall_ns": wall, "status": status, "trace": rec})
    finally:
        if tracer is not None and wl.in_process:
            tracer.uninstall()
    return {"traced": tracer is not None, "units": units}


def add_import_span(rec, imports):
    """The child's package import, from -X importtime, as a span of the cli layer."""
    ns = int(round(imports["xtalk"] * 1e6))
    rec["stats"]["cli.import"] = [1, ns, ns, 0]
    rec["layer_total_ns"]["cli"] += ns
    rec["top_ns"] += ns
    rec["imports"] = imports


def main() -> int:
    workload, seed, stream, budget_s, trace = sys.argv[1:6]
    assert_checkout_package()
    import numpy

    out_dir = ROOT / ".bench_out"
    out_dir.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=out_dir) as tmp:
        wl = WORKLOADS[workload](int(seed), ROOT, Path(tmp))
        wl.setup()
        runner = Runner(wl)
        # unit GOLDEN_EVERY - 1 is a reference unit of the scan workloads and a
        # default-seed run of cli-configs: every worker compares at least one
        # whole output with its reference, however short its budget
        warm_status = runner.unit(wl.spec("warmup-" + stream, GOLDEN_EVERY - 1))[1]
        ready_ns = time.monotonic_ns()
        if trace == "1":
            body = traced(runner, float(budget_s))
        else:
            body = timed(runner, stream, float(budget_s))
    who = resource.RUSAGE_SELF if wl.in_process else resource.RUSAGE_CHILDREN
    record = {
        "ready_ns": ready_ns,
        "warmup_status": warm_status,
        "maxrss_mb": resource.getrusage(who).ru_maxrss / 1024.0,
        "notes": runner.notes,
        "chains": wl.chains,
        "xtalk_file": str(Path(xtalk.__file__).resolve().relative_to(ROOT)),
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        **body,
    }
    sys.stdout.write(json.dumps(record) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
