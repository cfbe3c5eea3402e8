"""xtalk benchmark: one workload per invocation, checked outputs, one JSON line.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the root of a checkout.  ``--trace 0`` measures the end-to-end
metrics with tracing off: it starts ``WORKERS`` worker processes one after
another, each set up from scratch and then timed for ``seconds / WORKERS``.
``--trace 1`` starts one worker that alternates untraced and traced passes
over a fixed set of units and reports the per-layer metrics.  ``calibration``
runs a fixed number of units and passes instead, sized from ``seconds``, so
that each seed attempts the same chains.  Either way the
last line of standard output is ``{"correct", "attempted", "failed",
"metrics"}``; the full record is also written to ``.bench_out/``.
Workers run one at a time, each single-threaded, so at most two processes
work at once (a worker and one CLI child).
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

from tracer import BUILD_SPANS, LAYERS, import_ms
from workloads import child_env

ROOT = Path(__file__).resolve().parents[1]
HERE = Path(__file__).resolve().parent
WORKLOAD_NAMES = ("noisy-scan", "long-train", "calibration", "cli-configs")
WORKERS = 3
CALIB_MIN_HIT_RATE = 0.9  # acceptance criterion 10


def spawn_worker(workload, seed, stream, budget_s, trace) -> tuple[dict, str, int]:
    """Run one worker to completion; returns its record, stderr and spawn time."""
    cmd = [sys.executable]
    if trace and workload != "cli-configs":
        cmd += ["-X", "importtime"]
    cmd += [str(HERE / "worker.py"), workload, str(seed), stream, repr(budget_s), str(trace)]
    t_spawn = time.monotonic_ns()
    proc = subprocess.Popen(cmd, cwd=ROOT, env=child_env(ROOT), stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE, text=True)
    try:
        out, err = proc.communicate(timeout=budget_s + 120)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise SystemExit(f"worker for {workload} timed out")
    if proc.returncode != 0 or not out.strip():
        sys.stderr.write(err[-3000:])
        raise SystemExit(f"worker for {workload} exited with {proc.returncode}")
    return json.loads(out.strip().splitlines()[-1]), err, t_spawn


def provenance(args, records, units, attempted) -> dict:
    try:
        commit = subprocess.run(["git", "describe", "--always", "--dirty", "--abbrev=12"],
                                cwd=ROOT, capture_output=True, text=True, timeout=10,
                                check=False).stdout.strip() or "unknown"
    except OSError:
        commit = "unknown"
    return {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "commit": commit, "nproc": os.cpu_count(),
        "python": records[0]["python"], "numpy": records[0]["numpy"],
        "xtalk_file": records[0]["xtalk_file"], "units": units, "attempted": attempted,
        "workers": len(records),
    }


def tally(statuses) -> tuple[int, int, dict]:
    counts = {}
    for s in statuses:
        counts[s] = counts.get(s, 0) + 1
    attempted = len(statuses)
    failed = attempted - counts.get("ok", 0)
    return attempted, failed, counts


def chain_tally(records) -> tuple[int, int, dict]:
    """Calibration chains by status, summed over workers."""
    counts = {}
    for r in records:
        for status, n in r["chains"].items():
            counts[status] = counts.get(status, 0) + n
    attempted = sum(counts.values())
    return attempted, attempted - counts.get("ok", 0), counts


def is_correct(workload, counts, attempted) -> bool:
    """Every unit passed.  Calibration chains may miss the target or raise, as
    long as criterion 10's rate of chains on target holds and no output is wrong."""
    ok = counts.get("ok", 0)
    if workload == "calibration":
        return not counts.get("wrong", 0) and ok >= CALIB_MIN_HIT_RATE * attempted
    return ok == attempted


# -- end-to-end ------------------------------------------------------------------
def end_to_end(args):
    records = []
    setups = []
    for i in range(WORKERS):
        rec, _, t_spawn = spawn_worker(args.workload, args.seed, f"timed{i}",
                                       args.seconds / WORKERS, 0)
        records.append(rec)
        setups.append((rec["ready_ns"] - t_spawn) / 1e9)
    units = [tuple(u) for r in records for u in r["units"]]
    # warm-up units are checked and counted, but not timed
    attempted, failed, counts = tally([s for _, s in units] + [r["warmup_status"] for r in records])
    if args.workload == "calibration":
        attempted, failed, counts = chain_tally(records)
    ok_ms = sorted(w / 1e6 for w, s in units if s == "ok")
    loop_s = sum(r["loop_ns"] for r in records) / 1e9
    n = len(ok_ms)
    # the value with at least ten units beyond it; the maximum in a short run
    tail_index = n - 11 if n > 10 else n - 1
    metrics = {
        "setup_s": statistics.median(setups),
        "units_per_s": n / loop_s,
        "unit_p50_ms": statistics.median(ok_ms) if ok_ms else 0.0,
        "unit_tail_ms": ok_ms[tail_index] if ok_ms else 0.0,
        "cpu_per_unit_ms": 1e3 * sum(r["cpu_s"] for r in records) / len(units),
        "peak_rss_mb": statistics.median(r["maxrss_mb"] for r in records),
        "ok_frac": (attempted - failed) / attempted,
    }
    detail = {
        "tail_percentile": 100.0 * max(tail_index, 0) / n if n else 0.0,
        "tail_units_beyond": n - 1 - tail_index if n else 0,
        "ok_units": n, "units": len(units) + len(records), "setups_s": setups,
        "status_counts": counts,
        "failed_frac": failed / attempted,
    }
    return records, metrics, detail, attempted, failed, counts


# -- per layer -------------------------------------------------------------------
def merge(units) -> dict:
    agg = {"stats": {}, "layer_total_ns": dict.fromkeys(LAYERS, 0), "top_ns": 0,
           "counters": {}, "wall_ns": 0, "imports": []}
    for u in units:
        rec = u["trace"]
        if rec is None:
            continue
        for name, vals in rec["stats"].items():
            cur = agg["stats"].setdefault(name, [0, 0, 0, 0])
            for j, v in enumerate(vals):
                cur[j] += v
        for layer, ns in rec["layer_total_ns"].items():
            agg["layer_total_ns"][layer] += ns
        for key, v in rec["counters"].items():
            agg["counters"][key] = agg["counters"].get(key, 0) + v
        agg["top_ns"] += rec["top_ns"]
        agg["wall_ns"] += rec["wall_ns"]
        if "imports" in rec:
            agg["imports"].append(rec["imports"])
    return agg


def layer_metrics(agg, units_per_pass) -> tuple[dict, dict]:
    """Time metrics (ms) and count metrics of one traced pass."""
    stats, counters = agg["stats"], agg["counters"]

    def get(name):
        return stats.get(name, (0, 0, 0, 0))

    def ms(ns):
        return ns / 1e6

    sims = get("pulses.simulate")[0]
    sus = get("pulses.sequence_unitaries")[0]
    props = get("dynamics.frame_segment_unitary")[0]
    fits = counters.get("fits", 0)
    field = [get("field.effective_magnitude"), get("field.effective_magnitude_polarized")]
    times = {
        "cli.main_ms": ms(get("cli.main")[1]),
        "scenarios.from_dict_ms": ms(get("scenarios.from_dict")[1]),
        "scenarios.run_scenario_self_ms": ms(get("scenarios.run_scenario")[2]),
        "scenarios.to_csv_ms": ms(get("scenarios.to_csv")[1]),
        "pulses.build_ms": ms(counters.get("build_ns", 0)),
        "pulses.simulate_ms": ms(get("pulses.simulate")[1]),
        "pulses.sequence_unitaries_ms": ms(get("pulses.sequence_unitaries")[1]),
        "dynamics.propagator_ms": ms(get("dynamics.frame_segment_unitary")[1]),
        "field.effective_magnitude_ms": ms(sum(s[1] for s in field)),
        "fitting.gauss_newton_ms": ms(get("fitting.gauss_newton")[1]),
        "calibrate.measure_pi_time_ms": ms(get("calibrate.measure_pi_time")[1]),
        "calibrate.calibrate_amplitude_ms": ms(get("calibrate.calibrate_amplitude")[1]),
        "calibrate.phase_fit_self_ms": ms(get("calibrate.phase_scan_fit")[2]),
        "noise.sample_slow_drift_ms": ms(get("noise.sample_slow_drift")[1]),
        "optics.clipped_focus_profile_ms": ms(get("optics.clipped_focus_profile")[1]),
        "other_ms": ms(agg["wall_ns"] - agg["top_ns"]),
    }
    counts = {
        "scenarios.csv_bytes": counters.get("csv_bytes", 0),
        "scenarios.subprocesses": get("scenarios.subprocess")[0],
        "pulses.build_calls": sum(get(n)[0] for n in BUILD_SPANS),
        "pulses.segments": counters.get("segments", 0),
        "pulses.simulate_calls": sims,
        "pulses.sequence_unitaries_calls": sus,
        "pulses.sequence_unitaries_per_simulate": sus / sims if sims else 0.0,
        "dynamics.propagators": props,
        "dynamics.propagators_per_unit": props / units_per_pass,
        "field.effective_magnitude_calls": sum(s[0] for s in field),
        "fitting.gauss_newton_calls": get("fitting.gauss_newton")[0],
        "fitting.residual_evals": counters.get("residual_evals", 0),
        "fitting.iterations": counters.get("iterations", 0),
        "fitting.converged_frac": counters.get("converged", 0) / fits if fits else 0.0,
        "calibrate.flop_scans": get("calibrate.fit_flop_half_period")[0],
        "noise.sample_slow_drift_calls": get("noise.sample_slow_drift")[0],
        "optics.device_field_calls": get("optics.device_field")[0],
    }
    for layer in LAYERS:
        mine = [v for k, v in stats.items() if k.split(".", 1)[0] == layer]
        counts[f"{layer}.calls"] = sum(v[0] for v in mine)
        counts[f"{layer}.errors"] = sum(v[3] for v in mine)
        times[f"{layer}.total_ms"] = ms(agg["layer_total_ns"][layer])
        times[f"{layer}.self_ms"] = ms(sum(v[2] for v in mine))
    return times, counts


def per_layer(args):
    rec, stderr, _ = spawn_worker(args.workload, args.seed, "trace", args.seconds, 1)
    passes = rec["passes"]
    attempted, failed, counts = tally([u["status"] for p in passes for u in p["units"]]
                                      + [rec["warmup_status"]])
    if args.workload == "calibration":
        attempted, failed, counts = chain_tally([rec])
    k = len(passes[0]["units"])
    merged = [merge(p["units"]) for p in passes if p["traced"]]
    traced = [layer_metrics(agg, k) for agg in merged]
    if any(c != traced[0][1] for _, c in traced):
        raise SystemExit("per-layer counts differ between traced passes of the same units")
    metrics = {name: statistics.median(t[name] for t, _ in traced) for name in traced[0][0]}
    metrics.update(traced[0][1])
    if args.workload == "cli-configs":  # per CLI child
        imports = [i for agg in merged for i in agg["imports"]]
    else:  # the worker's own import
        imports = [import_ms(stderr)]
    metrics["cli.import_numpy_ms"] = statistics.median(i["numpy"] for i in imports)
    metrics["cli.import_xtalk_ms"] = statistics.median(i["xtalk"] for i in imports)
    walls = {on: statistics.median(sum(u["wall_ns"] for u in p["units"])
                                   for p in passes if p["traced"] == on) for on in (False, True)}
    metrics["trace_overhead_frac"] = (walls[True] - walls[False]) / walls[False]
    detail = {"passes": len(passes), "units_per_pass": k, "missing_targets": rec["missing"],
              "units": 1 + k * len(passes),
              "status_counts": counts, "failed_frac": failed / attempted}
    return [rec], metrics, detail, attempted, failed, counts


def metric_units(kind: str) -> dict:
    """Name -> unit of the ``end_to_end`` or ``per_layer`` metrics in BENCHMARK.json."""
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        return {m["name"]: m["unit"] for m in json.load(fh)[kind]}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "xtalk" / "__init__.py").is_file():
        print(f"no xtalk sources under {ROOT / 'src'}; run from a checkout", file=sys.stderr)
        return 2
    run = per_layer if args.trace else end_to_end
    records, metrics, detail, attempted, failed, counts = run(args)
    prov = provenance(args, records, detail["units"], attempted)
    units = metric_units("per_layer" if args.trace else "end_to_end")
    if set(metrics) != set(units):
        raise SystemExit(f"metrics differ from their definitions: {set(metrics) ^ set(units)}")
    metrics = {name: metrics[name] for name in units}
    for name, value in metrics.items():
        extra = ""
        if name == "unit_tail_ms":
            extra = (f"  (p{detail['tail_percentile']:.1f}, {detail['tail_units_beyond']}"
                     f" of {detail['ok_units']} units beyond)")
        print(f"{name:40s} {value!r:>24} {units[name]}{extra}")
    print(f"attempted {attempted}, failed {failed} (failed_frac {detail['failed_frac']!r}),"
          f" by status {counts}")
    print("provenance " + json.dumps(prov, sort_keys=True))
    out_dir = ROOT / ".bench_out"
    out_dir.mkdir(exist_ok=True)
    record = {"provenance": prov, "metrics": metrics, "detail": detail,
              "notes": [n for r in records for n in r["notes"]]}
    path = out_dir / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps(record, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    for note in record["notes"]:
        print("note: " + note)
    result = {
        "correct": is_correct(args.workload, counts, attempted),
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
