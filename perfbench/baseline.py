"""Run the benchmark over several seeds and record medians and quartiles.

    python3 perfbench/baseline.py --seeds 1-10 --out perfbench/baseline.json

For every workload: one end-to-end run per seed (``--trace 0``), then two
traced runs at the first seed, whose per-layer counts must agree exactly.
Each end-to-end metric is recorded with its ten values, median, quartiles
(``statistics.quantiles(values, n=4)``) and spread, the distance between the
quartiles as a share of the median.  Runs go one after another.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from run import WORKLOAD_NAMES  # noqa: E402



def bench(workload, seed, seconds, trace) -> tuple[dict, dict]:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, check=False, timeout=600)
    if proc.returncode != 0:
        raise SystemExit(f"{workload} seed {seed}: exit {proc.returncode}\n{proc.stderr[-2000:]}")
    lines = proc.stdout.strip().splitlines()
    prov = json.loads(next(ln for ln in lines if ln.startswith("provenance "))[11:])
    return json.loads(lines[-1]), prov


def summary(values) -> dict:
    q1, _, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return {"median": med, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / med if med else 0.0, "values": values}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", default="1-10", help="first-last")
    parser.add_argument("--seconds", type=float, default=None,
                        help="run length (default: run_seconds of BENCHMARK.json)")
    parser.add_argument("--workloads", default=",".join(WORKLOAD_NAMES))
    parser.add_argument("--out", required=True)
    args = parser.parse_args()
    first, last = (int(s) for s in args.seeds.split("-"))
    seeds = list(range(first, last + 1))
    seconds = args.seconds
    if seconds is None:
        with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
            seconds = json.load(fh)["run_seconds"]
    record = {"seeds": seeds, "seconds": seconds, "workloads": {}}
    for workload in args.workloads.split(","):
        runs = []
        for seed in seeds:
            res, prov = bench(workload, seed, seconds, 0)
            runs.append(res)
            print(workload, seed, res["correct"], res["attempted"], res["failed"],
                  {k: round(v["value"], 4) for k, v in res["metrics"].items()}, flush=True)
        traced = [bench(workload, seeds[0], seconds, 1)[0] for _ in range(2)]
        units = {k: v["unit"] for k, v in traced[0]["metrics"].items()}
        counts = [{k: v["value"] for k, v in t["metrics"].items()
                   if units[k] != "ms" and k != "trace_overhead_frac"} for t in traced]
        record["provenance"] = {k: prov[k] for k in ("commit", "nproc", "python", "numpy")}
        record["workloads"][workload] = {
            "correct": [r["correct"] for r in runs],
            "attempted": [r["attempted"] for r in runs],
            "failed": [r["failed"] for r in runs],
            "end_to_end": {name: summary([r["metrics"][name]["value"] for r in runs])
                           for name in runs[0]["metrics"]},
            "per_layer": {k: v["value"] for k, v in traced[0]["metrics"].items()},
            "per_layer_counts_repeat": counts[0] == counts[1],
        }
        for name, s in record["workloads"][workload]["end_to_end"].items():
            print(f"  {name:18s} median {s['median']:.6g} spread {s['spread']:.4f}", flush=True)
        print("  per-layer counts repeat:", counts[0] == counts[1], flush=True)
    Path(args.out).write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
