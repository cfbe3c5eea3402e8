"""Record the references the output checks compare against.

Run from the root of a checkout, at the commit whose behaviour is the
reference:

    PYTHONPATH=src python3 perfbench/record_golden.py

It writes ``golden/long_train.json`` (value_mean of every long-train
scenario and method), ``golden/scan_units.json`` (the whole CSV of every run
in the reference units of ``noisy-scan`` and ``long-train``) and
``golden/<config>.csv`` (the CLI output of each example config at the default
seed).  No reference keeps the ``# build:`` line.
"""

import json
import subprocess
import sys
import tempfile
from pathlib import Path

from workloads import (CLI_CONFIGS, DEFAULT_SEED, GOLDEN, GOLDEN_SEED, LONG_COMBOS, WORKLOADS,
                       child_env, long_train_doc, without_build)


def main() -> int:
    from xtalk.scenarios import ScenarioConfig, run_scenario

    root = Path(__file__).resolve().parents[1]
    GOLDEN.mkdir(exist_ok=True)
    table = {}
    for scenario, method in LONG_COMBOS:
        doc = long_train_doc(scenario, method, 0)
        result = run_scenario(ScenarioConfig.from_dict(doc))
        table[f"{scenario}/{method}"] = [float(v) for v in result.value_mean]
    with open(GOLDEN / "long_train.json", "w", encoding="utf-8") as fh:
        json.dump(table, fh, indent=1)
        fh.write("\n")
    units = []
    for name in ("noisy-scan", "long-train"):
        for doc in WORKLOADS[name](GOLDEN_SEED, root, None).reference_docs():
            csv = run_scenario(ScenarioConfig.from_dict(doc)).to_csv()
            units.append({"doc": doc, "csv": without_build(csv)})
    with open(GOLDEN / "scan_units.json", "w", encoding="utf-8") as fh:
        json.dump(units, fh, indent=1)
        fh.write("\n")
    with tempfile.TemporaryDirectory(dir=root) as tmp:
        for name, (scenario, doc) in CLI_CONFIGS.items():
            cfg = Path(tmp) / f"{name}.json"
            cfg.write_text(json.dumps(doc), encoding="utf-8")
            out = Path(tmp) / f"{name}.csv"
            subprocess.run([sys.executable, "-m", "xtalk.cli", scenario, "--config", str(cfg),
                            "--seed", str(DEFAULT_SEED), "--out", str(out)],
                           cwd=root, env=child_env(root), check=True)
            (GOLDEN / f"{name}.csv").write_text(
                without_build(out.read_text(encoding="utf-8")), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
