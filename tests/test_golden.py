"""Golden replay: scans and CLI runs must reproduce the recorded references.

The benchmark's references live in ``perfbench/golden`` and are only read
here.  ``tests/golden/trains.json`` adds x-error and z-error trains of all
four methods at ``delta_ct`` 0.05 Omega, ``pol_overlap`` 0.8 and counts of 1,
odd, unsorted and repeated, at 200 and 1 shots, and noisy trains of all
four methods at 200 shots, which pin the multi-slice shot path: each
unit is a config and the CSV ``run_scenario`` wrote for it, ``# build:``
dropped.  The rule is the benchmark's: ``value_mean`` within a relative
1e-12, every other column and header line exact, the ``# build:`` line
skipped (it embeds ``git describe``).  Exact ``value_sampled`` columns pin
the shot sampling: the per-shot phase offsets, the draws and their order.
"""

import json
from pathlib import Path

import pytest

from xtalk.cli import EXIT_OK, main
from xtalk.scenarios import ScenarioConfig, run_scenario

ROOT = Path(__file__).resolve().parents[1]
GOLDEN = ROOT / "perfbench" / "golden"
CONFIGS = sorted((ROOT / "configs").glob("*.json"))
RTOL = 1e-12


# the benchmark's long-train input: eight noiseless trains of 1 to 256 pulses
LONG_N_VALUES = [2**j for j in range(9)]
LONG_PHYSICS = {"f_ct": 0.096, "f_comp": 1.0, "delta_phi_rad": 3.099926}


def _long_train():
    with open(GOLDEN / "long_train.json", encoding="utf-8") as fh:
        return json.load(fh)


def _scan_units():
    with open(GOLDEN / "scan_units.json", encoding="utf-8") as fh:
        return json.load(fh)


def _train_units():
    with open(ROOT / "tests" / "golden" / "trains.json", encoding="utf-8") as fh:
        return json.load(fh)


def _split(csv: str):
    lines = csv.splitlines()
    header = [ln for ln in lines if ln.startswith("# ") and not ln.startswith("# build:")]
    rows = [ln.split(",") for ln in lines if not ln.startswith("# ")]
    return header, rows


def assert_matches(csv: str, reference: str) -> None:
    header, rows = _split(csv)
    ref_header, ref_rows = _split(reference)
    assert header == ref_header
    assert rows[0] == ref_rows[0] == ["x", "value_mean", "value_sampled", "stderr"]
    assert len(rows) == len(ref_rows)
    for row, ref in zip(rows[1:], ref_rows[1:]):
        assert float(row[1]) == pytest.approx(float(ref[1]), rel=RTOL, abs=0.0), ref[0]
        assert [row[0], *row[2:]] == [ref[0], *ref[2:]]


def _unit_id(unit):
    doc = unit["doc"]
    return f"{doc['scenario']}-{doc['method']}-{doc['seed']}"


@pytest.mark.parametrize("unit", _scan_units(), ids=_unit_id)
def test_reference_scan_unit(unit):
    csv = run_scenario(ScenarioConfig.from_dict(unit["doc"])).to_csv()
    assert_matches(csv, unit["csv"])


@pytest.mark.parametrize("unit", _train_units(), ids=_unit_id)
def test_reference_train_unit(unit):
    csv = run_scenario(ScenarioConfig.from_dict(unit["doc"])).to_csv()
    assert_matches(csv, unit["csv"])


def test_reference_trains_cover_detuned_crosstalk():
    docs = [unit["doc"] for unit in _train_units()]
    assert all(d["physics"]["delta_ct_rad_per_s"] != 0.0 and d["physics"]["pol_overlap"] < 1.0
               for d in docs)
    assert {(d["scenario"], d["method"], d["shots"]) for d in docs if "noise" not in d} == {
        (s, m, shots) for s in ("x-error", "z-error") for m in ("none", "pcc", "sk1", "quad")
        for shots in (1, 200)}
    assert {(d["scenario"], d["method"], d["shots"]) for d in docs if "noise" in d} == {
        (s, m, 200) for s in ("x-error", "z-error") for m in ("none", "pcc", "sk1", "quad")}
    assert sum("noise" in d for d in docs) == 8


def test_reference_units_include_noisy_scans():
    noisy = [u for u in _scan_units() if "noise" in u["doc"]]
    assert len(noisy) == 8  # four units of one x-error and one phase-scan


@pytest.mark.parametrize("config", CONFIGS, ids=lambda p: p.stem)
def test_example_config_cli_output(config, tmp_path):
    scenario = json.loads(config.read_text(encoding="utf-8"))["scenario"]
    out = tmp_path / "out.csv"
    assert main([scenario, "--config", str(config), "--seed", "0", "--out", str(out)]) == EXIT_OK
    reference = (GOLDEN / f"{config.stem}.csv").read_text(encoding="utf-8")
    assert_matches(out.read_text(encoding="utf-8"), reference)


@pytest.mark.parametrize("run", sorted(_long_train()))
def test_long_train_reference(run):
    scenario, method = run.split("/")
    doc = {"scenario": scenario, "method": method, "physics": LONG_PHYSICS,
           "scan": {"n_values": LONG_N_VALUES}, "shots": 200, "seed": 0}
    _, rows = _split(run_scenario(ScenarioConfig.from_dict(doc)).to_csv())
    reference = _long_train()[run]
    assert [row[0] for row in rows[1:]] == [str(n) for n in LONG_N_VALUES]
    assert len(reference) == len(LONG_N_VALUES)
    for row, ref in zip(rows[1:], reference):
        assert float(row[1]) == pytest.approx(ref, rel=RTOL, abs=0.0), row[0]
