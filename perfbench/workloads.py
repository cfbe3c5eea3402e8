"""The benchmark's four workloads: input generation, one unit of work, and
the check of every unit's output.

Inputs for unit ``k`` of stream ``stream`` are drawn from
``random.Random(f"{seed}:{stream}:{k}")``, so the same workload seed gives the
same inputs in every process and at every commit.  The program only sees the
generated configs.  Checks use the benchmark's own closed forms and the
references in ``golden/``, never the program's own formulas.
"""

from __future__ import annotations

import cmath
import json
import math
import os
import random
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
GOLDEN = HERE / "golden"

SHOTS = 200
F_CT = 0.096
OMEGA_0 = 2.0 * math.pi * 50e3  # the package default, rad/s
ORACLE_TOL = 1e-9  # acceptance criterion 1
RTOL = 1e-12  # golden value_mean tolerance; every other column is exact
CALIB_TARGET = 0.01  # 100x suppression, acceptance criterion 10
GOLDEN_SEED = 0  # workload seed of the reference units
GOLDEN_UNITS = 4  # reference units per scan workload
GOLDEN_EVERY = 4  # every fourth unit of a scan workload is a reference unit


class CheckFailed(Exception):
    """A unit's output is wrong."""


def rng(seed: int, stream: str, k: int) -> random.Random:
    return random.Random(f"{seed}:{stream}:{k}")


# -- closed forms ------------------------------------------------------------
def residual_magnitude(f_comp: float, delta: float) -> float:
    """|1 + f_comp exp(i delta)|."""
    return abs(1.0 + f_comp * cmath.exp(1j * delta))


def x_error_oracle(n: int, f_ct: float, f_comp: float, delta: float) -> float:
    """Spectator population after n target pi pulses, sin^2(pi n f_eff / 2)."""
    return math.sin(0.5 * math.pi * n * f_ct * residual_magnitude(f_comp, delta)) ** 2


def z_error_oracle(n: int, f_ct: float, f_comp: float, delta: float) -> float:
    """Ramsey-wrapped spectator population for square pulses.

    The train rotates the spectator by ``pi n f_eff`` about an equatorial axis
    at the phase of ``1 + f_comp exp(i delta)``; the pi/2 pulses about +X and
    -X map it to an axis in the X-Z plane, leaving ``sin^2 cos^2(axis)``.
    """
    field = 1.0 + f_comp * cmath.exp(1j * delta)
    angle = math.pi * n * f_ct * abs(field)
    return math.sin(0.5 * angle) ** 2 * math.cos(cmath.phase(field)) ** 2


def phase_scan_oracle(dial: float, n_periods: int, f_comp: float, ct_phase: float) -> float:
    return math.sin(math.pi * n_periods * residual_magnitude(f_comp, dial - ct_phase)) ** 2


def relative_error(f_comp: float, delta: float) -> float:
    return residual_magnitude(f_comp, delta) ** 2


# -- CSV ------------------------------------------------------------------------
COLUMNS = ("x", "value_mean", "value_sampled", "stderr")


def parse_csv(text: str):
    """Header dict (without ``build``, which embeds ``git describe``) and rows."""
    header, rows = {}, []
    lines = text.splitlines()
    body = [ln for ln in lines if not ln.startswith("# ")]
    for ln in lines:
        if ln.startswith("# "):
            key, _, value = ln[2:].partition(": ")
            if key != "build":
                header[key] = value
    if not body or body[0] != ",".join(COLUMNS):
        raise CheckFailed("missing CSV column header")
    for ln in body[1:]:
        fields = ln.split(",")
        if len(fields) != len(COLUMNS):
            raise CheckFailed(f"bad CSV row {ln!r}")
        rows.append(fields)
    return header, rows


def check_header(header: dict, scenario: str, method: str, seed: int) -> None:
    want = {"scenario": scenario, "method": method, "seed": str(seed)}
    for key, value in want.items():
        if header.get(key) != value:
            raise CheckFailed(f"header {key}={header.get(key)!r}, want {value!r}")
    if len(header.get("config_hash", "")) != 64:
        raise CheckFailed("missing config hash")


def check_sampled(rows, shots: int = SHOTS) -> None:
    """value_sampled is a count over shots and stderr the binomial error of value_mean."""
    for _, vm, vs, se in rows:
        p, s = float(vm), float(vs)
        if not (0.0 <= s <= 1.0 and abs(s * shots - round(s * shots)) < 1e-9):
            raise CheckFailed(f"value_sampled {vs} is not a count over {shots} shots")
        if float(se) != math.sqrt(max(p * (1.0 - p), 0.0) / shots):
            raise CheckFailed(f"stderr {se} does not match value_mean {vm}")


def check_oracle(rows, oracle) -> None:
    for i, row in enumerate(rows):
        want = oracle(i, float(row[0]))
        if not abs(float(row[1]) - want) <= ORACLE_TOL:
            raise CheckFailed(f"value_mean {row[1]} vs closed form {want!r} at x={row[0]}")


def close(value: str, ref: str) -> bool:
    return abs(float(value) - float(ref)) <= RTOL * abs(float(ref))


def compare_rows(label: str, rows, ref_rows, columns=COLUMNS) -> None:
    """Rows against a reference: value_mean within RTOL, other columns exactly."""
    if len(rows) != len(ref_rows):
        raise CheckFailed(f"{label}: {len(rows)} rows, reference has {len(ref_rows)}")
    for row, ref in zip(rows, ref_rows):
        for col in columns:
            j = COLUMNS.index(col)
            same = close(row[j], ref[j]) if col == "value_mean" else row[j] == ref[j]
            if not same:
                raise CheckFailed(f"{label} {col} {row[j]} vs reference {ref[j]} at x={ref[0]}")


def compare_csv(label: str, header: dict, rows, reference) -> None:
    """A whole CSV against its reference; the header must match exactly."""
    ref_header, ref_rows = reference
    if header != ref_header:
        raise CheckFailed(f"{label}: header {header} differs from the reference {ref_header}")
    compare_rows(label, rows, ref_rows)


def without_build(csv: str) -> str:
    """A CSV without its ``# build:`` line, which embeds ``git describe --dirty``."""
    return "".join(ln for ln in csv.splitlines(keepends=True) if not ln.startswith("# build:"))


def canonical(doc: dict) -> str:
    return json.dumps(doc, sort_keys=True)


# -- the workloads ---------------------------------------------------------------
class Workload:
    """One kind of unit.  ``spec`` draws inputs, ``run`` does the unit and
    ``check`` raises :class:`CheckFailed` if its output is wrong."""

    in_process = True
    trace_units = 1  # units in one traced pass
    chains = None  # calibration: chains checked, by status

    def __init__(self, seed: int, root: Path, tmp: Path):
        self.seed = seed
        self.root = root
        self.tmp = tmp

    def setup(self):
        pass

    def fixed_units(self, budget_s: float):
        """Units a run does whatever the clock says; None: run for ``budget_s``."""
        return None


class ScenarioWorkload(Workload):
    """A unit is a list of in-process scenario runs: validate, run, emit CSV.

    Every ``GOLDEN_EVERY``-th unit is one of ``GOLDEN_UNITS`` reference units,
    drawn at ``GOLDEN_SEED`` whatever the workload seed.  Their whole CSVs,
    ``value_sampled`` and ``stderr`` included, are compared with
    ``golden/scan_units.json``; the other units are checked against closed
    forms, which cover ``value_mean`` only.
    """

    def setup(self):
        with open(GOLDEN / "scan_units.json", encoding="utf-8") as fh:
            self.references = {canonical(r["doc"]): parse_csv(r["csv"]) for r in json.load(fh)}

    def spec(self, stream: str, k: int) -> list:
        if k % GOLDEN_EVERY == GOLDEN_EVERY - 1:
            return self.draw(rng(GOLDEN_SEED, "golden", (k // GOLDEN_EVERY) % GOLDEN_UNITS))
        return self.draw(rng(self.seed, stream, k))

    def reference_docs(self) -> list:
        return [doc for k in range(GOLDEN_UNITS)
                for doc in self.draw(rng(GOLDEN_SEED, "golden", k))]

    def run(self, docs) -> list:
        from xtalk.scenarios import ScenarioConfig, run_scenario

        return [run_scenario(ScenarioConfig.from_dict(doc)).to_csv() for doc in docs]

    def check(self, docs, csvs) -> None:
        for doc, csv in zip(docs, csvs):
            header, rows = parse_csv(csv)
            check_header(header, doc["scenario"], doc["method"], doc["seed"])
            reference = self.references.get(canonical(doc))
            if reference is not None:
                compare_csv(f"{doc['scenario']}/{doc['method']}", header, rows, reference)
            self.check_one(doc, rows)
            check_sampled(rows)


class NoisyScan(ScenarioWorkload):
    """Noise-injected pcc scans: a unit is one x-error and one phase-scan.

    The two scans cost about the same but not the same (about 380 and 320 ms
    on a 2-core 2.1 GHz x86 VM); the median of units alternating between them
    would fall in the gap between the two and jump between runs, so a unit
    holds one of each.
    """

    def draw(self, r: random.Random) -> list:
        ct = r.uniform(0.0, 2.0 * math.pi)
        dial_error = r.uniform(-0.1, 0.1)
        x_error = {"scenario": "x-error", "method": "pcc",
                   "physics": {"f_ct": F_CT, "f_comp": 1.0, "ct_phase_rad": ct,
                               "delta_phi_rad": ct + math.pi + dial_error},
                   "scan": {"n_values": [1, 2, 4, 8, 16, 32]},
                   "noise": {"preset": "exposed"}, "shots": SHOTS, "seed": r.randrange(2**31)}
        ct = r.uniform(0.0, 2.0 * math.pi)
        phase_scan = {"scenario": "phase-scan", "method": "pcc",
                      "physics": {"f_ct": F_CT, "f_comp": 1.0, "ct_phase_rad": ct},
                      "scan": {"points": 40, "n_periods": 1},
                      "noise": {"preset": "enclosed"}, "shots": SHOTS,
                      "seed": r.randrange(2**31)}
        return [x_error, phase_scan]

    def check_one(self, doc, rows) -> None:
        phys = doc["physics"]
        if doc["scenario"] == "x-error":
            ns = doc["scan"]["n_values"]
            if [r[0] for r in rows] != [str(n) for n in ns]:
                raise CheckFailed("x column differs from n_values")
            delta = phys["delta_phi_rad"] - phys["ct_phase_rad"]
            check_oracle(rows, lambda i, x: x_error_oracle(ns[i], F_CT, 1.0, delta))
        else:
            points = doc["scan"]["points"]
            if len(rows) != points:
                raise CheckFailed("wrong number of dials")
            step = 2.0 * math.pi / points
            for i, row in enumerate(rows):
                if abs(float(row[0]) - i * step) > 1e-12:
                    raise CheckFailed(f"dial {row[0]} at index {i}")
            check_oracle(rows, lambda i, x: phase_scan_oracle(x, 1, 1.0, phys["ct_phase_rad"]))


LONG_COMBOS = tuple((s, m) for s in ("x-error", "z-error") for m in ("none", "pcc", "sk1", "quad"))
LONG_N_VALUES = [2**j for j in range(9)]  # 1 .. 256 pulses
LONG_DELTA_PHI = 3.099926  # configs/x_error_pcc.json's calibrated dial


class LongTrain(ScenarioWorkload):
    """Noiseless x-error and z-error trains of 1 to 256 pulses.

    A unit is one run of each of the eight (scenario, method) pairs in a
    seeded order.  Single runs take 17 to 200 ms on a 2-core 2.1 GHz x86 VM,
    so the median of an even mix of them would sit in the gap between two
    costs and jump between runs; the whole round has one cost.
    """

    def setup(self):
        super().setup()
        with open(GOLDEN / "long_train.json", encoding="utf-8") as fh:
            self.golden = json.load(fh)

    def draw(self, r: random.Random) -> list:
        order = list(LONG_COMBOS)
        r.shuffle(order)
        return [long_train_doc(s, m, r.randrange(2**31)) for s, m in order]

    def check_one(self, doc, rows) -> None:
        scenario, method = doc["scenario"], doc["method"]
        ns = doc["scan"]["n_values"]
        if [r[0] for r in rows] != [str(n) for n in ns]:
            raise CheckFailed("x column differs from n_values")
        for n, row, ref in zip(ns, rows, self.golden[f"{scenario}/{method}"]):
            if not close(row[1], ref):
                raise CheckFailed(f"{scenario}/{method} value_mean {row[1]} vs reference {ref!r} at n={n}")
        if method in ("none", "pcc"):
            f_comp = 1.0 if method == "pcc" else 0.0
            oracle = x_error_oracle if scenario == "x-error" else z_error_oracle
            check_oracle(rows, lambda i, x: oracle(ns[i], F_CT, f_comp, LONG_DELTA_PHI))


def long_train_doc(scenario: str, method: str, run_seed: int) -> dict:
    return {"scenario": scenario, "method": method,
            "physics": {"f_ct": F_CT, "f_comp": 1.0, "delta_phi_rad": LONG_DELTA_PHI},
            "scan": {"n_values": LONG_N_VALUES}, "shots": SHOTS, "seed": run_seed}


class TargetMissed(Exception):
    """A calibration chain ended above the suppression target.

    Criterion 10 asks for the target in at least 90% of chains, so a single
    miss counts as a failed chain, not as a wrong output."""


CHAINS_PER_UNIT = 8
CALIB_UNITS_PER_S = 1.6  # units per second of budget; about the rate of a 2-core 2.1 GHz x86 VM


class Calibration(Workload):
    """Closed-loop pi-time, amplitude and phase calibration chains.

    A unit is ``CHAINS_PER_UNIT`` chains, about 0.6 s on a 2-core 2.1 GHz
    x86 VM.  Every chain does the same work, but the speed of such a shared
    host swings between two states that last about a second each; the
    median of single 80 ms chains follows those swings, that of eight-chain
    units much less.

    ``attempted`` and ``failed`` count chains, not units.  A run does a
    fixed number of units, sized from its time budget (see
    :meth:`fixed_units`), so the same seed always attempts the same chains:
    some of them raise (a defect of ``pulses.simulate``), and a run that
    stopped on the clock would count a different number of them each time.
    """

    trace_units = 1

    def setup(self):
        self.chains = {}

    def fixed_units(self, budget_s: float) -> int:
        return max(1, round(budget_s * CALIB_UNITS_PER_S))

    def spec(self, stream: str, k: int) -> list:
        r = rng(self.seed, stream, k)
        return [{"ct_phase": r.uniform(0.0, 2.0 * math.pi), "seed": r.randrange(2**31)}
                for _ in range(CHAINS_PER_UNIT)]

    def run(self, specs) -> list:
        """One result per chain; a chain that raises gives its exception."""
        from xtalk.calibrate import run_full_calibration
        from xtalk.field import CrosstalkContext

        results = []
        for spec in specs:
            ctx = CrosstalkContext(omega_0=OMEGA_0, f_ct=F_CT, ct_phase=spec["ct_phase"])
            try:
                results.append(run_full_calibration(ctx, shots=SHOTS, seed=spec["seed"])[0])
            except Exception as exc:  # counted against the chain, the unit goes on
                results.append(exc)
        return results

    def check(self, specs, results) -> None:
        """Each chain is ok, wrong, an error (it raised) or a miss (off
        target); its status is counted in ``chains``.  The unit takes the
        worst of them."""
        if len(results) != len(specs):
            raise CheckFailed(f"{len(results)} results for {len(specs)} chains")
        failures = {}
        for spec, result in zip(specs, results):
            try:
                self.check_chain(spec, result)
                status = "ok"
            except CheckFailed as exc:
                status = "wrong"
                failures.setdefault(status, exc)
            except TargetMissed as exc:
                status = "miss"
                failures.setdefault(status, exc)
            except Exception as exc:
                status = "error"
                failures.setdefault(status, exc)
            self.chains[status] = self.chains.get(status, 0) + 1
        for status in ("wrong", "error", "miss"):
            if status in failures:
                raise failures[status]

    @staticmethod
    def check_chain(spec, result) -> None:
        if isinstance(result, Exception):
            raise result
        values = (result.t_pi_ct, result.f_comp_star, result.delta_phi_star, result.residual)
        if not all(math.isfinite(v) for v in values):
            raise CheckFailed(f"non-finite calibration result {values}")
        if not 0.0 <= result.delta_phi_star < 2.0 * math.pi:
            raise CheckFailed(f"dial {result.delta_phi_star} outside [0, 2 pi)")
        rel = relative_error(result.f_comp_star, result.delta_phi_star - spec["ct_phase"])
        if rel > CALIB_TARGET:
            raise TargetMissed(f"relative error {rel:.3g} above {CALIB_TARGET}")


# the five example configs, as of the commit the references were recorded at
CLI_CONFIGS = {
    "x_error_pcc": ("x-error", {
        "scenario": "x-error", "method": "pcc",
        "physics": {"omega_0_rad_per_s": 314159.2653589793, "f_ct": 0.096, "f_comp": 1.0,
                    "delta_phi_rad": 3.099926},
        "scan": {"n_values": [1, 2, 4, 8, 16, 32, 64]}, "shots": 200, "seed": 0}),
    "phase_scan": ("phase-scan", {
        "scenario": "phase-scan", "method": "pcc", "physics": {"f_ct": 0.096, "f_comp": 1.0},
        "scan": {"points": 40, "n_periods": 1}, "shots": 200, "seed": 0}),
    "drift_monitor": ("drift-monitor", {
        "scenario": "drift-monitor",
        "scan": {"preset": "enclosed", "duration_min": 8.0, "dt_min": 0.05},
        "shots": 500, "seed": 0}),
    "duty_cycle_sweep": ("duty-cycle-sweep", {
        "scenario": "duty-cycle-sweep",
        "scan": {"ratio_min": 0.001, "ratio_max": 1.0, "points": 13, "mitigated": True},
        "seed": 0}),
    "beam_profile": ("beam-profile", {
        "scenario": "beam-profile",
        "scan": {"curve": "clipped", "x_min_um": -10.0, "x_max_um": 10.0, "points": 401,
                 "w0_um": 1.6, "wavelength_nm": 729.0, "na": 0.35},
        "seed": 0}),
}
# columns that do not depend on the run seed
SEED_FREE = {
    "x_error_pcc": ("x", "value_mean", "stderr"),
    "phase_scan": ("x", "value_mean", "stderr"),
    "drift_monitor": ("x",),
    "duty_cycle_sweep": COLUMNS,
    "beam_profile": COLUMNS,
}
DEFAULT_SEED = 0
IMPORTTIME = "import time:"


def child_env(root: Path) -> dict:
    """Environment for every child: the checkout's own sources, one thread."""
    env = {k: v for k, v in os.environ.items() if k not in ("PYTHONPATH", "XTALK_SEED")}
    env["PYTHONPATH"] = str(root / "src")
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    return env


class CliConfigs(Workload):
    """``python -m xtalk.cli`` subprocesses, round-robin over the five configs."""

    in_process = False
    trace_units = len(CLI_CONFIGS)

    def setup(self):
        self.env = child_env(self.root)
        self.golden = {}
        for name, (_, doc) in CLI_CONFIGS.items():
            with open(self.tmp / f"{name}.json", "w", encoding="utf-8") as fh:
                json.dump(doc, fh)
            with open(GOLDEN / f"{name}.csv", encoding="utf-8") as fh:
                self.golden[name] = parse_csv(fh.read())

    def spec(self, stream: str, k: int) -> dict:
        """Config ``k mod 5``; every fourth round runs at the default seed,
        where the whole CSV is compared with its reference."""
        names = list(CLI_CONFIGS)
        rnd, pos = divmod(k, len(names))
        r = rng(self.seed, stream, k)
        run_seed = DEFAULT_SEED if rnd % 4 == 0 else r.randrange(1, 2**31)
        return {"name": names[pos], "seed": run_seed, "out": str(self.tmp / f"out-{k}.csv")}

    def argv(self, spec) -> list:
        scenario = CLI_CONFIGS[spec["name"]][0]
        return [scenario, "--config", str(self.tmp / f"{spec['name']}.json"),
                "--seed", str(spec["seed"]), "--out", spec["out"]]

    def run(self, spec, prefix=None):
        """Run one CLI process; ``prefix`` replaces ``-m xtalk.cli`` (traced runs)."""
        cmd = [sys.executable] + (prefix or ["-m", "xtalk.cli"]) + self.argv(spec)
        proc = subprocess.run(cmd, cwd=self.root, env=self.env, capture_output=True,
                              text=True, timeout=120, check=False)
        try:
            with open(spec["out"], encoding="utf-8") as fh:
                csv = fh.read()
            os.remove(spec["out"])
        except OSError:
            csv = None
        return proc.returncode, proc.stderr, csv

    def check(self, spec, output) -> None:
        code, stderr, csv = output
        noise = [ln for ln in stderr.splitlines() if not ln.startswith(IMPORTTIME)]
        if code != 0 or noise:
            raise RuntimeError(f"exit {code}: {' | '.join(noise)[:300]}")
        if csv is None:
            raise CheckFailed("no CSV written")
        name, seed = spec["name"], spec["seed"]
        header, rows = parse_csv(csv)
        ref_header, ref_rows = self.golden[name]
        check_header(header, ref_header["scenario"], ref_header["method"], seed)
        if seed == DEFAULT_SEED:
            compare_csv(name, header, rows, self.golden[name])
        else:
            compare_rows(name, rows, ref_rows, SEED_FREE[name])
        if name in ("x_error_pcc", "phase_scan"):
            phys = CLI_CONFIGS[name][1]["physics"]
            if name == "x_error_pcc":
                ns = CLI_CONFIGS[name][1]["scan"]["n_values"]
                check_oracle(rows, lambda i, x: x_error_oracle(
                    ns[i], phys["f_ct"], phys["f_comp"], phys["delta_phi_rad"]))
            else:
                check_oracle(rows, lambda i, x: phase_scan_oracle(x, 1, phys["f_comp"], 0.0))
            check_sampled(rows)


WORKLOADS = {
    "noisy-scan": NoisyScan,
    "long-train": LongTrain,
    "calibration": Calibration,
    "cli-configs": CliConfigs,
}
