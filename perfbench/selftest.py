"""Self-test of the benchmark harness: corrupted outputs count as failed.

    python3 perfbench/selftest.py

Runs one genuine unit of each workload, checks that it passes, then feeds
the harness corrupted versions of it and checks that each is counted as a
failed unit (and as a wrong output where it is one).  Also checks that the
tracer restores every patched name and that its self times add up.
"""

import math
import sys
import tempfile
import unittest
from dataclasses import replace
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import run  # noqa: E402
import workloads  # noqa: E402
from tracer import Tracer  # noqa: E402
from worker import Runner, timed  # noqa: E402


def corrupt_value_mean(csv: str, row: int = 0) -> str:
    """Move one value_mean by 1e-6, beyond every tolerance the checks use."""
    lines = csv.splitlines(keepends=True)
    i = [j for j, ln in enumerate(lines) if ln[0].isdigit() or ln[0] == "-"][row]
    x, vm, rest = lines[i].split(",", 2)
    lines[i] = f"{x},{float(vm) + 1e-6!r},{rest}"
    return "".join(lines)


class HarnessSelfTest(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        cls.tmp = tempfile.TemporaryDirectory(dir=ROOT)
        cls.tmpdir = Path(cls.tmp.name)

    @classmethod
    def tearDownClass(cls):
        cls.tmp.cleanup()

    def workload(self, name):
        wl = workloads.WORKLOADS[name](7, ROOT, self.tmpdir)
        wl.setup()
        return wl

    def status(self, wl, spec, output):
        return Runner(wl).unit(spec, lambda _: output)[1]

    def test_scan_outputs(self):
        for name in ("noisy-scan", "long-train"):
            wl = self.workload(name)
            spec = wl.spec("selftest", 0)
            good = wl.run(spec)
            self.assertEqual(self.status(wl, spec, good), "ok", name)
            for i in range(len(good)):
                for row in (0, -1):
                    bad = list(good)
                    bad[i] = corrupt_value_mean(good[i], row)
                    self.assertEqual(self.status(wl, spec, bad), "wrong", (name, i, row))
            bad = [good[0].replace("# seed: ", "# seed: 1")] + good[1:]
            self.assertEqual(self.status(wl, spec, bad), "wrong", name)

    def test_reference_units(self):
        """value_sampled and stderr are compared exactly on the reference units."""
        for name in ("noisy-scan", "long-train"):
            wl = self.workload(name)
            k = workloads.GOLDEN_EVERY - 1
            spec = wl.spec("selftest", k)
            self.assertEqual(spec, wl.spec("other", k + workloads.GOLDEN_EVERY
                                           * workloads.GOLDEN_UNITS), name)
            self.assertTrue(all(workloads.canonical(d) in wl.references for d in spec), name)
            good = wl.run(spec)
            self.assertEqual(self.status(wl, spec, good), "ok", name)
            for i, csv in enumerate(good):
                for col in (2, 3):  # value_sampled, stderr
                    lines = csv.splitlines(keepends=True)
                    j = next(j for j, ln in enumerate(lines) if ln[0].isdigit())
                    fields = lines[j].rstrip("\n").split(",")
                    fields[col] = repr(float(fields[col]) + (0.005 if col == 2 else 1e-15))
                    lines[j] = ",".join(fields) + "\n"
                    bad = list(good)
                    bad[i] = "".join(lines)
                    self.assertEqual(self.status(wl, spec, bad), "wrong", (name, i, col))

    def test_cli_outputs(self):
        wl = self.workload("cli-configs")
        for k in (0, 5):  # default seed (whole CSV checked), then a drawn seed
            spec = wl.spec("selftest", k)
            code, err, csv = wl.run(spec)
            self.assertEqual(self.status(wl, spec, (code, err, csv)), "ok")
            self.assertEqual(self.status(wl, spec, (code, err, corrupt_value_mean(csv))),
                             "wrong")
            self.assertEqual(self.status(wl, spec, (2, "config error: x", None)), "error")
            self.assertEqual(self.status(wl, spec, (0, "Traceback", csv)), "error")
        spec = wl.spec("selftest", 4)  # beam profile at the default seed
        code, err, csv = wl.run(spec)
        lines = csv.splitlines(keepends=True)
        lines[-1] = lines[-1].rsplit(",", 1)[0] + ",1e-300\n"  # stderr column
        self.assertEqual(self.status(wl, spec, (code, err, "".join(lines))), "wrong")

    def test_calibration_outputs(self):
        wl = self.workload("calibration")
        spec = wl.spec("selftest", 0)
        good = wl.run(spec)
        self.assertEqual(self.status(wl, spec, good), "ok")
        self.assertEqual(wl.chains, {"ok": len(spec)})
        off = replace(good[1], delta_phi_star=(good[1].delta_phi_star + 0.5) % (2 * math.pi))
        self.assertEqual(self.status(wl, spec, [good[0], off] + good[2:]), "miss")
        self.assertEqual(wl.chains, {"ok": 2 * len(spec) - 1, "miss": 1})
        raised = [ValueError("p > 1")] + good[1:]
        self.assertEqual(self.status(wl, spec, raised), "error")
        self.assertEqual(wl.chains["error"], 1)
        self.assertEqual(self.status(wl, spec, [off] + raised[1:]), "miss")
        nan = replace(good[-1], residual=math.nan)
        self.assertEqual(self.status(wl, spec, raised[:-1] + [nan]), "wrong")
        self.assertEqual(wl.chains["wrong"], 1)
        self.assertEqual(self.status(wl, spec, good[:-1]), "wrong")

    def test_calibration_runs_fixed_units(self):
        """However fast its units, a calibration run attempts the same units."""
        wl = self.workload("calibration")
        wl.run = lambda spec: spec
        wl.check = lambda spec, out: None
        body = timed(Runner(wl), "timed0", 25.0 / run.WORKERS)
        self.assertEqual(len(body["units"]), wl.fixed_units(25.0 / run.WORKERS))
        self.assertEqual(wl.spec("timed0", 3), wl.spec("timed0", 3))
        for name in ("noisy-scan", "long-train", "cli-configs"):
            self.assertIsNone(self.workload(name).fixed_units(25.0))

    def test_tally_and_correct(self):
        attempted, failed, counts = run.tally(["ok", "ok", "wrong", "error"])
        self.assertEqual((attempted, failed), (4, 2))
        self.assertFalse(run.is_correct("noisy-scan", counts, attempted))
        attempted, failed, counts = run.tally(["ok"] * 9 + ["error"])
        self.assertEqual(failed, 1)
        for name in ("noisy-scan", "long-train", "cli-configs"):
            self.assertFalse(run.is_correct(name, counts, attempted))
        self.assertTrue(run.is_correct("calibration", counts, attempted))
        attempted, _, counts = run.tally(["ok"] * 8 + ["miss", "error"])
        self.assertFalse(run.is_correct("calibration", counts, attempted))
        attempted, failed, counts = run.chain_tally([{"chains": {"ok": 50, "error": 1}},
                                                     {"chains": {"ok": 40, "wrong": 1}}])
        self.assertEqual((attempted, failed), (92, 2))
        self.assertFalse(run.is_correct("calibration", counts, attempted))

    def test_tracer_patches_every_alias_and_restores(self):
        import xtalk.pulses
        import xtalk.scenarios

        original = xtalk.pulses.sequence_unitaries
        tracer = Tracer()
        tracer.install()
        try:
            self.assertIsNot(xtalk.scenarios.sequence_unitaries, original)
            self.assertIs(xtalk.scenarios.sequence_unitaries, xtalk.pulses.sequence_unitaries)
            wl = self.workload("long-train")
            tracer.begin_unit()
            wl.run(wl.spec("selftest", 0))
            rec = tracer.end_unit()
        finally:
            tracer.uninstall()
        self.assertIs(xtalk.pulses.sequence_unitaries, original)
        self.assertIs(xtalk.scenarios.sequence_unitaries, original)
        self.assertEqual(sum(s[2] for s in rec["stats"].values()), rec["top_ns"])
        # z-error quad looks up sequence_unitaries in scenarios: 9 calls per run
        self.assertGreater(rec["stats"]["pulses.sequence_unitaries"][0],
                           rec["stats"]["pulses.simulate"][0])


if __name__ == "__main__":
    unittest.main()
