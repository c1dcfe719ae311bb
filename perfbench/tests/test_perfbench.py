#!/usr/bin/env python3
"""The benchmark's own tests (tiny run lengths; about a minute in all).

    python3 perfbench/tests/test_perfbench.py

They drive perfbench/run.py exactly as a benchmark run does, so the first
test also builds the benchmark program.
"""

import json
import math
import shutil
import subprocess
import sys
import unittest
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]
RUN = ROOT / "perfbench" / "run.py"
BENCH = json.loads((ROOT / "BENCHMARK.json").read_text())
PRED = json.loads((ROOT / "perfbench" / "predictions.json").read_text())
WORKLOADS = [w["name"] for w in BENCH["workloads"]]
TINY = ["--instr", "3000", "--warmup", "2000", "--seconds", "0.3"]
SCRATCH = ROOT / ".bench_build" / "perfbench-tests"


def run(workload, trace, *extra, seed=0, check=True):
    proc = subprocess.run(
        [sys.executable, str(RUN), "--workload", workload, "--seed", str(seed),
         "--trace", str(trace), *TINY, *extra],
        cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
    if check and proc.returncode != 0:
        raise AssertionError(f"run.py failed ({proc.returncode}):\n{proc.stderr}")
    return json.loads(proc.stdout.strip().split("\n")[-1])


def names_and_units(section):
    return {m["name"]: m["unit"] for m in BENCH[section]}


class BenchmarkFileTest(unittest.TestCase):
    def test_schema(self):
        self.assertEqual(set(BENCH), {"command", "paths", "run_seconds", "workloads",
                                      "end_to_end", "per_layer"})
        names = [m["name"] for m in BENCH["end_to_end"] + BENCH["per_layer"]]
        names += WORKLOADS
        self.assertEqual(len(names), len(set(names)))
        for m in BENCH["end_to_end"]:
            self.assertEqual(set(m), {"name", "unit", "better", "bound"})
            self.assertLessEqual(m["bound"], 0.25)
        for m in BENCH["per_layer"]:
            self.assertEqual(set(m), {"name", "unit", "better"})
        setup = next(m for m in BENCH["end_to_end"] if m["name"] == "setup_s")
        self.assertEqual((setup["unit"], setup["better"]), ("s", "lower"))
        self.assertEqual(setup["bound"], max(m["bound"] for m in BENCH["end_to_end"]))
        for w in BENCH["workloads"]:
            self.assertEqual(set(w), {"name", "why"})
            self.assertLessEqual(len(w["why"]), 200)

    def test_predictions_name_known_metrics(self):
        known = set(names_and_units("end_to_end")) | set(names_and_units("per_layer"))
        self.assertEqual(set(PRED["workloads"]), set(WORKLOADS))
        for w in PRED["workloads"].values():
            for row in w["moves"]:
                self.assertIn(row["layer"], known)
                for e in row["end_to_end"]:
                    self.assertIn(e, known)
            for m in w["flat"]:
                self.assertIn(m, known)


class SmokeTest(unittest.TestCase):
    def check_result(self, res, section):
        self.assertTrue(res["correct"], res)
        self.assertEqual(res["failed"], 0)
        self.assertGreaterEqual(res["attempted"], 1)
        want = names_and_units(section)
        self.assertEqual(set(res["metrics"]), set(want))
        for name, m in res["metrics"].items():
            self.assertEqual(m["unit"], want[name], name)
            self.assertTrue(math.isfinite(m["value"]), name)

    def test_every_workload_untraced(self):
        for w in WORKLOADS:
            with self.subTest(workload=w):
                self.check_result(run(w, 0), "end_to_end")

    def test_every_workload_traced(self):
        for w in WORKLOADS:
            with self.subTest(workload=w):
                self.check_result(run(w, 1), "per_layer")


class TracedCountsRepeatTest(unittest.TestCase):
    def test_counts_repeat_exactly(self):
        exact_units = {"count", "bytes"}
        for w in ("paper-grid", "warm-adaptive"):
            with self.subTest(workload=w):
                a = run(w, 1)["metrics"]
                b = run(w, 1)["metrics"]
                counts = [n for n, m in a.items() if m["unit"] in exact_units]
                self.assertGreater(len(counts), 5)
                for n in counts:
                    self.assertEqual(a[n]["value"], b[n]["value"], n)


class PinTest(unittest.TestCase):
    def test_corrupted_pin_fails_its_job(self):
        SCRATCH.mkdir(parents=True, exist_ok=True)
        pins = SCRATCH / "warm-adaptive.pins"
        res = run("warm-adaptive", 0, "--write-pins", str(pins))
        self.assertTrue(res["correct"])
        res = run("warm-adaptive", 0, "--pins", str(pins))
        self.assertTrue(res["correct"])
        self.assertEqual(res["failed"], 0)
        lines = pins.read_text().split("\n")
        i = next(k for k, line in enumerate(lines) if line.startswith("job "))
        name, value = lines[i].split()[1:]
        lines[i] = f"job {name} {int(value, 16) ^ 1:016x}"
        pins.write_text("\n".join(lines))
        res = run("warm-adaptive", 0, "--pins", str(pins))
        self.assertFalse(res["correct"])
        self.assertGreaterEqual(res["failed"], 1)
        self.assertLess(res["failed"], res["attempted"])


class SeedTest(unittest.TestCase):
    def test_held_out_seed_changes_simulated_counts(self):
        SCRATCH.mkdir(parents=True, exist_ok=True)
        seen = {}
        for seed in (PRED["default_seed"], PRED["held_out_seed"]):
            rec = SCRATCH / f"seed{seed}.json"
            res = run("paper-grid", 0, "--record", str(rec), seed=seed)
            self.assertTrue(res["correct"])
            record = json.loads(rec.read_text())
            self.assertEqual(record["meta"]["default_seed"], PRED["default_seed"])
            self.assertEqual(record["meta"]["held_out_seed"], PRED["held_out_seed"])
            seen[seed] = record["sweep_checksum"]
        self.assertNotEqual(seen[PRED["default_seed"]], seen[PRED["held_out_seed"]])

    def test_held_out_seed_changes_traced_cycles(self):
        a = run("paper-grid", 1, seed=PRED["default_seed"])["metrics"]
        b = run("paper-grid", 1, seed=PRED["held_out_seed"])["metrics"]
        self.assertNotEqual(a["cpu.cycles"]["value"], b["cpu.cycles"]["value"])


class MissingSourcesTest(unittest.TestCase):
    def test_benchmark_alone_fails_without_result(self):
        alone = SCRATCH / "alone"
        shutil.rmtree(alone, ignore_errors=True)
        alone.mkdir(parents=True)
        shutil.copy(ROOT / "BENCHMARK.json", alone)
        shutil.copytree(ROOT / "perfbench", alone / "perfbench",
                        ignore=shutil.ignore_patterns("__pycache__"))
        proc = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload", WORKLOADS[0], "--seed", "1",
             "--seconds", "1", "--trace", "0"],
            cwd=alone, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, timeout=180)
        self.assertNotEqual(proc.returncode, 0)
        self.assertNotIn('"correct"', proc.stdout)
        shutil.rmtree(alone)


if __name__ == "__main__":
    unittest.main()
