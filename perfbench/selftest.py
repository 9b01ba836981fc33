"""Self-tests for the benchmark; run from the repository root:

    python3 perfbench/selftest.py

Every workload runs one round (the smallest run there is) with and without
tracing and must print every metric BENCHMARK.json names, with its unit, also
under ``--workload all``; a corrupted reference file must make every op fail,
with MC reference means moved up (so the lower gate fails) and down (so the
upper gate fails); traced counts must repeat for a seed; and a directory
without the sources must be refused.  Takes about two minutes.  Scratch files
go to perfbench/out/.
"""

from __future__ import annotations

import json
import os
import re
import shutil
import subprocess
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT = os.path.join(HERE, "out")
RUN = os.path.join(HERE, "run.py")

with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as _fh:
    BENCH = json.load(_fh)
WORKLOADS = [w["name"] for w in BENCH["workloads"]]
MC_WORKLOADS = ["mc-small-x", "mc-large-x"]  # every op of these reports MC means


def bench(*args: str, cwd: str = ROOT, rounds: int = 1) -> tuple[int, list[str]]:
    proc = subprocess.run([sys.executable, RUN, "--seed", "1", "--seconds", "1",
                           "--rounds", str(rounds), *args],
                          cwd=cwd, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                          text=True, timeout=300)
    return proc.returncode, proc.stdout.splitlines()


class MetricsPrinted(unittest.TestCase):
    def check(self, trace: int, specs: list[dict]) -> None:
        for w in WORKLOADS:
            with self.subTest(workload=w):
                code, lines = bench("--workload", w, "--trace", str(trace))
                self.assertEqual(code, 0)
                result = json.loads(lines[-1])
                self.assertEqual(sorted(result), ["attempted", "correct", "failed", "metrics"])
                self.assertTrue(result["correct"])
                self.assertGreaterEqual(result["attempted"], 1)
                self.assertEqual(result["failed"], 0)
                want = {m["name"]: m["unit"] for m in specs}
                got = {k: v["unit"] for k, v in result["metrics"].items()}
                self.assertEqual(got, want)
                text = "\n".join(lines[:-1])
                for name, unit in want.items():
                    self.assertRegex(text, rf"{re.escape(name)}\s+\S+\s+{re.escape(unit)}\s")
                self.assertRegex(text, rf"fail_frac\s+0 .* 0/{result['attempted']} ops failed")

    def test_end_to_end_metrics(self):
        self.check(0, BENCH["end_to_end"])

    def test_per_layer_metrics(self):
        self.check(1, BENCH["per_layer"])

    def test_all_workloads_in_one_command(self):
        code, lines = bench("--workload", "all")
        self.assertEqual(code, 0)
        result = json.loads(lines[-1])
        self.assertTrue(result["correct"])
        want = {f"{w}.{m['name']}": m["unit"] for w in WORKLOADS for m in BENCH["end_to_end"]}
        self.assertEqual({k: v["unit"] for k, v in result["metrics"].items()}, want)
        self.assertEqual(sum(line.startswith("workload ") for line in lines), len(WORKLOADS))


class ChecksCanFail(unittest.TestCase):
    def corrupt(self, name: str, mc_factor: float) -> str:
        """A copy of the references with every MC mean times ``mc_factor`` and
        every other value wrong; returns its path."""
        with open(os.path.join(HERE, "references.json"), encoding="utf-8") as fh:
            refs = json.load(fh)
        for key, value in refs.items():
            if key.startswith("mc/"):
                refs[key] = [value[0] * mc_factor, value[1]]
            elif key.startswith("theta/"):
                refs[key] = value + 1e-3  # far beyond every epsilon
            else:
                refs[key] = [row[:-1] + ["1/7"] for row in value]  # wrong last column
        os.makedirs(OUT, exist_ok=True)
        path = os.path.join(OUT, name)
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(refs, fh)
        return path

    def assert_every_op_fails(self, workloads: list[str], path: str, rounds: int) -> None:
        for w in workloads:
            with self.subTest(workload=w):
                code, lines = bench("--workload", w, "--references", path, rounds=rounds)
                self.assertEqual(code, 0)
                result = json.loads(lines[-1])
                self.assertFalse(result["correct"])
                self.assertEqual(result["failed"], result["attempted"])
                n = result["attempted"]
                self.assertRegex("\n".join(lines), rf"fail_frac\s+1 .* {n}/{n} ops failed")

    def test_corrupted_references_fail_every_op(self):
        # MC means 3x too high: every observed mean falls below the lower gate
        self.assert_every_op_fails(WORKLOADS, self.corrupt("references-up.json", 3), 1)

    def test_mc_means_too_low_fail_every_mc_op(self):
        # MC means 3x too low: every observed mean lies above the upper gate,
        # on its own or pooled with the other means of its op kind
        self.assert_every_op_fails(MC_WORKLOADS, self.corrupt("references-down.json", 1 / 3), 2)


class TracedCountsRepeat(unittest.TestCase):
    def test_same_seed_same_counts(self):
        counts = []
        for _ in range(2):
            code, lines = bench("--workload", "mc-small-x", "--trace", "1")
            self.assertEqual(code, 0)
            metrics = json.loads(lines[-1])["metrics"]
            counts.append({k: v["value"] for k, v in metrics.items()
                           if k.endswith((".calls", ".sum", "fleet_steps", "stdout_bytes"))})
        self.assertEqual(counts[0], counts[1])
        self.assertGreater(counts[0]["sim.run_trial.calls"], 0)


class RefusesWithoutSources(unittest.TestCase):
    def test_bare_directory(self):
        bare = os.path.join(OUT, "bare")
        shutil.rmtree(bare, ignore_errors=True)
        shutil.copytree(HERE, os.path.join(bare, "perfbench"),
                        ignore=shutil.ignore_patterns("out", "__pycache__"))
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
        proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "mc-small-x",
                               "--seed", "1", "--seconds", "1", "--trace", "0"],
                              cwd=bare, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                              text=True, timeout=180)
        self.assertNotEqual(proc.returncode, 0)
        self.assertNotIn('"correct"', proc.stdout)
        shutil.rmtree(bare)


if __name__ == "__main__":
    unittest.main()
