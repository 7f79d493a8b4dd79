#!/usr/bin/env python3
"""The benchmark's own test, at short length (one pass per run).

    python3 perfbench/test_bench.py            # from the root of a checkout

Checks, for every workload: every metric BENCHMARK.json names is printed by
name with its unit; set-up is sampled in fresh processes, and passes and
set-ups run their machine-speed probes; two runs on one seed give identical
counts; another seed changes the counts but still passes the output checks;
a traced run prints every per-layer metric and reproduces the untraced
counts. Also checks that the benchmark fails without printing a result when
the library sources are absent. Takes about a minute and a half on four
cores.
"""
import json
import os
import shutil
import subprocess
import sys
import unittest

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.getcwd()
RESULTS = os.path.join(ROOT, ".bench_build", "perfbench", "results")
sys.path.insert(0, BENCH_DIR)
import run  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
    SPEC = json.load(f)
with open(os.path.join(BENCH_DIR, "reference.json")) as f:
    REFERENCE = json.load(f)

# Counts that identify a pass: shots, failures (per point too), defects and
# accepted proposals. Timing-dependent totals (attempted operations) are
# not among them.
IDENTITY = ("shots", "failures", "defects", "accepted", "point.", "stratum.")


def bench(workload, seed, trace=0, cwd=ROOT):
    proc = subprocess.run(
        [sys.executable, os.path.join(BENCH_DIR, "run.py"), "--workload",
         workload, "--seed", str(seed), "--seconds", "1", "--trace",
         str(trace)], cwd=cwd, capture_output=True, text=True, timeout=600)
    return proc


def identity(report):
    return {k: v for k, v in report["counts"].items() if k.startswith(IDENTITY)}


class BenchmarkTest(unittest.TestCase):
    def run_ok(self, workload, seed, trace=0):
        proc = bench(workload, seed, trace)
        self.assertEqual(proc.returncode, 0, proc.stdout + proc.stderr)
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        self.assertEqual(set(result), {"correct", "attempted", "failed", "metrics"})
        self.assertTrue(result["correct"])
        self.assertGreaterEqual(result["attempted"], 1)
        self.assertEqual(result["failed"], 0)
        with open(os.path.join(RESULTS, f"{workload}-seed{seed}-trace{trace}.json")) as f:
            report = json.load(f)
        return proc.stdout, result, report

    def check_metrics(self, stdout, result, specs):
        self.assertEqual(set(result["metrics"]), {m["name"] for m in specs})
        lines = stdout.splitlines()
        for m in specs:
            self.assertEqual(result["metrics"][m["name"]]["unit"], m["unit"])
            printed = [line.split() for line in lines
                       if line.split()[:1] == [m["name"]]]
            self.assertTrue(printed, f"{m['name']} not printed")
            self.assertEqual(printed[0][-1], m["unit"])

    def test_workloads(self):
        for workload in run.WORKLOADS:
            with self.subTest(workload=workload):
                seed = REFERENCE["workloads"][workload]["default_seed"]
                out, result, first = self.run_ok(workload, seed)
                self.check_metrics(out, result, SPEC["end_to_end"])
                for m in result["metrics"].values():
                    self.assertGreater(m["value"], 0)
                # Set-up is sampled in fresh processes too, not only in the
                # measuring one.
                self.assertGreater(len(first["setup_seconds"]), 1)
                # Passes and set-ups ran their machine-speed probes.
                self.assertGreater(first["probe_speed"], 0)
                self.assertGreater(first["wall_shots_per_s"], 0)
                self.assertEqual(len(first["setup_probe_speeds"]),
                                 len(first["setup_seconds"]))
                self.assertGreater(min(first["setup_probe_speeds"]), 0)
                # Residual syndromes are checked on both toric workloads
                # with tracing off, abort masks on steane-exrec.
                expected = {"toric-2d": {"all_shots_cleared",
                                         "staged_pipeline_matches_library"},
                            "toric-circuit": {"all_shots_cleared"},
                            "steane-exrec": {"no_aborted_lanes"},
                            "steane-rare": set()}[workload]
                self.assertEqual(set(first["checks"]),
                                 {"passes_deterministic", "no_failed_points"}
                                 | expected)
                _, _, again = self.run_ok(workload, seed)
                self.assertEqual(identity(first), identity(again))
                _, _, other = self.run_ok(workload, seed + 1)
                self.assertNotEqual(identity(first), identity(other))
                self.assertIn("reference_counts_within_tolerance"
                              if workload != "steane-rare"
                              else "interval_covers_reference",
                              other["reference_checks"])
                out, result, traced = self.run_ok(workload, seed, trace=1)
                self.check_metrics(out, result, SPEC["per_layer"])
                self.assertTrue(traced["checks"]["trace_matches_untraced"])
                for key, value in identity(first).items():
                    self.assertEqual(traced["counts"][key], value, key)
                if workload.startswith("toric"):
                    # Defects are counted by the traced pipelines only.
                    self.assertGreater(traced["counts"]["defects"], 0)
                    _, _, traced_again = self.run_ok(workload, seed, trace=1)
                    self.assertEqual(identity(traced), identity(traced_again))

    def test_fails_without_library_sources(self):
        bare = os.path.join(ROOT, ".bench_build", "perfbench-test", "bare")
        shutil.rmtree(bare, ignore_errors=True)
        shutil.copytree(BENCH_DIR, os.path.join(bare, "perfbench"),
                        ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
        proc = bench("toric-2d", 1, cwd=bare)
        self.assertNotEqual(proc.returncode, 0)
        lines = proc.stdout.strip().splitlines()
        self.assertFalse(lines and lines[-1].startswith("{"), proc.stdout)


if __name__ == "__main__":
    unittest.main()
