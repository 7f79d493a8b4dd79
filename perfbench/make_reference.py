#!/usr/bin/env python3
"""Regenerates perfbench/reference.json, the committed outputs the
benchmark checks every run against.

    python3 perfbench/make_reference.py

Run it from the root of a checkout, and only on purpose: a change that
reorders random draws changes the default-seed counts, and the new file
then goes into the same commit with the reason. It records, per workload:
- the failure counts of every grid point at the default seed (toric-2d,
  toric-circuit, steane-exrec), which a run at the default seed must match
  exactly and a run at any other seed must match within the two-sample
  tolerance in run.py;
- for steane-rare, the accepted-proposal counts of every stratum at the
  default seed, and an independent estimate at 10x the replay budget on
  another seed, which every run's widened interval must cover.
"""
import json
import os
import subprocess
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import run  # noqa: E402

DEFAULT_SEEDS = {"toric-2d": 11, "toric-circuit": 107, "steane-exrec": 2000,
                 "steane-rare": 11}
REFERENCE_SCALE = 10
REFERENCE_SEED_OFFSET = 1000003


def binary_report(binary, workload, seed, extra=()):
    proc = subprocess.run(
        [binary, "--workload", workload, "--seed", str(seed), "--seconds",
         "0.001", "--trace", "0", *extra],
        check=True, capture_output=True, text=True)
    return json.loads(proc.stdout.strip().splitlines()[-1])


def main():
    binary = os.path.join(run.build(os.getcwd()), "perfbench")
    workloads = {}
    for workload, seed in DEFAULT_SEEDS.items():
        report = binary_report(binary, workload, seed)
        counts = report["counts"]
        entry = {"default_seed": seed}
        if workload == "steane-rare":
            entry["counts"] = {k: v for k, v in counts.items()
                               if k.startswith("stratum.") or k == "shots"}
            ref_seed = seed + REFERENCE_SEED_OFFSET
            big = binary_report(binary, workload, ref_seed,
                                ["--rare-budget-scale", str(REFERENCE_SCALE)])
            est = big["estimates"]
            entry["estimates"] = {
                key[:-len(".mean")]: {
                    "mean": est[key],
                    "halfwidth": est[key[:-len(".mean")] + ".halfwidth"],
                    "seed": ref_seed, "budget_scale": REFERENCE_SCALE}
                for key in sorted(est) if key.endswith(".mean")}
        else:
            ids = sorted(k[len("point."):-len(".failures")] for k in counts
                         if k.startswith("point.") and k.endswith(".failures"))
            entry["points"] = {
                p: {"shots": counts[f"point.{p}.shots"],
                    "failures": counts[f"point.{p}.failures"]} for p in ids}
        workloads[workload] = entry
        print(f"{workload}: done", file=sys.stderr)
    reference = {
        "about": "Written by perfbench/make_reference.py; see its docstring.",
        "false_failure_rate": 1e-6,
        "workloads": workloads,
    }
    path = os.path.join(run.BENCH_DIR, "reference.json")
    with open(path, "w") as f:
        json.dump(reference, f, indent=1, sort_keys=True)
        f.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
