#!/usr/bin/env python3
"""Pipeline benchmark: build the `perfbench` binary from source, run one
workload, check its outputs and print the result.

    python3 perfbench/run.py --workload toric-2d --seed 11 --seconds 25 --trace 0

Run it from the root of a checkout. The binary is built with CMake into
.bench_build/perfbench (the first run builds; later runs only re-check).
With --trace 0 the last stdout line carries the end-to-end metrics, with
--trace 1 the per-layer metrics of a traced run, whose spans are written to
.bench_build/perfbench/traces/. Every report, with its provenance, is also
written to .bench_build/perfbench/results/. The run exits non-zero, naming
the check, when any output check fails. See perfbench/README.md.
"""
import argparse
import hashlib
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import time

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ("toric-2d", "toric-circuit", "steane-exrec", "steane-rare")
DEADLINE_S = 170  # a run must end within 180 s once the binary is built


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build(root):
    """Configures (once) and builds the binary; returns its build directory."""
    if not os.path.isfile(os.path.join(root, "src", "decode", "batch_decode.h")):
        raise RuntimeError("library sources not found under ./src; run from "
                           "the root of a checkout")
    build_dir = os.path.join(root, ".bench_build", "perfbench")
    os.makedirs(build_dir, exist_ok=True)
    with open(os.path.join(build_dir, "build.log"), "w") as out:
        if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
            cmd = ["cmake", "-S", BENCH_DIR, "-B", build_dir,
                   "-DCMAKE_BUILD_TYPE=Release"]
            if shutil.which("ninja"):
                cmd += ["-G", "Ninja"]
            subprocess.run(cmd, check=True, stdout=out, stderr=out)
        jobs = str(max(1, min(4, os.cpu_count() or 1)))
        subprocess.run(["cmake", "--build", build_dir, "-j", jobs],
                       check=True, stdout=out, stderr=out)
    return build_dir


def provenance(root):
    """Git sha and dirty flag (when the checkout is a git work tree) plus a
    digest of every source file the binary is built from."""
    info = {"git_sha": None, "git_dirty": None}
    try:
        sha = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root,
                             capture_output=True, text=True, timeout=10)
        if sha.returncode == 0:
            info["git_sha"] = sha.stdout.strip()
            status = subprocess.run(["git", "status", "--porcelain",
                                     "--untracked-files=no"], cwd=root,
                                    capture_output=True, text=True, timeout=10)
            info["git_dirty"] = bool(status.stdout.strip())
    except (OSError, subprocess.TimeoutExpired):
        pass
    digest = hashlib.sha256()
    for top in (os.path.join(root, "src"), BENCH_DIR):
        for dirpath, dirnames, filenames in os.walk(top):
            dirnames.sort()
            for name in sorted(filenames):
                if name.endswith((".h", ".cpp", ".inc", ".txt", ".py", ".json")):
                    path = os.path.join(dirpath, name)
                    digest.update(os.path.relpath(path, root).encode())
                    with open(path, "rb") as f:
                        digest.update(f.read())
    info["source_sha256"] = digest.hexdigest()
    info["nproc"] = os.cpu_count()
    return info


def z_critical(false_failure_rate, tests):
    """Two-sided normal quantile splitting the rate over `tests` checks."""
    return statistics.NormalDist().inv_cdf(1 - false_failure_rate / (2 * tests))


def reference_checks(report, reference):
    """Compares the run's counts with the committed references. Returns a
    list of (name, ok, detail)."""
    ref = reference["workloads"][report["workload"]]
    rate = reference["false_failure_rate"]
    counts = report["counts"]
    exact = report["seed"] == ref["default_seed"]
    checks = []
    if "points" in ref:
        points = ref["points"]
        if exact:
            bad = [p for p, r in points.items()
                   if counts.get(f"point.{p}.failures") != r["failures"]]
            checks.append(("reference_counts_exact", not bad,
                           "default seed; mismatched: " + (", ".join(bad) or "none")))
        else:
            z_max, worst = 0.0, None
            for p, r in points.items():
                f1, n1 = counts.get(f"point.{p}.failures", -1), r["shots"]
                f0, n0 = r["failures"], r["shots"]
                pooled = (f0 + f1) / (n0 + n1)
                se = math.sqrt(max(pooled * (1 - pooled), 1e-300) * (1 / n0 + 1 / n1))
                z = abs(f1 / n1 - f0 / n0) / se
                if z > z_max:
                    z_max, worst = z, p
            limit = z_critical(rate, len(points))
            checks.append(("reference_counts_within_tolerance", z_max <= limit,
                           f"max |z| {z_max:.2f} at {worst} vs {limit:.2f} "
                           f"(false-failure rate {rate:g} per run)"))
    if "counts" in ref and exact:
        bad = [k for k, v in ref["counts"].items() if counts.get(k) != v]
        checks.append(("reference_counts_exact", not bad,
                       "default seed; mismatched: " + (", ".join(bad) or "none")))
    if "estimates" in ref:
        limit = z_critical(rate, len(ref["estimates"]))
        misses = []
        for eps, r in ref["estimates"].items():
            mean = report["estimates"].get(f"{eps}.mean")
            hw = report["estimates"].get(f"{eps}.halfwidth")
            if mean is None or hw is None:
                misses.append(eps)
                continue
            se = math.hypot(hw, r["halfwidth"]) / 1.959963984540054
            if abs(mean - r["mean"]) > limit * se:
                misses.append(eps)
        checks.append(("interval_covers_reference", not misses,
                       f"widened to z {limit:.2f}; missed: "
                       + (", ".join(misses) or "none")))
    return checks


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=None,
                        help="workload seed (default: the workload's own)")
    parser.add_argument("--seconds", type=float, default=25)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    start = time.monotonic()
    root = os.getcwd()

    with open(os.path.join(BENCH_DIR, "reference.json")) as f:
        reference = json.load(f)
    seed = args.seed
    if seed is None:
        seed = reference["workloads"][args.workload]["default_seed"]
    if seed < 0:
        parser.error("--seed must be non-negative")

    try:
        build_dir = build(root)
    except (RuntimeError, OSError, subprocess.CalledProcessError) as e:
        log(f"perfbench: build failed: {e}")
        log_path = os.path.join(root, ".bench_build", "perfbench", "build.log")
        if os.path.isfile(log_path):
            with open(log_path) as f:
                log(f.read()[-4000:])
        return 1
    build_s = time.monotonic() - start

    for sub in ("traces", "results"):
        os.makedirs(os.path.join(build_dir, sub), exist_ok=True)
    stem = f"{args.workload}-seed{seed}-trace{args.trace}"
    cmd = [os.path.join(build_dir, "perfbench"), "--workload", args.workload,
           "--seed", str(seed), "--seconds", repr(args.seconds),
           "--trace", str(args.trace)]
    trace_file = os.path.join(build_dir, "traces", stem + ".csv")
    if args.trace:
        cmd += ["--trace-file", trace_file]
    try:
        proc = subprocess.run(cmd, capture_output=True, text=True,
                              timeout=max(30, DEADLINE_S - build_s))
    except subprocess.TimeoutExpired:
        log("perfbench: benchmark binary timed out")
        return 1
    if proc.returncode != 0 or not proc.stdout.strip():
        log(proc.stderr)
        log(f"perfbench: benchmark binary exited with {proc.returncode}")
        return 1
    report = json.loads(proc.stdout.strip().splitlines()[-1])

    checks = [(name, ok, "") for name, ok in report["checks"].items()]
    checks += reference_checks(report, reference)
    correct = all(ok for _, ok, _ in checks)
    report["reference_checks"] = {n: {"ok": ok, "detail": d}
                                  for n, ok, d in checks}
    report["provenance"].update(provenance(root))
    report["provenance"]["build_s"] = build_s
    report["correct"] = correct
    with open(os.path.join(build_dir, "results", stem + ".json"), "w") as f:
        json.dump(report, f, indent=1, sort_keys=True)

    p = report["provenance"]
    sha = (p["git_sha"] or "no-git")[:12] + ("+dirty" if p["git_dirty"] else "")
    print(f"perfbench {args.workload} seed={seed} trace={args.trace} "
          f"seconds={args.seconds:g} workers={p['workers']:g} nproc={p['nproc']} "
          f"simd={p['simd_level']} git={sha} source={p['source_sha256'][:12]} "
          f"compiler={p['compiler']!r} flags={p['cxx_flags'].strip()!r}")
    for name, m in report["metrics"].items():
        print(f"  {name:32s} {m['value']:.6g} {m['unit']}")
    print(f"  {'(unscaled wall shots_per_s)':32s} {report['wall_shots_per_s']:.6g} "
          f"shots/s (median probe speed {report['probe_speed']:.6g}/s, "
          f"reference {report['reference_probe_speed']:g}/s)")
    attempted, failed = int(report["attempted"]), int(report["failed"])
    print(f"  {'failed_frac':32s} {failed / attempted:.6g} fraction "
          f"({failed} of {attempted} operations failed)")
    for name, ok, detail in checks:
        print(f"  check {name}: {'ok' if ok else 'FAILED'}"
              + (f" ({detail})" if detail else ""))
        if not ok:
            log(f"perfbench: check failed: {name} {detail}")
    if args.trace:
        print(f"  spans written to {os.path.relpath(trace_file, root)}")
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": report["metrics"]}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
