#!/usr/bin/env python3
"""Build and run the simulator benchmark.

One run of one workload (what BENCHMARK.json's command runs):

    python3 perfbench/run.py --workload paper_grid --seed 1 --seconds 10 --trace 0

The last line of standard output is the driver's JSON result. Build
output and diagnostics go to standard error.

Self-test (corrupts one result per workload and expects each check to
catch it):

    python3 perfbench/run.py --self-test [--seed N]

Repeat mode (two sets of K runs on distinct seeds; prints the median
and quartiles of every end-to-end metric and whether the two sets agree
within the bounds in BENCHMARK.json):

    python3 perfbench/run.py --repeat K [--workloads a,b] [--seconds S]

Everything is built and written under .bench_build/ in the checkout
root; the repository's own build files are not used.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BENCH_DIR = Path(__file__).resolve().parent
BUILD_DIR = ROOT / ".bench_build" / "perfbench"
SCRATCH_DIR = ROOT / ".bench_build" / "perfbench-scratch"
DRIVER = BUILD_DIR / "perfbench_driver"


def log(*parts):
    print(*parts, file=sys.stderr, flush=True)


def build():
    """Configure and build the driver; returns False on any failure."""
    if not (ROOT / "src" / "sim" / "simulation.cc").is_file():
        log("perfbench: no simulator sources under", ROOT / "src")
        return False
    configure = ["cmake", "-S", str(BENCH_DIR), "-B", str(BUILD_DIR),
                 "-DCMAKE_BUILD_TYPE=RelWithDebInfo"]
    if not (BUILD_DIR / "CMakeCache.txt").exists() and shutil.which("ninja"):
        configure += ["-G", "Ninja"]
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    for cmd in (configure,
                ["cmake", "--build", str(BUILD_DIR), "-j", jobs]):
        rc = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                            cwd=ROOT).returncode
        if rc != 0:
            log("perfbench: build step failed:", " ".join(cmd))
            return False
    return DRIVER.is_file()


def driver(args, capture=False):
    """Run the driver from the checkout root."""
    SCRATCH_DIR.mkdir(parents=True, exist_ok=True)
    cmd = [str(DRIVER)] + args + ["--scratch", str(SCRATCH_DIR)]
    if capture:
        return subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                              text=True)
    return subprocess.run(cmd, cwd=ROOT)


def one_run(workload, seed, seconds):
    """One untraced run; returns its parsed JSON result."""
    p = driver(["--workload", workload, "--seed", str(seed),
                "--seconds", str(seconds), "--trace", "0"], capture=True)
    lines = p.stdout.strip().splitlines()
    if p.returncode != 0 or not lines:
        raise RuntimeError(f"{workload} seed {seed}: driver exited "
                           f"{p.returncode}")
    return json.loads(lines[-1])


def quartiles(values):
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def repeat(k, workloads, seconds):
    """Two sets of k runs per workload; report spread and agreement."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    metrics = spec["end_to_end"]
    all_ok = True
    for w in workloads:
        sets = []
        for base in (1, 1001):
            runs = [one_run(w, base + i, seconds) for i in range(k)]
            sets.append(runs)
        print(f"== {w}: two sets of {k} runs, {seconds} s each")
        shares = [sum(r["failed"] for r in s) /
                  sum(r["attempted"] for r in s) for s in sets]
        correct = all(r["correct"] for s in sets for r in s)
        print(f"   correct in every run: {correct}; failed share "
              f"{shares[0]:.6g} / {shares[1]:.6g}")
        all_ok = all_ok and correct and shares[0] == shares[1]
        for m in metrics:
            name, bound = m["name"], m["bound"]
            rows = []
            for s in sets:
                vals = [r["metrics"][name]["value"] for r in s]
                q1, med, q3 = quartiles(vals)
                spread = (q3 - q1) / med if med else float("inf")
                rows.append((med, q1, q3, spread))
            (m0, a1, a3, s0), (m1, b1, b3, s1) = rows
            worse = (m1 - m0) / m0 if m["better"] == "lower" \
                else (m0 - m1) / m0
            spread_ok = name == "setup_s" or max(s0, s1) <= bound
            agree = worse <= bound
            all_ok = all_ok and spread_ok and agree
            print(f"   {name:16s} median {m0:.6g} / {m1:.6g} "
                  f"{m['unit']:6s} quartiles [{a1:.6g}, {a3:.6g}] / "
                  f"[{b1:.6g}, {b3:.6g}] IQR/median {s0:.4f} / {s1:.4f} "
                  f"(bound {bound}, a third {bound / 3:.4f}) "
                  f"second set worse by {worse:+.4f} "
                  f"{'ok' if spread_ok and agree else 'OUT OF BOUND'}")
    print("sets agree" if all_ok else "sets DO NOT agree")
    return 0 if all_ok else 1


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=10)
    ap.add_argument("--trace", choices=["0", "1"], default="0")
    ap.add_argument("--self-test", action="store_true")
    ap.add_argument("--repeat", type=int, metavar="K")
    ap.add_argument("--workloads",
                    default="paper_grid,big_run,collectives,predict")
    ap.add_argument("--workers", type=int,
                    help="engine workers (reference figures only)")
    ap.add_argument("--sim-threads", type=int,
                    help="big_run partitioned-engine threads "
                         "(reference figures only)")
    a = ap.parse_args()

    if not build():
        return 1
    if a.self_test:
        return driver(["--self-test", "--seed", str(a.seed)]).returncode
    if a.repeat:
        return repeat(a.repeat, a.workloads.split(","), a.seconds)
    if not a.workload:
        ap.error("--workload, --self-test or --repeat is required")
    extra = []
    if a.workers:
        extra += ["--workers", str(a.workers)]
    if a.sim_threads:
        extra += ["--sim-threads", str(a.sim_threads)]
    return driver(["--workload", a.workload, "--seed", str(a.seed),
                   "--seconds", str(a.seconds), "--trace",
                   a.trace] + extra).returncode


if __name__ == "__main__":
    sys.exit(main())
