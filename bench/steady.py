"""Steadiness check: run every workload over two sets of seeds and compare.

    python3 bench/steady.py --seeds 1-10 --second-seeds 101-110

For each workload in BENCHMARK.json, runs bench/run.py (--trace 0, for
run_seconds) once per seed of the first set, then once per seed of the
second set, which should be seeds not used while the code under test
was written. For every end-to-end metric in BENCHMARK.json it prints the
quartile spread (Q3 - Q1) / median of each set and how far the second
set's median moved from the first's, in the direction that counts as
worse. A metric passes when its spread (except setup_s) and its move are
within its bound. Exits 1 if any metric fails or any run reports a
failed check. Runs one benchmark process at a time.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

import benchstats
import common


def parse_seeds(text: str) -> list[int]:
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def run_once(workload: str, seed: int, seconds: int) -> dict:
    proc = subprocess.run(
        [sys.executable, os.path.join(common.BENCH_DIR, "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        capture_output=True, text=True, timeout=900, cwd=common.ROOT)
    if proc.returncode != 0:
        raise SystemExit(f"{workload} seed {seed}: exit {proc.returncode}\n{proc.stderr[-2000:]}")
    last = json.loads(proc.stdout.strip().splitlines()[-1])
    return {"correct": last["correct"], "failed": last["failed"], "attempted": last["attempted"],
            "values": {n: m["value"] for n, m in last["metrics"].items()}}


def worse_by(first: float, second: float, better: str) -> float:
    """How much worse the second median is than the first, as a share of the first."""
    return (second - first) / first if better == "lower" else (first - second) / first


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", required=True, help="first set, e.g. 1-10")
    parser.add_argument("--second-seeds", required=True, help="second set, e.g. 101-110")
    args = parser.parse_args()

    with open(os.path.join(common.ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    bounds = {m["name"]: (m["better"], m["bound"]) for m in spec["end_to_end"]}
    sets = {"first": parse_seeds(args.seeds), "second": parse_seeds(args.second_seeds)}

    ok = True
    for workload in (w["name"] for w in spec["workloads"]):
        runs = {}
        for label, seeds in sets.items():
            runs[label] = []
            for seed in seeds:
                r = run_once(workload, seed, spec["run_seconds"])
                print(f"{workload} {label} seed {seed}: correct={r['correct']} "
                      f"failed={r['failed']}/{r['attempted']} "
                      + " ".join(f"{n}={v!r}" for n, v in r["values"].items()), flush=True)
                ok &= r["correct"] and r["failed"] == 0
                runs[label].append(r)
        print(f"{workload}: metric, spread first / second, second median worse by, bound")
        for name, (better, bound) in bounds.items():
            first = [r["values"][name] for r in runs["first"]]
            second = [r["values"][name] for r in runs["second"]]
            spreads = [benchstats.quartile_spread(v) if len(v) > 1 else 0.0
                       for v in (first, second)]
            moved = worse_by(statistics.median(first), statistics.median(second), better)
            passed = moved <= bound and (name == "setup_s" or max(spreads) <= bound)
            ok &= passed
            print(f"  {name:16s} {spreads[0]:.4f} / {spreads[1]:.4f}  {moved:+.4f}  {bound}"
                  f"{'' if passed else '  FAIL'}", flush=True)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
