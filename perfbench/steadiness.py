#!/usr/bin/env python3
"""Run-to-run spread of the end-to-end metrics, across seeds and at one seed.

Run from the root of a cssnd checkout:

    python3 perfbench/steadiness.py --out first.json
    python3 perfbench/steadiness.py --out second.json --against first.json

Every workload of BENCHMARK.json runs once per seed 1-10 and FIXED_REPEATS
times at seed 1 (its seed-1 run counts as the first of these), each as one
`run.py --trace 0` process of `run_seconds`, one after another.  Per metric
it reports the median and the interquartile range as a share of the median
(`statistics.quantiles(values, n=4)`) over the ten seeds, and the same
spread over the runs at seed 1, which holds the inputs fixed.  It flags
every ten-seed spread above a third of the metric's bound, and with
`--against` every median worse than the earlier file's by more than the
bound.  It exits 1 when anything is flagged.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

ROOT = Path.cwd()
RUN = Path(__file__).with_name("run.py")
SEEDS = range(1, 11)
FIXED_SEED = 1
FIXED_REPEATS = 5


def cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor()


def measure(workload: str, seed: int, seconds: int) -> dict:
    start = perf_counter()
    proc = subprocess.run(
        [sys.executable, str(RUN), "--workload", workload, "--seed",
         str(seed), "--seconds", str(seconds), "--trace", "0"],
        stdout=subprocess.PIPE, text=True, check=False,
    )
    if proc.returncode != 0:   # a failed op or output check exits 1
        sys.exit(f"{workload} seed {seed} exited {proc.returncode}")
    result = json.loads(proc.stdout.splitlines()[-1])
    result["wall_s"] = perf_counter() - start
    return result


def spread(values: list[float]) -> tuple[float, float]:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return median, (q3 - q1) / median


def summarize(values, fixed, metric: dict, earlier: dict | None) -> dict:
    median, across = spread(values)
    row = {"median": median, "spread": across,
           "fixed_seed_spread": spread(fixed)[1],
           "bound": metric["bound"], "problems": []}
    if across > metric["bound"] / 3:
        row["problems"].append("spread above a third of the bound")
    if earlier:
        before = earlier["median"]
        change = (median - before) / before
        worse = change if metric["better"] == "lower" else -change
        row["change"] = change
        if worse > metric["bound"]:
            row["problems"].append("median worse than the earlier one")
    return row


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--out", type=Path, required=True)
    parser.add_argument("--against", type=Path)
    args = parser.parse_args()
    earlier = json.loads(args.against.read_text()) if args.against else None
    seconds = spec["run_seconds"]

    report = {
        "machine": {"nproc": os.cpu_count(), "cpu": cpu_model(),
                    "python": platform.python_version()},
        "seconds": seconds,
        "seeds": list(SEEDS),
        "fixed_seed": FIXED_SEED,
        "fixed_repeats": FIXED_REPEATS,
        "workloads": {},
    }
    steady = True
    for workload in (w["name"] for w in spec["workloads"]):
        runs = {}
        for seed in SEEDS:
            runs[seed] = [measure(workload, seed, seconds)]
        for _ in range(FIXED_REPEATS - 1):
            runs[FIXED_SEED].append(measure(workload, FIXED_SEED, seconds))
        every = [run for seed_runs in runs.values() for run in seed_runs]

        def values(name, chosen):
            return [run["metrics"][name]["value"] for run in chosen]

        seed_runs = [runs[seed][0] for seed in SEEDS]
        summary = {}
        wall = statistics.median(run["wall_s"] for run in every)
        print(f"{workload}: median run {wall:.1f} s wall", flush=True)
        for metric in spec["end_to_end"]:
            name = metric["name"]
            before = earlier["workloads"][workload]["summary"][name] \
                if earlier else None
            row = summary[name] = summarize(
                values(name, seed_runs), values(name, runs[FIXED_SEED]),
                metric, before)
            steady &= not row["problems"]
            print(f"  {name:<16} median {row['median']:<14.6g} spread "
                  f"{row['spread']:7.2%} at seed {FIXED_SEED} "
                  f"{row['fixed_seed_spread']:7.2%} (bound "
                  f"{row['bound']:.0%})"
                  + (f" change {row['change']:+.2%}" if "change" in row
                     else "") + "".join(f"  <- {p}" for p in row["problems"]),
                  flush=True)
        report["workloads"][workload] = {
            "summary": summary,
            "values": {m["name"]: values(m["name"], seed_runs)
                       for m in spec["end_to_end"]},
            "fixed_seed_values": {m["name"]: values(m["name"],
                                                    runs[FIXED_SEED])
                                  for m in spec["end_to_end"]},
            "wall_s": [run["wall_s"] for run in every],
            "attempted": sum(run["attempted"] for run in every),
            "failed": sum(run["failed"] for run in every),
        }
    args.out.write_text(json.dumps(report, indent=1) + "\n")
    return 0 if steady else 1


if __name__ == "__main__":
    sys.exit(main())
