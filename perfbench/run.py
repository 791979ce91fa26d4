#!/usr/bin/env python3
"""Benchmark of the cssnd toolkit, end to end and layer by layer.

Run from the root of a cssnd checkout:

    python3 perfbench/run.py --workload heuristic_suite --seed 1 \
        --seconds 27 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 27 --trace 0

Each workload runs in its own process: a single client issuing one op at a
time in a closed loop, no threads.  An op is one or two in-process calls of
the public CLI entry point `cssnd.cli.main([...])` on instance files that
set-up generates with `cssnd gen` from `--seed`.  Ops run in whole passes
until their summed time reaches `--seconds`; every op's outputs are checked.

`--trace 0` prints the end-to-end metrics; `--trace 1` runs each op a
second time with layer spans recorded (see `spans.py`) and prints the
per-layer metrics.  The last line of standard output is one JSON object
with `correct`, `attempted`, `failed` and `metrics`.  The exit code is 0
only when every op and every output check passed.
"""

from __future__ import annotations

import argparse
import gc
import io
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
from bisect import bisect_left, bisect_right
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path
from time import perf_counter

from spans import LAYER_METRICS, MIB, Tracer
from workloads import WORKLOADS, Op, Result, digest

ROOT = Path.cwd()
WORK = ROOT / ".perfbench"
SETUP_REPEATS = 21

END_TO_END = {
    "setup_s": "s",
    "ops_per_s": "1/s",
    "op_s.p50": "s",
    "op_s.p90": "s",
    "peak_rss_mb": "MiB",
    "heuristic_cost": "cost",
}
# Per-op means over the traced ops unless the name says otherwise; the
# time metrics of one op sum to its traced duration.
PER_LAYER = {
    **{name: "s" for name in LAYER_METRICS.values()},
    "cli.other_s": "s",
    "paths.count": "count",
    "dmam.merges": "count",
    "dmam.merge_yield": "ratio",
    "dmam.mixes": "count",
    "model.vars": "count",
    "model.rows": "count",
    "model.nnz": "count",
    "model.build_nnz_per_s": "1/s",
    "model.build_peak_mb": "MiB",
    "model.lp_mb": "MiB",
    "model.mps_mb": "MiB",
    "model.check_rows_per_s": "1/s",
    "model.check_violations": "count",
    "trace.overhead_s": "s",
}


def load_program(root: Path):
    src = root / "src"
    if not (src / "cssnd" / "cli.py").is_file():
        sys.exit(f"perfbench: no src/cssnd under {root}; run from the root "
                 "of a cssnd checkout")
    sys.path.insert(0, str(src))
    import cssnd.cli
    import cssnd.dmam
    return cssnd


def stable_stdout(text: str):
    """An op's standard output without its wall-clock telemetry."""
    if not text:
        return None
    document = json.loads(text)
    if isinstance(document, dict):
        document.get("manifest", {}).pop("wall_clock", None)
    return document


def reference_work() -> int:
    """A fixed piece of pure-Python work, owned by the benchmark."""
    table: dict = {}
    for i in range(20000):
        key = (i % 977, i % 13)
        table[key] = table.get(key, 0.0) + i * 0.5
    return len(table)


class Speedometer:
    """Times `reference_work` between ops to follow the machine's speed.

    On a shared host the CPU speed a process gets can swing between two
    states about 1.7x apart, for seconds to minutes at a time, so raw times
    from runs minutes apart differ by more than any useful bound.  Each
    end-to-end time is therefore scaled by REFERENCE_S over the mean of the
    reference samples taken within twice its length (at least 2 s) before
    its start or after its end: it reads as seconds on a machine where the
    reference work takes REFERENCE_S.  Set-up times use the samples right
    before and after their set-up instead (`scale_adjacent`).  The unscaled
    values are printed beside the metrics.
    """

    REFERENCE_S = 0.0067
    EVERY_S = 0.1          # op time between samples

    def __init__(self):
        self.samples: list[tuple[float, float]] = []   # (taken at, seconds)
        self.due = 0.0
        reference_work()       # warm-up, untimed

    def sample(self) -> None:
        start = perf_counter()
        reference_work()
        self.samples.append((start, perf_counter() - start))

    def maybe_sample(self, busy: float) -> None:
        """Sample once EVERY_S of op time has passed since the last one."""
        if busy >= self.due:
            self.due = busy + self.EVERY_S
            self.sample()

    def scale(self, seconds: float, end: float) -> float:
        """`seconds` of work that finished at `end`."""
        reach = max(2 * seconds, 2.0)
        near = [taken for at, taken in self.samples
                if end - seconds - reach <= at <= end + reach]
        return seconds * self.REFERENCE_S / statistics.fmean(near)

    def scale_adjacent(self, seconds: float, end: float) -> float:
        """`seconds` of work that finished at `end`, by the mean of the
        last sample before it and the first after it.  For work much
        shorter than a speed state, as one set-up is: a window would mix
        both states while the work ran in one."""
        taken_at = [at for at, _ in self.samples]
        before = bisect_right(taken_at, end - seconds) - 1
        after = bisect_left(taken_at, end)
        near = (self.samples[before][1], self.samples[after][1])
        return seconds * self.REFERENCE_S / statistics.fmean(near)


def ratio(a: float, b: float) -> float:
    return a / b if b else 0.0


class Bench:
    def __init__(self, cssnd, workload, trace: bool):
        self.cli = cssnd.cli
        self.workload = workload
        self.tracer = Tracer(cssnd) if trace else None
        self.dir = WORK / f"{workload.name}-s{workload.seed}-p{os.getpid()}"
        self.inst = self.dir / "inst"
        self.plain = self.dir / "plain"
        self.traced = self.dir / "traced"
        # op key -> (seconds, perf_counter at its end) of each passed run
        self.samples: dict[str, list[tuple[float, float]]] = {}
        self.busy = 0.0                  # op seconds spent, traced included
        self.attempted = self.failed = self.traced_ops = 0
        self.problems: list[str] = []
        self.speed = Speedometer()

    # -- invoking the CLI --------------------------------------------------

    def invoke(self, argv, inst: Path, out: Path, op_id=None):
        argv = [arg.format(inst=inst, out=out) for arg in argv]
        stdout, stderr = io.StringIO(), io.StringIO()
        start = perf_counter()
        with redirect_stdout(stdout), redirect_stderr(stderr):
            if op_id is None:
                code = self._main(argv)
            else:
                with self.tracer.installed(op_id), \
                        self.tracer.span(f"cli.{argv[0]}"):
                    code = self._main(argv)
        seconds = perf_counter() - start
        self.busy += seconds
        return code, stdout.getvalue(), seconds

    def _main(self, argv) -> int:
        try:
            return self.cli.main(argv)
        except SystemExit as exc:      # argparse reports usage errors so
            return exc.code            # the op fails on its exit code

    def run_op(self, op: Op, out: Path, op_id=None) -> Result:
        result = Result(0.0, [], [])
        for step in op.steps:
            code, stdout, seconds = self.invoke(step, self.inst, out, op_id)
            result.seconds += seconds
            result.codes.append(code)
            result.stdouts.append(stdout)
        return result

    # -- set-up --------------------------------------------------------------

    def setup(self) -> list[list[tuple[float, float]]]:
        """Generate the inputs SETUP_REPEATS times into fresh directories;
        the last set is used.  Returns, per gen step, the (seconds, end) of
        each repeat.  Traced: generate once more per repeat with spans and
        require identical bytes."""
        steps = self.workload.setup_steps()
        times: list[list[tuple[float, float]]] = [[] for _ in steps]
        for i in range(SETUP_REPEATS):
            inst = self.dir / f"inst{i}"
            inst.mkdir(parents=True)
            gc.collect()
            self.speed.sample()
            for argv, step_times in zip(steps, times):
                step_times.append(self.gen(argv, inst))
            if self.tracer:
                traced = self.dir / f"inst{i}-traced"
                traced.mkdir()
                for argv in steps:
                    self.gen(argv, traced, op_id=f"setup-{i}")
                for path in inst.glob("*.json"):
                    if path.name.endswith(".manifest.json"):
                        continue
                    if path.read_bytes() != (traced / path.name).read_bytes():
                        raise SystemExit(f"perfbench: traced gen of "
                                         f"{path.name} differs")
            self.inst = inst
        self.speed.sample()
        self.plain.mkdir()
        self.traced.mkdir()
        return times

    def gen(self, argv, inst: Path, op_id=None) -> tuple[float, float]:
        code, _, seconds = self.invoke(argv, inst, inst, op_id)
        if code != 0:
            raise SystemExit(f"perfbench: set-up step {' '.join(argv)} "
                             f"exited {code}")
        return seconds, perf_counter()

    # -- ops -----------------------------------------------------------------

    def execute(self, op: Op, check=None, prepare=None, timed=False) -> None:
        """Run one op and its output checks; a failure is counted and
        reported, never retried."""
        self.attempted += 1
        check = check or self.workload.check
        if timed:
            self.speed.maybe_sample(self.busy)
        try:
            if prepare:
                prepare(self.plain)
            if self.tracer and timed:
                result, problems = self.run_pair(op, check)
            else:
                result = self.run_op(op, self.plain)
                problems = check(op, result, self.plain)
        except Exception as exc:  # an op that raises is a failed op
            problems = [f"{op.key}: raised {type(exc).__name__}: {exc}"]
        if problems:
            self.failed += 1
            self.problems += problems
        elif timed:
            self.samples.setdefault(op.key, []).append(
                (result.seconds, perf_counter()))

    def run_pair(self, op: Op, check) -> tuple[Result, list[str]]:
        """The op plain and traced, alternating which runs first so that
        neither gains from the other's warm caches on average.  The traced
        op must enter every layer its commands use and leave the same exit
        codes, standard output and files as the plain op."""
        op_id = f"op{self.attempted}"
        traced_first = self.attempted % 2
        if traced_first:
            traced = self.run_op(op, self.traced, op_id)
        plain = self.run_op(op, self.plain)
        if not traced_first:
            traced = self.run_op(op, self.traced, op_id)
        self.traced_ops += 1
        problems = check(op, plain, self.plain) + [
            f"{op.key}: traced run never entered {layer}"
            for step in op.steps
            for layer in self.tracer.missing_layers(op_id, step[0])
        ] + [f"{op.key}: {problem}" for problem in
             self.tracer.shape_problems(op_id, len(op.steps))]
        same = (
            traced.codes == plain.codes
            and list(map(stable_stdout, traced.stdouts))
            == list(map(stable_stdout, plain.stdouts))
            and digest(self.traced, op.outputs)
            == digest(self.plain, op.outputs)
        )
        if not same:
            problems.append(f"{op.key}: traced outputs differ from the "
                            "untraced op's")
        return plain, problems

    def run(self, seconds: float) -> dict:
        try:
            setup_times = self.setup()
            self.busy = 0.0
            passes = 0
            while passes == 0 or self.busy < seconds:
                gc.collect()
                for op in self.workload.pass_ops(passes):
                    self.execute(op, timed=True)
                passes += 1
            self.speed.sample()
            self.workload.verify(self.execute)
            if self.tracer:
                return self.layer_metrics()
            return self.end_to_end(setup_times)
        finally:
            shutil.rmtree(self.dir, ignore_errors=True)

    # -- metrics -------------------------------------------------------------

    def end_to_end(self, setup_times) -> dict:
        """Op metrics over each distinct op's median time in the run; every
        time scaled to the reference speed (see Speedometer)."""

        def metrics(scale, scale_setup) -> tuple[dict, int]:
            typical = [statistics.median(scale(*run) for run in runs)
                       for runs in self.samples.values()] or [0.0]
            p90 = (statistics.quantiles(typical, n=10, method="inclusive")[8]
                   if len(typical) > 1 else typical[0])
            return {
                "setup_s": sum(
                    statistics.median(scale_setup(*t) for t in step)
                    for step in setup_times),
                "ops_per_s": ratio(len(typical), sum(typical)),
                "op_s.p50": statistics.median(typical),
                "op_s.p90": p90,
            }, sum(1 for t in typical if t > p90)

        def unscaled(seconds, end):
            return seconds

        raw, _ = metrics(unscaled, unscaled)
        values, beyond = metrics(self.speed.scale,
                                 self.speed.scale_adjacent)
        runs = sum(map(len, self.samples.values()))
        self.notes = [
            f"op_s over the medians of {len(self.samples)} distinct ops "
            f"({runs} timed runs); {beyond} distinct ops beyond p90",
            "ops_per_s: distinct ops over the sum of their medians",
            f"setup_s: sum over gen steps of each step's median of "
            f"{SETUP_REPEATS} set-ups",
            f"times scaled to a {Speedometer.REFERENCE_S * 1e3:g} ms "
            f"reference (mean sample "
            f"{statistics.fmean(t for _, t in self.speed.samples) * 1e3:.3f}"
            f" ms, "
            f"{len(self.speed.samples)} samples); unscaled: " + ", ".join(
                f"{name}={value:.6g}" for name, value in raw.items()),
        ]
        return {
            **values,
            "peak_rss_mb":
                resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
            "heuristic_cost": self.workload.heuristic_cost(),
        }

    def layer_metrics(self) -> dict:
        tracer = self.tracer
        ops = self.traced_ops or 1
        totals = dict.fromkeys(PER_LAYER, 0.0)
        op_time, op_spans = 0.0, 0
        # Self times of an op's spans sum to its root spans' durations by
        # construction; shape_problems checks that the tree is whole.
        for name, seconds, op, root in tracer.self_times():
            if op.startswith("setup"):
                if not root:
                    totals[LAYER_METRICS[name]] += seconds / SETUP_REPEATS
                continue
            totals["cli.other_s" if root else LAYER_METRICS[name]] += seconds
            op_time += seconds
            op_spans += 1
        values = {
            name: (total if name == "instgen.generate_s" else total / ops)
            for name, total in totals.items()
        }
        count = tracer.counts
        span_cost = tracer.span_cost()
        builds = count["model.builds"]
        values.update({
            "paths.count": count["paths.count"] / ops,
            "dmam.merges": count["dmam.merges"] / ops,
            "dmam.merge_yield": ratio(count["dmam.merges"],
                                      count["dmam.merge_entering"]),
            "dmam.mixes": count["dmam.mixes"] / ops,
            "model.vars": ratio(count["model.vars"], builds),
            "model.rows": ratio(count["model.rows"], builds),
            "model.nnz": ratio(count["model.nnz"], builds),
            "model.build_nnz_per_s": ratio(count["model.nnz"],
                                           totals["model.build_s"]),
            "model.build_peak_mb": tracer.build_peak_mib(),
            "model.lp_mb": count["model.lp_bytes"] / MIB / ops,
            "model.mps_mb": count["model.mps_bytes"] / MIB / ops,
            "model.check_rows_per_s": ratio(count["model.check_rows"],
                                            totals["model.check_s"]),
            "model.check_violations": count["model.check_violations"] / ops,
            "trace.overhead_s": op_spans / ops * span_cost,
        })
        self.notes = [
            f"per-layer values are means per traced op over {ops} ops "
            f"(times sum to {op_time / ops:.6g} s, the mean time of a "
            f"traced op's root spans)",
            f"trace.overhead_s: {op_spans / ops:.1f} spans per op at "
            f"{span_cost * 1e6:.3f} us per span",
            f"instgen.generate_s is per set-up; model.vars/rows/nnz per "
            f"build ({builds:g} builds)",
        ]
        tracer.write(WORK / "traces" /
                     f"{self.workload.name}-seed{self.workload.seed}.jsonl")
        return values


def report(bench: Bench, values: dict, units: dict) -> dict:
    for name, value in values.items():
        print(f"{name:<26} {value:>16.6f} {units[name]}")
    for note in bench.notes:
        print(f"note: {note}")
    print(f"fail_ratio {bench.failed}/{bench.attempted} ops attempted "
          f"({sum(map(len, bench.samples.values()))} timed ops passed)")
    for problem in bench.problems[:20]:
        print(f"FAILED: {problem}", file=sys.stderr)
    return {
        "correct": not bench.problems,
        "attempted": bench.attempted,
        "failed": bench.failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in values.items()},
    }


def run_all(args) -> int:
    """Every workload, each in its own fresh process, one after another."""
    merged = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOADS:
        print(f"== {name}", flush=True)
        proc = subprocess.run(
            [sys.executable, __file__, "--workload", name, "--seed",
             str(args.seed), "--seconds", str(args.seconds), "--trace",
             str(args.trace)],
            stdout=subprocess.PIPE, text=True, check=False,
        )
        lines = proc.stdout.splitlines()
        print("\n".join(lines[:-1]), flush=True)
        if proc.returncode not in (0, 1) or not lines:
            return proc.returncode or 1
        result = json.loads(lines[-1])
        merged["correct"] &= result["correct"]
        merged["attempted"] += result["attempted"]
        merged["failed"] += result["failed"]
        merged["metrics"].update({f"{name}/{metric}": value for metric, value
                                  in result["metrics"].items()})
    print(json.dumps(merged))
    return 0 if merged["correct"] else 1


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args()
    if args.workload == "all":
        return run_all(args)
    cssnd = load_program(ROOT)
    bench = Bench(cssnd, WORKLOADS[args.workload](args.seed), bool(args.trace))
    values = bench.run(args.seconds)
    units = PER_LAYER if args.trace else END_TO_END
    result = report(bench, values, units)
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
