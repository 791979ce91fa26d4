"""In-memory span recorder for the traced benchmark run.

Spans are recorded from the benchmark side: while a `Tracer` is installed,
the public layer functions that `cssnd.cli` and `cssnd.dmam` call by module
global are replaced by wrappers that open a span around the real call.  The
CLI op itself runs unchanged, so the traced op is the same program as the
untraced one; `run.py` asserts that their outputs are byte-identical.

A span is (name, start, end, parent, op).  A layer's self time is its span's
duration minus the durations of its direct children; because every span of
an op nests under the op's root `cli.<command>` span, the self times of one
op sum exactly to the op's duration.
"""

from __future__ import annotations

import functools
import json
import statistics
import tracemalloc
from collections import Counter
from contextlib import contextmanager
from pathlib import Path
from time import perf_counter

# Span name -> per-layer metric name.  Root spans `cli.<command>` map to
# cli.other_s (JSON, digests, file writes, manifests); `dmam.run` is the
# self time of run_dmam (validation, phase logging, the summary).
LAYER_METRICS = {
    "instgen.generate": "instgen.generate_s",
    "io.load": "io.load_s",
    "core.tsn": "core.tsn_s",
    "core.expand": "core.expand_s",
    "paths.book": "paths.book_s",
    "dmam.run": "dmam.other_s",
    "dmam.construct": "dmam.construct_s",
    "dmam.merge.r": "dmam.merge_s.r",
    "dmam.merge.c": "dmam.merge_s.c",
    "dmam.merge.a": "dmam.merge_s.a",
    "dmam.mix": "dmam.mix_s",
    "dmam.capacity": "dmam.capacity_s",
    "dmam.to_assignment": "dmam.to_assignment_s",
    "analysis.requirements": "analysis.requirements_s",
    "model.build": "model.build_s",
    "model.lp": "model.lp_s",
    "model.mps": "model.mps_s",
    "model.read_solution": "model.read_solution_s",
    "model.check": "model.check_s",
}

# The spans each CLI command must produce, in call order; a missing one
# means the program no longer calls that layer the way the tracer expects.
EXPECTED = {
    "gen": ["instgen.generate"],
    "solve": [
        "io.load", "dmam.run", "core.tsn", "paths.book", "core.expand",
        "dmam.construct", "dmam.merge", "dmam.mix", "dmam.capacity",
        "dmam.to_assignment",
    ],
    "export": ["io.load", "core.tsn", "core.expand", "model.build"],
    "check": [
        "io.load", "core.tsn", "core.expand", "model.build",
        "model.read_solution", "model.check",
    ],
}

MIB = 1024 * 1024


class Tracer:
    def __init__(self, cssnd):
        self.spans: list[list] = []   # [name, start, end, parent, op]
        self.counts: Counter = Counter()
        self.op: str | None = None
        self._stack: list[int] = []
        self._models: list = []       # built this op; counted after it ends
        self._first_build = None      # (fn, args, kwargs) for the memory pass
        self._patches = self._layer_patches(cssnd.cli, cssnd.dmam)

    # -- recording ---------------------------------------------------------

    @contextmanager
    def span(self, name: str):
        record = [name, perf_counter(), None,
                  self._stack[-1] if self._stack else None, self.op]
        self._stack.append(len(self.spans))
        self.spans.append(record)
        try:
            yield
        finally:
            record[2] = perf_counter()
            self._stack.pop()

    def _wrap(self, name, fn, before=None, after=None):
        """`name` is a span name or a function of the call's arguments."""

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            state = before(*args) if before else None
            label = name if isinstance(name, str) else name(*args)
            with self.span(label):
                result = fn(*args, **kwargs)
            if after:
                after(result, args, state)
            return result

        return wrapper

    def _layer_patches(self, cli, dmam):
        counts = self.counts

        def count(key, amount=1):
            counts[key] += amount

        def on_book(book, args, state):
            count("paths.count", len(book.by_id))

        def singles(solution, config):
            return sum(1 for cycle in solution.cycles if not cycle.merged)

        def on_merge(merges, args, entering):
            count("dmam.merges", merges)
            count("dmam.merge_entering", entering)

        def on_build(model, args, state):
            self._models.append(model)

        def on_check(result, args, state):
            count("model.check_rows", len(args[3].constraints))
            count("model.check_violations", len(result.violations))

        tsn = self._wrap("core.tsn", cli.build_time_space_network)
        expand = self._wrap("core.expand", cli.expand_commodities)
        build = self._wrap("model.build", cli.build_mip, after=on_build)
        raw_build = cli.build_mip

        def first_build(*args, **kwargs):
            if self._first_build is None:
                self._first_build = (raw_build, args, kwargs)
            return build(*args, **kwargs)

        return [
            (cli, "generate_instance",
             self._wrap("instgen.generate", cli.generate_instance)),
            (cli, "load_instance", self._wrap("io.load", cli.load_instance)),
            (cli, "build_time_space_network", tsn),
            (dmam, "build_time_space_network", tsn),
            (cli, "expand_commodities", expand),
            (dmam, "expand_commodities", expand),
            (cli, "run_dmam", self._wrap("dmam.run", cli.run_dmam)),
            (dmam, "PathBook",
             self._wrap("paths.book", dmam.PathBook, after=on_book)),
            (dmam, "construct_initial",
             self._wrap("dmam.construct", dmam.construct_initial)),
            (dmam, "merge_phase",
             self._wrap(lambda solution, config: f"dmam.merge.{config}",
                        dmam.merge_phase, before=singles, after=on_merge)),
            (dmam, "mix_phase",
             self._wrap("dmam.mix", dmam.mix_phase,
                        after=lambda n, args, state: count("dmam.mixes", n))),
            (dmam, "resolve_capacity",
             self._wrap("dmam.capacity", dmam.resolve_capacity)),
            (dmam, "finalize_cycles",
             self._wrap("dmam.capacity", dmam.finalize_cycles)),
            (cli, "solution_to_assignment",
             self._wrap("dmam.to_assignment", cli.solution_to_assignment)),
            (cli, "compute_requirements",
             self._wrap("analysis.requirements", cli.compute_requirements)),
            (cli, "build_mip", first_build),
            (cli, "export_lp",
             self._wrap("model.lp", cli.export_lp,
                        after=lambda text, a, s: count("model.lp_bytes",
                                                       len(text)))),
            (cli, "export_mps",
             self._wrap("model.mps", cli.export_mps,
                        after=lambda out, a, s: count("model.mps_bytes",
                                                      len(out[0])))),
            (cli, "read_solution",
             self._wrap("model.read_solution", cli.read_solution)),
            (cli, "check_solution",
             self._wrap("model.check", cli.check_solution, after=on_check)),
        ]

    @contextmanager
    def installed(self, op: str):
        """Route the layer calls of one op through the span wrappers."""
        saved = [(module, attr, getattr(module, attr))
                 for module, attr, _ in self._patches]
        for module, attr, wrapper in self._patches:
            setattr(module, attr, wrapper)
        self.op = op
        try:
            yield
        finally:
            for module, attr, original in saved:
                setattr(module, attr, original)
            self.op = None
            for model in self._models:
                self.counts["model.builds"] += 1
                self.counts["model.vars"] += len(model.variables)
                self.counts["model.rows"] += len(model.constraints)
                self.counts["model.nnz"] += sum(
                    len(row.terms) for row in model.constraints
                )
            self._models.clear()

    # -- analysis ----------------------------------------------------------

    def missing_layers(self, op: str, command: str) -> list[str]:
        seen = [s[0] for s in self.spans if s[4] == op]
        return [
            layer for layer in EXPECTED[command]
            if not any(name == layer or name.startswith(layer + ".")
                       for name in seen)
        ]

    def shape_problems(self, op: str, commands: int) -> list[str]:
        """An op's spans must hang under one root span per CLI command it
        ran, and every span must have closed."""
        spans = [s for s in self.spans if s[4] == op]
        roots = sum(1 for s in spans if s[3] is None)
        problems = [] if roots == commands else [
            f"{roots} root spans for {commands} commands"]
        if any(s[2] is None for s in spans):
            problems.append("a span never closed")
        return problems

    def span_cost(self) -> float:
        """Seconds one span adds to a call: the median over 9 batches of
        2000 empty calls through `_wrap` less 2000 bare calls.  The probe
        spans are dropped again."""

        def noop():
            return None

        wrapped = self._wrap("trace.probe", noop)
        kept = len(self.spans)
        costs = []
        for _ in range(9):
            start = perf_counter()
            for _ in range(2000):
                wrapped()
            middle = perf_counter()
            for _ in range(2000):
                noop()
            costs.append((middle - start) - (perf_counter() - middle))
            del self.spans[kept:]
        return max(statistics.median(costs) / 2000, 0.0)

    def self_times(self) -> list[tuple[str, float, str | None, bool]]:
        """(name, self seconds, op, is_root) per span."""
        covered = [0.0] * len(self.spans)
        for name, start, end, parent, op in self.spans:
            if parent is not None:
                covered[parent] += end - start
        return [
            (name, (end - start) - covered[i], op, parent is None)
            for i, (name, start, end, parent, op) in enumerate(self.spans)
        ]

    def build_peak_mib(self) -> float:
        """Peak traced allocation of the first model build, re-run on its
        own with tracemalloc so the timed spans stay undistorted."""
        if self._first_build is None:
            return 0.0
        fn, args, kwargs = self._first_build
        tracemalloc.start()
        try:
            fn(*args, **kwargs)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        return peak / MIB

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w") as out:
            for name, start, end, parent, op in self.spans:
                out.write(json.dumps({"op": op, "name": name, "start": start,
                                      "end": end, "parent": parent}) + "\n")
