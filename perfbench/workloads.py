"""The three benchmark workloads: their inputs, ops and output checks.

An op is one or more `cssnd` CLI invocations (`steps`) whose argv may hold
`{inst}` (the instance directory) and `{out}` (the op's output directory).
`check(op, result, out)` returns the problems found in an op's outputs; an
op with any problem counts as failed.  `verify(execute)` runs the untimed
checks that need more than one op, after the timed window.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
from pathlib import Path

# Size classes and their k options as the paper's generator defines them
# (`very_large` is spelled `xlarge` on the CLI).  Fixed here so the suite
# does not follow later changes to the program's own tables.
SIZE_CLASSES = {
    "small": (10, 15, 20),
    "medium": (20, 25, 30),
    "large": (30, 36, 42),
    "xlarge": (72, 81, 90),
}
LARGE_K = SIZE_CLASSES["large"]
# Instances per (class, k) in heuristic_suite.
INSTANCE_SEEDS = 4
TOLERANCE = 1e-6


@dataclass(frozen=True)
class Op:
    key: str                       # stable identity across passes
    steps: tuple[tuple[str, ...], ...]
    outputs: tuple[str, ...]       # files under {out} compared byte for byte
    k: int = 0


@dataclass
class Result:
    seconds: float
    codes: list[int]
    stdouts: list[str]


def digest(out: Path, names) -> str:
    sha = hashlib.sha256()
    for name in names:
        with (out / name).open("rb") as data:
            while chunk := data.read(1 << 20):
                sha.update(chunk)
    return sha.hexdigest()


def instance(size: str, k: int, seed: int) -> str:
    return f"{{inst}}/{size}-k{k}-s{seed}.json"


def gen_argv(size: str, k: int, seed: int) -> tuple[str, ...]:
    return ("gen", "--size", size, "--k", str(k), "--seed", str(seed),
            "--out", instance(size, k, seed))


def check_counts(summary: dict, k: int) -> list[str]:
    served = sum(summary[key] for key in ("on_time", "early", "tardy",
                                          "outsourced"))
    return [] if served == k else [f"on-time/early/tardy/outsourced sum to "
                                   f"{served}, expected k={k}"]


class Workload:
    """Shared bookkeeping: each op key's output digest and heuristic cost
    from its first run; later runs of the same key must match exactly."""

    name = ""

    def __init__(self, seed: int):
        self.seed = seed
        self.first: dict[str, tuple[str, float | None]] = {}

    def repeat_problems(self, op: Op, out: Path, cost=None) -> list[str]:
        current = (digest(out, op.outputs), cost)
        if self.first.setdefault(op.key, current) != current:
            return [f"{op.key}: outputs differ from an earlier run of the op"]
        return []

    def verify(self, execute) -> None:
        """Untimed checks that span ops; none by default."""

    def heuristic_cost(self) -> float:
        return sum(cost for _, cost in self.first.values() if cost is not None)


class HeuristicSuite(Workload):
    """`cssnd solve --config {r,c,a}` over every size class, every k option
    and INSTANCE_SEEDS instance seeds per (class, k): 144 solves per pass."""

    name = "heuristic_suite"

    def __init__(self, seed: int):
        super().__init__(seed)
        self.instances = [
            (size, k, INSTANCE_SEEDS * seed + j)
            for size, ks in SIZE_CLASSES.items() for k in ks
            for j in range(INSTANCE_SEEDS)
        ]

    def setup_steps(self):
        return [gen_argv(*spec) for spec in self.instances]

    def pass_ops(self, index: int) -> list[Op]:
        return [
            Op(key=f"{size}-k{k}-s{s}/{config}", k=k,
               steps=(("solve", "--in", instance(size, k, s), "--config",
                       config, "--out", "{out}/schedule.json",
                       "--sol", "{out}/schedule.sol"),),
               outputs=("schedule.json", "schedule.sol"))
            for size, k, s in self.instances for config in "rca"
        ]

    def check(self, op: Op, result: Result, out: Path) -> list[str]:
        if result.codes != [0]:
            return [f"{op.key}: exit codes {result.codes}, expected [0]"]
        summary = json.loads(result.stdouts[0])
        document = json.loads((out / "schedule.json").read_text())
        chosen = sorted(entry["oc"] for entry in document["selected"])
        problems = check_counts(summary, op.k)
        if chosen != list(range(1, op.k + 1)):
            problems.append(f"{op.key}: commodities not each selected once")
        return problems + self.repeat_problems(op, out, summary["total_cost"])


class ExportModels(Workload):
    """`cssnd export` over the three `large` k options, rotating through
    four variants: op j of a pass exports k option j mod 3 in variant j, so
    every pass holds every variant and every k, the heaviest pair (k=42,
    strong MPS) included."""

    name = "export_models"
    K_ORDER = (42, 36, 30)
    VARIANTS = (
        ("lp", ("--format", "lp")),
        ("mps", ("--format", "mps")),
        ("lp-vi", ("--format", "lp", "--vi", "gamma,phi", "--nearopt", "23",
                   "--lambda", "0.25")),
        ("mps-strong", ("--format", "mps", "--strong-forcing")),
    )

    def setup_steps(self):
        return [gen_argv("large", k, self.seed) for k in LARGE_K]

    def op(self, j: int) -> Op:
        k = self.K_ORDER[j % 3]
        label, flags = self.VARIANTS[j]
        target = "model.mps" if "mps" in flags else "model.lp"
        outputs = (target, target + ".names.json") if "mps" in flags \
            else (target,)
        return Op(key=f"large-k{k}/{label}", k=k, outputs=outputs,
                  steps=(("export", "--in", instance("large", k, self.seed),
                          "--out", "{out}/" + target) + flags,))

    def pass_ops(self, index: int) -> list[Op]:
        return [self.op(j) for j in range(4)]

    def check(self, op: Op, result: Result, out: Path) -> list[str]:
        if result.codes != [0]:
            return [f"{op.key}: exit codes {result.codes}, expected [0]"]
        paths = [out / name for name in op.outputs]
        problems = mps_problems(*paths) if len(paths) == 2 \
            else lp_problems(paths[0])
        return [f"{op.key}: {p}" for p in problems] + \
            self.repeat_problems(op, out)

    def verify(self, execute) -> None:
        # Byte-identity across repeats: re-run the first op.  The quality
        # reference: the heuristic's cost on the exported instances.
        execute(self.op(0))
        for k in LARGE_K:
            execute(Op(key=f"large-k{k}/solve-a", k=k,
                       steps=(("solve", "--in",
                               instance("large", k, self.seed),
                               "--config", "a",
                               "--out", "{out}/schedule.json"),),
                       outputs=("schedule.json",)),
                    check=self.check_reference)

    def check_reference(self, op: Op, result: Result, out: Path):
        if result.codes != [0]:
            return [f"{op.key}: exit codes {result.codes}, expected [0]"]
        summary = json.loads(result.stdouts[0])
        return check_counts(summary, op.k) + \
            self.repeat_problems(op, out, summary["total_cost"])


def lp_problems(path: Path) -> list[str]:
    with path.open("rb") as text:
        head = text.read(9)
        text.seek(-5, 2)
        tail = text.read()
    if head == b"Minimize\n" and tail == b"\nEnd\n":
        return []
    return ["LP text lacks its Minimize header or End line"]


def mps_problems(path: Path, sidecar_path: Path) -> list[str]:
    """Every MPS row and column name must map back through the sidecar,
    and the sidecar must name nothing the MPS text lacks."""
    names = set()
    section = None
    with path.open() as text:
        for line in text:
            if not line.startswith(" "):
                section = line.rstrip("\n")
            elif section == "ROWS":
                names.add(line[4:].rstrip("\n"))
            elif section == "COLUMNS" and "'MARKER'" not in line:
                names.add(line[4:12].rstrip())
    names.discard("COST")
    sidecar = json.loads(sidecar_path.read_text())
    problems = []
    if names != set(sidecar):
        problems.append(f"sidecar keys differ from the MPS names "
                        f"({len(sidecar)} against {len(names)})")
    if len(set(sidecar.values())) != len(sidecar):
        problems.append("sidecar maps two MPS names to one model name")
    return problems


class SolveCheck(Workload):
    """`cssnd solve --config a --sol` then `cssnd check --sol` on the three
    `large` k options: the model is built and replayed, not written."""

    name = "solve_check"

    def setup_steps(self):
        return [gen_argv("large", k, self.seed) for k in LARGE_K]

    def op_for(self, k: int) -> Op:
        path = instance("large", k, self.seed)
        return Op(key=f"large-k{k}/solve-check", k=k,
                  outputs=("schedule.sol",),
                  steps=(("solve", "--in", path, "--config", "a",
                          "--sol", "{out}/schedule.sol"),
                         ("check", "--in", path, "--sol",
                          "{out}/schedule.sol")))

    def pass_ops(self, index: int) -> list[Op]:
        # Largest first; the pass ends on k=30, whose schedule `verify`
        # mutates.
        return [self.op_for(k) for k in reversed(LARGE_K)]

    def check(self, op: Op, result: Result, out: Path) -> list[str]:
        if result.codes != [0, 0]:
            return [f"{op.key}: exit codes {result.codes}, expected [0, 0]"]
        summary = json.loads(result.stdouts[0])
        verdict = json.loads(result.stdouts[1])
        problems = check_counts(summary, op.k)
        if not verdict["feasible"] or verdict["violation_count"]:
            problems.append(f"{op.key}: check rejects the heuristic schedule")
        gap = abs(verdict["objective"] - summary["total_cost"])
        if gap > TOLERANCE:
            problems.append(f"{op.key}: checker objective differs from the "
                            f"heuristic total by {gap:g}")
        return problems + self.repeat_problems(op, out, summary["total_cost"])

    def verify(self, execute) -> None:
        # The checker must reject the last schedule with one asset's d_v
        # line dropped: its assign rows then lack the asset.
        k = LARGE_K[0]

        def mutate(out: Path) -> None:
            lines = (out / "schedule.sol").read_text().splitlines(True)
            first = next(i for i, line in enumerate(lines)
                         if line.startswith("d_v"))
            del lines[first]
            (out / "mutated.sol").write_text("".join(lines))

        execute(Op(key=f"large-k{k}/check-mutated", k=k, outputs=(),
                   steps=(("check", "--in", instance("large", k, self.seed),
                           "--sol", "{out}/mutated.sol"),)),
                check=self.check_mutated, prepare=mutate)

    def check_mutated(self, op: Op, result: Result, out: Path) -> list[str]:
        verdict = json.loads(result.stdouts[0])
        if result.codes != [1] or verdict["feasible"]:
            return [f"{op.key}: check accepted a schedule missing a d_v line "
                    f"(exit codes {result.codes})"]
        return []


WORKLOADS = {w.name: w for w in (HeuristicSuite, ExportModels, SolveCheck)}
