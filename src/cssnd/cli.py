"""Command-line frontend.

Subcommands: gen, analyze, export, solve, check, bench.  Exit code 0 on
success, 1 on a domain error (bad instance, unusable arguments), 2 on a
usage error.  Primary output files are byte-deterministic for fixed inputs;
run manifests additionally carry wall-clock telemetry and are written next
to the primary output as <output>.manifest.json.
"""

from __future__ import annotations

import argparse
import functools
import hashlib
import json
import platform
import sys
import time
from pathlib import Path

from . import __version__
from .analysis import compute_requirements
from .core import CssndError, build_time_space_network, expand_commodities
from .dmam import run_dmam, solution_to_assignment
from .instgen import generate_instance, size_class
from .io import load_instance, read_text, save_instance
from .model import (
    ModelOptions,
    build_mip,
    check_solution,
    export_lp,
    export_mps,
    read_solution,
)


def _file_digest(path: str | Path) -> str:
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


def _run(args: argparse.Namespace) -> int:
    """Run one subcommand, timed, and write its manifest.

    Every `cmd_*` takes args and returns (exit code, primary output path
    or None, instance hash, wall-clock entries besides the total).  The
    manifest goes to --manifest, else next to the primary output, else
    nowhere.
    """
    started = time.perf_counter()
    code, out_path, instance_hash, wall_clock = args.func(args)
    target = args.manifest or (
        f"{out_path}.manifest.json" if out_path else None
    )
    if target is None:
        return code
    flags = {
        k: v
        for k, v in sorted(vars(args).items())
        if k not in ("func", "manifest") and v is not None
    }
    manifest = {
        "command": args.command,
        "instance_hash": instance_hash,
        "seed": getattr(args, "seed", None),
        "flags": flags,
        "versions": {"cssnd": __version__, "python": platform.python_version()},
        "wall_clock": {**wall_clock, "total": time.perf_counter() - started},
    }
    Path(target).write_text(json.dumps(manifest, indent=2) + "\n")
    return code


def cmd_gen(args):
    instance = generate_instance(args.size, args.k, args.seed)
    save_instance(instance, args.out)
    return 0, args.out, _file_digest(args.out), {}


def cmd_analyze(args):
    instance = load_instance(args.input)
    summary = compute_requirements(instance, in_transit=args.in_transit)
    lines = ["kind,period,value"]
    for t in range(1, instance.period_count + 1):
        lines.append(f"phi,{t},{summary.phi_at(t)}")
    lines.append(f"gamma,,{summary.gamma}")
    lines.append(f"theta,,{summary.theta}")
    Path(args.out).write_text("\n".join(lines) + "\n")
    return 0, args.out, _file_digest(args.input), {}


def _parse_vi(raw: str | None) -> tuple[bool, bool]:
    if not raw:
        return False, False
    names = {piece.strip() for piece in raw.split(",") if piece.strip()}
    unknown = names - {"gamma", "phi"}
    if unknown:
        raise CssndError("unknown valid-inequality family: "
                         + ", ".join(sorted(unknown)))
    return "gamma" in names, "phi" in names


def _load_model(args, options: ModelOptions):
    """Load --in and build its exact model under `options`."""
    instance = load_instance(args.input)
    tsn = build_time_space_network(instance.physical, instance.period_count)
    tcs, _ = expand_commodities(instance)
    model = build_mip(instance, tsn, tcs, options=options)
    return instance, tsn, tcs, model


def cmd_export(args):
    vi_gamma, vi_phi = _parse_vi(args.vi)
    options = ModelOptions(
        add_vi_gamma=vi_gamma,
        add_vi_phi=vi_phi,
        near_opt=args.nearopt,
        strong_forcing=args.strong_forcing,
        shift_restriction=args.lam,
        literal_shift_rule=args.literal_shift,
    )
    _, _, _, model = _load_model(args, options)
    (export_lp if args.format == "lp" else export_mps)(model, args.out)
    return 0, args.out, _file_digest(args.input), {}


# The `solve --out` schedule as json.dumps(document, indent=2) lays it out,
# written from templates: an arc entry under `cycles` sits four levels in,
# a cycle or `selected` entry two.  Scalars other than ints go through
# json.dumps, so floats and strings are encoded as the stdlib encodes them.
_DOCUMENT = """\
{
  "instance_hash": %s,
  "config": %s,
  "summary": %s,
  "cost_breakdown": %s,
  "selected": %s,
  "cycles": %s,
  "outsourced": %s
}
"""
_SELECTED = """{
      "oc": %d,
      "tc": %d,
      "kind": %s,
      "mode": %s,
      "arcs": %s,
      "cost": %s
    }"""
_CYCLE = """{
      "asset": %d,
      "kind": %s,
      "carried_tcs": %s,
      "arcs": %s
    }"""
_ARC = """{
          "arc": %d,
          "kind": %s,
          "from": [
            %d,
            %d
          ],
          "to": [
            %d,
            %d
          ]
        }"""


def _block(items, depth: int, brackets: str = "[]") -> str:
    """A JSON array, or with brackets "{}" an object, of encoded `items`
    whose brackets sit `depth` levels in, laid out as json.dumps(indent=2)
    lays it out.  An item's own inner lines carry their indent already."""
    if not items:
        return brackets
    pad = "\n" + "  " * (depth + 1)
    return f"{brackets[0]}{pad}{(',' + pad).join(items)}\n{'  ' * depth}{brackets[1]}"


def _members(mapping: dict, depth: int) -> str:
    dumps = json.dumps
    return _block([f"{dumps(k)}: {dumps(v)}" for k, v in mapping.items()],
                  depth, "{}")


def _schedule_text(solution, report, digest: str) -> str:
    """The schedule JSON that `solve --out` writes, newline-terminated."""
    dumps = json.dumps
    arcs = solution.tsn.arcs

    @functools.cache
    def arc_entry(arc_id: int) -> str:
        arc = arcs[arc_id - 1]
        return _ARC % (arc.id, dumps(arc.kind), arc.phys_from, arc.depart,
                       arc.phys_to, arc.arrive)

    selected = []
    for oc_id in sorted(solution.selected):
        path = solution.selected[oc_id]
        selected.append(_SELECTED % (
            oc_id, path.tc_id, dumps(path.kind), dumps(path.mode),
            _block([str(a) for a in path.arcs], 3), dumps(path.cost),
        ))
    cycles = [
        _CYCLE % (
            cycle.asset_id, dumps(cycle.kind),
            _block([str(t) for t in sorted(leg.path.tc_id for leg in cycle.legs)], 3),
            _block([arc_entry(a) for a in cycle.arc_seq], 3),
        )
        for cycle in solution.cycles
    ]
    return _DOCUMENT % (
        dumps(digest), dumps(report["config"]),
        _members(solution.summary(), 1), _members(solution.cost_breakdown(), 1),
        _block(selected, 1), _block(cycles, 1),
        _block([str(oc) for oc in sorted(solution.outsourced)], 1),
    )


def cmd_solve(args):
    instance = load_instance(args.input)
    digest = _file_digest(args.input)
    solution, report = run_dmam(instance, args.config)
    if args.out:
        Path(args.out).write_text(_schedule_text(solution, report, digest))
    if args.report:
        row = {
            "instance": Path(args.input).stem,
            "n_physical": instance.physical.node_count,
            "k": len(instance.commodities),
            "v1": instance.owned_assets,
            "v2": instance.leasable_assets,
            "config": report["config"],
            "owned": report["owned_used"],
            "leased": report["leased"],
            "on_time": report["on_time"],
            "early": report["early"],
            "tardy": report["tardy"],
            "outsourced": report["outsourced"],
            "total_cost": f"{report['total_cost']:.6f}",
        }
        lines = [",".join(row), ",".join(map(str, row.values()))]
        Path(args.report).write_text("\n".join(lines) + "\n")
    if args.sol:
        assignment = solution_to_assignment(solution)
        lines = [f"{name} {value:.17g}" for name, value in assignment.items()]
        Path(args.sol).write_text("\n".join(lines) + "\n")
    summary = report.copy()
    timings = summary.pop("timings")
    summary.pop("cycle_counts")
    print(json.dumps(summary))
    return 0, args.out or args.report, digest, timings


def cmd_check(args):
    instance, tsn, tcs, model = _load_model(args, ModelOptions())
    assignment = read_solution(read_text(args.sol))
    result = check_solution(instance, tsn, tcs, model, assignment)
    verdict = {
        "feasible": result.feasible,
        "objective": result.objective,
        "violations": result.violations[:20],
        "violation_count": len(result.violations),
        "violations_by_family": result.violations_by_family,
        "summary": result.summary,
        "instance_hash": _file_digest(args.input),
    }
    print(json.dumps(verdict, indent=2))
    return 0 if result.feasible else 1, None, verdict["instance_hash"], {}


def cmd_bench(args):
    sizes = [s.strip() for s in args.sizes.split(",") if s.strip()]
    if not sizes:
        raise CssndError("--sizes names no size class")
    if args.per_size < 0:
        raise CssndError(f"--per-size must be 0 or more, not {args.per_size}")
    rows = ["instance,size,n_physical,k,seed,obj_r,obj_c,obj_a,time_r,time_c,time_a"]
    for size in sizes:
        cls = size_class(size)
        for index in range(args.per_size):
            k = cls.k_options[index % len(cls.k_options)]
            seed = args.seed + index
            instance = generate_instance(cls, k, seed)
            row = [f"bench.{cls.label}.c{k}.s{seed}", cls.label,
                   str(cls.n_physical), str(k), str(seed)]
            times = []
            for config in "rca":
                start = time.perf_counter()
                _, report = run_dmam(instance, config)
                times.append(f"{time.perf_counter() - start:.3f}")
                row.append(f"{report['total_cost']:.6f}")
            rows.append(",".join(row + times))
    Path(args.out).write_text("\n".join(rows) + "\n")
    return 0, args.out, "", {}


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built on the first call and then reused."""
    parser = argparse.ArgumentParser(
        prog="cssnd",
        description=(
            "Capacity-scaling service network design: generate instances, "
            "export the exact model, solve with the merge heuristic, and "
            "check solutions."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("gen", help="generate a random instance")
    gen.add_argument("--size", required=True,
                     choices=["small", "medium", "large", "xlarge"])
    gen.add_argument("--k", type=int, required=True)
    gen.add_argument("--seed", type=int, required=True)
    gen.add_argument("--out", required=True)
    gen.add_argument("--manifest")
    gen.set_defaults(func=cmd_gen)

    analyze = sub.add_parser("analyze", help="per-period requirement profile")
    analyze.add_argument("--in", dest="input", required=True)
    analyze.add_argument("--out", required=True)
    analyze.add_argument("--in-transit", action="store_true",
                         help="intersect transit supports instead of windows")
    analyze.add_argument("--manifest")
    analyze.set_defaults(func=cmd_analyze)

    export = sub.add_parser("export", help="write the model as LP or MPS")
    export.add_argument("--in", dest="input", required=True)
    export.add_argument("--format", choices=["lp", "mps"], default="lp")
    export.add_argument(
        "--vi",
        help="comma list from: gamma, phi (phi is not a valid inequality: "
        "feasible schedules can break it)",
    )
    export.add_argument("--nearopt", type=int, choices=[21, 22, 23],
                        help="fleet bound from theta; a restriction that may "
                        "cut off the optimum")
    export.add_argument("--lambda", dest="lam", type=float)
    export.add_argument("--literal-shift", action="store_true",
                        help="literal form of the --lambda cap; needs --lambda")
    export.add_argument("--strong-forcing", action="store_true")
    export.add_argument("--out", required=True)
    export.add_argument("--manifest")
    export.set_defaults(func=cmd_export)

    solve = sub.add_parser("solve", help="run the merge heuristic")
    solve.add_argument("--in", dest="input", required=True)
    solve.add_argument("--config", choices=["r", "c", "a"], default="a")
    solve.add_argument("--out", help="schedule JSON path")
    solve.add_argument("--report", help="report CSV path")
    solve.add_argument("--sol", help="write the schedule as model variable values")
    solve.add_argument("--manifest")
    solve.set_defaults(func=cmd_solve)

    check = sub.add_parser("check", help="verify an external solution file")
    check.add_argument("--in", dest="input", required=True)
    check.add_argument("--sol", required=True)
    check.add_argument("--manifest")
    check.set_defaults(func=cmd_check)

    bench = sub.add_parser("bench", help="run all configs over a suite")
    bench.add_argument("--sizes", default="small,medium,large")
    bench.add_argument("--per-size", type=int, default=3)
    bench.add_argument("--seed", type=int, default=1)
    bench.add_argument("--out", required=True)
    bench.add_argument("--manifest")
    bench.set_defaults(func=cmd_bench)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return _run(args)
    except (CssndError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
