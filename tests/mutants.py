"""Mutants the tests must kill.

Each entry names a file under `src/`, a text that occurs there exactly
once, the text to put in its place, and the tests that must fail once it is
put there.  The runner copies `src/`, `tests/` and `pyproject.toml` into a
temporary directory for each entry, applies the entry to the copy, runs the
named tests with `pytest -x` and requires them to fail.  A no-op control
first runs every named test on an unchanged copy and requires it to pass.
An entry whose text no longer occurs exactly once fails before anything
runs, so a refactor that moves a text must move its mutant too.

Run from the repository root, for all entries or the ones named:

    python tests/mutants.py [name ...]

It exits 0 when the control passes and every entry run is killed.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parent.parent
COPIED = ("src", "tests", "pyproject.toml")


class Mutant(NamedTuple):
    name: str
    file: str                   # relative to src/
    text: str                   # occurs exactly once in `file`
    replacement: str
    tests: tuple[str, ...]      # pytest node ids; at least one must fail


DMAM = "cssnd/dmam.py"
MODEL = "cssnd/model.py"
MATCHING = "cssnd/matching.py"
REACH = ("tests/test_model.py::test_reach_is_make_transposed",)
ORACLE = ("tests/test_oracle.py::test_every_tiny_instance_agrees_with_its_highs_optimum",)
MATES = ("tests/test_matching.py",)


def golden(*outputs: str) -> tuple[str, ...]:
    return tuple(f"tests/test_golden.py::test_output_is_byte_identical[{o}]"
                 for o in outputs)


CATALOGUE = (
    # Phase V ranks lone cycles before merged ones, and leases at a tie
    Mutant(
        "phase-v-rank-without-merged", DMAM,
        "key=lambda item: item[0]\n", "key=lambda item: item[0][1:]\n",
        ("tests/test_dmam.py::test_shortage_outsources_a_lone_cycle_before_a_merged_one",),
    ),
    Mutant(
        "phase-v-outsource-at-lease-price", DMAM,
        "not merged and delta < g", "not merged and delta <= g",
        ("tests/test_dmam.py::test_shortage_leases_at_a_lease_price_equal_to_the_cheapest_delta",),
    ),
    # a commit that appends its cycle puts the closed lone cycles after the
    # merged ones, so asset ids change: small k=10 seed 2 has a lone cycle
    # between merged ones under every config
    Mutant(
        "commit-appends-its-cycle", DMAM,
        "            cycles[cycles.index(replaced[0])] = AssetCycle(\n"
        "                legs=placed, rep_plan=plan, arc_seq=_walk(solution, placed, plan)\n"
        "            )\n"
        "            for cycle in replaced[1:]:\n"
        "                cycles.remove(cycle)\n",
        "            for cycle in replaced:\n"
        "                cycles.remove(cycle)\n"
        "            cycles.append(AssetCycle(\n"
        "                legs=placed, rep_plan=plan, arc_seq=_walk(solution, placed, plan)\n"
        "            ))\n",
        golden(*(f"small10s2.{config}.{ext}" for config in "rca"
                 for ext in ("json", "sol")))
        + ("tests/test_golden.py::test_solve_sweep_is_byte_identical",),
    ),
    Mutant(
        "outsource-keeps-its-trip-markers", DMAM,
        "    for arc_id, _ in cycle.rep_plan:\n"
        "        del solution.svc_registry[arc_id]   # repositioning marker\n",
        "",
        ("tests/test_dmam.py::test_phase_v_releases_the_slots_of_outsourced_cycles",),
    ),
    # one rule cuts every leg from its path; a Phase IV particle drops the
    # hold that rides a dominant path, on either side of the service leg
    Mutant(
        "leg-cut-busy-one-long", DMAM,
        "len(arcs) - 1", "len(arcs)",
        ("tests/test_dmam.py::test_leg_view_cuts_every_leg_by_one_rule",),
    ),
    Mutant(
        "particle-keeps-its-lead-hold", DMAM,
        "leg_view(alt, drop + 1)", "leg_view(alt, drop)",
        golden("large30.a.sol", "large30.a.check", "large30.a.nodv.check")
        + ("tests/test_golden.py::test_solve_sweep_is_byte_identical",),
    ),
    Mutant(
        "particle-keeps-its-trail-hold", DMAM,
        "(alt, 0, drop)", "(alt, 0, drop + 1)",
        golden("small10.c.json", "small10.c.sol", "small10.c.csv")
        + ("tests/test_golden.py::test_solve_sweep_is_byte_identical",),
    ),
    Mutant(
        "routing-cost-scaled-by-0.97", DMAM,
        "                routing += base\n", "                routing += 0.97 * base\n",
        ORACLE,
    ),
    Mutant(
        "strong-strength-halved", MODEL,
        "strength = min(tcs[q].volume, tsn.service_arcs[j].capacity)\n",
        "strength = min(tcs[q].volume, tsn.service_arcs[j].capacity) / 2\n",
        ORACLE,
    ),
    Mutant(
        "lp-wrap-at-the-width", MODEL,
        "if len(current) + 1 + len(part) > width",
        "if len(current) + 1 + len(part) >= width",
        ("tests/test_model.py::test_lp_writer_matches_a_reference",),
    ),
    Mutant(
        "lp-continuation-two-spaces", MODEL,
        'current = "   " + part', 'current = "  " + part',
        ("tests/test_model.py::test_lp_writer_matches_a_reference",),
    ),
    # one dropped `reach` entry per family that states more than one, and
    # an empty `reach` for each family that states one
    Mutant(
        "reach-assign-without-d", MODEL,
        "[whole(y, lambda k: busy(k // n_asset)), whole(d, busy)]",
        "[whole(y, lambda k: busy(k // n_asset))]",
        REACH,
    ),
    Mutant(
        "reach-flow-without-p", MODEL,
        ",\n        whole(p, lambda q: [q * n_nodes + n for n in demand[q]])])",
        "])",
        REACH,
    ),
    Mutant(
        "reach-cap-without-x", MODEL,
        "for lo, hi in y_service + x_service])", "for lo, hi in y_service])",
        REACH,
    ),
    Mutant(
        "reach-strong-without-y", MODEL,
        "\n            + [(lo, hi, every_variant) for lo, hi in y_service])", ")",
        REACH,
    ),
    Mutant(
        "reach-outsource-without-s", MODEL,
        "for q, xq in enumerate(x_col)] + [whole(s, onto(0))])",
        "for q, xq in enumerate(x_col)])",
        REACH,
    ),
    Mutant(
        "reach-transit-empty", MODEL,
        "[(x_col[q], x_col[q] + n_asset, spanned)])", "[])",
        REACH,
    ),
    Mutant(
        "reach-balance-empty", MODEL,
        "[whole(y, lambda k: [\n"
        "        k // n_asset * n_nodes + n for n in ends(asset_arcs[k % n_asset])])])",
        "[])",
        REACH,
    ),
    Mutant(
        "reach-svc-once-empty", MODEL,
        "[(lo, hi, onto(0)) for lo, hi in y_service])", "[])",
        REACH,
    ),
    # the matcher keeps the textbook scheme's every order and tie-break,
    # which the pinned mate arrays of `tests/test_matching.py` hold to
    Mutant(
        "matching-queue-fifo", MATCHING,
        "queue.pop()", "queue.pop(0)", MATES,
    ),
    Mutant(
        "matching-leaves-unreversed", MATCHING,
        "stack.extend(reversed(blossomchilds[t]))",
        "stack.extend(blossomchilds[t])", MATES,
    ),
    Mutant(
        "matching-blossom-ids-fifo", MATCHING,
        "unusedblossoms.pop()", "unusedblossoms.pop(0)", MATES,
    ),
    Mutant(
        "matching-blossom-slack-tie", MATCHING,
        "kslack < sb", "kslack <= sb", MATES,
    ),
    Mutant(
        "matching-vertex-slack-tie", MATCHING,
        "kslack < slackto[bj]", "kslack <= slackto[bj]", MATES,
    ),
    Mutant(
        "matching-dual-delta-tie", MATCHING,
        "dualvar[b] < delta", "dualvar[b] <= delta", MATES,
    ),
)


def check_texts(mutants: tuple[Mutant, ...]) -> list[str]:
    """A message for each entry whose text does not occur exactly once."""
    problems = []
    for m in mutants:
        count = (ROOT / "src" / m.file).read_text().count(m.text)
        if count != 1:
            problems.append(f"{m.name}: its text occurs {count} times in src/{m.file}")
    return problems


def run_tests(mutant: Mutant | None, tests: tuple[str, ...]) -> int:
    """pytest's exit code on a fresh copy, with `mutant` applied if given."""
    with tempfile.TemporaryDirectory(prefix="cssnd-mutant-") as tmp:
        copy = Path(tmp)
        for name in COPIED:
            source = ROOT / name
            if source.is_dir():
                shutil.copytree(source, copy / name,
                                ignore=shutil.ignore_patterns("__pycache__"))
            else:
                shutil.copy2(source, copy / name)
        if mutant is not None:
            target = copy / "src" / mutant.file
            target.write_text(
                target.read_text().replace(mutant.text, mutant.replacement)
            )
        env = {**os.environ, "PYTHONPATH": str(copy / "src")}
        done = subprocess.run(
            [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider",
             *tests],
            cwd=copy, env=env, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
        )
        return done.returncode


def main(names: list[str]) -> int:
    known = {m.name: m for m in CATALOGUE}
    unknown = [name for name in names if name not in known]
    if unknown:
        print("unknown mutant: " + ", ".join(unknown))
        return 1
    mutants = tuple(known[name] for name in names) or CATALOGUE
    problems = check_texts(mutants)
    if problems:
        print("\n".join(problems))
        return 1
    every_test = tuple(dict.fromkeys(t for m in mutants for t in m.tests))
    started = time.perf_counter()
    code = run_tests(None, every_test)
    print(f"{'passes' if code == 0 else 'FAILS':8} no-op control "
          f"({time.perf_counter() - started:.1f} s)")
    failed = code != 0
    for m in mutants:
        started = time.perf_counter()
        code = run_tests(m, m.tests)
        # 1 is "some test failed"; any other code (a collection error, a
        # node id that names nothing, no test run) proves nothing
        verdict = {0: "SURVIVES", 1: "killed"}.get(code, f"EXIT {code}")
        print(f"{verdict:8} {m.name} ({time.perf_counter() - started:.1f} s)")
        failed |= code != 1
    return int(failed)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
