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
PATHS = "cssnd/paths.py"
CLI = "cssnd/cli.py"
RNG = "cssnd/rng.py"
REACH = ("tests/test_model.py::test_reach_is_make_transposed",)
ORACLE = ("tests/test_oracle.py::test_every_tiny_instance_agrees_with_its_highs_optimum",)
MATES = ("tests/test_matching.py",)
LEG_SITES = (
    "tests/test_golden.py::test_solve_sweep_is_byte_identical",
    "tests/test_dmam.py::test_refused_commit_marks_the_trip_slots_it_freed_again",
)
EXPLORE_SPY = ("tests/test_dmam.py::"
               "test_explore_pair_computes_the_gaps_only_of_pairs_within_the_horizon")
LONE_CYCLES = "tests/test_dmam.py::test_each_offered_selection_rides_one_lone_cycle_of_its_own"
# the template of an arc entry under a schedule's `cycles`, four levels in
ARC_TEMPLATE = '''_ARC = """{
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
        }"""'''


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
    # a leg is cut where an asset runs it: Phase II's lone cycles run whole
    # chains, a merge runs its new paths, and no leg is paired with itself
    Mutant(
        "lone-cycle-runs-its-service-leg", DMAM,
        "AssetCycle(legs=[leg_view(path)])",
        "AssetCycle(legs=[leg_view(path, path.lead_holds, path.lead_holds + 1)])",
        LEG_SITES + (LONE_CYCLES,),
    ),
    Mutant(
        "merge-commits-the-old-paths", DMAM,
        "[leg_view(c.new_one), leg_view(c.new_two)]",
        "[leg_view(c.path_one), leg_view(c.path_two)]",
        LEG_SITES,
    ),
    Mutant(
        "pair-order-pairs-a-leg-with-itself", DMAM,
        "leg2 is leg1 or ", "",
        LEG_SITES + (LONE_CYCLES,),
    ),
    # a pair whose trips and busy spans overrun the horizon is refused
    # before its gaps are computed, and only such a pair
    Mutant(
        "explore-bound-without-return-trip", DMAM,
        "            + distance[leg2.phys_to - 1][leg1.phys_from - 1]\n", "",
        (EXPLORE_SPY,),
    ),
    Mutant(
        "explore-bound-at-equality", DMAM,
        "leg1.busy + leg2.busy > instance.period_count",
        "leg1.busy + leg2.busy >= instance.period_count",
        golden("sample.a.sol", "small10.r.sol") + (EXPLORE_SPY,),
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
        "per_arc(y, asset_periods, period_count), per_arc(d, [busy], period_count)])",
        "per_arc(y, asset_periods, period_count)])",
        REACH,
    ),
    Mutant(
        "reach-flow-without-p", MODEL,
        ", whole(p, at_ends)])", "])",
        REACH,
    ),
    Mutant(
        "reach-cap-without-x", MODEL,
        "per_arc(x, service_rows + [()] * n_out, 0, 1), ", "",
        REACH,
    ),
    Mutant(
        "reach-outsource-without-s", MODEL,
        ",\n            whole(s, lambda k: ((k, -tcs[k // n_out].volume, 1),))])",
        "])",
        REACH,
    ),
    Mutant(
        "reach-transit-empty", MODEL,
        "[(x_col[q], x_col[q] + n_asset, in_banned)])", "[])",
        REACH,
    ),
    Mutant(
        "reach-balance-empty", MODEL,
        "[per_arc(y, asset_ends, n_nodes)])", "[])",
        REACH,
    ),
    Mutant(
        "reach-svc-once-empty", MODEL,
        "[per_arc(y, service_rows, 0, 1)], rhs=1.0)", "[], rhs=1.0)",
        REACH,
    ),
    # a `reach` entry states a column's coefficient and term index too, and
    # its family the rhs of every row; the check sums each row in term order
    Mutant(
        "reach-assign-d-at-plus-one", MODEL,
        "(r, -1.0, len(span))", "(r, 1.0, len(span))",
        REACH,
    ),
    Mutant(
        "reach-flow-p-stated-first", MODEL,
        "(q * n_nodes + n, volume, len(arc_nodes[n][0]))",
        "(q * n_nodes + n, volume, 0)",
        REACH,
    ),
    Mutant(
        "reach-head-among-the-out-arcs", MODEL,
        "len(out[head]) + at_head", "at_head",
        REACH,
    ),
    Mutant(
        "reach-svc-once-rhs-zero", MODEL,
        "rhs=1.0)", ")",
        REACH,
    ),
    # the one reader of the per-arc tables moves each owner's column into
    # that owner's rows and terms, and an arc spans its last period too
    Mutant(
        "reach-without-the-owner-row-offset", MODEL,
        "row, term = owner * rows_per_owner, owner * term_step",
        "row, term = 0, owner * term_step",
        REACH,
    ),
    Mutant(
        "reach-without-the-owner-term-step", MODEL,
        "row, term = owner * rows_per_owner, owner * term_step",
        "row, term = owner * rows_per_owner, 0",
        REACH,
    ),
    # an arc's head is where it arrives
    Mutant(
        "arc-head-at-depart", MODEL,
        "(arc.phys_to - 1) * period_count + arc.arrive - 1",
        "(arc.phys_to - 1) * period_count + arc.depart - 1",
        ("tests/test_model.py::test_arc_end_positions_are_ts_node_less_one",),
    ),
    Mutant(
        "spans-drop-the-last-period", MODEL,
        "range(min(arc.duration, period_count))",
        "range(min(arc.duration, period_count) - 1)",
        ("tests/test_model.py::test_spans_table_is_arc_spans_both_ways",),
    ),
    Mutant(
        "replay-in-column-order", MODEL,
        "terms.sort()", "terms.sort(key=lambda entry: entry[2])",
        ("tests/test_model.py::test_checker_matches_a_term_by_term_reference",),
    ),
    # a name goes to the first family, in family order, that parses it
    Mutant(
        "holders-narrowest-head-first", MODEL,
        "len(head) for head in heads}, reverse=True)",
        "len(head) for head in heads})",
        ("tests/test_model.py::test_a_name_goes_to_the_first_family_that_parses_it",),
    ),
    # the book makes a path once, and Phase II picks from per-leg prices,
    # where a lead's cheapest id is its shape with trail 0
    Mutant(
        "book-path-made-at-every-read", PATHS,
        "path = self._paths[index] = self._make(index)",
        "path = self._make(index)",
        ("tests/test_paths.py::test_an_id_always_gives_the_same_path_object",),
    ),
    Mutant(
        "dedication-takes-trail-one", DMAM,
        "index = shapes.index(lead, 0)", "index = shapes.index(lead, 1)",
        ("tests/test_dmam.py::test_dedication_picks_the_least_free_path_by_cost_and_id",),
    ),
    # the schedule writer lays out what json.dumps(indent=2) would
    Mutant(
        "schedule-arc-one-level-out", CLI,
        ARC_TEMPLATE, ARC_TEMPLATE.replace("\n  ", "\n"),
        ("tests/test_cli.py::test_schedule_writer_matches_the_stdlib_on_edge_inputs",),
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
    # without the mask between a shift-xor and its multiply, the bits that
    # the shift brought down from the next lane spill back into it
    Mutant(
        "lanes-spill-into-the-next", RNG,
        "z = ((s ^ (s >> 30)) & low) * MIX1 & low",
        "z = (s ^ (s >> 30)) * MIX1 & low",
        ("tests/test_rng.py::test_lanes_finish_each_lane_as_the_rule_does",),
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
