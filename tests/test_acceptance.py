"""Acceptance gate: one test per criterion, each printing a pass line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines and timings.
"""

from __future__ import annotations

import itertools
import time

import pytest

from cssnd.analysis import compute_requirements
from cssnd.core import (
    build_time_space_network,
    expand_commodities,
)
from cssnd.dmam import (
    AssetCycle,
    PathBook,
    Solution,
    _overruns,
    finalize_cycles,
    leg_view,
    resolve_capacity,
    run_dmam,
    scopf,
    solution_to_assignment,
    solve_p2,
)
from cssnd.instgen import distance_index, generate_instance, size_class
from cssnd.model import ModelOptions, build_mip, check_solution, count_schema
from cssnd.rng import Stream
from tests.conftest import (
    SAMPLE_GAMMA,
    SAMPLE_OCCUPANCY,
    SAMPLE_PHI,
    SAMPLE_TCS,
    SAMPLE_THETA,
    make_sample_instance,
)
from tests.test_dmam import (
    brute_force_matching, cand, cycle_oracle, leg, matched_pairs,
)
from tests.test_paths import dfs_offered_paths, random_network, random_tc

PASS = "acceptance criterion {n}: PASS ({seconds:.2f}s)"


def report(n: int, t0: float) -> None:
    print(PASS.format(n=n, seconds=time.perf_counter() - t0), flush=True)


def test_criterion_1_worked_example_golden():
    t0 = time.perf_counter()
    instance = make_sample_instance()
    tcs, incidence = expand_commodities(instance)
    assert len(tcs) == 30
    for tc, row in zip(tcs, SAMPLE_TCS):
        tc_id, o_node, d_node, kind, o_phys, d_phys, release, due = row
        assert (
            tc.id,
            tc.origin_node(7),
            tc.dest_node(7),
            tc.kind,
            tc.origin_physical,
            tc.dest_physical,
            tc.release_period,
            tc.due_period,
        ) == (tc_id, o_node, d_node, kind, o_phys, d_phys, release, due)
    summary = compute_requirements(instance)
    for oc_id, expected in SAMPLE_OCCUPANCY.items():
        assert summary.occupancy[oc_id] == expected
    assert summary.phi == SAMPLE_PHI
    assert summary.gamma == SAMPLE_GAMMA
    assert summary.theta == SAMPLE_THETA
    elapsed = time.perf_counter() - t0
    assert elapsed < 1.0
    report(1, t0)


def test_criterion_2_distance_index_replay():
    t0 = time.perf_counter()
    rows = [
        (5, 50, "LR"), (5, 48, "LR"), (5, 38, "MR"), (5, 36, "MR"),
        (5, 34, "CR"), (5, 56, "LR"), (5, 40, "MR"), (5, 26, "CR"),
        (5, 46, "MR"), (5, 42, "MR"),
        (6, 72, "LR"), (6, 52, "MR"), (6, 62, "MR"), (6, 68, "MR"),
        (6, 54, "MR"), (6, 50, "CR"), (6, 66, "MR"), (6, 78, "LR"),
        (6, 46, "CR"), (6, 74, "LR"),
    ]
    for n, total, label in rows:
        assert distance_index(total, n).category == label, (n, total)
    elapsed = time.perf_counter() - t0
    assert elapsed < 1.0
    report(2, t0)


def test_criterion_3_path_enumeration_oracle():
    t0 = time.perf_counter()
    from cssnd.core import CostParams
    from cssnd.paths import OFFERED, enumerate_paths

    costs = CostParams(routing_seed=77)
    stream = Stream(31337, "acceptance-paths")
    for trial in range(200):
        n = stream.randint(2, 5)
        tsn = build_time_space_network(random_network(stream, n), 7)
        tc = random_tc(stream, n)
        ours = {
            p.arcs for p in enumerate_paths(tc, tsn, costs) if p.mode == OFFERED
        }
        oracle = dfs_offered_paths(tc, tsn)
        assert ours == oracle, f"trial {trial}"
    elapsed = time.perf_counter() - t0
    assert elapsed < 10.0
    report(3, t0)


def test_criterion_4_merge_soundness_completeness():
    t0 = time.perf_counter()
    from cssnd.core import CostParams, Instance, PhysicalNetwork

    stream = Stream(2718, "acceptance-merge")
    checked = accepted = 0
    while checked < 500:
        n = stream.randint(2, 5)
        d = [[0] * n for _ in range(n)]
        for i in range(n):
            for j in range(i + 1, n):
                d[i][j] = d[j][i] = stream.randint(1, 3)
        for mid in range(n):
            for i in range(n):
                for j in range(n):
                    if i != j and d[i][mid] + d[mid][j] < d[i][j]:
                        d[i][j] = d[i][mid] + d[mid][j]
        instance = Instance(
            physical=PhysicalNetwork(n, tuple(tuple(r) for r in d)),
            period_count=7,
            commodities=(),
            owned_assets=1,
            leasable_assets=0,
            costs=CostParams(routing_seed=1),
        )
        legs = []
        for oc in (1, 2):
            frm = stream.randint(1, n)
            to = frm
            while to == frm:
                to = stream.randint(1, n)
            busy = instance.physical.d(frm, to) + stream.randint(0, 2)
            if busy >= 7:
                break
            legs.append(leg(oc, frm, to, stream.randint(1, 7), busy))
        if len(legs) < 2:
            continue
        checked += 1
        verdict = max(_overruns(legs, instance)) <= 0
        assert verdict == cycle_oracle(legs[0], legs[1], instance)
        accepted += verdict
    assert 0 < accepted < checked
    elapsed = time.perf_counter() - t0
    assert elapsed < 30.0
    report(4, t0)


@pytest.fixture(scope="module")
def conflict_sets():
    stream = Stream(5150, "acceptance-p2")
    sets = []
    for _ in range(300):
        n = stream.randint(2, 12)
        possible = list(itertools.combinations(range(1, n + 1), 2))
        m = stream.randint(1, min(len(possible), 18))
        order = list(range(len(possible)))
        stream.shuffle(order)
        pairs = [possible[i] for i in order[:m]]
        costs = {p: round(1.0 + 4.0 * stream.unit(), 6) for p in pairs}
        sets.append((pairs, costs))
    return sets


def test_criterion_5_matching_optimality(conflict_sets):
    t0 = time.perf_counter()
    for pairs, costs in conflict_sets:
        got = matched_pairs(pairs, costs)
        used = set()
        for i, j in got:
            assert i not in used and j not in used
            used.update((i, j))
        want_card, want_cost = brute_force_matching(pairs, costs)
        assert len(got) == want_card
        assert sum(costs[p] for p in got) == pytest.approx(want_cost, abs=1e-6)
    elapsed = time.perf_counter() - t0
    assert elapsed < 30.0
    report(5, t0)


def test_criterion_6_scopf_dominance(conflict_sets):
    t0 = time.perf_counter()
    for pairs, costs in conflict_sets:
        candidates = [cand(i, j, costs[(i, j)]) for i, j in pairs]
        assert len(scopf(candidates)) <= len(solve_p2(candidates))
    report(6, t0)


def test_criterion_7_end_to_end_feasibility():
    t0 = time.perf_counter()
    configs = "rca"
    for size in ("small", "medium", "large"):
        cls = size_class(size)
        for index in range(50):
            k = cls.k_options[index % len(cls.k_options)]
            instance = generate_instance(cls, k, seed=9000 + index)
            tsn = build_time_space_network(
                instance.physical, instance.period_count
            )
            tcs, _ = expand_commodities(instance)
            solution, run_report = run_dmam(instance, configs[index % 3])
            breakdown = solution.cost_breakdown()
            assert sum(breakdown.values()) == pytest.approx(
                run_report["total_cost"], abs=1e-6
            )
            model = build_mip(instance, tsn, tcs)
            result = check_solution(
                instance, tsn, tcs, model, solution_to_assignment(solution)
            )
            assert result.feasible, (size, index, result.violations[:3])
            assert result.objective == pytest.approx(
                run_report["total_cost"], abs=1e-6
            )
    elapsed = time.perf_counter() - t0
    assert elapsed < 300.0
    report(7, t0)


def test_criterion_8_heuristic_speed():
    t0 = time.perf_counter()
    large = generate_instance("large", 42, seed=42)
    start = time.perf_counter()
    run_dmam(large, "a")
    large_time = time.perf_counter() - start
    assert large_time < 5.0
    very_large = generate_instance("very_large", 90, seed=42)
    start = time.perf_counter()
    run_dmam(very_large, "a")
    very_large_time = time.perf_counter() - start
    assert very_large_time < 30.0
    report(8, t0)


def test_criterion_9_model_export_sanity():
    t0 = time.perf_counter()
    instance = make_sample_instance()
    tsn = build_time_space_network(instance.physical, instance.period_count)
    tcs, _ = expand_commodities(instance)
    base = build_mip(instance, tsn, tcs)
    schema = count_schema(instance, tsn, tcs)
    assert len(base.variables) == schema["variables"]
    assert len(base.constraints) == schema["rows"]
    with_gamma = build_mip(
        instance, tsn, tcs, options=ModelOptions(add_vi_gamma=True)
    )
    assert len(with_gamma.constraints) == len(base.constraints) + 1
    gamma_row = next(c for c in with_gamma.constraints if c.name == "vi_gamma")
    assert gamma_row.rhs == 2.0
    with_phi = build_mip(
        instance, tsn, tcs, options=ModelOptions(add_vi_phi=True)
    )
    assert len(with_phi.constraints) == len(base.constraints) + 7
    elapsed = time.perf_counter() - t0
    assert elapsed < 1.0
    report(9, t0)


def test_criterion_10_vi_validity_on_random_schedules():
    t0 = time.perf_counter()
    stream = Stream(8080, "acceptance-vi")
    checked = 0
    trial = 0
    while checked < 100:
        trial += 1
        size, k = (("small", 10), ("small", 15), ("small", 20), ("medium", 20))[
            trial % 4
        ]
        instance = generate_instance(size, k, seed=7000 + trial)
        tsn = build_time_space_network(instance.physical, instance.period_count)
        tcs, _ = expand_commodities(instance)
        model = build_mip(
            instance, tsn, tcs,
            options=ModelOptions(add_vi_gamma=True, add_vi_phi=True),
        )
        book = PathBook(instance, tsn)
        solution = Solution(instance=instance, tsn=tsn, book=book)
        for oc in instance.commodities:
            offered = [p for p in book.oc_paths(oc.id) if p.mode == "offered"]
            usable = [
                p
                for p in offered
                if p.arcs[p.lead_holds] not in solution.svc_registry
            ]
            path = usable[stream.randint(0, len(usable) - 1)]
            solution.selected[oc.id] = path
            solution.svc_registry[path.arcs[path.lead_holds]] = path.id
            solution.cycles.append(AssetCycle(legs=[leg_view(path)]))
        resolve_capacity(solution)
        finalize_cycles(solution)
        result = check_solution(
            instance, tsn, tcs, model, solution_to_assignment(solution)
        )
        base = [v for v in result.violations if not v.startswith("vi_")]
        assert base == [], base[:3]
        vi_rows = [v for v in result.violations if v.startswith("vi_")]
        assert vi_rows == [], vi_rows[:3]
        checked += 1
    report(10, t0)
