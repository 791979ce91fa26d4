"""Path enumeration against a brute-force DFS oracle, and pricing rules."""

from __future__ import annotations

import hashlib
import json
from dataclasses import replace

import pytest

from cssnd.core import (
    CostParams,
    PhysicalNetwork,
    TimeSpaceNetwork,
    TransformedCommodity,
    build_time_space_network,
    cyclic_span,
    expand_commodities,
    wrap_period,
)
from cssnd.dmam import PathBook, run_dmam, solution_to_assignment
from cssnd.instgen import SIZE_CLASSES, generate_instance
from cssnd.model import build_mip, check_solution
from cssnd.paths import OFFERED, CommodityPath, enumerate_paths, path_cost
from cssnd.rng import Stream
from tests.conftest import make_sample_instance, routing_rows


def dfs_offered_paths(tc, tsn):
    """Every chain of arcs from the release node using exactly one service
    leg, holding arcs otherwise, arriving at the destination no later than
    the due period.  Walks the arc graph directly."""
    period_count = tsn.period_count
    span = cyclic_span(tc.release_period, tc.due_period, period_count)
    results = set()
    by_tail = {}
    for arc in tsn.holding_arcs + tsn.service_arcs:
        by_tail.setdefault((arc.phys_from, arc.depart), []).append(arc)

    def walk(phys, period, elapsed, used_service, chain):
        if used_service and phys == tc.dest_physical:
            results.add(tuple(chain))
        if elapsed >= span:
            return
        for arc in by_tail.get((phys, period), []):
            if arc.kind == "service":
                if used_service or arc.phys_to != tc.dest_physical:
                    continue
                served = True
            else:
                # the oracle never holds away from the endpoint terminals
                if phys not in (tc.origin_physical, tc.dest_physical):
                    continue
                if phys == tc.dest_physical and not used_service:
                    continue
                served = used_service
            if elapsed + arc.duration > span:
                continue
            chain.append(arc.id)
            walk(arc.phys_to, arc.arrive, elapsed + arc.duration, served, chain)
            chain.pop()

    walk(tc.origin_physical, tc.release_period, 0, False, [])
    return results


def random_tc(stream, n, period_count=7):
    origin = stream.randint(1, n)
    dest = origin
    while dest == origin:
        dest = stream.randint(1, n)
    release = stream.randint(1, period_count)
    span = stream.randint(0, period_count - 1)
    return TransformedCommodity(
        id=1,
        parent_id=1,
        kind=("early", "original", "tardy")[stream.randint(0, 2)],
        origin_physical=origin,
        dest_physical=dest,
        release_period=release,
        due_period=wrap_period(release + span, period_count),
        volume=1.0,
    )


def random_network(stream, n):
    d = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            d[i][j] = d[j][i] = stream.randint(1, 3)
    for k in range(n):
        for i in range(n):
            for j in range(n):
                if i != j and d[i][k] + d[k][j] < d[i][j]:
                    d[i][j] = d[i][k] + d[k][j]
    return PhysicalNetwork(n, tuple(tuple(row) for row in d))


COSTS = CostParams(routing_seed=11)


def test_enumeration_matches_dfs_oracle():
    stream = Stream(2024, "paths-oracle")
    for trial in range(200):
        n = stream.randint(2, 5)
        tsn = build_time_space_network(random_network(stream, n), 7)
        tc = random_tc(stream, n)
        offered = {
            p.arcs for p in enumerate_paths(tc, tsn, COSTS) if p.mode == OFFERED
        }
        assert offered == dfs_offered_paths(tc, tsn), f"trial {trial}"


def test_path_count_formula():
    stream = Stream(77, "count")
    for _ in range(50):
        n = stream.randint(2, 5)
        tsn = build_time_space_network(random_network(stream, n), 7)
        tc = random_tc(stream, n)
        d = tsn.service_arc(tc.origin_physical, tc.dest_physical, 1).duration
        span = cyclic_span(tc.release_period, tc.due_period, 7)
        offered = [p for p in enumerate_paths(tc, tsn, COSTS) if p.mode == OFFERED]
        if span < d:
            assert offered == []
        else:
            slack = span - d
            assert len(offered) == (slack + 1) * (slack + 2) // 2


def test_zero_slack_single_offered_path():
    tsn = build_time_space_network(random_network(Stream(5, "z"), 3), 7)
    d = tsn.service_arc(1, 2, 1).duration
    tc = TransformedCommodity(1, 1, "original", 1, 2, 3, wrap_period(3 + d, 7), 1.0)
    offered = [p for p in enumerate_paths(tc, tsn, COSTS) if p.mode == OFFERED]
    assert len(offered) == 1
    assert offered[0].lead_holds == 0 and offered[0].trail_holds == 0


def test_tight_window_still_outsourced():
    d = ((0, 3, 3), (3, 0, 3), (3, 3, 0))
    tsn = build_time_space_network(PhysicalNetwork(3, d), 7)
    tc = TransformedCommodity(1, 1, "original", 1, 2, 4, 5, 1.0)  # span 1 < 3
    result = enumerate_paths(tc, tsn, COSTS)
    assert [p.mode for p in result] == ["outsourced"]


def validate_path(
    path: CommodityPath, tc: TransformedCommodity, tsn: TimeSpaceNetwork
) -> list[str]:
    """Re-check the chain against its TC: contiguity, window, single leg."""
    problems = []
    period_count = tsn.period_count
    arcs = [next(a for a in tsn.arcs if a.id == arc_id) for arc_id in path.arcs]
    legs = [a for a in arcs if a.kind != "hold"]
    if len(legs) != 1:
        problems.append(f"path {path.id}: {len(legs)} non-holding legs")
    node = (tc.origin_physical, tc.release_period)
    for arc in arcs:
        if (arc.phys_from, arc.depart) != node:
            problems.append(f"path {path.id}: chain breaks at arc {arc.id}")
            break
        node = (arc.phys_to, arc.arrive)
    span = tc.window_span(period_count)
    arrival_offset = cyclic_span(tc.release_period, path.arrival_period, period_count)
    if path.mode == OFFERED and arrival_offset > span:
        problems.append(f"path {path.id}: arrives after the due period")
    if node != (path.dest_physical, path.arrival_period):
        problems.append(f"path {path.id}: arrival field disagrees with chain")
    return problems


def test_paths_revalidate():
    stream = Stream(31, "reval")
    for _ in range(40):
        n = stream.randint(2, 5)
        tsn = build_time_space_network(random_network(stream, n), 7)
        tc = random_tc(stream, n)
        for path in enumerate_paths(tc, tsn, COSTS):
            if path.mode == OFFERED:
                assert validate_path(path, tc, tsn) == []


def test_path_cost_examples():
    assert path_cost(0.8, 0.15, 2, 1, 1.0) == pytest.approx(0.95)
    assert path_cost(0.8, 0.15, 2, 1, 1.2) == pytest.approx(1.14)
    assert path_cost(26.3, 0.15, 3, 3, 1.0) == pytest.approx(26.3)


def test_same_tc_shapes_price_identically():
    tsn = build_time_space_network(random_network(Stream(8, "p"), 4), 7)
    tc = TransformedCommodity(6, 2, "tardy", 1, 3, 2, 6, 1.0)
    offered = [p for p in enumerate_paths(tc, tsn, COSTS) if p.mode == OFFERED]
    # shapes sharing a service leg (same departure) carry the same price
    by_depart = {}
    for p in offered:
        by_depart.setdefault(p.lead_holds, set()).add(round(p.cost, 12))
    for prices in by_depart.values():
        assert len(prices) == 1


def _with_volumes(volumes):
    """The worked sample with commodity volumes replaced by `volumes`."""
    instance = make_sample_instance()
    commodities = tuple(
        replace(oc, volume=volumes.get(oc.id, oc.volume))
        for oc in instance.commodities
    )
    return replace(instance, commodities=commodities)


@pytest.mark.parametrize("volumes", [
    {k: 0.5 for k in range(1, 11)},     # every path billed per unit
    {1: 2.0},                           # above the service capacity 1.0
], ids=["half", "above_capacity"])
def test_heuristic_total_equals_checker_objective(volumes):
    instance = _with_volumes(volumes)
    solution, report = run_dmam(instance, "a")
    tsn = solution.tsn
    tcs, _ = expand_commodities(instance)
    result = check_solution(
        instance, tsn, tcs, build_mip(instance, tsn, tcs),
        solution_to_assignment(solution),
    )
    assert result.feasible, result.violations[:5]
    assert result.objective == pytest.approx(report["total_cost"], abs=1e-6)
    for oc_id, volume in volumes.items():
        if volume > 1.0:
            assert solution.selected[oc_id].mode == "outsourced"


def test_volume_scales_per_unit_costs_only():
    tsn = build_time_space_network(random_network(Stream(8, "p"), 4), 7)
    unit = TransformedCommodity(6, 2, "tardy", 1, 3, 2, 6, 1.0)
    half = TransformedCommodity(6, 2, "tardy", 1, 3, 2, 6, 0.5)
    for one, other in zip(enumerate_paths(unit, tsn, COSTS),
                          enumerate_paths(half, tsn, COSTS)):
        assert one.arcs == other.arcs
        holding = 1.2 * 0.15 * (4 - one.leg_duration)
        if one.mode == OFFERED:
            assert other.cost == pytest.approx(one.cost / 2)
        else:   # the outsourced leg is billed per shipment
            assert other.cost == pytest.approx(one.cost - holding / 2)
    big = TransformedCommodity(6, 2, "tardy", 1, 3, 2, 6, 1.5)
    assert [p.mode for p in enumerate_paths(big, tsn, COSTS)] == ["outsourced"]


def _priced_by_table(instance):
    """`instance` priced from a routing table of its own seeded prices."""
    table = {tuple(row[:5]): row[5] for row in routing_rows(instance)}
    return replace(instance, costs=CostParams(routing_table=table))


def _pin_instances():
    for name, cls in SIZE_CLASSES.items():
        yield name, generate_instance(cls, cls.k_options[0], 1)
    yield "sample_above_capacity", _with_volumes({1: 2.0})
    yield "small10_table", _priced_by_table(generate_instance("small", 10, 1))


# sha256 over the path layer of `_pin_instances`: every arc of each network,
# then every path of each book in TC order, as plain field tuples
PATH_LAYER_SHA256 = (
    "8c24ba9714bef7067aec811e85b0368c454c631cbab29ca809159a763bc2f2fe"
)


def _path_layer_digest():
    digest = hashlib.sha256()

    def feed(label, fields):
        digest.update(json.dumps([label, *fields]).encode() + b"\n")

    for name, instance in _pin_instances():
        tsn = build_time_space_network(instance.physical, instance.period_count)
        for arc in tsn.arcs:
            feed(name, (
                arc.id, arc.kind, arc.phys_from, arc.phys_to, arc.depart,
                arc.arrive, arc.duration, arc.capacity.hex(),
            ))
        book = PathBook(instance, tsn)
        for tc in book.tcs:
            for p in book.tc_paths(tc.id):
                feed(name, (
                    tc.id, p.id, p.tc_id, p.oc_id, p.kind, p.mode, list(p.arcs),
                    p.origin_physical, p.dest_physical, p.depart_period,
                    p.arrival_period, p.leg_duration, p.lead_holds,
                    p.trail_holds, p.busy_periods, p.cost.hex(),
                ))
    return digest.hexdigest()


def test_path_layer_is_pinned():
    """Arcs and paths, ids, order and cost bits, stay exactly as they are."""
    assert _path_layer_digest() == PATH_LAYER_SHA256


BOOK_INSTANCES = {
    "sample": make_sample_instance,
    **{f"small10-s{seed}": (lambda seed=seed: generate_instance("small", 10, seed))
       for seed in (1, 2, 3)},
    "medium25-s1": lambda: generate_instance("medium", 25, 1),
}


@pytest.mark.parametrize("name", sorted(BOOK_INSTANCES))
def test_book_makes_each_path_as_enumeration_does(name):
    """A path the book makes when its id is read, last id first, equals the
    one `enumerate_paths` makes at that id: every field, the cost bits
    included."""
    instance = BOOK_INSTANCES[name]()
    tsn = build_time_space_network(instance.physical, instance.period_count)
    expected = {}
    for tc in expand_commodities(instance)[0]:
        for path in enumerate_paths(tc, tsn, instance.costs, len(expected) + 1):
            expected[path.id] = path
    book = PathBook(instance, tsn)
    assert len(book.by_id) == len(expected)
    for path_id in sorted(expected, reverse=True):
        made = book.by_id[path_id]
        assert made == expected[path_id]
        assert made.cost.hex() == expected[path_id].cost.hex()


def test_an_id_always_gives_the_same_path_object():
    """DMaM tells a swapped path by identity, so every lookup of an id
    returns the one object made at its first read."""
    instance = generate_instance("small", 10, 1)
    book = PathBook(instance, build_time_space_network(instance.physical,
                                                       instance.period_count))
    for oc_id in book.incidence:
        outsourced = book.cheapest_outsourced(oc_id)
        assert book.by_id[outsourced.id] is outsourced
        for path in book.oc_paths(oc_id):
            assert book.by_id[path.id] is path
            assert book.by_id[path.id] is path
            if path.mode == OFFERED:
                assert book.sibling(path, 0) is path
    assert list(book.by_id) == list(range(1, len(book.by_id) + 1))
    for missing in (0, len(book.by_id) + 1, True):
        assert missing not in book.by_id
