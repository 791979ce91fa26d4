"""Merge machinery, pair selection, mixing, and whole-heuristic behavior."""

from __future__ import annotations

import dataclasses
import itertools
from types import SimpleNamespace

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from cssnd.core import (
    CostParams,
    CssndError,
    Instance,
    OriginalCommodity,
    PhysicalNetwork,
    build_time_space_network,
    wrap_period,
)
from cssnd.dmam import (
    Leg,
    MergeCandidate,
    PathBook,
    Solution,
    TRIES,
    check_regular_merge,
    construct_initial,
    _commit,
    _execute_merge,
    _overruns,
    _pair_order,
    _place,
    _plan_repositioning,
    _walk,
    explore_pair,
    finalize_cycles,
    leg_view,
    merge_phase,
    mix_phase,
    resolve_capacity,
    run_dmam,
    scopf,
    solution_to_assignment,
    solve_p2,
)
from cssnd.instgen import generate_instance
from cssnd.model import build_mip, check_solution
from cssnd.rng import Stream
from tests.conftest import make_sample_instance


def leg(oc, frm, to, start, busy, pid=None):
    return Leg(
        path_id=pid if pid is not None else oc,
        phys_from=frm,
        phys_to=to,
        start=start,
        busy=busy,
        arcs=(),
    )


def tsn_of(instance):
    return build_time_space_network(instance.physical, instance.period_count)


def make_instance(commodities, n=5, d_value=2, owned=7, leasable=5, seed=5):
    distance = tuple(
        tuple(0 if i == j else d_value for j in range(n)) for i in range(n)
    )
    return Instance(
        physical=PhysicalNetwork(node_count=n, distance=distance),
        period_count=7,
        commodities=tuple(
            OriginalCommodity(i + 1, *spec) for i, spec in enumerate(commodities)
        ),
        owned_assets=owned,
        leasable_assets=leasable,
        costs=CostParams(routing_seed=seed),
        seed=seed,
    )


# --- time normalization -----------------------------------------------------


def axis_times(leg1, leg2, period_count=7):
    """(t_o1, t_d1, t_o2, t_d2, t_wrap) with `leg2` placed after `leg1`,
    checking that placing moves nothing but the start."""
    placed = _place(leg1, leg2, period_count)
    assert placed == leg2._replace(start=placed.start)
    return leg1.start, leg1.end, placed.start, placed.end, leg1.start + period_count


def test_place_pushes_wrapping_due():
    # release 5, due 3 spans five periods past the horizon edge
    times = axis_times(leg(1, 1, 2, 5, 5), leg(2, 2, 1, 6, 1))
    assert times == (5, 10, 6, 7, 12)


def test_place_orders_second_after_first():
    times = axis_times(leg(1, 1, 2, 2, 2), leg(2, 2, 1, 1, 2))
    t_o1, t_d1, t_o2, t_d2, t_wrap = times
    assert (t_o1, t_d1) == (2, 4)
    assert (t_o2, t_d2) == (8, 10)
    assert t_wrap == 9


def test_place_leaves_ordered_pair_alone():
    assert axis_times(leg(1, 1, 2, 1, 2), leg(2, 2, 1, 4, 2)) == (
        1, 3, 4, 6, 8,
    )


def test_place_pushes_a_second_leg_starting_together():
    # two chains cannot start together on one asset
    assert axis_times(leg(1, 1, 2, 3, 2), leg(2, 2, 1, 3, 2)) == (
        3, 5, 10, 12, 10,
    )


# --- regular merge ----------------------------------------------------------


def test_perfect_match_merges_without_repositioning():
    instance = make_instance([(1, 2, 1, 3), (2, 1, 4, 6)])
    legs = [leg(1, 1, 2, 1, 2), leg(2, 2, 1, 4, 2)]
    assert check_regular_merge(*legs, instance)
    # no trip: one idle period before the second chain, two before the wrap
    assert _overruns(*legs, instance) == (-1, -2)
    solution = construct_initial(instance, PathBook(instance, tsn_of(instance)))
    assert _plan_repositioning(solution, legs) == []


def test_one_repositioning_after_first_path():
    instance = make_instance([(1, 2, 1, 3), (3, 1, 6, 7)], d_value=2)
    # first path 1->2 over periods 1..3, second 3->1 over 6..7 needs a
    # repositioning trip 2->3 of length 2 inside the 3..6 gap
    legs = [leg(1, 1, 2, 1, 2), leg(2, 3, 1, 6, 1)]
    assert check_regular_merge(*legs, instance)
    assert _overruns(*legs, instance) == (-1, -1)
    tsn = tsn_of(instance)
    solution = construct_initial(instance, PathBook(instance, tsn))
    assert _plan_repositioning(solution, legs) == [
        (tsn.service_arc(2, 3, 3).id, 3)
    ]


def test_overlapping_windows_do_not_merge():
    instance = make_instance([(1, 2, 1, 4), (2, 1, 2, 5)])
    assert not check_regular_merge(
        leg(1, 1, 2, 1, 3), leg(2, 2, 1, 2, 3), instance
    )


def cycle_oracle(leg_a: Leg, leg_b: Leg, instance: Instance) -> bool:
    """Discrete occupancy simulation: can one asset run both chains and the
    at most two direct repositioning trips inside one horizon?"""
    period_count = instance.period_count
    taken = {}
    for chain in (leg_a, leg_b):
        for step in range(chain.busy):
            t = (chain.start - 1 + step) % period_count
            if t in taken:
                return False
            taken[t] = chain
    gap_ab = (leg_b.start - (leg_a.start + leg_a.busy)) % period_count
    gap_ba = (leg_a.start - (leg_b.start + leg_b.busy)) % period_count
    if gap_ab + gap_ba + leg_a.busy + leg_b.busy != period_count:
        return False
    need_ab = (
        0
        if leg_a.phys_to == leg_b.phys_from
        else instance.physical.d(leg_a.phys_to, leg_b.phys_from)
    )
    need_ba = (
        0
        if leg_b.phys_to == leg_a.phys_from
        else instance.physical.d(leg_b.phys_to, leg_a.phys_from)
    )
    return need_ab <= gap_ab and need_ba <= gap_ba


def test_regular_merge_agrees_with_cycle_simulation():
    stream = Stream(909, "merge-oracle")
    checked = 0
    accepted = 0
    while checked < 500:
        n = stream.randint(2, 5)
        d = [[0] * n for _ in range(n)]
        for i in range(n):
            for j in range(i + 1, n):
                d[i][j] = d[j][i] = stream.randint(1, 3)
        for k in range(n):
            for i in range(n):
                for j in range(n):
                    if i != j and d[i][k] + d[k][j] < d[i][j]:
                        d[i][j] = d[i][k] + d[k][j]
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
            dist = instance.physical.d(frm, to)
            busy = dist + stream.randint(0, 2)
            if busy >= 7:
                break
            legs.append(leg(oc, frm, to, stream.randint(1, 7), busy, pid=oc))
        if len(legs) < 2:
            continue
        checked += 1
        verdict = check_regular_merge(legs[0], legs[1], instance)
        simulated = cycle_oracle(legs[0], legs[1], instance)
        assert verdict == simulated, (legs, instance.physical.distance)
        accepted += verdict
    assert accepted > 0  # the sample must exercise both outcomes
    assert accepted < checked


# --- the paper's four merge types ----------------------------------------


def four_type_slacks(leg1, leg2, instance, a1=0, a2=0):
    """The paper's rule: classify the pair by which repositioning legs it
    needs, then list how far each of that type's time-wise conditions is
    from holding with the chains moved by a1 and a2 (a strict x < y is
    x - y + 1 <= 0 on integer periods).  The second chain starts in the
    horizon after the first one's start, t_o1 < t_o2 <= t_wrap."""
    period_count = instance.period_count
    t_o1, t_d1 = leg1.start, leg1.start + leg1.busy
    t_wrap = t_o1 + period_count
    t_o2 = t_o1 + (leg2.start - t_o1 - 1) % period_count + 1
    t_d2 = t_o2 + leg2.busy
    t_o1, t_d1, t_wrap = t_o1 + a1, t_d1 + a1, t_wrap + a1
    t_o2, t_d2 = t_o2 + a2, t_d2 + a2
    forth_matches = leg1.phys_to == leg2.phys_from
    back_matches = leg1.phys_from == leg2.phys_to
    d = instance.physical.d
    d_forth = 0 if forth_matches else d(leg1.phys_to, leg2.phys_from)
    d_back = 0 if back_matches else d(leg2.phys_to, leg1.phys_from)
    if back_matches and forth_matches:
        return [t_d1 - t_o2, t_d2 - t_wrap]
    if back_matches:
        return [t_d2 - t_wrap, t_d1 - t_o2 + 1, d_forth - (t_o2 - t_d1)]
    if forth_matches:
        return [t_d1 - t_o2, t_d2 - t_wrap + 1, d_back - (t_wrap - t_d2)]
    return [
        t_d1 - t_o2 + 1,
        t_d2 - t_wrap + 1,
        d_back - (t_wrap - t_d2),
        d_forth - (t_o2 - t_d1),
    ]


def test_two_overruns_equal_the_four_type_rule():
    # every start, both spans, eight gaps between the chains, both trip
    # distances 0-3 (0: the terminals match) and every shifting offset
    period_count = 7
    checked = 0
    for d_forth, d_back in itertools.product(range(4), repeat=2):
        # nodes 1 -> 2 for the first chain; the second starts at 2 or 3 and
        # ends at 1 or 4, with d(2, 3) = d_forth and d(4, 1) = d_back
        distance = [[0 if i == j else 1 for j in range(4)] for i in range(4)]
        distance[1][2] = distance[2][1] = max(d_forth, 1)
        distance[3][0] = distance[0][3] = max(d_back, 1)
        instance = Instance(
            physical=PhysicalNetwork(4, tuple(map(tuple, distance))),
            period_count=period_count,
            commodities=(),
            owned_assets=1,
            leasable_assets=0,
            costs=CostParams(routing_seed=1),
        )
        origin_two = 2 if d_forth == 0 else 3
        dest_two = 1 if d_back == 0 else 4
        for start, busy1, busy2, gap in itertools.product(
            range(1, 8), range(1, 7), range(1, 7), range(-3, 5)
        ):
            leg1 = leg(1, 1, 2, start, busy1)
            start_two = wrap_period(start + busy1 + gap, period_count)
            leg2 = leg(2, origin_two, dest_two, start_two, busy2)
            forth, back = _overruns(leg1, leg2, instance)
            for a1, a2 in itertools.chain(*TRIES):
                expected = max(four_type_slacks(leg1, leg2, instance, a1, a2))
                assert max(forth + a1 - a2, back - a1 + a2) == expected
                checked += 1
    assert checked == 225_792


# --- shifted merge ----------------------------------------------------------


def shifted_fixture(kind_one="original", kind_two="original", specs=None):
    """Two commodities one period short of a perfect match."""
    instance = make_instance(
        specs or [(1, 2, 1, 3), (2, 1, 2, 4)], n=2, d_value=2
    )
    book = PathBook(instance, tsn_of(instance))
    kinds = {"early": 0, "original": 1, "tardy": 2}
    tc1 = book.incidence[1][kinds[kind_one]]
    tc2 = book.incidence[2][kinds[kind_two]]
    p1 = next(p for p in book.by_tc[tc1] if p.mode == "offered")
    p2 = next(p for p in book.by_tc[tc2] if p.mode == "offered")
    return Solution(instance=instance, tsn=book.tsn, book=book), p1, p2


def test_shifted_merge_finds_single_period_alternative():
    solution, p1, p2 = shifted_fixture()
    instance = solution.instance
    assert not check_regular_merge(leg_view(p1), leg_view(p2), instance)
    assert _overruns(leg_view(p1), leg_view(p2), instance) == (1, -4)
    candidate = explore_pair(p1, p2, solution)
    assert candidate is not None
    # path one a period earlier, or path two a period later
    book = solution.book
    assert (candidate.new_one, candidate.new_two) in (
        (book.sibling(p1, -1), p2), (p1, book.sibling(p2, 1)),
    )
    # the shifted chains meet end to end: no repositioning trip
    assert _plan_repositioning(solution, candidate.legs) == []


def test_shifted_merge_skips_missing_siblings():
    # path one already early and path two already tardy overrun by one
    # period, which only an earlier path one or a later path two absorbs:
    # neither chain can move further, so no alternative applies
    solution, p1, p2 = shifted_fixture(
        "early", "tardy", specs=[(1, 2, 1, 3), (2, 1, 7, 2)]
    )
    assert _overruns(leg_view(p1), leg_view(p2), solution.instance) == (1, -4)
    assert solution.book.sibling(p1, -1) is None
    assert solution.book.sibling(p2, 1) is None
    assert explore_pair(p1, p2, solution) is None


def test_shifted_merge_rejects_three_period_gap():
    # identical three-period chains: the second one ends three periods past
    # the wrap point, beyond what two single-period shifts can absorb
    instance = make_instance([(1, 2, 1, 4), (2, 1, 1, 4)], n=2, d_value=3)
    book = PathBook(instance, tsn_of(instance))
    solution = Solution(instance=instance, tsn=book.tsn, book=book)
    p1 = next(p for p in book.by_tc[2] if p.mode == "offered")
    p2 = next(p for p in book.by_tc[5] if p.mode == "offered")
    assert _overruns(leg_view(p1), leg_view(p2), instance) == (-4, 3)
    assert explore_pair(p1, p2, solution) is None


@settings(
    max_examples=50, deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(
    size=st.sampled_from(["small", "medium"]),
    k=st.integers(min_value=4, max_value=20),
    seed=st.integers(min_value=0, max_value=10_000),
)
def test_every_candidate_places_legs_one_asset_can_run(size, k, seed):
    instance = generate_instance(size, k, seed)
    book = PathBook(instance, tsn_of(instance))
    solution = construct_initial(instance, book)
    for p1, p2 in _pair_order(solution):
        candidate = explore_pair(p1, p2, solution)
        if candidate is not None:
            assert cycle_oracle(*candidate.legs, instance), candidate


# --- merged cycle construction ----------------------------------------------


def test_merge_paths_builds_closed_cycle():
    instance = make_instance([(1, 2, 1, 3), (2, 1, 4, 6)])
    tsn = build_time_space_network(instance.physical, instance.period_count)
    book = PathBook(instance, tsn)
    solution = construct_initial(instance, book)
    p1 = solution.selected[1]
    p2 = solution.selected[2]
    candidate = explore_pair(p1, p2, solution)
    assert candidate == MergeCandidate(
        path_one=p1,
        path_two=p2,
        combined_cost=p1.cost + p2.cost,
        new_one=p1,
        new_two=p2,
        start_one=1,
        start_two=4,
    )
    assert _execute_merge(solution, candidate)
    cycle = solution.cycles[-1]
    assert sorted(cycle.carried_paths) == sorted([p1.id, p2.id])
    assert cycle.rep_plan == []       # perfect match needs no repositioning


def _state(solution):
    return (
        dict(solution.svc_registry),
        dict(solution.selected),
        list(solution.cycles),
        set(solution.dominant),
    )


def rollback_fixture():
    """Commodities 1 and 3 share O-D and window, so construct_initial gives
    them different service slots; commodity 2 runs elsewhere."""
    instance = make_instance([(1, 2, 1, 5), (3, 4, 1, 3), (1, 2, 1, 5)])
    tsn = build_time_space_network(instance.physical, instance.period_count)
    book = PathBook(instance, tsn)
    solution = construct_initial(instance, book)
    solution.dominant.add(solution.selected[2].id)
    return book, solution


def slot(path):
    return path.arcs[path.lead_holds]


def test_refused_commit_for_a_held_slot_changes_nothing():
    book, solution = rollback_fixture()
    current, holder = solution.selected[3], solution.selected[1]
    stolen = next(
        p for p in book.oc_paths(3)
        if p.mode == "offered" and slot(p) == slot(holder)
    )
    before = _state(solution)
    legs = [leg_view(stolen), leg_view(solution.selected[2])]
    assert not _commit(
        solution, legs, [current, solution.selected[2]], "unused"
    )
    assert _state(solution) == before


def test_refused_mix_commit_for_a_held_slot_changes_nothing(monkeypatch):
    # the mix form: the target leg keeps its own path, and the particle's
    # path would replace commodity 3's but its slot is held by commodity 1
    book, solution = rollback_fixture()
    target_path, current = solution.selected[2], solution.selected[3]
    holder = solution.selected[1]
    stolen = next(
        p for p in book.oc_paths(3)
        if p.mode == "offered" and slot(p) == slot(holder)
    )
    reselected = []
    monkeypatch.setattr(
        "cssnd.dmam._reselect", lambda _, old, new: reselected.append((old, new))
    )
    before = _state(solution)
    target = leg_view(target_path)
    legs = [target, _place(target, leg_view(stolen), 7)]
    assert not _commit(solution, legs, [target_path, current], "unused")
    assert _state(solution) == before
    assert reselected == []
    assert solution.selected[2] is target_path


def test_refused_commit_for_a_missing_trip_slot_changes_nothing():
    book, solution = rollback_fixture()
    current, other = solution.selected[1], solution.selected[2]
    taken = set(solution.svc_registry)
    alt = next(
        p for p in book.oc_paths(1)
        if p.mode == "offered" and slot(p) not in taken
    )
    before = _state(solution)
    # the 2->3 trip needs two periods but the second leg starts as the
    # first one ends, so the swap to `alt` must be rolled back
    first = leg_view(alt)._replace(start=1, busy=2)
    legs = [first, leg_view(other)._replace(start=first.end)]
    assert not _commit(solution, legs, [current, other], "unused")
    assert _state(solution) == before


def test_simulation_rejects_window_violations():
    instance = make_instance([(1, 2, 1, 3), (2, 1, 4, 6)])
    tsn = build_time_space_network(instance.physical, instance.period_count)
    book = PathBook(instance, tsn)
    solution = construct_initial(instance, book)
    p1, p2 = solution.selected[1], solution.selected[2]

    def walk_with_second_start(start):
        legs = [
            Leg(p1.id, 1, 2, 1, 2, p1.arcs),
            Leg(p2.id, 2, 1, start, 2, p2.arcs),
        ]
        return _walk(solution, legs, [], "test cycle")

    seq = walk_with_second_start(4)
    assert sum(tsn.arcs[a - 1].duration for a in seq) == 7
    # pickup one period before release breaks the second delivery window
    with pytest.raises(CssndError, match="delivery window"):
        walk_with_second_start(3)
    # overlapping chains cannot share one asset
    with pytest.raises(CssndError, match="left over"):
        walk_with_second_start(2)


def test_one_rep_merge_adds_single_empty_leg():
    instance = make_instance([(1, 2, 1, 3), (3, 1, 6, 7)], d_value=2)
    # distances: 1->2 is 2, to make 3->1 take one period shrink via custom matrix
    d = [[0, 2, 2, 2, 2], [2, 0, 2, 2, 2], [1, 2, 0, 2, 2],
         [2, 2, 2, 0, 2], [2, 2, 2, 2, 0]]
    instance = Instance(
        physical=PhysicalNetwork(5, tuple(tuple(r) for r in d)),
        period_count=7,
        commodities=(
            OriginalCommodity(1, 1, 2, 1, 3),
            OriginalCommodity(2, 3, 1, 6, 7),
        ),
        owned_assets=7,
        leasable_assets=5,
        costs=CostParams(routing_seed=3),
    )
    tsn = build_time_space_network(instance.physical, instance.period_count)
    book = PathBook(instance, tsn)
    solution = construct_initial(instance, book)
    executed = merge_phase(solution, "r")
    assert executed == 1
    merged = next(c for c in solution.cycles if c.merged)
    assert len(merged.rep_plan) == 1


# --- partition and search order ----------------------------------------------


def test_partition_by_busy_span():
    """Path one runs over the primary paths (busy for more than half the
    horizon), then the secondary ones, each by busy span descending and
    then id; the last path has no partner left and never leads."""
    instance = generate_instance("small", 10, seed=4)
    tsn = build_time_space_network(instance.physical, instance.period_count)
    book = PathBook(instance, tsn)
    solution = construct_initial(instance, book)
    singles = [book.by_id[c.legs[0].path_id] for c in solution.cycles]
    key = lambda p: (-p.busy_periods, p.id)
    primary = sorted((p for p in singles if 2 * p.busy_periods > 7), key=key)
    secondary = sorted((p for p in singles if 2 * p.busy_periods <= 7), key=key)
    assert primary and secondary
    leads = []
    for p1, _ in _pair_order(solution):
        if not leads or leads[-1] is not p1:
            leads.append(p1)
    assert leads == (primary + secondary)[:-1]


# --- SCoPF ---------------------------------------------------------------


def cand(i, j, cost=1.0):
    one, two = SimpleNamespace(id=i), SimpleNamespace(id=j)
    return MergeCandidate(one, two, cost, one, two, 0, 0)


def test_scopf_single_candidate():
    assert len(scopf([cand(1, 2)])) == 1


def test_scopf_star_selects_one():
    chosen = scopf([cand(1, 2), cand(1, 3), cand(1, 4)])
    assert len(chosen) == 1
    assert (chosen[0].path_one.id, chosen[0].path_two.id) == (1, 2)


def test_scopf_path_graph_selects_ends():
    chosen = scopf([cand(1, 2), cand(2, 3), cand(3, 4)])
    keys = {(c.path_one.id, c.path_two.id) for c in chosen}
    assert keys == {(1, 2), (3, 4)}


# --- exact pair selection -----------------------------------------------


def brute_force_matching(pairs, costs):
    best = None
    for r in range(len(pairs), -1, -1):
        for combo in itertools.combinations(pairs, r):
            used = set()
            ok = True
            for i, j in combo:
                if i in used or j in used:
                    ok = False
                    break
                used.add(i)
                used.add(j)
            if not ok:
                continue
            cost = sum(costs[p] for p in combo)
            if best is None or (r, -cost) > (best[0], -best[1]):
                best = (r, cost)
        if best is not None and best[0] == r:
            break
    return best or (0, 0.0)


def test_solve_p2_star():
    pairs = [(1, 2), (1, 3), (1, 4)]
    costs = {(1, 2): 5.0, (1, 3): 3.0, (1, 4): 4.0}
    assert solve_p2(pairs, costs) == [(1, 3)]


def test_solve_p2_path_graph():
    pairs = [(1, 2), (2, 3), (3, 4)]
    costs = {p: 1.0 for p in pairs}
    assert solve_p2(pairs, costs) == [(1, 2), (3, 4)]


def test_solve_p2_empty():
    assert solve_p2([], {}) == []


def test_solve_p2_matches_brute_force():
    stream = Stream(1234, "p2")
    for _ in range(300):
        n = stream.randint(2, 12)
        possible = list(itertools.combinations(range(1, n + 1), 2))
        m = stream.randint(1, min(len(possible), 16))
        idx = list(range(len(possible)))
        stream.shuffle(idx)
        pairs = [possible[i] for i in idx[:m]]
        costs = {p: round(1 + 4 * stream.unit(), 6) for p in pairs}
        got = solve_p2(pairs, costs)
        used = set()
        for i, j in got:
            assert i not in used and j not in used
            used.update((i, j))
        got_card = len(got)
        got_cost = sum(costs[p] for p in got)
        want_card, want_cost = brute_force_matching(pairs, costs)
        assert got_card == want_card
        assert got_cost == pytest.approx(want_cost, abs=1e-6)


def test_scopf_never_beats_exact_matching():
    stream = Stream(777, "dominance")
    for _ in range(300):
        n = stream.randint(2, 12)
        possible = list(itertools.combinations(range(1, n + 1), 2))
        m = stream.randint(1, min(len(possible), 16))
        idx = list(range(len(possible)))
        stream.shuffle(idx)
        pairs = [possible[i] for i in idx[:m]]
        costs = {p: round(1 + 4 * stream.unit(), 6) for p in pairs}
        candidates = [cand(i, j, costs[(i, j)]) for i, j in pairs]
        assert len(scopf(candidates)) <= len(solve_p2(pairs, costs))


# --- full runs -------------------------------------------------------------


def test_merge_phase_configs_reduce_cycles():
    instance = generate_instance("small", 20, seed=11)
    results = {}
    for config in "rca":
        solution, report = run_dmam(instance, config)
        counts = report["cycle_counts"]
        assert counts["merge"] <= counts["construct"]
        assert counts["mix"] <= counts["merge"]
        results[config] = report
    # advanced search must merge at least as many pairs as the greedy one
    # on the same exploration set; compare through remaining cycle counts
    assert results["a"]["cycle_counts"]["merge"] <= results["c"]["cycle_counts"]["merge"]


def test_run_dmam_covers_every_commodity_once():
    instance = generate_instance("medium", 25, seed=6)
    solution, report = run_dmam(instance, "a")
    assert set(solution.selected) == {oc.id for oc in instance.commodities}
    carried = [pid for c in solution.cycles for pid in c.carried_paths]
    assert len(carried) == len(set(carried))
    offered_ids = {
        p.id for p in solution.selected.values() if p.mode == "offered"
    }
    assert set(carried) == offered_ids
    for oc_id in solution.outsourced:
        assert solution.selected[oc_id].mode == "outsourced"


def test_cycles_close_and_tile_horizon():
    instance = generate_instance("small", 20, seed=21)
    solution, _ = run_dmam(instance, "r")
    tsn = solution.tsn
    for cycle in solution.cycles:
        arcs = [tsn.arcs[a - 1] for a in cycle.arc_seq]
        assert sum(a.duration for a in arcs) == 7
        for first, second in zip(arcs, arcs[1:]):
            assert first.phys_to == second.phys_from
            assert wrap_period(first.depart + first.duration, 7) == second.depart
        assert arcs[-1].phys_to == arcs[0].phys_from


def test_no_service_arc_shared_between_assets():
    for seed in (3, 13, 23):
        instance = generate_instance("medium", 30, seed=seed)
        solution, _ = run_dmam(instance, "a")
        seen = set()
        for cycle in solution.cycles:
            for arc_id in cycle.arc_seq:
                if solution.tsn.arcs[arc_id - 1].kind == "service":
                    assert arc_id not in seen
                    seen.add(arc_id)


def test_cost_audit_matches_breakdown():
    instance = generate_instance("large", 36, seed=9)
    solution, report = run_dmam(instance, "c")
    breakdown = solution.cost_breakdown()
    assert sum(breakdown.values()) == pytest.approx(
        report["total_cost"], abs=1e-9
    )
    recomputed = (
        instance.costs.fixed_owned * solution.owned_used()
        + instance.costs.fixed_leased * solution.leased()
        + sum(p.cost for p in solution.selected.values())
    )
    assert recomputed == pytest.approx(report["total_cost"], abs=1e-9)


def overlap_instance(leased_cost):
    """Eight mutually unmergeable deliveries against seven owned assets."""
    pairs = [(1, 2), (1, 3), (1, 4), (1, 5), (2, 3), (2, 4), (2, 5), (3, 4)]
    return Instance(
        physical=PhysicalNetwork(
            5, tuple(tuple(0 if i == j else 2 for j in range(5)) for i in range(5))
        ),
        period_count=7,
        commodities=tuple(
            OriginalCommodity(n + 1, o, d, 1, 3) for n, (o, d) in enumerate(pairs)
        ),
        owned_assets=7,
        leasable_assets=5,
        costs=CostParams(fixed_leased=leased_cost, routing_seed=8),
    )


def test_shortage_outsources_when_cheaper_than_leasing():
    # conversion deltas sit near 25, well under the default lease price
    solution, report = run_dmam(overlap_instance(leased_cost=50.0), "r")
    assert report["cycle_counts"]["merge"] == 8
    assert report["leased"] == 0
    assert report["outsourced"] == 1
    assert len(solution.cycles) == 7


def test_shortage_leases_when_cheaper_than_outsourcing():
    solution, report = run_dmam(overlap_instance(leased_cost=20.0), "r")
    assert report["leased"] == 1
    assert report["outsourced"] == 0
    assert len(solution.cycles) == 8


def test_non_interacting_instance_costs_decompose():
    # mutually unmergeable deliveries, enough owned assets: total cost is
    # exactly one fixed charge per commodity plus the selected path costs
    instance = overlap_instance(leased_cost=50.0)
    instance = Instance(
        physical=instance.physical,
        period_count=instance.period_count,
        commodities=instance.commodities[:6],
        owned_assets=7,
        leasable_assets=5,
        costs=instance.costs,
    )
    solution, report = run_dmam(instance, "a")
    assert report["leased"] == 0 and report["outsourced"] == 0
    assert len(solution.cycles) == 6
    expected = 6 * instance.costs.fixed_owned + sum(
        p.cost for p in solution.selected.values()
    )
    assert report["total_cost"] == pytest.approx(expected, abs=1e-9)


def test_capacity_resolution_counts():
    instance = generate_instance("small", 20, seed=2)
    solution, report = run_dmam(instance, "r")
    assert solution.leased() <= instance.leasable_assets
    assert len(solution.cycles) <= instance.owned_assets + instance.leasable_assets
    if len(solution.cycles) < instance.owned_assets:
        assert solution.leased() == 0


def test_determinism_same_seed_same_report():
    instance = generate_instance("medium", 20, seed=14)
    _, first = run_dmam(instance, "a")
    _, second = run_dmam(instance, "a")
    first.pop("timings")
    second.pop("timings")
    assert first == second


def test_lone_cycle_without_a_return_slot_is_outsourced():
    instance = generate_instance("small", 10, seed=3)
    tsn = tsn_of(instance)
    solution = construct_initial(instance, PathBook(instance, tsn))
    merge_phase(solution, "a")
    mix_phase(solution)
    resolve_capacity(solution)
    lone = next(c for c in solution.cycles if not c.merged)
    path = solution.book.by_id[lone.legs[0].path_id]
    svc = tsn.arcs[path.arcs[path.lead_holds] - 1]
    # take every slot of the empty trip home, from the service leg's
    # arrival to the last departure that still closes the horizon
    period_count = instance.period_count
    home = instance.physical.d(svc.phys_to, svc.phys_from)
    for depart in range(svc.depart + svc.duration,
                        svc.depart + period_count - home + 1):
        trip = tsn.service_arc(
            svc.phys_to, svc.phys_from, wrap_period(depart, period_count)
        )
        solution.svc_registry.setdefault(trip.id, -1)
    finalize_cycles(solution)
    assert solution.selected[path.oc_id].mode == "outsourced"
    assert svc.id not in solution.svc_registry
    assert all(path.id not in c.carried_paths for c in solution.cycles)
    tcs = list(solution.book.tcs)
    result = check_solution(
        instance, tsn, tcs, build_mip(instance, tsn, tcs),
        solution_to_assignment(solution),
    )
    assert result.feasible, result.violations[:3]
    assert result.objective == pytest.approx(solution.total_cost(), abs=1e-6)


@pytest.mark.parametrize("config", ["r", "c", "a"])
def test_phase_v_releases_the_slots_of_outsourced_cycles(config):
    """With one owned asset and none to lease, the merged cycles Phase V
    outsources give back their service slots and repositioning markers."""
    instance = dataclasses.replace(
        make_sample_instance(), owned_assets=1, leasable_assets=0
    )
    solution, report = run_dmam(instance, config)
    assert len(solution.cycles) <= 1
    assert report["outsourced"] >= len(instance.commodities) - 2
    markers = {arc for arc, owner in solution.svc_registry.items() if owner == -1}
    assert markers == {arc for c in solution.cycles for arc, _ in c.rep_plan}
    served = {
        path.arcs[path.lead_holds]: path.id
        for path in solution.selected.values() if path.mode == "offered"
    }
    assert {a: p for a, p in solution.svc_registry.items() if p != -1} == served
