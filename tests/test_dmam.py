"""Merge machinery, pair selection, mixing, and whole-heuristic behavior."""

from __future__ import annotations

import dataclasses
import functools
import itertools
from types import SimpleNamespace

import pytest
from hypothesis import HealthCheck, given, settings, target
from hypothesis import strategies as st

from cssnd.core import (
    CostParams,
    CssndError,
    HOLD,
    Instance,
    OriginalCommodity,
    PhysicalNetwork,
    build_time_space_network,
    expand_commodities,
    wrap_period,
)
from cssnd.dmam import (
    AssetCycle,
    Leg,
    MergeCandidate,
    PathBook,
    Solution,
    TRIES,
    construct_initial,
    _commit,
    _lift,
    _overruns,
    _pair_order,
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
from cssnd.instgen import generate_instance, size_class
from cssnd.model import build_mip, check_solution
from cssnd.rng import Stream
from tests.conftest import make_sample_instance, routing_rows


def leg(frm, to, start, busy):
    return Leg(
        path=None,
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
    """(t_o1, t_d1, t_o2, t_d2, t_wrap) with `leg2` lifted after `leg1`."""
    start = _lift(leg1.start, leg2.start, period_count)
    return (leg1.start, leg1.start + leg1.busy, start, start + leg2.busy,
            leg1.start + period_count)


def test_place_pushes_wrapping_due():
    # release 5, due 3 spans five periods past the horizon edge
    times = axis_times(leg(1, 2, 5, 5), leg(2, 1, 6, 1))
    assert times == (5, 10, 6, 7, 12)


def test_place_orders_second_after_first():
    times = axis_times(leg(1, 2, 2, 2), leg(2, 1, 1, 2))
    t_o1, t_d1, t_o2, t_d2, t_wrap = times
    assert (t_o1, t_d1) == (2, 4)
    assert (t_o2, t_d2) == (8, 10)
    assert t_wrap == 9


def test_place_leaves_ordered_pair_alone():
    assert axis_times(leg(1, 2, 1, 2), leg(2, 1, 4, 2)) == (
        1, 3, 4, 6, 8,
    )


def test_place_pushes_a_second_leg_starting_together():
    # two chains cannot start together on one asset
    assert axis_times(leg(1, 2, 3, 2), leg(2, 1, 3, 2)) == (
        3, 5, 10, 12, 10,
    )


# --- regular merge ----------------------------------------------------------


def test_perfect_match_merges_without_repositioning():
    instance = make_instance([(1, 2, 1, 3), (2, 1, 4, 6)])
    legs = [leg(1, 2, 1, 2), leg(2, 1, 4, 2)]
    assert max(_overruns(legs, instance)) <= 0
    # no trip: one idle period before the second chain, two before the wrap
    assert _overruns(legs, instance) == [-1, -2]
    solution = construct_initial(instance, PathBook(instance, tsn_of(instance)))
    assert _plan_repositioning(solution, legs) == []


def test_one_repositioning_after_first_path():
    instance = make_instance([(1, 2, 1, 3), (3, 1, 6, 7)], d_value=2)
    # first path 1->2 over periods 1..3, second 3->1 over 6..7 needs a
    # repositioning trip 2->3 of length 2 inside the 3..6 gap
    legs = [leg(1, 2, 1, 2), leg(3, 1, 6, 1)]
    assert max(_overruns(legs, instance)) <= 0
    assert _overruns(legs, instance) == [-1, -1]
    tsn = tsn_of(instance)
    solution = construct_initial(instance, PathBook(instance, tsn))
    assert _plan_repositioning(solution, legs) == [
        (tsn.service_arc(2, 3, 3).id, 3)
    ]


def test_overlapping_windows_do_not_merge():
    instance = make_instance([(1, 2, 1, 4), (2, 1, 2, 5)])
    assert max(_overruns([leg(1, 2, 1, 3), leg(2, 1, 2, 3)], instance)) > 0


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
        for _ in range(2):
            frm = stream.randint(1, n)
            to = frm
            while to == frm:
                to = stream.randint(1, n)
            dist = instance.physical.d(frm, to)
            busy = dist + stream.randint(0, 2)
            if busy >= 7:
                break
            legs.append(leg(frm, to, stream.randint(1, 7), busy))
        if len(legs) < 2:
            continue
        checked += 1
        verdict = max(_overruns(legs, instance)) <= 0
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
            leg1 = leg(1, 2, start, busy1)
            start_two = wrap_period(start + busy1 + gap, period_count)
            leg2 = leg(origin_two, dest_two, start_two, busy2)
            forth, back = _overruns([leg1, leg2], instance)
            for a1, a2 in itertools.chain(*TRIES):
                expected = max(four_type_slacks(leg1, leg2, instance, a1, a2))
                assert max(forth + a1 - a2, back - a1 + a2) == expected
                checked += 1
    assert checked == 225_792


# --- one cycle over several legs ---------------------------------------------


def on_one_axis(legs, period_count):
    """`legs` moved so that each one starts in the horizon after the start
    of the one before it."""
    placed = [legs[0]]
    for leg_ in legs[1:]:
        prev = placed[-1].start
        placed.append(
            leg_._replace(start=prev + (leg_.start - prev - 1) % period_count + 1)
        )
    return placed


@functools.cache
def drawn_book(seed):
    instance = generate_instance("small", 10, seed)
    book = PathBook(instance, tsn_of(instance))
    return book, [p for p in book.by_id.values() if p.mode == "offered"]


@st.composite
def drawn_cycles(draw):
    book, offered = drawn_book(draw(st.integers(1, 3)))
    count = draw(st.integers(2, 3))
    paths = draw(st.lists(
        st.sampled_from(offered), min_size=count, max_size=count, unique=True
    ))
    # a cycle runs its legs in the order they start, from any one of them
    legs = sorted(map(leg_view, paths), key=lambda leg_: leg_.start)
    turn = draw(st.integers(0, count - 1))
    return book, legs[turn:] + legs[:turn]


@settings(max_examples=400, deadline=None, derandomize=True)
@given(drawn=drawn_cycles())
def test_no_overrun_exactly_when_one_asset_runs_the_cycle(drawn):
    """With every service slot free, the legs where their paths run fit one
    cycle by the gap rule exactly when, placed on one axis, their empty
    trips are planned and the walk closes the cycle."""
    book, legs = drawn
    solution = Solution(instance=book.instance, tsn=book.tsn, book=book)
    overruns = _overruns(legs, book.instance)
    # few drawn legs fit one cycle, and three hardly ever: steer toward them
    target(-sum(max(o, 0) for o in overruns), label=f"{len(legs)} legs")
    legs = on_one_axis(legs, book.instance.period_count)
    plan = _plan_repositioning(solution, legs)
    runs = plan is not None
    if runs:
        try:
            _walk(solution, legs, plan)
        except CssndError:
            runs = False
    assert (max(overruns) <= 0) == runs


@settings(max_examples=200, deadline=None, derandomize=True)
@given(drawn=drawn_cycles())
def test_overruns_sum_to_the_trips_and_busy_spans_past_the_horizon(drawn):
    """Wherever the legs start, a cycle's overruns add up to its trips from
    each leg's end to the next one's start, around the cycle, plus the legs'
    busy spans, less |T|."""
    book, legs = drawn
    instance = book.instance
    d = instance.physical.d
    trips = sum(d(a.phys_to, b.phys_from) for a, b in zip(legs, legs[1:] + legs[:1]))
    busy = sum(leg_.busy for leg_ in legs)
    assert sum(_overruns(legs, instance)) == trips + busy - instance.period_count


def test_three_legs_plan_the_trips_they_need():
    """1->2 over [5, 6], 3->4 over [8, 9] and 4->5 over [9, 10], every pair
    of terminals two periods apart: the trip 2->3 leaves at 6 and arrives
    as the second leg starts, the third leg leaves where the second ends,
    and the trip 5->1 leaves at 10 (period 3) and arrives at 12, a horizon
    after the first leg's start."""
    instance = make_instance([])
    tsn = tsn_of(instance)
    solution = Solution(instance=instance, tsn=tsn, book=PathBook(instance, tsn))
    legs = [leg(1, 2, 5, 1), leg(3, 4, 8, 1), leg(4, 5, 9, 1)]
    assert _overruns(legs, instance) == [0, 0, 0]
    # the later legs given at their periods within the horizon lift there
    assert _overruns(
        [legs[0], legs[1]._replace(start=1), legs[2]._replace(start=2)], instance
    ) == [0, 0, 0]
    assert _plan_repositioning(solution, legs) == [
        (tsn.service_arc(2, 3, 6).id, 6),
        (tsn.service_arc(5, 1, 3).id, 10),
    ]


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
    p1 = next(p for p in book.tc_paths(tc1) if p.mode == "offered")
    p2 = next(p for p in book.tc_paths(tc2) if p.mode == "offered")
    return Solution(instance=instance, tsn=book.tsn, book=book), p1, p2


def new_legs(solution, candidate):
    """The candidate's new paths' legs, as the paths run them."""
    return [leg_view(candidate.new_one), leg_view(candidate.new_two)]


def test_shifted_merge_finds_single_period_alternative():
    solution, p1, p2 = shifted_fixture()
    instance = solution.instance
    assert max(_overruns([leg_view(p1), leg_view(p2)], instance)) > 0
    assert _overruns([leg_view(p1), leg_view(p2)], instance) == [1, -4]
    candidate = explore_pair(leg_view(p1), leg_view(p2), solution)
    assert candidate is not None
    # path one a period earlier, or path two a period later
    book = solution.book
    assert (candidate.new_one, candidate.new_two) in (
        (book.sibling(p1, -1), p2), (p1, book.sibling(p2, 1)),
    )
    # the shifted chains meet end to end: no repositioning trip
    assert _plan_repositioning(solution, new_legs(solution, candidate)) == []


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_path_book_finds_siblings_and_outsourced_paths_by_position(seed):
    """Against a scan of every path: the sibling is the offered path of the
    shifted variant with the same lead and trail holds, and the cheapest
    outsourced path is the least by (cost, id) over the three variants."""
    instance = generate_instance("small", 15, seed=seed)
    book = PathBook(instance, build_time_space_network(instance.physical,
                                                       instance.period_count))
    for oc_id, variants in book.incidence.items():
        paths = [p for tc_id in variants for p in book.tc_paths(tc_id)]
        assert book.cheapest_outsourced(oc_id) == min(
            (p for p in paths if p.mode == "outsourced"), key=lambda p: (p.cost, p.id))
        for path, offset in itertools.product(paths, (-2, -1, 0, 1, 2)):
            shift = ("early", "original", "tardy").index(path.kind) - 1 + offset
            expected = next((p for p in paths if path.mode == p.mode == "offered"
                             and shift in (-1, 0, 1)
                             and p.tc_id == variants[shift + 1]
                             and (p.lead_holds, p.trail_holds)
                             == (path.lead_holds, path.trail_holds)), None)
            assert book.sibling(path, offset) == expected


@pytest.mark.parametrize("instance", [
    generate_instance("small", 10, seed=1), make_sample_instance(),
], ids=["small10-s1", "sample"])
def test_leg_view_cuts_every_leg_by_one_rule(instance):
    """Every cut of every path that keeps its service or outsourced leg runs
    exactly the arcs it cuts: busy for their summed durations, starting
    where its first arc departs, between the path's two terminals."""
    tsn = tsn_of(instance)
    book = PathBook(instance, tsn)
    for path in book.by_id.values():
        whole = leg_view(path)
        assert (whole.start, whole.busy) == (path.depart_period, path.busy_periods)
        lead = path.lead_holds
        for first, last in itertools.product(
            range(lead + 1), range(lead + 1, len(path.arcs) + 1)
        ):
            cut = leg_view(path, first, last)
            arcs = [tsn.arcs[arc_id - 1] for arc_id in cut.arcs]
            assert cut.arcs == path.arcs[first:last]
            assert cut.busy == sum(arc.duration for arc in arcs)
            assert wrap_period(cut.start, instance.period_count) == arcs[0].depart
            assert (cut.path, cut.phys_from, cut.phys_to) == (
                path, path.origin_physical, path.dest_physical)
            assert (arcs[0].phys_from, arcs[-1].phys_to) == (
                cut.phys_from, cut.phys_to)


def test_shifted_merge_skips_missing_siblings():
    # path one already early and path two already tardy overrun by one
    # period, which only an earlier path one or a later path two absorbs:
    # neither chain can move further, so no alternative applies
    solution, p1, p2 = shifted_fixture(
        "early", "tardy", specs=[(1, 2, 1, 3), (2, 1, 7, 2)]
    )
    assert _overruns([leg_view(p1), leg_view(p2)], solution.instance) == [1, -4]
    assert solution.book.sibling(p1, -1) is None
    assert solution.book.sibling(p2, 1) is None
    assert explore_pair(leg_view(p1), leg_view(p2), solution) is None


def test_shifted_merge_rejects_three_period_gap():
    # identical three-period chains: the second one ends three periods past
    # the wrap point, beyond what two single-period shifts can absorb
    instance = make_instance([(1, 2, 1, 4), (2, 1, 1, 4)], n=2, d_value=3)
    book = PathBook(instance, tsn_of(instance))
    solution = Solution(instance=instance, tsn=book.tsn, book=book)
    p1 = next(p for p in book.tc_paths(2) if p.mode == "offered")
    p2 = next(p for p in book.tc_paths(5) if p.mode == "offered")
    assert _overruns([leg_view(p1), leg_view(p2)], instance) == [-4, 3]
    assert explore_pair(leg_view(p1), leg_view(p2), solution) is None


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
    for leg1, leg2 in _pair_order(solution):
        candidate = explore_pair(leg1, leg2, solution)
        if candidate is not None:
            assert cycle_oracle(*new_legs(solution, candidate), instance), candidate


@pytest.mark.parametrize("size, k", [("small", 10), ("medium", 25)])
def test_explore_pair_computes_the_gaps_only_of_pairs_within_the_horizon(
    size, k, monkeypatch
):
    """After Phase II, over `_pair_order`: `explore_pair` computes the
    overruns of exactly the pairs whose overruns sum to at most 0, since no
    sibling shift fits a pair whose sum is positive."""
    instance = generate_instance(size, k, seed=1)
    book = PathBook(instance, tsn_of(instance))
    solution = construct_initial(instance, book)
    pairs = list(_pair_order(solution))
    within = [pair for pair in pairs if sum(_overruns(list(pair), instance)) <= 0]
    assert 0 < len(within) < len(pairs)
    seen = []

    def spy(legs, inst):
        seen.append(tuple(legs))
        return _overruns(legs, inst)

    monkeypatch.setattr("cssnd.dmam._overruns", spy)
    for leg1, leg2 in pairs:
        explore_pair(leg1, leg2, solution)
    assert seen == within


# --- Phase II ---------------------------------------------------------------


@settings(max_examples=60, deadline=None, derandomize=True)
@given(data=st.data(), size=st.sampled_from(["small", "medium"]),
       seed=st.integers(min_value=1, max_value=4), flat=st.booleans())
def test_dedication_picks_the_least_free_path_by_cost_and_id(data, size, seed, flat):
    """Under a drawn registry, `PathBook.cheapest` gives the least path by
    (cost, id) among a commodity's outsourced paths and its offered ones
    whose service leg is free, and the same object.  With every route
    priced alike (`flat`), costs tie across legs and the id decides."""
    instance = generate_instance(size, size_class(size).k_options[0], seed)
    if flat:
        table = {tuple(row[:5]): 1.0 for row in routing_rows(instance)}
        instance = dataclasses.replace(instance, costs=CostParams(routing_table=table))
    book = PathBook(instance, tsn_of(instance))
    for oc_id, variants in book.incidence.items():
        legs = sorted({leg.id for tc_id in variants for leg in book.shapes[tc_id].legs})
        taken = set(data.draw(st.lists(st.sampled_from(legs), unique=True))
                    if legs else ())
        picked = book.cheapest(oc_id, taken)
        assert picked is min(
            (p for p in book.oc_paths(oc_id)
             if p.mode != "offered" or p.arcs[p.lead_holds] not in taken),
            key=lambda p: (p.cost, p.id),
        )



def test_dedication_skips_a_service_slot_already_taken():
    """Commodities 1 and 2 both go 1->2 over [1, 2].  Commodity 2's cheapest
    path runs service arc 15, which commodity 1 holds, so it takes the
    early arc 21, and the schedule checks out."""
    instance = make_instance([(1, 2, 1, 2), (1, 2, 1, 2)], n=2, d_value=1, seed=7)
    tsn = tsn_of(instance)
    book = PathBook(instance, tsn)
    solution = construct_initial(instance, book)
    cheapest = min(book.oc_paths(2), key=lambda p: (p.cost, p.id))
    first, second = solution.selected[1], solution.selected[2]
    assert slot(cheapest) == slot(first) == 15
    assert (slot(second), second.kind) == (21, "early")
    assert solution.svc_registry == {15: first.id, 21: second.id}
    solution, report = run_dmam(instance, "a")
    tcs = list(solution.book.tcs)
    result = check_solution(
        instance, tsn, tcs, build_mip(instance, tsn, tcs),
        solution_to_assignment(solution),
    )
    assert result.feasible, result.violations[:3]
    assert result.objective == pytest.approx(report["total_cost"], abs=1e-6)


@pytest.mark.parametrize("instance", [
    make_sample_instance(), generate_instance("small", 10, seed=1),
    generate_instance("medium", 25, seed=1),
], ids=["sample", "small10-s1", "medium25-s1"])
def test_each_offered_selection_rides_one_lone_cycle_of_its_own(instance):
    """After Phase II each lone cycle runs the whole chain of one offered
    selection, one cycle per selection, so Phase III never pairs a leg with
    itself or two legs of one commodity."""
    solution = construct_initial(instance, PathBook(instance, tsn_of(instance)))
    offered = [p for p in solution.selected.values() if p.mode == "offered"]
    assert sorted(c.carried_paths[0] for c in solution.cycles) == sorted(
        p.id for p in offered)
    for cycle in solution.cycles:
        (leg_,) = cycle.legs
        assert leg_ == leg_view(solution.selected[leg_.path.oc_id])
    pairs = 0
    for leg1, leg2 in _pair_order(solution):
        assert leg1 is not leg2
        assert leg1.path.oc_id != leg2.path.oc_id
        pairs += 1
    assert pairs > 0


# --- merged cycle construction ----------------------------------------------


def lone(solution, path):
    """The lone cycle that carries `path`."""
    return next(c for c in solution.cycles if c.carried_paths == [path.id])


def test_merge_paths_builds_closed_cycle():
    instance = make_instance([(1, 2, 1, 3), (2, 1, 4, 6)])
    tsn = build_time_space_network(instance.physical, instance.period_count)
    book = PathBook(instance, tsn)
    solution = construct_initial(instance, book)
    p1 = solution.selected[1]
    p2 = solution.selected[2]
    candidate = explore_pair(leg_view(p1), leg_view(p2), solution)
    assert candidate == MergeCandidate(
        path_one=p1,
        path_two=p2,
        combined_cost=p1.cost + p2.cost,
        new_one=p1,
        new_two=p2,
    )
    replaced = [lone(solution, p1), lone(solution, p2)]
    assert _commit(solution, new_legs(solution, candidate), replaced)
    cycle = solution.cycles[-1]
    assert sorted(cycle.carried_paths) == sorted([p1.id, p2.id])
    assert cycle.rep_plan == []       # perfect match needs no repositioning


def test_commit_removes_exactly_the_cycles_it_is_handed():
    """The replaced cycles leave by identity, the others keep their order,
    and the new cycle takes the place of the first replaced cycle; a record
    equal in every field to a replaced cycle is another cycle and stays."""
    instance = make_instance([(1, 2, 1, 3), (2, 1, 4, 6), (3, 4, 1, 3)])
    tsn = build_time_space_network(instance.physical, instance.period_count)
    solution = construct_initial(instance, PathBook(instance, tsn))
    p1, p2 = solution.selected[1], solution.selected[2]
    replaced = [lone(solution, p1), lone(solution, p2)]
    twin = dataclasses.replace(replaced[0])
    solution.cycles.insert(0, twin)
    kept = [c for c in solution.cycles if c not in replaced]
    assert kept[0] is twin
    at = solution.cycles.index(replaced[0])
    assert at == 1
    candidate = explore_pair(leg_view(p1), leg_view(p2), solution)
    assert _commit(solution, new_legs(solution, candidate), replaced)
    assert solution.cycles[at].carried_paths == [p1.id, p2.id]
    assert solution.cycles[:at] + solution.cycles[at + 1:] == kept


def test_merge_across_the_horizon_edge_places_the_early_chain_last_period():
    """Path two is already tardy, so the one-period overrun moves path one a
    period early: its sibling departs in period 7 = |T|, and the tardy chain
    is lifted after it.  The chains meet end to end, then the asset idles."""
    solution, p1, p2 = shifted_fixture(
        "original", "tardy", specs=[(1, 2, 1, 3), (2, 1, 1, 3)]
    )
    book, tsn = solution.book, solution.tsn
    assert _overruns([leg_view(p1), leg_view(p2)], solution.instance) == [1, -4]
    candidate = explore_pair(leg_view(p1), leg_view(p2), solution)
    early = book.sibling(p1, -1)
    assert (candidate.new_one, candidate.new_two) == (early, p2)
    assert early.depart_period == 7
    for path in (p1, p2):
        solution.selected[path.oc_id] = path
        solution.svc_registry[slot(path)] = path.id
        solution.cycles.append(AssetCycle(legs=[leg_view(path)]))
    replaced = list(solution.cycles)
    handed = new_legs(solution, candidate)
    assert _commit(solution, handed, replaced)
    assert handed == new_legs(solution, candidate)    # placed in a new list
    (cycle,) = solution.cycles
    assert cycle.carried_paths == [early.id, p2.id]
    assert [leg.start for leg in cycle.legs] == [7, 9]
    assert cycle.rep_plan == []
    assert sum(tsn.arcs[a - 1].duration for a in cycle.arc_seq) == 7
    chains = early.arcs + p2.arcs
    assert cycle.arc_seq[: len(chains)] == chains
    assert all(tsn.arcs[a - 1].kind == HOLD for a in cycle.arc_seq[len(chains):])


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
        solution, legs, [lone(solution, current), lone(solution, solution.selected[2])]
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
    legs = [target, leg_view(stolen)]
    assert not _commit(
        solution, legs, [lone(solution, target_path), lone(solution, current)]
    )
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
    legs = [first, leg_view(other)._replace(start=first.start + first.busy)]
    assert not _commit(
        solution, legs, [lone(solution, current), lone(solution, other)]
    )
    assert _state(solution) == before


def super_leg_fixture():
    """Medium k=25 seed 4 after Phase III (config a): the merged cycle of
    paths 266 and 309, whose one trip runs arc 110, and the lone cycle of
    path 168, whose leg fits one cycle after theirs."""
    instance = generate_instance("medium", 25, 4)
    solution = construct_initial(instance, PathBook(instance, tsn_of(instance)))
    merge_phase(solution, "a")
    merged = next(c for c in solution.cycles if c.carried_paths == [266, 309])
    assert merged.rep_plan == [(110, 5)]
    single = next(c for c in solution.cycles if c.carried_paths == [168])
    legs = [leg_view(solution.book.by_id[pid]) for pid in (266, 309, 168)]
    return solution, legs, [merged, single]


def trip_markers(solution):
    return {arc for arc, owner in solution.svc_registry.items() if owner == -1}


def test_commit_frees_the_trip_slots_of_the_cycles_it_replaces():
    solution, legs, replaced = super_leg_fixture()
    # the new cycle takes the merged cycle's place among those that stay
    stay = [c for c in solution.cycles if c is not replaced[1]]
    assert _commit(solution, legs, replaced)
    cycle = solution.cycles[stay.index(replaced[0])]
    assert cycle.carried_paths == [266, 309, 168]
    assert cycle.rep_plan == [(141, 8)]
    assert 110 not in solution.svc_registry
    assert trip_markers(solution) == {
        arc for c in solution.cycles for arc, _ in c.rep_plan
    }


def test_refused_commit_marks_the_trip_slots_it_freed_again():
    """The new cycle's one trip can only run arc 141; held, the commit is
    refused and arc 110 is the merged cycle's again."""
    solution, legs, replaced = super_leg_fixture()
    solution.svc_registry[141] = -1
    before = _state(solution)
    assert not _commit(solution, legs, replaced)
    assert _state(solution) == before
    assert solution.svc_registry[110] == -1


def test_simulation_rejects_window_violations():
    instance = make_instance([(1, 2, 1, 3), (2, 1, 4, 6)])
    tsn = build_time_space_network(instance.physical, instance.period_count)
    book = PathBook(instance, tsn)
    solution = construct_initial(instance, book)
    p1, p2 = solution.selected[1], solution.selected[2]

    def walk_with_second_start(start, phys_from=2):
        legs = [
            Leg(p1, 1, 2, 1, 2, p1.arcs),
            Leg(p2, phys_from, 1, start, 2, p2.arcs),
        ]
        return _walk(solution, legs, [])

    seq = walk_with_second_start(4)
    assert sum(tsn.arcs[a - 1].duration for a in seq) == 7
    # pickup one period before release breaks the second delivery window
    with pytest.raises(
        CssndError, match=f"^cycle of paths {p1.id}, {p2.id} failed its walk: "
        f"path {p2.id} violates its delivery window"
    ):
        walk_with_second_start(3)
    # overlapping chains cannot share one asset
    with pytest.raises(CssndError, match="left over"):
        walk_with_second_start(2)
    with pytest.raises(CssndError, match="two chains or trips start together"):
        walk_with_second_start(1)
    # the first chain ends at terminal 2, the second leaves terminal 3
    with pytest.raises(CssndError, match="asset is not at terminal 3 to depart"):
        walk_with_second_start(4, phys_from=3)


def test_run_dmam_names_an_unknown_configuration():
    with pytest.raises(CssndError, match="unknown configuration 'z'"):
        run_dmam(make_sample_instance(), "z")


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
    singles = [c.legs[0].path for c in solution.cycles]
    key = lambda p: (-p.busy_periods, p.id)
    primary = sorted((p for p in singles if 2 * p.busy_periods > 7), key=key)
    secondary = sorted((p for p in singles if 2 * p.busy_periods <= 7), key=key)
    assert primary and secondary
    leads = []
    for leg1, _ in _pair_order(solution):
        if not leads or leads[-1] is not leg1.path:
            leads.append(leg1.path)
    assert leads == (primary + secondary)[:-1]


# --- SCoPF ---------------------------------------------------------------


def cand(i, j, cost=1.0):
    one, two = SimpleNamespace(id=i), SimpleNamespace(id=j)
    return MergeCandidate(one, two, cost, one, two)


def matched_pairs(pairs, costs):
    """The id pairs `solve_p2` selects among `cand` candidates, sorted."""
    selected = solve_p2([cand(i, j, costs[(i, j)]) for i, j in pairs])
    return sorted((c.path_one.id, c.path_two.id) for c in selected)


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
    assert matched_pairs(pairs, costs) == [(1, 3)]


def test_solve_p2_path_graph():
    pairs = [(1, 2), (2, 3), (3, 4)]
    costs = {p: 1.0 for p in pairs}
    assert matched_pairs(pairs, costs) == [(1, 2), (3, 4)]


def test_solve_p2_empty():
    assert solve_p2([]) == []


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
        got = matched_pairs(pairs, costs)
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
        assert len(scopf(candidates)) <= len(solve_p2(candidates))


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


def cheapest_lone_delta(solution):
    """The least cost increase of outsourcing a lone cycle."""
    book = solution.book
    return min(
        book.cheapest_outsourced(path.oc_id).cost - path.cost
        for path in (c.legs[0].path for c in solution.cycles if not c.merged)
    )


def test_shortage_leases_at_a_lease_price_equal_to_the_cheapest_delta():
    """A lone cycle is outsourced only when that costs strictly less than a
    lease."""
    boundary = 25.423026668883473
    instance = overlap_instance(leased_cost=boundary)
    solution = construct_initial(instance, PathBook(instance, tsn_of(instance)))
    merge_phase(solution, "r")
    mix_phase(solution)
    assert cheapest_lone_delta(solution) == boundary
    _, report = run_dmam(instance, "r")
    assert (report["leased"], report["outsourced"]) == (1, 0)


def lone_first_instance():
    """Paths 3 and 9 (commodities 1 and 2) share a cycle and path 13
    (commodity 3) runs alone, with one owned asset and none to lease.  Every
    outsourced price is 25.1 except commodity 3's, 100.0, so the lone cycle
    costs more to outsource than the merged one."""
    base = make_instance([(1, 2, 1, 3), (2, 1, 4, 6), (3, 4, 1, 3)],
                         owned=1, leasable=0)
    _, incidence = expand_commodities(base)
    table = {
        tuple(row[:5]): row[5] if row[0] != "outsourced"
        else 100.0 if row[4] in incidence[3] else 25.1
        for row in routing_rows(base)
    }
    costs = dataclasses.replace(base.costs, routing_seed=None, routing_table=table)
    return dataclasses.replace(base, costs=costs)


@pytest.mark.parametrize("config", "rca")
def test_shortage_outsources_a_lone_cycle_before_a_merged_one(config):
    """Ranked by cost increase alone, the merged cycle would go, at a total
    of 76.11222028132748; lone cycles rank first."""
    instance = lone_first_instance()
    solution = construct_initial(instance, PathBook(instance, tsn_of(instance)))
    merge_phase(solution, config)
    mix_phase(solution)
    assert sorted(c.carried_paths for c in solution.cycles) == [[3, 9], [13]]
    solution, report = run_dmam(instance, config)
    assert solution.outsourced == {3}
    assert [c.carried_paths for c in solution.cycles] == [[3, 9]]
    assert report["total_cost"] == pytest.approx(126.60620232448014, abs=1e-9)


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
    assert (report["leased"], report["outsourced"]) == (2, 2)


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
    path = lone.legs[0].path
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


@pytest.mark.parametrize("drawn, owned, leasable, config", [
    pytest.param(None, 1, 0, config, id=config) for config in "rca"
] + [
    pytest.param(
        (size, k, seed), owned, leasable, config,
        id=f"{size}{k}-s{seed}-owned{owned}-leasable{leasable}-{config}",
    )
    for size, k in (("small", 10), ("medium", 25))
    for seed in (1, 2)
    for owned, leasable in ((1, 0), (size_class(size).v1 // 3, 1))
    for config in "rca"
])
def test_phase_v_releases_the_slots_of_outsourced_cycles(drawn, owned, leasable, config):
    """With a fleet too small for the schedule (the worked sample, or a
    drawn (size, k, seed) instance), the cycles Phase V outsources give back
    their service slots and repositioning markers."""
    instance = dataclasses.replace(
        make_sample_instance() if drawn is None else generate_instance(*drawn),
        owned_assets=owned, leasable_assets=leasable,
    )
    fleet = owned + leasable
    solution, report = run_dmam(instance, config)
    assert len(solution.cycles) <= fleet
    assert report["outsourced"] >= len(instance.commodities) - 2 * fleet
    assert trip_markers(solution) == {
        arc for c in solution.cycles for arc, _ in c.rep_plan
    }
    served = {
        path.arcs[path.lead_holds]: path.id
        for path in solution.selected.values() if path.mode == "offered"
    }
    assert {a: p for a, p in solution.svc_registry.items() if p != -1} == served
