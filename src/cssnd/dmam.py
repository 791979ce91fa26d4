"""Multi-phase construction and improvement heuristic.

Phase I enumerates commodity paths (see `paths`).  Phase II dedicates one
asset per cheapest path.  Phase III merges pairs of paths into shared asset
cycles, either greedily (config "r"), via smallest-conflicted-pairs-first
selection (config "c"), or via an exact maximum-cardinality minimum-cost
matching over the explored pairs (config "a").  Phase IV mixes leftover
single paths into other cycles by letting a holding arc ride a dominant
path.  Phase V resolves asset shortage by leasing or outsourcing unit by
unit and finalizes asset cycles.

Merge feasibility works on a normalized timeline: the second chain is
pushed one horizon forward unless it starts after the first, so both chains
and the wrap-back point t_O1 + |T| sit on one axis.  The pair fits one asset
when neither of two overruns is positive: forth = d(D1, O2) + t_D1 - t_O2,
how far the first chain and the trip to the second origin run into the
second chain, and back = d(D2, O1) + t_D2 - t_wrap, the same for the trip
home.  The paper sorts a pair into four types by the repositioning legs it
needs (none, one after either chain, or two) and gives each type its own
time-wise conditions; since a needed leg takes at least one period and an
unneeded one none, each type's strict gap condition follows from its
distance condition, and the four types collapse into the two overruns.
Moving the chains by one-period offsets (a1, a2) adds a1 - a2 to forth and
takes it from back, so a pair that overruns by one or two periods is retried
with the early/tardy sibling paths whose offsets absorb it.

Every chain an asset runs is a `Leg`: a path's whole chain, a Phase IV
particle cut from one, or a lone cycle's service leg.  `_lag` is the one
rule that places a second leg on a cycle's axis.  A merge and a mix both
hand `_commit` the placed legs and the paths they replace; it swaps the new
paths in, closes the cycle, and undoes the swaps when it is refused.  A
cycle is walked once, when it closes: `_walk` checks it and returns the arc
sequence the asset runs.

A merged cycle runs both carried chains, the repositioning legs between
them, and idle holds in the gaps.  A lone cycle runs just its service leg,
an empty return trip, and idle holds: dragging the chain's waiting periods
along can make the cycle too long to close, and a commodity waiting on an
uncapacitated holding arc occupies no asset anyway, exactly as in the exact
model where holding arcs appear in no forcing constraint.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import NamedTuple

from .core import (
    COST_SCALE,
    CssndError,
    Instance,
    KIND_SHIFT,
    TimeSpaceNetwork,
    TransformedCommodity,
    build_time_space_network,
    cyclic_span,
    expand_commodities,
    wrap_period,
)
from .matching import max_weight_matching
from .model import D_NAME, P_NAME, S_NAME, X_NAME, Y_NAME
from .paths import OFFERED, OUTSOURCED_MODE, CommodityPath, enumerate_paths

CONFIG_RANDOM = "r"
CONFIG_CUSTOM = "c"
CONFIG_ADVANCED = "a"

# The shifting alternatives, (path-one offset, path-two offset), tried for a
# pair that overruns by 0, 1 or 2 periods: both chains where they are; a
# single chain moved one period; both moved in opposite directions for a
# combined shift of two.
TRIES = (
    ((0, 0),),
    ((1, 0), (-1, 0), (0, 1), (0, -1)),
    ((1, -1), (-1, 1)),
)


class Leg(NamedTuple):
    """A chain one asset runs for one commodity: `arcs`, from `phys_from`
    at period `start` to `phys_to` `busy` periods later.  A path's leg
    starts at its depart period (1..|T|); on a cycle's axis `start` is the
    normalized period and may exceed |T|."""

    path_id: int
    phys_from: int
    phys_to: int
    start: int
    busy: int
    arcs: tuple[int, ...]

    @property
    def end(self) -> int:
        return self.start + self.busy


def leg_view(path: CommodityPath) -> Leg:
    return Leg(
        path.id, path.origin_physical, path.dest_physical,
        path.depart_period, path.busy_periods, path.arcs,
    )


def _lag(leg1: Leg, leg2: Leg, period_count: int) -> int:
    """How far `leg2` moves to run after `leg1` on the cycle's axis: not at
    all when it starts after `leg1`, else one horizon.  The cycle closes one
    horizon after `leg1` starts."""
    return 0 if leg2.start > leg1.start else period_count


def _place(leg1: Leg, leg2: Leg, period_count: int) -> Leg:
    """`leg2` moved onto `leg1`'s axis."""
    return leg2._replace(start=leg2.start + _lag(leg1, leg2, period_count))


def _overruns(leg1: Leg, leg2: Leg, instance: Instance) -> tuple[int, int]:
    """(forth, back): by how many periods the first chain plus the trip to
    the second origin, and the second chain plus the trip back to the first
    origin, overrun the next start on the normalized axis.  The chains fit
    one cycle when neither is positive."""
    period_count = instance.period_count
    t_o2 = leg2.start + _lag(leg1, leg2, period_count)
    d = instance.physical.d     # 0 on the diagonal
    return (
        d(leg1.phys_to, leg2.phys_from) + leg1.end - t_o2,
        d(leg2.phys_to, leg1.phys_from) + t_o2 + leg2.busy - leg1.start - period_count,
    )


def check_regular_merge(leg1: Leg, leg2: Leg, instance: Instance) -> bool:
    """Whether the chains fit one cycle without shifting."""
    return max(_overruns(leg1, leg2, instance)) <= 0


class MergeCandidate(NamedTuple):
    """A feasible pair: `path_one` and `path_two` are replaced by `new_one`
    and `new_two` (themselves in a regular merge), whose legs start at
    `start_one` and `start_two` on the cycle's axis."""

    path_one: CommodityPath
    path_two: CommodityPath
    combined_cost: float
    new_one: CommodityPath
    new_two: CommodityPath
    start_one: int
    start_two: int

    @property
    def legs(self) -> list[Leg]:
        """The new paths' legs where `explore_pair` placed them.  Shifted
        sibling chains keep their shape, so the offsets move them rigidly."""
        return [
            leg_view(self.new_one)._replace(start=self.start_one),
            leg_view(self.new_two)._replace(start=self.start_two),
        ]


class PathBook:
    """All generated paths plus the lookups the phases need."""

    def __init__(self, instance: Instance, tsn: TimeSpaceNetwork):
        self.instance = instance
        self.tsn = tsn
        self.tcs, self.incidence = expand_commodities(instance)
        self.tc_by_id = {tc.id: tc for tc in self.tcs}
        self.by_id: dict[int, CommodityPath] = {}
        self.by_tc: dict[int, list[CommodityPath]] = {}
        next_id = 1
        for tc in self.tcs:
            tc_paths = enumerate_paths(tc, tsn, instance.costs, id_start=next_id)
            next_id += len(tc_paths)
            self.by_tc[tc.id] = tc_paths
            for p in tc_paths:
                self.by_id[p.id] = p

    def tc_of(self, path: CommodityPath) -> TransformedCommodity:
        return self.tc_by_id[path.tc_id]

    def oc_paths(self, oc_id: int) -> list[CommodityPath]:
        return [
            p for tc_id in self.incidence[oc_id] for p in self.by_tc[tc_id]
        ]

    def sibling(self, path: CommodityPath, offset: int) -> CommodityPath | None:
        """Same-shape offered path of the TC shifted by `offset` periods."""
        if path.mode != OFFERED:
            return None
        shift = KIND_SHIFT[path.kind] + offset
        if shift not in (-1, 0, 1):
            return None
        kind_index = shift + 1     # early, original, tardy
        sibling_tc = self.incidence[path.oc_id][kind_index]
        for p in self.by_tc[sibling_tc]:
            if (
                p.mode == OFFERED
                and p.lead_holds == path.lead_holds
                and p.trail_holds == path.trail_holds
            ):
                return p
        return None

    def cheapest_outsourced(self, oc_id: int) -> CommodityPath:
        return min(
            (p for p in self.oc_paths(oc_id) if p.mode == OUTSOURCED_MODE),
            key=lambda p: (p.cost, p.id),
        )


@dataclass
class AssetCycle:
    legs: list[Leg]
    rep_plan: list[tuple[int, int]] = field(default_factory=list)  # (arc, t)
    asset_id: int = 0
    kind: str = "owned"
    arc_seq: tuple[int, ...] = ()

    @property
    def carried_paths(self) -> list[int]:
        return [leg.path_id for leg in self.legs]

    @property
    def merged(self) -> bool:
        return len(self.legs) > 1


@dataclass
class PhaseStat:
    phase: str
    cycles: int
    seconds: float


@dataclass
class Solution:
    instance: Instance
    tsn: TimeSpaceNetwork
    book: PathBook
    selected: dict[int, CommodityPath] = field(default_factory=dict)
    cycles: list[AssetCycle] = field(default_factory=list)
    dominant: set[int] = field(default_factory=set)
    svc_registry: dict[int, int] = field(default_factory=dict)  # arc -> path
    phase_log: list[PhaseStat] = field(default_factory=list)

    @property
    def outsourced(self) -> set[int]:
        return {
            oc_id for oc_id, path in self.selected.items()
            if path.mode == OUTSOURCED_MODE
        }

    def owned_used(self) -> int:
        return min(len(self.cycles), self.instance.owned_assets)

    def leased(self) -> int:
        return max(0, len(self.cycles) - self.instance.owned_assets)

    def cost_breakdown(self) -> dict[str, float]:
        costs = self.instance.costs
        routing = penalty = outsourcing = 0.0
        for path in self.selected.values():
            base = path.cost / costs.multiplier(path.kind)
            if path.mode == OFFERED:
                routing += base
            else:
                outsourcing += base
            penalty += path.cost - base
        return {
            "fixed_owned": costs.fixed_owned * self.owned_used(),
            "fixed_leased": costs.fixed_leased * self.leased(),
            "routing": routing,
            "penalty": penalty,
            "outsourcing": outsourcing,
        }

    def total_cost(self) -> float:
        return sum(self.cost_breakdown().values())

    def summary(self) -> dict[str, int | float]:
        on_time = early = tardy = 0
        for path in self.selected.values():
            if path.mode != OFFERED:
                continue
            if path.kind == "original":
                on_time += 1
            elif path.kind == "early":
                early += 1
            else:
                tardy += 1
        return {
            "owned_used": self.owned_used(),
            "leased": self.leased(),
            "on_time": on_time,
            "early": early,
            "tardy": tardy,
            "outsourced": len(self.outsourced),
            "total_cost": self.total_cost(),
        }


def construct_initial(instance: Instance, book: PathBook) -> Solution:
    """Phase II: cheapest path per original commodity, one cycle per offered
    path, outsourced fallback where no offered path exists."""
    solution = Solution(instance=instance, tsn=book.tsn, book=book)
    for oc in instance.commodities:
        for path in sorted(book.oc_paths(oc.id), key=lambda p: (p.cost, p.id)):
            if path.mode == OFFERED:
                svc = path.arcs[path.lead_holds]
                if svc in solution.svc_registry:
                    continue            # service slot already taken
                solution.svc_registry[svc] = path.id
                solution.selected[oc.id] = path
                solution.cycles.append(AssetCycle(legs=[leg_view(path)]))
                break
            solution.selected[oc.id] = path
            break
    return solution


def _pair_order(solution: Solution):
    """Exploration order over the unmerged paths: path one from longest to
    shortest busy span (ties by id), so the primary paths, busy for more
    than half the horizon, come before the secondary ones; path two over
    strictly shorter (or equal, later-id) spans that can share a horizon
    with it."""
    period_count = solution.instance.period_count
    ordered = sorted(
        (solution.book.by_id[c.legs[0].path_id]
         for c in solution.cycles if not c.merged),
        key=lambda p: (-p.busy_periods, p.id),
    )
    for p1 in ordered:
        cap = min(p1.busy_periods, period_count - p1.busy_periods)
        for p2 in ordered:
            if p2.id == p1.id or p2.oc_id == p1.oc_id:
                continue
            if p2.busy_periods > cap:
                continue
            if p2.busy_periods == p1.busy_periods and p2.id < p1.id:
                continue
            yield p1, p2


def explore_pair(
    path1: CommodityPath, path2: CommodityPath, solution: Solution
) -> MergeCandidate | None:
    """The cheapest way to run both paths on one asset: as they are when
    neither overruns, else by the shifting alternative whose sibling paths
    absorb an overrun of one or two periods."""
    leg1, leg2 = leg_view(path1), leg_view(path2)
    instance = solution.instance
    forth, back = _overruns(leg1, leg2, instance)
    overrun = max(forth, back, 0)
    if overrun > 2:
        return None
    best = None
    for a1, a2 in TRIES[overrun]:
        if forth + a1 - a2 > 0 or back - a1 + a2 > 0:
            continue
        new1 = solution.book.sibling(path1, a1) if a1 else path1
        new2 = solution.book.sibling(path2, a2) if a2 else path2
        if new1 is None or new2 is None:
            continue
        cost = new1.cost + new2.cost
        if best is None or cost < best[0] - 1e-12:
            best = (cost, new1, new2, a1, a2)
    if best is None:
        return None
    cost, new1, new2, a1, a2 = best
    start_two = leg2.start + _lag(leg1, leg2, instance.period_count) + a2
    return MergeCandidate(path1, path2, cost, new1, new2, leg1.start + a1, start_two)


def _plan_repositioning(
    solution: Solution, legs: list[Leg]
) -> list[tuple[int, int]] | None:
    """Choose the empty trips of a cycle that runs `legs` in order: from
    each leg's destination to the next leg's origin, and from the last leg
    back to the first one a horizon later.  Each trip takes the earliest
    service arc no other asset operates, and the registry marks it taken.
    Times are normalized; returns (arc_id, normalized depart) pairs, or
    None, taking nothing, when some trip finds no free slot."""
    instance = solution.instance
    tsn = solution.tsn
    period_count = instance.period_count
    plan: list[tuple[int, int]] = []
    taken = set(solution.svc_registry)
    gaps = [
        (leg.phys_to, nxt.phys_from, leg.end, nxt.start)
        for leg, nxt in zip(legs, legs[1:])
    ]
    gaps.append(
        (legs[-1].phys_to, legs[0].phys_from, legs[-1].end,
         legs[0].start + period_count)
    )
    for phys_from, phys_to, earliest, latest in gaps:
        if phys_from == phys_to:
            continue
        d = instance.physical.d(phys_from, phys_to)
        slot = None
        for depart in range(earliest, latest - d + 1):
            arc = tsn.service_arc(phys_from, phys_to, wrap_period(depart, period_count))
            if arc.id not in taken:
                slot = (arc.id, depart)
                taken.add(arc.id)
                break
        if slot is None:
            return None
        plan.append(slot)
    for arc_id, _ in plan:
        solution.svc_registry[arc_id] = -1   # repositioning marker
    return plan


def _close_cycle(
    solution: Solution, legs: list[Leg], failure: str
) -> AssetCycle | None:
    """The cycle running `legs` with its empty trips planned and its arc
    sequence walked; None when some trip finds no free slot."""
    plan = _plan_repositioning(solution, legs)
    if plan is None:
        return None
    return AssetCycle(
        legs=legs, rep_plan=plan, arc_seq=_walk(solution, legs, plan, failure)
    )


def _walk(
    solution: Solution,
    legs: list[Leg],
    plan: list[tuple[int, int]],
    failure: str,
) -> tuple[int, ...]:
    """The closed arc sequence of one asset that runs `legs` and the empty
    trips of `plan` where they start on the normalized axis, holding idle in
    between, for one horizon from the first leg's start.

    Raises CssndError, prefixed by `failure`, when a leg leaves its delivery
    window, the asset is not where a leg or trip departs, a leg or trip is
    left over (as overlapping chains are), or the arcs do not close a cycle
    of exactly |T| periods.
    """
    tsn = solution.tsn
    book = solution.book
    period_count = tsn.period_count
    problems = []
    steps = {}      # normalized start -> (from, arcs, end, to)
    for leg in legs:
        tc = book.tc_of(book.by_id[leg.path_id])
        offset = cyclic_span(
            tc.release_period, wrap_period(leg.start, period_count), period_count
        )
        if offset + leg.busy > tc.window_span(period_count):
            problems.append(f"path {leg.path_id} violates its delivery window")
        steps[leg.start] = (leg.phys_from, leg.arcs, leg.end, leg.phys_to)
    for arc_id, depart in plan:
        arc = tsn.arcs[arc_id - 1]
        steps[depart] = (arc.phys_from, (arc_id,), depart + arc.duration, arc.phys_to)
    if len(steps) < len(legs) + len(plan):
        problems.append("two chains or trips start together")
    start = cursor = legs[0].start
    place = legs[0].phys_from
    seq: list[int] = []
    while cursor < start + period_count:
        step = steps.pop(cursor, None)
        if step is None:
            seq.append(tsn.holding_arc(place, wrap_period(cursor, period_count)).id)
            cursor += 1
            continue
        phys_from, arcs, cursor, to = step
        if phys_from != place:
            problems.append(f"asset is not at terminal {phys_from} to depart")
        seq.extend(arcs)
        place = to
    if steps:
        problems.append("a chain or trip is left over")
    total = sum(tsn.arcs[a - 1].duration for a in seq)
    if total != period_count or place != legs[0].phys_from:
        problems.append("asset cycle failed to close on itself")
    if problems:
        raise CssndError(f"{failure}: " + "; ".join(problems))
    return tuple(seq)


def _reselect(solution: Solution, old: CommodityPath, new: CommodityPath) -> None:
    """Deliver the commodity of the offered path `old` by `new` instead:
    release old's service slot, and claim new's when `new` is offered.
    Between offered paths, `_reselect(solution, new, old)` undoes it."""
    del solution.svc_registry[old.arcs[old.lead_holds]]
    if new.mode == OFFERED:
        solution.svc_registry[new.arcs[new.lead_holds]] = new.id
    solution.selected[new.oc_id] = new


def _commit(
    solution: Solution,
    legs: list[Leg],
    replaced: list[CommodityPath],
    failure: str,
) -> bool:
    """Replace the cycles carrying the legs' or the replaced paths' ids by
    one cycle running `legs`.  The path of `legs[i]` delivers the commodity
    of `replaced[i]`, and is swapped in where it is another path.

    Refused, changing nothing, when a new path's service slot is held by
    any path but the one it replaces, when two new paths share a slot, or
    when some empty trip of the cycle finds no free slot.
    """
    swaps = [
        (old, solution.book.by_id[leg.path_id])
        for leg, old in zip(legs, replaced) if leg.path_id != old.id
    ]
    registry = solution.svc_registry
    incoming = [new.arcs[new.lead_holds] for _, new in swaps]
    if len(set(incoming)) != len(incoming) or any(
        registry.get(svc, old.id) != old.id
        for svc, (old, _) in zip(incoming, swaps)
    ):
        return False
    for old, new in swaps:
        _reselect(solution, old, new)
    cycle = _close_cycle(solution, legs, failure)
    if cycle is None:
        for old, new in swaps:
            _reselect(solution, new, old)
        return False
    drop = {leg.path_id for leg in legs} | {old.id for old in replaced}
    solution.cycles = [
        c for c in solution.cycles if drop.isdisjoint(c.carried_paths)
    ]
    solution.cycles.append(cycle)
    return True


def _execute_merge(solution: Solution, candidate: MergeCandidate) -> bool:
    """Commit the merged cycle of a feasible candidate: its legs start
    where `explore_pair` checked them."""
    return _commit(
        solution, candidate.legs, [candidate.path_one, candidate.path_two],
        "merged cycle failed its walk",
    )


def merge_phase(solution: Solution, config: str) -> int:
    """Phase III.  Returns the number of merges executed."""
    executed = 0
    if config == CONFIG_RANDOM:
        progress = True
        while progress:
            progress = False
            for p1, p2 in _pair_order(solution):
                candidate = explore_pair(p1, p2, solution)
                if candidate and _execute_merge(solution, candidate):
                    executed += 1
                    progress = True
                    break
        return executed

    candidates = []
    for p1, p2 in _pair_order(solution):
        candidate = explore_pair(p1, p2, solution)
        if candidate:
            candidates.append(candidate)
    if config == CONFIG_CUSTOM:
        chosen = scopf(candidates)
    elif config == CONFIG_ADVANCED:
        pairs = [(c.path_one.id, c.path_two.id) for c in candidates]
        costs = {pair: c.combined_cost for pair, c in zip(pairs, candidates)}
        matched = set(solve_p2(pairs, costs))
        chosen = [c for pair, c in zip(pairs, candidates) if pair in matched]
    else:
        raise CssndError(f"unknown configuration '{config}'")
    for candidate in chosen:
        if _execute_merge(solution, candidate):
            executed += 1
    return executed


def scopf(candidates: list[MergeCandidate]) -> list[MergeCandidate]:
    """Smallest-conflicted-pairs-first selection of vertex-disjoint merges.

    Each path's individual score is the number of explored pairs it appears
    in; a pair scores the sum of its two endpoints.  Repeatedly pick the
    lowest-scoring pair (ties by path ids) and cancel everything touching
    its endpoints.  Scores are computed once, on the full conflict array.
    """
    degree: dict[int, int] = {}
    for c in candidates:
        for i in (c.path_one.id, c.path_two.id):
            degree[i] = degree.get(i, 0) + 1

    def key(c):
        i, j = c.path_one.id, c.path_two.id
        return degree[i] + degree[j], min(i, j), max(i, j)

    selected: list[MergeCandidate] = []
    used: set[int] = set()
    for candidate in sorted(candidates, key=key):
        i, j = candidate.path_one.id, candidate.path_two.id
        if i in used or j in used:
            continue
        selected.append(candidate)
        used.update((i, j))
    return selected


def solve_p2(
    pairs: list[tuple[int, int]], costs: dict[tuple[int, int], float]
) -> list[tuple[int, int]]:
    """Exact solution of the pair-selection program: maximum number of
    vertex-disjoint pairs, minimum total cost among those.

    The iterated target scheme (start at floor(|M|/2) selections, drop one
    by one until feasible, then minimize cost at the first feasible rung)
    lands exactly on the maximum-cardinality minimum-cost matching, which
    is computed here by the blossom algorithm on negated costs; depth-first
    enumeration was measured hopeless already at forty-odd conflicting
    paths.
    """
    if not pairs:
        return []
    unique = sorted({(min(i, j), max(i, j)) for i, j in pairs})
    original = {}
    for i, j in pairs:
        original.setdefault((min(i, j), max(i, j)), (i, j))
    vertices = sorted({v for pair in unique for v in pair})
    index = {v: n for n, v in enumerate(vertices)}
    edges = []
    for i, j in unique:
        cost = costs.get((i, j), costs.get((j, i)))
        edges.append((index[i], index[j], -int(round(cost * COST_SCALE))))
    mate = max_weight_matching(edges)
    selected = []
    for i, j in unique:
        if mate[index[i]] == index[j]:
            selected.append(original[(i, j)])
    return sorted(selected)


def _particle(path: CommodityPath, drop_index: int, tsn: TimeSpaceNetwork) -> Leg:
    """The service-bearing remainder of `path` without its holding arc at
    `drop_index`."""
    period_count = tsn.period_count
    if drop_index < path.lead_holds:
        arcs = path.arcs[drop_index + 1 :]
        lead_left = path.lead_holds - drop_index - 1
        start = wrap_period(path.depart_period + drop_index + 1, period_count)
        busy = lead_left + path.leg_duration + path.trail_holds
    else:
        hold_pos = drop_index - path.lead_holds - 1  # position in trail run
        arcs = path.arcs[: path.lead_holds + 1 + hold_pos]
        start = path.depart_period
        busy = path.lead_holds + path.leg_duration + hold_pos
    return leg_view(path)._replace(start=start, busy=busy, arcs=arcs)


def mix_phase(solution: Solution) -> int:
    """Phase IV: drop a holding arc that rides another selected (dominant)
    path and merge the remaining particle, trying the commodity's variant
    paths when the current one cannot be placed.  Each unmerged single is
    visited once, in path-id order."""
    executed = 0
    book = solution.book
    sources = sorted(
        (c for c in solution.cycles if not c.merged),
        key=lambda c: c.legs[0].path_id,
    )
    for cycle in sources:
        if cycle not in solution.cycles:
            continue                    # consumed as a target meanwhile
        current = book.by_id[cycle.legs[0].path_id]
        if current.id in solution.dominant:
            continue
        if _try_mix_cycle(solution, cycle, current):
            executed += 1
    return executed


def _selected_arc_owners(solution: Solution) -> dict[int, list[int]]:
    owners: dict[int, list[int]] = {}
    for path in solution.selected.values():
        if path.mode != OFFERED:
            continue
        for arc_id in path.arcs:
            owners.setdefault(arc_id, []).append(path.id)
    return owners


def _try_mix_cycle(
    solution: Solution, cycle: AssetCycle, current: CommodityPath
) -> bool:
    book = solution.book
    tsn = solution.tsn
    instance = solution.instance
    hold_owners = _selected_arc_owners(solution)
    alternatives = [current] + [
        p
        for p in sorted(book.oc_paths(current.oc_id), key=lambda p: p.id)
        if p.mode == OFFERED and p.id != current.id
    ]
    # a lone cycle's one leg is its path's leg_view
    targets = [
        c.legs[0]
        for c in solution.cycles
        if not c.merged and c is not cycle
        and c.legs[0].path_id not in solution.dominant
    ]
    for alt in alternatives:
        for drop_index, arc_id in enumerate(alt.arcs):
            if tsn.arcs[arc_id - 1].kind != "hold":
                continue
            dominant_ids = [
                pid
                for pid in hold_owners.get(arc_id, [])
                if book.by_id[pid].oc_id != current.oc_id
            ]
            if not dominant_ids:
                continue
            particle = _particle(alt, drop_index, tsn)
            for target in targets:
                if not check_regular_merge(target, particle, instance):
                    continue
                # a particle cut from another path of `current`'s
                # commodity swaps that path in
                legs = [target, _place(target, particle, instance.period_count)]
                if _commit(
                    solution, legs, [book.by_id[target.path_id], current],
                    "mix produced an invalid cycle",
                ):
                    solution.dominant.add(dominant_ids[0])
                    return True
    return False


def resolve_capacity(solution: Solution) -> None:
    """Phase V: cover any shortage beyond the owned fleet by leasing or by
    outsourcing single-commodity cycles, whichever increases cost less.
    With no lone cycle left and the lease budget spent, the merged cycle
    that is cheapest to convert is outsourced leg by leg."""
    instance = solution.instance
    g = instance.costs.fixed_leased
    shortage = len(solution.cycles) - instance.owned_assets
    leased = 0
    while shortage > 0:
        can_lease = leased < instance.leasable_assets
        conversions = _conversions(
            solution, [c for c in solution.cycles if not c.merged]
        )
        if not conversions and not can_lease:
            conversions = _conversions(solution, solution.cycles)
        if conversions and (conversions[0][0] < g or not can_lease):
            cycle = conversions[0][2]
            for leg in cycle.legs:
                path = solution.book.by_id[leg.path_id]
                _reselect(solution, path, solution.book.cheapest_outsourced(path.oc_id))
            for arc_id, _ in cycle.rep_plan:
                del solution.svc_registry[arc_id]   # repositioning marker
            solution.cycles.remove(cycle)
        else:
            leased += 1
        shortage -= 1


def _conversions(
    solution: Solution, cycles: list[AssetCycle]
) -> list[tuple[float, int, AssetCycle]]:
    """(cost increase of outsourcing every leg, first leg's path id, cycle)
    for each of `cycles`, cheapest first."""
    book = solution.book
    conversions = []
    for cycle in cycles:
        delta = 0.0
        for leg in cycle.legs:
            path = book.by_id[leg.path_id]
            delta += book.cheapest_outsourced(path.oc_id).cost - path.cost
        conversions.append((delta, cycle.legs[0].path_id, cycle))
    conversions.sort(key=lambda item: item[:2])
    return conversions


def finalize_cycles(solution: Solution) -> None:
    """Close each lone cycle with an empty return trip, outsourcing its
    commodity when no return slot is free, then assign asset ids."""
    instance = solution.instance
    tsn = solution.tsn
    solution.cycles.sort(key=lambda c: min(c.carried_paths))
    survivors: list[AssetCycle] = []
    for cycle in solution.cycles:
        if not cycle.merged:
            # a lone asset runs only its service leg plus the empty return
            # trip; the commodity's own waiting happens on uncapacitated
            # holding arcs
            path = solution.book.by_id[cycle.legs[0].path_id]
            svc_arc = tsn.arcs[path.arcs[path.lead_holds] - 1]
            leg = cycle.legs[0]._replace(
                start=svc_arc.depart, busy=svc_arc.duration, arcs=(svc_arc.id,)
            )
            cycle = _close_cycle(solution, [leg], "lone cycle failed its walk")
            if cycle is None:
                # no conflict-free return slot
                _reselect(solution, path, solution.book.cheapest_outsourced(path.oc_id))
                continue
        survivors.append(cycle)
    solution.cycles = survivors
    for index, cycle in enumerate(solution.cycles, start=1):
        cycle.asset_id = index
        cycle.kind = "owned" if index <= instance.owned_assets else "leased"


def solution_to_assignment(solution: Solution) -> dict[str, float]:
    """Translate a finalized schedule into model variable values.

    Asset cycles become y/d values.  Each selected delivery becomes a p
    plus a flow along its chain extended by holding arcs up to the due
    node, which is what flow conservation demands of any delivery that
    arrives early; outsourced deliveries additionally set their s flag.
    """
    tsn = solution.tsn
    book = solution.book
    period_count = solution.instance.period_count
    fleet = solution.instance.owned_assets + solution.instance.leasable_assets
    values: dict[str, float] = {}
    for cycle in solution.cycles:
        if not cycle.arc_seq:
            raise CssndError("cycles must be finalized before conversion")
        if not 1 <= cycle.asset_id <= fleet:
            raise CssndError(
                "schedule uses more assets than the fleet offers; resolve "
                "capacity before converting"
            )
        values[D_NAME.format(cycle.asset_id)] = 1.0
        for arc_id in cycle.arc_seq:
            values[Y_NAME.format(cycle.asset_id, arc_id)] = 1.0
    for oc_id, path in solution.selected.items():
        tc = book.tc_of(path)
        values[P_NAME.format(tc.id)] = 1.0
        flow_arcs = list(path.arcs)
        t = path.arrival_period
        while t != tc.due_period:
            flow_arcs.append(tsn.holding_arc(tc.dest_physical, t).id)
            t = wrap_period(t + 1, period_count)
        for arc_id in flow_arcs:
            values[X_NAME.format(tc.id, arc_id)] = tc.volume
            if tsn.arcs[arc_id - 1].kind == "outsourced":
                values[S_NAME.format(tc.id, arc_id)] = 1.0
    return values


def run_dmam(
    instance: Instance, config: str = CONFIG_ADVANCED
) -> tuple[Solution, dict]:
    """Run all phases; returns the solution and a flat report row.

    `instance` is taken as valid, as `build_mip` and `check_solution` take
    it: `load_instance` and `generate_instance` validate what they return.
    """
    if config not in (CONFIG_RANDOM, CONFIG_CUSTOM, CONFIG_ADVANCED):
        raise CssndError(f"unknown configuration '{config}'")
    timings = {}
    t0 = time.perf_counter()
    tsn = build_time_space_network(instance.physical, instance.period_count)
    book = PathBook(instance, tsn)
    timings["paths"] = time.perf_counter() - t0

    def log(solution, phase, t_start):
        solution.phase_log.append(
            PhaseStat(
                phase=phase,
                cycles=len(solution.cycles),
                seconds=time.perf_counter() - t_start,
            )
        )

    t = time.perf_counter()
    solution = construct_initial(instance, book)
    log(solution, "construct", t)

    t = time.perf_counter()
    merge_phase(solution, config)
    log(solution, "merge", t)

    t = time.perf_counter()
    mix_phase(solution)
    log(solution, "mix", t)

    t = time.perf_counter()
    resolve_capacity(solution)
    finalize_cycles(solution)
    log(solution, "capacity", t)

    report = {
        "config": config,
        **solution.summary(),
        "timings": {**timings, **{s.phase: s.seconds for s in solution.phase_log}},
        "cycle_counts": {s.phase: s.cycles for s in solution.phase_log},
    }
    return solution, report
