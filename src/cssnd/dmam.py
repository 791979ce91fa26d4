"""Multi-phase construction and improvement heuristic.

Phase I numbers the commodity paths, each made when it is first read (see
`paths`).  Phase II dedicates one asset per cheapest path.  Phase III
merges pairs of paths into shared asset cycles, either greedily (config
"r"), via smallest-conflicted-pairs-first selection (config "c"), or via
an exact maximum-cardinality minimum-cost matching over the explored pairs
(config "a").  Phase IV mixes leftover single paths into other cycles by
letting a holding arc ride a dominant path.  Phase V ranks the cycles
once, covers the asset shortage by leasing or outsourcing in that order,
and finalizes asset cycles.

Feasibility works on a normalized timeline: each leg of a cycle is lifted
into the horizon after the start of the leg before it, and the cycle wraps
at t_wrap, one horizon after the first leg's start.  `_gaps` lists the
empty stretches from each leg's end to the next start, the last one ending
at t_wrap.  A stretch overruns by d(from, to) + earliest - latest; the legs
fit one asset when none is positive, and `_plan_repositioning` takes its
trips from the same list.  A pair's two overruns are forth = d(D1, O2) +
t_D1 - t_O2 and back = d(D2, O1) + t_D2 - t_wrap.  The paper sorts a pair
into four types by the repositioning legs it needs (none, one after either
chain, or two) and gives each type its own time-wise conditions; since a
needed leg takes at least one period and an unneeded one none, each type's
strict gap condition follows from its distance condition, and the four
types collapse into the two overruns.  Moving the chains by one-period
offsets (a1, a2) adds a1 - a2 to forth and takes it from back, so a pair
that overruns by one or two periods is retried with the early/tardy sibling
paths whose offsets absorb it.  The starts cancel out of forth + back =
d(D1, O2) + d(D2, O1) + both busy spans - |T|, and a shifted sibling keeps
its terminals and busy span, so a pair whose sum is positive is skipped
before its gaps are computed.

Every chain an asset runs is a `Leg` that `leg_view` cuts, where the asset
runs it, from the one path it holds: a whole chain, a Phase IV particle
without the hold that rides a dominant path, or a lone cycle's service leg.
`_commit` is the one step that closes a cycle: a merge, a mix and Phase V's
close of a lone cycle each hand it the legs as their paths run them and the
cycles they replace.  It frees the replaced cycles' trip slots, swaps the
new paths in and closes the cycle, and undoes all of it when it is refused.
A cycle is placed and walked once, when it closes: `_commit` lifts each leg
after the start of the one before it (the first after period 0) by `_lift`,
the rule `_gaps` applies for the fit test, and `_walk` checks the placed
legs and returns the arc sequence the asset runs.  `_outsource` is the one
step that drops a cycle.

A merged cycle runs both carried chains, the repositioning legs between
them, and idle holds in the gaps.  A lone cycle runs just its service leg,
an empty return trip, and idle holds: dragging the chain's waiting periods
along can make the cycle too long to close, and a commodity waiting on an
uncapacitated holding arc occupies no asset anyway, exactly as in the exact
model where holding arcs appear in no forcing constraint.
"""

from __future__ import annotations

import time
from collections import Counter
from collections.abc import Container
from dataclasses import dataclass, field
from typing import NamedTuple

from .core import (
    COST_SCALE,
    CssndError,
    EARLY,
    Instance,
    KIND_SHIFT,
    ORIGINAL,
    OUTSOURCED,
    TARDY,
    TimeSpaceNetwork,
    TransformedCommodity,
    build_time_space_network,
    cyclic_span,
    expand_commodities,
    wrap_period,
)
from .matching import max_weight_matching
from .model import D_NAME, P_NAME, S_NAME, X_NAME, Y_NAME
from .paths import (
    OFFERED,
    OUTSOURCED_MODE,
    CommodityPath,
    PathShapes,
    PathsById,
    priced_shapes,
)

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
    """A chain one asset runs for one commodity: `arcs` of `path`, from
    `phys_from` at period `start` to `phys_to` `busy` periods later.  A leg
    cut from a path starts at its first arc's period, unwrapped, so it may
    exceed |T|; on a cycle's axis `start` is the normalized period."""

    path: CommodityPath
    phys_from: int
    phys_to: int
    start: int
    busy: int
    arcs: tuple[int, ...]


def leg_view(path: CommodityPath, first: int = 0, last: int | None = None) -> Leg:
    """The leg that runs `path.arcs[first:last]`, a cut that keeps the
    path's service or outsourced leg; every other arc is a one-period hold."""
    arcs = path.arcs[first:last]
    return Leg(
        path, path.origin_physical, path.dest_physical,
        path.depart_period + first, path.leg_duration + len(arcs) - 1, arcs,
    )


def _lift(prev: int, start: int, period_count: int) -> int:
    """`start` moved into the horizon after `prev`: prev < lifted <= prev +
    |T|.  A start already there stays put."""
    return prev + (start - prev - 1) % period_count + 1


def _gaps(legs: list[Leg], period_count: int) -> list[tuple[int, int, int, int]]:
    """(from, to, earliest, latest) of each empty stretch of a cycle that
    runs `legs` in order, each lifted into the horizon after the start of
    the one before it."""
    first = legs[0]
    start, at = first.start, first.phys_to
    end = start + first.busy
    gaps = []
    for leg in legs[1:]:
        start = _lift(start, leg.start, period_count)
        gaps.append((at, leg.phys_from, end, start))
        end, at = start + leg.busy, leg.phys_to
    gaps.append((at, first.phys_from, end, first.start + period_count))
    return gaps


def _overruns(legs: list[Leg], instance: Instance) -> list[int]:
    """By how many periods the trip of each of the legs' `_gaps` overruns
    it.  The legs fit one cycle when none is positive."""
    distance = instance.physical.distance   # 0-indexed, 0 on the diagonal
    return [
        distance[phys_from - 1][phys_to - 1] + earliest - latest
        for phys_from, phys_to, earliest, latest
        in _gaps(legs, instance.period_count)
    ]


class MergeCandidate(NamedTuple):
    """A feasible pair: `path_one` and `path_two` are replaced by `new_one`
    and `new_two` (themselves when neither overruns), whose legs, as the
    new paths run them, fit one cycle once `_commit` places them."""

    path_one: CommodityPath
    path_two: CommodityPath
    combined_cost: float
    new_one: CommodityPath
    new_two: CommodityPath


class PathBook:
    """Every TC's paths, numbered from 1 in TC order, plus the lookups the
    phases need.  Every TC's legs are priced in one call, a path is made
    the first time it is read (see `PathShapes`), and each lookup makes
    only the paths it returns.
    `by_id` maps every path id to its path.  A leg is cut from its path
    only where an asset runs it, so the book keeps none."""

    def __init__(self, instance: Instance, tsn: TimeSpaceNetwork):
        self.instance = instance
        self.tsn = tsn
        self.tcs, self.incidence = expand_commodities(instance)
        self.tc_by_id = {tc.id: tc for tc in self.tcs}
        every = priced_shapes(self.tcs, tsn, instance.costs)
        self.shapes: dict[int, PathShapes] = {s.tc.id: s for s in every}
        self.by_id = PathsById(every)

    def tc_of(self, path: CommodityPath) -> TransformedCommodity:
        return self.tc_by_id[path.tc_id]

    def tc_paths(self, tc_id: int) -> list[CommodityPath]:
        return self.shapes[tc_id].paths()

    def oc_paths(self, oc_id: int) -> list[CommodityPath]:
        return [
            p for tc_id in self.incidence[oc_id] for p in self.tc_paths(tc_id)
        ]

    def sibling(self, path: CommodityPath, offset: int) -> CommodityPath | None:
        """Same-shape offered path of the TC shifted by `offset` periods.
        A commodity's variants share one window span, so they share one
        list of shapes: the sibling has the same shape index."""
        shift = KIND_SHIFT[path.kind] + offset
        if path.mode != OFFERED or shift not in (-1, 0, 1):
            return None
        tc_id = self.incidence[path.oc_id][shift + 1]     # early, original, tardy
        return self.shapes[tc_id].path(path.id - self.shapes[path.tc_id].first_id)

    def cheapest(self, oc_id: int, taken: Container[int]) -> CommodityPath:
        """The first of `oc_paths(oc_id)` by (cost, id) that is outsourced
        or whose service leg is not in `taken`.  A path costs what its leg
        costs, and a lead's shapes are numbered from trail 0 up, so only
        each free leg's shape with trail 0 and each variant's outsourced
        path compete, and only the one picked is made."""
        candidates = []     # (cost, id, shapes, shape index)
        for tc_id in self.incidence[oc_id]:
            shapes = self.shapes[tc_id]
            for lead, (leg, cost) in enumerate(zip(shapes.legs, shapes.leg_costs)):
                if leg.id not in taken:
                    index = shapes.index(lead, 0)
                    candidates.append((cost, shapes.first_id + index, shapes, index))
            index = shapes.count - 1
            candidates.append((shapes.out_cost, shapes.first_id + index, shapes, index))
        _, _, shapes, index = min(candidates)
        return shapes.path(index)

    def cheapest_outsourced(self, oc_id: int) -> CommodityPath:
        """Each variant's outsourced path ends its shapes, and ids rise
        with the variant."""
        shapes = min(
            (self.shapes[tc_id] for tc_id in self.incidence[oc_id]),
            key=lambda shapes: (shapes.out_cost, shapes.first_id),
        )
        return shapes.path(shapes.count - 1)


@dataclass(eq=False)
class AssetCycle:
    legs: list[Leg]
    rep_plan: list[tuple[int, int]] = field(default_factory=list)  # (arc, t)
    asset_id: int = 0
    kind: str = "owned"
    arc_seq: tuple[int, ...] = ()

    @property
    def carried_paths(self) -> list[int]:
        return [leg.path.id for leg in self.legs]

    @property
    def merged(self) -> bool:
        return len(self.legs) > 1


@dataclass
class Solution:
    instance: Instance
    tsn: TimeSpaceNetwork
    book: PathBook
    selected: dict[int, CommodityPath] = field(default_factory=dict)
    cycles: list[AssetCycle] = field(default_factory=list)
    dominant: set[int] = field(default_factory=set)
    svc_registry: dict[int, int] = field(default_factory=dict)  # arc -> path

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
        kinds = Counter(
            path.kind for path in self.selected.values() if path.mode == OFFERED
        )
        return {
            "owned_used": self.owned_used(),
            "leased": self.leased(),
            "on_time": kinds[ORIGINAL],
            "early": kinds[EARLY],
            "tardy": kinds[TARDY],
            "outsourced": len(self.outsourced),
            "total_cost": self.total_cost(),
        }


def construct_initial(instance: Instance, book: PathBook) -> Solution:
    """Phase II: cheapest path per original commodity, one cycle per offered
    path, outsourced fallback where no offered path exists."""
    solution = Solution(instance=instance, tsn=book.tsn, book=book)
    registry = solution.svc_registry
    for oc in instance.commodities:
        path = book.cheapest(oc.id, registry)
        solution.selected[oc.id] = path
        if path.mode == OFFERED:
            registry[path.arcs[path.lead_holds]] = path.id
            solution.cycles.append(AssetCycle(legs=[leg_view(path)]))
    return solution


def _pair_order(solution: Solution):
    """Exploration order over the lone cycles' legs: leg one from longest
    to shortest busy span (ties by path id), so the primary paths, busy for
    more than half the horizon, come first; leg two over strictly shorter
    (or equal, later-id) spans that can share a horizon with it.  No two
    lone cycles carry one commodity, so two legs carry two."""
    period_count = solution.instance.period_count
    ordered = sorted(
        (c.legs[0] for c in solution.cycles if not c.merged),
        key=lambda leg: (-leg.busy, leg.path.id),
    )
    for leg1 in ordered:
        cap = min(leg1.busy, period_count - leg1.busy)
        for leg2 in ordered:
            if leg2 is leg1 or leg2.busy > cap:
                continue
            if leg2.busy == leg1.busy and leg2.path.id < leg1.path.id:
                continue
            yield leg1, leg2


def explore_pair(
    leg1: Leg, leg2: Leg, solution: Solution
) -> MergeCandidate | None:
    """The cheapest way to run both legs' paths on one asset: as they are
    when neither overruns, else by the shifting alternative whose sibling
    paths absorb an overrun of one or two periods.  Shifted sibling chains
    keep their shape, so the new paths' own legs fit where they run.  A
    pair whose trips there and back and busy spans overrun |T| is refused
    before its gaps are computed: no shift can make both overruns fit."""
    instance = solution.instance
    distance = instance.physical.distance   # 0-indexed, 0 on the diagonal
    if (distance[leg1.phys_to - 1][leg2.phys_from - 1]
            + distance[leg2.phys_to - 1][leg1.phys_from - 1]
            + leg1.busy + leg2.busy > instance.period_count):
        return None
    path1, path2 = leg1.path, leg2.path
    forth, back = _overruns([leg1, leg2], instance)
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
            best = (cost, new1, new2)
    return None if best is None else MergeCandidate(path1, path2, *best)


def _plan_repositioning(
    solution: Solution, legs: list[Leg]
) -> list[tuple[int, int]] | None:
    """Choose the empty trips of a cycle that runs `legs` in order, one in
    each of its `_gaps` whose ends are different terminals.  Each trip
    takes the earliest service arc no other asset operates, and the
    registry marks it taken.  Times are normalized; returns (arc_id,
    normalized depart) pairs, or None, taking nothing, when some trip finds
    no free slot."""
    instance = solution.instance
    tsn = solution.tsn
    period_count = instance.period_count
    plan: list[tuple[int, int]] = []
    taken = set(solution.svc_registry)
    for phys_from, phys_to, earliest, latest in _gaps(legs, period_count):
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


def _walk(
    solution: Solution, legs: list[Leg], plan: list[tuple[int, int]]
) -> tuple[int, ...]:
    """The closed arc sequence of one asset that runs `legs` and the empty
    trips of `plan` where they start on the normalized axis, holding idle in
    between, for one horizon from the first leg's start.

    Raises CssndError, naming the legs' path ids, when a leg leaves its
    delivery window, the asset is not where a leg or trip departs, a leg or
    trip is left over (as overlapping chains are), or the arcs do not close
    a cycle of exactly |T| periods.
    """
    tsn = solution.tsn
    period_count = tsn.period_count
    problems = []
    steps = {}      # normalized start -> (from, arcs, end, to)
    for leg in legs:
        tc = solution.book.tc_of(leg.path)
        offset = cyclic_span(
            tc.release_period, wrap_period(leg.start, period_count), period_count
        )
        if offset + leg.busy > tc.window_span(period_count):
            problems.append(f"path {leg.path.id} violates its delivery window")
        steps[leg.start] = (leg.phys_from, leg.arcs, leg.start + leg.busy, leg.phys_to)
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
        paths = ", ".join(str(leg.path.id) for leg in legs)
        raise CssndError(
            f"cycle of paths {paths} failed its walk: " + "; ".join(problems)
        )
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
    solution: Solution, legs: list[Leg], replaced: list[AssetCycle]
) -> bool:
    """Replace the cycles `replaced` by one cycle running `legs` in order,
    each as `leg_view` cuts it from its path.  The path of `legs[i]` delivers
    the commodity of the i-th leg of `replaced`, the legs taken in order, and
    is swapped in where it is another path.  The new cycle lifts each leg
    after the start of the one before it (the first after period 0), in a
    new list, plans its empty trips, walks its arc sequence and takes the
    place of `replaced[0]` in `solution.cycles`; the others leave it.

    The empty trips of `replaced` free their slots (`-1` in the registry)
    first.  Refused, changing nothing, when a new path's service slot is
    held by any path but the one it replaces, when two new paths share a
    slot, or when some empty trip of the cycle finds no free slot.
    """
    carried = [leg.path for cycle in replaced for leg in cycle.legs]
    swaps = [
        (old, leg.path) for leg, old in zip(legs, carried) if leg.path is not old
    ]
    period_count = solution.instance.period_count
    placed, start = [], 0
    for leg in legs:
        start = _lift(start, leg.start, period_count)
        placed.append(leg._replace(start=start))
    registry = solution.svc_registry
    trips = [arc_id for cycle in replaced for arc_id, _ in cycle.rep_plan]
    for arc_id in trips:
        del registry[arc_id]
    incoming = [new.arcs[new.lead_holds] for _, new in swaps]
    if len(set(incoming)) == len(incoming) and all(
        registry.get(svc, old.id) == old.id
        for svc, (old, _) in zip(incoming, swaps)
    ):
        for old, new in swaps:
            _reselect(solution, old, new)
        plan = _plan_repositioning(solution, placed)
        if plan is not None:
            cycles = solution.cycles
            cycles[cycles.index(replaced[0])] = AssetCycle(
                legs=placed, rep_plan=plan, arc_seq=_walk(solution, placed, plan)
            )
            for cycle in replaced[1:]:
                cycles.remove(cycle)
            return True
        for old, new in swaps:
            _reselect(solution, new, old)
    for arc_id in trips:
        registry[arc_id] = -1               # repositioning marker
    return False


def merge_phase(solution: Solution, config: str) -> int:
    """Phase III.  Returns the number of merges executed.

    Candidates are explored lazily in `_pair_order`.  Config r commits the
    first one that fits and explores afresh; configs c and a select among
    all of them and commit the selection in order.  A merge replaces the
    lone cycles of its paths, mapped once: the phase makes no lone cycle,
    r explores afresh, and the selections of c and a are vertex-disjoint."""
    lone = {c.legs[0].path.id: c for c in solution.cycles if not c.merged}

    def candidates():
        explored = (explore_pair(*pair, solution) for pair in _pair_order(solution))
        return filter(None, explored)

    def commit(c: MergeCandidate) -> bool:
        replaced = [lone[c.path_one.id], lone[c.path_two.id]]
        return _commit(solution, [leg_view(c.new_one), leg_view(c.new_two)], replaced)

    if config == CONFIG_RANDOM:
        executed = 0
        while any(commit(c) for c in candidates()):
            executed += 1
        return executed
    select = {CONFIG_CUSTOM: scopf, CONFIG_ADVANCED: solve_p2}[config]
    return sum(commit(c) for c in select(list(candidates())))


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


def solve_p2(candidates: list[MergeCandidate]) -> list[MergeCandidate]:
    """Exact solution of the pair-selection program: maximum number of
    vertex-disjoint candidates, minimum total cost among those, returned in
    exploration order.  No two candidates join the same pair of paths.

    The iterated target scheme (start at floor(|M|/2) selections, drop one
    by one until feasible, then minimize cost at the first feasible rung)
    lands exactly on the maximum-cardinality minimum-cost matching, which
    is computed here by the blossom algorithm on negated costs; depth-first
    enumeration was measured hopeless already at forty-odd conflicting
    paths.  Which optimum comes back among ties depends on the edge order,
    ascending by the pair's (lower, higher) path id.
    """
    ids = sorted({p.id for c in candidates for p in (c.path_one, c.path_two)})
    index = {v: n for n, v in enumerate(ids)}
    ends = [(index[c.path_one.id], index[c.path_two.id]) for c in candidates]
    mate = max_weight_matching(sorted(
        (min(i, j), max(i, j), -int(round(c.combined_cost * COST_SCALE)))
        for (i, j), c in zip(ends, candidates)
    ))
    return [c for (i, j), c in zip(ends, candidates) if mate[i] == j]


def mix_phase(solution: Solution) -> int:
    """Phase IV: drop a holding arc that rides another selected (dominant)
    path and merge the remaining particle, trying the commodity's variant
    paths when the current one cannot be placed.  Each unmerged single is
    visited once, in path-id order."""
    executed = 0
    sources = sorted(
        (c for c in solution.cycles if not c.merged),
        key=lambda c: c.legs[0].path.id,
    )
    for cycle in sources:
        if cycle not in solution.cycles:
            continue                    # consumed as a target meanwhile
        current = cycle.legs[0].path
        if current.id in solution.dominant:
            continue
        if _try_mix_cycle(solution, cycle, current):
            executed += 1
    return executed


def _selected_arc_owners(solution: Solution) -> dict[int, list[CommodityPath]]:
    owners: dict[int, list[CommodityPath]] = {}
    for path in solution.selected.values():
        if path.mode != OFFERED:
            continue
        for arc_id in path.arcs:
            owners.setdefault(arc_id, []).append(path)
    return owners


def _try_mix_cycle(
    solution: Solution, cycle: AssetCycle, current: CommodityPath
) -> bool:
    book = solution.book
    instance = solution.instance
    hold_owners = _selected_arc_owners(solution)
    alternatives = [current] + [
        p for p in book.oc_paths(current.oc_id)
        if p.mode == OFFERED and p.id != current.id
    ]
    targets = [
        c for c in solution.cycles
        if not c.merged and c is not cycle
        and c.legs[0].path.id not in solution.dominant
    ]
    for alt in alternatives:
        for drop, arc_id in enumerate(alt.arcs):
            if drop == alt.lead_holds:
                continue                # a particle keeps its service leg
            dominant_ids = [
                owner.id
                for owner in hold_owners.get(arc_id, [])
                if owner.oc_id != current.oc_id
            ]
            if not dominant_ids:
                continue
            particle = (leg_view(alt, drop + 1) if drop < alt.lead_holds
                        else leg_view(alt, 0, drop))
            for target in targets:
                leg = target.legs[0]
                if max(_overruns([leg, particle], instance)) > 0:
                    continue
                # a particle cut from another path of `current`'s
                # commodity swaps that path in
                if _commit(solution, [leg, particle], [target, cycle]):
                    solution.dominant.add(dominant_ids[0])
                    return True
    return False


def resolve_capacity(solution: Solution) -> None:
    """Phase V: cover any shortage beyond the owned fleet by leasing or by
    outsourcing whole cycles.  Each cycle is ranked once: lone before
    merged, then by the cost increase of outsourcing every leg, then by its
    first leg's path id.  An increase stays as it is while other cycles are
    dropped, since each commodity rides one cycle.  The lone cycles that
    increase cost less than a lease are outsourced first, up to the
    shortage; the lease budget covers what is still short, and the next
    cycles in rank order the rest."""
    instance = solution.instance
    book = solution.book
    shortage = len(solution.cycles) - instance.owned_assets
    if shortage <= 0:
        return

    def rank(cycle: AssetCycle) -> tuple[bool, float, int]:
        delta = 0.0
        for leg in cycle.legs:
            path = leg.path
            delta += book.cheapest_outsourced(path.oc_id).cost - path.cost
        return cycle.merged, delta, cycle.legs[0].path.id

    ranked = sorted(
        ((rank(c), c) for c in solution.cycles), key=lambda item: item[0]
    )
    g = instance.costs.fixed_leased
    cheap = sum(not merged and delta < g for (merged, delta, _), _ in ranked)
    dropped = min(shortage, cheap)
    dropped += max(0, shortage - dropped - instance.leasable_assets)
    for _, cycle in ranked[:dropped]:
        _outsource(solution, cycle)


def _outsource(solution: Solution, cycle: AssetCycle) -> None:
    """Drop `cycle`: deliver each commodity it carries by its cheapest
    outsourced path, and free its repositioning slots."""
    for leg in cycle.legs:
        path = leg.path
        _reselect(solution, path, solution.book.cheapest_outsourced(path.oc_id))
    for arc_id, _ in cycle.rep_plan:
        del solution.svc_registry[arc_id]   # repositioning marker
    solution.cycles.remove(cycle)


def finalize_cycles(solution: Solution) -> None:
    """Order the cycles by their least carried path ids, then close each
    lone one in its place with an empty return trip through `_commit`,
    outsourcing its commodity when no return slot is free, and assign
    asset ids in that order."""
    instance = solution.instance
    solution.cycles.sort(key=lambda cycle: min(cycle.carried_paths))
    for cycle in list(solution.cycles):
        if cycle.merged:
            continue
        path = cycle.legs[0].path
        leg = leg_view(path, path.lead_holds, path.lead_holds + 1)
        if not _commit(solution, [leg], [cycle]):
            _outsource(solution, cycle)     # no conflict-free return slot
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
            if tsn.arcs[arc_id - 1].kind == OUTSOURCED:
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
    timings: dict[str, float] = {}
    cycle_counts: dict[str, int] = {}
    started = time.perf_counter()

    def lap(phase: str, solution: Solution | None = None) -> None:
        """Time the phase that ends now and count the cycles it leaves."""
        nonlocal started
        now = time.perf_counter()
        timings[phase], started = now - started, now
        if solution is not None:
            cycle_counts[phase] = len(solution.cycles)

    tsn = build_time_space_network(instance.physical, instance.period_count)
    book = PathBook(instance, tsn)
    lap("paths")
    solution = construct_initial(instance, book)
    lap("construct", solution)
    merge_phase(solution, config)
    lap("merge", solution)
    mix_phase(solution)
    lap("mix", solution)
    resolve_capacity(solution)
    finalize_cycles(solution)
    lap("capacity", solution)
    report = {
        "config": config,
        **solution.summary(),
        "timings": timings,
        "cycle_counts": cycle_counts,
    }
    return solution, report
