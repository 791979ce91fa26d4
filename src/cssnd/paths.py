"""Commodity path enumeration and pricing.

A commodity path carries one TC over exactly one service (or outsourced) leg
plus holding arcs at its endpoint terminals.  The chain always starts at the
TC's release node; waiting before departure is a run of leading holding arcs
and early arrival leaves a gap to the due node.

Pricing note: whichever chain shape is chosen, the flow behind it must still
occupy holding arcs from release until the leg departs and from arrival to
the due node, and each of those periods is billed at the holding rate.  Path
cost therefore charges the full residual window (span - leg duration) of
holding, which makes the heuristic's totals agree with the exact objective
to the last bit.  Shapes of one TC consequently differ in cost only through
their service leg.

A TC's chains share their holding arcs: its origin's wait arcs from
release and its destination's holding arcs from the earliest arrival are
looked up once, and each shape takes a prefix of the waits and a run of the
destination's arcs starting where its leg arrives.  A path's cost depends
only on its leg, so it is worked out once per leg and shared by the leg's
shapes; `priced_shapes` prices the legs of every TC it is given in one
call of the cost table.

Paths are made on demand.  A TC keeps its shapes as arithmetic
(`PathShapes`): its legs and their prices, its first path id and the shape
index of each (lead, trail).  A path is made the first time it is read and
kept, so one id always gives one object, and the holding arcs are looked
up with the TC's first offered path.  A caller that needs only prices, as
Phase II's cheapest-path choice does, reads the legs' prices and makes the
one path it picks.

Volume follows the exact model: holding and service arcs are billed per
unit of flow, so their cost scales with the TC's volume, while an
outsourced leg is billed once per shipment.  A service leg is offered only
when its capacity holds the whole volume; a larger commodity is outsourced.
"""

from __future__ import annotations

from bisect import bisect_right
from collections.abc import Iterator, Mapping
from typing import NamedTuple

from .core import (
    Arc,
    CostParams,
    TimeSpaceNetwork,
    TransformedCommodity,
    wrap_period,
)

OFFERED = "offered"
OUTSOURCED_MODE = "outsourced"


class CommodityPath(NamedTuple):
    """One path of one TC.  A value record like `Arc`: equal to (and hashed
    as) the tuple of its fields; a changed copy is `path._replace(...)`."""

    id: int
    tc_id: int
    oc_id: int
    kind: str                   # early | original | tardy
    mode: str                   # offered | outsourced
    arcs: tuple[int, ...]       # arc ids, contiguous chain
    origin_physical: int
    dest_physical: int
    depart_period: int          # chain start == TC release
    arrival_period: int         # chain end, at or before due
    leg_duration: int           # service / outsourced leg length in periods
    lead_holds: int
    trail_holds: int
    busy_periods: int           # cyclic span from chain start to chain end
    cost: float                 # penalty multiplier and residual holding included


def path_cost(
    leg_cost: float,
    holding_cost: float,
    window_span: int,
    leg_duration: int,
    multiplier: float,
    volume: float = 1.0,
) -> float:
    """Price a path: (leg + full residual holding of `volume` units) scaled
    by the penalty.  `leg_cost` is the leg's whole charge."""
    residual = max(0, window_span - leg_duration)
    return multiplier * (leg_cost + volume * holding_cost * residual)


def shape_arcs(tc: TransformedCommodity,
               tsn: TimeSpaceNetwork) -> tuple[list[Arc], Arc]:
    """A TC's service legs, by lead, and its outsourced arc at release."""
    period_count = tsn.period_count
    o, dest, release = tc.origin_physical, tc.dest_physical, tc.release_period
    service = tsn.service_arc(o, dest, 1)
    legs = []
    if service.capacity >= tc.volume:
        legs = [
            tsn.service_arc(o, dest, wrap_period(release + lead, period_count))
            for lead in range(tc.window_span(period_count) - service.duration + 1)
        ]
    return legs, tsn.outsourced_arc(o, dest, release)


class PathShapes:
    """The paths of one TC, numbered from `first_id`, as shape arithmetic.

    Offered shapes are every split (lead, trail) of at most `slack` holding
    arcs around the service leg, numbered lead-ascending then trail-
    ascending; the outsourced shape comes last.  The outsourced shape is the
    outsourced arc at release with no holding arcs around it, the only shape
    when the window is too tight for any offered leg or the service capacity
    is below the TC's volume: a third party can always be paid to carry the
    commodity.

    The shapes are kept as their legs and prices: `legs[lead]` departs
    `lead` periods after release and costs `leg_costs[lead]`, shared by
    every trail of the lead; the outsourced path costs `out_cost`.  A path
    is made the first time `path` is asked for its shape index and kept,
    so an index always gives the same object.  The holding arcs are looked
    up when the first offered path is made.
    """

    __slots__ = ("tc", "tsn", "first_id", "legs", "leg_costs", "out",
                 "out_cost", "count", "_duration", "_slack", "_holds", "_paths")

    def __init__(self, tc: TransformedCommodity, tsn: TimeSpaceNetwork,
                 costs: CostParams, first_id: int, legs: list[Arc], out: Arc,
                 prices: list[float]):
        """`legs` and `out` are `shape_arcs(tc, tsn)`, and `prices` the
        TC's per-unit prices on the legs, then on `out`."""
        span = tc.window_span(tsn.period_count)
        d = out.duration            # an outsourced arc mirrors its service arc
        slack = span - d
        *prices, out_price = prices
        multiplier = costs.multiplier(tc.kind)

        def priced(charge: float) -> float:
            return path_cost(charge, costs.holding_cost, span, d, multiplier, tc.volume)

        self.tc, self.tsn, self.first_id = tc, tsn, first_id
        # service legs are billed per unit of volume, the outsourced leg
        # once per shipment
        self.legs, self.out = legs, out
        self.leg_costs = [priced(tc.volume * price) for price in prices]
        self.out_cost = priced(out_price)
        self.count = len(legs) * (len(legs) + 1) // 2 + 1
        self._duration, self._slack = d, slack
        self._holds: tuple[tuple[int, ...], tuple[int, ...]] | None = None
        self._paths: list[CommodityPath | None] = [None] * self.count

    def index(self, lead: int, trail: int) -> int:
        """The shape index of the offered shape (lead, trail)."""
        return lead * len(self.legs) - lead * (lead - 1) // 2 + trail

    def path(self, index: int) -> CommodityPath:
        """The path of shape `index`, made on the first call."""
        path = self._paths[index]
        if path is None:
            path = self._paths[index] = self._make(index)
        return path

    def paths(self) -> list[CommodityPath]:
        """Every path of the TC, in shape order."""
        return [self.path(index) for index in range(self.count)]

    def _make(self, index: int) -> CommodityPath:
        tc, tsn = self.tc, self.tsn
        period_count = tsn.period_count
        o, dest, release = tc.origin_physical, tc.dest_physical, tc.release_period
        d = self._duration
        if index == self.count - 1:
            mode, leg, lead, trail, cost = OUTSOURCED_MODE, self.out, 0, 0, self.out_cost
            arcs: tuple[int, ...] = (leg.id,)
        else:
            lead, trail, width = 0, index, len(self.legs)
            while trail >= width - lead:
                trail -= width - lead
                lead += 1
            mode, leg, cost = OFFERED, self.legs[lead], self.leg_costs[lead]
            waits, trails = self._holds or self._look_up_holds()
            arcs = (*waits[:lead], leg.id, *trails[lead:lead + trail])
        return CommodityPath(
            self.first_id + index, tc.id, tc.parent_id, tc.kind, mode, arcs,
            o, dest, release, wrap_period(leg.arrive + trail, period_count),
            d, lead, trail, lead + d + trail, cost,
        )

    def _look_up_holds(self) -> tuple[tuple[int, ...], tuple[int, ...]]:
        """The origin's wait arcs from release and the destination's holding
        arcs from the earliest arrival, kept: a leg `lead` periods after
        release starts its trail at trails[lead]."""
        tc, tsn = self.tc, self.tsn
        period_count = tsn.period_count

        def holds(phys: int, first: int) -> tuple[int, ...]:
            return tuple(
                tsn.holding_arc(phys, wrap_period(first + step, period_count)).id
                for step in range(self._slack)
            )

        self._holds = (holds(tc.origin_physical, tc.release_period),
                       holds(tc.dest_physical, tc.release_period + self._duration))
        return self._holds


class PathsById(Mapping):
    """Path id -> path over the shapes of TCs numbered back to back, each
    path made the first time it is read.  Its length is the number of ids,
    made or not."""

    def __init__(self, shapes: list[PathShapes]):
        self._shapes = shapes
        self._firsts = [s.first_id for s in shapes]
        self._count = shapes[-1].first_id + shapes[-1].count - 1 if shapes else 0

    def __getitem__(self, path_id: int) -> CommodityPath:
        if type(path_id) is not int or not 1 <= path_id <= self._count:
            raise KeyError(path_id)
        shapes = self._shapes[bisect_right(self._firsts, path_id) - 1]
        return shapes.path(path_id - shapes.first_id)

    def __iter__(self) -> Iterator[int]:
        return iter(range(1, self._count + 1))

    def __len__(self) -> int:
        return self._count


def priced_shapes(tcs: list[TransformedCommodity], tsn: TimeSpaceNetwork,
                  costs: CostParams, first_id: int = 1) -> list[PathShapes]:
    """The shapes of each TC of `tcs`, numbered back to back from
    `first_id`; every TC's legs and outsourced arc are priced in one call."""
    arcs = [shape_arcs(tc, tsn) for tc in tcs]
    priced = costs.table.prices(
        [(legs + [out], tc.id) for tc, (legs, out) in zip(tcs, arcs)]
    )
    shapes = []
    for tc, (legs, out), prices in zip(tcs, arcs, priced):
        shapes.append(PathShapes(tc, tsn, costs, first_id, legs, out, prices))
        first_id += shapes[-1].count
    return shapes


def enumerate_paths(
    tc: TransformedCommodity,
    tsn: TimeSpaceNetwork,
    costs: CostParams,
    id_start: int = 1,
) -> list[CommodityPath]:
    """Every shape of a TC made, offered shapes first, then the outsourced
    one (see `PathShapes`), numbered from `id_start`."""
    return priced_shapes([tc], tsn, costs, id_start)[0].paths()
