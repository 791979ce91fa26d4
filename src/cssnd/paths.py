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
shapes.

Volume follows the exact model: holding and service arcs are billed per
unit of flow, so their cost scales with the TC's volume, while an
outsourced leg is billed once per shipment.  A service leg is offered only
when its capacity holds the whole volume; a larger commodity is outsourced.
"""

from __future__ import annotations

from typing import NamedTuple

from .core import (
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


def enumerate_paths(
    tc: TransformedCommodity,
    tsn: TimeSpaceNetwork,
    costs: CostParams,
    id_start: int = 1,
) -> list[CommodityPath]:
    """All single-leg paths of a TC, offered shapes first, then outsourced.

    Offered shapes are every split (lead, trail) of at most `slack` holding
    arcs around the service leg, enumerated lead-ascending then trail-
    ascending.  The list always ends with the outsourced path, which is
    the only one when the window is too tight for any offered leg or the
    service capacity is below the TC's volume: a third party can always be
    paid to carry the commodity.  The outsourced shape is the outsourced
    arc at release with no holding arcs around it.
    """
    period_count = tsn.period_count
    span = tc.window_span(period_count)
    o, dest, release = tc.origin_physical, tc.dest_physical, tc.release_period
    service = tsn.service_arc(o, dest, 1)
    d = service.duration
    slack = span - d
    legs = []
    if service.capacity >= tc.volume:
        legs = [
            tsn.service_arc(o, dest, wrap_period(release + lead, period_count))
            for lead in range(slack + 1)
        ]
    out = tsn.outsourced_arc(o, dest, release)
    *prices, out_price = costs.table.pricer(legs + [out])(tc.id)
    multiplier = costs.multiplier(tc.kind)

    def priced(charge: float) -> float:
        return path_cost(charge, costs.holding_cost, span, d, multiplier, tc.volume)

    def holds(phys: int, first: int) -> tuple[int, ...]:
        return tuple(
            tsn.holding_arc(phys, wrap_period(first + step, period_count)).id
            for step in range(slack)
        )

    # a leg `lead` periods after release starts its trail at trails[lead]
    waits, trails = holds(o, release), holds(dest, release + d)
    # (mode, leg, lead, trail, cost): service legs are billed per unit of
    # volume, the outsourced leg once per shipment
    leg_costs = [priced(tc.volume * price) for price in prices]
    shapes = [
        (OFFERED, leg, lead, trail, cost)
        for lead, (leg, cost) in enumerate(zip(legs, leg_costs))
        for trail in range(slack - lead + 1)
    ]
    shapes.append((OUTSOURCED_MODE, out, 0, 0, priced(out_price)))
    return [
        CommodityPath(
            id_start + n, tc.id, tc.parent_id, tc.kind, mode,
            (*waits[:lead], leg.id, *trails[lead:lead + trail]),
            o, dest, release, wrap_period(leg.arrive + trail, period_count),
            d, lead, trail, lead + d + trail, cost,
        )
        for n, (mode, leg, lead, trail, cost) in enumerate(shapes)
    ]
