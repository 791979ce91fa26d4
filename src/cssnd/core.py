"""Domain types: physical network, time-space network, commodities, instances.

Conventions used throughout the package:

* Physical nodes are numbered 1..n, periods 1..|T|.
* The time-space node for (physical p, period t) is (p - 1) * |T| + t.
* Period arithmetic is cyclic: an arc departing period a with duration d
  arrives at ((a - 1 + d) mod |T|) + 1, wrapping around the end of the
  planning horizon when a + d > |T|.
* An arc departing a and arriving b *spans* period t when the activity is in
  progress during t: t in {a, a+1, ..., b-1} taken cyclically.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property
from typing import NamedTuple

from . import rng

HOLD = "hold"
SERVICE = "service"
OUTSOURCED = "outsourced"

EARLY = "early"
ORIGINAL = "original"
TARDY = "tardy"
KIND_ORDER = (EARLY, ORIGINAL, TARDY)
KIND_SHIFT = {EARLY: -1, ORIGINAL: 0, TARDY: +1}

# Cost distributions tied to the instance file contract: with a routing seed,
# service legs price at U[0.6, 1.0] and outsourced legs at 25 + U[1.2, 2.0]
# per (arc, transformed commodity).
SERVICE_COST_LO, SERVICE_COST_HI = 0.6, 1.0
OUTSOURCED_COST_BASE = 25.0
OUTSOURCED_COST_LO, OUTSOURCED_COST_HI = 1.2, 2.0
COST_SCALE = 10**9   # DMaM compares pair costs at 1e-9 resolution


class CssndError(Exception):
    """Domain error: invalid instance data or unusable arguments."""


def _require_int(what: str, value) -> None:
    if type(value) is not int:
        raise CssndError(f"{what} {value!r} is not an integer")


def _require_number(what: str, value) -> None:
    if type(value) is int:
        return
    if type(value) is not float or not math.isfinite(value):
        raise CssndError(f"{what} {value!r} is not a finite number")


def wrap_period(period: int, period_count: int) -> int:
    """Map an arbitrary integer onto the cyclic range 1..period_count."""
    return (period - 1) % period_count + 1


def cyclic_span(start: int, end: int, period_count: int) -> int:
    """Number of periods from start to end moving forward cyclically."""
    return (end - start) % period_count


def ts_node(physical: int, period: int, period_count: int) -> int:
    """Time-space node id for (physical, period); bijective and 1-based."""
    if period < 1 or period > period_count:
        raise CssndError(f"period {period} outside 1..{period_count}")
    if physical < 1:
        raise CssndError(f"physical node {physical} must be >= 1")
    return (physical - 1) * period_count + period


class Arc(NamedTuple):
    """One time-space arc. `duration` is in periods, `capacity` may be inf.

    A value record: equal to (and hashed as) the tuple of its fields, so it
    also equals a plain tuple of them; a changed copy is `arc._replace(...)`.
    """

    id: int
    kind: str                  # hold | service | outsourced
    phys_from: int
    phys_to: int
    depart: int                # period index 1..|T|
    arrive: int                # period index 1..|T|
    duration: int
    capacity: float

    def spans(self, t: int, period_count: int) -> bool:
        """True when the activity is under way during period t."""
        return cyclic_span(self.depart, t, period_count) < self.duration


@dataclass(frozen=True)
class PhysicalNetwork:
    node_count: int
    distance: tuple[tuple[int, ...], ...]   # d[i][j], 0-indexed, diagonal 0

    def d(self, i: int, j: int) -> int:
        """Distance in periods between physical nodes i and j (1-based)."""
        return self.distance[i - 1][j - 1]


def validate_distances(physical: PhysicalNetwork, period_count: int) -> list[str]:
    """Report every violation of the return-trip bound or triangle inequality.

    Returns an empty list when the matrix is usable.
    """
    n = physical.node_count
    dmat = physical.distance
    problems: list[str] = []
    if len(dmat) != n or any(len(row) != n for row in dmat):
        return [f"distance matrix is not {n}x{n}"]
    bound = period_count // 2
    for i in range(n):
        if dmat[i][i] != 0:
            problems.append(f"d[{i + 1}][{i + 1}] = {dmat[i][i]}, diagonal must be 0")
    for i in range(n):
        for j in range(n):
            if i == j:
                continue
            if dmat[i][j] < 1:
                problems.append(f"d[{i + 1}][{j + 1}] = {dmat[i][j]} < 1")
            if dmat[i][j] > bound:
                problems.append(
                    f"d[{i + 1}][{j + 1}] = {dmat[i][j]} exceeds "
                    f"floor(|T|/2) = {bound}, no return trip fits the horizon"
                )
    for i in range(n):
        for j in range(n):
            for k in range(n):
                if i != j and j != k and i != k:
                    if dmat[i][k] > dmat[i][j] + dmat[j][k]:
                        problems.append(
                            f"triangle violation: d[{i + 1}][{k + 1}] = {dmat[i][k]}"
                            f" > d[{i + 1}][{j + 1}] + d[{j + 1}][{k + 1}]"
                            f" = {dmat[i][j] + dmat[j][k]}"
                        )
    return problems


@dataclass
class TimeSpaceNetwork:
    """Complete holding/service network over the cyclic horizon.

    Immutable after construction.
    """

    node_count: int            # physical nodes
    period_count: int
    arcs: list[Arc] = field(default_factory=list)
    holding_arcs: list[Arc] = field(default_factory=list)
    service_arcs: list[Arc] = field(default_factory=list)
    outsourced_arcs: list[Arc] = field(default_factory=list)
    _service_index: dict = field(default_factory=dict, repr=False)
    _hold_index: dict = field(default_factory=dict, repr=False)
    _outsourced_index: dict = field(default_factory=dict, repr=False)

    @property
    def ts_node_count(self) -> int:
        return self.node_count * self.period_count

    def node(self, physical: int, period: int) -> int:
        return ts_node(physical, period, self.period_count)

    def arc_tail(self, arc: Arc) -> int:
        return self.node(arc.phys_from, arc.depart)

    def arc_head(self, arc: Arc) -> int:
        return self.node(arc.phys_to, arc.arrive)

    def service_arc(self, i: int, j: int, depart: int) -> Arc:
        return self._service_index[(i, j, depart)]

    def holding_arc(self, i: int, depart: int) -> Arc:
        return self._hold_index[(i, depart)]

    def outsourced_arc(self, i: int, j: int, depart: int) -> Arc:
        return self._outsourced_index[(i, j, depart)]


def build_time_space_network(
    physical: PhysicalNetwork, period_count: int
) -> TimeSpaceNetwork:
    """Build the complete time-space network over `physical`.

    One holding arc per node and period, one unit-capacity service arc per
    ordered physical pair and departure period, and one outsourced arc
    mirroring each service arc, in the same order.  Outsourced capacity is
    unlimited; the third party absorbs whatever volume is sent.  The
    distances are taken as valid: `Instance.validate` checks them.
    """
    tsn = TimeSpaceNetwork(node_count=physical.node_count, period_count=period_count)
    arcs = tsn.arcs
    inf = float("inf")

    def add(kind, i, j, duration, capacity) -> list[Arc]:
        """One arc per departure period, numbered on from the last arc."""
        first = len(arcs)
        row = [
            Arc(first + t, kind, i, j, t, (t + duration - 1) % period_count + 1,
                duration, capacity)
            for t in range(1, period_count + 1)
        ]
        arcs.extend(row)
        return row

    nodes = range(1, physical.node_count + 1)
    pairs = [(i, j) for i in nodes for j in nodes if i != j]
    for i in nodes:
        tsn.holding_arcs += add(HOLD, i, i, 1, inf)
    for i, j in pairs:
        tsn.service_arcs += add(SERVICE, i, j, physical.d(i, j), 1.0)
    for i, j in pairs:
        tsn.outsourced_arcs += add(OUTSOURCED, i, j, physical.d(i, j), inf)
    tsn._hold_index = {(a.phys_from, a.depart): a for a in tsn.holding_arcs}
    for row, index in ((tsn.service_arcs, tsn._service_index),
                       (tsn.outsourced_arcs, tsn._outsourced_index)):
        index.update(((a.phys_from, a.phys_to, a.depart), a) for a in row)
    return tsn


@dataclass(frozen=True)
class OriginalCommodity:
    id: int
    origin_physical: int
    dest_physical: int
    release_period: int
    due_period: int
    volume: float = 1.0


# The instance file's commodity record, in file order: (file key,
# attribute, check).  `io` writes and reads the keys from this table and
# COST_FIELDS, and `Instance.validate` names them in its messages.
COMMODITY_FIELDS = (
    ("id", "id", _require_int),
    ("origin", "origin_physical", _require_int),
    ("dest", "dest_physical", _require_int),
    ("release", "release_period", _require_int),
    ("due", "due_period", _require_int),
    ("volume", "volume", _require_number),
)


@dataclass(frozen=True)
class TransformedCommodity:
    """Early / original / tardy delivery variant of an original commodity."""

    id: int
    parent_id: int
    kind: str                  # early | original | tardy
    origin_physical: int
    dest_physical: int
    release_period: int
    due_period: int
    volume: float

    def origin_node(self, period_count: int) -> int:
        return ts_node(self.origin_physical, self.release_period, period_count)

    def dest_node(self, period_count: int) -> int:
        return ts_node(self.dest_physical, self.due_period, period_count)

    def window_span(self, period_count: int) -> int:
        return cyclic_span(self.release_period, self.due_period, period_count)


@dataclass(frozen=True)
class CostParams:
    fixed_owned: float = 25.0          # per owned asset used
    fixed_leased: float = 50.0         # per leased asset
    holding_cost: float = 0.15         # per holding arc and flow unit
    penalty_early: float = 1.2         # multiplier on early deliveries
    penalty_tardy: float = 1.2         # multiplier on tardy deliveries
    routing_seed: int | None = None
    routing_table: dict | None = None  # {(kind, i, j, depart, tc_id): cost}

    def multiplier(self, kind: str) -> float:
        if kind == EARLY:
            return self.penalty_early
        if kind == TARDY:
            return self.penalty_tardy
        return 1.0

    @cached_property
    def table(self) -> CostTable:
        """The one pricer of (TC, arc) pairs for these parameters."""
        return CostTable(self)


# The instance file's cost record besides its routing seed or table.
COST_FIELDS = (
    ("f", "fixed_owned", _require_number),
    ("g", "fixed_leased", _require_number),
    ("holding", "holding_cost", _require_number),
    ("r_e", "penalty_early", _require_number),
    ("r_l", "penalty_tardy", _require_number),
)


# kind -> (rng label, a, b): a routing-seeded price is a + b * U[0, 1).
PRICE_RULES = {
    SERVICE: ("svc", SERVICE_COST_LO, SERVICE_COST_HI - SERVICE_COST_LO),
    OUTSOURCED: (
        "out",
        OUTSOURCED_COST_BASE + OUTSOURCED_COST_LO,
        OUTSOURCED_COST_HI - OUTSOURCED_COST_LO,
    ),
}


class CostTable:
    """Per-unit routing prices of (TC, arc) pairs, without the penalty.

    With a routing seed, the price of TC `tc` on a service arc (i, j,
    depart) is a + b * rng.unit_at(seed, "svc", i, j, depart, tc), and
    likewise with "out" on an outsourced arc.  Each label is absorbed once
    per table, and the arc's ints are folded onto that state, in lanes
    (`rng.Lanes`), the first time a price asks for the arc (`absorb` is a
    left fold).  Only the TC key varies between the TCs of one arc, so each
    price costs two splitmix64 steps, run for many pairs in one kernel
    call.  With a routing table the price is a lookup, and a missing key
    is a CssndError.  Holding arcs cost `holding_cost` for every TC.
    `pricer` (one arc list, a kernel call per TC) and `prices` (many
    (arcs, TC) requests, one kernel call) are the entry points: paths and
    the exact model both price through them.
    """

    def __init__(self, params: CostParams):
        # The parameters are copied, not referenced: a reference back would
        # make params and table a cycle that only the cyclic GC frees.
        self.routing_seed = params.routing_seed
        self.routing_table = params.routing_table
        self.holding_cost = params.holding_cost
        self._prefix: dict[tuple[str, int, int, int], int] = {}
        self._label_state = {} if self.routing_seed is None else {
            kind: rng.absorb(self.routing_seed, label)
            for kind, (label, _, _) in PRICE_RULES.items()
        }

    def _lookup(self, key: tuple) -> float:
        try:
            return self.routing_table[key]
        except KeyError:
            raise CssndError(f"routing table has no cost for {key!r}") from None

    def _keys(self, arcs: list[Arc]) -> list[tuple[str, int, int, int] | None]:
        """Each arc's (kind, i, j, depart), None on a holding arc."""
        return [
            None if arc.kind == HOLD
            else (arc.kind, arc.phys_from, arc.phys_to, arc.depart)
            for arc in arcs
        ]

    def _rules(self, keys: list) -> list[tuple[float, float | None]]:
        """(a, b) of each key's price a + b * U; b is None on a holding arc."""
        hold = self.holding_cost
        return [(hold, None) if key is None else PRICE_RULES[key[0]][1:]
                for key in keys]

    def _states(self, keys: list) -> list[int]:
        """The prefix state of each priced key, the new ones folded in lanes."""
        prefix = self._prefix
        new = [key for key in dict.fromkeys(keys) if key is not None
               and key not in prefix]
        if new:
            if self.routing_seed is None:
                raise CssndError("cost params carry neither routing seed nor table")
            lanes = rng.Lanes([self._label_state[key[0]] for key in new])
            for place in (1, 2, 3):                 # i, j, depart
                lanes.absorb([key[place] for key in new])
            prefix.update(zip(new, lanes.states()))
        return [prefix[key] for key in keys if key is not None]

    def pricer(self, arcs: list[Arc]):
        """A function of a TC id giving its price on each arc of `arcs`:
        the arcs' prefix states are packed once, and each call is one
        kernel call."""
        keys = self._keys(arcs)
        if self.routing_table is not None:
            return lambda tc_id: self._looked_up(keys, tc_id)
        rules = self._rules(keys)
        lanes = rng.Lanes(self._states(keys))
        return lambda tc_id: _priced(rules, iter(lanes.units_after(tc_id)))

    def prices(self, requests: list[tuple[list[Arc], int]]) -> list[list[float]]:
        """`pricer(arcs)(tc_id)` of each (arcs, tc_id) in `requests`, from
        one kernel call."""
        keyed = [(self._keys(arcs), tc_id) for arcs, tc_id in requests]
        if self.routing_table is not None:
            return [self._looked_up(keys, tc_id) for keys, tc_id in keyed]
        every = [key for keys, _ in keyed for key in keys]
        lanes = rng.Lanes(self._states(every))
        units = iter(lanes.units_after([
            tc_id for keys, tc_id in keyed for key in keys if key is not None
        ]))
        return [_priced(self._rules(keys), units) for keys, _ in keyed]

    def _looked_up(self, keys: list, tc_id: int) -> list[float]:
        hold, lookup = self.holding_cost, self._lookup
        return [hold if key is None else lookup((*key, tc_id)) for key in keys]


def _priced(rules: list[tuple[float, float | None]], units) -> list[float]:
    """Each rule's price, drawing the next of `units` for each priced one."""
    draw = units.__next__
    return [a if b is None else a + b * draw() for a, b in rules]


@dataclass(frozen=True)
class Instance:
    physical: PhysicalNetwork
    period_count: int
    commodities: tuple[OriginalCommodity, ...]
    owned_assets: int
    leasable_assets: int
    costs: CostParams
    seed: int = 0

    def validate(self) -> None:
        for what, value in (
            ("period count", self.period_count),
            ("n_physical", self.physical.node_count),
            ("owned asset count", self.owned_assets),
            ("leasable asset count", self.leasable_assets),
        ):
            _require_int(what, value)
        for what, value in (("period count", self.period_count),
                            ("n_physical", self.physical.node_count)):
            if value < 1:
                raise CssndError(f"{what} {value} is below 1")
        for row in self.physical.distance:
            for entry in row:
                _require_int("distance entry", entry)
        for oc in self.commodities:
            _require_int("commodity id", oc.id)
            for key, attr, check in COMMODITY_FIELDS[1:]:   # past "id"
                check(f"commodity {oc.id} {key}", getattr(oc, attr))
        costs = self.costs
        for key, attr, check in COST_FIELDS:
            check(f"cost {key}", getattr(costs, attr))
        if costs.routing_table is None:
            _require_int("routing_seed", costs.routing_seed)
            prices = [SERVICE_COST_HI, OUTSOURCED_COST_BASE + OUTSOURCED_COST_HI]
        else:
            for key, value in costs.routing_table.items():
                _require_number(f"routing table cost of {key!r}", value)
            prices = costs.routing_table.values()
        if costs.penalty_early <= 0 or costs.penalty_tardy <= 0:
            raise CssndError("penalty multipliers r_e and r_l must be positive")
        if self.owned_assets < 1:
            raise CssndError("at least one owned asset is required")
        if self.leasable_assets < 0:
            raise CssndError("leasable asset count cannot be negative")
        problems = validate_distances(self.physical, self.period_count)
        if problems:
            raise CssndError("invalid distances: " + "; ".join(problems[:3]))
        node_count = self.physical.node_count
        seen_ids = set()
        for oc in self.commodities:
            if oc.id < 1:
                raise CssndError(f"commodity id {oc.id} is below 1")
            if oc.id in seen_ids:
                raise CssndError(f"duplicate commodity id {oc.id}")
            seen_ids.add(oc.id)
            for node in (oc.origin_physical, oc.dest_physical):
                if not 1 <= node <= node_count:
                    raise CssndError(
                        f"commodity {oc.id} terminal {node} outside 1..{node_count}"
                    )
            if oc.origin_physical == oc.dest_physical:
                raise CssndError(f"commodity {oc.id} has origin == destination")
            for p in (oc.release_period, oc.due_period):
                if not 1 <= p <= self.period_count:
                    raise CssndError(f"commodity {oc.id} period {p} out of range")
            # no variant, outsourced or not, could arrive inside its window
            span = cyclic_span(oc.release_period, oc.due_period, self.period_count)
            if span < self.physical.d(oc.origin_physical, oc.dest_physical):
                raise CssndError(f"commodity {oc.id} has a window of {span} "
                                 "periods, shorter than its distance")
            if oc.volume <= 0:
                raise CssndError(f"commodity {oc.id} has non-positive volume")
        # A path costs at most its multiplier times its volume times its
        # dearest leg plus a horizon of holding.  A schedule, and a pair of
        # paths, must stay finite at COST_SCALE.
        path = (max(1.0, costs.penalty_early, costs.penalty_tardy)
                * max([1.0, *(oc.volume for oc in self.commodities)])
                * (max(map(abs, prices), default=0.0)
                   + abs(costs.holding_cost) * self.period_count))
        worst = (self.owned_assets + self.leasable_assets) * max(
            abs(costs.fixed_owned), abs(costs.fixed_leased)
        ) + (len(self.commodities) + 2) * path
        if not worst * COST_SCALE < math.inf:
            raise CssndError(f"costs too large: a schedule could cost {worst:.3g}")
        if costs.routing_table is not None:
            # the exact model prices every TC on every service and outsourced
            # arc, not only the legs the heuristic reads
            tsn = build_time_space_network(self.physical, self.period_count)
            pricer = costs.table.pricer(tsn.service_arcs + tsn.outsourced_arcs)
            for tc in expand_commodities(self)[0]:
                pricer(tc.id)


def expand_commodities(
    instance: Instance,
) -> tuple[list[TransformedCommodity], dict[int, tuple[int, int, int]]]:
    """Expand each original commodity into its early/original/tardy variants.

    TC ids follow the tabular convention: commodity k owns ids 3k-2 (early),
    3k-1 (original), 3k (tardy).  Returns the TC list and the incidence map
    from original id to its three TC ids.
    """
    period_count = instance.period_count
    tcs: list[TransformedCommodity] = []
    incidence: dict[int, tuple[int, int, int]] = {}
    for oc in instance.commodities:
        ids = []
        for offset, kind in enumerate(KIND_ORDER):
            shift = KIND_SHIFT[kind]
            tc = TransformedCommodity(
                id=3 * (oc.id - 1) + offset + 1,
                parent_id=oc.id,
                kind=kind,
                origin_physical=oc.origin_physical,
                dest_physical=oc.dest_physical,
                release_period=wrap_period(oc.release_period + shift, period_count),
                due_period=wrap_period(oc.due_period + shift, period_count),
                volume=oc.volume,
            )
            tcs.append(tc)
            ids.append(tc.id)
        incidence[oc.id] = tuple(ids)
    return tcs, incidence
