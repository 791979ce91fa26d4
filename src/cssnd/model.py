"""Exact arc-based model: build, export, and verify solutions.

The model is held as a solver-agnostic IR (columns, linear rows, a
minimization objective) and written out as CPLEX-dialect LP text or
fixed-field MPS.  No solver is linked; external solutions come back as
plain `name value` lines and are replayed against the IR by their nonzero
columns.

Columns and rows are catalogued by families (`Family`: one column or row
per key of a product of axes, in row-major order), so a column or row is
an integer and its name is made from its family's template only where
text is written.  The model stores neither rows nor prices: a row family
holds a function that makes its row at one position, and the objective
is a function that prices its (coef, col) terms, each time they are
read.  `_rows` reads rows whole, in row order, and checks every row's
columns as it goes; the LP and MPS writers and the `ModelIR.constraints`
view read the whole model through it.  A row family whose rows all meet
their sense at zero activity also states its rows by column (its
`reach`): each column's coefficient and term index in every row it
enters, computed per column, and the rhs of its rows.  `check_solution`
reads the model against the assignment's support, the columns at a
nonzero value: `_reached` adds each support column into the rows it
enters, so those rows are summed without being made, in term order; only
the families without a `reach` are made whole, and the objective prices
only support columns.  The writers stream their text, the MPS names
sidecar too, to files in chunks of characters, so the whole text never
sits in memory.

Column families follow the fixed naming scheme, in this order:

    y_v{v}_a{arc}   asset v operates holding/service arc
    d_v{v}          asset v is utilized
    p_k{tc}         delivery variant tc is selected
    s_k{tc}_a{arc}  outsourced arc carries variant tc
    x_k{tc}_a{arc}  flow of variant tc on an arc

Rows treat an arc as active during every period it spans, with wrapped
arcs continuing past the horizon edge; this is what makes the per-period
asset-assignment rows and the per-period resource lower bounds correct on
the cyclic network.
"""

from __future__ import annotations

import math
import re
from bisect import bisect_left
from collections import Counter
from dataclasses import dataclass, field
from functools import cached_property
from itertools import islice, product, starmap
from json.encoder import encode_basestring_ascii as quote
from pathlib import Path
from typing import Callable, Iterable, Iterator, NamedTuple

from .analysis import beta_support, compute_requirements
from .core import (
    EARLY,
    ORIGINAL,
    TARDY,
    CssndError,
    Instance,
    TimeSpaceNetwork,
    TransformedCommodity,
)

TOLERANCE = 1e-6
BINARY = "binary"
CONTINUOUS = "continuous"

Y_NAME = "y_v{}_a{}"
D_NAME = "d_v{}"
P_NAME = "p_k{}"
S_NAME = "s_k{}_a{}"
X_NAME = "x_k{}_a{}"


class Constraint(NamedTuple):
    name: str
    terms: tuple[tuple[float, int], ...]    # (coef, column)
    sense: str                  # <= | = | >=
    rhs: float


class Rows:
    """`ModelIR.constraints`: each `Constraint` is made as it is read."""

    def __init__(self, model: ModelIR):
        self._model = model

    def __len__(self) -> int:
        return self._model.row_count

    def __iter__(self) -> Iterator[Constraint]:
        for family, key, coefs, cols, rhs in _rows(self._model):
            yield Constraint(family.template.format(*key),
                             tuple(zip(coefs, cols)), family.kind, rhs)


class Family:
    """A block of columns or rows: one per key of the product of `axes`
    (tuples of distinct ints), in row-major order from index `base`, named
    by filling `template`'s `{}` fields with the key.  `kind` is a column's
    domain or a row's sense.  A row family's `make(at)` makes the row at
    position `at` (an offset from `base`) as (coefs, cols, rhs), afresh at
    every call.  Its `reach` is the same rows stated by column: a list of
    (lo, hi, rows) entries, where `rows(c - lo)` gives an (at, coef, term)
    triple for each term of column c of the block [lo, hi): the row's
    position, the coefficient, and the term's index among the row's terms.
    Every row of a family with a `reach` has the rhs `rhs`, which its zero
    activity meets.  None stands for a family whose rows are all made at
    every read, as one with a row that zero activity breaks must be."""

    def __init__(self, template: str, kind: str, base: int, axes,
                 make=None, reach=None, rhs: float = 0.0):
        self.template = template
        self.kind = kind
        self.base = base
        self.make = make
        self.reach = reach
        self.rhs = rhs
        self.axes = tuple(tuple(axis) for axis in axes)
        if any(len(set(axis)) != len(axis) for axis in self.axes):
            raise CssndError(f"duplicate key in family {template}")
        self.size = 1
        for axis in self.axes:
            self.size *= len(axis)

    # Only column families look keys up or parse names, so the lookups are
    # made at the first call.
    @cached_property
    def _position(self) -> list[dict[int, int]]:
        return [{key: i for i, key in enumerate(axis)} for axis in self.axes]

    @cached_property
    def _pattern(self) -> re.Pattern:
        return re.compile(
            "(0|-?[1-9][0-9]*)".join(map(re.escape, self.template.split("{}")))
        )

    def names(self) -> Iterator[str]:
        return starmap(self.template.format, product(*self.axes))

    def key(self, position: int) -> tuple[int, ...]:
        """The key at `position` (an offset from `base`)."""
        key = []
        for axis in reversed(self.axes):
            position, i = divmod(position, len(axis))
            key.append(axis[i])
        return tuple(reversed(key))

    def column(self, *key: int) -> int:
        offset = 0
        for position, value in zip(self._position, key):
            offset = offset * len(position) + position[value]
        return self.base + offset

    def parse(self, name: str) -> int | None:
        """Column of a name in canonical form, else None."""
        match = self._pattern.fullmatch(name)
        if match is None:
            return None
        offset = 0
        for field, position in zip(match.groups(), self._position):
            i = position.get(int(field))
            if i is None:
                return None
            offset = offset * len(position) + i
        return self.base + offset


def _holders(families: list[Family]) -> Callable[[str], list[Family]]:
    """A function of a name that gives the families, in family order, whose
    template's literal head (its text before the first field) the name
    starts with.  Each such head starts the longest of them, so the first
    of the name's prefixes, one per head width and the widest first, that
    is a head gives them all: one lookup where the heads are of one width."""
    heads = [family.template.split("{}")[0] for family in families]
    by_head = {head: [family for h, family in zip(heads, families)
                      if head.startswith(h)] for head in heads}
    widths = sorted({len(head) for head in heads}, reverse=True)

    def holders(name: str) -> list[Family]:
        for width in widths:
            found = by_head.get(name[:width])
            if found is not None:
                return found
        return []

    return holders


def _between(support: list[int], lo: int, hi: int) -> list[int]:
    """The columns of `support`, a sorted list, in [lo, hi)."""
    start = bisect_left(support, lo)
    return support[start:bisect_left(support, hi, start)]


def _no_terms(support: list[int] | None) -> Iterable[tuple[float, int]]:
    return ()


@dataclass
class ModelIR:
    families: list[Family] = field(default_factory=list)        # columns
    row_families: list[Family] = field(default_factory=list)
    # The minimized objective as a function of a support (None: all
    # columns) giving its (coef, col) terms in term order, afresh at every
    # call: every term, or with a support at least those of support columns.
    objective_terms: Callable[[list[int] | None],
                              Iterable[tuple[float, int]]] = _no_terms
    column_count: int = 0
    row_count: int = 0

    @property
    def variables(self) -> list[str]:
        """Column names in column order."""
        return [name for family in self.families for name in family.names()]

    @property
    def constraints(self) -> Rows:
        return Rows(self)

    def add_family(self, template: str, kind: str, *axes) -> Family:
        family = Family(template, kind, self.column_count, axes)
        self.families.append(family)
        self.column_count += family.size
        return family

    def add_rows(self, template: str, sense: str, axes, make,
                 reach=None, rhs: float = 0.0) -> Family:
        """Append a family of rows, one per key of the product of `axes`;
        `make(at)` makes the one at position `at`, the sum of coefs[i] *
        column cols[i] with its sense and rhs, and `reach` states, per
        column, its terms in the rows it enters, all of rhs `rhs` (see
        `Family`)."""
        family = Family(template, sense, self.row_count, axes, make, reach, rhs)
        self.row_families.append(family)
        self.row_count += family.size
        return family

    def family(self, template: str) -> Family:
        return next(f for f in self.families if f.template == template)


def _rows(model: ModelIR,
          families: Iterable[Family] | None = None) -> Iterator[tuple]:
    """Rows as (family, key, coefs, cols, rhs), in row order, each made by
    its family's `make` as it is read: every row of the model, or of
    `families`.  A row must give one coefficient per column, all of the
    model."""
    n = model.column_count
    for family in model.row_families if families is None else families:
        for at, key in enumerate(product(*family.axes)):
            coefs, cols, rhs = family.make(at)
            if len(coefs) != len(cols) or cols and (min(cols) < 0 or max(cols) >= n):
                raise CssndError(f"row {family.template.format(*key)} has "
                                 f"{len(coefs)} coefficients for columns "
                                 f"{list(cols)} of {n}")
            yield family, key, coefs, cols, rhs


def _reached(family: Family, support: list[int]) -> list[tuple[int, list]]:
    """The rows of `family` that columns of `support` (a sorted list) enter,
    by its `reach`, as (at, terms) in position order: terms are the (term,
    coef, col) of the support's columns in the row at position `at`, in
    term order.  A row left out holds no support column.  A reached
    position must lie in the family."""
    rows: dict[int, list] = {}
    for lo, hi, enters in family.reach:
        for c in _between(support, lo, hi):
            for at, coef, term in enters(c - lo):
                terms = rows.get(at)
                if terms is None:
                    rows[at] = [(term, coef, c)]
                else:
                    terms.append((term, coef, c))
    if not rows:
        return []
    positions = sorted(rows)
    if not (0 <= positions[0] and positions[-1] < family.size):
        at = positions[0] if positions[0] < 0 else positions[-1]
        raise CssndError(f"row family {family.template} names position "
                         f"{at} outside its {family.size} keys")
    for terms in rows.values():
        if len(terms) > 1:
            terms.sort()
    return [(at, rows[at]) for at in positions]


@dataclass(frozen=True)
class ModelOptions:
    add_vi_gamma: bool = False      # fleet lower bound from the profile min
    # Per-period resource lower bounds.  Not a valid inequality: a commodity
    # may wait on an uncapacitated holding arc without an asset, so feasible
    # schedules can break it (small k=15 seed 510: vi_phi_t5 9.0 < 10.0).
    add_vi_phi: bool = False
    # 21, 22 or 23: a fleet bound from the profile maximum theta.
    # Restrictions by design, not valid inequalities; they may cut off the
    # optimum.
    near_opt: int | None = None
    strong_forcing: bool = False    # per-commodity forcing rows (off: redundant)
    shift_restriction: float | None = None    # cap on shifted deliveries
    literal_shift_rule: bool = False    # the cap's literal form; needs the cap


def _spanning(arcs, period_count: int) -> dict[int, list[int]]:
    """Period -> positions in `arcs` of the arcs under way during it."""
    return {
        t: [i for i, a in enumerate(arcs) if a.spans(t, period_count)]
        for t in range(1, period_count + 1)
    }


def _spans_of(spanning: dict[int, list[int]], count: int) -> list[list[tuple]]:
    """`_spanning` by arc: for each of `count` arcs, (period, index of the
    arc in the period's list) for each period it spans, in period order."""
    spans: list[list[tuple]] = [[] for _ in range(count)]
    for t, on in spanning.items():
        for term, i in enumerate(on):
            spans[i].append((t, term))
    return spans


def _incidence(tsn: TimeSpaceNetwork, arcs) -> tuple[list, list]:
    """By node position (node - 1): positions in `arcs` of the arcs leaving
    the node, then of those entering it, and their coefficients (+1
    leaving, -1 entering).  By arc: (tail, at_tail, head, at_head), the
    node positions of its tail and head and its index among each one's
    arcs."""
    out: list[list[int]] = [[] for _ in range(tsn.ts_node_count)]
    into: list[list[int]] = [[] for _ in range(tsn.ts_node_count)]
    places = []
    for i, arc in enumerate(arcs):
        tail, head = tsn.arc_tail(arc) - 1, tsn.arc_head(arc) - 1
        places.append((tail, len(out[tail]), head, len(into[head])))
        out[tail].append(i)
        into[head].append(i)
    return ([(o + n, [1.0] * len(o) + [-1.0] * len(n)) for o, n in zip(out, into)],
            [(tail, at_tail, head, len(out[head]) + at_head)
             for tail, at_tail, head, at_head in places])


def build_mip(
    instance: Instance,
    tsn: TimeSpaceNetwork,
    tcs: list[TransformedCommodity],
    options: ModelOptions | None = None,
) -> ModelIR:
    """Assemble the full arc-based program for one instance.  Valid
    inequalities and near-optimal bounds read the instance's requirement
    profile, which is computed here when they are asked for."""
    options = options or ModelOptions()
    period_count = instance.period_count
    costs = instance.costs
    v_total = instance.owned_assets + instance.leasable_assets
    assets = range(1, v_total + 1)
    asset_arcs = tsn.holding_arcs + tsn.service_arcs
    outsourced_arcs = tsn.outsourced_arcs
    if options.near_opt not in (None, 21, 22, 23):
        raise CssndError("near-optimal bound must be 21, 22 or 23")
    if options.shift_restriction is not None and not (
        0.0 <= options.shift_restriction <= 1.0
    ):
        raise CssndError("shift restriction must lie in [0, 1]")
    if options.literal_shift_rule and options.shift_restriction is None:
        raise CssndError("the literal shift rule needs a shift restriction (lambda)")

    model = ModelIR()
    tc_ids = [tc.id for tc in tcs]
    y = model.add_family(Y_NAME, BINARY, assets, [a.id for a in asset_arcs])
    d = model.add_family(D_NAME, BINARY, assets)
    p = model.add_family(P_NAME, BINARY, tc_ids)
    s = model.add_family(S_NAME, BINARY, tc_ids, [a.id for a in outsourced_arcs])
    x = model.add_family(X_NAME, CONTINUOUS, tc_ids, [a.id for a in tsn.arcs])

    # Column arithmetic, assets and variants counted from 0: y of asset v
    # on asset arc i is y_col[v] + i, x of the q-th TC on arc position a is
    # x_col[q] + a, s likewise with the position among the outsourced arcs.
    # The network lays its arcs out as holding, service, then outsourced, so
    # asset arc i is at x position i and outsourced arc o at n_asset + o.
    n_asset, n_out, n_arcs = len(asset_arcs), len(outsourced_arcs), len(tsn.arcs)
    n_tc, n_nodes = len(tcs), tsn.ts_node_count
    y_col = [y.base + v * n_asset for v in range(v_total)]
    d_col = [d.base + v for v in range(v_total)]
    p_col = [p.base + q for q in range(n_tc)]
    x_col = [x.base + q * n_arcs for q in range(n_tc)]
    s_col = [s.base + q * n_out for q in range(n_tc)]
    service_first = len(tsn.holding_arcs)   # service arc j: asset arc service_first + j

    def cells(support: list[int], family: Family, width: int) -> list:
        """(row, column) of each support column in `family`, laid out in
        rows of `width` columns."""
        top = family.base + family.size
        return [divmod(c - family.base, width)
                for c in _between(support, family.base, top)]

    # The objective: d columns, then each TC's x columns on asset arcs and
    # its s columns.  A whole read prices one TC at a time; a support read
    # prices only the support's columns, all in one call.
    table = costs.table
    fixed = [(costs.fixed_owned if v < instance.owned_assets else costs.fixed_leased,
              d_col[v]) for v in range(v_total)]

    def objective(support: list[int] | None):
        if support is None:
            yield from fixed
            asset_prices = table.pricer(asset_arcs)
            out_prices = table.pricer(outsourced_arcs)
            picked = ((q, range(n_asset), range(n_out),
                       asset_prices(tc.id), out_prices(tc.id))
                      for q, tc in enumerate(tcs))
        else:
            yield from (fixed[v] for v, _ in cells(support, d, 1))
            on: dict[int, tuple[list, list]] = {}
            for q, a in cells(support, x, n_arcs):
                if a < n_asset:
                    on.setdefault(q, ([], []))[0].append(a)
            for q, o in cells(support, s, n_out):
                on.setdefault(q, ([], []))[1].append(o)
            read = [(q, sorted(on_assets), on_out)
                    for q, (on_assets, on_out) in sorted(on.items())]
            priced = iter(table.prices([
                request for q, on_assets, on_out in read
                for request in (([asset_arcs[i] for i in on_assets], tcs[q].id),
                                ([outsourced_arcs[o] for o in on_out], tcs[q].id))
            ]))
            picked = ((q, on_assets, on_out, next(priced), next(priced))
                      for q, on_assets, on_out in read)
        for q, on_assets, on_out, asset_priced, out_priced in picked:
            m = costs.multiplier(tcs[q].kind)
            xq, sq = x_col[q], s_col[q]
            for i, price in zip(on_assets, asset_priced):
                yield m * price, xq + i
            for o, price in zip(on_out, out_priced):
                yield m * price, sq + o

    model.objective_terms = objective

    # Row families: each makes its row at one position when read and, where
    # a row without support columns cannot fail, states each column's terms
    # in the rows it enters (default arguments bind a loop's values into its
    # functions).
    asset_spans = _spanning(asset_arcs, period_count)
    arc_spans = _spans_of(asset_spans, n_asset)
    periods = range(1, period_count + 1)
    nodes = range(1, n_nodes + 1)
    service_ids = [arc.id for arc in tsn.service_arcs]
    n_service = len(service_ids)
    add = model.add_rows

    def ones(cols: list[int], rhs: float = 0.0):
        return [1.0] * len(cols), cols, rhs

    def whole(family: Family, rows) -> tuple:    # a block of every column
        return family.base, family.base + family.size, rows

    def on_service(width: int, terms):
        """Rows of a block of `width` columns per asset or TC, laid out as
        the asset arcs are: the column of owner u on service arc j has the
        terms `terms(u, j)`, and a column on a holding arc none."""
        def rows(k):
            owner, i = divmod(k, width)
            j = i - service_first
            return terms(owner, j) if 0 <= j < n_service else ()
        return rows

    def ends(by_arc: list, k: int):
        """Column k of a block of one column per arc for each asset or TC:
        +1 at its arc's tail node and -1 at its head node, in that asset's
        or TC's rows, one per node.  `by_arc` is the arcs' `_incidence`
        places."""
        owner, i = divmod(k, len(by_arc))
        tail, at_tail, head, at_head = by_arc[i]
        first = owner * n_nodes
        return (first + tail, 1.0, at_tail), (first + head, -1.0, at_head)

    # no-transit rows: flow may not span a period outside the time window
    for q, tc in enumerate(tcs):
        allowed = beta_support(tc, period_count)
        banned = [t for t in periods if t not in allowed]

        def transit(j, xq=x_col[q], banned=banned):
            return ones([xq + i for i in asset_spans[banned[j]]])

        def in_banned(i, banned=banned):    # the banned periods arc i spans
            return [(banned.index(t), 1.0, term) for t, term in arc_spans[i]
                    if t in banned]

        add("transit_k{}_t{}", "<=", ([tc.id], banned), transit,
            [(x_col[q], x_col[q] + n_asset, in_banned)])

    # one activity per utilized asset and period, wrap-aware
    def assign(at):
        v, t = divmod(at, period_count)
        span = asset_spans[t + 1]
        return ([1.0] * len(span) + [-1.0],
                [y_col[v] + i for i in span] + [d_col[v]], 0.0)

    def in_periods(k):      # y of asset v on arc i, in each period i spans
        v, i = divmod(k, n_asset)
        return [(v * period_count + t - 1, 1.0, term) for t, term in arc_spans[i]]

    def busy(v):    # d of asset v: -1 in every period, after the y terms
        return [(v * period_count + t - 1, -1.0, len(asset_spans[t])) for t in periods]

    add("assign_v{}_t{}", "=", (assets, periods), assign,
        [whole(y, in_periods), whole(d, busy)])

    # asset conservation at every time-space node
    asset_nodes, asset_ends = _incidence(tsn, asset_arcs)

    def balance(at):
        v, n = divmod(at, n_nodes)
        arcs, coefs = asset_nodes[n]
        return coefs, [y_col[v] + i for i in arcs], 0.0

    add("balance_v{}_n{}", "=", (assets, nodes), balance,
        [whole(y, lambda k: ends(asset_ends, k))])

    # a service is operated by at most one asset
    add("svc_once_a{}", "<=", (service_ids,),
        lambda at: ones([yv + service_first + at for yv in y_col], 1.0),
        [whole(y, on_service(n_asset, lambda v, j: ((j, 1.0, v),)))], rhs=1.0)

    # each commodity delivered through at least one of its variants
    incidence: dict[int, list[int]] = {}
    for q, tc in enumerate(tcs):
        incidence.setdefault(tc.parent_id, []).append(q)
    commodity_ids = [oc.id for oc in instance.commodities]
    add("cover_k{}", ">=", (commodity_ids,),
        lambda at: ones([p_col[q] for q in incidence[commodity_ids[at]]], 1.0))

    # flow conservation, demand switched on by the variant selection
    arc_nodes, arc_ends = _incidence(tsn, tsn.arcs)
    demand = [{tc.origin_node(period_count) - 1: -tc.volume,
               tc.dest_node(period_count) - 1: tc.volume} for tc in tcs]

    def flow(at):
        q, n = divmod(at, n_nodes)
        arcs, coefs = arc_nodes[n]
        cols = [x_col[q] + a for a in arcs]
        if n in demand[q]:
            coefs = coefs + [demand[q][n]]
            cols.append(p_col[q])
        return coefs, cols, 0.0

    def at_ends(q):     # p of the q-th TC, after the arcs at each end node
        return [(q * n_nodes + n, volume, len(arc_nodes[n][0]))
                for n, volume in demand[q].items()]

    add("flow_k{}_n{}", "=", (tc_ids, nodes), flow, [
        whole(x, lambda k: ends(arc_ends, k)), whole(p, at_ends)])

    # capacity with forcing on service arcs (holding arcs are uncapacitated)
    def cap(at):
        i = service_first + at
        return ([1.0] * n_tc + [-tsn.service_arcs[at].capacity] * v_total,
                [xq + i for xq in x_col] + [yv + i for yv in y_col], 0.0)

    add("cap_a{}", "<=", (service_ids,), cap, [
        whole(x, on_service(n_arcs, lambda q, j: ((j, 1.0, q),))),
        whole(y, on_service(n_asset, lambda v, j: (
            (j, -tsn.service_arcs[j].capacity, n_tc + v),)))])

    if options.strong_forcing:
        y_cols = [[yv + i for yv in y_col] for i in range(service_first, n_asset)]

        def strength(q, j):
            return min(tcs[q].volume, tsn.service_arcs[j].capacity)

        def strong(at):
            q, j = divmod(at, n_service)
            return ([1.0] + [-strength(q, j)] * v_total,
                    [x_col[q] + service_first + j, *y_cols[j]], 0.0)

        def every_variant(v, j):    # y of asset v on service j, one row per TC
            return [(q * n_service + j, -strength(q, j), 1 + v) for q in range(n_tc)]

        add("strong_k{}_a{}", "<=", (tc_ids, service_ids), strong, [
            whole(x, on_service(n_arcs, lambda q, j: ((q * n_service + j, 1.0, 0),))),
            whole(y, on_service(n_asset, every_variant))])

    # outsourced flow only on selected outsourced services
    def outsource(at):
        q, o = divmod(at, n_out)
        return [1.0, -tcs[q].volume], [x_col[q] + n_asset + o, s_col[q] + o], 0.0

    def outsourced(k):      # x of TC q on outsourced arc o, then its s
        q, a = divmod(k, n_arcs)
        return ((q * n_out + a - n_asset, 1.0, 0),) if a >= n_asset else ()

    add("outsource_k{}_a{}", "<=", (tc_ids, [a.id for a in outsourced_arcs]),
        outsource, [whole(x, outsourced),
                    whole(s, lambda k: ((k, -tcs[k // n_out].volume, 1),))])

    if options.add_vi_gamma or options.add_vi_phi or options.near_opt is not None:
        analysis = compute_requirements(instance)

    def single(name: str, sense: str, cols: list[int], rhs: float) -> None:
        row = ones(cols, float(rhs))
        add(name, sense, (), lambda at: row)

    if options.add_vi_gamma:
        single("vi_gamma", ">=", d_col, analysis.gamma)

    if options.add_vi_phi:
        out_spans = _spanning(outsourced_arcs, period_count)
        add("vi_phi_t{}", ">=", (periods,), lambda at: ones(
            [yv + i for yv in y_col for i in asset_spans[at + 1]]
            + [sq + o for sq in s_col for o in out_spans[at + 1]],
            float(analysis.phi_at(at + 1))))

    if options.near_opt == 21:
        single("near_opt_low", ">=", d_col, analysis.theta)
    elif options.near_opt == 22:
        single("near_opt_high", "<=", d_col, analysis.theta)
    elif options.near_opt == 23:
        cols = d_col + [sq + o for sq in s_col for o in range(n_out)]
        single("near_opt_mixed", ">=", cols, analysis.theta)

    if options.shift_restriction is not None:
        lam = options.shift_restriction
        if options.literal_shift_rule:
            # verbatim variant: counts everything but the first variant kind
            # against a budget over the whole variant set
            cols = [p_col[q] for q, tc in enumerate(tcs) if tc.kind != EARLY]
            rhs = lam * len(tcs)
        else:
            cols = [p_col[q] for q, tc in enumerate(tcs) if tc.kind != ORIGINAL]
            rhs = lam * len(instance.commodities)
        single("shift_cap", "<=", cols, rhs)

    return model


# --- text formats -----------------------------------------------------------

CHUNK_CHARS = 1 << 18
SIDECAR_BATCH = 4096           # names sidecar lines per item


def _num(value: float) -> str:
    if value == int(value) and abs(value) < 1e15:
        return str(int(value))
    return f"{value:.12g}"


def _term_parts(terms, names: list[str], heads: dict) -> list[str]:
    """LP terms as "- 2 name" / "+ 1 name", the first without "+ ".
    `heads` caches the sign-and-number text per coefficient."""
    parts: list[str] = []
    for coef, col in terms:
        head = heads.get(coef)
        if head is None:
            head = f"- {_num(-coef)}" if coef < 0 else f"+ {_num(coef)}"
            heads[coef] = head
        parts.append(f"{head} {names[col]}")
    if parts and parts[0][0] == "+":
        parts[0] = parts[0][2:]
    return parts


def _wrapped(first: str, parts: list[str], width: int = 240) -> list[str]:
    line = " ".join([first, *parts])
    if len(line) <= width:
        return [line]
    lines: list[str] = []
    current = first
    for part in parts:
        if len(current) + 1 + len(part) > width and current != first:
            lines.append(current)
            current = "   " + part
        else:
            current = current + " " + part
    lines.append(current)
    return lines


def _lp_lines(model: ModelIR) -> Iterator[str]:
    names = model.variables
    heads: dict[float, str] = {}
    yield "Minimize"
    obj_parts = _term_parts(model.objective_terms(None), names, heads)
    yield from _wrapped(" obj:", obj_parts or ["0"])
    yield "Subject To"
    for family, key, coefs, cols, rhs in _rows(model):
        parts = _term_parts(zip(coefs, cols), names, heads)
        if not parts and not names:
            raise CssndError("cannot write an empty row in a model with no variables")
        parts = parts or ["0 " + names[0]]
        parts.append(f"{family.kind} {_num(rhs)}")
        yield from _wrapped(f" {family.template.format(*key)}:", parts)
    binaries = [
        name for family in model.families if family.kind == BINARY
        for name in names[family.base : family.base + family.size]
    ]
    if binaries:
        yield "Binaries"
        for start in range(0, len(binaries), 8):
            yield " " + " ".join(binaries[start : start + 8])
    yield "End"


SENSE_CODE = {"<=": "L", ">=": "G", "=": "E"}
MARKER = "    MARKER{:02d}  'MARKER'                 {}"


def _mps_lines(model: ModelIR) -> Iterator[str]:
    """Fixed-field MPS lines.

    Row r is R{r:07d} and column c is C{c:07d}, both counted from 1:
    fixed-field widths cap names at eight characters.  Values get nine
    significant digits to fit the twelve-character value field.
    """
    yield "NAME          MODEL"
    yield "ROWS"
    yield " N  COST"
    for family in model.row_families:
        code = SENSE_CODE[family.kind]
        for r in range(family.base + 1, family.base + family.size + 1):
            yield f" {code}  R{r:07d}"

    # Text of each coefficient.  Zeros are formatted afresh, since 0.0 and
    # -0.0 are one dict key but print differently.
    values: dict[float, str] = {}

    def value(coef: float) -> str:
        text = values.get(coef)
        if text is None or not coef:
            text = values[coef] = f"{coef:.9g}"
        return text

    # Transpose to columns: cells[c] holds the "row  value" text of column
    # c's entries, the objective first.  Objective prices are nearly all
    # distinct, so they bypass the cache; a row's run of terms with one
    # coefficient shares one cell string.  The RHS lines are made in the
    # same pass.
    cells: list[list[str] | None] = [[] for _ in range(model.column_count)]
    for coef, col in model.objective_terms(None):
        cells[col].append(f"COST      {coef:.9g}")
    rhs_lines: list[str] = []
    for r, (_, _, coefs, cols, rhs) in enumerate(_rows(model), start=1):
        short = f"R{r:07d}"
        last = cell = None
        for coef, col in zip(coefs, cols):
            if coef != last or not coef:
                cell = f"{short}  {value(coef)}"
                last = coef
            cells[col].append(cell)
        if rhs != 0.0:
            rhs_lines.append(f"    RHS       {short}  {value(rhs)}")

    yield "COLUMNS"
    in_integer = False
    marker = 0
    for family in model.families:
        wants_integer = family.kind == BINARY
        if family.size and wants_integer != in_integer:
            marker += 1
            yield MARKER.format(marker, "'INTORG'" if wants_integer else "'INTEND'")
            in_integer = wants_integer
        for c in range(family.base, family.base + family.size):
            if cells[c]:
                head = f"    C{c + 1:07d}  "
                yield head + ("\n" + head).join(cells[c])
            cells[c] = None             # free the column once written
    if in_integer:
        marker += 1
        yield MARKER.format(marker, "'INTEND'")

    yield "RHS"
    yield from rhs_lines

    yield "BOUNDS"
    for family in model.families:
        if family.kind == BINARY:
            for c in range(family.base + 1, family.base + family.size + 1):
                yield f" BV BND       C{c:07d}"
    yield "ENDATA"


def _sidecar_lines(model: ModelIR) -> Iterator[str]:
    """The MPS names sidecar as `json.dumps` writes it with indent 2 and
    sorted keys (an empty model's braces aside): C keys in column order,
    then R keys in row order, the key order while names have seven digits.
    Lines go out in batches of SIDECAR_BATCH; a family whose template needs
    no JSON escaping needs none for any name, as its keys are ints."""
    last = model.column_count + model.row_count
    done = 0
    yield "{"
    for letter, families in (("C", model.families),
                             ("R", model.row_families)):
        first = 1
        for family in families:
            names, line = family.names(), f'  "{letter}%07d": "%s"'
            if quote(family.template) != f'"{family.template}"':
                names, line = map(quote, names), f'  "{letter}%07d": %s'
            for lo in range(first, first + family.size, SIDECAR_BATCH):
                hi = min(lo + SIDECAR_BATCH, first + family.size)
                done += hi - lo
                text = ",\n".join(map(line.__mod__, zip(
                    range(lo, hi), islice(names, hi - lo))))
                yield text + "," if done < last else text
            first += family.size
    yield "}"


@dataclass(frozen=True)
class Written:
    """A model text streamed to a file.  len() is its length in characters."""

    chars: int

    def __len__(self) -> int:
        return self.chars


def _export(lines: Iterable[str], path: str | Path) -> Written:
    """Write each item (one or more lines) plus a newline to `path` in
    chunks of about CHUNK_CHARS characters."""
    chars = size = 0
    chunk: list[str] = []
    with open(path, "w") as out:
        for line in lines:
            chunk.append(line)
            size += len(line)
            if size >= CHUNK_CHARS:
                chars += out.write("\n".join(chunk) + "\n")
                chunk.clear()
                size = 0
        if chunk:
            chars += out.write("\n".join(chunk) + "\n")
    return Written(chars)


def export_lp(model: ModelIR, path: str | Path) -> Written:
    """Stream deterministic CPLEX-dialect LP text to `path`."""
    return _export(_lp_lines(model), path)


def export_mps(model: ModelIR, path: str | Path) -> tuple[Written, Written]:
    """Stream fixed-field MPS text to `path` and its names sidecar, a JSON
    object from each short row and column name to the model's name, to
    `{path}.names.json`; return both, the MPS first."""
    return (_export(_mps_lines(model), path),
            _export(_sidecar_lines(model), f"{path}.names.json"))


def read_solution(text: str) -> dict[str, float]:
    """Parse `name value` lines; blanks and #-comments are skipped, and a
    value that is not a finite number or a name given twice is an error."""
    values: dict[str, float] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split()
        if len(parts) != 2:
            raise CssndError(f"solution line {lineno}: expected 'name value'")
        try:
            x = float(parts[1])
        except ValueError:
            x = math.nan
        if not math.isfinite(x):
            raise CssndError(f"solution line {lineno}: bad number")
        if parts[0] in values:
            raise CssndError(f"solution line {lineno}: {parts[0]} given twice")
        values[parts[0]] = x
    return values


# --- verification -----------------------------------------------------------


@dataclass
class CheckResult:
    feasible: bool
    violations: list[str]
    objective: float
    summary: dict[str, float]
    violations_by_family: dict[str, int]    # template -> count, sorted


def check_solution(
    instance: Instance,
    tsn: TimeSpaceNetwork,
    tcs: list[TransformedCommodity],
    model: ModelIR,
    assignment: dict[str, float],
) -> CheckResult:
    """Replay the rows and domains at tolerance that the assignment can
    break, and recompute the objective from the assignment alone.  Missing
    variables count as zero, and names the model lacks are ignored.  Only
    the support, the columns at a nonzero value, is read: a row family with
    a `reach` is replayed by column, each support column added into the
    rows it enters, and a row that none enters, at activity 0, meets its
    sense; the other families' rows are made whole.  Each row's nonzero
    terms are summed in term order, and violations come in row order.  Each
    violation is also counted under its family's template."""
    violations: list[tuple[str, str]] = []     # (family template, text)
    values: dict[int, float] = {}       # named column -> value
    named: dict[int, tuple[str, Family]] = {}       # column -> (name, family)
    holders = _holders(model.families)
    for name, x in assignment.items():
        for family in holders(name):
            col = family.parse(name)
            if col is not None:
                values[col] = x
                named[col] = name, family
                break

    # zero lies in every column's domain, so only named columns can fail
    columns = sorted(named)
    for col in columns:
        name, family = named[col]
        x = values[col]
        if family.kind == BINARY:
            if min(abs(x), abs(x - 1.0)) > TOLERANCE:
                violations.append((family.template, f"{name}: {x} is not binary"))
        elif x < -TOLERANCE:
            violations.append((family.template, f"{name}: {x} below zero"))
    support = [col for col in columns if values[col]]

    def judge(family: Family, at: int, lhs: float, rhs: float) -> None:
        """Record the row at `at` if it breaks its sense; called only where
        lhs != rhs, as no sense is broken at equality."""
        name, sense = family.template.format(*family.key(at)), family.kind
        if sense == "<=" and lhs > rhs + TOLERANCE:
            violations.append((family.template, f"{name}: {lhs} > {rhs}"))
        elif sense == ">=" and lhs < rhs - TOLERANCE:
            violations.append((family.template, f"{name}: {lhs} < {rhs}"))
        elif sense == "=" and abs(lhs - rhs) > TOLERANCE:
            violations.append((family.template, f"{name}: {lhs} != {rhs}"))

    # each row's terms at a nonzero value, summed in term order
    for family in model.row_families:
        if family.reach is None:
            for at, (_, _, coefs, cols, rhs) in enumerate(_rows(model, (family,))):
                lhs = 0.0
                for coef, col in zip(coefs, cols):
                    x = values.get(col)
                    if x:
                        lhs += coef * x
                if lhs != rhs:
                    judge(family, at, lhs, rhs)
            continue
        for at, terms in _reached(family, support):
            lhs = 0.0
            for _, coef, col in terms:
                lhs += coef * values[col]
            if lhs != family.rhs:
                judge(family, at, lhs, family.rhs)

    objective = 0.0
    for coef, col in model.objective_terms(support):
        x = values.get(col)
        if x:
            objective += coef * x

    # the schedule's shape: assets used, and how each selected variant goes
    d, p, s = (model.family(name) for name in (D_NAME, P_NAME, S_NAME))
    v_total = instance.owned_assets + instance.leasable_assets
    used = [v for v in range(1, v_total + 1) if values.get(d.column(v), 0.0) > 0.5]
    owned = sum(1 for v in used if v <= instance.owned_assets)
    chosen: dict[int, list[TransformedCommodity]] = {}
    for tc in tcs:
        if values.get(p.column(tc.id), 0.0) > 0.5:
            chosen.setdefault(tc.parent_id, []).append(tc)
    outsourced = {s.key(col - s.base)[0] for col in named
                  if s.base <= col < s.base + s.size and values[col] > 0.5}
    ways = Counter(
        "outsourced" if tc.id in outsourced else tc.kind
        for variants in chosen.values() for tc in variants
    )
    summary = {
        "owned_used": owned,
        "leased": len(used) - owned,
        "on_time": ways[ORIGINAL],
        "early": ways[EARLY],
        "tardy": ways[TARDY],
        "outsourced": ways["outsourced"],
        "multi_selected": sum(1 for v in chosen.values() if len(v) > 1),
        "objective": objective,
    }
    return CheckResult(
        feasible=not violations,
        violations=[text for _, text in violations],
        objective=objective,
        summary=summary,
        violations_by_family=dict(sorted(Counter(t for t, _ in violations).items())),
    )


def count_schema(
    instance: Instance,
    tsn: TimeSpaceNetwork,
    tcs: list[TransformedCommodity],
    options: ModelOptions | None = None,
) -> dict[str, int]:
    """Index-set accounting of variable and row counts, kept separate from
    the builder so tests can cross-check one against the other."""
    options = options or ModelOptions()
    period_count = instance.period_count
    v_total = instance.owned_assets + instance.leasable_assets
    n_asset_arcs = len(tsn.holding_arcs) + len(tsn.service_arcs)
    n_tc = len(tcs)
    nodes = tsn.ts_node_count
    beta_zero = sum(
        period_count - len(beta_support(tc, period_count)) for tc in tcs
    )
    variables = {
        "y": v_total * n_asset_arcs,
        "d": v_total,
        "p": n_tc,
        "s": len(tsn.outsourced_arcs) * n_tc,
        "x": len(tsn.arcs) * n_tc,
    }
    rows = {
        "transit": beta_zero,
        "assign": v_total * period_count,
        "balance": v_total * nodes,
        "svc_once": len(tsn.service_arcs),
        "cover": len(instance.commodities),
        "flow": nodes * n_tc,
        "cap": len(tsn.service_arcs),
        "outsource": len(tsn.outsourced_arcs) * n_tc,
    }
    if options.strong_forcing:
        rows["strong"] = len(tsn.service_arcs) * n_tc
    if options.add_vi_gamma:
        rows["vi_gamma"] = 1
    if options.add_vi_phi:
        rows["vi_phi"] = period_count
    rows["near_opt"] = int(options.near_opt is not None)
    if options.shift_restriction is not None:
        rows["shift_cap"] = 1
    return {
        "variables": sum(variables.values()),
        "rows": sum(rows.values()),
        **{f"var_{k}": v for k, v in variables.items()},
        **{f"row_{k}": v for k, v in rows.items()},
    }
