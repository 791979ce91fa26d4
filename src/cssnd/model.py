"""Exact arc-based model: build, export, and verify solutions.

The model is held as a solver-agnostic IR (columns, linear rows, a
minimization objective) and written out as CPLEX-dialect LP text or
fixed-field MPS.  No solver is linked; external solutions come back as
plain `name value` lines and are replayed row by row against the IR.

Columns and rows are catalogued by families (`Family`: one column or row
per key of a product of axes, in row-major order), so a column or row is
an integer and its name is made from its family's template only where
text is written.  The model stores neither rows nor prices: a row family
holds a function that makes the rows at given positions, and the
objective is a function that prices its (coef, col) terms, each time
they are read.  `_rows` is the one reader of rows; it checks every row's
columns as it goes, and on a full read every family's row count.  The
LP and MPS writers and the `ModelIR.constraints` view read the whole
model.  `check_solution` reads it against the assignment's support, the
columns at a nonzero value: a row family may then leave out a row whose
rhs is 0 and which holds no support column (its activity, 0, meets its
rhs), and the objective prices only support columns.  The writers
stream their text, the MPS names sidecar too, to files in chunks of
characters, so the whole text never sits in memory.

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
from itertools import chain, count, product, starmap
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
    domain or a row's sense.  A row family's `make(positions)` makes the
    rows at ascending `positions` (offsets from `base`) as (position,
    coefs, cols, rhs), afresh at every call; its `touched(support)` gives,
    ascending, the positions of at least every row that holds a column of
    `support` (a sorted list of columns) or has a nonzero rhs, and None
    stands for a family whose rows are all made at every read."""

    def __init__(self, template: str, kind: str, base: int, axes,
                 make=None, touched=None):
        self.template = template
        self.kind = kind
        self.base = base
        self.make = make
        self.touched = touched
        self.axes = tuple(tuple(axis) for axis in axes)
        self._position = [{key: i for i, key in enumerate(axis)}
                          for axis in self.axes]
        if any(len(p) != len(a) for p, a in zip(self._position, self.axes)):
            raise CssndError(f"duplicate key in family {template}")
        self.size = 1
        for axis in self.axes:
            self.size *= len(axis)
        self._pattern = re.compile(
            "(0|-?[1-9][0-9]*)".join(map(re.escape, template.split("{}")))
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
        key = [int(g) for g in match.groups()]
        if any(k not in p for k, p in zip(key, self._position)):
            return None
        return self.column(*key)


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

    @property
    def objective(self) -> list[tuple[float, int]]:
        """Every objective term, priced afresh at each read."""
        return list(self.objective_terms(None))

    def add_family(self, template: str, kind: str, *axes) -> Family:
        family = Family(template, kind, self.column_count, axes)
        self.families.append(family)
        self.column_count += family.size
        return family

    def add_rows(self, template: str, sense: str, axes, make,
                 touched=None) -> Family:
        """Append a family of rows, one per key of the product of `axes`;
        `make(positions)` makes those at `positions`, each the sum of
        coefs[i] * column cols[i] with its sense and rhs, and `touched`
        finds the ones a support reaches (see `Family`)."""
        family = Family(template, sense, self.row_count, axes, make, touched)
        self.row_families.append(family)
        self.row_count += family.size
        return family

    def family(self, template: str) -> Family:
        return next(f for f in self.families if f.template == template)


def _rows(model: ModelIR, support: list[int] | None = None) -> Iterator[tuple]:
    """Rows as (family, key, coefs, cols, rhs), in row order, made by their
    families as they are read.  With `support` (a sorted list of columns),
    a family with a `touched` function makes only the rows it names, so a
    row left out holds no support column and has rhs 0.  A row must give
    one coefficient per column, all of the model, at a position past the
    family's last; a family read whole must give one row per key."""
    n = model.column_count
    for family in model.row_families:
        full = support is None or family.touched is None
        keys = product(*family.axes)
        made = family.make(range(family.size) if full else family.touched(support))
        follows = 0         # the least position the next row may take
        for position, coefs, cols, rhs in made:
            if not follows <= position < family.size or full and position != follows:
                raise CssndError(f"row family {family.template} does not yield one "
                                 f"row for each of its {family.size} keys")
            key = next(keys) if full else family.key(position)
            if len(coefs) != len(cols) or cols and (min(cols) < 0 or max(cols) >= n):
                raise CssndError(f"row {family.template.format(*key)} has "
                                 f"{len(coefs)} coefficients for columns "
                                 f"{list(cols)} of {n}")
            follows = position + 1
            yield family, key, coefs, cols, rhs
        if full and follows < family.size:
            raise CssndError(f"row family {family.template} does not yield one "
                             f"row for each of its {family.size} keys")


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


def _incidence(tsn: TimeSpaceNetwork, arcs) -> dict[int, tuple[list, list]]:
    """Node -> positions in `arcs` of the arcs leaving it, then of those
    entering it, and their coefficients (+1 leaving, -1 entering)."""
    ends = {node: ([], []) for node in range(1, tsn.ts_node_count + 1)}
    for i, arc in enumerate(arcs):
        ends[tsn.arc_tail(arc)][0].append(i)
        ends[tsn.arc_head(arc)][1].append(i)
    return {node: (out + into, [1.0] * len(out) + [-1.0] * len(into))
            for node, (out, into) in ends.items()}


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

    def ends(arc) -> tuple[int, int]:
        return tsn.arc_tail(arc), tsn.arc_head(arc)

    # The objective: d columns, then each TC's x columns on asset arcs and
    # its s columns.  A support read prices only the support's columns.
    table = costs.table
    fixed = [(costs.fixed_owned if v < instance.owned_assets else costs.fixed_leased,
              d_col[v]) for v in range(v_total)]

    def objective(support: list[int] | None):
        if support is None:
            yield from fixed
            asset_prices = table.pricer(asset_arcs)
            out_prices = table.pricer(outsourced_arcs)
            picked = ((q, range(n_asset), range(n_out)) for q in range(n_tc))
        else:
            yield from (fixed[v] for v, _ in cells(support, d, 1))
            on: dict[int, tuple[list, list]] = {}
            for q, a in cells(support, x, n_arcs):
                if a < n_asset:
                    on.setdefault(q, ([], []))[0].append(a)
            for q, o in cells(support, s, n_out):
                on.setdefault(q, ([], []))[1].append(o)
            picked = ((q, sorted(on_assets), on_out)
                      for q, (on_assets, on_out) in sorted(on.items()))
        for q, on_assets, on_out in picked:
            tc = tcs[q]
            if support is not None:
                asset_prices = table.pricer([asset_arcs[i] for i in on_assets])
                out_prices = table.pricer([outsourced_arcs[o] for o in on_out])
            m = costs.multiplier(tc.kind)
            xq, sq = x_col[q], s_col[q]
            for i, price in zip(on_assets, asset_prices(tc.id)):
                yield m * price, xq + i
            for o, price in zip(on_out, out_prices(tc.id)):
                yield m * price, sq + o

    model.objective_terms = objective

    # Row families: each makes its rows at given positions when read and,
    # where every rhs is 0, finds the rows a support reaches (default
    # arguments bind a loop's values into its functions).
    asset_spans = _spanning(asset_arcs, period_count)
    periods = range(1, period_count + 1)
    nodes = range(1, n_nodes + 1)
    service_ids = [arc.id for arc in tsn.service_arcs]
    n_service = len(service_ids)
    add = model.add_rows

    def ones(cols: list[int], rhs: float = 0.0):
        return [1.0] * len(cols), cols, rhs

    # no-transit rows: flow may not span a period outside the time window
    for q, tc in enumerate(tcs):
        allowed = beta_support(tc, period_count)
        banned = [t for t in periods if t not in allowed]

        def transit(positions, xq=x_col[q], banned=banned):
            return ((j, *ones([xq + i for i in asset_spans[banned[j]]]))
                    for j in positions)

        def transit_touched(support, xq=x_col[q], banned=banned):
            used = [asset_arcs[c - xq] for c in _between(support, xq, xq + n_asset)]
            return [j for j, t in enumerate(banned)
                    if any(arc.spans(t, period_count) for arc in used)]

        add("transit_k{}_t{}", "<=", ([tc.id], banned), transit, transit_touched)

    # one activity per utilized asset and period, wrap-aware
    def assign(positions):
        for at in positions:
            v, t = divmod(at, period_count)
            span = asset_spans[t + 1]
            yield (at, [1.0] * len(span) + [-1.0],
                   [y_col[v] + i for i in span] + [d_col[v]], 0.0)

    def assign_touched(support):    # by asset: a used asset is busy throughout
        used = {v for v, _ in cells(support, y, n_asset)}
        used.update(v for v, _ in cells(support, d, 1))
        return [at for v in sorted(used)
                for at in range(v * period_count, (v + 1) * period_count)]

    add("assign_v{}_t{}", "=", (assets, periods), assign, assign_touched)

    # asset conservation at every time-space node
    asset_incidence = list(_incidence(tsn, asset_arcs).values())

    def balance(positions):
        for at in positions:
            v, n = divmod(at, n_nodes)
            arcs, coefs = asset_incidence[n]
            yield at, coefs, [y_col[v] + i for i in arcs], 0.0

    add("balance_v{}_n{}", "=", (assets, nodes), balance, lambda support: sorted({
        v * n_nodes + node - 1
        for v, i in cells(support, y, n_asset) for node in ends(asset_arcs[i])}))

    # a service is operated by at most one asset
    add("svc_once_a{}", "<=", (service_ids,), lambda positions: (
        (at, *ones([yv + service_first + at for yv in y_col], 1.0))
        for at in positions))

    # each commodity delivered through at least one of its variants
    incidence: dict[int, list[int]] = {}
    for q, tc in enumerate(tcs):
        incidence.setdefault(tc.parent_id, []).append(q)
    commodity_ids = [oc.id for oc in instance.commodities]
    add("cover_k{}", ">=", (commodity_ids,), lambda positions: (
        (at, *ones([p_col[q] for q in incidence[commodity_ids[at]]], 1.0))
        for at in positions))

    # flow conservation, demand switched on by the variant selection
    arc_incidence = list(_incidence(tsn, tsn.arcs).values())
    demand = [{tc.origin_node(period_count) - 1: -tc.volume,
               tc.dest_node(period_count) - 1: tc.volume} for tc in tcs]

    def flow(positions):
        for at in positions:
            q, n = divmod(at, n_nodes)
            arcs, coefs = arc_incidence[n]
            cols = [x_col[q] + a for a in arcs]
            if n in demand[q]:
                coefs = coefs + [demand[q][n]]
                cols.append(p_col[q])
            yield at, coefs, cols, 0.0

    def flow_touched(support):
        rows = {q * n_nodes + node - 1
                for q, a in cells(support, x, n_arcs) for node in ends(tsn.arcs[a])}
        rows.update(q * n_nodes + n for q, _ in cells(support, p, 1) for n in demand[q])
        return sorted(rows)

    add("flow_k{}_n{}", "=", (tc_ids, nodes), flow, flow_touched)

    # capacity with forcing on service arcs (holding arcs are uncapacitated)
    def cap(positions):
        for at in positions:
            i = service_first + at
            yield (at, [1.0] * n_tc + [-tsn.service_arcs[at].capacity] * v_total,
                   [xq + i for xq in x_col] + [yv + i for yv in y_col], 0.0)

    def cap_touched(support):
        used = {a - service_first for _, a in cells(support, x, n_arcs)
                if service_first <= a < n_asset}
        used.update(i - service_first for _, i in cells(support, y, n_asset)
                    if i >= service_first)
        return sorted(used)

    add("cap_a{}", "<=", (service_ids,), cap, cap_touched)

    if options.strong_forcing:
        y_cols = [[yv + i for yv in y_col] for i in range(service_first, n_asset)]

        def strong(positions):
            for at in positions:
                q, j = divmod(at, n_service)
                strength = min(tcs[q].volume, tsn.service_arcs[j].capacity)
                yield (at, [1.0] + [-strength] * v_total,
                       [x_col[q] + service_first + j, *y_cols[j]], 0.0)

        def strong_touched(support):
            rows = {q * n_service + a - service_first
                    for q, a in cells(support, x, n_arcs)
                    if service_first <= a < n_asset}
            for _, i in cells(support, y, n_asset):
                if i >= service_first:
                    rows.update(range(i - service_first, n_tc * n_service, n_service))
            return sorted(rows)

        add("strong_k{}_a{}", "<=", (tc_ids, service_ids), strong, strong_touched)

    # outsourced flow only on selected outsourced services
    def outsource(positions):
        for at in positions:
            q, o = divmod(at, n_out)
            yield at, [1.0, -tcs[q].volume], [x_col[q] + n_asset + o, s_col[q] + o], 0.0

    def outsource_touched(support):
        rows = {q * n_out + a - n_asset
                for q, a in cells(support, x, n_arcs) if a >= n_asset}
        rows.update(q * n_out + o for q, o in cells(support, s, n_out))
        return sorted(rows)

    add("outsource_k{}_a{}", "<=", (tc_ids, [a.id for a in outsourced_arcs]),
        outsource, outsource_touched)

    if options.add_vi_gamma or options.add_vi_phi or options.near_opt is not None:
        analysis = compute_requirements(instance)

    def single(name: str, sense: str, cols: list[int], rhs: float) -> None:
        row = ones(cols, float(rhs))
        add(name, sense, (), lambda positions: ((at, *row) for at in positions))

    if options.add_vi_gamma:
        single("vi_gamma", ">=", d_col, analysis.gamma)

    if options.add_vi_phi:
        out_spans = _spanning(outsourced_arcs, period_count)
        add("vi_phi_t{}", ">=", (periods,), lambda positions: (
            (at, *ones([yv + i for yv in y_col for i in asset_spans[at + 1]]
                       + [sq + o for sq in s_col for o in out_spans[at + 1]],
                       float(analysis.phi_at(at + 1))))
            for at in positions))

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
    then R keys in row order, the key order while names have seven digits."""
    names = chain.from_iterable(family.names() for family in
                                chain(model.families, model.row_families))
    shorts = chain(map("C{:07d}".format, range(1, model.column_count + 1)),
                   map("R{:07d}".format, range(1, model.row_count + 1)))
    last = model.column_count + model.row_count
    yield "{"
    for n, short, name in zip(count(1), shorts, names):
        yield f'  "{short}": {quote(name)}' + ("," if n < last else "")
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
    the support, the columns at a nonzero value, is read: a row left out
    holds no support column and has rhs 0, so it holds at equality."""
    violations: list[str] = []
    values = [0.0] * model.column_count
    named: dict[int, tuple[str, str]] = {}      # column -> (name, kind)
    for name, x in assignment.items():
        for family in model.families:
            col = family.parse(name)
            if col is not None:
                values[col] = x
                named[col] = name, family.kind
                break

    # zero lies in every column's domain, so only named columns can fail
    columns = sorted(named)
    for col in columns:
        name, kind = named[col]
        x = values[col]
        if kind == BINARY:
            if min(abs(x), abs(x - 1.0)) > TOLERANCE:
                violations.append(f"{name}: {x} is not binary")
        elif x < -TOLERANCE:
            violations.append(f"{name}: {x} below zero")
    support = [col for col in columns if values[col]]

    # each row's terms at a nonzero value, summed in term order
    for family, key, coefs, cols, rhs in _rows(model, support):
        lhs = 0.0
        for coef, col in zip(coefs, cols):
            x = values[col]
            if x:
                lhs += coef * x
        if lhs == rhs:      # no sense is broken at equality
            continue
        name, sense = family.template.format(*key), family.kind
        if sense == "<=" and lhs > rhs + TOLERANCE:
            violations.append(f"{name}: {lhs} > {rhs}")
        elif sense == ">=" and lhs < rhs - TOLERANCE:
            violations.append(f"{name}: {lhs} < {rhs}")
        elif sense == "=" and abs(lhs - rhs) > TOLERANCE:
            violations.append(f"{name}: {lhs} != {rhs}")

    objective = 0.0
    for coef, col in model.objective_terms(support):
        x = values[col]
        if x:
            objective += coef * x

    # the schedule's shape: assets used, and how each selected variant goes
    d, p, s = (model.family(name) for name in (D_NAME, P_NAME, S_NAME))
    v_total = instance.owned_assets + instance.leasable_assets
    used = [v for v in range(1, v_total + 1) if values[d.column(v)] > 0.5]
    owned = sum(1 for v in used if v <= instance.owned_assets)
    chosen: dict[int, list[TransformedCommodity]] = {}
    for tc in tcs:
        if values[p.column(tc.id)] > 0.5:
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
        violations=violations,
        objective=objective,
        summary=summary,
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
