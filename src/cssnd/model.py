"""Exact arc-based model: build, export, and verify solutions.

The model is held as a solver-agnostic IR (columns, linear rows, a
minimization objective) and written out as CPLEX-dialect LP text or
fixed-field MPS.  No solver is linked; external solutions come back as
plain `name value` lines and are replayed row by row against the IR.

Columns and rows are catalogued by families (`Family`: one column or row
per key of a product of axes, in row-major order), so a column or row is
an integer and its name is made from its family's template only where
text is written.  The model stores no rows: a row family holds a
function that makes its rows, as (coefs, cols, rhs) in key order, each
time they are read.  `_rows` is the one reader; it checks every row's
columns and every family's row count as it goes, and the LP and MPS
writers, `check_solution` and the `ModelIR.constraints` view all read
through it.  The writers stream their text, the MPS names sidecar too,
to files in chunks of characters, so the whole text never sits in
memory.

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
from collections import Counter
from dataclasses import dataclass, field
from itertools import chain, count, product, starmap
from json.encoder import encode_basestring_ascii as quote
from pathlib import Path
from typing import Iterable, Iterator, NamedTuple

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
    domain or a row's sense; a row family's `rows()` makes each row's
    (coefs, cols, rhs) in key order, afresh at every call."""

    def __init__(self, template: str, kind: str, base: int, axes, rows=None):
        self.template = template
        self.kind = kind
        self.base = base
        self.rows = rows
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


@dataclass
class ModelIR:
    families: list[Family] = field(default_factory=list)        # columns
    row_families: list[Family] = field(default_factory=list)
    objective: list[tuple[float, int]] = field(default_factory=list)
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

    def add_rows(self, template: str, sense: str, axes, rows) -> Family:
        """Append a family of rows, one per key of the product of `axes`;
        `rows()` makes them, each the sum of coefs[i] * column cols[i] with
        its sense and rhs, and must give them afresh at every call."""
        family = Family(template, sense, self.row_count, axes, rows)
        self.row_families.append(family)
        self.row_count += family.size
        return family

    def family(self, template: str) -> Family:
        return next(f for f in self.families if f.template == template)


def _rows(model: ModelIR) -> Iterator[tuple]:
    """Every row as (family, key, coefs, cols, rhs), in row order, made by
    its family as it is read.  A row must give one coefficient per column,
    all of the model, and a family one row per key."""
    n = model.column_count
    for family in model.row_families:
        rows = iter(family.rows())
        made = 0
        for key, (coefs, cols, rhs) in zip(product(*family.axes), rows):
            if len(coefs) != len(cols) or cols and (min(cols) < 0 or max(cols) >= n):
                raise CssndError(f"row {family.template.format(*key)} has "
                                 f"{len(coefs)} coefficients for columns "
                                 f"{list(cols)} of {n}")
            made += 1
            yield family, key, coefs, cols, rhs
        if made < family.size or next(rows, None) is not None:
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
    y0 = model.add_family(Y_NAME, BINARY, assets, [a.id for a in asset_arcs]).base
    d0 = model.add_family(D_NAME, BINARY, assets).base
    p0 = model.add_family(P_NAME, BINARY, tc_ids).base
    s0 = model.add_family(
        S_NAME, BINARY, tc_ids, [a.id for a in outsourced_arcs]
    ).base
    x0 = model.add_family(X_NAME, CONTINUOUS, tc_ids, [a.id for a in tsn.arcs]).base

    # Column arithmetic: y of asset v on asset arc i is y_col[v] + i, x of
    # the q-th TC on arc position a is x_col[q] + a, s likewise with the
    # position among the outsourced arcs.
    n_asset, n_out, n_arcs = len(asset_arcs), len(outsourced_arcs), len(tsn.arcs)
    y_col = {v: y0 + (v - 1) * n_asset for v in assets}
    d_col = {v: d0 + v - 1 for v in assets}
    x_col = [x0 + q * n_arcs for q in range(len(tcs))]
    s_col = [s0 + q * n_out for q in range(len(tcs))]
    position = {arc.id: i for i, arc in enumerate(tsn.arcs)}
    asset_pos = [position[a.id] for a in asset_arcs]       # asset arc -> x
    out_pos = [position[a.id] for a in outsourced_arcs]    # outsourced -> x
    service_first = len(tsn.holding_arcs)                  # in asset_arcs
    p_col = {tc_id: p0 + q for q, tc_id in enumerate(tc_ids)}

    objective: list[tuple[float, int]] = []
    for v in assets:
        fixed = costs.fixed_owned if v <= instance.owned_assets else costs.fixed_leased
        objective.append((fixed, d_col[v]))
    asset_prices = costs.table.pricer(asset_arcs)
    out_prices = costs.table.pricer(outsourced_arcs)
    for q, tc in enumerate(tcs):
        m = costs.multiplier(tc.kind)
        xq, sq = x_col[q], s_col[q]
        objective += [
            (m * price, xq + a) for price, a in zip(asset_prices(tc.id), asset_pos)
        ]
        objective += [
            (m * price, sq + o) for o, price in enumerate(out_prices(tc.id))
        ]
    model.objective = objective

    # Row families, each made by a function when read (default arguments
    # bind a loop's values into its function).
    asset_spans = _spanning(asset_arcs, period_count)
    periods = range(1, period_count + 1)
    nodes = range(1, tsn.ts_node_count + 1)
    service = list(enumerate(tsn.service_arcs, start=service_first))
    service_ids = [arc.id for arc in tsn.service_arcs]
    add = model.add_rows

    def ones(cols: list[int], rhs: float = 0.0):
        return [1.0] * len(cols), cols, rhs

    # no-transit rows: flow may not span a period outside the time window
    for q, tc in enumerate(tcs):
        allowed = beta_support(tc, period_count)
        banned = [t for t in periods if t not in allowed]
        add("transit_k{}_t{}", "<=", ([tc.id], banned),
            lambda xq=x_col[q], banned=banned: (
                ones([xq + asset_pos[i] for i in asset_spans[t]]) for t in banned))

    # one activity per utilized asset and period, wrap-aware
    add("assign_v{}_t{}", "=", (assets, periods), lambda: (
        ([1.0] * len(asset_spans[t]) + [-1.0],
         [y_col[v] + i for i in asset_spans[t]] + [d_col[v]], 0.0)
        for v in assets for t in periods))

    # asset conservation at every time-space node
    asset_incidence = _incidence(tsn, asset_arcs)
    add("balance_v{}_n{}", "=", (assets, nodes), lambda: (
        (coefs, [y_col[v] + i for i in ends], 0.0)
        for v in assets for ends, coefs in asset_incidence.values()))

    # a service is operated by at most one asset
    add("svc_once_a{}", "<=", (service_ids,), lambda: (
        ones([y_col[v] + i for v in assets], 1.0) for i, _ in service))

    # each commodity delivered through at least one of its variants
    incidence: dict[int, list[int]] = {}
    for tc in tcs:
        incidence.setdefault(tc.parent_id, []).append(tc.id)
    add("cover_k{}", ">=", ([oc.id for oc in instance.commodities],), lambda: (
        ones([p_col[t] for t in incidence[oc.id]], 1.0)
        for oc in instance.commodities))

    # flow conservation, demand switched on by the variant selection
    arc_incidence = _incidence(tsn, tsn.arcs)

    def flow():
        for q, tc in enumerate(tcs):
            ends_of = {tc.origin_node(period_count): -tc.volume,
                       tc.dest_node(period_count): tc.volume}
            for node, (ends, coefs) in arc_incidence.items():
                cols = [x_col[q] + a for a in ends]
                if node in ends_of:
                    coefs = coefs + [ends_of[node]]
                    cols.append(p_col[tc.id])
                yield coefs, cols, 0.0

    add("flow_k{}_n{}", "=", (tc_ids, nodes), flow)

    # capacity with forcing on service arcs (holding arcs are uncapacitated)
    add("cap_a{}", "<=", (service_ids,), lambda: (
        ([1.0] * len(x_col) + [-arc.capacity] * v_total,
         [xq + asset_pos[i] for xq in x_col] + [y_col[v] + i for v in assets],
         0.0)
        for i, arc in service))

    if options.strong_forcing:
        y_cols = {i: [y_col[v] + i for v in assets] for i, _ in service}
        add("strong_k{}_a{}", "<=", (tc_ids, service_ids), lambda: (
            ([1.0] + [-min(tc.volume, arc.capacity)] * v_total,
             [x_col[q] + asset_pos[i], *y_cols[i]], 0.0)
            for q, tc in enumerate(tcs) for i, arc in service))

    # outsourced flow only on selected outsourced services
    add("outsource_k{}_a{}", "<=", (tc_ids, [a.id for a in outsourced_arcs]),
        lambda: (([1.0, -tc.volume], [x_col[q] + out_pos[o], s_col[q] + o], 0.0)
                 for q, tc in enumerate(tcs) for o in range(n_out)))

    if options.add_vi_gamma or options.add_vi_phi or options.near_opt is not None:
        analysis = compute_requirements(instance)
    fleet = [d_col[v] for v in assets]

    def single(name: str, sense: str, cols: list[int], rhs: float) -> None:
        add(name, sense, (), lambda row=ones(cols, float(rhs)): [row])

    if options.add_vi_gamma:
        single("vi_gamma", ">=", fleet, analysis.gamma)

    if options.add_vi_phi:
        out_spans = _spanning(outsourced_arcs, period_count)
        add("vi_phi_t{}", ">=", (periods,), lambda: (
            ones([y_col[v] + i for v in assets for i in asset_spans[t]]
                 + [sq + o for sq in s_col for o in out_spans[t]],
                 float(analysis.phi_at(t)))
            for t in periods))

    if options.near_opt == 21:
        single("near_opt_low", ">=", fleet, analysis.theta)
    elif options.near_opt == 22:
        single("near_opt_high", "<=", fleet, analysis.theta)
    elif options.near_opt == 23:
        cols = fleet + [sq + o for sq in s_col for o in range(n_out)]
        single("near_opt_mixed", ">=", cols, analysis.theta)

    if options.shift_restriction is not None:
        lam = options.shift_restriction
        if options.literal_shift_rule:
            # verbatim variant: counts everything but the first variant kind
            # against a budget over the whole variant set
            cols = [p_col[tc.id] for tc in tcs if tc.kind != EARLY]
            rhs = lam * len(tcs)
        else:
            cols = [p_col[tc.id] for tc in tcs if tc.kind != ORIGINAL]
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
    obj_parts = (
        _term_parts(model.objective, names, heads) if model.objective else ["0"]
    )
    yield from _wrapped(" obj:", obj_parts)
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
    for coef, col in model.objective:
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
    value that is not a finite number is an error."""
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
    """Replay every row and domain at tolerance; recompute the objective
    from the assignment alone.  Missing variables count as zero, and names
    the model lacks are ignored."""
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
    for col in sorted(named):
        name, kind = named[col]
        x = values[col]
        if kind == BINARY:
            if min(abs(x), abs(x - 1.0)) > TOLERANCE:
                violations.append(f"{name}: {x} is not binary")
        elif x < -TOLERANCE:
            violations.append(f"{name}: {x} below zero")

    # each row's terms at a nonzero value, summed in term order
    for family, key, coefs, cols, rhs in _rows(model):
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
    for coef, col in model.objective:
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
    ways = Counter(
        "outsourced" if any(values[s.column(tc.id, arc.id)] > 0.5
                            for arc in tsn.outsourced_arcs) else tc.kind
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
