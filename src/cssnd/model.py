"""Exact arc-based model: build, export, and verify solutions.

The model is held as a solver-agnostic IR (columns, linear rows, a
minimization objective) and written out as CPLEX-dialect LP text or
fixed-field MPS.  No solver is linked; external solutions come back as
plain `name value` lines and are replayed row by row against the IR.

The columns are integers, laid out family by family (`Family`: one column
per key of a product of axes, in row-major order).  A row holds (coef,
column) terms, range-checked once when it is added.  Names are made only where
text is: the LP/MPS writers format each column's name from its family, and
`check_solution` parses the names of a solution file back to columns.  The
writers stream their text, the MPS names sidecar too, to files in chunks of
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

import re
from dataclasses import dataclass, field
from itertools import chain, count, product, starmap
from json.encoder import encode_basestring_ascii as quote
from pathlib import Path
from typing import Iterable, Iterator, NamedTuple

from .analysis import beta_support, compute_requirements
from .core import (
    EARLY,
    ORIGINAL,
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


class Family:
    """A block of columns: one per key of the product of `axes` (tuples of
    distinct ints), in row-major order from column `base`, named
    by filling `template`'s `{}` fields with the key."""

    def __init__(self, template: str, kind: str, base: int, axes):
        self.template = template
        self.kind = kind
        self.base = base
        self.axes = tuple(tuple(axis) for axis in axes)
        self._position = [{key: i for i, key in enumerate(axis)}
                          for axis in self.axes]
        if any(len(p) != len(a) for p, a in zip(self._position, self.axes)):
            raise CssndError(f"duplicate key in column family {template}")
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
    families: list[Family] = field(default_factory=list)
    constraints: list[Constraint] = field(default_factory=list)
    objective: list[tuple[float, int]] = field(default_factory=list)
    column_count: int = 0

    @property
    def variables(self) -> list[str]:
        """Column names in column order."""
        return [name for family in self.families for name in family.names()]

    def add_family(self, template: str, kind: str, *axes) -> Family:
        family = Family(template, kind, self.column_count, axes)
        self.families.append(family)
        self.column_count += family.size
        return family

    def add_constraint(self, name, terms, sense, rhs) -> None:
        if terms:
            cols = [col for _, col in terms]
            if min(cols) < 0 or max(cols) >= self.column_count:
                raise CssndError(f"row {name} references an unknown column")
        self.constraints.append(Constraint(name, tuple(terms), sense, rhs))

    def family(self, template: str) -> Family:
        return next(f for f in self.families if f.template == template)


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

    asset_spans = _spanning(asset_arcs, period_count)
    add = model.add_constraint

    # no-transit rows: flow may not span a period outside the time window
    for q, tc in enumerate(tcs):
        allowed = beta_support(tc, period_count)
        xq = x_col[q]
        for t in range(1, period_count + 1):
            if t in allowed:
                continue
            terms = [(1.0, xq + asset_pos[i]) for i in asset_spans[t]]
            add(f"transit_k{tc.id}_t{t}", terms, "<=", 0.0)

    # one activity per utilized asset and period, wrap-aware
    for v in assets:
        yv = y_col[v]
        for t in range(1, period_count + 1):
            terms = [(1.0, yv + i) for i in asset_spans[t]]
            terms.append((-1.0, d_col[v]))
            add(f"assign_v{v}_t{t}", terms, "=", 0.0)

    # asset conservation at every time-space node
    outgoing: dict[int, list[int]] = {}
    incoming: dict[int, list[int]] = {}
    for i, arc in enumerate(asset_arcs):
        outgoing.setdefault(tsn.arc_tail(arc), []).append(i)
        incoming.setdefault(tsn.arc_head(arc), []).append(i)
    for v in assets:
        yv = y_col[v]
        for node in range(1, tsn.ts_node_count + 1):
            terms = [(1.0, yv + i) for i in outgoing.get(node, [])]
            terms += [(-1.0, yv + i) for i in incoming.get(node, [])]
            add(f"balance_v{v}_n{node}", terms, "=", 0.0)

    # a service is operated by at most one asset
    service = list(enumerate(tsn.service_arcs, start=service_first))
    for i, arc in service:
        terms = [(1.0, y_col[v] + i) for v in assets]
        add(f"svc_once_a{arc.id}", terms, "<=", 1.0)

    # each commodity delivered through at least one of its variants
    incidence: dict[int, list[int]] = {}
    for tc in tcs:
        incidence.setdefault(tc.parent_id, []).append(tc.id)
    for oc in instance.commodities:
        terms = [(1.0, p_col[tc_id]) for tc_id in incidence[oc.id]]
        add(f"cover_k{oc.id}", terms, ">=", 1.0)

    # flow conservation, demand switched on by the variant selection
    all_out: dict[int, list[int]] = {}
    all_in: dict[int, list[int]] = {}
    for a, arc in enumerate(tsn.arcs):
        all_out.setdefault(tsn.arc_tail(arc), []).append(a)
        all_in.setdefault(tsn.arc_head(arc), []).append(a)
    for q, tc in enumerate(tcs):
        origin = tc.origin_node(period_count)
        dest = tc.dest_node(period_count)
        xq = x_col[q]
        for node in range(1, tsn.ts_node_count + 1):
            terms = [(1.0, xq + a) for a in all_out.get(node, [])]
            terms += [(-1.0, xq + a) for a in all_in.get(node, [])]
            if node == origin:
                terms.append((-tc.volume, p_col[tc.id]))
            elif node == dest:
                terms.append((tc.volume, p_col[tc.id]))
            add(f"flow_k{tc.id}_n{node}", terms, "=", 0.0)

    # capacity with forcing on service arcs (holding arcs are uncapacitated)
    for i, arc in service:
        a = asset_pos[i]
        terms = [(1.0, xq + a) for xq in x_col]
        terms += [(-arc.capacity, y_col[v] + i) for v in assets]
        add(f"cap_a{arc.id}", terms, "<=", 0.0)

    if options.strong_forcing:
        # rows of one service arc and one strength share their y terms
        blocks: dict[tuple[float, int], tuple[tuple[float, int], ...]] = {}
        for q, tc in enumerate(tcs):
            for i, arc in service:
                strength = min(tc.volume, arc.capacity)
                block = blocks.get((strength, i))
                if block is None:
                    block = blocks[strength, i] = tuple(
                        (-strength, y_col[v] + i) for v in assets
                    )
                terms = ((1.0, x_col[q] + asset_pos[i]),) + block
                add(f"strong_k{tc.id}_a{arc.id}", terms, "<=", 0.0)

    # outsourced flow only on selected outsourced services
    for q, tc in enumerate(tcs):
        xq, sq = x_col[q], s_col[q]
        for o, arc in enumerate(outsourced_arcs):
            terms = [(1.0, xq + out_pos[o]), (-tc.volume, sq + o)]
            add(f"outsource_k{tc.id}_a{arc.id}", terms, "<=", 0.0)

    if options.add_vi_gamma or options.add_vi_phi or options.near_opt is not None:
        analysis = compute_requirements(instance)
    fleet = [(1.0, d_col[v]) for v in assets]
    if options.add_vi_gamma:
        add("vi_gamma", fleet, ">=", float(analysis.gamma))

    if options.add_vi_phi:
        out_spans = _spanning(outsourced_arcs, period_count)
        for t in range(1, period_count + 1):
            terms = [(1.0, y_col[v] + i) for v in assets for i in asset_spans[t]]
            terms += [(1.0, sq + o) for sq in s_col for o in out_spans[t]]
            add(f"vi_phi_t{t}", terms, ">=", float(analysis.phi_at(t)))

    if options.near_opt == 21:
        add("near_opt_low", fleet, ">=", float(analysis.theta))
    elif options.near_opt == 22:
        add("near_opt_high", fleet, "<=", float(analysis.theta))
    elif options.near_opt == 23:
        terms = fleet + [(1.0, sq + o) for sq in s_col for o in range(n_out)]
        add("near_opt_mixed", terms, ">=", float(analysis.theta))

    if options.shift_restriction is not None:
        lam = options.shift_restriction
        if options.literal_shift_rule:
            # verbatim variant: counts everything but the first variant kind
            # against a budget over the whole variant set
            terms = [(1.0, p_col[tc.id]) for tc in tcs if tc.kind != EARLY]
            rhs = lam * len(tcs)
        else:
            terms = [(1.0, p_col[tc.id]) for tc in tcs if tc.kind != ORIGINAL]
            rhs = lam * len(instance.commodities)
        add("shift_cap", terms, "<=", rhs)

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
    for row in model.constraints:
        if row.terms:
            parts = _term_parts(row.terms, names, heads)
        elif names:
            parts = ["0 " + names[0]]
        else:
            raise CssndError("cannot write an empty row in a model with no variables")
        parts.append(f"{row.sense} {_num(row.rhs)}")
        yield from _wrapped(f" {row.name}:", parts)
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
    rows = model.constraints
    row_short = [f"R{r:07d}" for r in range(1, len(rows) + 1)]
    yield "NAME          MODEL"
    yield "ROWS"
    yield " N  COST"
    for short, row in zip(row_short, rows):
        yield f" {SENSE_CODE[row.sense]}  {short}"

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
    # coefficient shares one cell string.
    cells: list[list[str] | None] = [[] for _ in range(model.column_count)]
    for coef, col in model.objective:
        cells[col].append(f"COST      {coef:.9g}")
    for short, row in zip(row_short, rows):
        last = cell = None
        for coef, col in row.terms:
            if coef != last or not coef:
                cell = f"{short}  {value(coef)}"
                last = coef
            cells[col].append(cell)

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
    for short, row in zip(row_short, rows):
        if row.rhs != 0.0:
            yield f"    RHS       {short}  {value(row.rhs)}"

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
    names = chain(*(family.names() for family in model.families),
                  (row.name for row in model.constraints))
    shorts = chain(map("C{:07d}".format, range(1, model.column_count + 1)),
                   map("R{:07d}".format, range(1, len(model.constraints) + 1)))
    last = model.column_count + len(model.constraints)
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
    """Parse `name value` lines; blanks and #-comments are skipped."""
    values: dict[str, float] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split()
        if len(parts) != 2:
            raise CssndError(f"solution line {lineno}: expected 'name value'")
        try:
            values[parts[0]] = float(parts[1])
        except ValueError as exc:
            raise CssndError(f"solution line {lineno}: bad number") from exc
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

    for row in model.constraints:
        lhs = 0.0
        for coef, col in row.terms:
            x = values[col]
            if x:
                lhs += coef * x
        if row.sense == "<=" and lhs > row.rhs + TOLERANCE:
            violations.append(f"{row.name}: {lhs} > {row.rhs}")
        elif row.sense == ">=" and lhs < row.rhs - TOLERANCE:
            violations.append(f"{row.name}: {lhs} < {row.rhs}")
        elif row.sense == "=" and abs(lhs - row.rhs) > TOLERANCE:
            violations.append(f"{row.name}: {lhs} != {row.rhs}")

    objective = 0.0
    for coef, col in model.objective:
        x = values[col]
        if x:
            objective += coef * x

    d, p, s = (model.family(name) for name in (D_NAME, P_NAME, S_NAME))
    by_id = {tc.id: tc for tc in tcs}
    incidence: dict[int, list[int]] = {}
    for tc in tcs:
        incidence.setdefault(tc.parent_id, []).append(tc.id)
    owned = leased = 0
    v_total = instance.owned_assets + instance.leasable_assets
    for v in range(1, v_total + 1):
        if values[d.column(v)] > 0.5:
            if v <= instance.owned_assets:
                owned += 1
            else:
                leased += 1
    on_time = early = tardy = outsourced = multi = 0
    for oc in instance.commodities:
        chosen = [t for t in incidence[oc.id] if values[p.column(t)] > 0.5]
        if len(chosen) > 1:
            multi += 1
        for tc_id in chosen:
            tc = by_id[tc_id]
            used_outsourced = any(
                values[s.column(tc_id, arc.id)] > 0.5
                for arc in tsn.outsourced_arcs
            )
            if used_outsourced:
                outsourced += 1
            elif tc.kind == ORIGINAL:
                on_time += 1
            elif tc.kind == EARLY:
                early += 1
            else:
                tardy += 1
    summary = {
        "owned_used": owned,
        "leased": leased,
        "on_time": on_time,
        "early": early,
        "tardy": tardy,
        "outsourced": outsourced,
        "multi_selected": multi,
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
