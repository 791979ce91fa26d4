"""Exact arc-based model: build, export, and verify solutions.

The model is held as a solver-agnostic IR (variables, linear rows, a
minimization objective) and written out as CPLEX-dialect LP text or
fixed-field MPS.  No solver is linked; external solutions come back as
plain `name value` lines and are replayed row by row against the IR.

Variable families follow the fixed naming scheme:

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

import warnings
from dataclasses import dataclass, field

from .analysis import AnalysisSummary, beta_support
from .core import (
    EARLY,
    HOLD,
    ORIGINAL,
    SERVICE,
    CssndError,
    Instance,
    TimeSpaceNetwork,
    TransformedCommodity,
)

TOLERANCE = 1e-6


def var_y(v: int, arc_id: int) -> str:
    return f"y_v{v}_a{arc_id}"


def var_d(v: int) -> str:
    return f"d_v{v}"


def var_p(tc_id: int) -> str:
    return f"p_k{tc_id}"


def var_s(tc_id: int, arc_id: int) -> str:
    return f"s_k{tc_id}_a{arc_id}"


def var_x(tc_id: int, arc_id: int) -> str:
    return f"x_k{tc_id}_a{arc_id}"


@dataclass(frozen=True)
class Variable:
    name: str
    kind: str                   # binary | continuous
    lower: float = 0.0
    upper: float | None = None  # None = unbounded above


@dataclass(frozen=True)
class Constraint:
    name: str
    terms: tuple[tuple[float, str], ...]
    sense: str                  # <= | = | >=
    rhs: float


@dataclass
class ModelIR:
    variables: list[Variable] = field(default_factory=list)
    constraints: list[Constraint] = field(default_factory=list)
    objective: list[tuple[float, str]] = field(default_factory=list)
    metadata: dict[str, str] = field(default_factory=dict)
    _index: dict[str, int] = field(default_factory=dict, repr=False)

    def add_variable(self, name: str, kind: str, describes: str = "") -> None:
        if name in self._index:
            raise CssndError(f"duplicate variable {name}")
        self._index[name] = len(self.variables)
        self.variables.append(Variable(name=name, kind=kind))
        if describes:
            self.metadata[name] = describes

    def add_constraint(self, name, terms, sense, rhs) -> None:
        for _, var in terms:
            if var not in self._index:
                raise CssndError(f"row {name} references unknown variable {var}")
        self.constraints.append(
            Constraint(name=name, terms=tuple(terms), sense=sense, rhs=rhs)
        )

    def binaries(self) -> list[str]:
        return [v.name for v in self.variables if v.kind == "binary"]


@dataclass(frozen=True)
class ModelOptions:
    add_vi_gamma: bool = False      # fleet lower bound from the profile min
    add_vi_phi: bool = False        # per-period resource lower bounds
    near_opt: frozenset = frozenset()   # any of {21, 22, 23}
    strong_forcing: bool = False    # per-commodity forcing rows (off: redundant)
    shift_restriction: float | None = None    # cap on shifted deliveries
    literal_shift_rule: bool = False

    @property
    def needs_analysis(self) -> bool:
        """Valid inequalities and near-optimal bounds read the requirement
        profile, so `build_mip` must be given an analysis summary."""
        return bool(self.add_vi_gamma or self.add_vi_phi or self.near_opt)


def _spanning(arcs, t: int, period_count: int):
    return [a for a in arcs if a.spans(t, period_count)]


def build_mip(
    instance: Instance,
    tsn: TimeSpaceNetwork,
    tcs: list[TransformedCommodity],
    analysis: AnalysisSummary | None = None,
    options: ModelOptions | None = None,
) -> ModelIR:
    """Assemble the full arc-based program for one instance."""
    options = options or ModelOptions()
    period_count = instance.period_count
    costs = instance.costs
    v_total = instance.owned_assets + instance.leasable_assets
    assets = range(1, v_total + 1)
    asset_arcs = tsn.holding_arcs + tsn.service_arcs
    if options.needs_analysis and analysis is None:
        raise CssndError("valid-inequality options require an analysis summary")
    if {21, 22} <= set(options.near_opt):
        warnings.warn(
            "adding both near-optimal bounds pins the fleet size exactly",
            stacklevel=2,
        )
    if options.shift_restriction is not None and not (
        0.0 <= options.shift_restriction <= 1.0
    ):
        raise CssndError("shift restriction must lie in [0, 1]")

    model = ModelIR()
    incidence: dict[int, list[int]] = {}
    for tc in tcs:
        incidence.setdefault(tc.parent_id, []).append(tc.id)
    by_id = {tc.id: tc for tc in tcs}

    for v in assets:
        for arc in asset_arcs:
            model.add_variable(var_y(v, arc.id), "binary")
    for v in assets:
        model.add_variable(var_d(v), "binary")
    for tc in tcs:
        model.add_variable(var_p(tc.id), "binary")
    for tc in tcs:
        for arc in tsn.outsourced_arcs:
            model.add_variable(var_s(tc.id, arc.id), "binary")
    for tc in tcs:
        for arc in tsn.arcs:
            model.add_variable(var_x(tc.id, arc.id), "continuous")

    def arc_cost(tc, arc) -> float:
        if arc.kind == HOLD:
            return costs.holding_cost
        if arc.kind == SERVICE:
            return costs.service_cost(tc.id, arc.phys_from, arc.phys_to, arc.depart)
        return costs.outsourced_cost(tc.id, arc.phys_from, arc.phys_to, arc.depart)

    objective: list[tuple[float, str]] = []
    for v in assets:
        fixed = costs.fixed_owned if v <= instance.owned_assets else costs.fixed_leased
        objective.append((fixed, var_d(v)))
    for tc in tcs:
        m = costs.multiplier(tc.kind)
        for arc in asset_arcs:
            objective.append((m * arc_cost(tc, arc), var_x(tc.id, arc.id)))
        for arc in tsn.outsourced_arcs:
            objective.append((m * arc_cost(tc, arc), var_s(tc.id, arc.id)))
    model.objective = objective

    # no-transit rows: flow may not span a period outside the time window
    for tc in tcs:
        allowed = beta_support(tc, period_count)
        for t in range(1, period_count + 1):
            if t in allowed:
                continue
            terms = [
                (1.0, var_x(tc.id, arc.id))
                for arc in _spanning(asset_arcs, t, period_count)
            ]
            model.add_constraint(f"transit_k{tc.id}_t{t}", terms, "<=", 0.0)

    # one activity per utilized asset and period, wrap-aware
    for v in assets:
        for t in range(1, period_count + 1):
            terms = [
                (1.0, var_y(v, arc.id))
                for arc in _spanning(asset_arcs, t, period_count)
            ]
            terms.append((-1.0, var_d(v)))
            model.add_constraint(f"assign_v{v}_t{t}", terms, "=", 0.0)

    # asset conservation at every time-space node
    outgoing: dict[int, list] = {}
    incoming: dict[int, list] = {}
    for arc in asset_arcs:
        outgoing.setdefault(tsn.arc_tail(arc), []).append(arc)
        incoming.setdefault(tsn.arc_head(arc), []).append(arc)
    for v in assets:
        for node in range(1, tsn.ts_node_count + 1):
            terms = [(1.0, var_y(v, a.id)) for a in outgoing.get(node, [])]
            terms += [(-1.0, var_y(v, a.id)) for a in incoming.get(node, [])]
            model.add_constraint(f"balance_v{v}_n{node}", terms, "=", 0.0)

    # a service is operated by at most one asset
    for arc in tsn.service_arcs:
        terms = [(1.0, var_y(v, arc.id)) for v in assets]
        model.add_constraint(f"svc_once_a{arc.id}", terms, "<=", 1.0)

    # each commodity delivered through at least one of its variants
    for oc in instance.commodities:
        terms = [(1.0, var_p(tc_id)) for tc_id in incidence[oc.id]]
        model.add_constraint(f"cover_k{oc.id}", terms, ">=", 1.0)

    # flow conservation, demand switched on by the variant selection
    all_out: dict[int, list] = {}
    all_in: dict[int, list] = {}
    for arc in tsn.arcs:
        all_out.setdefault(tsn.arc_tail(arc), []).append(arc)
        all_in.setdefault(tsn.arc_head(arc), []).append(arc)
    for tc in tcs:
        origin = tc.origin_node(period_count)
        dest = tc.dest_node(period_count)
        for node in range(1, tsn.ts_node_count + 1):
            terms = [(1.0, var_x(tc.id, a.id)) for a in all_out.get(node, [])]
            terms += [(-1.0, var_x(tc.id, a.id)) for a in all_in.get(node, [])]
            if node == origin:
                terms.append((-tc.volume, var_p(tc.id)))
            elif node == dest:
                terms.append((tc.volume, var_p(tc.id)))
            model.add_constraint(f"flow_k{tc.id}_n{node}", terms, "=", 0.0)

    # capacity with forcing on service arcs (holding arcs are uncapacitated)
    for arc in tsn.service_arcs:
        terms = [(1.0, var_x(tc.id, arc.id)) for tc in tcs]
        terms += [(-arc.capacity, var_y(v, arc.id)) for v in assets]
        model.add_constraint(f"cap_a{arc.id}", terms, "<=", 0.0)

    if options.strong_forcing:
        for tc in tcs:
            for arc in tsn.service_arcs:
                strength = min(tc.volume, arc.capacity)
                terms = [(1.0, var_x(tc.id, arc.id))]
                terms += [(-strength, var_y(v, arc.id)) for v in assets]
                model.add_constraint(
                    f"strong_k{tc.id}_a{arc.id}", terms, "<=", 0.0
                )

    # outsourced flow only on selected outsourced services
    for tc in tcs:
        for arc in tsn.outsourced_arcs:
            terms = [
                (1.0, var_x(tc.id, arc.id)),
                (-tc.volume, var_s(tc.id, arc.id)),
            ]
            model.add_constraint(f"outsource_k{tc.id}_a{arc.id}", terms, "<=", 0.0)

    if options.add_vi_gamma:
        terms = [(1.0, var_d(v)) for v in assets]
        model.add_constraint("vi_gamma", terms, ">=", float(analysis.gamma))

    if options.add_vi_phi:
        for t in range(1, period_count + 1):
            terms = [
                (1.0, var_y(v, arc.id))
                for v in assets
                for arc in _spanning(asset_arcs, t, period_count)
            ]
            terms += [
                (1.0, var_s(tc.id, arc.id))
                for tc in tcs
                for arc in _spanning(tsn.outsourced_arcs, t, period_count)
            ]
            model.add_constraint(f"vi_phi_t{t}", terms, ">=", float(analysis.phi_at(t)))

    if 21 in options.near_opt:
        terms = [(1.0, var_d(v)) for v in assets]
        model.add_constraint("near_opt_low", terms, ">=", float(analysis.theta))
    if 22 in options.near_opt:
        terms = [(1.0, var_d(v)) for v in assets]
        model.add_constraint("near_opt_high", terms, "<=", float(analysis.theta))
    if 23 in options.near_opt:
        terms = [(1.0, var_d(v)) for v in assets]
        terms += [
            (1.0, var_s(tc.id, arc.id))
            for tc in tcs
            for arc in tsn.outsourced_arcs
        ]
        model.add_constraint("near_opt_mixed", terms, ">=", float(analysis.theta))

    if options.shift_restriction is not None:
        lam = options.shift_restriction
        if options.literal_shift_rule:
            # verbatim variant: counts everything but the first variant kind
            # against a budget over the whole variant set
            terms = [
                (1.0, var_p(tc.id)) for tc in tcs if tc.kind != EARLY
            ]
            rhs = lam * len(tcs)
        else:
            terms = [
                (1.0, var_p(tc.id)) for tc in tcs if tc.kind != ORIGINAL
            ]
            rhs = lam * len(instance.commodities)
        model.add_constraint("shift_cap", terms, "<=", rhs)

    model.metadata["families"] = (
        "transit assign balance svc_once cover flow cap outsource"
    )
    return model


# --- text formats -----------------------------------------------------------


def _num(value: float) -> str:
    if value == int(value) and abs(value) < 1e15:
        return str(int(value))
    return f"{value:.12g}"


def _term_parts(terms) -> list[str]:
    parts: list[str] = []
    for coef, name in terms:
        if not parts and coef >= 0:
            parts.append(f"{_num(coef)} {name}")
        elif coef < 0:
            parts.append(f"- {_num(-coef)} {name}")
        else:
            parts.append(f"+ {_num(coef)} {name}")
    return parts


def _wrapped(first: str, parts: list[str], width: int = 240) -> list[str]:
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


def export_lp(model: ModelIR) -> str:
    """Deterministic CPLEX-dialect LP text."""
    lines = ["Minimize"]
    obj_parts = _term_parts(model.objective) if model.objective else ["0"]
    lines.extend(_wrapped(" obj:", obj_parts))
    lines.append("Subject To")
    for row in model.constraints:
        parts = _term_parts(row.terms) if row.terms else ["0 " + _zero_var(model)]
        parts.append(f"{row.sense} {_num(row.rhs)}")
        lines.extend(_wrapped(f" {row.name}:", parts))
    binaries = model.binaries()
    if binaries:
        lines.append("Binaries")
        for start in range(0, len(binaries), 8):
            lines.append(" " + " ".join(binaries[start : start + 8]))
    lines.append("End")
    return "\n".join(lines) + "\n"


def _zero_var(model: ModelIR) -> str:
    if not model.variables:
        raise CssndError("cannot write an empty row in a model with no variables")
    return model.variables[0].name


def export_mps(model: ModelIR) -> tuple[str, dict[str, str]]:
    """Fixed-field MPS text plus the sidecar mapping short -> original name.

    Fixed-field column widths cap names at eight characters, so rows and
    columns are renumbered deterministically.  Values are written with nine
    significant digits to fit the twelve-character value field.
    """
    row_names = {c.name: f"R{i + 1:07d}" for i, c in enumerate(model.constraints)}
    col_names = {v.name: f"C{i + 1:07d}" for i, v in enumerate(model.variables)}
    sidecar = {short: orig for orig, short in row_names.items()}
    sidecar.update({short: orig for orig, short in col_names.items()})

    sense_code = {"<=": "L", ">=": "G", "=": "E"}
    lines = ["NAME          MODEL"]
    lines.append("ROWS")
    lines.append(" N  COST")
    for row in model.constraints:
        lines.append(f" {sense_code[row.sense]}  {row_names[row.name]}")

    by_col: dict[str, list[tuple[str, float]]] = {v.name: [] for v in model.variables}
    for coef, name in model.objective:
        by_col[name].append(("COST", coef))
    for row in model.constraints:
        for coef, name in row.terms:
            by_col[name].append((row_names[row.name], coef))

    def entry(col: str, row: str, value: float) -> str:
        return f"    {col:<8}  {row:<8}  {value:.9g}"

    lines.append("COLUMNS")
    in_integer = False
    marker = 0
    for variable in model.variables:
        wants_integer = variable.kind == "binary"
        if wants_integer != in_integer:
            marker += 1
            flag = "'INTORG'" if wants_integer else "'INTEND'"
            lines.append(f"    MARKER{marker:02d}  'MARKER'                 {flag}")
            in_integer = wants_integer
        short = col_names[variable.name]
        for row_short, coef in by_col[variable.name]:
            lines.append(entry(short, row_short, coef))
    if in_integer:
        marker += 1
        lines.append(f"    MARKER{marker:02d}  'MARKER'                 'INTEND'")

    lines.append("RHS")
    for row in model.constraints:
        if row.rhs != 0.0:
            lines.append(entry("RHS", row_names[row.name], row.rhs))

    lines.append("BOUNDS")
    for variable in model.variables:
        if variable.kind == "binary":
            lines.append(f" BV BND       {col_names[variable.name]:<8}")
    lines.append("ENDATA")
    return "\n".join(lines) + "\n", sidecar


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
    from the assignment alone.  Missing variables count as zero."""
    violations: list[str] = []
    value = assignment.get

    for variable in model.variables:
        x = value(variable.name, 0.0)
        if variable.kind == "binary":
            if min(abs(x), abs(x - 1.0)) > TOLERANCE:
                violations.append(f"{variable.name}: {x} is not binary")
        elif x < -TOLERANCE:
            violations.append(f"{variable.name}: {x} below zero")

    for row in model.constraints:
        lhs = 0.0
        for coef, name in row.terms:
            x = value(name, 0.0)
            if x:
                lhs += coef * x
        if row.sense == "<=" and lhs > row.rhs + TOLERANCE:
            violations.append(f"{row.name}: {lhs} > {row.rhs}")
        elif row.sense == ">=" and lhs < row.rhs - TOLERANCE:
            violations.append(f"{row.name}: {lhs} < {row.rhs}")
        elif row.sense == "=" and abs(lhs - row.rhs) > TOLERANCE:
            violations.append(f"{row.name}: {lhs} != {row.rhs}")

    objective = 0.0
    for coef, name in model.objective:
        x = value(name, 0.0)
        if x:
            objective += coef * x

    by_id = {tc.id: tc for tc in tcs}
    incidence: dict[int, list[int]] = {}
    for tc in tcs:
        incidence.setdefault(tc.parent_id, []).append(tc.id)
    owned = leased = 0
    v_total = instance.owned_assets + instance.leasable_assets
    for v in range(1, v_total + 1):
        if value(var_d(v), 0.0) > 0.5:
            if v <= instance.owned_assets:
                owned += 1
            else:
                leased += 1
    on_time = early = tardy = outsourced = multi = 0
    for oc in instance.commodities:
        chosen = [t for t in incidence[oc.id] if value(var_p(t), 0.0) > 0.5]
        if len(chosen) > 1:
            multi += 1
        for tc_id in chosen:
            tc = by_id[tc_id]
            used_outsourced = any(
                value(var_s(tc_id, arc.id), 0.0) > 0.5
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
    rows["near_opt"] = len(options.near_opt)
    if options.shift_restriction is not None:
        rows["shift_cap"] = 1
    return {
        "variables": sum(variables.values()),
        "rows": sum(rows.values()),
        **{f"var_{k}": v for k, v in variables.items()},
        **{f"row_{k}": v for k, v in rows.items()},
    }
