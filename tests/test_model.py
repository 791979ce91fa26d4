"""Model assembly, exports, and the solution checker."""

from __future__ import annotations

import dataclasses
import itertools
import json
import random
import re
import tracemalloc
from collections import Counter
from pathlib import Path
from types import SimpleNamespace

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from cssnd.analysis import compute_requirements
from cssnd.cli import main
from cssnd.core import (
    CssndError,
    build_time_space_network,
    expand_commodities,
    ts_node,
)
from cssnd.dmam import PathBook, Solution, run_dmam, solution_to_assignment
from cssnd.instgen import generate_instance
from cssnd.io import save_instance
from cssnd.model import (
    D_NAME,
    P_NAME,
    S_NAME,
    X_NAME,
    ModelIR,
    ModelOptions,
    _incidence,
    _reached,
    _rows,
    _spanning,
    build_mip,
    check_solution,
    count_schema,
    export_lp,
    export_mps,
    read_solution,
)
from cssnd.rng import Stream
from tests.conftest import make_sample_instance


@pytest.fixture(scope="module")
def sample_model():
    instance = make_sample_instance()
    tsn = build_time_space_network(instance.physical, instance.period_count)
    tcs, _ = expand_commodities(instance)
    return instance, tsn, tcs


def objective_of(model) -> list[tuple[float, int]]:
    """Every objective term of `model`, in term order."""
    return list(model.objective_terms(None))


def lp_text(model, path):
    """LP text written to `path`; the writer reports its length."""
    written = export_lp(model, path)
    text = path.read_text()
    assert len(written) == len(text)
    return text


def mps_text(model, path):
    """MPS text written to `path` and the sidecar read from
    `{path}.names.json`.  The writer reports both lengths, and the sidecar
    text is what `json.dumps(..., indent=2, sort_keys=True)` writes."""
    written, written_names = export_mps(model, path)
    text = path.read_text()
    names = path.with_name(path.name + ".names.json").read_text()
    assert (len(written), len(written_names)) == (len(text), len(names))
    sidecar = json.loads(names)
    assert names == json.dumps(sidecar, indent=2, sort_keys=True) + "\n"
    return text, sidecar


def test_variable_counts_on_sample(sample_model):
    instance, tsn, tcs = sample_model
    model = build_mip(instance, tsn, tcs)
    kinds = {}
    for name in model.variables:
        kinds[name[0]] = kinds.get(name[0], 0) + 1
    assert kinds["y"] == 12 * 175 == 2100
    assert kinds["d"] == 12
    assert kinds["p"] == 30
    assert kinds["s"] == 140 * 30 == 4200
    assert kinds["x"] == (175 + 140) * 30 == 9450


def test_row_counts_match_schema(sample_model):
    instance, tsn, tcs = sample_model
    for options in (
        ModelOptions(),
        ModelOptions(add_vi_gamma=True, add_vi_phi=True),
        ModelOptions(strong_forcing=True),
        ModelOptions(near_opt=21),
        ModelOptions(near_opt=22),
        ModelOptions(near_opt=23, shift_restriction=0.25),
    ):
        model = build_mip(instance, tsn, tcs, options=options)
        schema = count_schema(instance, tsn, tcs, options)
        assert len(model.variables) == schema["variables"]
        assert len(model.constraints) == schema["rows"]


def test_near_opt_outside_the_three_bounds_is_rejected(sample_model):
    instance, tsn, tcs = sample_model
    for near_opt in (0, 20, 24):
        with pytest.raises(CssndError, match="21, 22 or 23"):
            build_mip(instance, tsn, tcs, options=ModelOptions(near_opt=near_opt))


def test_vi_gamma_row_value(sample_model):
    instance, tsn, tcs = sample_model
    base = build_mip(instance, tsn, tcs)
    with_vi = build_mip(instance, tsn, tcs, options=ModelOptions(add_vi_gamma=True))
    added = [c for c in with_vi.constraints if c.name == "vi_gamma"]
    assert len(with_vi.constraints) == len(base.constraints) + 1
    assert added[0].rhs == 2.0
    assert added[0].sense == ">="


def test_vi_phi_adds_period_rows(sample_model):
    instance, tsn, tcs = sample_model
    base = build_mip(instance, tsn, tcs)
    with_vi = build_mip(instance, tsn, tcs, options=ModelOptions(add_vi_phi=True))
    added = [c for c in with_vi.constraints if c.name.startswith("vi_phi")]
    assert len(added) == 7
    assert len(with_vi.constraints) == len(base.constraints) + 7
    assert [c.rhs for c in added] == [4.0, 5.0, 3.0, 4.0, 3.0, 4.0, 2.0]


def test_shift_cap_zero_forces_on_time(sample_model):
    instance, tsn, tcs = sample_model
    model = build_mip(
        instance, tsn, tcs, options=ModelOptions(shift_restriction=0.0)
    )
    row = next(c for c in model.constraints if c.name == "shift_cap")
    assert row.rhs == 0.0
    shifted = {P_NAME.format(tc.id) for tc in tcs if tc.kind != "original"}
    assert {model.variables[col] for _, col in row.terms} == shifted


@pytest.mark.parametrize("literal, uncapped, rhs", [
    (False, "original", 0.25 * 10),     # lambda * |commodities|
    (True, "early", 0.25 * 30),         # lambda * |TCs|
])
def test_shift_cap_rules_on_sample(sample_model, literal, uncapped, rhs):
    instance, tsn, tcs = sample_model
    assert (len(instance.commodities), len(tcs)) == (10, 30)
    options = ModelOptions(shift_restriction=0.25, literal_shift_rule=literal)
    model = build_mip(instance, tsn, tcs, options=options)
    row = next(c for c in model.constraints if c.name == "shift_cap")
    assert row.sense == "<="
    assert row.rhs == rhs
    capped = {P_NAME.format(tc.id) for tc in tcs if tc.kind != uncapped}
    assert {model.variables[col] for _, col in row.terms} == capped


def test_literal_shift_rule_needs_a_restriction(sample_model):
    instance, tsn, tcs = sample_model
    with pytest.raises(CssndError, match="lambda"):
        build_mip(
            instance, tsn, tcs, options=ModelOptions(literal_shift_rule=True)
        )


def test_constraint_count_formulas(sample_model):
    instance, tsn, tcs = sample_model
    model = build_mip(instance, tsn, tcs)
    by_family = {}
    for row in model.constraints:
        family = row.name.split("_")[0]
        by_family[family] = by_family.get(family, 0) + 1
    from cssnd.analysis import beta_support

    assert by_family["transit"] == sum(
        7 - len(beta_support(tc, 7)) for tc in tcs
    )
    assert by_family["assign"] == 12 * 7
    assert by_family["balance"] == 12 * 35
    assert by_family["svc"] == 140
    assert by_family["cover"] == 10
    assert by_family["flow"] == 35 * 30
    assert by_family["cap"] == 140
    assert by_family["outsource"] == 140 * 30


def test_lp_export_is_deterministic_and_structured(sample_model, tmp_path):
    instance, tsn, tcs = sample_model
    model = build_mip(instance, tsn, tcs)
    text = lp_text(model, tmp_path / "a.lp")
    assert text == lp_text(model, tmp_path / "b.lp")
    assert text.startswith("Minimize\n obj:")
    assert "\nSubject To\n" in text
    assert "\nBinaries\n" in text
    assert text.endswith("End\n")


def test_lp_export_empty_model(tmp_path):
    text = lp_text(ModelIR(), tmp_path / "m.lp")
    assert text == "Minimize\n obj: 0\nSubject To\nEnd\n"


def test_lp_binary_section_lists_binaries(sample_model, tmp_path):
    instance, tsn, tcs = sample_model
    model = build_mip(instance, tsn, tcs)
    binary_block = lp_text(model, tmp_path / "m.lp").split("Binaries\n")[1]
    assert "d_v1" in binary_block
    assert " x_" not in binary_block


def test_mps_export_renames_with_sidecar(sample_model, tmp_path):
    instance, tsn, tcs = sample_model
    model = build_mip(instance, tsn, tcs)
    text, sidecar = mps_text(model, tmp_path / "a.mps")
    assert (text, sidecar) == mps_text(model, tmp_path / "b.mps")
    assert text.startswith("NAME")
    assert text.rstrip().endswith("ENDATA")
    assert len(sidecar) == len(model.variables) + len(model.constraints)
    assert all(len(short) <= 8 for short in sidecar)
    # every renamed row/column resolves back to a real name
    originals = set(sidecar.values())
    assert model.variables[0] in originals
    assert next(iter(model.constraints)).name in originals


def test_read_solution_parses_and_rejects():
    values = read_solution("# comment\nd_v1 1\nx_k1_a2 0.5\n\n")
    assert values == {"d_v1": 1.0, "x_k1_a2": 0.5}
    with pytest.raises(CssndError):
        read_solution("oops")
    with pytest.raises(CssndError):
        read_solution("name notanumber")
    for bad in ("nan", "NaN", "inf", "-inf", "Infinity"):
        with pytest.raises(CssndError, match="solution line 2: bad number"):
            read_solution(f"d_v1 1\nx_k1_a2 {bad}\n")


@pytest.mark.parametrize("second", ["d_v1 0", "d_v1 1", "  d_v1   1.0"])
def test_read_solution_rejects_a_name_given_twice(second):
    """A repeated name is an error, whatever its values: keeping one of
    them would check a schedule the file does not state."""
    text = f"d_v1 1\n# comment\nx_k1_a2 0.5\n\n{second}\n"
    with pytest.raises(CssndError, match=r"^solution line 5: d_v1 given twice$"):
        read_solution(text)


def test_all_zero_assignment_violates_cover(sample_model):
    instance, tsn, tcs = sample_model
    model = build_mip(instance, tsn, tcs)
    result = check_solution(instance, tsn, tcs, model, {})
    assert not result.feasible
    assert any(v.startswith("cover_") for v in result.violations)
    # names the model lacks, non-canonical spellings included, count as absent
    stray = {"d_v01": 1.0, "d_v99": 1.0, "p_k+1": 1.0, "x_k1": 1.0, "zz": 2.0}
    again = check_solution(instance, tsn, tcs, model, stray)
    assert (again.violations, again.objective) == (
        result.violations, result.objective
    )


def test_dmam_schedule_checks_out(sample_model):
    instance, tsn, tcs = sample_model
    model = build_mip(instance, tsn, tcs)
    solution, report = run_dmam(instance, "a")
    assignment = solution_to_assignment(solution)
    result = check_solution(instance, tsn, tcs, model, assignment)
    assert result.feasible, result.violations[:5]
    assert result.objective == pytest.approx(report["total_cost"], abs=1e-6)
    assert result.summary["owned_used"] == report["owned_used"]
    assert result.summary["on_time"] == report["on_time"]
    assert result.summary["outsourced"] == report["outsourced"]


def test_double_selection_is_feasible_but_flagged(sample_model):
    instance, tsn, tcs = sample_model
    model = build_mip(instance, tsn, tcs)
    solution, _ = run_dmam(instance, "r")
    assignment = solution_to_assignment(solution)
    # additionally deliver commodity 1 through its tardy variant, outsourced
    spare = next(
        p
        for p in solution.book.oc_paths(1)
        if p.mode == "outsourced" and p.kind == "tardy"
    )
    tc = solution.book.tc_of(spare)
    assignment[P_NAME.format(tc.id)] = 1.0
    arc_id = spare.arcs[0]
    assignment[S_NAME.format(tc.id, arc_id)] = 1.0
    assignment[X_NAME.format(tc.id, arc_id)] = tc.volume
    t = spare.arrival_period
    while t != tc.due_period:
        hold = tsn.holding_arc(tc.dest_physical, t)
        assignment[X_NAME.format(tc.id, hold.id)] = tc.volume
        t = t % 7 + 1
    result = check_solution(instance, tsn, tcs, model, assignment)
    assert result.feasible, result.violations[:5]
    assert result.summary["multi_selected"] == 1


def test_vi_rows_hold_for_dedicated_schedules():
    """Randomized feasible schedules (random variant and chain shape, one
    asset per delivery) must satisfy the profile inequalities whenever the
    base rows hold."""
    stream = Stream(4242, "vi-validity")
    checked = 0
    for trial in range(12):
        size = ("small", "medium")[trial % 2]
        k = (10, 20)[trial % 2]
        instance = generate_instance(size, k, seed=500 + trial)
        tsn = build_time_space_network(instance.physical, instance.period_count)
        tcs, _ = expand_commodities(instance)
        model = build_mip(
            instance, tsn, tcs,
            options=ModelOptions(add_vi_gamma=True, add_vi_phi=True),
        )
        from cssnd.dmam import (
            AssetCycle,
            PathBook,
            Solution,
            finalize_cycles,
            leg_view,
            resolve_capacity,
        )

        book = PathBook(instance, tsn)
        solution = Solution(instance=instance, tsn=tsn, book=book)
        for oc in instance.commodities:
            offered = [p for p in book.oc_paths(oc.id) if p.mode == "offered"]
            usable = [
                p
                for p in offered
                if p.arcs[p.lead_holds] not in solution.svc_registry
            ]
            path = usable[stream.randint(0, len(usable) - 1)]
            solution.selected[oc.id] = path
            solution.svc_registry[path.arcs[path.lead_holds]] = path.id
            solution.cycles.append(AssetCycle(legs=[leg_view(path)]))
        resolve_capacity(solution)
        finalize_cycles(solution)
        assignment = solution_to_assignment(solution)
        result = check_solution(instance, tsn, tcs, model, assignment)
        assert result.feasible, result.violations[:5]
        checked += 1
    assert checked == 12


def test_vi_phi_can_cut_heavily_merged_schedules():
    """Boundary of the profile bound: a feasible schedule that packs two
    deliveries per asset can drop below the closed-window profile.  The
    base rows must stay satisfied; only profile rows may trip."""
    instance = generate_instance("small", 10, seed=1000)
    tsn = build_time_space_network(instance.physical, instance.period_count)
    tcs, _ = expand_commodities(instance)
    model = build_mip(
        instance, tsn, tcs,
        options=ModelOptions(add_vi_gamma=True, add_vi_phi=True),
    )
    solution, _ = run_dmam(instance, "a")
    result = check_solution(
        instance, tsn, tcs, model, solution_to_assignment(solution)
    )
    base = [v for v in result.violations if not v.startswith("vi_")]
    profile = [v for v in result.violations if v.startswith("vi_")]
    assert base == []
    assert profile, "expected this seed to expose the profile boundary"


def vi_verdicts(instance, assignment, options):
    """Violations of `assignment` in the plain model and in the model with
    `options`' strengthening rows."""
    tsn = build_time_space_network(instance.physical, instance.period_count)
    tcs, _ = expand_commodities(instance)
    return [
        check_solution(instance, tsn, tcs, build_mip(instance, tsn, tcs, opts),
                       assignment).violations
        for opts in (ModelOptions(), options)
    ]


@pytest.mark.xfail(strict=True, reason="vi_gamma ignores outsourced deliveries "
                                        "(ROADMAP item 1)")
def test_vi_gamma_accepts_the_all_outsourced_schedule():
    instance = generate_instance("small", 10, seed=3)
    tsn = build_time_space_network(instance.physical, instance.period_count)
    book = PathBook(instance, tsn)
    solution = Solution(instance=instance, tsn=tsn, book=book, selected={
        oc.id: book.cheapest_outsourced(oc.id) for oc in instance.commodities
    })
    plain, with_vi = vi_verdicts(instance, solution_to_assignment(solution),
                                 ModelOptions(add_vi_gamma=True))
    assert plain == []
    assert with_vi == []      # today: ["vi_gamma: 0.0 < 1.0"]


@pytest.mark.xfail(strict=True, reason="vi_phi cuts off the sample optimum "
                                        "(ROADMAP item 1)")
def test_vi_phi_accepts_the_sample_optimum():
    optimum = Path(__file__).parent / "data" / "sample_optimum.sol"
    plain, with_vi = vi_verdicts(make_sample_instance(),
                                 read_solution(optimum.read_text()),
                                 ModelOptions(add_vi_phi=True))
    assert plain == []
    assert with_vi == []      # today: ["vi_phi_t1: 2.0 < 4.0", ...]


def test_in_transit_profile_is_tighter():
    instance = make_sample_instance()
    full = compute_requirements(instance)
    transit = compute_requirements(instance, in_transit=True)
    assert all(a <= b for a, b in zip(transit.phi, full.phi))
    assert transit.theta <= full.theta


def reference_mps(model: ModelIR) -> str:
    """Fixed-field MPS written one nonzero per line, straight from the IR's
    fields: an oracle for `export_mps` that shares none of its code."""
    lines = ["NAME          MODEL", "ROWS", " N  COST"]
    codes = {"<=": "L", ">=": "G", "=": "E"}
    rows = [f"R{r:07d}" for r in range(1, len(model.constraints) + 1)]
    for short, row in zip(rows, model.constraints):
        lines.append(f" {codes[row.sense]}  {short}")
    entries = {col: [] for col in range(model.column_count)}
    for coef, col in objective_of(model):
        entries[col].append(("COST    ", coef))
    for short, row in zip(rows, model.constraints):
        for coef, col in row.terms:
            entries[col].append((short, coef))
    lines.append("COLUMNS")
    marker, integer = 0, False
    for family in model.families:
        if family.size and (family.kind == "binary") != integer:
            integer = not integer
            marker += 1
            tag = "'INTORG'" if integer else "'INTEND'"
            lines.append(f"    MARKER{marker:02d}  'MARKER'                 {tag}")
        for col in range(family.base, family.base + family.size):
            for short, coef in entries[col]:
                lines.append(f"    C{col + 1:07d}  {short}  {coef:.9g}")
    if integer:
        lines.append(f"    MARKER{marker + 1:02d}  'MARKER'                 'INTEND'")
    lines.append("RHS")
    for short, row in zip(rows, model.constraints):
        if row.rhs != 0.0:
            lines.append(f"    RHS       {short}  {row.rhs:.9g}")
    lines.append("BOUNDS")
    for family in model.families:
        if family.kind == "binary":
            for col in range(family.base, family.base + family.size):
                lines.append(f" BV BND       C{col + 1:07d}")
    lines.append("ENDATA")
    return "\n".join(lines) + "\n"


def add_row(model: ModelIR, name, coefs, cols, sense, rhs) -> None:
    """A family of one row."""
    model.add_rows(name, sense, (), lambda at: (coefs, cols, rhs))


def edge_case_model() -> ModelIR:
    model = ModelIR()
    model.add_family("b{}", "binary", [1, 2, 3])            # columns 0-2
    model.add_family("x{}", "continuous", [1, 2, 3, 4])     # columns 3-6
    model.add_family("z{}", "binary", [7, 8])               # columns 7-8
    # column 4 is listed twice; column 2 appears nowhere, column 6 in no row
    model.objective_terms = lambda support: [
        (2.5, 0), (0.0, 3), (-1.25, 4), (3.0, 4), (1e-7, 6), (-0.0, 7)]
    add_row(model, "zeros", [0.0, -0.0, 0.0, 1.0], [0, 1, 3, 5], "<=", 1.5)
    add_row(model, "runs", [1.0, 1.0, -2.0, 1.0, 1.0, 1 / 3, 1 / 3],
            [3, 4, 0, 5, 1, 8, 7], ">=", -3.0)
    add_row(model, "empty", [], [], "=", 0.0)
    add_row(model, "tail", [-0.0, -0.0, 123456789.5], [8, 5, 4], "=", -0.0)
    return model


@pytest.mark.parametrize("coefs, cols, message", [
    ([1.0, 1.0], [0, 9], "row bad_r2 has 2 coefficients for columns [0, 9] of 9"),
    ([1.0], [-1], "row bad_r2 has 1 coefficients for columns [-1] of 9"),
    ([1.0], [0, 1], "row bad_r2 has 1 coefficients for columns [0, 1] of 9"),
], ids=["column-past-the-end", "negative-column", "length-mismatch"])
def test_a_bad_row_is_an_error_wherever_rows_are_read(tmp_path, coefs, cols,
                                                      message):
    """Keys 1 and 2 of family bad_r{}: the family makes a good row at
    position 0 and (coefs, cols) at position 1; every reader of rows
    raises."""
    model = edge_case_model()
    rows = [([2.0], [1], 0.0), (coefs, cols, 0.0)]
    model.add_rows("bad_r{}", "<=", ([1, 2],), lambda at: rows[at])
    readers = {
        "lp": lambda: export_lp(model, tmp_path / "m.lp"),
        "mps": lambda: export_mps(model, tmp_path / "m.mps"),
        "check": lambda: check_solution(None, None, [], model, {}),
        "constraints": lambda: list(model.constraints),
    }
    for name, read in readers.items():
        with pytest.raises(CssndError, match=re.escape(message)):
            read()
            pytest.fail(f"{name} read the bad row")


@pytest.mark.parametrize("reached", [[0, 3], [-1]],
                         ids=["past-the-end", "negative"])
def test_a_bad_touched_position_is_an_error(reached):
    """Family bad_r{} has 3 keys; the check replays the rows that the
    support's columns reach by its `reach`, which must lie within the
    family.  Column b1 is the first term of the rows at `reached`."""
    model = edge_case_model()
    model.add_rows("bad_r{}", "<=", ([1, 2, 3],), lambda at: ([1.0], [at], 0.0),
                   [(0, 1, lambda k: [(at, 1.0, 0) for at in reached])])
    with pytest.raises(CssndError, match=re.escape(
            "row family bad_r{} names position")):
        check_solution(None, None, [], model, {"b1": 1.0})


def test_a_family_with_a_duplicate_key_is_refused_when_it_is_made():
    """Row families too, though only column families look keys up."""
    model = ModelIR()
    with pytest.raises(CssndError, match=re.escape("duplicate key in family x{}_t{}")):
        model.add_family("x{}_t{}", "binary", [1, 2], [3, 4, 3])
    with pytest.raises(CssndError, match=re.escape("duplicate key in family r{}")):
        model.add_rows("r{}", "<=", [[7, 7]], make=lambda at: ((), (), 0.0))
    assert (model.families, model.row_families) == ([], [])


def test_a_name_goes_to_the_first_family_that_parses_it():
    """Column templates whose literal heads (the text before the first
    field) differ in width, are shared, or are empty: each name goes to the
    first family in family order whose template parses it, as if every
    family were tried in turn.  The objective prices column c at 2**c, so
    it reads which columns took a value."""
    model = ModelIR()
    for template, axes in [("{}_w", [[5]]), ("x{}", [[1, 2, 12]]),
                           ("x{}_t{}", [[1, 2], [3]]), ("xy{}", [[1]]),
                           ("a{}", [[12]]), ("a1{}", [[2]]),
                           ("b1{}", [[2]]), ("b{}", [[12]]),
                           (D_NAME, [[]]), (P_NAME, [[]]), (S_NAME, [[], []])]:
        model.add_family(template, "binary", *axes)
    model.objective_terms = lambda support: [
        (2.0 ** c, c) for c in range(model.column_count)]
    names = ["5_w", "x1", "x12", "x2_t3", "xy1", "a12", "a2", "b12", "x1_t4",
             "y1", "x", "", "a1"]

    def first_holder(name):
        return next((col for family in model.families
                     if (col := family.parse(name)) is not None), None)

    held = {name: first_holder(name) for name in names}
    assert held["a12"] == model.family("a{}").column(12)
    assert held["b12"] == model.family("b1{}").column(2)
    assert [name for name, col in held.items() if col is None] == [
        "a2", "x1_t4", "y1", "x", "", "a1"]
    instance = SimpleNamespace(owned_assets=0, leasable_assets=0)
    result = check_solution(instance, None, [], model, dict.fromkeys(names, 1.0))
    assert result.feasible
    assert result.objective == sum(2.0 ** col for col in held.values()
                                   if col is not None)


def test_a_model_reads_alike_twice(sample_model, tmp_path):
    """Rows are made afresh at every read: a family whose rows could be
    read only once would write an empty second text."""
    instance, tsn, tcs = sample_model
    model = build_mip(instance, tsn, tcs,
                      options=ModelOptions(strong_forcing=True))
    first, second = list(model.constraints), list(model.constraints)
    assert len(first) == len(model.constraints) > 0
    assert first == second
    assert lp_text(model, tmp_path / "a.lp") == lp_text(model, tmp_path / "b.lp")


@pytest.mark.parametrize("chunk_chars", [1 << 18, 1, 40])
def test_mps_writer_matches_a_per_nonzero_reference(
    tmp_path, monkeypatch, chunk_chars
):
    monkeypatch.setattr("cssnd.model.CHUNK_CHARS", chunk_chars)
    model = edge_case_model()
    expected = reference_mps(model)
    assert "C0000003" not in expected.split("RHS")[0].split("COLUMNS")[1]
    text, _ = mps_text(model, tmp_path / "m.mps")
    assert text == expected


LP_WIDTH = 240


def reference_lp(model: ModelIR) -> str:
    """CPLEX-dialect LP written straight from the objective terms and
    `model.constraints`: an oracle for `export_lp` that shares none of its
    code.

    A number is printed as an integer when it is integral and below 1e15 in
    magnitude, else with 12 significant digits.  A term is "+ c name", or
    "- c name" with c = -coef when coef < 0 (so -0.0 prints "+ 0"); the
    first term of a line drops its "+ ".  An objective without terms is
    "0", a row without terms "0 <first column>", and a row ends in
    "<sense> <rhs>".  Wrapping: the parts of a line follow its head (" obj:"
    or " <row name>:") one space apart; a part that would take the line past
    240 characters starts a new line, indented three spaces, unless the
    line so far is the bare head, so a line of exactly 240 characters stays
    whole and a part longer than 240 overruns on its own line.
    """
    names = model.variables

    def number(value: float) -> str:
        if float(value).is_integer() and abs(value) < 1e15:
            return str(int(value))
        return format(value, ".12g")

    def terms(pairs) -> list[str]:
        parts = [
            f"- {number(-coef)} {names[col]}" if coef < 0
            else f"+ {number(coef)} {names[col]}"
            for coef, col in pairs
        ]
        if parts and parts[0].startswith("+ "):
            parts[0] = parts[0][2:]
        return parts

    def wrapped(head: str, parts: list[str]) -> list[str]:
        lines = [head]
        for part in parts:
            if lines[-1] != head and len(lines[-1]) + 1 + len(part) > LP_WIDTH:
                lines.append("   " + part)
            else:
                lines[-1] += " " + part
        return lines

    lines = ["Minimize", *wrapped(" obj:", terms(objective_of(model)) or ["0"]),
             "Subject To"]
    for row in model.constraints:
        parts = terms(row.terms) or [f"0 {names[0]}"]
        lines += wrapped(f" {row.name}:", [*parts, f"{row.sense} {number(row.rhs)}"])
    binaries = [
        name for family in model.families if family.kind == "binary"
        for name in itertools.islice(names, family.base, family.base + family.size)
    ]
    if binaries:
        lines.append("Binaries")
        lines += [" " + " ".join(binaries[i : i + 8])
                  for i in range(0, len(binaries), 8)]
    lines.append("End")
    return "\n".join(lines) + "\n"


def lp_width_model(objective: bool) -> ModelIR:
    """`edge_case_model` plus rows at the wrap width: `fits` is exactly 240
    characters, `over` wraps after its terms fill exactly 240, and `long`
    has one term longer than 240.  Without `objective` the objective has no
    terms."""
    model = edge_case_model()
    model.add_family("w{}" + "w" * 217, "continuous", [1])      # column 9
    model.add_family("v{}" + "v" * 222, "continuous", [1])      # column 10
    model.add_family("y{}" + "y" * 250, "binary", [1])          # column 11
    add_row(model, "fits", [1.0, 1.0], [9, 1], "<=", 1.0)
    add_row(model, "over", [1.0, 1.0], [10, 1], "<=", 10.0)
    add_row(model, "long", [-2.0], [11], ">=", 0.5)
    if not objective:
        model.objective_terms = lambda support: []
    return model


@pytest.mark.parametrize("objective", [True, False],
                         ids=["edge-cases", "empty-objective"])
@pytest.mark.parametrize("chunk_chars", [1 << 18, 1, 40])
def test_lp_writer_matches_a_reference(tmp_path, monkeypatch, chunk_chars,
                                       objective):
    monkeypatch.setattr("cssnd.model.CHUNK_CHARS", chunk_chars)
    model = lp_width_model(objective)
    expected = reference_lp(model)
    lines = expected.splitlines()
    fits = next(line for line in lines if line.startswith(" fits:"))
    over = lines.index(next(line for line in lines if line.startswith(" over:")))
    long = lines.index(next(line for line in lines if line.startswith(" long:")))
    assert len(fits) == len(lines[over]) == LP_WIDTH
    assert lines[over + 1] == "   <= 10"
    assert len(lines[long]) > LP_WIDTH and lines[long + 1] == "   >= 0.5"
    assert (lines[1] == " obj: 0") is not objective
    assert lp_text(model, tmp_path / "m.lp") == expected


def test_mps_sidecar_escapes_names_as_json_does(tmp_path):
    model = ModelIR()
    model.add_family('q"{}\\é', "binary", [1, 2])
    model.add_family("x{}", "continuous", [3])
    add_row(model, 'r"\\ö', [1.0, 2.0], [0, 2], "<=", 1.0)
    mps_text(model, tmp_path / "m.mps")
    expected = {"C0000001": 'q"1\\é', "C0000002": 'q"2\\é',
                "C0000003": "x3", "R0000001": 'r"\\ö'}
    assert (tmp_path / "m.mps.names.json").read_text() == (
        json.dumps(expected, indent=2, sort_keys=True) + "\n"
    )


@pytest.mark.parametrize("batch", [1, 2, 3])
def test_mps_sidecar_is_the_same_in_any_batch_size(
    sample_model, tmp_path, monkeypatch, batch
):
    model = build_mip(*sample_model)
    mps_text(model, tmp_path / "a.mps")
    monkeypatch.setattr("cssnd.model.SIDECAR_BATCH", batch)
    mps_text(model, tmp_path / "b.mps")
    assert (tmp_path / "a.mps.names.json").read_bytes() == (
        tmp_path / "b.mps.names.json").read_bytes()


def test_strong_rows_use_each_variant_strength(tmp_path, capsys):
    """Half the commodities at volume 0.5: every strong row's y terms carry
    -min(volume, capacity) of its own variant, and the heuristic's schedule
    satisfies the strong model as well as the plain one."""
    sample = make_sample_instance()
    instance = dataclasses.replace(sample, commodities=tuple(
        dataclasses.replace(oc, volume=0.5 if oc.id % 2 else 1.0)
        for oc in sample.commodities
    ))
    tsn = build_time_space_network(instance.physical, instance.period_count)
    tcs, _ = expand_commodities(instance)
    model = build_mip(instance, tsn, tcs,
                      options=ModelOptions(strong_forcing=True))
    volume = {tc.id: tc.volume for tc in tcs}
    capacity = {arc.id: arc.capacity for arc in tsn.service_arcs}
    y = model.family("y_v{}_a{}")
    strengths = set()
    strong = [row for row in model.constraints if row.name.startswith("strong_")]
    assert len(strong) == len(tcs) * len(tsn.service_arcs)
    for row in strong:
        tc_id, arc_id = map(int, re.fullmatch(r"strong_k(\d+)_a(\d+)",
                                              row.name).groups())
        y_terms = [c for c, col in row.terms
                   if y.base <= col < y.base + y.size]
        strength = min(volume[tc_id], capacity[arc_id])
        assert y_terms and y_terms == [-strength] * len(y_terms)
        strengths.add(strength)
    assert strengths == {0.5, 1.0}

    inst, sol = tmp_path / "i.json", tmp_path / "i.sol"
    save_instance(instance, inst)
    assert main(["solve", "--in", str(inst), "--sol", str(sol)]) == 0
    total = json.loads(capsys.readouterr().out)["total_cost"]
    assert main(["check", "--in", str(inst), "--sol", str(sol)]) == 0
    assert json.loads(capsys.readouterr().out)["feasible"] is True
    result = check_solution(instance, tsn, tcs, model,
                            read_solution(sol.read_text()))
    assert result.feasible, result.violations[:5]
    assert result.objective == pytest.approx(total, abs=1e-6)


def reference_check(model: ModelIR, assignment: dict[str, float]):
    """(violations, objective) of `assignment`, every row summed term by
    term over `model.constraints`, zeros included: an oracle for
    `check_solution` that shares none of its code."""
    column = {name: col for col, name in enumerate(model.variables)}
    kind = [family.kind for family in model.families for _ in range(family.size)]
    values = [0.0] * model.column_count
    named = {}
    for name, x in assignment.items():
        if name in column:
            values[column[name]] = x
            named[column[name]] = name
    violations = []
    for col in sorted(named):
        x = values[col]
        if kind[col] == "binary" and min(abs(x), abs(x - 1.0)) > 1e-6:
            violations.append(f"{named[col]}: {x} is not binary")
        elif kind[col] != "binary" and x < -1e-6:
            violations.append(f"{named[col]}: {x} below zero")
    for row in model.constraints:
        lhs = 0.0
        for coef, col in row.terms:
            lhs += coef * values[col]
        if row.sense == "<=" and lhs > row.rhs + 1e-6:
            violations.append(f"{row.name}: {lhs} > {row.rhs}")
        elif row.sense == ">=" and lhs < row.rhs - 1e-6:
            violations.append(f"{row.name}: {lhs} < {row.rhs}")
        elif row.sense == "=" and abs(lhs - row.rhs) > 1e-6:
            violations.append(f"{row.name}: {lhs} != {row.rhs}")
    objective = 0.0
    for coef, col in objective_of(model):
        objective += coef * values[col]
    return violations, objective


# Values with no exact binary form: a row's sum of them depends on the order
# of its terms, so the checker must add them in term order, as the
# reference does.  Every value of a committed `.sol` is dyadic.
NOT_DYADIC = (0.1, 0.7, 1 / 3)

REFERENCE_MODELS = {
    "sample.plain": (make_sample_instance, ModelOptions()),
    "sample.strong": (make_sample_instance, ModelOptions(strong_forcing=True)),
    "sample.vi": (make_sample_instance, ModelOptions(
        add_vi_gamma=True, add_vi_phi=True, near_opt=23, shift_restriction=0.25,
    )),
    "small10.s7": (lambda: generate_instance("small", 10, seed=7), ModelOptions()),
}


@pytest.mark.parametrize("name", REFERENCE_MODELS)
def test_checker_matches_a_term_by_term_reference(name):
    """Seeded random assignments, dense and sparse, with some names absent
    and some values not dyadic: the same violations in the same order, the
    same verdict and the same objective, float repr included."""
    make, options = REFERENCE_MODELS[name]
    instance = make()
    tsn = build_time_space_network(instance.physical, instance.period_count)
    tcs, _ = expand_commodities(instance)
    model = build_mip(instance, tsn, tcs, options=options)
    rng = random.Random(f"reference-check/{name}")
    for density in (1.0, 0.05):
        assignment = {
            column: rng.choice((0.0, 1.0, 0.5, -2.0, 3.25, *NOT_DYADIC))
            for column in model.variables
            if rng.random() < 0.8 * density
        }
        violations, objective = reference_check(model, assignment)
        result = check_solution(instance, tsn, tcs, model, assignment)
        assert result.violations == violations
        assert result.feasible == (not violations)
        assert repr(result.objective) == repr(objective)


SKIP_INSTANCES = {
    "sample": make_sample_instance,
    "small10.s7": lambda: generate_instance("small", 10, seed=7),
}
SKIP_OPTIONS = {
    "plain": ModelOptions(),
    "strong": ModelOptions(strong_forcing=True),
    "vi": ModelOptions(add_vi_gamma=True, add_vi_phi=True),
    "near21": ModelOptions(near_opt=21),
    "near22": ModelOptions(near_opt=22),
    "near23": ModelOptions(near_opt=23),
    "shift": ModelOptions(shift_restriction=0.25),
    "shift.literal": ModelOptions(shift_restriction=0.25, literal_shift_rule=True),
}


@pytest.mark.parametrize("options_name", SKIP_OPTIONS)
@pytest.mark.parametrize("instance_name", SKIP_INSTANCES)
def test_a_support_read_leaves_out_only_rows_it_cannot_break(instance_name,
                                                              options_name):
    """Against the full read, `_reached` gives, for every row family with a
    `reach`, the rows in position order, each with the full read's terms of
    support columns as (term, coef, col) in term order, and of the rhs that
    the family states; it leaves out only rows with no support column
    whose zero activity meets their sense (`<=` with rhs >= 0, `=` with rhs
    0, `>=` with rhs <= 0), and with every column it leaves out only empty
    rows.  The objective keeps, in term order, every term of a support
    column.  Supports: none, the heuristic schedule's, a seeded random
    sparse one, every column."""
    instance = SKIP_INSTANCES[instance_name]()
    tsn = build_time_space_network(instance.physical, instance.period_count)
    tcs, _ = expand_commodities(instance)
    model = build_mip(instance, tsn, tcs, options=SKIP_OPTIONS[options_name])
    full: dict[int, list] = {}
    for family, _, coefs, cols, rhs in _rows(model):
        full.setdefault(id(family), []).append((coefs, cols, rhs))
    terms = objective_of(model)
    column = {name: col for col, name in enumerate(model.variables)}
    schedule = solution_to_assignment(run_dmam(instance, "a")[0])
    rng = random.Random(f"support-read/{instance_name}/{options_name}")
    supports = {
        "empty": [],
        "schedule": sorted(column[name] for name, x in schedule.items() if x),
        "sparse": [c for c in range(model.column_count) if rng.random() < 0.02],
        "all": list(range(model.column_count)),
    }
    for name, support in supports.items():
        held = set(support)
        for family in model.row_families:
            if family.reach is None:
                continue
            rows = full[id(family)]
            reached = _reached(family, support)
            kept = [at for at, _ in reached]
            assert kept == sorted(set(kept)), (name, family.template)
            for at, entries in reached:
                coefs, cols, rhs = rows[at]
                assert entries == [(term, coef, col) for term, (coef, col)
                                   in enumerate(zip(coefs, cols)) if col in held]
                assert rhs == family.rhs, (name, family.template, at)
            for at in sorted(set(range(len(rows))) - set(kept)):
                coefs, cols, rhs = rows[at]
                assert held.isdisjoint(cols), (name, family.template, at)
                assert {"<=": rhs >= 0, "=": rhs == 0, ">=": rhs <= 0}[family.kind]
                if name == "all":
                    assert not cols, (family.template, at)
        priced = list(model.objective_terms(support))
        assert priced == [term for term in terms if term[1] in held], name


REACH_INSTANCES = {
    "sample": make_sample_instance,
    "small10.s1": lambda: generate_instance("small", 10, seed=1),
}


@pytest.mark.parametrize("strong", [False, True], ids=["plain", "strong"])
@pytest.mark.parametrize("instance_name", REACH_INSTANCES)
def test_reach_is_make_transposed(instance_name, strong):
    """For every row family with a `reach`, against the transpose of its
    `make`: the entries state the same (row position, column, coefficient,
    term index) quadruples, each once, and every row's rhs is the family's
    `rhs`."""
    instance = REACH_INSTANCES[instance_name]()
    tsn = build_time_space_network(instance.physical, instance.period_count)
    tcs, _ = expand_commodities(instance)
    model = build_mip(instance, tsn, tcs,
                      options=ModelOptions(strong_forcing=strong))
    families = [family for family in model.row_families if family.reach]
    # transit, one per variant; assign, balance, svc_once, flow, cap,
    # outsource; strong, when asked for, states its rows only
    assert len(families) == len(tcs) + 6
    strong_rows = [family for family in model.row_families
                   if family.template == "strong_k{}_a{}"]
    assert len(strong_rows) == strong
    assert all(family.reach is None for family in strong_rows)
    for family in families:
        made = []
        for at in range(family.size):
            coefs, cols, rhs = family.make(at)
            assert rhs == family.rhs, (family.template, at)
            made += [(at, col, coef, term)
                     for term, (coef, col) in enumerate(zip(coefs, cols))]
        stated = [(at, col, coef, term) for lo, hi, rows in family.reach
                  for col in range(lo, hi) for at, coef, term in rows(col - lo)]
        assert sorted(stated) == sorted(made), family.template


SPAN_NETWORKS = {
    "sample": make_sample_instance,
    "small10.s1": lambda: generate_instance("small", 10, seed=1),
    "large42.s1": lambda: generate_instance("large", 42, seed=1),
    "very_large90.s42": lambda: generate_instance("very_large", 90, seed=42),
}


@pytest.mark.parametrize("network", SPAN_NETWORKS)
def test_spans_table_is_arc_spans_both_ways(network):
    """For the asset arcs and the outsourced arcs: `_spanning`'s period t - 1
    lists the positions of the arcs that `Arc.spans` puts under way in t,
    in arc order, and each arc's flat (t - 1, 1.0, term) entries are that
    relation transposed, each once, term the arc's index in the period's
    list.  Past the worked sample, whose arcs each last one period, arcs
    whose span wraps past |T| are among them."""
    instance = SPAN_NETWORKS[network]()
    tsn = build_time_space_network(instance.physical, instance.period_count)
    periods = instance.period_count
    for arcs in (tsn.holding_arcs + tsn.service_arcs, tsn.outsourced_arcs):
        on, by_arc = _spanning(arcs, periods)
        assert on == [[i for i, a in enumerate(arcs) if a.spans(t, periods)]
                      for t in range(1, periods + 1)]
        transposed = [[] for _ in arcs]
        for r, held in enumerate(on):
            for term, i in enumerate(held):
                transposed[i].append((r, 1.0, term))
        assert len(by_arc) == len(arcs)
        for i, flat in enumerate(by_arc):
            assert len(flat) % 3 == 0, i
            stated = list(zip(flat[0::3], flat[1::3], flat[2::3]))
            assert sorted(stated) == transposed[i], i
        wrapped = [a for a in arcs if a.depart + a.duration - 1 > periods]
        assert bool(wrapped) == (network != "sample")


END_NETWORKS = {
    "sample": make_sample_instance,
    "small10.s1": lambda: generate_instance("small", 10, seed=1),
    "large42.s1": lambda: generate_instance("large", 42, seed=1),
    "xlarge90.s5": lambda: generate_instance("very_large", 90, seed=5),
}


@pytest.mark.parametrize("network", END_NETWORKS)
def test_arc_end_positions_are_ts_node_less_one(network, monkeypatch):
    """`build_mip` hands `_incidence` each arc's tail and head position,
    `ts_node(...) - 1` of its (from, depart) and (to, arrive): the asset
    arcs' for the balance rows, then every arc's for the flow rows."""
    instance = END_NETWORKS[network]()
    tsn = build_time_space_network(instance.physical, instance.period_count)
    tcs, _ = expand_commodities(instance)
    seen = []

    def spy(tails, heads, n_nodes):
        seen.append((tails, heads))
        return _incidence(tails, heads, n_nodes)

    monkeypatch.setattr("cssnd.model._incidence", spy)
    build_mip(instance, tsn, tcs)
    periods = instance.period_count
    tails = [ts_node(a.phys_from, a.depart, periods) - 1 for a in tsn.arcs]
    heads = [ts_node(a.phys_to, a.arrive, periods) - 1 for a in tsn.arcs]
    n_asset = len(tsn.holding_arcs) + len(tsn.service_arcs)
    assert seen == [(tails[:n_asset], heads[:n_asset]), (tails, heads)]


@pytest.fixture(scope="module")
def schedules(tmp_path_factory):
    """Small k=10 seeds 1 and 7: instance, network, TCs, model, the model's
    fields as the reference reads them, and the lines of the `.sol` that
    `cssnd solve` writes."""
    made = {}
    for seed in (1, 7):
        inst = tmp_path_factory.mktemp("sol") / "i.json"
        sol = inst.with_suffix(".sol")
        assert main(["gen", "--size", "small", "--k", "10", "--seed", str(seed),
                     "--out", str(inst)]) == 0
        assert main(["solve", "--in", str(inst), "--sol", str(sol)]) == 0
        instance = generate_instance("small", 10, seed=seed)
        tsn = build_time_space_network(instance.physical, instance.period_count)
        tcs, _ = expand_commodities(instance)
        model = build_mip(instance, tsn, tcs)
        # the reference reads these fields only; made once, not per example
        terms = objective_of(model)
        frozen = SimpleNamespace(
            variables=model.variables, families=model.families,
            column_count=model.column_count,
            constraints=list(model.constraints),
            objective_terms=lambda support, terms=terms: terms)
        made[seed] = (instance, tsn, tcs, model, frozen,
                      sol.read_text().splitlines())
    return made


MUTATIONS = st.one_of(
    st.tuples(st.just("drop"), st.integers(0, 10**6)),
    st.tuples(st.just("set"), st.integers(0, 10**6),
              st.sampled_from([0.0, 0.5, 2.0, -1.0, *NOT_DYADIC])),
    st.tuples(st.just("add"), st.integers(0, 10**6),
              st.sampled_from([1.0, 0.5, 2.0, -1.0, *NOT_DYADIC])),
)


@settings(max_examples=100, derandomize=True, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(seed=st.sampled_from([1, 7]), mutation=MUTATIONS)
def test_checker_matches_the_reference_on_mutated_schedules(schedules, seed,
                                                             mutation):
    """The heuristic's `.sol` with one line dropped, one value set to
    0/0.5/2/-1 or a value that is not dyadic, or one stray name of the
    model added at a nonzero value:
    the support-read check gives the reference's violations, in order, its
    verdict and its objective repr."""
    instance, tsn, tcs, model, frozen, lines = schedules[seed]
    lines = list(lines)
    kind, pick, *value = mutation
    if kind == "add":
        given_names = {line.split()[0] for line in lines}
        stray = [name for name in model.variables if name not in given_names]
        lines.append(f"{stray[pick % len(stray)]} {value[0]!r}")
    elif kind == "drop":
        del lines[pick % len(lines)]
    else:
        name = lines[pick % len(lines)].split()[0]
        lines[pick % len(lines)] = f"{name} {value[0]!r}"
    assignment = read_solution("\n".join(lines) + "\n")
    violations, objective = reference_check(frozen, assignment)
    result = check_solution(instance, tsn, tcs, model, assignment)
    assert result.violations == violations
    assert result.feasible == (not violations)
    assert repr(result.objective) == repr(objective)
    # each count is the family read off the name, its integers as {}
    assert result.violations_by_family == dict(sorted(Counter(
        re.sub(r"\d+", "{}", v.split(":")[0]) for v in violations
    ).items()))


def test_plain_model_of_the_large_golden_instance_holds_under_20_mib():
    """Memory held after `build_mip` on large k=30 seed 13, by tracemalloc:
    38.4 MiB with a tuple per term, 14.3 MiB with rows in flat arrays, about
    7 MiB with no rows stored.  The strong-forcing rows, 0.69M nonzeros
    more, must then cost no memory either: 26.9 MiB when they were stored."""
    instance = generate_instance("large", 30, seed=13)
    tsn = build_time_space_network(instance.physical, instance.period_count)
    tcs, _ = expand_commodities(instance)
    held = {}
    for strong in (False, True):
        options = ModelOptions(strong_forcing=strong)
        tracemalloc.start()
        try:
            model = build_mip(instance, tsn, tcs, options=options)
            held[strong], _ = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        rows = count_schema(instance, tsn, tcs, options)["rows"]
        assert len(model.constraints) == rows
        del model
    assert held[False] < 20 * 2**20, f"{held[False] / 2**20:.1f} MiB"
    assert held[True] < held[False] + 2**20, (
        f"{held[True] / 2**20:.1f} MiB strong, {held[False] / 2**20:.1f} plain")
