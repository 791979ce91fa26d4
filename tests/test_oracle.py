"""Exact-solver oracle on the exported MPS bytes.

The heuristic's schedule, mapped through the names sidecar onto the MPS
columns, must satisfy every MPS row and cost what `check` says; the LP
relaxation that HiGHS solves from the same bytes must bound it from below.
A corpus of exact optima, each solved once by HiGHS (`tests/make_optima.py`
made those of the generated instances), is committed under `data/`: `check`
must accept each at the objective HiGHS reported, both the plain and the
strong-forcing model must hold it, no heuristic schedule may cost less, and
the LP relaxation must not exceed it.  Instances drawn small enough for
HiGHS to close in a fraction of a second must pass the same four checks.
"""

from __future__ import annotations

import dataclasses
import itertools
import json
import tempfile
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from cssnd.cli import main
from cssnd.core import (
    PRICE_RULES,
    CostParams,
    Instance,
    OriginalCommodity,
    PhysicalNetwork,
    build_time_space_network,
    expand_commodities,
    wrap_period,
)
from cssnd.dmam import run_dmam
from cssnd.instgen import generate_instance
from cssnd.io import save_instance
from cssnd.model import ModelOptions, build_mip, check_solution, read_solution
from tests.conftest import make_sample_instance, routing_rows
from tests.oracle import read_mps, solve_mps

TOLERANCE = 1e-6
DATA = Path(__file__).parent / "data"
SAMPLE_OPTIMUM = DATA / "sample_optimum.sol"
HIGHS_SAMPLE_OPTIMUM = 61.078948187     # HiGHS's objective for that schedule


def exported(tmp_path, capsys, instance):
    """Solve, check and export `instance`; return the heuristic total, the
    checked objective, the parsed MPS, the sidecar and the schedule."""
    inst, sol, mps = (tmp_path / name for name in ("i.json", "i.sol", "m.mps"))
    save_instance(instance, inst)
    assert main(["solve", "--in", str(inst), "--sol", str(sol)]) == 0
    total = json.loads(capsys.readouterr().out)["total_cost"]
    assert main(["check", "--in", str(inst), "--sol", str(sol)]) == 0
    objective = json.loads(capsys.readouterr().out)["objective"]
    assert main(["export", "--in", str(inst), "--format", "mps",
                 "--out", str(mps)]) == 0
    sidecar = json.loads((tmp_path / "m.mps.names.json").read_text())
    schedule = dict(line.split() for line in sol.read_text().splitlines())
    return total, objective, read_mps(mps.read_text()), sidecar, schedule


INSTANCES = {
    "sample": make_sample_instance,
    "small10.s1": lambda: generate_instance("small", 10, seed=1),
    "small10.s7": lambda: generate_instance("small", 10, seed=7),
}


@pytest.mark.parametrize("name", INSTANCES)
def test_schedule_satisfies_the_mps_rows(tmp_path, capsys, name):
    total, objective, mps, sidecar, schedule = exported(
        tmp_path, capsys, INSTANCES[name]()
    )
    assert set(sidecar) == set(mps.rows) | set(mps.columns)
    assert mps.integer == [not sidecar[c].startswith("x_") for c in mps.columns]
    column = {sidecar[short]: c for c, short in enumerate(mps.columns)}
    x = [0.0] * len(mps.columns)
    for model_name, value in schedule.items():
        x[column[model_name]] = float(value)
    lower, upper = mps.row_bounds()
    broken = [
        (sidecar[row], lhs)
        for row, lhs, lo, hi in zip(mps.rows, mps.activity(x), lower, upper)
        if not lo - TOLERANCE <= lhs <= hi + TOLERANCE
    ]
    assert broken == []
    cost = sum(c * v for c, v in zip(mps.cost, x))
    assert cost == pytest.approx(objective, abs=TOLERANCE)
    assert objective == pytest.approx(total, abs=TOLERANCE)


def lp_bound(mps) -> float:
    """The optimum of the MPS model's LP relaxation, by HiGHS."""
    pytest.importorskip("scipy")
    result = solve_mps(mps, relax=True)
    assert result.status == 0, result.message
    return result.fun


@pytest.mark.parametrize("name", ["sample", "small10.s7"])
def test_lp_relaxation_bounds_the_heuristic(tmp_path, capsys, name):
    pytest.importorskip("scipy")
    total, _, mps, _, _ = exported(tmp_path, capsys, INSTANCES[name]())
    assert lp_bound(mps) <= total + TOLERANCE


def test_check_accepts_the_sample_optimum(tmp_path, capsys):
    inst = tmp_path / "i.json"
    save_instance(make_sample_instance(), inst)
    assert main(["check", "--in", str(inst), "--sol", str(SAMPLE_OPTIMUM)]) == 0
    verdict = json.loads(capsys.readouterr().out)
    assert verdict["feasible"] is True
    assert verdict["objective"] == pytest.approx(HIGHS_SAMPLE_OPTIMUM,
                                                 abs=TOLERANCE)
    assert verdict["summary"]["owned_used"] + verdict["summary"]["leased"] == 2


# instance -> (its optimum of the plain model, HiGHS's objective for it)
OPTIMA = {
    "sample": (SAMPLE_OPTIMUM, HIGHS_SAMPLE_OPTIMUM),
    "small10.s1": (DATA / "small10_s1_optimum.sol", 83.752339797),
    "small10.s7": (DATA / "small10_s7_optimum.sol", 108.26813769),
}


@pytest.mark.parametrize("name", OPTIMA)
def test_check_accepts_each_optimum_at_its_objective(tmp_path, capsys, name):
    inst = tmp_path / "i.json"
    save_instance(INSTANCES[name](), inst)
    sol, objective = OPTIMA[name]
    assert main(["check", "--in", str(inst), "--sol", str(sol)]) == 0
    verdict = json.loads(capsys.readouterr().out)
    assert verdict["feasible"] is True
    assert verdict["objective"] == pytest.approx(objective, abs=TOLERANCE)


@pytest.mark.parametrize("options", [ModelOptions(),
                                     ModelOptions(strong_forcing=True)],
                         ids=["plain", "strong"])
@pytest.mark.parametrize("name", OPTIMA)
def test_every_valid_model_holds_each_optimum(name, options):
    """The plain rows and the strong forcing rows are valid: they hold every
    optimum, which prices alike under both."""
    instance = INSTANCES[name]()
    tsn = build_time_space_network(instance.physical, instance.period_count)
    tcs, _ = expand_commodities(instance)
    sol, objective = OPTIMA[name]
    result = check_solution(instance, tsn, tcs, build_mip(instance, tsn, tcs, options),
                            read_solution(sol.read_text()))
    assert result.violations == []
    assert result.objective == pytest.approx(objective, abs=TOLERANCE)


@pytest.mark.parametrize("config", ["r", "c", "a"])
@pytest.mark.parametrize("name", OPTIMA)
def test_no_heuristic_schedule_beats_an_optimum(name, config):
    solution, _ = run_dmam(INSTANCES[name](), config)
    assert solution.total_cost() >= OPTIMA[name][1] - TOLERANCE


@pytest.mark.parametrize("name", OPTIMA)
def test_lp_relaxation_bounds_each_optimum(tmp_path, name):
    pytest.importorskip("scipy")
    inst, mps = tmp_path / "i.json", tmp_path / "m.mps"
    save_instance(INSTANCES[name](), inst)
    assert main(["export", "--in", str(inst), "--format", "mps",
                 "--out", str(mps)]) == 0
    assert lp_bound(read_mps(mps.read_text())) <= OPTIMA[name][1] + TOLERANCE


@st.composite
def tiny_instances(draw) -> Instance:
    """2-3 terminals, 4-5 periods, 2-5 commodities of volume 0.5 or 1.0,
    1-2 owned and 0-2 leasable assets, priced by a routing seed or by a
    full routing table.  Distances lie within the return-trip bound, and
    their shortest-path closure, which lowers no entry below 1, meets the
    triangle inequality."""
    n = draw(st.integers(2, 3))
    periods = draw(st.integers(4, 5))
    d = [[0 if i == j else draw(st.integers(1, periods // 2)) for j in range(n)]
         for i in range(n)]
    for k, i, j in itertools.product(range(n), repeat=3):
        d[i][j] = min(d[i][j], d[i][k] + d[k][j])
    commodities = []
    for oc_id in range(1, draw(st.integers(2, 5)) + 1):
        origin, dest = draw(st.permutations(range(1, n + 1)))[:2]
        release = draw(st.integers(1, periods))
        span = draw(st.integers(d[origin - 1][dest - 1], periods - 1))
        commodities.append(OriginalCommodity(
            oc_id, origin, dest, release, wrap_period(release + span, periods),
            draw(st.sampled_from([0.5, 1.0])),
        ))
    instance = Instance(
        physical=PhysicalNetwork(n, tuple(map(tuple, d))),
        period_count=periods,
        commodities=tuple(commodities),
        owned_assets=draw(st.integers(1, 2)),
        leasable_assets=draw(st.integers(0, 2)),
        costs=CostParams(routing_seed=draw(st.integers(0, 2**32 - 1))),
    )
    if draw(st.booleans()):
        # every (TC, arc) price the model reads, drawn in the ranges the
        # routing seed draws from
        rnd = draw(st.randoms(use_true_random=False))
        table = {}
        for kind, i, j, depart, tc_id, _ in routing_rows(instance):
            _, low, width = PRICE_RULES[kind]
            table[kind, i, j, depart, tc_id] = round(low + width * rnd.random(), 3)
        instance = dataclasses.replace(
            instance, costs=CostParams(routing_table=table)
        )
    instance.validate()
    return instance


@settings(max_examples=25, derandomize=True, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(instance=tiny_instances())
def test_every_tiny_instance_agrees_with_its_highs_optimum(instance):
    """HiGHS solves each drawn instance's exported MPS to optimality.  `check`
    accepts that optimum at its objective, the strong-forcing model holds it
    too, no DMaM config costs less, and the LP relaxation bounds it."""
    pytest.importorskip("scipy")
    with tempfile.TemporaryDirectory() as tmp:
        inst, mps_path = Path(tmp, "i.json"), Path(tmp, "m.mps")
        save_instance(instance, inst)
        assert main(["export", "--in", str(inst), "--format", "mps",
                     "--out", str(mps_path)]) == 0
        mps = read_mps(mps_path.read_text())
        sidecar = json.loads(Path(f"{mps_path}.names.json").read_text())
    result = solve_mps(mps)
    assert result.status == 0, result.message
    optimum = result.fun
    assignment = {
        sidecar[short]: round(x) if abs(x - round(x)) <= 1e-9 else x
        for short, x in zip(mps.columns, result.x) if abs(x) > 1e-9
    }
    tsn = build_time_space_network(instance.physical, instance.period_count)
    tcs, _ = expand_commodities(instance)
    for options in (ModelOptions(), ModelOptions(strong_forcing=True)):
        verdict = check_solution(instance, tsn, tcs,
                                 build_mip(instance, tsn, tcs, options), assignment)
        assert verdict.violations == []
        assert verdict.objective == pytest.approx(optimum, abs=TOLERANCE)
    for config in "rca":
        solution, _ = run_dmam(instance, config)
        assert solution.total_cost() >= optimum - TOLERANCE
    assert lp_bound(mps) <= optimum + TOLERANCE
