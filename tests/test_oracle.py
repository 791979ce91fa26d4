"""Exact-solver oracle on the exported MPS bytes.

The heuristic's schedule, mapped through the names sidecar onto the MPS
columns, must satisfy every MPS row and cost what `check` says; the LP
relaxation that HiGHS solves from the same bytes must bound it from below.
A corpus of exact optima, each solved once by HiGHS (`tests/make_optima.py`
made those of the generated instances), is committed under `data/`: `check`
must accept each at the objective HiGHS reported, both the plain and the
strong-forcing model must hold it, no heuristic schedule may cost less, and
the LP relaxation must not exceed it.
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from cssnd.cli import main
from cssnd.core import build_time_space_network, expand_commodities
from cssnd.dmam import run_dmam
from cssnd.instgen import generate_instance
from cssnd.io import save_instance
from cssnd.model import ModelOptions, build_mip, check_solution, read_solution
from tests.conftest import make_sample_instance
from tests.oracle import read_mps

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
    np = pytest.importorskip("numpy")
    optimize = pytest.importorskip("scipy.optimize")
    sparse = pytest.importorskip("scipy.sparse")
    r, c, v = zip(*mps.entries)
    matrix = sparse.csr_array((v, (r, c)), shape=(len(mps.rows), len(mps.columns)))
    lower, upper = mps.row_bounds()
    result = optimize.milp(
        np.array(mps.cost),
        constraints=optimize.LinearConstraint(matrix, lower, upper),
        bounds=optimize.Bounds(0.0, np.array(mps.upper)),
    )
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
