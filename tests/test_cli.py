"""End-to-end command behavior, exit codes, and output determinism."""

from __future__ import annotations

import dataclasses
import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import cssnd
from cssnd.cli import _schedule_text, main
from cssnd.core import Instance, build_time_space_network
from cssnd.dmam import PathBook, run_dmam
from cssnd.instgen import generate_instance, size_class
from cssnd.io import instance_to_dict, save_instance
from tests.conftest import make_sample_instance, routing_rows


def run(argv):
    return main(argv)


def test_gen_writes_instance_and_manifest(tmp_path):
    out = tmp_path / "i.json"
    assert run(["gen", "--size", "small", "--k", "10", "--seed", "1",
                "--out", str(out)]) == 0
    data = json.loads(out.read_text())
    assert data["n_physical"] == 5
    assert len(data["commodities"]) == 10
    manifest = json.loads((tmp_path / "i.json.manifest.json").read_text())
    assert manifest["command"] == "gen"
    assert manifest["seed"] == 1
    assert manifest["instance_hash"] == hashlib.sha256(out.read_bytes()).hexdigest()


def test_gen_rejects_k_above_pair_bound(tmp_path, capsys):
    out = tmp_path / "i.json"
    assert run(["gen", "--size", "small", "--k", "21", "--seed", "1",
                "--out", str(out)]) == 1
    assert "error:" in capsys.readouterr().err


def test_malformed_instance_exits_1(tmp_path, capsys):
    inst = tmp_path / "i.json"
    data = instance_to_dict(make_sample_instance())
    data["commodities"][0]["origin"] = 99
    inst.write_text(json.dumps(data))
    assert run(["solve", "--in", str(inst)]) == 1
    assert capsys.readouterr().err.startswith("error: ")


def test_a_horizon_below_one_period_exits_1(tmp_path, capsys):
    """A one-terminal document over -3 periods solved to a one-asset
    schedule."""
    inst = tmp_path / "i.json"
    data = instance_to_dict(make_sample_instance())
    data.update(n_physical=1, distance=[[0]], periods=-3, commodities=[])
    inst.write_text(json.dumps(data))
    assert run(["solve", "--in", str(inst)]) == 1
    assert capsys.readouterr().err == "error: period count -3 is below 1\n"


NOT_UTF8 = b"\xff\xfe\x00bad"


def test_non_utf8_instance_exits_1(tmp_path, capsys):
    inst = tmp_path / "i.json"
    inst.write_bytes(NOT_UTF8)
    assert run(["solve", "--in", str(inst)]) == 1
    assert capsys.readouterr().err.startswith(f"error: {inst}: not UTF-8 text")


def test_non_utf8_solution_exits_1(tmp_path, capsys):
    inst, sol = tmp_path / "i.json", tmp_path / "i.sol"
    save_instance(make_sample_instance(), inst)
    sol.write_bytes(NOT_UTF8)
    assert run(["check", "--in", str(inst), "--sol", str(sol)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"error: {sol}: not UTF-8 text")


@pytest.mark.parametrize("field, value, message", [
    ("r_e", 0, "penalty multipliers r_e and r_l must be positive"),
    ("r_l", 0, "penalty multipliers r_e and r_l must be positive"),
    ("holding", 1e300, "costs too large"),
    ("r_e", 1e300, "costs too large"),
])
def test_unusable_costs_exit_1(tmp_path, capsys, field, value, message):
    """A zero multiplier raised ZeroDivisionError in the cost breakdown, and
    a cost of 1e300 OverflowError in config a's pair matching."""
    inst = tmp_path / "i.json"
    data = instance_to_dict(generate_instance("small", 10, seed=1))
    data["costs"][field] = value
    inst.write_text(json.dumps(data))
    assert run(["solve", "--in", str(inst), "--config", "a"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and message in err


def test_negative_costs_solve_and_check(tmp_path, capsys):
    """Negative costs are accepted: a negative holding cost solves, and the
    schedule passes `check` at the heuristic's own total."""
    inst, sol = tmp_path / "i.json", tmp_path / "i.sol"
    data = instance_to_dict(generate_instance("small", 10, seed=1))
    data["costs"]["holding"] = -1
    inst.write_text(json.dumps(data))
    assert run(["solve", "--in", str(inst), "--sol", str(sol)]) == 0
    total = json.loads(capsys.readouterr().out)["total_cost"]
    assert run(["check", "--in", str(inst), "--sol", str(sol)]) == 0
    verdict = json.loads(capsys.readouterr().out)
    assert verdict["feasible"] is True
    assert verdict["objective"] == pytest.approx(total, abs=1e-6)


@pytest.mark.parametrize("volume", [1000001.0, 1.234567])
def test_solve_writes_volumes_that_check_reads_back_exactly(tmp_path, capsys,
                                                            volume):
    """`:g` kept six digits: the flow of a volume of 1000001 was written as
    1e+06, and `check` found the flow rows broken.  17 digits read back
    exactly."""
    inst, sol = tmp_path / "i.json", tmp_path / "i.sol"
    data = instance_to_dict(generate_instance("small", 10, seed=1))
    data["commodities"][0]["volume"] = volume
    inst.write_text(json.dumps(data))
    assert run(["solve", "--in", str(inst), "--sol", str(sol)]) == 0
    capsys.readouterr()
    assert f" {volume:.17g}\n" in sol.read_text()
    assert run(["check", "--in", str(inst), "--sol", str(sol)]) == 0
    assert json.loads(capsys.readouterr().out)["feasible"] is True


def test_literal_shift_without_lambda_exits_1(tmp_path, capsys):
    inst = tmp_path / "i.json"
    inst.write_text(json.dumps(instance_to_dict(make_sample_instance())))
    out = tmp_path / "m.lp"
    argv = ["export", "--in", str(inst), "--literal-shift", "--out", str(out)]
    assert run(argv) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "lambda" in err
    assert not out.exists()
    assert run(argv + ["--lambda", "0.25"]) == 0
    assert "shift_cap:" in out.read_text()


@pytest.mark.parametrize("hash_seed", ["1", "2", "3"])
def test_unknown_vi_families_are_named_in_sorted_order(tmp_path, hash_seed):
    """The names came out in set order, which moves with the string hash
    seed.  `--vi` is read before the instance, so `--in` need not exist."""
    env = {**os.environ, "PYTHONHASHSEED": hash_seed,
           "PYTHONPATH": str(Path(cssnd.__file__).parents[1])}
    done = subprocess.run(
        [sys.executable, "-m", "cssnd.cli", "export",
         "--in", str(tmp_path / "absent.json"), "--vi", "zeta,alpha,beta",
         "--out", str(tmp_path / "m.lp")],
        env=env, capture_output=True, text=True,
    )
    assert done.returncode == 1
    assert done.stderr == (
        "error: unknown valid-inequality family: alpha, beta, zeta\n"
    )


@pytest.mark.parametrize("command", ["solve", "export"])
def test_commodity_id_below_1_exits_1(tmp_path, capsys, command):
    """Ids below 1 would give variant ids below 1, and LP names with a
    minus sign in them."""
    inst = tmp_path / "i.json"
    data = instance_to_dict(make_sample_instance())
    data["commodities"][0]["id"] = 0
    data["commodities"][1]["id"] = -5
    inst.write_text(json.dumps(data))
    out = tmp_path / "out"
    assert run([command, "--in", str(inst), "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "commodity id 0 is below 1" in err
    assert not out.exists()


@pytest.mark.parametrize("where, field", [
    ("commodity", "volume"),
    ("costs", "holding"),
])
def test_string_number_exits_1(tmp_path, capsys, where, field):
    inst = tmp_path / "i.json"
    data = instance_to_dict(make_sample_instance())
    target = data["commodities"][1] if where == "commodity" else data["costs"]
    target[field] = str(target[field])
    inst.write_text(json.dumps(data))
    assert run(["solve", "--in", str(inst)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ")
    assert "is not a finite number" in err


@pytest.mark.parametrize("command, missing", [
    ("export", ("outsourced", 5, 4, 7, 30)),
    ("solve", ("service", 2, 1, 1, 1)),
])
def test_partial_routing_table_exits_1(tmp_path, capsys, command, missing):
    instance = make_sample_instance()
    data = instance_to_dict(instance)
    data["costs"].pop("routing_seed")
    data["costs"]["routing_table"] = [
        row for row in routing_rows(instance) if tuple(row[:5]) != missing
    ]
    inst = tmp_path / "i.json"
    inst.write_text(json.dumps(data))
    assert run([command, "--in", str(inst), "--out", str(tmp_path / "out")]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ")
    assert repr(missing) in err


def test_a_table_of_only_the_heuristic_legs_exits_1(tmp_path, capsys):
    """`solve` reads only each TC's service legs and its outsourced leg at
    release; a table of just those rows once solved while `check` and
    `export` rejected it."""
    instance = generate_instance("small", 10, seed=1)
    tsn = build_time_space_network(instance.physical, instance.period_count)
    legs = {
        (arc.kind, arc.phys_from, arc.phys_to, arc.depart, path.tc_id)
        for path in PathBook(instance, tsn).by_id.values()
        for arc in [tsn.arcs[path.arcs[path.lead_holds] - 1]]
    }
    data = instance_to_dict(instance)
    data["costs"].pop("routing_seed")
    data["costs"]["routing_table"] = [
        row for row in routing_rows(instance) if tuple(row[:5]) in legs
    ]
    inst = tmp_path / "i.json"
    inst.write_text(json.dumps(data))
    assert run(["solve", "--in", str(inst), "--sol", str(tmp_path / "i.sol")]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: routing table has no cost for ('service', ")
    assert not (tmp_path / "i.sol").exists()


@pytest.mark.parametrize("priced_by", ["routing_seed", "routing_table"])
def test_solve_validates_its_instance_once(tmp_path, monkeypatch, priced_by):
    """With a routing table a validation builds the network and prices every
    pair, so `solve` validates once, in `load_instance`."""
    instance = generate_instance("small", 10, seed=1)
    data = instance_to_dict(instance)
    if priced_by == "routing_table":
        data["costs"].pop("routing_seed")
        data["costs"]["routing_table"] = routing_rows(instance)
    inst = tmp_path / "i.json"
    inst.write_text(json.dumps(data))
    calls = []
    validate = Instance.validate
    monkeypatch.setattr(Instance, "validate",
                        lambda self: calls.append(self) or validate(self))
    assert run(["solve", "--in", str(inst)]) == 0
    assert len(calls) == 1


def test_usage_error_exits_2():
    with pytest.raises(SystemExit) as exc:
        run(["gen", "--size", "nope", "--k", "1", "--seed", "1", "--out", "x"])
    assert exc.value.code == 2


def test_gen_outputs_are_byte_identical(tmp_path):
    a = tmp_path / "a.json"
    b = tmp_path / "b.json"
    run(["gen", "--size", "medium", "--k", "20", "--seed", "5", "--out", str(a)])
    run(["gen", "--size", "medium", "--k", "20", "--seed", "5", "--out", str(b)])
    assert a.read_bytes() == b.read_bytes()


def test_analyze_emits_profile_csv(tmp_path):
    inst = tmp_path / "i.json"
    out = tmp_path / "profile.csv"
    run(["gen", "--size", "small", "--k", "10", "--seed", "3", "--out", str(inst)])
    assert run(["analyze", "--in", str(inst), "--out", str(out)]) == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "kind,period,value"
    assert len([l for l in lines if l.startswith("phi,")]) == 7
    assert lines[-2].startswith("gamma,,")
    assert lines[-1].startswith("theta,,")


def test_export_lp_and_mps(tmp_path):
    inst = tmp_path / "i.json"
    run(["gen", "--size", "small", "--k", "10", "--seed", "2", "--out", str(inst)])
    lp = tmp_path / "m.lp"
    assert run(["export", "--in", str(inst), "--format", "lp",
                "--vi", "gamma,phi", "--nearopt", "23",
                "--lambda", "0.25", "--out", str(lp)]) == 0
    text = lp.read_text()
    assert "vi_gamma:" in text
    assert "vi_phi_t7:" in text
    assert "near_opt_mixed:" in text
    assert "shift_cap:" in text
    mps = tmp_path / "m.mps"
    assert run(["export", "--in", str(inst), "--format", "mps",
                "--out", str(mps)]) == 0
    assert mps.read_text().startswith("NAME")
    sidecar = json.loads((tmp_path / "m.mps.names.json").read_text())
    assert all(len(short) <= 8 for short in sidecar)


def test_export_is_deterministic(tmp_path):
    inst = tmp_path / "i.json"
    run(["gen", "--size", "small", "--k", "15", "--seed", "8", "--out", str(inst)])
    one = tmp_path / "one.lp"
    two = tmp_path / "two.lp"
    run(["export", "--in", str(inst), "--out", str(one)])
    run(["export", "--in", str(inst), "--out", str(two)])
    assert one.read_bytes() == two.read_bytes()


def test_solve_check_roundtrip(tmp_path, capsys):
    inst = tmp_path / "i.json"
    run(["gen", "--size", "small", "--k", "10", "--seed", "7", "--out", str(inst)])
    schedule = tmp_path / "schedule.json"
    report = tmp_path / "report.csv"
    sol = tmp_path / "cssnd.sol"
    assert run(["solve", "--in", str(inst), "--config", "a",
                "--out", str(schedule), "--report", str(report),
                "--sol", str(sol)]) == 0
    stdout = capsys.readouterr().out
    summary = json.loads(stdout)
    assert summary["config"] == "a"
    document = json.loads(schedule.read_text())
    assert document["cycles"]
    for cycle in document["cycles"]:
        assert cycle["carried_tcs"]
        assert len(cycle["arcs"]) >= 1
    header, row = report.read_text().splitlines()
    assert header.startswith("instance,n_physical,k")
    assert row.split(",")[1] == "5"
    # the emitted assignment must satisfy the exact model
    assert run(["check", "--in", str(inst), "--sol", str(sol)]) == 0
    verdict = json.loads(capsys.readouterr().out)
    assert verdict["feasible"] is True
    assert verdict["violation_count"] == 0
    assert verdict["objective"] == pytest.approx(summary["total_cost"], abs=1e-6)


def test_solve_outputs_are_deterministic(tmp_path):
    inst = tmp_path / "i.json"
    run(["gen", "--size", "small", "--k", "15", "--seed", "9", "--out", str(inst)])
    outs = []
    for name in ("one", "two"):
        schedule = tmp_path / f"{name}.json"
        report = tmp_path / f"{name}.csv"
        run(["solve", "--in", str(inst), "--config", "c",
             "--out", str(schedule), "--report", str(report)])
        outs.append((schedule.read_bytes(), report.read_bytes()))
    assert outs[0] == outs[1]


def test_check_prints_the_same_bytes_twice(tmp_path, capsys):
    """The verdict carries no wall-clock time; that goes to --manifest."""
    inst, sol = tmp_path / "i.json", tmp_path / "i.sol"
    run(["gen", "--size", "small", "--k", "10", "--seed", "1", "--out", str(inst)])
    assert run(["solve", "--in", str(inst), "--sol", str(sol)]) == 0
    capsys.readouterr()
    outs = []
    for name in ("one", "two"):
        manifest = tmp_path / f"{name}.json"
        assert run(["check", "--in", str(inst), "--sol", str(sol),
                    "--manifest", str(manifest)]) == 0
        outs.append(capsys.readouterr().out)
        assert json.loads(manifest.read_text())["wall_clock"]["total"] > 0
    assert outs[0] == outs[1]
    assert "manifest" not in json.loads(outs[0])


def test_check_flags_infeasible_solution(tmp_path, capsys):
    inst = tmp_path / "i.json"
    run(["gen", "--size", "small", "--k", "10", "--seed", "4", "--out", str(inst)])
    sol = tmp_path / "bad.sol"
    sol.write_text("d_v1 1\n")
    assert run(["check", "--in", str(inst), "--sol", str(sol)]) == 1
    verdict = json.loads(capsys.readouterr().out)
    assert verdict["feasible"] is False
    assert any(v.startswith("cover_") for v in verdict["violations"])
    families = verdict["violations_by_family"]
    assert list(families) == sorted(families)
    assert families["cover_k{}"] == 10
    assert families["assign_v{}_t{}"] == 7
    assert sum(families.values()) == verdict["violation_count"]


def test_check_rejects_a_non_finite_value(tmp_path, capsys):
    inst, sol = tmp_path / "i.json", tmp_path / "i.sol"
    run(["gen", "--size", "small", "--k", "10", "--seed", "1", "--out", str(inst)])
    assert run(["solve", "--in", str(inst), "--sol", str(sol)]) == 0
    lines = sol.read_text().splitlines()
    sol.write_text("".join(
        line[:-1] + "nan\n" if line.endswith(" 1") else line + "\n"
        for line in lines
    ))
    capsys.readouterr()
    assert run(["check", "--in", str(inst), "--sol", str(sol)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: solution line 1: bad number\n"


def test_check_rejects_a_name_given_twice(tmp_path, capsys):
    """`d_v1 0` appended to a schedule that uses asset 1: `check` exits 1
    naming the line, and does not report the assign rows that the second
    value alone would break."""
    inst, sol = tmp_path / "i.json", tmp_path / "i.sol"
    run(["gen", "--size", "small", "--k", "10", "--seed", "1", "--out", str(inst)])
    assert run(["solve", "--in", str(inst), "--sol", str(sol)]) == 0
    lines = sol.read_text().splitlines()
    assert "d_v1 1" in lines
    sol.write_text("\n".join(lines + ["d_v1 0"]) + "\n")
    capsys.readouterr()
    assert run(["check", "--in", str(inst), "--sol", str(sol)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: solution line {len(lines) + 1}: d_v1 given twice\n"


def test_bench_emits_table(tmp_path):
    out = tmp_path / "bench.csv"
    assert run(["bench", "--sizes", "small", "--per-size", "2",
                "--seed", "3", "--out", str(out)]) == 0
    lines = out.read_text().splitlines()
    assert lines[0].startswith("instance,size,n_physical,k,seed,obj_r")
    assert len(lines) == 3
    for line in lines[1:]:
        fields = line.split(",")
        assert fields[1] == "small"
        assert float(fields[5]) > 0


def test_bench_of_no_instance_writes_the_header_alone(tmp_path):
    out = tmp_path / "bench.csv"
    assert run(["bench", "--sizes", "small", "--per-size", "0",
                "--out", str(out)]) == 0
    assert out.read_text() == (
        "instance,size,n_physical,k,seed,obj_r,obj_c,obj_a,time_r,time_c,time_a\n"
    )


@pytest.mark.parametrize("argv, message", [
    (["--sizes", "small", "--per-size", "-2"], "--per-size must be 0 or more, not -2"),
    (["--sizes", ",", "--per-size", "1"], "--sizes names no size class"),
    (["--sizes", "", "--per-size", "1"], "--sizes names no size class"),
])
def test_bench_that_can_run_nothing_exits_1(tmp_path, capsys, argv, message):
    """A negative count or an empty size list is an error, not a header-only
    table, and no file is written."""
    out = tmp_path / "bench.csv"
    assert run(["bench", *argv, "--out", str(out)]) == 1
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not out.exists()


@pytest.mark.parametrize("config", ["r", "c", "a"])
def test_exhausted_fleet_outsources_merged_cycles(tmp_path, capsys, config):
    """One owned asset and none to lease: Phase V outsources merged cycles
    once no lone cycle is left, and the schedule still checks out."""
    inst = tmp_path / "i.json"
    data = instance_to_dict(make_sample_instance())
    data["owned"], data["leasable"] = 1, 0
    inst.write_text(json.dumps(data))
    sol = tmp_path / "i.sol"
    assert run(["solve", "--in", str(inst), "--config", config,
                "--sol", str(sol)]) == 0
    summary = json.loads(capsys.readouterr().out)
    assert summary["owned_used"] <= 1
    assert summary["leased"] == 0
    assert run(["check", "--in", str(inst), "--sol", str(sol)]) == 0
    verdict = json.loads(capsys.readouterr().out)
    assert verdict["feasible"] is True
    assert verdict["objective"] == pytest.approx(summary["total_cost"], abs=1e-6)


def _schedule_document(solution, report, digest: str) -> dict:
    """The schedule that `solve --out` writes, as a dict for json.dumps."""
    tsn = solution.tsn

    def arc_entry(arc_id: int) -> dict:
        arc = tsn.arcs[arc_id - 1]
        return {
            "arc": arc.id,
            "kind": arc.kind,
            "from": [arc.phys_from, arc.depart],
            "to": [arc.phys_to, arc.arrive],
        }

    cycles = []
    for cycle in solution.cycles:
        carried = sorted(leg.path.tc_id for leg in cycle.legs)
        cycles.append(
            {
                "asset": cycle.asset_id,
                "kind": cycle.kind,
                "carried_tcs": carried,
                "arcs": [arc_entry(a) for a in cycle.arc_seq],
            }
        )
    selected = []
    for oc_id in sorted(solution.selected):
        path = solution.selected[oc_id]
        selected.append(
            {
                "oc": oc_id,
                "tc": path.tc_id,
                "kind": path.kind,
                "mode": path.mode,
                "arcs": list(path.arcs),
                "cost": path.cost,
            }
        )
    return {
        "instance_hash": digest,
        "config": report["config"],
        "summary": solution.summary(),
        "cost_breakdown": solution.cost_breakdown(),
        "selected": selected,
        "cycles": cycles,
        "outsourced": sorted(solution.outsourced),
    }


def assert_written_as_the_stdlib_writes(solution, report):
    digest = "0123456789abcdef" * 4
    document = _schedule_document(solution, report, digest)
    assert _schedule_text(solution, report, digest) == (
        json.dumps(document, indent=2) + "\n")


def test_schedule_writer_matches_the_stdlib_on_the_solve_sweep():
    """Every schedule of the golden solve sweep: each size class and k
    option at seeds 1-2, with configs r, c and a."""
    for size in ("small", "medium", "large", "xlarge"):
        for k in size_class(size).k_options:
            for seed in (1, 2):
                instance = generate_instance(size, k, seed)
                for config in "rca":
                    assert_written_as_the_stdlib_writes(*run_dmam(instance, config))


def _no_cycles(solution):
    solution.cycles.clear()


def _one_arc_path(solution):
    oc_id, path = next(iter(solution.selected.items()))
    solution.selected[oc_id] = path._replace(arcs=(path.arcs[path.lead_holds],))


def _odd_costs(solution):
    for (oc_id, path), cost in zip(list(solution.selected.items()),
                                   (-1.5e-07, 2.5e+16, -0.0, 1e-300, -3.25)):
        solution.selected[oc_id] = path._replace(cost=cost)


def _negative_costs(instance):
    costs = dataclasses.replace(instance.costs, fixed_owned=-25, fixed_leased=-50.0,
                                holding_cost=-0.15, penalty_early=1)
    return dataclasses.replace(instance, costs=costs)


@pytest.mark.parametrize("edit, priced", [
    (None, None),                   # nothing outsourced
    (_no_cycles, None),
    (_one_arc_path, None),
    (_odd_costs, None),
    (None, _negative_costs),        # the input contract allows them
], ids=["nothing-outsourced", "no-cycles", "one-arc-path", "exponent-costs",
        "negative-costs"])
def test_schedule_writer_matches_the_stdlib_on_edge_inputs(edit, priced):
    instance = generate_instance("small", 10, 1)
    solution, report = run_dmam(priced(instance) if priced else instance, "a")
    assert not solution.outsourced
    if edit:
        edit(solution)
    assert_written_as_the_stdlib_writes(solution, report)
