"""The input contract, as a property: every instance either solves to a
schedule that its own checker accepts at the heuristic's total, or exits 1
with a message.  Examples are one-field mutations of small k=10 instances,
one-row mutations of a full routing table, and redraws of many fields of
an instance at once.  Fewer of the same mutations and redraws also go
through `export` and `analyze`, which must exit 0 or 1 and never raise."""

from __future__ import annotations

import copy
import io
import json
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path
from tempfile import TemporaryDirectory

import pytest

from cssnd.cli import main
from cssnd.instgen import generate_instance
from cssnd.io import instance_to_dict
from tests.conftest import routing_rows

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

BASES = {seed: instance_to_dict(generate_instance("small", 10, seed=seed))
         for seed in (1, 7)}
# small k=10 seed 1 priced by a routing table of every pair the model prices
TABLE_BASE = copy.deepcopy(BASES[1])
TABLE_BASE["costs"].pop("routing_seed")
TABLE_BASE["costs"]["routing_table"] = routing_rows(
    generate_instance("small", 10, seed=1)
)

# Where one field is mutated: top-level fields, cost fields, a field of one
# commodity and one distance entry.  Integers stay small: a valid instance
# with a horizon of thousands of periods is large work, not a broken input.
FIELDS = st.one_of(
    st.sampled_from(["n_physical", "periods", "owned", "leasable", "seed",
                     "distance", "commodities", "costs"]).map(lambda k: (k,)),
    st.sampled_from(["f", "g", "holding", "r_e", "r_l", "routing_seed"]).map(
        lambda k: ("costs", k)),
    st.tuples(st.just("commodities"), st.integers(0, 9),
              st.sampled_from(["id", "origin", "dest", "release", "due",
                               "volume"])),
    st.tuples(st.just("distance"), st.integers(0, 4), st.integers(0, 4)),
)
DELETE = object()
VALUES = st.one_of(
    st.just(DELETE), st.none(), st.booleans(), st.integers(-3, 40),
    st.floats(),
    st.sampled_from([0, 0.0, -1, -0.5, 0.5, 2.5, 1e300, -1e300, 5e-324,
                     1.7976931348623157e308]),
    st.text(max_size=3), st.lists(st.integers(0, 3), max_size=3),
)


def run(argv: list[str]) -> tuple[int, str]:
    out = io.StringIO()
    with redirect_stdout(out), redirect_stderr(io.StringIO()):
        code = main(argv)
    return code, out.getvalue()


def mutated(seed: int, where: tuple, value) -> dict:
    """Base instance `seed` with the field at `where` set to `value`, or
    deleted."""
    data = copy.deepcopy(BASES[seed])
    *path, last = where
    target = data
    for key in path:
        target = target[key]
    if value is DELETE:
        del target[last]
    else:
        target[last] = value
    return data


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(seed=st.sampled_from(sorted(BASES)), where=FIELDS, value=VALUES)
def test_a_mutated_instance_solves_to_a_checked_schedule_or_exits_1(
    seed, where, value
):
    solves_to_a_checked_schedule_or_exits_1(mutated(seed, where, value), BASES[seed])


# about 0.1 s per instance that loads: two model exports and two profiles
@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(seed=st.sampled_from(sorted(BASES)), where=FIELDS, value=VALUES)
def test_a_mutated_instance_exports_and_analyzes_or_exits_1(seed, where, value):
    exports_and_analyzes_or_exits_1(mutated(seed, where, value))


@settings(max_examples=25, deadline=None, derandomize=True, database=None)
@given(row=st.integers(0, len(TABLE_BASE["costs"]["routing_table"]) - 1),
       value=VALUES)
def test_a_mutated_routing_table_solves_to_a_checked_schedule_or_exits_1(
    row, value
):
    data = copy.copy(TABLE_BASE)
    data["costs"] = dict(TABLE_BASE["costs"])
    table = data["costs"]["routing_table"] = list(TABLE_BASE["costs"]["routing_table"])
    if value is DELETE:
        del table[row]
    else:
        table[row] = [*table[row][:5], value]
    solves_to_a_checked_schedule_or_exits_1(data, TABLE_BASE)


# quarter steps from 0.25 to 2.0: above 1.0 a commodity outgrows an asset
VOLUMES = st.sampled_from([q / 4 for q in range(1, 9)])
COSTS = {
    "f": st.floats(-10.0, 100.0),
    "g": st.floats(-10.0, 150.0),
    "holding": st.floats(-1.0, 5.0),
    "r_e": st.floats(0.05, 5.0),
    "r_l": st.floats(0.05, 5.0),
}


@st.composite
def redrawn_instances(draw) -> tuple[dict, dict]:
    """A base instance with its horizon, distances, windows, volumes, fleet
    and costs redrawn together, and the base itself.  Distances are drawn
    symmetric in 1..horizon/2 and repaired to shortest paths, so they keep
    the triangle inequality; each window spans at least its distance."""
    base = BASES[draw(st.sampled_from(sorted(BASES)))]
    data = copy.deepcopy(base)
    periods = data["periods"] = draw(st.integers(5, 9))
    n = data["n_physical"]
    d = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            d[i][j] = d[j][i] = draw(st.integers(1, periods // 2))
    for k in range(n):
        for i in range(n):
            for j in range(n):
                d[i][j] = min(d[i][j], d[i][k] + d[k][j])
    data["distance"] = d
    for c in data["commodities"]:
        span = draw(st.integers(d[c["origin"] - 1][c["dest"] - 1], periods - 1))
        c["release"] = draw(st.integers(1, periods))
        c["due"] = (c["release"] + span - 1) % periods + 1
        c["volume"] = draw(VOLUMES)
    data["owned"] = draw(st.integers(1, 8))
    data["leasable"] = draw(st.integers(0, 6))
    for key, values in COSTS.items():
        data["costs"][key] = draw(values)
    data["costs"]["routing_seed"] = draw(st.integers(0, 2**31 - 1))
    return data, base


# 60 examples stay under 5 s: each one solves and checks, about 70 ms
@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(pair=redrawn_instances())
def test_a_redrawn_instance_solves_to_a_checked_schedule_or_exits_1(pair):
    solves_to_a_checked_schedule_or_exits_1(*pair)


@settings(max_examples=10, deadline=None, derandomize=True, database=None)
@given(pair=redrawn_instances())
def test_a_redrawn_instance_exports_and_analyzes_or_exits_1(pair):
    exports_and_analyzes_or_exits_1(pair[0])


def exports_and_analyzes_or_exits_1(data: dict) -> None:
    """The LP export with every option, the strong MPS export, and the
    profile with and without in-transit demand each exit 0 or 1; an
    exception that escapes `main`, a traceback from the console script,
    fails the test."""
    with TemporaryDirectory() as tmp:
        inst = Path(tmp, "i.json")
        inst.write_text(json.dumps(data))
        for argv in (
            ["export", "--format", "lp", "--vi", "gamma,phi", "--nearopt", "23",
             "--lambda", "0.25", "--out", str(Path(tmp, "m.lp"))],
            ["export", "--format", "mps", "--strong-forcing",
             "--out", str(Path(tmp, "m.mps"))],
            ["analyze", "--out", str(Path(tmp, "p.csv"))],
            ["analyze", "--in-transit", "--out", str(Path(tmp, "q.csv"))],
        ):
            assert run([*argv, "--in", str(inst)])[0] in (0, 1), argv


def solves_to_a_checked_schedule_or_exits_1(data: dict, unmutated: dict) -> None:
    with TemporaryDirectory() as tmp:
        inst, sol = Path(tmp, "i.json"), Path(tmp, "i.sol")
        inst.write_text(json.dumps(data))
        code, out = run(["solve", "--in", str(inst), "--sol", str(sol)])
        assert code in (0, 1)
        if code == 1:
            # the unmutated instance's schedule, checked against this one
            base = Path(tmp, "base.json")
            base.write_text(json.dumps(unmutated))
            assert run(["solve", "--in", str(base), "--sol", str(sol)])[0] == 0
            assert run(["check", "--in", str(inst), "--sol", str(sol)])[0] in (0, 1)
            return
        total = json.loads(out)["total_cost"]
        code, out = run(["check", "--in", str(inst), "--sol", str(sol)])
        verdict = json.loads(out)
        assert code == 0, verdict["violations"]
        # 1e-6, relative once the total passes 1: costs may be as large as
        # 1e290, where one rounding step is far above 1e-6
        assert abs(verdict["objective"] - total) <= 1e-6 * max(1.0, abs(total))
