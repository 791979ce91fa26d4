"""A fixed-field MPS reader and a HiGHS call for the exact-solver oracle.

It reads the files `cssnd export --format mps` writes, and imports nothing
from `cssnd.model`, so a test built on it checks what the MPS bytes mean,
not what the model IR holds.  `solve_mps` needs numpy and scipy; the reader
needs neither.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field


@dataclass
class Mps:
    rows: list[str] = field(default_factory=list)       # constraint rows
    senses: list[str] = field(default_factory=list)     # L | G | E
    columns: list[str] = field(default_factory=list)
    integer: list[bool] = field(default_factory=list)
    cost: list[float] = field(default_factory=list)
    entries: list[tuple[int, int, float]] = field(default_factory=list)
    rhs: list[float] = field(default_factory=list)
    upper: list[float] = field(default_factory=list)

    def activity(self, x: list[float]) -> list[float]:
        """Left-hand side of every row at the column values `x`."""
        lhs = [0.0] * len(self.rows)
        for r, c, value in self.entries:
            lhs[r] += value * x[c]
        return lhs

    def row_bounds(self) -> tuple[list[float], list[float]]:
        """(lower, upper) of every row."""
        lower = [-math.inf if s == "L" else b for s, b in zip(self.senses, self.rhs)]
        upper = [math.inf if s == "G" else b for s, b in zip(self.senses, self.rhs)]
        return lower, upper


def read_mps(text: str) -> Mps:
    """Parse ROWS, COLUMNS (with integer markers), RHS and BV bounds.
    Columns lie in [0, inf) unless a BV bound makes them binary."""
    mps = Mps()
    row_of: dict[str, int] = {}
    col_of: dict[str, int] = {}
    objective = None
    section = None
    in_integer = False
    for line in text.splitlines():
        if not line.strip():
            continue
        if not line[0].isspace():
            section = line.split()[0]
            continue
        fields = line.split()
        if section == "ROWS":
            sense, name = fields
            if sense == "N":
                objective = name
            else:
                row_of[name] = len(mps.rows)
                mps.rows.append(name)
                mps.senses.append(sense)
                mps.rhs.append(0.0)
        elif section == "COLUMNS":
            if len(fields) == 3 and fields[1] == "'MARKER'":
                in_integer = fields[2] == "'INTORG'"
                continue
            name = fields[0]
            if name not in col_of:
                col_of[name] = len(mps.columns)
                mps.columns.append(name)
                mps.integer.append(in_integer)
                mps.cost.append(0.0)
                mps.upper.append(math.inf)
            c = col_of[name]
            for row, value in zip(fields[1::2], fields[2::2]):
                if row == objective:
                    mps.cost[c] += float(value)
                else:
                    mps.entries.append((row_of[row], c, float(value)))
        elif section == "RHS":
            for row, value in zip(fields[1::2], fields[2::2]):
                mps.rhs[row_of[row]] = float(value)
        elif section == "BOUNDS":
            if fields[0] != "BV":
                raise ValueError(f"bound type {fields[0]} not supported")
            c = col_of[fields[2]]
            mps.integer[c], mps.upper[c] = True, 1.0
    return mps


def solve_mps(mps: Mps, relax: bool = False):
    """HiGHS (`scipy.optimize.milp`, relative gap 0) on the model, or on its
    LP relaxation with `relax`; returns scipy's `OptimizeResult`."""
    import numpy as np
    from scipy import optimize, sparse

    r, c, v = zip(*mps.entries)
    matrix = sparse.csr_array((v, (r, c)), shape=(len(mps.rows), len(mps.columns)))
    lower, upper = mps.row_bounds()
    return optimize.milp(
        np.array(mps.cost),
        constraints=optimize.LinearConstraint(matrix, lower, upper),
        integrality=None if relax else np.array(mps.integer, dtype=int),
        bounds=optimize.Bounds(0.0, np.array(mps.upper)),
        options={"mip_rel_gap": 0.0},
    )
