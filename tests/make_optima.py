"""Solve fixture instances to proven optimality and write their `.sol` files.

Each instance is generated, exported as plain MPS by `cssnd export`, read
back through `tests.oracle.read_mps` and solved by HiGHS
(`scipy.optimize.milp`, relative gap 0).  The nonzero columns are written
under their model names, taken through the MPS names sidecar, next to
`data/sample_optimum.sol`.  Small k=10 seed 1 takes about 8 s, seed 7
about 50 s.

Run from the repository root (needs numpy and scipy):

    PYTHONPATH=src python -m tests.make_optima

The file name keeps it out of the test run; the tests read only its output.
"""

from __future__ import annotations

import json
import sys
import tempfile
import time
from pathlib import Path

import scipy

from cssnd.cli import main
from tests.oracle import read_mps, solve_mps

DATA = Path(__file__).parent / "data"
OPTIMA = {      # file stem -> (size, k, seed)
    "small10_s1_optimum": ("small", 10, 1),
    "small10_s7_optimum": ("small", 10, 7),
}


def _value(x: float) -> str:
    """A value snapped to the integer within 1e-9 of it, if any."""
    return str(round(x)) if abs(x - round(x)) <= 1e-9 else repr(x)


def solve(size: str, k: int, seed: int, out: Path) -> float:
    with tempfile.TemporaryDirectory() as scratch:
        inst, mps_path = Path(scratch, "i.json"), Path(scratch, "m.mps")
        assert main(["gen", "--size", size, "--k", str(k), "--seed", str(seed),
                     "--out", str(inst)]) == 0
        assert main(["export", "--in", str(inst), "--format", "mps",
                     "--out", str(mps_path)]) == 0
        mps = read_mps(mps_path.read_text())
        sidecar = json.loads(Path(f"{mps_path}.names.json").read_text())
    start = time.perf_counter()
    result = solve_mps(mps)
    seconds = time.perf_counter() - start
    if result.status != 0:
        raise SystemExit(f"{out.name}: {result.message}")
    lines = [
        f"# Small k={k} seed {seed}'s optimum of the plain model: HiGHS (scipy",
        f"# {scipy.__version__} optimize.milp, mip_rel_gap 0) on the exported MPS,",
        f"# objective {result.fun:.11g}.  Only nonzero columns are listed.",
    ]
    lines += [f"{sidecar[short]} {_value(x)}"
              for short, x in zip(mps.columns, result.x) if abs(x) > 1e-9]
    out.write_text("\n".join(lines) + "\n")
    print(f"{out.name}: objective {result.fun!r} in {seconds:.1f} s")
    return result.fun


if __name__ == "__main__":
    for stem in sys.argv[1:] or OPTIMA:
        solve(*OPTIMA[stem], DATA / f"{stem}.sol")
