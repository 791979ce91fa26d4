"""Random instance generation and distance-index classification.

Size classes fix the physical network size, fleet sizes, and the admissible
commodity counts; all other parameters (unit volumes and capacities, cost
constants, the {1,2,3} distance range over a 7-period week) are shared.

Stream splitting: from the instance seed we derive independent sub-streams
"dist" (distance matrix), "pairs" (O-D pair selection), "windows" (release
and slack draws), and "routing" (the per-arc, per-commodity cost seed stored
in the instance file).  See `rng` for the derivation rule.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .core import (
    CostParams,
    CssndError,
    Instance,
    OriginalCommodity,
    PhysicalNetwork,
    wrap_period,
)
from .rng import Stream, derive

PERIODS = 7
DISTANCE_CHOICES = (1, 2, 3)

CLOSE_RANGE = "CR"
MEDIUM_RANGE = "MR"
LONG_RANGE = "LR"


@dataclass(frozen=True)
class SizeClass:
    label: str
    n_physical: int
    k_options: tuple[int, ...]
    v1: int
    v2: int


SIZE_CLASSES = {
    "small": SizeClass("small", 5, (10, 15, 20), 7, 5),
    "medium": SizeClass("medium", 6, (20, 25, 30), 12, 7),
    "large": SizeClass("large", 7, (30, 36, 42), 15, 10),
    "very_large": SizeClass("very_large", 10, (72, 81, 90), 35, 15),
}
SIZE_ALIASES = {"xlarge": "very_large", "very-large": "very_large"}


def size_class(name: str) -> SizeClass:
    key = SIZE_ALIASES.get(name, name)
    if key not in SIZE_CLASSES:
        raise CssndError(f"unknown size class '{name}'")
    return SIZE_CLASSES[key]


@dataclass(frozen=True)
class DistanceIndex:
    total_distance: int
    category: str              # CR | MR | LR


def distance_index(total_distance: int, n_physical: int) -> DistanceIndex:
    """Classify a network by its total pairwise distance.

    The span [min_total, max_total] = [pairs * 1, pairs * 3] is cut into
    near-thirds: close range up to min_total + ceil(range/3) inclusive, long
    range strictly above max_total - ceil(range/3), medium range between.
    The inclusive lower cut is what reproduces the published labels when the
    range is not divisible by three.
    """
    pairs = n_physical * (n_physical - 1)
    min_total = pairs * min(DISTANCE_CHOICES)
    max_total = pairs * max(DISTANCE_CHOICES)
    if not min_total <= total_distance <= max_total:
        raise CssndError(
            f"total distance {total_distance} outside [{min_total}, {max_total}]"
            f" for {n_physical} physical nodes"
        )
    third = math.ceil((max_total - min_total) / 3)
    if total_distance <= min_total + third:
        category = CLOSE_RANGE
    elif total_distance > max_total - third:
        category = LONG_RANGE
    else:
        category = MEDIUM_RANGE
    return DistanceIndex(total_distance=total_distance, category=category)


def _generate_distance_matrix(n: int, stream: Stream) -> tuple[tuple[int, ...], ...]:
    """Symmetric matrix over {1,2,3}; shortcutting repairs triangle slack."""
    d = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            value = DISTANCE_CHOICES[stream.randint(0, len(DISTANCE_CHOICES) - 1)]
            d[i][j] = value
            d[j][i] = value
    # Floyd-Warshall style repair: replacing each entry by the shortest
    # path keeps values in {1,2,3} and enforces the triangle inequality, so
    # every draw is within the floor(7/2) = 3 return-trip bound and usable.
    for k in range(n):
        for i in range(n):
            for j in range(n):
                if i != j and d[i][k] + d[k][j] < d[i][j]:
                    d[i][j] = d[i][k] + d[k][j]
    return tuple(tuple(row) for row in d)


def generate_instance(size: SizeClass | str, k: int, seed: int) -> Instance:
    """Generate one instance; fully determined by (size, k, seed).

    At most one commodity per ordered O-D pair, unit volumes and service
    capacities, and windows wide enough for at least one single-service
    path: due = release + distance + slack with slack drawn from {0, 1, 2}.
    """
    cls = size_class(size) if isinstance(size, str) else size
    n = cls.n_physical
    max_k = n * (n - 1)
    if k > max_k:
        raise CssndError(
            f"k = {k} exceeds the {max_k} ordered O-D pairs of a "
            f"{n}-node network"
        )
    if k < 1:
        raise CssndError("k must be at least 1")

    distance = _generate_distance_matrix(n, Stream(seed, "dist"))
    physical = PhysicalNetwork(node_count=n, distance=distance)

    pair_stream = Stream(seed, "pairs")
    pairs = [(i, j) for i in range(1, n + 1) for j in range(1, n + 1) if i != j]
    pair_stream.shuffle(pairs)
    chosen = pairs[:k]

    commodities = []
    for idx, (origin, dest) in enumerate(chosen, start=1):
        win = Stream(seed, "windows", idx)
        release = win.randint(1, PERIODS)
        slack = win.randint(0, 2)
        due = wrap_period(release + physical.d(origin, dest) + slack, PERIODS)
        commodities.append(
            OriginalCommodity(
                id=idx,
                origin_physical=origin,
                dest_physical=dest,
                release_period=release,
                due_period=due,
                volume=1.0,
            )
        )

    instance = Instance(
        physical=physical,
        period_count=PERIODS,
        commodities=tuple(commodities),
        owned_assets=cls.v1,
        leasable_assets=cls.v2,
        costs=CostParams(routing_seed=derive(seed, "routing")),
        seed=seed,
    )
    instance.validate()
    return instance
