"""Shared fixtures: the 10-commodity worked sample and its golden tables."""

from __future__ import annotations

import pytest

from cssnd.core import (
    CostParams,
    Instance,
    OriginalCommodity,
    PhysicalNetwork,
    build_time_space_network,
    expand_commodities,
)

# (id, origin, dest, release, due); the worked 5-node, 7-period sample.
SAMPLE_COMMODITIES = [
    (1, 2, 1, 2, 5),
    (2, 3, 2, 3, 6),
    (3, 3, 1, 5, 3),
    (4, 2, 4, 4, 7),
    (5, 4, 3, 5, 3),
    (6, 1, 2, 7, 5),
    (7, 3, 5, 4, 7),
    (8, 1, 4, 7, 4),
    (9, 5, 3, 3, 5),
    (10, 5, 4, 1, 3),
]

# Expected expansion, one row per TC:
# (tc_id, origin_node, dest_node, kind, origin_phys, dest_phys, release, due)
SAMPLE_TCS = [
    (1, 8, 4, "early", 2, 1, 1, 4),
    (2, 9, 5, "original", 2, 1, 2, 5),
    (3, 10, 6, "tardy", 2, 1, 3, 6),
    (4, 16, 12, "early", 3, 2, 2, 5),
    (5, 17, 13, "original", 3, 2, 3, 6),
    (6, 18, 14, "tardy", 3, 2, 4, 7),
    (7, 18, 2, "early", 3, 1, 4, 2),
    (8, 19, 3, "original", 3, 1, 5, 3),
    (9, 20, 4, "tardy", 3, 1, 6, 4),
    (10, 10, 27, "early", 2, 4, 3, 6),
    (11, 11, 28, "original", 2, 4, 4, 7),
    (12, 12, 22, "tardy", 2, 4, 5, 1),
    (13, 25, 16, "early", 4, 3, 4, 2),
    (14, 26, 17, "original", 4, 3, 5, 3),
    (15, 27, 18, "tardy", 4, 3, 6, 4),
    (16, 6, 11, "early", 1, 2, 6, 4),
    (17, 7, 12, "original", 1, 2, 7, 5),
    (18, 1, 13, "tardy", 1, 2, 1, 6),
    (19, 17, 34, "early", 3, 5, 3, 6),
    (20, 18, 35, "original", 3, 5, 4, 7),
    (21, 19, 29, "tardy", 3, 5, 5, 1),
    (22, 6, 24, "early", 1, 4, 6, 3),
    (23, 7, 25, "original", 1, 4, 7, 4),
    (24, 1, 26, "tardy", 1, 4, 1, 5),
    (25, 30, 18, "early", 5, 3, 2, 4),
    (26, 31, 19, "original", 5, 3, 3, 5),
    (27, 32, 20, "tardy", 5, 3, 4, 6),
    (28, 35, 23, "early", 5, 4, 7, 2),
    (29, 29, 24, "original", 5, 4, 1, 3),
    (30, 30, 25, "tardy", 5, 4, 2, 4),
]

# Guaranteed-occupancy periods per original commodity (window intersections).
SAMPLE_OCCUPANCY = {
    1: {3, 4},
    2: {4, 5},
    3: {1, 2, 6, 7},
    4: {5, 6},
    5: {1, 2, 6, 7},
    6: {1, 2, 3, 4},
    7: {5, 6},
    8: {1, 2, 3},
    9: {4},
    10: {2},
}

SAMPLE_PHI = (4, 5, 3, 4, 3, 4, 2)
SAMPLE_GAMMA = 2
SAMPLE_THETA = 5


def make_sample_instance(routing_seed: int = 424242) -> Instance:
    distance = tuple(
        tuple(0 if i == j else 1 for j in range(5)) for i in range(5)
    )
    return Instance(
        physical=PhysicalNetwork(node_count=5, distance=distance),
        period_count=7,
        commodities=tuple(
            OriginalCommodity(id, o, d, r, due)
            for id, o, d, r, due in SAMPLE_COMMODITIES
        ),
        owned_assets=7,
        leasable_assets=5,
        costs=CostParams(routing_seed=routing_seed),
        seed=1,
    )


def routing_rows(instance: Instance) -> list[list]:
    """The [kind, i, j, depart, tc, cost] row of every pair the exact model
    prices, at the costs the instance's own pricer gives."""
    tsn = build_time_space_network(instance.physical, instance.period_count)
    tcs, _ = expand_commodities(instance)
    arcs = tsn.service_arcs + tsn.outsourced_arcs
    pricer = instance.costs.table.pricer(arcs)
    return [
        [arc.kind, arc.phys_from, arc.phys_to, arc.depart, tc.id, price]
        for tc in tcs for arc, price in zip(arcs, pricer(tc.id))
    ]


@pytest.fixture
def sample_instance() -> Instance:
    return make_sample_instance()
