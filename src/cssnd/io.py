"""Instance file format.

A single JSON document with canonical field names:

    n_physical, periods, distance[][],
    commodities[{id, origin, dest, release, due, volume}],
    owned, leasable,
    costs{f, g, holding, r_e, r_l, routing_seed | routing_table},
    seed

The commodity and cost keys are stated once, in the tables
`core.COMMODITY_FIELDS` and `core.COST_FIELDS`, which `instance_to_dict`
and `instance_from_dict` read.  An absent `volume` reads as 1.0.
`routing_table`, when present instead of `routing_seed`, is a list of
[kind, i, j, depart, tc, cost] rows with kind "service" or "outsourced".
Serialization is deterministic: same instance, same bytes.
"""

from __future__ import annotations

import json
from pathlib import Path

from .core import (
    COMMODITY_FIELDS,
    COST_FIELDS,
    CostParams,
    CssndError,
    Instance,
    OriginalCommodity,
    PhysicalNetwork,
)


def instance_to_dict(instance: Instance) -> dict:
    costs = {key: getattr(instance.costs, attr) for key, attr, _ in COST_FIELDS}
    if instance.costs.routing_table is not None:
        costs["routing_table"] = [
            [kind, i, j, depart, tc, cost]
            for (kind, i, j, depart, tc), cost in sorted(
                instance.costs.routing_table.items()
            )
        ]
    else:
        costs["routing_seed"] = instance.costs.routing_seed
    return {
        "n_physical": instance.physical.node_count,
        "periods": instance.period_count,
        "distance": [list(row) for row in instance.physical.distance],
        "commodities": [
            {key: getattr(oc, attr) for key, attr, _ in COMMODITY_FIELDS}
            for oc in instance.commodities
        ],
        "owned": instance.owned_assets,
        "leasable": instance.leasable_assets,
        "costs": costs,
        "seed": instance.seed,
    }


def instance_from_dict(data: dict) -> Instance:
    try:
        costs_data = data["costs"]
        routing_table = None
        if "routing_table" in costs_data:
            routing_table = {
                (kind, i, j, depart, tc): cost
                for kind, i, j, depart, tc, cost in costs_data["routing_table"]
            }
        costs = CostParams(
            **{attr: costs_data[key] for key, attr, _ in COST_FIELDS},
            routing_seed=costs_data.get("routing_seed"),
            routing_table=routing_table,
        )
        instance = Instance(
            physical=PhysicalNetwork(
                node_count=data["n_physical"],
                distance=tuple(tuple(row) for row in data["distance"]),
            ),
            period_count=data["periods"],
            commodities=tuple(
                OriginalCommodity(**{
                    attr: c.get(key, 1.0) if key == "volume" else c[key]
                    for key, attr, _ in COMMODITY_FIELDS
                })
                for c in data["commodities"]
            ),
            owned_assets=data["owned"],
            leasable_assets=data["leasable"],
            costs=costs,
            seed=data.get("seed", 0),
        )
    except (KeyError, TypeError, ValueError) as exc:
        raise CssndError(f"malformed instance document: {exc}") from exc
    instance.validate()
    return instance


def dumps_instance(instance: Instance) -> str:
    return json.dumps(instance_to_dict(instance), indent=2) + "\n"


def save_instance(instance: Instance, path: str | Path) -> None:
    Path(path).write_text(dumps_instance(instance))


def read_text(path: str | Path) -> str:
    """The text of `path`, which must be UTF-8."""
    try:
        return Path(path).read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise CssndError(f"{path}: not UTF-8 text ({exc})") from None


def load_instance(path: str | Path) -> Instance:
    try:
        data = json.loads(read_text(path))
    except json.JSONDecodeError as exc:
        raise CssndError(f"{path}: not valid JSON ({exc})") from exc
    return instance_from_dict(data)
