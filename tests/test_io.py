"""Instance file round-trips and the canonical field contract."""

from __future__ import annotations

import json
from dataclasses import fields

import pytest

from cssnd.core import (
    COMMODITY_FIELDS,
    COST_FIELDS,
    CostParams,
    CssndError,
    OriginalCommodity,
    build_time_space_network,
)
from cssnd.instgen import generate_instance
from cssnd.io import (
    dumps_instance,
    instance_from_dict,
    instance_to_dict,
    load_instance,
    save_instance,
)
from tests.conftest import make_sample_instance, routing_rows


def test_round_trip_preserves_instance(tmp_path):
    original = generate_instance("medium", 25, seed=31)
    path = tmp_path / "i.json"
    save_instance(original, path)
    loaded = load_instance(path)
    assert loaded == original
    assert dumps_instance(loaded) == dumps_instance(original)


def test_canonical_field_names():
    data = instance_to_dict(make_sample_instance())
    assert list(data) == [
        "n_physical", "periods", "distance", "commodities",
        "owned", "leasable", "costs", "seed",
    ]
    assert list(data["commodities"][0]) == [
        "id", "origin", "dest", "release", "due", "volume",
    ]
    assert list(data["costs"]) == [
        "f", "g", "holding", "r_e", "r_l", "routing_seed",
    ]


def test_field_tables_name_every_record_field():
    assert [attr for _, attr, _ in COMMODITY_FIELDS] == [
        f.name for f in fields(OriginalCommodity)
    ]
    assert [attr for _, attr, _ in COST_FIELDS] == [
        f.name for f in fields(CostParams)
        if f.name not in ("routing_seed", "routing_table")
    ]


def test_an_absent_volume_reads_as_1_and_other_absent_keys_are_named():
    data = instance_to_dict(make_sample_instance())
    del data["commodities"][1]["volume"]
    assert instance_from_dict(data).commodities[1].volume == 1.0
    del data["commodities"][1]["due"]
    with pytest.raises(CssndError, match="malformed instance document: 'due'"):
        instance_from_dict(data)
    data = instance_to_dict(make_sample_instance())
    del data["costs"]["r_l"]
    with pytest.raises(CssndError, match="malformed instance document: 'r_l'"):
        instance_from_dict(data)


def test_explicit_routing_table_round_trip(tmp_path):
    instance = make_sample_instance()
    data = instance_to_dict(instance)
    data["costs"].pop("routing_seed")
    rows = {tuple(row[:5]): row for row in routing_rows(instance)}
    rows["service", 1, 2, 1, 2][5] = 0.75
    rows["outsourced", 1, 2, 1, 2][5] = 26.4
    data["costs"]["routing_table"] = list(rows.values())
    loaded = instance_from_dict(data)
    tsn = build_time_space_network(loaded.physical, loaded.period_count)
    pricer = loaded.costs.table.pricer(
        [tsn.service_arc(1, 2, 1), tsn.outsourced_arc(1, 2, 1)]
    )
    assert pricer(2) == [0.75, 26.4]
    path = tmp_path / "table.json"
    save_instance(loaded, path)
    again = load_instance(path)
    assert again.costs.routing_table == loaded.costs.routing_table


def unit_distances(*entries):
    """A 5x5 matrix, 1 off the diagonal, with (i, j, value) entries set."""
    d = [[int(i != j) for j in range(5)] for i in range(5)]
    for i, j, value in entries:
        d[i][j] = value
    return d


def test_malformed_documents_are_domain_errors(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    with pytest.raises(CssndError):
        load_instance(bad)
    with pytest.raises(CssndError):
        instance_from_dict({"n_physical": 3})
    # documents that parse but would solve wrongly or crash downstream
    for field, value, message in (
        ("id", 1, "duplicate commodity id 1"),
        ("id", 0, "commodity id 0 is below 1"),
        ("id", -5, "commodity id -5 is below 1"),
        ("origin", 99, "terminal 99 outside 1..5"),
        ("periods", 7.0, "not an integer"),
        ("release", 2.0, "commodity 2 release 2.0 is not an integer"),
        ("origin", 2.0, "commodity 2 origin 2.0 is not an integer"),
        ("n_physical", 5.0, "n_physical 5.0 is not an integer"),
        ("volume", "1.0", "commodity 2 volume '1.0' is not a finite number"),
        ("volume", True, "commodity 2 volume True is not a finite number"),
        ("volume", float("inf"), "commodity 2 volume inf is not a finite"),
        ("holding", "0.15", "cost holding '0.15' is not a finite number"),
        ("f", None, "cost f None is not a finite number"),
        ("r_l", float("nan"), "cost r_l nan is not a finite number"),
        ("routing_seed", 1.5, "routing_seed 1.5 is not an integer"),
        # a zero multiplier divided a path's cost; huge costs overflowed
        # DMaM's integer pair costs
        ("r_e", 0, "penalty multipliers r_e and r_l must be positive"),
        ("r_l", 0.0, "penalty multipliers r_e and r_l must be positive"),
        ("r_e", -1.2, "penalty multipliers r_e and r_l must be positive"),
        ("holding", 1e300, "costs too large"),
        ("holding", -1e300, "costs too large"),
        ("r_e", 1e300, "costs too large"),
        ("r_l", 1e300, "costs too large"),
        ("f", 1e300, "costs too large"),
        ("volume", 1e300, "costs too large"),
        # no variant could be delivered in the model, yet DMaM outsourced it
        ("due", 3, "commodity 2 has a window of 0 periods, shorter than"),
        # the one check of the distances; networks are built from them
        ("distance", [[0]], "invalid distances: distance matrix is not 5x5"),
        ("distance", unit_distances((2, 2, 1)),
         r"invalid distances: d\[3\]\[3\] = 1, diagonal must be 0"),
        ("distance", unit_distances((0, 1, 4), (1, 0, 4)),
         r"invalid distances: d\[1\]\[2\] = 4 exceeds floor\(\|T\|/2\) = 3"),
        ("distance", unit_distances((0, 1, 3), (1, 0, 3)),
         r"invalid distances: triangle violation: d\[1\]\[2\] = 3"),
        # a horizon or network below one, checked before the distances
        ("periods", 0, "period count 0 is below 1"),
        ("n_physical", 0, "n_physical 0 is below 1"),
        ("owned", 0, "at least one owned asset is required"),
        ("leasable", -1, "leasable asset count cannot be negative"),
        ("release", 8, "commodity 2 period 8 out of range"),
        ("volume", 0.0, "commodity 2 has non-positive volume"),
        ("volume", -1.0, "commodity 2 has non-positive volume"),
    ):
        data = instance_to_dict(make_sample_instance())
        if field in ("periods", "n_physical", "distance", "owned", "leasable"):
            data[field] = value
        elif field in data["costs"]:
            data["costs"][field] = value
        else:
            data["commodities"][1][field] = value
        with pytest.raises(CssndError, match=message):
            instance_from_dict(data)
    # a routing table that lacks a pair the model prices is rejected at load
    data = instance_to_dict(make_sample_instance())
    data["costs"].pop("routing_seed")
    data["costs"]["routing_table"] = [["service", 1, 2, 1, 2, 0.75]]
    with pytest.raises(CssndError, match=r"routing table has no cost for "
                                         r"\('service', 1, 2, 1, 1\)"):
        instance_from_dict(data)
    data["costs"]["routing_table"] = [["service", 1, 2, 1, 2, "0.75"]]
    with pytest.raises(CssndError, match="'0.75' is not a finite number"):
        instance_from_dict(data)
    data["costs"]["routing_table"] = [["service", 1, 2, 1, 2, 1e300]]
    with pytest.raises(CssndError, match="costs too large"):
        instance_from_dict(data)
    # a row of the wrong length raised a bare ValueError
    data["costs"]["routing_table"] = [["service", 1, 2]]
    with pytest.raises(CssndError, match="malformed instance document"):
        instance_from_dict(data)


def test_serialization_is_stable():
    instance = generate_instance("small", 10, seed=3)
    assert dumps_instance(instance) == dumps_instance(instance)
    assert json.loads(dumps_instance(instance))["seed"] == 3
