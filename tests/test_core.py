"""Node indexing, network construction, expansion, and validation."""

from __future__ import annotations

import pytest

from cssnd import rng
from cssnd.core import (
    OUTSOURCED_COST_BASE,
    OUTSOURCED_COST_HI,
    OUTSOURCED_COST_LO,
    SERVICE_COST_HI,
    SERVICE_COST_LO,
    CostParams,
    CssndError,
    PhysicalNetwork,
    build_time_space_network,
    expand_commodities,
    ts_node,
    validate_distances,
)
from cssnd.instgen import generate_instance
from tests.conftest import SAMPLE_TCS, make_sample_instance


def test_ts_node_matches_tabular_ids():
    assert ts_node(2, 2, 7) == 9
    assert ts_node(1, 1, 7) == 1
    assert ts_node(3, 3, 7) == 17


def ts_decode(node, period_count):
    """Inverse of ts_node."""
    return (node - 1) // period_count + 1, (node - 1) % period_count + 1


def test_ts_node_round_trips():
    for p in range(1, 6):
        for t in range(1, 8):
            assert ts_decode(ts_node(p, t, 7), 7) == (p, t)


def test_ts_node_rejects_bad_period():
    with pytest.raises(CssndError):
        ts_node(1, 0, 7)
    with pytest.raises(CssndError):
        ts_node(1, 8, 7)


def uniform_network(n, value=1):
    return PhysicalNetwork(
        node_count=n,
        distance=tuple(
            tuple(0 if i == j else value for j in range(n)) for i in range(n)
        ),
    )


def test_validate_distances_accepts_range_3():
    assert validate_distances(uniform_network(4, 3), 7) == []


def test_validate_distances_flags_return_trip_bound():
    problems = validate_distances(uniform_network(4, 4), 7)
    assert any("floor(|T|/2)" in p for p in problems)


def test_validate_distances_flags_triangle():
    d = ((0, 1, 3), (1, 0, 1), (3, 1, 0))
    problems = validate_distances(PhysicalNetwork(3, d), 7)
    assert any("triangle" in p for p in problems)


def test_arc_counts_match_closed_form():
    tsn = build_time_space_network(uniform_network(5), 7)
    assert len(tsn.service_arcs) == 5 * 4 * 7 == 140
    assert len(tsn.holding_arcs) == 5 * 7 == 35
    assert len(tsn.outsourced_arcs) == 140
    assert len(tsn.arcs) == 140 + 35 + 140


def test_arc_counts_hold_for_random_networks():
    from cssnd.instgen import generate_instance

    for size, k, seed in (("small", 10, 3), ("medium", 20, 4), ("large", 30, 5)):
        instance = generate_instance(size, k, seed=seed)
        n = instance.physical.node_count
        tsn = build_time_space_network(instance.physical, 7)
        assert len(tsn.service_arcs) == n * (n - 1) * 7
        assert len(tsn.holding_arcs) == n * 7
        assert len(tsn.arcs) == n * (n - 1) * 7 * 2 + n * 7


def test_arcs_are_laid_out_holding_service_outsourced():
    """The layout the model's column arithmetic and `tsn.arcs[id - 1]`
    lookups rely on."""
    d = [[0, 1, 2], [1, 0, 2], [2, 2, 0]]
    for physical in (uniform_network(4, 3),
                     PhysicalNetwork(3, tuple(tuple(r) for r in d))):
        tsn = build_time_space_network(physical, 7)
        assert tsn.arcs == tsn.holding_arcs + tsn.service_arcs + tsn.outsourced_arcs
        assert [arc.id for arc in tsn.arcs] == list(range(1, len(tsn.arcs) + 1))
        assert len(tsn.outsourced_arcs) == len(tsn.service_arcs)
        for svc, out in zip(tsn.service_arcs, tsn.outsourced_arcs):
            assert (svc.kind, out.kind) == ("service", "outsourced")
            assert (out.phys_from, out.phys_to, out.depart, out.duration) == (
                svc.phys_from, svc.phys_to, svc.depart, svc.duration
            )


def test_service_arc_arrival_and_wrap():
    d = [[0, 1, 2], [1, 0, 2], [2, 2, 0]]
    tsn = build_time_space_network(
        PhysicalNetwork(3, tuple(tuple(r) for r in d)), 7
    )
    arc = tsn.service_arc(3, 1, 5)
    assert arc.arrive == 7 and arc.depart + arc.duration <= 7
    arc = tsn.service_arc(1, 2, 7)
    assert arc.arrive == 1 and arc.depart + arc.duration > 7


def test_circular_arcs_wrap_exactly_once():
    tsn = build_time_space_network(uniform_network(4, 3), 7)
    for arc in tsn.arcs:
        if arc.depart + arc.duration > 7:
            assert arc.arrive < arc.depart
        else:
            assert arc.arrive > arc.depart


def test_capacities_by_arc_class():
    tsn = build_time_space_network(uniform_network(4, 2), 7)
    assert all(a.capacity == float("inf") for a in tsn.holding_arcs)
    assert all(a.capacity == 1.0 for a in tsn.service_arcs)
    assert all(a.capacity == float("inf") for a in tsn.outsourced_arcs)


def test_arc_spans_cyclically():
    tsn = build_time_space_network(uniform_network(4, 3), 7)
    arc = tsn.service_arc(1, 2, 6)  # departs 6, arrives 2
    assert [t for t in range(1, 8) if arc.spans(t, 7)] == [1, 6, 7]


def test_expand_commodities_matches_golden_table(sample_instance):
    tcs, incidence = expand_commodities(sample_instance)
    assert len(tcs) == 30
    for tc, expected in zip(tcs, SAMPLE_TCS):
        tc_id, o_node, d_node, kind, o_phys, d_phys, release, due = expected
        assert tc.id == tc_id
        assert tc.kind == kind
        assert tc.origin_node(7) == o_node
        assert tc.dest_node(7) == d_node
        assert (tc.origin_physical, tc.dest_physical) == (o_phys, d_phys)
        assert (tc.release_period, tc.due_period) == (release, due)
        assert tc.volume == 1.0
    for oc in sample_instance.commodities:
        assert incidence[oc.id] == (3 * oc.id - 2, 3 * oc.id - 1, 3 * oc.id)


def test_expand_preserves_volume_and_window_length(sample_instance):
    tcs, _ = expand_commodities(sample_instance)
    by_parent = {}
    for tc in tcs:
        by_parent.setdefault(tc.parent_id, []).append(tc)
    for oc in sample_instance.commodities:
        spans = {tc.window_span(7) for tc in by_parent[oc.id]}
        assert len(spans) == 1
        kinds = [tc.kind for tc in by_parent[oc.id]]
        assert kinds == ["early", "original", "tardy"]
        original = by_parent[oc.id][1]
        assert original.release_period == oc.release_period
        assert original.due_period == oc.due_period


def test_instance_validation_catches_self_loop():
    instance = make_sample_instance()
    bad = instance.commodities[0].__class__(99, 2, 2, 1, 3)
    broken = instance.__class__(
        physical=instance.physical,
        period_count=7,
        commodities=(bad,),
        owned_assets=7,
        leasable_assets=5,
        costs=instance.costs,
    )
    with pytest.raises(CssndError):
        broken.validate()


def _rule_price(params, kind, tc_id, i, j, depart):
    """A routing-seeded price straight from the rng rule, as prices were
    computed before the cost table existed."""
    if kind == "service":
        u = rng.unit_at(params.routing_seed, "svc", i, j, depart, tc_id)
        return SERVICE_COST_LO + (SERVICE_COST_HI - SERVICE_COST_LO) * u
    u = rng.unit_at(params.routing_seed, "out", i, j, depart, tc_id)
    return OUTSOURCED_COST_BASE + OUTSOURCED_COST_LO + (
        OUTSOURCED_COST_HI - OUTSOURCED_COST_LO
    ) * u


@pytest.mark.parametrize("make", [
    make_sample_instance,
    lambda: generate_instance("small", 15, seed=21),
])
def test_cost_table_equals_the_rule_for_every_pair(make):
    instance = make()
    costs = instance.costs
    tsn = build_time_space_network(instance.physical, instance.period_count)
    tcs, _ = expand_commodities(instance)
    priced = tsn.holding_arcs + tsn.service_arcs + tsn.outsourced_arcs
    row_of = costs.table.pricer(priced)
    for tc in tcs:
        row = row_of(tc.id)
        for arc, price in zip(priced, row):
            if arc.kind == "hold":
                assert price == costs.holding_cost
                continue
            want = _rule_price(costs, arc.kind, tc.id, arc.phys_from,
                               arc.phys_to, arc.depart)
            assert price == want
            assert costs.table.pricer([arc])(tc.id) == [want]


def test_cost_table_memoizes_prefixes_lazily():
    instance = make_sample_instance()
    costs = instance.costs
    table = costs.table
    assert costs.table is table
    tsn = build_time_space_network(instance.physical, instance.period_count)
    arcs = [tsn.holding_arc(2, 1), tsn.service_arc(2, 1, 2)]
    costs.table.pricer(arcs)(2)
    costs.table.pricer(arcs)(3)
    assert list(table._prefix) == [("service", 2, 1, 2)]


def test_cost_table_names_a_missing_routing_key():
    table = CostParams(routing_table={("service", 1, 2, 1, 2): 0.75}).table
    network = PhysicalNetwork(node_count=2, distance=((0, 1), (1, 0)))
    tsn = build_time_space_network(network, 2)
    assert table.pricer([tsn.service_arc(1, 2, 1)])(2) == [0.75]
    with pytest.raises(CssndError, match=r"\('outsourced', 1, 2, 1, 2\)"):
        table.pricer([tsn.outsourced_arc(1, 2, 1)])(2)
    with pytest.raises(CssndError, match=r"\('service', 1, 2, 2, 2\)"):
        table.pricer(tsn.service_arcs)(2)
