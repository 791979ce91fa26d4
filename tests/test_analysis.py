"""Window maps, transit support, and the requirement profile."""

from __future__ import annotations

from cssnd.analysis import beta_support, compute_requirements, window_map
from cssnd.core import TransformedCommodity, expand_commodities
from tests.conftest import SAMPLE_GAMMA, SAMPLE_PHI, SAMPLE_THETA


def tc_with_window(release, due, kind="original"):
    return TransformedCommodity(
        id=1,
        parent_id=1,
        kind=kind,
        origin_physical=1,
        dest_physical=2,
        release_period=release,
        due_period=due,
        volume=1.0,
    )


def test_window_map_wraps():
    assert window_map(tc_with_window(4, 2), 7) == {4, 5, 6, 7, 1, 2}
    assert window_map(tc_with_window(2, 5), 7) == {2, 3, 4, 5}
    assert window_map(tc_with_window(3, 3), 7) == {3}


def test_beta_is_halfopen_window():
    assert beta_support(tc_with_window(2, 5), 7) == {2, 3, 4}
    assert beta_support(tc_with_window(4, 2), 7) == {4, 5, 6, 7, 1}
    assert beta_support(tc_with_window(3, 3), 7) == frozenset()


def test_beta_drops_exactly_the_due_period():
    for release in range(1, 8):
        for span in range(1, 7):
            due = (release - 1 + span) % 7 + 1
            tc = tc_with_window(release, due)
            assert beta_support(tc, 7) == window_map(tc, 7) - {due}


def test_requirement_profile_matches_golden(sample_instance):
    summary = compute_requirements(sample_instance)
    assert summary.phi == SAMPLE_PHI
    assert summary.gamma == SAMPLE_GAMMA
    assert summary.theta == SAMPLE_THETA


def test_profile_consistency(sample_instance):
    summary = compute_requirements(sample_instance)
    assert sum(summary.phi) == sum(len(v) for v in summary.occupancy.values())
    assert all(summary.gamma <= x <= summary.theta for x in summary.phi)
    # every guaranteed-occupancy period lies in each variant's window
    tcs, incidence = expand_commodities(sample_instance)
    by_id = {tc.id: tc for tc in tcs}
    for oc_id, periods in summary.occupancy.items():
        for tc_id in incidence[oc_id]:
            assert periods <= window_map(by_id[tc_id], 7)
