"""Time-window analysis used by the valid inequalities.

Two different period sets matter for a transformed commodity:

* `window_map` is the closed cyclic interval [release, due].  Intersecting
  the three variants' windows tells in which periods an original commodity
  ties up some resource no matter which variant delivers it; per-period
  column sums of those intersections give the profile `phi`, its minimum
  `gamma` and maximum `theta`.
* `beta_support` is the half-open interval [release, due): the periods in
  which the commodity can be in transit on an arc.  The transit-restriction
  rows of the MILP are generated from its complement.
"""

from __future__ import annotations

from dataclasses import dataclass

from .core import Instance, TransformedCommodity, cyclic_span, expand_commodities


def window_map(tc: TransformedCommodity, period_count: int) -> frozenset[int]:
    """Closed cyclic window [release, due] of a TC as a period set."""
    span = cyclic_span(tc.release_period, tc.due_period, period_count)
    return frozenset(
        (tc.release_period - 1 + k) % period_count + 1 for k in range(span + 1)
    )


def beta_support(tc: TransformedCommodity, period_count: int) -> frozenset[int]:
    """Periods where the TC may be in transit: cyclic [release, due)."""
    span = cyclic_span(tc.release_period, tc.due_period, period_count)
    return frozenset(
        (tc.release_period - 1 + k) % period_count + 1 for k in range(span)
    )


@dataclass(frozen=True)
class AnalysisSummary:
    occupancy: dict[int, frozenset[int]]   # oc id -> guaranteed busy periods
    phi: tuple[int, ...]                   # per-period resource requirement
    gamma: int                             # min over periods
    theta: int                             # max over periods

    def phi_at(self, t: int) -> int:
        return self.phi[t - 1]


def compute_requirements(
    instance: Instance, in_transit: bool = False
) -> AnalysisSummary:
    """Build the per-period asset requirement profile for an instance.

    The default profile intersects full closed windows, matching the
    worked tables.  `in_transit=True` intersects the half-open transit
    supports instead, a strictly smaller profile kept for experimentation.
    """
    period_count = instance.period_count
    tcs, incidence = expand_commodities(instance)
    by_id = {tc.id: tc for tc in tcs}

    if in_transit:
        def window(tc):
            return beta_support(tc, period_count)
    else:
        def window(tc):
            return window_map(tc, period_count)

    occupancy = {}
    for oc in instance.commodities:
        triple = [by_id[tc_id] for tc_id in incidence[oc.id]]
        common = window(triple[0])
        for tc in triple[1:]:
            common &= window(tc)
        occupancy[oc.id] = common
    phi = tuple(
        sum(1 for periods in occupancy.values() if t in periods)
        for t in range(1, period_count + 1)
    )
    return AnalysisSummary(
        occupancy=occupancy,
        phi=phi,
        gamma=min(phi) if phi else 0,
        theta=max(phi) if phi else 0,
    )
