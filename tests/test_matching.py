"""The blossom matcher's exact decisions, pinned on seeded random graphs.

`solve_p2` (config a) takes whichever optimal matching `max_weight_matching`
returns, so a matcher that found another optimum among ties would change
schedules.  One sha256 over every mate array pins the matcher's choices,
ties included; brute force checks optimality on graphs of up to 10 vertices.
"""

from __future__ import annotations

import hashlib
import itertools
from functools import lru_cache

import pytest

from cssnd.matching import max_weight_matching
from cssnd.rng import Stream


def uniform(lo: int, hi: int):
    return lambda stream, n: lambda i, j: stream.randint(lo, hi)


def additive(lo: int, hi: int):
    """Weight -(a_i + a_j) less a noise of 0-3: every perfect matching weighs
    about the same, as with merged pair costs, so dual ties are common."""
    def weights(stream, n):
        a = [stream.randint(lo, hi) for _ in range(n)]
        return lambda i, j: -(a[i] + a[j]) - stream.randint(0, 3)
    return weights


# Small or equal integers make ties common; solve_p2 sends negated costs at
# 1e-9 resolution ("scaled", "additive_scaled").
FAMILIES = {
    "ties": uniform(0, 3),
    "binary": uniform(0, 1),
    "flat": uniform(-2, -2),
    "negative": uniform(-3, -1),
    "scaled": uniform(-5 * 10**11, -10**9),
    "mixed": uniform(-3, 3),
    "wide_mixed": uniform(-10**6, 10**6),
    "additive": additive(5, 9),
    "additive_scaled": additive(6 * 10**8, 11 * 10**8),
}
SIZES = (2, 3, 4, 5, 6, 8, 10, 12, 16, 20, 25, 30, 40, 50, 60, 75, 90)
MAX_EDGES = 2100
MATES_SHA256 = "e00cebbcb2b7e48bd868ebca131ab6be36d4181358fe4956fad046f504793783"


def random_graph(stream: Stream, n: int, m: int, family):
    """m distinct edges on vertices 0..n-1, each pair in a random order."""
    weight = family(stream, n)
    pairs = list(itertools.combinations(range(n), 2))
    stream.shuffle(pairs)
    edges = []
    for i, j in pairs[:m]:
        if stream.randint(0, 1):
            i, j = j, i
        edges.append((i, j, weight(i, j)))
    return edges


def pinned_graphs():
    stream = Stream(2024, "matching")
    for family in FAMILIES.values():
        for n in SIZES:
            most = min(n * (n - 1) // 2, MAX_EDGES)
            yield random_graph(stream, n, stream.randint(1, most), family)
        yield random_graph(stream, 90, MAX_EDGES, family)


def brute_force(n: int, edges) -> tuple[int, int]:
    """(cardinality, weight) of the best matching, ranked in that order."""
    weight = {}
    for i, j, w in edges:
        weight[min(i, j), max(i, j)] = w

    @lru_cache(maxsize=None)
    def best(free: frozenset) -> tuple[int, int]:
        if not free:
            return 0, 0
        v = min(free)
        rest = free - {v}
        result = best(rest)
        for u in rest:
            if (v, u) in weight:
                card, total = best(rest - {u})
                result = max(result, (card + 1, total + weight[v, u]))
        return result

    return best(frozenset(range(n)))


def assert_valid(mate, edges) -> tuple[int, int]:
    """Check that mate is a matching of edges; return its (card, weight)."""
    weight = {}
    for i, j, w in edges:
        weight[i, j] = weight[j, i] = w
    card = total = 0
    for v, u in enumerate(mate):
        if u == -1:
            continue
        assert mate[u] == v
        assert (v, u) in weight
        if v < u:
            card += 1
            total += weight[v, u]
    return card, total


def test_mate_arrays_are_pinned():
    sha = hashlib.sha256()
    count = 0
    for edges in pinned_graphs():
        mate = max_weight_matching(edges)
        assert_valid(mate, edges)
        sha.update((",".join(map(str, mate)) + "\n").encode())
        count += 1
    assert count == len(FAMILIES) * (len(SIZES) + 1)
    assert sha.hexdigest() == MATES_SHA256


@pytest.mark.parametrize("family", sorted(FAMILIES))
def test_matching_is_optimal_against_brute_force(family):
    stream = Stream(99, "brute", family)
    for _ in range(60):
        n = stream.randint(2, 10)
        m = stream.randint(1, n * (n - 1) // 2)
        edges = random_graph(stream, n, m, FAMILIES[family])
        got = assert_valid(max_weight_matching(edges), edges)
        assert got == brute_force(n, edges)


def test_empty_graph_has_no_mates():
    assert max_weight_matching([]) == []


@pytest.mark.parametrize("edges", [[(0, 0, 1)], [(0, 1, 1.5)]])
def test_self_loops_and_non_integer_weights_are_refused(edges):
    with pytest.raises(ValueError):
        max_weight_matching(edges)
