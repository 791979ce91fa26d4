"""The split derivation (`absorb`, then a finish in lanes) against the rule."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cssnd.rng import (
    GAMMA,
    MASK64,
    MIX1,
    MIX2,
    Lanes,
    absorb,
    derive,
    splitmix64,
    unit_at,
)


def rule_state(seed: int, *keys: int | str) -> int:
    """The loop of the derivation rule of the `rng` module docstring."""
    state = seed & MASK64
    for key in keys:
        chunks = key.encode("utf-8") if isinstance(key, str) else [key & MASK64]
        for chunk in chunks:
            state, out = splitmix64(state ^ chunk)
            state ^= out
    return state


def rule_derive(seed: int, *keys: int | str) -> int:
    """The derivation rule of the `rng` module docstring, step by step."""
    return splitmix64(rule_state(seed, *keys))[1]


def rule_unit(seed: int, *keys: int | str) -> float:
    return (rule_derive(seed, *keys) >> 11) / float(1 << 53)


def unit_after(state: int, key: int) -> float:
    """The scalar finish: `unit_at(seed, *prefix, key)` given
    `state = absorb(seed, *prefix)`, its two splitmix64 steps written out."""
    s = ((state ^ (key & MASK64)) + GAMMA) & MASK64
    z = ((s ^ (s >> 30)) * MIX1) & MASK64
    z = ((z ^ (z >> 27)) * MIX2) & MASK64
    s = ((s ^ z ^ (z >> 31)) + GAMMA) & MASK64
    z = ((s ^ (s >> 30)) * MIX1) & MASK64
    z = ((z ^ (z >> 27)) * MIX2) & MASK64
    return ((z ^ (z >> 31)) >> 11) / float(1 << 53)


seeds = st.integers(min_value=-(2**70), max_value=2**70)
int_keys = st.integers(min_value=-(2**70), max_value=2**70)
key_paths = st.lists(st.one_of(int_keys, st.text(max_size=6)), max_size=6)
# the ends of the 64-bit range and its middle, or anywhere in it, or an int
# of either sign up to 70 bits wide
words = st.one_of(st.sampled_from((0, 1, 2**63, MASK64)),
                  st.integers(min_value=0, max_value=MASK64), int_keys)


@st.composite
def lane_draws(draw) -> list[tuple[int, int, int, int]]:
    """(state, key, key, key) of each lane: up to three lanes drawn value by
    value, and either none to two or a few hundred more from a drawn random
    stream, in a drawn order."""
    lanes = draw(st.lists(st.tuples(words, words, words, words), max_size=3))
    rand = draw(st.randoms(use_true_random=False))
    bulk = draw(st.one_of(st.integers(0, 2), st.integers(200, 400)))
    lanes += [
        tuple(rand.randint(-(2**70), 2**70) for _ in range(4)) for _ in range(bulk)
    ]
    rand.shuffle(lanes)
    return lanes


@settings(max_examples=300, deadline=None)
@given(seed=seeds, prefix=key_paths, last=int_keys)
def test_prefix_then_finish_equals_one_shot_derivation(seed, prefix, last):
    assert derive(seed, *prefix, last) == rule_derive(seed, *prefix, last)
    state = absorb(seed, *prefix)
    assert state == rule_state(seed, *prefix)
    assert unit_after(state, last) == unit_at(seed, *prefix, last)
    assert unit_after(state, last) == rule_unit(seed, *prefix, last)
    assert Lanes([state]).units_after([last]) == [unit_after(state, last)]


@settings(max_examples=40, deadline=None)
@given(lanes=lane_draws(), shared=words)
def test_lanes_finish_each_lane_as_the_rule_does(lanes, shared):
    states = [lane[0] for lane in lanes]
    keys = [lane[1] for lane in lanes]
    packed = Lanes(states)
    assert packed.count == len(lanes)
    assert packed.units_after(keys) == [rule_unit(s, k) for s, k in zip(states, keys)]
    # one int key is every lane's key, and a finish leaves the states be
    assert packed.units_after(shared) == [rule_unit(s, shared) for s in states]
    assert packed.states() == [s & MASK64 for s in states]


@settings(max_examples=40, deadline=None)
@given(lanes=lane_draws())
def test_lanes_fold_int_keys_as_the_rule_does(lanes):
    packed = Lanes([lane[0] for lane in lanes])
    for place in (1, 2):
        packed.absorb([lane[place] for lane in lanes])
    assert packed.states() == [rule_state(*lane[:3]) for lane in lanes]
    assert packed.units_after([lane[3] for lane in lanes]) == [
        rule_unit(*lane) for lane in lanes
    ]


def test_lanes_refuse_a_key_list_of_another_length():
    with pytest.raises(ValueError, match="2 keys for 3 lanes"):
        Lanes([1, 2, 3]).units_after([1, 2])
    with pytest.raises(ValueError, match="1 keys for 0 lanes"):
        Lanes([]).absorb([1])


def test_price_prefix_matches_documented_keys():
    # the cost table's prefix: a 3-byte label and three int keys
    state = absorb(424242, "svc", 2, 1, 1)
    assert unit_after(state, 1) == unit_at(424242, "svc", 2, 1, 1, 1)
    lanes = Lanes([absorb(424242, "svc")] * 2)
    for key in (2, 1, 1):
        lanes.absorb(key)
    assert lanes.states() == [state] * 2
    assert lanes.units_after([1, 2]) == [
        unit_at(424242, "svc", 2, 1, 1, tc) for tc in (1, 2)
    ]
