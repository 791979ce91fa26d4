"""The split derivation (`absorb` then `unit_after`) against the rule."""

from __future__ import annotations

from hypothesis import given, settings
from hypothesis import strategies as st

from cssnd.rng import MASK64, absorb, derive, splitmix64, unit_after, unit_at


def rule_derive(seed: int, *keys: int | str) -> int:
    """The derivation rule of the `rng` module docstring, step by step."""
    state = seed & MASK64
    for key in keys:
        chunks = key.encode("utf-8") if isinstance(key, str) else [key & MASK64]
        for chunk in chunks:
            state, out = splitmix64(state ^ chunk)
            state ^= out
    return splitmix64(state)[1]


seeds = st.integers(min_value=-(2**70), max_value=2**70)
int_keys = st.integers(min_value=-(2**70), max_value=2**70)
key_paths = st.lists(st.one_of(int_keys, st.text(max_size=6)), max_size=6)


@settings(max_examples=300, deadline=None)
@given(seed=seeds, prefix=key_paths, last=int_keys)
def test_prefix_then_finish_equals_one_shot_derivation(seed, prefix, last):
    assert derive(seed, *prefix, last) == rule_derive(seed, *prefix, last)
    state = absorb(seed, *prefix)
    assert unit_after(state, last) == unit_at(seed, *prefix, last)
    assert unit_after(state, last) == (
        rule_derive(seed, *prefix, last) >> 11
    ) / float(1 << 53)


def test_price_prefix_matches_documented_keys():
    # the cost table's prefix: a 3-byte label and three int keys
    state = absorb(424242, "svc", 2, 1, 1)
    assert unit_after(state, 1) == unit_at(424242, "svc", 2, 1, 1, 1)
