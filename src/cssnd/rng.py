"""Portable deterministic random streams.

Everything random in this package flows from a single 64-bit master seed.
Sub-streams are derived by hashing the master seed together with a label and
optional integer keys, so two call sites never consume from the same sequence
and results do not depend on call order, Python hash randomization, or
platform word size.

Derivation rule (documented so instances are reproducible outside Python):

    state = master_seed
    for each key chunk (one UTF-8 byte of a string key, or a whole int key):
        state, out = splitmix64_step(state XOR chunk)
        state = state XOR out
    derived = output of one final splitmix64 step on state

A derived state seeds a sequential splitmix64 generator; `unit()` maps the
top 53 bits of each output to a float in [0, 1).

Bulk pricing splits the rule without changing it: `absorb` runs the loop
over a key prefix once, and `unit_after` finishes one last int key from
that state in two steps.  `core.CostTable` absorbs each 3-byte label once
per table and caches each arc's prefix state on top of it, so an arc's
prefix costs 3 steps instead of 6 and pricing a (commodity, arc) pair
costs 2 steps instead of 8 (Steele, Lea & Flood, "Fast splittable
pseudorandom number generators", OOPSLA 2014).
"""

from __future__ import annotations

MASK64 = (1 << 64) - 1
GAMMA = 0x9E3779B97F4A7C15
MIX1 = 0xBF58476D1CE4E5B9
MIX2 = 0x94D049BB133111EB
UNIT = float(1 << 53)


def splitmix64(state: int) -> tuple[int, int]:
    """Advance a splitmix64 state, returning (new_state, output)."""
    state = (state + GAMMA) & MASK64
    z = state
    z = ((z ^ (z >> 30)) * MIX1) & MASK64
    z = ((z ^ (z >> 27)) * MIX2) & MASK64
    return state, z ^ (z >> 31)


def absorb(state: int, *keys: int | str) -> int:
    """Mix a key path into a derivation state: the loop of `derive`."""
    state &= MASK64
    for key in keys:
        if isinstance(key, str):
            for byte in key.encode("utf-8"):
                state, out = splitmix64(state ^ byte)
                state ^= out
        else:
            state, out = splitmix64(state ^ (key & MASK64))
            state ^= out
    return state


def derive(seed: int, *keys: int | str) -> int:
    """Derive a sub-stream seed from a master seed and a key path."""
    return splitmix64(absorb(seed, *keys))[1]


def unit_after(state: int, key: int) -> float:
    """`unit_at(seed, *prefix, key)` given `state = absorb(seed, *prefix)`.

    The two splitmix64 steps (absorb `key`, then finish) are written out
    because this runs once per priced (commodity, arc) pair.
    """
    s = ((state ^ (key & MASK64)) + GAMMA) & MASK64
    z = ((s ^ (s >> 30)) * MIX1) & MASK64
    z = ((z ^ (z >> 27)) * MIX2) & MASK64
    s = ((s ^ z ^ (z >> 31)) + GAMMA) & MASK64
    z = ((s ^ (s >> 30)) * MIX1) & MASK64
    z = ((z ^ (z >> 27)) * MIX2) & MASK64
    return ((z ^ (z >> 31)) >> 11) / UNIT


class Stream:
    """Sequential splitmix64 generator over a derived seed."""

    def __init__(self, seed: int, *keys: int | str):
        self._state = derive(seed, *keys) if keys else seed & MASK64

    def u64(self) -> int:
        self._state, out = splitmix64(self._state)
        return out

    def unit(self) -> float:
        # 53-bit mantissa keeps the mapping exact and platform independent.
        return (self.u64() >> 11) / UNIT

    def randint(self, lo: int, hi: int) -> int:
        """Uniform integer in [lo, hi] inclusive."""
        span = hi - lo + 1
        return lo + self.u64() % span

    def shuffle(self, items: list) -> None:
        for i in range(len(items) - 1, 0, -1):
            j = self.u64() % (i + 1)
            items[i], items[j] = items[j], items[i]


def unit_at(seed: int, *keys: int | str) -> float:
    """One-shot uniform [0, 1) draw keyed by (seed, keys); order independent."""
    return (derive(seed, *keys) >> 11) / UNIT
