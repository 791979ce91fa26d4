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
over a key prefix once, and `Lanes` runs the rule's last steps on many
states at once, one state per 128-bit lane of one Python int ("SIMD within
a register", Fisher & Dietz 1998).  `Lanes.absorb` folds one int key into
every lane, and `Lanes.units_after` finishes one last int key in two
steps, giving each lane's `unit_at(seed, *prefix, key)`.  Every step masks
a lane to 64 bits before it multiplies, so a 64x64-bit product stays inside
its 128-bit lane and no lane spills into the next; the results are exact.
`core.CostTable` absorbs each 3-byte label once per table and folds the
arcs' (i, j, depart) prefix states onto it in lanes, so pricing a
(commodity, arc) pair costs 2 steps instead of 8 (Steele, Lea & Flood,
"Fast splittable pseudorandom number generators", OOPSLA 2014).  A kernel
call costs about as much as two scalar prices, so the callers batch: the
exact model's objective makes one call per variant, the path book one
call for every variant's legs, and the check one call per support read.
"""

from __future__ import annotations

import struct

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


_LANE = 16          # bytes per lane: a 64-bit state and room for its products
_ONE = (1).to_bytes(_LANE, "little")


def _pack(values: list[int]) -> int:
    """64-bit values, one per 128-bit lane, lane 0 lowest."""
    return int.from_bytes(
        struct.pack(f"<{'Q8x' * len(values)}", *values), "little"
    )


def _unpack(lanes: int, count: int) -> tuple[int, ...]:
    """The low 64 bits of each of `count` lanes."""
    return struct.unpack(f"<{'Q8x' * count}", lanes.to_bytes(_LANE * count, "little"))


def _output(s: int, low: int) -> int:
    """splitmix64's output of each lane of `s`, whose lanes are masked.

    A lane's low 64 bits are its output; above them, up to 31 bits of the
    next lane have spilled in, which the next mask or unpack drops."""
    z = ((s ^ (s >> 30)) & low) * MIX1 & low
    z = ((z ^ (z >> 27)) & low) * MIX2 & low
    return z ^ (z >> 31)


class Lanes:
    """Derivation states, one per 128-bit lane of one int.

    For a lane holding `absorb(seed, *prefix)`, `units_after(keys)` gives
    its `unit_at(seed, *prefix, key)`, and `absorb(keys)` folds `key` into
    its state as the derivation loop does; each runs every lane in one pass
    of a few big-int operations.  Keys are a list, one per lane, or one int
    for every lane; states and keys are taken modulo 2**64, as the rule
    takes them.
    """

    __slots__ = ("count", "_ones", "_low", "_gamma", "_state")

    def __init__(self, states: list[int]):
        self.count = len(states)
        self._ones = int.from_bytes(_ONE * self.count, "little")
        self._low = self._ones * MASK64
        self._gamma = self._ones * GAMMA
        self._state = _pack([s & MASK64 for s in states])

    def _keys(self, keys: int | list[int]) -> int:
        if isinstance(keys, int):
            return (keys & MASK64) * self._ones
        if len(keys) != self.count:
            raise ValueError(f"{len(keys)} keys for {self.count} lanes")
        return _pack([k & MASK64 for k in keys])

    def absorb(self, keys: int | list[int]) -> None:
        """Fold one int key into each lane: state ^= key, one splitmix64
        step, then state ^= its output."""
        low = self._low
        s = ((self._state ^ self._keys(keys)) + self._gamma) & low
        self._state = (s ^ _output(s, low)) & low

    def states(self) -> list[int]:
        return list(_unpack(self._state, self.count))

    def units_after(self, keys: int | list[int]) -> list[float]:
        """Each lane's uniform [0, 1) draw after one last int key."""
        low, gamma = self._low, self._gamma
        s = ((self._state ^ self._keys(keys)) + gamma) & low
        s = ((s ^ _output(s, low)) + gamma) & low
        return [v / UNIT for v in _unpack(_output(s, low) >> 11, self.count)]


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
