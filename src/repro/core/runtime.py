"""Path-frequency counter stores: direct arrays and the hash table.

Per Section 7.4 of the paper: routines with more than 4000 possible paths
count into a hash table with 701 slots and three tries of secondary
hashing; a path that still conflicts bumps a "lost path" counter.  Counters
are conceptually 64-bit (Python integers are unbounded, so the paper's
truncation concern disappears, but the hash-table *collision* behaviour --
including lost paths -- is reproduced faithfully).

With free poisoning (Section 4.6), indices in ``[N, span)`` are cold-path
counts sharing the array; with check-style poisoning the instrumentation
tests ``r < 0`` and bumps :attr:`cold` directly.
"""

from __future__ import annotations

HASH_THRESHOLD = 4000
HASH_SLOTS = 701
HASH_TRIES = 3
# Secondary-hash stride modulus (coprime-ish with the slot count).
_HASH_STRIDE_MOD = 699


class CounterStore:
    """Interface shared by array and hash stores."""

    num_hot: int
    cold: int
    lost: int

    def bump(self, index: int) -> None:
        self.add(index, 1)

    def add(self, index: int, count: int) -> None:
        """``count`` bumps of ``index`` at once."""
        raise NotImplementedError

    def bump_cold(self) -> None:
        self.cold += 1

    def hot_items(self) -> list[tuple[int, int]]:
        """(path number, count) pairs for hot indices ``[0, num_hot)``."""
        raise NotImplementedError

    def cold_total(self) -> int:
        """Counts attributable to poisoned (cold) executions."""
        raise NotImplementedError


class ArrayStore(CounterStore):
    """Direct-indexed counters of a fixed span.

    ``span`` covers the hot range plus the free-poisoning overflow range;
    indices outside ``[0, span)`` (possible only for executions crossing
    several counts after a poison) are tallied as lost.
    """

    def __init__(self, num_hot: int, span: int):
        self.num_hot = num_hot
        self.span = max(span, num_hot)
        self.counts = [0] * self.span
        self.cold = 0
        self.lost = 0

    def add(self, index: int, count: int) -> None:
        if 0 <= index < self.span:
            self.counts[index] += count
        else:
            self.lost += count

    def hot_items(self) -> list[tuple[int, int]]:
        return [(i, c) for i, c in enumerate(self.counts[:self.num_hot]) if c]

    def cold_total(self) -> int:
        return self.cold + sum(self.counts[self.num_hot:]) + self.lost


class HashStore(CounterStore):
    """The paper's 701-slot open-addressing table with 3 probe tries.

    ``slots`` and ``tries`` are test seams: a tiny table makes
    collisions and lost counts that the real one only sees on functions
    with hundreds of thousands of paths.
    """

    def __init__(self, num_hot: int, slots: int = HASH_SLOTS,
                 tries: int = HASH_TRIES):
        self.num_hot = num_hot
        self.slots = slots
        self.tries = tries
        self.keys: list[int | None] = [None] * slots
        self.values: list[int] = [0] * slots
        self.cold = 0
        self.lost = 0

    def _probe(self, key: int, attempt: int) -> int:
        stride = 1 + (key % _HASH_STRIDE_MOD)
        return (key + attempt * stride) % self.slots

    def add(self, index: int, count: int) -> None:
        keys = self.keys
        for attempt in range(self.tries):
            slot = self._probe(index, attempt)
            stored = keys[slot]
            if stored is None:
                keys[slot] = index
                self.values[slot] = count
                return
            if stored == index:
                self.values[slot] += count
                return
        self.lost += count

    def hot_items(self) -> list[tuple[int, int]]:
        out = []
        for key, value in zip(self.keys, self.values):
            if key is not None and 0 <= key < self.num_hot and value:
                out.append((key, value))
        out.sort()
        return out

    def cold_total(self) -> int:
        overflow = sum(v for k, v in zip(self.keys, self.values)
                       if k is not None and k >= self.num_hot)
        return self.cold + overflow + self.lost


def make_store(num_hot: int, span: int, use_hash: bool) -> CounterStore:
    """The store a plan's counter geometry calls for."""
    if use_hash:
        return HashStore(num_hot)
    return ArrayStore(num_hot, span)
