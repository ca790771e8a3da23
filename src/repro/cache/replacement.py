"""Replacement policies for the fully-associative block cache.

The paper uses LRU for every continuously-allocated configuration
("LRU replacement was common for all the continuous configurations",
Section 4).  FIFO, Random, and LFU are provided for ablation studies;
Belady's MIN, which needs future knowledge, lives in
:mod:`repro.core.belady`.
"""

from __future__ import annotations

import abc
import math
import random
from collections import OrderedDict
from typing import Dict, Iterator, Optional, Tuple

import numpy as np

from repro.traces.columnar import expand_blocks


class ReplacementPolicy(abc.ABC):
    """Tracks resident blocks and chooses eviction victims.

    The owning :class:`~repro.cache.block_cache.BlockCache` guarantees
    that ``on_insert`` is never called for a resident block, and that
    ``on_access``/``on_remove`` are only called for resident blocks.
    """

    @abc.abstractmethod
    def on_insert(self, address: int) -> None:
        """A block was inserted into the cache."""

    @abc.abstractmethod
    def on_access(self, address: int) -> None:
        """A resident block was accessed (hit)."""

    @abc.abstractmethod
    def on_remove(self, address: int) -> None:
        """A resident block was removed without going through evict()."""

    @abc.abstractmethod
    def choose_victim(self) -> int:
        """Return the address to evict next (must be resident)."""

    @abc.abstractmethod
    def __len__(self) -> int:
        """Number of tracked resident blocks."""


class LRUReplacement(ReplacementPolicy):
    """Least-recently-used replacement (the paper's default)."""

    def __init__(self) -> None:
        self._order: "OrderedDict[int, None]" = OrderedDict()

    def on_insert(self, address: int) -> None:
        self._order[address] = None

    def on_access(self, address: int) -> None:
        self._order.move_to_end(address)

    def on_remove(self, address: int) -> None:
        del self._order[address]

    def choose_victim(self) -> int:
        if not self._order:
            raise LookupError("cannot choose a victim from an empty cache")
        return next(iter(self._order))

    def __len__(self) -> int:
        return len(self._order)

    def recency_order(self) -> Iterator[int]:
        """Resident addresses from least- to most-recently used."""
        return iter(self._order)


#: Upper bound on the index ranges the exact count of :func:`lru_pass`
#: gathers at once (bounds its scratch memory, not its result).
_EXACT_BATCH = 1 << 20

#: Cell width of :func:`lru_pass`'s prefix table; ``None`` is ~sqrt of
#: the stream.  A fixed width only changes which decisions the table
#: bounds and which are counted exactly, never a result.
_TABLE_BLOCK: Optional[int] = None


def lru_pass(
    order: np.ndarray,
    blocks: np.ndarray,
    capacity: int,
) -> Tuple[np.ndarray, np.ndarray]:
    """Replay a block stream through an LRU cache that allocates every
    miss, without walking it block by block.

    ``order`` is the cache's resident addresses from least- to most-
    recently used (at most ``capacity``, distinct), ``blocks`` the
    addresses accessed, in order.  Returns ``(hits, new_order)``: per
    access whether it hit, and the resident addresses afterwards, in
    recency order — exactly what :class:`LRUReplacement` driven one
    access at a time (``move_to_end`` on a hit; on a miss evict the
    head when full, then insert) would report and leave.

    LRU is a stack algorithm: an access hits iff fewer than
    ``capacity`` distinct blocks were accessed since the same block's
    previous access.  ``order`` is put in front of ``blocks`` as
    virtual accesses (replaying them into an empty cache rebuilds
    exactly that state), and one stable sort gives every access ``i``
    its previous occurrence ``p`` (-1 if none).  Most accesses settle
    at once: no previous occurrence is a miss, a window ``i - p - 1``
    shorter than the capacity a hit, and a window holding ``capacity``
    first occurrences a miss.  The rest use the identity

        distinct(p, i) = #{j < i : p_j <= p} - p - 1

    (every ``j <= p`` counts, and a ``j`` inside the window counts
    iff its own previous occurrence lies at or before ``p``, i.e. its
    block is new to the window).  A 2-D prefix table over square cells
    (``_TABLE_BLOCK`` wide, ~sqrt of the stream by default) bounds the
    count to within two cell widths; only the accesses whose bounds
    straddle the capacity are counted exactly, from the two partial
    strips the table does not cover.
    """
    order = np.asarray(order, dtype=np.int64)
    blocks = np.asarray(blocks, dtype=np.int64)
    if capacity < 1:
        raise ValueError(f"capacity must be positive, got {capacity}")
    if not len(blocks):
        return np.zeros(0, dtype=bool), order
    m = len(order)
    stream = np.concatenate((order, blocks))
    n = len(stream)
    # Scratch grows with the pass, so each temporary goes once used.
    by_block = np.argsort(stream, kind="stable")
    repeat = stream[by_block[1:]] == stream[by_block[:-1]]
    later = by_block[1:][repeat]
    prev = np.full(n, -1, dtype=np.int64)
    prev[later] = by_block[:-1][repeat]
    # Residents afterwards: the last `capacity` distinct blocks, ordered
    # by their last access.
    last = np.sort(by_block[np.flatnonzero(np.append(~repeat, True))])
    new_order = stream[last[-capacity:]]
    del by_block, repeat, last, stream

    p = prev[m:]
    # Access i = m.. hits when its window i - p - 1 is under capacity.
    hits = (p >= 0) & (np.arange(m - capacity, n - capacity) <= p)
    # cold[k]: first occurrences among stream[:k] (each a new block).
    cold = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(prev < 0, out=cold[1:])
    open_ = np.flatnonzero((p >= 0) & ~hits)
    x, y = open_ + m, p[open_]
    # The window's first occurrences are distinct blocks already.
    few_cold = cold[x] - cold[y + 1] < capacity
    open_, x, y = open_[few_cold], x[few_cold], y[few_cold]
    if not len(open_):
        return hits, new_order

    # g(a, b) = #{j < a : 0 <= prev_j < b}; distinct = cold[x] +
    # g(x, y + 1) - y - 1.  table[r, c] = g(r * w, c * w).
    w = _TABLE_BLOCK or max(1, math.isqrt(n))
    cells = n // w + 1
    cell = prev[later] // w
    cell += later // w * cells
    table = np.zeros((cells + 1, cells + 1), dtype=np.int64)
    np.cumsum(
        np.cumsum(
            np.bincount(cell, minlength=cells * cells).reshape(cells, cells),
            axis=0,
        ),
        axis=1,
        out=table[1:, 1:],
    )
    del cell
    bound = y + 1
    row_cell, col_cell = x // w, bound // w
    row_cut, col_cut = row_cell * w, col_cell * w
    low = cold[x] + table[row_cell, col_cell] - y - 1
    # Uncovered: rows [row_cut, x) and columns [col_cut, bound), each
    # at most one entry per index (previous occurrences are distinct).
    high = low + (x - row_cut) + (bound - col_cut)
    hits[open_[high < capacity]] = True
    straddle = np.flatnonzero((low < capacity) & (high >= capacity))
    if len(straddle):
        following = np.full(n, n, dtype=np.int64)
        following[prev[later]] = later
        step = max(1, _EXACT_BATCH // (2 * w))
        for s in range(0, len(straddle), step):
            k = straddle[s:s + step]
            widths = x[k] - row_cut[k]
            row_of = np.repeat(np.arange(len(k)), widths)
            prior = prev[expand_blocks(row_cut[k], widths)[0]]
            inside = (prior >= 0) & (prior < bound[k][row_of])
            # j < row_cut with prev_j = v in [col_cut, bound): j is the
            # access following v.
            widths = bound[k] - col_cut[k]
            col_of = np.repeat(np.arange(len(k)), widths)
            cols = expand_blocks(col_cut[k], widths)[0]
            above = following[cols] < row_cut[k][col_of]
            exact = (
                low[k]
                + np.bincount(row_of[inside], minlength=len(k))
                + np.bincount(col_of[above], minlength=len(k))
            )
            hits[open_[k[exact < capacity]]] = True
    return hits, new_order


class FIFOReplacement(ReplacementPolicy):
    """First-in-first-out replacement (ablation)."""

    def __init__(self) -> None:
        self._order: "OrderedDict[int, None]" = OrderedDict()

    def on_insert(self, address: int) -> None:
        self._order[address] = None

    def on_access(self, address: int) -> None:
        pass  # insertion order is not disturbed by hits

    def on_remove(self, address: int) -> None:
        del self._order[address]

    def choose_victim(self) -> int:
        if not self._order:
            raise LookupError("cannot choose a victim from an empty cache")
        return next(iter(self._order))

    def __len__(self) -> int:
        return len(self._order)


class RandomReplacement(ReplacementPolicy):
    """Uniform-random replacement (ablation); seeded for determinism."""

    def __init__(self, seed: int = 0) -> None:
        self._rng = random.Random(seed)
        self._slots: list = []
        self._index: Dict[int, int] = {}

    def on_insert(self, address: int) -> None:
        self._index[address] = len(self._slots)
        self._slots.append(address)

    def on_access(self, address: int) -> None:
        pass

    def on_remove(self, address: int) -> None:
        position = self._index.pop(address)
        last = self._slots.pop()
        if last != address:
            self._slots[position] = last
            self._index[last] = position

    def choose_victim(self) -> int:
        if not self._slots:
            raise LookupError("cannot choose a victim from an empty cache")
        return self._slots[self._rng.randrange(len(self._slots))]

    def __len__(self) -> int:
        return len(self._slots)


class LFUReplacement(ReplacementPolicy):
    """Least-frequently-used replacement with LRU tie-breaking (ablation).

    Frequencies count hits since insertion.  Implemented with an
    OrderedDict per frequency class, giving O(1) amortized updates.
    """

    def __init__(self) -> None:
        self._freq: Dict[int, int] = {}
        self._classes: Dict[int, "OrderedDict[int, None]"] = {}
        self._min_freq: int = 0

    def _class(self, freq: int) -> "OrderedDict[int, None]":
        return self._classes.setdefault(freq, OrderedDict())

    def on_insert(self, address: int) -> None:
        self._freq[address] = 1
        self._class(1)[address] = None
        self._min_freq = 1

    def on_access(self, address: int) -> None:
        freq = self._freq[address]
        bucket = self._classes[freq]
        del bucket[address]
        if not bucket:
            del self._classes[freq]
            if self._min_freq == freq:
                self._min_freq = freq + 1
        self._freq[address] = freq + 1
        self._class(freq + 1)[address] = None

    def on_remove(self, address: int) -> None:
        freq = self._freq.pop(address)
        bucket = self._classes[freq]
        del bucket[address]
        if not bucket:
            del self._classes[freq]
            if self._min_freq == freq:
                self._min_freq = min(self._classes, default=0)

    def choose_victim(self) -> int:
        if not self._freq:
            raise LookupError("cannot choose a victim from an empty cache")
        bucket = self._classes[self._min_freq]
        return next(iter(bucket))

    def __len__(self) -> int:
        return len(self._freq)


class ClockReplacement(ReplacementPolicy):
    """CLOCK (second-chance) replacement (ablation).

    Blocks sit on a ring with a reference bit; the hand sweeps forward,
    clearing set bits and evicting the first unreferenced block.  A
    cheap LRU approximation — the policy most real block caches
    actually ship.
    """

    def __init__(self) -> None:
        self._ring: "OrderedDict[int, bool]" = OrderedDict()

    def on_insert(self, address: int) -> None:
        self._ring[address] = False

    def on_access(self, address: int) -> None:
        self._ring[address] = True

    def on_remove(self, address: int) -> None:
        del self._ring[address]

    def choose_victim(self) -> int:
        if not self._ring:
            raise LookupError("cannot choose a victim from an empty cache")
        while True:
            address, referenced = next(iter(self._ring.items()))
            if not referenced:
                return address
            # Second chance: clear the bit and rotate to the back.
            del self._ring[address]
            self._ring[address] = False

    def __len__(self) -> int:
        return len(self._ring)


def make_replacement(name: str, seed: int = 0) -> ReplacementPolicy:
    """Construct a replacement policy by name
    ('lru', 'fifo', 'random', 'lfu', 'clock')."""
    factories = {
        "lru": LRUReplacement,
        "fifo": FIFOReplacement,
        "lfu": LFUReplacement,
        "clock": ClockReplacement,
    }
    lowered = name.lower()
    if lowered == "random":
        return RandomReplacement(seed=seed)
    if lowered not in factories:
        raise ValueError(
            f"unknown replacement policy {name!r}; "
            f"expected one of lru, fifo, random, lfu, clock"
        )
    return factories[lowered]()
