"""LRU replacement, decided for a whole block stream at once.

The paper uses LRU for every continuously-allocated configuration
("LRU replacement was common for all the continuous configurations",
Section 4); :class:`~repro.cache.block_cache.BlockCache` is that cache,
one access at a time, and :func:`lru_pass` replays a stream through it
in a few sorts when every miss is allocated.  Belady's MIN, which needs
future knowledge, lives in :mod:`repro.core.belady`.
"""

from __future__ import annotations

import math
from typing import Optional, Tuple

import numpy as np

from repro.traces.columnar import expand_blocks


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
    recency order — exactly what a
    :class:`~repro.cache.block_cache.BlockCache` driven one access at a
    time (``access`` on a hit; ``insert`` on a miss, evicting the head
    when full) would report and leave.

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
