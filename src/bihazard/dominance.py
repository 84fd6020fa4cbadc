"""Offline planar dominance counting via a Fenwick decomposition.

dominating_count answers, for each query point q, how many points p of a
set satisfy p >= q componentwise (closed comparisons).  With the points
in decreasing first coordinate, those with x >= qx are a prefix; the
prefix splits into Fenwick blocks (one per set bit of its length), and
each block's second coordinates are sorted once per level, so one
binary search per level counts those with y >= qy.  That is
O((n + k) log^2 n) in vectorized steps instead of the quadratic pairwise
scan; below 64 points or queries one broadcast comparison costs less.
"""

from __future__ import annotations

import numpy as np


def dominating_count(points, queries):
    """#{j : points[j] >= q componentwise} for each row q of queries."""
    pts = np.asarray(points, dtype=float).reshape(-1, 2)
    qs = np.asarray(queries, dtype=float).reshape(-1, 2)
    n, k = len(pts), len(qs)
    if n < 64 or k < 64:
        return ((pts[None, :, 0] >= qs[:, None, 0])
                & (pts[None, :, 1] >= qs[:, None, 1])).sum(axis=1, dtype=np.int64)

    order = np.argsort(-pts[:, 0], kind="stable")
    # reach[j]: how many points have x >= qs[j, 0], a prefix of `order`
    reach = n - np.searchsorted(pts[order[::-1], 0], qs[:, 0], side="left")
    all_y = np.unique(np.concatenate([pts[:, 1], qs[:, 1]]))
    m = len(all_y)
    p_rank = np.searchsorted(all_y, pts[order, 1])
    q_rank = np.searchsorted(all_y, qs[:, 1])
    pos = np.arange(n)
    out = np.zeros(k, dtype=np.int64)
    for level in range(n.bit_length()):
        # a set bit adds the prefix block of 2**level points ending at (reach >> level) << level
        use = np.flatnonzero((reach >> level) & 1)
        keys = np.sort((pos >> level) * m + p_rank)     # by block, then y rank
        block = (reach[use] >> level) - 1
        out[use] += ((block + 1) << level) - np.searchsorted(keys, block * m + q_rank[use])
    return out


def dominating_count_naive(points, queries):
    """Reference quadratic scan; exact integer counts, used as the slow path."""
    pts = np.asarray(points, dtype=float).reshape(-1, 2)
    qs = np.asarray(queries, dtype=float).reshape(-1, 2)
    out = np.zeros(len(qs), dtype=np.int64)
    for i, (qx, qy) in enumerate(qs):
        out[i] = int(np.count_nonzero((pts[:, 0] >= qx) & (pts[:, 1] >= qy)))
    return out
