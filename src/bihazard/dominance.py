"""Offline planar dominance counting via a Fenwick decomposition.

dominating_count answers, for each query point q, how many points p of a
set satisfy p >= q componentwise (closed comparisons).  With the points
in decreasing first coordinate, those with x >= qx are a prefix; the
prefix splits into Fenwick blocks (one per set bit of its length), and
each block's second coordinates are sorted once per level, so one
binary search per level finds where the points with y >= qy start and
end in key order.  That is O((n + k) log^2 n) in vectorized steps
instead of the quadratic pairwise scan; below 64 points or queries one
broadcast comparison costs less.

Every point counts with a weight (one row of weights per bootstrap
resample, say; all ones for a plain count).  dominance_counter lays the
levels out once for a set of points and queries and returns the count
as a function of the weights: each level adds the difference of two
cumulative sums of the weights in key order, for all rows at once, and
the broadcast branch is a weighted product.  The sums run points-major
(points x rows), so a level gathers and sums whole rows of replicates.
"""

from __future__ import annotations

import numpy as np


def dominance_counter(points, queries):
    """Weighted dominating counts as a function of a (rows x n) weight matrix.

    The returned function gives, for row r and query j, the sum of
    weights[r, i] over the points i >= queries[j] componentwise, in the
    weights' dtype, so integer weights give exact integer counts.  The
    layout depends only on the points and queries, so it is built here
    once and shared by every call.
    """
    pts = np.asarray(points, dtype=float).reshape(-1, 2)
    qs = np.asarray(queries, dtype=float).reshape(-1, 2)
    n, k = len(pts), len(qs)
    if n < 64 or k < 64:
        hits = (pts[:, None, 0] >= qs[None, :, 0]) & (pts[:, None, 1] >= qs[None, :, 1])
        return lambda w: w @ hits.astype(w.dtype)

    order = np.argsort(-pts[:, 0])
    # reach[j]: how many points have x >= qs[j, 0], a prefix of `order`
    reach = n - np.searchsorted(pts[order[::-1], 0], qs[:, 0], side="left")
    all_y, rank = np.unique(np.concatenate([pts[order, 1], qs[:, 1]]), return_inverse=True)
    m = len(all_y)
    p_rank, q_rank = rank[:n], rank[n:]
    pos = np.arange(n)
    levels = []
    for level in range(n.bit_length()):
        # a set bit adds the prefix block of 2**level points ending at (reach >> level) << level;
        # the other queries get the empty key range [0, 0), so every query reads every level
        use = np.flatnonzero((reach >> level) & 1)
        if len(use) == 0:
            continue
        keys = (pos >> level) * m + p_rank              # by block, then y rank
        perm = np.argsort(keys)                         # ties share a key: their order never matters
        block = (reach[use] >> level) - 1
        lo, hi = np.zeros((2, k), dtype=np.intp)
        lo[use] = np.searchsorted(keys[perm], block * m + q_rank[use])
        hi[use] = (block + 1) << level
        levels.append((order[perm], lo, hi))

    def count(w):
        wt = np.ascontiguousarray(w.T)
        out = np.zeros((k, len(w)), dtype=w.dtype)
        for cols, lo, hi in levels:
            cum = running_sums(wt, cols)
            out += np.take(cum, hi, axis=0) - np.take(cum, lo, axis=0)
        return out.T

    return count


def running_sums(wt, cols):
    """Row j is wt[cols[0]] + ... + wt[cols[j - 1]] (row 0 is zeros), for points-major weights
    wt (points x rows), in wt's dtype: exact for integer weights."""
    out = np.zeros((len(cols) + 1,) + wt.shape[1:], dtype=wt.dtype)
    np.take(wt, cols, axis=0, out=out[1:])
    np.cumsum(out[1:], axis=0, out=out[1:])
    return out


def dominating_count(points, queries, weights=None):
    """#{j : points[j] >= q componentwise} for each row q of queries.

    weights, of shape (..., n), counts point j weights[..., j] times
    instead; the result then has shape (..., k) and the weights' dtype.
    """
    pts = np.asarray(points, dtype=float).reshape(-1, 2)
    w = np.ones((1, len(pts)), dtype=np.int64) if weights is None else np.asarray(weights)
    lead = w.shape[:-1]
    out = dominance_counter(pts, queries)(w.reshape(int(np.prod(lead)), len(pts)))
    return out[0] if weights is None else out.reshape(lead + out.shape[-1:])


def dominating_count_naive(points, queries, weights=None):
    """Reference quadratic scan, weighted as dominating_count; exact integer counts."""
    pts = np.asarray(points, dtype=float).reshape(-1, 2)
    qs = np.asarray(queries, dtype=float).reshape(-1, 2)
    w = np.ones(len(pts), dtype=np.int64) if weights is None else np.asarray(weights)
    out = np.zeros(w.shape[:-1] + (len(qs),), dtype=w.dtype)
    for i, (qx, qy) in enumerate(qs):
        out[..., i] = w[..., (pts[:, 0] >= qx) & (pts[:, 1] >= qy)].sum(axis=-1)
    return out
