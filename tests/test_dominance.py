import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from bihazard.dominance import dominance_counter, dominating_count, dominating_count_naive


def test_tiny_hand_case():
    pts = np.array([[0.2, 0.3], [0.5, 0.6], [0.4, 0.1]])
    qs = np.array([[0.2, 0.3], [0.4, 0.1], [0.0, 0.0], [0.6, 0.6], [0.5, 0.6]])
    # closed dominance: p >= q in both coordinates
    want = [2, 2, 3, 0, 1]
    assert dominating_count(pts, qs).tolist() == want
    assert dominating_count_naive(pts, qs).tolist() == want


def test_matches_naive_on_random_sets_with_ties():
    # sizes fall on both sides of the 64-point/64-query switch to the Fenwick blocks
    rng = np.random.default_rng(59)
    for trial in range(100):
        n = int(rng.integers(0, 160))
        k = int(rng.integers(0, 160))
        if rng.random() < 0.5:
            # continuous coordinates
            pts = rng.random((n, 2))
            qs = rng.random((k, 2))
        else:
            # lattice coordinates force heavy ties in both axes
            pts = rng.integers(0, 5, size=(n, 2)) / 4.0
            qs = rng.integers(0, 5, size=(k, 2)) / 4.0
        fast = dominating_count(pts, qs)
        slow = dominating_count_naive(pts, qs)
        assert np.array_equal(fast, slow), trial
        assert fast.dtype == np.int64


def test_queries_equal_points():
    rng = np.random.default_rng(61)
    pts = rng.integers(0, 8, size=(50, 2)) / 7.0
    out = dominating_count(pts, pts)
    assert np.array_equal(out, dominating_count_naive(pts, pts))
    assert np.all(out >= 1)      # every point dominates itself


def test_empty_inputs():
    pts = np.empty((0, 2))
    qs = np.array([[0.5, 0.5]])
    assert dominating_count(pts, qs).tolist() == [0]
    assert dominating_count(qs, np.empty((0, 2))).size == 0


@st.composite
def weighted_sets(draw):
    """Points and queries on a lattice (ties in both axes), with integer weight rows
    that include zeros; sizes fall on both sides of the 64 switch, and the row counts
    span the chunk sizes a bootstrap uses."""
    n = draw(st.integers(0, 140))
    k = draw(st.integers(0, 140))
    rows = draw(st.integers(1, 40))
    steps = draw(st.sampled_from([3, 8, 1000]))
    coords = st.integers(0, steps)
    pts = draw(hnp.arrays(np.int64, (n, 2), elements=coords)) / steps
    qs = draw(hnp.arrays(np.int64, (k, 2), elements=coords)) / steps
    return pts, qs, draw(hnp.arrays(np.int64, (rows, n), elements=st.integers(0, 4)))


@settings(max_examples=150)
@given(weighted_sets())
def test_weighted_count_matches_weighted_broadcast(case):
    pts, qs, w = case
    hits = (pts[None, :, 0] >= qs[:, None, 0]) & (pts[None, :, 1] >= qs[:, None, 1])
    want = w @ hits.T.astype(np.int64)
    got = dominating_count(pts, qs, w)
    assert got.dtype == np.int64 and got.shape == want.shape
    assert np.array_equal(got, want)
    # one weight row without the rows axis, and all-ones weights, reduce to plain counts
    assert np.array_equal(dominating_count(pts, qs, w[0]), want[0])
    assert np.array_equal(dominating_count(pts, qs, np.ones(len(pts), dtype=np.int64)),
                          dominating_count(pts, qs))
    # one layout serves any number of weight matrices, in any dtype
    count = dominance_counter(pts, qs)
    assert np.array_equal(count(w[::-1]), want[::-1])
    assert np.array_equal(count(w.astype(np.int32)), want) and count(w.astype(np.int32)).dtype == np.int32
    # weights that are views, not contiguous rows: reversed points and Fortran order
    assert np.array_equal(dominating_count(pts[::-1], qs, w[:, ::-1]), want)
    assert np.array_equal(count(np.asfortranarray(w)), want)
