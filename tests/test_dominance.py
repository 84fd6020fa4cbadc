import numpy as np

from bihazard.dominance import dominating_count, dominating_count_naive


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
