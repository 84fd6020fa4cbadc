import numpy as np
import pytest

from bihazard.errors import ConfigError
from bihazard.geometry import (Grid, LowerRect, PredicateRegion, as_points,
                               incomparable, join, leq, wide_history)


def test_leq_scalars():
    assert leq((0.2, 0.3), (0.2, 0.3))
    assert leq((0.1, 0.3), (0.2, 0.3))
    assert not leq((0.3, 0.1), (0.2, 0.3))
    assert not leq((0.1, 0.4), (0.2, 0.3))


def test_leq_broadcasts():
    s = np.array([[0.1, 0.1], [0.5, 0.5], [0.3, 0.9]])
    out = leq(s, (0.4, 0.4))
    assert out.shape == (3,)
    assert list(out) == [True, False, False]


def test_incomparable():
    assert incomparable((0.1, 0.9), (0.9, 0.1))
    assert not incomparable((0.1, 0.1), (0.9, 0.9))
    assert not incomparable((0.5, 0.5), (0.5, 0.5))
    rng = np.random.default_rng(7)
    for _ in range(50):
        s, t = rng.random(2), rng.random(2)
        assert incomparable(s, t) == (not leq(s, t) and not leq(t, s))


def test_join():
    assert tuple(join((0.1, 0.9), (0.9, 0.1))) == (0.9, 0.9)
    rng = np.random.default_rng(8)
    s, t = rng.random((5, 2)), rng.random((5, 2))
    j = join(s, t)
    assert np.all(leq(s, j)) and np.all(leq(t, j))


def test_as_points_rejects_wrong_shape():
    with pytest.raises(ConfigError):
        as_points([0.1, 0.2, 0.3])


def test_lower_rect_contains_closed_boundary():
    r = LowerRect((0.4, 0.6))
    assert r.contains((0.4, 0.6))
    assert r.contains((0.0, 0.0))
    assert not r.contains((0.4000001, 0.6))
    pts = np.array([[0.1, 0.1], [0.5, 0.1], [0.1, 0.7]])
    assert list(r.contains(pts)) == [True, False, False]


def test_predicate_region_checks_shape():
    good = PredicateRegion(lambda p: p[..., 0] < 0.5)
    assert good.contains((0.2, 0.9))
    bad = PredicateRegion(lambda p: np.zeros((3, 3), dtype=bool))
    with pytest.raises(ConfigError):
        bad.contains(np.zeros((4, 2)))


def test_wide_history_membership():
    # D_t holds everything except the open upper quadrant of t
    d = wide_history((0.4, 0.6))
    assert d.contains((0.4, 0.99))
    assert d.contains((0.99, 0.6))
    assert d.contains((0.1, 0.1))
    assert not d.contains((0.41, 0.61))
    rng = np.random.default_rng(9)
    p = rng.random((200, 2))
    expect = (p[:, 0] <= 0.4) | (p[:, 1] <= 0.6)
    assert np.array_equal(d.contains(p), expect)


def test_grid_nodes_first_coordinate_fastest():
    g = Grid(3, (0.6, 1.0))
    nodes = g.nodes()
    assert nodes.shape == (9, 2)
    assert np.allclose(nodes[:3, 0], [0.0, 0.3, 0.6])
    assert np.allclose(nodes[:3, 1], [0.0, 0.0, 0.0])
    assert np.allclose(nodes[-1], [0.6, 1.0])


def test_grid_nodes_include_origin_and_corner():
    g = Grid(5, (0.7, 0.9))
    assert g.xs[0] == 0.0 and g.ys[0] == 0.0
    assert g.xs[-1] == 0.7 and g.ys[-1] == 0.9


def test_grid_refine_keeps_parent_nodes_exactly():
    for m, tau in ((2, (1.0, 1.0)), (4, (0.9, 0.7)), (7, (0.3, 1.0))):
        g = Grid(m, tau)
        f = g.refine()
        assert f.m == 2 * m - 1
        assert np.array_equal(f.xs[::2], g.xs)
        assert np.array_equal(f.ys[::2], g.ys)


def test_grid_validation():
    with pytest.raises(ConfigError):
        Grid(1, (1.0, 1.0))
    with pytest.raises(ConfigError):
        Grid(4, (0.0, 1.0))
    with pytest.raises(ConfigError):
        Grid(4, (1.0, 1.2))
    for m in (2.5, "8", True, None):
        with pytest.raises(ConfigError, match="grid size must be an integer"):
            Grid(m, (1.0, 1.0))
    assert Grid(np.int64(3)).m == 3
