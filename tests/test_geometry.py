import numpy as np
import pytest

from bihazard.errors import ConfigError
from bihazard.geometry import Grid, LowerRect, PredicateRegion, as_points


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


def test_region_coordinate_and_point_forms_agree():
    x, y = np.linspace(0.0, 1.0, 5)[:, None], np.linspace(0.0, 1.0, 7)[None, :]
    pts = np.stack(np.broadcast_arrays(x, y), axis=-1)
    for region in (LowerRect((0.5, 0.6)), PredicateRegion(lambda p: p[..., 0] < p[..., 1])):
        assert region.at(x, y).shape == (5, 7)
        assert np.array_equal(region.at(x, y), region.contains(pts))
        assert region.contains((0.25, 0.5)) is True


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
