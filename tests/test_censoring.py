import numpy as np
import pytest

from bihazard.censoring import (CENSORING_MODEL, BandComplement, CensoringModel, FullSpace,
                                GridProduct, LowerLayer, QuantileTable, Raster, contains,
                                inclusion_prob, joint_inclusion_prob, observable_core,
                                rasterize, region_from_json, region_to_json, validate_censoring)
from bihazard.errors import ConfigError, DataError
from bihazard.geometry import Grid, LowerRect, lattice


# scalar reference predicates, written independently of the library
def _ref_member(region, x, y):
    if isinstance(region, LowerRect):
        return x <= region.corner[0] and y <= region.corner[1]
    if isinstance(region, GridProduct):
        inx = any(a <= x <= b for a, b in region.x_intervals)
        iny = any(a <= y <= b for a, b in region.y_intervals)
        return inx and iny
    if isinstance(region, BandComplement):
        return not (region.k1 < x < region.k2 and x < y < x + region.c)
    if isinstance(region, LowerLayer):
        return any(x <= cx and y <= cy for cx, cy in region.corners)
    if isinstance(region, Raster):
        i, j = int(np.floor(x * region.m)), int(np.floor(y * region.m))
        if not (0 <= i < region.m and 0 <= j < region.m):
            return False
        return bool(region.mask[i, j])
    raise AssertionError


def _random_region(rng):
    kind = rng.integers(0, 6)
    if kind == 0:
        return FullSpace()
    if kind == 1:
        return LowerRect(tuple(np.sort(rng.random(2))))
    if kind == 2:
        cuts = np.sort(rng.random(4))
        return GridProduct(((0.0, cuts[0]), (cuts[1], 1.0)), ((0.0, cuts[2]), (cuts[3], 1.0)))
    if kind == 3:
        k1, k2 = np.sort(rng.random(2))
        return BandComplement(k1, k2, 0.05 + 0.3 * rng.random())
    if kind == 4:
        xs = np.sort(rng.random(3))
        ys = np.sort(rng.random(3))[::-1]
        return LowerLayer(tuple(zip(xs, ys)))
    m = int(rng.integers(1, 9))
    return Raster(m, rng.random((m, m)) < 0.6)


def test_contains_matches_reference_predicate():
    rng = np.random.default_rng(11)
    for _ in range(120):
        region = _random_region(rng)
        pts = rng.random((40, 2))
        got = contains(region, pts)
        want = np.array([_ref_member(region, x, y) for x, y in pts])
        assert np.array_equal(got, want), region


def test_contains_scalar_returns_bool():
    out = contains(LowerRect((0.5, 0.5)), (0.2, 0.2))
    assert out is True or out is False


def test_rectangle_boundary_closed():
    r = LowerRect((0.4, 0.7))
    assert contains(r, (0.4, 0.7))
    assert not contains(r, (0.4, 0.7000001))


def test_band_is_open():
    # censored strip is the open set {k1 < x < k2, x < y < x + c}
    b = BandComplement(0.2, 0.6, 0.1)
    assert contains(b, (0.2, 0.25))        # x on the k1 edge
    assert contains(b, (0.6, 0.65))        # x on the k2 edge
    assert contains(b, (0.4, 0.4))         # y on the diagonal edge
    assert contains(b, (0.4, 0.5))         # y on the upper edge x + c
    assert not contains(b, (0.4, 0.45))    # strict interior of the band


def test_raster_half_open_cells():
    mask = np.zeros((2, 2), dtype=bool)
    mask[1, 1] = True
    r = Raster(2, mask)
    assert contains(r, (0.5, 0.5))
    assert contains(r, (0.99, 0.99))
    assert not contains(r, (0.5, 0.49))
    assert not contains(r, (1.0, 1.0))     # outer edge belongs to no cell


def test_raster_mask_is_write_protected():
    r = Raster(2, np.ones((2, 2), dtype=bool))
    with pytest.raises(ValueError):
        r.mask[0, 0] = False


def test_raster_equality_and_hash():
    a = Raster(2, np.eye(2, dtype=bool))
    b = Raster(2, np.eye(2, dtype=bool))
    c = Raster(2, ~np.eye(2, dtype=bool))
    assert a == b and hash(a) == hash(b)
    assert a != c


def test_region_validation_errors():
    with pytest.raises(ConfigError):
        LowerRect((1.2, 0.5))
    with pytest.raises(ConfigError):
        GridProduct(((0.1, 0.4),), ((0.0, 1.0),))          # first must start at 0
    with pytest.raises(ConfigError):
        GridProduct(((0.0, 0.5), (0.4, 1.0)), ((0.0, 1.0),))  # overlap
    with pytest.raises(ConfigError):
        GridProduct(((0.0, 0.5),), ((0.4, 0.2),))          # reversed
    with pytest.raises(ConfigError):
        BandComplement(0.6, 0.4, 0.1)
    with pytest.raises(ConfigError):
        BandComplement(0.2, 0.6, 0.0)
    with pytest.raises(ConfigError):
        LowerLayer(((0.2, 0.8), (0.4, 0.9)))               # y must strictly decrease
    with pytest.raises(ConfigError):
        Raster(2, np.ones((3, 3), dtype=bool))


def test_rasterize_cell_center_rule():
    rng = np.random.default_rng(13)
    for _ in range(30):
        region = _random_region(rng)
        if isinstance(region, Raster):
            continue
        m = int(rng.integers(1, 9))
        r = rasterize(region, m)
        for i in range(m):
            for j in range(m):
                cx, cy = (i + 0.5) / m, (j + 0.5) / m
                assert r.mask[i, j] == _ref_member(region, cx, cy)


def test_rasterize_raster_passthrough_and_errors():
    r = Raster(3, np.ones((3, 3), dtype=bool))
    assert rasterize(r, 3) is r
    with pytest.raises(ConfigError):
        rasterize(r, 4)
    with pytest.raises(ConfigError):
        rasterize(FullSpace(), 0)


def _core_brute(mask):
    m = mask.shape[0]
    ii, jj = np.meshgrid(np.arange(m), np.arange(m), indexing="ij")
    out = np.zeros((m, m), dtype=bool)
    for i in range(m):
        for j in range(m):
            wide = (ii <= i) | (jj <= j)
            out[i, j] = bool(mask[wide].all())
    return out


def test_observable_core_matches_brute_force():
    rng = np.random.default_rng(17)
    for _ in range(40):
        m = int(rng.integers(1, 9))
        mask = rng.random((m, m)) < rng.uniform(0.5, 0.98)
        core = observable_core(Raster(m, mask))
        assert np.array_equal(core.mask, _core_brute(mask))


def test_observable_core_l_shape():
    # columns 0..3 full plus rows 0..3 full: core is the lower-left quadrant
    m = 8
    mask = np.zeros((m, m), dtype=bool)
    mask[:4, :] = True
    mask[:, :4] = True
    core = observable_core(Raster(m, mask))
    want = np.zeros((m, m), dtype=bool)
    want[:4, :4] = True
    assert np.array_equal(core.mask, want)
    # the quadrant alone has an empty core: its columns stop at half height
    again = observable_core(core)
    assert not again.mask.any()


def test_observable_core_is_lower_subset():
    rng = np.random.default_rng(19)
    for _ in range(30):
        m = int(rng.integers(2, 12))
        mask = rng.random((m, m)) < 0.9
        core = observable_core(Raster(m, mask)).mask
        assert not np.any(core & ~mask)
        # lower set: every true cell has its entire lower-left block true
        for i, j in zip(*np.nonzero(core)):
            assert core[:i + 1, :j + 1].all()
    with pytest.raises(ConfigError):
        observable_core(FullSpace())


# ---------------------------------------------------------------------------
# quantile tables
# ---------------------------------------------------------------------------

def test_quantile_table_fixed_and_uniform():
    f = QuantileTable.fixed(0.3)
    assert f.sample(0.0) == 0.3 and f.sample(1.0) == 0.3
    assert f.cdf_left(0.3) == 0.0          # P(X < 0.3) = 0 for the point mass
    assert f.cdf_left(0.3000001) == 1.0
    assert f.tail_prob(0.3) == 1.0
    assert f.cdf(0.3) == 1.0               # P(X <= 0.3) counts the point mass
    assert f.cdf(0.2999999) == 0.0
    u = QuantileTable.uniform(0.2, 0.6)
    assert u.sample(0.5) == pytest.approx(0.4)
    assert u.cdf_left(0.4) == pytest.approx(0.5)
    assert u.tail_prob(0.2) == 1.0
    assert u.tail_prob(0.6) == 0.0
    assert u.cdf_left(0.1) == 0.0
    assert u.cdf_left(0.9) == 1.0
    assert u.cdf(0.4) == pytest.approx(0.5) and u.cdf(0.1) == 0.0 and u.cdf(0.6) == 1.0
    assert u.cdf(np.array([0.1, 0.4, 0.9])).shape == (3,) and u.cdf(np.zeros(0)).shape == (0,)


def test_quantile_table_atom_in_table():
    # flat value stretch over levels [0.4, 1.0]: an atom of mass 0.6 at 0.5
    t = QuantileTable([(0.0, 0.0), (0.4, 0.5), (1.0, 0.5)])
    assert t.cdf_left(0.5) == pytest.approx(0.4)
    assert t.tail_prob(0.5) == pytest.approx(0.6)
    assert t.cdf_left(0.51) == 1.0
    assert t.cdf(0.5) == 1.0
    assert t.cdf(0.25) == pytest.approx(t.cdf_left(0.25)) == pytest.approx(0.2)


def test_quantile_table_validation():
    with pytest.raises(ConfigError):
        QuantileTable([(0.0, 0.2)])
    with pytest.raises(ConfigError):
        QuantileTable([(0.1, 0.2), (1.0, 0.4)])            # must span level 0
    with pytest.raises(ConfigError):
        QuantileTable([(0.0, 0.4), (1.0, 0.2)])            # decreasing values
    with pytest.raises(ConfigError):
        QuantileTable([(0.0, 0.0), (0.5, 0.2), (0.5, 0.4), (1.0, 1.0)])  # jump


def test_quantile_table_sample_matches_cdf():
    rng = np.random.default_rng(23)
    t = QuantileTable([(0.0, 0.1), (0.3, 0.4), (1.0, 0.9)])
    u = rng.random(20000)
    x = t.sample(u)
    for q in (0.15, 0.4, 0.6, 0.85):
        assert np.mean(x < q) == pytest.approx(t.cdf_left(q), abs=0.02)
        assert np.mean(x <= q) == pytest.approx(t.cdf(q), abs=0.02)


# ---------------------------------------------------------------------------
# censoring models
# ---------------------------------------------------------------------------

def test_model_validation():
    with pytest.raises(ConfigError):
        CensoringModel("rectangle", {"tau1": QuantileTable.fixed(0.5)})
    with pytest.raises(ConfigError):
        CensoringModel("band_complement", {"k1": QuantileTable.fixed(0.2),
                                           "k2": QuantileTable.fixed(0.6)})
    with pytest.raises(ConfigError):
        CensoringModel("grid_product", {"region": FullSpace()})
    with pytest.raises(ConfigError):
        CensoringModel("nonsense")
    # a table reaching outside [0, 1] is refused when the model is built, naming its key
    with pytest.raises(ConfigError, match=r"^tau1 table values must lie in \[0, 1\], got 0\.5 to 1\.5$"):
        CensoringModel("rectangle", {"tau1": QuantileTable.uniform(0.5, 1.5),
                                     "tau2": QuantileTable.fixed(0.5)})
    with pytest.raises(ConfigError, match=r"^k1 table values must lie in \[0, 1\], got -0\.1 to 0\.5$"):
        CensoringModel("band_complement", {"k1": QuantileTable.uniform(-0.1, 0.5),
                                           "k2": QuantileTable.fixed(0.2), "c": 0.1})
    with pytest.raises(ConfigError, match=r"^k2 table values must lie in \[0, 1\]"):
        CensoringModel("band_complement", {"k1": QuantileTable.fixed(0.2),
                                           "k2": QuantileTable([(0, 0.5), (0.9, 1.0), (1, 1.2)]),
                                           "c": 0.1})


def test_sample_region_reproducible():
    model = CensoringModel("rectangle", {"tau1": QuantileTable.uniform(0.2, 0.9),
                                         "tau2": QuantileTable.uniform(0.2, 0.9)})
    (a, ia), (b, ib) = (model.sample_regions(5, np.random.default_rng(3)) for _ in range(2))
    assert list(a) == list(b) and np.array_equal(ia, ib) and ia.tolist() == list(range(5))
    for r in a:
        assert 0.2 <= r.corner[0] <= 0.9 and 0.2 <= r.corner[1] <= 0.9


def test_band_model_orders_draws():
    model = CensoringModel("band_complement", {"k1": QuantileTable.uniform(0.0, 1.0),
                                               "k2": QuantileTable.uniform(0.0, 1.0),
                                               "c": 0.1})
    rng = np.random.default_rng(5)
    regions, _ = model.sample_regions(40, rng)
    for r in regions:
        assert r.k1 <= r.k2 and r.c == 0.1


def test_drawn_regions_are_parameter_columns_from_one_draw():
    # the parameters and the rng state afterwards are those of one region object per subject
    rect = CensoringModel("rectangle", {"tau1": QuantileTable.uniform(0.3, 0.9),
                                        "tau2": QuantileTable([(0, 0.5), (0.5, 0.5), (1, 1.0)])})
    band = CensoringModel("band_complement", {"k1": QuantileTable.uniform(0.1, 0.5),
                                              "k2": QuantileTable.uniform(0.4, 0.8), "c": 0.2})
    frozen = {1: [("0x1.6937239ab0990p-1", "0x1.0000000000000p-1"),
                  ("0x1.f153cbc0c329cp-2", "0x1.99539ec7d13e7p-1"),
                  ("0x1.cb82a9e319314p-1", "0x1.0000000000000p-1"),
                  ("0x1.6391a7e215418p-2", "0x1.0000000000000p-1")],
              2: [("0x1.7b3873bd2fbaep-2", "0x1.f1630439bf6c8p-2", "0x1.999999999999ap-3"),
                  ("0x1.ca4d9834376adp-3", "0x1.7087d91cba190p-1", "0x1.999999999999ap-3"),
                  ("0x1.d3dbafd1b9c4bp-2", "0x1.fe47d1731085ep-2", "0x1.999999999999ap-3"),
                  ("0x1.0d4abdb5fa354p-3", "0x1.e3aa59e377304p-2", "0x1.999999999999ap-3")]}
    for kind, model in ((1, rect), (2, band)):
        rng = np.random.default_rng(2024)
        regions, index = model.sample_regions(4, rng)
        assert index.tolist() == [0, 1, 2, 3] and regions.kind.tolist() == [kind] * 4
        assert regions.objects == [None] * 4
        assert [tuple(v.hex() for v in row[:len(frozen[kind][0])]) for row in regions.param.tolist()] \
            == frozen[kind]
        assert rng.random().hex() == "0x1.70474657a7bf8p-2"
        assert list(regions) == ([LowerRect(r[:2]) for r in regions.param.tolist()] if kind == 1
                                 else [BandComplement(*r) for r in regions.param.tolist()])
    layer = LowerLayer(((0.5, 0.5),))
    regions, index = CensoringModel("lower_layer", {"region": layer}).sample_regions(6, None)
    assert len(regions) == 1 and regions[0] is layer and index.tolist() == [0] * 6


def test_inclusion_prob_rectangle_closed_form():
    model = CensoringModel("rectangle", {"tau1": QuantileTable.uniform(0.5, 1.0),
                                         "tau2": QuantileTable.uniform(0.5, 1.0)})
    # P(tau1 >= 0.75) = 0.5 and P(tau2 >= 0.25) = 1
    assert inclusion_prob(model, 0.75, 0.25) == pytest.approx(0.5)
    assert inclusion_prob(model, 0.75, 0.75) == pytest.approx(0.25)
    # joint inclusion is the tail at the componentwise join
    j = joint_inclusion_prob(model, 0.6, 0.1, 0.75, 0.2)
    assert j == pytest.approx(0.5)


def test_inclusion_prob_fixed_region_is_indicator():
    model = CensoringModel("lower_layer",
                           {"region": LowerLayer(((0.3, 0.8), (0.7, 0.4)))})
    assert inclusion_prob(model, 0.6, 0.3) == 1.0
    assert inclusion_prob(model, 0.6, 0.5) == 0.0
    assert joint_inclusion_prob(model, 0.6, 0.3, 0.2, 0.7) == 1.0


def test_band_inclusion_is_the_indicator_for_a_fixed_band():
    # point-mass parameters always draw the same region, so inclusion is its indicator
    model = CensoringModel("band_complement", {"k1": QuantileTable.fixed(0.3),
                                               "k2": QuantileTable.fixed(0.6),
                                               "c": 0.2})
    region = BandComplement(0.3, 0.6, 0.2)
    # inside, above the strip, left of k1, and on each boundary of the open band
    pts = np.array([[0.4, 0.45], [0.4, 0.9], [0.1, 0.15], [0.3, 0.35], [0.6, 0.65],
                    [0.45, 0.45], [0.4, 0.4 + 0.2]])
    want = contains(region, pts).astype(float)
    assert want.tolist() == [0.0, 1.0, 1.0, 1.0, 1.0, 1.0, 1.0]
    assert np.array_equal(inclusion_prob(model, *pts.T), want)
    other = np.array([[0.1, 0.15], [0.7, 0.75], [0.5, 0.55], [0.6, 0.65], [0.35, 0.4], [0.2, 0.1],
                      [0.5, 0.5]])
    want = (contains(region, pts) & contains(region, other)).astype(float)
    assert want.tolist() == [0.0, 1.0, 0.0, 1.0, 0.0, 1.0, 1.0]
    assert np.array_equal(joint_inclusion_prob(model, *pts.T, *other.T), want)
    assert joint_inclusion_prob(model, 0.1, 0.15, 0.4, 0.9) == 1.0
    # coordinates broadcast against each other
    assert np.array_equal(joint_inclusion_prob(model, *pts.T, 0.6, 0.65), inclusion_prob(model, *pts.T))
    assert joint_inclusion_prob(model, *pts.T[:, :, None], *other.T).shape == (7, 7)
    assert inclusion_prob(model, 0.35, 0.4) == 0.0


def test_band_inclusion_hand_computed_uniform_cases():
    # k1 = 0.2 and k2 ~ U(0.2, 1): at (0.5, 0.55) the point is censored iff k2 > 0.5,
    # so P = P(k2 <= 0.5) = 0.375
    model = CensoringModel("band_complement", {"k1": QuantileTable.fixed(0.2),
                                               "k2": QuantileTable.uniform(0.2, 1.0),
                                               "c": 0.15})
    assert inclusion_prob(model, 0.5, 0.55) == 0.375
    # both (0.5, 0.55) and (0.6, 0.7) are kept iff k2 <= 0.5
    assert joint_inclusion_prob(model, 0.5, 0.55, 0.6, 0.7) == 0.375
    assert joint_inclusion_prob(model, 0.6, 0.7, 0.5, 0.55) == 0.375
    # below k1, or outside the strip, a point is always kept
    assert inclusion_prob(model, np.array([0.2, 0.1, 0.5]), np.array([0.25, 0.15, 0.7])).tolist() == [1.0] * 3
    # A, B ~ U(0, 1) independent: P(t1 in (min, max)) = 2 t1 (1 - t1); for pairs in the strip
    # P(both in the band) = 2 u (1 - v) with u <= v their first coordinates
    both = CensoringModel("band_complement", {"k1": QuantileTable.uniform(0.0, 1.0),
                                              "k2": QuantileTable.uniform(0.0, 1.0), "c": 0.5})
    assert inclusion_prob(both, 0.25, 0.5) == pytest.approx(1.0 - 2 * 0.25 * 0.75, abs=1e-15)
    s, t = (0.25, 0.5), (0.5, 0.75)
    want = 1.0 - 2 * 0.25 * 0.75 - 2 * 0.5 * 0.5 + 2 * 0.25 * 0.5
    assert joint_inclusion_prob(both, *s, *t) == pytest.approx(want, abs=1e-15)
    assert joint_inclusion_prob(both, *t, *s) == joint_inclusion_prob(both, *s, *t)
    assert joint_inclusion_prob(both, *s, *s) == inclusion_prob(both, *s)


_FAMILY_MODELS = {
    "full": CensoringModel("full"),
    "rectangle": CensoringModel("rectangle", {"tau1": QuantileTable.uniform(0.3, 0.9),
                                              "tau2": QuantileTable([(0.0, 0.2), (0.5, 0.6),
                                                                     (1.0, 1.0)])}),
    "grid_product": CensoringModel("grid_product", {"region": GridProduct(
        ((0.0, 0.3), (0.5, 1.0)), ((0.0, 0.6), (0.7, 0.9)))}),
    "band_complement": CensoringModel("band_complement", {"k1": QuantileTable.uniform(0.1, 0.5),
                                                          "k2": QuantileTable.uniform(0.3, 0.9),
                                                          "c": 0.2}),
    "lower_layer": CensoringModel("lower_layer", {"region": LowerLayer(((0.3, 0.8), (0.7, 0.4)))}),
    "raster": CensoringModel("raster", {"region": Raster(4, np.tri(4, k=1, dtype=bool))}),
}


@pytest.mark.parametrize("family", sorted(_FAMILY_MODELS))
def test_inclusion_on_axes_matches_the_point_lattice(family):
    # an x column against a y row gives the bits of the same call at every lattice point, and a
    # fixed region's coordinate form is its point form
    model = _FAMILY_MODELS[family]
    mx, my = np.linspace(0.0, 1.0, 41), np.linspace(0.0, 1.0, 37) ** 2
    x, y, pts = mx[:, None], my[None, :], lattice(mx, my)
    px, py = pts[..., 0], pts[..., 1]
    on_axes = inclusion_prob(model, x, y)
    assert on_axes.shape == (41, 37)
    assert np.array_equal(on_axes, inclusion_prob(model, px, py))
    assert np.array_equal(joint_inclusion_prob(model, x, y, 0.45, 0.55),
                          joint_inclusion_prob(model, px, py, 0.45, 0.55))
    if "region" in model.params:
        region = model.params["region"]
        assert np.array_equal(region.at(x, y), contains(region, pts))
        assert np.array_equal(on_axes, contains(region, pts).astype(float))


# three table shapes: overlapping uniforms; atoms inside tables (mass 0.4 at 0.2 and 0.1 at
# 0.7) with overlapping ranges; a point mass against a uniform whose range straddles it
_ORACLE_MODELS = {
    "uniform": CensoringModel("band_complement", {"k1": QuantileTable.uniform(0.1, 0.5),
                                                  "k2": QuantileTable.uniform(0.3, 0.9), "c": 0.2}),
    "atoms": CensoringModel("band_complement", {
        "k1": QuantileTable([(0.0, 0.2), (0.4, 0.2), (0.8, 0.5), (1.0, 0.7)]),
        "k2": QuantileTable([(0.0, 0.4), (0.5, 0.7), (0.6, 0.7), (1.0, 0.9)]), "c": 0.25}),
    "point_mass": CensoringModel("band_complement", {"k1": QuantileTable.fixed(0.3),
                                                     "k2": QuantileTable.uniform(0.1, 0.8),
                                                     "c": 0.3}),
}


@pytest.mark.parametrize("name", sorted(_ORACLE_MODELS))
def test_band_inclusion_matches_monte_carlo_oracle(name):
    # the share of 10^5 drawn regions that hold the points lies within 5 SE of the closed form
    model = _ORACLE_MODELS[name]
    draws = 100_000
    regions, index = model.sample_regions(draws, np.random.default_rng(11))
    k1, k2, c = (v[:, None] for v in regions.param[index].T)

    def member(p):
        x, y = p[:, 0], p[:, 1]
        return ~((k1 < x) & (x < k2) & (x < y) & (y < x + c))

    def close(closed, mc):
        # within 5 SE of the closed form, so equal where it is 0 or 1
        bound = 5.0 * np.sqrt(closed * (1.0 - closed) / draws) + 1e-12
        assert np.all(np.abs(closed - mc) <= bound), np.max(np.abs(closed - mc) - bound)

    # Grid(8) nodes, then every band edge: x on a table atom or range end, y on the diagonal,
    # just above it, inside the strip or on the strip's top
    atoms = np.array([0.2, 0.3, 0.4, 0.5, 0.7, 0.8, 0.9])
    edges = np.array([(x, y) for x in atoms for y in (x, x + 1e-3, x + 0.1, x + model.params["c"])])
    pts = np.concatenate([Grid(8).nodes(), edges])
    held = np.ascontiguousarray(member(pts).T)          # held[k, r]: draw r holds point k
    # the column membership is the region objects' own membership
    for r in range(0, draws, draws // 50):
        assert np.array_equal(held[:, r], contains(regions[r], pts))
    close(inclusion_prob(model, *pts.T), held.mean(axis=1))
    # node k is (i, j) with k = 8 j + i; pairs of neighbours along x and along y, and pairs of
    # edge points reversed, shifted and with themselves
    k = np.arange(64).reshape(8, 8)
    e = 64 + np.arange(len(edges))
    for i, j in ((k[:, :-1], k[:, 1:]), (k[:-1], k[1:]), (e, e[::-1]), (e, np.roll(e, 4)), (e, e)):
        i, j = i.ravel(), j.ravel()
        close(joint_inclusion_prob(model, *pts[i].T, *pts[j].T), (held[i] & held[j]).mean(axis=1))


def test_validate_censoring():
    full = CensoringModel("full")
    diag = validate_censoring(full, Grid(5))
    assert diag.passed and diag.min_inclusion == 1.0 and diag.lipschitz_ratio == 0.0
    rect = CensoringModel("rectangle", {"tau1": QuantileTable.uniform(0.5, 1.0),
                                        "tau2": QuantileTable.uniform(0.5, 1.0)})
    diag = validate_censoring(rect, Grid(5))
    assert not diag.passed                 # inclusion vanishes on the far edge
    assert diag.min_inclusion == 0.0
    assert 1.0 in diag.argmin_node
    diag = validate_censoring(rect, Grid(5, (0.85, 0.85)))
    assert diag.passed
    assert diag.min_inclusion == pytest.approx((0.15 / 0.5) ** 2)
    with pytest.raises(ConfigError):
        validate_censoring(full, Grid(5), epsilon=1.5)


# ---------------------------------------------------------------------------
# JSON codecs
# ---------------------------------------------------------------------------

def test_region_json_round_trip():
    rng = np.random.default_rng(29)
    regions = [FullSpace(), LowerRect((0.3, 0.8)),
               GridProduct(((0.0, 0.2), (0.5, 1.0)), ((0.0, 0.9),)),
               BandComplement(0.1, 0.7, 0.2),
               LowerLayer(((0.2, 0.9), (0.8, 0.3))),
               Raster(4, rng.random((4, 4)) < 0.5)]
    for r in regions:
        back = region_from_json(region_to_json(r))
        assert back == r


def test_region_json_errors():
    with pytest.raises(DataError):
        region_from_json({"kind": "hexagon"})
    with pytest.raises(DataError):
        region_from_json({"kind": "full", "extra": 1})
    with pytest.raises(DataError):
        region_from_json({"kind": "raster", "m": 2, "mask": "101"})
    with pytest.raises(DataError):
        region_from_json({"kind": "rectangle", "tau": [1.5, 0.5]})
    with pytest.raises(DataError):
        region_from_json([1, 2])
    with pytest.raises(DataError, match="region: y is required"):
        region_from_json({"kind": "grid_product", "x": [[0.0, 1.0]]})


def test_censoring_model_json_errors():
    with pytest.raises(ConfigError):
        CENSORING_MODEL.decode({"family": "full", "bogus": 1})
    with pytest.raises(ConfigError):
        CENSORING_MODEL.decode({"no_family": True})
    fixed = {"kind": "fixed", "value": 0.5}
    for bad in ({"family": "band_complement", "k1": fixed, "k2": fixed},
                    {"family": "rectangle", "tau1": {"kind": "fixed"}, "tau2": fixed},
                    {"family": "rectangle", "tau1": fixed, "tau2": "uniform"},
                    {"family": "full", "mc_prob_samples": 2.7}):
        with pytest.raises(ConfigError):
            CENSORING_MODEL.decode(bad)
