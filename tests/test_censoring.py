import numpy as np
import pytest

from bihazard.censoring import (BandComplement, CensoringModel, FullSpace, GridProduct,
                                LowerLayer, QuantileTable, Raster, Rectangle,
                                censoring_model_from_json, censoring_model_to_json,
                                contains, inclusion_prob, joint_inclusion_prob,
                                observable_core, rasterize, region_from_json,
                                region_to_json, validate_censoring)
from bihazard.errors import ConfigError, DataError
from bihazard.geometry import Grid


# scalar reference predicates, written independently of the library
def _ref_member(region, x, y):
    if isinstance(region, FullSpace):
        return True
    if isinstance(region, Rectangle):
        return x <= region.tau[0] and y <= region.tau[1]
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
        return Rectangle(tuple(np.sort(rng.random(2))))
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
    out = contains(Rectangle((0.5, 0.5)), (0.2, 0.2))
    assert out is True or out is False


def test_rectangle_boundary_closed():
    r = Rectangle((0.4, 0.7))
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
        Rectangle((1.2, 0.5))
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
    u = QuantileTable.uniform(0.2, 0.6)
    assert u.sample(0.5) == pytest.approx(0.4)
    assert u.cdf_left(0.4) == pytest.approx(0.5)
    assert u.tail_prob(0.2) == 1.0
    assert u.tail_prob(0.6) == 0.0
    assert u.cdf_left(0.1) == 0.0
    assert u.cdf_left(0.9) == 1.0


def test_quantile_table_atom_in_table():
    # flat value stretch over levels [0.4, 1.0]: an atom of mass 0.6 at 0.5
    t = QuantileTable([(0.0, 0.0), (0.4, 0.5), (1.0, 0.5)])
    assert t.cdf_left(0.5) == pytest.approx(0.4)
    assert t.tail_prob(0.5) == pytest.approx(0.6)
    assert t.cdf_left(0.51) == 1.0


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


def test_deterministic_and_fixed_region():
    full = CensoringModel("full")
    assert full.deterministic
    assert isinstance(full.fixed_region(), FullSpace)
    fixed = CensoringModel("rectangle", {"tau1": QuantileTable.fixed(0.5),
                                         "tau2": QuantileTable.fixed(0.7)})
    assert fixed.deterministic
    assert fixed.fixed_region() == Rectangle((0.5, 0.7))
    rand = CensoringModel("rectangle", {"tau1": QuantileTable.uniform(0.5, 1.0),
                                        "tau2": QuantileTable.fixed(0.7)})
    assert not rand.deterministic
    with pytest.raises(ConfigError):
        rand.fixed_region()


def test_sample_region_reproducible():
    model = CensoringModel("rectangle", {"tau1": QuantileTable.uniform(0.2, 0.9),
                                         "tau2": QuantileTable.uniform(0.2, 0.9)})
    a = model.sample_regions(5, np.random.default_rng(3))
    b = model.sample_regions(5, np.random.default_rng(3))
    assert a == b
    for r in a:
        assert 0.2 <= r.tau[0] <= 0.9 and 0.2 <= r.tau[1] <= 0.9


def test_band_model_orders_draws():
    model = CensoringModel("band_complement", {"k1": QuantileTable.uniform(0.0, 1.0),
                                               "k2": QuantileTable.uniform(0.0, 1.0),
                                               "c": 0.1})
    rng = np.random.default_rng(5)
    for r in model.sample_regions(40, rng):
        assert r.k1 <= r.k2 and r.c == 0.1


def test_inclusion_prob_rectangle_closed_form():
    model = CensoringModel("rectangle", {"tau1": QuantileTable.uniform(0.5, 1.0),
                                         "tau2": QuantileTable.uniform(0.5, 1.0)})
    # P(tau1 >= 0.75) = 0.5 and P(tau2 >= 0.25) = 1
    assert inclusion_prob(model, (0.75, 0.25)) == pytest.approx(0.5)
    p, se = inclusion_prob(model, (0.75, 0.75), with_se=True)
    assert p == pytest.approx(0.25) and se == 0.0
    # joint inclusion is the tail at the componentwise join
    j = joint_inclusion_prob(model, (0.6, 0.1), (0.75, 0.2))
    assert j == pytest.approx(0.5)


def test_inclusion_prob_fixed_region_is_indicator():
    model = CensoringModel("lower_layer",
                           {"region": LowerLayer(((0.3, 0.8), (0.7, 0.4)))})
    assert inclusion_prob(model, (0.6, 0.3)) == 1.0
    assert inclusion_prob(model, (0.6, 0.5)) == 0.0
    assert joint_inclusion_prob(model, (0.6, 0.3), (0.2, 0.7)) == 1.0


def test_inclusion_prob_monte_carlo_fallback():
    # a band model with point-mass parameters always draws the same region,
    # so the Monte Carlo estimate must hit the indicator exactly
    model = CensoringModel("band_complement", {"k1": QuantileTable.fixed(0.3),
                                               "k2": QuantileTable.fixed(0.6),
                                               "c": 0.2},
                           mc_prob_samples=400)
    region = BandComplement(0.3, 0.6, 0.2)
    pts = np.array([[0.4, 0.45], [0.4, 0.9], [0.1, 0.15]])
    got, se = inclusion_prob(model, pts, with_se=True)
    want = contains(region, pts).astype(float)
    assert np.array_equal(got, want)
    assert np.all(se == 0.0)
    # same model, same seed: identical output
    again = inclusion_prob(model, pts)
    assert np.array_equal(got, again)


def test_inclusion_prob_monte_carlo_accuracy():
    model = CensoringModel("band_complement", {"k1": QuantileTable.fixed(0.2),
                                               "k2": QuantileTable.uniform(0.2, 1.0),
                                               "c": 0.15},
                           mc_prob_samples=4000)
    # at (0.5, 0.55) the point is censored iff k2 > 0.5, so P = P(k2 <= 0.5) = 0.375
    p, se = inclusion_prob(model, (0.5, 0.55), with_se=True)
    assert se > 0.0
    assert p == pytest.approx(0.375, abs=4 * se + 1e-9)


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
    regions = [FullSpace(), Rectangle((0.3, 0.8)),
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
    with pytest.raises(DataError, match="needs keys"):
        region_from_json({"kind": "grid_product", "x": [[0.0, 1.0]]})


def test_censoring_model_json_round_trip():
    models = [
        CensoringModel("full"),
        CensoringModel("rectangle", {"tau1": QuantileTable.uniform(0.5, 1.0),
                                     "tau2": QuantileTable.fixed(0.8)}),
        CensoringModel("band_complement", {"k1": QuantileTable.fixed(0.2),
                                           "k2": QuantileTable.fixed(0.6),
                                           "c": 0.1}, mc_prob_samples=500, mc_seed=4),
        CensoringModel("raster", {"region": Raster(3, np.eye(3, dtype=bool))}),
    ]
    for m in models:
        back = censoring_model_from_json(censoring_model_to_json(m))
        assert back.family == m.family
        assert back.mc_prob_samples == m.mc_prob_samples
        assert back.mc_seed == m.mc_seed
        rng_a, rng_b = np.random.default_rng(1), np.random.default_rng(1)
        assert m.sample_region(rng_a) == back.sample_region(rng_b)


def test_censoring_model_json_errors():
    with pytest.raises(ConfigError):
        censoring_model_from_json({"family": "full", "bogus": 1})
    with pytest.raises(ConfigError):
        censoring_model_from_json({"no_family": True})
    fixed = {"kind": "fixed", "value": 0.5}
    for missing in ({"family": "band_complement", "k1": fixed, "k2": fixed},
                    {"family": "rectangle", "tau1": {"kind": "fixed"}, "tau2": fixed},
                    {"family": "rectangle", "tau1": fixed, "tau2": "uniform"}):
        with pytest.raises(ConfigError):
            censoring_model_from_json(missing)
