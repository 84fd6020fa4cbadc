import math

import numpy as np
import pytest

from bihazard.errors import ConfigError, DomainError
from bihazard.geometry import LowerRect, lattice
from bihazard.models import (MODEL, FgmModel, TableMarginal, TruncatedExponential,
                             UniformMarginal, conditional_quantile, copula_cdf,
                             copula_density, copula_survival, fgm_order_region,
                             integrated_hazard)
from bihazard.quadrature import QuadratureSpec


def test_uniform_marginal():
    m = UniformMarginal()
    x = np.array([0.0, 0.25, 1.0])
    assert np.array_equal(m.cdf(x), x)
    assert np.array_equal(m.quantile(x), x)
    assert np.array_equal(m.pdf(x), np.ones(3))
    assert m.pdf(1.5) == 0.0


def test_truncated_exponential():
    m = TruncatedExponential(2.0)
    assert m.cdf(0.0) == 0.0
    assert m.cdf(1.0) == pytest.approx(1.0)
    rng = np.random.default_rng(31)
    x = rng.random(50)
    assert np.allclose(m.cdf(m.quantile(x)), x)
    assert np.allclose(m.quantile(m.cdf(x)), x)
    # pdf is the cdf derivative
    h = 1e-6
    mid = np.linspace(0.1, 0.9, 9)
    num = (m.cdf(mid + h) - m.cdf(mid - h)) / (2 * h)
    assert np.allclose(m.pdf(mid), num, rtol=1e-5)
    with pytest.raises(ConfigError):
        TruncatedExponential(0.0)


def test_table_marginal():
    m = TableMarginal([(0.0, 0.0), (0.4, 0.7), (1.0, 1.0)])
    assert m.cdf(0.2) == pytest.approx(0.35)
    assert m.quantile(0.35) == pytest.approx(0.2)
    assert m.pdf(0.2) == pytest.approx(0.7 / 0.4)
    assert m.pdf(0.7) == pytest.approx(0.3 / 0.6)
    with pytest.raises(ConfigError):
        TableMarginal([(0.0, 0.0), (1.0, 0.9)])
    with pytest.raises(ConfigError):
        TableMarginal([(0.0, 0.0), (0.5, 0.8), (0.6, 0.8), (1.0, 1.0)])


def test_copula_identities():
    rng = np.random.default_rng(37)
    for theta in (-1.0, -0.4, 0.0, 0.7, 1.0):
        u, v = rng.random(30), rng.random(30)
        # margins
        assert np.allclose(copula_cdf(u, np.ones(30), theta), u)
        assert np.allclose(copula_cdf(np.ones(30), v, theta), v)
        # inclusion-exclusion ties survival to the cdf
        want = 1.0 - u - v + copula_cdf(u, v, theta)
        assert np.allclose(copula_survival(u, v, theta), want)
    assert copula_survival(0.0, 0.0, 0.5) == 1.0


def test_copula_density_integrates_to_one():
    k = 400
    mids = (np.arange(k) + 0.5) / k
    u, v = np.meshgrid(mids, mids, indexing="ij")
    for theta in (-1.0, 0.3, 1.0):
        total = copula_density(u, v, theta).sum() / (k * k)
        assert total == pytest.approx(1.0, abs=1e-9)


def test_conditional_quantile_inverts_conditional_cdf():
    rng = np.random.default_rng(41)
    u = rng.random(200)
    p = rng.random(200)
    for theta in (-0.9, 0.0, 0.25, 1.0):
        v = conditional_quantile(u, p, theta)
        assert np.all((v >= 0.0) & (v <= 1.0))
        a = theta * (1.0 - 2.0 * u)
        cond_cdf = v + a * v * (1.0 - v)
        assert np.allclose(cond_cdf, p, atol=1e-12)
    # the linear fallback at u = 1/2
    assert conditional_quantile(0.5, 0.37, 0.9) == pytest.approx(0.37)


def test_fgm_order_region_frozen_points():
    assert fgm_order_region(0.0, 0.0)            # 1 > 0
    assert fgm_order_region(0.1, 0.1)
    assert not fgm_order_region(0.5, 0.5)        # 1 - 2 + 0.75 < 0
    assert not fgm_order_region(0.5, 0.0)        # boundary value 0 excluded (strict)
    assert not fgm_order_region(0.0, 0.5)
    out = fgm_order_region(np.array([0.0, 0.4]), np.array([0.0, 0.4]))
    assert out.tolist() == [True, False]


def test_fgm_model_validation():
    with pytest.raises(ConfigError):
        FgmModel(theta=1.2)
    with pytest.raises(ConfigError):
        FgmModel(theta=-1.01)


def test_fgm_model_frozen_values():
    m = FgmModel(theta=0.5)
    assert m.survival(0.5, 0.5) == pytest.approx(0.25 * (1 + 0.5 * 0.25))
    z = FgmModel(theta=0.0)
    assert z.hazard(0.5, 0.5) == pytest.approx(4.0)
    one = FgmModel(theta=1.0)
    assert one.density(0.0, 0.0) == pytest.approx(2.0)
    assert z.hazard(1.0, 1.0) == 0.0           # survival vanishes there


def test_fgm_hazard_is_density_over_survival():
    rng = np.random.default_rng(43)
    m = FgmModel(theta=-0.6, marginal_x=TruncatedExponential(1.5))
    x, y = rng.random((2, 50)) * 0.95
    h = m.hazard(x, y)
    assert np.allclose(h, m.density(x, y) / m.survival(x, y))
    # a column of x against a row of y gives every pair
    assert np.array_equal(m.hazard(x[:, None], y[None, :])[np.arange(50), np.arange(50)], h)


_MARGINALS = {"uniform": UniformMarginal(), "truncated_exponential": TruncatedExponential(1.5),
              "table": TableMarginal([(0.0, 0.0), (0.4, 0.7), (1.0, 1.0)])}


@pytest.mark.parametrize("name", sorted(_MARGINALS))
def test_fgm_on_axes_matches_the_point_lattice(name):
    # a mesh evaluated as an x column against a y row gives the bits of the same functions at
    # every point of the (k, k, 2) lattice; the axes end at 1, where the survival vanishes
    m = FgmModel(theta=-0.7, marginal_x=_MARGINALS[name], marginal_y=TruncatedExponential(0.8))
    for k in (257, 700):
        mx, my = np.linspace(0.0, 1.0, k), np.linspace(0.0, 1.0, k + 3) ** 2
        pts = lattice(mx, my)
        for f in (m.survival, m.density, m.hazard):
            on_axes = f(mx[:, None], my[None, :])
            assert on_axes.shape == (k, k + 3)
            assert np.array_equal(on_axes, f(pts[..., 0], pts[..., 1]))


def test_fgm_sample_marginals_and_dependence():
    rng = np.random.default_rng(47)
    n = 20000
    for theta in (-0.9, 0.0, 0.9):
        s = FgmModel(theta=theta).sample(n, rng)
        assert s.shape == (n, 2)
        # uniform marginals
        for j in (0, 1):
            grid = np.linspace(0.05, 0.95, 19)
            emp = np.mean(s[:, j][:, None] <= grid[None, :], axis=0)
            assert np.max(np.abs(emp - grid)) < 0.02
        # FGM rank correlation (Spearman) is theta / 3
        rx = np.argsort(np.argsort(s[:, 0]))
        ry = np.argsort(np.argsort(s[:, 1]))
        rho = np.corrcoef(rx, ry)[0, 1]
        assert rho == pytest.approx(theta / 3.0, abs=0.025)


def test_fgm_sample_respects_marginals():
    rng = np.random.default_rng(53)
    m = FgmModel(theta=0.4, marginal_x=TruncatedExponential(2.0),
                 marginal_y=TableMarginal([(0.0, 0.0), (0.5, 0.2), (1.0, 1.0)]))
    s = m.sample(20000, rng)
    for j, marg in ((0, m.marginal_x), (1, m.marginal_y)):
        for q in (0.2, 0.5, 0.8):
            assert np.mean(s[:, j] <= q) == pytest.approx(float(marg.cdf(q)), abs=0.02)


def test_integrated_hazard_closed_form():
    # theta = 0 uniform: H([0,(a,b)]) = log(1/(1-a)) * log(1/(1-b))
    m = FgmModel(theta=0.0)
    res = integrated_hazard(m, LowerRect((0.5, 0.5)))
    assert res.converged
    assert res.value == pytest.approx(math.log(2.0) ** 2, rel=1e-6)
    res = integrated_hazard(m, LowerRect((0.3, 0.7)))
    want = -math.log(0.7) * -math.log(0.3)
    assert res.value == pytest.approx(want, rel=1e-6)


def test_integrated_hazard_domain_errors():
    m = FgmModel(theta=0.0)
    with pytest.raises(DomainError):
        integrated_hazard(m, LowerRect((1.0, 1.0)))          # touches S = 0
    with pytest.raises(ConfigError, match=r"rectangle corner must lie in \[0,1\]\^2"):
        LowerRect((1.1, 0.5))                                # leaves the square: refused at construction
    assert float(integrated_hazard(m, LowerRect((0.0, 0.5)))) == 0.0


def test_integrated_hazard_converged_flag():
    m = FgmModel(theta=0.9)
    spec = QuadratureSpec(initial=1, rtol=1e-12, max_resolution=2)
    res = integrated_hazard(m, LowerRect((0.6, 0.6)), spec)
    assert not res.converged


def test_model_json_errors():
    with pytest.raises(ConfigError):
        MODEL.decode({"theta": 0.2, "unknown": 1})
    with pytest.raises(ConfigError):
        MODEL.decode({"marginalF": {"kind": "cauchy"}})
    with pytest.raises(ConfigError):
        MODEL.decode({"marginalF": {"kind": "uniform", "extra": 2}})
    with pytest.raises(ConfigError, match="theta must be a number"):
        MODEL.decode({"theta": "0.5"})
