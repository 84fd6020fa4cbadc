import math
import tracemalloc

import numpy as np
import pytest

from bihazard.errors import ConfigError
from bihazard.geometry import LowerRect, PredicateRegion, lattice
from bihazard.models import FgmModel, TableMarginal, TruncatedExponential, UniformMarginal, integrated_hazard
from bihazard.quadrature import QuadratureSpec, integrate_region, mesh_sum, mesh_values, midpoints


def test_spec_validation():
    with pytest.raises(ConfigError):
        QuadratureSpec(initial=0)
    with pytest.raises(ConfigError):
        QuadratureSpec(initial=512, max_resolution=256)
    with pytest.raises(ConfigError):
        QuadratureSpec(rtol=0.0)


def test_midpoints():
    assert np.allclose(midpoints(1.0, 4), [0.125, 0.375, 0.625, 0.875])
    assert np.allclose(midpoints(0.5, 1), [0.25])


def test_constant_and_linear_exact():
    # the midpoint rule integrates affine functions exactly
    one = integrate_region(lambda x, y: 1.0, LowerRect((0.4, 0.9)))
    assert one.value == pytest.approx(0.36, abs=1e-12)
    assert one.converged
    lin = integrate_region(lambda x, y: x + 2 * y, LowerRect((0.5, 0.5)))
    # int over [0,1/2]^2 of x + 2y = (1/16)/2 + 2*(1/16)/2 * ... = a*b*(a+2b)/2
    want = 0.25 * (0.5 + 2 * 0.5) / 2
    assert lin.value == pytest.approx(want, abs=1e-12)


def test_smooth_function_converges():
    f = lambda x, y: np.exp(x) * np.cos(y)
    res = integrate_region(f, LowerRect((1.0, 1.0)), QuadratureSpec(initial=4))
    want = (math.e - 1.0) * math.sin(1.0)
    assert res.converged
    assert res.value == pytest.approx(want, rel=1e-6)


def _exp_difference(x, y):
    return np.exp(x - y)


@pytest.mark.parametrize("f,region,spec,want,rel", [
    # a masked rectangle against the same rectangle as a LowerRect
    (_exp_difference, PredicateRegion(lambda p: (p[..., 0] <= 0.5) & (p[..., 1] <= 0.75)),
     QuadratureSpec(initial=8, rtol=1e-5),
     integrate_region(_exp_difference, LowerRect((0.5, 0.75)), QuadratureSpec(initial=8)).value, 1e-3),
    # the quarter disk of radius 1/2 (inside [0, 1/2]^2) has area pi/16
    (lambda x, y: 1.0, PredicateRegion(lambda p: (p[..., 0] ** 2 + p[..., 1] ** 2) <= 0.25),
     QuadratureSpec(initial=64, rtol=1e-3), math.pi * 0.25 / 4.0, 5e-3),
    # the same disk from k = 8, where the estimates at 8 and 16 agree exactly, 3.45 % too high
    (lambda x, y: 1.0, PredicateRegion(lambda p: (p[..., 0] ** 2 + p[..., 1] ** 2) <= 0.25),
     QuadratureSpec(initial=8, rtol=1e-5), math.pi * 0.25 / 4.0, 1e-3)])
def test_masked_region_on_the_unit_square(f, region, spec, want, rel):
    assert integrate_region(f, region, spec).value == pytest.approx(want, rel=rel)


def test_zero_measure_box():
    res = integrate_region(lambda x, y: 1.0, LowerRect((0.0, 0.7)))
    assert res.value == 0.0 and res.converged


def test_unconverged_flag():
    f = lambda x, y: np.exp(5 * x) * np.sin(20 * y)
    res = integrate_region(f, LowerRect((1.0, 1.0)),
                           QuadratureSpec(initial=1, rtol=1e-14, max_resolution=4))
    assert not res.converged
    assert res.resolution == 4
    assert res.last_change > 0.0


def test_requires_region():
    with pytest.raises(ConfigError):
        integrate_region(lambda x, y: 1.0, "not a region")


def test_result_is_floatable():
    res = integrate_region(lambda x, y: 1.0, LowerRect((0.2, 0.2)))
    assert float(res) == pytest.approx(0.04, abs=1e-12)


@pytest.mark.parametrize("k", [1, 7, 100, 257, 384, 512, 700, 1024, 1600, 2048])
def test_mesh_sum_equals_whole_mesh_sum(k):
    # the mesh is cut where numpy's pairwise sum splits it; at 257 and 700 some ranges cut a row.
    # The reference evaluates the hazard point by point on the whole `lattice`.
    disk = PredicateRegion(lambda p: (p[..., 0] - 0.4) ** 2 + (p[..., 1] - 0.5) ** 2 <= 0.2)
    table = TableMarginal([(0.0, 0.0), (0.3, 0.45), (0.7, 0.8), (1.0, 1.0)])
    for marginals in ((UniformMarginal(), UniformMarginal()), (TruncatedExponential(1.5), table)):
        hazard = FgmModel(0.7, *marginals).hazard
        for box, mask in (((0.6, 0.8), None), ((1.0, 1.0), disk)):
            mesh = lattice(midpoints(box[0], k), midpoints(box[1], k))
            inside = True if mask is None else mask.contains(mesh)
            want = np.where(inside, hazard(mesh[..., 0], mesh[..., 1]), 0.0).sum()
            assert mesh_sum(hazard, box, k, mask) == want


def test_mesh_values_evaluates_once_per_key_and_is_read_only():
    calls, made = [], []

    def f(x, y):
        calls.append((x.shape, y.shape))
        made.append(x * y)
        return made[-1]

    first = mesh_values(f, (0.5, 1.0), 8)
    assert mesh_values(f, (0.5, 1.0), 8) is first
    assert calls == [((8, 1), (1, 8))]
    assert np.array_equal(first, np.multiply.outer(midpoints(0.5, 8), midpoints(1.0, 8)))
    mesh_values(f, (0.5, 1.0), 16)
    mesh_values(f, (1.0, 1.0), 8)
    assert calls == [((8, 1), (1, 8)), ((16, 1), (1, 16)), ((8, 1), (1, 8))]
    assert not first.flags.writeable and made[0].flags.writeable
    with pytest.raises(ValueError):
        first[0, 0] = 1.0

    def failing(x, y):
        calls.append("failed")
        raise ZeroDivisionError

    for _ in range(2):
        with pytest.raises(ZeroDivisionError):
            mesh_values(failing, (1.0, 1.0), 4)
    assert calls[-2:] == ["failed", "failed"]


@pytest.mark.parametrize("spec,converged,resolution,value", [
    (QuadratureSpec(), True, 2048, 2.4108251519313155),
    # a non-power-of-two start refines through k = 100 ... 1600, summed by the same bounded ranges
    (QuadratureSpec(initial=100, rtol=1e-9, max_resolution=1600), False, 1600, 2.4108248802818513)])
def test_integrated_hazard_memory_is_bounded(spec, converged, resolution, value):
    tracemalloc.start()
    try:
        res = integrated_hazard(FgmModel(0.3), LowerRect((0.8, 0.8)), spec)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert res.converged is converged and res.resolution == resolution and res.value == value
    assert peak < 8 * 2 ** 20
