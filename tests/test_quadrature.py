import math
import tracemalloc

import numpy as np
import pytest

from bihazard.errors import ConfigError
from bihazard.geometry import LowerRect, PredicateRegion, lattice
from bihazard.models import FgmModel, integrated_hazard
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
    one = integrate_region(lambda p: np.ones(p.shape[:-1]), LowerRect((0.4, 0.9)))
    assert one.value == pytest.approx(0.36, abs=1e-12)
    assert one.converged
    lin = integrate_region(lambda p: p[..., 0] + 2 * p[..., 1], LowerRect((0.5, 0.5)))
    # int over [0,1/2]^2 of x + 2y = (1/16)/2 + 2*(1/16)/2 * ... = a*b*(a+2b)/2
    want = 0.25 * (0.5 + 2 * 0.5) / 2
    assert lin.value == pytest.approx(want, abs=1e-12)


def test_smooth_function_converges():
    f = lambda p: np.exp(p[..., 0]) * np.cos(p[..., 1])
    res = integrate_region(f, LowerRect((1.0, 1.0)), QuadratureSpec(initial=4))
    want = (math.e - 1.0) * math.sin(1.0)
    assert res.converged
    assert res.value == pytest.approx(want, rel=1e-6)


def test_masked_region_matches_direct_rectangle():
    f = lambda p: np.exp(p[..., 0] - p[..., 1])
    direct = integrate_region(f, LowerRect((0.5, 0.75)), QuadratureSpec(initial=8))
    masked_region = PredicateRegion(lambda p: (p[..., 0] <= 0.5) & (p[..., 1] <= 0.75))
    masked = integrate_region(f, masked_region, QuadratureSpec(initial=8, rtol=1e-5))
    assert masked.value == pytest.approx(direct.value, rel=1e-3)


def test_zero_measure_box():
    res = integrate_region(lambda p: np.ones(p.shape[:-1]), LowerRect((0.0, 0.7)))
    assert res.value == 0.0 and res.converged


def test_bbox_argument():
    f = lambda p: np.ones(p.shape[:-1])
    disk = PredicateRegion(lambda p: (p[..., 0] ** 2 + p[..., 1] ** 2) <= 0.25)
    res = integrate_region(f, disk, QuadratureSpec(initial=64, rtol=1e-3),
                           bbox=(0.5, 0.5))
    assert res.value == pytest.approx(math.pi * 0.25 / 4.0, rel=5e-3)


def test_unconverged_flag():
    f = lambda p: np.exp(5 * p[..., 0]) * np.sin(20 * p[..., 1])
    res = integrate_region(f, LowerRect((1.0, 1.0)),
                           QuadratureSpec(initial=1, rtol=1e-14, max_resolution=4))
    assert not res.converged
    assert res.resolution == 4
    assert res.last_change > 0.0


def test_requires_region():
    with pytest.raises(ConfigError):
        integrate_region(lambda p: 1.0, "not a region")


def test_result_is_floatable():
    res = integrate_region(lambda p: np.ones(p.shape[:-1]), LowerRect((0.2, 0.2)))
    assert float(res) == pytest.approx(0.04, abs=1e-12)


@pytest.mark.parametrize("k", [100, 384, 512, 1024, 2048])
def test_mesh_sum_equals_whole_mesh_sum(k):
    # power-of-two k splits into row blocks whose sums combine pairwise as numpy's own sum does
    hazard = FgmModel(0.7).hazard
    disk = PredicateRegion(lambda p: (p[..., 0] - 0.4) ** 2 + (p[..., 1] - 0.5) ** 2 <= 0.2)
    for box, mask in (((0.6, 0.8), None), ((1.0, 1.0), disk)):
        mesh = lattice(midpoints(box[0], k), midpoints(box[1], k))
        inside = True if mask is None else mask.contains(mesh)
        want = np.where(inside, hazard(mesh), 0.0).sum()
        assert mesh_sum(hazard, box, k, mask) == want


def test_mesh_values_evaluates_once_per_key_and_is_read_only():
    calls, made = [], []

    def f(pts):
        calls.append(pts.shape)
        made.append(pts[..., 0] * pts[..., 1])
        return made[-1]

    first = mesh_values(f, (0.5, 1.0), 8)
    assert mesh_values(f, (0.5, 1.0), 8) is first
    assert calls == [(8, 8, 2)]
    assert np.array_equal(first, np.multiply.outer(midpoints(0.5, 8), midpoints(1.0, 8)))
    mesh_values(f, (0.5, 1.0), 16)
    mesh_values(f, (1.0, 1.0), 8)
    assert calls == [(8, 8, 2), (16, 16, 2), (8, 8, 2)]
    assert not first.flags.writeable and made[0].flags.writeable
    with pytest.raises(ValueError):
        first[0, 0] = 1.0

    def failing(pts):
        calls.append("failed")
        raise ZeroDivisionError

    for _ in range(2):
        with pytest.raises(ZeroDivisionError):
            mesh_values(failing, (1.0, 1.0), 4)
    assert calls[-2:] == ["failed", "failed"]


@pytest.mark.parametrize("spec,converged,resolution,bound_mb", [
    (QuadratureSpec(), True, 2048, 16),
    # a non-power-of-two start refines through k = 100 ... 1600, whose meshes are filled by rows
    (QuadratureSpec(initial=100, rtol=1e-9, max_resolution=1600), False, 1600, 40)])
def test_integrated_hazard_memory_is_bounded(spec, converged, resolution, bound_mb):
    tracemalloc.start()
    try:
        res = integrated_hazard(FgmModel(0.3), LowerRect((0.8, 0.8)), spec)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert res.converged is converged and res.resolution == resolution
    assert peak < bound_mb * 2 ** 20
