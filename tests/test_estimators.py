import dataclasses
import math
import tracemalloc
from collections.abc import Sequence

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bihazard import estimators as est
from bihazard.censoring import (BandComplement, CensoringModel, FullSpace, GridProduct,
                                LowerLayer, QuantileTable, Raster, contains,
                                observable_core, rasterize, region_from_json, region_to_json)
from bihazard.dominance import dominating_count_naive
from bihazard.errors import (ConfigError, DataError, DomainError, ObservabilityError,
                             QuantileRangeError, ReductionError)
from bihazard.estimators import (CensoredSample, SubjectRecord, asymptotic_cov, at_risk,
                                 compensator_residual, copula_nelson_aalen, counting,
                                 jump_masses, kaplan_meier, km_quantile,
                                 marginal_nelson_aalen, nelson_aalen,
                                 nelson_aalen_surface, simulate_sample, surface_values)
from bihazard.geometry import Grid, LowerRect, PredicateRegion
from bihazard.io import read_dataset, read_dataset_csv, write_dataset, write_dataset_csv
from bihazard.models import FgmModel, integrated_hazard
from bihazard.quadrature import QuadratureSpec, mesh_sum, mesh_values, midpoints

FULL = FullSpace()


def obs(point, censor=FULL):
    return SubjectRecord(censor=censor, status="observed", point=point)


def worked_uncensored():
    return CensoredSample([obs((0.2, 0.3)), obs((0.5, 0.6)), obs((0.4, 0.1))])


def worked_censored():
    # the middle subject watches only [0, 0.45] x [0, 1]; its point falls outside
    return CensoredSample([
        obs((0.2, 0.3)),
        SubjectRecord(censor=LowerRect((0.45, 1.0)), status="censored_latent",
                      latent=(0.5, 0.6)),
        obs((0.4, 0.1)),
    ])


def worked_censored_opaque():
    # same subjects in the minima-plus-flags form
    return CensoredSample([
        SubjectRecord(censor=LowerRect((1.0, 1.0)), status="censored_opaque",
                      minima=(0.2, 0.3), events=(1, 1)),
        SubjectRecord(censor=LowerRect((0.45, 1.0)), status="censored_opaque",
                      minima=(0.45, 0.6), events=(0, 1)),
        SubjectRecord(censor=LowerRect((1.0, 1.0)), status="censored_opaque",
                      minima=(0.4, 0.1), events=(1, 1)),
    ])


# ---------------------------------------------------------------------------
# record and sample validation
# ---------------------------------------------------------------------------

def test_record_validation():
    with pytest.raises(DataError):
        SubjectRecord(censor=FULL, status="mystery", point=(0.1, 0.1))
    with pytest.raises(DataError):
        SubjectRecord(censor=FULL, status="observed", point=(0.1, 1.2))
    with pytest.raises(DataError):
        SubjectRecord(censor=FULL, status="observed", point=(0.1, 0.1),
                      events=(1, 2))
    # the observed point must lie inside its region
    with pytest.raises(DataError):
        CensoredSample([obs((0.5, 0.5), censor=LowerRect((0.4, 0.4)))])
    # a latent point must lie outside
    with pytest.raises(DataError):
        CensoredSample([SubjectRecord(censor=LowerRect((0.6, 0.6)),
                                      status="censored_latent", latent=(0.5, 0.5))])
    with pytest.raises(DataError):
        CensoredSample([SubjectRecord(censor=FULL, status="observed")])
    with pytest.raises(DataError):
        CensoredSample([])
    # several records: the checks run over all of them at once and name the first offender
    grid = GridProduct(((0.0, 0.3), (0.6, 1.0)), ((0.0, 0.5),))
    box = LowerRect((0.4, 0.4))
    ok = [obs((0.2, 0.3), censor=grid), obs((0.1, 0.1), censor=box),
          SubjectRecord(censor=grid, status="censored_latent", latent=(0.5, 0.2))]
    cases = [
        (ok + [obs((0.5, 0.2), censor=grid), obs((0.9, 0.9), censor=box)], 3, "outside"),
        (ok[:1] + [SubjectRecord(censor=grid, status="censored_latent", latent=(0.7, 0.4))] + ok,
         1, "inside"),
        (ok + [obs((0.5, 0.1), censor=box)], 3, "outside"),
        (ok[:2] + [SubjectRecord(censor=box, status="censored_latent", latent=(0.3, 0.2))], 2, "inside"),
        (ok[:1] + [SubjectRecord(censor=box, status="censored_latent")], 1, "needs"),
    ]
    for records, bad, words in cases:
        with pytest.raises(DataError, match=rf"^record {bad}: .*{words}") as err:
            CensoredSample(records)
        assert type(err.value) is DataError


def test_opaque_record_validation():
    with pytest.raises(ObservabilityError):
        CensoredSample([SubjectRecord(censor=LowerLayer(((0.5, 1.0), (1.0, 0.5))),
                                      status="censored_opaque", minima=(0.2, 0.2), events=(1, 1))])
    # the full square is a box: an opaque record flagged (1, 1) under it fits as an observed one
    opaque_full = CensoredSample([SubjectRecord(censor=FULL, status="censored_opaque",
                                                minima=(0.2, 0.3), events=(1, 1)),
                                  obs((0.5, 0.6)), obs((0.4, 0.1))])
    assert np.array_equal(jump_masses(opaque_full), jump_masses(worked_uncensored()))
    # flagged observed but the minimum exceeds tau
    with pytest.raises(DataError):
        CensoredSample([SubjectRecord(censor=LowerRect((0.3, 0.3)),
                                      status="censored_opaque",
                                      minima=(0.4, 0.2), events=(1, 1))])
    # flagged censored so the minimum must sit exactly at tau
    with pytest.raises(DataError):
        CensoredSample([SubjectRecord(censor=LowerRect((0.3, 0.3)),
                                      status="censored_opaque",
                                      minima=(0.2, 0.2), events=(0, 1))])
    # several records: the first offender is named, with its own error class
    box = LowerRect((0.3, 0.3))
    grid = GridProduct(((0.0, 1.0),), ((0.0, 1.0),))

    def opaque(minima, events, censor=box):
        return SubjectRecord(censor=censor, status="censored_opaque", minima=minima, events=events)

    ok = [opaque((0.2, 0.1), (1, 1)), opaque((0.3, 0.25), (0, 1)), obs((0.5, 0.5))]
    cases = [
        (ok[:1] + [opaque((0.2, 0.2), (1, 1), censor=grid), opaque((0.2, 0.2), (1, 1), censor=FULL)],
         1, ObservabilityError, "rectangle censoring, got GridProduct"),
        (ok + [opaque((0.1, 0.4), (1, 1)), opaque((0.4, 0.1), (1, 1))], 3, DataError,
         "coordinate 1 flagged observed"),
        (ok[:2] + [opaque((0.3, 0.2), (1, 0))] + ok, 2, DataError, "coordinate 1 flagged censored"),
        (ok + [opaque((0.25, 0.3), (0, 1), censor=Raster(2, [[1, 1], [1, 0]]))], 3, ObservabilityError,
         "got Raster"),
    ]
    for records, bad, error, words in cases:
        with pytest.raises(error, match=rf"^record {bad}: .*{words}") as err:
            CensoredSample(records)
        assert type(err.value) is error


def test_event_mask():
    s = worked_censored_opaque()
    assert s.event_mask.tolist() == [True, False, True]
    assert s.event_points.shape == (2, 2)
    t = worked_censored()
    assert t.event_mask.tolist() == [True, False, True]


# ---------------------------------------------------------------------------
# at-risk, counting, Nelson-Aalen on the worked sample
# ---------------------------------------------------------------------------

def test_at_risk_worked_values():
    s = worked_uncensored()
    assert at_risk(s, (0.0, 0.0)) == 3
    assert at_risk(s, (0.2, 0.3)) == 2
    assert isinstance(at_risk(s, (0.2, 0.3)), int)
    c = worked_censored()
    assert at_risk(c, (0.4, 0.1)) == 2
    o = worked_censored_opaque()
    assert at_risk(o, (0.4, 0.1)) == 2
    # vectorized query keeps the input shape
    out = at_risk(s, np.array([[[0.0, 0.0], [0.9, 0.9]]]))
    assert out.shape == (1, 2)
    assert out.tolist() == [[3, 0]]


def test_counting():
    s = worked_uncensored()
    assert counting(s, LowerRect((1.0, 1.0))) == 3
    assert counting(s, LowerRect((0.45, 0.65))) == 2
    assert counting(worked_censored(), LowerRect((1.0, 1.0))) == 2
    empty = PredicateRegion(lambda p: np.zeros(p.shape[:-1], dtype=bool))
    assert counting(s, empty) == 0


def test_nelson_aalen_worked_values():
    s = worked_uncensored()
    assert nelson_aalen(s, LowerRect((1.0, 1.0))) == pytest.approx(2.0, abs=0)
    assert nelson_aalen(s, LowerRect((0.45, 0.65))) == pytest.approx(1.0, abs=0)
    empty = PredicateRegion(lambda p: np.zeros(p.shape[:-1], dtype=bool))
    assert nelson_aalen(s, empty) == 0.0
    assert nelson_aalen(worked_censored(), LowerRect((1.0, 1.0))) == pytest.approx(1.0, abs=0)
    assert nelson_aalen(worked_censored_opaque(), LowerRect((1.0, 1.0))) == pytest.approx(1.0, abs=0)


def test_nelson_aalen_sums_left_to_right(monkeypatch):
    # bit for bit the sequential float sum, on masses spread over many magnitudes
    rng = np.random.default_rng(29)
    s = simulate_sample(FgmModel(0.2), CensoringModel("full"), 300, rng)
    region = LowerRect((0.6, 0.7))
    sel = np.asarray(region.contains(s.event_points), dtype=bool)
    for _ in range(200):
        masses = rng.random(s.n) * 10.0 ** rng.integers(-8, 8, size=s.n)
        monkeypatch.setattr(est, "jump_masses", lambda sample, weights=None: masses)
        want = 0.0
        for w in masses[sel]:
            want += float(w)
        got = nelson_aalen(s, region)
        assert type(got) is float and got == want
    monkeypatch.setattr(est, "jump_masses", lambda sample, weights=None: masses)
    assert nelson_aalen(s, LowerRect((1e-9, 1e-9))) == 0.0


def test_opaque_equals_latent_on_worked_sample():
    a, b = worked_censored(), worked_censored_opaque()
    rng = np.random.default_rng(71)
    q = rng.random((100, 2))
    # the censored subject's minima pin the at-risk indicator wherever it is needed
    assert np.array_equal(at_risk(a, q), at_risk(b, q))
    for corner in [(0.45, 0.65), (1.0, 1.0), (0.3, 0.2)]:
        assert nelson_aalen(a, LowerRect(corner)) == nelson_aalen(b, LowerRect(corner))


def _scanned(monkeypatch, fit, sample):
    """fit of a fresh copy of sample (no cached masses), with every unweighted dominance count
    made by the quadratic reference scan."""
    calls = []
    with monkeypatch.context() as m:
        m.setattr(est, "dominating_count", lambda *a: calls.append(1) or dominating_count_naive(*a))
        out = fit(sample.take(np.arange(sample.n)))
    assert calls
    return out


def test_jump_masses_cache_and_paths(monkeypatch):
    s = worked_uncensored()
    a = jump_masses(s)
    assert jump_masses(s) is a
    assert np.array_equal(_scanned(monkeypatch, jump_masses, s), a)
    assert a.tolist() == [0.5, 1.0, 0.5]
    # an empty band (k1 = k2) watches the whole square
    empty_band = CensoredSample([obs(p, BandComplement(0.3, 0.3, 0.2)) for p in ((0.2, 0.3), (0.5, 0.6))])
    full = CensoredSample([obs((0.2, 0.3)), obs((0.5, 0.6))])
    assert np.array_equal(jump_masses(empty_band), jump_masses(full))
    # a sample without events has no masses
    quiet = CensoredSample([SubjectRecord(censor=LowerLayer(((0.5, 0.5),)), status="censored_latent",
                                          latent=(0.7, 0.8))])
    assert len(quiet.event_points) == 0 and jump_masses(quiet).size == 0


def _random_rect_records(rng, n):
    recs = []
    for _ in range(n):
        y = rng.random(2)
        if rng.random() < 0.3:
            censor = FULL
        else:
            censor = LowerRect(tuple(0.2 + 0.8 * rng.random(2)))
        inside = (not isinstance(censor, LowerRect)) or (y[0] <= censor.corner[0]
                                                         and y[1] <= censor.corner[1])
        if inside:
            recs.append(SubjectRecord(censor=censor, status="observed", point=tuple(y)))
        else:
            recs.append(SubjectRecord(censor=censor, status="censored_latent",
                                      latent=tuple(y)))
    return recs


def test_masses_match_quadratic_scan_on_random_samples(monkeypatch):
    rng = np.random.default_rng(73)
    for _ in range(25):
        n = int(rng.integers(1, 120))
        s = CensoredSample(_random_rect_records(rng, n))
        assert np.array_equal(jump_masses(s), _scanned(monkeypatch, jump_masses, s))


def test_general_path_agrees_with_fast_on_equivalent_regions():
    # a one-interval GridProduct is the same set as a LowerRect but is counted
    # as a region of its own, not on the minima; counts must agree
    rng = np.random.default_rng(79)
    for _ in range(10):
        n = int(rng.integers(1, 50))
        fast_recs = _random_rect_records(rng, n)
        slow_recs = []
        for r in fast_recs:
            tau = r.censor.corner if isinstance(r.censor, LowerRect) else (1.0, 1.0)
            twin = GridProduct(((0.0, tau[0]),), ((0.0, tau[1]),))
            slow_recs.append(SubjectRecord(censor=twin, status=r.status,
                                           point=r.point, latent=r.latent))
        a = CensoredSample(fast_recs)
        b = CensoredSample(slow_recs)
        assert a.terms.masks == [None] and any(m is not None for m in b.terms.masks)
        q = rng.random((20, 2))
        assert np.array_equal(at_risk(a, q), at_risk(b, q))
        assert np.array_equal(jump_masses(a), jump_masses(b))


def test_take_matches_rebuild():
    rng = np.random.default_rng(83)
    s = CensoredSample(_random_rect_records(rng, 60))
    marginal_nelson_aalen(s, 0)      # build the shared interval table before slicing
    idx = rng.integers(0, 60, size=60)
    sliced = s.take(idx)
    rebuilt = CensoredSample([s.records[i] for i in idx])
    assert np.array_equal(sliced.carrier, rebuilt.carrier)
    assert np.array_equal(jump_masses(sliced), jump_masses(rebuilt))
    for axis in (0, 1):
        a = marginal_nelson_aalen(sliced, axis)
        b = marginal_nelson_aalen(rebuilt, axis)
        assert np.array_equal(a.values, b.values)
        assert np.array_equal(a.cum, b.cum)
    with pytest.raises(DataError):
        s.take(np.empty(0, dtype=np.int64))


def _mixed_family_records(rng):
    """Every censoring family in one sample, on the 1/8 lattice so ties and
    region boundaries occur: box records (rectangles in both record forms, full
    space), one shared grid product, lower layer and raster, and band
    complements drawn per record (some coincide, most are singletons)."""
    def lattice(lo, hi, size=None):
        return rng.integers(lo, hi + 1, size=size) / 8.0

    shared = [GridProduct(((0.0, 0.375), (0.625, 1.0)), ((0.0, 0.5), (0.75, 1.0))),
              LowerLayer(((0.375, 1.0), (0.75, 0.625), (1.0, 0.25))),
              Raster(4, rng.random((4, 4)) < 0.7)]
    censors = ([LowerRect(tuple(lattice(3, 8, 2))) for _ in range(55)] + [FULL] * 25
               + [r for r in shared for _ in range(70)])
    for _ in range(40):
        k1 = lattice(1, 4)
        censors.append(BandComplement(k1, k1 + lattice(0, 3), lattice(1, 2)))
    recs = []
    for i, censor in enumerate(censors):
        y = tuple(lattice(0, 8, 2))
        if 30 <= i < 55:
            tau = censor.corner
            recs.append(SubjectRecord(censor=censor, status="censored_opaque",
                                      minima=(min(y[0], tau[0]), min(y[1], tau[1])),
                                      events=(int(y[0] <= tau[0]), int(y[1] <= tau[1]))))
        elif contains(censor, y):
            recs.append(SubjectRecord(censor=censor, status="observed", point=y))
        else:
            recs.append(SubjectRecord(censor=censor, status="censored_latent", latent=y))
    return recs


def _carrier(rec):
    return rec.point if rec.status == "observed" else rec.latent if rec.latent else rec.minima


def _brute_at_risk_2d(recs, queries):
    """Per-record Z_n; minima under a rectangle already lie inside it."""
    q = np.asarray(queries, dtype=float).reshape(-1, 2)
    z = np.zeros(len(q), dtype=np.int64)
    for rec in recs:
        c = _carrier(rec)
        z += (c[0] >= q[:, 0]) & (c[1] >= q[:, 1]) & contains(rec.censor, q)
    return z


def _axis_intervals(region, axis):
    """Per-axis observable intervals, written from each family's definition."""
    if isinstance(region, LowerRect):
        return [(0.0, region.corner[axis])]
    if isinstance(region, GridProduct):
        return (region.x_intervals, region.y_intervals)[axis]
    if isinstance(region, LowerLayer):
        return [(0.0, max(c[axis] for c in region.corners))]
    if axis == 0:
        return [(0.0, 1.0)]
    far = region.k2 + region.c
    return [(0.0, region.k1)] + ([(far, 1.0)] if far <= 1.0 else [])


def _brute_marginal(recs, axis):
    """(values, counts, at-risk) of the marginal reduction, record by record."""
    vals, ivs, events = [], [], []
    for rec in recs:
        v = _carrier(rec)[axis]
        iv = _axis_intervals(rec.censor, axis)
        vals.append(v)
        ivs.append(iv)
        if rec.status == "censored_opaque":
            events.append(rec.events[axis] == 1)
        else:
            events.append(any(a <= v <= b for a, b in iv))
    values = sorted({v for v, e in zip(vals, events) if e})
    counts = [sum(1 for v, e in zip(vals, events) if e and v == u) for u in values]
    risk = [sum(1 for v, iv in zip(vals, ivs) if v >= u and any(a <= u <= b for a, b in iv))
            for u in values]
    return values, counts, risk


def test_region_table_kernels_match_per_record_counts_on_every_family(monkeypatch):
    rng = np.random.default_rng(89)
    recs = _mixed_family_records(rng)
    s = CensoredSample(recs)
    assert any(m is not None for m in s.terms.masks) and len(s.regions) < len(recs)
    lattice = np.stack(np.meshgrid(np.arange(9) / 8.0, np.arange(9) / 8.0), axis=-1).reshape(-1, 2)
    reducible = [i for i, r in enumerate(recs) if not isinstance(r.censor, Raster)]
    with pytest.raises(ReductionError):
        marginal_nelson_aalen(s, 0)
    n = len(recs)
    for idx in (np.arange(n), rng.integers(0, n, size=n), rng.choice(reducible, size=150)):
        sub = s.take(idx)
        sub_recs = [recs[i] for i in idx]
        q = np.vstack([lattice, rng.random((40, 2)), sub.event_points])
        assert np.array_equal(at_risk(sub, q), _brute_at_risk_2d(sub_recs, q))
        masses = 1.0 / _brute_at_risk_2d(sub_recs, sub.event_points)
        assert np.array_equal(jump_masses(sub), masses)
        assert np.array_equal(_scanned(monkeypatch, jump_masses, sub), masses)

    for idx in (np.array(reducible), rng.choice(reducible, size=len(reducible))):
        sub = s.take(idx)
        sub_recs = [recs[i] for i in idx]
        for axis in (0, 1):
            est = marginal_nelson_aalen(sub, axis)
            values, counts, risk = _brute_marginal(sub_recs, axis)
            assert est.values.tolist() == values
            assert est.counts.tolist() == counts
            assert est.at_risk.tolist() == risk
            assert np.array_equal(est.jumps, np.array(counts) / np.array(risk))


def _lattice_sample(family, n, rng):
    """n records on the 1/8 lattice under one censoring family, every form it has."""
    def lattice(lo, hi, size=None):
        return rng.integers(lo, hi + 1, size=size) / 8.0

    shared = {"grid": GridProduct(((0.0, 0.375), (0.625, 1.0)), ((0.0, 0.5), (0.75, 1.0))),
              "layer": LowerLayer(((0.375, 1.0), (0.75, 0.625), (1.0, 0.25))),
              "raster": Raster(4, np.arange(16).reshape(4, 4) % 3 != 1)}
    recs = []
    for i in range(n):
        y = tuple(lattice(0, 8, 2))
        if family == "box":
            censor = LowerRect(tuple(lattice(3, 8, 2))) if i % 3 else FULL
        elif family in shared:
            censor = shared[family]
        else:
            k1 = lattice(1, 4)
            censor = BandComplement(k1, k1 + lattice(0, 3), lattice(1, 2))
        if family == "box" and i % 3 == 2:
            tau = censor.corner
            recs.append(SubjectRecord(censor=censor, status="censored_opaque",
                                      minima=(min(y[0], tau[0]), min(y[1], tau[1])),
                                      events=(int(y[0] <= tau[0]), int(y[1] <= tau[1]))))
        elif contains(censor, y):
            recs.append(obs(y, censor))
        else:
            recs.append(SubjectRecord(censor=censor, status="censored_latent", latent=y))
    return recs


@settings(max_examples=60)
@given(family=st.sampled_from(["box", "grid", "layer", "raster", "band"]), n=st.integers(1, 150),
       seed=st.integers(0, 2 ** 32 - 1), rows=st.integers(1, 3))
def test_weighted_risk_counts_match_per_record_counts(family, n, seed, rows):
    # weight rows with zeros and repeats stand for resamples; sizes cross the 64 switch
    rng = np.random.default_rng(seed)
    recs = _lattice_sample(family, n, rng)
    s = CensoredSample(recs)
    w = rng.integers(0, 4, size=(rows, n))
    lattice = np.stack(np.meshgrid(np.arange(9) / 8.0, np.arange(9) / 8.0), axis=-1).reshape(-1, 2)
    q = np.vstack([lattice, s.event_points])
    per_record = np.array([_brute_at_risk_2d([rec], q) for rec in recs]).reshape(n, len(q))
    got = est._risk_counts(s, q, w)
    assert got.dtype == np.int64 and np.array_equal(got, w @ per_record)
    masses = jump_masses(s, weights=w)
    z = (w @ per_record)[:, len(lattice):]
    w_ev = w[:, s.event_mask]
    assert np.array_equal(masses, np.where(w_ev > 0, w_ev / np.maximum(z, 1), 0.0))
    # the layouts kept at the events count any later weight rows, as a bootstrap's chunks do
    assert np.array_equal(jump_masses(s, weights=w[::-1]), masses[::-1])
    # each row's marginals equal those of the resample it stands for, bit for bit (rasters have none)
    xs = np.arange(17) / 16.0
    for axis in () if family == "raster" else (0, 1):
        est_w = marginal_nelson_aalen(s, axis, weights=w)
        for r in range(rows):
            if w[r].sum() == 0:
                continue
            one = marginal_nelson_aalen(s.take(np.repeat(np.arange(n), w[r])), axis)
            assert np.array_equal(est_w.eval(xs)[r], one.eval(xs))
            held = est_w.counts[r] > 0
            assert np.array_equal(est_w.values[held], one.values)
            assert np.array_equal(kaplan_meier(est_w).values[r][held], kaplan_meier(one).values)
            assert np.array_equal(kaplan_meier(est_w).eval(xs)[r], kaplan_meier(one).eval(xs))


@pytest.mark.parametrize("family", ["band", "grid", "raster"])
def test_mesh_risk_counts_match_per_record_counts(family):
    # on the unit square, every third of the 12 midpoints per axis falls on the 1/8 lattice of the points
    recs = _lattice_sample(family, 120, np.random.default_rng(97))
    s = CensoredSample(recs)
    model, k = FgmModel(0.5), 12
    for corner in ((1.0, 1.0), (0.75, 0.5)):
        mx, my = midpoints(corner[0], k), midpoints(corner[1], k)
        mesh = np.stack(np.meshgrid(mx, my, indexing="ij"), axis=-1)
        want = _brute_at_risk_2d(recs, mesh).reshape(k, k)
        assert np.array_equal(est._risk_counts_on_mesh(s, mx, my), want)
        res = compensator_residual(s, model, LowerRect(corner), QuadratureSpec(initial=k))
        h = model.hazard(mesh[..., 0], mesh[..., 1])
        assert res.integral == float((want * h).sum() * (corner[0] / k) * (corner[1] / k))


def _lattice_region(kind, m, rng):
    """A region whose boundaries lie on the 1/m lattice, so that its raster core is exact."""
    if kind == "raster":
        mask = rng.random((m, m)) < 0.5
        columns, rows = rng.integers(0, m, size=2)
        mask[:columns] = mask[:, :rows] = True   # full first columns and rows, so cores are not rare
        return Raster(m, mask)
    if kind == "layer":
        k = rng.integers(1, m + 1)
        xs = np.append(np.sort(rng.choice(np.arange(1, m), k - 1, replace=False)), m)
        ys = np.append(m, -np.sort(-rng.choice(np.arange(1, m), k - 1, replace=False)))
        return LowerLayer(tuple(zip(xs / m, ys / m)))

    def union():
        cells = rng.random(m) < 0.7
        cells[0] = True
        edges = np.flatnonzero(np.diff(np.concatenate([[0], cells, [0]])))
        return tuple(zip(edges[::2] / m, edges[1::2] / m))

    return GridProduct(union(), union())


def _moved_off_region(region, n, rng):
    """Two samples of n FGM(0.5) subjects under region that differ only in where each censored
    latent point lies outside the region."""
    points = FgmModel(0.5).sample(n, rng)
    outside = rng.random((4096, 2))
    outside = outside[~region.at(outside[:, 0], outside[:, 1])]
    moved = [y if region.at(*y) or not len(outside) else outside[rng.integers(len(outside))]
             for y in points]
    return [CensoredSample([obs(tuple(y), region) if region.at(*y) else
                            SubjectRecord(censor=region, status="censored_latent", latent=tuple(y))
                            for y in ys]) for ys in (points, moved)]


def _at_risk_changes(region, m, n, seed):
    """(core, changed): the cell centres on observable_core(rasterize(region, m)), and those
    where at_risk differs once every censored latent point moves elsewhere outside the region."""
    a, b = _moved_off_region(region, n, np.random.default_rng(seed))
    c = (np.arange(m) + 0.5) / m
    centres = np.stack(np.meshgrid(c, c, indexing="ij"), axis=-1)
    return observable_core(rasterize(region, m)).mask, at_risk(a, centres) != at_risk(b, centres)


@settings(max_examples=60)
@given(kind=st.sampled_from(["raster", "layer", "grid"]), m=st.integers(1, 8),
       n=st.integers(1, 200), seed=st.integers(0, 2 ** 32 - 1))
def test_at_risk_on_the_observable_core_ignores_where_latent_points_lie(kind, m, n, seed):
    # the paper's observability claim: on the core, at_risk reads nothing a study cannot see
    region = _lattice_region(kind, m, np.random.default_rng(seed))
    core, changed = _at_risk_changes(region, m, n, seed + 1)
    assert not (changed & core).any()


def test_at_risk_off_the_observable_core_reads_latent_points():
    # the L-shaped layer: its core is the lower-left quarter, and off it the count moves
    core, changed = _at_risk_changes(LowerLayer(((0.5, 1.0), (1.0, 0.5))), 8, 200, 3)
    assert core.sum() == 16 and core[:4, :4].all()
    assert changed.any() and not (changed & core).any()


@settings(max_examples=40)
@given(n=st.integers(1, 120), seed=st.integers(0, 2 ** 32 - 1))
def test_general_path_equals_fast_path_on_recast_rectangles(n, seed):
    # rectangles recast as one-interval grid products and one-corner lower layers
    # go through masked term groups; every count is exact, so all outputs agree bit for bit
    rng = np.random.default_rng(seed)
    recs = [SubjectRecord(censor=LowerRect(tuple(rng.integers(2, 9, size=2) / 8.0)),
                          status="censored_latent", latent=tuple(rng.integers(0, 9, size=2) / 8.0))
            for _ in range(n)]
    recs = [obs(r.latent, r.censor) if contains(r.censor, r.latent) else r for r in recs]

    def recast(make):
        return CensoredSample([SubjectRecord(censor=make(r.censor.corner), status=r.status,
                                             point=r.point, latent=r.latent) for r in recs])

    fast = CensoredSample(recs)
    lattice = np.stack(np.meshgrid(np.arange(9) / 8.0, np.arange(9) / 8.0), axis=-1).reshape(-1, 2)
    q = np.vstack([lattice, fast.event_points])
    grid = Grid(9, (1.0, 1.0))
    for general in (recast(lambda t: GridProduct(((0.0, t[0]),), ((0.0, t[1]),))),
                    recast(lambda t: LowerLayer((t,)))):
        assert fast.terms.masks == [None] and any(m is not None for m in general.terms.masks)
        assert np.array_equal(at_risk(general, q), at_risk(fast, q))
        assert np.array_equal(jump_masses(general), jump_masses(fast))
        assert np.array_equal(nelson_aalen_surface(general, grid).values,
                              nelson_aalen_surface(fast, grid).values)
        for axis in (0, 1):
            a, b = marginal_nelson_aalen(general, axis), marginal_nelson_aalen(fast, axis)
            for key in ("values", "counts", "at_risk", "jumps", "cum"):
                assert np.array_equal(getattr(a, key), getattr(b, key)), key


@settings(max_examples=40)
@given(n=st.integers(1, 120), seed=st.integers(0, 2 ** 32 - 1), ties=st.booleans())
def test_opaque_rectangle_records_fit_as_latent_records(n, seed, ties):
    # minima plus event flags are all a rectangle-censored fit reads, so it equals the latent fit bit for bit
    rng = np.random.default_rng(seed)
    if ties:
        ys, taus = rng.integers(0, 9, size=(n, 2)) / 8.0, rng.integers(2, 9, size=(n, 2)) / 8.0
    else:
        ys, taus = rng.random((n, 2)), rng.uniform(0.2, 1.0, (n, 2))
    latent, opaque = [], []
    for y, tau in zip(ys, taus):
        y, censor = tuple(y), LowerRect(tuple(tau))
        latent.append(obs(y, censor) if contains(censor, y)
                      else SubjectRecord(censor=censor, status="censored_latent", latent=y))
        opaque.append(SubjectRecord(censor=censor, status="censored_opaque",
                                    minima=tuple(np.minimum(y, tau)), events=tuple(int(v) for v in y <= tau)))
    a, b = CensoredSample(latent), CensoredSample(opaque)
    q = np.vstack([rng.random((16, 2)), a.event_points])
    assert np.array_equal(a.event_points, b.event_points)
    assert np.array_equal(at_risk(a, q), at_risk(b, q))
    assert np.array_equal(jump_masses(a), jump_masses(b))
    grid = Grid(9, (1.0, 1.0))
    assert np.array_equal(nelson_aalen_surface(a, grid).values, nelson_aalen_surface(b, grid).values)
    for axis in (0, 1):
        ma, mb = marginal_nelson_aalen(a, axis), marginal_nelson_aalen(b, axis)
        for key in ("values", "counts", "at_risk", "jumps", "cum"):
            assert np.array_equal(getattr(ma, key), getattr(mb, key)), key
        assert np.array_equal(kaplan_meier(ma).values, kaplan_meier(mb).values)


# ---------------------------------------------------------------------------
# surfaces
# ---------------------------------------------------------------------------

def test_surface_values_binning():
    pts = np.array([[0.2, 0.3], [0.5, 0.6], [0.4, 0.1]])
    masses = np.array([0.5, 1.0, 0.5])
    xs = np.linspace(0.0, 1.0, 21)
    vals = surface_values(pts, masses, xs, xs)
    assert vals[0, 0] == 0.0
    assert vals[-1, -1] == pytest.approx(2.0, abs=0)
    # node just above (0.45, 0.65) sees exactly the two dominated points
    assert vals[9, 13] == pytest.approx(1.0, abs=0)
    # rows of masses give one surface each; nothing below the lattice still gives floats
    rows = surface_values(pts, np.array([masses, 2 * masses]), xs, xs)
    assert np.array_equal(rows[0], vals) and np.array_equal(rows[1], 2 * vals)
    none = surface_values(pts, np.array([masses]), [0.1], [0.1])
    assert none.dtype == float and none.shape == (1, 1, 1) and none[0, 0, 0] == 0.0
    empty = surface_values(np.empty((0, 2)), np.zeros((2, 0)), xs, xs)
    assert empty.dtype == float and empty.shape == (2, 21, 21) and not empty.any()


def test_surface_values_duplicate_nodes_and_dropped_points():
    pts = np.array([[0.3, 0.3], [0.9, 0.9]])
    masses = np.array([1.0, 1.0])
    xs = np.array([0.0, 0.5, 0.5, 0.5])
    vals = surface_values(pts, masses, xs, xs)
    assert vals[1, 1] == vals[3, 3] == 1.0       # the point beyond 0.5 is dropped
    assert np.all(np.diff(vals, axis=0) >= 0) and np.all(np.diff(vals, axis=1) >= 0)


def test_surface_matches_per_node_evaluation():
    rng = np.random.default_rng(89)
    for _ in range(8):
        s = CensoredSample(_random_rect_records(rng, int(rng.integers(2, 40))))
        grid = Grid(int(rng.integers(2, 7)), tuple(0.3 + 0.7 * rng.random(2)))
        surf = nelson_aalen_surface(s, grid)
        for i, x in enumerate(grid.xs):
            for j, y in enumerate(grid.ys):
                want = nelson_aalen(s, LowerRect((x, y)))
                assert surf.values[i, j] == pytest.approx(want, abs=1e-12)


def test_surface_bit_identical_to_quadratic_scan(monkeypatch):
    rng = np.random.default_rng(97)
    s = CensoredSample(_random_rect_records(rng, 300))
    grid = Grid(17, (0.9, 0.95))
    surf = nelson_aalen_surface(s, grid)
    scan = _scanned(monkeypatch, lambda c: nelson_aalen_surface(c, grid), s)
    assert np.array_equal(surf.values, scan.values)
    assert np.array_equal(surf.jump_masses, scan.jump_masses)


def test_surface_worked_sample():
    surf = nelson_aalen_surface(worked_uncensored(), Grid(21, (1.0, 1.0)))
    assert surf.values[0, 0] == 0.0
    assert surf.values[-1, -1] == pytest.approx(2.0, abs=0)
    assert surf.values[9, 13] == pytest.approx(1.0, abs=0)


# ---------------------------------------------------------------------------
# compensator residual
# ---------------------------------------------------------------------------

def test_compensator_residual_zero_measure():
    s = worked_uncensored()
    m = FgmModel(0.0)
    res = compensator_residual(s, m, LowerRect((0.0, 0.8)))
    assert res.value == res.count == 0
    assert res.integral == 0.0


def test_compensator_residual_weighted_count_at_a_zero_width_box():
    s = CensoredSample([obs((0.0, 0.5)), obs((0.3, 0.2))])
    m, twice = FgmModel(0.0), lambda x, y: np.full(np.broadcast(x, y).shape, 2.0)
    for corner in ((0.0, 0.8), (1e-9, 0.8)):
        res = compensator_residual(s, m, LowerRect(corner), weight=twice)
        assert res.count == 2.0
    assert compensator_residual(s, m, LowerRect((0.0, 0.8))).count == 1


def _old_compensator_integral(s, model, region, k, weight):
    """Reference: the compensator's integral as `mesh_sum` of a per-block integrand, which the
    whole-mesh products must match bit for bit."""
    box, mask = (region.corner, None) if isinstance(region, LowerRect) else ((1.0, 1.0), region)

    def integrand(x, y):
        out = est._risk_counts_on_mesh(s, x[:, 0], y[0]) * model.hazard(x, y)
        return out if weight is None else out * weight(x, y)

    return float(mesh_sum(integrand, box, k, mask) * (box[0] / k) * (box[1] / k))


@pytest.mark.parametrize("k", [12, 64, 256, 300, 512])
def test_compensator_integral_equals_the_per_block_integrand_sum(k):
    model = FgmModel(0.4)
    censors = {"full": CensoringModel("full"),
               "rectangle": CensoringModel("rectangle", {"tau1": QuantileTable.uniform(0.4, 1.0),
                                                         "tau2": QuantileTable.uniform(0.5, 1.0)}),
               "band": CensoringModel("band_complement", {"k1": QuantileTable.uniform(0.1, 0.5),
                                                          "k2": QuantileTable.uniform(0.4, 0.8),
                                                          "c": 0.2})}
    disk = PredicateRegion(lambda p: (p[..., 0] - 0.4) ** 2 + (p[..., 1] - 0.5) ** 2 <= 0.2)

    def weight(x, y):
        return 1.0 / (1.0 + x * y)

    for i, cm in enumerate(censors.values()):
        s = simulate_sample(model, cm, 150, np.random.default_rng(200 + i))
        for region in (LowerRect((0.7, 0.9)), disk):
            for w in (None, weight):
                res = compensator_residual(s, model, region, QuadratureSpec(initial=k), weight=w)
                assert res.integral == _old_compensator_integral(s, model, region, k, w)


def test_compensator_residual_mask_path_matches_box():
    rng = np.random.default_rng(101)
    s = CensoredSample(_random_rect_records(rng, 80))
    m = FgmModel(0.3)
    spec = QuadratureSpec(initial=64)
    direct = compensator_residual(s, m, LowerRect((1.0, 1.0)), spec)
    masked = compensator_residual(
        s, m, PredicateRegion(lambda p: np.ones(p.shape[:-1], dtype=bool)), spec)
    assert masked.value == pytest.approx(direct.value, abs=1e-12)
    assert masked.count == direct.count
    assert direct.resolution == 64


def test_compensator_first_call_memory_is_bounded():
    # the first call evaluates the hazard on the whole k = 1024 mesh (an empty mesh_values memo),
    # on an x column against a y row: 41 MiB at the peak, against 57 MiB from a point stack
    model = FgmModel(0.4)
    s = simulate_sample(model, CensoringModel("full"), 300, np.random.default_rng(5))
    mesh_values.cache_clear()
    tracemalloc.start()
    try:
        res = compensator_residual(s, model, LowerRect((0.8, 0.9)), QuadratureSpec(initial=1024))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert res.resolution == 1024 and res.value == float.fromhex("0x1.87510f4e58610p+3")
    assert peak < 47 * 2 ** 20


def test_compensator_residual_unit_weight_matches_plain():
    rng = np.random.default_rng(103)
    s = CensoredSample(_random_rect_records(rng, 50))
    m = FgmModel(0.0)
    spec = QuadratureSpec(initial=32)
    plain = compensator_residual(s, m, LowerRect((0.7, 0.7)), spec)
    weighted = compensator_residual(s, m, LowerRect((0.7, 0.7)), spec,
                                    weight=lambda x, y: np.ones(np.broadcast(x, y).shape))
    assert weighted.value == pytest.approx(plain.value, abs=1e-12)


# ---------------------------------------------------------------------------
# marginals, product-limit, copula scale
# ---------------------------------------------------------------------------

def test_marginal_worked_values():
    est = marginal_nelson_aalen(worked_uncensored(), 0)
    assert est.values.tolist() == [0.2, 0.4, 0.5]
    assert est.at_risk.tolist() == [3, 2, 1]
    assert est.eval(0.45) == pytest.approx(1 / 3 + 1 / 2, abs=0)
    assert est.eval(0.1) == 0.0
    # censoring the middle subject at 0.45 removes its marginal event but
    # leaves the same running sum below the cutoff
    cens = marginal_nelson_aalen(worked_censored(), 0)
    assert cens.values.tolist() == [0.2, 0.4]
    assert cens.eval(0.45) == pytest.approx(1 / 3 + 1 / 2, abs=0)
    with pytest.raises(ConfigError):
        marginal_nelson_aalen(worked_uncensored(), 2)


def test_marginal_opaque_flags():
    est = marginal_nelson_aalen(worked_censored_opaque(), 0)
    assert est.values.tolist() == [0.2, 0.4]
    assert est.at_risk.tolist() == [3, 2]
    est2 = marginal_nelson_aalen(worked_censored_opaque(), 1)
    # axis 2 of the censored subject is observed at 0.6
    assert est2.values.tolist() == [0.1, 0.3, 0.6]
    assert est2.at_risk.tolist() == [3, 2, 1]


def test_marginal_grid_product_gap():
    # axis-1 observable set [0, 0.3] u [0.6, 1]: a value in the gap is censored
    region = GridProduct(((0.0, 0.3), (0.6, 1.0)), ((0.0, 1.0),))
    recs = [SubjectRecord(censor=region, status="observed", point=(0.2, 0.5)),
            SubjectRecord(censor=region, status="censored_latent", latent=(0.4, 0.5)),
            SubjectRecord(censor=region, status="observed", point=(0.7, 0.5))]
    est = marginal_nelson_aalen(CensoredSample(recs), 0)
    assert est.values.tolist() == [0.2, 0.7]
    # at 0.7 the at-risk set excludes the gap subject's unobservable coordinate
    # but keeps it: its value 0.4 is below 0.7 anyway
    assert est.at_risk.tolist() == [3, 1]


def test_marginal_band_reduction():
    # censored strip on axis 2 is (k1, k2 + c); k2 + c = 1 leaves the single
    # point {1} observable on the far side
    band = BandComplement(0.3, 0.8, 0.2)
    recs = [SubjectRecord(censor=band, status="observed", point=(0.5, 1.0)),
            SubjectRecord(censor=band, status="observed", point=(0.1, 0.2))]
    s = CensoredSample(recs)
    est = marginal_nelson_aalen(s, 1)
    assert est.values.tolist() == [0.2, 1.0]
    assert est.cum.tolist() == [0.5, 1.5]
    # axis 1 of a band complement is never censored
    est1 = marginal_nelson_aalen(s, 0)
    assert est1.values.tolist() == [0.1, 0.5]
    # a value strictly inside the censored strip is not a marginal event
    band2 = BandComplement(0.3, 0.5, 0.1)
    recs2 = [SubjectRecord(censor=band2, status="observed", point=(0.2, 0.45)),
             SubjectRecord(censor=band2, status="observed", point=(0.9, 0.95))]
    est2 = marginal_nelson_aalen(CensoredSample(recs2), 1)
    assert est2.values.tolist() == [0.95]


def test_marginal_lower_layer_reduction():
    layer = LowerLayer(((0.3, 0.9), (0.7, 0.4)))
    recs = [SubjectRecord(censor=layer, status="observed", point=(0.2, 0.8)),
            SubjectRecord(censor=layer, status="observed", point=(0.6, 0.3))]
    est = marginal_nelson_aalen(CensoredSample(recs), 0)
    # axis-1 reduction is [0, 0.7]; both values observed
    assert est.values.tolist() == [0.2, 0.6]
    est2 = marginal_nelson_aalen(CensoredSample(recs), 1)
    assert est2.values.tolist() == [0.3, 0.8]


def test_marginal_raster_has_no_reduction():
    r = Raster(2, np.ones((2, 2), dtype=bool))
    s = CensoredSample([SubjectRecord(censor=r, status="observed", point=(0.2, 0.2))])
    with pytest.raises(ReductionError):
        marginal_nelson_aalen(s, 0)


def test_kaplan_meier_worked_values():
    km = kaplan_meier(marginal_nelson_aalen(worked_uncensored(), 0))
    assert km.eval(0.1) == 0.0
    assert km.eval(0.2) == pytest.approx(1 / 3)
    assert km.eval(0.45) == pytest.approx(2 / 3)
    assert km.eval(0.5) == pytest.approx(1.0)
    assert km.max_value == pytest.approx(1.0)


def test_kaplan_meier_ties_grouped():
    recs = [obs((0.4, 0.1)), obs((0.4, 0.5)), obs((0.8, 0.9))]
    km = kaplan_meier(marginal_nelson_aalen(CensoredSample(recs), 0))
    # two tied events at 0.4 with three at risk: one grouped jump of 2/3
    assert km.locations.tolist() == [0.4, 0.8]
    assert km.eval(0.4) == pytest.approx(2 / 3)


def test_km_quantile():
    km = kaplan_meier(marginal_nelson_aalen(worked_uncensored(), 0))
    assert km_quantile(km, 0.5) == pytest.approx(0.4)
    assert km_quantile(km, 0.3) == pytest.approx(0.2)
    # at an exactly attained level the inf sits at that jump
    assert km_quantile(km, km.values[0]) == pytest.approx(0.2)
    assert km_quantile(km, 1.0) == pytest.approx(0.5)
    with pytest.raises(QuantileRangeError):
        km_quantile(km, 0.0)
    with pytest.raises(QuantileRangeError):
        km_quantile(km, 1.2)


def test_km_quantile_capped_by_censoring():
    # everyone censored on axis 1 except one subject: the CDF tops out below 1
    recs = [SubjectRecord(censor=LowerRect((0.5, 1.0)), status="censored_opaque",
                          minima=(0.5, 0.3), events=(0, 1)),
            SubjectRecord(censor=LowerRect((0.5, 1.0)), status="censored_opaque",
                          minima=(0.5, 0.7), events=(0, 1)),
            SubjectRecord(censor=LowerRect((0.5, 1.0)), status="censored_opaque",
                          minima=(0.2, 0.4), events=(1, 1))]
    km = kaplan_meier(marginal_nelson_aalen(CensoredSample(recs), 0))
    assert km.max_value == pytest.approx(1 / 3)
    with pytest.raises(QuantileRangeError):
        km_quantile(km, 0.99)


def test_copula_nelson_aalen_worked_value():
    # corner (F^-1(2/3), G^-1(2/3)) = (0.4, 0.3); two observed points dominate
    s = worked_uncensored()
    assert copula_nelson_aalen(s, 2 / 3, 2 / 3) == pytest.approx(1.0, abs=0)
    with pytest.raises(QuantileRangeError):
        copula_nelson_aalen(worked_censored(), 0.99, 0.5)


# ---------------------------------------------------------------------------
# asymptotic covariance
# ---------------------------------------------------------------------------

def test_asymptotic_cov_uncensored_variance():
    # theta = 0 uniform at C = D = [0, (1/2, 1/2)]:
    # diagonal 1, each wedge (1 - log 2)^2
    m = FgmModel(0.0)
    want = 1.0 + 2.0 * (1.0 - math.log(2.0)) ** 2
    res = asymptotic_cov(m, None, LowerRect((0.5, 0.5)), LowerRect((0.5, 0.5)))
    assert res.value == pytest.approx(want, rel=1e-4)
    assert res.diagonal_term == pytest.approx(1.0, rel=1e-5)


def test_asymptotic_cov_cross_rectangles():
    # C = [0,(0.3,0.3)], D = [0,(0.2,0.2)], theta = 0 uniform:
    # diagonal (1/(1-0.2) - 1)^2; wedge factors X = 0.25 + log(0.8) and
    # Y = X + 0.25 log(8/7), value = diag + 2 X Y
    m = FgmModel(0.0)
    x = 0.25 + math.log(0.8)
    y = x + 0.25 * math.log(8.0 / 7.0)
    want = 0.0625 + 2.0 * x * y
    res = asymptotic_cov(m, None, LowerRect((0.3, 0.3)), LowerRect((0.2, 0.2)))
    assert res.value == pytest.approx(want, rel=1e-4)
    assert res.cross_term == pytest.approx(2.0 * x * y, rel=1e-3)


def test_asymptotic_cov_rectangle_censoring():
    # tau_j ~ Uniform(0.5, 1): P(t_j in view) = 1 below 0.5, (1-t_j)/0.5 above.
    # At C = D = [0,(0.7,0.7)] the hand integration gives
    # diagonal (1 + 1.7778)^2 and wedges ((1 - log 2) + 8/9)^2 each.
    m = FgmModel(0.0)
    cm = CensoringModel("rectangle", {"tau1": QuantileTable.uniform(0.5, 1.0),
                                      "tau2": QuantileTable.uniform(0.5, 1.0)})
    inner = 1.0 + 0.5 * 0.5 * (1.0 / 0.09 - 4.0)
    xfac = (1.0 - math.log(2.0)) + 0.125 * (1.0 / 0.09 - 4.0)
    want = inner ** 2 + 2.0 * xfac ** 2
    res = asymptotic_cov(m, cm, LowerRect((0.7, 0.7)), LowerRect((0.7, 0.7)))
    assert res.value == pytest.approx(want, rel=2e-3)


def test_asymptotic_cov_full_model_equals_none():
    m = FgmModel(0.4)
    c, d = LowerRect((0.5, 0.5)), LowerRect((0.4, 0.6))
    a = asymptotic_cov(m, None, c, d)
    b = asymptotic_cov(m, CensoringModel("full"), c, d)
    assert a.value == pytest.approx(b.value, rel=1e-12)


def test_asymptotic_cov_point_mass_rectangle_equals_none():
    m = FgmModel(-0.3)
    cm = CensoringModel("rectangle", {"tau1": QuantileTable.fixed(0.9),
                                      "tau2": QuantileTable.fixed(0.9)})
    c, d = LowerRect((0.6, 0.5)), LowerRect((0.5, 0.6))
    a = asymptotic_cov(m, None, c, d)
    b = asymptotic_cov(m, cm, c, d)
    assert a.value == pytest.approx(b.value, rel=1e-12)


def test_asymptotic_cov_errors_and_edges():
    m = FgmModel(0.0)
    assert asymptotic_cov(m, None, LowerRect((0.0, 0.5)), LowerRect((0.5, 0.5))).value == 0.0
    with pytest.raises(ConfigError):
        asymptotic_cov(m, None, PredicateRegion(lambda p: p[..., 0] < 1),
                       LowerRect((0.5, 0.5)))
    # inclusion probability hits zero beyond a point-mass tau
    cm = CensoringModel("rectangle", {"tau1": QuantileTable.fixed(0.9),
                                      "tau2": QuantileTable.fixed(0.9)})
    with pytest.raises(DomainError):
        asymptotic_cov(m, cm, LowerRect((0.95, 0.95)), LowerRect((0.95, 0.95)))
    band = CensoringModel("band_complement", {"k1": QuantileTable.fixed(0.2),
                                              "k2": QuantileTable.fixed(0.6),
                                              "c": 0.1})
    # the wedge term reads P(s, t in xi) at s v t, which band inclusion is not a function of
    with pytest.raises(ConfigError, match=r"needs P\(s, t in xi\) to be a function of s v t"):
        asymptotic_cov(m, band, LowerRect((0.5, 0.5)), LowerRect((0.5, 0.5)))


def test_asymptotic_cov_symmetric_in_arguments():
    m = FgmModel(0.6)
    c, d = LowerRect((0.55, 0.3)), LowerRect((0.25, 0.6))
    a = asymptotic_cov(m, None, c, d)
    b = asymptotic_cov(m, None, d, c)
    assert a.value == pytest.approx(b.value, rel=1e-9)


# ---------------------------------------------------------------------------
# simulation
# ---------------------------------------------------------------------------

def test_simulate_latent_statuses():
    rng = np.random.default_rng(107)
    cm = CensoringModel("rectangle", {"tau1": QuantileTable.uniform(0.3, 0.9),
                                      "tau2": QuantileTable.uniform(0.3, 0.9)})
    s = simulate_sample(FgmModel(0.5), cm, 200, rng, form="latent")
    assert s.n == 200
    assert {r.status for r in s.records} <= {"observed", "censored_latent"}
    for r in s.records:
        if r.status == "observed":
            assert r.point[0] <= r.censor.corner[0] and r.point[1] <= r.censor.corner[1]
        else:
            assert r.latent[0] > r.censor.corner[0] or r.latent[1] > r.censor.corner[1]


def test_simulate_observable_matches_latent_twin():
    cm = CensoringModel("rectangle", {"tau1": QuantileTable.uniform(0.3, 0.9),
                                      "tau2": QuantileTable.uniform(0.3, 0.9)})
    m = FgmModel(-0.4)
    lat = simulate_sample(m, cm, 150, np.random.default_rng(5), form="latent")
    opa = simulate_sample(m, cm, 150, np.random.default_rng(5), form="observable")
    assert all(r.status == "censored_opaque" for r in opa.records)
    for a, b in zip(lat.records, opa.records):
        y = a.point if a.status == "observed" else a.latent
        tau = a.censor.corner
        assert b.minima == (min(y[0], tau[0]), min(y[1], tau[1]))
        assert b.events == (int(y[0] <= tau[0]), int(y[1] <= tau[1]))
        assert (a.status == "observed") == (b.events == (1, 1))
    # identical estimates from the two record forms
    grid = Grid(9, (0.8, 0.8))
    assert np.array_equal(nelson_aalen_surface(lat, grid).values,
                          nelson_aalen_surface(opa, grid).values)


def test_simulate_observable_full():
    s = simulate_sample(FgmModel(0.0), CensoringModel("full"), 20,
                        np.random.default_rng(7), form="observable")
    assert all(r.status == "observed" for r in s.records)


_RASTER = np.zeros((8, 8), dtype=bool)
_RASTER[:6, :5] = True
_RASTER[:3, :] = True
FAMILIES = {
    "full": CensoringModel("full"),
    "rectangle": CensoringModel("rectangle", {"tau1": QuantileTable.uniform(0.3, 0.9),
                                              "tau2": QuantileTable.uniform(0.3, 0.9)}),
    "grid_product": CensoringModel("grid_product", {"region": GridProduct(
        ((0.0, 0.3), (0.4, 0.7), (0.8, 1.0)), ((0.0, 0.5), (0.6, 1.0)))}),
    "band_complement": CensoringModel("band_complement", {
        "k1": QuantileTable.uniform(0.1, 0.5), "k2": QuantileTable.uniform(0.4, 0.8), "c": 0.2}),
    "lower_layer": CensoringModel("lower_layer", {"region": LowerLayer(
        ((0.3, 1.0), (0.6, 0.8), (0.9, 0.5), (1.0, 0.2)))}),
    "raster": CensoringModel("raster", {"region": Raster(8, _RASTER)}),
}


@pytest.mark.parametrize("family", sorted(FAMILIES))
def test_columns_round_trip_through_records_and_files(family, tmp_path):
    cm = FAMILIES[family]
    q = np.random.default_rng(33).random((40, 2))
    for form in ("latent", "observable") if family in ("full", "rectangle") else ("latent",):
        s = simulate_sample(FgmModel(0.5), cm, 150, np.random.default_rng(31), form=form)
        rebuilt = CensoredSample(s.records)
        for name in ("carrier", "status", "events", "region_index", "event_mask"):
            a, b = getattr(rebuilt, name), getattr(s, name)
            assert a.dtype == b.dtype and np.array_equal(a, b), name
        assert list(rebuilt.regions) == list(s.regions)
        assert np.array_equal(jump_masses(rebuilt), jump_masses(s))
        for axis in (0, 1):
            if family == "raster":
                with pytest.raises(ReductionError):
                    marginal_nelson_aalen(s, axis)
                continue
            a, b = marginal_nelson_aalen(rebuilt, axis), marginal_nelson_aalen(s, axis)
            assert np.array_equal(a.values, b.values) and np.array_equal(a.at_risk, b.at_risk)
            assert np.array_equal(a.cum, b.cum)
        path = tmp_path / f"{form}.jsonl"
        write_dataset(path, s.records)
        assert read_dataset(path)[0] == s.records
        # pooled columns count like a sample built from the concatenated records
        t = simulate_sample(FgmModel(-0.3), cm, 90, np.random.default_rng(32), form=form)
        pooled, joined = s.concat(t), CensoredSample([*s.records, *t.records])
        assert np.array_equal(pooled.event_points, joined.event_points)
        assert np.array_equal(at_risk(pooled, q), at_risk(joined, q))
        assert np.array_equal(jump_masses(pooled), jump_masses(joined))


def test_sample_records_are_a_read_only_sequence_over_the_columns():
    s = simulate_sample(FgmModel(0.3), FAMILIES["rectangle"], 30, np.random.default_rng(5),
                        form="observable")
    view, recs = s.records, list(s.records)
    assert isinstance(view, Sequence) and len(view) == len(recs) == 30
    assert view[0] == recs[0] and view[-1] == recs[29] and view[-30] == recs[0]
    for bad in (30, -31):
        with pytest.raises(IndexError):
            view[bad]
    with pytest.raises(TypeError):
        view[0] = recs[1]
    assert view[3:9] == recs[3:9] and type(view[3:9]) is list and view[::-7] == recs[::-7]
    assert view[40:] == [] and list(reversed(view)) == recs[::-1] and view.index(recs[4]) == 4
    # against a sequence record by record, against another view column by column
    assert view == recs and recs == view and view == tuple(recs) and view == s.records
    assert view != recs[:-1] and view != recs[::-1] and view != 5
    other = simulate_sample(FgmModel(0.3), FAMILIES["rectangle"], 30, np.random.default_rng(6),
                            form="observable")
    assert view != other.records and (view == other.records) is False
    assert s.take(np.arange(30)[::-1]).records == recs[::-1]
    # a sample built from a view adopts its columns
    adopted = CensoredSample(view)
    assert adopted.carrier is s.carrier and adopted.regions is s.regions
    with pytest.raises(DataError, match="empty dataset"):
        CensoredSample(s.records[:0])


@pytest.mark.parametrize("family", sorted(FAMILIES))
def test_a_sample_from_a_view_equals_one_from_its_records(family, tmp_path):
    statuses = set()
    for form in ("latent", "observable") if family in ("full", "rectangle") else ("latent",):
        view = simulate_sample(FgmModel(0.5), FAMILIES[family], 120, np.random.default_rng(41),
                               form=form).records
        a, b = CensoredSample(view), CensoredSample(list(view))
        for name in ("carrier", "status", "events", "region_index", "event_mask"):
            x, y = getattr(a, name), getattr(b, name)
            assert x.dtype == y.dtype and np.array_equal(x, y), name
        assert list(a.regions) == list(b.regions)
        assert np.array_equal(a.regions.kind, b.regions.kind)
        assert np.array_equal(a.regions.param, b.regions.param)
        for x, y in zip(a.terms, b.terms):
            assert x == y if isinstance(x, list) else (x.dtype == y.dtype and np.array_equal(x, y))
        statuses.update(a.status.tolist())
        # one writer: a view and its records give the same bytes
        write_dataset(tmp_path / "view.jsonl", view)
        write_dataset(tmp_path / "list.jsonl", list(view))
        assert (tmp_path / "view.jsonl").read_bytes() == (tmp_path / "list.jsonl").read_bytes()
    assert statuses == ({0, 1, 2} if family == "rectangle" else {0} if family == "full" else {0, 1})


def test_simulate_errors():
    cm = CensoringModel("lower_layer", {"region": LowerLayer(((0.5, 0.5),))})
    with pytest.raises(ConfigError):
        simulate_sample(FgmModel(0.0), cm, 10, np.random.default_rng(1),
                        form="observable")
    with pytest.raises(ConfigError):
        simulate_sample(FgmModel(0.0), cm, 0, np.random.default_rng(1))
    with pytest.raises(ConfigError):
        simulate_sample(FgmModel(0.0), cm, 5, np.random.default_rng(1), form="wide")


# ---------------------------------------------------------------------------
# one lower rectangle: a decoded rectangle region is the estimation set [0, corner]
# ---------------------------------------------------------------------------

def _decoded_box(corner):
    return region_from_json({"kind": "rectangle", "tau": list(corner)})


def test_a_decoded_rectangle_region_is_the_lower_rectangle():
    assert type(_decoded_box((0.7, 0.7))) is LowerRect
    assert _decoded_box((0.7, 0.7)) == LowerRect((0.7, 0.7))
    # the full square is the box [0, (1, 1)], and is written as "full"
    full = region_from_json({"kind": "full"})
    assert FullSpace() == LowerRect((1.0, 1.0)) == full == _decoded_box((1.0, 1.0))
    assert region_to_json(full) == {"kind": "full"}


def test_a_decoded_rectangle_integrates_and_estimates_as_the_lower_rectangle():
    model, box, decoded = FgmModel(0.3), LowerRect((0.7, 0.7)), _decoded_box((0.7, 0.7))
    got, want = integrated_hazard(model, decoded), integrated_hazard(model, box)
    assert got.converged and got == want
    sample = simulate_sample(model, FAMILIES["rectangle"], 300, np.random.default_rng(8))
    assert compensator_residual(sample, model, decoded) == compensator_residual(sample, model, box)
    cm = FAMILIES["rectangle"]
    assert asymptotic_cov(model, cm, decoded, decoded) == asymptotic_cov(model, cm, box, box)
    full = region_from_json({"kind": "full"})
    with pytest.raises(DomainError, match="zero set of the survival function"):
        integrated_hazard(model, full)
    cov = asymptotic_cov(model, FAMILIES["full"], full, LowerRect((0.5, 0.5)))
    assert cov.value == 3.897139037241373


def test_lower_rect_censored_records_carry_minima_and_round_trip(tmp_path):
    rng = np.random.default_rng(12)
    records = []
    for y, tau in zip(rng.random((80, 2)).tolist(), rng.uniform(0.3, 1.0, (80, 2)).tolist()):
        minima, flags = tuple(map(min, y, tau)), tuple(int(a <= b) for a, b in zip(y, tau))
        records.append(SubjectRecord(LowerRect(tau), "observed", point=minima) if flags == (1, 1) else
                       SubjectRecord(LowerRect(tau), "censored_opaque", minima=minima, events=flags))
    assert {r.status for r in records} == {"observed", "censored_opaque"}
    write_dataset(tmp_path / "d.jsonl", records)
    write_dataset_csv(tmp_path / "d.csv", records)
    decoded = [dataclasses.replace(r, censor=_decoded_box(r.censor.corner)) for r in records]
    forms = [records, decoded, read_dataset(tmp_path / "d.jsonl")[0],
             read_dataset_csv(tmp_path / "d.csv")]
    for form in forms:
        assert form == records
    samples = [CensoredSample(form) for form in forms]
    assert all((s.regions.kind == 1).all() for s in samples)

    def fit(s):
        return [jump_masses(s), [nelson_aalen(s, LowerRect((0.8, 0.9)))],
                nelson_aalen_surface(s, Grid(9, (1.0, 1.0))).values,
                *(marginal_nelson_aalen(s, axis).cum for axis in (0, 1))]

    for s in samples[1:]:
        assert all(map(np.array_equal, fit(s), fit(samples[0])))
    # a full-family sample round-trips through the CSV shortcut to equal regions
    full = simulate_sample(FgmModel(0.3), FAMILIES["full"], 40, rng).records
    write_dataset_csv(tmp_path / "full.csv", full)
    assert read_dataset_csv(tmp_path / "full.csv") == full
