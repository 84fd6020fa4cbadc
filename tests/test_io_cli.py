import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import bihazard
from bihazard.censoring import (BandComplement, CensoringModel, FullSpace, GridProduct,
                                LowerLayer, QuantileTable, Raster, region_to_json)
from bihazard import cli, mc
from bihazard.cli import main
from bihazard.decode import Schema
from bihazard.errors import DataError
from bihazard.estimators import CensoredSample, SubjectRecord, jump_masses, simulate_sample
from bihazard.geometry import LowerRect
from bihazard.inference import TESTS, BootstrapSpec
from bihazard.io import (CSV_COLUMNS, RECORD, read_dataset, read_dataset_csv, read_sample,
                         record_to_json, write_dataset, write_dataset_csv)
from bihazard.models import FgmModel

FULL = FullSpace()


def obs(point, censor=FULL):
    return SubjectRecord(censor=censor, status="observed", point=point)


def worked_records():
    return [obs((0.2, 0.3)), obs((0.5, 0.6)), obs((0.4, 0.1))]


def censored_records():
    return [
        obs((0.2, 0.3)),
        SubjectRecord(censor=LowerRect((0.45, 1.0)), status="censored_latent",
                      latent=(0.5, 0.6)),
        SubjectRecord(censor=LowerRect((0.45, 1.0)), status="censored_opaque",
                      minima=(0.45, 0.1), events=(0, 1)),
    ]


# ---------------------------------------------------------------------------
# JSON-lines format
# ---------------------------------------------------------------------------

def test_record_json_round_trip():
    for rec in censored_records():
        back = RECORD.decode(record_to_json(rec), "record")
        assert back.status == rec.status
        assert back.point == rec.point
        assert back.latent == rec.latent
        assert back.minima == rec.minima
        assert back.events == rec.events
        assert type(back.censor) is type(rec.censor)


def test_record_from_json_errors():
    good = record_to_json(obs((0.2, 0.3)))
    with pytest.raises(DataError):
        RECORD.decode({**good, "status": "gone"}, "record")
    with pytest.raises(DataError):
        RECORD.decode({**good, "extra": 1}, "record")
    with pytest.raises(DataError):
        RECORD.decode({"status": "observed", "point": [0.1, 0.2]}, "record")  # no censor
    with pytest.raises(DataError):
        RECORD.decode({**good, "point": [0.1]}, "record")
    opaque = record_to_json(censored_records()[2])
    with pytest.raises(DataError):
        RECORD.decode({**opaque, "delta": [0, 2]}, "record")
    with pytest.raises(DataError, match="delta"):
        RECORD.decode({**opaque, "delta": [True, False]}, "record")   # booleans are not flags
    with pytest.raises(DataError):
        RECORD.decode("not a dict", "record")


def test_dataset_round_trip_with_header(tmp_path):
    path = tmp_path / "d.jsonl"
    write_dataset(path, censored_records(), header={"note": "x", "n": 3})
    records, header = read_dataset(path)
    assert header == {"note": "x", "n": 3}
    assert [r.status for r in records] == ["observed", "censored_latent",
                                           "censored_opaque"]
    sample = read_sample(path)
    assert sample.n == 3
    with pytest.raises(DataError, match="cannot read dataset"):
        read_sample(tmp_path / "missing.jsonl")


def test_dataset_line_errors(tmp_path):
    path = tmp_path / "bad.jsonl"
    lines = [json.dumps(record_to_json(obs((0.2, 0.3)))),
             json.dumps({"header": {"late": True}})]
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(DataError, match="line 2"):
        read_dataset(path)
    path.write_text(json.dumps(record_to_json(obs((0.2, 0.3)))) + "\n\n{oops\n")
    with pytest.raises(DataError, match="line 3"):
        read_dataset(path)
    # a bad censor region names its line and key path
    bad_region = {**record_to_json(obs((0.2, 0.3))), "censor": {"kind": ["a"]}}
    path.write_text("\n".join([lines[0], lines[0], json.dumps(bad_region)]) + "\n")
    with pytest.raises(DataError, match=r"line 3: censor\.kind must be one of"):
        read_dataset(path)


# ---------------------------------------------------------------------------
# JSON-lines codec: region memos and round-trip properties
# ---------------------------------------------------------------------------

def oracle_json(rec):
    """A record's JSON value, built field by field (the layout the line formatter must match)."""
    out = {"censor": region_to_json(rec.censor), "status": rec.status}
    if rec.status == "observed":
        out["point"] = list(rec.point)
    elif rec.status == "censored_latent":
        out["latent"] = list(rec.latent)
    else:
        out["min"], out["delta"] = list(rec.minima), list(rec.events)
    return out


def test_regions_freed_by_a_generator_keep_their_own_text(tmp_path):
    # each region is dropped once its record is written, so its id may be handed to the next one
    def records():
        for i in range(200):
            yield obs((0.0, 0.0), LowerRect((i / 200, 1.0 - i / 400)))
    path = tmp_path / "d.jsonl"
    write_dataset(path, records())
    lines = path.read_text().splitlines()
    assert lines == [json.dumps(oracle_json(r), sort_keys=True) for r in records()]


def test_equal_regions_written_differently_keep_their_own_text(tmp_path):
    neg, pos = LowerRect((-0.0, 1.0)), LowerRect((0.0, 1.0))
    assert neg == pos
    path = tmp_path / "d.jsonl"
    write_dataset(path, [obs((0.0, 0.5), neg), obs((0.0, 0.5), pos), obs((0.0, 0.6), neg)])
    first = path.read_text()
    assert [json.loads(line)["censor"]["tau"][0] for line in first.splitlines()] == [-0.0, 0.0, -0.0]
    assert '"tau": [-0.0, 1.0]' in first and '"tau": [0.0, 1.0]' in first
    # read back and written again, each line keeps its own sign of zero
    again = tmp_path / "again.jsonl"
    write_dataset(again, read_dataset(path)[0])
    assert again.read_text() == first


def _censor_lines(path, censors):
    point = {"status": "observed", "point": [0.1, 0.1]}
    path.write_text("".join(json.dumps({"censor": c, **point}) + "\n" for c in censors))


def test_a_censor_equal_only_as_a_python_value_is_decoded_again(tmp_path):
    path = tmp_path / "d.jsonl"
    raster = {"kind": "raster", "m": 1, "mask": "1"}
    _censor_lines(path, [raster, raster, {**raster, "m": True}])
    with pytest.raises(DataError, match=r"^line 3: censor\.m must be an integer, got True$"):
        read_dataset(path)
    band = {"kind": "band_complement", "k1": 0.2, "k2": 0.5, "c": 1}
    _censor_lines(path, [band, {**band, "c": True}])
    with pytest.raises(DataError, match=r"^line 2: censor\.c must be a number, got True$"):
        read_dataset(path)
    _censor_lines(path, [raster, {**raster, "m": 1.0}])
    with pytest.raises(DataError, match=r"^line 2: censor\.m must be an integer, got 1\.0$"):
        read_dataset(path)
    # 1 and 1.0 are the same number where a number is asked for, so both lines decode
    _censor_lines(path, [band, {**band, "c": 1.0}])
    back, _ = read_dataset(path)
    assert back[0].censor == back[1].censor == BandComplement(0.2, 0.5, 1.0)


def test_a_bad_censor_is_named_at_its_first_line(tmp_path):
    path = tmp_path / "d.jsonl"
    good, bad = {"kind": "rectangle", "tau": [0.5, 0.5]}, {"kind": "rectangle", "tau": [0.5, 2.0]}
    _censor_lines(path, [good, bad, good, good, bad])
    with pytest.raises(DataError, match=r"^line 2: censor: rectangle corner must lie in"):
        read_dataset(path)


def test_decoded_regions_are_shared_within_a_read_and_not_across_reads(tmp_path):
    path = tmp_path / "d.jsonl"
    layer = LowerLayer(((0.3, 0.9), (0.8, 0.4)))
    write_dataset(path, [obs((0.1, 0.1), layer), obs((0.2, 0.2), layer), obs((0.3, 0.3))])
    first, _ = read_dataset(path)
    again, _ = read_dataset(path)
    assert first == again
    assert first[0].censor is first[1].censor and first[0].censor == layer
    assert first[0].censor is not again[0].censor


def test_sample_records_round_trip_through_a_file(tmp_path):
    cm = CensoringModel("rectangle", {"tau1": QuantileTable.uniform(0.5, 1.0),
                                      "tau2": QuantileTable.fixed(0.8)})
    for form in ("latent", "observable"):
        sample = simulate_sample(FgmModel(0.3), cm, 40, np.random.default_rng(2), form=form)
        path = tmp_path / f"{form}.jsonl"
        write_dataset(path, sample.records)
        assert path.read_text().splitlines() == [json.dumps(oracle_json(r), sort_keys=True)
                                                 for r in sample.records]
        assert read_dataset(path)[0] == sample.records


UNIT = st.one_of(st.sampled_from([-0.0, 0.0, 1.0]), st.floats(0.0, 1.0))
PAIRS = st.tuples(UNIT, UNIT)


@st.composite
def regions(draw):
    kind = draw(st.sampled_from(["full", "rectangle", "grid_product", "band_complement",
                                 "lower_layer", "raster"]))
    if kind == "full":
        return FullSpace()
    if kind == "rectangle":
        return LowerRect(draw(PAIRS))
    if kind == "band_complement":
        k1, k2 = sorted(draw(PAIRS))
        return BandComplement(k1, k2, draw(st.one_of(st.just(1.0), st.floats(1e-3, 2.0))))
    if kind == "raster":
        m = draw(st.integers(1, 3))
        return Raster(m, np.array(draw(st.lists(st.booleans(), min_size=m * m, max_size=m * m)))
                      .reshape(m, m))
    ends = sorted(draw(st.sets(st.floats(0.0, 1.0).filter(bool), min_size=1, max_size=5)))
    if kind == "lower_layer":
        return LowerLayer(tuple(zip(ends, sorted(draw(
            st.sets(UNIT, min_size=len(ends), max_size=len(ends))), reverse=True))))
    start = draw(st.sampled_from([0.0, -0.0]))      # a first interval starts at 0 or -0
    axis = ((start, ends[0]),) + tuple(zip(ends[1::2], ends[2::2]))
    return GridProduct(axis, axis[:1])


@st.composite
def record_lists(draw, regions=regions()):
    table = draw(st.lists(regions, min_size=1, max_size=4))
    out = []
    for _ in range(draw(st.integers(1, 8))):
        censor = draw(st.sampled_from(table))     # regions shared by several records
        status = draw(st.sampled_from(["observed", "censored_latent", "censored_opaque"]))
        if status == "censored_opaque":
            out.append(SubjectRecord(censor=censor, status=status, minima=draw(PAIRS),
                                     events=draw(st.tuples(st.sampled_from([0, 1]),
                                                           st.sampled_from([0, 1])))))
        else:
            out.append(SubjectRecord(censor=censor, status=status,
                                     **{"point" if status == "observed" else "latent": draw(PAIRS)}))
    return out


@settings(max_examples=150)
@given(record_lists(), st.booleans())
def test_jsonl_lines_match_the_oracle_and_read_back_equal(tmp_path_factory, records, header):
    path = tmp_path_factory.getbasetemp() / "property.jsonl"
    write_dataset(path, records, header={"n": len(records)} if header else None)
    lines = path.read_text().splitlines()
    expected = [json.dumps(oracle_json(r), sort_keys=True) for r in records]
    assert lines == ([json.dumps({"header": {"n": len(records)}})] if header else []) + expected
    assert [record_to_json(r) for r in records] == [oracle_json(r) for r in records]
    back, head = read_dataset(path)
    assert back == records and head == ({"n": len(records)} if header else None)
    # what was read writes the same bytes: no sign of zero or float digit is lost
    again = tmp_path_factory.getbasetemp() / "property-again.jsonl"
    write_dataset(again, back)
    assert again.read_text().splitlines() == expected


@settings(max_examples=100)
@given(record_lists(st.builds(LowerRect, PAIRS)))
def test_csv_round_trips_rectangle_records(tmp_path_factory, records):
    path = tmp_path_factory.getbasetemp() / "property.csv"
    write_dataset_csv(path, records)
    expected = []
    for r in records:
        tau = r.censor.corner
        if r.status == "observed":
            m, d = r.point, (1, 1)
        elif r.status == "censored_opaque":
            m, d = r.minima, r.events
        else:
            m = tuple(min(y, t) for y, t in zip(r.latent, tau))
            d = tuple(int(y <= t) for y, t in zip(r.latent, tau))
        expected.append(SubjectRecord(censor=r.censor, status="observed", point=m) if d == (1, 1)
                        else SubjectRecord(censor=r.censor, status="censored_opaque", minima=m,
                                           events=d))
    back = read_dataset_csv(path)
    assert back == expected
    assert [repr(r.censor) for r in back] == [repr(r.censor) for r in records]


# ---------------------------------------------------------------------------
# CSV shortcut
# ---------------------------------------------------------------------------

def test_csv_round_trip(tmp_path):
    path = tmp_path / "d.csv"
    write_dataset_csv(path, censored_records())
    back = read_dataset_csv(path)
    assert [r.status for r in back] == ["observed", "censored_opaque",
                                        "censored_opaque"]
    # full space is written as the unit rectangle
    assert back[0].censor == LowerRect((1.0, 1.0))
    # the latent record is reduced to minima and flags, losslessly for
    # estimation: jump masses agree with the original sample's
    assert back[1].minima == (0.45, 0.6)
    assert back[1].events == (0, 1)
    a = jump_masses(CensoredSample(censored_records()))
    b = jump_masses(CensoredSample(back))
    assert np.array_equal(a, b)
    # read_sample picks the CSV shortcut by the file's suffix
    assert np.array_equal(jump_masses(read_sample(path)), a)


def test_csv_exact_floats(tmp_path):
    pts = [(1 / 3, 2 / 7), (0.123456789012345, 0.9)]
    path = tmp_path / "d.csv"
    write_dataset_csv(path, [obs(p) for p in pts])
    back = read_dataset_csv(path)
    for rec, p in zip(back, pts):
        assert rec.point == p


def test_csv_errors(tmp_path):
    path = tmp_path / "d.csv"
    layered = SubjectRecord(censor=LowerLayer(((0.5, 0.5),)), status="observed",
                            point=(0.2, 0.2))
    with pytest.raises(DataError):
        write_dataset_csv(path, [layered])
    path.write_text("a,b\n")
    with pytest.raises(DataError, match="header"):
        read_dataset_csv(path)
    head = ",".join(CSV_COLUMNS)
    path.write_text(head + "\n0.1,0.2,1,1\n")
    with pytest.raises(DataError, match="line 2"):
        read_dataset_csv(path)
    path.write_text(head + "\n0.1,0.2,1,7,1.0,1.0\n")
    with pytest.raises(DataError, match="delta"):
        read_dataset_csv(path)
    path.write_text(head + "\n0.1,0.2,x,1,1.0,1.0\n")
    with pytest.raises(DataError, match="line 2"):
        read_dataset_csv(path)
    path.write_text(head + "\n0.1,0.2,1,1,1.5,0.9\n")
    with pytest.raises(DataError, match=r"line 2: rectangle corner must lie in \[0,1\]\^2"):
        read_dataset_csv(path)
    path.write_text("")
    with pytest.raises(DataError, match="empty"):
        read_dataset_csv(path)


# ---------------------------------------------------------------------------
# CLI plumbing
# ---------------------------------------------------------------------------

RECT_CM = {"family": "rectangle",
           "tau1": {"kind": "uniform", "low": 0.5, "high": 1.0},
           "tau2": {"kind": "uniform", "low": 0.5, "high": 1.0}}


def wjson(path, obj):
    path.write_text(json.dumps(obj) + "\n")
    return str(path)


def test_cli_simulate_then_estimate(tmp_path):
    cfgp = wjson(tmp_path / "sim.json", {"masterSeed": 7, "n": 30,
                                         "model": {"theta": 0.3},
                                         "censorModel": RECT_CM})
    outdir = tmp_path / "sim_out"
    assert main(["simulate", "--config", cfgp, "--out", str(outdir)]) == 0
    data = outdir / "dataset.jsonl"
    records, header = read_dataset(data)
    assert header["n"] == 30 and header["form"] == "observable"
    assert len(records) == 30
    assert all(r.status == "censored_opaque" for r in records)
    manifest = json.loads((outdir / "manifest.json").read_text())
    assert set(manifest) == {"version", "command", "inputs", "outputs"}
    assert manifest["command"] == "simulate"
    assert "dataset.jsonl" in manifest["outputs"]
    assert "resolved_config.json" in manifest["outputs"]
    assert "manifest.json" not in manifest["outputs"]
    assert cfgp in manifest["inputs"]

    ecfg = wjson(tmp_path / "est.json", {"grid": {"size": 9, "tau": [0.9, 0.9]}})
    eout = tmp_path / "est_out"
    assert main(["estimate", "--config", ecfg, "--out", str(eout),
                 "--data", str(data)]) == 0
    summary = json.loads((eout / "summary.json").read_text())
    assert summary["n"] == 30
    assert summary["grid"] == {"size": 9, "tau": [0.9, 0.9]}
    assert summary["marginalsComputed"] is True
    assert (eout / "surface.csv").exists()
    assert (eout / "jumps.csv").exists()
    assert (eout / "marginal1.csv").exists()
    assert (eout / "marginal2.csv").exists()


def test_cli_simulate_latent_and_empty(tmp_path, capsys):
    cfgp = wjson(tmp_path / "sim.json", {"masterSeed": 9, "n": 12,
                                         "model": {"theta": 0.0},
                                         "censorModel": RECT_CM})
    outdir = tmp_path / "lat"
    assert main(["simulate", "--config", cfgp, "--out", str(outdir), "--latent"]) == 0
    records, header = read_dataset(outdir / "dataset.jsonl")
    assert header["form"] == "latent"
    assert {r.status for r in records} <= {"observed", "censored_latent"}
    out0 = tmp_path / "empty"
    assert main(["simulate", "--config", cfgp, "--out", str(out0),
                 "--set", "n=0"]) == 0
    records, header = read_dataset(out0 / "dataset.jsonl")
    assert records == [] and header["n"] == 0
    capsys.readouterr()
    outneg = tmp_path / "negative"
    assert main(["simulate", "--config", cfgp, "--out", str(outneg), "--set", "n=-1"]) == 2
    err = capsys.readouterr().err
    assert "n must be at least 0" in err and "Traceback" not in err
    assert not outneg.exists()


def test_cli_estimate_worked_sample(tmp_path):
    data = tmp_path / "worked.jsonl"
    write_dataset(data, worked_records())
    cfgp = wjson(tmp_path / "est.json", {"grid": {"size": 21, "tau": [1.0, 1.0]}})
    outdir = tmp_path / "out"
    assert main(["estimate", "--config", cfgp, "--out", str(outdir),
                 "--data", str(data)]) == 0
    summary = json.loads((outdir / "summary.json").read_text())
    assert summary["fullWindowEstimate"] == 2.0
    assert summary["observedCount"] == 3
    lines = (outdir / "surface.csv").read_text().strip().splitlines()
    assert lines[0] == "t1,t2,Hhat"
    assert len(lines) == 1 + 21 * 21


def test_cli_estimate_marginals_flag(tmp_path):
    # raster censoring has no marginal reduction: 'auto' skips, true errors
    mask = "1" * 4
    rec = {"censor": {"kind": "raster", "m": 2, "mask": mask},
           "status": "observed", "point": [0.2, 0.2]}
    data = tmp_path / "r.jsonl"
    data.write_text(json.dumps(rec) + "\n")
    cfgp = wjson(tmp_path / "c.json", {"grid": {"size": 4, "tau": [1.0, 1.0]}})
    outdir = tmp_path / "auto"
    assert main(["estimate", "--config", cfgp, "--out", str(outdir),
                 "--data", str(data)]) == 0
    summary = json.loads((outdir / "summary.json").read_text())
    assert summary["marginalsComputed"] is False
    assert not (outdir / "marginal1.csv").exists()
    strict = wjson(tmp_path / "s.json", {"grid": {"size": 4, "tau": [1.0, 1.0]},
                                         "marginals": True})
    assert main(["estimate", "--config", strict, "--out", str(tmp_path / "strict"),
                 "--data", str(data)]) == 3
    assert not (tmp_path / "strict").exists()


def _write_two_samples(tmp_path, theta1=0.0, theta2=0.0, n=35):
    d1 = tmp_path / "s1.jsonl"
    d2 = tmp_path / "s2.jsonl"
    cm = CensoringModel("rectangle", {"tau1": QuantileTable.uniform(0.6, 1.0),
                                      "tau2": QuantileTable.uniform(0.6, 1.0)})
    write_dataset(d1, simulate_sample(FgmModel(theta1), cm, n,
                                      np.random.default_rng(101)).records)
    write_dataset(d2, simulate_sample(FgmModel(theta2), cm, n,
                                      np.random.default_rng(102)).records)
    return str(d1), str(d2)


def test_cli_independence_with_overrides_and_dump(tmp_path):
    d1, _ = _write_two_samples(tmp_path)
    cfgp = wjson(tmp_path / "t.json", {"masterSeed": 11, "test": "independence",
                                       "bootstrap": {"B": 29, "alpha": 0.1,
                                                     "gridSize": 8},
                                       "replicateDump": True})
    outdir = tmp_path / "t_out"
    assert main(["test", "--config", cfgp, "--out", str(outdir),
                 "--data", d1, "--set", "bootstrap.B=15"]) == 0
    report = json.loads((outdir / "test_report.json").read_text())
    assert set(report) == {"test", "statistic", "criticalValue", "pValue",
                           "reject", "alpha", "replicates", "diagnostics"}
    assert report["test"] == "independence"
    assert report["replicates"] == 15       # the --set override won
    lines = (outdir / "replicates.csv").read_text().strip().splitlines()
    assert lines[0] == "replicateIndex,statistic"
    assert len(lines) == 1 + 15


def test_cli_hazard_order_with_region(tmp_path):
    d1, d2 = _write_two_samples(tmp_path)
    cfgp = wjson(tmp_path / "h.json", {"masterSeed": 13, "test": "hazard-order",
                                       "bootstrap": {"B": 19},
                                       "region": {"kind": "rectangle",
                                                  "tau": [0.7, 0.7]}})
    outdir = tmp_path / "h_out"
    assert main(["test", "--config", cfgp, "--out", str(outdir),
                 "--data", d1, "--data2", d2]) == 0
    report = json.loads((outdir / "test_report.json").read_text())
    assert report["diagnostics"]["regionMode"] == "fixed"


def test_cli_test_config_errors(tmp_path, capsys):
    d1, d2 = _write_two_samples(tmp_path)
    out = str(tmp_path / "x")

    def run(cfg, data2=None, data=d1):
        cfgp = wjson(tmp_path / "cfg.json", cfg)
        argv = ["test", "--config", cfgp, "--out", out, "--data", data]
        if data2:
            argv += ["--data2", data2]
        return main(argv)

    assert run({"masterSeed": 1, "test": "independence", "quiet": True}) == 2
    assert run({"masterSeed": 1, "test": "independence"}, data2=d2) == 2
    assert run({"masterSeed": 1, "test": "hazard-order"}) == 2
    assert run({"masterSeed": 1, "test": "fgm-order", "marginalsEqual": True},
               data2=d2) == 2
    assert run({"masterSeed": 1, "test": "fgm-order", "tau": [0.7, 0.7]},
               data2=d2) == 2
    assert run({"masterSeed": 1, "test": "mystery"}) == 2
    assert run({"test": "independence"}) == 2
    assert run({"masterSeed": -3, "test": "independence"}) == 2
    assert run({"masterSeed": 1, "test": "independence"},
               data=str(tmp_path / "missing.jsonl")) == 3
    capsys.readouterr()

    # malformed values and missing keys name the key instead of a traceback
    for b in ("x", True, 9.5):
        assert run({"masterSeed": 1, "test": "independence", "bootstrap": {"B": b}}) == 2
        assert "bootstrap.B must be an integer" in capsys.readouterr().err
    assert run({"masterSeed": 1, "test": "independence",
                "bootstrap": {"alpha": "0.05"}}) == 2
    assert "alpha must be a number" in capsys.readouterr().err
    assert run({"masterSeed": 1, "test": "hazard-order", "region": {"kind": "rectangle"}},
               data2=d2) == 3
    assert "region.tau is required" in capsys.readouterr().err
    for cm, key in (({"family": "rectangle", "tau2": RECT_CM["tau2"]}, "tau1"),
                    ({"family": "rectangle", "tau1": {"kind": "uniform", "low": 0.5},
                      "tau2": RECT_CM["tau2"]}, "tau1.high"),
                    ({"family": "grid_product"}, "region")):
        cfgp = wjson(tmp_path / "sim.json", {"masterSeed": 1, "n": 5, "model": {"theta": 0.0},
                                             "censorModel": cm})
        assert main(["simulate", "--config", cfgp, "--out", str(tmp_path / "sim")]) == 2
        assert f"censorModel.{key} is required" in capsys.readouterr().err

    # booleans are decoded as JSON booleans, not by truthiness
    fgm_cfg = str(Path(__file__).resolve().parents[1] / "configs" / "test_fgm_order.json")
    assert main(["test", "--config", fgm_cfg, "--out", out, "--data", d1, "--data2", d2,
                 "--set", 'marginalsEqual="false"']) == 2
    err = capsys.readouterr().err
    assert "marginalsEqual must be a boolean" in err and "Traceback" not in err


def test_cli_fgm_unattainable_is_numeric_error(tmp_path):
    recs = [SubjectRecord(censor=LowerRect((0.3, 1.0)), status="censored_opaque",
                          minima=(0.3, y), events=(0, 1))
            for y in (0.2, 0.4, 0.6)]
    d1 = tmp_path / "op.jsonl"
    write_dataset(d1, recs)
    _, d2 = _write_two_samples(tmp_path)
    cfgp = wjson(tmp_path / "f.json", {"masterSeed": 17, "test": "fgm-order",
                                       "tau": [0.7, 0.7], "marginalsEqual": False,
                                       "bootstrap": {"B": 9, "gridSize": 4}})
    code = main(["test", "--config", cfgp, "--out", str(tmp_path / "f_out"),
                 "--data", str(d1), "--data2", d2])
    assert code == 4


def test_cli_test_thread_invariance(tmp_path):
    d1, d2 = _write_two_samples(tmp_path)
    cfgp = wjson(tmp_path / "t.json", {"masterSeed": 19, "test": "hazard-order",
                                       "bootstrap": {"B": 21, "gridSize": 6},
                                       "replicateDump": True})
    out1, out2 = tmp_path / "one", tmp_path / "many"
    assert main(["test", "--config", cfgp, "--out", str(out1),
                 "--data", d1, "--data2", d2, "--threads", "1"]) == 0
    assert main(["test", "--config", cfgp, "--out", str(out2),
                 "--data", d1, "--data2", d2, "--threads", "3"]) == 0
    for name in ("test_report.json", "replicates.csv"):
        assert (out1 / name).read_bytes() == (out2 / name).read_bytes()


def test_cli_mc_thread_invariance(tmp_path):
    cfg = {"masterSeed": 23, "experiment": "size_power",
           "model": {"theta": 0.0}, "censorModel": {"family": "full"},
           "replicates": 4,
           "scenarios": [{"name": "s", "test": "independence", "n": 20,
                          "B": 9, "gridSize": 6}]}
    cfgp = wjson(tmp_path / "mc.json", cfg)
    out1, out2 = tmp_path / "a", tmp_path / "b"
    assert main(["mc", "--config", cfgp, "--out", str(out1), "--threads", "1"]) == 0
    assert main(["mc", "--config", cfgp, "--out", str(out2), "--threads", "2"]) == 0
    assert (out1 / "mc_report.json").read_bytes() == (out2 / "mc_report.json").read_bytes()
    body = json.loads((out1 / "mc_report.json").read_text())
    assert "runtime" not in body
    assert (out1 / "mc_report.csv").exists()


# experiment, config keys beyond the shared ones, the same run through the Python API, row names
MC_EXPERIMENTS = [
    ("clt", {"n": 30, "checkpoints": [[0.5, 0.6]], "varRtol": 0.2, "ksBound": 0.3,
             "checks": ["variance", "normality"]},
     lambda cfg: mc.verify_clt(cfg, [(0.5, 0.6)], var_rtol=0.2, ks_bound=0.3,
                               checks=("variance", "normality")),
     ["variance@(0.5,0.6)", "normality@(0.5,0.6)"]),
    ("glivenko", {"ladder": [40, 20], "bound": 0.3, "gridSize": 6},
     lambda cfg: mc.verify_glivenko(cfg, ladder=(20, 40), bound=0.3),
     ["median_sup@n=20", "median_sup@n=40", "ladder_monotone", "final_median"]),
    ("iid_repr", {"region": [0.6, 0.6], "ladder": [20, 40]},
     lambda cfg: mc.verify_iid_representation(cfg, LowerRect((0.6, 0.6)), ladder=(20, 40)),
     ["median_gap@n=20", "median_gap@n=40", "ladder_monotone"]),
    ("size_power", {"scenarios": [{"name": "s", "test": "hazard-order", "n": 20, "m": 25, "B": 9,
                                   "gridSize": 6, "sided": "two-sided"}]},
     lambda cfg: mc.size_power_study(cfg, [{"name": "s", "test": "hazard-order", "n": 20, "m": 25,
                                            "B": 9, "grid_size": 6, "sided": "two-sided"}]),
     ["rate:s"]),
    ("coverage", {"n": 30, "B": 19, "alpha": 0.1, "gridSize": 6, "band": [0.5, 1.0]},
     lambda cfg: mc.coverage_study(cfg, alpha=0.1, b=19, band=(0.5, 1.0)), ["coverage"]),
]


@pytest.mark.parametrize("experiment, extra, direct, names", MC_EXPERIMENTS,
                         ids=[row[0] for row in MC_EXPERIMENTS])
def test_cli_mc_experiments_match_the_python_api(tmp_path, experiment, extra, direct, names):
    cfg = {"masterSeed": 29, "experiment": experiment, "model": {"theta": 0.4},
           "censorModel": {"family": "rectangle",
                           "tau1": {"kind": "uniform", "low": 0.7, "high": 1.0},
                           "tau2": {"kind": "uniform", "low": 0.7, "high": 1.0}},
           "replicates": 4, **extra}
    cfgp = wjson(tmp_path / "mc.json", cfg)
    out1, out2 = tmp_path / "a", tmp_path / "b"
    assert main(["mc", "--config", cfgp, "--out", str(out1), "--threads", "1"]) == 0
    assert main(["mc", "--config", cfgp, "--out", str(out2), "--threads", "2"]) == 0
    body = json.loads((out1 / "mc_report.json").read_text())
    assert body["experiment"] == experiment and body["passed"] is None
    assert [row["name"] for row in body["rows"]] == names
    for name in ("mc_report.json", "mc_report.csv"):
        assert (out1 / name).read_bytes() == (out2 / name).read_bytes()
    # the command reports what the Python API computes from the same options, number for number
    model = FgmModel(0.4)
    censor = CensoringModel("rectangle", {"tau1": QuantileTable.uniform(0.7, 1.0),
                                          "tau2": QuantileTable.uniform(0.7, 1.0)})
    want = direct(mc.MCConfig(model, censor, n=extra.get("n", 500), replicates=4,
                              grid_size=extra.get("gridSize", 32), seed=29)).to_json()
    want.pop("runtime")
    assert body == json.loads(json.dumps(want, default=lambda obj: obj.tolist()))


def test_cli_mc_scenario_errors(tmp_path, capsys, monkeypatch):
    base = {"masterSeed": 1, "experiment": "size_power", "model": {"theta": 0.0},
            "censorModel": {"family": "full"}, "replicates": 2}
    bad1 = dict(base, scenarios=[{"name": "s", "test": "independence", "mean": 1}])
    assert main(["mc", "--config", wjson(tmp_path / "1.json", bad1),
                 "--out", str(tmp_path / "o1")]) == 2
    bad2 = dict(base, scenarios=[{"test": "independence"}])
    assert main(["mc", "--config", wjson(tmp_path / "2.json", bad2),
                 "--out", str(tmp_path / "o2")]) == 2
    bad3 = dict(base, experiment="mystery")
    assert main(["mc", "--config", wjson(tmp_path / "3.json", bad3),
                 "--out", str(tmp_path / "o3")]) == 2

    # mistyped values exit 2 with a message naming the field, not a traceback
    clt = wjson(tmp_path / "clt.json", dict(base, experiment="clt", checkpoints=[[0.5, 0.5]]))
    capsys.readouterr()
    for assignment, field in (('replicates="x"', "replicates"), ("n=null", "n"),
                              ("gridSize=2.5", "gridSize")):
        assert main(["mc", "--config", clt, "--out", str(tmp_path / "o4"),
                     "--set", assignment]) == 2
        err = capsys.readouterr().err
        assert f"{field} must be an integer" in err and "Traceback" not in err
    # types are decoded, and every scenario's sample sizes are checked before any runs
    for key, value, message in (("n", None, "scenarios[1].n must be an integer"),
                                ("m", 0, "scenarios[1].m must be at least 1"),
                                ("n", 2.5, "scenarios[1].n must be an integer"),
                                ("n", True, "scenarios[1].n must be an integer")):
        scen = {"name": "s", "test": "hazard-order", "B": 9, key: value}
        bad = dict(base, scenarios=[{"name": "ok", "test": "independence"}, scen])
        assert main(["mc", "--config", wjson(tmp_path / "5.json", bad),
                     "--out", str(tmp_path / "o5")]) == 2
        err = capsys.readouterr().err
        assert message in err and "Traceback" not in err
    # refused options of a test too, by the rule the test itself applies, before any replicate
    monkeypatch.setattr(mc, "_scenario_reject", lambda *a: pytest.fail("a replicate ran"))
    for scen, message in (({"region": {"kind": "rectangle", "tau": [0.7, 0.7]}, "tau": [0.5, 0.5]},
                           "scenarios[1]: tau sets the grid window; a fixed region takes no tau"),
                          ({"test": "fgm-order", "sided": "two-sided"},
                           "scenarios[1]: fgm-order is one-sided by construction"),
                          ({"B": 0}, "scenarios[1].B: replicates must be at least 1"),
                          ({"alpha": 0}, "scenarios[1].alpha: alpha must lie in (0, 1]"),
                          ({"sided": "both"}, "scenarios[1].sided: sided must be")):
        bad = dict(base, scenarios=[{"name": "ok", "test": "independence"},
                                    {"name": "s", "test": "hazard-order", "B": 9, **scen}])
        assert main(["mc", "--config", wjson(tmp_path / "5.json", bad),
                     "--out", str(tmp_path / "o5")]) == 2
        err = capsys.readouterr().err
        assert message in err and "Traceback" not in err
        assert not (tmp_path / "o5").exists()
    # coverage refuses its own B and alpha the same way, before any replicate draws a sample
    monkeypatch.setattr(mc, "_draw", lambda *a: pytest.fail("a replicate ran"))
    coverage = wjson(tmp_path / "cov.json", dict(base, experiment="coverage"))
    for assignment, message in (("B=0", "config error: B: replicates must be at least 1"),
                                ("alpha=0", "config error: alpha: alpha must lie in (0, 1]")):
        assert main(["mc", "--config", coverage, "--out", str(tmp_path / "o8"),
                     "--set", assignment]) == 2
        err = capsys.readouterr().err
        assert message in err and "Traceback" not in err
        assert not (tmp_path / "o8").exists()
    bad = dict(base, scenarios=[{"name": "s", "test": "independence", "exceeds": ["t", 0.1]}])
    assert main(["mc", "--config", wjson(tmp_path / "6.json", bad),
                 "--out", str(tmp_path / "o6")]) == 2
    err = capsys.readouterr().err
    assert "scenarios[0].exceeds names no scenario: 't'" in err and "Traceback" not in err

    # float fields are checked as numbers, and unknown checks are refused
    glivenko = wjson(tmp_path / "gl.json", dict(base, experiment="glivenko", ladder=[20, 40]))
    for cfgp, assignment, field in ((clt, 'varRtol="x"', "varRtol"), (clt, "ksBound=true", "ksBound"),
                                    (glivenko, "bound=[0.1]", "bound")):
        assert main(["mc", "--config", cfgp, "--out", str(tmp_path / "o6"),
                     "--set", assignment]) == 2
        err = capsys.readouterr().err
        assert f"{field} must be a number" in err and "Traceback" not in err
    assert main(["mc", "--config", clt, "--out", str(tmp_path / "o7"),
                 "--set", 'checks=["mean","bogus"]']) == 2
    err = capsys.readouterr().err
    assert "unknown check 'bogus'" in err and "Traceback" not in err


def test_cli_validate(tmp_path):
    good = {"censorModel": {"family": "full"}, "model": {"theta": 0.2},
            "grid": {"size": 8, "tau": [0.8, 0.8]}}
    outdir = tmp_path / "ok"
    assert main(["validate", "--config", wjson(tmp_path / "g.json", good),
                 "--out", str(outdir)]) == 0
    result = json.loads((outdir / "validation.json").read_text())
    assert result["passed"] is True
    assert result["model"]["survivalAtCorner"] > 0
    assert result["model"]["quadratureConverged"] is True

    bad = {"censorModel": RECT_CM, "grid": {"size": 8, "tau": [1.0, 1.0]}}
    code = main(["validate", "--config", wjson(tmp_path / "b.json", bad),
                 "--out", str(tmp_path / "bad")])
    assert code == 5
    result = json.loads((tmp_path / "bad" / "validation.json").read_text())
    assert result["passed"] is False


def test_cli_validate_and_estimate_type_errors(tmp_path, capsys):
    good = {"censorModel": {"family": "full"}, "grid": {"size": 8, "tau": [0.8, 0.8]}}
    cfgp = wjson(tmp_path / "v.json", good)
    data = tmp_path / "worked.jsonl"
    write_dataset(data, worked_records())
    ecfg = wjson(tmp_path / "e.json", {"grid": {"size": 8, "tau": [1.0, 1.0]}})
    capsys.readouterr()
    cases = [(["validate", "--config", cfgp], 'epsilon="x"', "epsilon must be a number")]
    for size in ("2.5", '"8"', "true"):
        for cmd in (["validate", "--config", cfgp], ["estimate", "--config", ecfg, "--data", str(data)]):
            cases.append((cmd, f"grid.size={size}", "grid.size must be an integer"))
    for k, (cmd, assignment, message) in enumerate(cases):
        assert main(cmd + ["--out", str(tmp_path / f"o{k}"), "--set", assignment]) == 2
        err = capsys.readouterr().err
        assert message in err and "Traceback" not in err
        assert not (tmp_path / f"o{k}").exists()


def test_cli_config_plumbing_errors(tmp_path):
    assert main(["validate", "--config", str(tmp_path / "none.json"),
                 "--out", str(tmp_path / "o")]) == 2
    listp = tmp_path / "list.json"
    listp.write_text("[1, 2]\n")
    assert main(["validate", "--config", str(listp), "--out", str(tmp_path / "o")]) == 2
    cfgp = wjson(tmp_path / "v.json", {"censorModel": {"family": "full"}})
    assert main(["validate", "--config", cfgp, "--out", str(tmp_path / "o"),
                 "--set", "oops"]) == 2
    assert main(["validate", "--config", cfgp, "--out", str(tmp_path / "o"),
                 "--set", "censorModel.family.deep=1"]) == 2
    assert main(["validate", "--config", cfgp, "--out", str(tmp_path / "o"),
                 "--threads", "0"]) == 2


def test_cli_import_leaves_scipy_stats_unloaded():
    src = str(Path(bihazard.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    # the CLT normality row is the one place that used scipy.stats.kstest
    probe = ("import sys, bihazard.cli\n"
             "from bihazard import CensoringModel, FgmModel, MCConfig, verify_clt\n"
             "verify_clt(MCConfig(FgmModel(0.0), CensoringModel('full'), n=20, replicates=3),\n"
             "           [(0.5, 0.5)], checks=('normality',))\n"
             "print(any(m.split('.')[0] == 'scipy' for m in sys.modules))")
    out = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True,
                         text=True, check=True, timeout=120)
    assert out.stdout.strip() == "False"


# ---------------------------------------------------------------------------
# golden outputs: every CLI command on configs/, byte for byte
# ---------------------------------------------------------------------------

CONFIGS = Path(__file__).resolve().parents[1] / "configs"
BAND_CM = {"family": "band_complement", "k1": {"kind": "uniform", "low": 0.1, "high": 0.5},
           "k2": {"kind": "uniform", "low": 0.3, "high": 0.9}, "c": 0.2}
DUMP = ["--set", "replicateDump=true"]


def _golden_runs(tmp_path):
    """(name, argv) of each command in order; a run may read an earlier run's dataset."""
    band = {"masterSeed": 11, "n": 150, "model": {"theta": 0.4}, "censorModel": BAND_CM}
    data, data2, band_data = (str(tmp_path / d / "dataset.jsonl") for d in ("sim", "sim2", "band_sim"))
    return [
        ("sim", ["simulate", "--config", CONFIGS / "simulate.json"]),
        ("sim2", ["simulate", "--config", CONFIGS / "simulate.json", "--set", "masterSeed=20260107"]),
        ("sim_latent", ["simulate", "--config", CONFIGS / "simulate.json", "--latent"]),
        ("estimate", ["estimate", "--config", CONFIGS / "estimate.json", "--data", data]),
        ("independence", ["test", "--config", CONFIGS / "test_independence.json", "--data", data]),
        ("hazard_order", ["test", "--config", CONFIGS / "test_hazard_order.json", "--data", data,
                          "--data2", data2, *DUMP]),
        ("fgm_order", ["test", "--config", CONFIGS / "test_fgm_order.json", "--data", data,
                       "--data2", data2, *DUMP]),
        ("mc_clt", ["mc", "--config", CONFIGS / "mc_clt.json"]),
        ("mc_size_power", ["mc", "--config", CONFIGS / "mc_size_power.json"]),
        ("validate", ["validate", "--config", CONFIGS / "validate.json"]),
        ("band_sim", ["simulate", "--config", wjson(tmp_path / "band.json", band), "--latent"]),
        ("band_estimate", ["estimate", "--config", CONFIGS / "estimate.json", "--data", band_data]),
        ("band_validate", ["validate", "--config", CONFIGS / "validate.json",
                           "--set", f"censorModel={json.dumps(BAND_CM)}", "--set", "grid.size=16"]),
    ]


# sha256 of every output file but manifest.json, which holds absolute input paths.  Frozen
# from the outputs before inclusion became closed form for band complements, except
# band_validate, whose inclusion probabilities were Monte Carlo estimates then.  Floats
# go through NumPy's and the BLAS's arithmetic, so another build may need them taken afresh.
GOLDEN = {
    "sim": {
        "dataset.jsonl": "3e62809f305f9dc4a0513125c9718faee9751c9378979e9eca7d576d737f2345",
        "resolved_config.json": "a5099cfc035a8743c049eb79c778e5c3d787fb3aa59e95436c6810806cc8d67b",
    },
    "sim2": {
        "dataset.jsonl": "d26d5546ffe7ed86d03ad934e8106d346c7ec89b297b58f3f091b3563fa1c284",
        "resolved_config.json": "cee75cae1f35f133febde00a0ce933616dba2651115b6f25f0f70ff94ae4824c",
    },
    "sim_latent": {
        "dataset.jsonl": "5bb4d3821bbdd737696c08977e3f5ad850f55126768b1316102b8cc8cf9fdfda",
        "resolved_config.json": "a5099cfc035a8743c049eb79c778e5c3d787fb3aa59e95436c6810806cc8d67b",
    },
    "estimate": {
        "jumps.csv": "c6747ed298c35376e63ef4fd15ae7c00eaa7b8d307957aec11df7a92d4310e95",
        "marginal1.csv": "31c8018c6da1f1a368f71bc0d5f82329f6cb6b15c7368ceb8f197a945b6cf394",
        "marginal2.csv": "f33482b412d3a596495622283a881a1005a5dcb59d7e52ed5a0bc71150780c81",
        "resolved_config.json": "c120d50f9de2533153f42f1393e4f05317ab4bb5c6285bfb1144492db6b7c8c7",
        "summary.json": "fe1d23100172be70974f1c141e79e25f28762008c336e4a187ff1f7561f6aac6",
        "surface.csv": "afb42e1f0737da3413ab1c010c0902be4b331150bad6427ad0492540560e6ad0",
    },
    "independence": {
        "replicates.csv": "db3e087ed8e47ddb9f4e34ca4504251ac2609dfa6297981df30753a990d2aa64",
        "resolved_config.json": "74dc911d9a1d9306f2a0196b23c929a450db656c651c8389afe8554040d87749",
        "test_report.json": "38be638abba544eddad7b1d16a768117bfd39fa476a3c80f1ba82da746b2231b",
    },
    "hazard_order": {
        "replicates.csv": "174f1602877fc45c0757f0b1783f81473b07dc956fde24580895872c151297c7",
        "resolved_config.json": "d3d7005447d7ecc27d53eb571c0d8999037d8ef0b9ca5120d1e06b31c44f5ff5",
        "test_report.json": "578706e9fd2ed773c3ac2e574c90a4efa83b04adc59d9f82348ebc43f4b59ede",
    },
    "fgm_order": {
        "replicates.csv": "e7bc5c992f85fcf34c84127a37d7deb7e205733001398f50dcf3c79ef72f0c29",
        "resolved_config.json": "399d07f459489e9910bc84e8e315e32ed22e6e70c7cab3f2f860c39fd1747025",
        "test_report.json": "28ca56a0aa5f47929c23b24dda36c1ca1264d06dc4a84936585a1eb2e19ec259",
    },
    "mc_clt": {
        "mc_report.csv": "bdd8d39c6418b05971ef0eb57efe225e1e1863e184c92f221cd77566827a2b44",
        "mc_report.json": "2f63574af9dbc0ef65e21e93039954ccf441776f64ae823e01ce9b5ea4bd07ad",
        "resolved_config.json": "cfa7b71c91c2f64f236ab406202a09f3ab037769ee13711cb9aa8899b26fd298",
    },
    "mc_size_power": {
        "mc_report.csv": "ccbe216abf4cf1703ade048b05c6b54c1328efa5f564554da6d3aaed999f933b",
        "mc_report.json": "10a040e249c975534e338d44a8cb1ef58ccf5c057b560de01471ad3d8d9265e4",
        "resolved_config.json": "4b2b5dc54021812baded0775c56228265e28f27b233a1b750792b850d7b3a57d",
    },
    "validate": {
        "resolved_config.json": "63be3a337693a91c63f6e6ce561e7c7b759ffed01afa69167fa9a99cce02a5d1",
        "validation.json": "35da92929a5550a6267a97245fcfa29c599357adae25e524c1edaa628bb92b89",
    },
    "band_sim": {
        "dataset.jsonl": "b592a55f9f8247a30dd56c2d825988810619f79b71c4a1697827544452775fa2",
        "resolved_config.json": "ec15c37df8069cdd0c9672ed3e207d57ab7293b74c5fda5e40e415d4d893ac0c",
    },
    "band_estimate": {
        "jumps.csv": "d13c0ddb694aa557a0400031037b2373c56416dedcf36b67584d2cf5729880a6",
        "marginal1.csv": "c7de20afceaf0d04515048a0e6c444059dab19954c7827af2669672fef74fa6a",
        "marginal2.csv": "bc7d17b9156518d78a39faa41eb77c99bf8f59a0f070c5ceb8a5e7cd28482b4a",
        "resolved_config.json": "c120d50f9de2533153f42f1393e4f05317ab4bb5c6285bfb1144492db6b7c8c7",
        "summary.json": "4fd031b539cd0cef1fd7e6ea6109cbb626695d0d65bd9d454bb30da9de458494",
        "surface.csv": "f7ee6886ec971d3c7c98c703c4827452cc08a876c67d0ba89c10e796ee934a7b",
    },
    "band_validate": {
        "resolved_config.json": "b22e5097b61334eae42c02fcad2b0e09e7955e3095bb831a287e26714188444a",
        "validation.json": "61563e1ede5fa29863badbcfc3c21c2a95235ed05aaa6087d8cedaaa3d3cb911",
    },
}


def test_cli_outputs_match_their_golden_digests(tmp_path):
    got = {}
    for name, argv in _golden_runs(tmp_path):
        out = tmp_path / name
        assert main([str(a) for a in argv] + ["--out", str(out)]) == 0, name
        got[name] = {f.name: hashlib.sha256(f.read_bytes()).hexdigest()
                     for f in sorted(out.iterdir()) if f.name != "manifest.json"}
    assert got == GOLDEN


@pytest.mark.parametrize("options", [
    {"test": "independence", "tau": [0.7, 0.6]},
    {"test": "hazard-order", "tau": [0.7, 0.6]},
    {"test": "hazard-order", "region": {"kind": "rectangle", "tau": [0.7, 0.7]}},
    {"test": "fgm-order", "tau": [0.7, 0.7], "marginalsEqual": False}])
def test_test_table_reads_a_test_config_and_a_scenario_alike(options):
    # `bihazard test` and a size_power scenario decode the same keys into the same call
    config = cli._TEST.decode({"masterSeed": 1, **options})
    scenario = Schema(cli._SCENARIO).decode({"name": "s", **options})
    keys, call = TESTS[options["test"]]
    rng = np.random.default_rng(5)
    samples = [simulate_sample(FgmModel(0.3), CensoringModel("full"), 40, rng) for _ in keys]
    spec = BootstrapSpec(replicates=19, seed=4, grid_size=8)
    got, want = call(samples, spec, scenario), call(samples, spec, config)
    assert got.to_json() == want.to_json()
    assert np.array_equal(got.replicate_statistics, want.replicate_statistics)
    if "tau" in options:
        assert got.diagnostics["tau"] == options["tau"]
    assert got.diagnostics.get("marginalsEqual") is options.get("marginalsEqual")


@pytest.mark.parametrize("command,config,heavy", [
    ("simulate", "simulate.json", "bihazard.cli.simulate_sample"),
    ("estimate", "estimate.json", "bihazard.cli.nelson_aalen_surface"),
    ("test", "test_independence.json", "bihazard.inference.independence_test"),
    ("mc", "mc_clt.json", "bihazard.mc.verify_clt"),
    ("validate", "validate.json", "bihazard.censoring.validate_censoring")])
def test_cli_out_of_memory_exits_2_naming_the_command(tmp_path, capsys, monkeypatch,
                                                      command, config, heavy):
    # stands in for a size key that asks for more memory than the machine grants
    def exhausted(*args, **kwargs):
        raise MemoryError("Unable to allocate 298. GiB")

    data = tmp_path / "worked.jsonl"
    write_dataset(data, worked_records())
    monkeypatch.setattr(heavy, exhausted)
    argv = [command, "--config", str(CONFIGS / config), "--out", str(tmp_path / "out")]
    if command in ("estimate", "test"):
        argv += ["--data", str(data)]
    capsys.readouterr()
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert f"{command} ran out of memory" in err and "Traceback" not in err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("command,config,flag", [
    ("estimate", "estimate.json", "--data"), ("test", "test_independence.json", "--data"),
    ("test", "test_hazard_order.json", "--data2")])
def test_cli_unreadable_dataset_exits_3_with_one_message(tmp_path, capsys, command, config, flag):
    data, missing = tmp_path / "worked.jsonl", str(tmp_path / "missing.jsonl")
    write_dataset(data, worked_records())
    argv = [command, "--config", str(CONFIGS / config), "--out", str(tmp_path / "out"),
            "--data", missing if flag == "--data" else str(data)]
    if flag == "--data2":
        argv += ["--data2", missing]
    capsys.readouterr()
    assert main(argv) == 3
    err = capsys.readouterr().err
    assert f"data error: cannot read dataset {missing}" in err and "Traceback" not in err
    assert not (tmp_path / "out").exists()


def test_cli_out_naming_an_existing_file_exits_2(tmp_path, capsys):
    out = tmp_path / "F"
    out.write_text("kept\n")
    capsys.readouterr()
    assert main(["validate", "--config", str(CONFIGS / "validate.json"), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert f"config error: cannot write --out {out}: [Errno 17] File exists" in err
    assert "Traceback" not in err
    assert out.read_text() == "kept\n"


def test_cli_failed_write_leaves_no_out(tmp_path, capsys, monkeypatch):
    real, written = cli._write, []

    def second_fails(path, body):
        written.append(path)
        if len(written) == 2:
            raise OSError(28, "No space left on device")
        real(path, body)

    monkeypatch.setattr(cli, "_write", second_fails)
    out = tmp_path / "out"
    capsys.readouterr()
    assert main(["validate", "--config", str(CONFIGS / "validate.json"), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert f"config error: cannot write --out {out}: [Errno 28] No space left on device" in err
    assert len(written) == 2 and os.listdir(tmp_path) == []
    # an existing --out is written into, and keeps what the failed write left there
    out.mkdir()
    written.clear()
    assert main(["validate", "--config", str(CONFIGS / "validate.json"), "--out", str(out)]) == 2
    assert os.listdir(out) == ["validation.json"]
    monkeypatch.setattr(cli, "_write", real)
    assert main(["validate", "--config", str(CONFIGS / "validate.json"), "--out", str(out)]) == 0
    assert sorted(os.listdir(out)) == ["manifest.json", "resolved_config.json", "validation.json"]
    assert os.listdir(tmp_path) == ["out"]
