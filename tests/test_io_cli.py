import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import bihazard
from bihazard.censoring import (CensoringModel, FullSpace, LowerLayer, QuantileTable,
                                Rectangle)
from bihazard.cli import main
from bihazard.errors import DataError
from bihazard.estimators import CensoredSample, SubjectRecord, jump_masses, simulate_sample
from bihazard.io import (CSV_COLUMNS, read_dataset, read_dataset_csv, read_sample,
                         record_from_json, record_to_json, write_dataset,
                         write_dataset_csv)
from bihazard.models import FgmModel

FULL = FullSpace()


def obs(point, censor=FULL):
    return SubjectRecord(censor=censor, status="observed", point=point)


def worked_records():
    return [obs((0.2, 0.3)), obs((0.5, 0.6)), obs((0.4, 0.1))]


def censored_records():
    return [
        obs((0.2, 0.3)),
        SubjectRecord(censor=Rectangle((0.45, 1.0)), status="censored_latent",
                      latent=(0.5, 0.6)),
        SubjectRecord(censor=Rectangle((0.45, 1.0)), status="censored_opaque",
                      minima=(0.45, 0.1), events=(0, 1)),
    ]


# ---------------------------------------------------------------------------
# JSON-lines format
# ---------------------------------------------------------------------------

def test_record_json_round_trip():
    for rec in censored_records():
        back = record_from_json(record_to_json(rec))
        assert back.status == rec.status
        assert back.point == rec.point
        assert back.latent == rec.latent
        assert back.minima == rec.minima
        assert back.events == rec.events
        assert type(back.censor) is type(rec.censor)


def test_record_from_json_errors():
    good = record_to_json(obs((0.2, 0.3)))
    with pytest.raises(DataError):
        record_from_json({**good, "status": "gone"})
    with pytest.raises(DataError):
        record_from_json({**good, "extra": 1})
    with pytest.raises(DataError):
        record_from_json({"status": "observed", "point": [0.1, 0.2]})  # no censor
    with pytest.raises(DataError):
        record_from_json({**good, "point": [0.1]})
    opaque = record_to_json(censored_records()[2])
    with pytest.raises(DataError):
        record_from_json({**opaque, "delta": [0, 2]})
    with pytest.raises(DataError, match="delta"):
        record_from_json({**opaque, "delta": [True, False]})   # booleans are not flags
    with pytest.raises(DataError):
        record_from_json("not a dict")


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
# CSV shortcut
# ---------------------------------------------------------------------------

def test_csv_round_trip(tmp_path):
    path = tmp_path / "d.csv"
    write_dataset_csv(path, censored_records())
    back = read_dataset_csv(path)
    assert [r.status for r in back] == ["observed", "censored_opaque",
                                        "censored_opaque"]
    # full space is written as the unit rectangle
    assert back[0].censor == Rectangle((1.0, 1.0))
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
    recs = [SubjectRecord(censor=Rectangle((0.3, 1.0)), status="censored_opaque",
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


def test_cli_mc_scenario_errors(tmp_path, capsys):
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
