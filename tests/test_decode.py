"""Strict decoding: schema semantics, malformed CLI inputs, and seeded mutation fuzzing."""

import copy
import json
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import bihazard.censoring
import bihazard.inference
import bihazard.cli as cli
import bihazard.mc
from bihazard.censoring import (BandComplement, CensoringModel, FullSpace, GridProduct,
                                LowerLayer, QuantileTable, Raster)
from bihazard.cli import main
from bihazard.decode import BOOL, INT, NUM, OPTIONAL, PAIR, STR, Built, Schema, Tagged
from bihazard.errors import ConfigError, DataError
from bihazard.estimators import SubjectRecord, simulate_sample
from bihazard.geometry import LowerRect
from bihazard.io import RECORD, read_dataset, record_to_json, write_dataset
from bihazard.models import FgmModel

CONFIGS = Path(__file__).resolve().parents[1] / "configs"


# ---------------------------------------------------------------------------
# the decoder
# ---------------------------------------------------------------------------

INNER = Schema(Tagged("kind", {"box": Built({"tau": PAIR}, lambda d: LowerRect(d["tau"]))}),
               DataError)
OUTER = Schema({"n": (INT, 3), "x": NUM, "flag": (BOOL, OPTIONAL), "mode": ({"a", True}, "a"),
                "items": ([[STR, NUM]], []), "shape": (INNER, OPTIONAL)})


def test_decoder_kinds_defaults_and_key_paths():
    assert OUTER.decode({"x": 1}) == {"n": 3, "x": 1, "mode": "a", "items": []}
    got = OUTER.decode({"x": 0.5, "flag": False, "mode": True, "items": [["k", 2]],
                        "shape": {"kind": "box", "tau": [1, 0.5]}})
    assert got["items"] == [("k", 2)] and got["shape"] == LowerRect((1.0, 0.5))
    cases = [({"x": True}, ConfigError, "x must be a number, got True"),
             ({"x": 1, "n": 2.0}, ConfigError, "n must be an integer"),
             ({"x": 1, "mode": 1}, ConfigError, "mode must be one of 'a', True, got 1"),
             ({"x": 1, "items": [["k", 2], ["k", "v"]]}, ConfigError, r"items\[1\]\[1\] must be a number"),
             ({"x": 1, "extra": 0}, ConfigError, "extra is not a known key"),
             ({}, ConfigError, "x is required"),
             ({"x": 1, "shape": {"kind": "box"}}, DataError, "shape.tau is required"),
             ({"x": 1, "shape": {"kind": "ball"}}, DataError, "shape.kind must be one of 'box'"),
             ({"x": 1, "shape": {"kind": "box", "tau": [1, "a"]}}, DataError, r"shape.tau\[1\] must"),
             ({"x": 1, "shape": {"kind": "box", "tau": [2, 0]}}, DataError,
              r"shape: rectangle corner must lie in \[0,1\]\^2")]
    for obj, error, message in cases:
        with pytest.raises(error, match=message):
            OUTER.decode(obj)
    with pytest.raises(ConfigError, match="^line 4: x is required"):
        OUTER.decode({}, "line 4")
    with pytest.raises(ConfigError, match="^line 4 must be an object, got 5"):
        OUTER.decode(5, "line 4")


def test_scalar_kinds_treat_booleans_as_neither_integers_nor_numbers():
    assert Schema(INT).decode(np.int64(3), "m") == 3
    assert Schema(NUM).decode(np.float32(0.5), "alpha") == 0.5
    for kind, value in ((INT, True), (NUM, False), (INT, 2.0), (NUM, "1")):
        with pytest.raises(ConfigError, match="^v must be"):
            Schema(kind).decode(value, "v")


# ---------------------------------------------------------------------------
# malformed inputs that ended in a traceback: exit 2 or 3, message names the key path
# ---------------------------------------------------------------------------

FIXED = {"kind": "fixed", "value": 0.2}
GLIVENKO = {"masterSeed": 1, "experiment": "glivenko", "model": {"theta": 0.0},
            "censorModel": {"family": "full"}}
IID_REPR = {**GLIVENKO, "experiment": "iid_repr", "region": [0.5, 0.5]}
COVERAGE = {**GLIVENKO, "experiment": "coverage"}
CORNER = "config error: region must lie in (0, 1]^2, got"
BAND = "must be a range [lo, hi] within [0, 1], got"
LADDER = "config error: ladder must be a nonempty list of sizes of at least 1"


def _set(key, value):
    return ["--set", f"{key}={json.dumps(value)}"]


SIMULATE_PROBES = [
    (_set("model.theta", "a"), 2, "model.theta must be a number"),
    (_set("model.marginalG.rate", "fast"), 2, "model.marginalG.rate must be a number"),
    (_set("model.marginalF", {"kind": "table", "points": 5}), 2, "model.marginalF.points must be a list"),
    (_set("censorModel.mc_prob_samples", "x"), 2, "censorModel.mc_prob_samples must be an integer"),
    (_set("censorModel.tau1.low", "x"), 2, "censorModel.tau1.low must be a number"),
    (_set("censorModel.tau1", {"kind": "table", "points": [1, 2]}), 2,
     "censorModel.tau1.points[0] must be a pair of numbers"),
    (_set("censorModel", {"family": "raster", "region": {"kind": "raster", "m": "x", "mask": "1"}}),
     3, "censorModel.region.m must be an integer"),
    (_set("censorModel", {"family": "grid_product",
                          "region": {"kind": "grid_product", "x": 5, "y": [[0, 1]]}}),
     3, "censorModel.region.x must be a list"),
    (_set("censorModel", {"family": "band_complement", "k1": FIXED, "k2": FIXED, "c": "x"}),
     2, "censorModel.c must be a number"),
    (_set("censorModel", {"family": "band_complement", "k1": FIXED, "k2": FIXED, "c": [1]}),
     2, "censorModel.c must be a number"),
]
MC_PROBES = [
    ("mc_clt.json", _set("checks", 5), 2, "checks must be a list"),
    (GLIVENKO, _set("ladder", 5), 2, "ladder must be a list"),
    (GLIVENKO, _set("ladder", ["a"]), 2, "ladder[0] must be an integer"),
    (GLIVENKO, _set("ladder", []), 2, f"{LADDER}, got []"),
    (GLIVENKO, _set("ladder", [0, 10]), 2, f"{LADDER}, got [0, 10]"),
    (IID_REPR, _set("ladder", []), 2, f"{LADDER}, got []"),
    ("mc_clt.json", _set("checkpoints", 5), 2, "checkpoints must be a list"),
    ("mc_clt.json", _set("checkpoints", []), 2, "config error: checkpoints must list at least one corner"),
    ("mc_clt.json", _set("checkpoints", [[1.5, 0.5]]), 2,
     "config error: checkpoints[0] must lie in (0, 1]^2, got [1.5, 0.5]"),
    ("mc_clt.json", _set("checkpoints", [[0.3, 0.3], [0, 0.5]]), 2,
     "config error: checkpoints[1] must lie in (0, 1]^2, got [0.0, 0.5]"),
    (IID_REPR, _set("region", [1.5, 0.5]), 2, f"{CORNER} [1.5, 0.5]"),
    (IID_REPR, _set("region", [0, 0.5]), 2, f"{CORNER} [0.0, 0.5]"),
    (IID_REPR, _set("region", [-0.5, 0.5]), 2, f"{CORNER} [-0.5, 0.5]"),
    ("mc_clt.json", _set("varRtol", -1), 2, "config error: varRtol must be at least 0, got -1"),
    ("mc_clt.json", _set("ksBound", -0.1), 2, "config error: ksBound must be at least 0, got -0.1"),
    (GLIVENKO, _set("bound", -1), 2, "config error: bound must be at least 0, got -1"),
    (COVERAGE, _set("band", [0.9, 0.1]), 2, f"config error: band {BAND} [0.9, 0.1]"),
    (COVERAGE, _set("band", [0.5, 1.5]), 2, f"config error: band {BAND} [0.5, 1.5]"),
    ("mc_size_power.json", _set("scenarios", [{"name": "a", "test": "independence", "band": [0.5, 0.1]}]),
     2, f"config error: scenarios[0].band {BAND} [0.5, 0.1]"),
    ("mc_size_power.json", _set("scenarios", 5), 2, "scenarios must be a list"),
    ("mc_size_power.json", _set("scenarios", [{"name": "b", "test": "independence"},
                                              {"name": "a", "test": "independence",
                                               "exceeds": ["b", "x"]}]),
     2, "scenarios[1].exceeds[1] must be a number"),
]
DATA_PROBES = [
    ({"kind": "rectangle", "tau": "ab"}, "censor.tau must be a pair of numbers"),
    ({"kind": "rectangle", "tau": 5}, "censor.tau must be a pair of numbers"),
    ({"kind": "band_complement", "k1": "x", "k2": 0.5, "c": 0.1}, "censor.k1 must be a number"),
    ({"kind": "raster", "m": "x", "mask": "1"}, "censor.m must be an integer"),
    ({"kind": "raster", "m": 1, "mask": 5}, "censor.mask must be a string"),
    ({"kind": "grid_product", "x": [[0, "a"]], "y": [[0, 1]]}, "censor.x[0][1] must be a number"),
    ({"kind": "lower_layer", "corners": 5}, "censor.corners must be a list"),
]
PROBES = ([("simulate", "simulate.json", argv, None, code, msg)
           for argv, code, msg in SIMULATE_PROBES]
          + [("mc", cfg, argv, None, code, msg) for cfg, argv, code, msg in MC_PROBES]
          + [("test", "test_hazard_order.json",
              _set("region", {"kind": "band_complement", "k1": "x", "k2": 0.5, "c": 0.1}),
              None, 3, "region.k1 must be a number"),
             ("test", "test_hazard_order.json", _set("tau", [0.5, 0.5]), None, 2,
              "config error: tau sets the grid window; a fixed region takes no tau"),
             ("test", "test_fgm_order.json", _set("bootstrap.sided", "two-sided"), None, 2,
              "config error: fgm-order is one-sided by construction; sided must be 'one-sided'"),
             ("test", "test_hazard_order.json", _set("bootstrap.B", 0), None, 2,
              "config error: bootstrap.B: replicates must be at least 1"),
             ("test", "test_hazard_order.json", _set("bootstrap.alpha", 0), None, 2,
              "config error: bootstrap.alpha: alpha must lie in (0, 1]")]
          + [("estimate", "estimate.json", _set("method", value), None, 2,
              f"config error: method must be one of 'auto', got '{value}'") for value in ("naive", "fast")]
          + [("validate", "validate.json", _set("censorModel.mc_prob_samples", 0), None, 2,
              "censorModel: mc_prob_samples must be at least 1, got 0"),
             ("validate", "validate.json", _set("censorModel.tau1.high", 1.5), None, 2,
              "censorModel: tau1 table values must lie in [0, 1], got 0.5 to 1.5")]
          + [("estimate", "estimate.json", [], censor, 3, f"line 2: {msg}")
             for censor, msg in DATA_PROBES])


@pytest.fixture(scope="module")
def datasets(tmp_path_factory):
    root = tmp_path_factory.mktemp("data")
    cm = CensoringModel("rectangle", {"tau1": QuantileTable.uniform(0.6, 1.0),
                                      "tau2": QuantileTable.uniform(0.6, 1.0)})
    paths = []
    for k in (1, 2):
        paths.append(root / f"s{k}.jsonl")
        write_dataset(paths[-1], simulate_sample(FgmModel(0.0), cm, 25,
                                                 np.random.default_rng(k)).records)
    return root, [str(p) for p in paths]


@pytest.mark.parametrize("command,config,overrides,censor,code,message", PROBES)
def test_malformed_inputs_exit_2_or_3_naming_the_key(datasets, tmp_path, capsys, command,
                                                     config, overrides, censor, code, message):
    root, (d1, d2) = datasets
    if isinstance(config, dict):
        (tmp_path / "cfg.json").write_text(json.dumps(config))
        config = tmp_path / "cfg.json"
    argv = [command, "--config", str(CONFIGS / config), "--out", str(tmp_path / "out")]
    if command in ("test", "estimate"):
        argv += ["--data", d1]
    if command == "test":
        argv += ["--data2", d2]
    if censor is not None:
        good = record_to_json(SubjectRecord(censor=FullSpace(), status="observed", point=(0.2, 0.3)))
        bad = tmp_path / "bad.jsonl"
        bad.write_text(json.dumps(good) + "\n" + json.dumps({**good, "censor": censor}) + "\n")
        argv[argv.index(d1)] = str(bad)
    with mock.patch.multiple(bihazard.mc, **{name: _stop for name in BEFORE_MC_WORK}):
        assert main(argv + overrides) == code
    err = capsys.readouterr().err
    assert message in err and "Traceback" not in err
    assert not (tmp_path / "out" / "manifest.json").exists()
    assert not (tmp_path / "out" / "validation.json").exists()


# ---------------------------------------------------------------------------
# seeded mutation fuzzing of the decode step
# ---------------------------------------------------------------------------

WRONG_KINDS = ["x", "", [], [1, 2], {}, {"kind": "x"}, True, False, None, 2.5, -1, 0, 3]


class Decoded(Exception):
    """Raised in place of the first sampling or fitting call: decoding succeeded."""


def _stop(*args, **kwargs):
    raise Decoded


# the first call after decoding in each command: in the cli module, or what a table calls
HEAVY = ["simulate_sample", "nelson_aalen_surface"]
HEAVY_TESTS = ["independence_test", "hazard_order_test", "fgm_order_test"]
HEAVY_MC = ["verify_clt", "verify_glivenko", "verify_iid_representation", "size_power_study",
            "coverage_study"]
# an mc command refuses its config before any of these runs
BEFORE_MC_WORK = ["run_indexed", "integrated_hazard", "mesh_values"]


def _node_paths(node, prefix=()):
    items = node.items() if isinstance(node, dict) else enumerate(node) if isinstance(node, list) else ()
    for key, value in items:
        yield prefix + (key,)
        yield from _node_paths(value, prefix + (key,))


def _replaced(obj, path, value):
    out = copy.deepcopy(obj)
    node = out
    for key in path[:-1]:
        node = node[key]
    node[path[-1]] = value
    return out


def _decode_only(argv):
    """Run the command up to its first sampling or fitting call; True if decoding passed."""
    args = cli._build_parser().parse_args(argv)
    with mock.patch.multiple(cli, **{name: _stop for name in HEAVY}), \
            mock.patch.multiple(bihazard.inference, **{name: _stop for name in HEAVY_TESTS}), \
            mock.patch.multiple(bihazard.mc, **{name: _stop for name in HEAVY_MC}), \
            mock.patch.object(bihazard.censoring, "validate_censoring", _stop):
        try:
            args.fn(args)
        except Decoded:
            return True
        except (ConfigError, DataError):
            return False
    return True


@pytest.mark.parametrize("command,config", [
    ("simulate", "simulate.json"), ("estimate", "estimate.json"),
    ("test", "test_independence.json"), ("test", "test_hazard_order.json"),
    ("test", "test_fgm_order.json"), ("mc", "mc_clt.json"), ("mc", "mc_size_power.json"),
    ("validate", "validate.json")])
def test_config_mutations_decode_or_raise_config_or_data_error(datasets, command, config):
    root, (d1, d2) = datasets
    base = json.loads((CONFIGS / config).read_text())
    paths = list(_node_paths(base))
    extra = {"estimate": ["--data", d1], "test": ["--data", d1, "--data2", d2]}.get(command, [])
    if config == "test_independence.json":
        extra = extra[:2]

    @settings(max_examples=60)
    @given(st.sampled_from(paths), st.sampled_from(WRONG_KINDS))
    def check(path, value):
        cfgp = root / f"{command}.json"
        cfgp.write_text(json.dumps(_replaced(base, path, value)))
        _decode_only([command, "--config", str(cfgp), "--out", str(root / "out")] + extra)

    check()


def test_config_mutations_reject_wrong_kinds(datasets):
    # no section or leaf of the simulate config accepts the string "x"
    root, _ = datasets
    base = json.loads((CONFIGS / "simulate.json").read_text())
    for path in _node_paths(base):
        cfgp = root / "sim.json"
        cfgp.write_text(json.dumps(_replaced(base, path, "x")))
        assert not _decode_only(["simulate", "--config", str(cfgp), "--out", str(root / "o")]), path


RECORDS = [
    SubjectRecord(censor=FullSpace(), status="observed", point=(0.2, 0.3)),
    SubjectRecord(censor=LowerRect((0.5, 0.9)), status="censored_latent", latent=(0.6, 0.1)),
    SubjectRecord(censor=LowerRect((0.5, 0.9)), status="censored_opaque", minima=(0.5, 0.1),
                  events=(0, 1)),
    SubjectRecord(censor=GridProduct(((0.0, 0.4),), ((0.0, 1.0),)), status="observed",
                  point=(0.1, 0.5)),
    SubjectRecord(censor=BandComplement(0.1, 0.6, 0.2), status="observed", point=(0.05, 0.5)),
    SubjectRecord(censor=LowerLayer(((0.3, 0.9), (0.8, 0.4))), status="observed", point=(0.2, 0.2)),
    SubjectRecord(censor=Raster(2, np.array([[1, 1], [1, 0]], bool)), status="observed",
                  point=(0.2, 0.7)),
]


@settings(max_examples=300)
@given(st.integers(0, len(RECORDS) - 1), st.data(), st.sampled_from(WRONG_KINDS))
def test_dataset_line_mutations_decode_or_raise_data_error(tmp_path_factory, line, data, value):
    lines = [record_to_json(r) for r in RECORDS]
    path = data.draw(st.sampled_from(list(_node_paths(lines[line]))))
    lines[line] = _replaced(lines[line], path, value)
    target = tmp_path_factory.getbasetemp() / "mutated.jsonl"
    target.write_text("".join(json.dumps(d) + "\n" for d in lines))
    try:
        records, _ = read_dataset(target)
    except DataError as exc:
        assert str(exc).startswith(f"line {line + 1}")
    else:
        assert len(records) == len(RECORDS)


# ---------------------------------------------------------------------------
# the column reader against the per-line rules
# ---------------------------------------------------------------------------

def reference_read(path):
    """(records, header) by the per-line rules: json.loads and RECORD.decode of each stripped line."""
    records, header = [], None
    with open(path) as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                d = json.loads(line)
            except json.JSONDecodeError as exc:
                raise DataError(f"line {lineno}: invalid JSON ({exc.msg})") from exc
            if isinstance(d, dict) and len(d) == 1 and "header" in d:
                if records or header is not None:
                    raise DataError(f"line {lineno}: header allowed only as the first line")
                header = d["header"]
                continue
            records.append(RECORD.decode(d, f"line {lineno}"))
    return records, header


def _outcome(read, path):
    """A read's records (reprs tell -0.0 from 0.0) and header, or its refusal message."""
    try:
        records, header = read(path)
    except DataError as exc:
        return "refused", str(exc)
    return [repr(r) for r in records], header


BAND = {"c": 0.2, "k1": 0.1, "k2": 0.6, "kind": "band_complement"}
GOOD_CENSORS = [{"kind": "full"}, {"kind": "rectangle", "tau": [0.5, 0.9]},
                {"kind": "rectangle", "tau": [-0.0, 1.0]}, {"kind": "rectangle", "tau": [1, 0]},
                BAND, {**BAND, "k1": 0.3, "k2": 0.3, "c": 1}, {**BAND, "k1": 0, "k2": 1},
                {"kind": "grid_product", "x": [[0.0, 0.4]], "y": [[0.0, 1.0]]},
                {"corners": [[0.3, 0.9], [0.8, 0.4]], "kind": "lower_layer"},
                {"kind": "raster", "m": 2, "mask": "1110"}]
BAD_CENSORS = [{"kind": "rectangle", "tau": [0.5, 1.5]}, {"kind": "rectangle", "tau": [True, 0.5]},
               {"kind": "rectangle"}, {"kind": "rectangle", "tau": [0.5, 0.5], "x": 1},
               {**BAND, "k1": 0.7}, {**BAND, "c": 0.0}, {**BAND, "c": -0.5}, {**BAND, "c": True},
               {**BAND, "extra": 1}, {"kind": "a}b"}, 5, None]
UNIT = [0.25, 0.5, -0.0, 0.0, 1.0, 0.7500000000000001]
GOOD_COORDS = st.tuples(st.sampled_from(UNIT), st.sampled_from(UNIT)).map(list)
BAD_COORDS = st.sampled_from([[True, 0.5], [0.5, 1.5], [-0.1, 0.2], [0.5], [0.1, 0.2, 0.3], "ab", None])
GOOD_FLAGS = st.sampled_from([[0, 1], [1, 1], [0, 0], [1, 0]])
BAD_FLAGS = st.sampled_from([[True, 0], [0, 2], [0], [1.0, 0], 7])
KEYS = {"observed": "point", "censored_latent": "latent", "censored_opaque": "min"}
EDITS = ["censor", "coordinates", "int coordinates", "flags", "status", "unknown key", "empty tail",
         "censor only", "duplicate censor", "late duplicate", "compact", "truncated", "extra data",
         "header", "array pieces"]


def _edited(draw, d):
    """One line's text after an edit that is valid or not."""
    edit = draw(st.sampled_from(EDITS))
    if edit in ("censor", "coordinates", "int coordinates", "flags", "status", "unknown key"):
        key = KEYS.get(d["status"])
        value = {"censor": st.sampled_from(BAD_CENSORS), "coordinates": BAD_COORDS, "flags": BAD_FLAGS,
                 "int coordinates": st.sampled_from([[0, 1], [1, 0]]),
                 "status": st.sampled_from(["gone", 5, "censored_opaque", "observed"]),
                 "unknown key": st.just(1)}[edit]
        if edit == "flags":            # on an opaque line
            d = {"censor": d["censor"], "min": d[key], "status": "censored_opaque"}
        name = {"censor": "censor", "flags": "delta", "status": "status",
                "unknown key": "extra"}.get(edit, key)
        return json.dumps({**d, name: draw(value)}, sort_keys=True)
    text, censor = json.dumps(d, sort_keys=True), json.dumps(d["censor"], sort_keys=True)
    other = json.dumps(draw(st.sampled_from(GOOD_CENSORS + BAD_CENSORS)), sort_keys=True)
    return {"empty tail": '{"censor": ' + censor + ", }", "censor only": '{"censor": ' + censor + "}",
            "duplicate censor": f'{{"censor": {censor}, "censor": {other}, {text[len(censor) + 13:]}',
            "late duplicate": text[:-1] + ', "censor": ' + other + "}",
            "compact": json.dumps(d, sort_keys=True, separators=(",", ":")),
            "truncated": text[:draw(st.integers(1, len(text) - 1))], "extra data": text + " x",
            "header": '{"header": {"n": 3}}', "array pieces": "[1\n2]\n3, 4"}[edit]


@st.composite
def dataset_lines(draw):
    """Valid lines, repeated so that lines share censor texts, with at most one line edited
    and with blank lines and CRLF ends anywhere."""
    records = []
    for _ in range(draw(st.integers(1, 6))):
        status = draw(st.sampled_from(list(KEYS)))
        d = {"censor": draw(st.sampled_from(GOOD_CENSORS)), KEYS[status]: draw(GOOD_COORDS),
             "status": status}
        if status == "censored_opaque":
            d["delta"] = draw(GOOD_FLAGS)
        records += [d] * draw(st.integers(1, 3))
    lines = [json.dumps(d, sort_keys=True) for d in records]
    if draw(st.integers(0, 2)):
        i = draw(st.integers(0, len(lines) - 1))
        lines[i] = _edited(draw, records[i])
    return [line + draw(st.sampled_from(["", "", "", "\r", "\n", "\r\n  "])) for line in lines]


@settings(max_examples=800)
@given(dataset_lines(), st.booleans())
def test_column_reader_matches_the_per_line_reference(tmp_path_factory, lines, header):
    path = tmp_path_factory.getbasetemp() / "differential.jsonl"
    head = [json.dumps({"header": {"n": 1}})] if header else []
    path.write_text("".join(line + "\n" for line in head + lines))
    assert _outcome(read_dataset, path) == _outcome(reference_read, path)


GOOD_LINE = '{"censor": {"kind": "rectangle", "tau": [0.5, 0.9]}, "point": [0.25, 0.5], "status": "observed"}'
PROBE_LINES = [
    '{"censor": {"kind": "rectangle", "tau": [0.5, 0.9]}, }',
    '{"censor": {"kind": "rectangle", "tau": [0.5, 0.9]}, "censor": {"kind": "full"}, '
    '"point": [0.75, 0.5], "status": "observed"}',
    '{"censor": {"kind": "rectangle", "tau": [0.5, 0.9], "x": 1}, "point": [0.25, 0.5], "status": "observed"}',
    '{"censor": {"kind": "rectangle", "tau": [0.5, 1.5]}, "point": [0.25, 0.5], "status": "observed"}',
    '{"censor": {"kind": "rectangle", "tau": [1, 0]}, "point": [0, 0], "status": "observed"}',
    '{"censor": {"kind": "rectangle", "tau": [0.5, 0.9]}, "point": [true, 0.5], "status": "observed"}',
    '{"censor": {"c": 0.2, "k1": 0.7, "k2": 0.6, "kind": "band_complement"}, "latent": [0.5, 0.5], '
    '"status": "censored_latent"}',
    '{"censor": {"c": 0.0, "k1": 0.1, "k2": 0.6, "kind": "band_complement"}, "latent": [0.5, 0.5], '
    '"status": "censored_latent"}',
    '{"censor": {"c": true, "k1": 0.1, "k2": 0.6, "kind": "band_complement"}, "latent": [0.5, 0.5], '
    '"status": "censored_latent"}',
    '{"censor": {"c": 1, "k1": 0, "k2": 1, "kind": "band_complement"}, "latent": [0.5, 0.5], '
    '"status": "censored_latent"}',
    '{"censor": {"kind": "rectangle", "tau": [0.5, 0.9]}, "delta": [true, 0], "min": [0.5, 0.5], '
    '"status": "censored_opaque"}',
    '{"censor": {"kind": "rectangle", "tau": [0.5, 0.9]}, "delta": [1.0, 0], "min": [0.5, 0.5], '
    '"status": "censored_opaque"}',
    '{"censor": {"kind": "rectangle", "tau": [0.5, 0.9]}, "delta": [0, 1, 1], "min": [0.5, 0.5], '
    '"status": "censored_opaque"}',
    '{"censor": {"kind": "a}b"}, "point": [0.25, 0.5], "status": "observed"}',
    '{"header": {"n": 2}}', "", "[1", "2]", "3, 4",
]


@pytest.mark.parametrize("probe", PROBE_LINES)
@pytest.mark.parametrize("ending", ["\n", "\r\n"])
def test_column_reader_matches_the_per_line_reference_on_probes(tmp_path, probe, ending):
    # each probe after a line with the same censor text, whose row the probe's text would reuse
    path = tmp_path / "probe.jsonl"
    path.write_text(GOOD_LINE + ending + probe + ending + GOOD_LINE + ending)
    assert _outcome(read_dataset, path) == _outcome(reference_read, path)
