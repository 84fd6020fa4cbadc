"""Command-line front end: simulate, estimate, test, mc, validate.

One JSON config file is the source of truth per run; --set key=value
overrides single leaves (dotted paths descend into sections).  Unknown
config keys are hard errors.  Commands that draw randomness require
masterSeed and are bit-reproducible; --threads is accepted and ignored.
Every output directory gets the fully resolved config and a manifest with
the tool version and content digests of all inputs and outputs.

Exit codes: 0 ok, 2 usage/config, 3 data, 4 numeric, 5 a pre-registered
criterion or validation failed.
"""

from __future__ import annotations

import argparse
import csv
import json
import os
import sys

import numpy as np

from . import __version__
from . import censoring as cen
from .errors import BihazardError, ConfigError, DataError, NumericError
from .estimators import (CensoredSample, jump_masses, kaplan_meier,
                         marginal_nelson_aalen, nelson_aalen_surface,
                         simulate_sample)
from .geometry import Grid, LowerRect, PredicateRegion
from .inference import (BootstrapSpec, fgm_order_test, hazard_order_test,
                        independence_test)
from .io import read_dataset, read_dataset_csv, write_dataset
from .mc import (MCConfig, coverage_study, size_power_study, verify_clt,
                 verify_glivenko, verify_iid_representation)
from .models import integrated_hazard, model_from_json
from .quadrature import QuadratureSpec
from .util import DATA, check_types, fmt_float, sha256_file, substream

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_DATA = 3
EXIT_NUMERIC = 4
EXIT_CRITERIA = 5


# ---------------------------------------------------------------------------
# config plumbing
# ---------------------------------------------------------------------------

def _load_config(path):
    try:
        with open(path) as fh:
            cfg = json.load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read config file {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config file {path} is not valid JSON: {exc.msg}") from exc
    if not isinstance(cfg, dict):
        raise ConfigError("config file must contain a JSON object")
    return cfg


def _apply_overrides(cfg, assignments):
    for item in assignments or []:
        if "=" not in item:
            raise ConfigError(f"--set needs KEY=VALUE, got {item!r}")
        key, raw = item.split("=", 1)
        try:
            value = json.loads(raw)
        except json.JSONDecodeError:
            value = raw
        node = cfg
        parts = key.split(".")
        for part in parts[:-1]:
            nxt = node.setdefault(part, {})
            if not isinstance(nxt, dict):
                raise ConfigError(f"--set path {key!r} descends into a non-object")
            node = nxt
        node[parts[-1]] = value
    return cfg


def _check_keys(obj, schema, prefix=""):
    """Reject unknown keys anywhere the schema covers; 'opaque' sections are
    validated by their own parsers downstream."""
    if not isinstance(obj, dict):
        raise ConfigError(f"config section {prefix.rstrip('.') or '<root>'} must be an object")
    for k, v in obj.items():
        if k not in schema:
            raise ConfigError(f"unknown config key {prefix}{k}")
        sub = schema[k]
        if isinstance(sub, dict):
            _check_keys(v, sub, prefix + k + ".")


def _require(cfg, key):
    if key not in cfg:
        raise ConfigError(f"config key {key!r} is required")
    return cfg[key]


def _seed(cfg):
    seed = _require(cfg, "masterSeed")
    if not isinstance(seed, int) or isinstance(seed, bool) or seed < 0:
        raise ConfigError("masterSeed must be a nonnegative integer")
    return seed


def _check_numbers(cfg, *keys):
    """ConfigError naming the first of keys present in cfg whose value is not a number."""
    check_types(cfg, [k for k in keys if k in cfg], reals=keys)


def _pair_of_floats(value, what):
    try:
        a, b = value
        return (float(a), float(b))
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"{what} must be a pair of numbers") from exc


# ---------------------------------------------------------------------------
# output plumbing
# ---------------------------------------------------------------------------

def _jsonable(obj):
    if isinstance(obj, dict):
        return {str(k): _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    if isinstance(obj, np.ndarray):
        return [_jsonable(v) for v in obj.tolist()]
    if isinstance(obj, (np.bool_, bool)):
        return bool(obj)
    if isinstance(obj, np.integer):
        return int(obj)
    if isinstance(obj, np.floating):
        return float(obj)
    return obj


class OutputDir:
    """Collects output files, then seals the run with config + manifest."""

    def __init__(self, path, command, config, inputs):
        self.path = path
        self.command = command
        self.config = config
        self.inputs = dict(inputs)
        self.outputs = {}
        os.makedirs(path, exist_ok=True)

    def file(self, name):
        return os.path.join(self.path, name)

    def wrote(self, name):
        self.outputs[name] = sha256_file(self.file(name))

    def write_json(self, name, obj):
        with open(self.file(name), "w") as fh:
            json.dump(_jsonable(obj), fh, indent=2, sort_keys=True)
            fh.write("\n")
        self.wrote(name)

    def write_csv(self, name, rows):
        with open(self.file(name), "w", newline="") as fh:
            w = csv.writer(fh)
            for row in rows:
                w.writerow([fmt_float(v) if isinstance(v, float) else v for v in row])
        self.wrote(name)

    def seal(self):
        self.write_json("resolved_config.json", self.config)
        manifest = {
            "version": __version__,
            "command": self.command,
            "inputs": {k: v for k, v in sorted(self.inputs.items())},
            "outputs": {k: v for k, v in sorted(self.outputs.items())
                        if k != "manifest.json"},
        }
        with open(self.file("manifest.json"), "w") as fh:
            json.dump(manifest, fh, indent=2, sort_keys=True)
            fh.write("\n")


def _region_from_config(obj):
    """Censoring-region JSON as a geometry Region usable by the estimators."""
    shape = cen.region_from_json(obj)
    return PredicateRegion(lambda pts, _s=shape: cen.contains(_s, pts))


def _read_records(path):
    try:
        if path.endswith(".csv"):
            return read_dataset_csv(path)
        records, _ = read_dataset(path)
        return records
    except OSError as exc:
        raise DataError(f"cannot read dataset {path}: {exc}") from exc


def _hash_input(path):
    try:
        return sha256_file(path)
    except OSError as exc:
        raise DataError(f"cannot read {path}: {exc}") from exc


def _load_sample(path):
    return CensoredSample(_read_records(path))


# ---------------------------------------------------------------------------
# simulate
# ---------------------------------------------------------------------------

_SIM_SCHEMA = {"masterSeed": None, "n": None, "model": "opaque", "censorModel": "opaque"}


def cmd_simulate(args):
    cfg = _apply_overrides(_load_config(args.config), args.set)
    _check_keys(cfg, _SIM_SCHEMA)
    seed = _seed(cfg)
    n = _require(cfg, "n")
    if not isinstance(n, int) or isinstance(n, bool) or n < 0:
        raise ConfigError("n must be a nonnegative integer")
    model = model_from_json(_require(cfg, "model"))
    censor = cen.censoring_model_from_json(_require(cfg, "censorModel"))
    form = "latent" if args.latent else "observable"
    out = OutputDir(args.out, "simulate", cfg, {args.config: sha256_file(args.config)})
    header = {"n": n, "masterSeed": seed, "form": form, "version": __version__}
    if n == 0:
        records, events = [], 0
    else:
        sample = simulate_sample(model, censor, n, substream(seed, DATA), form=form)
        records, events = sample.records, int(np.count_nonzero(sample.event_mask))
    write_dataset(out.file("dataset.jsonl"), records, header=header)
    out.wrote("dataset.jsonl")
    out.seal()
    print(f"wrote {len(records)} records ({events} events) to {out.file('dataset.jsonl')}")
    return EXIT_OK


# ---------------------------------------------------------------------------
# estimate
# ---------------------------------------------------------------------------

_EST_SCHEMA = {"grid": {"size": None, "tau": None}, "method": None, "marginals": None}


def cmd_estimate(args):
    cfg = _apply_overrides(_load_config(args.config), args.set)
    _check_keys(cfg, _EST_SCHEMA)
    gcfg = cfg.get("grid", {})
    size = gcfg.get("size", 64)
    tau = _pair_of_floats(gcfg.get("tau", [1.0, 1.0]), "grid.tau")
    method = cfg.get("method", "auto")
    marginals = cfg.get("marginals", "auto")
    if marginals not in (True, False, "auto"):
        raise ConfigError("marginals must be true, false, or 'auto'")
    sample = _load_sample(args.data)
    grid = Grid(size, tau)
    surf = nelson_aalen_surface(sample, grid, method=method)

    out = OutputDir(args.out, "estimate", cfg,
                    {args.config: sha256_file(args.config),
                     args.data: _hash_input(args.data)})
    rows = [["t1", "t2", "Hhat"]]
    for i, x in enumerate(grid.xs):
        for j, y in enumerate(grid.ys):
            rows.append([float(x), float(y), float(surf.values[i, j])])
    out.write_csv("surface.csv", rows)
    jrows = [["y1", "y2", "mass"]]
    for p, w in zip(surf.jump_points, surf.jump_masses):
        jrows.append([float(p[0]), float(p[1]), float(w)])
    out.write_csv("jumps.csv", jrows)

    marg_done = False
    if marginals in (True, "auto"):
        try:
            for axis in (0, 1):
                est = marginal_nelson_aalen(sample, axis)
                km = kaplan_meier(est)
                mrows = [["value", "count", "atRisk", "jump", "cumHazard", "kmCdf"]]
                for idx in range(len(est.values)):
                    mrows.append([float(est.values[idx]), int(est.counts[idx]),
                                  int(est.at_risk[idx]), float(est.jumps[idx]),
                                  float(est.cum[idx]), float(km.values[idx])])
                out.write_csv(f"marginal{axis + 1}.csv", mrows)
            marg_done = True
        except BihazardError:
            if marginals is True:
                raise
    summary = {
        "n": sample.n,
        "observedCount": int(np.count_nonzero(sample.event_mask)),
        "fullWindowEstimate": float(np.sum(jump_masses(sample, method))),
        "method": method,
        "grid": {"size": size, "tau": list(tau)},
        "marginalsComputed": marg_done,
    }
    out.write_json("summary.json", summary)
    out.seal()
    print(f"estimated surface on {size}x{size} grid; "
          f"full-window estimate {summary['fullWindowEstimate']:.6g}")
    return EXIT_OK


# ---------------------------------------------------------------------------
# test
# ---------------------------------------------------------------------------

_TEST_SCHEMA = {
    "masterSeed": None, "test": None,
    "bootstrap": {"B": None, "alpha": None, "gridSize": None, "sided": None},
    "tau": None, "region": "opaque", "marginalsEqual": None, "replicateDump": None,
}


def _bootstrap_spec(cfg, seed):
    b = cfg.get("bootstrap", {})
    return BootstrapSpec(replicates=b.get("B", 999), alpha=b.get("alpha", 0.05),
                         seed=seed, grid_size=b.get("gridSize", 64),
                         sided=b.get("sided", "one-sided"))


def cmd_test(args):
    cfg = _apply_overrides(_load_config(args.config), args.set)
    _check_keys(cfg, _TEST_SCHEMA)
    seed = _seed(cfg)
    which = _require(cfg, "test")
    spec = _bootstrap_spec(cfg, seed)
    tau = cfg.get("tau")
    if tau is not None:
        tau = _pair_of_floats(tau, "tau")

    inputs = {args.config: sha256_file(args.config), args.data: _hash_input(args.data)}
    sample = _load_sample(args.data)
    sample2 = None
    if args.data2:
        inputs[args.data2] = _hash_input(args.data2)
        sample2 = _load_sample(args.data2)

    if which == "independence":
        if sample2 is not None:
            raise ConfigError("independence test takes a single dataset")
        report = independence_test(sample, spec, tau=tau)
    elif which == "hazard-order":
        if sample2 is None:
            raise ConfigError("hazard-order test needs --data2")
        region = None
        if "region" in cfg:
            region = _region_from_config(cfg["region"])
        report = hazard_order_test(sample, sample2, spec, region=region, tau=tau)
    elif which == "fgm-order":
        if sample2 is None:
            raise ConfigError("fgm-order test needs --data2")
        if tau is None:
            raise ConfigError("fgm-order test needs tau in the config")
        if "marginalsEqual" not in cfg:
            raise ConfigError("fgm-order test needs marginalsEqual in the config")
        report = fgm_order_test(sample, sample2, tau, spec, bool(cfg["marginalsEqual"]))
    else:
        raise ConfigError(f"unknown test {which!r}; "
                          "expected independence, hazard-order, or fgm-order")

    out = OutputDir(args.out, "test", cfg, inputs)
    out.write_json("test_report.json", report.to_json())
    if cfg.get("replicateDump"):
        rows = [["replicateIndex", "statistic"]]
        for i, v in enumerate(report.replicate_statistics):
            rows.append([i, float(v)])
        out.write_csv("replicates.csv", rows)
    out.seal()
    verdict = "reject" if report.reject else "fail to reject"
    print(f"{which}: statistic {report.statistic:.6g}, "
          f"critical {report.critical_value:.6g}, p {report.p_value:.4g} -> {verdict}")
    return EXIT_OK


# ---------------------------------------------------------------------------
# mc
# ---------------------------------------------------------------------------

_MC_SCHEMA = {
    "masterSeed": None, "experiment": None, "model": "opaque", "censorModel": "opaque",
    "n": None, "replicates": None, "gridSize": None,
    "checkpoints": None, "checks": None, "varRtol": None, "ksBound": None,
    "ladder": None, "bound": None, "region": None,
    "scenarios": "opaque", "alpha": None, "B": None, "band": None,
}

_SCENARIO_KEYS = {
    "name", "test", "model", "modelF", "modelG", "model1", "model2",
    "censorModel", "n", "m", "alpha", "B", "gridSize", "sided",
    "tau", "marginalsEqual", "band", "exceeds", "region",
}


def _translate_scenario(d, idx):
    if not isinstance(d, dict):
        raise ConfigError(f"scenario {idx} must be an object")
    unknown = set(d) - _SCENARIO_KEYS
    if unknown:
        raise ConfigError(f"scenario {idx}: unknown keys {sorted(unknown)}")
    if "name" not in d or "test" not in d:
        raise ConfigError(f"scenario {idx}: name and test are required")
    s = {"name": d["name"], "test": d["test"]}
    for src, dst in (("model", "model"), ("modelF", "model_f"), ("modelG", "model_g"),
                     ("model1", "model_1"), ("model2", "model_2")):
        if src in d:
            s[dst] = model_from_json(d[src])
    if "censorModel" in d:
        s["censor_model"] = cen.censoring_model_from_json(d["censorModel"])
    for key in ("n", "m"):
        if key in d and (not isinstance(d[key], int) or isinstance(d[key], bool) or d[key] < 1):
            raise ConfigError(f"scenario {idx} {key} must be a positive integer, got {d[key]!r}")
    for src, dst in (("n", "n"), ("m", "m"), ("alpha", "alpha"), ("B", "B"),
                     ("gridSize", "grid_size"), ("sided", "sided"),
                     ("marginalsEqual", "marginals_equal")):
        if src in d:
            s[dst] = d[src]
    if "tau" in d:
        s["tau"] = _pair_of_floats(d["tau"], f"scenario {idx} tau")
    if "band" in d:
        s["band"] = _pair_of_floats(d["band"], f"scenario {idx} band")
    if "exceeds" in d:
        e = d["exceeds"]
        if not isinstance(e, (list, tuple)) or len(e) != 2:
            raise ConfigError(f"scenario {idx}: exceeds must be [scenarioName, margin]")
        s["exceeds"] = (e[0], float(e[1]))
    if "region" in d:
        s["region"] = _region_from_config(d["region"])
    return s


def cmd_mc(args):
    cfg = _apply_overrides(_load_config(args.config), args.set)
    _check_keys(cfg, _MC_SCHEMA)
    seed = _seed(cfg)
    experiment = _require(cfg, "experiment")
    _check_numbers(cfg, "varRtol", "ksBound", "bound")
    model = model_from_json(_require(cfg, "model"))
    censor = cen.censoring_model_from_json(_require(cfg, "censorModel"))
    mccfg = MCConfig(model=model, censor_model=censor,
                     n=cfg.get("n", 500), replicates=cfg.get("replicates", 200),
                     grid_size=cfg.get("gridSize", 32), seed=seed)

    if experiment == "clt":
        pts = [_pair_of_floats(t, "checkpoint") for t in _require(cfg, "checkpoints")]
        report = verify_clt(mccfg, pts,
                            var_rtol=cfg.get("varRtol", 0.10),
                            ks_bound=cfg.get("ksBound", 0.05),
                            checks=tuple(cfg.get("checks",
                                                 ["mean", "variance", "normality"])))
    elif experiment == "glivenko":
        report = verify_glivenko(mccfg, ladder=tuple(cfg.get("ladder",
                                                             [250, 500, 1000, 2000])),
                                 bound=cfg.get("bound", 0.05))
    elif experiment == "iid_repr":
        corner = _pair_of_floats(_require(cfg, "region"), "region")
        report = verify_iid_representation(mccfg, LowerRect(corner),
                                           ladder=tuple(cfg.get("ladder",
                                                                [250, 500, 1000, 2000])))
    elif experiment == "size_power":
        scen = [_translate_scenario(s, i)
                for i, s in enumerate(_require(cfg, "scenarios"))]
        report = size_power_study(mccfg, scen)
    elif experiment == "coverage":
        band = _pair_of_floats(cfg.get("band", [0.88, 0.99]), "band")
        report = coverage_study(mccfg, alpha=cfg.get("alpha", 0.05),
                                b=cfg.get("B", 200), band=band)
    else:
        raise ConfigError(f"unknown experiment {experiment!r}")

    out = OutputDir(args.out, "mc", cfg, {args.config: sha256_file(args.config)})
    body = report.to_json()
    body.pop("runtime", None)    # keep reports byte-identical across runs
    out.write_json("mc_report.json", body)
    out.write_csv("mc_report.csv", report.csv_rows())
    out.seal()
    print(f"{experiment}: passed={report.passed} ({report.runtime:.1f}s)", file=sys.stderr)
    for row in report.rows:
        print(f"  {row['name']}: value={row['value']:.6g} tolerance[{row['tolerance']}] "
              f"passed={row['passed']}", file=sys.stderr)
    return EXIT_CRITERIA if report.passed is False else EXIT_OK


# ---------------------------------------------------------------------------
# validate
# ---------------------------------------------------------------------------

_VALIDATE_SCHEMA = {"model": "opaque", "censorModel": "opaque",
                    "grid": {"size": None, "tau": None}, "epsilon": None}


def cmd_validate(args):
    cfg = _apply_overrides(_load_config(args.config), args.set)
    _check_keys(cfg, _VALIDATE_SCHEMA)
    censor = cen.censoring_model_from_json(_require(cfg, "censorModel"))
    gcfg = cfg.get("grid", {})
    grid = Grid(gcfg.get("size", 32), _pair_of_floats(gcfg.get("tau", [1.0, 1.0]),
                                                      "grid.tau"))
    _check_numbers(cfg, "epsilon")
    eps = float(cfg.get("epsilon", 0.05))
    diag = cen.validate_censoring(censor, grid, epsilon=eps)
    result = {"censoring": diag.to_json(), "model": None}
    passed = diag.passed
    if "model" in cfg:
        model = model_from_json(cfg["model"])
        corner = grid.tau
        sval = float(model.survival(np.array(corner)))
        model_info = {"windowCorner": list(corner), "survivalAtCorner": sval}
        try:
            res = integrated_hazard(model, LowerRect(corner), QuadratureSpec())
            model_info["hazardIntegral"] = float(res)
            model_info["quadratureConverged"] = bool(res.converged)
            model_ok = sval > 0.0 and res.converged
        except NumericError as exc:
            model_info["error"] = str(exc)
            model_ok = False
        model_info["passed"] = model_ok
        result["model"] = model_info
        passed = passed and model_ok
    result["passed"] = passed
    out = OutputDir(args.out, "validate", cfg, {args.config: sha256_file(args.config)})
    out.write_json("validation.json", result)
    out.seal()
    print(f"validation {'passed' if passed else 'failed'}", file=sys.stderr)
    return EXIT_OK if passed else EXIT_CRITERIA


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------

def _build_parser():
    p = argparse.ArgumentParser(
        prog="bihazard",
        description="Cumulative-hazard estimation and tests for region-censored planar data")
    p.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = p.add_subparsers(dest="command", required=True)

    def common(sp, data=False, data2=False):
        sp.add_argument("--config", required=True, help="JSON config file")
        sp.add_argument("--out", required=True, help="output directory")
        sp.add_argument("--set", action="append", metavar="KEY=VALUE",
                        help="override a config leaf (dotted path)")
        sp.add_argument("--threads", type=int, default=1,
                        help="accepted for compatibility; has no effect")
        if data:
            sp.add_argument("--data", required=True, help="dataset file (.jsonl or .csv)")
        if data2:
            sp.add_argument("--data2", help="second dataset for two-sample tests")

    sp = sub.add_parser("simulate", help="draw a synthetic dataset")
    common(sp)
    sp.add_argument("--latent", action="store_true",
                    help="emit latent points on censored records instead of the observable form")
    sp.set_defaults(fn=cmd_simulate)

    sp = sub.add_parser("estimate", help="estimate the hazard surface from a dataset")
    common(sp, data=True)
    sp.set_defaults(fn=cmd_estimate)

    sp = sub.add_parser("test", help="run a bootstrap hypothesis test")
    common(sp, data=True, data2=True)
    sp.set_defaults(fn=cmd_test)

    sp = sub.add_parser("mc", help="run a Monte Carlo verification experiment")
    common(sp)
    sp.set_defaults(fn=cmd_mc)

    sp = sub.add_parser("validate", help="check censoring/model assumptions")
    common(sp)
    sp.set_defaults(fn=cmd_validate)
    return p


def main(argv=None):
    parser = _build_parser()
    args = parser.parse_args(argv)
    if getattr(args, "threads", 1) < 1:
        print("error: --threads must be at least 1", file=sys.stderr)
        return EXIT_CONFIG
    try:
        return args.fn(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except DataError as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return EXIT_DATA
    except NumericError as exc:
        print(f"numeric error: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    except BihazardError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
