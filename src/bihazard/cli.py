"""Command-line front end: simulate, estimate, test, mc, validate.

One JSON config file is the source of truth per run; --set key=value
overrides single leaves (dotted paths descend into sections).  Configs are
decoded strictly; errors name the key path.  Commands that draw randomness
require masterSeed and are bit-reproducible; --threads is accepted and ignored.
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
from .censoring import CENSORING_MODEL
from .decode import BOOL, INT, NUM, OPTIONAL, PAIR, STR, Built, Schema, Tagged
from .errors import BihazardError, ConfigError, DataError, NumericError
from .estimators import (jump_masses, kaplan_meier, marginal_nelson_aalen,
                         nelson_aalen_surface, simulate_sample)
from .geometry import Grid, LowerRect, PredicateRegion
from .inference import (BootstrapSpec, fgm_order_test, hazard_order_test,
                        independence_test)
from .io import read_sample, write_dataset
from .mc import (MCConfig, coverage_study, size_power_study, verify_clt,
                 verify_glivenko, verify_iid_representation)
from .models import MODEL, integrated_hazard
from .quadrature import QuadratureSpec
from .util import DATA, fmt_float, sha256_file, substream

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


def _hash_input(path):
    try:
        return sha256_file(path)
    except OSError as exc:
        raise DataError(f"cannot read {path}: {exc}") from exc


# ---------------------------------------------------------------------------
# simulate
# ---------------------------------------------------------------------------

_SIMULATE = Schema({"masterSeed": INT, "n": INT, "model": MODEL, "censorModel": CENSORING_MODEL})


def cmd_simulate(args):
    cfg = _apply_overrides(_load_config(args.config), args.set)
    c = _SIMULATE.decode(cfg)
    n, seed, rng = c["n"], c["masterSeed"], substream(c["masterSeed"], DATA)
    if n < 0:
        raise ConfigError(f"n must be at least 0, got {n}")
    form = "latent" if args.latent else "observable"
    records, events = [], 0
    if n:
        sample = simulate_sample(c["model"], c["censorModel"], n, rng, form=form)
        records, events = sample.records, int(np.count_nonzero(sample.event_mask))
    out = OutputDir(args.out, "simulate", cfg, {args.config: sha256_file(args.config)})
    header = {"n": n, "masterSeed": seed, "form": form, "version": __version__}
    write_dataset(out.file("dataset.jsonl"), records, header=header)
    out.wrote("dataset.jsonl")
    out.seal()
    print(f"wrote {len(records)} records ({events} events) to {out.file('dataset.jsonl')}")
    return EXIT_OK


# ---------------------------------------------------------------------------
# estimate
# ---------------------------------------------------------------------------

_ESTIMATE = Schema({"grid": ({"size": (INT, 64), "tau": (PAIR, [1.0, 1.0])}, {}),
                    "method": (STR, "auto"),
                    "marginals": ({True, False, "auto"}, "auto")})


def cmd_estimate(args):
    cfg = _apply_overrides(_load_config(args.config), args.set)
    c = _ESTIMATE.decode(cfg)
    size, tau = c["grid"]["size"], c["grid"]["tau"]
    method, marginals = c["method"], c["marginals"]
    sample = read_sample(args.data)
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

# a config region is a censoring-region JSON; as a test window it is its membership predicate
_REGION = Built(cen.REGION, lambda shape: PredicateRegion(lambda pts: cen.contains(shape, pts)))
_BOOTSTRAP = {"B": (INT, 999), "alpha": (NUM, 0.05), "gridSize": (INT, 64),
              "sided": (STR, "one-sided")}
_TEST_ANY = {"masterSeed": INT, "bootstrap": (_BOOTSTRAP, {}), "tau": (PAIR, OPTIONAL),
             "replicateDump": (BOOL, False)}
_TEST = Schema(Tagged("test", {
    "independence": _TEST_ANY,
    "hazard-order": {**_TEST_ANY, "region": (_REGION, OPTIONAL)},
    "fgm-order": {**_TEST_ANY, "tau": PAIR, "marginalsEqual": BOOL},
}))


def cmd_test(args):
    cfg = _apply_overrides(_load_config(args.config), args.set)
    c = _TEST.decode(cfg)
    which, tau, b = c["test"], c.get("tau"), c["bootstrap"]
    spec = BootstrapSpec(replicates=b["B"], alpha=b["alpha"], seed=c["masterSeed"],
                         grid_size=b["gridSize"], sided=b["sided"])
    if (which == "independence") == bool(args.data2):
        raise ConfigError("independence takes --data only; the two-sample tests need --data2")

    inputs = {args.config: sha256_file(args.config), args.data: _hash_input(args.data)}
    sample = read_sample(args.data)
    if which == "independence":
        report = independence_test(sample, spec, tau=tau)
    else:
        inputs[args.data2] = _hash_input(args.data2)
        sample2 = read_sample(args.data2)
        if which == "hazard-order":
            report = hazard_order_test(sample, sample2, spec, region=c.get("region"), tau=tau)
        else:
            report = fgm_order_test(sample, sample2, tau, spec, c["marginalsEqual"])

    out = OutputDir(args.out, "test", cfg, inputs)
    out.write_json("test_report.json", report.to_json())
    if c["replicateDump"]:
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

_SCENARIO_NAMES = {"modelF": "model_f", "modelG": "model_g", "model1": "model_1",
                   "model2": "model_2", "censorModel": "censor_model", "gridSize": "grid_size",
                   "marginalsEqual": "marginals_equal"}
_SCENARIO = Built({
    "name": STR, "test": {"independence", "hazard-order", "fgm-order"},
    **{key: (MODEL, OPTIONAL) for key in ("model", "modelF", "modelG", "model1", "model2")},
    "censorModel": (CENSORING_MODEL, OPTIONAL), "n": (INT, OPTIONAL), "m": (INT, OPTIONAL),
    "alpha": (NUM, OPTIONAL), "B": (INT, OPTIONAL), "gridSize": (INT, OPTIONAL),
    "sided": (STR, OPTIONAL), "tau": (PAIR, OPTIONAL), "marginalsEqual": (BOOL, OPTIONAL),
    "band": (PAIR, OPTIONAL), "region": (_REGION, OPTIONAL),
    "exceeds": (Built([STR, NUM], lambda e: (e[0], float(e[1]))), OPTIONAL),
}, lambda d: {_SCENARIO_NAMES.get(k, k): v for k, v in d.items()})

_LADDER = ([INT], [250, 500, 1000, 2000])
_MC_ANY = {"masterSeed": INT, "model": MODEL, "censorModel": CENSORING_MODEL,
           "n": (INT, 500), "replicates": (INT, 200), "gridSize": (INT, 32)}
_MC = Schema(Tagged("experiment", {
    "clt": {**_MC_ANY, "checkpoints": [PAIR], "varRtol": (NUM, 0.10), "ksBound": (NUM, 0.05),
            "checks": ([STR], ["mean", "variance", "normality"])},
    "glivenko": {**_MC_ANY, "ladder": _LADDER, "bound": (NUM, 0.05)},
    "iid_repr": {**_MC_ANY, "region": PAIR, "ladder": _LADDER},
    "size_power": {**_MC_ANY, "scenarios": [_SCENARIO]},
    "coverage": {**_MC_ANY, "alpha": (NUM, 0.05), "B": (INT, 200), "band": (PAIR, [0.88, 0.99])},
}))


def cmd_mc(args):
    cfg = _apply_overrides(_load_config(args.config), args.set)
    c = _MC.decode(cfg)
    experiment = c["experiment"]
    mccfg = MCConfig(model=c["model"], censor_model=c["censorModel"], n=c["n"],
                     replicates=c["replicates"], grid_size=c["gridSize"], seed=c["masterSeed"])
    if experiment == "clt":
        report = verify_clt(mccfg, c["checkpoints"], var_rtol=c["varRtol"],
                            ks_bound=c["ksBound"], checks=tuple(c["checks"]))
    elif experiment == "glivenko":
        report = verify_glivenko(mccfg, ladder=tuple(c["ladder"]), bound=c["bound"])
    elif experiment == "iid_repr":
        report = verify_iid_representation(mccfg, LowerRect(c["region"]),
                                           ladder=tuple(c["ladder"]))
    elif experiment == "size_power":
        report = size_power_study(mccfg, c["scenarios"])
    else:
        report = coverage_study(mccfg, alpha=c["alpha"], b=c["B"], band=c["band"])

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

_VALIDATE = Schema({"censorModel": CENSORING_MODEL, "model": (MODEL, OPTIONAL),
                    "grid": ({"size": (INT, 32), "tau": (PAIR, [1.0, 1.0])}, {}),
                    "epsilon": (NUM, 0.05)})


def cmd_validate(args):
    cfg = _apply_overrides(_load_config(args.config), args.set)
    c = _VALIDATE.decode(cfg)
    grid = Grid(c["grid"]["size"], c["grid"]["tau"])
    diag = cen.validate_censoring(c["censorModel"], grid, epsilon=float(c["epsilon"]))
    result = {"censoring": diag.to_json(), "model": None}
    passed = diag.passed
    if "model" in c:
        model = c["model"]
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
    except MemoryError:
        # a size in the config asked for more memory than the machine grants
        print(f"config error: {args.command} ran out of memory; reduce the sizes in its config",
              file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
