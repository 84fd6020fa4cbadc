"""Command-line front end: simulate, estimate, test, mc, validate.

One JSON config file is the source of truth per run; --set key=value
overrides single leaves (dotted paths descend into sections).  Configs are
decoded strictly; errors name the key path.  Commands that draw randomness
require masterSeed and are bit-reproducible; --threads is accepted and ignored.

Each command returns a `Run` (its config, output files, datasets read, report
lines and exit code) and writes nothing itself.  `_seal` is the one place that
creates --out: after the command has finished it writes the files, the fully
resolved config and a manifest with the tool version and content digests of
all inputs and outputs.  A command or a write that stops with an error leaves
no new directory.

Exit codes: 0 ok, 2 usage/config, 3 data, 4 numeric, 5 a pre-registered
criterion or validation failed.
"""

from __future__ import annotations

import argparse
import csv
import json
import os
import shutil
import sys
from typing import NamedTuple

import numpy as np

from . import __version__
from . import censoring as cen
from .censoring import CENSORING_MODEL
from .decode import BOOL, INT, NUM, OPTIONAL, PAIR, STR, Built, Schema, Tagged
from .errors import BihazardError, ConfigError, DataError, NumericError
from .estimators import (jump_masses, kaplan_meier, marginal_nelson_aalen,
                         nelson_aalen_surface, simulate_sample)
from .geometry import Grid, LowerRect, lattice
from .inference import TESTS, BootstrapSpec, check_bootstrap
from .io import read_sample, write_dataset
from .mc import EXPERIMENTS, MCConfig
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


def _decoded(args, schema):
    """(the config file with --set applied, its strict decoding by schema)."""
    cfg = _apply_overrides(_load_config(args.config), args.set)
    return cfg, schema.decode(cfg)


# ---------------------------------------------------------------------------
# output plumbing
# ---------------------------------------------------------------------------

class Run(NamedTuple):
    """A finished command: what `_seal` writes into --out and what `main` then reports."""

    config: dict            # the config file with --set applied
    files: dict             # name -> JSON value, CSV rows (a .csv name) or a writer of the path
    lines: list             # report lines
    data: tuple = ()        # dataset paths read, hashed into the manifest
    stderr: bool = False    # report on stderr instead of stdout
    code: int = EXIT_OK


def _hash_input(path):
    try:
        return sha256_file(path)
    except OSError as exc:
        raise DataError(f"cannot read {path}: {exc}") from exc


def _write(path, body):
    if callable(body):
        body(path)
    elif path.endswith(".csv"):
        with open(path, "w", newline="") as fh:
            csv.writer(fh).writerows([fmt_float(v) if isinstance(v, float) else v for v in row]
                                     for row in body)
    else:
        with open(path, "w") as fh:
            # numpy scalars and arrays are written as the Python values tolist() gives
            json.dump(body, fh, indent=2, sort_keys=True, default=lambda obj: obj.tolist())
            fh.write("\n")


def _seal(args, run):
    """Write the run's files, then resolved_config.json, then manifest.json into --out; inputs
    are hashed first so that a vanished input leaves no directory.  An existing --out is written
    into; a new one is written as a temporary sibling and renamed at the end, so that a failed
    write leaves no --out."""
    inputs = {path: _hash_input(path) for path in (args.config, *run.data)}
    out = os.path.normpath(args.out)
    fresh = not os.path.exists(out)
    target = f"{out}.partial-{os.getpid()}" if fresh else out
    try:
        os.makedirs(target, exist_ok=True)
        outputs = {}
        for name, body in {**run.files, "resolved_config.json": run.config}.items():
            path = os.path.join(target, name)
            _write(path, body)
            outputs[name] = sha256_file(path)
        _write(os.path.join(target, "manifest.json"),
               {"version": __version__, "command": args.command, "inputs": inputs, "outputs": outputs})
        if fresh:
            os.rename(target, out)
    except OSError as exc:
        raise ConfigError(f"cannot write --out {args.out}: {exc}") from exc
    finally:
        if fresh:
            shutil.rmtree(target, ignore_errors=True)


# ---------------------------------------------------------------------------
# simulate
# ---------------------------------------------------------------------------

_SIMULATE = Schema({"masterSeed": INT, "n": INT, "model": MODEL, "censorModel": CENSORING_MODEL})


def cmd_simulate(args):
    cfg, c = _decoded(args, _SIMULATE)
    n, seed, rng = c["n"], c["masterSeed"], substream(c["masterSeed"], DATA)
    if n < 0:
        raise ConfigError(f"n must be at least 0, got {n}")
    form = "latent" if args.latent else "observable"
    records, events = [], 0
    if n:
        sample = simulate_sample(c["model"], c["censorModel"], n, rng, form=form)
        records, events = sample.records, int(np.count_nonzero(sample.event_mask))
    header = {"n": n, "masterSeed": seed, "form": form, "version": __version__}
    return Run(cfg, {"dataset.jsonl": lambda path: write_dataset(path, records, header=header)},
               [f"wrote {len(records)} records ({events} events) to "
                f"{os.path.join(args.out, 'dataset.jsonl')}"])


# ---------------------------------------------------------------------------
# estimate
# ---------------------------------------------------------------------------

_ESTIMATE = Schema({"grid": ({"size": (INT, 64), "tau": (PAIR, [1.0, 1.0])}, {}),
                    "method": ({"auto"}, "auto"),
                    "marginals": ({True, False, "auto"}, "auto")})


def cmd_estimate(args):
    cfg, c = _decoded(args, _ESTIMATE)
    size, tau = c["grid"]["size"], c["grid"]["tau"]
    sample = read_sample(args.data)
    grid = Grid(size, tau)
    surf = nelson_aalen_surface(sample, grid)

    surface = np.dstack([lattice(grid.xs, grid.ys), surf.values]).reshape(-1, 3)
    jumps = np.column_stack([surf.jump_points, surf.jump_masses])
    files = {"surface.csv": [["t1", "t2", "Hhat"], *surface.tolist()],
             "jumps.csv": [["y1", "y2", "mass"], *jumps.tolist()]}

    marg_done = False
    if c["marginals"] in (True, "auto"):
        try:
            for axis in (0, 1):
                est = marginal_nelson_aalen(sample, axis)
                km = kaplan_meier(est)
                columns = (est.values, est.counts, est.at_risk, est.jumps, est.cum, km.values)
                files[f"marginal{axis + 1}.csv"] = [
                    ["value", "count", "atRisk", "jump", "cumHazard", "kmCdf"],
                    *zip(*(col.tolist() for col in columns))]
            marg_done = True
        except BihazardError:
            if c["marginals"] is True:
                raise
    files["summary.json"] = summary = {
        "n": sample.n,
        "observedCount": int(np.count_nonzero(sample.event_mask)),
        "fullWindowEstimate": float(np.sum(jump_masses(sample))),
        "method": c["method"],
        "grid": {"size": size, "tau": list(tau)},
        "marginalsComputed": marg_done,
    }
    return Run(cfg, files, [f"estimated surface on {size}x{size} grid; "
                            f"full-window estimate {summary['fullWindowEstimate']:.6g}"],
               data=(args.data,))


# ---------------------------------------------------------------------------
# test
# ---------------------------------------------------------------------------


def _renamed(d):
    """The config's keys under the option names that `inference.TESTS` and `mc.EXPERIMENTS` read."""
    names = {"modelF": "model_f", "modelG": "model_g", "model1": "model_1", "model2": "model_2",
             "censorModel": "censor_model", "gridSize": "grid_size", "marginalsEqual": "marginals_equal",
             "varRtol": "var_rtol", "ksBound": "ks_bound"}
    return {names.get(k, k): v for k, v in d.items()}


_BOOTSTRAP = {"B": (INT, 999), "alpha": (NUM, 0.05), "gridSize": (INT, 64),
              "sided": (STR, "one-sided")}
_TEST_ANY = {"masterSeed": INT, "bootstrap": (_BOOTSTRAP, {}), "tau": (PAIR, OPTIONAL),
             "replicateDump": (BOOL, False)}
_TEST = Schema(Built(Tagged("test", {
    "independence": _TEST_ANY,
    "hazard-order": {**_TEST_ANY, "region": (cen.REGION, OPTIONAL)},
    "fgm-order": {**_TEST_ANY, "tau": PAIR, "marginalsEqual": BOOL},
}), _renamed))


def cmd_test(args):
    cfg, c = _decoded(args, _TEST)
    b = c["bootstrap"]
    check_bootstrap(b, "bootstrap.")
    spec = BootstrapSpec(replicates=b["B"], alpha=b["alpha"], seed=c["masterSeed"],
                         grid_size=b["gridSize"], sided=b["sided"])
    keys, call = TESTS[c["test"]]
    if (len(keys) == 2) != bool(args.data2):
        raise ConfigError("independence takes --data only; the two-sample tests need --data2")
    data = (args.data, args.data2)[:len(keys)]
    report = call([read_sample(path) for path in data], spec, c)

    files = {"test_report.json": report.to_json()}
    if c["replicateDump"]:
        files["replicates.csv"] = [["replicateIndex", "statistic"],
                                   *enumerate(report.replicate_statistics.tolist())]
    verdict = "reject" if report.reject else "fail to reject"
    return Run(cfg, files, [f"{c['test']}: statistic {report.statistic:.6g}, critical "
                            f"{report.critical_value:.6g}, p {report.p_value:.4g} -> {verdict}"],
               data=data)


# ---------------------------------------------------------------------------
# mc
# ---------------------------------------------------------------------------

_SCENARIO = Built({
    "name": STR, "test": {"independence", "hazard-order", "fgm-order"},
    **{key: (MODEL, OPTIONAL) for key in ("model", "modelF", "modelG", "model1", "model2")},
    "censorModel": (CENSORING_MODEL, OPTIONAL), "n": (INT, OPTIONAL), "m": (INT, OPTIONAL),
    "alpha": (NUM, OPTIONAL), "B": (INT, OPTIONAL), "gridSize": (INT, OPTIONAL),
    "sided": (STR, OPTIONAL), "tau": (PAIR, OPTIONAL), "marginalsEqual": (BOOL, OPTIONAL),
    "band": (PAIR, OPTIONAL), "region": (cen.REGION, OPTIONAL),
    "exceeds": (Built([STR, NUM], lambda e: (e[0], float(e[1]))), OPTIONAL),
}, _renamed)

_LADDER = ([INT], [250, 500, 1000, 2000])
_MC_ANY = {"masterSeed": INT, "model": MODEL, "censorModel": CENSORING_MODEL,
           "n": (INT, 500), "replicates": (INT, 200), "gridSize": (INT, 32)}
_MC = Schema(Built(Tagged("experiment", {
    "clt": {**_MC_ANY, "checkpoints": [PAIR], "varRtol": (NUM, 0.10), "ksBound": (NUM, 0.05),
            "checks": ([STR], ["mean", "variance", "normality"])},
    "glivenko": {**_MC_ANY, "ladder": _LADDER, "bound": (NUM, 0.05)},
    "iid_repr": {**_MC_ANY, "region": PAIR, "ladder": _LADDER},
    "size_power": {**_MC_ANY, "scenarios": [_SCENARIO]},
    "coverage": {**_MC_ANY, "alpha": (NUM, 0.05), "B": (INT, 200), "band": (PAIR, [0.88, 0.99])},
}), _renamed))


def cmd_mc(args):
    cfg, c = _decoded(args, _MC)
    mccfg = MCConfig(model=c["model"], censor_model=c["censor_model"], n=c["n"],
                     replicates=c["replicates"], grid_size=c["grid_size"], seed=c["masterSeed"])
    report = EXPERIMENTS[c["experiment"]](mccfg, c)

    body = report.to_json()
    body.pop("runtime", None)    # keep reports byte-identical across runs
    lines = [f"{report.experiment}: passed={report.passed} ({report.runtime:.1f}s)"]
    lines += [f"  {row['name']}: value={row['value']:.6g} tolerance[{row['tolerance']}] "
              f"passed={row['passed']}" for row in report.rows]
    return Run(cfg, {"mc_report.json": body, "mc_report.csv": report.csv_rows()}, lines,
               stderr=True, code=EXIT_CRITERIA if report.passed is False else EXIT_OK)


# ---------------------------------------------------------------------------
# validate
# ---------------------------------------------------------------------------

_VALIDATE = Schema({"censorModel": CENSORING_MODEL, "model": (MODEL, OPTIONAL),
                    "grid": ({"size": (INT, 32), "tau": (PAIR, [1.0, 1.0])}, {}),
                    "epsilon": (NUM, 0.05)})


def cmd_validate(args):
    cfg, c = _decoded(args, _VALIDATE)
    grid = Grid(c["grid"]["size"], c["grid"]["tau"])
    diag = cen.validate_censoring(c["censorModel"], grid, epsilon=float(c["epsilon"]))
    result = {"censoring": diag.to_json(), "model": None}
    passed = diag.passed
    if "model" in c:
        model = c["model"]
        corner = grid.tau
        sval = float(model.survival(*corner))
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
    return Run(cfg, {"validation.json": result}, [f"validation {'passed' if passed else 'failed'}"],
               stderr=True, code=EXIT_OK if passed else EXIT_CRITERIA)


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------

# command -> (help, takes --data, takes --data2)
_COMMANDS = {"simulate": ("draw a synthetic dataset", False, False),
             "estimate": ("estimate the hazard surface from a dataset", True, False),
             "test": ("run a bootstrap hypothesis test", True, True),
             "mc": ("run a Monte Carlo verification experiment", False, False),
             "validate": ("check censoring/model assumptions", False, False)}


def _build_parser():
    p = argparse.ArgumentParser(
        prog="bihazard",
        description="Cumulative-hazard estimation and tests for region-censored planar data")
    p.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = p.add_subparsers(dest="command", required=True)
    for command, (text, data, data2) in _COMMANDS.items():
        sp = sub.add_parser(command, help=text)
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
        # looked up when the parser is built, so a wrapper set on the module is the one called
        sp.set_defaults(fn=globals()[f"cmd_{command}"])
    sub.choices["simulate"].add_argument(
        "--latent", action="store_true",
        help="emit latent points on censored records instead of the observable form")
    return p


def main(argv=None):
    args = _build_parser().parse_args(argv)
    if args.threads < 1:
        print("error: --threads must be at least 1", file=sys.stderr)
        return EXIT_CONFIG
    try:
        run = args.fn(args)
        _seal(args, run)
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
    for line in run.lines:
        print(line, file=sys.stderr if run.stderr else sys.stdout)
    return run.code


if __name__ == "__main__":
    sys.exit(main())
