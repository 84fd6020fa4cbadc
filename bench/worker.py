"""One fresh interpreter running a library workload: bootstrap_rect or general_n10k.

    python3 bench/worker.py --workload NAME --seed N --seconds S --trace 0|1 --out DIR
    python3 bench/worker.py --probe --workload NAME --seed N --out DIR

Set-up is `import bihazard.cli` plus building the workload's inputs; its
end is written as a CLOCK_MONOTONIC reading ("ready"), which the parent
compares with the moment it spawned this process.  Then whole rounds of
the workload's operations run until S seconds have passed (at least one
round).  With --trace 1, each operation runs untraced and then traced,
and the traced runs record spans.  Outputs the parent checks go to DIR:
result.json, plus inputs and arrays per workload.  --probe stops after
set-up and prints the ready reading.
"""

from __future__ import annotations

import argparse
import functools
import hashlib
import json
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from common import SRC, WORKLOADS, derive_seeds  # noqa: E402

sys.path.insert(0, str(SRC))

N_BOOT = 1000
B = 200
BOOT_GRID = 32
FGM_TAU = (0.8, 0.8)
N_GENERAL = 10000
GENERAL_GRID = 64
SAMPLED_EVENTS = 200


# ---------------------------------------------------------------------------
# bootstrap_rect
# ---------------------------------------------------------------------------

def build_bootstrap(seed):
    import numpy as np
    from bihazard import (BootstrapSpec, CensoringModel, FgmModel, QuantileTable,
                          simulate_sample)
    data_seed, boot_seed = derive_seeds(seed, 2)
    rect = CensoringModel("rectangle", {"tau1": QuantileTable.uniform(0.7, 1.0),
                                        "tau2": QuantileTable.uniform(0.7, 1.0)})
    rng = np.random.default_rng(data_seed)
    return {
        "s1": simulate_sample(FgmModel(0.2), rect, N_BOOT, rng, form="latent"),
        "s2": simulate_sample(FgmModel(0.6), rect, N_BOOT, rng, form="observable"),
        "spec": BootstrapSpec(replicates=B, alpha=0.05, seed=boot_seed, grid_size=BOOT_GRID),
    }


def bootstrap_ops(x):
    # module attribute lookups at call time, so the tracer's wrappers are seen
    import bihazard.inference as inf
    return [
        ("independence", lambda: inf.independence_test(x["s1"], x["spec"])),
        ("hazard_order", lambda: inf.hazard_order_test(x["s1"], x["s2"], x["spec"])),
        ("fgm_order", lambda: inf.fgm_order_test(x["s1"], x["s2"], FGM_TAU, x["spec"], True)),
        ("fgm_order_km", lambda: inf.fgm_order_test(x["s1"], x["s2"], FGM_TAU, x["spec"], False)),
    ]


def bootstrap_inputs(x, out):
    from bihazard.io import write_dataset
    write_dataset(out / "sample1.jsonl", x["s1"].records)
    write_dataset(out / "sample2.jsonl", x["s2"].records)
    return {"bootSeed": x["spec"].seed, "B": B, "gridSize": BOOT_GRID, "fgmTau": list(FGM_TAU)}


def bootstrap_output(x, out, name, report, first_round):
    return {"report": report.to_json(),
            "replicates": [float(v) for v in report.replicate_statistics]}


# ---------------------------------------------------------------------------
# general_n10k
# ---------------------------------------------------------------------------

def build_general(seed):
    from bihazard import (CensoringModel, FgmModel, GridProduct, LowerLayer,
                          QuantileTable)
    seeds = derive_seeds(seed, 4)
    families = {
        "grid_product": CensoringModel("grid_product", {"region": GridProduct(
            ((0.0, 0.3), (0.4, 0.7), (0.8, 1.0)), ((0.0, 0.5), (0.6, 1.0)))}),
        "band_complement": CensoringModel("band_complement", {
            "k1": QuantileTable.uniform(0.1, 0.5), "k2": QuantileTable.uniform(0.4, 0.8), "c": 0.2}),
        "lower_layer": CensoringModel("lower_layer", {"region": LowerLayer(
            ((0.3, 1.0), (0.6, 0.8), (0.9, 0.5), (1.0, 0.2)))}),
    }
    return {"model": FgmModel(0.5), "families": families,
            "seeds": dict(zip(families, seeds)), "pick_seed": seeds[3]}


def general_ops(x, out):
    return [(fam, lambda fam=fam: general_fit(x, fam, out)) for fam in x["families"]]


def general_fit(x, fam, out):
    """simulate -> write -> read -> CensoredSample -> surface, marginals, KM; step times."""
    import numpy as np
    from bihazard import (CensoredSample, Grid, kaplan_meier, marginal_nelson_aalen,
                          nelson_aalen_surface, simulate_sample)
    from bihazard.io import read_dataset, write_dataset
    path = out / f"{fam}.jsonl"
    t = [time.perf_counter()]
    sample = simulate_sample(x["model"], x["families"][fam], N_GENERAL,
                             np.random.default_rng(x["seeds"][fam]), form="latent")
    t.append(time.perf_counter())
    write_dataset(path, sample.records, header={"n": N_GENERAL, "family": fam})
    t.append(time.perf_counter())
    records, _ = read_dataset(path)
    t.append(time.perf_counter())
    fit = CensoredSample(records)
    t.append(time.perf_counter())
    surf = nelson_aalen_surface(fit, Grid(GENERAL_GRID, (1.0, 1.0)))
    t.append(time.perf_counter())
    marg = [marginal_nelson_aalen(fit, axis) for axis in (0, 1)]
    t.append(time.perf_counter())
    km = [kaplan_meier(m) for m in marg]
    t.append(time.perf_counter())
    steps = dict(zip(("simulate", "write", "read", "sample", "surface", "marginals", "km"),
                     np.diff(t).tolist()))
    return {"steps": steps, "fit": fit, "sample": sample, "surf": surf, "marg": marg, "km": km,
            "records": records, "path": path}


def general_output(x, out, fam, res, first_round):
    """Checks needing the live objects, digests, and (first round) the arrays."""
    import numpy as np
    from bihazard import at_risk
    arrays = {"masses": res["surf"].jump_masses, "jump_points": res["surf"].jump_points,
              "surface": res["surf"].values}
    for axis, (m, k) in enumerate(zip(res["marg"], res["km"])):
        for key in ("values", "counts", "at_risk", "jumps", "cum"):
            arrays[f"m{axis}_{key}"] = getattr(m, key)
        arrays[f"km{axis}"] = k.values
    digest = hashlib.sha256()
    for key in sorted(arrays):
        digest.update(np.ascontiguousarray(arrays[key]).tobytes())
    body = {"steps": res["steps"],
            "roundTrip": res["records"] == res["sample"].records,
            "arraysDigest": digest.hexdigest(),
            "fileDigest": hashlib.sha256(res["path"].read_bytes()).hexdigest()}
    if first_round:
        ev = arrays["jump_points"]
        rng = np.random.default_rng(x["pick_seed"])
        picks = rng.choice(len(ev), size=min(SAMPLED_EVENTS, len(ev)), replace=False)
        g = np.linspace(0.0, 1.0, 8)
        nodes = np.column_stack([np.repeat(g, 8), np.tile(g, 8)])
        arrays["queries"] = np.vstack([ev[np.sort(picks)], nodes])
        arrays["query_at_risk"] = np.asarray(at_risk(res["fit"], arrays["queries"]))
        np.savez(out / f"{fam}.npz", **arrays)
    return body


# ---------------------------------------------------------------------------
# rounds
# ---------------------------------------------------------------------------

def run_rounds(ops, output, seconds, trace):
    """Whole rounds until `seconds` pass (at least one).

    With trace, each round runs every operation twice back to back,
    untraced then traced, and yields one untraced and one traced row, so
    the two sides of the overhead are measured close together.  A row's
    wall time is the sum of its operations' times; the output kept for
    the checks is taken between operations, untimed and untraced.
    """
    tracer = None
    if trace:
        from tracing import Tracer
        tracer = Tracer()
    modes = (False, True) if trace else (False,)
    rounds, snapshots = [], []
    start = time.perf_counter()
    while not rounds or time.perf_counter() - start < seconds:
        rows = [{"traced": traced, "ops": {}, "failed": []} for traced in modes]
        first = not rounds
        for name, op in ops:
            for row in rows:
                if row["traced"]:
                    tracer.install()
                t0 = time.perf_counter()
                try:
                    res = op()
                except Exception as exc:          # one failed operation; the run goes on
                    res = None
                    row["failed"].append(f"{name}: {exc!r}")
                wall = time.perf_counter() - t0
                if row["traced"]:
                    tracer.uninstall()
                row["ops"][name] = {"wall_s": wall}
                if res is not None:
                    row["ops"][name].update(output(name, res, first and not row["traced"]))
        for row in rows:
            row["wall_s"] = sum(op["wall_s"] for op in row["ops"].values())
        if trace:
            snapshots.append(tracer.snapshot())
            tracer.reset()
        rounds.extend(rows)
    return rounds, snapshots


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=0.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--out", type=Path, required=True)
    p.add_argument("--probe", action="store_true")
    args = p.parse_args(argv)

    t0 = time.perf_counter()
    import bihazard.cli  # noqa: F401  (the import every command pays)
    import_s = time.perf_counter() - t0
    if args.workload == "bootstrap_rect":
        x = build_bootstrap(args.seed)
    elif args.workload == "general_n10k":
        x = build_general(args.seed)
    else:
        x = None
    ready = time.monotonic()
    if args.probe:
        print(json.dumps({"ready": ready, "import_s": import_s}))
        return 0

    if args.workload == "bootstrap_rect":
        info = bootstrap_inputs(x, args.out)
        ops, output = bootstrap_ops(x), bootstrap_output
    else:
        info = {"n": N_GENERAL, "gridSize": GENERAL_GRID}
        ops, output = general_ops(x, args.out), general_output
    rounds, snapshots = run_rounds(ops, functools.partial(output, x, args.out),
                                   args.seconds, args.trace)
    body = {"ready": ready, "import_s": import_s, "inputs": info, "rounds": rounds,
            "snapshots": snapshots}
    with open(args.out / "result.json", "w") as fh:
        json.dump(body, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
