"""bihazard benchmark: one workload, timed end to end or traced per layer.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads: cli_pipeline, bootstrap_rect, general_n10k (see bench/README.md).
Run from anywhere; paths resolve from this file.  The run builds its
inputs from --seed, runs whole rounds of the workload for S seconds (at
least one round), checks every output against bench/oracle.py, prints a
table, and ends with one JSON line:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {name: {"value", "unit"}}}

--trace 0 reports the end-to-end metrics; --trace 1 runs every
operation untraced and then traced and reports the per-layer metrics,
including the tracing overhead.  Details go to bench/results/ and spans to bench/traces/.
"""

from __future__ import annotations

import argparse
import json
import shutil
import sys
import time
import traceback
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import checks  # noqa: E402
import cli_pipeline  # noqa: E402
import tracing  # noqa: E402
from common import (BENCH, RESULTS, ROOT, SETUP_PROBES, SRC, TRACES, WORKLOADS,  # noqa: E402
                    derive_seeds, median, probe_setup, run_child)


def end_to_end(setup, rss_kb, round_walls):
    return {"setup_s": median(setup), "peak_rss_mb": rss_kb / 1024.0, "round_s": median(round_walls)}


def per_layer(snapshots, import_s, untraced, traced):
    rows, counts = tracing.combine(snapshots)
    layers = tracing.layer_metrics(rows, counts, len(traced))
    layers["cli.import_s"] = import_s
    overhead = median(traced) - median(untraced)
    layers["trace.overhead_s"] = overhead
    layers["trace.overhead_pct"] = 100.0 * overhead / median(untraced)
    return rows, layers


def declared_units(trace):
    """{metric: unit} of the end-to-end or per-layer metrics BENCHMARK.json declares."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


# ---------------------------------------------------------------------------
# workloads
# ---------------------------------------------------------------------------

def run_library(args, run_dir):
    t0 = time.monotonic()
    code, _, rss_kb = run_child([sys.executable, BENCH / "worker.py", "--workload", args.workload,
                                 "--seed", args.seed, "--seconds", args.seconds, "--trace", args.trace,
                                 "--out", run_dir], run_dir / "worker.log")
    if code != 0:
        raise RuntimeError(f"worker exited with {code}; see {run_dir / 'worker.log'}")
    res = json.loads((run_dir / "result.json").read_text())
    setup = [res["ready"] - t0] + [probe_setup(args.workload, args.seed, run_dir / f"probe{i}.log")
                                   for i in range(SETUP_PROBES - 1)]
    check = checks.check_bootstrap if args.workload == "bootstrap_rect" else checks.check_general
    failures = check(run_dir, res)
    rounds = res["rounds"]
    untraced = [r["wall_s"] for r in rounds if not r["traced"]]
    out = {"rounds": rounds, "failures": failures,
           "attempted": sum(len(r["ops"]) for r in rounds),
           "failed": sum(len(r["failed"]) for r in rounds),
           "metrics": end_to_end(setup, rss_kb, untraced),
           "detail": detail(args.workload, rounds, res["inputs"])}
    if args.trace:
        traced = [r["wall_s"] for r in rounds if r["traced"]]
        out["spans"], out["layers"] = per_layer(res["snapshots"], res["import_s"], untraced, traced)
        out["snapshots"] = res["snapshots"]
    return out


def run_cli(args, run_dir):
    seeds = derive_seeds(args.seed, 5)
    rounds, traced_snaps = cli_pipeline.run_rounds(run_dir, seeds, args.seconds, args.trace)
    setup = [probe_setup(args.workload, args.seed, run_dir / f"probe{i}.log") for i in range(SETUP_PROBES)]
    sys.path.insert(0, str(SRC))
    failures = checks.check_cli(ROOT, run_dir, rounds, seeds, cli_pipeline.B_CLI)
    untraced_rounds = [r for r in rounds if not r["traced"]]
    out = {"rounds": rounds, "failures": failures,
           "attempted": sum(len(r["commands"]) for r in rounds),
           "failed": sum(c["rc"] != 0 for r in rounds for c in r["commands"]),
           "metrics": end_to_end(setup, max(c["rss_kb"] for r in untraced_rounds for c in r["commands"]),
                                 [r["wall_s"] for r in untraced_rounds]),
           "detail": detail(args.workload, rounds, {})}
    if args.trace:
        snaps = [s for round_snaps in traced_snaps for s in round_snaps]
        imports = [sp[4] - sp[3] for s in snaps for sp in s["spans"] if sp[2] == "cli.import"]
        traced = [r["wall_s"] for r in rounds if r["traced"]]
        out["spans"], out["layers"] = per_layer(snaps, median(imports) / 1e9,
                                                [r["wall_s"] for r in untraced_rounds], traced)
        out["snapshots"] = snaps
    return out


def detail(workload, rounds, inputs):
    """The workload's own per-operation figures, medians over untraced rounds."""
    rows = [r for r in rounds if not r["traced"]]
    if any(r.get("failed") for r in rows):
        return {}                                   # undefined when an operation failed
    if workload == "cli_pipeline":
        names = [c["name"] for c in rows[0]["commands"]]
        return {f"cli_{name}_s": (median([c["wall_s"] for r in rows for c in r["commands"] if c["name"] == name]), "s")
                for name in dict.fromkeys(names)}
    if workload == "bootstrap_rect":
        return {f"{name}_reps_per_s": (inputs["B"] / median([r["ops"][name]["wall_s"] for r in rows]), "replicates/s")
                for name in rows[0]["ops"]}
    n = inputs["n"] * len(rows[0]["ops"])
    gen = [sum(op["steps"]["simulate"] + op["steps"]["write"] for op in r["ops"].values()) for r in rows]
    fit = [sum(sum(op["steps"][k] for k in ("read", "sample", "surface", "marginals", "km"))
               for op in r["ops"].values()) for r in rows]
    return {"simulate_records_per_s": (n / median(gen), "records/s"), "fit_s": (median(fit), "s")}


# ---------------------------------------------------------------------------
# report
# ---------------------------------------------------------------------------

def print_table(args, out, units):
    rounds = out["rounds"]
    print(f"workload {args.workload}  seed {args.seed}  rounds {len(rounds)} "
          f"({sum(r['traced'] for r in rounds)} traced)  operations {out['attempted']}  failed {out['failed']}")
    e2e = {name: (value, units[name]) for name, value in out["metrics"].items()}
    for name, (value, unit) in {**e2e, **out["detail"]}.items():
        print(f"  {name:<40} {value:>14.6g} {unit}")
    if args.trace:
        print(f"  {'span':<40} {'calls':>9} {'total_s':>10} {'self_s':>10}")
        for name, row in sorted(out["spans"].items(), key=lambda kv: -kv[1]["self_s"]):
            print(f"  {name:<40} {row['calls']:>9} {row['total_s']:>10.4f} {row['self_s']:>10.4f}")
        print("  per-layer metrics, per traced round:")
        for name, value in out["layers"].items():
            print(f"  {name:<40} {value:>14.6g}")
    for msg in out["failures"]:
        print(f"  CHECK FAILED: {msg}")


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if not (SRC / "bihazard" / "__init__.py").is_file() or not (ROOT / "configs").is_dir():
        print(f"no bihazard sources under {SRC}; run from a checkout of the repository", file=sys.stderr)
        return 2

    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    run_dir = RESULTS / tag
    shutil.rmtree(run_dir, ignore_errors=True)
    run_dir.mkdir(parents=True)
    try:
        out = (run_cli if args.workload == "cli_pipeline" else run_library)(args, run_dir)
    except Exception:
        traceback.print_exc()
        return 1
    layers = out.get("layers", {})
    units = declared_units(args.trace)
    values = layers if args.trace else out["metrics"]
    if set(values) != set(units):
        out["failures"].append(f"metrics {sorted(set(values) ^ set(units))} differ from BENCHMARK.json")
    print_table(args, out, declared_units(False))
    metrics = {name: {"value": values[name], "unit": unit} for name, unit in units.items() if name in values}
    if args.trace:
        TRACES.mkdir(exist_ok=True)
        (TRACES / f"{tag}.json").write_text(json.dumps({"spans": out["spans"], "layers": layers,
                                                        "snapshots": out["snapshots"]}))
    summary = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
               "rounds": out["rounds"], "failures": out["failures"],
               "metrics": out["metrics"], "detail": out["detail"], "layers": layers}
    (RESULTS / f"{tag}.json").write_text(json.dumps(summary, indent=1))
    shutil.rmtree(run_dir, ignore_errors=True)
    correct = not out["failures"]
    print(json.dumps({"correct": correct, "attempted": out["attempted"], "failed": out["failed"],
                      "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
