"""cli_pipeline workload: fresh `python -m bihazard.cli` processes on configs/.

One round is simulate (two seeds) -> estimate -> test (independence,
hazard-order, fgm-order) -> mc (configs/mc_clt.json) -> validate, every
command at --threads 2.  The traced variant runs the same commands
through bench/cli_entry.py, which calls bihazard.cli.main in-process.
"""

from __future__ import annotations

import json
import os
import sys
import time

from common import BENCH, ROOT, run_child

THREADS = 2
B_CLI = 199               # bootstrap.B for the three test commands (the configs say 999)


def commands(rd, seeds):
    """(metric name, bihazard arguments) for one round writing under rd."""
    def rel(p):
        return os.path.relpath(p, ROOT)

    da, db = rel(rd / "dataA" / "dataset.jsonl"), rel(rd / "dataB" / "dataset.jsonl")
    boot = ["--set", f"bootstrap.B={B_CLI}"]
    return [
        ("simulate", ["simulate", "--config", "configs/simulate.json", "--out", rel(rd / "dataA"),
                      "--set", f"masterSeed={seeds[0]}"]),
        ("simulate", ["simulate", "--config", "configs/simulate.json", "--out", rel(rd / "dataB"),
                      "--set", f"masterSeed={seeds[1]}"]),
        ("estimate", ["estimate", "--config", "configs/estimate.json", "--data", da,
                      "--out", rel(rd / "fit")]),
        ("test_independence", ["test", "--config", "configs/test_independence.json", "--data", da,
                               "--out", rel(rd / "independence"), "--set", f"masterSeed={seeds[2]}"] + boot),
        ("test_hazard_order", ["test", "--config", "configs/test_hazard_order.json", "--data", da,
                               "--data2", db, "--out", rel(rd / "hazard_order"),
                               "--set", f"masterSeed={seeds[3]}"] + boot),
        ("test_fgm_order", ["test", "--config", "configs/test_fgm_order.json", "--data", da,
                            "--data2", db, "--out", rel(rd / "fgm_order"),
                            "--set", f"masterSeed={seeds[4]}"] + boot),
        ("mc", ["mc", "--config", "configs/mc_clt.json", "--out", rel(rd / "mc")]),
        ("validate", ["validate", "--config", "configs/validate.json", "--out", rel(rd / "validate")]),
    ]


def run_command(rd, i, name, argv, traced):
    argv = argv + ["--threads", str(THREADS)]
    spans = rd / f"spans{i}.json"
    if traced:
        prog = [sys.executable, BENCH / "cli_entry.py", "--spans", spans, "--"]
    else:
        prog = [sys.executable, "-m", "bihazard.cli"]
    code, wall, rss_kb = run_child(prog + argv, rd / f"cmd{i}.log")
    snapshot = json.loads(spans.read_text()) if traced and spans.exists() else None
    return {"name": name, "rc": code, "wall_s": wall, "rss_kb": rss_kb}, snapshot


def run_rounds(run_dir, seeds, seconds, trace):
    """Whole rounds until `seconds` pass (at least one).

    With trace, each command runs twice back to back, untraced then traced,
    each in its own round directory, so a round yields one untraced and one
    traced row and the two sides of the overhead are measured close together.
    """
    modes = (False, True) if trace else (False,)
    rounds, traced_snapshots = [], []
    start = time.perf_counter()
    while not rounds or time.perf_counter() - start < seconds:
        rows = []
        for traced in modes:
            rd = run_dir / f"round{len(rounds) + len(rows)}"
            rd.mkdir(parents=True)
            rows.append((rd, {"traced": traced, "commands": []}))
        snapshots = []
        for i in range(len(commands(run_dir, seeds))):
            for rd, row in rows:
                name, argv = commands(rd, seeds)[i]
                result, snapshot = run_command(rd, i, name, argv, row["traced"])
                row["commands"].append(result)
                if snapshot is not None:
                    snapshots.append(snapshot)
        for _, row in rows:
            row["wall_s"] = sum(c["wall_s"] for c in row["commands"])
            rounds.append(row)
        if trace:
            traced_snapshots.append(snapshots)
    return rounds, traced_snapshots
