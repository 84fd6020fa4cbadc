"""Paths, child processes and small statistics shared by the benchmark scripts."""

from __future__ import annotations

import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
RESULTS = BENCH / "results"
TRACES = BENCH / "traces"

WORKLOADS = ("cli_pipeline", "bootstrap_rect", "general_n10k")
SETUP_PROBES = 3          # fresh interpreters timed for setup_s, the worker's own included


def child_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def run_child(argv, log_path):
    """Run argv from the repository root with stdout/stderr to log_path.

    Returns (exit code, wall seconds, peak resident set in KiB).  The peak
    comes from wait4, so it is this child's own, not a running maximum.
    """
    with open(log_path, "wb") as log:
        t0 = time.perf_counter()
        proc = subprocess.Popen([str(a) for a in argv], cwd=ROOT, env=child_env(),
                                stdout=log, stderr=subprocess.STDOUT)
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        wall = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, wall, usage.ru_maxrss


def probe_setup(workload, seed, log_path):
    """Seconds from spawning a fresh interpreter to the end of the workload's set-up."""
    t0 = time.monotonic()
    code, _, _ = run_child([sys.executable, BENCH / "worker.py", "--probe", "--workload", workload,
                            "--seed", seed, "--out", log_path.parent], log_path)
    if code != 0:
        raise RuntimeError(f"set-up probe exited with {code}; see {log_path}")
    ready = json.loads(log_path.read_text().strip().splitlines()[-1])["ready"]
    return ready - t0


def derive_seeds(seed, k):
    """k master seeds for the program, all fixed by the benchmark seed."""
    return [int(x) for x in np.random.SeedSequence(int(seed) % 2 ** 64).generate_state(k)]


def median(values):
    return float(statistics.median(values))
