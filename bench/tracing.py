"""In-memory span tracer installed around bihazard's public functions.

The tracer wraps functions from outside the program: a module-level
function is replaced in every loaded bihazard module that holds it (the
package imports names with `from .x import f`), and a method is replaced
on its class.  Each call records a span (id, parent id, name, start,
end, thread); spans stay in memory until `dump`.  Some targets only
count calls, because they run once per record and a span would cost
more than the work.

A span's self time is its duration minus the part of its interval that
its child spans cover.  Calls made by `util.run_indexed` on pool threads
get the run_indexed span as parent, so the union of their intervals is
what the pool's self time excludes.
"""

from __future__ import annotations

import functools
import importlib
import itertools
import os
import sys
import threading
import time
import tracemalloc
from collections import Counter, defaultdict

# (module, attribute path, span name); a dotted attribute path names a method
SPANS = [
    ("bihazard.cli", "main", "cli.main"),
    ("bihazard.cli", "cmd_simulate", "cli.cmd_simulate"),
    ("bihazard.cli", "cmd_estimate", "cli.cmd_estimate"),
    ("bihazard.cli", "cmd_test", "cli.cmd_test"),
    ("bihazard.cli", "cmd_mc", "cli.cmd_mc"),
    ("bihazard.cli", "cmd_validate", "cli.cmd_validate"),
    ("bihazard.io", "write_dataset", "io.write_dataset"),
    ("bihazard.io", "read_dataset", "io.read_dataset"),
    ("bihazard.estimators", "simulate_sample", "estimators.simulate_sample"),
    ("bihazard.estimators", "CensoredSample.__init__", "estimators.sample_init"),
    ("bihazard.estimators", "CensoredSample.take", "estimators.take"),
    ("bihazard.estimators", "at_risk", "estimators.at_risk"),
    ("bihazard.estimators", "jump_masses", "estimators.jump_masses"),
    ("bihazard.estimators", "nelson_aalen", "estimators.nelson_aalen"),
    ("bihazard.estimators", "nelson_aalen_surface", "estimators.nelson_aalen_surface"),
    ("bihazard.estimators", "surface_values", "estimators.surface_values"),
    ("bihazard.estimators", "marginal_nelson_aalen", "estimators.marginal_nelson_aalen"),
    ("bihazard.estimators", "kaplan_meier", "estimators.kaplan_meier"),
    ("bihazard.estimators", "asymptotic_cov", "estimators.asymptotic_cov"),
    ("bihazard.censoring", "CensoringModel.sample_regions", "censoring.sample_regions"),
    ("bihazard.censoring", "validate_censoring", "censoring.validate_censoring"),
    ("bihazard.dominance", "dominating_count", "dominance.dominating_count"),
    ("bihazard.inference", "bootstrap_resample", "inference.bootstrap_resample"),
    ("bihazard.inference", "independence_test", "inference.independence_test"),
    ("bihazard.inference", "hazard_order_test", "inference.hazard_order_test"),
    ("bihazard.inference", "fgm_order_test", "inference.fgm_order_test"),
    ("bihazard.util", "run_indexed", "util.run_indexed"),
    ("bihazard.mc", "verify_clt", "mc.verify_clt"),
    ("bihazard.models", "FgmModel.sample", "models.sample"),
    ("bihazard.models", "integrated_hazard", "models.integrated_hazard"),
    ("bihazard.quadrature", "integrate_region", "quadrature.integrate_region"),
]

# call counters without spans: (module, attribute path, counter name)
COUNTERS = [
    ("bihazard.censoring", "contains", "censoring.contains_calls"),
    ("bihazard.estimators", "SubjectRecord.__post_init__", "estimators.records_built"),
]

# where each test takes its BootstrapSpec
SPEC_POSITION = {"inference.independence_test": 1, "inference.hazard_order_test": 2,
                 "inference.fgm_order_test": 3}

MEMORY_SAMPLES = 2   # marginal calls whose tracemalloc peak is taken, per process

# per-layer metric -> spans whose self time it sums
SELF_TIME = {
    "io.write_dataset_s": ["io.write_dataset"],
    "io.read_dataset_s": ["io.read_dataset"],
    "estimators.simulate_sample_s": ["estimators.simulate_sample"],
    "censoring.sample_regions_s": ["censoring.sample_regions"],
    "models.sample_s": ["models.sample"],
    "estimators.sample_init_s": ["estimators.sample_init"],
    "estimators.take_s": ["estimators.take"],
    "inference.bootstrap_resample_s": ["inference.bootstrap_resample"],
    "dominance.dominating_count_s": ["dominance.dominating_count"],
    "estimators.jump_masses_s": ["estimators.jump_masses"],
    "estimators.surface_s": ["estimators.nelson_aalen_surface", "estimators.surface_values",
                             "estimators.nelson_aalen"],
    "estimators.marginal_s": ["estimators.marginal_nelson_aalen"],
    "estimators.kaplan_meier_s": ["estimators.kaplan_meier"],
    "inference.independence_test_s": ["inference.independence_test"],
    "inference.hazard_order_test_s": ["inference.hazard_order_test"],
    "inference.fgm_order_test_s": ["inference.fgm_order_test"],
    "util.run_indexed_s": ["util.run_indexed"],
    "mc.verify_clt_s": ["mc.verify_clt"],
    "estimators.asymptotic_cov_s": ["estimators.asymptotic_cov"],
    "models.integrated_hazard_s": ["models.integrated_hazard"],
    "quadrature.integrate_region_s": ["quadrature.integrate_region"],
}

# per-layer metric -> span whose calls it counts
CALLS = {
    "estimators.take_calls": "estimators.take",
    "dominance.dominating_count_calls": "dominance.dominating_count",
    "estimators.jump_masses_calls": "estimators.jump_masses",
    "estimators.marginal_calls": "estimators.marginal_nelson_aalen",
    "quadrature.integrate_region_calls": "quadrature.integrate_region",
}

# per-layer metrics read straight from the counters
COUNTED = ["io.dataset_bytes", "estimators.records_built", "censoring.contains_calls",
           "dominance.queries", "inference.replicates", "util.workers", "mc.replicates"]
MAXED = {"util.workers", "estimators.marginal_peak_bytes"}


def _arg(args, kwargs, pos, name):
    return kwargs[name] if name in kwargs else args[pos]


def _count_after(name, args, kwargs, counts):
    """Counters fed by a span's arguments."""
    if name == "io.write_dataset":
        counts["io.dataset_bytes"] += os.path.getsize(_arg(args, kwargs, 0, "path"))
    elif name == "estimators.simulate_sample":
        counts["estimators.records_simulated"] += int(_arg(args, kwargs, 2, "n"))
    elif name == "dominance.dominating_count":
        counts["dominance.queries"] += len(_arg(args, kwargs, 1, "queries"))
    elif name in SPEC_POSITION:
        counts["inference.replicates"] += _arg(args, kwargs, SPEC_POSITION[name], "spec").replicates
    elif name == "mc.verify_clt":
        counts["mc.replicates"] += _arg(args, kwargs, 0, "cfg").replicates


class Tracer:
    def __init__(self):
        self.spans = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._thread_counts = []
        self._lock = threading.Lock()
        self._patches = []
        self.peak_marginal_bytes = 0
        self.max_workers = 0
        self._memory_left = MEMORY_SAMPLES
        self._memory_busy = False

    # -- per-thread state ---------------------------------------------------

    def _stack(self):
        st = getattr(self._local, "stack", None)
        if st is None:
            st = self._local.stack = []
        return st

    def _counts(self):
        c = getattr(self._local, "counts", None)
        if c is None:
            c = self._local.counts = Counter()
            with self._lock:
                self._thread_counts.append(c)
        return c

    def counts(self):
        total = Counter()
        with self._lock:
            for c in self._thread_counts:
                total.update(c)
        return total

    def add_span(self, name, t0, t1, parent=0):
        self.spans.append((next(self._ids), parent, name, t0, t1, threading.get_ident()))

    def reset(self):
        self.spans = []
        self.max_workers = 0
        with self._lock:
            for c in self._thread_counts:
                c.clear()

    # -- wrappers ----------------------------------------------------------

    def _span_wrapper(self, name, fn):
        tracer = self
        memory = name == "estimators.marginal_nelson_aalen"
        pool = name == "util.run_indexed"

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = tracer._stack()
            sid = next(tracer._ids)
            parent = stack[-1] if stack else 0
            if pool:
                args, kwargs = tracer._bind_pool(sid, args, kwargs)
            stack.append(sid)
            t0 = time.perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = time.perf_counter_ns()
                stack.pop()
                tracer.spans.append((sid, parent, name, t0, t1, threading.get_ident()))
                _count_after(name, args, kwargs, tracer._counts())
            if memory and tracer._take_memory_sample():
                tracer._sample_memory(fn, args, kwargs)
            return result

        return wrapper

    def _take_memory_sample(self):
        """Claim one of the memory samples unless another thread holds tracemalloc."""
        with self._lock:
            if self._memory_left <= 0 or self._memory_busy:
                return False
            self._memory_left -= 1
            self._memory_busy = True
        return True

    def _sample_memory(self, fn, args, kwargs):
        """Peak traced allocation of a second, untimed call (the function is pure)."""
        tracemalloc.start()
        try:
            fn(*args, **kwargs)
            self.peak_marginal_bytes = max(self.peak_marginal_bytes, tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
            self._memory_busy = False

    def _bind_pool(self, sid, args, kwargs):
        """run_indexed(fn, count, workers): pool threads start under span sid."""
        fn = args[0]
        workers = args[2] if len(args) > 2 else kwargs.get("workers", 1)
        self.max_workers = max(self.max_workers, int(workers or 1))
        tracer = self

        def bound(i):
            stack = tracer._stack()
            if stack:
                return fn(i)
            stack.append(sid)
            try:
                return fn(i)
            finally:
                stack.pop()

        return (bound,) + tuple(args[1:]), kwargs

    def _count_wrapper(self, name, fn):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            tracer._counts()[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    # -- installation --------------------------------------------------------

    def install(self):
        for module, path, name in SPANS:
            self._patch(module, path, self._span_wrapper(name, _resolve(module, path)))
        for module, path, name in COUNTERS:
            self._patch(module, path, self._count_wrapper(name, _resolve(module, path)))

    def uninstall(self):
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches = []

    def _patch(self, module, path, wrapper):
        original = _resolve(module, path)
        if "." in path:
            cls_name, attr = path.split(".")
            owner = getattr(importlib.import_module(module), cls_name)
            self._patches.append((owner, attr, original))
            setattr(owner, attr, wrapper)
            return
        for mod_name, mod in list(sys.modules.items()):
            if mod_name == "bihazard" or mod_name.startswith("bihazard."):
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        self._patches.append((mod, attr, original))
                        setattr(mod, attr, wrapper)

    # -- output ----------------------------------------------------------------

    def snapshot(self):
        """Spans and counters recorded since the last reset, as plain data."""
        counts = dict(self.counts())
        counts["util.workers"] = self.max_workers
        counts["estimators.marginal_peak_bytes"] = self.peak_marginal_bytes
        return {"spans": [list(s) for s in self.spans], "counts": counts}


def _resolve(module, path):
    obj = importlib.import_module(module)
    for part in path.split("."):
        obj = vars(obj)[part] if isinstance(obj, type) else getattr(obj, part)
    return obj


def _covered(intervals, lo, hi):
    """Length of the union of intervals, clipped to [lo, hi]."""
    total, end = 0, lo
    for a, b in sorted(intervals):
        a, b = max(a, end), min(b, hi)
        if b > a:
            total += b - a
            end = b
    return total


def summarize(spans):
    """Per span name: calls, total and self seconds."""
    children = defaultdict(list)
    for sid, parent, _, t0, t1, _ in spans:
        if parent:
            children[parent].append((t0, t1))
    out = {}
    for sid, _, name, t0, t1, _ in spans:
        row = out.setdefault(name, {"calls": 0, "total_s": 0.0, "self_s": 0.0})
        row["calls"] += 1
        row["total_s"] += (t1 - t0) / 1e9
        row["self_s"] += (t1 - t0 - _covered(children.get(sid, ()), t0, t1)) / 1e9
    return out


def combine(snapshots):
    """Span table and counters summed over snapshots (one per process or round)."""
    rows, counts = {}, Counter()
    for snap in snapshots:
        for name, row in summarize(snap["spans"]).items():
            acc = rows.setdefault(name, {"calls": 0, "total_s": 0.0, "self_s": 0.0})
            for k in acc:
                acc[k] += row[k]
        for k, v in snap["counts"].items():
            counts[k] = max(counts[k], v) if k in MAXED else counts[k] + v
    return rows, counts


def layer_metrics(rows, counts, rounds):
    """Per-layer metrics per round from a combined span table."""
    out = {}
    for metric, names in SELF_TIME.items():
        out[metric] = sum(rows[n]["self_s"] for n in names if n in rows) / rounds
    for metric, name in CALLS.items():
        out[metric] = rows[name]["calls"] / rounds if name in rows else 0
    for name in COUNTED:
        out[name] = counts[name] if name in MAXED else counts[name] / rounds
    simulated = counts["estimators.records_simulated"]
    out["censoring.contains_per_record"] = counts["censoring.contains_calls"] / simulated if simulated else 0.0
    out["estimators.marginal_peak_mb"] = counts["estimators.marginal_peak_bytes"] / 2 ** 20
    return out
