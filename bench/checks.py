"""Correctness checks of each workload's outputs against the oracle.

Every check function returns a list of failure messages (empty when all
hold).  Statistics compare within 1e-12 relative; the denominator is the
larger of the two values and the statistic's scale factor (sqrt(n) or
sqrt(nm/(n+m))), so a statistic near zero is not held to a tighter
absolute bound than one near its scale.  Integer at-risk counts and jump
masses 1/Z compare exactly.
"""

from __future__ import annotations

import hashlib
import json
import math

import numpy as np

import oracle as orc

RTOL = 1e-12


def load_jsonl(path):
    """(records, header) from a JSON-lines dataset, parsed with the json module alone."""
    records, header = [], None
    with open(path) as fh:
        for line in fh:
            if line.strip():
                d = json.loads(line)
                if set(d) == {"header"}:
                    header = d["header"]
                else:
                    records.append(d)
    return records, header


def sha256(path):
    return hashlib.sha256(path.read_bytes()).hexdigest()


class Failures(list):
    def check(self, ok, message):
        if not ok:
            self.append(message)
        return ok


def calibration(fail, where, rep, reps, finite_except=0):
    """p = (1 + #{replicate >= statistic})/(B+1), reject iff p <= alpha, B finite replicates."""
    reps = np.asarray(reps, dtype=float)
    b = rep["replicates"]
    fail.check(len(reps) == b, f"{where}: {len(reps)} replicates returned, report says {b}")
    p = (1 + np.count_nonzero(reps >= rep["statistic"])) / (b + 1)
    fail.check(p == rep["pValue"], f"{where}: p-value {rep['pValue']} != (1 + #ge)/(B+1) = {p}")
    fail.check(rep["reject"] == (rep["pValue"] <= rep["alpha"]),
               f"{where}: reject={rep['reject']} but p={rep['pValue']} alpha={rep['alpha']}")
    bad = int(np.count_nonzero(~np.isfinite(reps)))
    empty = int(np.count_nonzero(np.isneginf(reps)))
    fail.check(bad == empty == finite_except,
               f"{where}: {bad} non-finite replicates ({empty} empty), expected {finite_except} empty")


def close(fail, where, got, want, scale):
    fail.check(orc.rel_close(got, want, RTOL, scale), f"{where}: {got!r} != oracle {want!r}")


# ---------------------------------------------------------------------------
# bootstrap_rect
# ---------------------------------------------------------------------------

def _replicate_indices(seed, path, n):
    return orc.substream(seed, *path).integers(0, n, size=n)


def check_bootstrap(out, result):
    fail = Failures()
    s1 = orc.Records(load_jsonl(out / "sample1.jsonl")[0])
    s2 = orc.Records(load_jsonl(out / "sample2.jsonl")[0])
    info = result["inputs"]
    seed, m = info["bootSeed"], info["gridSize"]
    t = tuple(info["fgmTau"])
    first = result["rounds"][0]["ops"]
    for k, row in enumerate(result["rounds"]):
        fail.check(not row["failed"], f"round {k}: failed operations {row['failed']}")
        for name, op in row["ops"].items():
            if "report" not in op:
                continue
            where = f"round {k} {name}"
            rep = op["report"]
            empty = rep["diagnostics"].get("emptyReplicates", 0) if name == "fgm_order_km" else 0
            calibration(fail, where, rep, op["replicates"], empty)
            fail.check(rep["replicates"] == info["B"], f"{where}: B={rep['replicates']}")
            fail.check(op["report"] == first[name]["report"] and op["replicates"] == first[name]["replicates"],
                       f"{where}: differs from round 0 on the same inputs and seed")
    if fail or set(first) != {"independence", "hazard_order", "fgm_order", "fgm_order_km"}:
        return fail + ([] if fail else ["missing operations in round 0"])

    n, nm = s1.n, s2.n
    last = info["B"] - 1

    # independence
    rep = first["independence"]["report"]
    tau = orc.auto_tau([s1])
    fail.check(list(tau) == rep["diagnostics"]["tau"], f"independence: tau {rep['diagnostics']['tau']} != {tau}")
    xs, ys = np.linspace(0.0, tau[0], m), np.linspace(0.0, tau[1], m)
    base = orc.independence_diff(s1, xs, ys)
    root_n = math.sqrt(n)
    close(fail, "independence statistic", rep["statistic"], root_n * float(np.max(np.abs(base))), root_n)
    for r in (0, last):
        rs = s1.take(_replicate_indices(seed, (orc.BOOTSTRAP, r), n))
        want = root_n * float(np.max(np.abs(orc.independence_diff(rs, xs, ys) - base)))
        close(fail, f"independence replicate {r}", first["independence"]["replicates"][r], want, root_n)

    # hazard order, grid mode, one-sided
    scale = math.sqrt(n * nm / (n + nm))
    pooled = s1.concat(s2)
    rep = first["hazard_order"]["report"]
    tau = orc.auto_tau([s1, s2])
    fail.check(list(tau) == rep["diagnostics"]["tau"], f"hazard_order: tau {rep['diagnostics']['tau']} != {tau}")
    xs, ys = np.linspace(0.0, tau[0], m), np.linspace(0.0, tau[1], m)

    def order_stat(f, g):
        return scale * float(np.max(orc.hazard_surface(f, xs, ys) - orc.hazard_surface(g, xs, ys)))

    close(fail, "hazard_order statistic", rep["statistic"], order_stat(s1, s2), scale)
    for r in (0, last):
        idx = _replicate_indices(seed, (orc.BOOTSTRAP, r), n + nm)
        close(fail, f"hazard_order replicate {r}", first["hazard_order"]["replicates"][r],
              order_stat(pooled.take(idx[:n]), pooled.take(idx[n:])), scale)

    # fgm order, known marginals: fixed region A = [0, tau] cut to the order region
    def in_a(p):
        return (p[:, 0] <= t[0]) & (p[:, 1] <= t[1]) & orc.fgm_order_region(p[:, 0], p[:, 1])

    def fgm_stat(a, b):
        return scale * (orc.region_hazard(b, in_a) - orc.region_hazard(a, in_a))

    close(fail, "fgm_order statistic", first["fgm_order"]["report"]["statistic"], fgm_stat(s1, s2), scale)
    for r in (0, last):
        idx = _replicate_indices(seed, (orc.BOOTSTRAP, r), n + nm)
        close(fail, f"fgm_order replicate {r}", first["fgm_order"]["replicates"][r],
              fgm_stat(pooled.take(idx[:n]), pooled.take(idx[n:])), scale)

    # fgm order, Kaplan-Meier marginals on the quantile-corner lattice
    rep = first["fgm_order_km"]["report"]
    ps = np.linspace(0.0, t[0], m + 1)[1:]
    qs = np.linspace(0.0, t[1], m + 1)[1:]
    in_region = orc.fgm_order_region(ps[:, None], qs[None, :])
    v1, x1, y1 = orc.corner_surface(s1, ps, qs)
    v2, x2, y2 = orc.corner_surface(s2, ps, qs)
    usable = in_region & (x1 & x2)[:, None] & (y1 & y2)[None, :]
    fail.check(rep["diagnostics"]["usableNodes"] == int(np.count_nonzero(usable)),
               f"fgm_order_km: usableNodes {rep['diagnostics']['usableNodes']}")
    close(fail, "fgm_order_km statistic", rep["statistic"], scale * float(np.max((v2 - v1)[usable])), scale)
    for r in (0, last):
        w1, a1, b1 = orc.corner_surface(s1.take(_replicate_indices(seed, (orc.BOOTSTRAP, r), n)), ps, qs)
        w2, a2, b2 = orc.corner_surface(s2.take(_replicate_indices(seed, (orc.BOOTSTRAP_SECOND, r), nm)), ps, qs)
        ok = usable & (a1 & a2)[:, None] & (b1 & b2)[None, :]
        want = scale * float(np.max(((w2 - v2) - (w1 - v1))[ok])) if np.any(ok) else -math.inf
        got = first["fgm_order_km"]["replicates"][r]
        fail.check(got == want or orc.rel_close(got, want, RTOL, scale),
                   f"fgm_order_km replicate {r}: {got!r} != oracle {want!r}")
    return fail


# ---------------------------------------------------------------------------
# general_n10k
# ---------------------------------------------------------------------------

def check_fit(fail, where, recs, arrays, xs, ys):
    """Jump masses, at-risk counts, surface and marginals of one fit against the oracle."""
    ev, _, masses = orc.jump_masses(recs)
    fail.check(np.array_equal(ev, arrays["jump_points"]), f"{where}: event points differ")
    fail.check(np.array_equal(masses, arrays["masses"]), f"{where}: jump masses differ from 1/Z")
    q = arrays["queries"]
    fail.check(len(q) >= 200 and np.array_equal(orc.at_risk(recs, q), arrays["query_at_risk"]),
               f"{where}: at-risk counts at {len(q)} sampled points differ")
    surf = arrays["surface"]
    want = orc.surface(ev, masses, xs, ys)
    fail.check(np.allclose(surf, want, rtol=RTOL, atol=0.0), f"{where}: surface differs from the mass sums, "
               f"max abs diff {float(np.max(np.abs(surf - want)))}")
    fail.check(bool(np.all(np.diff(surf, axis=0) >= 0) and np.all(np.diff(surf, axis=1) >= 0)),
               f"{where}: surface decreases along an axis")
    for axis in (0, 1):
        mo = orc.Marginal(recs, axis)
        key = f"m{axis}_"
        same = (np.array_equal(mo.values, arrays[key + "values"]) and np.array_equal(mo.counts, arrays[key + "counts"])
                and np.array_equal(mo.at_risk, arrays[key + "at_risk"]))
        fail.check(same, f"{where}: axis-{axis} marginal values, counts or at-risk differ")
        if same:
            fail.check(np.array_equal(mo.jumps, arrays[key + "jumps"]), f"{where}: axis-{axis} jumps differ")
            fail.check(np.allclose(mo.kaplan_meier(), arrays[f"km{axis}"], rtol=RTOL, atol=0.0),
                       f"{where}: axis-{axis} Kaplan-Meier differs")


def check_general(out, result):
    fail = Failures()
    first = result["rounds"][0]["ops"]
    n, m = result["inputs"]["n"], result["inputs"]["gridSize"]
    for k, row in enumerate(result["rounds"]):
        fail.check(not row["failed"], f"round {k}: failed operations {row['failed']}")
        for fam, op in row["ops"].items():
            fail.check(op.get("roundTrip") is True, f"round {k} {fam}: read_dataset did not return the written records")
            fail.check(op.get("arraysDigest") == first[fam].get("arraysDigest")
                       and op.get("fileDigest") == first[fam].get("fileDigest"),
                       f"round {k} {fam}: outputs differ from round 0 on the same inputs")
    if fail:
        return fail
    grid = np.linspace(0.0, 1.0, m)
    for fam, op in first.items():
        records, header = load_jsonl(out / f"{fam}.jsonl")
        fail.check(op["fileDigest"] == sha256(out / f"{fam}.jsonl"), f"{fam}: dataset file changed")
        fail.check(len(records) == n == header["n"], f"{fam}: dataset holds {len(records)} records, not {n}")
        with np.load(out / f"{fam}.npz") as z:
            arrays = dict(z)
        check_fit(fail, fam, orc.Records(records), arrays, grid, grid)
    return fail


# ---------------------------------------------------------------------------
# cli_pipeline
# ---------------------------------------------------------------------------

OUT_DIRS = ("dataA", "dataB", "fit", "independence", "hazard_order", "fgm_order", "mc", "validate")


def _files(d):
    return {p.name: sha256(p) for p in d.iterdir() if p.name != "manifest.json"}


def _manifest(fail, root, out):
    """Every digest in manifest.json equals the sha256 of the file it names."""
    man = json.loads((out / "manifest.json").read_text())
    outputs = {p.name for p in out.iterdir() if p.name != "manifest.json"}
    fail.check(set(man["outputs"]) == outputs, f"{out.name}: manifest lists {sorted(man['outputs'])}")
    for name, digest in man["outputs"].items():
        fail.check(digest == sha256(out / name), f"{out.name}: digest of {name} does not match")
    for path, digest in man["inputs"].items():
        fail.check(digest == sha256(root / path), f"{out.name}: digest of input {path} does not match")


def _csv(path):
    """Rows of a CSV output below its header line, as floats."""
    lines = path.read_text().strip().splitlines()
    return np.array([[float(v) for v in ln.split(",")] for ln in lines[1:]])


def check_cli(root, run_dir, rounds, seeds, b_cli):
    fail = Failures()
    for k, row in enumerate(rounds):
        rd = run_dir / f"round{k}"
        for c in row["commands"]:
            fail.check(c["rc"] == 0, f"round {k} {c['name']}: exit {c['rc']}")
        if fail:
            return fail
        for name in OUT_DIRS:
            _manifest(fail, root, rd / name)
        if k:
            for name in OUT_DIRS:
                fail.check(_files(rd / name) == _files(run_dir / "round0" / name),
                           f"round {k} {name}: outputs differ from round 0")
    rd = run_dir / "round0"
    cfg = {name: json.loads((root / "configs" / f"{name}.json").read_text())
           for name in ("simulate", "estimate", "test_independence", "test_hazard_order",
                        "test_fgm_order", "validate")}

    samples = {}
    for d in ("dataA", "dataB"):
        records, header = load_jsonl(rd / d / "dataset.jsonl")
        n = cfg["simulate"]["n"]
        fail.check(len(records) == n == header["n"], f"{d}: {len(records)} records, config n={n}")
        samples[d] = orc.Records(records)
    a, b = samples["dataA"], samples["dataB"]

    # estimate: jumps exactly, surface within RTOL, marginal at-risk counts exactly
    g = cfg["estimate"]["grid"]
    xs, ys = np.linspace(0.0, g["tau"][0], g["size"]), np.linspace(0.0, g["tau"][1], g["size"])
    ev, _, masses = orc.jump_masses(a)
    jumps = _csv(rd / "fit" / "jumps.csv")
    fail.check(np.array_equal(jumps[:, :2], ev) and np.array_equal(jumps[:, 2], masses),
               "estimate: jumps.csv differs from the oracle's events and 1/Z")
    surf = _csv(rd / "fit" / "surface.csv")
    fail.check(np.array_equal(surf[:, 0], np.repeat(xs, len(ys))) and np.array_equal(surf[:, 1], np.tile(ys, len(xs))),
               "estimate: surface.csv nodes are not the configured grid")
    fail.check(np.allclose(surf[:, 2].reshape(len(xs), len(ys)), orc.surface(ev, masses, xs, ys), rtol=RTOL, atol=0.0),
               "estimate: surface differs from the oracle's mass sums")
    for axis in (0, 1):
        marg = _csv(rd / "fit" / f"marginal{axis + 1}.csv")
        mo = orc.Marginal(a, axis)
        fail.check(np.array_equal(marg[:, 0], mo.values) and np.array_equal(marg[:, 1], mo.counts)
                   and np.array_equal(marg[:, 2], mo.at_risk),
                   f"estimate: marginal{axis + 1}.csv values, counts or at-risk differ from the oracle")

    # tests: calibration, oracle statistics, and equality with an in-process workers=1 run
    reports = {name: json.loads((rd / name / "test_report.json").read_text())
               for name in ("independence", "hazard_order", "fgm_order")}
    for name, rep in reports.items():
        fail.check(rep["reject"] == (rep["pValue"] <= rep["alpha"]),
                   f"{name}: reject={rep['reject']} but p={rep['pValue']} alpha={rep['alpha']}")
        fail.check(rep["replicates"] == b_cli, f"{name}: B={rep['replicates']}, expected {b_cli}")
    dump = _csv(rd / "independence" / "replicates.csv")
    calibration(fail, "independence (replicates.csv)", reports["independence"], dump[:, 1])

    root_n = math.sqrt(a.n)
    scale = math.sqrt(a.n * b.n / (a.n + b.n))
    tau = orc.auto_tau([a])
    m = cfg["test_independence"]["bootstrap"]["gridSize"]
    close(fail, "independence statistic", reports["independence"]["statistic"],
          orc.independence_statistic(a, np.linspace(0.0, tau[0], m), np.linspace(0.0, tau[1], m)), root_n)
    region = cfg["test_hazard_order"]["region"]

    def in_region(p):
        return orc.region_contains(region, p)

    close(fail, "hazard_order statistic", reports["hazard_order"]["statistic"],
          scale * (orc.region_hazard(a, in_region) - orc.region_hazard(b, in_region)), scale)
    t = cfg["test_fgm_order"]["tau"]

    def in_a(p):
        return (p[:, 0] <= t[0]) & (p[:, 1] <= t[1]) & orc.fgm_order_region(p[:, 0], p[:, 1])

    close(fail, "fgm_order statistic", reports["fgm_order"]["statistic"],
          scale * (orc.region_hazard(b, in_a) - orc.region_hazard(a, in_a)), scale)
    _same_as_one_worker(fail, rd, cfg, seeds, b_cli, reports, dump[:, 1])

    mc = json.loads((rd / "mc" / "mc_report.json").read_text())
    fail.check(mc["passed"] is True, f"mc: passed={mc['passed']}")

    val = json.loads((rd / "validate" / "validation.json").read_text())
    fail.check(val["passed"] is True, f"validate: passed={val['passed']}")
    vc = cfg["validate"]
    corner = vc["grid"]["tau"]
    want = orc.fgm_hazard_integral(vc["model"]["theta"], corner)
    got = val["model"]["hazardIntegral"]
    fail.check(abs(got - want) <= 1e-5 * abs(want), f"validate: hazardIntegral {got} != oracle {want}")
    return fail


def _same_as_one_worker(fail, rd, cfg, seeds, b_cli, reports, dumped):
    """Each --threads statistic equals an in-process workers=1 call on the same data and seed."""
    from bihazard import (BootstrapSpec, PredicateRegion, contains, fgm_order_test,
                          hazard_order_test, independence_test, read_sample, region_from_json)

    def spec(name, seed):
        bs = cfg[name]["bootstrap"]
        return BootstrapSpec(replicates=b_cli, alpha=bs.get("alpha", 0.05), seed=seed,
                             grid_size=bs.get("gridSize", 64), sided=bs.get("sided", "one-sided"), workers=1)

    a = read_sample(str(rd / "dataA" / "dataset.jsonl"))
    b = read_sample(str(rd / "dataB" / "dataset.jsonl"))
    shape = region_from_json(cfg["test_hazard_order"]["region"])
    fc = cfg["test_fgm_order"]
    mine = {
        "independence": independence_test(a, spec("test_independence", seeds[2])),
        "hazard_order": hazard_order_test(a, b, spec("test_hazard_order", seeds[3]),
                                          region=PredicateRegion(lambda p: contains(shape, p))),
        "fgm_order": fgm_order_test(a, b, fc["tau"], spec("test_fgm_order", seeds[4]), fc["marginalsEqual"]),
    }
    for name, rep in mine.items():
        got = reports[name]
        fail.check((got["statistic"], got["pValue"], got["criticalValue"], got["reject"])
                   == (rep.statistic, rep.p_value, rep.critical_value, rep.reject),
                   f"{name}: --threads report differs from the workers=1 call")
    fail.check(np.array_equal(dumped, mine["independence"].replicate_statistics),
               "independence: replicates.csv differs from the workers=1 replicates")
