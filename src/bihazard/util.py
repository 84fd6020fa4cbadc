"""Deterministic RNG streams, the replicate loop, and small I/O helpers."""

from __future__ import annotations

import hashlib

import numpy as np

from .errors import ConfigError

# Stream-path components, so call sites read as substream(seed, DATA, i)
# instead of bare integers.  Distinct components give independent streams.
DATA = 0
BOOTSTRAP = 1
BOOTSTRAP_SECOND = 2
PROBE = 3


def substream(master_seed, *path):
    """Independent random Generator keyed by (master_seed, path).

    Streams for distinct paths are statistically independent and do not
    depend on creation order, so replicate r draws the same bits however
    many replicates are run, and in whatever order.
    """
    if master_seed < 0:
        raise ConfigError(f"masterSeed must be a nonnegative integer, got {master_seed}")
    key = tuple(int(p) for p in path)
    ss = np.random.SeedSequence(entropy=int(master_seed), spawn_key=key)
    return np.random.default_rng(ss)


def run_indexed(fn, count):
    """[fn(0), ..., fn(count - 1)], evaluated in index order."""
    return [fn(i) for i in range(int(count))]


def sha256_file(path):
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            h.update(chunk)
    return h.hexdigest()


def fmt_float(x):
    """Shortest decimal string that round-trips the float64 exactly."""
    return repr(float(x))
