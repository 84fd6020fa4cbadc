"""Deterministic RNG streams, the replicate loop, and small config and I/O helpers."""

from __future__ import annotations

import hashlib
import numbers

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
    key = tuple(int(p) for p in path)
    ss = np.random.SeedSequence(entropy=int(master_seed), spawn_key=key)
    return np.random.default_rng(ss)


def run_indexed(fn, count):
    """[fn(0), ..., fn(count - 1)], evaluated in index order."""
    return [fn(i) for i in range(int(count))]


def check_types(obj, names, reals=()):
    """ConfigError naming the first field of obj (an object, or a dict by key), in
    names order, that is not an integer (any real number for those in reals);
    booleans pass as neither."""
    for name in names:
        value = obj[name] if isinstance(obj, dict) else getattr(obj, name)
        real = name in reals
        if isinstance(value, bool) or not isinstance(value, numbers.Real if real else numbers.Integral):
            raise ConfigError(f"{name} must be {'a number' if real else 'an integer'}, got {value!r}")


def sha256_file(path):
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            h.update(chunk)
    return h.hexdigest()


def fmt_float(x):
    """Shortest decimal string that round-trips the float64 exactly."""
    return repr(float(x))
