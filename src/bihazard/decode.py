"""Strict decoding of JSON configs and dataset records against plain-data schemas.

Schema(spec, error) compiles a spec once.  Specs:
  INT, NUM, BOOL, STR     JSON integer, number, boolean, string; a boolean is never a number
  PAIR                    two numbers, decoded to a tuple of floats
  {value, ...}            one of these values, types included (True is not 1)
  [spec], [spec, ...]     a list; with two or more specs, a list of that length, as a tuple
  {key: spec}             an object; unknown keys are errors, and a key is required unless
                          given as (spec, default): OPTIONAL, or a JSON value decoded as given
  Tagged(tag, variants)   an object whose tag key picks its object spec from variants
  Built(spec, build)      build(decoded); its ConfigError or DataError is reported at the key
  Schema                  embedded; errors inside it take its error class
Messages name key paths: `bootstrap.B`, `scenarios[1].exceeds[1]`, `line 21: censor.kind`.
"""

from __future__ import annotations

import itertools
import numbers
from collections import namedtuple

from .errors import ConfigError, DataError

__all__ = ["INT", "NUM", "BOOL", "STR", "PAIR", "OPTIONAL", "Tagged", "Built", "Schema"]

INT, NUM, BOOL, STR, PAIR = "integer", "number", "boolean", "string", "pair"
OPTIONAL, _REQUIRED = object(), object()
Tagged = namedtuple("Tagged", "tag variants")
Built = namedtuple("Built", "spec build")


def is_integer(v):
    return type(v) is int or (isinstance(v, numbers.Integral) and not isinstance(v, bool))


def is_number(v):
    return type(v) in (float, int) or (isinstance(v, numbers.Real) and not isinstance(v, bool))


_SCALARS = {INT: (is_integer, "an integer"), NUM: (is_number, "a number"),
            BOOL: (lambda v: isinstance(v, bool), "a boolean"),
            STR: (lambda v: isinstance(v, str), "a string")}


class Schema:
    def __init__(self, spec, error=ConfigError):
        self._run = _compile(spec, error)

    def decode(self, obj, where=""):
        """The decoded obj; error messages start with where (a file, line or section)."""
        try:
            return self._run(obj)
        except _Invalid as exc:
            raise exc.error(exc.describe(where)) from None


class _Invalid(Exception):
    """A decoding failure; key path elements are appended innermost first."""

    def __init__(self, error, message, *path):
        self.error, self.message, self.path = error, message, list(path)

    def describe(self, where):
        keys = "".join(f"[{k}]" if type(k) is int else f".{k}" for k in reversed(self.path))
        label = ": ".join(filter(None, (where, keys.lstrip("."))))
        return f"{label}{self.message}".lstrip(": ")


def _show(v):
    r = repr(v)
    return r if len(r) <= 60 else r[:57] + "..."


def _compile(spec, error):
    """A function decoding one value of spec, raising _Invalid with the error class."""
    if spec == PAIR:
        return _pair(error)
    if isinstance(spec, str):
        return _scalar(*_SCALARS[spec], error)
    if isinstance(spec, (set, frozenset)):
        allowed = {(type(c), c) for c in spec}      # (bool, True) is not (int, 1)
        types = {type(c) for c in spec}             # a value of one of these types is hashable
        return _scalar(lambda v: type(v) in types and (type(v), v) in allowed,
                       f"one of {', '.join(sorted(map(repr, spec)))}", error)
    if isinstance(spec, list):
        return _list([_compile(s, error) for s in spec], error)
    if isinstance(spec, dict):
        return _object(spec, error)
    if isinstance(spec, Tagged):
        return _tagged(*spec, error)
    if isinstance(spec, Built):
        return _built(_compile(spec.spec, error), spec.build, error)
    if isinstance(spec, Schema):
        return spec._run
    raise TypeError(f"not a schema: {spec!r}")


def _scalar(test, noun, error):
    def run(v):
        if test(v):
            return v
        raise _Invalid(error, f" must be {noun}, got {_show(v)}")
    return run


def _pair(error):
    def run(v):
        if isinstance(v, (list, tuple)) and len(v) == 2:
            a, b = v
            if is_number(a) and is_number(b):
                return (float(a), float(b))
            bad = 1 if is_number(a) else 0
            raise _Invalid(error, f" must be a number, got {_show(v[bad])}", bad)
        raise _Invalid(error, f" must be a pair of numbers, got {_show(v)}")
    return run


def _list(decoders, error):
    """[spec] decodes a list; [spec, spec, ...] a list of that many items, as a tuple."""
    fixed = len(decoders) > 1
    noun = f"a list of {len(decoders)} items" if fixed else "a list"

    def run(v):
        if not isinstance(v, (list, tuple)) or (fixed and len(v) != len(decoders)):
            raise _Invalid(error, f" must be {noun}, got {_show(v)}")
        try:
            return tuple(d(x) for d, x in zip(decoders, v)) if fixed else list(map(decoders[0], v))
        except _Invalid as exc:
            # decoders are pure: decode again, item by item, to find the failing index
            for i, (d, x) in enumerate(zip(decoders if fixed else itertools.repeat(decoders[0]), v)):
                try:
                    d(x)
                except _Invalid:
                    exc.path.append(i)
                    break
            raise
    return run


def _object(fields, error, tag=None):
    """An object of fields, and the tag key copied as is."""
    entries = []
    for key, field in fields.items():
        # (spec, default) entries are plain tuples; Tagged and Built are tuple types
        spec, default = field if type(field) is tuple else (field, _REQUIRED)
        decoder = _compile(spec, error)
        if default is not _REQUIRED and default is not OPTIONAL:
            default = decoder(default)
        entries.append((key, decoder, default))
    allowed = frozenset(fields) | ({tag} if tag else set())

    def run(v):
        if not isinstance(v, dict):
            raise _Invalid(error, f" must be an object, got {_show(v)}")
        if not allowed.issuperset(v):
            raise _Invalid(error, " is not a known key", next(k for k in v if k not in allowed))
        out = {tag: v[tag]} if tag else {}
        for key, decoder, default in entries:
            if key in v:
                try:
                    out[key] = decoder(v[key])
                except _Invalid as exc:
                    exc.path.append(key)
                    raise
            elif default is _REQUIRED:
                raise _Invalid(error, " is required", key)
            elif default is not OPTIONAL:
                out[key] = default
        return out
    return run


def _tagged(tag, variants, error):
    runs = {value: (_built(_object(spec.spec, error, tag), spec.build, error)
                    if isinstance(spec, Built) else _object(spec, error, tag))
            for value, spec in variants.items()}
    listed = ", ".join(sorted(map(repr, variants)))

    def run(v):
        if not isinstance(v, dict):
            raise _Invalid(error, f" must be an object, got {_show(v)}")
        if tag not in v:
            raise _Invalid(error, " is required", tag)
        variant = runs.get(v[tag]) if isinstance(v[tag], str) else None
        if variant is None:
            raise _Invalid(error, f" must be one of {listed}, got {_show(v[tag])}", tag)
        return variant(v)
    return run


def _built(decode, build, error):
    def run(v):
        value = decode(v)
        try:
            return build(value)
        except (ConfigError, DataError) as exc:
            raise _Invalid(error, f": {exc}") from None
    return run
