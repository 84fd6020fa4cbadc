"""Dataset serialization: JSON-lines records and the rectangle-only CSV shortcut.

JSON-lines is the lossless format.  Each line is one record, with sorted keys:

    {"censor": <region>, "point": [y1, y2], "status": "observed"}
    {"censor": <region>, "latent": [y1, y2], "status": "censored_latent"}
    {"censor": <region>, "delta": [0|1, 0|1], "min": [m1, m2], "status": "censored_opaque"}

Lines are formatted straight from the record's fields, the text of each distinct
region object encoded once; a read decodes each distinct censor value once.
The first line may instead be {"header": {...}} carrying run metadata;
readers return it separately.  Unknown keys and values of the wrong JSON
kind are errors naming the line and key path (see bihazard.decode).

The CSV shortcut covers rectangle censoring only, one subject per row with
columns y1min,y2min,delta1,delta2,tau1,tau2.  Rows with both deltas 1 read
back as observed records (the minima are then the point itself); all other
rows read back as componentwise-minima records.
"""

from __future__ import annotations

import csv
import json
import marshal

import numpy as np

from . import censoring as cen
from .decode import ANY, PAIR, Built, Schema, Tagged
from .errors import ConfigError, DataError
from .estimators import CensoredSample, record_from_fields
from .util import fmt_float

__all__ = [
    "record_to_json", "RECORD",
    "write_dataset", "read_dataset", "read_sample",
    "write_dataset_csv", "read_dataset_csv",
]

CSV_COLUMNS = ["y1min", "y2min", "delta1", "delta2", "tau1", "tau2"]


def record_to_json(rec):
    """The JSON value of the record's dataset line."""
    return json.loads(_line(rec, _region_text(rec.censor)))


def _record_schema(censor):
    """Dataset lines whose censor decodes by the spec censor."""
    def variant(status, key, **flags):
        return Built({"censor": censor, key: PAIR, **flags},
                     lambda d: record_from_fields(d["censor"], status, d[key], d.get("delta")))
    return Schema(Tagged("status", {
        "observed": variant("observed", "point"),
        "censored_latent": variant("censored_latent", "latent"),
        "censored_opaque": variant("censored_opaque", "min", delta=[{0, 1}]),
    }), DataError)


RECORD = _record_schema(cen.REGION)
_RECORD_OF_REGION = _record_schema(ANY)     # lines whose censor is already a decoded region


def write_dataset(path, records, header=None):
    """JSON lines.  Region texts are keyed by identity, as equal regions may be written differently
    (Rectangle((-0.0, 1.0)) == Rectangle((0.0, 1.0))); each entry holds its region, so ids stay unique."""
    texts = {}

    def text(region):
        if id(region) not in texts:
            texts[id(region)] = (region, _region_text(region))
        return texts[id(region)][1]
    with open(path, "w") as fh:
        if header is not None:
            fh.write(json.dumps({"header": header}, sort_keys=True) + "\n")
        fh.writelines(_line(rec, text(rec.censor)) for rec in records)


def _line(rec, censor):
    """The record as a JSON line with sorted keys, given its censor's text."""
    if rec.status == "censored_opaque":
        return (f'{{"censor": {censor}, "delta": [{rec.events[0]!r}, {rec.events[1]!r}], '
                f'"min": [{rec.minima[0]!r}, {rec.minima[1]!r}], "status": "censored_opaque"}}\n')
    key = "point" if rec.status == "observed" else "latent"
    a, b = getattr(rec, key)
    return f'{{"censor": {censor}, "{key}": [{a!r}, {b!r}], "status": "{rec.status}"}}\n'


def _region_text(region):
    """json.dumps(region_to_json(region), sort_keys=True); direct for the families drawn per subject."""
    if type(region) is cen.Rectangle:
        return f'{{"kind": "rectangle", "tau": [{region.tau[0]!r}, {region.tau[1]!r}]}}'
    if type(region) is cen.BandComplement:
        return f'{{"c": {region.c!r}, "k1": {region.k1!r}, "k2": {region.k2!r}, "kind": "band_complement"}}'
    return json.dumps(cen.region_to_json(region), sort_keys=True)


def read_dataset(path):
    """Parse a JSON-lines dataset; returns (records, header-or-None).  Lines whose censors are
    the same JSON value share one region, decoded once per call: the key, the value's marshal
    bytes, tells 1, 1.0 and true apart, and -0.0 from 0.0."""
    records, header, regions = [], None, {}
    with open(path) as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                d = json.loads(line)
            except json.JSONDecodeError as exc:
                raise DataError(f"line {lineno}: invalid JSON ({exc.msg})") from exc
            if isinstance(d, dict) and len(d) == 1 and "header" in d:
                if records or header is not None:
                    raise DataError(f"line {lineno}: header allowed only as the first line")
                header = d["header"]
                continue
            key = marshal.dumps(d.get("censor") if isinstance(d, dict) else None, 2)
            if key in regions:
                d["censor"] = regions[key]
            records.append((_RECORD_OF_REGION if key in regions else RECORD).decode(d, f"line {lineno}"))
            regions[key] = records[-1].censor
    return records, header


def read_sample(path):
    """A .csv (the CSV shortcut) or JSON-lines dataset file as a CensoredSample; data errors if
    unreadable or empty."""
    try:
        records = read_dataset_csv(path) if str(path).endswith(".csv") else read_dataset(path)[0]
    except OSError as exc:
        raise DataError(f"cannot read dataset {path}: {exc}") from exc
    return CensoredSample(records)


def write_dataset_csv(path, records):
    """Rectangle-censoring CSV shortcut.

    Every record's censor must be a rectangle (full space is written as the
    unit rectangle); latent records are reduced to minima and event flags,
    which loses nothing the estimators use.
    """
    rows = [CSV_COLUMNS]
    for i, rec in enumerate(records):
        if not isinstance(rec.censor, (cen.Rectangle, cen.FullSpace)):
            raise DataError(f"record {i}: CSV shortcut covers rectangle censoring only, "
                            f"got {type(rec.censor).__name__}")
        tau = getattr(rec.censor, "tau", (1.0, 1.0))     # full space is the unit rectangle
        if rec.status == "observed":
            m, d = rec.point, (1, 1)
        elif rec.status == "censored_opaque":
            m, d = rec.minima, rec.events
        else:
            m, d = np.minimum(rec.latent, tau), [int(y <= t) for y, t in zip(rec.latent, tau)]
        rows.append([fmt_float(m[0]), fmt_float(m[1]), str(d[0]), str(d[1]),
                     fmt_float(tau[0]), fmt_float(tau[1])])
    with open(path, "w", newline="") as fh:
        csv.writer(fh).writerows(rows)


def read_dataset_csv(path):
    """CSV shortcut to records: delta (1,1) rows become observed records."""
    records = []
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        head = next(reader, None)
        if head is None:
            raise DataError("empty CSV file")
        if [c.strip() for c in head] != CSV_COLUMNS:
            raise DataError(f"CSV header must be {','.join(CSV_COLUMNS)}")
        for lineno, row in enumerate(reader, start=2):
            if not row:
                continue
            if len(row) != 6:
                raise DataError(f"line {lineno}: expected 6 columns, got {len(row)}")
            try:
                y1, y2, t1, t2 = (float(row[0]), float(row[1]),
                                  float(row[4]), float(row[5]))
                d1, d2 = int(row[2]), int(row[3])
            except ValueError as exc:
                raise DataError(f"line {lineno}: {exc}") from exc
            if d1 not in (0, 1) or d2 not in (0, 1):
                raise DataError(f"line {lineno}: delta flags must be 0 or 1")
            status, flags = ("observed", None) if (d1, d2) == (1, 1) else ("censored_opaque", (d1, d2))
            try:
                records.append(record_from_fields(cen.Rectangle((t1, t2)), status, (y1, y2), flags))
            except (ConfigError, DataError) as exc:
                raise DataError(f"line {lineno}: {exc}") from exc
    return records
