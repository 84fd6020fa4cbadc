"""Dataset serialization: JSON-lines records and the rectangle-only CSV shortcut.

JSON-lines is the lossless format.  Each line is one record:

    {"censor": <region>, "status": "observed",        "point":  [y1, y2]}
    {"censor": <region>, "status": "censored_latent", "latent": [y1, y2]}
    {"censor": <region>, "status": "censored_opaque", "min":    [m1, m2],
                                                      "delta":  [0|1, 0|1]}

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

import numpy as np

from . import censoring as cen
from .decode import PAIR, Built, Schema, Tagged
from .errors import DataError
from .estimators import CensoredSample, SubjectRecord
from .util import fmt_float

__all__ = [
    "record_to_json", "record_from_json",
    "write_dataset", "read_dataset", "read_sample",
    "write_dataset_csv", "read_dataset_csv",
]

CSV_COLUMNS = ["y1min", "y2min", "delta1", "delta2", "tau1", "tau2"]


def record_to_json(rec):
    out = {"censor": cen.region_to_json(rec.censor), "status": rec.status}
    if rec.status == "observed":
        out["point"] = [rec.point[0], rec.point[1]]
    elif rec.status == "censored_latent":
        out["latent"] = [rec.latent[0], rec.latent[1]]
    else:
        out["min"] = [rec.minima[0], rec.minima[1]]
        out["delta"] = [rec.events[0], rec.events[1]]
    return out


def _record(d):
    return SubjectRecord(censor=d["censor"], status=d["status"], point=d.get("point"),
                         latent=d.get("latent"), minima=d.get("min"), events=d.get("delta"))


RECORD = Schema(Tagged("status", {
    "observed": Built({"censor": cen.REGION, "point": PAIR}, _record),
    "censored_latent": Built({"censor": cen.REGION, "latent": PAIR}, _record),
    "censored_opaque": Built({"censor": cen.REGION, "min": PAIR, "delta": [{0, 1}]}, _record),
}), DataError)


def record_from_json(d, where="record"):
    return RECORD.decode(d, where)


def write_dataset(path, records, header=None):
    with open(path, "w") as fh:
        if header is not None:
            fh.write(json.dumps({"header": header}, sort_keys=True) + "\n")
        for rec in records:
            fh.write(json.dumps(record_to_json(rec), sort_keys=True) + "\n")


def read_dataset(path):
    """Parse a JSON-lines dataset; returns (records, header-or-None)."""
    records = []
    header = None
    with open(path) as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                d = json.loads(line)
            except json.JSONDecodeError as exc:
                raise DataError(f"line {lineno}: invalid JSON ({exc.msg})") from exc
            if isinstance(d, dict) and set(d) == {"header"}:
                if records or header is not None:
                    raise DataError(f"line {lineno}: header allowed only as the first line")
                header = d["header"]
                continue
            records.append(RECORD.decode(d, f"line {lineno}"))
    return records, header


def read_sample(path):
    """Dataset file to CensoredSample; empty datasets are a data error."""
    records, _ = read_dataset(path)
    return CensoredSample(records)


def write_dataset_csv(path, records):
    """Rectangle-censoring CSV shortcut.

    Every record's censor must be a rectangle (full space is written as the
    unit rectangle); latent records are reduced to minima and event flags,
    which loses nothing the estimators use.
    """
    rows = []
    for i, rec in enumerate(records):
        if isinstance(rec.censor, cen.Rectangle):
            tau = rec.censor.tau
        elif isinstance(rec.censor, cen.FullSpace):
            tau = (1.0, 1.0)
        else:
            raise DataError(
                f"record {i}: CSV shortcut covers rectangle censoring only, "
                f"got {type(rec.censor).__name__}")
        if rec.status == "observed":
            m, d = rec.point, (1, 1)
        elif rec.status == "censored_opaque":
            m, d = rec.minima, rec.events
        else:
            y = np.asarray(rec.latent)
            m = tuple(np.minimum(y, tau))
            d = tuple(int(v) for v in (y <= np.asarray(tau)))
        rows.append([fmt_float(m[0]), fmt_float(m[1]), str(d[0]), str(d[1]),
                     fmt_float(tau[0]), fmt_float(tau[1])])
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(CSV_COLUMNS)
        w.writerows(rows)


def read_dataset_csv(path):
    """CSV shortcut to records: delta (1,1) rows become observed records."""
    records = []
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        try:
            head = next(reader)
        except StopIteration:
            raise DataError("empty CSV file") from None
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
            censor = cen.Rectangle((t1, t2))
            try:
                if (d1, d2) == (1, 1):
                    records.append(SubjectRecord(censor=censor, status="observed",
                                                 point=(y1, y2)))
                else:
                    records.append(SubjectRecord(censor=censor, status="censored_opaque",
                                                 minima=(y1, y2), events=(d1, d2)))
            except DataError as exc:
                raise DataError(f"line {lineno}: {exc}") from exc
    return records
