"""Dataset serialization: JSON-lines records and the rectangle-only CSV shortcut.

JSON-lines is the lossless format.  Each line is one record, with sorted keys:

    {"censor": <region>, "point": [y1, y2], "status": "observed"}
    {"censor": <region>, "latent": [y1, y2], "status": "censored_latent"}
    {"censor": <region>, "delta": [0|1, 0|1], "min": [m1, m2], "status": "censored_opaque"}

The first line may instead be {"header": {...}} carrying run metadata;
readers return it separately.  Unknown keys and values of the wrong JSON
kind are errors naming the line and key path (see bihazard.decode).

Both directions work on columns (estimators.RecordView).  A line
`{"censor": T, rest` is split at its first "}": each distinct T is decoded
once, to a parameter row for rectangles and band complements, and only
"{" + rest is parsed per line, which equals parsing the line while rest
holds a key (`{"censor": T, }` is invalid, `{ }` valid) and no "censor"
(json keeps the last duplicate).  Lines with float coordinates in [0, 1]
and 0/1 flags go straight into the columns; any other line is parsed
whole and decoded by RECORD, which raises its first bad key's message.

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
from .errors import ConfigError, DataError
from .estimators import _FIELDS, _STATUSES, CensoredSample, RecordView, SubjectRecord, _columns
from .geometry import LowerRect
from .util import fmt_float

__all__ = [
    "record_to_json", "RECORD",
    "write_dataset", "read_dataset", "read_sample",
    "write_dataset_csv", "read_dataset_csv",
]

CSV_COLUMNS = ["y1min", "y2min", "delta1", "delta2", "tau1", "tau2"]

_CODES = {status: k for k, status in enumerate(_STATUSES)}
_KEYS = ("point", "latent", "min")          # each status's coordinate key, by status code
_TAIL_KEYS = (frozenset({"point", "status"}), frozenset({"latent", "status"}),
              frozenset({"delta", "min", "status"}))
_SCAN = json.JSONDecoder().scan_once        # json.loads's parser without its wrapper


def _variant(k, **flags):
    return Built({"censor": cen.REGION, _KEYS[k]: PAIR, **flags}, lambda d: SubjectRecord(
        d["censor"], _STATUSES[k], **{_FIELDS[k]: d[_KEYS[k]]}, events=d.get("delta")))


RECORD = Schema(Tagged("status", {"observed": _variant(0), "censored_latent": _variant(1),
                                  "censored_opaque": _variant(2, delta=[{0, 1}])}), DataError)


def record_to_json(rec):
    """The JSON value of the record's dataset line."""
    return json.loads(next(_lines(*_columns([rec]))))


def write_dataset(path, records, header=None):
    """JSON lines from a RecordView's columns, or from those of any iterable of SubjectRecords."""
    with open(path, "w") as fh:
        if header is not None:
            fh.write(json.dumps({"header": header}, sort_keys=True) + "\n")
        fh.writelines(_lines(*_columns(records)))


def _lines(carrier, status, events, regions, region_index):
    texts = [f'{{"kind": "rectangle", "tau": [{a!r}, {b!r}]}}' if k == 1 and (a, b) != (1.0, 1.0)
             else f'{{"c": {c!r}, "k1": {a!r}, "k2": {b!r}, "kind": "band_complement"}}' if k == 2
             else json.dumps(cen.region_to_json(regions[r]), sort_keys=True)
             for r, (k, (a, b, c)) in enumerate(zip(regions.kind.tolist(), regions.param.tolist()))]
    for t, k, (a, b), (e, f) in zip(map(texts.__getitem__, region_index.tolist()), status.tolist(),
                                    carrier.tolist(), events.tolist()):
        if k == 2:
            yield (f'{{"censor": {t}, "delta": [{int(e)}, {int(f)}], '
                   f'"min": [{a!r}, {b!r}], "status": "censored_opaque"}}\n')
        else:
            yield f'{{"censor": {t}, "{_KEYS[k]}": [{a!r}, {b!r}], "status": "{_STATUSES[k]}"}}\n'


def _parsed(text):
    """json.loads(text) of a stripped text, or None where json.loads raises: the text is valid
    exactly where _SCAN reads all of it."""
    try:
        value, end = _SCAN(text, 0)
    except (StopIteration, json.JSONDecodeError):
        return None
    return value if end == len(text) else None


def _unit_pair(v):
    return (type(v) is list and len(v) == 2 and type(v[0]) is type(v[1]) is float
            and 0.0 <= v[0] <= 1.0 and 0.0 <= v[1] <= 1.0)


def _quick_status(rest):
    """The status code of a line's fields after its censor, if they need no decoding: a key and
    no "censor" among them (the two guards), exactly its status's keys, float coordinates in
    [0, 1] and 0/1 integer flags; else None."""
    status = rest.get("status") if rest and "censor" not in rest else None
    k = _CODES.get(status) if type(status) is str else None
    if k is None or rest.keys() != _TAIL_KEYS[k] or not _unit_pair(rest[_KEYS[k]]):
        return None
    flags = rest.get("delta")
    if k == 2 and not (type(flags) is list and len(flags) == 2 and type(flags[0]) is type(flags[1]) is int
                       and flags[0] in (0, 1) and flags[1] in (0, 1)):
        return None
    return k


def _censor_row(text, rows):
    """Append a censor text's region to rows: a (kind, a, b, c) column row for a rectangle or
    band complement whose parameters are floats its constructor accepts, else the decoded
    region.  Gives the row, or None if the text is not a region (its lines are decoded whole)."""
    censor = _parsed(text) if text else None
    kind = censor.get("kind") if type(censor) is dict else None
    row = None
    if kind == "rectangle" and len(censor) == 2 and _unit_pair(censor.get("tau")):
        row = (1, *censor["tau"], 0.0)
    elif kind == "band_complement" and len(censor) == 4:
        k1, k2, c = censor.get("k1"), censor.get("k2"), censor.get("c")
        if type(k1) is type(k2) is type(c) is float and 0.0 <= k1 <= k2 <= 1.0 and c > 0.0:
            row = (2, k1, k2, c)
    if row is None:
        try:
            row = cen.REGION.decode(censor)
        except DataError:
            return None
    rows.append(row)
    return len(rows) - 1


def read_dataset(path):
    """Parse a JSON-lines dataset into columns; returns (RecordView, header-or-None).  Lines
    with the same censor text share one region row; other lines get a row each."""
    carrier, status, events, index, rows, texts, header = [], [], [], [], [], {}, None
    with open(path) as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            j = line.find("}") + 1
            text = line[11:j] if line.startswith('{"censor": ') and line.startswith(", ", j) else None
            row = texts.get(text, -1)
            if row == -1:
                row = texts[text] = _censor_row(text, rows)
            rest = _parsed("{" + line[j + 2:]) if row is not None else None
            k = _quick_status(rest)
            if k is None:
                try:
                    d = _parsed(line) or json.loads(line)
                except json.JSONDecodeError as exc:
                    raise DataError(f"line {lineno}: invalid JSON ({exc.msg})") from exc
                if isinstance(d, dict) and len(d) == 1 and "header" in d:
                    if status or header is not None:
                        raise DataError(f"line {lineno}: header allowed only as the first line")
                    header = d["header"]
                    continue
                rec = RECORD.decode(d, f"line {lineno}")
                if row is None or not rest or "censor" in rest:     # not the text's censor
                    rows.append(rec.censor)
                    row = len(rows) - 1
                k = _CODES[rec.status]
                rest = {_KEYS[k]: getattr(rec, _FIELDS[k]), "delta": rec.events or (0, 0)}
            carrier.append(rest[_KEYS[k]])
            events.append(rest.get("delta", (0, 0)))
            status.append(k)
            index.append(row)
    return RecordView(np.array(carrier, dtype=float).reshape(-1, 2), np.array(status, dtype=np.int8),
                      np.array(events, dtype=bool).reshape(-1, 2), cen.RegionTable.of(rows),
                      np.array(index, dtype=np.int64)), header


def read_sample(path):
    """A .csv (the CSV shortcut) or JSON-lines dataset file as a CensoredSample; data errors if
    unreadable or empty."""
    try:
        records = read_dataset_csv(path) if str(path).endswith(".csv") else read_dataset(path)[0]
    except OSError as exc:
        raise DataError(f"cannot read dataset {path}: {exc}") from exc
    return CensoredSample(records)


def write_dataset_csv(path, records):
    """The CSV shortcut, for rectangle censoring.

    Every record's censor must be a box [0, tau], the full square included;
    latent records are reduced to minima and event flags, which loses
    nothing the estimators use.
    """
    carrier, status, events, regions, index = _columns(records)
    box = regions.kind[index] == 1
    if not box.all():
        i = int(np.argmin(box))
        raise DataError(f"record {i}: CSV shortcut covers rectangle censoring only, "
                        f"got {type(regions[index[i]]).__name__}")
    tau = regions.param[index, :2]
    latent = (status == 1)[:, None]
    flags = np.where(latent, carrier <= tau, events | (status == 0)[:, None]).astype(int)
    rows = zip(np.where(latent, np.minimum(carrier, tau), carrier).tolist(), flags.tolist(), tau.tolist())
    with open(path, "w", newline="") as fh:
        csv.writer(fh).writerows([CSV_COLUMNS] + [[*map(fmt_float, m), *map(str, d), *map(fmt_float, t)]
                                                  for m, d, t in rows])


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
                records.append(SubjectRecord(LowerRect((t1, t2)), status, events=flags,
                                             **{"point" if flags is None else "minima": (y1, y2)}))
            except (ConfigError, DataError) as exc:
                raise DataError(f"line {lineno}: {exc}") from exc
    return records
