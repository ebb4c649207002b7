"""On-disk dataset format: plain CSV tables plus a JSON manifest.

A dataset directory holds observations.csv (record_id, timestamp, feature
columns, optional duration), labels.csv (record_id, event_time, censored),
optional demographics.csv, and manifest.json describing the columns.  All
floats are serialized with repr, so a write/read round trip is exact at
double precision.  Every writer goes through a temp-file-then-rename step;
a crash mid-write never leaves a half-written artifact behind.
"""

from __future__ import annotations

import csv
import io
import json
import os
from array import array
from pathlib import Path

import numpy as np

from .errors import ValidationError
from .sequences import RecordFault, SurvivalDataset, event_time_fault
from .states import SegmentGrid

SCHEMA_VERSION = 1

OBSERVATIONS_FILE = "observations.csv"
LABELS_FILE = "labels.csv"
DEMOGRAPHICS_FILE = "demographics.csv"
MANIFEST_FILE = "manifest.json"
TRUTH_FILE = "truth.json"


def atomic_write_text(path, text: str) -> None:
    path = Path(path)
    tmp = path.with_name(path.name + f".tmp{os.getpid()}")
    tmp.write_text(text, encoding="utf-8")
    os.replace(tmp, path)


def atomic_write_bytes(path, data: bytes) -> None:
    path = Path(path)
    tmp = path.with_name(path.name + f".tmp{os.getpid()}")
    tmp.write_bytes(data)
    os.replace(tmp, path)


def json_text(obj) -> str:
    """The text of a JSON artifact: keys sorted, two-space indent, a final newline."""
    return json.dumps(obj, indent=2, sort_keys=True) + "\n"


def _floats(column: np.ndarray):
    return map(repr, column.tolist())


def csv_text(header, *columns) -> str:
    """CSV text of a header row and whole columns of cells."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(zip(*columns))
    return buf.getvalue()


def write_dataset(dataset: SurvivalDataset, directory,
                  units_note: str = "unitless") -> None:
    """Write a labeled dataset as CSV tables plus a manifest."""
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    times, censored = dataset.event_times(), dataset.censor_mask()
    d = dataset.n_features
    feature_cols = [f"x{j}" for j in range(d)]
    has_durations = bool(dataset.has_durations.any())  # then written for every record
    n_dem = dataset.n_demographics
    dem_cols = [f"g{j}" for j in range(n_dem)]

    obs_header = ["record_id", "timestamp", *feature_cols]
    obs_columns = [dataset.timestamps, *dataset.rows.T]
    if has_durations:
        obs_header.append("duration")
        obs_columns.append(dataset.gaps)
    row_ids = np.repeat(dataset.record_ids, np.diff(dataset.offsets))

    manifest = {
        "schema_version": SCHEMA_VERSION,
        "n_records": len(dataset),
        "n_features": d,
        "feature_columns": feature_cols,
        "units_note": units_note,
        "has_durations": has_durations,
        "demographic_columns": dem_cols,
    }

    atomic_write_text(directory / OBSERVATIONS_FILE,
                      csv_text(obs_header, row_ids, *map(_floats, obs_columns)))
    atomic_write_text(directory / LABELS_FILE, csv_text(
        ["record_id", "event_time", "censored"], dataset.record_ids, _floats(times),
        np.where(censored, "1", "0")))
    if n_dem:
        atomic_write_text(directory / DEMOGRAPHICS_FILE, csv_text(
            ["record_id", *dem_cols], dataset.record_ids,
            *map(_floats, dataset.demographics.T)))
    atomic_write_text(directory / MANIFEST_FILE, json_text(manifest))


def _fail(file, row, rule):
    raise ValidationError(f"{file}, row {row}: {rule}")


def _parse_float(value, file, row, column):
    try:
        return float(value)
    except ValueError:
        _fail(file, row, f"column {column!r} is not a number: {value!r}")


def _table(path, header_rule, expected, index=None):
    """The data rows of a CSV file, streamed as (row number, record, cells)
    once the header row is checked: each row must have the header's width
    and, when index maps record ids to records, a labeled record_id."""
    try:
        with open(path, newline="", encoding="utf-8") as fh:
            rows = csv.reader(fh)
            found = next(rows, None)
            if found is None:
                _fail(path.name, 1, "file is empty")
            if found != expected:
                _fail(path.name, 1, header_rule.format(found=found, expected=expected))
            for i, row in enumerate(rows, start=2):
                if len(row) != len(expected):
                    _fail(path.name, i, f"expected {len(expected)} columns, found {len(row)}")
                record = None if index is None else index.get(row[0])
                if index is not None and record is None:
                    _fail(path.name, i, f"record_id {row[0]!r} has no label row")
                yield i, record, row
    except (UnicodeDecodeError, csv.Error) as exc:
        raise ValidationError(f"{path.name}: not a readable CSV file: {exc}") from None


def _feature(cell, i, column, inherited, forward_fill):
    """One observation cell; an empty one inherits the record's previous row
    under forward fill."""
    if cell != "":
        return _parse_float(cell, OBSERVATIONS_FILE, i, column)
    if not forward_fill:
        _fail(OBSERVATIONS_FILE, i, f"empty cell in column {column!r} (forward fill is off)")
    if inherited is None:
        _fail(OBSERVATIONS_FILE, i,
              f"empty cell in column {column!r} with no earlier value to fill from")
    return inherited


def read_dataset(directory, forward_fill: bool = False) -> SurvivalDataset:
    """Read a dataset directory back into memory, validating as it goes.

    Validation failures name the file, the 1-based row, and the violated
    rule.  forward_fill lets empty observation cells inherit the value from
    the previous row of the same record; a leading empty cell has nothing to
    inherit and is always an error.  Rows stream straight into the dataset's
    columns, and one record's rows may be interleaved with other records'.
    """
    directory = Path(directory)
    manifest_path = directory / MANIFEST_FILE
    if not manifest_path.exists():
        raise ValidationError(f"{MANIFEST_FILE}, row 1: manifest not found in {directory}")
    try:
        manifest = json.loads(manifest_path.read_text())  # ValueError if not JSON
        if manifest.get("schema_version") != SCHEMA_VERSION:
            raise ValidationError(
                f"{MANIFEST_FILE}, row 1: unsupported schema_version "
                f"{manifest.get('schema_version')!r} (this reader handles {SCHEMA_VERSION})"
            )
        feature_cols = list(manifest["feature_columns"])
        has_durations = bool(manifest["has_durations"])
        dem_cols = list(manifest.get("demographic_columns", []))
    except (ValueError, KeyError, TypeError, AttributeError) as exc:
        raise ValidationError(
            f"{MANIFEST_FILE}, row 1: unreadable manifest ({type(exc).__name__}: {exc})"
        ) from None

    # labels first: they define which record ids exist, and their order
    index, times, censored = {}, array("d"), array("b")
    for i, _, (rid, time_s, cens_s) in _table(
            directory / LABELS_FILE, "unexpected header {found}",
            ["record_id", "event_time", "censored"]):
        if rid in index:
            _fail(LABELS_FILE, i, f"duplicate record_id {rid!r}")
        if cens_s not in ("0", "1"):
            _fail(LABELS_FILE, i, f"censored flag must be 0 or 1, found {cens_s!r}")
        event_time = _parse_float(time_s, LABELS_FILE, i, "event_time")
        fault = event_time_fault(event_time)
        if fault:
            _fail(LABELS_FILE, i, fault)
        index[rid] = len(index)
        times.append(event_time)
        censored.append(cens_s == "1")
    ids = list(index)

    # each observation row's record, and its timestamp, features and duration
    expected = ["record_id", "timestamp", *feature_cols]
    if has_durations:
        expected.append("duration")
    record, values = array("q"), array("d")
    previous = [-1] * len(ids)  # where each record's latest row starts in values
    for i, r, row in _table(directory / OBSERVATIONS_FILE,
                            "header {found} does not match manifest {expected}", expected, index):
        start, last = len(values), previous[r]
        try:
            values.extend(map(float, row[1:]))
        except ValueError:  # an empty or malformed cell: parse again cell by cell
            del values[start:]
            values.append(_parse_float(row[1], OBSERVATIONS_FILE, i, "timestamp"))
        t = values[start]
        if last >= 0 and t == values[last]:
            _fail(OBSERVATIONS_FILE, i, f"duplicate timestamp {row[1]} for record {row[0]!r}")
        if last >= 0 and t < values[last]:
            _fail(OBSERVATIONS_FILE, i, f"timestamps for record {row[0]!r} must be strictly increasing")
        if len(values) == start + 1:  # name the bad cell in column order, or fill it
            values.extend(_feature(cell, i, column, None if last < 0 else values[last + 1 + j],
                                   forward_fill)
                          for j, (cell, column) in enumerate(zip(row[2:], feature_cols)))
            if has_durations:
                values.append(_parse_float(row[-1], OBSERVATIONS_FILE, i, "duration"))
        previous[r] = start
        record.append(r)

    demographics = np.empty((len(ids), len(dem_cols)))
    dem_row = np.zeros(len(ids), dtype=np.int64)  # each record's row in the file; 0 if none
    if dem_cols:
        for i, r, row in _table(directory / DEMOGRAPHICS_FILE, "unexpected header {found}",
                                ["record_id", *dem_cols], index):
            if dem_row[r]:
                _fail(DEMOGRAPHICS_FILE, i, f"duplicate record_id {row[0]!r}")
            dem_row[r] = i
            for j, (cell, column) in enumerate(zip(row[1:], dem_cols)):
                demographics[r, j] = _parse_float(cell, DEMOGRAPHICS_FILE, i, column)

    record = np.frombuffer(record, dtype=np.int64)
    counts = np.bincount(record, minlength=len(ids))
    empty, unseen = np.flatnonzero(counts == 0), np.flatnonzero(dem_row == 0)
    if empty.size:
        _fail(LABELS_FILE, 2 + empty[0], f"record {ids[empty[0]]!r} has no observation rows")
    if dem_cols and unseen.size:
        _fail(DEMOGRAPHICS_FILE, 1, f"record {ids[unseen[0]]!r} missing a demographics row")
    # group the rows by record, in label order, each record's rows in file order
    order = np.argsort(record, kind="stable")
    table = np.frombuffer(values).reshape(-1, len(expected) - 1)[order]
    try:
        return SurvivalDataset._from_columns(
            rows=table[:, 1 : 1 + len(feature_cols)], timestamps=table[:, 0],
            offsets=np.concatenate(([0], np.cumsum(counts))), record_ids=ids,
            durations=table[:, -1] if has_durations else None,
            demographics=demographics, event_times=times, censored=censored)
    except RecordFault as fault:
        if fault.row is None:
            _fail(DEMOGRAPHICS_FILE, dem_row[fault.record], str(fault))
        _fail(OBSERVATIONS_FILE, 2 + order[fault.row], str(fault))


def write_truth(synth, directory) -> None:
    """Sidecar with the generating grid, weights, and noise-free targets."""
    directory = Path(directory)
    payload = {
        "schema_version": SCHEMA_VERSION,
        "config": synth.config.to_dict(),
        "boundaries": [[float(v) for v in b] for b in synth.grid.boundaries],
        "weights": [float(v) for v in synth.weights],
        "noise_free": dict(zip(synth.dataset.record_ids.tolist(), synth.noise_free.tolist())),
    }
    atomic_write_text(directory / TRUTH_FILE, json_text(payload))


def read_truth(directory) -> dict:
    """Load the sidecar; boundaries come back as a SegmentGrid."""
    directory = Path(directory)
    payload = json.loads((directory / TRUTH_FILE).read_text())
    if payload.get("schema_version") != SCHEMA_VERSION:
        raise ValidationError(
            f"{TRUTH_FILE}, row 1: unsupported schema_version {payload.get('schema_version')!r}"
        )
    return {
        "config": payload["config"],
        "grid": SegmentGrid(tuple(np.array(b) for b in payload["boundaries"])),
        "weights": np.array(payload["weights"]),
        "noise_free": dict(payload["noise_free"]),
    }


def write_history(history, path) -> None:
    """Training history as line-delimited JSON, one epoch per line."""
    lines = [json.dumps(h, sort_keys=True) for h in history]
    atomic_write_text(path, "\n".join(lines) + ("\n" if lines else ""))


def read_history(path) -> list:
    text = Path(path).read_text()
    return [json.loads(line) for line in text.splitlines() if line.strip()]
