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
from pathlib import Path

import numpy as np

from .errors import ValidationError
from .sequences import ObservationSequence, SurvivalDataset, SurvivalLabel
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


def _fmt(value) -> str:
    return repr(float(value))


def _csv_text(header, rows) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(rows)
    return buf.getvalue()


def write_dataset(dataset: SurvivalDataset, directory,
                  units_note: str = "unitless") -> None:
    """Write a labeled dataset as CSV tables plus a manifest."""
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    labels = dataset.require_labels()
    d = dataset.n_features
    feature_cols = [f"x{j}" for j in range(d)]
    has_durations = all(s.durations is not None for s in dataset.sequences)
    n_dem = dataset.n_demographics
    dem_cols = [f"g{j}" for j in range(n_dem)]

    obs_header = ["record_id", "timestamp", *feature_cols]
    if has_durations:
        obs_header.append("duration")
    obs_rows = []
    for seq in dataset.sequences:
        for m in range(seq.n_observations):
            row = [seq.record_id, _fmt(seq.timestamps[m])]
            row += [_fmt(v) for v in seq.observations[m]]
            if has_durations:
                row.append(_fmt(seq.durations[m]))
            obs_rows.append(row)

    label_rows = [
        [seq.record_id, _fmt(lab.event_time), "1" if lab.censored else "0"]
        for seq, lab in zip(dataset.sequences, labels)
    ]

    manifest = {
        "schema_version": SCHEMA_VERSION,
        "n_records": len(dataset),
        "n_features": d,
        "feature_columns": feature_cols,
        "units_note": units_note,
        "has_durations": has_durations,
        "demographic_columns": dem_cols,
    }

    atomic_write_text(directory / OBSERVATIONS_FILE, _csv_text(obs_header, obs_rows))
    atomic_write_text(directory / LABELS_FILE, _csv_text(
        ["record_id", "event_time", "censored"], label_rows))
    if n_dem:
        dem_rows = [
            [seq.record_id, *(_fmt(v) for v in seq.demographics)]
            for seq in dataset.sequences
        ]
        atomic_write_text(directory / DEMOGRAPHICS_FILE, _csv_text(
            ["record_id", *dem_cols], dem_rows))
    atomic_write_text(directory / MANIFEST_FILE,
                      json.dumps(manifest, indent=2, sort_keys=True) + "\n")


def _fail(file, row, rule):
    raise ValidationError(f"{file}, row {row}: {rule}")


def _parse_float(value, file, row, column):
    try:
        return float(value)
    except ValueError:
        _fail(file, row, f"column {column!r} is not a number: {value!r}")


def _read_rows(path):
    try:
        with open(path, newline="", encoding="utf-8") as fh:
            rows = list(csv.reader(fh))
    except (UnicodeDecodeError, csv.Error) as exc:
        raise ValidationError(f"{path.name}: not a readable CSV file: {exc}") from None
    if not rows:
        raise ValidationError(f"{path.name}, row 1: file is empty")
    return rows[0], rows[1:]


def read_dataset(directory, forward_fill: bool = False) -> SurvivalDataset:
    """Read a dataset directory back into memory, validating as it goes.

    Validation failures name the file, the 1-based row, and the violated
    rule.  forward_fill lets empty observation cells inherit the value from
    the previous row of the same record; a leading empty cell has nothing to
    inherit and is always an error.
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

    # labels first: they define which record ids exist
    lab_header, lab_rows = _read_rows(directory / LABELS_FILE)
    if lab_header != ["record_id", "event_time", "censored"]:
        _fail(LABELS_FILE, 1, f"unexpected header {lab_header}")
    labels = {}
    order = []
    for i, row in enumerate(lab_rows, start=2):
        if len(row) != 3:
            _fail(LABELS_FILE, i, f"expected 3 columns, found {len(row)}")
        rid, time_s, cens_s = row
        if rid in labels:
            _fail(LABELS_FILE, i, f"duplicate record_id {rid!r}")
        if cens_s not in ("0", "1"):
            _fail(LABELS_FILE, i, f"censored flag must be 0 or 1, found {cens_s!r}")
        event_time = _parse_float(time_s, LABELS_FILE, i, "event_time")
        try:
            labels[rid] = SurvivalLabel(event_time, censored=cens_s == "1")
        except ValidationError as exc:
            _fail(LABELS_FILE, i, str(exc))
        order.append(rid)

    obs_header, obs_rows = _read_rows(directory / OBSERVATIONS_FILE)
    expected = ["record_id", "timestamp", *feature_cols]
    if has_durations:
        expected.append("duration")
    if obs_header != expected:
        _fail(OBSERVATIONS_FILE, 1, f"header {obs_header} does not match manifest {expected}")

    per_record: dict[str, dict] = {}
    for i, row in enumerate(obs_rows, start=2):
        if len(row) != len(expected):
            _fail(OBSERVATIONS_FILE, i, f"expected {len(expected)} columns, found {len(row)}")
        rid = row[0]
        if rid not in labels:
            _fail(OBSERVATIONS_FILE, i, f"record_id {rid!r} has no label row")
        t = _parse_float(row[1], OBSERVATIONS_FILE, i, "timestamp")
        entry = per_record.setdefault(
            rid, {"t": [], "x": [], "d": [], "last": [None] * len(feature_cols)}
        )
        if entry["t"]:
            if t == entry["t"][-1]:
                _fail(OBSERVATIONS_FILE, i, f"duplicate timestamp {row[1]} for record {rid!r}")
            if t < entry["t"][-1]:
                _fail(OBSERVATIONS_FILE, i,
                      f"timestamps for record {rid!r} must be strictly increasing")
        features = []
        for j, cell in enumerate(row[2 : 2 + len(feature_cols)]):
            if cell == "":
                if not forward_fill:
                    _fail(OBSERVATIONS_FILE, i,
                          f"empty cell in column {feature_cols[j]!r} (forward fill is off)")
                if entry["last"][j] is None:
                    _fail(OBSERVATIONS_FILE, i,
                          f"empty cell in column {feature_cols[j]!r} with no earlier value to fill from")
                features.append(entry["last"][j])
            else:
                features.append(_parse_float(cell, OBSERVATIONS_FILE, i, feature_cols[j]))
        entry["last"] = features
        entry["t"].append(t)
        entry["x"].append(features)
        if has_durations:
            entry["d"].append(_parse_float(row[-1], OBSERVATIONS_FILE, i, "duration"))

    demographics = {}
    if dem_cols:
        dem_header, dem_rows = _read_rows(directory / DEMOGRAPHICS_FILE)
        if dem_header != ["record_id", *dem_cols]:
            _fail(DEMOGRAPHICS_FILE, 1, f"unexpected header {dem_header}")
        for i, row in enumerate(dem_rows, start=2):
            if len(row) != 1 + len(dem_cols):
                _fail(DEMOGRAPHICS_FILE, i,
                      f"expected {1 + len(dem_cols)} columns, found {len(row)}")
            rid = row[0]
            if rid not in labels:
                _fail(DEMOGRAPHICS_FILE, i, f"record_id {rid!r} has no label row")
            if rid in demographics:
                _fail(DEMOGRAPHICS_FILE, i, f"duplicate record_id {rid!r}")
            demographics[rid] = [
                _parse_float(c, DEMOGRAPHICS_FILE, i, dem_cols[j])
                for j, c in enumerate(row[1:])
            ]

    sequences, label_list = [], []
    for rid in order:
        if rid not in per_record:
            _fail(LABELS_FILE, 2 + order.index(rid),
                  f"record {rid!r} has no observation rows")
        entry = per_record[rid]
        dem = None
        if dem_cols:
            if rid not in demographics:
                _fail(DEMOGRAPHICS_FILE, 1, f"record {rid!r} missing a demographics row")
            dem = np.array(demographics[rid])
        try:
            sequences.append(
                ObservationSequence(
                    observations=np.array(entry["x"]),
                    timestamps=np.array(entry["t"]),
                    durations=np.array(entry["d"]) if has_durations else None,
                    demographics=dem,
                    record_id=rid,
                )
            )
        except ValidationError as exc:
            _fail(OBSERVATIONS_FILE, 1, f"record {rid!r}: {exc}")
        label_list.append(labels[rid])
    return SurvivalDataset(sequences, label_list)


def write_truth(synth, directory) -> None:
    """Sidecar with the generating grid, weights, and noise-free targets."""
    directory = Path(directory)
    payload = {
        "schema_version": SCHEMA_VERSION,
        "config": synth.config.to_dict(),
        "boundaries": [[float(v) for v in b] for b in synth.grid.boundaries],
        "weights": [float(v) for v in synth.weights],
        "noise_free": {
            seq.record_id: float(t)
            for seq, t in zip(synth.dataset.sequences, synth.noise_free)
        },
    }
    atomic_write_text(directory / TRUTH_FILE,
                      json.dumps(payload, indent=2, sort_keys=True) + "\n")


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
