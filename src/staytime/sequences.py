"""Containers and validation for irregularly sampled observation records.

A record is a short multivariate time series: M observation vectors taken at
strictly increasing times inside an observation window, optionally paired with
a static demographics vector and a survival label (time to event, possibly
censored).  ObservationSequence and SurvivalLabel are the per-record forms;
a SurvivalDataset stores many records as flat columns (Arrow's list layout)
and builds the per-record forms back only on request.
"""

from __future__ import annotations

import copy
from dataclasses import dataclass

import numpy as np

from .errors import ValidationError


def _shaped(values, name: str, ndim: int, length: int | None = None) -> np.ndarray:
    """values as a float64 array of the given rank and, if given, length."""
    arr = np.asarray(values, dtype=float)
    if arr.ndim != ndim:
        raise ValidationError(f"{name} must have {ndim} dimension(s), got shape {arr.shape}")
    if length is not None and arr.shape[0] != length:
        raise ValidationError(f"{name} has length {arr.shape[0]}, expected {length}")
    return arr


def as_float_array(values, name: str, ndim: int) -> np.ndarray:
    """Convert to a float64 array of the given rank, rejecting non-finite entries."""
    arr = _shaped(values, name, ndim)
    if arr.size and not np.all(np.isfinite(arr)):
        raise ValidationError(f"{name} contains non-finite entries")
    return arr


def _check_records(rows, timestamps, offsets, durations, has_durations, demographics):
    """The rules on a record's values, applied to every record of a column
    layout at once.  Returns the stay time of every row, and the first record
    that breaks a rule, with the first rule it breaks (None if none does).

    A row's stay time is its durations entry when has_durations flags its
    record, otherwise the gap to the previous timestamp (time zero before
    the first).
    """
    first = offsets[:-1]
    stay = np.diff(timestamps, prepend=0.0)
    rising = stay > 0
    rising[first] = True
    stay[first] = timestamps[first]
    given = np.repeat(has_durations, np.diff(offsets))
    gaps = stay if durations is None else np.where(given, durations, stay)

    def in_record(row_mask):
        return np.logical_or.reduceat(row_mask, first)

    rules = (
        ("observations contains non-finite entries", in_record(~np.isfinite(rows).all(axis=1))),
        ("durations contains non-finite entries", in_record(given & ~np.isfinite(gaps))),
        ("durations must all be positive", in_record(given & (gaps <= 0))),
        ("timestamps contains non-finite entries", in_record(~np.isfinite(timestamps))),
        ("timestamps must be nonnegative", in_record(timestamps < 0)),
        ("timestamps must be strictly increasing", in_record(~rising)),
        ("first timestamp must be positive (stay times must be positive)",
         ~has_durations & (timestamps[first] <= 0)),
        ("demographics contains non-finite entries", ~np.isfinite(demographics).all(axis=1)),
    )
    broken = np.array([mask for _, mask in rules])
    faulty = np.flatnonzero(broken.any(axis=0))
    if not faulty.size:
        return gaps, None
    return gaps, (faulty[0], rules[int(np.argmax(broken[:, faulty[0]]))][0])


@dataclass(frozen=True)
class ObservationSequence:
    """One record: M observation vectors with their observation times.

    timestamps are offsets from the start of the observation window; they must
    be strictly increasing, and the first must be positive unless a durations
    override is supplied (the implied stay time of the first observation is
    measured from time zero).  durations, when present, replace the
    inter-observation gaps as stay times; if timestamps are omitted they
    default to the cumulative sum of the durations.
    """

    observations: np.ndarray
    timestamps: np.ndarray | None = None
    durations: np.ndarray | None = None
    demographics: np.ndarray | None = None
    record_id: str = ""

    def __post_init__(self):
        obs = _shaped(self.observations, "observations", 2)
        m = obs.shape[0]
        if m < 1:
            raise ValidationError("a record needs at least one observation")
        if self.timestamps is None and self.durations is None:
            raise ValidationError("timestamps are required when no durations are given")
        dur = None if self.durations is None else _shaped(self.durations, "durations", 1, m)
        ts = np.cumsum(dur) if self.timestamps is None else self.timestamps
        ts = _shaped(ts, "timestamps", 1, m)
        dem = None if self.demographics is None else _shaped(self.demographics, "demographics", 1)
        _, fault = _check_records(obs, ts, np.array([0, m]), dur, np.array([dur is not None]),
                                  np.empty((1, 0)) if dem is None else dem[None])
        if fault:
            raise ValidationError(fault[1])
        for name, value in (("observations", obs), ("timestamps", ts), ("durations", dur),
                            ("demographics", dem)):
            object.__setattr__(self, name, value)

    @property
    def n_observations(self) -> int:
        return self.observations.shape[0]

    @property
    def n_features(self) -> int:
        return self.observations.shape[1]

    def gaps(self) -> np.ndarray:
        """Stay time of each observation: the durations override when present,
        otherwise the gap to the previous timestamp (time zero before the first)."""
        if self.durations is not None:
            return self.durations.copy()
        return np.diff(self.timestamps, prepend=0.0)

    def period(self) -> float:
        """Span between first and last observation time."""
        return float(self.timestamps[-1] - self.timestamps[0])


def _bad_event_times(times):
    """Where times cannot be observed event times."""
    return ~(np.isfinite(times) & (times > 0))


def event_time_fault(value) -> str | None:
    """Why value cannot be an observed event time, or None when it can."""
    if _bad_event_times(float(value)):
        return f"event_time must be a positive finite number, got {value}"
    return None


@dataclass(frozen=True)
class SurvivalLabel:
    """Observed time for a record; censored means the event was not yet seen."""

    event_time: float
    censored: bool = False

    def __post_init__(self):
        fault = event_time_fault(self.event_time)
        if fault:
            raise ValidationError(fault)
        object.__setattr__(self, "event_time", float(self.event_time))
        object.__setattr__(self, "censored", bool(self.censored))


def _trusted(cls, **fields):
    """A frozen record of type cls from values already validated as columns."""
    record = object.__new__(cls)
    record.__dict__.update(fields)
    return record


def gather_rows(offsets, indices):
    """Offsets and row indices that lay out the records at indices, in that
    order, from columns in which record i owns rows offsets[i]:offsets[i + 1]."""
    counts = np.diff(offsets)[indices]
    new = np.concatenate(([0], np.cumsum(counts)))
    return new, np.arange(new[-1]) + np.repeat(offsets[indices] - new[:-1], counts)


class SurvivalDataset:
    """Records with optional aligned survival labels, stored as flat columns.

    Record i owns rows offsets[i]:offsets[i + 1] of rows (its observation
    vectors), timestamps and gaps (stay times, as _check_records defines
    them); has_durations[i] says whether its stay times came as durations.
    demographics is (N, G), G possibly 0; record_ids is an object array.
    SurvivalDataset(sequences, labels) packs per-record objects once; the
    reader, the generator and subset build from columns; all validate the
    same way.
    """

    def __init__(self, sequences, labels=None):
        sequences = list(sequences)
        if not sequences:
            raise ValidationError("dataset has no records")
        d = sequences[0].n_features
        for i, seq in enumerate(sequences):
            if seq.n_features != d:
                raise ValidationError(f"record {i} has {seq.n_features} features, expected {d}")
        dem_dims = {0 if s.demographics is None else s.demographics.shape[0] for s in sequences}
        if len(dem_dims) > 1:
            raise ValidationError("records disagree on demographics dimension")
        self._set_records(
            rows=np.concatenate([s.observations for s in sequences]),
            timestamps=np.concatenate([s.timestamps for s in sequences]),
            offsets=np.cumsum([0] + [s.n_observations for s in sequences]),
            record_ids=[s.record_id for s in sequences],
            durations=np.concatenate([s.gaps() for s in sequences]),
            has_durations=[s.durations is not None for s in sequences],
            demographics=None if dem_dims == {0} else np.array([s.demographics for s in sequences]),
        )
        self._set_labels(None if labels is None else [lab.event_time for lab in labels],
                         None if labels is None else [lab.censored for lab in labels])

    @classmethod
    def _from_columns(cls, event_times=None, censored=None, **records) -> "SurvivalDataset":
        data = cls.__new__(cls)
        data._set_records(**records)
        data._set_labels(event_times, censored)
        return data

    def _set_records(self, rows, timestamps, offsets, record_ids, durations=None,
                     has_durations=None, demographics=None):
        """Validate and store the record columns.  durations holds the stay
        times of the records flagged in has_durations (all of them by
        default), and is ignored elsewhere."""
        offsets = np.asarray(offsets, dtype=np.int64)
        n = len(offsets) - 1
        if n < 1:
            raise ValidationError("dataset has no records")
        record_ids = np.array(record_ids, dtype=object)
        rows = np.ascontiguousarray(rows, dtype=float)
        timestamps = np.ascontiguousarray(timestamps, dtype=float)
        if durations is None:
            has_durations = np.zeros(n, dtype=bool)
        elif has_durations is None:
            has_durations = np.ones(n, dtype=bool)
        has_durations = np.asarray(has_durations, dtype=bool)
        if demographics is None:
            demographics = np.empty((n, 0))
        demographics = np.ascontiguousarray(demographics, dtype=float)
        gaps, fault = _check_records(rows, timestamps, offsets, durations, has_durations,
                                     demographics)
        if fault:
            raise ValidationError(f"record {record_ids[fault[0]]!r}: {fault[1]}")
        self.rows, self.timestamps, self.gaps, self.offsets = rows, timestamps, gaps, offsets
        self.has_durations, self.demographics = has_durations, demographics
        self.record_ids = record_ids
        self._sequences = None

    def _set_labels(self, event_times, censored=None):
        """Validate and store the label columns (none when event_times is
        None); censored defaults to all False."""
        self._event_times = self._censored = self._labels = None
        if event_times is None:
            return
        event_times = np.asarray(event_times, dtype=float)
        censored = np.zeros(len(event_times), dtype=bool) if censored is None else np.asarray(
            censored, dtype=bool)
        if censored.shape != event_times.shape:
            raise ValidationError("times and censoring flags disagree on length")
        bad = np.flatnonzero(_bad_event_times(event_times))
        if bad.size:
            raise ValidationError(event_time_fault(event_times[bad[0]]))
        if len(event_times) != len(self):
            raise ValidationError(f"{len(event_times)} labels for {len(self)} records")
        self._event_times, self._censored = event_times, censored

    def _with_labels(self, event_times, censored=None) -> "SurvivalDataset":
        """The same records under new labels; only the labels are checked."""
        data = copy.copy(self)
        data._set_labels(event_times, censored)
        return data

    def __len__(self) -> int:
        return len(self.offsets) - 1

    @property
    def n_features(self) -> int:
        return self.rows.shape[1]

    @property
    def n_demographics(self) -> int:
        return self.demographics.shape[1]

    @property
    def sequences(self) -> list[ObservationSequence]:
        """The records as ObservationSequence objects over views of the
        columns, built on first access without validating them again."""
        if self._sequences is None:
            bounds = zip(self.offsets[:-1].tolist(), self.offsets[1:].tolist())
            dems = self.demographics if self.n_demographics else [None] * len(self)
            self._sequences = [
                _trusted(ObservationSequence, observations=self.rows[a:b],
                         timestamps=self.timestamps[a:b],
                         durations=self.gaps[a:b] if given else None,
                         demographics=dem, record_id=rid)
                for (a, b), given, dem, rid in zip(bounds, self.has_durations.tolist(), dems,
                                                   self.record_ids.tolist())
            ]
        return self._sequences

    @property
    def labels(self) -> list[SurvivalLabel] | None:
        """The labels as SurvivalLabel objects, built on first access."""
        if self._labels is None and self._event_times is not None:
            self._labels = [_trusted(SurvivalLabel, event_time=t, censored=c)
                            for t, c in zip(self._event_times.tolist(), self._censored.tolist())]
        return self._labels

    def _label_columns(self):
        if self._event_times is None:
            raise ValidationError("this operation needs labels, but the dataset has none")
        return self._event_times, self._censored

    def event_times(self) -> np.ndarray:
        return self._label_columns()[0].copy()

    def censor_mask(self) -> np.ndarray:
        return self._label_columns()[1].copy()

    def periods(self) -> np.ndarray:
        """Span between each record's first and last observation time."""
        return self.timestamps[self.offsets[1:] - 1] - self.timestamps[self.offsets[:-1]]

    def subset(self, indices) -> "SurvivalDataset":
        indices = np.asarray(indices, dtype=int)
        offsets, rows = gather_rows(self.offsets, indices)
        labeled = self._event_times is not None
        return SurvivalDataset._from_columns(
            rows=self.rows[rows], timestamps=self.timestamps[rows], offsets=offsets,
            record_ids=self.record_ids[indices], durations=self.gaps[rows],
            has_durations=self.has_durations[indices], demographics=self.demographics[indices],
            event_times=self._event_times[indices] if labeled else None,
            censored=self._censored[indices] if labeled else None,
        )


def as_dataset(X, y=None) -> SurvivalDataset:
    """Coerce estimator-style (X, y) input into a SurvivalDataset.

    X may be a SurvivalDataset (y must then be None) or a sequence of
    ObservationSequence.  y may be a list of SurvivalLabel, an array of event
    times (all uncensored), or a (times, censored) pair of arrays.
    """
    if isinstance(X, SurvivalDataset):
        if y is not None:
            raise ValidationError("pass labels inside the SurvivalDataset, not separately")
        return X
    sequences = list(X)
    for i, seq in enumerate(sequences):
        if not isinstance(seq, ObservationSequence):
            raise ValidationError(f"X[{i}] is not an ObservationSequence")
    if y is None:
        return SurvivalDataset(sequences)
    censored = None
    if isinstance(y, tuple) and len(y) == 2:
        y, censored = y
    elif len(y) and isinstance(y[0], SurvivalLabel):
        return SurvivalDataset(sequences, y)
    return SurvivalDataset(sequences)._with_labels(as_float_array(y, "event times", 1), censored)
