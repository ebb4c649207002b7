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
import operator
from collections.abc import Sequence
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


class RecordFault(ValidationError):
    """A record of a column layout breaks a value rule: record is its index,
    row the first row of the columns that breaks the rule (None for the rule
    on demographics)."""

    def __init__(self, message, record=None, row=None):
        super().__init__(message)
        self.record, self.row = record, row


def _check_records(rows, timestamps, offsets, durations, has_durations, demographics):
    """The rules on a record's values, applied to every record of a column
    layout at once.  Returns the stay time of every row, and the first record
    that breaks a rule as (record, row, rule): the first rule it breaks and
    the first row of the columns, inside the record, that breaks it (None for
    the rule on demographics).  The fault is None when no record breaks a rule.

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

    def in_record(rows_of):
        return np.logical_or.reduceat(rows_of(slice(None)), first)

    rules = (  # (rule, the rows of a slice of the columns that break it, or the records)
        ("observations contains non-finite entries", lambda s: ~np.isfinite(rows[s]).all(axis=1)),
        ("durations contains non-finite entries", lambda s: given[s] & ~np.isfinite(gaps[s])),
        ("durations must all be positive", lambda s: given[s] & (gaps[s] <= 0)),
        ("timestamps contains non-finite entries", lambda s: ~np.isfinite(timestamps[s])),
        ("timestamps must be nonnegative", lambda s: timestamps[s] < 0),
        ("timestamps must be strictly increasing", lambda s: ~rising[s]),
        ("first timestamp must be positive (stay times must be positive)",
         ~has_durations & (timestamps[first] <= 0)),
        ("demographics contains non-finite entries", ~np.isfinite(demographics).all(axis=1)),
    )
    broken = np.array([in_record(m) if callable(m) else m for _, m in rules])
    faulty = np.flatnonzero(broken.any(axis=0))
    if not faulty.size:
        return gaps, None
    r = int(faulty[0])
    rule, breaks = rules[int(np.argmax(broken[:, r]))]
    a, b = offsets[r], offsets[r + 1]
    if callable(breaks):
        return gaps, (r, int(a + np.argmax(breaks(slice(a, b)))), rule)
    # the first-timestamp rule is on the record's first row; demographics on none
    return gaps, (r, None if rule.startswith("demographics") else int(a), rule)


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
        gaps, fault = _check_records(obs, ts, np.array([0, m]), dur, np.array([dur is not None]),
                                     np.empty((1, 0)) if dem is None else dem[None])
        if fault:
            raise ValidationError(fault[2])
        for name, value in (("observations", obs), ("timestamps", ts), ("durations", dur),
                            ("demographics", dem), ("_gaps", gaps)):
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
        return self._gaps.copy()


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


class RecordView(Sequence):
    """A read-only sequence of n records whose item i is build(i), made each
    time it is read and kept by nobody but the caller.  A slice is a list."""

    def __init__(self, n: int, build):
        self._n, self._build = n, build

    def __len__(self) -> int:
        return self._n

    def __getitem__(self, i):
        if isinstance(i, slice):
            return [self._build(j) for j in range(*i.indices(self._n))]
        i = operator.index(i)
        if not -self._n <= i < self._n:
            raise IndexError(f"record index {i} out of range for {self._n} records")
        return self._build(i % self._n)


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
            raise RecordFault(f"record {record_ids[fault[0]]!r}: {fault[2]}", *fault[:2])
        self.rows, self.timestamps, self.gaps, self.offsets = rows, timestamps, gaps, offsets
        self.has_durations, self.demographics = has_durations, demographics
        self.record_ids = record_ids

    def _set_labels(self, event_times, censored=None):
        """Validate and store the label columns (none when event_times is
        None); censored defaults to all False."""
        self._event_times = self._censored = None
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
    def sequences(self) -> RecordView:
        """The records as ObservationSequence objects over views of the
        columns, each built when it is read, without validating it again."""
        return RecordView(len(self), self._sequence)

    @property
    def labels(self) -> RecordView | None:
        """The labels as SurvivalLabel objects, each built when it is read."""
        return None if self._event_times is None else RecordView(len(self), self._label)

    def _sequence(self, i: int) -> ObservationSequence:
        a, b = self.offsets[i:i + 2].tolist()
        gaps = self.gaps[a:b]
        return _trusted(ObservationSequence, observations=self.rows[a:b], _gaps=gaps,
                        timestamps=self.timestamps[a:b], record_id=self.record_ids[i],
                        durations=gaps if self.has_durations[i] else None,
                        demographics=self.demographics[i] if self.n_demographics else None)

    def _label(self, i: int) -> SurvivalLabel:
        return _trusted(SurvivalLabel, event_time=float(self._event_times[i]),
                        censored=bool(self._censored[i]))

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


def as_dataset(X) -> SurvivalDataset:
    """X itself when it is a SurvivalDataset, else its ObservationSequence
    objects as an unlabeled one."""
    if isinstance(X, SurvivalDataset):
        return X
    sequences = list(X)
    for i, seq in enumerate(sequences):
        if not isinstance(seq, ObservationSequence):
            raise ValidationError(f"X[{i}] is not an ObservationSequence")
    return SurvivalDataset(sequences)
