"""Containers and validation for irregularly sampled observation records.

A record is a short multivariate time series: M observation vectors taken at
strictly increasing times inside an observation window, optionally paired with
a static demographics vector and a survival label (time to event, possibly
censored).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import ValidationError


def as_float_array(values, name: str, ndim: int) -> np.ndarray:
    """Convert to a float64 array of the given rank, rejecting non-finite entries."""
    arr = np.asarray(values, dtype=float)
    if arr.ndim != ndim:
        raise ValidationError(f"{name} must have {ndim} dimension(s), got shape {arr.shape}")
    if arr.size and not np.all(np.isfinite(arr)):
        raise ValidationError(f"{name} contains non-finite entries")
    return arr


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
        obs = as_float_array(self.observations, "observations", 2)
        if obs.shape[0] < 1:
            raise ValidationError("a record needs at least one observation")
        object.__setattr__(self, "observations", obs)
        m = obs.shape[0]

        dur = self.durations
        if dur is not None:
            dur = as_float_array(dur, "durations", 1)
            if dur.shape[0] != m:
                raise ValidationError(f"durations has length {dur.shape[0]}, expected {m}")
            if np.any(dur <= 0):
                raise ValidationError("durations must all be positive")
            object.__setattr__(self, "durations", dur)

        ts = self.timestamps
        if ts is None:
            if dur is None:
                raise ValidationError("timestamps are required when no durations are given")
            ts = np.cumsum(dur)
        else:
            ts = as_float_array(ts, "timestamps", 1)
            if ts.shape[0] != m:
                raise ValidationError(f"timestamps has length {ts.shape[0]}, expected {m}")
            if np.any(ts < 0):
                raise ValidationError("timestamps must be nonnegative")
            if m > 1 and np.any(np.diff(ts) <= 0):
                raise ValidationError("timestamps must be strictly increasing")
            if dur is None and ts[0] <= 0:
                raise ValidationError("first timestamp must be positive (stay times must be positive)")
        object.__setattr__(self, "timestamps", ts)

        dem = self.demographics
        if dem is not None:
            object.__setattr__(self, "demographics", as_float_array(dem, "demographics", 1))

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


@dataclass(frozen=True)
class SurvivalLabel:
    """Observed time for a record; censored means the event was not yet seen."""

    event_time: float
    censored: bool = False

    def __post_init__(self):
        t = float(self.event_time)
        if not np.isfinite(t) or t <= 0:
            raise ValidationError(f"event_time must be a positive finite number, got {self.event_time}")
        object.__setattr__(self, "event_time", t)
        object.__setattr__(self, "censored", bool(self.censored))


@dataclass
class SurvivalDataset:
    """A list of records with optional aligned survival labels."""

    sequences: list[ObservationSequence]
    labels: list[SurvivalLabel] | None = None

    def __post_init__(self):
        if not self.sequences:
            raise ValidationError("dataset has no records")
        d = self.sequences[0].n_features
        for i, seq in enumerate(self.sequences):
            if seq.n_features != d:
                raise ValidationError(
                    f"record {i} has {seq.n_features} features, expected {d}"
                )
        dem_dims = {0 if s.demographics is None else s.demographics.shape[0] for s in self.sequences}
        if len(dem_dims) > 1:
            raise ValidationError("records disagree on demographics dimension")
        if self.labels is not None and len(self.labels) != len(self.sequences):
            raise ValidationError(
                f"{len(self.labels)} labels for {len(self.sequences)} records"
            )

    def __len__(self) -> int:
        return len(self.sequences)

    @property
    def n_features(self) -> int:
        return self.sequences[0].n_features

    @property
    def n_demographics(self) -> int:
        dem = self.sequences[0].demographics
        return 0 if dem is None else dem.shape[0]

    def require_labels(self) -> list[SurvivalLabel]:
        if self.labels is None:
            raise ValidationError("this operation needs labels, but the dataset has none")
        return self.labels

    def event_times(self) -> np.ndarray:
        return np.array([lab.event_time for lab in self.require_labels()])

    def censor_mask(self) -> np.ndarray:
        return np.array([lab.censored for lab in self.require_labels()], dtype=bool)

    def periods(self) -> np.ndarray:
        return np.array([seq.period() for seq in self.sequences])

    def subset(self, indices) -> "SurvivalDataset":
        indices = np.asarray(indices, dtype=int)
        seqs = [self.sequences[i] for i in indices]
        labs = None if self.labels is None else [self.labels[i] for i in indices]
        return SurvivalDataset(seqs, labs)


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
        return SurvivalDataset(sequences, None)
    if isinstance(y, tuple) and len(y) == 2:
        times = as_float_array(y[0], "event times", 1)
        censored = np.asarray(y[1], dtype=bool)
        if censored.shape != times.shape:
            raise ValidationError("times and censoring flags disagree on length")
        labels = [SurvivalLabel(t, c) for t, c in zip(times, censored)]
    elif len(y) and isinstance(y[0], SurvivalLabel):
        labels = list(y)
    else:
        times = as_float_array(y, "event times", 1)
        labels = [SurvivalLabel(t) for t in times]
    return SurvivalDataset(sequences, labels)
