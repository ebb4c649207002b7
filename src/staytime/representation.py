"""Decayed stay-time weights and the cumulative stay-time vector.

Each observation of a record contributes its stay time (how long the record
remained at that observation before the next one) to the state it occupies,
discounted by how far before the window end it happened.  Summing those
contributions gives a fixed-length vector z whose entries total the decayed
stay time, regardless of how many observations the record has or how unevenly
they are spaced.

Every path from records to stay-time vectors runs through PackedRecords: a
dataset's row and stay-time columns plus each row's decay exponent, scored
chunk by chunk with one state-function call and one segment sum per chunk.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .errors import require_bool, require_decay
from .sequences import ObservationSequence, as_dataset, gather_rows
from .states import StateFunction

CHUNK_ROWS = 1024  # rows per state-function call in the stay-time kernel, to bound memory


def softplus(x):
    return np.logaddexp(0.0, x)


def sigmoid(x):
    return np.exp(-softplus(-x))


class DecayParameter:
    """Decay factor in (0, 1], optionally trainable.

    The trainable form stores an unconstrained raw value with
    value = exp(-softplus(raw)), which keeps the factor strictly inside
    (0, 1) during gradient training.  The fixed form stores the value
    directly and admits exactly 1.0 (no decay).
    """

    def __init__(self, value: float = 1.0, trainable: bool = False):
        require_bool("trainable", trainable)
        require_decay("decay", value, trainable)
        value = float(value)
        self.trainable = bool(trainable)
        if self.trainable:
            # softplus(raw) = -ln(value)  =>  raw = ln(expm1(-ln(value)))
            self.raw = np.array([np.log(np.expm1(-np.log(value)))])
        else:
            self.raw = None
            self._fixed = value

    @property
    def value(self) -> float:
        if self.trainable:
            return float(np.exp(-softplus(self.raw[0])))
        return self._fixed

    def value_grad(self) -> float:
        """d value / d raw (zero when the parameter is fixed)."""
        if not self.trainable:
            return 0.0
        return float(-self.value * sigmoid(self.raw[0]))


def decay_exponents(seq: ObservationSequence) -> np.ndarray:
    """Exponent t_M - t_m applied to the decay factor for each observation."""
    return PackedRecords.pack([seq]).exponents


def stay_times(seq: ObservationSequence, decay: float = 1.0) -> np.ndarray:
    """Decayed stay-time weight of each observation.

    Observation m weighs decay**(t_M - t_m) times its stay time, where the
    stay time is the gap t_m - t_{m-1} with t_0 = 0, or the record's duration
    override when present.  decay = 1 returns the plain stay times.
    """
    decay = DecayParameter(decay).value  # rejects values outside (0, 1]
    return PackedRecords.pack([seq]).stay_times(decay)


@dataclass
class PackedRecords:
    """Many records pooled into flat arrays: record i owns rows
    offsets[i]:offsets[i + 1], each row with its stay time (gaps), decay
    exponent t_M - t_m and, optionally, precomputed state weights."""

    rows: np.ndarray
    gaps: np.ndarray
    exponents: np.ndarray
    offsets: np.ndarray
    weights: np.ndarray | None = None

    @classmethod
    def pack(cls, records) -> "PackedRecords":
        """The columns of a SurvivalDataset, or of ObservationSequence objects
        packed into one, plus each row's decay exponent."""
        data = as_dataset(records)
        t, offsets = data.timestamps, data.offsets
        return cls(data.rows, data.gaps, np.repeat(t[offsets[1:] - 1], np.diff(offsets)) - t,
                   offsets)

    @property
    def counts(self) -> np.ndarray:
        return np.diff(self.offsets)

    def take(self, indices) -> "PackedRecords":
        """The records at indices, in that order, packed afresh."""
        offsets, idx = gather_rows(self.offsets, indices)
        weights = None if self.weights is None else self.weights[idx]
        return PackedRecords(self.rows[idx], self.gaps[idx], self.exponents[idx],
                             offsets, weights)

    def stay_times(self, decay: float) -> np.ndarray:
        """Decayed stay time of every row."""
        return self.gaps if decay == 1.0 else self.gaps * decay**self.exponents

    def chunks(self):
        """Record ranges [lo, hi) of about CHUNK_ROWS rows each, cut at record
        boundaries; a record longer than that is a chunk of its own."""
        lo, n = 0, len(self.offsets) - 1
        while lo < n:
            end = np.searchsorted(self.offsets, self.offsets[lo] + CHUNK_ROWS, "right")
            hi = max(int(end) - 1, lo + 1)
            yield lo, hi
            lo = hi

    def with_weights(self, state: StateFunction) -> "PackedRecords":
        """A copy carrying every row's state weights, computed chunk by chunk."""
        W = np.empty((len(self.rows), state.n_states))
        for lo, hi in self.chunks():
            rows = slice(self.offsets[lo], self.offsets[hi])
            W[rows] = state.weights_matrix(self.rows[rows])
        return replace(self, weights=W)


def segment_ctr(u, W, starts, normalize: bool, scratch=None):
    """Sums of u_m * W_m over the row segments that begin at starts, plus the
    segment totals of u when normalize divides them out (else None).  The
    products go to scratch when given, an array shaped like W."""
    Z = np.add.reduceat(np.multiply(u[:, None], W, out=scratch), starts, axis=0)
    if not normalize:
        return Z, None
    totals = np.add.reduceat(u, starts)
    return Z / totals[:, None], totals


def stay_time_matrix(packed: PackedRecords, state: StateFunction,
                     decay: float = 1.0, normalize: bool = False) -> np.ndarray:
    """(N, K) stay-time vectors of the packed records, one chunk at a time:
    one state-function call and one segment sum per chunk.  Weights the
    records already carry (with_weights, cut into the same chunks) stand in
    for the state-function calls."""
    Z = np.empty((len(packed.offsets) - 1, state.n_states))
    u = packed.stay_times(decay)
    for lo, hi in packed.chunks():
        first, last = packed.offsets[lo], packed.offsets[hi]
        W = (state.weights_matrix(packed.rows[first:last]) if packed.weights is None
             else packed.weights[first:last])
        Z[lo:hi], _ = segment_ctr(u[first:last], W, packed.offsets[lo:hi] - first, normalize)
    return Z


def compute_ctr(seq: ObservationSequence, state: StateFunction, decay: float = 1.0,
                normalize: bool = False) -> np.ndarray:
    """Cumulative stay-time vector z = sum_m d_m * s(x_m), a length-K array.

    Because every state vector sums to one, sum(z) equals the total decayed
    stay time; normalize divides that total out (off by default).  This is
    the one-record case of compute_ctr_batch and equals its rows exactly.
    """
    return compute_ctr_batch([seq], state, decay, normalize)[0]


def compute_ctr_batch(sequences, state: StateFunction, decay: float = 1.0,
                      normalize: bool = False) -> np.ndarray:
    """(N, K) matrix of compute_ctr over records (a SurvivalDataset or
    ObservationSequence objects), from one packed pass."""
    decay = DecayParameter(decay).value  # rejects values outside (0, 1]
    return stay_time_matrix(PackedRecords.pack(sequences), state, decay, normalize)
