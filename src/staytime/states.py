"""State functions: maps from an observation vector to a length-K weight vector.

Three families are provided.  The discrete family assigns each observation to
one cell of an axis-aligned grid (a one-hot weight vector).  The kernel family
places normalized radial-basis weights on a fixed set of basis points.  The
neural family runs a small network whose softmax output plays the same role.
In every case the weights are nonnegative and sum to one, which is what makes
the cumulative representation conserve total stay time.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import (ConfigurationError, OutOfRangeError, ValidationError, require_array_fits,
                     require_bool, require_count, require_counts, require_positive, require_range)
from .sequences import as_float_array


class StateFunction:
    """Common interface: observation rows in, rows of unit-sum weights out."""

    @property
    def n_states(self) -> int:
        raise NotImplementedError

    def weights_matrix(self, X: np.ndarray) -> np.ndarray:
        raise NotImplementedError


@dataclass(frozen=True)
class SegmentGrid(StateFunction):
    """Axis-aligned product grid of half-open segments covering a box.

    boundaries holds one ascending array per dimension; dimension d has
    len(boundaries[d]) - 1 segments [b_i, b_{i+1}).  The final segment of each
    dimension is closed at the top so the declared range is fully covered.
    As a state function (CTR-D) it weighs each observation one-hot by its
    cell; clamp sends out-of-range values to the nearest edge segment.
    """

    boundaries: tuple
    clamp: bool = False

    def __post_init__(self):
        bounds = tuple(as_float_array(b, "grid boundaries", 1) for b in self.boundaries)
        if not bounds:
            raise ConfigurationError("grid needs at least one dimension")
        for d, b in enumerate(bounds):
            if b.shape[0] < 2:
                raise ConfigurationError(f"dimension {d} needs at least 2 boundaries")
            if np.any(np.diff(b) <= 0):
                raise ConfigurationError(f"dimension {d} boundaries must be strictly ascending")
        require_bool("clamp", self.clamp)
        object.__setattr__(self, "boundaries", bounds)
        object.__setattr__(self, "clamp", bool(self.clamp))

    @classmethod
    def fit(cls, rows, segments, value_range=None, clamp: bool = False):
        """A grid over value_range, or, when it is None, over the ranges of the
        pooled rows, clamped: unseen records may step outside those ranges."""
        rows = as_float_array(rows, "pooled observations", 2)
        if value_range is None:
            value_range = [(rows[:, j].min(), rows[:, j].max()) for j in range(rows.shape[1])]
            clamp = True
        return cls(build_grid(value_range, segments, n_dims=rows.shape[1]).boundaries, clamp)

    @property
    def n_dims(self) -> int:
        return len(self.boundaries)

    @property
    def segments_per_dim(self) -> tuple:
        return tuple(b.shape[0] - 1 for b in self.boundaries)

    @property
    def n_states(self) -> int:
        return int(np.prod(self.segments_per_dim))

    def centers(self) -> np.ndarray:
        """(K, D) midpoints of every cell, in row-major cell order."""
        mids = [0.5 * (b[:-1] + b[1:]) for b in self.boundaries]
        grids = np.meshgrid(*mids, indexing="ij")
        return np.stack([g.ravel() for g in grids], axis=-1)

    def locate(self, X: np.ndarray) -> np.ndarray:
        """Flat cell index for each row of X.

        Values on an interior boundary belong to the segment to their right;
        the top boundary belongs to the last segment.  Out-of-range values
        raise OutOfRangeError unless clamp is set, in which case they fall
        into the nearest edge segment.
        """
        X = as_float_array(X, "observations", 2)
        if X.shape[1] != self.n_dims:
            raise ValidationError(f"observations have {X.shape[1]} dims, grid has {self.n_dims}")
        shape = self.segments_per_dim
        per_dim = []
        for d, b in enumerate(self.boundaries):
            x = X[:, d]
            if not self.clamp and (np.any(x < b[0]) or np.any(x > b[-1])):
                bad = x[(x < b[0]) | (x > b[-1])][0]
                raise OutOfRangeError(
                    f"value {bad} outside declared range [{b[0]}, {b[-1]}] in dimension {d}"
                )
            idx = np.searchsorted(b, x, side="right") - 1
            idx = np.clip(idx, 0, shape[d] - 1)
            per_dim.append(idx)
        return np.ravel_multi_index(per_dim, shape)

    def one_hot(self, X: np.ndarray) -> np.ndarray:
        """(M, K) matrix with a single 1.0 per row marking the containing cell."""
        idx = self.locate(X)
        out = np.zeros((X.shape[0], self.n_states))
        out[np.arange(X.shape[0]), idx] = 1.0
        return out

    def weights_matrix(self, X: np.ndarray) -> np.ndarray:
        return self.one_hot(X)  # a call, not an alias: one_hot may be swapped on the class


def build_grid(value_range, segments, n_dims: int | None = None) -> SegmentGrid:
    """Equal-width grid from a declared range and per-dimension segment counts.

    value_range is a (lo, hi) pair applied to every dimension, or a list of
    such pairs; segments is an int applied to every dimension, or a list of
    ints.  n_dims resolves the dimension count when both arguments are scalar.
    """
    require_range("value_range", value_range)
    require_counts("segments", segments)
    if np.isscalar(value_range[0]):
        if n_dims is None:
            n_dims = len(segments) if not np.isscalar(segments) else 1
        require_array_fits(f"the boundary count of {n_dims} dimensions", 2 * n_dims)
        ranges = [tuple(value_range)] * n_dims
    else:
        ranges = [tuple(r) for r in value_range]
        n_dims = len(ranges)
    counts = [int(segments)] * n_dims if np.isscalar(segments) else [int(s) for s in segments]
    if len(counts) != len(ranges):
        raise ConfigurationError("ranges and segment counts disagree on dimension count")
    require_array_fits(f"the cell count of segments {counts}", math.prod(counts))
    bounds = []
    for (lo, hi), c in zip(ranges, counts):
        if not hi > lo:
            raise ConfigurationError(f"empty value range ({lo}, {hi})")
        bounds.append(np.linspace(lo, hi, c + 1))
    return SegmentGrid(tuple(bounds))


@dataclass(frozen=True)
class KernelBasisSet(StateFunction):
    """Fixed radial-basis points with a shared bandwidth gamma > 0; as a state
    function (CTR-K) it weighs each observation by its normalized kernel."""

    bases: np.ndarray
    gamma: float

    def __post_init__(self):
        bases = as_float_array(self.bases, "bases", 2)
        if bases.shape[0] < 1:
            raise ConfigurationError("at least one basis point is required")
        require_positive("gamma", self.gamma)
        object.__setattr__(self, "bases", bases)
        object.__setattr__(self, "gamma", float(self.gamma))

    @classmethod
    def fit(cls, rows, n_bases: int, gamma: float, rng):
        """Bandwidth gamma around n_bases points drawn from the pooled rows."""
        return cls(sample_bases(rows, n_bases, rng), gamma=gamma)

    @property
    def n_states(self) -> int:
        return self.bases.shape[0]

    def weights(self, X: np.ndarray) -> np.ndarray:
        """(M, K) normalized kernel weights exp(-gamma * ||x - b_k||^2) / Z."""
        X = as_float_array(X, "observations", 2)
        if X.shape[1] != self.bases.shape[1]:
            raise ValidationError(
                f"observations have {X.shape[1]} dims, bases have {self.bases.shape[1]}"
            )
        # one dimension at a time into the M x K logits, so no M x K x D array
        logits = np.zeros((X.shape[0], self.n_states))
        sq = np.empty_like(logits)
        for x, b in zip(X.T, self.bases.T):
            logits += np.square(np.subtract(x[:, None], b, out=sq), out=sq)
        logits *= -self.gamma
        logits -= logits.max(axis=1, keepdims=True)
        w = np.exp(logits, out=logits)
        w /= w.sum(axis=1, keepdims=True)
        return w

    def weights_matrix(self, X: np.ndarray) -> np.ndarray:
        return self.weights(X)  # a call, not an alias: weights may be swapped on the class


def sample_bases(rows: np.ndarray, n_bases: int, rng) -> np.ndarray:
    """Draw n_bases distinct basis points from pooled observation rows, seeded.

    Returns the (n_bases, D) array of points; wrap it in a KernelBasisSet
    with the bandwidth of your choice.
    """
    require_count("n_bases", n_bases)
    rows = as_float_array(rows, "pooled observations", 2)
    if rows.shape[0] < n_bases:
        raise ValidationError(f"cannot draw {n_bases} bases from {rows.shape[0]} pooled rows")
    idx = rng.choice(rows.shape[0], size=n_bases, replace=False)
    return rows[idx].copy()


class NeuralStateFunction(StateFunction):
    """Softmax output of a trained network's eval-mode forward, whose rows do
    not depend on how many share the call."""

    def __init__(self, net):
        if net.out_activation != "softmax":
            raise ConfigurationError("the state network must end in a softmax")
        self.net = net

    @property
    def n_states(self) -> int:
        return self.net.layer_sizes[-1]

    def weights_matrix(self, X: np.ndarray) -> np.ndarray:
        return self.net.forward(as_float_array(X, "observations", 2))

