"""Synthetic benchmark generator with a known ground-truth structure.

Each record is M observation vectors drawn uniformly from [-1, 1)^D with
per-observation stay times drawn from (0, 1).  The label is a noisy linear
functional of the record's cumulative stay-time vector on a known grid:
y = sum_k w_k z_k + noise, where w places a single Gaussian bump over the
grid cells.  Because the generating grid, weights, and noise-free targets are
stored alongside the data, oracle tests can check any model against the
actual signal ceiling.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass

import numpy as np

from .errors import ConfigurationError
from .representation import compute_ctr_batch
from .sequences import SurvivalDataset
from .states import DiscreteStateFunction, SegmentGrid, build_grid
from .training import check_field_types, require_count

WEIGHT_PROFILES = ("coordinate", "index")
BLOCK_RECORDS = 256


def integer_root(k: int, d: int) -> int:
    """The integer d-th root of k, or an error if k is not a perfect power."""
    root = round(k ** (1.0 / d))
    for candidate in (root - 1, root, root + 1):
        if candidate >= 1 and candidate**d == k:
            return candidate
    raise ConfigurationError(f"{k} states cannot tile {d} dimensions evenly")


@dataclass(frozen=True)
class SynthConfig:
    seed: int
    n_records: int = 1000
    n_obs: int = 10
    n_dims: int = 2
    n_states: int = 25
    noise_variance: float = 0.1
    weight_width: float = 1.0
    # "index" measures the Gaussian in lattice steps (peaked, location-driven
    # labels); "coordinate" measures it in observation units (nearly flat at
    # unit width, labels then ride mostly on total stay time)
    weight_profile: str = "index"

    def __post_init__(self):
        check_field_types(self)
        for name, low in (("seed", 0), ("n_records", 1), ("n_obs", 1), ("n_dims", 1),
                          ("n_states", 1)):
            require_count(name, getattr(self, name), low)
        if not 0 <= self.noise_variance < np.inf:
            raise ConfigurationError(
                f"noise_variance must be a nonnegative finite number, got {self.noise_variance!r}")
        if not 0 < self.weight_width < np.inf:
            raise ConfigurationError(
                f"weight_width must be a positive finite number, got {self.weight_width!r}")
        if self.weight_profile not in WEIGHT_PROFILES:
            raise ConfigurationError(f"unknown weight_profile {self.weight_profile!r}")
        integer_root(self.n_states, self.n_dims)

    @property
    def segments_per_dim(self) -> int:
        return integer_root(self.n_states, self.n_dims)

    def to_dict(self) -> dict:
        return asdict(self)


def lattice_weights(grid: SegmentGrid, width: float = 1.0,
                    profile: str = "coordinate") -> np.ndarray:
    """Unnormalized Gaussian bump over the grid cells, peak value 1.

    "coordinate" measures distance from the lattice centroid in the cells'
    coordinate units; "index" measures it in cell-index units, which makes
    the bump cover a fixed number of cells regardless of the value range.
    """
    if profile == "coordinate":
        pts = grid.centers()
    elif profile == "index":
        shape = grid.segments_per_dim
        axes = [np.arange(s, dtype=float) for s in shape]
        mesh = np.meshgrid(*axes, indexing="ij")
        pts = np.stack([g.ravel() for g in mesh], axis=-1)
    else:
        raise ConfigurationError(f"unknown weight profile {profile!r}")
    center = pts.mean(axis=0)
    sq = np.sum((pts - center) ** 2, axis=1)
    return np.exp(-sq / (2.0 * width**2))


@dataclass
class SynthDataset:
    """Generated records plus the ground truth that produced their labels."""

    dataset: SurvivalDataset
    grid: SegmentGrid
    weights: np.ndarray
    noise_free: np.ndarray
    config: SynthConfig


def generate(config: SynthConfig) -> SynthDataset:
    """Draw a dataset; one derived random stream per record, so any prefix of
    the records is independent of how many more were requested."""
    grid = build_grid((-1.0, 1.0), config.segments_per_dim, n_dims=config.n_dims)
    state = DiscreteStateFunction(grid)
    w = lattice_weights(grid, config.weight_width, config.weight_profile)
    noise_scale = float(np.sqrt(config.noise_variance))

    n, m = config.n_records, config.n_obs
    rows = np.empty((n * m, config.n_dims))
    durations, timestamps = np.empty(n * m), np.empty(n * m)
    offsets = np.arange(0, n * m + 1, m)
    record_ids = [f"r{i:06d}" for i in range(n)]
    times, noise_free = np.empty(n), np.empty(n)
    streams = np.random.SeedSequence(config.seed).spawn(n)
    # records go in blocks: one packed kernel call per block gives the clean
    # targets, and only one block's generators are alive at a time
    for lo in range(0, n, BLOCK_RECORDS):
        hi = min(lo + BLOCK_RECORDS, n)
        rngs = [np.random.default_rng(s) for s in streams[lo:hi]]
        for i, rng in enumerate(rngs, start=lo):
            rows[i * m : (i + 1) * m] = rng.uniform(-1.0, 1.0, size=(m, config.n_dims))
            dur = rng.uniform(0.0, 1.0, size=m)
            while np.any(dur == 0.0):  # stay times must be strictly positive
                dur[dur == 0.0] = rng.uniform(0.0, 1.0, size=int((dur == 0.0).sum()))
            durations[i * m : (i + 1) * m] = dur
        block = slice(lo * m, hi * m)
        timestamps[block] = np.cumsum(durations[block].reshape(-1, m), axis=1).ravel()
        records = SurvivalDataset._from_columns(
            rows=rows[block], timestamps=timestamps[block], offsets=offsets[lo : hi + 1] - lo * m,
            record_ids=record_ids[lo:hi], durations=durations[block])
        for i, (rng, z) in enumerate(zip(rngs, compute_ctr_batch(records, state)), start=lo):
            # each record's stream continues where its observations left off
            target = float(w @ z)
            y = target + noise_scale * rng.standard_normal()
            # labels are event times and must stay positive; a multi-sigma tail
            # draw against a small clean target is redrawn from the same stream
            while y <= 0:
                y = target + noise_scale * rng.standard_normal()
            times[i] = y
            noise_free[i] = target
    return SynthDataset(
        dataset=SurvivalDataset._from_columns(
            rows=rows, timestamps=timestamps, offsets=offsets, record_ids=record_ids,
            durations=durations, event_times=times),
        grid=grid,
        weights=w,
        noise_free=noise_free,
        config=config,
    )


def reference_grids(k: int, d: int) -> dict:
    """The matched grid for k states in d dimensions, plus the two mismatched
    grids with one segment fewer / more per dimension."""
    per_dim = integer_root(k, d)
    if per_dim < 2:
        raise ConfigurationError("the mismatched grids need at least 2 segments per dimension")
    return {
        "true": build_grid((-1.0, 1.0), per_dim, n_dims=d),
        "minus": build_grid((-1.0, 1.0), per_dim - 1, n_dims=d),
        "plus": build_grid((-1.0, 1.0), per_dim + 1, n_dims=d),
    }
