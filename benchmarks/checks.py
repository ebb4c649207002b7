"""Correctness checks computed apart from the program.

Each check returns None when it passes and a one-line reason when it fails.
Nothing here compares against stored output: every expected value is
recomputed from the generated inputs with code that shares no path with
the package beyond the data containers.
"""

from __future__ import annotations

import numpy as np

EPS = np.finfo(np.float64).eps


def concordance(preds, times, censored, block: int = 512) -> float:
    """C-index by direct pair count: (i, j) is admissible when times[i] <
    times[j] and i is uncensored; it is concordant when preds[j] > preds[i]
    and counts half when the predictions tie.  Pairs tied on time are not
    compared.  Rows are counted in blocks so memory stays linear in N."""
    preds = np.asarray(preds, dtype=float)
    times = np.asarray(times, dtype=float)
    censored = np.asarray(censored, dtype=bool)
    pairs = concordant = ties = 0
    for lo in range(0, len(times), block):
        rows = slice(lo, lo + block)
        admissible = (times[rows, None] < times[None, :]) & ~censored[rows, None]
        diff = preds[None, :] - preds[rows, None]
        pairs += int(np.count_nonzero(admissible))
        concordant += int(np.count_nonzero(admissible & (diff > 0)))
        ties += int(np.count_nonzero(admissible & (diff == 0)))
    return (concordant + 0.5 * ties) / pairs


def check_concordance(c_index, preds, times, censored):
    """The program's c_index equals the pair count, exactly, on the inputs as
    given and on a coarsened copy whose predictions and times tie often."""
    preds = np.asarray(preds, dtype=float)
    times = np.asarray(times, dtype=float)
    cases = {
        "as given": (preds, times),
        "coarsened": (np.round(preds, 1), np.round(times, 1)),
    }
    for label, (p, t) in cases.items():
        got = c_index(p, t, censored)
        want = concordance(p, t, censored)
        if got != want:
            return f"c_index {got!r} != pair count {want!r} ({label})"
    return None


def stay_times(seq, decay: float = 1.0) -> np.ndarray:
    """Stay time of each observation: the durations when given, else the gap
    to the previous timestamp; discounted by decay**(t_M - t_m)."""
    if seq.durations is not None:
        gaps = seq.durations
    else:
        gaps = np.diff(seq.timestamps, prepend=0.0)
    if decay == 1.0:
        return gaps
    return gaps * decay ** (seq.timestamps[-1] - seq.timestamps)


def grid_features(sequences, lo: float, hi: float, segments: int) -> np.ndarray:
    """(N, segments**D) stay-time features on an equal-width grid, from
    floor arithmetic and one weighted bincount over (record, cell) keys."""
    obs = np.concatenate([s.observations for s in sequences])
    weights = np.concatenate([stay_times(s) for s in sequences])
    per_dim = np.floor((obs - lo) / (hi - lo) * segments).astype(np.int64)
    per_dim = np.clip(per_dim, 0, segments - 1)  # the top edge joins the last cell
    n_dims = obs.shape[1]
    cell = np.zeros(len(obs), dtype=np.int64)
    for d in range(n_dims):
        cell = cell * segments + per_dim[:, d]
    n_cells = segments**n_dims
    record = np.repeat(np.arange(len(sequences)), [s.n_observations for s in sequences])
    flat = np.bincount(record * n_cells + cell, weights=weights,
                       minlength=len(sequences) * n_cells)
    return flat.reshape(len(sequences), n_cells)


def _row_tolerance(sequences, width: int, decay: float = 1.0) -> np.ndarray:
    """Per-row bound on float64 rounding for sums of M * width terms."""
    totals = np.array([stay_times(s, decay).sum() for s in sequences])
    counts = np.array([s.n_observations for s in sequences])
    return 4.0 * (counts + width) * EPS * totals


def check_grid(features, sequences, lo, hi, segments):
    want = grid_features(sequences, lo, hi, segments)
    if features.shape != want.shape:
        return f"grid features have shape {features.shape}, expected {want.shape}"
    err = np.abs(features - want).max(axis=1)
    tol = _row_tolerance(sequences, want.shape[1])
    bad = np.flatnonzero(err > tol)
    if bad.size:
        i = int(bad[0])
        return f"{bad.size} grid rows differ from the bincount, first record {i} by {err[i]:.3e}"
    return None


def check_mass(features, sequences, decay: float = 1.0):
    """Every feature row sums to the record's total (decayed) stay time."""
    totals = np.array([stay_times(s, decay).sum() for s in sequences])
    err = np.abs(features.sum(axis=1) - totals)
    tol = _row_tolerance(sequences, features.shape[1], decay)
    bad = np.flatnonzero(err > tol)
    if bad.size:
        i = int(bad[0])
        return (f"{bad.size} feature rows do not sum to the stay time, "
                f"first record {i} by {err[i]:.3e}")
    return None


def check_round_trip(read_back, original):
    """A dataset read back from disk equals the generated one exactly."""
    if len(read_back) != len(original):
        return f"read {len(read_back)} records, wrote {len(original)}"
    for a, b in zip(read_back.sequences, original.sequences):
        same = (
            a.record_id == b.record_id
            and np.array_equal(a.observations, b.observations)
            and np.array_equal(a.timestamps, b.timestamps)
            and (a.durations is None) == (b.durations is None)
            and (a.durations is None or np.array_equal(a.durations, b.durations))
        )
        if not same:
            return f"record {b.record_id} changed in the round trip"
    if not np.array_equal(read_back.event_times(), original.event_times()):
        return "event times changed in the round trip"
    if not np.array_equal(read_back.censor_mask(), original.censor_mask()):
        return "censoring flags changed in the round trip"
    return None


def check_reload(reloaded, model, dataset):
    """A reloaded checkpoint predicts bit-identically to the model in memory."""
    a = reloaded.predict(dataset)
    b = model.predict(dataset)
    if not np.array_equal(a, b):
        return f"reloaded predictions differ in {int(np.sum(a != b))} of {len(b)} records"
    return None


def check_partition(test_indices, n: int):
    """The folds are disjoint and together cover every record once."""
    joined = np.sort(np.concatenate([np.asarray(f, dtype=int) for f in test_indices]))
    if not np.array_equal(joined, np.arange(n)):
        return "the folds do not partition the records"
    return None


def check_orderings(means: dict):
    """The paper's orderings: the true grid beats both mismatched grids, and
    the neural state function beats the static summaries."""
    wanted = (
        ("CTR-D-True", "CTR-D-Minus"),
        ("CTR-D-True", "CTR-D-Plus"),
        ("CTR-N", "Static"),
    )
    for better, worse in wanted:
        if not means[better] > means[worse]:
            return f"{better} {means[better]:.4f} does not beat {worse} {means[worse]:.4f}"
    return None
