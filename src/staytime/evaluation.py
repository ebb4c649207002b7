"""Concordance scoring, cross-validated evaluation, and stratified comparison.

The C-index here follows the usual survival convention: a pair is admissible
when one record's event was observed strictly before the other record's
(possibly censored) time, and the pair counts as concordant when the earlier
event also got the smaller prediction.  Tied predictions count half; records
tied on time are not compared at all.
"""

from __future__ import annotations

import time as _time
from dataclasses import dataclass, field

import numpy as np

from .errors import UndefinedResultError, ValidationError
from .sequences import SurvivalDataset, as_float_array

# Inputs up to this many records are counted directly on (uncensored x all)
# comparison masks, which is faster there than the sort-based count.  The
# two break even near 600 records at 30% censoring (near 500 with none
# censored, 850 at 60%); CHANGES.md has the measurements.
_DIRECT_COUNT_MAX = 600


def c_index(preds, times, censored=None):
    """Concordance between predicted and observed ordering.

    Raises UndefinedResultError when no admissible pair exists, rather than
    inventing a 0.5, and ValidationError when preds or times hold NaN or inf.
    Runs in O(N log^2 N) time and O(N) memory.
    """
    preds = as_float_array(preds, "preds", 1)
    times = as_float_array(times, "times", 1)
    if censored is None:
        censored = np.zeros(times.shape, dtype=bool)
    censored = np.asarray(censored, dtype=bool)
    if preds.shape != times.shape or preds.shape != censored.shape:
        raise ValidationError("preds, times, and censored must share one shape")
    concordant, tied, pairs = _pair_counts(preds, times, censored)
    if pairs == 0:
        raise UndefinedResultError(
            "C-index undefined: no admissible (earlier event, later record) pairs"
        )
    return (concordant + 0.5 * tied) / pairs


def _pair_counts(preds, times, censored):
    """(concordant, tied, admissible) pair counts, as Python ints.

    A pair (n, l) is admissible when n is uncensored and times[n] < times[l];
    it is concordant when preds[n] < preds[l] and tied when they are equal.
    Small inputs are counted on comparison masks; larger ones by sorting,
    without any N x N array.
    """
    unc = ~censored
    if len(times) <= _DIRECT_COUNT_MAX:
        earlier = times[unc][:, None] < times
        pred_n = preds[unc][:, None]
        return (
            int(np.count_nonzero(earlier & (pred_n < preds))),
            int(np.count_nonzero(earlier & (pred_n == preds))),
            int(np.count_nonzero(earlier)),
        )
    t_rank = np.unique(times, return_inverse=True)[1]
    p_levels, p_rank = np.unique(preds, return_inverse=True)
    width = len(p_levels)
    later = len(times) - np.cumsum(np.bincount(t_rank))  # records after each time rank
    pairs = int(later[t_rank[unc]].sum())
    concordant = tied = 0
    for k in range(int(t_rank.max()).bit_length()):
        # Every admissible pair has one highest bit k at which its time ranks
        # differ: the later record has it set and both share the bits above.
        # Count each pair at that level, keyed by (shared bits, pred rank).
        upper = (t_rank >> k) & 1 == 1
        block = t_rank >> (k + 1)
        keys = np.sort(block[upper] * width + p_rank[upper])
        asks = unc & ~upper
        # sorted probes keep searchsorted's memory access sequential
        probes = np.sort(block[asks] * width + p_rank[asks])
        equal_from = np.searchsorted(keys, probes, "left")
        higher_from = np.searchsorted(keys, probes, "right")
        block_end = np.searchsorted(keys, (probes // width + 1) * width, "left")
        concordant += int((block_end - higher_from).sum())
        tied += int((higher_from - equal_from).sum())
    return concordant, tied, pairs


def fold_assignments(n: int, k: int, rng, censored=None, stratify: bool = False):
    """Shuffle indices and cut them into k contiguous folds.

    With stratification, censored and uncensored records are shuffled and cut
    separately, then merged per fold, so every fold keeps roughly the overall
    censoring rate.
    """
    if k < 2:
        raise ValidationError("cross-validation needs at least 2 folds")
    if n < k:
        raise ValidationError(f"cannot cut {n} records into {k} folds")
    if stratify:
        censored = np.asarray(censored, dtype=bool)
        parts = [np.flatnonzero(censored), np.flatnonzero(~censored)]
        parts = [p for p in parts if len(p)]
    else:
        parts = [np.arange(n)]
    folds = [[] for _ in range(k)]
    for p in parts:
        shuffled = p[rng.permutation(len(p))]
        for i, chunk in enumerate(np.array_split(shuffled, k)):
            folds[i].append(chunk)
    return [np.sort(np.concatenate(f)).astype(int) for f in folds]


@dataclass
class FoldReport:
    """Per-fold scores and predictions; aggregates never replace the folds."""

    model: str
    k: int
    seed: int
    scores: list          # per-fold C-index; None flags a fold with no pairs
    chosen: list          # per-fold hyperparameter overrides that won
    wall_clock: list      # seconds per fold
    test_indices: list    # per-fold record indices into the evaluated dataset
    predictions: list     # per-fold predicted event times, aligned with test_indices
    config: dict
    warnings: list = field(default_factory=list)

    def _valid_scores(self) -> list:
        return [s for s in self.scores if s is not None]

    @property
    def mean(self) -> float:
        return float(np.mean(self._valid_scores()))

    @property
    def stderr(self) -> float:
        valid = self._valid_scores()
        if len(valid) < 2:
            return 0.0
        return float(np.std(valid, ddof=1) / np.sqrt(len(valid)))

    def to_dict(self, include_timing: bool = True) -> dict:
        out = {
            "model": self.model,
            "k": self.k,
            "seed": self.seed,
            "scores": [None if s is None else float(s) for s in self.scores],
            "mean": self.mean,
            "stderr": self.stderr,
            "chosen": self.chosen,
            "test_indices": [[int(i) for i in f] for f in self.test_indices],
            "predictions": [[float(p) for p in f] for f in self.predictions],
            "config": self.config,
            "warnings": list(self.warnings),
        }
        if include_timing:
            out["wall_clock"] = [float(t) for t in self.wall_clock]
        return out

    @classmethod
    def from_dict(cls, d: dict) -> "FoldReport":
        return cls(
            model=d["model"],
            k=d["k"],
            seed=d["seed"],
            scores=list(d["scores"]),
            chosen=list(d["chosen"]),
            wall_clock=list(d.get("wall_clock", [0.0] * d["k"])),
            test_indices=[list(f) for f in d["test_indices"]],
            predictions=[list(f) for f in d["predictions"]],
            config=d["config"],
            warnings=list(d.get("warnings", [])),
        )


def kfold_cv(dataset: SurvivalDataset, config, k: int = 5, seed: int = 0,
             grid: list | None = None, stratify: bool | None = None) -> FoldReport:
    """k-fold cross-validation with a per-fold hyperparameter search.

    The fold partition is drawn from `seed` alone, independent of the training
    config, so two different configs evaluated with the same seed land on
    identical folds and can be compared record for record.  Each fold's
    training portion is searched (validation split handled inside
    train_model); the winning model is scored on the held-out fold.  A fold
    without a single admissible pair gets a None score and a warning instead
    of a made-up number.  stratify=None stratifies by censoring whenever any
    record is censored.
    """
    from .training import hyper_search  # local import to avoid a module cycle

    times = dataset.event_times()
    censored = dataset.censor_mask()
    if stratify is None:
        stratify = bool(censored.any())
    rng = np.random.default_rng(np.random.SeedSequence([seed, k]))
    folds = fold_assignments(len(dataset), k, rng, censored, stratify)

    scores, chosen, walls, test_idx_out, preds_out, warnings = [], [], [], [], [], []
    for j, fold in enumerate(folds):
        t0 = _time.perf_counter()
        mask = np.ones(len(dataset), dtype=bool)
        mask[fold] = False
        train_set = dataset.subset(np.flatnonzero(mask))
        result = hyper_search(train_set, config, grid)
        preds = result.best_model.predict(dataset.subset(fold))
        try:
            scores.append(float(c_index(preds, times[fold], censored[fold])))
        except UndefinedResultError:
            scores.append(None)
            warnings.append(f"fold {j}: no admissible pairs, excluded from aggregation")
        chosen.append(result.candidates[_best_candidate(result)][0])
        walls.append(_time.perf_counter() - t0)
        test_idx_out.append([int(i) for i in fold])
        preds_out.append([float(p) for p in preds])
    if not any(s is not None for s in scores):
        raise UndefinedResultError("every fold lacked admissible pairs")
    return FoldReport(
        model=config.model,
        k=k,
        seed=seed,
        scores=scores,
        chosen=chosen,
        wall_clock=walls,
        test_indices=test_idx_out,
        predictions=preds_out,
        config=config.to_dict(),
        warnings=warnings,
    )


def _best_candidate(result) -> int:
    scores = [s for _, s in result.candidates]
    best = max(scores)
    return scores.index(best)  # first winner, matching hyper_search's tie-break


@dataclass
class PeriodBucketReport:
    """Mean per-fold C-index difference (a minus b), restricted to records
    whose observation period reaches each threshold."""

    model_a: str
    model_b: str
    thresholds: list
    fold_diffs: list      # per threshold: per-fold differences
    n_records: list       # per threshold: record count across folds
    warnings: list = field(default_factory=list)

    @property
    def means(self) -> list:
        return [float(np.mean(d)) for d in self.fold_diffs]

    @property
    def stderrs(self) -> list:
        return [
            float(np.std(d, ddof=1) / np.sqrt(len(d))) if len(d) > 1 else 0.0
            for d in self.fold_diffs
        ]

    def to_dict(self) -> dict:
        return {
            "model_a": self.model_a,
            "model_b": self.model_b,
            "thresholds": [float(t) for t in self.thresholds],
            "fold_diffs": [[float(x) for x in d] for d in self.fold_diffs],
            "means": self.means,
            "stderrs": self.stderrs,
            "n_records": [int(c) for c in self.n_records],
            "warnings": list(self.warnings),
        }

    @classmethod
    def from_dict(cls, d: dict) -> "PeriodBucketReport":
        return cls(
            model_a=d["model_a"],
            model_b=d["model_b"],
            thresholds=list(d["thresholds"]),
            fold_diffs=[list(x) for x in d["fold_diffs"]],
            n_records=list(d["n_records"]),
            warnings=list(d.get("warnings", [])),
        )


def period_stratified_improvement(report_a: FoldReport, report_b: FoldReport,
                                  dataset: SurvivalDataset, thresholds) -> PeriodBucketReport:
    """How the C-index advantage of model a over model b depends on how long
    records were observed.

    Both reports must come from the same fold partition of the same dataset.
    For each threshold, each fold is re-scored on the records whose period
    (last minus first observation time) is at least the threshold; buckets
    where no fold has an admissible pair are omitted with a warning.
    """
    thresholds = [float(t) for t in thresholds]
    if any(b <= a for a, b in zip(thresholds, thresholds[1:])):
        raise ValidationError("thresholds must be strictly increasing")
    if [list(f) for f in report_a.test_indices] != [list(f) for f in report_b.test_indices]:
        raise ValidationError("reports were built on different fold partitions")

    times = dataset.event_times()
    censored = dataset.censor_mask()
    periods = dataset.periods()

    kept_thresholds, kept_diffs, kept_counts, warnings = [], [], [], []
    for tau in thresholds:
        diffs = []
        count = 0
        for fold_idx, pa, pb in zip(
            report_a.test_indices, report_a.predictions, report_b.predictions
        ):
            fold_idx = np.asarray(fold_idx, dtype=int)
            keep = periods[fold_idx] >= tau
            sel = fold_idx[keep]
            count += int(keep.sum())
            if keep.sum() < 2:
                continue
            try:
                ca = c_index(np.asarray(pa)[keep], times[sel], censored[sel])
                cb = c_index(np.asarray(pb)[keep], times[sel], censored[sel])
            except UndefinedResultError:
                continue
            diffs.append(ca - cb)
        if diffs:
            kept_thresholds.append(tau)
            kept_diffs.append(diffs)
            kept_counts.append(count)
        else:
            warnings.append(
                f"threshold {tau}: no fold had admissible pairs; bucket omitted"
            )
    return PeriodBucketReport(
        model_a=report_a.model,
        model_b=report_b.model,
        thresholds=kept_thresholds,
        fold_diffs=kept_diffs,
        n_records=kept_counts,
        warnings=warnings,
    )
