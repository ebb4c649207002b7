"""Concordance scoring, cross-validated evaluation, and stratified comparison.

The C-index here follows the usual survival convention: a pair is admissible
when one record's event was observed strictly before the other record's
(possibly censored) time, and the pair counts as concordant when the earlier
event also got the smaller prediction.  Tied predictions count half; records
tied on time are not compared at all.
"""

from __future__ import annotations

import os
import pickle
import tempfile
import time as _time
from dataclasses import dataclass, field, replace

import numpy as np

from .errors import ConfigurationError, UndefinedResultError, ValidationError, WorkerError
from .sequences import SurvivalDataset, as_float_array
from .training import TrainConfig, _fits, require_count, shuffled_strata, train_model

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


def fold_assignments(n: int, k: int, rng, censored=None):
    """Shuffle indices and cut them into k contiguous folds.

    Censored and uncensored records are shuffled and cut separately (see
    shuffled_strata), then merged per fold, so every fold keeps roughly the
    overall censoring rate.
    """
    if k < 2:
        raise ValidationError("cross-validation needs at least 2 folds")
    if n < k:
        raise ValidationError(f"cannot cut {n} records into {k} folds")
    folds = [[] for _ in range(k)]
    for shuffled in shuffled_strata(n, censored, rng):
        for i, chunk in enumerate(np.array_split(shuffled, k)):
            folds[i].append(chunk)
    return [np.sort(np.concatenate(f)).astype(int) for f in folds]


def _stderr(values) -> float:
    """Standard error of the mean of values; 0.0 for fewer than two."""
    if len(values) < 2:
        return 0.0
    return float(np.std(values, ddof=1) / np.sqrt(len(values)))


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
        return _stderr(self._valid_scores())

    def to_dict(self) -> dict:
        return {
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
            "wall_clock": [float(t) for t in self.wall_clock],
        }


def kfold_cv(dataset: SurvivalDataset, config, k: int = 5, seed: int = 0,
             jobs: int = 1) -> FoldReport:
    """k-fold cross-validation with a per-fold search of default_grid(config).

    The fold partition is drawn from `seed` alone, independent of the training
    config, so two different configs evaluated with the same seed land on
    identical folds and can be compared record for record.  Each fold's
    training portion is searched (validation split handled inside
    train_model); the winning model is scored on the held-out fold.  A fold
    without a single admissible pair gets a None score and a warning instead
    of a made-up number.  The folds are stratified by censoring whenever
    any record is censored.  jobs is the number of worker processes (see
    run_jobs); the report does not depend on it.
    """
    return cross_validate(dataset, [config], k, seed, jobs)[0]


def cross_validate(dataset: SurvivalDataset, configs: list, k: int = 5, seed: int = 0,
                   jobs: int = 1) -> list:
    """kfold_cv of every config on one fold partition, as one job list.

    Each config searches only its own default_grid, so a report's config, k
    and seed describe the whole run.  The folds are stratified by censoring
    whenever any record is censored.  There is one job per (config, fold,
    grid candidate), and all of them go to one run_jobs call, which returns
    the results in job order however the jobs ran.  They are merged in
    config, fold and grid order, and a fold keeps its earliest best
    candidate, so the FoldReports are the same for every jobs value (except
    wall_clock, each fold's summed job seconds).
    """
    if not _fits(k, int):
        raise ConfigurationError(f"k must be an integer, got {k!r}")
    require_count("jobs", jobs, 1)
    require_count("fold seed", seed, 0)
    times = dataset.event_times()
    censored = dataset.censor_mask()
    rng = np.random.default_rng(np.random.SeedSequence([seed, k]))
    folds = fold_assignments(len(dataset), k, rng, censored)
    searches = [default_grid(config) for config in configs]

    fit_jobs = [FitJob(replace(config, **overrides), fold)
                for config, grid in zip(configs, searches)
                for fold in folds for overrides in grid]
    results = iter(run_jobs(dataset, fit_jobs, jobs))

    reports = []
    for config, grid in zip(configs, searches):
        scores, chosen, walls, test_idx_out, preds_out, warnings = [], [], [], [], [], []
        for j, fold in enumerate(folds):
            fits = [next(results) for _ in grid]
            best = first_best([f.score for f in fits])
            preds = fits[best].predictions
            try:
                scores.append(float(c_index(preds, times[fold], censored[fold])))
            except UndefinedResultError:
                scores.append(None)
                warnings.append(f"fold {j}: no admissible pairs, excluded from aggregation")
            chosen.append(dict(grid[best]))
            walls.append(sum(f.seconds for f in fits))
            test_idx_out.append([int(i) for i in fold])
            preds_out.append([float(p) for p in preds])
        if not any(s is not None for s in scores):
            raise UndefinedResultError("every fold lacked admissible pairs")
        reports.append(FoldReport(
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
        ))
    return reports


def default_grid(config: TrainConfig) -> list:
    """The field overrides each fold of config's cross-validation searches:
    one per gamma_grid entry for CTR-K, else the config alone."""
    if config.model == "ctr-k":
        return [{"gamma": g} for g in config.gamma_grid]
    return [{}]


def first_best(scores) -> int:
    """Index of the highest score; ties go to the earliest."""
    return scores.index(max(scores))


@dataclass(frozen=True)
class FitJob:
    """One train_model call: fit `config` on every record outside `test` and
    predict the records in `test`."""

    config: TrainConfig
    test: np.ndarray


@dataclass(frozen=True)
class FitResult:
    """What a job sends back: never the model, whose parameter arrays are
    views into one flat vector that pickling would not keep."""

    score: float                     # the fit's best validation C-index
    predictions: np.ndarray          # on the job's test records
    seconds: float                   # the job's wall time, where it ran


def fit_job(dataset: SurvivalDataset, job: FitJob) -> FitResult:
    """Run one job on dataset."""
    t0 = _time.perf_counter()
    keep = np.ones(len(dataset), dtype=bool)
    keep[job.test] = False
    model = train_model(dataset.subset(np.flatnonzero(keep)), job.config)
    preds = model.predict(dataset.subset(job.test))
    return FitResult(model.best_val_score, preds, _time.perf_counter() - t0)


# A worker's dataset, read once by the pool initializer.
_worker_dataset = None


def _load_dataset(path) -> None:
    """The pool initializer: read the dataset run_jobs pickled to path."""
    global _worker_dataset
    with open(path, "rb") as fh:
        _worker_dataset = pickle.load(fh)


def _run_job(job: FitJob) -> FitResult:
    """A worker's entry point: one job on its dataset."""
    return fit_job(_worker_dataset, job)


# Relative cost of one training epoch by model kind, as measured on the
# bench slate; run_jobs only needs the order it gives.
_EPOCH_COST = {"static": 1.0, "ctr-d": 1.0, "ctr-k": 2.0, "ctr-n": 8.0}


def fit_cost(config: TrainConfig) -> float:
    """Estimated relative run time of one fit, from its config alone: the
    epoch cap times a per-kind epoch cost, CTR-N's state network the
    dearest."""
    return config.epochs * _EPOCH_COST[config.model]


def usable_cpus() -> int:
    """How many CPUs this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no sched_getaffinity on this platform
        return os.cpu_count() or 1


# where OpenBLAS reads its thread count, first match wins; unset, it runs
# one thread per CPU
_BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS")


def default_jobs() -> int:
    """Worker processes that fill the usable CPUs without oversubscribing
    them: the CPUs divided by the BLAS threads each process runs.  Two
    workers of two BLAS threads each on two CPUs run slower than one."""
    for var in _BLAS_THREAD_VARS:
        value = os.environ.get(var, "").strip()
        if value.isdigit() and int(value) > 0:
            return max(1, usable_cpus() // int(value))
    return 1


def run_jobs(dataset: SurvivalDataset, jobs: list, workers: int = 1) -> list:
    """The FitResult of every job, in job order.

    workers=1 runs the jobs here, one after another, through fit_job.  More
    run them through the same fit_job in that many spawn-start worker
    processes (never more than there are jobs), longest first by fit_cost
    (LPT scheduling, Graham 1969).  Each worker reads the dataset once and
    inherits this process's environment, BLAS thread count included, so
    every job computes the same bits wherever it runs.  The results are
    awaited in job order, so if jobs fail, the error raised is that of the
    earliest failing job in job order, the one a serial run would raise.
    """
    workers = min(workers, len(jobs))
    if workers <= 1:
        return [fit_job(dataset, job) for job in jobs]
    return _run_pool(dataset, jobs, workers)


def _run_pool(dataset, jobs, workers) -> list:
    # imported here: the serial paths need neither module, nor their memory
    import multiprocessing
    from concurrent.futures import ProcessPoolExecutor
    from concurrent.futures.process import BrokenProcessPool

    # Workers read the dataset from a file.  Passed as an initializer
    # argument, it would travel in the pipe that starts each worker, and a
    # worker dying before it had read the pipe empty would block the start
    # forever.
    with tempfile.TemporaryDirectory(prefix="staytime-") as tmp:
        path = os.path.join(tmp, "dataset.pickle")
        with open(path, "wb") as fh:
            pickle.dump(dataset, fh, protocol=pickle.HIGHEST_PROTOCOL)
        try:
            with ProcessPoolExecutor(workers, mp_context=multiprocessing.get_context("spawn"),
                                     initializer=_load_dataset, initargs=(path,)) as pool:
                try:
                    return _gather(pool, jobs)
                except BaseException:
                    # drop the jobs not started, then wait out the workers
                    pool.shutdown(cancel_futures=True)
                    raise
        except BrokenProcessPool as exc:
            raise WorkerError(f"a worker process died: {exc}") from None


def _gather(pool, jobs) -> list:
    """Submit the jobs longest first and wait for their results in job
    order: the first error met is the earliest failing job's."""
    futures = [None] * len(jobs)
    # sorted is stable: equal estimates keep job order
    for i in sorted(range(len(jobs)), key=lambda i: -fit_cost(jobs[i].config)):
        futures[i] = pool.submit(_run_job, jobs[i])
    return [future.result() for future in futures]


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
        return [_stderr(d) for d in self.fold_diffs]

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
    if not all(map(np.isfinite, thresholds)):
        raise ValidationError(f"thresholds must be finite, got {thresholds}")
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
