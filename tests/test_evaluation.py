"""Concordance scoring, cross-validation folds, and period-bucketed comparison."""

import json
import multiprocessing
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import staytime
from staytime import DivergenceError, UndefinedResultError, ValidationError
from staytime import evaluation
from staytime.evaluation import (
    FitJob,
    _DIRECT_COUNT_MAX,
    _pair_counts,
    c_index,
    cross_validate,
    default_grid,
    default_jobs,
    first_best,
    fit_cost,
    fold_assignments,
    kfold_cv,
    period_stratified_improvement,
    run_jobs,
    usable_cpus,
)
from staytime.training import TrainConfig, split_validation

from test_training import tiny_config, toy_dataset


def c_index_oracle(preds, times, censored):
    """Pure-Python pair loop, the definition taken literally."""
    n = len(preds)
    num, den = 0.0, 0
    for a in range(n):
        for b in range(n):
            if censored[a] or times[a] >= times[b]:
                continue
            den += 1
            if preds[a] < preds[b]:
                num += 1.0
            elif preds[a] == preds[b]:
                num += 0.5
    if den == 0:
        raise UndefinedResultError("no pairs")
    return num / den


def pair_count_oracle(preds, times, censored):
    """(concordant, tied, admissible) from the full N x N admissible-pair
    mask: quadratic memory, fine for a few thousand records."""
    earlier = times[:, None] < times[None, :]
    earlier &= ~censored[:, None]
    diff = preds[None, :] - preds[:, None]
    return (
        int(np.count_nonzero(earlier & (diff > 0))),
        int(np.count_nonzero(earlier & (diff == 0))),
        int(np.count_nonzero(earlier)),
    )


def random_case(rng, n, censor_rate):
    """Predictions and times rounded so both tie often, at a random scale."""
    preds = rng.normal(size=n).round(int(rng.integers(0, 3)))
    times = rng.uniform(0.5, 3.0, size=n).round(int(rng.integers(1, 4)))
    censored = rng.random(n) < censor_rate
    return preds, times, censored


class TestCIndex:
    def test_perfect_ordering_scores_one(self):
        times = np.array([1.0, 2.0, 3.0, 4.0])
        assert c_index(times, times) == 1.0

    def test_reversed_ordering_scores_zero(self):
        times = np.array([1.0, 2.0, 3.0])
        assert c_index(-times, times) == 0.0

    def test_all_tied_predictions_score_half(self):
        times = np.array([1.0, 2.0, 3.0])
        assert c_index(np.zeros(3), times) == 0.5

    def test_worked_example_with_censoring(self):
        # pairs: (0,1) concordant, (0,2) tied pred, record 1 censored so
        # (1,2) is inadmissible; score = (1 + 0.5) / 2
        preds = np.array([1.0, 5.0, 1.0])
        times = np.array([1.0, 2.0, 3.0])
        censored = np.array([False, True, False])
        assert c_index(preds, times, censored) == 0.75

    def test_matches_loop_oracle_exactly(self):
        rng = np.random.default_rng(8)
        for _ in range(60):
            n = int(rng.integers(2, 60))
            preds = rng.normal(size=n).round(1)  # rounding forces pred ties
            times = rng.uniform(0.5, 3.0, size=n).round(1)  # and time ties
            censored = rng.random(n) < 0.3
            try:
                expected = c_index_oracle(preds, times, censored)
            except UndefinedResultError:
                with pytest.raises(UndefinedResultError):
                    c_index(preds, times, censored)
                continue
            assert c_index(preds, times, censored) == expected

    def test_monotone_transform_invariance(self):
        rng = np.random.default_rng(9)
        preds = rng.normal(size=50)
        times = rng.uniform(1.0, 5.0, size=50)
        base = c_index(preds, times)
        assert c_index(np.exp(preds), times) == base
        assert c_index(3.0 * preds + 7.0, times) == base

    def test_negating_predictions_complements_score(self):
        rng = np.random.default_rng(10)
        preds = rng.normal(size=40)
        times = rng.uniform(1.0, 5.0, size=40)
        assert c_index(preds, times) + c_index(-preds, times) == pytest.approx(1.0, abs=1e-15)

    def test_fully_censored_input_is_undefined(self):
        with pytest.raises(UndefinedResultError):
            c_index(np.arange(3.0), np.arange(1.0, 4.0), np.ones(3, bool))

    def test_tied_times_alone_are_undefined(self):
        with pytest.raises(UndefinedResultError):
            c_index(np.arange(3.0), np.full(3, 2.0))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("arg", ["preds", "times"])
    def test_non_finite_input_rejected_by_name(self, arg, bad):
        values = {"preds": np.array([1.0, 2.0, 3.0]), "times": np.array([1.0, 2.0, 3.0])}
        values[arg][1] = bad
        with pytest.raises(ValidationError, match=arg):
            c_index(values["preds"], values["times"])


SIZES = sorted({2, 3, 5, 17, 64, 250, _DIRECT_COUNT_MAX - 1, _DIRECT_COUNT_MAX,
                _DIRECT_COUNT_MAX + 1, 1000, 3000})


class TestCIndexAtScale:
    @pytest.mark.parametrize("censor_rate", [0.0, 0.3, 1.0])
    def test_matches_matrix_oracle_exactly(self, censor_rate):
        rng = np.random.default_rng(int(censor_rate * 10) + 11)
        sizes = SIZES + [int(n) for n in rng.integers(2, 3000, size=6)]
        for n in sizes:
            preds, times, censored = random_case(rng, n, censor_rate)
            counts = pair_count_oracle(preds, times, censored)
            assert _pair_counts(preds, times, censored) == counts, n
            concordant, tied, pairs = counts
            if pairs == 0:
                with pytest.raises(UndefinedResultError):
                    c_index(preds, times, censored)
                continue
            expected = (concordant + 0.5 * tied) / pairs
            assert c_index(preds, times, censored) == expected, n
            perm = rng.permutation(n)
            assert c_index(preds[perm], times[perm], censored[perm]) == expected, n

    def test_sort_count_matches_direct_count_on_small_inputs(self, monkeypatch):
        rng = np.random.default_rng(12)
        cases = [random_case(rng, int(rng.integers(1, 80)), rng.choice([0.0, 0.3, 1.0]))
                 for _ in range(200)]
        cases.append((np.zeros(4), np.full(4, 2.0), np.zeros(4, bool)))
        direct = [_pair_counts(*case) for case in cases]
        monkeypatch.setattr(evaluation, "_DIRECT_COUNT_MAX", 0)
        assert [_pair_counts(*case) for case in cases] == direct

    def test_memory_stays_linear_at_100k_records(self):
        rng = np.random.default_rng(13)
        n = 100_000
        preds = rng.normal(size=n)
        times = rng.uniform(0.5, 3.0, size=n).round(3)
        censored = rng.random(n) < 0.3
        tracemalloc.start()
        try:
            score = c_index(preds, times, censored)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert 0.0 < score < 1.0
        assert peak < 32 * 2**20, f"peak {peak / 2**20:.1f} MiB"


class TestFoldAssignments:
    def test_folds_partition_indices(self):
        rng = np.random.default_rng(0)
        folds = fold_assignments(23, 5, rng)
        flat = np.concatenate(folds)
        assert sorted(flat.tolist()) == list(range(23))
        sizes = sorted(len(f) for f in folds)
        assert sizes == [4, 4, 5, 5, 5]

    def test_stratified_folds_spread_censoring(self):
        rng = np.random.default_rng(1)
        censored = np.array([True] * 10 + [False] * 40)
        folds = fold_assignments(50, 5, rng, censored=censored)
        for f in folds:
            assert censored[f].sum() == 2

    def test_too_many_folds_rejected(self):
        rng = np.random.default_rng(2)
        with pytest.raises(ValidationError):
            fold_assignments(3, 5, rng)
        with pytest.raises(ValidationError):
            fold_assignments(10, 1, rng)

    def test_folds_are_seed_deterministic(self):
        a = fold_assignments(20, 4, np.random.default_rng(3))
        b = fold_assignments(20, 4, np.random.default_rng(3))
        for fa, fb in zip(a, b):
            np.testing.assert_array_equal(fa, fb)


class TestPinnedPartitions:
    """The cross-validation folds and the validation split of one seed, as
    literal indices: drawing or cutting the censoring strata any other way
    moves records between the parts."""

    MASKS = {
        "mixed": [0, 1, 0, 0, 1, 0, 1, 0, 0, 0, 1, 0],
        "none": [0] * 12,
        "all": [1] * 12,
    }
    FOLDS = {
        "mixed": [[4, 8, 9, 10, 11], [0, 1, 2, 5], [3, 6, 7]],
        "none": [[1, 2, 8, 10], [4, 5, 6, 9], [0, 3, 7, 11]],
        "all": [[1, 2, 8, 10], [4, 5, 6, 9], [0, 3, 7, 11]],
    }
    SPLITS = {  # (train, validation)
        "mixed": ([0, 1, 2, 3, 4, 5, 6, 7, 9], [8, 10, 11]),
        "none": ([0, 1, 3, 4, 5, 6, 7, 9, 11], [2, 8, 10]),
        "all": ([0, 1, 3, 4, 5, 6, 7, 9, 11], [2, 8, 10]),
    }

    @pytest.mark.parametrize("case", sorted(MASKS))
    def test_indices_are_pinned(self, case):
        censored = np.array(self.MASKS[case], dtype=bool)
        folds = fold_assignments(12, 3, np.random.default_rng(11), censored)
        assert [f.tolist() for f in folds] == self.FOLDS[case]
        train, val = split_validation(12, censored, 0.25, np.random.default_rng(11))
        assert (train.tolist(), val.tolist()) == self.SPLITS[case]


class TestKFoldCV:
    def test_report_shape_and_determinism(self):
        data = toy_dataset(n=50)
        cfg = tiny_config("ctr-d", epochs=4)
        rep1 = kfold_cv(data, cfg, k=3)
        rep2 = kfold_cv(data, cfg, k=3)
        assert len(rep1.scores) == 3
        assert rep1.scores == rep2.scores
        assert all(0.0 <= s <= 1.0 for s in rep1.scores)
        assert rep1.mean == pytest.approx(np.mean(rep1.scores))
        assert rep1.stderr == pytest.approx(
            np.std(rep1.scores, ddof=1) / np.sqrt(3)
        )

    def test_fold_predictions_cover_dataset(self):
        data = toy_dataset(n=30)
        rep = kfold_cv(data, tiny_config("ctr-d", epochs=3), k=3)
        seen = np.concatenate(rep.test_indices)
        assert sorted(seen.tolist()) == list(range(30))
        for idx, preds in zip(rep.test_indices, rep.predictions):
            assert len(idx) == len(preds)

    def test_report_roundtrips_through_dict(self):
        data = toy_dataset(n=30)
        rep = kfold_cv(data, tiny_config("ctr-d", epochs=3), k=3)
        again = json.loads(json.dumps(rep.to_dict()))
        assert again == rep.to_dict()
        assert again["scores"] == rep.scores
        assert again["model"] == rep.model
        for a, b in zip(again["predictions"], rep.predictions):
            np.testing.assert_array_equal(a, b)


def untimed(report) -> dict:
    """A report's dict without wall_clock, the one field that varies by run."""
    out = report.to_dict()
    del out["wall_clock"]
    return out


class TestParallelJobs:
    """Every fit of a cross-validation is one job; where it runs does not
    change what it computes."""

    def test_reports_do_not_depend_on_jobs(self):
        data = toy_dataset(n=45)
        configs = [tiny_config("ctr-k", gamma_grid=(0.1, 1.0, 10.0), epochs=3),
                   tiny_config("ctr-n", epochs=3), tiny_config("static", epochs=3)]
        serial = cross_validate(data, configs, k=3, seed=2)
        parallel = cross_validate(data, configs, k=3, seed=2, jobs=2)
        for a, b in zip(serial, parallel):
            assert untimed(a) == untimed(b)
        assert multiprocessing.active_children() == []

    def test_slate_equals_one_kfold_cv_per_config(self):
        data = toy_dataset(n=30)
        configs = [tiny_config("ctr-d", epochs=3), tiny_config("ctr-k", epochs=3)]
        slate = cross_validate(data, configs, k=3, seed=1)
        for config, report in zip(configs, slate):
            alone = kfold_cv(data, config, k=3, seed=1)
            assert untimed(report) == untimed(alone)
            assert len(report.wall_clock) == 3

    def test_ties_keep_the_earliest_candidate(self, monkeypatch):
        assert first_best([0.5, 0.7, 0.7, 0.6]) == 1
        data = toy_dataset(n=30)
        # identical candidates score the same: the first must win every fold
        monkeypatch.setattr(evaluation, "default_grid",
                            lambda config: [{"patience": 4}, {"patience": 5}])
        rep = kfold_cv(data, tiny_config("ctr-d", epochs=3), k=3)
        assert rep.chosen == [{"patience": 4}] * 3

    def test_default_grid_searches_every_kernel_gamma(self):
        for model in ("ctr-d", "ctr-n", "static"):
            assert default_grid(tiny_config(model)) == [{}]
        config = tiny_config("ctr-k", gamma_grid=(0.1, 1.0), epochs=3)
        assert default_grid(config) == [{"gamma": 0.1}, {"gamma": 1.0}]
        rep = kfold_cv(toy_dataset(n=30), config, k=3)
        assert len(rep.chosen) == 3 and all(c in default_grid(config) for c in rep.chosen)

    def test_default_jobs_divide_the_cpus_by_the_blas_threads(self, monkeypatch):
        for var in ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS"):
            monkeypatch.delenv(var, raising=False)
        assert default_jobs() == 1  # OpenBLAS then runs one thread per CPU
        monkeypatch.setenv("OMP_NUM_THREADS", "1")
        assert default_jobs() == usable_cpus()
        monkeypatch.setenv("OPENBLAS_NUM_THREADS", str(usable_cpus()))
        assert default_jobs() == 1  # OpenBLAS reads its own variable first
        monkeypatch.setenv("OPENBLAS_NUM_THREADS", "64")
        assert default_jobs() == 1

    def test_longest_jobs_are_estimated_first(self):
        costs = {m: fit_cost(tiny_config(m, epochs=10)) for m in ("ctr-n", "ctr-k", "ctr-d")}
        assert costs["ctr-n"] > costs["ctr-k"] > costs["ctr-d"]
        assert fit_cost(tiny_config("ctr-d", epochs=20)) > costs["ctr-d"]

    def test_error_is_that_of_the_earliest_failing_job(self):
        """The long job fails after the short one; both runs raise its error,
        the one a serial run meets first."""
        data = toy_dataset(n=30)
        fold = np.arange(10)
        jobs = [FitJob(tiny_config("ctr-d", epochs=30, learning_rate=1e4), fold),
                FitJob(tiny_config("static", epochs=3, learning_rate=1e100), fold)]
        errors = []
        for workers in (1, 2):
            with pytest.raises(DivergenceError) as info:
                run_jobs(data, jobs, workers)
            errors.append(str(info.value))
        assert errors[0] == errors[1]
        assert "decay/raw" in errors[0]
        assert multiprocessing.active_children() == []

    def test_worker_dying_at_start_up_is_an_error_not_a_hang(self, tmp_path):
        """A script without a main guard makes every spawned worker rerun it
        and die at start-up, here with a dataset larger than a pipe buffer."""
        script = tmp_path / "unguarded.py"
        script.write_text(
            "from staytime import *\n"
            "d = generate(SynthConfig(seed=0, n_records=400)).dataset\n"
            "kfold_cv(d, TrainConfig(model='static', seed=0, epochs=2), k=2, jobs=2)\n")
        env = dict(os.environ, PYTHONPATH=str(Path(staytime.__file__).parents[1]))
        done = subprocess.run([sys.executable, str(script)], env=env, capture_output=True,
                              text=True, timeout=60)
        assert done.returncode != 0
        assert "WorkerError: a worker process died" in done.stderr

    def test_serial_runs_import_no_pool_machinery(self):
        """The pool's modules cost memory; only a parallel run imports them."""
        code = ("import sys; import staytime.cli; from staytime import *;"
                "d = generate(SynthConfig(seed=0, n_records=30, n_obs=4)).dataset;"
                "kfold_cv(d, TrainConfig(model='ctr-d', seed=0, epochs=2), k=2, jobs=1);"
                "print(sorted(m for m in sys.modules"
                " if m.startswith(('multiprocessing', 'concurrent'))))")
        env = dict(os.environ, PYTHONPATH=str(Path(staytime.__file__).parents[1]))
        out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                             capture_output=True, text=True).stdout
        assert out.strip() == "[]"


class TestPeriodBuckets:
    def test_identical_models_give_exactly_zero_differences(self):
        data = toy_dataset(n=40)
        cfg = tiny_config("ctr-d", epochs=3)
        rep = kfold_cv(data, cfg, k=3)
        report = period_stratified_improvement(rep, rep, data, thresholds=(0.0, 2.0))
        for diffs in report.fold_diffs:
            for d in diffs:
                assert d == 0.0

    def test_zero_threshold_matches_whole_fold_scores(self):
        # different configs, same cv seed: identical folds, comparable scores
        data = toy_dataset(n=40)
        cfg_a = tiny_config("ctr-d", epochs=3)
        cfg_b = tiny_config("ctr-d", epochs=3, seed=1)
        rep_a = kfold_cv(data, cfg_a, k=3)
        rep_b = kfold_cv(data, cfg_b, k=3)
        report = period_stratified_improvement(rep_a, rep_b, data, thresholds=(0.0,))
        diffs = report.fold_diffs[report.thresholds.index(0.0)]
        expected = [a - b for a, b in zip(rep_a.scores, rep_b.scores)]
        np.testing.assert_allclose(diffs, expected, atol=1e-15)

    def test_thresholds_must_increase(self):
        data = toy_dataset(n=30)
        rep = kfold_cv(data, tiny_config("ctr-d", epochs=3), k=3)
        with pytest.raises(ValidationError):
            period_stratified_improvement(rep, rep, data, thresholds=(1.0, 1.0))

    def test_mismatched_fold_partitions_rejected(self):
        data = toy_dataset(n=40)
        rep_a = kfold_cv(data, tiny_config("ctr-d", epochs=3), k=3, seed=0)
        rep_b = kfold_cv(data, tiny_config("ctr-d", epochs=3), k=3, seed=5)
        with pytest.raises(ValidationError):
            period_stratified_improvement(rep_a, rep_b, data, thresholds=(0.0,))

    def test_unreachable_threshold_is_omitted_with_warning(self):
        data = toy_dataset(n=40)
        rep = kfold_cv(data, tiny_config("ctr-d", epochs=3), k=3)
        report = period_stratified_improvement(rep, rep, data, thresholds=(0.0, 1e9))
        assert 1e9 not in report.thresholds
        assert report.warnings
