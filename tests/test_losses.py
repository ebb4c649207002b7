"""Squared and combined losses against exhaustive-pair oracles."""

import numpy as np
import pytest

from staytime import ValidationError
from staytime.training import (
    admissible_pairs,
    combined_loss,
    has_admissible_pair,
    squared_loss,
)

LN2 = 0.6931471805599453


def combined_oracle(preds, times, censored):
    """Direct transcription with explicit loops over every pair."""
    unc = [i for i in range(len(preds)) if not censored[i]]
    sq = (
        sum((times[i] - preds[i]) ** 2 for i in unc) / len(unc) if unc else 0.0
    )
    pairs = [
        (n, l)
        for n in range(len(preds))
        for l in range(len(preds))
        if not censored[n] and times[n] < times[l]
    ]
    rank = 0.0
    for n, l in pairs:
        m = preds[l] - preds[n]
        rank += -np.log(1.0 / (1.0 + np.exp(-m)))
    if pairs:
        rank /= len(pairs)
    return sq + rank, len(pairs)


class TestSquaredLoss:
    def test_worked_example(self):
        loss, grad = squared_loss(np.array([0.0]), np.array([2.0]))
        assert loss == 4.0
        np.testing.assert_array_equal(grad, [-4.0])

    def test_matches_mean_and_gradient(self):
        rng = np.random.default_rng(0)
        preds = rng.normal(size=32)
        times = rng.normal(size=32)
        loss, grad = squared_loss(preds, times)
        assert loss == pytest.approx(np.mean((preds - times) ** 2), rel=1e-15)
        np.testing.assert_allclose(grad, 2 * (preds - times) / 32, rtol=1e-15)

    def test_gradient_against_finite_differences(self):
        rng = np.random.default_rng(1)
        preds = rng.normal(size=10)
        times = rng.normal(size=10)
        _, grad = squared_loss(preds, times)
        eps = 1e-6
        for i in range(10):
            up, down = preds.copy(), preds.copy()
            up[i] += eps
            down[i] -= eps
            numeric = (squared_loss(up, times)[0] - squared_loss(down, times)[0]) / (2 * eps)
            assert grad[i] == pytest.approx(numeric, rel=1e-6, abs=1e-10)

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValidationError):
            squared_loss(np.zeros(3), np.zeros(4))


class TestCombinedLoss:
    def test_single_tied_pair_costs_ln_two_exactly(self):
        preds = np.array([1.0, 1.0])
        times = np.array([1.0, 2.0])
        censored = np.array([False, True])
        loss, _ = combined_loss(preds, times, censored)
        # censored record contributes no squared term; the tied pair is ln 2
        assert loss == (1.0 - 1.0) ** 2 / 1 + LN2
        assert loss == pytest.approx(0.6931471805599453, abs=0)

    def test_matches_exhaustive_oracle(self):
        rng = np.random.default_rng(2)
        for _ in range(50):
            n = int(rng.integers(2, 40))
            preds = rng.normal(size=n)
            times = rng.uniform(0.5, 5.0, size=n)
            censored = rng.random(n) < 0.3
            loss, _ = combined_loss(preds, times, censored)
            expected, _ = combined_oracle(preds, times, censored)
            assert loss == pytest.approx(expected, abs=1e-12)

    def test_no_pairs_means_ranking_term_zero(self):
        preds = np.array([3.0, 1.0])
        times = np.array([2.0, 2.0])  # tied times: no admissible pair
        censored = np.array([False, False])
        loss, grad = combined_loss(preds, times, censored)
        sq = ((2.0 - 3.0) ** 2 + (2.0 - 1.0) ** 2) / 2
        assert loss == sq
        n_idx, _ = admissible_pairs(times, censored)
        assert n_idx.size == 0

    def test_all_censored_batch(self):
        preds = np.array([1.0, 2.0])
        times = np.array([1.0, 2.0])
        censored = np.array([True, True])
        loss, grad = combined_loss(preds, times, censored)
        assert loss == 0.0
        np.testing.assert_array_equal(grad, np.zeros(2))

    def test_censored_records_enter_only_as_later_pair_member(self):
        times = np.array([1.0, 2.0, 3.0])
        censored = np.array([False, False, True])
        n_idx, l_idx = admissible_pairs(times, censored)
        pairs = set(zip(n_idx.tolist(), l_idx.tolist()))
        # record 2 is censored: it may appear as the later member but never
        # as the earlier one
        assert pairs == {(0, 1), (0, 2), (1, 2)}
        assert all(not censored[n] for n in n_idx)

    def test_pairless_predicate_matches_pair_mask(self):
        rng = np.random.default_rng(4)
        batches = [
            (np.array([1.0, 2.0]), np.array([True, True])),
            (np.full(5, 2.0), np.zeros(5, bool)),
            (np.array([3.0]), np.array([False])),
        ]
        for _ in range(500):
            b = int(rng.integers(1, 12))
            times = rng.uniform(0.5, 3.0, size=b).round(int(rng.integers(0, 2)))
            censored = rng.random(b) < rng.choice([0.0, 0.3, 0.8, 1.0])
            batches.append((times, censored))
        for times, censored in batches:
            expected = admissible_pairs(times, censored)[0].size > 0
            assert has_admissible_pair(times, censored) == expected

    def test_gradient_against_finite_differences(self):
        rng = np.random.default_rng(3)
        preds = rng.normal(size=12)
        times = rng.uniform(0.5, 4.0, size=12)
        censored = rng.random(12) < 0.25
        _, grad = combined_loss(preds, times, censored)
        eps = 1e-6
        for i in range(12):
            up, down = preds.copy(), preds.copy()
            up[i] += eps
            down[i] -= eps
            numeric = (
                combined_loss(up, times, censored)[0]
                - combined_loss(down, times, censored)[0]
            ) / (2 * eps)
            assert grad[i] == pytest.approx(numeric, rel=1e-5, abs=1e-9)

    def test_widening_a_concordant_margin_lowers_the_ranking_term(self):
        # correctly ordered pairs: pushing the later record's prediction up
        # must strictly decrease the loss (squared term frozen by matching times)
        times = np.array([1.0, 2.0, 3.0])
        censored = np.array([False, False, False])
        preds = times.copy()
        base, _ = combined_loss(preds, times, censored)
        widened = preds.copy()
        widened[2] = 3.5
        wide, _ = combined_loss(widened, times, censored)
        sq_base = np.mean((times - preds) ** 2)
        sq_wide = np.mean((times - widened) ** 2)
        assert (wide - sq_wide) < (base - sq_base)

    def test_discordant_order_costs_more_than_concordant(self):
        times = np.array([1.0, 2.0])
        censored = np.array([False, False])
        good, _ = combined_loss(np.array([1.0, 2.0]), times, censored)
        bad, _ = combined_loss(np.array([2.0, 1.0]), times, censored)
        assert bad > good
