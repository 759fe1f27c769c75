"""Ranking and regression metrics against brute-force oracles."""

import math
import sys
from pathlib import Path

import numpy as np
import pytest

from molscreen.metrics import (
    MetricError,
    concordance_index,
    mse,
    pchembl,
    pearson,
    rank_best_first,
    recall_at,
)

sys.path.insert(0, str(Path(__file__).parent))
from helpers import traced_peak  # noqa: E402


# ---------------------------------------------------------------- oracles


def recall_oracle(true, pred, direction, k, p):
    """Full sort + set intersection, ties broken by original index."""
    n = len(true)
    sign = 1.0 if direction == "lower_is_better" else -1.0
    true_rank = sorted(range(n), key=lambda i: (sign * true[i], i))
    pred_rank = sorted(range(n), key=lambda i: (sign * pred[i], i))
    cut = math.ceil(p * n)
    true_hits = set(true_rank[:k])
    pred_hits = set(pred_rank[:cut])
    return len(true_hits & pred_hits) / k


def ci_oracle(y, yhat):
    """Literal double loop over ordered pairs."""
    num = den = 0
    n = len(y)
    for a in range(n):
        for b in range(n):
            if y[a] > y[b]:
                den += 1
                if yhat[a] > yhat[b]:
                    num += 1
    return num / den


def ci_matrix_oracle(y, yhat):
    """The former implementation: two n-by-n boolean pair matrices."""
    y, yhat = np.asarray(y, dtype=float), np.asarray(yhat, dtype=float)
    true_greater = y[:, None] > y[None, :]
    return int(np.sum(true_greater & (yhat[:, None] > yhat[None, :]))) / int(
        true_greater.sum()
    )


# ---------------------------------------------------------------- pchembl


class TestPchembl:
    def test_ten_micromolar_is_exactly_five(self):
        assert pchembl(1e-5) == 5.0

    def test_one_molar_is_zero(self):
        assert pchembl(1.0) == 0.0

    def test_nanomolar(self):
        assert pchembl(1e-9) == 9.0

    def test_nonpositive_rejected(self):
        with pytest.raises(MetricError):
            pchembl(0.0)
        with pytest.raises(MetricError):
            pchembl(-1e-6)

    def test_array_input(self):
        out = pchembl(np.array([1e-5, 1e-6]))
        np.testing.assert_array_equal(out, [5.0, 6.0])


# ---------------------------------------------------------------- pearson/mse


class TestPearsonMse:
    def test_affine_gives_perfect_correlation(self):
        y = np.array([1.0, 2.0, 5.0, -3.0])
        assert pearson(y, 2 * y + 1) == pytest.approx(1.0, abs=1e-12)

    def test_mse_zero_on_equal(self):
        y = np.array([1.0, 2.0, 3.0])
        assert mse(y, y) == 0.0

    def test_two_point_hand_example(self):
        y = np.array([0.0, 1.0])
        yhat = np.array([1.0, 0.0])
        assert pearson(y, yhat) == pytest.approx(-1.0, abs=1e-12)
        assert mse(y, yhat) == 1.0

    def test_zero_variance_rejected(self):
        with pytest.raises(MetricError):
            pearson(np.array([1.0, 1.0]), np.array([1.0, 2.0]))
        with pytest.raises(MetricError):
            pearson(np.array([1.0, 2.0]), np.array([3.0, 3.0]))

    def test_too_few_samples(self):
        with pytest.raises(MetricError):
            pearson(np.array([1.0]), np.array([1.0]))
        with pytest.raises(MetricError):
            mse(np.array([1.0]), np.array([2.0]))

    def test_matches_numpy_corrcoef(self):
        rng = np.random.default_rng(0)
        for _ in range(200):
            n = int(rng.integers(2, 40))
            y = rng.normal(size=n)
            yhat = rng.normal(size=n)
            expected = np.corrcoef(y, yhat)[0, 1]
            assert pearson(y, yhat) == pytest.approx(expected, abs=1e-12)

    def test_affine_invariance_property(self):
        rng = np.random.default_rng(1)
        y = rng.normal(size=30)
        yhat = rng.normal(size=30)
        base = pearson(y, yhat)
        assert pearson(3.0 * y + 2.0, yhat) == pytest.approx(base, abs=1e-12)
        assert pearson(y, 0.5 * yhat - 7.0) == pytest.approx(base, abs=1e-12)

    def test_non_finite_rejected(self):
        with pytest.raises(MetricError):
            mse(np.array([1.0, np.nan]), np.array([1.0, 2.0]))


# ---------------------------------------------------------------- CI


class TestConcordanceIndex:
    def test_perfect(self):
        assert concordance_index([1, 2, 3], [1, 2, 3]) == 1.0

    def test_reversed(self):
        assert concordance_index([1, 2, 3], [3, 2, 1]) == 0.0

    def test_hand_two_thirds(self):
        assert concordance_index([1, 2, 3], [2, 1, 3]) == pytest.approx(2 / 3)

    def test_tied_predictions_get_no_credit(self):
        # both ordered pairs have tied predictions -> 0
        assert concordance_index([1, 2, 3], [5, 5, 5]) == 0.0

    def test_all_true_equal_rejected(self):
        with pytest.raises(MetricError):
            concordance_index([2, 2, 2], [1, 2, 3])

    def test_too_few_samples(self):
        with pytest.raises(MetricError):
            concordance_index([1.0], [1.0])

    def test_matches_pair_enumeration(self):
        rng = np.random.default_rng(2)
        for _ in range(300):
            n = int(rng.integers(2, 25))
            y = rng.integers(0, 6, size=n).astype(float)  # ties likely
            if np.all(y == y[0]):
                continue
            yhat = rng.integers(0, 6, size=n).astype(float)
            assert concordance_index(y, yhat) == ci_oracle(y, yhat)

    def test_matches_pair_matrices(self):
        # sizes across several merge passes, ties in y, in yhat and in both,
        # continuous values, and signed zeros (equal under >)
        rng = np.random.default_rng(5)
        for _ in range(300):
            n = int(rng.integers(2, 400))
            levels = int(rng.integers(1, 2 * n))
            y = rng.integers(0, max(levels, 2), size=n).astype(float)
            yhat = rng.integers(0, levels, size=n).astype(float)
            if rng.random() < 0.3:
                yhat = rng.normal(size=n)
            yhat[yhat == 0.0] *= rng.choice([-1.0, 1.0], size=int(np.sum(yhat == 0.0)))
            if np.all(y == y[0]):
                continue
            assert concordance_index(y, yhat) == ci_matrix_oracle(y, yhat)

    def test_large_input_without_pair_matrices(self):
        rng = np.random.default_rng(9)
        n = 100_000
        y = rng.normal(size=n)
        yhat = y + rng.normal(size=n)
        value, peak, _ = traced_peak(lambda: concordance_index(y, yhat))
        # one n-by-n boolean matrix alone would be 10 GB
        assert peak < 50 * n * 8
        assert 0.6 < value < 0.9


# ---------------------------------------------------------------- recall


class TestRecallAt:
    def test_perfect_ranking(self):
        true = np.arange(10.0)
        assert recall_at(true, true.copy(), "lower_is_better", 3, 0.5) == 1.0

    def test_disjoint_is_zero(self):
        true = np.arange(10.0)
        pred = -true  # reverses the ranking
        assert recall_at(true, pred, "lower_is_better", 3, 0.3) == 0.0

    def test_hand_two_of_three(self):
        # true ascending 1..10 (lower better): true hits {0,1,2}; predictions
        # put indices {0,1,3,4,5} into the top-5 cut (p=0.5 -> ceil(5))
        true = np.arange(1.0, 11.0)
        pred = np.array([0.1, 0.2, 9.9, 0.3, 0.4, 0.5, 0.6, 7.0, 8.0, 9.0])
        assert recall_at(true, pred, "lower_is_better", 3, 0.5) == pytest.approx(2 / 3)

    def test_higher_is_better_direction(self):
        true = np.arange(10.0)  # higher better: hits {7,8,9}
        pred = true.copy()
        assert recall_at(true, pred, "higher_is_better", 3, 0.3) == 1.0

    def test_stable_tie_break_by_index(self):
        true = np.array([1.0, 1.0, 1.0, 2.0])
        pred = np.array([5.0, 5.0, 5.0, 5.0])
        # all predictions tied: predicted hits are the first ceil(2)=2 indices
        assert recall_at(true, pred, "lower_is_better", 2, 0.5) == 1.0

    def test_k_bounds_validated(self):
        true = np.arange(5.0)
        with pytest.raises(MetricError):
            recall_at(true, true, "lower_is_better", 6, 0.5)
        with pytest.raises(MetricError):
            recall_at(true, true, "lower_is_better", 0, 0.5)
        with pytest.raises(MetricError):
            recall_at(true, true, "lower_is_better", 2, 1.0)

    def test_nan_rejected(self):
        true = np.array([1.0, np.nan, 3.0])
        with pytest.raises(MetricError):
            recall_at(true, true, "lower_is_better", 1, 0.5)

    def test_matches_oracle(self):
        rng = np.random.default_rng(3)
        for _ in range(300):
            n = int(rng.integers(2, 60))
            true = rng.normal(size=n)
            pred = np.round(rng.normal(size=n), 1)  # rounded -> ties occur
            k = int(rng.integers(1, n + 1))
            p = float(rng.uniform(0.05, 0.95))
            direction = ["lower_is_better", "higher_is_better"][int(rng.integers(2))]
            assert recall_at(true, pred, direction, k, p) == recall_oracle(
                true, pred, direction, k, p
            )

    def test_monotone_transform_invariance(self):
        rng = np.random.default_rng(4)
        true = rng.normal(size=40)
        pred = rng.normal(size=40)
        base = recall_at(true, pred, "lower_is_better", 5, 0.2)
        warped = recall_at(true, np.exp(pred) * 3.0, "lower_is_better", 5, 0.2)
        assert warped == base


class TestRankBestFirst:
    def test_unknown_direction_rejected(self):
        with pytest.raises(MetricError, match="hit direction must be one of"):
            rank_best_first(np.array([1.0, 2.0]), "lower_is_beter")

    def test_recall_checks_direction(self):
        true = np.arange(5.0)
        with pytest.raises(MetricError, match="hit direction must be one of"):
            recall_at(true, true, "lower_is_beter", 2, 0.5)
