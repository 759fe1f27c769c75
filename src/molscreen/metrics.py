"""Screening and regression metrics.

Rankings honor a per-task hit direction: docking-style scores rank ascending
(lower is better), potency-style scores descending.  Ties are broken by
original index, so results are deterministic for any input.
"""

from __future__ import annotations

import math

import numpy as np

from .data import HIT_DIRECTIONS


class MetricError(ValueError):
    """Inputs violate a metric's preconditions."""


def _finite_vector(x, name: str) -> np.ndarray:
    arr = np.asarray(x, dtype=np.float64)
    if arr.ndim != 1:
        raise MetricError(f"{name} must be 1-d")
    if not np.all(np.isfinite(arr)):
        raise MetricError(f"{name} contains non-finite values")
    return arr


def pchembl(ic50_molar):
    """Negative base-10 log of a molar activity value (e.g. 1e-5 M -> 5.0)."""
    arr = np.asarray(ic50_molar, dtype=np.float64)
    if not np.all(np.isfinite(arr)) or np.any(arr <= 0.0):
        raise MetricError("activity values must be positive and finite")
    out = -np.log10(arr)
    return float(out) if np.isscalar(ic50_molar) or arr.ndim == 0 else out


def _paired(y, yhat) -> tuple[np.ndarray, np.ndarray]:
    """True and predicted values as finite 1-d vectors of one length, with
    at least 2 samples."""
    y = _finite_vector(y, "y")
    yhat = _finite_vector(yhat, "yhat")
    if y.shape != yhat.shape:
        raise MetricError("length mismatch")
    if y.size < 2:
        raise MetricError("need at least 2 samples")
    return y, yhat


def mse(y, yhat) -> float:
    y, yhat = _paired(y, yhat)
    return float(np.mean((y - yhat) ** 2))


def pearson(y, yhat) -> float:
    y, yhat = _paired(y, yhat)
    dy = y - y.mean()
    dz = yhat - yhat.mean()
    denom = math.sqrt(float(np.sum(dy * dy)) * float(np.sum(dz * dz)))
    if denom == 0.0:
        raise MetricError("zero variance")
    return float(np.sum(dy * dz)) / denom


def _ascending_pairs(ranks: np.ndarray) -> int:
    """Number of index pairs i < j with ranks[i] < ranks[j], counted by a
    bottom-up merge sort in O(n) memory.

    Each pass merges neighbouring sorted runs of ``width`` elements; an
    element of a right-hand run lands after exactly the left-hand elements
    smaller than it (ties sort right-hand first), and that count is summed.
    A pass is one stable argsort over all n keys, so the log2(n) passes
    take O(n log^2 n) time; the presorted runs cut the constant, not the
    order.
    """
    n = ranks.size
    position = np.arange(n)
    runs = ranks.astype(np.int64)
    total = 0
    width = 1
    while width < n:
        block = position // (2 * width)
        from_right = (position // width) % 2
        keys = (block * n + runs) * 2 + (1 - from_right)
        order = np.argsort(keys, kind="stable")
        moved_right = from_right[order] == 1
        # merged index minus original index, plus width: left elements passed
        total += int(np.sum(position[moved_right] - order[moved_right] + width))
        runs = runs[order]
        width *= 2
    return total


def concordance_index(y, yhat) -> float:
    """Fraction of strictly ordered true pairs whose predictions are ordered
    the same way; tied predictions earn no credit."""
    y, yhat = _paired(y, yhat)
    n = y.size
    _, ties = np.unique(y, return_counts=True)
    denom = n * (n - 1) // 2 - int(np.sum(ties * (ties - 1) // 2))
    if denom == 0:
        raise MetricError("all true values are equal")
    pred_rank = np.unique(yhat, return_inverse=True)[1].reshape(-1)
    # by true value, ties in y by descending prediction so they never count
    order = np.lexsort((-pred_rank, y))
    return _ascending_pairs(pred_rank[order]) / denom


def rank_best_first(scores, hit_direction: str) -> np.ndarray:
    """Indices sorted best-score-first with stable index tie-breaks."""
    if hit_direction not in HIT_DIRECTIONS:
        raise MetricError(f"hit direction must be one of {HIT_DIRECTIONS}")
    scores = np.asarray(scores, dtype=np.float64)
    if hit_direction == "lower_is_better":
        return np.argsort(scores, kind="stable")
    return np.argsort(-scores, kind="stable")


def recall_at(
    true_scores, predicted_scores, hit_direction: str, k: int, cutoff_fraction: float
) -> float:
    """Fraction of the k best-by-true-score compounds recovered inside the
    top ceil(cutoff_fraction * n) predictions."""
    true_scores = _finite_vector(true_scores, "true_scores")
    predicted_scores = _finite_vector(predicted_scores, "predicted_scores")
    n = true_scores.size
    if predicted_scores.size != n:
        raise MetricError("score length mismatch")
    if not 0 < k <= n:
        raise MetricError(f"k={k} out of range for n={n}")
    if not 0.0 < cutoff_fraction < 1.0:
        raise MetricError("cutoff_fraction must be in (0, 1)")
    cut = math.ceil(cutoff_fraction * n)
    true_hits = set(rank_best_first(true_scores, hit_direction)[:k])
    predicted = set(rank_best_first(predicted_scores, hit_direction)[:cut])
    return len(true_hits & predicted) / k
