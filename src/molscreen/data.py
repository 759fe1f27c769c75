"""Dataset container for multi-task molecular regression.

Labels live in a dense (n_compounds, n_tasks) float matrix where NaN marks an
unlabeled (compound, task) cell; by convention task 0 is the target of
interest and the remaining columns are auxiliary tasks.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass

import numpy as np

from .engine import rng_stream
from .featurize import FeaturizedGraph, featurize_smiles

HIT_DIRECTIONS = ("lower_is_better", "higher_is_better")


def _repeated(names: list[str]) -> list[str]:
    """The names that occur more than once, in order of first occurrence."""
    return [name for name, count in Counter(names).items() if count > 1]


def _is_int(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def _is_list_of(value, check) -> bool:
    return isinstance(value, list) and all(check(v) for v in value)


class DatasetError(ValueError):
    """The dataset violates a structural requirement."""


def check_tasks(task_names: list[str], hit_directions: list[str]) -> None:
    """The rule every task list keeps, in a dataset or a checkpoint: the
    names are distinct, and each task has one hit direction from
    ``HIT_DIRECTIONS``."""
    if len(hit_directions) != len(task_names):
        raise DatasetError("one hit direction per task required")
    repeated = _repeated(task_names)
    if repeated:
        raise DatasetError(f"task names repeat: {repeated}")
    for d in hit_directions:
        if d not in HIT_DIRECTIONS:
            raise DatasetError(f"hit direction {d!r} not in {HIT_DIRECTIONS}")


@dataclass
class TaskDataset:
    smiles: list[str]
    graphs: list[FeaturizedGraph]
    labels: np.ndarray  # (n_compounds, n_tasks), NaN = unlabeled
    task_names: list[str]
    hit_directions: list[str]

    def __post_init__(self):
        self.labels = np.asarray(self.labels, dtype=np.float64)
        if self.labels.ndim != 2:
            raise DatasetError("labels must be a 2-d matrix")
        n, t = self.labels.shape
        if len(self.smiles) != n or len(self.graphs) != n:
            raise DatasetError(
                f"{len(self.smiles)} SMILES / {len(self.graphs)} graphs "
                f"do not match {n} label rows"
            )
        if len(self.task_names) != t:
            raise DatasetError(f"{t} label columns need {t} task names")
        check_tasks(self.task_names, self.hit_directions)
        if np.isinf(self.labels).any():
            raise DatasetError("labels must be finite or NaN")
        if t == 0:
            raise DatasetError("dataset needs at least one task")
        unlabeled = ~self.label_mask.any(axis=1)
        if unlabeled.any():
            rows = np.flatnonzero(unlabeled)[:5].tolist()
            raise DatasetError(f"compounds with no label at rows {rows}")

    @property
    def n_compounds(self) -> int:
        return self.labels.shape[0]

    @property
    def n_tasks(self) -> int:
        return self.labels.shape[1]

    @property
    def label_mask(self) -> np.ndarray:
        return np.isfinite(self.labels)

    @classmethod
    def from_smiles(cls, smiles, labels, task_names, hit_directions) -> "TaskDataset":
        return cls(
            smiles=list(smiles),
            graphs=[featurize_smiles(s) for s in smiles],
            labels=labels,
            task_names=list(task_names),
            hit_directions=list(hit_directions),
        )

    def _take(self, rows, labels, task_indices=None) -> "TaskDataset":
        """A dataset of the compounds at ``rows``, with those rows of
        ``labels`` (a matrix over this dataset's compounds) and the tasks at
        ``task_indices`` (default: all)."""
        if task_indices is None:
            task_indices = range(self.n_tasks)
        return TaskDataset(
            smiles=[self.smiles[i] for i in rows],
            graphs=[self.graphs[i] for i in rows],
            labels=labels[rows],
            task_names=[self.task_names[t] for t in task_indices],
            hit_directions=[self.hit_directions[t] for t in task_indices],
        )

    def restrict_to_tasks(self, task_indices) -> "TaskDataset":
        """Keep the given label columns (in the given order) and only the
        compounds that carry at least one label among them."""
        task_indices = list(task_indices)
        for t in task_indices:
            if not 0 <= t < self.n_tasks:
                raise IndexError(f"unknown task index {t}")
        labels = self.labels[:, task_indices]
        keep = np.flatnonzero(np.isfinite(labels).any(axis=1))
        return self._take(keep, labels, task_indices)

    def subset(self, compound_indices) -> "TaskDataset":
        return self._take(list(compound_indices), self.labels)


def subsample_task_labels(
    ds: TaskDataset, limits: dict[int, int], seed: int
) -> TaskDataset:
    """Cap the label count of selected tasks.

    For each task index in ``limits`` with more labels than its cap, a uniform
    random subset of that size is kept (stream ``(seed, 4, task)``) and the
    rest become unlabeled; compounds left with no label at all are dropped.
    Tasks not mentioned are untouched.
    """
    labels = ds.labels.copy()
    for t, limit in limits.items():
        if not 0 <= t < ds.n_tasks:
            raise IndexError(f"unknown task index {t}")
        if limit < 1:
            raise ValueError(f"label cap for task {ds.task_names[t]!r} must be >= 1")
        rows = np.flatnonzero(np.isfinite(labels[:, t]))
        if rows.size > limit:
            perm = rng_stream(seed, 4, t).permutation(rows.size)
            labels[rows[perm[limit:]], t] = np.nan
    return ds._take(np.flatnonzero(np.isfinite(labels).any(axis=1)), labels)


@dataclass
class SplitMasks:
    """Boolean (n_compounds, n_tasks) masks partitioning the labeled cells."""

    train: np.ndarray
    val: np.ndarray


def split_train_val(
    ds: TaskDataset, seed: int, val_fraction: float = 0.2
) -> SplitMasks:
    """Per-task random split of labeled entries.

    Each task's labeled cells are shuffled independently and
    floor(val_fraction * count) of them go to validation, so one compound may
    train for one task while validating another.  A task with too few labels
    to yield a nonempty validation slice is an error; a task with no labels
    at all simply contributes no entries.
    """
    if not 0.0 < val_fraction < 1.0:
        raise ValueError("val_fraction must be in (0, 1)")
    train = np.zeros_like(ds.label_mask)
    val = np.zeros_like(ds.label_mask)
    for t in range(ds.n_tasks):
        rows = np.flatnonzero(ds.label_mask[:, t])
        if rows.size == 0:
            continue
        n_val = int(np.floor(val_fraction * rows.size))
        if n_val == 0:
            raise DatasetError(
                f"task {ds.task_names[t]!r} has {rows.size} labels; too few "
                f"for a validation slice at val_fraction={val_fraction}"
            )
        perm = rng_stream(seed, 3, t).permutation(rows.size)
        val[rows[perm[:n_val]], t] = True
        train[rows[perm[n_val:]], t] = True
    return SplitMasks(train=train, val=val)
