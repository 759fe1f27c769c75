"""Estimator-style wrappers around the training pipeline.

`GINRegressor` (single target) and `MultiTaskGINRegressor` (sparse label
matrix) follow the familiar fit/predict/transform protocol: constructors
only store hyperparameters, `fit` learns state into trailing-underscore
attributes, and `get_params`/`set_params` expose the hyperparameters for
cloning and grid sweeps.  No external ML framework is required.
"""

from __future__ import annotations

import dataclasses

import numpy as np

from .data import TaskDataset
from .featurize import featurize_smiles
from .model import encode_graphs, predict_graphs
from .train import TrainConfig, train

# the estimators' hyperparameters: every TrainConfig field, with its default
_DEFAULTS = dataclasses.asdict(TrainConfig())


class NotFittedError(RuntimeError):
    """Raised when predict/transform is called before fit."""


def _as_smiles_list(X) -> list[str]:
    if isinstance(X, str):
        raise TypeError("X must be a sequence of SMILES strings, not a single string")
    smiles = list(X)
    if not smiles:
        raise ValueError("X must contain at least one SMILES string")
    for s in smiles:
        if not isinstance(s, str):
            raise TypeError(f"X entries must be strings, got {type(s).__name__}")
    return smiles


def _as_label_matrix(y, n_samples: int) -> np.ndarray:
    labels = np.asarray(y, dtype=np.float64)
    if labels.ndim == 1:
        labels = labels.reshape(-1, 1)
    if labels.ndim != 2:
        raise ValueError(f"y must be 1-d or 2-d, got shape {labels.shape}")
    if labels.shape[0] != n_samples:
        raise ValueError(
            f"y has {labels.shape[0]} rows but X has {n_samples} compounds"
        )
    return labels


class MultiTaskGINRegressor:
    """Multi-task graph regressor with a shared encoder and per-task heads.

    The keyword parameters are the fields of
    :class:`molscreen.train.TrainConfig`, with its defaults.  `fit` accepts
    a label matrix with NaN marking unlabeled (compound, task) cells; every
    compound must carry at least one label.
    """

    def __init__(self, **params):
        vars(self).update(_DEFAULTS)
        self.set_params(**params)

    # ------------------------------------------------------------------
    # parameter protocol
    # ------------------------------------------------------------------
    def get_params(self, deep: bool = True) -> dict:
        return {name: getattr(self, name) for name in _DEFAULTS}

    def set_params(self, **params) -> "MultiTaskGINRegressor":
        for name, value in params.items():
            if name not in _DEFAULTS:
                raise ValueError(
                    f"unknown parameter {name!r}; valid parameters: {sorted(_DEFAULTS)}"
                )
            setattr(self, name, value)
        return self

    def _train_config(self) -> TrainConfig:
        return TrainConfig(**self.get_params())

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    def fit(self, X, y, *, task_names=None, hit_directions=None) -> "MultiTaskGINRegressor":
        smiles = _as_smiles_list(X)
        labels = _as_label_matrix(y, len(smiles))
        n_tasks = labels.shape[1]
        if task_names is None:
            task_names = [f"task{t}" for t in range(n_tasks)]
        if hit_directions is None:
            hit_directions = ["lower_is_better"] * n_tasks
        ds = TaskDataset.from_smiles(
            smiles,
            labels,
            task_names=list(task_names),
            hit_directions=list(hit_directions),
        )
        params, log = train(ds, self._train_config())
        self.params_ = params
        self.log_ = log
        self.task_names_ = list(task_names)
        self.hit_directions_ = list(hit_directions)
        return self

    def _check_fitted(self):
        if not hasattr(self, "params_"):
            raise NotFittedError(
                f"{type(self).__name__} is not fitted yet; call fit() first"
            )

    def _featurize(self, X) -> list:
        return [featurize_smiles(s) for s in _as_smiles_list(X)]

    def predict(self, X, *, tasks=None) -> np.ndarray:
        """Predicted scores, shape (n_compounds, n_tasks_requested)."""
        self._check_fitted()
        task_indices = list(tasks) if tasks is not None else None
        return predict_graphs(self._featurize(X), self.params_, task_indices)

    def transform(self, X) -> np.ndarray:
        """Mean-pooled graph embeddings from the shared encoder, shape (n, embed_dim)."""
        self._check_fitted()
        return encode_graphs(self._featurize(X), self.params_)


class GINRegressor(MultiTaskGINRegressor):
    """Single-target convenience wrapper: 1-d y in, 1-d predictions out."""

    def fit(self, X, y, *, task_name: str = "task0", hit_direction: str = "lower_is_better"):
        labels = np.asarray(y, dtype=np.float64)
        if labels.ndim != 1:
            raise ValueError(f"y must be 1-d for {type(self).__name__}, got shape {labels.shape}")
        return super().fit(
            X, labels, task_names=[task_name], hit_directions=[hit_direction]
        )

    def predict(self, X) -> np.ndarray:
        return super().predict(X)[:, 0]
