"""Pool-based active learning with a model ensemble.

A random initial batch is labeled, then each round trains all ensemble
members on the labeled set (identical data, distinct seeds), scores the
remaining pool with the ensemble, and labels the best-scoring batch.  After
the last acquisition the ensemble is retrained on the complete labeled set.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

import numpy as np

from .data import TaskDataset
from .engine import rng_stream
from .featurize import FeaturizedGraph, featurize_smiles
from .metrics import rank_best_first
from .model import ModelParams, predict_graphs
from .train import TrainConfig, train

ACQUISITIONS = ("greedy_mean", "ucb")


@dataclass
class ALConfig:
    total_budget: int
    ensemble_size: int = 5
    n_rounds: int = 4
    init_fraction: float = 0.5
    acquisition: str = "greedy_mean"
    ucb_beta: float = 1.0

    def __post_init__(self):
        if self.total_budget < 1:
            raise ValueError("total_budget must be >= 1")
        if self.ensemble_size < 1:
            raise ValueError("ensemble_size must be >= 1")
        if self.n_rounds < 0:
            raise ValueError("n_rounds must be >= 0")
        if not 0.0 < self.init_fraction <= 1.0:
            raise ValueError("init_fraction must be in (0, 1]")
        if self.acquisition not in ACQUISITIONS:
            raise ValueError(f"acquisition must be one of {ACQUISITIONS}")
        if not 0.0 <= self.ucb_beta < math.inf:  # false for NaN too
            raise ValueError("ucb_beta must be >= 0 and finite")
        if self.init_size == 0:
            raise ValueError(
                f"init_fraction {self.init_fraction} of total_budget "
                f"{self.total_budget} rounds to an initial batch of 0 labels"
            )
        remaining = self.total_budget - self.init_size
        if self.n_rounds == 0:
            if remaining != 0:
                raise ValueError(
                    f"{remaining} labels left over with no acquisition rounds"
                )
        elif remaining % self.n_rounds != 0 or remaining == 0:
            raise ValueError(
                f"budget does not split exactly: init {self.init_size} + "
                f"{self.n_rounds} rounds over {remaining} remaining labels"
            )

    @property
    def init_size(self) -> int:
        return int(round(self.total_budget * self.init_fraction))

    @property
    def round_batch(self) -> int:
        if self.n_rounds == 0:
            return 0
        return (self.total_budget - self.init_size) // self.n_rounds


@dataclass
class ALRound:
    round: int
    labeled_count: int
    pool_size: int
    mean_acquisition_score: float


@dataclass
class ALResult:
    members: list[ModelParams]
    labeled_indices: list[int]
    labeled_dataset: TaskDataset
    log: list[ALRound] = field(default_factory=list)


def acquisition_scores(
    members: list[ModelParams],
    graphs: list[FeaturizedGraph],
    acquisition: str,
    ucb_beta: float,
    hit_direction: str,
) -> np.ndarray:
    """Per-compound acquisition score; smaller (lower_is_better) or larger
    (higher_is_better) scores are acquired first."""
    if not members:
        raise ValueError("ensemble is empty")
    preds = np.stack([predict_graphs(graphs, m, [0])[:, 0] for m in members])
    mean = preds.mean(axis=0)
    if acquisition == "greedy_mean":
        return mean
    std = preds.std(axis=0)
    if hit_direction == "lower_is_better":
        return mean - ucb_beta * std  # optimistic lower bound
    return mean + ucb_beta * std


def _train_members(
    pool_smiles: list[str],
    graphs: list[FeaturizedGraph],
    labeled: list[int],
    labels: dict[int, float],
    config: ALConfig,
    train_config: TrainConfig,
    hit_direction: str,
    task_name: str,
) -> tuple[list[ModelParams], TaskDataset]:
    ds = TaskDataset(
        smiles=[pool_smiles[i] for i in labeled],
        graphs=[graphs[i] for i in labeled],
        labels=np.array([[labels[i]] for i in labeled]),
        task_names=[task_name],
        hit_directions=[hit_direction],
    )
    members = []
    for m in range(config.ensemble_size):
        member_seed = int(rng_stream(train_config.seed, 6, m).integers(2**63 - 1))
        params, _ = train(ds, replace(train_config, seed=member_seed))
        members.append(params)
    return members, ds


def al_run(
    pool_smiles,
    oracle,
    config: ALConfig,
    train_config: TrainConfig,
    hit_direction: str = "lower_is_better",
    task_name: str = "T0",
    graphs: list[FeaturizedGraph] | None = None,
) -> ALResult:
    """Run the full acquisition loop; returns the final ensemble, the labeled
    set (in acquisition order), and a per-round log.  ``graphs``, when given,
    are the pool's featurized graphs (one per SMILES, same order), so a pool
    read with ``read_smiles_csv`` is not featurized again.  ``train_config.seed``
    orders the initial pool and draws every member's training seed."""
    pool_smiles = list(pool_smiles)
    n = len(pool_smiles)
    if n < config.total_budget:
        raise ValueError(f"pool of {n} compounds cannot supply {config.total_budget} labels")
    if graphs is None:
        graphs = [featurize_smiles(s) for s in pool_smiles]
    elif len(graphs) != n:
        raise ValueError(f"{len(graphs)} graphs for a pool of {n} compounds")
    init_order = rng_stream(train_config.seed, 5).permutation(n)
    labeled = [int(i) for i in init_order[: config.init_size]]
    labels = {i: float(oracle(pool_smiles[i])) for i in labeled}
    log = [ALRound(0, len(labeled), n - len(labeled), math.nan)]
    for round_index in range(1, config.n_rounds + 1):
        members, _ = _train_members(
            pool_smiles, graphs, labeled, labels, config, train_config,
            hit_direction, task_name,
        )
        remaining = [i for i in range(n) if i not in labels]
        scores = acquisition_scores(
            members,
            [graphs[i] for i in remaining],
            config.acquisition,
            config.ucb_beta,
            hit_direction,
        )
        # scores[j] belongs to remaining[j]; ties go to the earlier candidate
        picks = rank_best_first(scores, hit_direction)[: config.round_batch]
        for j in picks:
            i = remaining[j]
            labels[i] = float(oracle(pool_smiles[i]))
            labeled.append(i)
        mean_score = float(np.mean(scores[picks]))
        log.append(ALRound(round_index, len(labeled), n - len(labeled), mean_score))
    members, ds = _train_members(
        pool_smiles, graphs, labeled, labels, config, train_config,
        hit_direction, task_name,
    )
    return ALResult(
        members=members, labeled_indices=labeled, labeled_dataset=ds, log=log
    )
