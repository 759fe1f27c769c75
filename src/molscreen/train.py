"""Multi-task training loop with masked MSE and loss-crossing early stopping.

Each epoch shuffles the compounds that carry at least one training label,
steps Adam over mini-batches of the masked loss, then records eval-mode train
and validation losses.  Each of those is the squared error summed over every
labeled cell of its mask, divided by their count, and both come from one
eval-mode prediction matrix over the rows either mask labels, so they do not
depend on ``batch_size``.  Training stops when the validation loss has
exceeded the training loss for more than ``patience`` consecutive
epochs past the ``min_epochs`` warmup, and the parameters from the epoch
with the smallest validation loss are returned (the frozen-backbone warm-up
returns its last epoch's instead).  ``TrainLog.observe`` is where both
rules live: the epoch loop calls it once per epoch, and the tests replay
scripted loss curves through it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .data import SplitMasks, TaskDataset, split_train_val
from .engine import AdamState, NonFiniteGradientError, Tape, Tensor, adam_step, ops, rng_stream
from .model import GraphBatch, ModelParams, _packed_chunks, check_dimensions, gin_forward
from .model import init_params, predict, predict_heads


class TrainingDiverged(RuntimeError):
    """A loss or a gradient became NaN or infinite during training."""


@dataclass
class TrainConfig:
    lr: float = 0.001
    batch_size: int = 128
    dropout: float = 0.2
    embed_dim: int = 256
    n_layers: int = 8
    head_hidden: int = 256
    val_fraction: float = 0.2
    min_epochs: int = 100
    patience: int = 50
    max_epochs: int = 1000
    seed: int = 0

    def __post_init__(self):
        if self.seed < 0:
            raise ValueError(f"seed must be >= 0, got {self.seed}")
        if not 0.0 < self.val_fraction < 1.0:
            raise ValueError("val_fraction must be in (0, 1)")
        if self.patience < 1:
            raise ValueError("patience must be >= 1")
        if self.min_epochs < 0:
            raise ValueError("min_epochs must be >= 0")
        if self.max_epochs < 1:
            raise ValueError("max_epochs must be >= 1")
        if self.batch_size < 2:
            raise ValueError("batch_size must be >= 2 (batch norm)")
        if not 0.0 < self.lr < math.inf:  # false for NaN too
            raise ValueError("lr must be positive and finite")
        check_dimensions(self.embed_dim, self.n_layers, self.head_hidden, self.dropout)


@dataclass
class EpochRecord:
    epoch: int
    train_loss: float
    val_loss: float


@dataclass
class TrainLog:
    """Each epoch's losses, and the state of the two rules ``observe`` applies."""

    epochs: list[EpochRecord] = field(default_factory=list)
    best_epoch: int = 0
    best_val_loss: float = math.inf
    stop_epoch: int = 0
    stop_reason: str = ""
    violations: int = 0

    def observe(self, record: EpochRecord, min_epochs: int, patience: int) -> bool:
        """Append one epoch's record and apply both rules; True when
        training should stop.

        The best epoch is the earliest one with the smallest validation
        loss.  ``violations`` counts consecutive epochs past ``min_epochs``
        whose validation loss strictly exceeds the training loss, and
        training stops once the count passes ``patience``."""
        self.epochs.append(record)
        if record.val_loss < self.best_val_loss:
            self.best_val_loss, self.best_epoch = record.val_loss, record.epoch
        if record.epoch > min_epochs and record.val_loss > record.train_loss:
            self.violations += 1
        else:
            self.violations = 0
        stop = self.violations > patience
        self.stop_epoch = record.epoch
        self.stop_reason = "early_stopping" if stop else "max_epochs"
        return stop


def summarize_log(log: TrainLog) -> dict:
    """Compact training-log facts suitable for a checkpoint header."""
    return {
        "n_epochs": len(log.epochs),
        "best_epoch": log.best_epoch,
        "best_val_loss": log.best_val_loss,
        "stop_epoch": log.stop_epoch,
        "stop_reason": log.stop_reason,
    }


def masked_loss(pred: Tensor, labels, mask, tape: Tape | None = None) -> Tensor:
    """Squared error summed over labeled (compound, task) cells, divided by
    the number of labeled cells in the batch."""
    mask = np.asarray(mask, dtype=bool)
    count = int(mask.sum())
    if count == 0:
        raise ValueError("batch contains no labeled pairs")
    sse = ops.masked_sse(pred, labels, mask, tape=tape)
    return ops.scale(sse, 1.0 / count, tape=tape)


def batch_plan(n: int, batch_size: int) -> list[tuple[int, int]]:
    """Contiguous [start, end) batch bounds over n rows.  A trailing batch of
    a single row is folded into the previous batch because batch norm needs
    at least two rows in training mode."""
    if n < 2:
        raise ValueError("need at least 2 rows to form a training batch")
    plan = [(s, min(s + batch_size, n)) for s in range(0, n, batch_size)]
    if len(plan) > 1 and plan[-1][1] - plan[-1][0] == 1:
        start = plan[-2][0]
        plan[-2:] = [(start, n)]
    return plan


def _eval_losses(ds: TaskDataset, masks: SplitMasks, frozen: ModelParams | None):
    """``losses(params)``: train then validation ``masked_loss`` over one
    ``predict_graphs`` matrix of the rows either mask labels, packed once,
    here; eval scores are per compound, so each loss has the bits of a pass
    over its own rows.  Given ``frozen`` parameters each chunk is encoded
    once instead and ``losses`` runs just the heads: exact while the backbone
    weights and running statistics stay as ``frozen`` had them, and
    ``losses`` must then be given those parameters."""
    if not (masks.train.any() and masks.val.any()):
        raise ValueError("mask selects no compounds")
    rows = np.flatnonzero(masks.train.any(axis=1) | masks.val.any(axis=1))
    labels, split = ds.labels[rows], (masks.train[rows], masks.val[rows])
    chunks = _packed_chunks([ds.graphs[i] for i in rows])
    if frozen is None:
        chunks, score = list(chunks), predict
    else:
        chunks = [gin_forward(batch, frozen) for batch in chunks]

        def score(z: Tensor, params: ModelParams) -> np.ndarray:
            return predict_heads(z, params).data

    def losses(params: ModelParams) -> tuple[float, float]:
        pred = Tensor(np.concatenate([score(chunk, params) for chunk in chunks]))
        return tuple(masked_loss(pred, labels, mask).item() for mask in split)

    return losses


def train(ds: TaskDataset, config: TrainConfig) -> tuple[ModelParams, TrainLog]:
    masks = split_train_val(ds, config.seed, config.val_fraction)
    return train_with_split(ds, config, masks)


def train_with_split(
    ds: TaskDataset,
    config: TrainConfig,
    masks: SplitMasks,
    params: ModelParams | None = None,
    *,
    trainable_names=None,
    epoch_offset: int = 0,
    epoch_callback=None,
) -> tuple[ModelParams, TrainLog]:
    """Core epoch loop, in one of two modes.

    ``params`` continues from existing parameters (default: fresh init);
    ``epoch_offset`` shifts logged epoch numbers; ``epoch_callback(epoch,
    params)`` runs after each epoch's bookkeeping.  The eval rows of both
    masks are packed once per call, not once per epoch.

    With ``trainable_names=None`` everything trains, and the best epoch's
    parameters come back, independent of ``params``: the first improvement
    copies the model, and each later one writes every array into that copy.

    Otherwise only the named head parameters train (a backbone name is a
    ``ValueError``), with the backbone frozen: each training batch runs it
    without a tape and without updating running statistics (the same
    embeddings), and the eval rows are encoded once, so each epoch's
    eval runs only the heads; losses and parameters equal, bit for bit, those
    of the full tape with every epoch re-encoding through ``predict_graphs``.
    This warm-up keeps no best-epoch copy: the log still reports a best
    epoch, but ``params`` itself comes back, as the last epoch left it.
    """
    train_rows = np.flatnonzero(masks.train.any(axis=1))
    if train_rows.size < 2:
        raise ValueError("need at least 2 compounds with training labels")
    if params is None:
        params = init_params(
            ds.task_names,
            embed_dim=config.embed_dim,
            n_layers=config.n_layers,
            head_hidden=config.head_hidden,
            dropout=config.dropout,
            seed=config.seed,
        )
    all_named = list(params.named_parameters())
    frozen = trainable_names is not None
    if frozen:
        not_heads = set(trainable_names) - set(params.head_names())
        if not_heads:
            raise ValueError(f"trainable_names may name head parameters only: {sorted(not_heads)}")
    trainable = [t for name, t in all_named if not frozen or name in trainable_names]
    eval_losses = _eval_losses(ds, masks, params if frozen else None)
    adam = AdamState(lr=config.lr)
    log = TrainLog()
    best_params = None
    for epoch_index in range(1, config.max_epochs + 1):
        epoch = epoch_offset + epoch_index
        perm = rng_stream(config.seed, 2, epoch).permutation(train_rows.size)
        order = train_rows[perm]
        for b_idx, (s, e) in enumerate(batch_plan(order.size, config.batch_size)):
            rows = order[s:e]
            tape = Tape()
            batch = GraphBatch.from_graphs([ds.graphs[i] for i in rows])
            rng_path = (config.seed, 1, epoch, b_idx)
            z = gin_forward(
                batch,
                params,
                train=True,
                rng_path=rng_path,
                update_running=not frozen,
                tape=None if frozen else tape,
            )
            pred = predict_heads(z, params, train=True, rng_path=rng_path, tape=tape)
            loss = masked_loss(pred, ds.labels[rows], masks.train[rows], tape=tape)
            value = loss.item()
            if not math.isfinite(value):
                raise TrainingDiverged(
                    f"loss {value} at epoch {epoch}, batch {b_idx}"
                )
            for _, t in all_named:
                t.grad = None
            tape.backward(loss)
            grads = [
                t.grad if t.grad is not None else np.zeros_like(t.data)
                for t in trainable
            ]
            try:
                adam_step(trainable, grads, adam)
            except NonFiniteGradientError as exc:
                raise TrainingDiverged(
                    f"non-finite gradient at epoch {epoch}, batch {b_idx}"
                ) from exc
        train_loss, val_loss = eval_losses(params)
        if not (math.isfinite(train_loss) and math.isfinite(val_loss)):
            raise TrainingDiverged(
                f"epoch {epoch}: train {train_loss}, val {val_loss}"
            )
        stop = log.observe(
            EpochRecord(epoch, train_loss, val_loss), config.min_epochs, config.patience
        )
        if not frozen and log.best_epoch == epoch:
            if best_params is None:
                best_params = params.copy()
            else:
                for (_, snap), (_, live) in zip(best_params.named_arrays(), params.named_arrays()):
                    np.copyto(snap, live)
        if epoch_callback is not None:
            epoch_callback(epoch, params)
        if stop:
            break
    return (params if frozen else best_params), log

