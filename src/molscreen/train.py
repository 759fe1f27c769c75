"""Multi-task training loop with masked MSE and loss-crossing early stopping.

Each epoch shuffles the compounds that carry at least one training label,
steps Adam over mini-batches of the masked loss, then records eval-mode train
and validation losses.  Training stops when the validation loss has exceeded
the training loss for more than ``patience`` consecutive epochs past the
``min_epochs`` warmup, and the parameters from the epoch with the smallest
validation loss are returned.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .data import SplitMasks, TaskDataset, split_train_val
from .engine import AdamState, Tape, Tensor, adam_step, ops, rng_stream
from .model import GraphBatch, ModelParams, gin_forward, init_params, predict_heads


class TrainingDiverged(RuntimeError):
    """A loss became NaN or infinite during training."""


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
        if not 0.0 <= self.dropout < 1.0:
            raise ValueError("dropout must be in [0, 1)")
        if not 0.0 < self.lr < math.inf:  # false for NaN too
            raise ValueError("lr must be positive and finite")
        for name in ("embed_dim", "n_layers", "head_hidden"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be >= 1")


@dataclass
class EpochRecord:
    epoch: int
    train_loss: float
    val_loss: float


@dataclass
class TrainLog:
    epochs: list[EpochRecord] = field(default_factory=list)
    best_epoch: int = 0
    best_val_loss: float = math.inf
    stop_epoch: int = 0
    stop_reason: str = ""


def summarize_log(log: TrainLog) -> dict:
    """Compact training-log facts suitable for a checkpoint header."""
    return {
        "n_epochs": len(log.epochs),
        "best_epoch": log.best_epoch,
        "best_val_loss": log.best_val_loss,
        "stop_epoch": log.stop_epoch,
        "stop_reason": log.stop_reason,
    }


@dataclass
class EarlyStopping:
    """Counts consecutive epochs (past the warmup) whose validation loss
    strictly exceeds the training loss; fires once the count passes
    ``patience``."""

    min_epochs: int = 100
    patience: int = 50
    violations: int = 0

    def observe(self, epoch: int, train_loss: float, val_loss: float) -> bool:
        if epoch > self.min_epochs and val_loss > train_loss:
            self.violations += 1
        else:
            self.violations = 0
        return self.violations > self.patience


def simulate_early_stopping(
    curve, min_epochs: int, patience: int, max_epochs: int
) -> tuple[int, int, str]:
    """Run the stopping automaton and best-epoch rule over a scripted list of
    (train_loss, val_loss) pairs; returns (stop_epoch, best_epoch, reason)."""
    stopper = EarlyStopping(min_epochs=min_epochs, patience=patience)
    best_val = math.inf
    best_epoch = 0
    curve = list(curve)[:max_epochs]
    stop_epoch = len(curve)
    reason = "max_epochs"
    for epoch, (train_loss, val_loss) in enumerate(curve, start=1):
        if val_loss < best_val:
            best_val, best_epoch = val_loss, epoch
        if stopper.observe(epoch, train_loss, val_loss):
            stop_epoch = epoch
            reason = "early_stopping"
            break
    return stop_epoch, best_epoch, reason


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


def _head_loss(
    z: Tensor,
    params: ModelParams,
    labels: np.ndarray,
    mask: np.ndarray,
    *,
    train: bool,
    rng_path=None,
    tape: Tape | None = None,
) -> Tensor:
    cols = predict_heads(
        z, params, range(len(params.heads)), train=train, rng_path=rng_path, tape=tape
    )
    pred = ops.concat_columns(cols, tape=tape)
    return masked_loss(pred, labels, mask, tape=tape)


class _EvalBatches:
    """Pre-built eval batches (fixed ascending row order) for one mask.

    Given ``frozen`` parameters, each batch is encoded once, here, and only
    its embeddings are kept, so ``loss`` runs just the heads.  This is exact
    while the backbone weights and batch-norm running statistics stay as
    ``frozen`` had them, and ``loss`` must then be given those parameters.
    """

    def __init__(
        self,
        ds: TaskDataset,
        mask: np.ndarray,
        batch_size: int,
        frozen: ModelParams | None = None,
    ):
        rows = np.flatnonzero(mask.any(axis=1))
        if rows.size == 0:
            raise ValueError("mask selects no compounds")
        self.encoded = frozen is not None
        self.batches = []
        for s in range(0, rows.size, batch_size):
            chunk = rows[s : s + batch_size]
            inputs = GraphBatch.from_graphs([ds.graphs[i] for i in chunk])
            if self.encoded:
                inputs = gin_forward(inputs, frozen, train=False)
            self.batches.append((inputs, ds.labels[chunk], mask[chunk]))

    def loss(self, params: ModelParams) -> float:
        values = []
        for inputs, labels, mask in self.batches:
            z = inputs if self.encoded else gin_forward(inputs, params, train=False)
            values.append(_head_loss(z, params, labels, mask, train=False).item())
        return sum(values) / len(values)


def evaluate_masked_loss(
    ds: TaskDataset, params: ModelParams, mask, batch_size: int = 128
) -> float:
    """Eval-mode masked loss over the compounds the mask selects, averaged
    over fixed-order batches (the quantity the training log records)."""
    return _EvalBatches(ds, np.asarray(mask, dtype=bool), batch_size).loss(params)


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
    stop_after: int | None = None,
    epoch_callback=None,
) -> tuple[ModelParams, TrainLog]:
    """Core epoch loop.

    ``params`` continues from existing parameters (default: fresh init).
    ``trainable_names`` restricts optimization to a parameter-name subset,
    with batch-norm running statistics frozen while any backbone parameter is
    excluded.  When it names no backbone parameter at all, the backbone is
    frozen, as neither Adam nor batch norm can change it: each training batch
    runs the backbone without a tape (the same dropout streams and batch
    statistics, so the same embeddings), backward stops at the embeddings,
    and each eval batch is encoded once and reused every epoch.  Losses and
    parameters equal the full tape's bit for bit.  ``epoch_offset`` shifts
    logged epoch numbers; a given ``stop_after`` runs exactly that many
    epochs, without early stopping; ``epoch_callback(epoch, params)`` runs
    after each epoch's bookkeeping.
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
            schema=ds.schema,
        )
    all_named = list(params.named_parameters())
    if trainable_names is None:
        trainable = [t for _, t in all_named]
        update_running = True
        frozen = False
    else:
        wanted = set(trainable_names)
        unknown = wanted - {name for name, _ in all_named}
        if unknown:
            raise ValueError(f"unknown parameter names: {sorted(unknown)}")
        trainable = [t for name, t in all_named if name in wanted]
        backbone_names = {name for name, _ in params.backbone_named_parameters()}
        update_running = backbone_names <= wanted
        frozen = not backbone_names & wanted
    encode_once = params if frozen else None
    train_eval = _EvalBatches(ds, masks.train, config.batch_size, encode_once)
    val_eval = _EvalBatches(ds, masks.val, config.batch_size, encode_once)
    stopper = EarlyStopping(min_epochs=config.min_epochs, patience=config.patience)
    adam = AdamState(lr=config.lr)
    log = TrainLog()
    best_params = params
    n_epochs = config.max_epochs if stop_after is None else stop_after
    log.stop_reason = "max_epochs"
    for epoch_index in range(1, n_epochs + 1):
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
                update_running=update_running,
                tape=None if frozen else tape,
            )
            loss = _head_loss(
                z,
                params,
                ds.labels[rows],
                masks.train[rows],
                train=True,
                rng_path=rng_path,
                tape=tape,
            )
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
            adam_step(trainable, grads, adam)
        train_loss = train_eval.loss(params)
        val_loss = val_eval.loss(params)
        if not (math.isfinite(train_loss) and math.isfinite(val_loss)):
            raise TrainingDiverged(
                f"epoch {epoch}: train {train_loss}, val {val_loss}"
            )
        log.epochs.append(EpochRecord(epoch, train_loss, val_loss))
        if val_loss < log.best_val_loss:
            log.best_val_loss = val_loss
            log.best_epoch = epoch
            best_params = params.copy()
        log.stop_epoch = epoch
        if epoch_callback is not None:
            epoch_callback(epoch, params)
        if stop_after is None and stopper.observe(epoch, train_loss, val_loss):
            log.stop_reason = "early_stopping"
            break
    return best_params, log

