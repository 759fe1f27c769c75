"""Fine-tuning a pretrained shared backbone on a new single-task dataset.

Phase 1 copies every shared parameter (embedding tables, self-loop vectors,
layer perceptrons, batch-norm affine weights and running statistics) from the
pretrained model, attaches a freshly initialized head, and trains only the
head for a fixed number of epochs with running statistics frozen.  Phase 2
continues training all parameters under the standard early-stopping protocol
with a fresh optimizer; the epoch counter keeps running across the phases.

Phase 1 names only head parameters as trainable, so ``train_with_split``
treats the backbone as frozen: nothing can change its weights or running
statistics, so it runs the backbone without a tape (backward stops at the
embeddings) and encodes each evaluation batch once for the whole phase.
Both are exact: the losses, head weights and backbone hashes are those the
full tape gives, bit for bit.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .data import TaskDataset, split_train_val
from .model import ModelParams, init_heads
from .train import TrainConfig, TrainLog, train_with_split


class TransferError(ValueError):
    """Pretrained parameters and the new task's configuration disagree."""


@dataclass
class TransferResult:
    params: ModelParams
    phase1_log: TrainLog
    phase2_log: TrainLog
    phase1_backbone_hashes: list[str] = field(default_factory=list)


def transfer_train(
    pretrained: ModelParams,
    new_ds: TaskDataset,
    config: TrainConfig,
    head_epochs: int = 20,
) -> TransferResult:
    if head_epochs < 0:
        raise ValueError("head_epochs must be >= 0")
    if new_ds.n_tasks != 1:
        raise TransferError(
            f"transfer target must be single-task, got {new_ds.n_tasks} tasks"
        )
    if pretrained.embed_dim != config.embed_dim:
        raise TransferError(
            f"pretrained embed_dim {pretrained.embed_dim} != config {config.embed_dim}"
        )
    if pretrained.n_layers != config.n_layers:
        raise TransferError(
            f"pretrained n_layers {pretrained.n_layers} != config {config.n_layers}"
        )
    if pretrained.schema.schema_hash() != new_ds.schema.schema_hash():
        raise TransferError("feature schema mismatch between model and dataset")

    params = pretrained.copy()
    params.task_names = list(new_ds.task_names)
    params.head_hidden = config.head_hidden
    params.dropout = config.dropout
    params.heads = init_heads(
        new_ds.task_names, params.embed_dim, config.head_hidden, config.seed
    )

    masks = split_train_val(new_ds, config.seed, config.val_fraction)
    hashes: list[str] = []
    phase1_log = TrainLog()
    if head_epochs > 0:
        head_names = [name for name, _ in params.head_named_parameters()]
        _, phase1_log = train_with_split(
            new_ds,
            config,
            masks,
            params=params,
            trainable_names=head_names,
            stop_after=head_epochs,
            epoch_callback=lambda _epoch, p: hashes.append(p.backbone_hash()),
        )
    # phase 2 resumes from the post-warmup state (params was updated in
    # place), not from the warmup's best-validation snapshot
    best, phase2_log = train_with_split(
        new_ds,
        config,
        masks,
        params=params,
        epoch_offset=head_epochs,
    )
    return TransferResult(
        params=best,
        phase1_log=phase1_log,
        phase2_log=phase2_log,
        phase1_backbone_hashes=hashes,
    )
