"""Fine-tuning a pretrained shared backbone on a new single-task dataset.

Phase 1 starts from a model that ``model.from_arrays`` builds from copies of
the pretrained backbone arrays (embedding tables, self-loop vectors, layer
perceptrons, batch-norm affine weights and running statistics) and the new
head's initial arrays, drawn from the model table's head rows as
``init_params`` draws them (the pretrained heads are never copied).  It
trains only the head for exactly ``head_epochs`` epochs with running
statistics frozen: its config sets ``min_epochs = max_epochs =
head_epochs``, and with the epoch count starting at 1 no epoch passes the
warmup, so early stopping cannot fire and the phase-1 log ends with
``stop_reason == "max_epochs"``.  Phase 2 continues training all
parameters under the standard early-stopping protocol with a fresh
optimizer; the epoch counter keeps running across the phases.

Phase 1 names the head parameters as trainable, which puts
``train_with_split`` in its frozen-backbone mode: nothing can change the
backbone's weights or running statistics, so it runs the backbone without a
tape (backward stops at the embeddings) and encodes the rows either mask
labels once for the whole phase, so each epoch's eval runs only the heads.
Both are exact: the losses, head weights and backbone hashes are those the
full tape and per-epoch ``predict_graphs`` give, bit for bit.  The mode keeps no
best-epoch copy; phase 2 starts from the parameters as phase 1's last epoch
left them, and the phase-1 log still reports its best epoch.

``phase1_backbone_hashes`` holds one ``backbone_hash`` per phase-1 epoch,
the proof of the freeze.  The backbone is hashed once, when phase 1 starts;
after each epoch every backbone array (``named_backbone_arrays()``, the
arrays the hash reads) is compared bit for bit (as int64, so a sign flip of
a zero or a changed NaN payload counts) with the pretrained one it was
copied from.  An epoch whose arrays all match records the start hash, which
is what hashing them would give; any difference records a fresh
``backbone_hash``.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from .data import TaskDataset, split_train_val
from .model import ModelParams, _check_layout_fits, from_arrays, initial_head_arrays
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

    d, h = config.embed_dim, config.head_hidden
    _check_layout_fits(new_ds.n_tasks, d, config.n_layers, h)
    arrays = {name: arr.copy() for name, arr in pretrained.named_backbone_arrays()}
    arrays.update(initial_head_arrays(new_ds.n_tasks, d, h, config.seed))
    params = from_arrays(new_ds.task_names, d, config.n_layers, h, config.dropout, arrays)

    masks = split_train_val(new_ds, config.seed, config.val_fraction)
    hashes: list[str] = []
    phase1_log = TrainLog()
    if head_epochs > 0:
        start_hash = params.backbone_hash()
        reference = [arr for _, arr in pretrained.named_backbone_arrays()]

        def record_hash(_epoch, p: ModelParams) -> None:
            unchanged = all(
                np.array_equal(a.view(np.int64), b.view(np.int64))
                for (_, a), b in zip(p.named_backbone_arrays(), reference)
            )
            hashes.append(start_hash if unchanged else p.backbone_hash())

        params, phase1_log = train_with_split(
            new_ds,
            replace(config, min_epochs=head_epochs, max_epochs=head_epochs),
            masks,
            params=params,
            trainable_names=params.head_names(),
            epoch_callback=record_hash,
        )
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
