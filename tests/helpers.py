"""Test-only helpers shared by several test modules: replaying scripted loss
curves through the training log's rules, and the synthetic benchmark's
noise-free labels."""

from __future__ import annotations

import numpy as np

from molscreen.synth import SynthMeta
from molscreen.train import EpochRecord, TrainLog


def replay_stopping(
    curve, min_epochs: int, patience: int, max_epochs: int
) -> tuple[int, int, str]:
    """Feed a scripted list of (train_loss, val_loss) pairs to
    ``TrainLog.observe`` as the epoch loop does; returns (stop_epoch,
    best_epoch, stop_reason)."""
    log = TrainLog()
    for epoch, (train_loss, val_loss) in enumerate(list(curve)[:max_epochs], start=1):
        if log.observe(EpochRecord(epoch, train_loss, val_loss), min_epochs, patience):
            break
    return log.stop_epoch, log.best_epoch, log.stop_reason


def noiseless_labels(meta: SynthMeta, task: int) -> np.ndarray:
    """Expected (noise-free) labels for one task over the generated compounds."""
    return meta.a_values[task] * meta.latent_scores + meta.b_values[task]
