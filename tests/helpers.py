"""Test-only helpers shared by several test modules: replaying scripted loss
curves through the training log's rules, the two-pass eval losses that
training's one pass must reproduce, the synthetic benchmark's noise-free
labels, one graph's int64 matrices, walks over a model's backbone and head
tensors, a call's traced memory, and the BLAS kernel the tests run on."""

from __future__ import annotations

import ctypes
import tracemalloc

import numpy as np

from molscreen.data import SplitMasks, TaskDataset
from molscreen.engine import Tensor
from molscreen.featurize import FeaturizedGraph
from molscreen.model import GraphBatch, ModelParams, predict_graphs
from molscreen.synth import SynthMeta
from molscreen.train import EpochRecord, TrainLog, masked_loss


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


def two_pass_losses(ds: TaskDataset, masks: SplitMasks, params: ModelParams):
    """(train_loss, val_loss) as two separate eval passes give them: each
    mask's ``masked_loss`` over ``predict_graphs`` of the rows it labels."""
    losses = []
    for mask in (masks.train, masks.val):
        rows = np.flatnonzero(mask.any(axis=1))
        pred = predict_graphs([ds.graphs[i] for i in rows], params)
        losses.append(masked_loss(Tensor(pred), ds.labels[rows], mask[rows]).item())
    return tuple(losses)


def noiseless_labels(meta: SynthMeta, task: int) -> np.ndarray:
    """Expected (noise-free) labels for one task over the generated compounds."""
    return meta.a_values[task] * meta.latent_scores + meta.b_values[task]


def backbone_named_parameters(params: ModelParams) -> list:
    """The backbone's trainable tensors by name, in checkpoint order."""
    heads = set(params.head_names())
    return [(name, t) for name, t in params.tensors.items() if name not in heads]


def head_named_parameters(params: ModelParams) -> list:
    """The task heads' tensors by name, in checkpoint order."""
    return [(name, params.tensors[name]) for name in params.head_names()]


def graph_matrices(fg: FeaturizedGraph) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """One graph's (n_atoms, 7) atom indices and (n_bonds, 3) bond indices
    as packing builds them, and its (n_bonds, 2) bond endpoints."""
    batch = GraphBatch.from_graphs([fg])
    endpoints = np.array(fg.endpoint_values, dtype=np.int64).reshape(fg.n_bonds, 2)
    return batch.atom_indices, batch.bond_indices, endpoints


def traced_peak(fn):
    """Call ``fn()`` under tracemalloc; returns its result, the peak traced
    bytes above those traced at the start, and the bytes still held above
    them when it returned (its result among them)."""
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        result = fn()
        held, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return result, peak - before, held - before


def blas_core() -> str:
    """OpenBLAS's runtime core name, the kernel set it picked for this CPU
    (which a build string may not name), or "unknown" where it cannot be
    read: the loaded library is found through ``/proc/self/maps``."""
    try:
        with open("/proc/self/maps") as maps:
            paths = sorted({line.split()[-1] for line in maps if "openblas" in line.lower()})
        for path in paths:
            lib = ctypes.CDLL(path)
            for prefix in ("scipy_openblas", "openblas"):
                for suffix in ("64_", ""):
                    corename = getattr(lib, f"{prefix}_get_corename{suffix}", None)
                    if corename is not None:
                        corename.argtypes, corename.restype = [], ctypes.c_char_p
                        return (corename() or b"unknown").decode()
    except (OSError, UnicodeDecodeError):
        pass
    return "unknown"
