"""Graph neural network surrogates for docking-score virtual screening.

The package covers the full screening workflow: a SMILES parser
(:mod:`molscreen.smiles`), molecular featurization
(:mod:`molscreen.featurize`), a float64 autodiff engine
(:mod:`molscreen.engine`), a multi-task GIN regressor
(:mod:`molscreen.model`, :mod:`molscreen.train`), ensemble active learning
(:mod:`molscreen.active`), two-phase transfer learning
(:mod:`molscreen.transfer`), screening metrics (:mod:`molscreen.metrics`),
CSV dataset I/O (:mod:`molscreen.dataset_io`), checkpoints
(:mod:`molscreen.checkpoint`), and a command-line interface
(:mod:`molscreen.cli`).
"""

from .active import ALConfig, ALResult, al_run
from .checkpoint import load_checkpoint, save_checkpoint
from .data import TaskDataset
from .dataset_io import IngestReport, ingest_csv, read_smiles_csv, write_dataset_csv
from .featurize import featurize_smiles
from .metrics import (
    concordance_index,
    mse,
    pchembl,
    pearson,
    recall_at,
)
from .model import (
    GraphBatch,
    ModelParams,
    encode_graphs,
    init_params,
    predict,
    predict_graphs,
)
from .smiles import MolGraph, SmilesError, parse_smiles
from .synth import SynthMeta, synth_dataset
from .train import TrainConfig, TrainLog, train
from .transfer import TransferResult, transfer_train

__version__ = "0.1.0"

__all__ = [
    "ALConfig",
    "ALResult",
    "GraphBatch",
    "IngestReport",
    "ModelParams",
    "MolGraph",
    "SmilesError",
    "SynthMeta",
    "TaskDataset",
    "TrainConfig",
    "TrainLog",
    "TransferResult",
    "al_run",
    "concordance_index",
    "encode_graphs",
    "featurize_smiles",
    "ingest_csv",
    "init_params",
    "load_checkpoint",
    "mse",
    "parse_smiles",
    "pchembl",
    "pearson",
    "predict",
    "predict_graphs",
    "read_smiles_csv",
    "recall_at",
    "save_checkpoint",
    "synth_dataset",
    "train",
    "transfer_train",
    "write_dataset_csv",
]
