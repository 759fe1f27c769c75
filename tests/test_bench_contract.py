"""The names the benchmark tracer (``perfbench/tracer.py``) wraps from the
outside.  ``perfbench/run.py --trace 1`` patches package functions by name
and tells transfer phase 1 from phase 2 by the ``trainable_names`` keyword,
so a rename or a changed call here would silently empty its spans."""

import sys
from pathlib import Path

import pytest

import molscreen.checkpoint as checkpoint_module
import molscreen.transfer as transfer_module
from molscreen.engine import Tape, ops
from molscreen.checkpoint import save_checkpoint
from molscreen.model import GraphBatch, ModelParams, init_params
from molscreen.synth import synth_dataset
from molscreen.train import TrainConfig

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


@pytest.fixture
def tracer_module(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import tracer

    yield tracer
    sys.modules.pop("tracer", None)


def _patched_names():
    """Every binding the tests below check, read off its owner."""
    return {
        "ops.dropout": ops.dropout,
        "transfer.train_with_split": transfer_module.train_with_split,
        "GraphBatch.from_graphs": GraphBatch.__dict__["from_graphs"],
        "ModelParams.backbone_hash": ModelParams.__dict__["backbone_hash"],
        "Tape.record": Tape.__dict__["record"],
        "Tape.backward": Tape.__dict__["backward"],
        "checkpoint.load_checkpoint": checkpoint_module.load_checkpoint,
    }


def test_transfer_spans_and_clean_uninstall(tracer_module, tmp_path):
    ds, _ = synth_dataset(n_tasks=2, n_per_task=20, seed=0, noise_sigma=0.0)
    ds = ds.restrict_to_tasks([0])
    config = TrainConfig(
        embed_dim=8, n_layers=2, head_hidden=8, batch_size=8,
        min_epochs=1, patience=1, max_epochs=1, seed=0,
    )
    pretrained = init_params(["a", "b"], embed_dim=8, n_layers=2, head_hidden=8, seed=1)
    ckpt = tmp_path / "pretrained.ckpt"
    save_checkpoint(ckpt, pretrained, ["lower_is_better"] * 2, seed=1)
    originals = _patched_names()

    tracer = tracer_module.Tracer()
    tracer.install()
    try:
        assert all(
            _patched_names()[name] is not original for name, original in originals.items()
        )
        tracer.begin("contract")
        try:
            pretrained = checkpoint_module.load_checkpoint(ckpt).params
            transfer_module.transfer_train(pretrained, ds, config, head_epochs=2)
        finally:
            tracer.end()
    finally:
        tracer.uninstall()

    names = {span[0] for span in tracer.spans}
    for expected in (
        "transfer.phase1",
        "transfer.phase2",
        "transfer.backbone_hash",
        "engine.ops.dropout.fwd",
        "engine.ops.dropout.bwd",
        "checkpoint.load",
    ):
        assert expected in names, expected
    # phase 1 hashes the backbone once, at its start
    assert sum(span[0] == "transfer.backbone_hash" for span in tracer.spans) == 1
    restored = _patched_names()
    assert all(restored[name] is original for name, original in originals.items())
