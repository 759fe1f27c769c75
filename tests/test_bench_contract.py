"""The names the benchmark tracer (``perfbench/tracer.py``) wraps from the
outside.  ``perfbench/run.py --trace 1`` patches package functions by name
and tells transfer phase 1 from phase 2 by the ``trainable_names`` keyword,
so a rename or a changed call here would silently empty its spans."""

import importlib
import sys
from pathlib import Path

import pytest

import molscreen.checkpoint as checkpoint_module
import molscreen.cli as cli_module
import molscreen.transfer as transfer_module
from molscreen.engine import Tape, ops, rng_stream
from molscreen.checkpoint import save_checkpoint
from molscreen.model import INFERENCE_BATCH, GraphBatch, ModelParams, init_params
from molscreen.synth import random_molecule, synth_dataset
from molscreen.train import TrainConfig

# the package re-exports train(), which hides the submodule's name
train_module = importlib.import_module("molscreen.train")

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


def test_train_epoch_counts_every_parameter_gradient(tracer_module):
    """``engine.grad_elements`` sums the gradients that backward leaves on
    the leaf inputs the wrapped ``Tape.record`` saw.  Tapes keep gradient
    slots, not the tensors ops produce, so this pins that every parameter
    still reaches ``record`` as a leaf and gets its gradient: one epoch of
    one batch counts each parameter element once."""
    ds, _ = synth_dataset(n_tasks=3, n_per_task=40, seed=0)
    config = TrainConfig(
        embed_dim=8, n_layers=2, head_hidden=8, batch_size=64,
        min_epochs=1, patience=1, max_epochs=1, seed=0,
    )
    tracer = tracer_module.Tracer()
    tracer.install()
    try:
        tracer.begin("train")
        try:
            params, _ = train_module.train(ds, config)
        finally:
            tracer.end()
    finally:
        tracer.uninstall()

    metrics, _ = tracer_module.layer_metrics(tracer, len(ds.graphs), 1.0, 1.0)
    assert metrics["engine.backward.calls"]["value"] == 1
    n_params = sum(p.data.size for _, p in params.named_parameters())
    assert tracer.counts["engine.grad_elements"] == n_params == 2387


def test_screen_counts_per_compound_and_per_chunk(tracer_module, tmp_path, capsys):
    """``smiles.parse.calls``, ``featurize.calls_per_mol`` and
    ``model.pack_calls`` mean what their names say: ``screen`` parses and
    featurizes each compound once, through the bindings the tracer wraps,
    and packs once per ``INFERENCE_BATCH`` chunk."""
    stream = rng_stream(0, 3)
    drawn = (random_molecule(stream, 4, 10) for _ in range(INFERENCE_BATCH + 60))
    smiles = list(dict.fromkeys(drawn))  # distinct, so each is one compound
    assert INFERENCE_BATCH < len(smiles) <= 2 * INFERENCE_BATCH
    library = tmp_path / "library.csv"
    library.write_text("smiles\n" + "\n".join(smiles) + "\n")
    ckpt = tmp_path / "small.ckpt"
    params = init_params(["a"], embed_dim=8, n_layers=1, head_hidden=8, seed=0)
    save_checkpoint(ckpt, params, ["lower_is_better"], seed=0)

    tracer = tracer_module.Tracer()
    tracer.install()
    try:
        tracer.begin("screen")
        try:
            code = cli_module.main([
                "screen", "--checkpoint", str(ckpt), "--library", str(library),
                "--out", str(tmp_path / "ranked.csv"),
            ])
        finally:
            tracer.end()
    finally:
        tracer.uninstall()
    capsys.readouterr()

    assert code == 0
    metrics, _ = tracer_module.layer_metrics(tracer, len(smiles), 1.0, 1.0)
    assert metrics["smiles.parse.calls"]["value"] == len(smiles)
    assert metrics["featurize.calls"]["value"] == len(smiles)
    assert metrics["featurize.calls_per_mol"]["value"] == 1.0
    assert metrics["model.pack_calls"]["value"] == 2
