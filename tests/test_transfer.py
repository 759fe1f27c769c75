"""Transfer training: frozen-backbone head warmup, then full fine-tuning."""

import dataclasses
import importlib
import sys
from pathlib import Path

import numpy as np
import pytest

from molscreen.data import TaskDataset, split_train_val
from molscreen.engine import AdamState, Tape, adam_step, rng_stream
from molscreen.featurize import featurize_smiles
from molscreen.model import (
    GraphBatch,
    ModelParams,
    from_arrays,
    gin_forward,
    init_params,
    initial_head_arrays,
    predict_heads,
)
from molscreen.synth import synth_dataset
from molscreen.train import (
    EpochRecord,
    TrainConfig,
    TrainLog,
    batch_plan,
    masked_loss,
    train,
    train_with_split,
)
from molscreen.transfer import TransferError, transfer_train

sys.path.insert(0, str(Path(__file__).parent))
from helpers import (  # noqa: E402
    backbone_named_parameters,
    head_named_parameters,
    traced_peak,
    two_pass_losses,
)

# the package re-exports train(), which hides the submodule's name
train_module = importlib.import_module("molscreen.train")
model_module = importlib.import_module("molscreen.model")


def small_config(**kw):
    base = dict(
        embed_dim=8,
        n_layers=2,
        head_hidden=8,
        batch_size=8,
        min_epochs=3,
        patience=2,
        max_epochs=6,
        seed=0,
    )
    base.update(kw)
    return TrainConfig(**base)


def new_task_dataset(n=20, seed=0):
    ds, _ = synth_dataset(n_tasks=2, n_per_task=n, seed=seed, noise_sigma=0.0)
    return ds.restrict_to_tasks([0])


def pretrained_backbone(cfg, task_names=("a", "b", "c"), seed=42):
    return init_params(
        list(task_names),
        embed_dim=cfg.embed_dim,
        n_layers=cfg.n_layers,
        head_hidden=cfg.head_hidden,
        dropout=cfg.dropout,
        seed=seed,
    )


class TestTransferMechanics:
    def test_backbone_frozen_through_phase_one(self):
        cfg = small_config()
        pre = pretrained_backbone(cfg)
        ds = new_task_dataset()
        result = transfer_train(pre, ds, cfg, head_epochs=5)
        pre_hash = pre.backbone_hash()
        assert len(result.phase1_backbone_hashes) == 5
        assert all(h == pre_hash for h in result.phase1_backbone_hashes)

    def test_backbone_changes_in_phase_two(self):
        cfg = small_config()
        pre = pretrained_backbone(cfg)
        result = transfer_train(pre, new_task_dataset(), cfg, head_epochs=3)
        assert result.params.backbone_hash() != pre.backbone_hash()

    def test_head_learns_during_phase_one(self):
        cfg = small_config()
        pre = pretrained_backbone(cfg)
        ds = new_task_dataset()
        fresh = init_params(
            ds.task_names,
            embed_dim=cfg.embed_dim,
            n_layers=cfg.n_layers,
            head_hidden=cfg.head_hidden,
            dropout=cfg.dropout,
            seed=cfg.seed,
        )
        result = transfer_train(pre, ds, cfg, head_epochs=4)
        assert not np.array_equal(
            result.params.tensors["head.0.w1"].data, fresh.tensors["head.0.w1"].data
        )

    def test_epoch_numbering_default_twenty(self):
        cfg = small_config(max_epochs=3)
        pre = pretrained_backbone(cfg)
        result = transfer_train(pre, new_task_dataset(), cfg)
        assert [r.epoch for r in result.phase1_log.epochs] == list(range(1, 21))
        assert result.phase2_log.epochs[0].epoch == 21

    def test_phase_two_epoch_numbering_continues(self):
        cfg = small_config(max_epochs=4)
        pre = pretrained_backbone(cfg)
        result = transfer_train(pre, new_task_dataset(), cfg, head_epochs=3)
        assert [r.epoch for r in result.phase1_log.epochs] == [1, 2, 3]
        assert [r.epoch for r in result.phase2_log.epochs][:2] == [4, 5]

    def test_one_model_copy_per_transfer(self, monkeypatch):
        # phase 2's best-epoch snapshot: transfer builds its model from
        # copies of the pretrained backbone arrays and fresh heads, and the
        # warm-up keeps no snapshot of its own
        calls = []
        copy = ModelParams.copy

        def counting(self):
            calls.append(1)
            return copy(self)

        monkeypatch.setattr(ModelParams, "copy", counting)
        cfg = small_config()
        transfer_train(pretrained_backbone(cfg), new_task_dataset(), cfg, head_epochs=4)
        assert len(calls) == 1

    def test_new_head_takes_the_config_dimensions(self):
        # the backbone keeps the pretrained arrays; the head, head_hidden and
        # dropout come from the config, and the pretrained heads are dropped
        cfg = small_config(head_hidden=5, dropout=0.1)
        pre = pretrained_backbone(small_config())
        result = transfer_train(pre, new_task_dataset(), cfg, head_epochs=0)
        params = result.params
        assert (params.head_hidden, params.dropout, params.task_names) == (5, 0.1, ["task0"])
        assert [(n, t.shape) for n, t in head_named_parameters(params)] == [
            ("head.0.w1", (8, 5)), ("head.0.b1", (5,)), ("head.0.w2", (5, 1)),
            ("head.0.b2", (1,))]
        assert [n for n, _ in params.named_backbone_arrays()] == [
            n for n, _ in pre.named_backbone_arrays()]

    def test_pretrained_object_not_mutated(self):
        cfg = small_config()
        pre = pretrained_backbone(cfg)
        before = {n: p.data.copy() for n, p in pre.named_parameters()}
        transfer_train(pre, new_task_dataset(), cfg, head_epochs=2)
        for name, p in pre.named_parameters():
            np.testing.assert_array_equal(p.data, before[name])

    def test_zero_warmup_random_backbone_equals_cold_start(self):
        # with no head-only phase and a backbone that is itself a fresh
        # seed-cfg initialization, transfer is exactly cold-start training
        cfg = small_config(seed=5)
        ds = new_task_dataset()
        pre = init_params(
            ["anything"],
            embed_dim=cfg.embed_dim,
            n_layers=cfg.n_layers,
            head_hidden=cfg.head_hidden,
            dropout=cfg.dropout,
            seed=cfg.seed,
        )
        result = transfer_train(pre, ds, cfg, head_epochs=0)
        cold_params, cold_log = train(ds, cfg)
        assert result.phase1_log.epochs == []
        assert result.phase2_log.epochs == cold_log.epochs
        assert result.params.backbone_hash() == cold_params.backbone_hash()
        np.testing.assert_array_equal(
            result.params.tensors["head.0.w2"].data, cold_params.tensors["head.0.w2"].data
        )


transfer_module = importlib.import_module("molscreen.transfer")


class TestFreezeCheck:
    """Phase 1 hashes the backbone once and compares its arrays bit for bit
    after each epoch; a change anywhere must still show in the hashes."""

    EPOCHS = 5

    def _transfer_changing_at_epoch_3(self, monkeypatch, change):
        inner = transfer_module.train_with_split

        def wrapped(*args, epoch_callback=None, **kwargs):
            if kwargs.get("trainable_names") is not None:
                record = epoch_callback

                def epoch_callback(epoch, p):
                    if epoch == 3:
                        change(p)
                    record(epoch, p)

            return inner(*args, epoch_callback=epoch_callback, **kwargs)

        monkeypatch.setattr(transfer_module, "train_with_split", wrapped)
        cfg = small_config(max_epochs=1, min_epochs=1)
        pre = pretrained_backbone(cfg)
        result = transfer_train(pre, new_task_dataset(), cfg, head_epochs=self.EPOCHS)
        changed = pre.copy()
        change(changed)
        return pre.backbone_hash(), changed.backbone_hash(), result.phase1_backbone_hashes

    def _check(self, monkeypatch, change):
        start, changed, hashes = self._transfer_changing_at_epoch_3(monkeypatch, change)
        assert changed != start
        assert hashes == [start] * 2 + [changed] * (self.EPOCHS - 2)

    def test_value_change_shows_in_the_hashes(self, monkeypatch):
        def change(p):
            w1 = p.tensors["layer.1.w1"].data
            w1[2, 3] = np.nextafter(w1[2, 3], np.inf)

        self._check(monkeypatch, change)

    def test_zero_sign_flip_shows_in_the_hashes(self, monkeypatch):
        def change(p):
            b2 = p.tensors["layer.0.b2"].data
            assert _bits(b2[1]) == _bits(0.0)
            b2[1] = -0.0

        self._check(monkeypatch, change)

    def test_running_statistics_change_shows_in_the_hashes(self, monkeypatch):
        def change(p):
            p.state["layer.1.bn_running_var"][0] *= 2.0

        self._check(monkeypatch, change)

    def test_one_hash_per_phase_one(self, monkeypatch):
        calls = []
        backbone_hash = ModelParams.backbone_hash

        def counting(self):
            calls.append(1)
            return backbone_hash(self)

        monkeypatch.setattr(ModelParams, "backbone_hash", counting)
        cfg = small_config(max_epochs=1, min_epochs=1)
        result = transfer_train(pretrained_backbone(cfg), new_task_dataset(), cfg,
                                head_epochs=self.EPOCHS)
        assert len(calls) == 1
        assert len(set(result.phase1_backbone_hashes)) == 1
        assert len(result.phase1_backbone_hashes) == self.EPOCHS


class TestTransferValidation:
    def test_multi_task_new_dataset_rejected(self):
        cfg = small_config()
        pre = pretrained_backbone(cfg)
        ds, _ = synth_dataset(n_tasks=2, n_per_task=20, seed=0)
        with pytest.raises(TransferError):
            transfer_train(pre, ds, cfg)

    def test_dimension_mismatch_rejected(self):
        cfg = small_config(embed_dim=16)
        pre = pretrained_backbone(small_config(embed_dim=8))
        with pytest.raises(TransferError):
            transfer_train(pre, new_task_dataset(), cfg)

    def test_layer_count_mismatch_rejected(self):
        cfg = small_config(n_layers=1)
        pre = pretrained_backbone(small_config(n_layers=2))
        with pytest.raises(TransferError):
            transfer_train(pre, new_task_dataset(), cfg)

    def test_head_bytes_checked_before_drawing(self, monkeypatch):
        """A new head too large for memory is refused by the model's byte
        count before anything is copied or drawn."""
        cfg = small_config()
        pre, ds = pretrained_backbone(cfg), new_task_dataset()
        monkeypatch.setattr(model_module, "_memory_limit", lambda: 2 << 30)
        wide = dataclasses.replace(cfg, head_hidden=10**8)

        def refused():
            with pytest.raises(MemoryError, match="head_hidden=100000000: the parameters"):
                transfer_train(pre, ds, wide)

        _, peak, _ = traced_peak(refused)
        assert peak < 2 << 20

    def test_negative_head_epochs_rejected(self):
        cfg = small_config()
        pre = pretrained_backbone(cfg)
        with pytest.raises(ValueError):
            transfer_train(pre, new_task_dataset(), cfg, head_epochs=-1)


# batches of 2-7 atom rows: at 256 dims each (n x 512) @ (512 x 256) product
# is one zero-padded tail tile, whose bits differ from BLAS's own blocking
# of the same rows, so a forward that tiled only with a tape would part here
TINY_BATCHES = (("C", "O"), ("CC", "O"), ("CCC", "CO"), ("CCCC", "CCO"))


class TestTapelessTrainForward:
    """Frozen phase 1 runs the backbone in train mode without a tape and
    claims the taped forward's bits: with a tape or without, in train mode
    or eval, every product runs the same row tiles."""

    @pytest.mark.parametrize("smiles", TINY_BATCHES, ids="+".join)
    def test_equals_taped_forward(self, smiles):
        params = init_params(["a"], embed_dim=256, n_layers=8, head_hidden=8, seed=0)
        batch = GraphBatch.from_graphs([featurize_smiles(s) for s in smiles])
        kw = dict(train=True, rng_path=(0, 1), update_running=False)
        bare = gin_forward(batch, params, **kw).data
        taped = gin_forward(batch, params, tape=Tape(), **kw).data
        np.testing.assert_array_equal(bare.view(np.int64), taped.view(np.int64))


def fixed_epochs(config, epochs):
    """``config`` for exactly ``epochs`` epochs: with min_epochs at the cap
    and the count starting at 1, early stopping cannot fire."""
    return dataclasses.replace(config, min_epochs=epochs, max_epochs=epochs)


def reference_train_with_split(ds, config, masks, params, trainable_names,
                               epoch_callback=None):
    """train_with_split's head-only mode under a fixed_epochs config as it
    ran before frozen backbones were special-cased: every training batch
    records the whole model on the tape (running statistics not updated)
    and every epoch scores each mask's rows through ``predict_graphs``.
    Like the real mode, it returns the live parameters."""
    assert config.min_epochs >= config.max_epochs
    all_named = list(params.named_parameters())
    wanted = set(trainable_names)
    trainable = [t for name, t in all_named if name in wanted]

    def forward_loss(batch, labels, mask, rng_path, tape):
        z = gin_forward(batch, params, train=True, rng_path=rng_path,
                        update_running=False, tape=tape)
        pred = predict_heads(z, params, train=True, rng_path=rng_path, tape=tape)
        return masked_loss(pred, labels, mask, tape=tape)

    train_rows = np.flatnonzero(masks.train.any(axis=1))
    adam = AdamState(lr=config.lr)
    log = TrainLog()
    log.stop_reason = "max_epochs"
    for epoch in range(1, config.max_epochs + 1):
        order = train_rows[rng_stream(config.seed, 2, epoch).permutation(train_rows.size)]
        for b_idx, (s, e) in enumerate(batch_plan(order.size, config.batch_size)):
            rows = order[s:e]
            tape = Tape()
            batch = GraphBatch.from_graphs([ds.graphs[i] for i in rows])
            loss = forward_loss(batch, ds.labels[rows], masks.train[rows],
                                (config.seed, 1, epoch, b_idx), tape)
            for _, t in all_named:
                t.grad = None
            tape.backward(loss)
            grads = [t.grad if t.grad is not None else np.zeros_like(t.data)
                     for t in trainable]
            adam_step(trainable, grads, adam)
        train_loss, val_loss = two_pass_losses(ds, masks, params)
        log.epochs.append(EpochRecord(epoch, train_loss, val_loss))
        if val_loss < log.best_val_loss:
            log.best_val_loss, log.best_epoch = val_loss, epoch
        log.stop_epoch = epoch
        if epoch_callback is not None:
            epoch_callback(epoch, params)
    return params, log


def _bits(value):
    return np.asarray(value, dtype=np.float64).view(np.int64)


def _assert_same_logs(got, want):
    assert [r.epoch for r in got.epochs] == [r.epoch for r in want.epochs]
    for a, b in zip(got.epochs, want.epochs):
        assert _bits(a.train_loss) == _bits(b.train_loss), a.epoch
        assert _bits(a.val_loss) == _bits(b.val_loss), a.epoch
    assert (got.best_epoch, got.stop_epoch, got.stop_reason) == (
        want.best_epoch, want.stop_epoch, want.stop_reason)
    assert _bits(got.best_val_loss) == _bits(want.best_val_loss)


def _assert_same_state(got, want):
    assert got.state.keys() == want.state.keys()
    for name, arr in want.state.items():
        np.testing.assert_array_equal(_bits(got.state[name]), _bits(arr), err_msg=name)


def _assert_same_params(got, want):
    got_named = dict(got.named_parameters())
    for name, t in want.named_parameters():
        np.testing.assert_array_equal(_bits(got_named[name].data), _bits(t.data), err_msg=name)
    _assert_same_state(got, want)


def spy_on_tape(monkeypatch):
    """The ids of every tensor passed to Tape.record from now on."""
    recorded = set()
    record = Tape.record

    def spy(tape, output, inputs, backward_fn):
        recorded.update(id(t) for t in inputs)
        return record(tape, output, inputs, backward_fn)

    monkeypatch.setattr(Tape, "record", spy)
    return recorded


def warmup_start(cfg, ds):
    """What phase 1 of transfer_train starts from: a pretrained backbone,
    with running statistics moved off their defaults, under a fresh head."""
    pretrained = pretrained_backbone(cfg)
    rng = np.random.default_rng(3)
    for k in range(cfg.n_layers):
        pretrained.state[f"layer.{k}.bn_running_mean"][:] = rng.normal(size=cfg.embed_dim)
        pretrained.state[f"layer.{k}.bn_running_var"][:] = rng.uniform(
            0.5, 2.0, size=cfg.embed_dim)
    arrays = dict(pretrained.named_backbone_arrays())
    arrays.update(initial_head_arrays(ds.n_tasks, cfg.embed_dim, cfg.head_hidden, cfg.seed))
    return from_arrays(ds.task_names, cfg.embed_dim, cfg.n_layers, cfg.head_hidden,
                       cfg.dropout, arrays)


class TestFrozenPhaseOracle:
    """With only head parameters trainable, the tapeless backbone forward
    and the eval embeddings encoded once give, bit for bit, what the full
    tape and per-epoch re-encoding gave; the parameters returned are the
    live ones, as the last epoch left them.  Eval chunks of 5 rows split
    the 40 rows either mask labels (32 training, 8 validation) across
    chunks."""

    EPOCHS = 4
    CHUNK = 5

    @pytest.fixture(autouse=True)
    def small_inference_chunks(self, monkeypatch):
        monkeypatch.setattr(model_module, "INFERENCE_BATCH", self.CHUNK)

    def _run(self, trainer, cfg, ds, masks):
        params = warmup_start(cfg, ds)
        hashes = []
        best, log = trainer(
            ds, fixed_epochs(cfg, self.EPOCHS), masks, params=params,
            trainable_names=params.head_names(),
            epoch_callback=lambda _epoch, p: hashes.append(p.backbone_hash()),
        )
        return params, best, log, hashes

    def _setup(self):
        cfg = small_config()
        ds = new_task_dataset(n=40)
        return cfg, ds, split_train_val(ds, cfg.seed, cfg.val_fraction)

    def test_phase_one_matches_full_tape_reference(self):
        cfg, ds, masks = self._setup()
        start = warmup_start(cfg, ds)
        params, best, log, hashes = self._run(train_with_split, cfg, ds, masks)
        ref_params, _, ref_log, ref_hashes = self._run(
            reference_train_with_split, cfg, ds, masks)
        _assert_same_logs(log, ref_log)
        assert best is params
        _assert_same_params(best, ref_params)
        assert hashes == ref_hashes == [start.backbone_hash()] * self.EPOCHS
        assert not np.array_equal(
            params.tensors["head.0.w1"].data, start.tensors["head.0.w1"].data
        )

    def test_transfer_phase_one_log_matches_reference(self):
        cfg, ds, masks = self._setup()
        pre = warmup_start(cfg, ds)
        result = transfer_train(pre, ds, cfg, head_epochs=self.EPOCHS)
        _, _, ref_log, ref_hashes = self._run(reference_train_with_split, cfg, ds, masks)
        _assert_same_logs(result.phase1_log, ref_log)
        assert result.phase1_backbone_hashes == ref_hashes

    def test_tiny_batches_match_full_tape_reference(self):
        # training batches of 2-7 atom rows at 256 dims, where tapeless and
        # taped products would part if only one of them were tiled
        cfg = small_config(embed_dim=256, n_layers=8, head_hidden=16, batch_size=2,
                           val_fraction=0.25)
        smiles = [s for pair in TINY_BATCHES for s in pair if s != "O"] + ["O", "N"]
        ds = TaskDataset.from_smiles(smiles, 0.1 * np.arange(8.0)[:, None], ["t"],
                                     ["lower_is_better"])
        masks = split_train_val(ds, cfg.seed, cfg.val_fraction)
        params, _, log, hashes = self._run(train_with_split, cfg, ds, masks)
        ref_params, _, ref_log, ref_hashes = self._run(
            reference_train_with_split, cfg, ds, masks)
        _assert_same_logs(log, ref_log)
        _assert_same_params(params, ref_params)
        assert hashes == ref_hashes

    def test_no_backbone_tensor_reaches_the_tape(self, monkeypatch):
        cfg, ds, masks = self._setup()
        params = warmup_start(cfg, ds)
        recorded = spy_on_tape(monkeypatch)
        train_with_split(ds, fixed_epochs(cfg, 2), masks, params=params,
                         trainable_names=params.head_names())
        backbone = {id(t) for _, t in backbone_named_parameters(params)}
        heads = {id(t) for _, t in head_named_parameters(params)}
        assert heads <= recorded
        assert not backbone & recorded

    def test_eval_forward_once_per_eval_batch(self, monkeypatch):
        cfg, ds, masks = self._setup()
        calls = {True: 0, False: 0}

        def counting(*args, **kwargs):
            calls[bool(kwargs.get("train"))] += 1
            return gin_forward(*args, **kwargs)

        # training batches and the frozen encodings call train's binding,
        # predict calls the model's
        monkeypatch.setattr(train_module, "gin_forward", counting)
        monkeypatch.setattr(model_module, "gin_forward", counting)
        # one pass over the rows either mask labels, in CHUNK-row chunks
        n_eval = -(-int((masks.train.any(axis=1) | masks.val.any(axis=1)).sum()) // self.CHUNK)
        n_train = len(batch_plan(int(masks.train.any(axis=1).sum()), cfg.batch_size))
        assert n_eval == 8
        params = warmup_start(cfg, ds)
        train_with_split(ds, fixed_epochs(cfg, self.EPOCHS), masks, params=params,
                         trainable_names=params.head_names())
        assert calls == {False: n_eval, True: n_train * self.EPOCHS}
        # unfrozen, every epoch re-encodes every eval chunk
        calls.update({True: 0, False: 0})
        train_with_split(ds, fixed_epochs(cfg, 2), masks, params=params)
        assert calls == {False: 2 * n_eval, True: 2 * n_train}
