"""Transfer training: frozen-backbone head warmup, then full fine-tuning."""

import importlib

import numpy as np
import pytest

from molscreen.data import split_train_val
from molscreen.engine import AdamState, Tape, adam_step, ops, rng_stream
from molscreen.model import GraphBatch, gin_forward, init_heads, init_params, predict_heads
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

# the package re-exports train(), which hides the submodule's name
train_module = importlib.import_module("molscreen.train")


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
        assert not np.array_equal(result.params.heads[0].w1.data, fresh.heads[0].w1.data)

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
            result.params.heads[0].w2.data, cold_params.heads[0].w2.data
        )


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

    def test_negative_head_epochs_rejected(self):
        cfg = small_config()
        pre = pretrained_backbone(cfg)
        with pytest.raises(ValueError):
            transfer_train(pre, new_task_dataset(), cfg, head_epochs=-1)


def reference_train_with_split(ds, config, masks, params, trainable_names, stop_after,
                               epoch_callback=None):
    """train_with_split for a fixed number of epochs as it ran before frozen
    backbones were special-cased: every training batch records the whole
    model on the tape, and every epoch re-encodes every eval batch."""
    all_named = list(params.named_parameters())
    wanted = set(trainable_names)
    trainable = [t for name, t in all_named if name in wanted]
    update_running = {name for name, _ in params.backbone_named_parameters()} <= wanted

    def forward_loss(batch, labels, mask, train, rng_path=None, tape=None):
        z = gin_forward(batch, params, train=train, rng_path=rng_path,
                        update_running=update_running, tape=tape)
        cols = predict_heads(z, params, range(len(params.heads)), train=train,
                             rng_path=rng_path, tape=tape)
        return masked_loss(ops.concat_columns(cols, tape=tape), labels, mask, tape=tape)

    def eval_loss(mask):
        rows = np.flatnonzero(mask.any(axis=1))
        values = []
        for s in range(0, rows.size, config.batch_size):
            chunk = rows[s : s + config.batch_size]
            batch = GraphBatch.from_graphs([ds.graphs[i] for i in chunk])
            values.append(forward_loss(batch, ds.labels[chunk], mask[chunk], False).item())
        return sum(values) / len(values)

    train_rows = np.flatnonzero(masks.train.any(axis=1))
    adam = AdamState(lr=config.lr)
    log = TrainLog()
    best_params = params
    log.stop_reason = "max_epochs"
    for epoch in range(1, stop_after + 1):
        order = train_rows[rng_stream(config.seed, 2, epoch).permutation(train_rows.size)]
        for b_idx, (s, e) in enumerate(batch_plan(order.size, config.batch_size)):
            rows = order[s:e]
            tape = Tape()
            batch = GraphBatch.from_graphs([ds.graphs[i] for i in rows])
            loss = forward_loss(batch, ds.labels[rows], masks.train[rows], True,
                                (config.seed, 1, epoch, b_idx), tape)
            for _, t in all_named:
                t.grad = None
            tape.backward(loss)
            grads = [t.grad if t.grad is not None else np.zeros_like(t.data)
                     for t in trainable]
            adam_step(trainable, grads, adam)
        train_loss, val_loss = eval_loss(masks.train), eval_loss(masks.val)
        log.epochs.append(EpochRecord(epoch, train_loss, val_loss))
        if val_loss < log.best_val_loss:
            log.best_val_loss, log.best_epoch = val_loss, epoch
            best_params = params.copy()
        log.stop_epoch = epoch
        if epoch_callback is not None:
            epoch_callback(epoch, params)
    return best_params, log


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
    got_state = dict(got.named_state_arrays())
    for name, arr in want.named_state_arrays():
        np.testing.assert_array_equal(_bits(got_state[name]), _bits(arr), err_msg=name)


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
    params = pretrained_backbone(cfg)
    rng = np.random.default_rng(3)
    for layer in params.layers:
        layer.bn_state.running_mean[:] = rng.normal(size=cfg.embed_dim)
        layer.bn_state.running_var[:] = rng.uniform(0.5, 2.0, size=cfg.embed_dim)
    params.task_names = list(ds.task_names)
    params.heads = init_heads(ds.task_names, params.embed_dim, cfg.head_hidden, cfg.seed)
    return params


def head_names(params):
    return [name for name, _ in params.head_named_parameters()]


class TestFrozenPhaseOracle:
    """With no backbone parameter trainable, the tapeless backbone forward
    and the eval embeddings encoded once give, bit for bit, what the full
    tape and per-epoch re-encoding gave."""

    EPOCHS = 4

    def _run(self, trainer, cfg, ds, masks):
        params = warmup_start(cfg, ds)
        hashes = []
        best, log = trainer(
            ds, cfg, masks, params=params, trainable_names=head_names(params),
            stop_after=self.EPOCHS,
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
        ref_params, ref_best, ref_log, ref_hashes = self._run(
            reference_train_with_split, cfg, ds, masks)
        _assert_same_logs(log, ref_log)
        _assert_same_params(params, ref_params)
        _assert_same_params(best, ref_best)
        assert hashes == ref_hashes == [start.backbone_hash()] * self.EPOCHS
        assert not np.array_equal(params.heads[0].w1.data, start.heads[0].w1.data)

    def test_transfer_phase_one_log_matches_reference(self):
        cfg, ds, masks = self._setup()
        pre = warmup_start(cfg, ds)
        result = transfer_train(pre, ds, cfg, head_epochs=self.EPOCHS)
        _, _, ref_log, ref_hashes = self._run(reference_train_with_split, cfg, ds, masks)
        _assert_same_logs(result.phase1_log, ref_log)
        assert result.phase1_backbone_hashes == ref_hashes

    def test_no_backbone_tensor_reaches_the_tape(self, monkeypatch):
        cfg, ds, masks = self._setup()
        params = warmup_start(cfg, ds)
        recorded = spy_on_tape(monkeypatch)
        train_with_split(ds, cfg, masks, params=params,
                         trainable_names=head_names(params), stop_after=2)
        backbone = {id(t) for _, t in params.backbone_named_parameters()}
        heads = {id(t) for _, t in params.head_named_parameters()}
        assert heads <= recorded
        assert not backbone & recorded

    def test_eval_forward_once_per_eval_batch(self, monkeypatch):
        cfg, ds, masks = self._setup()
        calls = {True: 0, False: 0}

        def counting(*args, **kwargs):
            calls[bool(kwargs.get("train"))] += 1
            return gin_forward(*args, **kwargs)

        monkeypatch.setattr(train_module, "gin_forward", counting)
        n_eval = sum(
            -(-int(m.any(axis=1).sum()) // cfg.batch_size) for m in (masks.train, masks.val)
        )
        n_train = len(batch_plan(int(masks.train.any(axis=1).sum()), cfg.batch_size))
        assert n_eval >= 3
        params = warmup_start(cfg, ds)
        train_with_split(ds, cfg, masks, params=params,
                         trainable_names=head_names(params), stop_after=self.EPOCHS)
        assert calls == {False: n_eval, True: n_train * self.EPOCHS}
        # unfrozen, every epoch re-encodes every eval batch
        calls.update({True: 0, False: 0})
        train_with_split(ds, cfg, masks, params=params, stop_after=2)
        assert calls == {False: 2 * n_eval, True: 2 * n_train}


class TestPartialFreeze:
    """One backbone tensor trainable keeps the full-tape path: it matches
    the reference bit for bit, only that tensor moves, and the running
    statistics stay frozen."""

    def test_one_backbone_tensor_trainable(self, monkeypatch):
        cfg = small_config()
        ds = new_task_dataset(n=40)
        masks = split_train_val(ds, cfg.seed, cfg.val_fraction)
        start = warmup_start(cfg, ds)
        names = head_names(start) + ["layer.0.w1"]
        params, ref_params = warmup_start(cfg, ds), warmup_start(cfg, ds)
        recorded = spy_on_tape(monkeypatch)
        best, log = train_with_split(ds, cfg, masks, params=params,
                                     trainable_names=names, stop_after=3)
        ref_best, ref_log = reference_train_with_split(ds, cfg, masks, ref_params, names, 3)
        _assert_same_logs(log, ref_log)
        _assert_same_params(params, ref_params)
        _assert_same_params(best, ref_best)
        assert id(params.layers[0].w1) in recorded
        start_named = dict(start.backbone_named_parameters())
        changed = [name for name, t in params.backbone_named_parameters()
                   if not np.array_equal(_bits(t.data), _bits(start_named[name].data))]
        assert changed == ["layer.0.w1"]
        _assert_same_state(params, start)
