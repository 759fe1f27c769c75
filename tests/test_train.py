"""Multi-task trainer: masked loss, early stopping, the epoch loop."""

import importlib
import sys
from pathlib import Path

import numpy as np
import pytest

from molscreen.data import SplitMasks, TaskDataset, split_train_val
from molscreen.engine import Tape, Tensor
from molscreen.model import init_params, predict_graphs
from molscreen.synth import synth_dataset
from molscreen.train import (
    EpochRecord,
    TrainConfig,
    TrainLog,
    TrainingDiverged,
    batch_plan,
    masked_loss,
    train,
    train_with_split,
)

sys.path.insert(0, str(Path(__file__).parent))
from helpers import (  # noqa: E402
    backbone_named_parameters,
    head_named_parameters,
    replay_stopping,
    two_pass_losses,
)

NAN = float("nan")

# the package re-exports train(), which hides the submodule's name
train_module = importlib.import_module("molscreen.train")
model_module = importlib.import_module("molscreen.model")

# a pool of small valid molecules to build datasets from
MOLECULES = [
    "C", "CC", "CCC", "CCO", "CCN", "CC(C)C", "C1CC1", "C1CCC1", "c1ccccc1",
    "CCCl", "CC=O", "CC(=O)O", "C#N", "CCOC", "CN(C)C", "C1CCCCC1", "CCS",
    "OCCO", "NCCN", "CC#N", "CCBr", "c1ccncc1", "CC(N)=O", "COC=O",
    "CC(C)O", "CCCCC", "C=CC=C", "C1CCOC1", "CC(C)(C)C", "OC1CCCC1",
    "CNC", "CCCO", "C=O", "CCC#N", "c1ccoc1", "CSC", "NC=O", "CC(Cl)C",
    "C1CN1", "OCC=C",
]


def linear_labels(smiles, scale=0.25, bias=-1.0):
    """A noise-free target linear in atom count (easily learnable)."""
    from molscreen.smiles import parse_smiles

    return np.array([scale * len(parse_smiles(s).atoms) + bias for s in smiles])


def make_dataset(n, n_tasks=1, aux_labeled=True):
    smiles = [MOLECULES[i % len(MOLECULES)] for i in range(n)]
    y = linear_labels(smiles)
    labels = np.full((n, n_tasks), NAN)
    labels[:, 0] = y
    for t in range(1, n_tasks):
        if aux_labeled:
            labels[:, t] = 0.5 * y + t
    names = [f"T{t}" for t in range(n_tasks)]
    return TaskDataset.from_smiles(
        smiles, labels, names, ["lower_is_better"] * n_tasks
    )


def tiny_config(**kw):
    base = dict(
        embed_dim=8,
        n_layers=2,
        head_hidden=8,
        batch_size=8,
        min_epochs=4,
        patience=2,
        max_epochs=8,
        seed=0,
    )
    base.update(kw)
    return TrainConfig(**base)


def loss_over_predictions(ds, mask, params):
    """``masked_loss`` over ``predict_graphs`` of every row of ``mask`` that
    carries a label, and the same loss as a plain NumPy expression."""
    rows = np.flatnonzero(mask.any(axis=1))
    pred = predict_graphs([ds.graphs[i] for i in rows], params)
    labels, m = ds.labels[rows], mask[rows]
    exact = masked_loss(Tensor(pred), labels, m).item()
    return exact, ((pred - labels)[m] ** 2).sum() / m.sum()


class TestMaskedLoss:
    def test_single_labeled_pair(self):
        pred = Tensor(np.array([[0.0, 123.0]]))
        labels = np.array([[1.0, NAN]])
        mask = np.isfinite(labels)
        assert masked_loss(pred, labels, mask).item() == 1.0

    def test_zero_when_equal(self):
        pred = Tensor(np.array([[1.0, 2.0], [3.0, 4.0]]))
        labels = pred.data.copy()
        assert masked_loss(pred, labels, np.ones((2, 2), bool)).item() == 0.0

    def test_mean_normalization_over_labeled_pairs(self):
        # 2 samples x 2 tasks fully labeled, unit error everywhere -> 4/4 = 1
        pred = Tensor(np.zeros((2, 2)))
        labels = np.ones((2, 2))
        assert masked_loss(pred, labels, np.ones((2, 2), bool)).item() == 1.0

    def test_no_labeled_pairs_error(self):
        pred = Tensor(np.zeros((2, 2)))
        with pytest.raises(ValueError):
            masked_loss(pred, np.zeros((2, 2)), np.zeros((2, 2), bool))

    def test_unlabeled_gradient_exactly_zero(self):
        tape = Tape()
        pred = Tensor(np.array([[2.0, 3.0], [4.0, 5.0]]), requires_grad=True)
        labels = np.array([[1.0, NAN], [NAN, 1.0]])
        mask = np.isfinite(labels)
        loss = masked_loss(pred, labels, mask, tape=tape)
        tape.backward(loss)
        assert pred.grad[0, 1] == 0.0
        assert pred.grad[1, 0] == 0.0
        assert pred.grad[0, 0] != 0.0


class TestEarlyStoppingAutomaton:
    def test_always_violating_stops_at_151(self):
        log = TrainLog()
        stopped_at = None
        for epoch in range(1, 500):
            if log.observe(EpochRecord(epoch, 1.0, 2.0), min_epochs=100, patience=50):
                stopped_at = epoch
                break
        assert stopped_at == 151
        assert (log.stop_epoch, log.stop_reason, log.violations) == (151, "early_stopping", 51)

    def test_violation_at_min_epoch_boundary_does_not_count(self):
        # violations during epochs <= min_epochs are ignored entirely
        log = TrainLog()
        for epoch in range(1, 151):
            assert not log.observe(EpochRecord(epoch, 1.0, 2.0), min_epochs=100, patience=50)
            assert log.stop_reason == "max_epochs"
        assert log.observe(EpochRecord(151, 1.0, 2.0), min_epochs=100, patience=50)

    def test_equal_losses_not_a_violation(self):
        log = TrainLog()
        assert not log.observe(EpochRecord(1, 1.0, 1.0), min_epochs=0, patience=1)
        assert not log.observe(EpochRecord(2, 1.0, 1.0), min_epochs=0, patience=1)
        assert log.violations == 0

    def test_recovery_resets_counter(self):
        log = TrainLog()
        script = [(1, 2.0), (2, 2.0), (3, 0.5), (4, 2.0), (5, 2.0)]  # epoch 3 recovers
        for epoch, val_loss in script:
            assert not log.observe(EpochRecord(epoch, 1.0, val_loss), min_epochs=0, patience=2)
        # third consecutive violation > patience=2
        assert log.observe(EpochRecord(6, 1.0, 2.0), min_epochs=0, patience=2)

    def test_simulate_always_violating_best_is_min_val(self):
        # decreasing val that always exceeds train: min val at the stop epoch
        curve = [(0.5, 1.0 + 1.0 / e) for e in range(1, 1001)]
        stop, best, reason = replay_stopping(
            curve, min_epochs=100, patience=50, max_epochs=1000
        )
        assert stop == 151
        assert best == 151
        assert reason == "early_stopping"

    def test_simulate_constant_val_best_is_first(self):
        curve = [(1.0, 2.0)] * 1000
        stop, best, reason = replay_stopping(
            curve, min_epochs=100, patience=50, max_epochs=1000
        )
        assert stop == 151
        assert best == 1  # earliest epoch achieving the minimum

    def test_simulate_never_violating_runs_to_cap(self):
        vals = [0.9 - 0.001 * e for e in range(1, 121)]
        curve = [(1.0, v) for v in vals]
        stop, best, reason = replay_stopping(
            curve, min_epochs=100, patience=50, max_epochs=120
        )
        assert stop == 120
        assert best == 120  # val strictly decreasing
        assert reason == "max_epochs"

    def test_simulate_violate_then_recover(self):
        # epochs 1-100 fine; 101-130 violate (30 < 51, no stop); 131-140
        # recover with new strictly-decreasing minima; 141-191 violate again
        curve = {}
        for e in range(1, 101):
            curve[e] = (1.0, 0.9)
        for e in range(101, 131):
            curve[e] = (1.0, 1.5)
        for i, e in enumerate(range(131, 141)):
            curve[e] = (1.0, 0.7 - 0.01 * i)
        for e in range(141, 300):
            curve[e] = (1.0, 1.2)
        script = [curve[e] for e in sorted(curve)]
        stop, best, reason = replay_stopping(
            script, min_epochs=100, patience=50, max_epochs=1000
        )
        assert stop == 191
        assert best == 140  # val 0.61 is the global minimum
        assert reason == "early_stopping"


class TestBatchPlan:
    def test_even_division(self):
        assert batch_plan(16, 8) == [(0, 8), (8, 16)]

    def test_remainder_keeps_own_batch(self):
        assert batch_plan(19, 8) == [(0, 8), (8, 16), (16, 19)]

    def test_trailing_singleton_merges_into_previous(self):
        # a 1-row train batch cannot feed batch norm
        assert batch_plan(17, 8) == [(0, 8), (8, 17)]

    def test_single_batch(self):
        assert batch_plan(5, 8) == [(0, 5)]

    def test_too_small(self):
        with pytest.raises(ValueError):
            batch_plan(1, 8)


class TestTrainConfig:
    def test_defaults(self):
        cfg = TrainConfig()
        assert cfg.lr == 0.001
        assert cfg.batch_size == 128
        assert cfg.dropout == 0.2
        assert cfg.embed_dim == 256
        assert cfg.n_layers == 8
        assert cfg.val_fraction == 0.2
        assert cfg.min_epochs == 100
        assert cfg.patience == 50
        assert cfg.max_epochs == 1000

    def test_invalid_rejected(self):
        with pytest.raises(ValueError):
            TrainConfig(val_fraction=0.0)
        with pytest.raises(ValueError):
            TrainConfig(val_fraction=1.0)
        with pytest.raises(ValueError):
            TrainConfig(patience=0)
        with pytest.raises(ValueError):
            TrainConfig(max_epochs=0)

    @pytest.mark.parametrize("lr", [0.0, -1e-3, NAN, float("inf")])
    def test_bad_learning_rate_rejected(self, lr):
        with pytest.raises(ValueError, match="lr"):
            TrainConfig(lr=lr)


class TestTrainLoop:
    def test_log_one_record_per_epoch_and_contiguous(self):
        ds = make_dataset(24, 2)
        params, log = train(ds, tiny_config())
        assert 1 <= len(log.epochs) <= 8
        assert [r.epoch for r in log.epochs] == list(range(1, len(log.epochs) + 1))
        for r in log.epochs:
            assert np.isfinite(r.train_loss) and np.isfinite(r.val_loss)
        assert log.stop_epoch == len(log.epochs)

    def test_returned_params_hit_min_val_loss(self):
        ds = make_dataset(24, 2)
        cfg = tiny_config()
        params, log = train(ds, cfg)
        vals = [r.val_loss for r in log.epochs]
        assert log.best_epoch == int(np.argmin(vals)) + 1
        assert log.best_val_loss == min(vals)
        # re-evaluating the returned parameters reproduces the logged minimum
        masks = split_train_val(ds, cfg.seed, cfg.val_fraction)
        re_val, _ = loss_over_predictions(ds, masks.val, params)
        assert re_val == log.best_val_loss

    @pytest.mark.parametrize("batch_size", [65, 128, 256])
    def test_epoch_losses_come_from_the_inference_path(self, batch_size):
        # each logged loss is the mean over every labeled cell of one
        # predict_graphs matrix, however the training batches fall: ~104
        # training rows are one eval chunk at every batch size here
        ds, _ = synth_dataset(n_tasks=2, n_per_task=130, seed=0)
        ds = ds.restrict_to_tasks([0])
        cfg = tiny_config(embed_dim=16, head_hidden=16, batch_size=batch_size, max_epochs=1)
        masks = split_train_val(ds, cfg.seed, cfg.val_fraction)
        params, log = train_with_split(ds, cfg, masks)
        (record,) = log.epochs
        for logged, mask in ((record.train_loss, masks.train), (record.val_loss, masks.val)):
            exact, by_numpy = loss_over_predictions(ds, mask, params)
            assert logged == exact
            assert logged == pytest.approx(by_numpy, rel=1e-12, abs=0.0)

    def test_one_eval_pass_per_epoch(self, monkeypatch):
        # dense two-task labels split per task: most compounds carry both a
        # training and a validation cell, and 7-row chunks leave a tail
        monkeypatch.setattr(model_module, "INFERENCE_BATCH", 7)
        forward = model_module.gin_forward
        calls = []
        monkeypatch.setattr(
            model_module, "gin_forward",
            lambda *a, **k: calls.append(k.get("train", False)) or forward(*a, **k),
        )
        ds, _ = synth_dataset(n_tasks=2, n_per_task=40, seed=0)
        cfg = tiny_config(max_epochs=3, min_epochs=3)
        masks = split_train_val(ds, cfg.seed, cfg.val_fraction)
        union = int((masks.train.any(axis=1) | masks.val.any(axis=1)).sum())
        assert union < int(masks.train.any(axis=1).sum() + masks.val.any(axis=1).sum())
        per_epoch, reference = [], []

        def check(_epoch, params):
            per_epoch.append(calls.count(False))
            reference.append(two_pass_losses(ds, masks, params))
            calls.clear()

        _, log = train_with_split(ds, cfg, masks, epoch_callback=check)
        assert per_epoch == [-(-union // 7)] * 3
        for record, (train_loss, val_loss) in zip(log.epochs, reference, strict=True):
            assert record.train_loss.hex() == train_loss.hex(), record.epoch
            assert record.val_loss.hex() == val_loss.hex(), record.epoch

    def test_empty_validation_mask_fails_before_any_step(self, monkeypatch):
        steps = []
        monkeypatch.setattr(train_module, "adam_step", lambda *args: steps.append(args))
        ds = make_dataset(24, 2)
        cfg = tiny_config()
        masks = split_train_val(ds, cfg.seed, cfg.val_fraction)
        no_val = SplitMasks(train=masks.train, val=np.zeros_like(masks.val))
        with pytest.raises(ValueError, match="mask selects no compounds"):
            train_with_split(ds, cfg, no_val)
        assert steps == []

    @pytest.mark.parametrize(
        "overrides",
        [{}, {"lr": 0.01, "min_epochs": 0, "patience": 1}, {"min_epochs": 8, "max_epochs": 3}],
        ids=["stops-early", "best-not-first", "runs-to-cap"],
    )
    def test_log_follows_the_simulated_rules(self, overrides):
        # the loop and replay_stopping share TrainLog.observe: replaying the
        # logged losses gives the logged stop epoch, best epoch and reason
        cfg = tiny_config(**overrides)
        _, log = train(make_dataset(24, 2), cfg)
        curve = [(r.train_loss, r.val_loss) for r in log.epochs]
        assert replay_stopping(
            curve, cfg.min_epochs, cfg.patience, cfg.max_epochs
        ) == (log.stop_epoch, log.best_epoch, log.stop_reason)

    @pytest.mark.parametrize("heads_only", [False, True], ids=["all", "heads"])
    def test_best_snapshot_equals_a_copy_at_the_best_epoch(self, heads_only):
        # all: the snapshot is the whole model as it stood after the best
        # epoch, sharing no array with the live parameters.  heads: the
        # frozen-backbone warm-up keeps no snapshot; it returns the live
        # parameters as the last epoch left them, while its log still names
        # an earlier best epoch
        ds = make_dataset(24, 2)
        cfg = tiny_config(lr=0.01, min_epochs=10, max_epochs=10, seed=2)
        masks = split_train_val(ds, cfg.seed, cfg.val_fraction)
        params = init_params(ds.task_names, embed_dim=8, n_layers=2, head_hidden=8, seed=2)
        names = params.head_names() if heads_only else None
        copies = {}
        got, log = train_with_split(
            ds, cfg, masks, params=params, trainable_names=names,
            epoch_callback=lambda epoch, p: copies.__setitem__(epoch, p.copy()),
        )
        assert 1 < log.best_epoch < len(log.epochs)
        want = copies[len(log.epochs) if heads_only else log.best_epoch]
        assert (got is params) == heads_only
        got_arrays = list(got.named_arrays())
        want_arrays = list(want.named_arrays())
        live = [arr for _, arr in params.named_arrays()]
        assert [n for n, _ in got_arrays] == [n for n, _ in want_arrays]
        for (name, arr), (_, expected), current in zip(got_arrays, want_arrays, live):
            np.testing.assert_array_equal(arr.view(np.int64), expected.view(np.int64),
                                          err_msg=name)
            assert np.shares_memory(arr, current) == heads_only, name
        best_heads = copies[log.best_epoch].tensors["head.0.w1"].data
        assert not np.array_equal(best_heads, params.tensors["head.0.w1"].data)

    def test_backbone_names_are_not_trainable_alone(self):
        # trainable_names selects the frozen-backbone warm-up: a backbone or
        # unknown name in it is an error, not a partial freeze
        ds = make_dataset(24, 2)
        cfg = tiny_config(max_epochs=1)
        masks = split_train_val(ds, cfg.seed, cfg.val_fraction)
        params = init_params(ds.task_names, embed_dim=8, n_layers=2, head_hidden=8, seed=2)
        heads = params.head_names()
        for extra in ("layer.0.w1", "node_table.0", "no.such.name"):
            with pytest.raises(ValueError, match="head parameters only"):
                train_with_split(ds, cfg, masks, params=params,
                                 trainable_names=heads + [extra])

    def test_head_count_matches_tasks(self):
        ds = make_dataset(24, 3)
        params, _ = train(ds, tiny_config())
        assert len(params.head_names()) == 3 * 4
        assert {n.split(".")[1] for n in params.head_names()} == {"0", "1", "2"}
        params1, _ = train(ds.restrict_to_tasks([0]), tiny_config())
        assert params1.head_names() == ["head.0.w1", "head.0.b1", "head.0.w2", "head.0.b2"]

    def test_bit_identical_given_seed(self):
        ds = make_dataset(24, 2)
        a_params, a_log = train(ds, tiny_config(seed=5))
        b_params, b_log = train(ds, tiny_config(seed=5))
        assert a_log == b_log
        assert a_params.backbone_hash() == b_params.backbone_hash()
        for (_, pa), (_, pb) in zip(
            a_params.named_parameters(), b_params.named_parameters()
        ):
            np.testing.assert_array_equal(pa.data, pb.data)

    def test_seed_changes_results(self):
        ds = make_dataset(24, 1)
        _, a_log = train(ds, tiny_config(seed=1))
        _, b_log = train(ds, tiny_config(seed=2))
        assert a_log != b_log

    def test_learnable_target_fits(self):
        # noise-free target linear in atom count must be driven below 1e-2
        ds = make_dataset(40, 1)
        cfg = tiny_config(
            embed_dim=16,
            head_hidden=16,
            batch_size=16,
            lr=0.01,
            min_epochs=60,
            patience=20,
            max_epochs=200,
            seed=0,
        )
        params, log = train(ds, cfg)
        assert min(r.train_loss for r in log.epochs) < 1e-2

    def test_divergence_detected(self):
        smiles = MOLECULES[:12]
        labels = np.full((12, 1), 1e200)  # squared error overflows
        ds = TaskDataset.from_smiles(
            smiles, labels, ["T0"], ["lower_is_better"]
        )
        with np.errstate(over="ignore"), pytest.raises(TrainingDiverged):
            train(ds, tiny_config())

    def test_empty_aux_equals_single_task(self):
        # multi-task training where every label sits in task 0 must match
        # single-task training exactly: same log, same backbone, same head
        n = 24
        smiles = [MOLECULES[i % len(MOLECULES)] for i in range(n)]
        labels = np.full((n, 3), NAN)
        labels[:, 0] = linear_labels(smiles)
        ds = TaskDataset.from_smiles(
            smiles, labels, ["T0", "aux1", "aux2"], ["lower_is_better"] * 3
        )
        cfg = tiny_config(seed=9)
        mtl_params, mtl_log = train(ds, cfg)
        st_params, st_log = train(ds.restrict_to_tasks([0]), cfg)
        assert mtl_log == st_log
        for (na, pa), (nb, pb) in zip(
            backbone_named_parameters(mtl_params),
            backbone_named_parameters(st_params),
            strict=True,
        ):
            assert na == nb
            np.testing.assert_array_equal(pa.data, pb.data)
        assert mtl_params.state.keys() == st_params.state.keys()
        for name, arr_a in mtl_params.state.items():
            np.testing.assert_array_equal(arr_a, st_params.state[name])
        target_head = [
            t for n, t in head_named_parameters(mtl_params) if n.startswith("head.0.")
        ]
        for pa, (_, pb) in zip(target_head, head_named_parameters(st_params), strict=True):
            np.testing.assert_array_equal(pa.data, pb.data)
        # auxiliary heads never saw a labeled pair: still at initialization
        fresh = init_params(
            ["T0", "aux1", "aux2"],
            embed_dim=cfg.embed_dim,
            n_layers=cfg.n_layers,
            head_hidden=cfg.head_hidden,
            dropout=cfg.dropout,
            seed=cfg.seed,
        )
        for name in ("head.1.w1", "head.2.w2"):
            np.testing.assert_array_equal(
                mtl_params.tensors[name].data, fresh.tensors[name].data
            )

    def test_single_task_restricts_to_task_zero(self):
        ds = make_dataset(24, 2)
        p, _ = train(ds.restrict_to_tasks([0]), tiny_config())
        assert p.task_names == ["T0"]
