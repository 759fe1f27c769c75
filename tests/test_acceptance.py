"""Acceptance criteria: eleven checks, one test and one printed verdict each.

Run ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
PASS/FAIL lines.  Criteria 7-9 train many small models and dominate the
runtime (the whole file takes several minutes); every other criterion is
seconds or less.
"""

import math
import sys
import time
from pathlib import Path

import numpy as np
import pytest

from molscreen.active import ALConfig, al_run
from molscreen.cli import main as cli_main
from molscreen.data import TaskDataset
from molscreen.engine import ops
from molscreen.featurize import FeaturizedGraph, featurize_smiles
from molscreen.metrics import (
    concordance_index,
    mse,
    pchembl,
    pearson,
    recall_at,
)
from molscreen.model import (
    GraphBatch,
    gin_forward,
    init_params,
    predict,
    predict_heads,
)
from molscreen.smiles import (
    EmptySmilesError,
    UnclosedRingError,
    UnknownAtomError,
    UnmatchedParenthesisError,
    parse_smiles,
)
from molscreen.synth import random_molecule, synth_dataset, task_oracle
from molscreen.train import TrainConfig, train
from molscreen.transfer import transfer_train

sys.path.insert(0, str(Path(__file__).parent))
from gradcheck import grad_check  # noqa: E402
from helpers import graph_matrices, noiseless_labels, replay_stopping  # noqa: E402
from test_smiles import CORPUS  # noqa: E402  (hand-verified parser corpus)


def _report(number: int, name: str, ok: bool, detail: str = "") -> None:
    suffix = f" ({detail})" if detail else ""
    line = f"[criterion {number:02d}] {'PASS' if ok else 'FAIL'} {name}{suffix}"
    print(line, flush=True)
    assert ok, line


def _rng(*path: int) -> np.random.Generator:
    from molscreen.engine import rng_stream

    return rng_stream(2025, *path)


def _predict_column(params, graphs, task: int = 0) -> np.ndarray:
    chunks = []
    for start in range(0, len(graphs), 256):
        batch = GraphBatch.from_graphs(graphs[start : start + 256])
        chunks.append(predict(batch, params, [task])[:, 0])
    return np.concatenate(chunks)


# ----------------------------------------------------------------------
# 1. gradient integrity
# ----------------------------------------------------------------------
def test_criterion_01_gradient_integrity():
    started = time.time()
    params = init_params(["a", "b"], embed_dim=8, n_layers=2, head_hidden=8, seed=7)
    batch = GraphBatch.from_graphs(
        [featurize_smiles("CC(=O)O"), featurize_smiles("c1ccncc1")]
    )
    labels = np.array([[1.0, 0.0], [0.0, 2.0]])
    mask = np.array([[1.0, 0.0], [1.0, 1.0]])

    def loss(tape):
        z = gin_forward(
            batch, params, train=True, rng_path=(13, 0, 0),
            update_running=False, tape=tape,
        )
        matrix = predict_heads(
            z, params, [0, 1], train=True, rng_path=(13, 0, 0), tape=tape
        )
        total = ops.masked_sse(matrix, labels, mask, tape=tape)
        return ops.scale(total, 1.0 / mask.sum(), tape=tape)

    def class_of(name: str) -> str:
        parts = name.split(".")
        if parts[0] == "node_table":
            return "node_table"
        if parts[0] == "head":
            return "head"
        if "edge_table" in parts:
            return "edge_table"
        if parts[-1] == "self_loop":
            return "self_loop"
        if parts[-1] in ("bn_gamma", "bn_beta"):
            return "batch_norm_affine"
        return "layer_linear"

    by_class: dict[str, list] = {}
    for name, tensor in params.named_parameters():
        by_class.setdefault(class_of(name), []).append(tensor)
    worst = {
        cls: grad_check(loss, tensors, h=1e-5) for cls, tensors in by_class.items()
    }
    elapsed = time.time() - started
    detail = (
        "max rel err per class: "
        + ", ".join(f"{cls}={err:.2e}" for cls, err in sorted(worst.items()))
        + f"; {elapsed:.1f}s"
    )
    ok = all(err <= 1e-3 for err in worst.values()) and elapsed < 60.0
    _report(1, "end-to-end gradient check (2 graphs, dim 8, 2 layers)", ok, detail)


# ----------------------------------------------------------------------
# 2. permutation / batch invariance
# ----------------------------------------------------------------------
def _permute_graph(fg: FeaturizedGraph, perm: np.ndarray) -> FeaturizedGraph:
    atoms, bonds, endpoints = graph_matrices(fg)
    atom = np.empty_like(atoms)
    atom[perm] = atoms
    bond_order = np.random.default_rng(int(perm[0])).permutation(fg.n_bonds)
    return FeaturizedGraph(
        atom_values=atom.ravel().tolist(),
        bond_values=bonds[bond_order].ravel().tolist(),
        endpoint_values=perm[endpoints][bond_order].ravel().tolist(),
        n_atoms=fg.n_atoms,
        n_bonds=fg.n_bonds,
    )


def test_criterion_02_permutation_and_batch_invariance():
    stream = _rng(0)
    graphs = [
        featurize_smiles(random_molecule(stream, 4, 14)) for _ in range(100)
    ]
    params = init_params(["t"], embed_dim=16, n_layers=2, head_hidden=16, seed=9)
    baseline = np.array(
        [predict(GraphBatch.from_graphs([g]), params)[0, 0] for g in graphs]
    )

    permuted = []
    for g in graphs:
        perm = stream.permutation(g.n_atoms)
        permuted.append(_permute_graph(g, perm))
    perm_preds = np.array(
        [predict(GraphBatch.from_graphs([g]), params)[0, 0] for g in permuted]
    )
    perm_err = float(np.max(np.abs(perm_preds - baseline)))

    batch_err = 0.0
    for _ in range(5):
        order = stream.permutation(100)
        cuts = np.sort(stream.choice(np.arange(1, 100), size=6, replace=False))
        grouped = np.empty(100)
        start = 0
        for end in [*cuts.tolist(), 100]:
            idx = order[start:end]
            batch = GraphBatch.from_graphs([permuted[i] for i in idx])
            grouped[idx] = predict(batch, params)[:, 0]
            start = end
        batch_err = max(batch_err, float(np.max(np.abs(grouped - baseline))))

    ok = perm_err <= 1e-9 and batch_err <= 1e-9
    _report(
        2,
        "eval predictions invariant to node order and batch grouping",
        ok,
        f"node-permutation err {perm_err:.1e}, batch-grouping err {batch_err:.1e}",
    )


# ----------------------------------------------------------------------
# 3. metric oracles
# ----------------------------------------------------------------------
def _recall_oracle(true, pred, direction, k, frac):
    n = len(true)
    sign = 1.0 if direction == "lower_is_better" else -1.0

    def best(scores, count):
        order = sorted(range(n), key=lambda i: (sign * scores[i], i))
        return set(order[:count])

    hits = best(true, k)
    picks = best(pred, math.ceil(frac * n))
    return len(hits & picks) / k


def _ci_oracle(true, pred):
    agree = total = 0
    n = len(true)
    for i in range(n):
        for j in range(n):
            if true[i] < true[j]:
                total += 1
                if pred[i] < pred[j]:
                    agree += 1
    return agree / total


def test_criterion_03_metric_oracles():
    stream = _rng(3)
    worst_pearson = worst_mse = 0.0
    for trial in range(1000):
        n = int(stream.integers(2, 40))
        y = stream.normal(size=n)
        yhat = stream.normal(size=n)
        worst_mse = max(worst_mse, abs(mse(y, yhat) - float(np.mean((y - yhat) ** 2))))
        expected_r = float(np.corrcoef(y, yhat)[0, 1]) if n > 1 else 0.0
        worst_pearson = max(worst_pearson, abs(pearson(y, yhat) - expected_r))

    recall_exact = ci_exact = True
    for trial in range(1000):
        n = int(stream.integers(2, 30))
        tie_grid = stream.integers(2, 6)
        true = stream.integers(0, tie_grid, size=n).astype(float)
        pred = stream.integers(0, tie_grid, size=n).astype(float)
        direction = "lower_is_better" if stream.integers(2) == 0 else "higher_is_better"
        k = int(stream.integers(1, n + 1))
        frac = float(stream.uniform(0.05, 0.95))
        got = recall_at(true, pred, direction, k, frac)
        if got != _recall_oracle(true, pred, direction, k, frac):
            recall_exact = False
        if len(set(true.tolist())) > 1:
            if concordance_index(true, pred) != _ci_oracle(true, pred):
                ci_exact = False

    hand = [
        (np.array([1.0, 2.0, 3.0]), np.array([1.0, 2.0, 3.0]), 1.0),
        (np.array([1.0, 2.0, 3.0]), np.array([3.0, 2.0, 1.0]), 0.0),
        (np.array([1.0, 2.0, 3.0]), np.array([2.0, 1.0, 3.0]), 2.0 / 3.0),
    ]
    hand_ok = all(concordance_index(y, f) == expected for y, f, expected in hand)

    ok = (
        recall_exact
        and ci_exact
        and hand_ok
        and worst_pearson <= 1e-12
        and worst_mse <= 1e-12
    )
    _report(
        3,
        "recall/CI exact vs brute force, Pearson/MSE within 1e-12, CI hand values",
        ok,
        f"pearson err {worst_pearson:.1e}, mse err {worst_mse:.1e}",
    )


# ----------------------------------------------------------------------
# 4. pChEMBL worked example
# ----------------------------------------------------------------------
def test_criterion_04_pchembl():
    value = pchembl(1e-5)
    _report(4, "10 uM converts to pChEMBL 5.0 exactly", value == 5.0, f"got {value!r}")


# ----------------------------------------------------------------------
# 5. TrainLog.observe's stopping rules vs hand simulation
# ----------------------------------------------------------------------
def _hand_simulation(curve, min_epochs, patience, max_epochs):
    violations = 0
    best_val = math.inf
    best_epoch = 0
    last = 0
    for epoch, (train_loss, val_loss) in enumerate(curve[:max_epochs], start=1):
        last = epoch
        if val_loss < best_val:
            best_val, best_epoch = val_loss, epoch
        if epoch > min_epochs and val_loss > train_loss:
            violations += 1
        else:
            violations = 0
        if violations > patience:
            return epoch, best_epoch, "early_stopping"
    return last, best_epoch, "max_epochs"


def test_criterion_05_early_stopping_scripts():
    always = [(1.0, 2.0)] * 400
    never = [(1.0, 0.9 - 0.001 * e) for e in range(1, 121)]
    recover = (
        [(1.0, 0.9)] * 100
        + [(1.0, 1.5)] * 30
        + [(1.0, 0.7 - 0.01 * i) for i in range(10)]
        + [(1.0, 1.2)] * 160
    )
    scripts = {
        "always-violating": (always, (151, 1, "early_stopping")),
        "never-violating": (never, (120, 120, "max_epochs")),
        "violate-then-recover": (recover, (191, 140, "early_stopping")),
    }
    details = []
    ok = True
    for name, (curve, pinned) in scripts.items():
        got = replay_stopping(curve, min_epochs=100, patience=50, max_epochs=1000)
        hand = _hand_simulation(curve, min_epochs=100, patience=50, max_epochs=1000)
        details.append(f"{name}: stop={got[0]} best={got[1]}")
        if got != hand or got != pinned:
            ok = False
    _report(5, "stop and best epochs match hand simulation", ok, "; ".join(details))


# ----------------------------------------------------------------------
# 6. transfer freeze
# ----------------------------------------------------------------------
def test_criterion_06_transfer_freeze():
    ds, _ = synth_dataset(n_tasks=2, n_per_task=40, seed=6)
    new_ds = ds.restrict_to_tasks([0])
    pretrained = init_params(
        ["aux"], embed_dim=8, n_layers=2, head_hidden=8, seed=3
    )
    pre_hash = pretrained.backbone_hash()
    config = TrainConfig(
        embed_dim=8, n_layers=2, head_hidden=8, batch_size=16,
        min_epochs=22, patience=2, max_epochs=25, seed=6,
    )
    result = transfer_train(pretrained, new_ds, config, head_epochs=20)
    frozen = (
        len(result.phase1_backbone_hashes) == 20
        and all(h == pre_hash for h in result.phase1_backbone_hashes)
    )
    changed = result.params.backbone_hash() != pre_hash
    _report(
        6,
        "backbone hash constant through 20 warmup epochs, changed by fine-tuning",
        frozen and changed,
        f"warmup epochs checked: {len(result.phase1_backbone_hashes)}",
    )


# ----------------------------------------------------------------------
# 7. directional multi-task gain
# ----------------------------------------------------------------------
@pytest.mark.slow
def test_criterion_07_mtl_beats_single_task():
    started = time.time()
    wins_mse = wins_recall = 0
    details = []
    for seed in (0, 1, 2):
        ds, meta = synth_dataset(n_tasks=4, n_per_task=2400, seed=seed)
        truth = noiseless_labels(meta, 0)
        test_graphs, test_truth = ds.graphs[2200:], truth[2200:]

        labels = ds.labels[:2200].copy()
        labels[200:, 0] = np.nan  # task of interest: 200 labels
        labels[:200, 1:] = np.nan  # auxiliary tasks: 2000 labels each
        mtl_ds = TaskDataset(
            ds.smiles[:2200], ds.graphs[:2200], labels,
            ds.task_names, ds.hit_directions,
        )
        single_ds = mtl_ds.restrict_to_tasks([0])

        config = TrainConfig(
            embed_dim=32, n_layers=3, head_hidden=32, batch_size=128,
            lr=0.003, min_epochs=30, patience=15, max_epochs=100, seed=seed,
        )
        mtl_params, _ = train(mtl_ds, config)
        single_params, _ = train(single_ds, config)

        scores = {}
        for arm, params in (("mtl", mtl_params), ("single", single_params)):
            preds = _predict_column(params, test_graphs)
            scores[arm] = (
                mse(test_truth, preds),
                recall_at(test_truth, preds, "lower_is_better", 20, 0.1),
            )
        if scores["mtl"][0] < scores["single"][0]:
            wins_mse += 1
        if scores["mtl"][1] >= scores["single"][1]:
            wins_recall += 1
        details.append(
            f"seed {seed}: mse {scores['mtl'][0]:.3f} vs {scores['single'][0]:.3f}, "
            f"recall {scores['mtl'][1]:.2f} vs {scores['single'][1]:.2f}"
        )
    elapsed = time.time() - started
    ok = wins_mse >= 2 and wins_recall >= 2 and elapsed < 900.0
    _report(
        7,
        "pooled training beats single-task on a new target (2 of 3 seeds)",
        ok,
        f"mse wins {wins_mse}/3, recall wins {wins_recall}/3; " + "; ".join(details)
        + f"; {elapsed:.0f}s",
    )


# ----------------------------------------------------------------------
# 8. directional active-learning gain
# ----------------------------------------------------------------------
@pytest.mark.slow
def test_criterion_08_active_learning_beats_random():
    wins = 0
    details = []
    for seed in (0, 1, 2):
        ds, meta = synth_dataset(n_tasks=2, n_per_task=600, seed=100 + seed)
        oracle = task_oracle(meta, 0)
        al_config = ALConfig(
            total_budget=200, ensemble_size=5, n_rounds=2,
            init_fraction=0.5, acquisition="greedy_mean",
        )
        train_config = TrainConfig(
            embed_dim=16, n_layers=2, head_hidden=16, batch_size=32,
            lr=0.003, min_epochs=15, patience=8, max_epochs=40, seed=seed,
        )
        result = al_run(ds.smiles, oracle, al_config, train_config)
        al_mean = float(
            np.mean([oracle(ds.smiles[i]) for i in result.labeled_indices])
        )
        random_idx = np.random.default_rng(1000 + seed).permutation(len(ds.smiles))[:200]
        random_mean = float(np.mean([oracle(ds.smiles[i]) for i in random_idx]))
        if al_mean < random_mean:  # lower_is_better
            wins += 1
        details.append(f"seed {seed}: {al_mean:.3f} vs {random_mean:.3f}")
    _report(
        8,
        "budget-200 acquisition beats random labeling on acquired-set quality",
        wins >= 2,
        f"wins {wins}/3; " + "; ".join(details),
    )


# ----------------------------------------------------------------------
# 9. directional transfer gain
# ----------------------------------------------------------------------
@pytest.mark.slow
def test_criterion_09_transfer_beats_cold_start():
    wins = 0
    details = []
    for seed in (0, 1, 2):
        ds, meta = synth_dataset(n_tasks=4, n_per_task=2400, seed=seed)
        truth = noiseless_labels(meta, 0)
        test_graphs, test_truth = ds.graphs[2200:], truth[2200:]

        new_ds = TaskDataset(
            ds.smiles[:200], ds.graphs[:200], ds.labels[:200, :1],
            ["task0"], ["lower_is_better"],
        )
        aux_ds = TaskDataset(
            ds.smiles[200:2200], ds.graphs[200:2200], ds.labels[200:2200, 1:],
            ds.task_names[1:], ds.hit_directions[1:],
        )
        config = TrainConfig(
            embed_dim=32, n_layers=3, head_hidden=32, batch_size=128,
            lr=0.003, min_epochs=30, patience=15, max_epochs=100, seed=seed,
        )
        pretrained, _ = train(aux_ds, config)
        transferred = transfer_train(pretrained, new_ds, config, head_epochs=20)
        cold, _ = train(new_ds, config)

        m_transfer = mse(test_truth, _predict_column(transferred.params, test_graphs))
        m_cold = mse(test_truth, _predict_column(cold, test_graphs))
        if m_transfer < m_cold:
            wins += 1
        details.append(f"seed {seed}: {m_transfer:.3f} vs {m_cold:.3f}")
    _report(
        9,
        "aux-pretrained transfer beats cold start at equal budget",
        wins >= 2,
        f"wins {wins}/3; " + "; ".join(details),
    )


# ----------------------------------------------------------------------
# 10. parser corpus and error variants
# ----------------------------------------------------------------------
def test_criterion_10_parser_corpus():
    assert len(CORPUS) >= 20
    corpus_ok = True
    for smiles, (atoms, bonds) in CORPUS.items():
        graph = parse_smiles(smiles)
        if len(graph.atoms) != len(atoms) or len(graph.bonds) != len(bonds):
            corpus_ok = False
            continue
        for atom, (z, aromatic, charge, hydrogens) in zip(graph.atoms, atoms):
            if (
                atom.atomic_number != z
                or atom.aromatic != aromatic
                or atom.formal_charge != charge
                or atom.hydrogens != hydrogens
            ):
                corpus_ok = False
        for bond, (a, b, order, in_ring) in zip(graph.bonds, bonds):
            if (
                {bond.a, bond.b} != {a, b}
                or bond.order is not order
                or bond.in_ring != in_ring
            ):
                corpus_ok = False

    errors_ok = True
    for bad, expected in [
        ("C1CC", UnclosedRingError),
        ("CC(C", UnmatchedParenthesisError),
        ("Cz", UnknownAtomError),
        ("", EmptySmilesError),
    ]:
        with pytest.raises(expected):
            parse_smiles(bad)

    _report(
        10,
        "hand-verified molecule corpus and parse-error variants",
        corpus_ok and errors_ok,
        f"{len(CORPUS)} molecules, 4 error cases",
    )


# ----------------------------------------------------------------------
# 11. bit-identical training runs
# ----------------------------------------------------------------------
def test_criterion_11_reproducible_checkpoints(tmp_path):
    data = tmp_path / "data.csv"
    meta = tmp_path / "meta.json"
    assert cli_main([
        "synth-gen", "--n-tasks", "3", "--n-per-task", "60", "--seed", "11",
        "--out", str(data), "--meta-out", str(meta),
    ]) == 0
    blobs = []
    for name in ("one.ckpt", "two.ckpt"):
        code = cli_main([
            "train", "--data", str(data), "--out", str(tmp_path / name),
            "--mode", "mtl", "--seed", "11", "--embed-dim", "8", "--n-layers", "2",
            "--head-hidden", "8", "--batch-size", "16", "--min-epochs", "3",
            "--patience", "2", "--max-epochs", "6",
        ])
        assert code == 0
        blobs.append((tmp_path / name).read_bytes())
    identical = blobs[0] == blobs[1]
    _report(
        11,
        "repeated `train --mode mtl` produces bit-identical checkpoints",
        identical,
        f"{len(blobs[0])} bytes each",
    )
