"""Ensemble active learning: budget accounting, acquisition, degenerate cases."""

import math
from dataclasses import replace

import numpy as np
import pytest

import molscreen.active
from molscreen.active import ALConfig, acquisition_scores, al_run
from molscreen.cli import main
from molscreen.data import TaskDataset
from molscreen.engine import rng_stream
from molscreen.featurize import featurize_smiles
from molscreen.metrics import rank_best_first
from molscreen.model import init_params, predict, GraphBatch
from molscreen.synth import synth_dataset, task_oracle
from molscreen.train import TrainConfig, train


def tiny_train_config(**kw):
    base = dict(
        embed_dim=8,
        n_layers=1,
        head_hidden=8,
        batch_size=8,
        min_epochs=2,
        patience=1,
        max_epochs=3,
        seed=0,
    )
    base.update(kw)
    return TrainConfig(**base)


def small_pool(n=40, seed=0):
    ds, meta = synth_dataset(n_tasks=2, n_per_task=n, seed=seed, noise_sigma=0.0)
    return ds.smiles, task_oracle(meta, task=0)


class TestALConfig:
    def test_budget_arithmetic(self):
        cfg = ALConfig(total_budget=1000, n_rounds=4, init_fraction=0.5)
        assert cfg.init_size == 500
        assert cfg.round_batch == 125

    def test_small_exact_split(self):
        cfg = ALConfig(total_budget=20, n_rounds=2, init_fraction=0.5)
        assert cfg.init_size == 10
        assert cfg.round_batch == 5

    def test_inexact_split_rejected(self):
        with pytest.raises(ValueError):
            ALConfig(total_budget=10, n_rounds=3, init_fraction=0.5)

    def test_whole_budget_init_allows_zero_rounds(self):
        cfg = ALConfig(total_budget=8, n_rounds=0, init_fraction=1.0)
        assert cfg.init_size == 8
        assert cfg.round_batch == 0

    def test_zero_rounds_with_leftover_rejected(self):
        with pytest.raises(ValueError):
            ALConfig(total_budget=10, n_rounds=0, init_fraction=0.5)

    def test_bad_fields_rejected(self):
        with pytest.raises(ValueError):
            ALConfig(total_budget=0)
        with pytest.raises(ValueError):
            ALConfig(total_budget=10, ensemble_size=0)
        with pytest.raises(ValueError):
            ALConfig(total_budget=10, init_fraction=0.0)
        with pytest.raises(ValueError):
            ALConfig(total_budget=10, acquisition="entropy")

    @pytest.mark.parametrize("budget, fraction", [(10, 0.01), (1, 0.5)])
    def test_initial_batch_rounding_to_zero_rejected(self, budget, fraction):
        # round() halves to even, so 1 * 0.5 rounds to 0 as well
        with pytest.raises(ValueError, match="init_fraction .* total_budget .* 0 labels"):
            ALConfig(total_budget=budget, n_rounds=1, init_fraction=fraction)

    @pytest.mark.parametrize("beta", [-1.0, math.nan, math.inf])
    def test_bad_ucb_beta_rejected(self, beta):
        with pytest.raises(ValueError, match="ucb_beta"):
            ALConfig(total_budget=10, n_rounds=1, ucb_beta=beta)


class TestSelection:
    def test_rank_lower_is_better(self):
        scores = np.array([3.0, 1.0, 2.0, 0.5])
        assert rank_best_first(scores, "lower_is_better")[:2].tolist() == [3, 1]

    def test_rank_higher_is_better(self):
        scores = np.array([3.0, 1.0, 2.0, 0.5])
        assert rank_best_first(scores, "higher_is_better")[:2].tolist() == [0, 2]

    def test_rank_stable_ties(self):
        scores = np.array([1.0, 1.0, 1.0])
        assert rank_best_first(scores, "lower_is_better")[:2].tolist() == [0, 1]

    def test_scores_align_with_candidates(self, monkeypatch):
        # scores[j] belongs to the j-th remaining compound, not to pool index j
        smiles, oracle = small_pool(30)
        cfg = ALConfig(total_budget=10, ensemble_size=1, n_rounds=1, init_fraction=0.5)
        seen = {}

        def known_scores(members, graphs, acquisition, ucb_beta, hit_direction):
            seen["graphs"] = graphs
            return np.arange(len(graphs), 0, -1, dtype=np.float64)  # last is best

        monkeypatch.setattr(molscreen.active, "acquisition_scores", known_scores)
        result = al_run(smiles, oracle, cfg, tiny_train_config(seed=2))
        init = result.labeled_indices[: cfg.init_size]
        remaining = [i for i in range(len(smiles)) if i not in init]
        assert len(seen["graphs"]) == len(remaining)
        assert result.labeled_indices[cfg.init_size :] == remaining[::-1][: cfg.round_batch]
        assert result.log[1].mean_acquisition_score == float(
            np.mean(np.arange(1.0, cfg.round_batch + 1.0))
        )


class TestEnsemblePredict:
    def _members(self, seeds, task_names=("T0",)):
        return [
            init_params(list(task_names), embed_dim=8, n_layers=1, head_hidden=8, seed=s)
            for s in seeds
        ]

    def test_mean_of_member_predictions(self):
        graphs = [featurize_smiles(s) for s in ["CCO", "c1ccccc1", "CC(C)C"]]
        members = self._members([1, 2, 3, 4, 5])
        batch = GraphBatch.from_graphs(graphs)
        singles = np.stack([predict(batch, m)[:, 0] for m in members])
        out = acquisition_scores(members, graphs, "greedy_mean", 1.0, "lower_is_better")
        np.testing.assert_allclose(out, singles.mean(axis=0), atol=1e-12)
        assert out.shape == (3,)

    def test_identical_members_equal_single(self):
        graphs = [featurize_smiles("CCO")]
        members = self._members([7, 7, 7])
        single = predict(GraphBatch.from_graphs(graphs), members[0])[:, 0]
        np.testing.assert_array_equal(
            acquisition_scores(members, graphs, "greedy_mean", 1.0, "lower_is_better"),
            single,
        )

    def test_empty_ensemble_rejected(self):
        with pytest.raises(ValueError):
            acquisition_scores(
                [], [featurize_smiles("C")], "greedy_mean", 1.0, "lower_is_better"
            )

    def test_ucb_equals_greedy_when_members_agree(self):
        graphs = [featurize_smiles(s) for s in ["CCO", "CCN", "CCC"]]
        members = self._members([3, 3])
        greedy = acquisition_scores(members, graphs, "greedy_mean", 1.0, "lower_is_better")
        ucb = acquisition_scores(members, graphs, "ucb", 1.0, "lower_is_better")
        np.testing.assert_allclose(greedy, ucb, atol=1e-12)

    def test_ucb_directionality(self):
        graphs = [featurize_smiles(s) for s in ["CCO", "CCN"]]
        members = self._members([1, 2])
        mean = acquisition_scores(members, graphs, "greedy_mean", 0.0, "lower_is_better")
        lower = acquisition_scores(members, graphs, "ucb", 2.0, "lower_is_better")
        higher = acquisition_scores(members, graphs, "ucb", 2.0, "higher_is_better")
        preds = np.stack([predict(GraphBatch.from_graphs(graphs), m)[:, 0] for m in members])
        std = preds.std(axis=0)
        np.testing.assert_allclose(lower, mean - 2.0 * std, atol=1e-12)
        np.testing.assert_allclose(higher, mean + 2.0 * std, atol=1e-12)


class TestALRun:
    def test_budget_and_log(self):
        smiles, oracle = small_pool(40)
        cfg = ALConfig(total_budget=12, ensemble_size=2, n_rounds=2, init_fraction=0.5)
        result = al_run(smiles, oracle, cfg, tiny_train_config())
        assert len(result.labeled_indices) == 12
        assert len(set(result.labeled_indices)) == 12  # never re-labels
        assert len(result.members) == 2
        assert [r.round for r in result.log] == [0, 1, 2]
        assert [r.labeled_count for r in result.log] == [6, 9, 12]
        assert [r.pool_size for r in result.log] == [34, 31, 28]
        assert math.isnan(result.log[0].mean_acquisition_score)
        assert all(math.isfinite(r.mean_acquisition_score) for r in result.log[1:])
        assert result.labeled_dataset.n_compounds == 12

    def test_deterministic(self):
        smiles, oracle = small_pool(30)
        cfg = ALConfig(total_budget=10, ensemble_size=2, n_rounds=1, init_fraction=0.5)
        a = al_run(smiles, oracle, cfg, tiny_train_config(seed=3))
        b = al_run(smiles, oracle, cfg, tiny_train_config(seed=3))
        assert a.labeled_indices == b.labeled_indices
        assert a.log == b.log
        assert a.members[0].backbone_hash() == b.members[0].backbone_hash()

    def test_given_graphs_are_used(self):
        smiles, oracle = small_pool(30)
        cfg = ALConfig(total_budget=10, ensemble_size=2, n_rounds=1, init_fraction=0.5)
        graphs = [featurize_smiles(s) for s in smiles]
        tc = tiny_train_config(seed=3)
        a = al_run(smiles, oracle, cfg, tc)
        b = al_run(smiles, oracle, cfg, tc, graphs=graphs)
        assert a.labeled_indices == b.labeled_indices
        assert a.log == b.log
        assert a.members[0].backbone_hash() == b.members[0].backbone_hash()
        assert b.labeled_dataset.graphs[0] is graphs[b.labeled_indices[0]]
        with pytest.raises(ValueError):
            al_run(smiles, oracle, cfg, tc, graphs=graphs[:-1])

    def test_train_config_seed_is_the_run_seed(self):
        # the initial sample and every member's seed come from it
        smiles, oracle = small_pool(30)
        cfg = ALConfig(total_budget=8, ensemble_size=1, n_rounds=0, init_fraction=1.0)
        runs = [al_run(smiles, oracle, cfg, tiny_train_config(seed=s)) for s in (3, 4)]
        order = [rng_stream(s, 5).permutation(30)[:8].tolist() for s in (3, 4)]
        assert [r.labeled_indices for r in runs] == order
        assert order[0] != order[1]

    def test_unknown_hit_direction_rejected(self):
        smiles, oracle = small_pool(8)
        cfg = ALConfig(total_budget=4, ensemble_size=1, n_rounds=1, init_fraction=0.5)
        with pytest.raises(ValueError, match="hit direction"):
            al_run(smiles, oracle, cfg, tiny_train_config(), hit_direction="lower_is_beter")

    def test_pool_smaller_than_budget_rejected(self):
        smiles, oracle = small_pool(8)
        cfg = ALConfig(total_budget=10, ensemble_size=1, n_rounds=1, init_fraction=0.5)
        with pytest.raises(ValueError):
            al_run(smiles, oracle, cfg, tiny_train_config())

    def test_degenerate_single_member_whole_budget(self):
        # one member, whole budget at init, zero rounds: just single-task
        # training on a random sample, with the member-0 derived seed
        smiles, oracle = small_pool(30)
        cfg = ALConfig(total_budget=8, ensemble_size=1, n_rounds=0, init_fraction=1.0)
        tc = tiny_train_config(seed=11)
        result = al_run(smiles, oracle, cfg, tc)
        labels = np.array([[oracle(smiles[i])] for i in result.labeled_indices])
        sample = TaskDataset.from_smiles(
            [smiles[i] for i in result.labeled_indices],
            labels,
            ["T0"],
            ["lower_is_better"],
        )
        member_seed = int(rng_stream(11, 6, 0).integers(2**63 - 1))
        expected, _ = train(sample, replace(tc, seed=member_seed))
        got = result.members[0]
        assert got.backbone_hash() == expected.backbone_hash()
        np.testing.assert_array_equal(
            got.tensors["head.0.w1"].data, expected.tensors["head.0.w1"].data
        )

    def test_log_csv(self, tmp_path, capsys):
        ds, meta = synth_dataset(n_tasks=2, n_per_task=30, seed=0, noise_sigma=0.0)
        pool = tmp_path / "pool.csv"
        pool.write_text("smiles\n" + "".join(s + "\n" for s in ds.smiles))
        (tmp_path / "meta.json").write_text(meta.to_json())
        assert main([
            "active-learn", "--pool", str(pool), "--meta", str(tmp_path / "meta.json"),
            "--budget", "10", "--ensemble-size", "1", "--rounds", "1",
            "--log-out", str(tmp_path / "log.csv"), "--seed", "2",
            "--embed-dim", "8", "--n-layers", "1", "--head-hidden", "8",
            "--batch-size", "8", "--min-epochs", "2", "--patience", "1", "--max-epochs", "3",
        ]) == 0
        capsys.readouterr()
        text = (tmp_path / "log.csv").read_text()
        lines = text.strip().split("\n")
        assert lines[0] == "round,labeled_count,pool_size,mean_acquisition_score"
        assert len(lines) == 3
        assert lines[1].startswith("0,5,25,")
        assert lines[1].endswith(",")  # no acquisition score at init
