"""Estimator API: constructor params, fit/predict/transform lifecycle."""

import numpy as np
import pytest

from molscreen.estimators import GINRegressor, MultiTaskGINRegressor, NotFittedError
from molscreen.train import TrainConfig

SMILES = [
    "C", "CC", "CCC", "CCO", "CCN", "CC(C)C", "C1CC1", "C1CCC1",
    "c1ccccc1", "CCCl", "CC=O", "CC(=O)O", "CCOC", "CN(C)C", "CCS",
    "OCCO", "NCCN", "CC#N", "C1CCCCC1", "CC(C)O",
]


def tiny_kwargs(**kw):
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
    return base


def y_linear(smiles):
    return np.array([0.1 * len(s) for s in smiles])


class TestParamsProtocol:
    def test_get_params_returns_constructor_args(self):
        est = GINRegressor(embed_dim=32, seed=3)
        params = est.get_params()
        assert params["embed_dim"] == 32
        assert params["seed"] == 3
        assert "lr" in params and "patience" in params

    def test_defaults_equal_train_config(self):
        # the hyperparameters and their defaults are TrainConfig's fields
        assert MultiTaskGINRegressor()._train_config() == TrainConfig()
        assert GINRegressor().embed_dim == TrainConfig().embed_dim
        assert GINRegressor(embed_dim=32, seed=3)._train_config() == TrainConfig(
            embed_dim=32, seed=3
        )

    def test_set_params_updates_and_chains(self):
        est = GINRegressor()
        out = est.set_params(embed_dim=16, lr=0.01)
        assert out is est
        assert est.embed_dim == 16
        assert est.lr == 0.01

    def test_set_params_rejects_unknown(self):
        with pytest.raises(ValueError):
            GINRegressor().set_params(number_of_layers=3)

    def test_constructor_rejects_unknown(self):
        with pytest.raises(ValueError, match="number_of_layers"):
            GINRegressor(number_of_layers=3)
        with pytest.raises(TypeError):
            GINRegressor(256)

    def test_clone_by_params_reproduces(self):
        a = GINRegressor(**tiny_kwargs())
        b = GINRegressor(**a.get_params())
        y = y_linear(SMILES)
        pa = a.fit(SMILES, y).predict(SMILES)
        pb = b.fit(SMILES, y).predict(SMILES)
        np.testing.assert_array_equal(pa, pb)


class TestSingleTask:
    def test_fit_predict_shapes(self):
        est = GINRegressor(**tiny_kwargs())
        est.fit(SMILES, y_linear(SMILES))
        pred = est.predict(SMILES[:5])
        assert pred.shape == (5,)
        assert np.isfinite(pred).all()

    def test_predict_before_fit_raises(self):
        with pytest.raises(NotFittedError):
            GINRegressor().predict(["CCO"])
        with pytest.raises(NotFittedError):
            GINRegressor().transform(["CCO"])

    def test_transform_embeddings(self):
        est = GINRegressor(**tiny_kwargs())
        est.fit(SMILES, y_linear(SMILES))
        emb = est.transform(["CCO", "CCN", "CCO"])
        assert emb.shape == (3, 8)
        np.testing.assert_array_equal(emb[0], emb[2])

    def test_length_mismatch_rejected(self):
        est = GINRegressor(**tiny_kwargs())
        with pytest.raises(ValueError):
            est.fit(SMILES, y_linear(SMILES)[:-1])

    def test_refit_resets_state(self):
        est = GINRegressor(**tiny_kwargs())
        est.fit(SMILES, y_linear(SMILES))
        first = est.predict(SMILES[:3])
        est.set_params(seed=9)
        est.fit(SMILES, y_linear(SMILES))
        second = est.predict(SMILES[:3])
        assert not np.array_equal(first, second)

    def test_training_log_exposed(self):
        est = GINRegressor(**tiny_kwargs())
        est.fit(SMILES, y_linear(SMILES))
        assert est.log_.best_epoch >= 1
        assert len(est.log_.epochs) >= 1


class TestMultiTask:
    def test_fit_predict_matrix(self):
        y = np.stack([y_linear(SMILES), 2 * y_linear(SMILES)], axis=1)
        y[::3, 1] = np.nan  # sparse auxiliary labels
        est = MultiTaskGINRegressor(**tiny_kwargs())
        est.fit(SMILES, y, task_names=["main", "aux"])
        pred = est.predict(SMILES[:4])
        assert pred.shape == (4, 2)
        assert est.task_names_ == ["main", "aux"]

    def test_predict_single_task_column(self):
        y = np.stack([y_linear(SMILES), 2 * y_linear(SMILES)], axis=1)
        est = MultiTaskGINRegressor(**tiny_kwargs())
        est.fit(SMILES, y)
        full = est.predict(SMILES[:4])
        only_second = est.predict(SMILES[:4], tasks=[1])
        np.testing.assert_array_equal(only_second[:, 0], full[:, 1])

    def test_default_task_names(self):
        y = np.stack([y_linear(SMILES), y_linear(SMILES)], axis=1)
        est = MultiTaskGINRegressor(**tiny_kwargs())
        est.fit(SMILES, y)
        assert est.task_names_ == ["task0", "task1"]

    def test_one_dim_y_rejected_by_multitask_shape_check(self):
        est = MultiTaskGINRegressor(**tiny_kwargs())
        est.fit(SMILES, y_linear(SMILES))  # 1-d promotes to one column
        assert est.predict(SMILES[:2]).shape == (2, 1)
