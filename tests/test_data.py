"""Dataset container and train/validation splitting."""

import time

import numpy as np
import pytest

from molscreen.data import DatasetError, TaskDataset, split_train_val

NAN = float("nan")


def make_dataset(n=10, n_tasks=2, labeled=None):
    """n compounds over simple alkane SMILES; ``labeled`` maps task -> row set
    (default: every cell labeled)."""
    smiles = [("C" * (i % 5 + 1)) for i in range(n)]
    labels = np.zeros((n, n_tasks))
    for t in range(n_tasks):
        rows = range(n) if labeled is None else labeled.get(t, range(0))
        mask = np.zeros(n, dtype=bool)
        mask[list(rows)] = True
        labels[:, t] = np.where(mask, float(t + 1), NAN)
    names = [f"T{t}" for t in range(n_tasks)]
    directions = ["lower_is_better"] * n_tasks
    return TaskDataset.from_smiles(smiles, labels, names, directions)


class TestTaskDataset:
    def test_basic_fields(self):
        ds = make_dataset(6, 2)
        assert ds.n_compounds == 6
        assert ds.n_tasks == 2
        assert len(ds.graphs) == 6
        assert ds.graphs[1].n_atoms == 2  # "CC"
        assert ds.label_mask.shape == (6, 2)
        assert ds.label_mask.all()

    def test_mask_tracks_nan(self):
        ds = make_dataset(10, 2, labeled={0: range(10), 1: range(4)})
        assert ds.label_mask[:, 0].sum() == 10
        assert ds.label_mask[:, 1].sum() == 4
        assert not ds.label_mask[5, 1]

    def test_compound_without_any_label_rejected(self):
        smiles = ["C", "CC"]
        labels = np.array([[1.0, 2.0], [NAN, NAN]])
        with pytest.raises(DatasetError):
            TaskDataset.from_smiles(
                smiles, labels, ["a", "b"], ["lower_is_better"] * 2
            )

    def test_shape_mismatches_rejected(self):
        with pytest.raises(DatasetError):
            TaskDataset.from_smiles(
                ["C"], np.array([[1.0, 2.0]]), ["a"], ["lower_is_better"]
            )
        with pytest.raises(DatasetError):
            TaskDataset.from_smiles(
                ["C", "CC"], np.array([[1.0]]), ["a"], ["lower_is_better"]
            )
        with pytest.raises(DatasetError):
            TaskDataset.from_smiles(
                ["C"], np.array([[1.0]]), ["a"], ["lower_is_better", "extra"]
            )

    def test_repeated_task_name_rejected(self):
        with pytest.raises(DatasetError, match=r"task names repeat: \['a'\]"):
            TaskDataset.from_smiles(
                ["C", "CC"],
                np.array([[1.0, 2.0, 3.0], [4.0, 5.0, 6.0]]),
                ["a", "b", "a"],
                ["lower_is_better", "lower_is_better", "higher_is_better"],
            )

    def test_repeats_found_in_linear_time(self):
        # 30,000 names: counting each one's occurrences by a list scan took
        # tens of seconds; one tally takes milliseconds
        names = [f"t{i}" for i in range(30_000)]
        labels = np.ones((1, len(names)))
        start = time.perf_counter()
        TaskDataset.from_smiles(["C"], labels, names, ["lower_is_better"] * len(names))
        assert time.perf_counter() - start < 2.0
        with pytest.raises(DatasetError, match=r"task names repeat: \['t1', 't7'\]$"):
            TaskDataset.from_smiles(
                ["C"], labels, names[:-3] + ["t7", "t1", "t7"], ["lower_is_better"] * len(names)
            )

    def test_bad_hit_direction_rejected(self):
        with pytest.raises(DatasetError):
            TaskDataset.from_smiles(["C"], np.array([[1.0]]), ["a"], ["down"])

    def test_non_finite_label_rejected(self):
        with pytest.raises(DatasetError):
            TaskDataset.from_smiles(
                ["C"], np.array([[np.inf]]), ["a"], ["lower_is_better"]
            )

    def test_restrict_to_tasks_drops_unlabeled_compounds(self):
        ds = make_dataset(10, 3, labeled={0: range(10), 1: range(4), 2: range(2, 6)})
        sub = ds.restrict_to_tasks([1])
        assert sub.n_tasks == 1
        assert sub.n_compounds == 4
        assert sub.task_names == ["T1"]
        assert sub.hit_directions == ["lower_is_better"]
        assert sub.smiles == ds.smiles[:4]
        # graphs carried over by reference, not re-featurized
        assert all(g is h for g, h in zip(sub.graphs, ds.graphs[:4]))
        np.testing.assert_array_equal(sub.labels[:, 0], ds.labels[:4, 1])

    def test_restrict_keeps_column_order_given(self):
        ds = make_dataset(6, 3)
        sub = ds.restrict_to_tasks([2, 0])
        assert sub.task_names == ["T2", "T0"]
        np.testing.assert_array_equal(sub.labels, ds.labels[:, [2, 0]])

    def test_restrict_unknown_task_rejected(self):
        ds = make_dataset(4, 2)
        with pytest.raises(IndexError):
            ds.restrict_to_tasks([2])

    def test_subset_rows(self):
        ds = make_dataset(8, 2)
        sub = ds.subset([5, 1])
        assert sub.smiles == [ds.smiles[5], ds.smiles[1]]
        np.testing.assert_array_equal(sub.labels, ds.labels[[5, 1]])
        assert sub.task_names == ds.task_names


class TestSplitTrainVal:
    def test_single_task_80_20(self):
        ds = make_dataset(100, 1)
        split = split_train_val(ds, seed=0)
        assert split.train.sum() == 80
        assert split.val.sum() == 20

    def test_two_tasks_stratified(self):
        ds = make_dataset(100, 2, labeled={0: range(100), 1: range(50)})
        split = split_train_val(ds, seed=0)
        assert split.train[:, 0].sum() == 80
        assert split.val[:, 0].sum() == 20
        assert split.train[:, 1].sum() == 40
        assert split.val[:, 1].sum() == 10

    def test_deterministic_given_seed(self):
        ds = make_dataset(50, 2)
        a = split_train_val(ds, seed=7)
        b = split_train_val(ds, seed=7)
        np.testing.assert_array_equal(a.train, b.train)
        np.testing.assert_array_equal(a.val, b.val)

    def test_different_seeds_differ(self):
        ds = make_dataset(50, 2)
        a = split_train_val(ds, seed=1)
        b = split_train_val(ds, seed=2)
        assert not np.array_equal(a.val, b.val)

    def test_masks_partition_labeled_entries(self):
        ds = make_dataset(40, 3, labeled={0: range(40), 1: range(20), 2: range(10, 30)})
        split = split_train_val(ds, seed=3)
        assert not (split.train & split.val).any()
        np.testing.assert_array_equal(split.train | split.val, ds.label_mask)

    def test_entries_of_one_compound_may_split_apart(self):
        # with 50 fully-labeled compounds the chance that no compound lands
        # train-for-task-0 but val-for-task-1 is (1 - 0.8*0.2)^50 ~ 2e-4
        ds = make_dataset(50, 2)
        split = split_train_val(ds, seed=0)
        assert (split.train[:, 0] & split.val[:, 1]).any()

    def test_val_fraction_respected(self):
        ds = make_dataset(100, 1)
        split = split_train_val(ds, seed=0, val_fraction=0.1)
        assert split.val.sum() == 10

    def test_floor_rule(self):
        # 7 labels at 0.2 -> floor(1.4) = 1 validation entry
        ds = make_dataset(7, 1)
        split = split_train_val(ds, seed=0)
        assert split.val.sum() == 1
        assert split.train.sum() == 6

    def test_too_few_labels_error(self):
        ds = make_dataset(10, 2, labeled={0: range(10), 1: range(4)})
        with pytest.raises(DatasetError):
            split_train_val(ds, seed=0)

    def test_five_labels_is_enough(self):
        ds = make_dataset(10, 2, labeled={0: range(10), 1: range(5)})
        split = split_train_val(ds, seed=0)
        assert split.val[:, 1].sum() == 1

    def test_zero_label_task_allowed_and_empty(self):
        # an entirely unlabeled auxiliary task holds no entries to split
        ds = make_dataset(10, 2, labeled={0: range(10), 1: range(0)})
        split = split_train_val(ds, seed=0)
        assert split.train[:, 1].sum() == 0
        assert split.val[:, 1].sum() == 0
        assert split.train[:, 0].sum() == 8

    def test_split_independent_of_other_tasks(self):
        # the task-0 split must not shift when auxiliary columns change
        ds_multi = make_dataset(20, 3, labeled={0: range(20), 1: range(8), 2: range(6)})
        ds_single = ds_multi.restrict_to_tasks([0])
        a = split_train_val(ds_multi, seed=5)
        b = split_train_val(ds_single, seed=5)
        np.testing.assert_array_equal(a.train[:, 0], b.train[:, 0])
        np.testing.assert_array_equal(a.val[:, 0], b.val[:, 0])


class TestSubsampleTaskLabels:
    def _dense(self, n=12):
        from molscreen.synth import synth_dataset

        ds, _ = synth_dataset(n_tasks=2, n_per_task=n, seed=11)
        return ds

    def test_caps_label_count(self):
        from molscreen.data import subsample_task_labels

        ds = self._dense()
        out = subsample_task_labels(ds, {1: 5}, seed=0)
        assert int(out.label_mask[:, 1].sum()) == 5
        assert int(out.label_mask[:, 0].sum()) == ds.n_compounds

    def test_kept_labels_unchanged_and_deterministic(self):
        from molscreen.data import subsample_task_labels

        ds = self._dense()
        a = subsample_task_labels(ds, {0: 4, 1: 6}, seed=3)
        b = subsample_task_labels(ds, {0: 4, 1: 6}, seed=3)
        np.testing.assert_array_equal(a.labels, b.labels)
        assert a.smiles == b.smiles
        for i, s in enumerate(a.smiles):
            j = ds.smiles.index(s)
            for t in range(2):
                if np.isfinite(a.labels[i, t]):
                    assert a.labels[i, t] == ds.labels[j, t]

    def test_limit_above_count_is_noop(self):
        from molscreen.data import subsample_task_labels

        ds = self._dense()
        out = subsample_task_labels(ds, {0: 10_000}, seed=0)
        np.testing.assert_array_equal(out.labels, ds.labels)

    def test_unlabeled_compounds_dropped(self):
        from molscreen.data import subsample_task_labels

        ds = self._dense()
        out = subsample_task_labels(ds, {0: 2, 1: 2}, seed=1)
        assert out.label_mask.any(axis=1).all()
        assert out.n_compounds <= 4

    def test_bad_arguments(self):
        from molscreen.data import subsample_task_labels

        ds = self._dense()
        with pytest.raises(IndexError):
            subsample_task_labels(ds, {9: 3}, seed=0)
        with pytest.raises(ValueError):
            subsample_task_labels(ds, {0: 0}, seed=0)
