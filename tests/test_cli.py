"""CLI subcommands: dispatch, exit codes, outputs, and reproducibility."""

import csv
import dataclasses
import importlib.util
import inspect
import json
import math
import os
import re
import sys
from pathlib import Path

import numpy as np
import pytest

import molscreen.cli
import molscreen.model
from molscreen.active import ALConfig, al_run
from molscreen.checkpoint import load_checkpoint, save_checkpoint
from molscreen.cli import main
from molscreen.dataset_io import read_smiles_csv
from molscreen.featurize import SCHEMA_HASH
from molscreen.model import init_params, predict_graphs
from molscreen.synth import SynthMeta, synth_dataset, task_oracle
from molscreen.train import TrainConfig
from molscreen.transfer import transfer_train

sys.path.insert(0, str(Path(__file__).parent))
from test_checkpoint import _patch_values, _split_golden, _with_header  # noqa: E402
from test_featurize import widths_hash  # noqa: E402

GOLDEN = Path(__file__).parent / "data" / "golden"
GOLDEN_FILES = ("model.ckpt", "input.csv", "expected_predictions.csv")
GOLDEN_SCRIPT = Path(__file__).resolve().parent.parent / "scripts" / "generate_golden_fixture.py"

TINY = [
    "--embed-dim", "8", "--n-layers", "1", "--head-hidden", "8",
    "--batch-size", "16", "--min-epochs", "2", "--patience", "1",
    "--max-epochs", "3",
]


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def only_error(err):
    """The single JSON error line a failing command prints on stderr."""
    assert "Traceback" not in err
    (line,) = err.splitlines()
    return json.loads(line)


def read_rows(path):
    with open(path, newline="") as handle:
        return list(csv.DictReader(handle))


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("cli")
    code = main([
        "synth-gen", "--n-tasks", "2", "--n-per-task", "40", "--seed", "7",
        "--out", str(tmp / "data.csv"), "--meta-out", str(tmp / "meta.json"),
    ])
    assert code == 0
    code = main([
        "train", "--data", str(tmp / "data.csv"), "--out", str(tmp / "single.ckpt"),
        "--mode", "single", "--target", "task0", *TINY,
    ])
    assert code == 0
    code = main([
        "train", "--data", str(tmp / "data.csv"), "--out", str(tmp / "mtl.ckpt"),
        "--mode", "mtl", *TINY,
    ])
    assert code == 0
    return tmp


@pytest.fixture(scope="module")
def diverging(tmp_path_factory):
    """A dataset, and a checkpoint whose values are all finite but whose
    gradients are not: layer 0's ReLU outputs are all zero, so layer 1's
    first linear layer sees only its bias and the loss stays finite, while
    its ``w1 = 1e307`` overflows the gradient sent back to its input."""
    tmp = tmp_path_factory.mktemp("diverging")
    code = main([
        "synth-gen", "--n-tasks", "2", "--n-per-task", "60", "--seed", "3",
        "--out", str(tmp / "data.csv"), "--meta-out", str(tmp / "meta.json"),
    ])
    assert code == 0
    params = init_params(["a"], embed_dim=8, n_layers=2, head_hidden=8, seed=1)
    values = {name: t.data for name, t in params.named_parameters()}
    values["layer.0.bn_gamma"][:] = 0.0
    values["layer.0.bn_beta"][:] = -1e300
    for j in range(3):
        values[f"layer.1.edge_table.{j}"][:] = 0.0
    values["layer.1.self_loop"][:] = 0.0
    values["layer.1.w1"][:] = 1e307
    values["layer.1.b1"][:] = 1.0
    save_checkpoint(tmp / "bad.ckpt", params, ["lower_is_better"], seed=1)
    return tmp


class TestSynthGen:
    def test_deterministic_files(self, tmp_path, capsys):
        for name in ("a", "b"):
            code, out, _ = run(
                capsys, "synth-gen", "--n-tasks", "2", "--n-per-task", "15",
                "--seed", "3", "--out", str(tmp_path / f"{name}.csv"),
                "--meta-out", str(tmp_path / f"{name}.json"),
            )
            assert code == 0
            assert "seed=3" in out
        assert (tmp_path / "a.csv").read_bytes() == (tmp_path / "b.csv").read_bytes()
        assert (tmp_path / "a.json").read_bytes() == (tmp_path / "b.json").read_bytes()

    def test_bad_task_count(self, tmp_path, capsys):
        code, _, err = run(
            capsys, "synth-gen", "--n-tasks", "1", "--n-per-task", "5",
            "--out", str(tmp_path / "x.csv"), "--meta-out", str(tmp_path / "x.json"),
        )
        assert code == 2
        assert json.loads(err)["error"] == "bad-config"

    @pytest.mark.parametrize("n_per_task", ["0", "-3"])
    def test_bad_compound_count(self, tmp_path, capsys, n_per_task):
        code, _, err = run(
            capsys, "synth-gen", "--n-tasks", "2", "--n-per-task", n_per_task,
            "--out", str(tmp_path / "x.csv"), "--meta-out", str(tmp_path / "x.json"),
        )
        assert code == 2
        error = only_error(err)
        assert error["error"] == "bad-config"
        assert "n_per_task" in error["message"]
        assert not (tmp_path / "x.csv").exists()

    @pytest.mark.parametrize(
        "min_atoms, max_atoms, named",
        [("0", "3", "min_atoms"), ("-2", "3", "min_atoms"), ("5", "3", "max_atoms")],
    )
    def test_bad_atom_range(self, tmp_path, capsys, min_atoms, max_atoms, named):
        code, _, err = run(
            capsys, "synth-gen", "--n-tasks", "2", "--n-per-task", "5",
            "--min-atoms", min_atoms, "--max-atoms", max_atoms,
            "--out", str(tmp_path / "x.csv"), "--meta-out", str(tmp_path / "x.json"),
        )
        assert code == 2
        error = only_error(err)
        assert error["error"] == "bad-config"
        assert named in error["message"]
        assert not (tmp_path / "x.csv").exists()

    @pytest.mark.parametrize("noise_sigma", ["nan", "inf", "-1"])
    def test_bad_noise_sigma(self, tmp_path, capsys, noise_sigma):
        code, _, err = run(
            capsys, "synth-gen", "--n-tasks", "2", "--n-per-task", "5",
            "--noise-sigma", noise_sigma,
            "--out", str(tmp_path / "x.csv"), "--meta-out", str(tmp_path / "x.json"),
        )
        assert code == 2
        error = only_error(err)
        assert error["error"] == "bad-config"
        assert "noise_sigma" in error["message"]
        assert not (tmp_path / "x.csv").exists()

    def test_negative_seed_names_the_flag(self, tmp_path, capsys):
        code, _, err = run(
            capsys, "synth-gen", "--n-tasks", "2", "--n-per-task", "5", "--seed", "-1",
            "--out", str(tmp_path / "x.csv"), "--meta-out", str(tmp_path / "x.json"),
        )
        assert code == 2
        assert only_error(err) == {
            "error": "bad-config", "exit_code": 2, "message": "seed must be >= 0, got -1",
        }
        assert list(tmp_path.iterdir()) == []

    def test_unwritable_meta_out_writes_no_dataset(self, tmp_path, capsys):
        code, _, err = run(
            capsys, "synth-gen", "--n-tasks", "2", "--n-per-task", "5",
            "--out", str(tmp_path / "x.csv"),
            "--meta-out", str(tmp_path / "no-such-dir" / "m.json"),
        )
        assert code == 3
        assert only_error(err)["error"] == "io-failure"
        assert not (tmp_path / "x.csv").exists()

    def test_huge_task_count_is_bad_config(self, tmp_path, capsys):
        # the label bytes are checked before any molecule or draw
        code, _, err = run(
            capsys, "synth-gen", "--n-tasks", str(10**12), "--n-per-task", "2",
            "--out", str(tmp_path / "x.csv"), "--meta-out", str(tmp_path / "x.json"),
        )
        assert code == 2
        error = only_error(err)
        assert error["error"] == "bad-config"
        assert error["message"].startswith("out of memory: n_tasks=1000000000000")
        assert list(tmp_path.iterdir()) == []

    def test_exhausted_atom_range_exits_2(self, tmp_path, capsys):
        # one heavy atom gives three distinct molecules; five cannot be found
        code, _, err = run(
            capsys, "synth-gen", "--n-tasks", "2", "--n-per-task", "5",
            "--min-atoms", "1", "--max-atoms", "1",
            "--out", str(tmp_path / "x.csv"), "--meta-out", str(tmp_path / "x.json"),
        )
        assert code == 2
        error = only_error(err)
        assert error["error"] == "bad-config"
        assert "draws in a row" in error["message"]
        assert not (tmp_path / "x.csv").exists()


class TestIngest:
    def test_clean_and_report(self, tmp_path, capsys):
        raw = tmp_path / "raw.csv"
        raw.write_text(
            "smiles,T0\nCCO,-7.1\nnot_a_mol(,-6.0\nCCN,-5.0\n"
        )
        out = tmp_path / "clean.csv"
        code, stdout, _ = run(capsys, "ingest", "--input", str(raw), "--out", str(out))
        assert code == 0
        report = json.loads(stdout.splitlines()[0])
        assert report["rows"] == 3
        assert report["accepted"] == 2
        assert report["rejected"][0]["row"] == 3
        assert [r["smiles"] for r in read_rows(out)] == ["CCO", "CCN"]

    def test_non_ascii_digit_rows_rejected(self, tmp_path, capsys):
        raw = tmp_path / "raw.csv"
        raw.write_text(
            "smiles,T0\nCCO,-7.1\nC\u00b2,-6.0\nC\u0663CC\u0663,-5.5\nCCN,-5.0\n",
            encoding="utf-8",
        )
        out = tmp_path / "clean.csv"
        code, stdout, _ = run(capsys, "ingest", "--input", str(raw), "--out", str(out))
        assert code == 0
        report = json.loads(stdout.splitlines()[0])
        assert report["accepted"] == 2
        assert report["rejected"] == [
            {"row": 3, "error": "SMILES rejected: unexpected character '\u00b2' (position 1)"},
            {"row": 4, "error": "SMILES rejected: unexpected character '\u0663' (position 1)"},
        ]
        assert [r["smiles"] for r in read_rows(out)] == ["CCO", "CCN"]

    def test_field_over_csv_limit_is_io_error(self, tmp_path, capsys):
        raw = tmp_path / "long.csv"
        raw.write_text("smiles,T0\nCCO,-7.1\n" + "C" * 140_000 + ",-6.0\n")
        out = tmp_path / "clean.csv"
        code, _, err = run(capsys, "ingest", "--input", str(raw), "--out", str(out))
        assert code == 3
        error = only_error(err)
        assert error["error"] == "io-failure"
        assert str(raw) in error["message"]
        assert "field larger than field limit" in error["message"]
        assert not out.exists()

    def test_stray_quote_is_io_error(self, tmp_path, capsys):
        # the unclosed quote on line 3 used to swallow rows 4-5 unreported
        raw = tmp_path / "raw.csv"
        raw.write_text('smiles,t\nCCO,1\n"CCN,2\nCCC,3\nCCCC,4\n')
        out = tmp_path / "clean.csv"
        code, stdout, err = run(capsys, "ingest", "--input", str(raw), "--out", str(out))
        assert code == 3
        assert stdout == ""
        error = only_error(err)
        assert error["error"] == "io-failure"
        assert error["message"] == f"{raw}: unreadable CSV at line 3 (unexpected end of data)"
        assert not out.exists()

    def test_repeated_task_name_is_io_error(self, tmp_path, capsys):
        raw = tmp_path / "raw.csv"
        raw.write_text("smiles,a,a:ic50_molar\nCCO,-7.1,1e-6\nCCN,-5.0,2e-6\n")
        out = tmp_path / "clean.csv"
        code, _, err = run(capsys, "ingest", "--input", str(raw), "--out", str(out))
        assert code == 3
        error = only_error(err)
        assert error["error"] == "io-failure"
        assert error["message"] == f"{raw}: task names repeat: ['a']"
        assert not out.exists()

    def test_byte_order_mark_header_accepted(self, tmp_path, capsys):
        text = b"smiles,T0\nCCO,-7.1\nCCN,-5.0\n"
        for name, raw in (("plain", text), ("bom", b"\xef\xbb\xbf" + text)):
            (tmp_path / f"{name}.csv").write_bytes(raw)
            code, _, _ = run(
                capsys, "ingest", "--input", str(tmp_path / f"{name}.csv"),
                "--out", str(tmp_path / f"{name}-clean.csv"),
            )
            assert code == 0
        clean = (tmp_path / "bom-clean.csv").read_bytes()
        assert clean == (tmp_path / "plain-clean.csv").read_bytes()
        assert clean.startswith(b"smiles,T0")

    def test_missing_file_is_io_error(self, tmp_path, capsys):
        code, _, err = run(
            capsys, "ingest", "--input", str(tmp_path / "nope.csv"),
            "--out", str(tmp_path / "out.csv"),
        )
        assert code == 3
        payload = json.loads(err)
        assert payload["error"] == "io-failure"
        assert payload["exit_code"] == 3


class TestTrainCommand:
    def test_prints_seed_and_writes_checkpoint(self, workdir):
        ck = load_checkpoint(workdir / "single.ckpt")
        assert ck.params.task_names == ["task0"]
        assert ck.seed == 0
        assert ck.log_summary["stop_reason"] in ("max_epochs", "early_stopping")

    def test_repeated_mtl_runs_bit_identical(self, workdir, tmp_path, capsys):
        outs = []
        for name in ("r1.ckpt", "r2.ckpt"):
            code, _, _ = run(
                capsys, "train", "--data", str(workdir / "data.csv"),
                "--out", str(tmp_path / name), "--mode", "mtl", "--seed", "5", *TINY,
            )
            assert code == 0
            outs.append((tmp_path / name).read_bytes())
        assert outs[0] == outs[1]

    def test_config_file_and_flag_precedence(self, workdir, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"seed": 5, "embed_dim": 8, "n_layers": 1,
                                   "head_hidden": 8, "batch_size": 16,
                                   "min_epochs": 2, "patience": 1, "max_epochs": 3}))
        code, out, _ = run(
            capsys, "train", "--data", str(workdir / "data.csv"),
            "--out", str(tmp_path / "a.ckpt"), "--mode", "mtl", "--config", str(cfg),
        )
        assert code == 0
        assert "seed=5" in out
        code, out, _ = run(
            capsys, "train", "--data", str(workdir / "data.csv"),
            "--out", str(tmp_path / "b.ckpt"), "--mode", "mtl", "--config", str(cfg),
            "--seed", "9",
        )
        assert code == 0
        assert "seed=9" in out
        assert load_checkpoint(tmp_path / "b.ckpt").seed == 9

    def test_negative_seed_names_the_flag(self, workdir, tmp_path, capsys):
        code, _, err = run(
            capsys, "train", "--data", str(workdir / "data.csv"),
            "--out", str(tmp_path / "x.ckpt"), "--mode", "mtl", "--seed", "-1", *TINY,
        )
        assert code == 2
        assert only_error(err) == {
            "error": "bad-config", "exit_code": 2, "message": "seed must be >= 0, got -1",
        }
        assert list(tmp_path.iterdir()) == []

    def test_unknown_config_key(self, workdir, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"learning_rate": 0.1}))
        code, _, err = run(
            capsys, "train", "--data", str(workdir / "data.csv"),
            "--out", str(tmp_path / "x.ckpt"), "--config", str(cfg),
        )
        assert code == 2
        assert "learning_rate" in json.loads(err)["message"]

    @pytest.mark.parametrize(
        "entry",
        [{"batch_size": 3.7}, {"max_epochs": True}, {"seed": 2.5}, {"lr": False}],
        ids=["fractional-int", "bool-int", "fractional-seed", "bool-float"],
    )
    def test_config_value_of_wrong_type(self, entry, workdir, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(entry))
        code, _, err = run(
            capsys, "train", "--data", str(workdir / "data.csv"),
            "--out", str(tmp_path / "x.ckpt"), "--mode", "mtl", "--config", str(cfg),
            *TINY,
        )
        assert code == 2
        error = only_error(err)
        assert error["error"] == "bad-config"
        assert repr(next(iter(entry))) in error["message"]
        assert not (tmp_path / "x.ckpt").exists()

    @pytest.mark.parametrize("source", ["flag", "config"])
    def test_nan_learning_rate_is_bad_config(self, source, workdir, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"lr": math.nan}))  # Python's json writes NaN
        extra = ["--lr", "nan"] if source == "flag" else ["--config", str(cfg)]
        code, _, err = run(
            capsys, "train", "--data", str(workdir / "data.csv"),
            "--out", str(tmp_path / "x.ckpt"), "--mode", "mtl", *TINY, *extra,
        )
        assert code == 2
        error = only_error(err)
        assert error["error"] == "bad-config"
        assert "lr" in error["message"]
        assert not (tmp_path / "x.ckpt").exists()

    @pytest.mark.parametrize("key", ["lr", "dropout", "val_fraction"])
    def test_config_int_past_float_range_is_bad_config(self, key, workdir, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(f'{{"{key}": 1{"0" * 400}}}')
        code, _, err = run(
            capsys, "train", "--data", str(workdir / "data.csv"),
            "--out", str(tmp_path / "x.ckpt"), "--mode", "mtl", "--config", str(cfg),
            *TINY,
        )
        assert code == 2
        error = only_error(err)
        assert error["error"] == "bad-config"
        assert repr(key) in error["message"]
        assert not (tmp_path / "x.ckpt").exists()

    def test_integral_float_config_value_accepted(self, workdir, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"seed": 4.0}))
        code, out, _ = run(
            capsys, "train", "--data", str(workdir / "data.csv"),
            "--out", str(tmp_path / "x.ckpt"), "--mode", "mtl", "--config", str(cfg),
            *TINY,
        )
        assert code == 0
        assert "seed=4" in out.splitlines()

    def test_aux_size_requires_target(self, workdir, tmp_path, capsys):
        code, _, err = run(
            capsys, "train", "--data", str(workdir / "data.csv"),
            "--out", str(tmp_path / "x.ckpt"), "--mode", "mtl",
            "--aux-size", "10", *TINY,
        )
        assert code == 2
        assert json.loads(err)["error"] == "bad-config"

    def test_single_needs_target_on_multicolumn_data(self, workdir, tmp_path, capsys):
        code, _, err = run(
            capsys, "train", "--data", str(workdir / "data.csv"),
            "--out", str(tmp_path / "x.ckpt"), "--mode", "single", *TINY,
        )
        assert code == 2

    @pytest.mark.parametrize(
        "argv, named",
        [
            (["--mode", "mtl", "--target", "nosuch"], "nosuch"),
            (["--mode", "single", "--target", "task0", "--aux-size", "5"], "--aux-size"),
            (["--mode", "single", "--target", "task0", "--new-target", "task1"],
             "--new-target"),
        ],
        ids=["unknown-mtl-target", "aux-size-single", "new-target-flag"],
    )
    def test_target_flags_checked(self, argv, named, workdir, tmp_path, capsys):
        code, _, err = run(
            capsys, "train", "--data", str(workdir / "data.csv"),
            "--out", str(tmp_path / "x.ckpt"), *argv, *TINY,
        )
        assert code == 2
        error = only_error(err)
        assert error["error"] == "bad-config"
        assert named in error["message"]
        assert not (tmp_path / "x.ckpt").exists()

    def test_scarce_target_caps(self, workdir, tmp_path, capsys, monkeypatch):
        original = molscreen.cli.train
        trained = []

        def capturing(ds, config):
            trained.append(ds)
            return original(ds, config)

        monkeypatch.setattr(molscreen.cli, "train", capturing)
        for mode, extra in (("mtl", ["--aux-size", "20"]), ("single", [])):
            code, _, _ = run(
                capsys, "train", "--data", str(workdir / "data.csv"),
                "--out", str(tmp_path / f"{mode}.ckpt"), "--mode", mode,
                "--target", "task1", "--new-size", "5", *extra, *TINY,
            )
            assert code == 0
        mtl, single = trained
        assert mtl.task_names == ["task0", "task1"]
        assert mtl.label_mask.sum(axis=0).tolist() == [20, 5]
        assert single.task_names == ["task1"]
        rows = np.flatnonzero(mtl.label_mask[:, 1])
        assert single.smiles == [mtl.smiles[i] for i in rows]
        np.testing.assert_array_equal(single.labels[:, 0], mtl.labels[rows, 1])

    def test_huge_learning_rate_prints_one_error_line(self, diverging, tmp_path):
        """NumPy's overflow warnings stay off stderr.  A subprocess, because
        pytest captures warnings itself."""
        import subprocess

        proc = subprocess.run(
            [sys.executable, "-m", "molscreen.cli", "train",
             "--data", str(diverging / "data.csv"), "--out", str(tmp_path / "x.ckpt"),
             "--target", "task0", "--embed-dim", "8", "--n-layers", "2",
             "--head-hidden", "8", "--batch-size", "16", "--lr", "1e150"],
            capture_output=True, text=True, env=TestEntryPoint._env(),
        )
        assert proc.returncode == 5
        assert only_error(proc.stderr)["error"] == "training-failure"

    def test_activity_column_direction_saved(self, tmp_path, capsys):
        rows = ["smiles,act:ic50_molar"]
        mols = ["CCO", "CCN", "CCC", "CCCC", "CCCO", "CCCN", "C1CC1", "C1CCC1",
                "CCOC", "CCSC", "CNC", "COC", "CCCCC", "OCCO", "NCCN", "CC(C)C"]
        for i, s in enumerate(mols):
            rows.append(f"{s},{10 ** -(5 + (i % 4))}")
        data = tmp_path / "act.csv"
        data.write_text("\n".join(rows) + "\n")
        code, _, _ = run(
            capsys, "train", "--data", str(data), "--out", str(tmp_path / "act.ckpt"),
            "--mode", "single", *TINY,
        )
        assert code == 0
        ck = load_checkpoint(tmp_path / "act.ckpt")
        assert ck.hit_directions == ["higher_is_better"]


class TestPredictCommand:
    def test_golden_fixture_bit_exact(self, tmp_path, capsys):
        for name in GOLDEN_FILES:
            path = GOLDEN / name
            assert path.is_file(), (
                f"golden fixture file {path} is missing; it is made by "
                f"scripts/generate_golden_fixture.py and must be committed"
            )
        out = tmp_path / "preds.csv"
        code, stdout, err = run(
            capsys, "predict", "--checkpoint", str(GOLDEN / "model.ckpt"),
            "--input", str(GOLDEN / "input.csv"), "--out", str(out),
        )
        assert code == 0, f"predict exited {code}: {err}"
        assert "seed=20" in stdout
        assert out.read_bytes() == (GOLDEN / "expected_predictions.csv").read_bytes()

    def test_repeated_task_name_refused(self, tmp_path, capsys):
        # a repeated column header is a file that ingest refuses
        out = tmp_path / "preds.csv"
        code, _, err = run(
            capsys, "predict", "--checkpoint", str(GOLDEN / "model.ckpt"),
            "--input", str(GOLDEN / "input.csv"), "--tasks", "task0,task0", "--out", str(out),
        )
        assert code == 2
        error = only_error(err)
        assert error["error"] == "bad-config"
        assert "'task0'" in error["message"]
        assert not out.exists()

    def test_golden_fixture_matches_recipe(self, tmp_path):
        # scripts/ is not a package, so load the generator by path.
        spec = importlib.util.spec_from_file_location("generate_golden_fixture", GOLDEN_SCRIPT)
        script = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(script)
        script.generate(tmp_path)
        for name in GOLDEN_FILES:
            assert (tmp_path / name).read_bytes() == (GOLDEN / name).read_bytes(), (
                f"{name} from scripts/generate_golden_fixture.py differs from the "
                f"committed {GOLDEN / name}"
            )

    def test_task_subset_matches_full(self, workdir, tmp_path, capsys):
        full = tmp_path / "full.csv"
        sub = tmp_path / "sub.csv"
        for out, tasks in ((full, None), (sub, "task1")):
            argv = [
                "predict", "--checkpoint", str(workdir / "mtl.ckpt"),
                "--input", str(workdir / "data.csv"), "--out", str(out),
            ]
            if tasks:
                argv += ["--tasks", tasks]
            assert main(argv) == 0
        capsys.readouterr()
        full_rows = read_rows(full)
        sub_rows = read_rows(sub)
        assert set(sub_rows[0]) == {"smiles", "task1"}
        for a, b in zip(full_rows, sub_rows):
            assert a["task1"] == b["task1"]

    def test_unknown_task_rejected(self, workdir, tmp_path, capsys):
        code, _, err = run(
            capsys, "predict", "--checkpoint", str(workdir / "mtl.ckpt"),
            "--input", str(workdir / "data.csv"), "--out", str(tmp_path / "x.csv"),
            "--tasks", "task7",
        )
        assert code == 2

    def test_invalid_molecule_is_fatal(self, workdir, tmp_path, capsys):
        bad = tmp_path / "bad.csv"
        bad.write_text("smiles\nCCO\nnot_a_mol(\n")
        code, _, err = run(
            capsys, "predict", "--checkpoint", str(workdir / "mtl.ckpt"),
            "--input", str(bad), "--out", str(tmp_path / "x.csv"),
        )
        assert code == 3
        assert "row 3" in json.loads(err)["message"]

    def test_non_utf8_input_is_io_error(self, workdir, tmp_path, capsys):
        latin = tmp_path / "latin1.csv"
        latin.write_bytes(b"smiles\n\xa3\xff\n")
        code, _, err = run(
            capsys, "predict", "--checkpoint", str(workdir / "mtl.ckpt"),
            "--input", str(latin), "--out", str(tmp_path / "x.csv"),
        )
        assert code == 3
        assert "Traceback" not in err
        (line,) = err.splitlines()
        error = json.loads(line)
        assert error["error"] == "io-failure"
        assert "latin1.csv" in error["message"]

    def test_missing_checkpoint_is_io_error(self, workdir, tmp_path, capsys):
        code, _, err = run(
            capsys, "predict", "--checkpoint", str(tmp_path / "none.ckpt"),
            "--input", str(workdir / "data.csv"), "--out", str(tmp_path / "x.csv"),
        )
        assert code == 3

    def test_truncated_checkpoint_is_io_error(self, workdir, tmp_path, capsys):
        blob = (workdir / "mtl.ckpt").read_bytes()
        broken = tmp_path / "broken.ckpt"
        broken.write_bytes(blob[: len(blob) // 2])
        code, _, err = run(
            capsys, "predict", "--checkpoint", str(broken),
            "--input", str(workdir / "data.csv"), "--out", str(tmp_path / "x.csv"),
        )
        assert code == 3

    def test_foreign_schema_is_schema_mismatch(self, workdir, tmp_path, capsys):
        header, arrays = _split_golden()
        header["bond_widths"] = [7, 4, 3]
        header["schema_hash"] = widths_hash(header["atom_widths"], header["bond_widths"])
        foreign = _with_header(tmp_path / "foreign.ckpt", header, arrays)
        code, _, err = run(
            capsys, "predict", "--checkpoint", str(foreign),
            "--input", str(workdir / "data.csv"), "--out", str(tmp_path / "x.csv"),
        )
        assert code == 4
        error = only_error(err)
        assert error["error"] == "schema-mismatch"
        assert error["message"] == (
            f"{foreign}: checkpoint feature schema {header['schema_hash'][:12]}… does not "
            f"match this build's schema {SCHEMA_HASH[:12]}…"
        )
        assert not (tmp_path / "x.csv").exists()

    def test_header_dimension_unlike_the_arrays_is_io_error(self, workdir, tmp_path, capsys):
        header, arrays = _split_golden()
        header["embed_dim"] = 10**12
        corrupt = _with_header(tmp_path / "corrupt.ckpt", header, arrays)
        code, _, err = run(
            capsys, "predict", "--checkpoint", str(corrupt),
            "--input", str(workdir / "data.csv"), "--out", str(tmp_path / "x.csv"),
        )
        assert code == 3
        error = only_error(err)
        assert error["error"] == "io-failure"
        assert "embed_dim=1000000000000" in error["message"]
        assert "array node_table.0" in error["message"]

    def test_repeated_task_names_are_io_error(self, workdir, tmp_path, capsys):
        # predict would write two columns of head 0, and --tasks could not
        # reach head 1
        header, arrays = _split_golden()
        header["task_names"] = ["a", "a"]
        repeated = _with_header(tmp_path / "repeated.ckpt", header, arrays)
        code, _, err = run(
            capsys, "predict", "--checkpoint", str(repeated),
            "--input", str(workdir / "data.csv"), "--out", str(tmp_path / "x.csv"),
        )
        assert code == 3
        error = only_error(err)
        assert error["error"] == "io-failure"
        assert error["message"] == f"{repeated}: task names repeat: ['a']"
        assert not (tmp_path / "x.csv").exists()


class TestScreenCommand:
    def test_ranked_output(self, workdir, tmp_path, capsys):
        out = tmp_path / "screened.csv"
        code, stdout, _ = run(
            capsys, "screen", "--checkpoint", str(workdir / "single.ckpt"),
            "--library", str(workdir / "data.csv"), "--top-frac", "0.1",
            "--out", str(out),
        )
        assert code == 0
        rows = read_rows(out)
        assert len(rows) == 40
        assert [int(r["rank"]) for r in rows] == list(range(1, 41))
        scores = [float(r["predicted_score"]) for r in rows]
        assert scores == sorted(scores)  # lower_is_better: best first
        n_hits = math.ceil(0.1 * 40)
        assert [r["is_predicted_hit"] for r in rows[:n_hits]] == ["true"] * n_hits
        assert all(r["is_predicted_hit"] == "false" for r in rows[n_hits:])

    def test_deterministic(self, workdir, tmp_path, capsys):
        blobs = []
        for name in ("s1.csv", "s2.csv"):
            code, _, _ = run(
                capsys, "screen", "--checkpoint", str(workdir / "single.ckpt"),
                "--library", str(workdir / "data.csv"), "--top-frac", "0.05",
                "--out", str(tmp_path / name),
            )
            assert code == 0
            blobs.append((tmp_path / name).read_bytes())
        assert blobs[0] == blobs[1]

    @pytest.mark.parametrize("bad", ["C\u00b2", "C\u0663CC\u0663"])
    def test_non_ascii_digit_row_is_input_error(self, bad, workdir, tmp_path, capsys):
        library = tmp_path / "library.csv"
        library.write_text(f"smiles\nCCO\n{bad}\nCCN\n", encoding="utf-8")
        out = tmp_path / "x.csv"
        code, _, err = run(
            capsys, "screen", "--checkpoint", str(workdir / "single.ckpt"),
            "--library", str(library), "--top-frac", "0.5", "--out", str(out),
        )
        assert code == 3
        error = only_error(err)
        assert error["error"] == "io-failure"
        assert "row 3: SMILES rejected: unexpected character" in error["message"]
        assert not out.exists()

    def test_field_over_csv_limit_is_io_error(self, workdir, tmp_path, capsys):
        library = tmp_path / "long.csv"
        library.write_text("smiles\n" + "C" * 140_000 + "\n")
        out = tmp_path / "x.csv"
        code, _, err = run(
            capsys, "screen", "--checkpoint", str(workdir / "single.ckpt"),
            "--library", str(library), "--top-frac", "0.5", "--out", str(out),
        )
        assert code == 3
        error = only_error(err)
        assert error["error"] == "io-failure"
        assert str(library) in error["message"]
        assert not out.exists()

    def test_byte_order_mark_library_matches_plain(self, workdir, tmp_path, capsys):
        library = tmp_path / "bom.csv"
        library.write_bytes(b"\xef\xbb\xbf" + (workdir / "data.csv").read_bytes())
        for name, path in (("plain", workdir / "data.csv"), ("bom", library)):
            code, _, _ = run(
                capsys, "screen", "--checkpoint", str(workdir / "single.ckpt"),
                "--library", str(path), "--out", str(tmp_path / f"{name}-out.csv"),
            )
            assert code == 0
        screened = (tmp_path / "bom-out.csv").read_bytes()
        assert screened == (tmp_path / "plain-out.csv").read_bytes()

    def test_non_utf8_library_after_byte_order_mark_is_io_error(self, workdir, tmp_path,
                                                                 capsys):
        library = tmp_path / "latin1.csv"
        library.write_bytes(b"\xef\xbb\xbfsmiles\nCCO\n\xa3\xff\n")
        out = tmp_path / "x.csv"
        code, _, err = run(
            capsys, "screen", "--checkpoint", str(workdir / "single.ckpt"),
            "--library", str(library), "--out", str(out),
        )
        assert code == 3
        error = only_error(err)
        assert error["error"] == "io-failure"
        assert "not UTF-8 text" in error["message"]
        assert not out.exists()

    def test_bad_fraction(self, workdir, tmp_path, capsys):
        code, _, _ = run(
            capsys, "screen", "--checkpoint", str(workdir / "single.ckpt"),
            "--library", str(workdir / "data.csv"), "--top-frac", "1.5",
            "--out", str(tmp_path / "x.csv"),
        )
        assert code == 2


class TestEvalCommand:
    def test_task_without_labels_is_config_error(self, workdir, tmp_path, capsys):
        # task1 is a checkpoint task, but no row of this file labels it
        data = tmp_path / "unlabeled.csv"
        data.write_text("smiles,task0,task1\nCCO,1.0,\nCCN,2.0,\nCCC,3.0,\n")
        code, _, err = run(
            capsys, "eval", "--checkpoint", str(workdir / "mtl.ckpt"),
            "--data", str(data), "--out", str(tmp_path / "m.csv"),
        )
        assert code == 2
        assert "Traceback" not in err
        lines = err.strip().splitlines()
        assert len(lines) == 1
        assert "'task1'" in json.loads(lines[0])["message"]

    def test_metrics_and_recall_grid(self, workdir, tmp_path, capsys):
        out = tmp_path / "metrics.csv"
        code, _, _ = run(
            capsys, "eval", "--checkpoint", str(workdir / "mtl.ckpt"),
            "--data", str(workdir / "data.csv"),
            "--k", "4", "--k", "8", "--top-frac", "0.2", "--out", str(out),
        )
        assert code == 0
        rows = read_rows(out)
        names = {(r["metric"], r["task"]) for r in rows}
        for task in ("task0", "task1"):
            for metric in ("mse", "pearson", "concordance_index",
                           "recall@k=4;p=0.2", "recall@k=8;p=0.2"):
                assert (metric, task) in names
        for r in rows:
            assert np.isfinite(float(r["value"]))

    def test_values_match_api(self, workdir, tmp_path, capsys):
        from molscreen.dataset_io import ingest_csv
        from molscreen.metrics import mse as mse_fn

        out = tmp_path / "metrics.csv"
        code, _, _ = run(
            capsys, "eval", "--checkpoint", str(workdir / "single.ckpt"),
            "--data", str(workdir / "data.csv"), "--out", str(out),
        )
        assert code == 0
        preds_csv = tmp_path / "preds.csv"
        assert main([
            "predict", "--checkpoint", str(workdir / "single.ckpt"),
            "--input", str(workdir / "data.csv"), "--out", str(preds_csv),
        ]) == 0
        capsys.readouterr()
        ds, _ = ingest_csv(workdir / "data.csv")
        by_smiles = {r["smiles"]: float(r["task0"]) for r in read_rows(preds_csv)}
        preds = np.array([by_smiles[s] for s in ds.smiles])
        expected = mse_fn(ds.labels[:, 0], preds)
        got = [float(r["value"]) for r in read_rows(out) if r["metric"] == "mse"]
        assert got[0] == pytest.approx(expected, abs=1e-12)

    def test_half_specified_grid_rejected(self, workdir, tmp_path, capsys):
        code, _, _ = run(
            capsys, "eval", "--checkpoint", str(workdir / "mtl.ckpt"),
            "--data", str(workdir / "data.csv"), "--k", "4",
            "--out", str(tmp_path / "x.csv"),
        )
        assert code == 2

    def test_disjoint_tasks_rejected(self, workdir, tmp_path, capsys):
        other = tmp_path / "other.csv"
        other.write_text("smiles,weird\nCCO,-1.0\nCCN,-2.0\n")
        code, _, _ = run(
            capsys, "eval", "--checkpoint", str(workdir / "mtl.ckpt"),
            "--data", str(other), "--out", str(tmp_path / "x.csv"),
        )
        assert code == 2


class TestExportEmbeddingsCommand:
    def test_matches_api(self, workdir, tmp_path, capsys):
        from molscreen.dataset_io import ingest_csv
        from molscreen.model import encode_graphs

        out = tmp_path / "emb.csv"
        code, _, _ = run(
            capsys, "export-embeddings", "--checkpoint", str(workdir / "mtl.ckpt"),
            "--input", str(workdir / "data.csv"), "--out", str(out),
        )
        assert code == 0
        rows = read_rows(out)
        assert len(rows) == 40
        ck = load_checkpoint(workdir / "mtl.ckpt")
        ds, _ = ingest_csv(workdir / "data.csv")
        matrix = encode_graphs(ds.graphs, ck.params)
        for row, smiles, vec in zip(rows, ds.smiles, matrix):
            assert row["smiles"] == smiles
            got = np.array([float(row[f"e{j}"]) for j in range(matrix.shape[1])])
            np.testing.assert_array_equal(got, vec)


class TestZeroTaskCheckpoint:
    """A checkpoint with no task heads loads and exports embeddings, but
    scoring with it is a bad-config error naming the file."""

    @pytest.fixture
    def headless(self, tmp_path):
        ckpt = tmp_path / "headless.ckpt"
        params = init_params([], embed_dim=4, n_layers=1, head_hidden=4, seed=0)
        save_checkpoint(ckpt, params, [], 0)
        library = tmp_path / "library.csv"
        library.write_text("smiles\nCCO\nc1ccccc1\n")
        return ckpt, library

    @pytest.mark.parametrize(
        "argv",
        [["screen", "--library", "{lib}"], ["predict", "--input", "{lib}"]],
        ids=["screen", "predict"],
    )
    def test_scoring_is_bad_config(self, argv, headless, tmp_path, capsys):
        ckpt, library = headless
        code, _, err = run(
            capsys, *[a.format(lib=library) for a in argv], "--checkpoint", str(ckpt),
            "--out", str(tmp_path / "out.csv"),
        )
        assert code == 2
        error = only_error(err)
        assert error["error"] == "bad-config"
        assert str(ckpt) in error["message"]
        assert "no task heads" in error["message"]
        assert not (tmp_path / "out.csv").exists()

    def test_export_embeddings_succeeds(self, headless, tmp_path, capsys):
        ckpt, library = headless
        out = tmp_path / "emb.csv"
        code, _, _ = run(
            capsys, "export-embeddings", "--checkpoint", str(ckpt),
            "--input", str(library), "--out", str(out),
        )
        assert code == 0
        assert read_rows(out)[0].keys() == {"smiles", "e0", "e1", "e2", "e3"}


class TestNonFiniteCheckpoint:
    """A checkpoint holding a NaN is an io-failure naming the file and the
    array, before any command scores with it or writes its output."""

    @pytest.fixture
    def poisoned(self, tmp_path):
        ckpt = tmp_path / "nan.ckpt"
        params = init_params(["task0", "task1"], embed_dim=4, n_layers=1, head_hidden=4, seed=0)
        save_checkpoint(ckpt, params, ["lower_is_better"] * 2, 0)
        _patch_values(ckpt, {("head.0.b2", 0): np.nan})
        data = tmp_path / "data.csv"
        data.write_text("smiles,task0,task1\nCCO,1.0,2.0\nc1ccccc1,3.0,4.0\n")
        return ckpt, data

    @pytest.mark.parametrize(
        "argv",
        [
            ["screen", "--library", "{data}"],
            ["predict", "--input", "{data}"],
            ["eval", "--data", "{data}"],
            ["export-embeddings", "--input", "{data}"],
        ],
        ids=["screen", "predict", "eval", "export-embeddings"],
    )
    def test_every_command_is_io_failure(self, argv, poisoned, tmp_path, capsys):
        ckpt, data = poisoned
        out = tmp_path / "out.csv"
        code, stdout, err = run(
            capsys, *[a.format(data=data) for a in argv], "--checkpoint", str(ckpt),
            "--out", str(out),
        )
        assert code == 3
        error = only_error(err)
        assert error["error"] == "io-failure"
        assert error["message"] == f"{ckpt}: array head.0.b2: holds a NaN or infinite value"
        assert stdout == ""
        assert not out.exists()


QUOTED_TASKS = ["dock,5HT2A", 'say "hi"\nagain']


@pytest.fixture(scope="module")
def quoted(tmp_path_factory):
    """A two-task dataset whose task names hold a comma, a quote and a line
    break, and a checkpoint trained on it."""
    tmp = tmp_path_factory.mktemp("quoted")
    assert main([
        "synth-gen", "--n-tasks", "2", "--n-per-task", "20", "--seed", "1",
        "--out", str(tmp / "synth.csv"), "--meta-out", str(tmp / "meta.json"),
    ]) == 0
    with open(tmp / "synth.csv", newline="") as handle:
        rows = list(csv.reader(handle))
    with open(tmp / "raw.csv", "w", newline="") as handle:
        csv.writer(handle).writerows([["smiles", *QUOTED_TASKS], *rows[1:]])
    assert main(["ingest", "--input", str(tmp / "raw.csv"), "--out", str(tmp / "data.csv")]) == 0
    assert main([
        "train", "--data", str(tmp / "data.csv"), "--out", str(tmp / "model.ckpt"),
        "--mode", "mtl", *TINY,
    ]) == 0
    return tmp


class TestCsvQuoting:
    """Every table a subcommand writes reads back with ``csv.reader`` to rows
    of its header's width, with task names intact.  Each command's argv ends
    with the flag of the table checked."""

    COMMANDS = {
        "synth-gen": (["synth-gen", "--n-tasks", "2", "--n-per-task", "5",
                       "--meta-out", "{tmp}/m.json", "--out"], None),
        "ingest": (["ingest", "--input", "{q}/raw.csv", "--out"], ["smiles", *QUOTED_TASKS]),
        "predict": (["predict", "--checkpoint", "{q}/model.ckpt",
                     "--input", "{q}/data.csv", "--out"], ["smiles", *QUOTED_TASKS]),
        "screen": (["screen", "--checkpoint", "{q}/model.ckpt", "--library",
                    "{q}/data.csv", "--task", QUOTED_TASKS[1], "--out"],
                   ["smiles", "predicted_score", "rank", "is_predicted_hit"]),
        "eval": (["eval", "--checkpoint", "{q}/model.ckpt", "--data", "{q}/data.csv",
                  "--k", "3", "--top-frac", "0.2", "--out"], ["metric", "task", "value"]),
        "export-embeddings": (["export-embeddings", "--checkpoint", "{q}/model.ckpt",
                               "--input", "{q}/data.csv", "--out"], None),
        "active-learn": (["active-learn", "--pool", "{q}/data.csv", "--meta",
                          "{q}/meta.json", "--budget", "10", "--rounds", "1",
                          "--ensemble-size", "1", "--task-name", QUOTED_TASKS[0],
                          "--acquired-out", "{tmp}/acquired.csv", *TINY, "--log-out"],
                         ["round", "labeled_count", "pool_size", "mean_acquisition_score"]),
    }

    def _table(self, path):
        with open(path, newline="") as handle:
            header, *rows = csv.reader(handle)
        assert rows
        assert all(len(row) == len(header) for row in rows)
        return header, rows

    @pytest.mark.parametrize("command", COMMANDS, ids=COMMANDS)
    def test_rows_keep_header_width(self, command, quoted, tmp_path, capsys):
        argv, expected_header = self.COMMANDS[command]
        argv = [a.format(q=quoted, tmp=tmp_path) for a in argv]
        out = tmp_path / "out.csv"
        code, _, err = run(capsys, *argv, str(out))
        assert code == 0, err
        header, rows = self._table(out)
        if expected_header is not None:
            assert header == expected_header
        if command == "eval":
            assert {row[1] for row in rows} == set(QUOTED_TASKS)
        if command == "active-learn":
            header, rows = self._table(tmp_path / "acquired.csv")
            assert header == ["smiles", QUOTED_TASKS[0]]
            assert len(rows) == 10

    @pytest.mark.parametrize(
        "value, selected",
        [
            ('"dock,5HT2A"', ["dock,5HT2A"]),
            ('"say ""hi""\nagain", "dock,5HT2A"', QUOTED_TASKS[::-1]),
        ],
    )
    def test_predict_tasks_quoted_as_in_header(self, value, selected, quoted, tmp_path, capsys):
        out = tmp_path / "out.csv"
        code, _, err = run(capsys, "predict", "--checkpoint", f"{quoted}/model.ckpt",
                           "--input", f"{quoted}/data.csv", "--tasks", value, "--out", str(out))
        assert code == 0, err
        assert self._table(out)[0] == ["smiles", *selected]

    @pytest.mark.parametrize(
        "value, message",
        [("dock,5HT2A", "task 'dock' not in checkpoint tasks"),
         ("dock\n5HT2A", "--tasks is not one CSV record")],
        ids=["unquoted-comma", "unquoted-line-break"],
    )
    def test_predict_tasks_unquoted(self, value, message, quoted, tmp_path, capsys):
        code, _, err = run(capsys, "predict", "--checkpoint", f"{quoted}/model.ckpt",
                           "--input", f"{quoted}/data.csv", "--tasks", value,
                           "--out", str(tmp_path / "out.csv"))
        assert code == 2
        assert message in only_error(err)["message"]

    @pytest.mark.parametrize(
        "value", ['"dock,5HT2A', '"dock,5HT2A"x'], ids=["unclosed-quote", "text-after-quote"]
    )
    def test_predict_tasks_malformed_quoting(self, value, quoted, tmp_path, capsys):
        out = tmp_path / "out.csv"
        code, _, err = run(capsys, "predict", "--checkpoint", f"{quoted}/model.ckpt",
                           "--input", f"{quoted}/data.csv", "--tasks", value, "--out", str(out))
        assert code == 2
        assert only_error(err)["message"].startswith("--tasks is not one CSV record: ")
        assert not out.exists()


class TestFeaturizeOnce:
    """A library is parsed and featurized once per command, not once to
    validate it and again to score it."""

    @pytest.mark.parametrize(
        "argv",
        [
            ["screen", "--checkpoint", "{ckpt}", "--library", "{lib}", "--out", "{out}"],
            ["predict", "--checkpoint", "{ckpt}", "--input", "{lib}", "--out", "{out}"],
            ["export-embeddings", "--checkpoint", "{ckpt}", "--input", "{lib}",
             "--out", "{out}"],
            ["active-learn", "--pool", "{lib}", "--meta", "{meta}", "--budget", "20",
             "--rounds", "2", "--ensemble-size", "2", "--log-out", "{out}",
             "--embed-dim", "8", "--n-layers", "1", "--head-hidden", "8",
             "--batch-size", "4", "--min-epochs", "1", "--max-epochs", "1"],
        ],
        ids=["screen", "predict", "export-embeddings", "active-learn"],
    )
    def test_one_call_per_compound(self, argv, workdir, tmp_path, capsys, monkeypatch):
        import molscreen.dataset_io
        import molscreen.featurize

        original = molscreen.featurize.featurize_smiles
        calls = []

        def counting(smiles, *args, **kwargs):
            calls.append(smiles)
            return original(smiles, *args, **kwargs)

        for module in (molscreen.featurize, molscreen.dataset_io):
            monkeypatch.setattr(module, "featurize_smiles", counting)
        paths = {
            "ckpt": workdir / "mtl.ckpt",
            "lib": workdir / "data.csv",
            "meta": workdir / "meta.json",
            "out": tmp_path / "out.csv",
        }
        code, _, _ = run(capsys, *[a.format(**paths) for a in argv])
        assert code == 0
        library = [r["smiles"] for r in read_rows(workdir / "data.csv")]
        assert sorted(calls) == sorted(library)


class TestTransferCommand:
    def test_end_to_end(self, workdir, tmp_path, capsys):
        out = tmp_path / "tr.ckpt"
        code, stdout, _ = run(
            capsys, "transfer", "--pretrained", str(workdir / "mtl.ckpt"),
            "--data", str(workdir / "data.csv"), "--target", "task1",
            "--head-epochs", "2", "--out", str(out),
            "--batch-size", "16", "--min-epochs", "2", "--patience", "1",
            "--max-epochs", "4",
        )
        assert code == 0
        summary = json.loads(stdout.splitlines()[-1])
        assert summary["warmup"]["n_epochs"] == 2
        ck = load_checkpoint(out)
        assert ck.params.task_names == ["task1"]
        # encoder dims adopted from the pretrained checkpoint
        assert ck.params.embed_dim == 8
        assert ck.params.n_layers == 1

    def test_target_required_for_multicolumn(self, workdir, tmp_path, capsys):
        code, _, _ = run(
            capsys, "transfer", "--pretrained", str(workdir / "mtl.ckpt"),
            "--data", str(workdir / "data.csv"), "--out", str(tmp_path / "x.ckpt"),
            "--batch-size", "16",
        )
        assert code == 2

    @pytest.fixture
    def one_task(self, workdir, tmp_path):
        """The synth set cut to its task0 column and the rows labelled there."""
        rows = read_rows(workdir / "data.csv")
        path = tmp_path / "one_task.csv"
        path.write_text(
            "smiles,task0\n"
            + "".join(f"{r['smiles']},{r['task0']}\n" for r in rows if r["task0"])
        )
        return path

    def test_unknown_target_on_one_task_data_is_bad_config(self, one_task, workdir,
                                                           tmp_path, capsys):
        out = tmp_path / "x.ckpt"
        code, _, err = run(
            capsys, "transfer", "--pretrained", str(workdir / "mtl.ckpt"),
            "--data", str(one_task), "--target", "nosuch", "--out", str(out),
            "--batch-size", "16",
        )
        assert code == 2
        error = only_error(err)
        assert error["error"] == "bad-config"
        assert "'nosuch'" in error["message"]
        assert not out.exists()

    def test_named_target_on_one_task_data(self, one_task, workdir, tmp_path, capsys):
        out = tmp_path / "x.ckpt"
        code, stdout, _ = run(
            capsys, "transfer", "--pretrained", str(workdir / "mtl.ckpt"),
            "--data", str(one_task), "--target", "task0", "--head-epochs", "0",
            "--out", str(out), "--batch-size", "16", "--min-epochs", "1",
            "--max-epochs", "1",
        )
        assert code == 0
        assert json.loads(stdout.splitlines()[-1])["task"] == "task0"
        assert load_checkpoint(out).params.task_names == ["task0"]

    def test_conflicting_dims_rejected(self, workdir, tmp_path, capsys):
        code, _, err = run(
            capsys, "transfer", "--pretrained", str(workdir / "mtl.ckpt"),
            "--data", str(workdir / "data.csv"), "--target", "task0",
            "--out", str(tmp_path / "x.ckpt"), "--embed-dim", "16",
            "--batch-size", "16",
        )
        assert code == 2
        assert "embed_dim" in json.loads(err)["message"]

    def test_head_width_adopted(self, workdir, tmp_path, capsys):
        out = tmp_path / "tr.ckpt"
        code, _, _ = run(
            capsys, "transfer", "--pretrained", str(workdir / "mtl.ckpt"),
            "--data", str(workdir / "data.csv"), "--target", "task0",
            "--head-epochs", "0", "--out", str(out),
            "--batch-size", "16", "--min-epochs", "1", "--max-epochs", "1",
        )
        assert code == 0
        assert load_checkpoint(out).params.head_hidden == 8  # default is 256

    def test_huge_head_is_bad_config(self, workdir, tmp_path, capsys, monkeypatch):
        # a fixed 2 GiB limit, so the count refuses the head on any machine
        monkeypatch.setattr(molscreen.model, "_memory_limit", lambda: 2 << 30)
        out = tmp_path / "x.ckpt"
        code, _, err = run(
            capsys, "transfer", "--pretrained", str(workdir / "mtl.ckpt"),
            "--data", str(workdir / "data.csv"), "--target", "task0",
            "--head-hidden", "100000000", "--out", str(out), "--batch-size", "16",
        )
        assert code == 2
        error = only_error(err)
        assert error["error"] == "bad-config"
        assert error["message"].startswith("out of memory: embed_dim=8, n_layers=1, "
                                           "head_hidden=100000000: the parameters need")
        assert not out.exists()

    def test_conflicting_dims_in_config_file_rejected(self, workdir, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"embed_dim": 16}))
        code, _, err = run(
            capsys, "transfer", "--pretrained", str(workdir / "mtl.ckpt"),
            "--data", str(workdir / "data.csv"), "--target", "task0",
            "--out", str(tmp_path / "x.ckpt"), "--config", str(cfg),
            "--batch-size", "16",
        )
        assert code == 2
        assert "embed_dim" in only_error(err)["message"]

    def test_non_finite_gradient_is_training_failure(self, diverging, tmp_path, capsys):
        code, _, err = run(
            capsys, "transfer", "--pretrained", str(diverging / "bad.ckpt"),
            "--data", str(diverging / "data.csv"), "--target", "task0",
            "--head-epochs", "0", "--out", str(tmp_path / "x.ckpt"),
            "--batch-size", "16", "--min-epochs", "1", "--max-epochs", "2",
        )
        assert code == 5
        error = only_error(err)
        assert error["error"] == "training-failure"
        assert "gradient" in error["message"]
        assert not (tmp_path / "x.ckpt").exists()


class TestActiveLearnCommand:
    def test_end_to_end(self, workdir, tmp_path, capsys):
        log = tmp_path / "al.csv"
        acquired = tmp_path / "acq.csv"
        code, stdout, _ = run(
            capsys, "active-learn", "--pool", str(workdir / "data.csv"),
            "--meta", str(workdir / "meta.json"), "--budget", "20", "--rounds", "2",
            "--ensemble-size", "2", "--log-out", str(log),
            "--acquired-out", str(acquired), "--out", str(tmp_path / "al.ckpt"),
            "--embed-dim", "8", "--n-layers", "1", "--head-hidden", "8",
            "--batch-size", "4", "--min-epochs", "1", "--patience", "1",
            "--max-epochs", "2", "--val-fraction", "0.3",
        )
        assert code == 0
        log_rows = read_rows(log)
        assert len(log_rows) == 3  # initial round plus two acquisition rounds
        assert log_rows[0]["mean_acquisition_score"] == ""
        assert [int(r["labeled_count"]) for r in log_rows] == [10, 15, 20]
        assert len(read_rows(acquired)) == 20
        ck = load_checkpoint(tmp_path / "al.ckpt")
        assert ck.params.task_names == ["T0"]

    def test_out_saves_ensemble_member_zero(self, workdir, tmp_path, capsys):
        # --out is documented to save final-ensemble member 0 only
        code, _, _ = run(
            capsys, "active-learn", "--pool", str(workdir / "data.csv"),
            "--meta", str(workdir / "meta.json"), "--budget", "20", "--rounds", "2",
            "--ensemble-size", "2", "--log-out", str(tmp_path / "al.csv"),
            "--out", str(tmp_path / "al.ckpt"), "--seed", "3",
            "--embed-dim", "8", "--n-layers", "1", "--head-hidden", "8",
            "--batch-size", "4", "--min-epochs", "1", "--max-epochs", "1",
        )
        assert code == 0
        pool, graphs, _ = read_smiles_csv(workdir / "data.csv")
        meta = SynthMeta.from_json((workdir / "meta.json").read_text())
        result = al_run(
            pool,
            task_oracle(meta, 0),
            ALConfig(total_budget=20, ensemble_size=2, n_rounds=2),
            TrainConfig(
                embed_dim=8, n_layers=1, head_hidden=8, batch_size=4,
                min_epochs=1, max_epochs=1, seed=3,
            ),
            graphs=graphs,
        )
        saved = predict_graphs(graphs, load_checkpoint(tmp_path / "al.ckpt").params)
        member0 = predict_graphs(graphs, result.members[0])
        member1 = predict_graphs(graphs, result.members[1])
        np.testing.assert_array_equal(saved.view(np.int64), member0.view(np.int64))
        assert not np.array_equal(saved, member1)

    def test_task_name_that_cannot_read_back_refused_before_training(
        self, workdir, tmp_path, capsys, monkeypatch
    ):
        def unreachable(*args, **kwargs):
            raise AssertionError("training started despite an unwritable task name")

        monkeypatch.setattr("molscreen.cli.al_run", unreachable)
        code, stdout, err = run(
            capsys, "active-learn", "--pool", str(workdir / "data.csv"),
            "--meta", str(workdir / "meta.json"), "--budget", "20", "--rounds", "2",
            "--task-name", "dock:higher_is_better", "--log-out", str(tmp_path / "al.csv"),
            "--acquired-out", str(tmp_path / "acq.csv"), "--out", str(tmp_path / "al.ckpt"),
        )
        assert code == 2
        error = only_error(err)
        assert error["error"] == "bad-config"
        assert "'dock:higher_is_better'" in error["message"]
        assert list(tmp_path.iterdir()) == []

    def test_budget_beyond_pool(self, workdir, tmp_path, capsys):
        code, _, _ = run(
            capsys, "active-learn", "--pool", str(workdir / "data.csv"),
            "--meta", str(workdir / "meta.json"), "--budget", "100",
            "--rounds", "2", "--log-out", str(tmp_path / "x.csv"),
            "--batch-size", "4",
        )
        assert code == 2

    def test_uneven_budget_split_rejected(self, workdir, tmp_path, capsys):
        code, _, err = run(
            capsys, "active-learn", "--pool", str(workdir / "data.csv"),
            "--meta", str(workdir / "meta.json"), "--budget", "21",
            "--rounds", "4", "--log-out", str(tmp_path / "x.csv"),
            "--batch-size", "4",
        )
        assert code == 2

    def test_bad_meta_file(self, workdir, tmp_path, capsys):
        meta = tmp_path / "meta.json"
        meta.write_text(json.dumps({"something": "else"}))
        code, _, _ = run(
            capsys, "active-learn", "--pool", str(workdir / "data.csv"),
            "--meta", str(meta), "--budget", "20", "--rounds", "2",
            "--log-out", str(tmp_path / "x.csv"), "--batch-size", "4",
        )
        assert code == 3

    @pytest.mark.parametrize(
        "key,value,message",
        [
            ("a_values", [], "a_values must be a list of 2 finite numbers"),
            ("a_values", ["1.0", "2.0"], "a_values must be a list of 2 finite numbers"),
            ("n_tasks", "2", "n_tasks must be an integer"),
        ],
        ids=["short-a-values", "string-a-values", "string-n-tasks"],
    )
    def test_malformed_meta_is_io_error(self, workdir, tmp_path, capsys, key, value, message):
        raw = json.loads((workdir / "meta.json").read_text())
        assert raw["n_tasks"] == 2
        raw[key] = value
        meta = tmp_path / "meta.json"
        meta.write_text(json.dumps(raw))
        code, _, err = run(
            capsys, "active-learn", "--pool", str(workdir / "data.csv"),
            "--meta", str(meta), "--budget", "20", "--rounds", "2",
            "--log-out", str(tmp_path / "x.csv"), "--batch-size", "4",
        )
        assert code == 3
        error = only_error(err)
        assert error["error"] == "io-failure"
        assert message in error["message"]


AL_TINY = [
    "active-learn", "--pool", "{data}", "--meta", "{meta}", "--budget", "20",
    "--rounds", "2", "--ensemble-size", "2", "--log-out", "{tmp}/al.csv",
    "--embed-dim", "8", "--n-layers", "1", "--head-hidden", "8",
    "--batch-size", "4", "--min-epochs", "1", "--max-epochs", "1",
]


class TestUnwritableOutput:
    """An output that cannot be written, whichever command writes it, is an
    exit-3 JSON error naming the file, never a traceback."""

    @pytest.mark.parametrize(
        "argv",
        [
            ["train", "--data", "{data}", "--out", "{missing}/x.ckpt", "--mode", "mtl",
             *TINY],
            ["transfer", "--pretrained", "{ckpt}", "--data", "{data}", "--target",
             "task1", "--head-epochs", "1", "--out", "{missing}/x.ckpt",
             "--batch-size", "16", "--min-epochs", "1", "--max-epochs", "1"],
            [*AL_TINY, "--out", "{missing}/x.ckpt"],
            [*AL_TINY, "--acquired-out", "{missing}/acq.csv"],
            ["predict", "--checkpoint", "{ckpt}", "--input", "{data}",
             "--out", "{missing}/p.csv"],
            ["ingest", "--input", "{data}", "--out", "{missing}/clean.csv"],
            ["synth-gen", "--n-tasks", "2", "--n-per-task", "5", "--out", "{tmp}/s.csv",
             "--meta-out", "{missing}/meta.json"],
        ],
        ids=["train", "transfer", "active-learn-out", "active-learn-acquired-out",
             "predict", "ingest", "synth-gen-meta"],
    )
    def test_missing_directory_is_io_error(self, argv, workdir, tmp_path, capsys):
        paths = {
            "data": workdir / "data.csv",
            "meta": workdir / "meta.json",
            "ckpt": workdir / "mtl.ckpt",
            "tmp": tmp_path,
            "missing": tmp_path / "no-such-dir",
        }
        code, _, err = run(capsys, *[a.format(**paths) for a in argv])
        assert code == 3
        error = only_error(err)
        assert error["error"] == "io-failure"
        assert str(paths["missing"]) in error["message"]


    @pytest.mark.parametrize("command", ["train", "transfer"])
    def test_rejected_before_training(self, command, workdir, tmp_path, capsys,
                                      monkeypatch):
        def unreachable(*args, **kwargs):
            raise AssertionError("training started despite an unwritable --out")

        monkeypatch.setattr("molscreen.cli.train", unreachable)
        monkeypatch.setattr("molscreen.cli.transfer_train", unreachable)
        missing = tmp_path / "no-such-dir"
        argv = {
            "train": ["train", "--data", str(workdir / "data.csv"), "--mode", "mtl",
                      *TINY],
            "transfer": ["transfer", "--pretrained", str(workdir / "mtl.ckpt"),
                         "--data", str(workdir / "data.csv"), "--target", "task1",
                         "--batch-size", "16"],
        }[command]
        code, _, err = run(capsys, *argv, "--out", str(missing / "x.ckpt"))
        assert code == 3
        error = only_error(err)
        assert error["error"] == "io-failure"
        assert str(missing) in error["message"]
        assert list(tmp_path.iterdir()) == []

    def test_check_leaves_no_file_when_a_later_step_fails(self, tmp_path, capsys):
        out = tmp_path / "x.ckpt"
        code, _, err = run(
            capsys, "train", "--data", str(tmp_path / "missing.csv"),
            "--out", str(out), "--mode", "mtl", *TINY,
        )
        assert code == 3
        assert only_error(err)["error"] == "io-failure"
        assert list(tmp_path.iterdir()) == []


SUMMARY_ARGV = {
    "ingest": ["ingest", "--input", "{data}", "--out", "{out}"],
    "train": ["train", "--data", "{data}", "--out", "{out}", "--mode", "mtl", *TINY],
    "active-learn": [
        "active-learn", "--pool", "{data}", "--meta", "{meta}", "--budget", "20",
        "--rounds", "2", "--ensemble-size", "2", "--log-out", "{out}",
        "--embed-dim", "8", "--n-layers", "1", "--head-hidden", "8",
        "--batch-size", "4", "--min-epochs", "1", "--max-epochs", "1",
    ],
    "transfer": [
        "transfer", "--pretrained", "{ckpt}", "--data", "{data}", "--target", "task1",
        "--head-epochs", "1", "--out", "{out}",
        "--batch-size", "16", "--min-epochs", "1", "--max-epochs", "1",
    ],
    "predict": ["predict", "--checkpoint", "{ckpt}", "--input", "{data}", "--out", "{out}"],
    "screen": ["screen", "--checkpoint", "{ckpt}", "--library", "{data}", "--out", "{out}"],
    "eval": ["eval", "--checkpoint", "{ckpt}", "--data", "{data}", "--out", "{out}"],
    "export-embeddings": [
        "export-embeddings", "--checkpoint", "{ckpt}", "--input", "{data}", "--out", "{out}",
    ],
    "synth-gen": [
        "synth-gen", "--n-tasks", "2", "--n-per-task", "5", "--out", "{out}",
        "--meta-out", "{tmp}/meta.json",
    ],
}


class TestSummaryLine:
    """Every subcommand ends a successful run with one JSON summary line on
    stdout, naming its output, and a failed run prints no summary."""

    @staticmethod
    def _run(command, out, workdir, tmp_path, capsys):
        paths = {
            "data": workdir / "data.csv",
            "meta": workdir / "meta.json",
            "ckpt": workdir / "mtl.ckpt",
            "tmp": tmp_path,
            "out": out,
        }
        return run(capsys, *[a.format(**paths) for a in SUMMARY_ARGV[command]])

    @pytest.mark.parametrize("command", list(SUMMARY_ARGV))
    def test_success_ends_with_one_summary(self, command, workdir, tmp_path, capsys):
        out = tmp_path / "out"
        code, stdout, err = self._run(command, out, workdir, tmp_path, capsys)
        assert code == 0, err
        lines = stdout.splitlines()
        summaries = [
            line for line in lines
            if line.startswith("{") and str(out) in json.loads(line).values()
        ]
        assert summaries == [lines[-1]]
        assert out.exists()

    @pytest.mark.parametrize("command", list(SUMMARY_ARGV))
    def test_failure_prints_no_summary(self, command, workdir, tmp_path, capsys):
        out = tmp_path / "no-such-dir" / "out"
        code, stdout, err = self._run(command, out, workdir, tmp_path, capsys)
        assert code == 3
        assert only_error(err)["error"] == "io-failure"
        assert not any(line.startswith("{") for line in stdout.splitlines())


class TestExitCodeTable:
    def test_readme_lists_exactly_the_failure_rows(self):
        """README's exit-code table names the (code, category) pairs of
        ``cli._FAILURES``, no more and no fewer."""
        readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
        section = readme.split("### Exit codes and errors", 1)[1].split("\n## ", 1)[0]
        documented = {
            (int(code), category)
            for code, category in re.findall(r"^\| (\d+) \| `([a-z-]+)` \|", section, re.M)
        }
        rows = {(code, category) for _, category, code in molscreen.cli._FAILURES}
        assert documented == rows


class TestUsageErrors:
    """argparse's usage errors are bad-config JSON errors like every other
    failure, not usage text."""

    @pytest.mark.parametrize(
        "argv",
        [
            [],
            ["frobnicate"],
            ["train", "--batch-size", "x"],
            ["train", "--data", "d.csv"],
            ["screen", "--checkpoint", "c", "--library", "l", "--out", "o", "--bogus"],
        ],
        ids=["no-command", "unknown-command", "bad-type", "missing-flag", "unknown-flag"],
    )
    def test_usage_error_is_bad_config(self, argv, capsys):
        code, out, err = run(capsys, *argv)
        assert code == 2
        assert out == ""
        error = only_error(err)
        assert error["error"] == "bad-config"
        assert error["exit_code"] == 2
        assert "usage:" not in err

    def test_subcommand_help_exits_0(self, capsys):
        with pytest.raises(SystemExit) as info:
            main(["train", "--help"])
        assert info.value.code == 0
        assert "--batch-size" in capsys.readouterr().out


class TestFlagDefaults:
    """Each flag's default is the library's own, so a default changed in only
    one of the two modules fails here."""

    @staticmethod
    def _parse(*argv):
        return vars(molscreen.cli.build_parser().parse_args(list(argv)))

    @staticmethod
    def _keyword_defaults(fn):
        return {name: p.default for name, p in inspect.signature(fn).parameters.items()}

    def test_active_learn(self):
        args = self._parse("active-learn", "--pool", "p.csv", "--meta", "m.json",
                           "--budget", "8", "--log-out", "log.csv")
        config = {f.name: f.default for f in dataclasses.fields(ALConfig)}
        fields = {"rounds": "n_rounds", "ensemble_size": "ensemble_size",
                  "init_fraction": "init_fraction", "acquisition": "acquisition",
                  "ucb_beta": "ucb_beta"}
        assert {flag: args[flag] for flag in fields} == {
            flag: config[field] for flag, field in fields.items()}
        run = self._keyword_defaults(al_run)
        assert (args["hit_direction"], args["task_name"]) == (
            run["hit_direction"], run["task_name"])

    def test_transfer(self):
        args = self._parse("transfer", "--pretrained", "p.ckpt", "--data", "d.csv",
                           "--out", "o.ckpt")
        assert args["head_epochs"] == self._keyword_defaults(transfer_train)["head_epochs"]

    def test_synth_gen(self):
        args = self._parse("synth-gen", "--n-tasks", "2", "--n-per-task", "3",
                           "--out", "o.csv", "--meta-out", "m.json")
        library = self._keyword_defaults(synth_dataset)
        for name in ("noise_sigma", "min_atoms", "max_atoms"):
            assert args[name] == library[name], name


class TestEntryPoint:
    @staticmethod
    def _env():
        """This environment with the checkout's ``src`` first on PYTHONPATH,
        so the subprocess imports this molscreen, installed or not."""
        src = str(Path(__file__).resolve().parent.parent / "src")
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
        return env

    def test_module_help(self):
        import subprocess

        proc = subprocess.run(
            [sys.executable, "-m", "molscreen.cli", "--help"],
            capture_output=True, text=True, env=self._env(),
        )
        assert proc.returncode == 0
        for command in ("ingest", "train", "active-learn", "transfer", "predict",
                        "screen", "eval", "export-embeddings", "synth-gen"):
            assert command in proc.stdout

    @pytest.mark.parametrize(
        "argv",
        [
            ["train", "--mode", "mtl", "--embed-dim", "1000000000"],
            ["train", "--mode", "mtl", "--head-hidden", "1000000000"],
            # one 3072-wide layer fits under the limit; a billion do not, and
            # the width makes them fill it within seconds
            ["train", "--mode", "mtl", "--n-layers", "1000000000", "--embed-dim", "3072"],
            ["synth-gen", "--n-tasks", "1000000000", "--n-per-task", "2"],
            # layers this narrow would take minutes to fill the limit one by
            # one: the parameter bytes are checked before the first is built
            ["train", "--mode", "mtl", "--n-layers", "1000000000", "--embed-dim", "1"],
        ],
        ids=["train-embed-dim", "train-head-hidden", "train-n-layers", "synth-gen-n-tasks",
             "train-n-layers-narrow"],
    )
    def test_allocation_failure_is_bad_config(self, argv, tmp_path):
        """A model or dataset too large for memory is exit 2 with one JSON
        line, and leaves no output.  The child runs under a 2 GiB
        address-space limit, so the allocation fails within seconds whatever
        the machine's memory."""
        import subprocess

        resource = pytest.importorskip("resource")
        data = tmp_path / "data.csv"
        assert main([
            "synth-gen", "--n-tasks", "2", "--n-per-task", "20",
            "--out", str(data), "--meta-out", str(tmp_path / "meta.json"),
        ]) == 0

        def limit_address_space():
            _, hard = resource.getrlimit(resource.RLIMIT_AS)
            cap = 2 << 30 if hard == resource.RLIM_INFINITY else min(2 << 30, hard)
            resource.setrlimit(resource.RLIMIT_AS, (cap, hard))

        env = self._env()
        # one BLAS thread: per-thread buffers must not eat the limit at import
        env["OPENBLAS_NUM_THREADS"] = env["OMP_NUM_THREADS"] = "1"
        if argv[0] == "train":
            outputs = ["--data", str(data), "--out", str(tmp_path / "model.ckpt")]
        else:
            outputs = ["--out", str(tmp_path / "synth.csv"),
                       "--meta-out", str(tmp_path / "synth.json")]
        proc = subprocess.run(
            [sys.executable, "-m", "molscreen.cli", *argv, *outputs],
            capture_output=True, text=True, env=env, preexec_fn=limit_address_space,
            timeout=60,
        )
        assert proc.returncode == 2
        error = only_error(proc.stderr)
        assert error["error"] == "bad-config"
        assert error["exit_code"] == 2
        assert error["message"].startswith("out of memory: ")
        if argv[-2:] == ["--embed-dim", "1"]:  # the check before allocation names the flag
            assert "n_layers=1000000000" in error["message"]
        assert sorted(p.name for p in tmp_path.iterdir()) == ["data.csv", "meta.json"]

    def test_unknown_command_exits_2(self):
        import subprocess

        proc = subprocess.run(
            [sys.executable, "-m", "molscreen.cli", "frobnicate"],
            capture_output=True, text=True, env=self._env(),
        )
        assert proc.returncode == 2
        error = only_error(proc.stderr)
        assert error["error"] == "bad-config"
        assert "frobnicate" in error["message"]
