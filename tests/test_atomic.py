"""Outputs are replaced whole: a failed write leaves the old file and no
temporary file, and a new file gets the mode ``open(path, "w")`` gives."""

import ast
import os
import stat
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

from molscreen.atomic import atomic_write, check_writable
from molscreen.checkpoint import load_checkpoint, save_checkpoint
from molscreen.dataset_io import write_csv, write_dataset_csv
from molscreen.model import init_params
from molscreen.synth import synth_dataset


class Boom(RuntimeError):
    pass


class Exploding:
    def __array__(self, dtype=None, copy=None):
        raise Boom("mid-stream")


def small_params():
    return init_params(["t"], embed_dim=4, n_layers=1, head_hidden=4, seed=0)


def write_checkpoint_failing(path):
    params = small_params()
    arrays = list(params.named_arrays())
    params.named_arrays = lambda: [arrays[0], ("broken", Exploding()), *arrays[1:]]
    save_checkpoint(path, params, ["lower_is_better"], 0)


def write_csv_failing(path):
    ds, _ = synth_dataset(n_tasks=2, n_per_task=4, seed=0)
    short = SimpleNamespace(
        task_names=ds.task_names, hit_directions=ds.hit_directions,
        smiles=ds.smiles, labels=ds.labels[:2],
    )
    write_dataset_csv(path, short)


def _write_text(path, text):
    with atomic_write(path) as handle:
        handle.write(text)


def write_text_failing(path):
    with atomic_write(path) as handle:
        handle.write("partial")
        raise Boom("mid-stream")


def mode_of(path):
    return stat.S_IMODE(os.stat(path).st_mode)


@pytest.fixture
def umask_027():
    old = os.umask(0o027)
    try:
        yield
    finally:
        os.umask(old)


WRITERS = {
    "text": lambda path: _write_text(path, "a\nb\n"),
    "csv-lines": lambda path: write_csv(path, ["a", "b"], [["1", "2"]]),
    "dataset": lambda path: write_dataset_csv(path, synth_dataset(2, 4, 0)[0]),
    "checkpoint": lambda path: save_checkpoint(
        path, small_params(), ["lower_is_better"], 0
    ),
}


class TestFailedWrite:
    @pytest.mark.parametrize(
        "failing", [write_checkpoint_failing, write_csv_failing, write_text_failing],
        ids=["checkpoint", "dataset", "text"],
    )
    def test_existing_output_unchanged_and_no_temp(self, failing, tmp_path):
        out = tmp_path / "out"
        out.write_bytes(b"previous content\n")
        with pytest.raises((Boom, IndexError)):
            failing(out)
        assert out.read_bytes() == b"previous content\n"
        assert [p.name for p in tmp_path.iterdir()] == ["out"]

    def test_new_output_not_created(self, tmp_path):
        with pytest.raises(Boom):
            write_checkpoint_failing(tmp_path / "x.ckpt")
        assert list(tmp_path.iterdir()) == []

    def test_interrupt_removes_temp(self, tmp_path):
        with pytest.raises(KeyboardInterrupt):
            with atomic_write(tmp_path / "x", "wb") as handle:
                handle.write(b"x")
                raise KeyboardInterrupt
        assert list(tmp_path.iterdir()) == []


class TestSuccessfulWrite:
    @pytest.mark.parametrize("writer", WRITERS.values(), ids=WRITERS.keys())
    def test_new_file_mode_matches_open(self, writer, tmp_path, umask_027):
        with open(tmp_path / "reference", "w"):
            pass
        writer(tmp_path / "out")
        assert mode_of(tmp_path / "out") == mode_of(tmp_path / "reference") == 0o640

    @pytest.mark.parametrize("writer", WRITERS.values(), ids=WRITERS.keys())
    def test_replaced_file_keeps_its_mode(self, writer, tmp_path):
        out = tmp_path / "out"
        out.write_text("old")
        out.chmod(0o600)
        writer(out)
        assert mode_of(out) == 0o600
        assert out.read_bytes() != b"old"
        assert [p.name for p in tmp_path.iterdir()] == ["out"]

    def test_checkpoint_round_trips(self, tmp_path):
        params = small_params()
        save_checkpoint(tmp_path / "x.ckpt", params, ["lower_is_better"], 3)
        loaded = load_checkpoint(tmp_path / "x.ckpt").params
        for (name, a), (_, b) in zip(params.named_arrays(), loaded.named_arrays()):
            np.testing.assert_array_equal(a, b, err_msg=name)

    def test_symlink_target_is_replaced(self, tmp_path):
        (tmp_path / "real").write_text("old")
        (tmp_path / "link").symlink_to(tmp_path / "real")
        _write_text(tmp_path / "link", "new")
        assert (tmp_path / "link").is_symlink()
        assert (tmp_path / "real").read_text() == "new"


class TestCheckWritable:
    def test_leaves_no_file(self, tmp_path):
        check_writable(tmp_path / "x")
        assert list(tmp_path.iterdir()) == []

    def test_missing_directory_names_the_output(self, tmp_path):
        out = tmp_path / "missing" / "x.csv"
        with pytest.raises(FileNotFoundError) as info:
            check_writable(out)
        assert info.value.filename == str(out)

    def test_directory_rejected(self, tmp_path):
        with pytest.raises(IsADirectoryError):
            check_writable(tmp_path)
        with pytest.raises(IsADirectoryError):
            with atomic_write(tmp_path):
                pass


PACKAGE = Path(__file__).resolve().parent.parent / "src" / "molscreen"


def _non_atomic_writes(tree) -> list[int]:
    """Line numbers of calls that write a file without ``atomic_write``:
    built-in ``open`` in a mode other than a read-only one given as a
    literal, and ``write_text`` / ``write_bytes``."""
    lines = []
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        func = node.func
        if isinstance(func, ast.Attribute) and func.attr in ("write_text", "write_bytes"):
            lines.append(node.lineno)
        elif isinstance(func, ast.Name) and func.id == "open":
            modes = node.args[1:2] + [kw.value for kw in node.keywords if kw.arg == "mode"]
            for mode in modes:
                literal = isinstance(mode, ast.Constant) and isinstance(mode.value, str)
                if not literal or set(mode.value) & set("wax+"):
                    lines.append(node.lineno)
    return lines


class TestOnlyAtomicWrites:
    def test_package_writes_only_through_atomic_write(self):
        found = []
        for path in sorted(PACKAGE.rglob("*.py")):
            if path.name != "atomic.py":
                tree = ast.parse(path.read_text(encoding="utf-8"))
                found += [f"{path.name}:{line}" for line in _non_atomic_writes(tree)]
        assert found == []

    @pytest.mark.parametrize(
        "source",
        ['open(p, "w")', 'open(p, mode="a")', "open(p, m)", 'open(p, "r+")',
         'Path(p).write_text("x")', 'p.write_bytes(b"x")'],
    )
    def test_guard_sees_a_write(self, source):
        assert _non_atomic_writes(ast.parse(source)) == [1]

    @pytest.mark.parametrize("source", ["open(p)", 'open(p, "rb")', 'open(p, newline="")'])
    def test_guard_passes_a_read(self, source):
        assert _non_atomic_writes(ast.parse(source)) == []
