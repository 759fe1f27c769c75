"""Checkpoint format: JSON header + named float64 arrays, bit-exact."""

import hashlib
import importlib
import json
import math
import re
import struct
import sys
from pathlib import Path

import numpy as np
import pytest

from molscreen.checkpoint import (
    CheckpointError,
    ForeignSchemaError,
    load_checkpoint,
    save_checkpoint,
)
from molscreen.featurize import (
    ATOM_FEATURE_WIDTHS,
    BOND_FEATURE_WIDTHS,
    SCHEMA_HASH,
    featurize_smiles,
)
from molscreen.model import GraphBatch, init_params, predict
from molscreen.train import EpochRecord, TrainLog, summarize_log

sys.path.insert(0, str(Path(__file__).parent))
from helpers import backbone_named_parameters, traced_peak  # noqa: E402
from test_featurize import widths_hash  # noqa: E402

GOLDEN = Path(__file__).parent / "data" / "golden" / "model.ckpt"
model_module = importlib.import_module("molscreen.model")


def sample_params(seed=0):
    params = init_params(
        ["tgt", "aux"], embed_dim=8, n_layers=2, head_hidden=8, seed=seed
    )
    # move running statistics off their defaults so the test notices if they
    # were dropped
    params.state["layer.0.bn_running_mean"][:] = np.linspace(0, 1, 8)
    params.state["layer.1.bn_running_var"][:] = np.linspace(1, 2, 8)
    return params


def sample_log():
    return TrainLog(
        epochs=[EpochRecord(1, 0.5, 0.6), EpochRecord(2, 0.4, 0.55)],
        best_epoch=2,
        best_val_loss=0.55,
        stop_epoch=2,
        stop_reason="max_epochs",
    )


class TestRoundTrip:
    def test_all_arrays_bit_exact(self, tmp_path):
        params = sample_params()
        path = tmp_path / "model.ckpt"
        save_checkpoint(
            path, params, ["lower_is_better", "higher_is_better"], seed=7
        )
        ckpt = load_checkpoint(path)
        loaded = ckpt.params
        for (name, a), (name_b, b) in zip(
            params.named_parameters(), loaded.named_parameters()
        ):
            assert name == name_b
            assert a.data.dtype == b.data.dtype == np.float64
            np.testing.assert_array_equal(a.data, b.data)
        for (name, a), (name_b, b) in zip(params.state.items(), loaded.state.items()):
            assert name == name_b
            np.testing.assert_array_equal(a, b)

    def test_save_is_deterministic(self, tmp_path):
        params = sample_params()
        p1, p2 = tmp_path / "a.ckpt", tmp_path / "b.ckpt"
        save_checkpoint(p1, params, ["lower_is_better"] * 2, seed=7)
        save_checkpoint(p2, params, ["lower_is_better"] * 2, seed=7)
        assert p1.read_bytes() == p2.read_bytes()

    def test_save_load_save_bytes_identical(self, tmp_path):
        params = sample_params()
        p1, p2 = tmp_path / "a.ckpt", tmp_path / "b.ckpt"
        save_checkpoint(p1, params, ["lower_is_better"] * 2, seed=7)
        ckpt = load_checkpoint(p1)
        save_checkpoint(p2, ckpt.params, ckpt.hit_directions, seed=ckpt.seed,
                        log_summary=ckpt.log_summary)
        assert p1.read_bytes() == p2.read_bytes()

    def test_predictions_survive_round_trip(self, tmp_path):
        params = sample_params()
        path = tmp_path / "model.ckpt"
        save_checkpoint(path, params, ["lower_is_better"] * 2, seed=0)
        loaded = load_checkpoint(path).params
        batch = GraphBatch.from_graphs(
            [featurize_smiles(s) for s in ["CCO", "c1ccccc1"]]
        )
        np.testing.assert_array_equal(
            predict(batch, params), predict(batch, loaded)
        )

    def test_header_metadata(self, tmp_path):
        params = sample_params()
        path = tmp_path / "model.ckpt"
        log = sample_log()
        save_checkpoint(
            path,
            params,
            ["lower_is_better", "higher_is_better"],
            seed=123,
            log_summary=summarize_log(log),
        )
        ckpt = load_checkpoint(path)
        assert ckpt.params.task_names == ["tgt", "aux"]
        assert ckpt.hit_directions == ["lower_is_better", "higher_is_better"]
        assert ckpt.seed == 123
        header, _ = _split(path)
        assert header["atom_widths"] == list(ATOM_FEATURE_WIDTHS)
        assert header["bond_widths"] == list(BOND_FEATURE_WIDTHS)
        assert header["schema_hash"] == SCHEMA_HASH
        assert ckpt.params.embed_dim == 8
        assert ckpt.params.n_layers == 2
        assert ckpt.log_summary["best_epoch"] == 2
        assert ckpt.log_summary["stop_reason"] == "max_epochs"
        assert ckpt.log_summary["n_epochs"] == 2


class TestValidation:
    def test_truncated_file_rejected(self, tmp_path):
        params = sample_params()
        path = tmp_path / "model.ckpt"
        save_checkpoint(path, params, ["lower_is_better"] * 2, seed=0)
        blob = path.read_bytes()
        path.write_bytes(blob[: len(blob) - 16])
        with pytest.raises(CheckpointError):
            load_checkpoint(path)

    def test_refusal_starts_with_the_path(self, tmp_path):
        path = tmp_path / "model.ckpt"
        save_checkpoint(path, sample_params(), ["lower_is_better"] * 2, seed=0)
        path.write_bytes(path.read_bytes()[:-16])
        with pytest.raises(CheckpointError, match="^" + re.escape(f"{path}: ")):
            load_checkpoint(path)

    def test_numpy_integer_dimensions_round_trip(self, tmp_path):
        # every model init_params builds saves and loads again
        params = init_params(
            ["a"], embed_dim=np.int64(4), n_layers=np.int32(1), head_hidden=np.int64(4),
            dropout=0,
        )
        save_checkpoint(tmp_path / "m.ckpt", params, ["lower_is_better"], seed=0)
        loaded = load_checkpoint(tmp_path / "m.ckpt").params
        dims = (loaded.embed_dim, loaded.n_layers, loaded.head_hidden, loaded.dropout)
        assert dims == (4, 1, 4, 0)

    def test_bad_magic_rejected(self, tmp_path):
        path = tmp_path / "model.ckpt"
        path.write_bytes(b"NOPE" + b"\x00" * 64)
        with pytest.raises(CheckpointError):
            load_checkpoint(path)

    def test_unknown_version_rejected(self, tmp_path):
        params = sample_params()
        path = tmp_path / "model.ckpt"
        save_checkpoint(path, params, ["lower_is_better"] * 2, seed=0)
        blob = bytearray(path.read_bytes())
        blob[4:8] = (99).to_bytes(4, "little")
        path.write_bytes(bytes(blob))
        with pytest.raises(CheckpointError):
            load_checkpoint(path)

    def test_direction_count_must_match_tasks(self, tmp_path):
        params = sample_params()
        with pytest.raises(ValueError):
            save_checkpoint(
                tmp_path / "x.ckpt", params, ["lower_is_better"], seed=0
            )

    def test_missing_file(self, tmp_path):
        with pytest.raises(CheckpointError):
            load_checkpoint(tmp_path / "absent.ckpt")

    def test_repeated_task_names_not_saved(self, tmp_path):
        # each head must be reachable by its task's name
        params = init_params(["a", "b", "a", "b", "c"], embed_dim=4, n_layers=1, head_hidden=4)
        with pytest.raises(ValueError, match=re.escape("task names repeat: ['a', 'b']")):
            save_checkpoint(tmp_path / "x.ckpt", params, ["lower_is_better"] * 5, seed=0)
        assert list(tmp_path.iterdir()) == []

    def test_repeated_task_names_not_loaded(self, tmp_path):
        header, arrays = _split_golden()
        header["task_names"] = ["task0", "task0"]
        path = _with_header(tmp_path / "m.ckpt", header, arrays)
        with pytest.raises(CheckpointError, match=re.escape("task names repeat: ['task0']")):
            load_checkpoint(path)


def _split(path):
    """A checkpoint file as (parsed JSON header, array section bytes)."""
    blob = path.read_bytes()
    (length,) = struct.unpack("<Q", blob[8:16])
    return json.loads(blob[16 : 16 + length]), blob[16 + length :]


def _split_golden():
    return _split(GOLDEN)


def _with_header(path, header_value, arrays: bytes):
    """Write the golden arrays behind an arbitrary JSON header value."""
    header = json.dumps(header_value, sort_keys=True).encode()
    path.write_bytes(
        GOLDEN.read_bytes()[:8] + struct.pack("<Q", len(header)) + header + arrays
    )
    return path


def _block_offsets(path):
    """Every array block of the checkpoint at ``path``, parsed straight from
    the bytes: name -> (file offset of its first value, shape)."""
    header, section = _split(path)
    start = path.stat().st_size - len(section)
    blocks, pos = {}, 0
    for name in header["arrays"]:
        (ndim,) = struct.unpack("<I", section[pos : pos + 4])
        shape = struct.unpack(f"<{ndim}Q", section[pos + 4 : pos + 4 + 8 * ndim])
        pos += 4 + 8 * ndim
        blocks[name] = (start + pos, shape)
        pos += 8 * int(np.prod(shape, dtype=np.int64))
    assert pos == len(section)
    return blocks


def _golden_arrays():
    """Every array of the golden checkpoint, read straight from the bytes
    by name."""
    blob = GOLDEN.read_bytes()
    return {
        name: np.frombuffer(
            blob, "<f8", count=int(np.prod(shape, dtype=np.int64)), offset=offset
        ).reshape(shape)
        for name, (offset, shape) in _block_offsets(GOLDEN).items()
    }


def _patch_values(path, values):
    """Overwrite values in the checkpoint file at ``path`` byte by byte:
    ``values`` maps (array name, flat index) to the float64 to write."""
    blob = bytearray(path.read_bytes())
    blocks = _block_offsets(path)
    for (name, index), value in values.items():
        offset = blocks[name][0] + 8 * index
        blob[offset : offset + 8] = struct.pack("<d", value)
    path.write_bytes(bytes(blob))


class TestLoadDrawsNothing:
    def test_golden_loads_bit_for_bit_with_streams_disabled(self, monkeypatch):
        def no_draws(*path):
            raise AssertionError(f"stream {path} requested")

        monkeypatch.setattr(model_module, "rng_stream", no_draws)
        params = load_checkpoint(GOLDEN).params
        want = _golden_arrays()
        got = [(n, t.data) for n, t in params.named_parameters()]
        got += list(params.state.items())
        assert [n for n, _ in got] == list(want)
        for name, arr in got:
            assert arr.dtype == np.float64 and arr.flags.writeable, name
            np.testing.assert_array_equal(
                arr.view(np.int64), want[name].astype(np.float64).view(np.int64), err_msg=name)


def _blocks(arrays) -> bytes:
    """An array section holding ``arrays`` (name -> array) in their order."""
    out = []
    for arr in arrays.values():
        out.append(struct.pack("<I", arr.ndim) + struct.pack(f"<{arr.ndim}Q", *arr.shape))
        out.append(np.ascontiguousarray(arr, dtype="<f8").tobytes())
    return b"".join(out)


class TestLayoutCheck:
    def test_named_arrays_walk_the_golden_header_order(self):
        header, _ = _split_golden()
        params = init_params(
            header["task_names"], embed_dim=header["embed_dim"],
            n_layers=header["n_layers"], head_hidden=header["head_hidden"],
        )
        assert [name for name, _ in params.named_arrays()] == header["arrays"]

    def test_blocks_helper_rebuilds_the_golden_section(self):
        _, section = _split_golden()
        assert _blocks(_golden_arrays()) == section

    def test_renamed_array_rejected(self, tmp_path):
        header, arrays = _split_golden()
        header["arrays"][3] = "node_table.99"
        with pytest.raises(CheckpointError, match="do not match the model layout"):
            load_checkpoint(_with_header(tmp_path / "m.ckpt", header, arrays))

    def test_changed_dimension_rejected(self, tmp_path):
        header, _ = _split_golden()
        arrays = _golden_arrays()
        want = arrays["layer.1.w2"].shape
        arrays["layer.1.w2"] = arrays["layer.1.w2"].reshape(want[::-1])
        assert want[0] != want[1]
        path = _with_header(tmp_path / "m.ckpt", header, _blocks(arrays))
        message = f"array layer.1.w2: shape {want[::-1]}, expected {want}"
        with pytest.raises(CheckpointError, match=re.escape(message)):
            load_checkpoint(path)


class TestNonFiniteArrays:
    """A NaN or infinite value makes a checkpoint corrupt; the error names
    the first array, in file order, that holds one."""

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_first_non_finite_array_named(self, tmp_path, value):
        path = tmp_path / "m.ckpt"
        save_checkpoint(path, sample_params(), ["lower_is_better"] * 2, seed=7)
        # the running variance comes later in the file
        _patch_values(path, {("head.0.b2", 0): value, ("layer.1.bn_running_var", 3): value})
        message = "array head.0.b2: holds a NaN or infinite value"
        with pytest.raises(CheckpointError, match=re.escape(message)):
            load_checkpoint(path)

    def test_running_statistic_checked_too(self, tmp_path):
        path = tmp_path / "m.ckpt"
        save_checkpoint(path, sample_params(), ["lower_is_better"] * 2, seed=7)
        _patch_values(path, {("layer.0.bn_running_mean", 1): np.inf})
        with pytest.raises(CheckpointError, match="array layer.0.bn_running_mean:"):
            load_checkpoint(path)


class TestSaveRefusesNonFinite:
    """save_checkpoint refuses what load_checkpoint would refuse: a
    ValueError naming the first non-finite array, raised before any file is
    created, so an existing file at the path stays as it was."""

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_first_non_finite_array_named(self, tmp_path, value):
        params = sample_params()
        params.tensors["head.0.b2"].data[0] = value
        params.state["layer.1.bn_running_var"][3] = value  # later in the file
        message = "array head.0.b2: holds a NaN or infinite value"
        with pytest.raises(ValueError, match=re.escape(message)):
            save_checkpoint(tmp_path / "m.ckpt", params, ["lower_is_better"] * 2, seed=7)
        assert list(tmp_path.iterdir()) == []

    def test_existing_file_untouched(self, tmp_path):
        path = tmp_path / "m.ckpt"
        save_checkpoint(path, sample_params(), ["lower_is_better"] * 2, seed=7)
        before = path.read_bytes()
        params = sample_params(seed=1)
        params.state["layer.0.bn_running_mean"][1] = np.inf
        with pytest.raises(ValueError, match="array layer.0.bn_running_mean:"):
            save_checkpoint(path, params, ["lower_is_better"] * 2, seed=7)
        assert path.read_bytes() == before
        assert [p.name for p in tmp_path.iterdir()] == ["m.ckpt"]


class TestBackboneHash:
    def test_golden_digest_equals_tobytes_formula(self):
        params = load_checkpoint(GOLDEN).params
        digest = hashlib.sha256()
        for name, p in backbone_named_parameters(params):
            digest.update(name.encode())
            digest.update(np.ascontiguousarray(p.data).tobytes())
        for name, arr in params.state.items():
            digest.update(name.encode())
            digest.update(np.ascontiguousarray(arr).tobytes())
        assert params.backbone_hash() == digest.hexdigest()


class TestHeaderValidation:
    def test_golden_header_loads(self, tmp_path):
        header, arrays = _split_golden()
        ckpt = load_checkpoint(_with_header(tmp_path / "m.ckpt", header, arrays))
        assert ckpt.seed == header["seed"]

    def test_missing_key_rejected(self, tmp_path):
        header, arrays = _split_golden()
        del header["seed"]
        with pytest.raises(CheckpointError, match="seed"):
            load_checkpoint(_with_header(tmp_path / "m.ckpt", header, arrays))

    def test_non_object_header_rejected(self, tmp_path):
        header, arrays = _split_golden()
        with pytest.raises(CheckpointError, match="not a JSON object"):
            load_checkpoint(_with_header(tmp_path / "m.ckpt", list(header), arrays))

    @pytest.mark.parametrize(
        "key,value",
        [
            ("embed_dim", -1),
            ("embed_dim", 0),
            ("n_layers", 2.0),
            ("head_hidden", True),
            ("dropout", 1.0),
            ("dropout", -0.1),
            ("seed", "20"),
            ("task_names", "task0"),
            ("hit_directions", ["lower_is_better"]),
            ("hit_directions", ["lower_is_better", "sideways"]),
            ("atom_widths", [119, -16]),
            ("log_summary", [1]),
        ],
    )
    def test_bad_value_rejected(self, tmp_path, key, value):
        header, arrays = _split_golden()
        header[key] = value
        with pytest.raises(CheckpointError):
            load_checkpoint(_with_header(tmp_path / "m.ckpt", header, arrays))

    def test_byte_fuzz_over_header_only_raises_checkpoint_error(self, tmp_path):
        blob = GOLDEN.read_bytes()
        (length,) = struct.unpack("<Q", blob[8:16])
        variants = []
        for i in range(16 + length):
            for mask in (0x01, 0x04, 0x20, 0x80):
                flipped = bytearray(blob)
                flipped[i] ^= mask
                variants.append(bytes(flipped))
            variants.append(blob[:i])
        path = tmp_path / "fuzzed.ckpt"
        loaded = 0
        for variant in variants:
            path.write_bytes(variant)
            try:
                load_checkpoint(path)
                loaded += 1
            except CheckpointError:
                pass
        # some flips (a digit of a loss, a letter of a task name) are harmless
        assert 0 < loaded < len(variants)


class TestForeignSchema:
    def test_golden_header_holds_the_build_widths_and_hash(self):
        header, _ = _split_golden()
        assert header["atom_widths"] == list(ATOM_FEATURE_WIDTHS)
        assert header["bond_widths"] == list(BOND_FEATURE_WIDTHS)
        assert header["schema_hash"] == SCHEMA_HASH
        assert SCHEMA_HASH == widths_hash(header["atom_widths"], header["bond_widths"])

    @pytest.mark.parametrize(
        "atom_widths,bond_widths",
        [
            (list(ATOM_FEATURE_WIDTHS), [7, 4, 3]),
            (list(ATOM_FEATURE_WIDTHS)[:-1], list(BOND_FEATURE_WIDTHS)),
            (list(ATOM_FEATURE_WIDTHS[:-1]) + [6], list(BOND_FEATURE_WIDTHS)),
        ],
    )
    def test_foreign_widths_are_a_typed_checkpoint_error(
        self, tmp_path, atom_widths, bond_widths
    ):
        header, arrays = _split_golden()
        header["atom_widths"], header["bond_widths"] = atom_widths, bond_widths
        header["schema_hash"] = widths_hash(atom_widths, bond_widths)
        path = _with_header(tmp_path / "foreign.ckpt", header, arrays)
        message = (
            f"{path}: checkpoint feature schema {header['schema_hash'][:12]}… does not "
            f"match this build's schema {SCHEMA_HASH[:12]}…"
        )
        with pytest.raises(ForeignSchemaError, match=re.escape(message)) as info:
            load_checkpoint(path)
        assert isinstance(info.value, CheckpointError)

    def test_hash_disagreeing_with_build_widths_is_a_plain_checkpoint_error(
        self, tmp_path
    ):
        header, arrays = _split_golden()
        header["schema_hash"] = widths_hash(list(ATOM_FEATURE_WIDTHS), [7, 4, 3])
        path = _with_header(tmp_path / "m.ckpt", header, arrays)
        with pytest.raises(CheckpointError, match="schema hash") as info:
            load_checkpoint(path)
        assert not isinstance(info.value, ForeignSchemaError)


class TestHeaderDimensions:
    """The header's dimensions are checked against the arrays read while
    the model's table is walked, so no layout is built from them."""

    # the golden model: embed_dim 8, n_layers 2, head_hidden 8; each wrong
    # dimension and the first array of the file that differs under it
    FIRST_DIFFERENCE = {
        ("embed_dim", 9): "node_table.0",
        ("embed_dim", 10**12): "node_table.0",
        ("n_layers", 1): "layer.1.edge_table.0",
        ("n_layers", 3): "layer.2.edge_table.0",
        ("n_layers", 10**9): "layer.2.edge_table.0",
        ("head_hidden", 16): "head.0.w1",
    }

    @pytest.mark.parametrize("key,value", list(FIRST_DIFFERENCE))
    def test_dimension_unlike_the_arrays_rejected(self, tmp_path, key, value):
        first = self.FIRST_DIFFERENCE[key, value]
        header, arrays = _split_golden()
        assert header[key] != value
        header[key] = value
        path = _with_header(tmp_path / "m.ckpt", header, arrays)
        dims = ", ".join(f"{k}={header[k]}" for k in ("embed_dim", "n_layers", "head_hidden"))
        message = re.escape(f"model layout of {dims}: ") + ".*" + re.escape(f"array {first}")

        def load_fails():
            with pytest.raises(CheckpointError, match=message):
                load_checkpoint(path)

        _, peak, _ = traced_peak(load_fails)
        # the walk stops at the first array that differs: a 10**9-layer
        # header builds no row past layer 2
        assert peak < 2**22 * 8 // 16

    @pytest.mark.parametrize("dims", [(2**32, 2**32), (2**63, 2), (2**64 - 1, 1)])
    def test_corrupt_array_dimensions_rejected(self, tmp_path, dims):
        # the product of the first block's dimensions does not fit in an int64
        header, section = _split_golden()
        (ndim,) = struct.unpack("<I", section[:4])
        assert ndim == 2
        blocks = struct.pack("<I2Q", 2, *dims) + section[4 + 16 :]
        path = _with_header(tmp_path / "m.ckpt", header, blocks)
        with pytest.raises(CheckpointError, match="truncated"):
            load_checkpoint(path)

    def test_huge_embed_dim_allocates_no_layout(self, tmp_path):
        header, arrays = _split_golden()
        header["embed_dim"] = 2**22
        path = _with_header(tmp_path / "m.ckpt", header, arrays)

        def load_fails():
            with pytest.raises(CheckpointError):
                load_checkpoint(path)

        _, peak, _ = traced_peak(load_fails)
        # one float64 array of 2**22 values is 32 MiB
        assert peak < 2**22 * 8 // 16


class TestArrayBlockFuzz:
    """Corrupt array blocks are refused as ``CheckpointError``, whatever
    numpy makes of the dimensions they claim."""

    MASKS = (0x01, 0x02, 0x80, 0xFF)

    def test_flipped_rank_byte_names_the_array(self, tmp_path):
        # rank 2 becomes 253, and the dimensions read from the values after
        # it include a 0, so the block holds no bytes and reads as complete
        blob = bytearray(GOLDEN.read_bytes())
        offset, shape = _block_offsets(GOLDEN)["layer.0.edge_table.1"]
        blob[offset - 4 - 8 * len(shape)] ^= 0xFF
        path = tmp_path / "m.ckpt"
        path.write_bytes(bytes(blob))
        message = "^" + re.escape(f"{path}: array layer.0.edge_table.1: ")
        with pytest.raises(CheckpointError, match=message):
            load_checkpoint(path)

    def test_flips_and_truncations_load_or_raise_checkpoint_error(self, tmp_path):
        blob = GOLDEN.read_bytes()
        blocks = _block_offsets(GOLDEN).values()
        starts = [offset - 4 - 8 * len(shape) for offset, shape in blocks]
        headers = [i for start, (offset, _) in zip(starts, blocks) for i in range(start, offset)]
        values = [
            i for offset, shape in blocks for i in range(offset, offset + 8 * math.prod(shape))
        ]
        rng = np.random.default_rng(0)
        flips = headers + rng.choice(values, size=64, replace=False).tolist()
        variants = [blob[:i] for i in starts + [start + 4 for start in starts]]
        for i in flips:
            for mask in self.MASKS:
                flipped = bytearray(blob)
                flipped[i] ^= mask
                variants.append(bytes(flipped))
        path = tmp_path / "fuzzed.ckpt"
        loaded = 0
        for variant in variants:
            path.write_bytes(variant)
            try:
                load_checkpoint(path)
                loaded += 1
            except CheckpointError:
                pass
        # a flipped value bit mostly leaves a finite value, which loads
        assert 0 < loaded < len(variants)
