"""Checkpoint format: JSON header + named float64 arrays, bit-exact."""

import hashlib
import json
import struct
from pathlib import Path

import numpy as np
import pytest

from molscreen.checkpoint import (
    CheckpointError,
    load_checkpoint,
    save_checkpoint,
)
from molscreen.featurize import featurize_smiles
from molscreen.model import GraphBatch, init_params, predict
from molscreen.train import EpochRecord, TrainLog, summarize_log

GOLDEN = Path(__file__).parent / "data" / "golden" / "model.ckpt"


def sample_params(seed=0):
    params = init_params(
        ["tgt", "aux"], embed_dim=8, n_layers=2, head_hidden=8, seed=seed
    )
    # move running statistics off their defaults so the test notices if they
    # were dropped
    params.layers[0].bn_state.running_mean[:] = np.linspace(0, 1, 8)
    params.layers[1].bn_state.running_var[:] = np.linspace(1, 2, 8)
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
        for (name, a), (_, b) in zip(
            params.named_state_arrays(), loaded.named_state_arrays()
        ):
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
        assert ckpt.schema_hash == params.schema.schema_hash()
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


def _split_golden():
    """The golden checkpoint as (parsed JSON header, array section bytes)."""
    blob = GOLDEN.read_bytes()
    (length,) = struct.unpack("<Q", blob[8:16])
    return json.loads(blob[16 : 16 + length]), blob[16 + length :]


def _with_header(path, header_value, arrays: bytes):
    """Write the golden arrays behind an arbitrary JSON header value."""
    header = json.dumps(header_value, sort_keys=True).encode()
    path.write_bytes(
        GOLDEN.read_bytes()[:8] + struct.pack("<Q", len(header)) + header + arrays
    )
    return path


class TestBackboneHash:
    def test_golden_digest_equals_tobytes_formula(self):
        params = load_checkpoint(GOLDEN).params
        digest = hashlib.sha256()
        for name, p in params.backbone_named_parameters():
            digest.update(name.encode())
            digest.update(np.ascontiguousarray(p.data).tobytes())
        for name, arr in params.named_state_arrays():
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
