"""Binary model checkpoints.

File layout: 4-byte magic, little-endian uint32 format version, uint64 header
length, UTF-8 JSON header, then one block per array of the model's table
(``model._layout``), in its order, which ``ModelParams.named_arrays()``
walks.  Each block is a uint32 rank, that many uint64 dimensions, and the
raw float64 values, all little-endian.  Loading checks the header against
this build's feature widths, reads every block (refusing NaN or infinite
values), then hands the arrays to ``model.from_arrays``, which checks the
header's dimensions, then each name and shape against the table that they
give, and keeps the arrays bit for bit.  Every refusal names the file.
"""

from __future__ import annotations

import json
import math
import struct
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .atomic import atomic_write
from .data import _is_int, _is_list_of, check_tasks
from .featurize import ATOM_FEATURE_WIDTHS, BOND_FEATURE_WIDTHS, SCHEMA_HASH
from .model import ModelParams, from_arrays

MAGIC = b"MSCK"
FORMAT_VERSION = 1


class CheckpointError(RuntimeError):
    """The file is not a readable checkpoint of a supported version."""


class ForeignSchemaError(CheckpointError):
    """The checkpoint was made for feature widths other than this build's."""


@dataclass
class Checkpoint:
    params: ModelParams
    hit_directions: list[str]
    seed: int
    log_summary: dict | None


def save_checkpoint(
    path,
    params: ModelParams,
    hit_directions: list[str],
    seed: int,
    log_summary: dict | None = None,
) -> None:
    check_tasks(params.task_names, hit_directions)
    arrays = list(params.named_arrays())
    for name, arr in arrays:
        if not np.isfinite(arr).all():
            raise ValueError(f"array {name}: holds a NaN or infinite value")
    header = {
        "format_version": FORMAT_VERSION,
        "embed_dim": params.embed_dim,
        "n_layers": params.n_layers,
        "head_hidden": params.head_hidden,
        "dropout": params.dropout,
        "task_names": list(params.task_names),
        "hit_directions": list(hit_directions),
        "atom_widths": list(ATOM_FEATURE_WIDTHS),
        "bond_widths": list(BOND_FEATURE_WIDTHS),
        "schema_hash": SCHEMA_HASH,
        "seed": seed,
        "log_summary": log_summary,
        "arrays": [name for name, _ in arrays],
    }
    header_bytes = json.dumps(header, sort_keys=True).encode()
    with atomic_write(path, "wb") as handle:
        handle.write(MAGIC + struct.pack("<IQ", FORMAT_VERSION, len(header_bytes)))
        handle.write(header_bytes)
        for _, arr in arrays:
            arr = np.ascontiguousarray(arr, dtype="<f8")
            handle.write(struct.pack(f"<I{arr.ndim}Q", arr.ndim, *arr.shape))
            handle.write(arr.data)


_HEADER_KEYS = (
    "format_version", "embed_dim", "n_layers", "head_hidden", "dropout",
    "task_names", "hit_directions", "atom_widths", "bond_widths",
    "schema_hash", "seed", "log_summary", "arrays",
)


def _check_header(header, version: int) -> None:
    """Reject a header that the loader cannot use; ``from_arrays`` checks
    the model's dimensions."""
    if not isinstance(header, dict):
        raise CheckpointError("checkpoint header is not a JSON object")
    missing = [key for key in _HEADER_KEYS if key not in header]
    if missing:
        raise CheckpointError(f"checkpoint header lacks {missing}")
    if header["format_version"] != version:
        raise CheckpointError("header format_version differs from the file's")
    if not _is_int(header["seed"]):
        raise CheckpointError(f"seed must be an integer, got {header['seed']!r}")
    for key in ("task_names", "hit_directions", "arrays"):
        if not _is_list_of(header[key], lambda v: isinstance(v, str)):
            raise CheckpointError(f"{key} must be a list of strings")
    for key in ("atom_widths", "bond_widths"):
        if not _is_list_of(header[key], lambda v: _is_int(v) and v >= 1):
            raise CheckpointError(f"{key} must be a list of positive integers")
    check_tasks(header["task_names"], header["hit_directions"])
    if not isinstance(header["schema_hash"], str):
        raise CheckpointError("schema_hash must be a string")
    if header["log_summary"] is not None and not isinstance(header["log_summary"], dict):
        raise CheckpointError("log_summary must be an object or null")


class _Reader:
    """Consecutive slices of the file's bytes, as views that copy nothing."""

    def __init__(self, blob: bytes):
        self.blob = memoryview(blob)
        self.pos = 0

    def take(self, n: int) -> memoryview:
        if self.pos + n > len(self.blob):
            raise CheckpointError("checkpoint file is truncated")
        out = self.blob[self.pos : self.pos + n]
        self.pos += n
        return out


def load_checkpoint(path) -> Checkpoint:
    """The checkpoint in the file at ``path``.  Every refusal is a
    ``CheckpointError`` (a ``ForeignSchemaError`` for feature widths other
    than this build's) whose message starts with ``path``."""
    try:
        return _read_checkpoint(Path(path))
    except ForeignSchemaError as exc:
        raise ForeignSchemaError(f"{path}: {exc}") from exc
    except (OSError, ValueError, CheckpointError) as exc:  # ValueError: from_arrays, check_tasks
        raise CheckpointError(f"{path}: {exc}") from exc


def _read_checkpoint(path: Path) -> Checkpoint:
    if not path.exists():
        raise CheckpointError("no such checkpoint")
    reader = _Reader(path.read_bytes())
    if reader.take(4) != MAGIC:
        raise CheckpointError("not a checkpoint file (bad magic)")
    (version,) = struct.unpack("<I", reader.take(4))
    if version != FORMAT_VERSION:
        raise CheckpointError(f"unsupported checkpoint version {version}")
    (header_len,) = struct.unpack("<Q", reader.take(8))
    try:
        header = json.loads(bytes(reader.take(header_len)).decode())
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise CheckpointError(f"unreadable checkpoint header: {exc}") from exc
    _check_header(header, version)
    widths = (header["atom_widths"], header["bond_widths"])
    if widths != (list(ATOM_FEATURE_WIDTHS), list(BOND_FEATURE_WIDTHS)):
        raise ForeignSchemaError(
            f"checkpoint feature schema {header['schema_hash'][:12]}… does not "
            f"match this build's schema {SCHEMA_HASH[:12]}…"
        )
    if header["schema_hash"] != SCHEMA_HASH:
        raise CheckpointError("schema hash does not match schema widths")
    loaded: dict[str, np.ndarray] = {}
    for name in header["arrays"]:
        (ndim,) = struct.unpack("<I", reader.take(4))
        shape = struct.unpack(f"<{ndim}Q", reader.take(8 * ndim))
        count = math.prod(shape)  # exact, so corrupt dimensions read past the end
        data = np.frombuffer(reader.take(8 * count), dtype="<f8")
        if not np.isfinite(data).all():
            raise CheckpointError(f"array {name}: holds a NaN or infinite value")
        try:  # astype makes the one copy, so each array is fresh and writable
            loaded[name] = data.reshape(shape).astype(np.float64)
        except ValueError as exc:  # an empty block's dimensions past numpy's limits
            raise CheckpointError(f"array {name}: unreadable shape ({exc})") from exc
    if reader.pos != len(reader.blob):
        raise CheckpointError("trailing bytes after final array")
    params = from_arrays(
        header["task_names"], header["embed_dim"], header["n_layers"],
        header["head_hidden"], header["dropout"], loaded,
    )
    return Checkpoint(
        params=params,
        hit_directions=list(header["hit_directions"]),
        seed=header["seed"],
        log_summary=header["log_summary"],
    )
