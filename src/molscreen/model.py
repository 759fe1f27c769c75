"""Shared graph encoder with per-task regression heads.

The encoder embeds categorical atom features into node states, runs a stack
of message-passing layers (neighbor + edge-state + learnable self-loop sums
through a two-layer perceptron with batch norm), and mean-pools node states
into one embedding per molecule.  Each task owns a small two-layer head over
that shared embedding.

``_layout`` is the model's one table: every array's name, part (backbone,
head or running statistics), shape and initial value, in checkpoint order.
``ModelParams`` holds the arrays in two dicts filled by walking it, and the
forward looks its tensors up by name.  ``init_params`` draws from the
table, ``from_arrays`` checks given arrays against it (loading, copying and
transfer build their models through it), and the memory check sizes it.
"""

from __future__ import annotations

import hashlib
import itertools
import math
import os
from dataclasses import dataclass

import numpy as np

from .engine import Tape, Tensor, ops, rng_stream
from .featurize import ATOM_FEATURE_WIDTHS, BOND_FEATURE_WIDTHS, FeaturizedGraph

_EMBED_STD = 0.02
INFERENCE_BATCH = 256  # graphs packed per eval-mode forward, a memory bound: no bit depends on it


def _int_rows(lists: list[list[int]], n_rows: int, width: int) -> np.ndarray:
    """The graphs' integer lists back to back, as one (n_rows, width) int64 array."""
    flat = np.fromiter(itertools.chain.from_iterable(lists), np.int64, n_rows * width)
    return flat.reshape(n_rows, width)


@dataclass
class GraphBatch:
    """Several featurized graphs packed into flat arrays.

    Directed edges appear once per bond direction, sorted (stably) by
    destination node.  The whole batch is packed at once: every bond's
    forward direction, then every reverse one, then the sort.  A node's
    incoming edges all come from its own graph, so this is the order that
    packing graph by graph gives, and the order in which each segment sum
    folds its terms, forward and backward alike.  The three slot layouts
    are built once per batch and serve every layer: neighbor states and
    bond states summed into each destination node, and node states pooled
    per graph.
    """

    atom_indices: np.ndarray  # (n_nodes, len(ATOM_FEATURE_WIDTHS))
    bond_indices: np.ndarray  # (n_bonds, len(BOND_FEATURE_WIDTHS))
    neighbor_layout: ops.SegmentLayout  # source node states summed by destination
    bond_layout: ops.SegmentLayout  # bond states summed by destination node
    pool_layout: ops.SegmentLayout  # node states summed by graph

    @classmethod
    def from_graphs(cls, graphs: list[FeaturizedGraph]) -> "GraphBatch":
        if not graphs:
            raise ValueError("batch needs at least one graph")
        if any(g.n_atoms == 0 for g in graphs):
            raise ValueError("graphs must have at least one atom")
        node_counts = np.array([g.n_atoms for g in graphs], dtype=np.int64)
        bond_counts = np.array([g.n_bonds for g in graphs], dtype=np.int64)
        n_nodes = int(node_counts.sum())
        n_bonds = int(bond_counts.sum())
        atom_columns, bond_columns = len(ATOM_FEATURE_WIDTHS), len(BOND_FEATURE_WIDTHS)
        graph_ids = np.repeat(np.arange(len(graphs), dtype=np.int64), node_counts)
        ends = _int_rows([g.endpoint_values for g in graphs], n_bonds, 2) + np.repeat(
            np.cumsum(node_counts) - node_counts, bond_counts
        )[:, None]
        edge_src = np.concatenate([ends[:, 0], ends[:, 1]])
        edge_dst = np.concatenate([ends[:, 1], ends[:, 0]])
        edge_bond = np.tile(np.arange(n_bonds, dtype=np.int64), 2)
        order = np.argsort(edge_dst, kind="stable")
        edge_src, edge_dst, edge_bond = edge_src[order], edge_dst[order], edge_bond[order]
        return cls(
            atom_indices=_int_rows([g.atom_values for g in graphs], n_nodes, atom_columns),
            bond_indices=_int_rows([g.bond_values for g in graphs], n_bonds, bond_columns),
            neighbor_layout=ops.SegmentLayout(
                edge_dst, n_nodes, rows=edge_src, num_rows=n_nodes
            ),
            bond_layout=ops.SegmentLayout(
                edge_dst, n_nodes, rows=edge_bond, num_rows=n_bonds
            ),
            pool_layout=ops.SegmentLayout(graph_ids, len(graphs)),
        )


@dataclass
class ModelParams:
    """The model's dimensions and its arrays by name, as ``_layout`` lists
    them: the trainable tensors (backbone, then heads) and the batch-norm
    running statistics, each dict in checkpoint order."""

    embed_dim: int
    n_layers: int
    head_hidden: int
    dropout: float
    task_names: list[str]
    tensors: dict[str, Tensor]
    state: dict[str, np.ndarray]

    def named_parameters(self):
        """Every trainable tensor by name, in checkpoint order."""
        return self.tensors.items()

    def head_names(self) -> list[str]:
        """The names of the task heads' tensors, in checkpoint order."""
        rows = _layout(len(self.task_names), self.embed_dim, self.n_layers, self.head_hidden)
        return [name for part, name, _, _ in rows if part == "head"]

    def named_arrays(self):
        """Every array of the model by name, in checkpoint order: each
        tensor's data, then the batch-norm running statistics."""
        for name, t in self.tensors.items():
            yield name, t.data
        yield from self.state.items()

    def named_backbone_arrays(self):
        """``named_arrays()`` without the heads' tensors, in the same order:
        everything a frozen backbone keeps."""
        heads = set(self.head_names())
        return ((name, arr) for name, arr in self.named_arrays() if name not in heads)

    def backbone_hash(self) -> str:
        # sha256 reads each C-contiguous array's buffer in place, no copy
        digest = hashlib.sha256()
        for name, arr in self.named_backbone_arrays():
            digest.update(name.encode())
            digest.update(np.ascontiguousarray(arr))
        return digest.hexdigest()

    def copy(self) -> "ModelParams":
        """The same model with copies of every array, drawing nothing."""
        return from_arrays(
            self.task_names, self.embed_dim, self.n_layers, self.head_hidden, self.dropout,
            {name: arr.copy() for name, arr in self.named_arrays()},
        )


def _normal(stream, shape) -> np.ndarray:
    return stream.normal(0.0, _EMBED_STD, size=shape)


def _glorot(stream, shape) -> np.ndarray:
    fan_in, fan_out = shape
    limit = np.sqrt(6.0 / (fan_in + fan_out))
    return stream.uniform(-limit, limit, size=shape)


def _layout(n_tasks: int, d: int, n_layers: int, h: int):
    """The model's one table: every array as ``(part, name, shape, init)``,
    in checkpoint order, one embedding table per feature of ``featurize``.

    ``part`` is "backbone" or "head" for a trainable tensor and "state" for
    batch-norm running statistics.  ``init`` is a constant fill value, or the
    path of the stream under ``(seed, 0)`` and the draw that fills the array
    from it.  The walk is lazy: a caller that stops early builds no later
    row, whatever the dimensions."""
    for i, width in enumerate(ATOM_FEATURE_WIDTHS):
        yield "backbone", f"node_table.{i}", (width, d), ((0, i), _normal)
    for k in range(n_layers):
        layer = f"layer.{k}."
        for j, width in enumerate(BOND_FEATURE_WIDTHS):
            yield "backbone", f"{layer}edge_table.{j}", (width, d), ((1, k, j), _normal)
        yield "backbone", f"{layer}self_loop", (d,), ((2, k), _normal)
        yield "backbone", f"{layer}w1", (d, 2 * d), ((3, k, 0), _glorot)
        yield "backbone", f"{layer}b1", (2 * d,), 0.0
        yield "backbone", f"{layer}w2", (2 * d, d), ((3, k, 1), _glorot)
        yield "backbone", f"{layer}b2", (d,), 0.0
        yield "backbone", f"{layer}bn_gamma", (d,), 1.0
        yield "backbone", f"{layer}bn_beta", (d,), 0.0
    for t in range(n_tasks):
        head = f"head.{t}."
        yield "head", f"{head}w1", (d, h), ((4, t, 0), _glorot)
        yield "head", f"{head}b1", (h,), 0.0
        yield "head", f"{head}w2", (h, 1), ((4, t, 1), _glorot)
        yield "head", f"{head}b2", (1,), 0.0
    for k in range(n_layers):
        yield "state", f"layer.{k}.bn_running_mean", (d,), 0.0
        yield "state", f"layer.{k}.bn_running_var", (d,), 1.0


def _initial_arrays(rows, seed: int) -> dict[str, np.ndarray]:
    """Each table row's initial value: its constant, or its draw."""
    arrays = {}
    for _, name, shape, init in rows:
        if isinstance(init, float):
            arrays[name] = np.full(shape, init)
        else:
            path, draw = init
            arrays[name] = draw(rng_stream(seed, 0, *path), shape)
    return arrays


def _memory_limit() -> int | None:
    """The smaller of physical memory and the finite ``RLIMIT_AS`` soft
    limit, in bytes; None where the platform reports neither (Windows)."""
    try:
        import resource
    except ImportError:
        return None
    limits = [
        os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES"),  # -1 if unknown
        resource.getrlimit(resource.RLIMIT_AS)[0],
    ]
    return min((n for n in limits if 0 < n != resource.RLIM_INFINITY), default=None)


def _check_fits(nbytes: int, what: str) -> None:
    """Raise ``MemoryError`` if ``nbytes`` exceed the memory limit; ``what``
    names the dimensions that ask for them and the arrays they size."""
    limit = _memory_limit()
    if limit is not None and nbytes > limit:
        raise MemoryError(f"{what} need {nbytes} bytes, over the {limit}-byte memory limit")


def _check_layout_fits(n_tasks: int, d: int, n_layers: int, h: int) -> None:
    """Raise ``MemoryError`` before allocating if the float64 values of the
    table exceed the memory limit.  The table without layers and heads,
    plus what one layer and one head add to it, scaled: no time per layer."""

    def values(tasks: int, layers: int) -> int:
        return sum(math.prod(shape) for _, _, shape, _ in _layout(tasks, d, layers, h))

    base = values(0, 0)
    total = base + n_layers * (values(0, 1) - base) + n_tasks * (values(1, 0) - base)
    _check_fits(
        8 * total, f"embed_dim={d}, n_layers={n_layers}, head_hidden={h}: the parameters"
    )


def from_arrays(
    task_names: list[str], embed_dim: int, n_layers: int, head_hidden: int, dropout: float,
    arrays: dict[str, np.ndarray],
) -> ModelParams:
    """The model whose arrays are ``arrays`` (``{name: array}``), taken as
    they are: nothing is copied or drawn.

    The table is walked once, checking each name and shape as it goes, so
    dimensions that the arrays do not hold fail at the first array that
    differs, and nothing is sized from the dimensions alone.  A missing,
    misshapen or extra array is a ``ValueError`` naming the dimensions and
    that array."""
    params = ModelParams(
        embed_dim=embed_dim, n_layers=n_layers, head_hidden=head_hidden, dropout=dropout,
        task_names=list(task_names), tensors={}, state={},
    )

    unlike = (
        f"arrays do not match the model layout of embed_dim={embed_dim}, "
        f"n_layers={n_layers}, head_hidden={head_hidden}: "
    )
    for part, name, shape, _ in _layout(len(task_names), embed_dim, n_layers, head_hidden):
        arr = arrays.get(name)
        if arr is None:
            raise ValueError(f"{unlike}no array {name}")
        if arr.shape != shape:
            raise ValueError(f"{unlike}array {name}: shape {arr.shape}, expected {shape}")
        if part == "state":
            params.state[name] = arr
        else:
            params.tensors[name] = Tensor(arr, requires_grad=True)
    for name in arrays:  # in their given order, so the first extra one is named
        if name not in params.tensors and name not in params.state:
            raise ValueError(f"{unlike}array {name} is not in the layout")
    return params


def init_params(
    task_names: list[str],
    embed_dim: int = 256,
    n_layers: int = 8,
    head_hidden: int = 256,
    dropout: float = 0.2,
    seed: int = 0,
) -> ModelParams:
    """Fresh parameters; every array draws from its own seed-derived stream,
    so adding layers or task heads never shifts the others' initial values."""
    _check_layout_fits(len(task_names), embed_dim, n_layers, head_hidden)
    rows = _layout(len(task_names), embed_dim, n_layers, head_hidden)
    return from_arrays(
        task_names, embed_dim, n_layers, head_hidden, dropout, _initial_arrays(rows, seed)
    )


def initial_head_arrays(
    n_tasks: int, embed_dim: int, head_hidden: int, seed: int
) -> dict[str, np.ndarray]:
    """The initial arrays of ``n_tasks`` task heads, as ``init_params``
    draws them: a head's values depend only on its index and the seed."""
    rows = _layout(n_tasks, embed_dim, 0, head_hidden)
    return _initial_arrays((row for row in rows if row[0] == "head"), seed)


def gin_forward(
    batch: GraphBatch,
    params: ModelParams,
    *,
    train: bool = False,
    rng_path: tuple[int, ...] | None = None,
    update_running: bool = True,
    tape: Tape | None = None,
) -> Tensor:
    """Per-graph embeddings, shape (n_graphs, embed_dim)."""
    if train and params.dropout > 0.0 and rng_path is None:
        raise ValueError("train-mode forward needs an rng_path for dropout")
    tensors = params.tensors
    node_tables = [tensors[f"node_table.{i}"] for i in range(len(ATOM_FEATURE_WIDTHS))]
    h = ops.embedding_lookup(node_tables, batch.atom_indices, tape=tape)
    has_edges = batch.neighbor_layout.counts.any()
    # one name carries each layer's value from op to op, and the neighbour
    # and bond sums are bound to none, so every array of a tapeless forward
    # dies once the next op has consumed it: one layer's working set at a time
    for k in range(params.n_layers):
        layer = f"layer.{k}."
        self_loop = tensors[layer + "self_loop"]
        if has_edges:
            edge_tables = [
                tensors[f"{layer}edge_table.{j}"] for j in range(len(BOND_FEATURE_WIDTHS))
            ]
            h = ops.add(
                h,
                ops.segment_sum(h, batch.neighbor_layout, tape=tape),
                ops.segment_sum(
                    ops.embedding_lookup(edge_tables, batch.bond_indices, tape=tape),
                    batch.bond_layout, tape=tape,
                ),
                self_loop, tape=tape,
            )
        else:
            h = ops.add(h, self_loop, tape=tape)
        w1, b1, w2, b2 = (tensors[layer + p] for p in ("w1", "b1", "w2", "b2"))
        h = ops.relu(ops.matmul(h, w1, b1, tape=tape), tape=tape)
        h = ops.matmul(h, w2, b2, tape=tape)
        h = ops.batch_norm(
            h,
            tensors[layer + "bn_gamma"],
            tensors[layer + "bn_beta"],
            params.state[layer + "bn_running_mean"],
            params.state[layer + "bn_running_var"],
            train=train,
            update_running=update_running,
            tape=tape,
        )
        h = ops.relu(h, tape=tape)
        if train and params.dropout > 0.0:
            stream = rng_stream(rng_path[0], *rng_path[1:], 1, 0, k)
            h = ops.dropout(h, params.dropout, stream, tape=tape)
    return ops.segment_mean(h, batch.pool_layout, tape=tape)


def predict_heads(
    z: Tensor,
    params: ModelParams,
    task_indices=None,
    *,
    train: bool = False,
    rng_path: tuple[int, ...] | None = None,
    tape: Tape | None = None,
) -> Tensor:
    """The heads' scores over embeddings ``z``, shape (n_graphs,
    len(task_indices)), every task when ``task_indices`` is None."""
    n_tasks = len(params.task_names)
    if task_indices is None:
        task_indices = range(n_tasks)
    cols = []
    for t in task_indices:
        if not 0 <= t < n_tasks:
            raise IndexError(f"unknown task index {t}")
        head = f"head.{t}."
        w1, b1, w2, b2 = (params.tensors[head + p] for p in ("w1", "b1", "w2", "b2"))
        hidden = ops.relu(ops.matmul(z, w1, b1, tape=tape), tape=tape)
        if train and params.dropout > 0.0:
            stream = rng_stream(rng_path[0], *rng_path[1:], 1, 1, t)
            hidden = ops.dropout(hidden, params.dropout, stream, tape=tape)
        cols.append(ops.matmul(hidden, w2, b2, tape=tape))
    return ops.concat_columns(cols, tape=tape)


def predict(
    batch: GraphBatch, params: ModelParams, task_indices=None
) -> np.ndarray:
    """Eval-mode scores, shape (n_graphs, len(task_indices))."""
    return predict_heads(gin_forward(batch, params), params, task_indices).data


def _packed_chunks(graphs: list[FeaturizedGraph]):
    """The eval path's one chunking, for inference and training's eval losses."""
    for start in range(0, len(graphs), INFERENCE_BATCH):
        yield GraphBatch.from_graphs(graphs[start : start + INFERENCE_BATCH])


def encode_graphs(graphs: list[FeaturizedGraph], params: ModelParams) -> np.ndarray:
    """Eval-mode mean-pooled embeddings, shape (n_graphs, embed_dim)."""
    return np.concatenate(
        [np.zeros((0, params.embed_dim))]
        + [gin_forward(batch, params, train=False).data for batch in _packed_chunks(graphs)]
    )


def predict_graphs(
    graphs: list[FeaturizedGraph], params: ModelParams, task_indices=None
) -> np.ndarray:
    """Eval-mode scores of any number of graphs, packed in chunks of
    ``INFERENCE_BATCH``; shape (n_graphs, len(task_indices))."""
    width = len(params.task_names) if task_indices is None else len(task_indices)
    return np.concatenate(
        [np.zeros((0, width))]
        + [predict(batch, params, task_indices) for batch in _packed_chunks(graphs)]
    )
