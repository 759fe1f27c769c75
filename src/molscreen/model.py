"""Shared graph encoder with per-task regression heads.

The encoder embeds categorical atom features into node states, runs a stack
of message-passing layers (neighbor + edge-state + learnable self-loop sums
through a two-layer perceptron with batch norm), and mean-pools node states
into one embedding per molecule.  Each task owns a small two-layer head over
that shared embedding.

``_build_params`` states the layout once, and ``ModelParams.named_arrays()``
is its one walk: copy, checkpoint save and load and the best-epoch snapshot
read it, and the backbone hash and the transfer freeze check read
``named_backbone_arrays()``, the same walk without the head parameters.
"""

from __future__ import annotations

import hashlib
import itertools
import os
from dataclasses import dataclass

import numpy as np

from .engine import BatchNormState, Tape, Tensor, ops, rng_stream
from .featurize import ATOM_FEATURE_WIDTHS, BOND_FEATURE_WIDTHS, FeaturizedGraph

_EMBED_STD = 0.02
INFERENCE_BATCH = 256  # graphs packed per eval-mode forward


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
    folds its terms.  The three slot layouts are built once per batch and
    serve every layer, forward and backward: neighbor states and bond states
    summed into each destination node, and node states pooled per graph.
    """

    atom_indices: np.ndarray  # (n_nodes, 7)
    bond_indices: np.ndarray  # (n_bonds, 3)
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
            atom_indices=_int_rows([g.atom_values for g in graphs], n_nodes, 7),
            bond_indices=_int_rows([g.bond_values for g in graphs], n_bonds, 3),
            neighbor_layout=ops.SegmentLayout(
                edge_dst, n_nodes, rows=edge_src, num_rows=n_nodes
            ),
            bond_layout=ops.SegmentLayout(
                edge_dst, n_nodes, rows=edge_bond, num_rows=n_bonds
            ),
            pool_layout=ops.SegmentLayout(graph_ids, len(graphs)),
        )


@dataclass
class GinLayer:
    edge_tables: list[Tensor]  # one per bond feature
    self_loop: Tensor  # learnable self-loop edge state, shape (d,)
    w1: Tensor
    b1: Tensor
    w2: Tensor
    b2: Tensor
    bn_gamma: Tensor
    bn_beta: Tensor
    bn_state: BatchNormState


@dataclass
class TaskHead:
    w1: Tensor
    b1: Tensor
    w2: Tensor
    b2: Tensor


@dataclass
class ModelParams:
    embed_dim: int
    n_layers: int
    head_hidden: int
    dropout: float
    task_names: list[str]
    node_tables: list[Tensor]
    layers: list[GinLayer]
    heads: list[TaskHead]

    # -- parameter traversal (canonical order) ---------------------------

    def backbone_named_parameters(self):
        for i, t in enumerate(self.node_tables):
            yield f"node_table.{i}", t
        for k, layer in enumerate(self.layers):
            for j, t in enumerate(layer.edge_tables):
                yield f"layer.{k}.edge_table.{j}", t
            yield f"layer.{k}.self_loop", layer.self_loop
            yield f"layer.{k}.w1", layer.w1
            yield f"layer.{k}.b1", layer.b1
            yield f"layer.{k}.w2", layer.w2
            yield f"layer.{k}.b2", layer.b2
            yield f"layer.{k}.bn_gamma", layer.bn_gamma
            yield f"layer.{k}.bn_beta", layer.bn_beta

    def head_named_parameters(self):
        for t, head in enumerate(self.heads):
            yield f"head.{t}.w1", head.w1
            yield f"head.{t}.b1", head.b1
            yield f"head.{t}.w2", head.w2
            yield f"head.{t}.b2", head.b2

    def named_parameters(self):
        yield from self.backbone_named_parameters()
        yield from self.head_named_parameters()

    def named_state_arrays(self):
        for k, layer in enumerate(self.layers):
            yield f"layer.{k}.bn_running_mean", layer.bn_state.running_mean
            yield f"layer.{k}.bn_running_var", layer.bn_state.running_var

    def named_arrays(self):
        """Every array of the model by name, in checkpoint order: each
        parameter's data, then the batch-norm running statistics."""
        for name, t in self.named_parameters():
            yield name, t.data
        yield from self.named_state_arrays()

    def named_backbone_arrays(self):
        """``named_arrays()`` without the head parameters, in the same order:
        everything a frozen backbone keeps."""
        for name, t in self.backbone_named_parameters():
            yield name, t.data
        yield from self.named_state_arrays()

    def backbone_hash(self) -> str:
        # sha256 reads each C-contiguous array's buffer in place, no copy
        digest = hashlib.sha256()
        for name, arr in self.named_backbone_arrays():
            digest.update(name.encode())
            digest.update(np.ascontiguousarray(arr))
        return digest.hexdigest()

    def copy(self) -> "ModelParams":
        """An empty layout of the same shape filled with copies of every array."""
        layout = empty_params(
            self.task_names, self.embed_dim, self.n_layers, self.head_hidden, self.dropout
        )
        return fill_params(layout, {name: arr.copy() for name, arr in self.named_arrays()})


def _drawn(seed: int | None, path: tuple[int, ...], shape, draw) -> Tensor:
    """A trainable tensor that ``draw(stream, shape)`` fills from the stream
    at ``(seed, 0, *path)``.  With no seed nothing is drawn: the tensor holds
    a read-only zero view of the right shape for a loader to replace."""
    if seed is None:
        data = np.broadcast_to(np.float64(0.0), shape)
    else:
        data = draw(rng_stream(seed, 0, *path), shape)
    return Tensor(data, requires_grad=True)


def _normal(stream, shape) -> np.ndarray:
    return stream.normal(0.0, _EMBED_STD, size=shape)


def _glorot(stream, shape) -> np.ndarray:
    fan_in, fan_out = shape
    limit = np.sqrt(6.0 / (fan_in + fan_out))
    return stream.uniform(-limit, limit, size=shape)


def _linear(seed, path, fan_in: int, fan_out: int) -> tuple[Tensor, Tensor]:
    w = _drawn(seed, path, (fan_in, fan_out), _glorot)
    b = Tensor(np.zeros(fan_out), requires_grad=True)
    return w, b


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


def _check_layout_fits(n_tasks: int, d: int, n_layers: int, h: int) -> None:
    """Raise ``MemoryError`` before allocating if the float64 values of the
    layout ``_build_params`` states exceed the memory limit."""
    values = (
        sum(ATOM_FEATURE_WIDTHS) * d
        + n_layers * (sum(BOND_FEATURE_WIDTHS) * d + 4 * d * d + 8 * d)
        + n_tasks * (d * h + 2 * h + 1)
    )
    limit = _memory_limit()
    if limit is not None and 8 * values > limit:
        raise MemoryError(
            f"embed_dim={d}, n_layers={n_layers}, head_hidden={h}: the parameters "
            f"need {8 * values} bytes, over the {limit}-byte memory limit"
        )


def _build_params(
    task_names: list[str],
    embed_dim: int,
    n_layers: int,
    head_hidden: int,
    dropout: float,
    seed: int | None,
) -> ModelParams:
    """The model's one layout: every tensor's shape, with one embedding table
    per feature of ``featurize``, and the stream path and distribution of its
    initial values (``seed=None`` draws nothing)."""
    _check_layout_fits(len(task_names), embed_dim, n_layers, head_hidden)
    d = embed_dim
    node_tables = [
        _drawn(seed, (0, i), (width, d), _normal) for i, width in enumerate(ATOM_FEATURE_WIDTHS)
    ]
    layers = []
    for k in range(n_layers):
        w1, b1 = _linear(seed, (3, k, 0), d, 2 * d)
        w2, b2 = _linear(seed, (3, k, 1), 2 * d, d)
        layers.append(
            GinLayer(
                edge_tables=[
                    _drawn(seed, (1, k, j), (width, d), _normal)
                    for j, width in enumerate(BOND_FEATURE_WIDTHS)
                ],
                self_loop=_drawn(seed, (2, k), (d,), _normal),
                w1=w1,
                b1=b1,
                w2=w2,
                b2=b2,
                bn_gamma=Tensor(np.ones(d), requires_grad=True),
                bn_beta=Tensor(np.zeros(d), requires_grad=True),
                bn_state=BatchNormState.initial(d),
            )
        )
    return ModelParams(
        embed_dim=d,
        n_layers=n_layers,
        head_hidden=head_hidden,
        dropout=dropout,
        task_names=list(task_names),
        node_tables=node_tables,
        layers=layers,
        heads=init_heads(task_names, d, head_hidden, seed),
    )


def init_params(
    task_names: list[str],
    embed_dim: int = 256,
    n_layers: int = 8,
    head_hidden: int = 256,
    dropout: float = 0.2,
    seed: int = 0,
) -> ModelParams:
    """Fresh parameters; every tensor draws from its own seed-derived stream,
    so adding layers or task heads never shifts the others' initial values."""
    return _build_params(task_names, embed_dim, n_layers, head_hidden, dropout, seed)


def empty_params(
    task_names: list[str],
    embed_dim: int,
    n_layers: int,
    head_hidden: int,
    dropout: float,
) -> ModelParams:
    """The layout ``init_params`` builds, for ``fill_params`` to fill, with
    no random draws: each randomly initialized tensor holds a read-only zero
    view of its shape; biases, batch-norm weights and running statistics
    hold their initial values."""
    return _build_params(task_names, embed_dim, n_layers, head_hidden, dropout, None)


def fill_params(params: ModelParams, arrays: dict[str, np.ndarray]) -> ModelParams:
    """Fill a layout built by ``empty_params`` from ``{name: array}``.

    The names must be exactly those of ``params.named_arrays()`` and every
    shape must match, else ``ValueError``.  Parameters take the given arrays
    themselves; running statistics are copied into the layout's own."""
    layout = dict(params.named_arrays())
    if layout.keys() != arrays.keys():
        raise ValueError("arrays do not match the model layout")
    for name, arr in layout.items():
        if arr.shape != arrays[name].shape:
            raise ValueError(f"array {name}: shape {arrays[name].shape}, expected {arr.shape}")
    for name, tensor in params.named_parameters():
        tensor.data = arrays[name]
    for name, arr in params.named_state_arrays():
        arr[...] = arrays[name]
    return params


def init_heads(
    task_names: list[str], embed_dim: int, head_hidden: int, seed: int | None
) -> list[TaskHead]:
    """Fresh task heads drawn from the same per-head streams init_params
    uses, so a head's initial values depend only on its index and the seed
    (``seed=None`` draws nothing, as for ``empty_params``)."""
    heads = []
    for t in range(len(task_names)):
        w1, b1 = _linear(seed, (4, t, 0), embed_dim, head_hidden)
        w2, b2 = _linear(seed, (4, t, 1), head_hidden, 1)
        heads.append(TaskHead(w1=w1, b1=b1, w2=w2, b2=b2))
    return heads


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
    h = ops.embedding_lookup(params.node_tables, batch.atom_indices, tape=tape)
    has_edges = batch.neighbor_layout.counts.any()
    for k, layer in enumerate(params.layers):
        if has_edges:
            summed = ops.segment_sum(h, batch.neighbor_layout, tape=tape)
            # each layer embeds its own bonds, and no name keeps them, so an
            # eval forward holds one layer's bond states at a time
            edge_sum = ops.segment_sum(
                ops.embedding_lookup(layer.edge_tables, batch.bond_indices, tape=tape),
                batch.bond_layout,
                tape=tape,
            )
            s = ops.add(h, summed, edge_sum, layer.self_loop, tape=tape)
        else:
            s = ops.add(h, layer.self_loop, tape=tape)
        hidden = ops.relu(ops.matmul(s, layer.w1, layer.b1, tape=tape), tape=tape)
        mixed = ops.matmul(hidden, layer.w2, layer.b2, tape=tape)
        normed = ops.batch_norm(
            mixed,
            layer.bn_gamma,
            layer.bn_beta,
            layer.bn_state,
            train=train,
            update_running=update_running,
            tape=tape,
        )
        h = ops.relu(normed, tape=tape)
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
    if task_indices is None:
        task_indices = range(len(params.heads))
    cols = []
    for t in task_indices:
        if not 0 <= t < len(params.heads):
            raise IndexError(f"unknown task index {t}")
        head = params.heads[t]
        hidden = ops.relu(ops.matmul(z, head.w1, head.b1, tape=tape), tape=tape)
        if train and params.dropout > 0.0:
            stream = rng_stream(rng_path[0], *rng_path[1:], 1, 1, t)
            hidden = ops.dropout(hidden, params.dropout, stream, tape=tape)
        cols.append(ops.matmul(hidden, head.w2, head.b2, tape=tape))
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
    width = len(params.heads) if task_indices is None else len(task_indices)
    return np.concatenate(
        [np.zeros((0, width))]
        + [predict(batch, params, task_indices) for batch in _packed_chunks(graphs)]
    )
