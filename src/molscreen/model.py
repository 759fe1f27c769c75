"""Shared graph encoder with per-task regression heads.

The encoder embeds categorical atom features into node states, runs a stack
of message-passing layers (neighbor + edge-state + learnable self-loop sums
through a two-layer perceptron with batch norm), and mean-pools node states
into one embedding per molecule.  Each task owns a small two-layer head over
that shared embedding.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass

import numpy as np

from .engine import BatchNormState, Tape, Tensor, ops, rng_stream
from .featurize import DEFAULT_SCHEMA, FeatureSchema, FeaturizedGraph

_EMBED_STD = 0.02
INFERENCE_BATCH = 256  # graphs packed per eval-mode forward


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
    The forward pass reads only the layouts; ``graph_ids`` and the three
    ``edge_*`` arrays are the same structure as a plain edge list, kept for
    inspection and for tests that rebuild the unfused computation.
    """

    atom_indices: np.ndarray  # (n_nodes, 7)
    bond_indices: np.ndarray  # (n_bonds, 3)
    graph_ids: np.ndarray  # (n_nodes,) sorted
    node_counts: np.ndarray  # (n_graphs,)
    edge_src: np.ndarray  # (2 * n_bonds,)
    edge_dst: np.ndarray  # (2 * n_bonds,)
    edge_bond: np.ndarray  # (2 * n_bonds,)
    neighbor_layout: ops.SegmentLayout  # h[edge_src] summed by edge_dst
    bond_layout: ops.SegmentLayout  # bond state[edge_bond] summed by edge_dst
    pool_layout: ops.SegmentLayout  # node states summed by graph_ids

    @property
    def n_nodes(self) -> int:
        return self.atom_indices.shape[0]

    @property
    def n_graphs(self) -> int:
        return self.node_counts.shape[0]

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
        ends = np.concatenate([g.bond_endpoints for g in graphs]) + np.repeat(
            np.cumsum(node_counts) - node_counts, bond_counts
        )[:, None]
        edge_src = np.concatenate([ends[:, 0], ends[:, 1]])
        edge_dst = np.concatenate([ends[:, 1], ends[:, 0]])
        edge_bond = np.tile(np.arange(n_bonds, dtype=np.int64), 2)
        order = np.argsort(edge_dst, kind="stable")
        edge_src, edge_dst, edge_bond = edge_src[order], edge_dst[order], edge_bond[order]
        return cls(
            atom_indices=np.concatenate([g.atom_indices for g in graphs]),
            bond_indices=np.concatenate([g.bond_indices for g in graphs]),
            graph_ids=graph_ids,
            node_counts=node_counts,
            edge_src=edge_src,
            edge_dst=edge_dst,
            edge_bond=edge_bond,
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
    schema: FeatureSchema
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

    def head_named_parameters(self, task_indices=None):
        if task_indices is None:
            task_indices = range(len(self.heads))
        for t in task_indices:
            head = self.heads[t]
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

    def backbone_hash(self) -> str:
        # sha256 reads each C-contiguous array's buffer in place, no copy
        digest = hashlib.sha256()
        for name, p in self.backbone_named_parameters():
            digest.update(name.encode())
            digest.update(np.ascontiguousarray(p.data))
        for name, arr in self.named_state_arrays():
            digest.update(name.encode())
            digest.update(np.ascontiguousarray(arr))
        return digest.hexdigest()

    def copy(self) -> "ModelParams":
        def clone(t: Tensor) -> Tensor:
            return Tensor(t.data.copy(), requires_grad=t.requires_grad)

        return ModelParams(
            embed_dim=self.embed_dim,
            n_layers=self.n_layers,
            head_hidden=self.head_hidden,
            dropout=self.dropout,
            task_names=list(self.task_names),
            schema=self.schema,
            node_tables=[clone(t) for t in self.node_tables],
            layers=[
                GinLayer(
                    edge_tables=[clone(t) for t in layer.edge_tables],
                    self_loop=clone(layer.self_loop),
                    w1=clone(layer.w1),
                    b1=clone(layer.b1),
                    w2=clone(layer.w2),
                    b2=clone(layer.b2),
                    bn_gamma=clone(layer.bn_gamma),
                    bn_beta=clone(layer.bn_beta),
                    bn_state=layer.bn_state.copy(),
                )
                for layer in self.layers
            ],
            heads=[
                TaskHead(
                    w1=clone(h.w1), b1=clone(h.b1), w2=clone(h.w2), b2=clone(h.b2)
                )
                for h in self.heads
            ],
        )


def _embedding(stream, rows: int, dim: int) -> Tensor:
    return Tensor(stream.normal(0.0, _EMBED_STD, size=(rows, dim)), requires_grad=True)


def _linear(stream, fan_in: int, fan_out: int) -> tuple[Tensor, Tensor]:
    limit = np.sqrt(6.0 / (fan_in + fan_out))
    w = Tensor(stream.uniform(-limit, limit, size=(fan_in, fan_out)), requires_grad=True)
    b = Tensor(np.zeros(fan_out), requires_grad=True)
    return w, b


def init_params(
    task_names: list[str],
    embed_dim: int = 256,
    n_layers: int = 8,
    head_hidden: int = 256,
    dropout: float = 0.2,
    seed: int = 0,
    schema: FeatureSchema = DEFAULT_SCHEMA,
) -> ModelParams:
    """Fresh parameters; every tensor draws from its own seed-derived stream,
    so adding layers or task heads never shifts the others' initial values."""
    d = embed_dim
    node_tables = [
        _embedding(rng_stream(seed, 0, 0, i), width, d)
        for i, width in enumerate(schema.atom_widths)
    ]
    layers = []
    for k in range(n_layers):
        edge_tables = [
            _embedding(rng_stream(seed, 0, 1, k, j), width, d)
            for j, width in enumerate(schema.bond_widths)
        ]
        self_loop = Tensor(
            rng_stream(seed, 0, 2, k).normal(0.0, _EMBED_STD, size=d),
            requires_grad=True,
        )
        w1, b1 = _linear(rng_stream(seed, 0, 3, k, 0), d, 2 * d)
        w2, b2 = _linear(rng_stream(seed, 0, 3, k, 1), 2 * d, d)
        layers.append(
            GinLayer(
                edge_tables=edge_tables,
                self_loop=self_loop,
                w1=w1,
                b1=b1,
                w2=w2,
                b2=b2,
                bn_gamma=Tensor(np.ones(d), requires_grad=True),
                bn_beta=Tensor(np.zeros(d), requires_grad=True),
                bn_state=BatchNormState.initial(d),
            )
        )
    heads = init_heads(task_names, d, head_hidden, seed)
    return ModelParams(
        embed_dim=d,
        n_layers=n_layers,
        head_hidden=head_hidden,
        dropout=dropout,
        task_names=list(task_names),
        schema=schema,
        node_tables=node_tables,
        layers=layers,
        heads=heads,
    )


def init_heads(
    task_names: list[str], embed_dim: int, head_hidden: int, seed: int
) -> list[TaskHead]:
    """Fresh task heads drawn from the same per-head streams init_params
    uses, so a head's initial values depend only on its index and the seed."""
    heads = []
    for t in range(len(task_names)):
        w1, b1 = _linear(rng_stream(seed, 0, 4, t, 0), embed_dim, head_hidden)
        w2, b2 = _linear(rng_stream(seed, 0, 4, t, 1), head_hidden, 1)
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
            h = ops.dropout(h, params.dropout, stream, train=True, tape=tape)
    return ops.segment_mean(h, batch.pool_layout, tape=tape)


def predict_heads(
    z: Tensor,
    params: ModelParams,
    task_indices,
    *,
    train: bool = False,
    rng_path: tuple[int, ...] | None = None,
    tape: Tape | None = None,
) -> list[Tensor]:
    """Per-task score columns, each of shape (n_graphs, 1)."""
    outs = []
    for t in task_indices:
        if not 0 <= t < len(params.heads):
            raise IndexError(f"unknown task index {t}")
        head = params.heads[t]
        hidden = ops.relu(ops.matmul(z, head.w1, head.b1, tape=tape), tape=tape)
        if train and params.dropout > 0.0:
            stream = rng_stream(rng_path[0], *rng_path[1:], 1, 1, t)
            hidden = ops.dropout(hidden, params.dropout, stream, train=True, tape=tape)
        outs.append(ops.matmul(hidden, head.w2, head.b2, tape=tape))
    return outs


def predict(
    batch: GraphBatch, params: ModelParams, task_indices=None
) -> np.ndarray:
    """Eval-mode scores, shape (n_graphs, len(task_indices))."""
    if task_indices is None:
        task_indices = list(range(len(params.heads)))
    z = gin_forward(batch, params, train=False)
    cols = predict_heads(z, params, task_indices, train=False)
    return np.concatenate([c.data for c in cols], axis=1)


def _packed_chunks(graphs: list[FeaturizedGraph]):
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
