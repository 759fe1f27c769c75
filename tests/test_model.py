"""Model tests: wiring against hand-computed formulas, invariances, and a
small end-to-end gradient check."""

import importlib
import sys
import weakref
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

import molscreen.model as model_module
from molscreen.data import SplitMasks
from molscreen.engine import Tape, Tensor, ops
from molscreen.featurize import featurize_smiles
from molscreen.synth import synth_dataset
from molscreen.model import (
    GraphBatch,
    ModelParams,
    INFERENCE_BATCH,
    encode_graphs,
    from_arrays,
    gin_forward,
    init_params,
    initial_head_arrays,
    predict,
    predict_graphs,
    predict_heads,
)

sys.path.insert(0, str(Path(__file__).parent))
from gradcheck import grad_check  # noqa: E402
from helpers import blas_core, graph_matrices, traced_peak  # noqa: E402


model_module = importlib.import_module("molscreen.model")
# the package re-exports train(), which hides the submodule's name
train_module = importlib.import_module("molscreen.train")


def batch_of(*smiles):
    return GraphBatch.from_graphs([featurize_smiles(s) for s in smiles])


def layer_arrays(params, k):
    """Layer k's tensor values by their names within the layer."""
    prefix = f"layer.{k}."
    return {n[len(prefix):]: t.data for n, t in params.tensors.items() if n.startswith(prefix)}


def node_row_sum(params, row):
    """h0 of one atom: one row of each node table, summed."""
    return sum(params.tensors[f"node_table.{i}"].data[row[i]] for i in range(7))


class TestInit:
    @pytest.mark.parametrize(
        "field,value",
        [("n_layers", 0), ("head_hidden", 0), ("dropout", 1.5), ("embed_dim", 0)],
    )
    def test_bad_dimension_refused_by_name(self, field, value):
        # each would save a checkpoint that loading refuses; embed_dim=0
        # divided by zero in the Glorot draw
        dims = {"embed_dim": 4, "n_layers": 1, "head_hidden": 4, field: value}
        with pytest.raises(ValueError, match=f"^{field} must be"):
            init_params(["a"], **dims)

    def test_deterministic(self):
        a = init_params(["t0"], embed_dim=8, n_layers=2, seed=3)
        b = init_params(["t0"], embed_dim=8, n_layers=2, seed=3)
        for (name_a, pa), (name_b, pb) in zip(
            a.named_parameters(), b.named_parameters()
        ):
            assert name_a == name_b
            np.testing.assert_array_equal(pa.data, pb.data)

    def test_seed_changes_weights(self):
        a = init_params(["t0"], embed_dim=8, n_layers=2, seed=3)
        b = init_params(["t0"], embed_dim=8, n_layers=2, seed=4)
        assert any(
            not np.array_equal(pa.data, pb.data)
            for (_, pa), (_, pb) in zip(a.named_parameters(), b.named_parameters())
        )

    def test_task_head_init_independent_of_task_count(self):
        # head k must draw from its own stream so adding tasks never shifts it
        a = init_params(["t0"], embed_dim=8, n_layers=2, seed=3)
        b = init_params(["t0", "t1", "t2"], embed_dim=8, n_layers=2, seed=3)
        for name in ("head.0.w1", "head.0.w2"):
            np.testing.assert_array_equal(a.tensors[name].data, b.tensors[name].data)

    def test_shapes(self):
        p = init_params(["a", "b"], embed_dim=8, n_layers=2, head_hidden=16)
        shapes = {name: arr.shape for name, arr in p.named_arrays()}
        assert shapes["node_table.0"] == (119, 8)
        assert shapes["node_table.6"] == (5, 8)
        assert "node_table.7" not in shapes
        assert "layer.1.w1" in shapes and "layer.2.w1" not in shapes
        assert shapes["layer.0.edge_table.0"] == (7, 8)
        assert shapes["layer.0.self_loop"] == (8,)
        assert shapes["layer.0.w1"] == (8, 16)
        assert shapes["layer.0.w2"] == (16, 8)
        assert shapes["head.0.w1"] == (8, 16)
        assert shapes["head.0.w2"] == (16, 1)
        assert "head.1.w1" in shapes and "head.2.w1" not in shapes
        assert shapes["layer.1.bn_running_var"] == (8,)
        assert list(p.state) == [
            f"layer.{k}.bn_running_{s}" for k in range(2) for s in ("mean", "var")]

    def test_biases_zero_and_bn_affine_identity(self):
        p = init_params(["a"], embed_dim=8, n_layers=2)
        assert np.all(p.tensors["layer.0.b1"].data == 0)
        assert np.all(p.tensors["head.0.b2"].data == 0)
        assert np.all(p.tensors["layer.1.bn_gamma"].data == 1)
        assert np.all(p.tensors["layer.1.bn_beta"].data == 0)
        assert np.all(p.state["layer.1.bn_running_mean"] == 0)
        assert np.all(p.state["layer.1.bn_running_var"] == 1)

    def test_from_arrays_keeps_the_arrays_and_draws_nothing(self, monkeypatch):
        fresh = init_params(["a", "b"], embed_dim=8, n_layers=2, head_hidden=16, dropout=0.3)
        arrays = dict(fresh.named_arrays())

        def no_draws(*path):
            raise AssertionError(f"stream {path} requested")

        monkeypatch.setattr(model_module, "rng_stream", no_draws)
        built = from_arrays(["a", "b"], 8, 2, 16, 0.3, arrays)
        assert [n for n, _ in built.named_arrays()] == list(arrays)
        for name, arr in built.named_arrays():
            assert arr is arrays[name], name
        assert list(built.state) == list(fresh.state)
        assert all(t.requires_grad for _, t in built.named_parameters())
        assert (built.embed_dim, built.n_layers, built.head_hidden, built.dropout,
                built.task_names) == (8, 2, 16, 0.3, ["a", "b"])

    def test_copy_is_deep(self):
        p = init_params(["a"], embed_dim=4, n_layers=1)
        q = p.copy()
        q.tensors["node_table.0"].data[0, 0] += 1.0
        q.state["layer.0.bn_running_mean"][0] += 1.0
        assert p.tensors["node_table.0"].data[0, 0] != q.tensors["node_table.0"].data[0, 0]
        assert p.state["layer.0.bn_running_mean"][0] == 0.0

    def test_layout_bytes_checked_before_allocation(self, monkeypatch):
        p = init_params(["a", "b"], embed_dim=8, n_layers=2, head_hidden=4)
        nbytes = 8 * sum(arr.size for _, arr in p.named_arrays())
        monkeypatch.setattr(model_module, "_memory_limit", lambda: nbytes)
        init_params(["a", "b"], embed_dim=8, n_layers=2, head_hidden=4)  # fits exactly
        monkeypatch.setattr(model_module, "_memory_limit", lambda: nbytes - 1)
        with pytest.raises(MemoryError, match=f"n_layers=2, head_hidden=4: .* {nbytes} bytes"):
            init_params(["a", "b"], embed_dim=8, n_layers=2, head_hidden=4)


def _bits(arr):
    return np.ascontiguousarray(arr).view(np.int64)


class TestCopy:
    """``copy()`` is the same model built from copies of every array."""

    @staticmethod
    def _check_copy(p, monkeypatch):
        def no_draws(*path):
            raise AssertionError(f"stream {path} requested")

        monkeypatch.setattr(model_module, "rng_stream", no_draws)
        q = p.copy()
        got, want = list(q.named_arrays()), list(p.named_arrays())
        assert [n for n, _ in got] == [n for n, _ in want]
        for (name, a), (_, b) in zip(got, want):
            np.testing.assert_array_equal(_bits(a), _bits(b), err_msg=name)
            assert a.flags.writeable, name
            assert not np.shares_memory(a, b), name
        assert all(t.requires_grad for _, t in q.named_parameters())
        assert (q.embed_dim, q.n_layers, q.head_hidden, q.dropout) == (
            p.embed_dim, p.n_layers, p.head_hidden, p.dropout)
        assert q.task_names == p.task_names and q.task_names is not p.task_names

    def test_trained_shape_model(self, monkeypatch):
        p = init_params(["a", "b"], embed_dim=8, n_layers=2, head_hidden=16, seed=3)
        p.state["layer.1.bn_running_var"][:] = np.linspace(0.5, 2.0, 8)
        p.tensors["layer.0.b1"].data[0] = -0.0  # a signed zero must survive the copy
        self._check_copy(p, monkeypatch)

    def test_transfer_shaped_model(self, monkeypatch):
        pretrained = init_params(["a", "b"], embed_dim=8, n_layers=2, head_hidden=16, seed=3)
        arrays = dict(pretrained.named_backbone_arrays())
        arrays.update(initial_head_arrays(1, 8, 5, seed=4))
        p = from_arrays(["new"], 8, 2, 5, 0.2, arrays)
        assert p.head_names() == ["head.0.w1", "head.0.b1", "head.0.w2", "head.0.b2"]
        self._check_copy(p, monkeypatch)


class TestGraphBatch:
    def test_offsets_and_counts(self):
        batch = batch_of("CCO", "C")
        assert batch.pool_layout.num_segments == 2
        assert batch.pool_layout.counts.tolist() == [3, 1]
        # membership[graph, node]: each node pooled into its own graph
        membership = batch.pool_layout.totals(np.eye(4))
        assert membership.argmax(axis=0).tolist() == [0, 0, 0, 1]
        # two directed edges per bond
        assert batch.neighbor_layout.counts.sum() == 4
        assert batch.bond_layout.num_rows == 2

    def test_second_graph_edges_are_offset(self):
        batch = batch_of("C", "CC")
        # adjacency[dst, src] counts the directed edges src -> dst
        adjacency = batch.neighbor_layout.totals(np.eye(3))
        assert {tuple(p) for p in np.argwhere(adjacency).tolist()} == {(1, 2), (2, 1)}

    def test_empty_batch_rejected(self):
        with pytest.raises(ValueError):
            GraphBatch.from_graphs([])


def reference_pack(graphs):
    """GraphBatch.from_graphs as a per-graph loop: each graph's forward
    directions, then its reverse ones, offset by the nodes before it.
    Returns the batch and its plain edge list (``edge_src``, ``edge_dst``,
    ``edge_bond``, sorted stably by destination) with ``graph_ids`` and
    ``n_nodes``."""
    atom_rows, bond_rows, graph_ids = [], [], []
    src, dst, bond_of_edge = [], [], []
    node_offset = bond_offset = 0
    for gid, g in enumerate(graphs):
        atom_rows.append(np.array(g.atom_values, dtype=np.int64).reshape(g.n_atoms, 7))
        bond_rows.append(np.array(g.bond_values, dtype=np.int64).reshape(g.n_bonds, 3))
        graph_ids.append(np.full(g.n_atoms, gid, dtype=np.int64))
        if g.n_bonds:
            ends = np.array(g.endpoint_values, dtype=np.int64).reshape(g.n_bonds, 2)
            a = ends[:, 0] + node_offset
            b = ends[:, 1] + node_offset
            idx = np.arange(g.n_bonds, dtype=np.int64) + bond_offset
            src.append(np.concatenate([a, b]))
            dst.append(np.concatenate([b, a]))
            bond_of_edge.append(np.concatenate([idx, idx]))
        node_offset += g.n_atoms
        bond_offset += g.n_bonds
    empty = np.zeros(0, dtype=np.int64)
    edge_src = np.concatenate(src) if src else empty
    edge_dst = np.concatenate(dst) if dst else empty
    edge_bond = np.concatenate(bond_of_edge) if bond_of_edge else empty
    order = np.argsort(edge_dst, kind="stable")
    edges = SimpleNamespace(
        edge_src=edge_src[order],
        edge_dst=edge_dst[order],
        edge_bond=edge_bond[order],
        graph_ids=np.concatenate(graph_ids),
        n_nodes=node_offset,
    )
    batch = GraphBatch(
        atom_indices=np.concatenate(atom_rows),
        bond_indices=np.concatenate(bond_rows),
        neighbor_layout=ops.SegmentLayout(
            edges.edge_dst, node_offset, rows=edges.edge_src, num_rows=node_offset
        ),
        bond_layout=ops.SegmentLayout(
            edges.edge_dst, node_offset, rows=edges.edge_bond, num_rows=bond_offset
        ),
        pool_layout=ops.SegmentLayout(edges.graph_ids, len(graphs)),
    )
    return batch, edges


def _assert_same_array(actual, expected, name):
    assert actual.dtype == expected.dtype, name
    np.testing.assert_array_equal(actual, expected, err_msg=name)


class TestPackingOracle:
    """Whole-batch packing gives, array for array, what the per-graph loop
    gives: the same edge order, so the same layouts and fold orders.  The
    pool mixes bondless molecules, single atoms, rings and a sulfur with
    ten neighbours."""

    POOL = (
        "C", "[Na+]", "O", "CCO", "c1ccccc1O", "C1CC1C(=O)N", "CC(=O)O",
        "[S](C)(C)(C)(C)(C)(C)(C)(C)(C)C", "c1ccc2ccccc2c1", "N#CC",
    )
    ARRAYS = ("atom_indices", "bond_indices")

    def _assert_matches_reference(self, graphs):
        packed = GraphBatch.from_graphs(graphs)
        reference, _ = reference_pack(graphs)
        for name in self.ARRAYS:
            _assert_same_array(getattr(packed, name), getattr(reference, name), name)
        for layout in ("neighbor_layout", "bond_layout", "pool_layout"):
            got, want = getattr(packed, layout), getattr(reference, layout)
            assert (got.num_segments, got.num_rows) == (want.num_segments, want.num_rows)
            _assert_same_array(got.counts, want.counts, f"{layout}.counts")
            for name in ("_sums", "_uses"):
                (got_keys, got_columns), (want_keys, want_columns) = (
                    getattr(got, name), getattr(want, name)
                )
                _assert_same_array(got_keys, want_keys, f"{layout}.{name}.keys")
                assert len(got_columns) == len(want_columns), f"{layout}.{name}"
                for j, (a, b) in enumerate(zip(got_columns, want_columns)):
                    _assert_same_array(a, b, f"{layout}.{name}[{j}]")

    @pytest.mark.parametrize("size", [1, 2, 5, 17, 64])
    def test_random_batches_match_per_graph_loop(self, size):
        graphs = [featurize_smiles(s) for s in self.POOL]
        rng = np.random.default_rng(size)
        for _ in range(4):
            self._assert_matches_reference([graphs[i] for i in rng.integers(0, len(graphs), size)])

    def test_bondless_batch_matches_per_graph_loop(self):
        self._assert_matches_reference([featurize_smiles(s) for s in ("C", "[Na+]", "O")])

    @pytest.mark.parametrize("pool", [POOL, ("C", "[Na+]", "O")], ids=["mixed", "bondless"])
    def test_one_int64_conversion_per_array(self, pool):
        # the batch's matrices (and the endpoints its layouts come from) are
        # the graphs' own matrices, concatenated
        graphs = [featurize_smiles(s) for s in pool]
        packed = GraphBatch.from_graphs(graphs)
        n_bonds = sum(g.n_bonds for g in graphs)
        endpoints = model_module._int_rows([g.endpoint_values for g in graphs], n_bonds, 2)
        per_graph = [graph_matrices(g) for g in graphs]
        for i, (name, array) in enumerate((
            ("atom_indices", packed.atom_indices),
            ("bond_indices", packed.bond_indices),
            ("bond_endpoints", endpoints),
        )):
            assert array.flags.c_contiguous, name
            _assert_same_array(array, np.concatenate([m[i] for m in per_graph]), name)


class TestEmbedInputs:
    """The embedding lookups gin_forward makes: h0 from the node tables
    once, then each layer's bond states from that layer's own tables."""

    @staticmethod
    def _record_lookups(monkeypatch, batch):
        """Wraps embedding_lookup; returns (node outputs, bond outputs)."""
        lookup, nodes, bonds = ops.embedding_lookup, [], []

        def recorded(tables, indices, tape=None):
            out = lookup(tables, indices, tape=tape)
            if indices is batch.atom_indices:
                nodes.append(out.data.copy())
            elif indices is batch.bond_indices:
                bonds.append((tables, out.data.copy()))
            return out

        monkeypatch.setattr(ops, "embedding_lookup", recorded)
        return nodes, bonds

    def test_h0_is_sum_of_table_rows(self, monkeypatch):
        params = init_params(["t"], embed_dim=8, n_layers=1, seed=0)
        batch = batch_of("C")
        nodes, _ = self._record_lookups(monkeypatch, batch)
        gin_forward(batch, params, train=False)
        assert len(nodes) == 1
        idx = graph_matrices(featurize_smiles("C"))[0][0]
        np.testing.assert_allclose(nodes[0][0], node_row_sum(params, idx), rtol=1e-15)

    def test_edge_states_are_sums_per_layer(self, monkeypatch):
        params = init_params(["t"], embed_dim=8, n_layers=2, seed=0)
        batch = batch_of("C=C")
        _, bonds = self._record_lookups(monkeypatch, batch)
        gin_forward(batch, params, train=False)
        assert len(bonds) == 2
        idx = graph_matrices(featurize_smiles("C=C"))[1][0]
        for k, (tables, edge_state) in enumerate(bonds):
            own = [params.tensors[f"layer.{k}.edge_table.{j}"] for j in range(3)]
            assert len(tables) == 3 and all(a is b for a, b in zip(tables, own))
            expected = sum(own[j].data[idx[j]] for j in range(3))
            np.testing.assert_allclose(edge_state[0], expected, rtol=1e-15)


class TestLayerBondEmbedding:
    """Each GIN layer embeds its own bonds inside the layer."""

    def test_two_layer_formula(self):
        params = init_params(["t"], embed_dim=6, n_layers=2, head_hidden=4, seed=5)
        z = gin_forward(batch_of("C=C"), params, train=False)

        atoms, bonds, _ = graph_matrices(featurize_smiles("C=C"))
        # h0 sums one row of each node table
        h = np.stack([node_row_sum(params, row) for row in atoms])
        for k in range(params.n_layers):
            layer = layer_arrays(params, k)
            # layer k sums layer k's own bond tables
            bond = sum(layer[f"edge_table.{j}"][bonds[0, j]] for j in range(3))
            s = h + h[::-1] + bond + layer["self_loop"]  # each atom's one neighbour
            t = np.maximum(s @ layer["w1"] + layer["b1"], 0.0)
            u = t @ layer["w2"] + layer["b2"]
            x_hat = u / np.sqrt(1.0 + ops.BN_EPS)
            h = np.maximum(layer["bn_gamma"] * x_hat + layer["bn_beta"], 0.0)
        np.testing.assert_allclose(z.data[0], h.mean(axis=0), rtol=1e-12)

    @staticmethod
    def _watch_bond_lookups(monkeypatch, batch):
        """Wraps embedding_lookup; for each bond lookup, records whether
        every earlier bond-state array was already freed when it ran."""
        lookup, states, all_dead = ops.embedding_lookup, [], []

        def watched(tables, indices, tape=None):
            bonds = indices is batch.bond_indices
            if bonds:
                all_dead.append(all(ref() is None for ref in states))
            out = lookup(tables, indices, tape=tape)
            if bonds:
                states.append(weakref.ref(out.data))
            return out

        monkeypatch.setattr(ops, "embedding_lookup", watched)
        return all_dead

    def test_eval_forward_holds_one_bond_state(self, monkeypatch):
        batch = batch_of("CC(=O)O", "c1ccccc1")
        params = init_params(["t"], embed_dim=8, n_layers=4, seed=0)
        all_dead = self._watch_bond_lookups(monkeypatch, batch)
        gin_forward(batch, params, train=False)
        assert all_dead == [True] * 4

    def test_bondless_batch_looks_up_no_bonds(self, monkeypatch):
        batch = batch_of("C", "[Na+]")
        params = init_params(["t"], embed_dim=8, n_layers=3, seed=0)
        all_dead = self._watch_bond_lookups(monkeypatch, batch)
        tape = Tape()
        z = gin_forward(batch, params, train=True, rng_path=(0, 0), tape=tape)
        tape.backward(ops.masked_sse(z, np.zeros(z.shape), np.ones(z.shape), tape=tape))
        assert all_dead == []
        grads = {name: t.grad for name, t in params.tensors.items()}
        assert all(g is None for name, g in grads.items() if "edge_table" in name)
        assert all(grads[f"node_table.{i}"] is not None for i in range(7))


class TestForward:
    def test_single_node_formula(self):
        params = init_params(["t"], embed_dim=6, n_layers=1, head_hidden=4, seed=5)
        batch = batch_of("C")
        z = gin_forward(batch, params, train=False)

        h0 = node_row_sum(params, graph_matrices(featurize_smiles("C"))[0][0])
        layer = layer_arrays(params, 0)
        s = h0 + layer["self_loop"]
        t = np.maximum(s @ layer["w1"] + layer["b1"], 0.0)
        u = t @ layer["w2"] + layer["b2"]
        x_hat = u / np.sqrt(1.0 + ops.BN_EPS)
        expected = np.maximum(layer["bn_gamma"] * x_hat + layer["bn_beta"], 0.0)
        np.testing.assert_allclose(z.data[0], expected, rtol=1e-12)

    def test_eval_deterministic(self):
        params = init_params(["t"], embed_dim=8, n_layers=3, seed=1)
        batch = batch_of("CC(=O)O", "c1ccccc1")
        a = gin_forward(batch, params, train=False)
        b = gin_forward(batch, params, train=False)
        np.testing.assert_array_equal(a.data, b.data)

    def test_atom_order_invariance(self):
        params = init_params(["t"], embed_dim=16, n_layers=3, seed=2)
        variants = ["CC(=O)O", "OC(=O)C", "C(C)(=O)O"]
        outs = [
            gin_forward(batch_of(s), params, train=False).data[0] for s in variants
        ]
        np.testing.assert_allclose(outs[1], outs[0], rtol=0, atol=1e-9)
        np.testing.assert_allclose(outs[2], outs[0], rtol=0, atol=1e-9)

    def test_batch_grouping_invariance(self):
        params = init_params(["t"], embed_dim=16, n_layers=3, seed=2)
        alone = gin_forward(batch_of("CC(=O)O"), params, train=False).data[0]
        grouped = gin_forward(
            batch_of("c1ccccc1", "CC(=O)O", "CCO"), params, train=False
        ).data[1]
        np.testing.assert_allclose(grouped, alone, rtol=0, atol=1e-9)

    def test_different_molecules_differ(self):
        params = init_params(["t"], embed_dim=16, n_layers=2, seed=2)
        z = gin_forward(batch_of("CCO", "CCN"), params, train=False).data
        assert not np.allclose(z[0], z[1])

    def test_train_mode_updates_running_stats(self):
        params = init_params(["t"], embed_dim=8, n_layers=1, seed=0)
        batch = batch_of("CCO", "CC")
        before = params.state["layer.0.bn_running_mean"].copy()
        gin_forward(batch, params, train=True, rng_path=(0, 0, 0))
        assert not np.array_equal(params.state["layer.0.bn_running_mean"], before)

    def test_train_mode_can_freeze_running_stats(self):
        params = init_params(["t"], embed_dim=8, n_layers=1, seed=0)
        batch = batch_of("CCO", "CC")
        before = params.state["layer.0.bn_running_mean"].copy()
        gin_forward(
            batch, params, train=True, rng_path=(0, 0, 0), update_running=False
        )
        np.testing.assert_array_equal(params.state["layer.0.bn_running_mean"], before)


class TestPredict:
    def test_shape_and_task_selection(self):
        params = init_params(["a", "b", "c"], embed_dim=8, n_layers=2, seed=0)
        batch = batch_of("CCO", "CC")
        full = predict(batch, params)
        assert full.shape == (2, 3)
        sub = predict(batch, params, task_indices=[2, 0])
        np.testing.assert_array_equal(sub[:, 0], full[:, 2])
        np.testing.assert_array_equal(sub[:, 1], full[:, 0])

    def test_unknown_task_rejected(self):
        params = init_params(["a"], embed_dim=8, n_layers=1, seed=0)
        batch = batch_of("C", "CC")
        with pytest.raises(IndexError):
            predict(batch, params, task_indices=[1])

    def test_heads_differ_across_tasks(self):
        params = init_params(["a", "b"], embed_dim=8, n_layers=2, seed=0)
        batch = batch_of("CCO", "CC")
        out = predict(batch, params)
        assert not np.allclose(out[:, 0], out[:, 1])


class TestBatchedInference:
    def test_encode_shape_and_identical_smiles(self):
        smiles = ["CCO", "c1ccccc1", "CC(=O)O", "CCO"]
        params = init_params(["T0"], embed_dim=12, n_layers=2, head_hidden=8, seed=0)
        emb = encode_graphs([featurize_smiles(s) for s in smiles], params)
        assert emb.shape == (4, 12)
        np.testing.assert_array_equal(emb[0], emb[3])  # identical SMILES

    def test_encode_atom_order_invariance(self):
        params = init_params(["T0"], embed_dim=8, n_layers=2, head_hidden=8, seed=1)
        emb = encode_graphs([featurize_smiles(s) for s in ["CC(=O)O", "OC(=O)C"]], params)
        np.testing.assert_allclose(emb[0], emb[1], atol=1e-9)

    def test_no_graphs_gives_empty_matrices(self):
        params = init_params(["a", "b", "c"], embed_dim=6, n_layers=1, head_hidden=4, seed=0)
        assert predict_graphs([], params).shape == (0, 3)
        assert predict_graphs([], params, [2]).shape == (0, 1)
        assert encode_graphs([], params).shape == (0, 6)

    def test_chunked_matches_one_batch(self):
        # more graphs than one inference chunk: every chunk boundary must
        # give, bit for bit, the rows a single packed batch gives
        pool = ["CCO", "c1ccccc1", "CC(=O)O", "CCN", "C1CC1", "CCCl", "OCCO"]
        graphs = [featurize_smiles(pool[i % len(pool)]) for i in range(INFERENCE_BATCH + 5)]
        params = init_params(["a", "b"], embed_dim=8, n_layers=2, head_hidden=8, seed=2)
        whole = GraphBatch.from_graphs(graphs)
        preds = predict_graphs(graphs, params)
        assert preds.shape == (len(graphs), 2)
        np.testing.assert_array_equal(preds.view(np.int64), predict(whole, params).view(np.int64))
        np.testing.assert_array_equal(
            predict_graphs(graphs, params, [1])[:, 0], preds[:, 1]
        )
        np.testing.assert_array_equal(
            encode_graphs(graphs, params).view(np.int64),
            gin_forward(whole, params, train=False).data.view(np.int64),
        )


class TestPerCompoundBits:
    """Eval-mode scores and embeddings are per compound: any slice of a
    batch, and any inference chunk size, gives each compound the bits the
    whole batch gives it.  A failure names the BLAS kernel it ran on."""

    SLICES = [
        (start, size)
        for start in (0, 13, 101)
        for size in [*range(1, 20), 37, 100, 255]
        if start + size <= 150
    ]

    @pytest.fixture(scope="class")
    def graphs(self):
        return synth_dataset(2, 150, 0)[0].graphs

    @staticmethod
    def _same(got, want, what):
        assert np.array_equal(got.view(np.int64), want.view(np.int64)), (
            f"{what} differs from the whole batch's rows "
            f"(BLAS core {blas_core()}, ROW_TILE {ops.ROW_TILE})"
        )

    @pytest.mark.parametrize("dims", [(32, 3), (256, 8)], ids=["32x3", "256x8"])
    def test_slices_match_whole_batch(self, graphs, dims):
        assert len(self.SLICES) == 62
        params = init_params(["a", "b"], embed_dim=dims[0], n_layers=dims[1],
                             head_hidden=dims[0], seed=0)
        whole = GraphBatch.from_graphs(graphs)
        scores, emb = predict(whole, params), gin_forward(whole, params).data
        for start, size in self.SLICES:
            batch = GraphBatch.from_graphs(graphs[start : start + size])
            rows = slice(start, start + size)
            self._same(predict(batch, params), scores[rows], f"predict[{rows}]")
            self._same(gin_forward(batch, params).data, emb[rows], f"embeddings[{rows}]")

    @pytest.mark.parametrize("dims", [(32, 3), (256, 8)], ids=["32x3", "256x8"])
    def test_chunk_size_moves_no_bit(self, graphs, dims, monkeypatch):
        params = init_params(["a", "b"], embed_dim=dims[0], n_layers=dims[1],
                             head_hidden=dims[0], seed=0)
        outputs = {}
        for chunk in (1, 3, 8, 256):
            monkeypatch.setattr(model_module, "INFERENCE_BATCH", chunk)
            outputs[chunk] = (predict_graphs(graphs, params), encode_graphs(graphs, params))
        for chunk, (scores, emb) in outputs.items():
            self._same(scores, outputs[256][0], f"predict_graphs at INFERENCE_BATCH={chunk}")
            self._same(emb, outputs[256][1], f"encode_graphs at INFERENCE_BATCH={chunk}")


class TestLazyBackwardLayouts:
    """A layout builds its backward slots on the first scatter, so batches
    packed only for eval-mode passes never build them."""

    LAYOUTS = ("neighbor_layout", "bond_layout", "pool_layout")

    def test_eval_packs_build_no_backward_slots(self, monkeypatch):
        pack, batches = GraphBatch.from_graphs, []
        monkeypatch.setattr(
            GraphBatch, "from_graphs", lambda graphs: batches.append(pack(graphs)) or batches[-1]
        )
        monkeypatch.setattr(model_module, "INFERENCE_BATCH", 2)
        ds, _ = synth_dataset(n_tasks=2, n_per_task=3, seed=0, noise_sigma=0.0)
        params = init_params(["a", "b"], embed_dim=8, n_layers=2, head_hidden=8, seed=0)
        predict_graphs(ds.graphs, params)
        encode_graphs(ds.graphs, params)
        # training's eval packs, kept for every epoch or encoded once: the
        # rows either mask labels are packed once, not once per mask
        both = SplitMasks(train=ds.label_mask, val=ds.label_mask)
        train_module._eval_losses(ds, both, None)(params)
        train_module._eval_losses(ds, both, params)(params)
        assert len(batches) == 8  # two chunks each for predict, encode and both eval modes
        for batch in batches:
            for name in self.LAYOUTS:
                assert "_uses" not in vars(getattr(batch, name)), name

    def test_backward_builds_them_once(self):
        batch = batch_of("CCO", "c1ccccc1", "C")
        params = init_params(["a"], embed_dim=8, n_layers=2, head_hidden=8, seed=0)
        tape = Tape()
        z = gin_forward(batch, params, train=True, rng_path=(0,), tape=tape)
        out = predict_heads(z, params, [0], train=True, rng_path=(0,), tape=tape)
        tape.backward(ops.mse_loss(out, np.zeros((3, 1)), tape=tape))
        for name in self.LAYOUTS:
            assert "_uses" in vars(getattr(batch, name)), name


class TestTapeFootprint:
    """After a train-mode forward and loss, each GIN layer's records hold
    float64 ``s`` (n x d), ``hidden`` (n x 2d) and ``x_hat`` (n x d), and
    bool masks for its two relus (n x 2d, n x d) and its dropout (n x d):
    36 n d bytes.  The heads, the pooling and the loss add little."""

    def test_held_bytes_within_per_layer_formula(self):
        embed_dim, n_layers = 32, 3
        ds, _ = synth_dataset(n_tasks=2, n_per_task=64, seed=0)
        batch = GraphBatch.from_graphs(ds.graphs)
        n_atoms = batch.atom_indices.shape[0]
        assert n_atoms == 581
        params = init_params(
            ds.task_names, embed_dim=embed_dim, n_layers=n_layers, head_hidden=32, seed=0
        )
        mask = np.ones(ds.labels.shape, dtype=bool)

        def forward_and_loss():
            tape = Tape()
            z = gin_forward(batch, params, train=True, rng_path=(1, 2), tape=tape)
            pred = predict_heads(z, params, train=True, rng_path=(1, 2), tape=tape)
            return tape, train_module.masked_loss(pred, ds.labels, mask, tape=tape)

        (tape, loss), _, held = traced_peak(forward_and_loss)
        assert held <= 1.1 * 36 * n_atoms * embed_dim * n_layers
        tape.backward(loss)


class TestInferenceFootprint:
    """An eval-mode forward holds one GIN layer's working set at a time:
    each intermediate dies once the next op has consumed it, and untaped
    ops build no backward-only array.  Its peak is about 5.7 n x d float64
    arrays, at its bond sums (the layer's input, the neighbour sum, the
    bond states, and the fold's zeroed output, its accumulator and one
    gathered slot column), whatever the number of layers; keeping the
    previous layer's arrays alive too measured 12.3."""

    @pytest.mark.parametrize("embed_dim,n_layers", [(32, 3), (256, 8)])
    def test_predict_peak_within_one_layer(self, embed_dim, n_layers):
        ds, _ = synth_dataset(n_tasks=2, n_per_task=64, seed=0)
        batch = GraphBatch.from_graphs(ds.graphs)
        n_atoms = batch.atom_indices.shape[0]
        assert n_atoms == 581
        params = init_params(
            ds.task_names, embed_dim=embed_dim, n_layers=n_layers, head_hidden=32, seed=0
        )
        want = predict(batch, params)
        got, peak, _ = traced_peak(lambda: predict(batch, params))
        np.testing.assert_array_equal(got.view(np.int64), want.view(np.int64))
        assert peak <= 7 * 8 * n_atoms * embed_dim


class TestEndToEndGradient:
    def test_all_parameter_classes(self):
        params = init_params(
            ["a", "b"], embed_dim=4, n_layers=2, head_hidden=6, seed=7
        )
        batch = batch_of("CC(=O)O", "c1ccncc1")
        labels = np.array([[1.0, 0.0], [0.0, 2.0]])
        mask = np.array([[1.0, 0.0], [1.0, 1.0]])

        def f(tape):
            z = gin_forward(
                batch,
                params,
                train=True,
                rng_path=(13, 0, 0),
                update_running=False,
                tape=tape,
            )
            matrix = predict_heads(
                z, params, [0, 1], train=True, rng_path=(13, 0, 0), tape=tape
            )
            total = ops.masked_sse(matrix, labels, mask, tape=tape)
            return ops.scale(total, 1.0 / mask.sum(), tape=tape)

        wrt = [p for _, p in params.named_parameters()]
        assert grad_check(f, wrt, h=1e-5) <= 1e-3


class TestFusedMessagePassing:
    """The fused segment_sum in gin_forward gives, bit for bit, what the
    two-op composition it replaced gave: embedding_lookup of one row per
    edge, then an np.add.at segment sum whose backward gathers up[edge_dst].
    The sulfur has in-degree 10 and the lone carbon has no neighbors.  The
    plain edge list comes from reference_pack, which TestPackingOracle ties
    to GraphBatch.from_graphs."""

    SMILES = ("[S](C)(C)(C)(C)(C)(C)(C)(C)(C)C", "CCO", "c1ccccc1O", "C")

    @staticmethod
    def _two_op_segment_sum(batch, edges):
        rows = {
            id(batch.neighbor_layout): edges.edge_src,
            id(batch.bond_layout): edges.edge_bond,
        }
        ids, n = edges.edge_dst, edges.n_nodes

        def segment_sum(values, layout, tape=None):
            per_edge = ops.embedding_lookup([values], rows[id(layout)][:, None], tape=tape)
            totals = np.zeros((n,) + values.shape[1:])
            np.add.at(totals, ids, per_edge.data)
            out = Tensor(totals)
            if tape is not None and per_edge.requires_grad:
                out.requires_grad = True
                tape.record(out, (per_edge,), lambda up: (up[ids],))
            return out

        return segment_sum

    @staticmethod
    def _gradients(batch, params):
        for _, p in params.named_parameters():
            p.grad = None
        tape = Tape()
        z = gin_forward(
            batch, params, train=True, rng_path=(3, 1), update_running=False, tape=tape
        )
        pred = predict_heads(z, params, [0], train=True, rng_path=(3, 1), tape=tape)
        labels = np.arange(batch.pool_layout.num_segments, dtype=np.float64)[:, None]
        tape.backward(ops.masked_sse(pred, labels, np.ones_like(labels), tape=tape))
        return {name: p.grad.copy() for name, p in params.named_parameters()}

    def test_predict_bit_identical(self, monkeypatch):
        batch = batch_of(*self.SMILES)
        _, edges = reference_pack([featurize_smiles(s) for s in self.SMILES])
        assert batch.neighbor_layout.counts.max() == 10
        params = init_params(["a", "b"], embed_dim=16, n_layers=3, head_hidden=8, seed=4)
        fused = predict(batch, params)
        monkeypatch.setattr(ops, "segment_sum", self._two_op_segment_sum(batch, edges))
        reference = predict(batch, params)
        np.testing.assert_array_equal(fused.view(np.int64), reference.view(np.int64))

    def test_train_gradients_bit_identical(self, monkeypatch):
        batch = batch_of(*self.SMILES)
        _, edges = reference_pack([featurize_smiles(s) for s in self.SMILES])
        params = init_params(["a"], embed_dim=8, n_layers=2, head_hidden=8, seed=5)
        fused = self._gradients(batch, params)
        monkeypatch.setattr(ops, "segment_sum", self._two_op_segment_sum(batch, edges))
        reference = self._gradients(batch, params)
        assert fused.keys() == reference.keys()
        for name in fused:
            np.testing.assert_array_equal(
                fused[name].view(np.int64), reference[name].view(np.int64), err_msg=name
            )


class TestLeanTapeComposition:
    """gin_forward and the heads give, bit for bit, what the composition
    they replaced gave: one embedding lookup per table with an np.add.at
    backward, two-term adds, and a separate bias add after each matmul.
    Predictions, every parameter gradient and the batch-norm running
    statistics are compared, with and without bonds in the batch."""

    @staticmethod
    def _unfused(monkeypatch):
        add, matmul = ops.add, ops.matmul

        def pairwise_add(*terms, tape=None):
            out = terms[0]
            for term in terms[1:]:
                out = add(out, term, tape=tape)
            return out

        def lookup(table, column, tape):
            out = Tensor(table.data[column])
            if tape is not None:
                out.requires_grad = True

                def backward(up):
                    grad = np.zeros_like(table.data)
                    np.add.at(grad, column, up)
                    return (grad,)

                tape.record(out, (table,), backward)
            return out

        def per_table_lookup(tables, indices, tape=None):
            rows = [lookup(t, indices[:, j], tape) for j, t in enumerate(tables)]
            return pairwise_add(*rows, tape=tape)

        def unbiased_matmul(a, b, bias=None, tape=None):
            out = matmul(a, b, tape=tape)
            return out if bias is None else add(out, bias, tape=tape)

        monkeypatch.setattr(ops, "add", pairwise_add)
        monkeypatch.setattr(ops, "embedding_lookup", per_table_lookup)
        monkeypatch.setattr(ops, "matmul", unbiased_matmul)

    @staticmethod
    def _step(batch, params):
        """One train step's predictions, gradients and running statistics,
        then eval-mode predictions."""
        tape = Tape()
        z = gin_forward(batch, params, train=True, rng_path=(5, 2), tape=tape)
        matrix = predict_heads(z, params, [0, 1], train=True, rng_path=(5, 2), tape=tape)
        labels = np.arange(2.0 * batch.pool_layout.num_segments).reshape(-1, 2)
        tape.backward(ops.masked_sse(matrix, labels, np.ones_like(labels), tape=tape))
        out = {name: p.grad for name, p in params.named_parameters()}
        out.update(params.state)
        out["train_pred"] = matrix.data
        out["eval_pred"] = predict(batch, params)
        return out

    @pytest.mark.parametrize(
        "smiles",
        [TestFusedMessagePassing.SMILES + ("C1CC1C(=O)N",), ("C", "[Na+]")],
        ids=["bonds", "bondless"],
    )
    def test_train_step_bit_identical(self, monkeypatch, smiles):
        batch = batch_of(*smiles)
        params = init_params(["a", "b"], embed_dim=16, n_layers=3, head_hidden=8, seed=6)
        lean = self._step(batch, params.copy())
        self._unfused(monkeypatch)
        reference = self._step(batch, params.copy())
        assert lean.keys() == reference.keys()
        for name, value in lean.items():
            if value is None:  # bond tables of a bondless batch
                assert reference[name] is None, name
                continue
            np.testing.assert_array_equal(
                value.view(np.int64), reference[name].view(np.int64), err_msg=name
            )
