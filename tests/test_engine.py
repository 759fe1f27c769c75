"""Engine tests: finite-difference oracles per primitive, Adam vs a
hand-rolled reference, tape behavior, and RNG stream determinism."""

import sys
import weakref
from pathlib import Path

import numpy as np
import pytest

from molscreen.engine import (
    AdamState,
    NonFiniteGradientError,
    Tape,
    Tensor,
    adam_step,
    rng_stream,
)
from molscreen.engine import ops

sys.path.insert(0, str(Path(__file__).parent))
from gradcheck import grad_check  # noqa: E402
from helpers import traced_peak  # noqa: E402


def initial_running(n):
    """Batch norm's initial running mean and variance over n features."""
    return np.zeros(n), np.ones(n)


def fd_grad(f, x, h=1e-6):
    """Central-difference gradient of scalar f with respect to array x."""
    g = np.zeros_like(x)
    flat = x.reshape(-1)
    out = g.reshape(-1)
    for i in range(flat.size):
        orig = flat[i]
        flat[i] = orig + h
        plus = f()
        flat[i] = orig - h
        minus = f()
        flat[i] = orig
        out[i] = (plus - minus) / (2 * h)
    return g


class TestTensor:
    def test_data_is_float64(self):
        t = Tensor([1, 2, 3])
        assert t.data.dtype == np.float64
        assert t.shape == (3,)

    def test_grad_starts_unset(self):
        assert Tensor([1.0], requires_grad=True).grad is None


class TestTapeBasics:
    def test_square_gradient(self):
        x = Tensor([1.0, -2.0, 3.0], requires_grad=True)
        tape = Tape()
        loss = ops.mse_loss(x, np.zeros(3), tape=tape)
        tape.backward(loss)
        np.testing.assert_allclose(x.grad, 2 * x.data / 3, rtol=1e-15)

    def test_grad_accumulates_across_reuse(self):
        x = Tensor([[1.0, 2.0]], requires_grad=True)
        tape = Tape()
        y = ops.add(x, x, tape=tape)
        loss = ops.mse_loss(y, np.zeros((1, 2)), tape=tape)
        tape.backward(loss)
        # loss = mean((2x)^2), so dloss/dx = 4x; both add inputs contribute
        np.testing.assert_allclose(x.grad, 4 * x.data, rtol=1e-15)

    def test_untouched_parameter_has_no_grad(self):
        x = Tensor([1.0], requires_grad=True)
        unused = Tensor([1.0], requires_grad=True)
        tape = Tape()
        loss = ops.mse_loss(x, np.zeros(1), tape=tape)
        tape.backward(loss)
        assert unused.grad is None

    def test_backward_requires_scalar(self):
        x = Tensor([1.0, 2.0], requires_grad=True)
        tape = Tape()
        y = ops.relu(x, tape=tape)
        with pytest.raises(ValueError):
            tape.backward(y)

    def test_no_tape_records_nothing(self):
        x = Tensor([1.0], requires_grad=True)
        y = ops.relu(x)
        assert y.requires_grad is False


class TestTapeRelease:
    """backward pops each record as it runs it and drops the output's
    gradient, so only leaf tensors keep .grad and saved arrays die
    during the pass."""

    def test_only_leaves_keep_grad_and_closures_are_freed(self):
        rng = np.random.default_rng(11)
        x = Tensor(rng.normal(size=(4, 3)), requires_grad=True)
        w = Tensor(rng.normal(size=(3, 2)), requires_grad=True)
        bias = Tensor(rng.normal(size=(2,)), requires_grad=True)
        target = rng.normal(size=(4, 2))
        tape = Tape()
        # a pass-through op recorded first, so its backward runs last
        probe = Tensor(x.data.copy(), requires_grad=True)
        seen = {}

        def probe_backward(up):
            seen["hidden"] = hidden_ref()
            return (up,)

        tape.record(probe, (x,), probe_backward)
        hidden = ops.relu(probe, tape=tape)
        # only the relu output and matmul's closure hold this array
        hidden_ref = weakref.ref(hidden.data)
        out = ops.matmul(hidden, w, bias, tape=tape)
        loss = ops.masked_sse(out, target, np.ones_like(target), tape=tape)
        non_leaves = [probe, out, loss]
        keep = probe.data > 0
        del hidden
        assert hidden_ref() is not None
        tape.backward(loss)

        assert seen["hidden"] is None
        assert all(t.grad is None for t in non_leaves)
        d_out = 2.0 * (np.maximum(probe.data, 0.0) @ w.data + bias.data - target)
        d_hidden = (d_out @ w.data.T) * keep
        _assert_same_bits(w.grad, np.maximum(probe.data, 0.0).T @ d_out + 0.0)
        _assert_same_bits(bias.grad, d_out.sum(axis=0) + 0.0)
        _assert_same_bits(x.grad, d_hidden + 0.0)

    def test_tape_keeps_only_what_backward_reads(self):
        """The tape holds no op's output: once the caller drops its names,
        a matmul's output, a batch norm's input and output and a relu's
        output are dead before backward, and dropout keeps its mask, not
        its input.
        Matmul's operands live until its record runs; the gradients are
        the hand-computed ones, bit for bit."""
        rng = np.random.default_rng(12)
        x = Tensor(rng.normal(size=(6, 4)), requires_grad=True)
        w = Tensor(rng.normal(size=(4, 3)), requires_grad=True)
        gamma = Tensor(rng.normal(size=(3,)), requires_grad=True)
        beta = Tensor(rng.normal(size=(3,)), requires_grad=True)
        target = rng.normal(size=(6, 3))
        tape = Tape()
        # matmul's left operand, produced by a pass-through scale recorded
        # first, so its backward runs last
        s = Tensor(x.data * 2.0, requires_grad=True)
        seen = {}

        def probe_backward(up):
            seen["operand"] = operand_ref()
            return (up * 2.0,)

        tape.record(s, (x,), probe_backward)
        product = ops.matmul(s, w, tape=tape)
        bn_input = ops.relu(product, tape=tape)
        normed = ops.batch_norm(
            bn_input, gamma, beta, *initial_running(3), train=True, tape=tape
        )
        dropout_input = ops.relu(normed, tape=tape)
        dropped = ops.dropout(dropout_input, 0.25, rng_stream(4), tape=tape)
        loss = ops.masked_sse(dropped, target, np.ones_like(target), tape=tape)
        operand_ref = weakref.ref(s.data)
        dead = {
            "matmul output": weakref.ref(product.data),
            "relu output, batch-norm input": weakref.ref(bn_input.data),
            "batch-norm output": weakref.ref(normed.data),
            "relu output, dropout input": weakref.ref(dropout_input.data),
        }
        del s, product, bn_input, normed, dropout_input, dropped
        assert [name for name, ref in dead.items() if ref() is not None] == []
        assert operand_ref() is not None
        tape.backward(loss)
        assert seen["operand"] is None

        s_data = x.data * 2.0
        product = s_data @ w.data
        bn_input = np.fmax(product, 0.0) + 0.0
        inv_std = 1.0 / np.sqrt(bn_input.var(axis=0) + ops.BN_EPS)
        x_hat = (bn_input - bn_input.mean(axis=0)) * inv_std
        normed = gamma.data * x_hat + beta.data
        keep = rng_stream(4).random(normed.shape) >= 0.25
        dropped = (np.fmax(normed, 0.0) + 0.0) * (keep / 0.75)
        d_normed = 2.0 * (dropped - target) * (keep / 0.75) * (normed > 0)
        d_hat = d_normed * gamma.data
        d_bn_input = (
            inv_std / 6 * (6 * d_hat - d_hat.sum(axis=0) - x_hat * (d_hat * x_hat).sum(axis=0))
        )
        d_product = d_bn_input * (product > 0)
        _assert_same_bits(x.grad, (d_product @ w.data.T) * 2.0 + 0.0)
        _assert_same_bits(w.grad, s_data.T @ d_product + 0.0)
        _assert_same_bits(gamma.grad, (d_normed * x_hat).sum(axis=0) + 0.0)
        _assert_same_bits(beta.grad, d_normed.sum(axis=0) + 0.0)

    def test_tape_runs_backward_once(self):
        x = Tensor(np.array([[1.0, -2.0]]), requires_grad=True)
        tape = Tape()
        loss = ops.masked_sse(
            ops.relu(x, tape=tape), np.zeros((1, 2)), np.ones((1, 2)), tape=tape
        )
        tape.backward(loss)
        first = x.grad.copy()
        tape.backward(loss)
        _assert_same_bits(x.grad, first)


class TestPrimitiveGradients:
    def setup_method(self):
        self.rng = np.random.default_rng(7)

    def _check(self, build, wrt, tol=1e-6):
        tape = Tape()
        loss = build(tape)
        tape.backward(loss)
        for t in wrt:
            analytic = t.grad if t.grad is not None else np.zeros_like(t.data)
            numeric = fd_grad(lambda: build(None).item(), t.data)
            np.testing.assert_allclose(analytic, numeric, rtol=tol, atol=tol)

    def test_matmul(self):
        a = Tensor(self.rng.normal(size=(3, 4)), requires_grad=True)
        b = Tensor(self.rng.normal(size=(4, 2)), requires_grad=True)
        target = self.rng.normal(size=(3, 2))

        def build(tape):
            return ops.mse_loss(ops.matmul(a, b, tape=tape), target, tape=tape)

        self._check(build, [a, b])

    def test_add_same_shape(self):
        a = Tensor(self.rng.normal(size=(2, 3)), requires_grad=True)
        b = Tensor(self.rng.normal(size=(2, 3)), requires_grad=True)
        target = self.rng.normal(size=(2, 3))

        def build(tape):
            return ops.mse_loss(ops.add(a, b, tape=tape), target, tape=tape)

        self._check(build, [a, b])

    def test_add_bias_broadcast(self):
        x = Tensor(self.rng.normal(size=(5, 3)), requires_grad=True)
        bias = Tensor(self.rng.normal(size=(3,)), requires_grad=True)
        target = self.rng.normal(size=(5, 3))

        def build(tape):
            return ops.mse_loss(ops.add(x, bias, tape=tape), target, tape=tape)

        self._check(build, [x, bias])

    def test_scale(self):
        x = Tensor(self.rng.normal(size=(4,)), requires_grad=True)

        def build(tape):
            return ops.mse_loss(ops.scale(x, -2.5, tape=tape), np.ones(4), tape=tape)

        self._check(build, [x])

    def test_relu(self):
        # keep inputs away from the kink
        data = self.rng.normal(size=(4, 3))
        data[np.abs(data) < 0.1] += 0.2
        x = Tensor(data, requires_grad=True)
        target = self.rng.normal(size=(4, 3))

        def build(tape):
            return ops.mse_loss(ops.relu(x, tape=tape), target, tape=tape)

        self._check(build, [x])

    def test_dropout_fixed_mask(self):
        x = Tensor(self.rng.normal(size=(6, 5)) + 3.0, requires_grad=True)
        target = self.rng.normal(size=(6, 5))

        def build(tape):
            out = ops.dropout(x, rate=0.4, rng=rng_stream(11, 0), tape=tape)
            return ops.mse_loss(out, target, tape=tape)

        self._check(build, [x])

    def test_embedding_lookup_accumulates_duplicates(self):
        table = Tensor(self.rng.normal(size=(5, 3)), requires_grad=True)
        idx = np.array([0, 2, 2, 4])
        target = self.rng.normal(size=(4, 3))

        def build(tape):
            return ops.mse_loss(
                ops.embedding_lookup([table], idx[:, None], tape=tape), target, tape=tape
            )

        self._check(build, [table])

    def test_embedding_lookup_sums_tables(self):
        tables = [
            Tensor(self.rng.normal(size=(rows, 3)), requires_grad=True)
            for rows in (5, 2, 4)
        ]
        idx = np.array([[0, 1, 3], [2, 0, 3], [2, 1, 0], [4, 1, 1]])
        target = self.rng.normal(size=(4, 3))

        def build(tape):
            return ops.mse_loss(
                ops.embedding_lookup(tables, idx, tape=tape), target, tape=tape
            )

        self._check(build, tables)

    def test_add_many_terms_with_bias(self):
        terms = [
            Tensor(self.rng.normal(size=(4, 3)), requires_grad=True) for _ in range(3)
        ]
        bias = Tensor(self.rng.normal(size=(3,)), requires_grad=True)
        target = self.rng.normal(size=(4, 3))

        def build(tape):
            return ops.mse_loss(ops.add(*terms, bias, tape=tape), target, tape=tape)

        self._check(build, terms + [bias])

    def test_matmul_with_bias(self):
        a = Tensor(self.rng.normal(size=(3, 4)), requires_grad=True)
        b = Tensor(self.rng.normal(size=(4, 2)), requires_grad=True)
        bias = Tensor(self.rng.normal(size=(2,)), requires_grad=True)
        target = self.rng.normal(size=(3, 2))

        def build(tape):
            return ops.mse_loss(ops.matmul(a, b, bias, tape=tape), target, tape=tape)

        self._check(build, [a, b, bias])

    def test_segment_sum(self):
        x = Tensor(self.rng.normal(size=(6, 2)), requires_grad=True)
        ids = np.array([1, 0, 1, 3, 0, 1])
        target = self.rng.normal(size=(4, 2))

        def build(tape):
            return ops.mse_loss(
                ops.segment_sum(x, ops.SegmentLayout(ids, 4), tape=tape),
                target,
                tape=tape,
            )

        self._check(build, [x])

    def test_segment_sum_gathers_rows(self):
        # the message-passing form: rows used several times or never,
        # a segment of 10 terms and an empty segment
        x = Tensor(self.rng.normal(size=(5, 2)), requires_grad=True)
        ids = np.array([2, 0, 2, 0] + [3] * 10)
        rows = np.array([4, 1, 1, 0] + [0, 1, 4, 4, 1, 0, 0, 1, 4, 1])
        layout = ops.SegmentLayout(ids, 5, rows=rows, num_rows=5)
        target = self.rng.normal(size=(5, 2))

        def build(tape):
            return ops.mse_loss(ops.segment_sum(x, layout, tape=tape), target, tape=tape)

        assert grad_check(build, [x]) <= 1e-6

    def test_segment_mean(self):
        x = Tensor(self.rng.normal(size=(6, 2)), requires_grad=True)
        ids = np.array([0, 0, 1, 1, 1, 3])
        target = self.rng.normal(size=(4, 2))

        def build(tape):
            return ops.mse_loss(
                ops.segment_mean(x, ops.SegmentLayout(ids, 4), tape=tape),
                target,
                tape=tape,
            )

        self._check(build, [x])

    def test_batch_norm_train(self):
        x = Tensor(self.rng.normal(size=(8, 3)) * 2.0, requires_grad=True)
        gamma = Tensor(self.rng.normal(size=(3,)) + 1.0, requires_grad=True)
        beta = Tensor(self.rng.normal(size=(3,)), requires_grad=True)
        target = self.rng.normal(size=(8, 3))

        def build(tape):
            out = ops.batch_norm(
                x, gamma, beta, *initial_running(3), train=True, update_running=False, tape=tape
            )
            return ops.mse_loss(out, target, tape=tape)

        self._check(build, [x, gamma, beta], tol=1e-5)

    def test_batch_norm_eval_is_forward_only(self):
        x = Tensor(self.rng.normal(size=(4, 3)), requires_grad=True)
        gamma = Tensor(np.ones(3), requires_grad=True)
        beta = Tensor(np.zeros(3), requires_grad=True)
        tape = Tape()
        with pytest.raises(ValueError, match="forward-only"):
            ops.batch_norm(x, gamma, beta, *initial_running(3), train=False, tape=tape)
        assert not tape._records

    def test_masked_sse(self):
        pred = Tensor(self.rng.normal(size=(4, 2)), requires_grad=True)
        target = self.rng.normal(size=(4, 2))
        mask = np.array([[1, 0], [0, 0], [1, 1], [0, 1]], dtype=float)

        def build(tape):
            return ops.masked_sse(pred, target, mask, tape=tape)

        self._check(build, [pred])

    def test_concat_columns(self):
        a = Tensor(self.rng.normal(size=(3, 1)), requires_grad=True)
        b = Tensor(self.rng.normal(size=(3, 2)), requires_grad=True)
        target = self.rng.normal(size=(3, 3))

        def build(tape):
            return ops.mse_loss(
                ops.concat_columns([a, b], tape=tape), target, tape=tape
            )

        self._check(build, [a, b])

    def test_two_layer_mlp_end_to_end(self):
        w1 = Tensor(self.rng.normal(size=(4, 6)) * 0.5, requires_grad=True)
        b1 = Tensor(self.rng.normal(size=(6,)), requires_grad=True)
        w2 = Tensor(self.rng.normal(size=(6, 1)) * 0.5, requires_grad=True)
        b2 = Tensor(self.rng.normal(size=(1,)), requires_grad=True)
        x = Tensor(self.rng.normal(size=(5, 4)))
        target = self.rng.normal(size=(5, 1))

        def build(tape):
            h = ops.relu(ops.add(ops.matmul(x, w1, tape=tape), b1, tape=tape), tape=tape)
            out = ops.add(ops.matmul(h, w2, tape=tape), b2, tape=tape)
            return ops.mse_loss(out, target, tape=tape)

        self._check(build, [w1, b1, w2, b2])


class TestDropoutSemantics:
    def test_inverted_scaling(self):
        x = Tensor(np.ones((2000, 10)))
        out = ops.dropout(x, rate=0.3, rng=rng_stream(3))
        kept = out.data[out.data != 0]
        np.testing.assert_allclose(kept, 1.0 / 0.7, rtol=1e-12)
        zero_fraction = np.mean(out.data == 0)
        assert abs(zero_fraction - 0.3) < 0.02

    def test_same_stream_same_mask(self):
        x = Tensor(np.ones((50, 4)))
        a = ops.dropout(x, rate=0.5, rng=rng_stream(9, 1, 2))
        b = ops.dropout(x, rate=0.5, rng=rng_stream(9, 1, 2))
        np.testing.assert_array_equal(a.data, b.data)

    def test_rate_zero_is_rejected(self):
        # rate 0 is no dropout: callers skip the op instead of calling it
        x = Tensor(np.arange(6.0).reshape(2, 3))
        with pytest.raises(ValueError, match=r"\(0, 1\)"):
            ops.dropout(x, rate=0.0, rng=rng_stream(0))

    def test_invalid_rate(self):
        x = Tensor(np.ones(3))
        with pytest.raises(ValueError):
            ops.dropout(x, rate=1.0, rng=rng_stream(0))
        with pytest.raises(ValueError):
            ops.dropout(x, rate=-0.1, rng=rng_stream(0))


class TestSegmentSemantics:
    def test_segment_sum_values(self):
        x = Tensor(np.array([[1.0], [2.0], [3.0]]))
        out = ops.segment_sum(x, ops.SegmentLayout(np.array([0, 0, 1]), 2))
        np.testing.assert_array_equal(out.data, [[3.0], [3.0]])

    def test_segment_mean_values(self):
        x = Tensor(np.array([[1.0], [2.0], [3.0]]))
        out = ops.segment_mean(x, ops.SegmentLayout(np.array([0, 0, 1]), 2))
        np.testing.assert_array_equal(out.data, [[1.5], [3.0]])

    def test_unsorted_ids(self):
        x = Tensor(np.array([[1.0], [2.0], [3.0], [4.0]]))
        out = ops.segment_sum(x, ops.SegmentLayout(np.array([1, 0, 1, 0]), 2))
        np.testing.assert_array_equal(out.data, [[6.0], [4.0]])

    def test_empty_segments_are_zero(self):
        x = Tensor(np.array([[5.0]]))
        layout = ops.SegmentLayout(np.array([2]), 4)
        out = ops.segment_sum(x, layout)
        np.testing.assert_array_equal(out.data, [[0.0], [0.0], [5.0], [0.0]])
        out = ops.segment_mean(x, layout)
        np.testing.assert_array_equal(out.data, [[0.0], [0.0], [5.0], [0.0]])

    def test_length_mismatch(self):
        x = Tensor(np.ones((3, 1)))
        with pytest.raises(ValueError):
            ops.segment_sum(x, ops.SegmentLayout(np.array([0, 1]), 2))

    def test_gathered_rows(self):
        x = Tensor(np.array([[1.0], [10.0], [100.0]]))
        layout = ops.SegmentLayout(
            np.array([1, 0, 1]), 3, rows=np.array([2, 2, 0]), num_rows=3
        )
        out = ops.segment_sum(x, layout)
        np.testing.assert_array_equal(out.data, [[100.0], [101.0], [0.0]])

    @pytest.mark.parametrize(
        "ids, num_segments, rows, num_rows",
        [
            ([0, 2], 2, None, None),  # segment id out of range
            ([0, -1], 2, None, None),
            ([0, 1], 2, [0, 3], 3),  # value row out of range
            ([0, 1], 2, [0], 3),  # one row per term
            ([0, 1], 2, [0, 1], None),  # explicit rows need num_rows
            ([[0, 1]], 2, None, None),  # ids must be 1-D
        ],
    )
    def test_bad_layout_rejected(self, ids, num_segments, rows, num_rows):
        with pytest.raises(ValueError):
            ops.SegmentLayout(np.array(ids), num_segments, rows=rows, num_rows=num_rows)


class _Capture(Tape):
    """A tape that keeps the last recorded backward closure, so a test can
    feed it an arbitrary upstream gradient."""

    def record(self, output, inputs, backward_fn):
        self.backward_fn = backward_fn
        super().record(output, inputs, backward_fn)


def _add_at(num_rows, index, terms):
    grad = np.zeros((num_rows,) + terms.shape[1:])
    np.add.at(grad, index, terms)
    return grad


def _assert_same_bits(actual, expected):
    assert actual.shape == expected.shape
    np.testing.assert_array_equal(actual.view(np.int64), expected.view(np.int64))


class TestSegmentExactness:
    """The slot-layout ops reproduce, bit for bit, np.add.at of the
    gathered terms into zeros, forward and backward, -0.0 included."""

    def _values(self, rng, shape):
        # magnitudes over 16 decades so rounding order shows, and signed zeros
        data = rng.normal(size=shape) * 10.0 ** rng.integers(-8, 8, size=shape)
        data[rng.random(shape) < 0.15] = -0.0
        data[rng.random(shape) < 0.05] = 0.0
        return data

    def _layout(self, rng):
        # segment lengths: empty, short, and 64 terms over as many slot columns
        num_segments = int(rng.integers(1, 25))
        lengths = rng.choice(
            [0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 12, 20, 64], size=num_segments
        )
        ids = rng.permutation(np.repeat(np.arange(num_segments), lengths))
        num_rows = int(rng.integers(1, 30))
        rows = rng.integers(0, num_rows, size=ids.size)
        return ids, rows, num_segments, num_rows

    @pytest.mark.parametrize("width", [1, 3, 16])
    def test_forward_matches_gather_and_reduceat(self, width):
        rng = np.random.default_rng(100 + width)
        for _ in range(60):
            ids, rows, num_segments, num_rows = self._layout(rng)
            data = self._values(rng, (num_rows, width))
            layout = ops.SegmentLayout(ids, num_segments, rows=rows, num_rows=num_rows)
            expected = _add_at(num_segments, ids, data[rows])
            _assert_same_bits(ops.segment_sum(Tensor(data), layout).data, expected)

    @pytest.mark.parametrize("width", [1, 3, 16])
    def test_backward_matches_add_at(self, width):
        rng = np.random.default_rng(200 + width)
        for _ in range(60):
            ids, rows, num_segments, num_rows = self._layout(rng)
            layout = ops.SegmentLayout(ids, num_segments, rows=rows, num_rows=num_rows)
            tape = _Capture()
            ops.segment_sum(
                Tensor(np.ones((num_rows, width)), requires_grad=True), layout, tape=tape
            )
            up = self._values(rng, (num_segments, width))
            (grad,) = tape.backward_fn(up)
            _assert_same_bits(grad, _add_at(num_rows, rows, up[ids]))

    @pytest.mark.parametrize("width", [1, 3, 16])
    def test_segment_mean_matches_reduceat(self, width):
        rng = np.random.default_rng(300 + width)
        for _ in range(60):
            ids, _, num_segments, _ = self._layout(rng)
            data = self._values(rng, (ids.size, width))
            tape = _Capture()
            out = ops.segment_mean(
                Tensor(data, requires_grad=True), ops.SegmentLayout(ids, num_segments),
                tape=tape,
            )
            counts = np.bincount(ids, minlength=num_segments)
            divisor = np.maximum(counts, 1).astype(np.float64)[:, None]
            _assert_same_bits(out.data, _add_at(num_segments, ids, data) / divisor)
            up = self._values(rng, (num_segments, width))
            (grad,) = tape.backward_fn(up)
            # the old backward gathered (up / divisor)[ids]; the tape's first
            # write adds it to +0.0, which is what reached the gradient
            _assert_same_bits(grad, (up / divisor)[ids] + 0.0)

    @pytest.mark.parametrize("width", [1, 3, 16])
    def test_embedding_backward_matches_add_at(self, width):
        rng = np.random.default_rng(400 + width)
        for _ in range(60):
            table_rows = int(rng.integers(1, 12))
            # some rows used once, some many times (beyond any short path)
            indices = rng.integers(0, table_rows, size=int(rng.integers(0, 60)))
            table = Tensor(np.ones((table_rows, width)), requires_grad=True)
            tape = _Capture()
            ops.embedding_lookup([table], indices[:, None], tape=tape)
            up = self._values(rng, (indices.size, width))
            (grad,) = tape.backward_fn(up)
            _assert_same_bits(grad, _add_at(table_rows, indices, up))

    @pytest.mark.parametrize("width", [1, 3, 16])
    def test_summed_tables_match_chained_adds_and_add_at(self, width):
        # references: chained two-term adds T0[i0] + T1[i1] + ... forward,
        # and np.add.at of the shared upstream rows for each table
        rng = np.random.default_rng(500 + width)
        for _ in range(40):
            sizes = rng.integers(1, 12, size=int(rng.integers(1, 5)))
            # up to 300 uses so that any pairwise blocking would show
            n = int(rng.integers(0, 300))
            indices = np.stack([rng.integers(0, r, size=n) for r in sizes], axis=1)
            tables = [
                Tensor(self._values(rng, (int(r), width)), requires_grad=True)
                for r in sizes
            ]
            tape = _Capture()
            out = ops.embedding_lookup(tables, indices, tape=tape)
            expected = tables[0].data[indices[:, 0]]
            for j in range(1, len(tables)):
                expected = expected + tables[j].data[indices[:, j]]
            _assert_same_bits(out.data, expected)
            up = self._values(rng, (n, width))
            grads = tape.backward_fn(up)
            assert len(grads) == len(tables)
            for j, grad in enumerate(grads):
                _assert_same_bits(grad, _add_at(int(sizes[j]), indices[:, j], up))

    def test_first_gradient_write_is_exact_and_unaliased(self):
        # add passes the same upstream array to both inputs
        a = Tensor(np.array([[1.0, -2.0]]), requires_grad=True)
        b = Tensor(np.array([[3.0, 2.0]]), requires_grad=True)
        tape = Tape()
        total = ops.add(a, b, tape=tape)
        loss = ops.masked_sse(total, np.zeros((1, 2)), np.ones((1, 2)), tape=tape)
        tape.backward(loss)
        _assert_same_bits(a.grad, np.array([[8.0, 0.0]]))
        assert not np.shares_memory(a.grad, b.grad)
        a.grad += 1.0
        _assert_same_bits(b.grad, np.array([[8.0, 0.0]]))


class TestReluExactness:
    """relu gives the bits np.where(x > 0, x, 0.0) gave: -0.0, NaN of
    either sign and negative subnormals become +0.0; +inf and positive
    subnormals pass through."""

    SPECIAL = np.array(
        [0.0, -0.0, np.nan, -np.nan, np.inf, -np.inf, 5e-324, -5e-324,
         2.2e-308, -2.2e-308, 1.0, -1.0]
    )

    def _values(self, n, seed):
        rng = np.random.default_rng(seed)
        values = rng.normal(size=n) * 10.0 ** rng.integers(-300, 300, size=n)
        pick = rng.random(n) < 0.5
        values[pick] = rng.choice(self.SPECIAL, size=int(pick.sum()))
        # every special value at least once where the length allows
        k = min(n, self.SPECIAL.size)
        values[rng.permutation(n)[:k]] = rng.permutation(self.SPECIAL)[:k]
        return values

    @pytest.mark.parametrize("n", list(range(1, 70)) + [1000, 4097, 65537])
    def test_bits_match_where_reference(self, n):
        base = self._values(n + 3, n)
        views = [base[:n], base[1 : n + 1], base[3:], base[::2], base[::-1]]
        if n % 2 == 0:
            views.append(base[:n].reshape(2, -1).T)
        for view in views:
            got = ops.relu(Tensor(view)).data
            want = np.where(view > 0, view, 0.0)
            assert got.shape == want.shape
            np.testing.assert_array_equal(
                np.ascontiguousarray(got).view(np.int64),
                np.ascontiguousarray(want).view(np.int64),
            )


class TestMatmulRows:
    """Every product is row-tiled, taped (train) or not: each row of the
    output has the bits of that row of ``a`` multiplied alone, whatever the
    row count and wherever the row falls in its tile."""

    @pytest.mark.parametrize("n", range(1, 20))
    def test_taped_rows_equal_rows_alone(self, n):
        rng = np.random.default_rng(n)
        a, b = rng.normal(size=(n, 512)), rng.normal(size=(512, 256))
        out = ops.matmul(
            Tensor(a, requires_grad=True), Tensor(b, requires_grad=True), tape=Tape()
        ).data
        for i in range(n):
            alone = ops.matmul(Tensor(a[i : i + 1]), Tensor(b)).data
            _assert_same_bits(out[i : i + 1], alone)


class TestUntapedOps:
    """Without a tape an op builds no array that only backward reads:
    relu no mask, batch norm no separate ``x_hat``.  So each allocates
    little beyond its output, and gives the taped op's bits and the
    formula's."""

    def _x(self):
        # 2 MiB, so numpy's fixed 64 KiB broadcasting buffer stays under 10%
        x = np.random.default_rng(0).normal(loc=0.5, scale=3.0, size=(2048, 128))
        x.flat[:4] = [0.0, -0.0, np.nan, -np.nan]
        return x

    def test_relu_allocates_its_output_alone(self):
        x = self._x()
        out, peak, _ = traced_peak(lambda: ops.relu(Tensor(x)))
        assert peak <= 1.1 * out.data.nbytes
        taped = ops.relu(Tensor(x, requires_grad=True), tape=Tape())
        for got in (out.data, taped.data):
            _assert_same_bits(got, np.where(x > 0, x, 0.0))

    @pytest.mark.parametrize("train", [False, True])
    def test_batch_norm_allocates_its_output_alone(self, train):
        x = self._x()[4:]  # finite rows, so the batch statistics are
        rng = np.random.default_rng(1)
        gamma, beta = rng.normal(size=128), rng.normal(size=128)
        running_mean, running_var = rng.normal(size=128), rng.uniform(0.5, 2.0, size=128)

        def call(tape=None, requires_grad=False):
            return ops.batch_norm(
                Tensor(x, requires_grad=requires_grad), Tensor(gamma, requires_grad),
                Tensor(beta, requires_grad), running_mean, running_var, train=train,
                update_running=False, tape=tape,
            )

        out, peak, _ = traced_peak(call)
        assert peak <= 1.1 * out.data.nbytes
        mean, var = (x.mean(axis=0), x.var(axis=0)) if train else (running_mean, running_var)
        want = gamma * ((x - mean) * (1.0 / np.sqrt(var + ops.BN_EPS))) + beta
        _assert_same_bits(out.data, want)
        if train:  # eval-mode batch norm takes no tape
            _assert_same_bits(call(Tape(), requires_grad=True).data, want)


class TestBatchNormSemantics:
    def test_train_normalizes_batch(self):
        rng = np.random.default_rng(0)
        x = Tensor(rng.normal(loc=5.0, scale=20.0, size=(64, 4)))
        gamma = Tensor(np.ones(4))
        beta = Tensor(np.zeros(4))
        running_mean, running_var = initial_running(4)
        out = ops.batch_norm(x, gamma, beta, running_mean, running_var, train=True)
        mean = out.data.mean(axis=0)
        var = out.data.var(axis=0)
        assert np.all(np.abs(mean) < 1e-6)
        assert np.all(np.abs(var - 1.0) < 1e-6)

    def test_running_stats_update(self):
        x = Tensor(np.array([[1.0], [3.0]]))
        running_mean, running_var = initial_running(1)
        ops.batch_norm(x, Tensor(np.ones(1)), Tensor(np.zeros(1)), running_mean, running_var, train=True)
        # momentum 0.1 against initial mean 0, var 1; batch mean 2, var 1
        np.testing.assert_allclose(running_mean, [0.2], rtol=1e-12)
        np.testing.assert_allclose(running_var, [1.0], rtol=1e-12)

    def test_update_can_be_frozen(self):
        x = Tensor(np.array([[1.0], [3.0]]))
        running_mean, running_var = initial_running(1)
        ops.batch_norm(
            x, Tensor(np.ones(1)), Tensor(np.zeros(1)), running_mean, running_var,
            train=True, update_running=False,
        )
        np.testing.assert_array_equal(running_mean, [0.0])
        np.testing.assert_array_equal(running_var, [1.0])

    def test_eval_uses_running_stats(self):
        running_mean, running_var = initial_running(2)
        running_mean[:] = [1.0, -1.0]
        running_var[:] = [4.0, 0.25]
        x = Tensor(np.array([[3.0, 0.0]]))
        out = ops.batch_norm(
            x, Tensor(np.ones(2)), Tensor(np.zeros(2)), running_mean, running_var, train=False
        )
        expected = (x.data - running_mean) / np.sqrt(running_var + 1e-5)
        np.testing.assert_allclose(out.data, expected, rtol=1e-12)

    def test_train_requires_two_rows(self):
        running_mean, running_var = initial_running(2)
        x = Tensor(np.ones((1, 2)))
        with pytest.raises(ValueError):
            ops.batch_norm(x, Tensor(np.ones(2)), Tensor(np.zeros(2)), running_mean, running_var, train=True)
        # eval mode is fine on a single row
        ops.batch_norm(x, Tensor(np.ones(2)), Tensor(np.zeros(2)), running_mean, running_var, train=False)


class TestMaskedSse:
    def test_value(self):
        pred = Tensor(np.array([[1.0, 2.0], [3.0, 4.0]]))
        target = np.array([[0.0, 0.0], [0.0, 0.0]])
        mask = np.array([[1.0, 0.0], [1.0, 1.0]])
        out = ops.masked_sse(pred, target, mask)
        assert float(out.data) == 1.0 + 9.0 + 16.0

    def test_unselected_columns_leave_the_bits_alone(self):
        # the sum runs over the selected entries alone: one labeled column
        # beside two unlabeled ones sums exactly as it does on its own
        rng = np.random.default_rng(0)
        column = rng.normal(size=(100, 1))
        wide = np.hstack([column, rng.normal(size=(100, 2))])
        mask = np.zeros((100, 3))
        mask[:, 0] = 1.0
        alone = ops.masked_sse(Tensor(column), np.zeros((100, 1)), np.ones((100, 1)))
        beside = ops.masked_sse(Tensor(wide), np.zeros((100, 3)), mask)
        assert np.asarray(beside.data).view(np.int64) == np.asarray(alone.data).view(np.int64)

    def test_masked_entries_get_exact_zero_gradient(self):
        pred = Tensor(np.array([[1.0, 2.0], [3.0, 4.0]]), requires_grad=True)
        mask = np.array([[1.0, 0.0], [0.0, 1.0]])
        tape = Tape()
        loss = ops.masked_sse(pred, np.zeros((2, 2)), mask, tape=tape)
        tape.backward(loss)
        assert pred.grad[0, 1] == 0.0
        assert pred.grad[1, 0] == 0.0
        assert pred.grad[0, 0] != 0.0


def reference_adam(params, grad_script, lr=0.001, b1=0.9, b2=0.999, eps=1e-8):
    """Independent scalar-loop Adam used as the oracle."""
    params = [p.astype(float).copy() for p in params]
    m = [np.zeros_like(p) for p in params]
    v = [np.zeros_like(p) for p in params]
    for t, grads in enumerate(grad_script, start=1):
        for i, g in enumerate(grads):
            m[i] = b1 * m[i] + (1 - b1) * g
            v[i] = b2 * v[i] + (1 - b2) * g * g
            m_hat = m[i] / (1 - b1**t)
            v_hat = v[i] / (1 - b2**t)
            params[i] = params[i] - lr * m_hat / (np.sqrt(v_hat) + eps)
    return params


def formula_adam(params, grad_script, lr=0.001):
    """Adam written as whole-array expressions, one fresh array per
    operation: the formula the in-place update must reproduce bit for bit."""
    params = [p.copy() for p in params]
    m = [np.zeros_like(p) for p in params]
    v = [np.zeros_like(p) for p in params]
    for t, grads in enumerate(grad_script, start=1):
        bias1 = 1.0 - 0.9**t
        bias2 = 1.0 - 0.999**t
        for i, g in enumerate(grads):
            m[i] = 0.9 * m[i] + (1.0 - 0.9) * g
            v[i] = 0.999 * v[i] + (1.0 - 0.999) * (g * g)
            params[i] -= lr * (m[i] / bias1) / (np.sqrt(v[i] / bias2) + 1e-8)
    return params, m, v


class TestAdam:
    def test_single_step_from_zero(self):
        p = Tensor(np.zeros(1), requires_grad=True)
        state = AdamState()
        adam_step([p], [np.ones(1)], state)
        expected = -0.001 / (1.0 + 1e-8)
        assert abs(p.data[0] - expected) < 1e-15
        assert abs(p.data[0] - (-0.0009999999)) < 1e-9

    def test_matches_reference_over_steps(self):
        rng = np.random.default_rng(5)
        shapes = [(3, 2), (4,)]
        init = [rng.normal(size=s) for s in shapes]
        script = [[rng.normal(size=s) for s in shapes] for _ in range(7)]

        params = [Tensor(p.copy(), requires_grad=True) for p in init]
        state = AdamState()
        for grads in script:
            adam_step(params, grads, state)

        expected = reference_adam(init, script)
        for p, e in zip(params, expected):
            np.testing.assert_allclose(p.data, e, rtol=0, atol=1e-15)

    @pytest.mark.parametrize("lr", [0.001, 0.37])
    def test_in_place_update_matches_formula_bit_for_bit(self, lr):
        rng = np.random.default_rng(11)
        shapes = [(5, 3), (7,), (1, 1)]
        init = [rng.normal(size=s) for s in shapes]
        script = [[rng.normal(scale=10.0 ** rng.integers(-6, 3), size=s) for s in shapes]
                  for _ in range(9)]
        script[2][0][0, 0] = -0.0
        script[3][1][:] = 0.0

        params = [Tensor(p.copy(), requires_grad=True) for p in init]
        state = AdamState(lr=lr)
        for grads in script:
            adam_step(params, grads, state)

        want, want_m, want_v = formula_adam(init, script, lr=lr)
        for i, (p, e) in enumerate(zip(params, want)):
            np.testing.assert_array_equal(p.data.view(np.int64), e.view(np.int64))
            np.testing.assert_array_equal(state.m[i].view(np.int64), want_m[i].view(np.int64))
            np.testing.assert_array_equal(state.v[i].view(np.int64), want_v[i].view(np.int64))
        assert state.step_count == len(script)

    def test_custom_learning_rate(self):
        p = Tensor(np.zeros(1), requires_grad=True)
        state = AdamState(lr=0.1)
        adam_step([p], [np.ones(1)], state)
        assert abs(p.data[0] + 0.1 / (1 + 1e-8)) < 1e-15

    def test_non_finite_gradient_rejected(self):
        p = Tensor(np.ones(2), requires_grad=True)
        q = Tensor(np.ones(2), requires_grad=True)
        state = AdamState()
        adam_step([p, q], [np.ones(2), np.ones(2)], state)
        before = [a.copy() for a in (p.data, q.data, *state.m.values(), *state.v.values())]
        for bad in (np.inf, np.nan):
            with pytest.raises(NonFiniteGradientError):
                adam_step([p, q], [np.ones(2), np.array([1.0, bad])], state)
        # step rejected atomically: no parameter or moment moved, count unchanged
        after = (p.data, q.data, *state.m.values(), *state.v.values())
        for a, b in zip(after, before, strict=True):
            np.testing.assert_array_equal(a.view(np.int64), b.view(np.int64))
        assert state.step_count == 1


class TestGradCheck:
    def test_linear_function_is_exact(self):
        w = Tensor(np.array([[0.5, -1.5, 2.0]]), requires_grad=True)
        c = Tensor(np.array([[1.0], [2.0], [3.0]]))

        def f(tape):
            return ops.matmul(w, c, tape=tape)

        assert grad_check(f, [w]) <= 1e-10

    def test_detects_wrong_gradient(self):
        x = Tensor(np.array([2.0, 3.0]), requires_grad=True)

        def f(tape):
            out = ops.mse_loss(x, np.zeros(2), tape=tape)
            if tape is not None:
                # sabotage: double the analytic gradient
                tape.backward(out)
                x.grad *= 2.0
                tape._records.clear()
            return out

        assert grad_check(f, [x]) > 0.3


class TestRngStreams:
    def test_reproducible(self):
        a = rng_stream(42, 1, 2, 3).random(5)
        b = rng_stream(42, 1, 2, 3).random(5)
        np.testing.assert_array_equal(a, b)

    def test_paths_differ(self):
        a = rng_stream(42, 1, 2, 3).random(5)
        b = rng_stream(42, 1, 2, 4).random(5)
        assert not np.array_equal(a, b)

    def test_seed_matters(self):
        a = rng_stream(1).random(5)
        b = rng_stream(2).random(5)
        assert not np.array_equal(a, b)
