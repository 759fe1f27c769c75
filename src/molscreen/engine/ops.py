"""Differentiable primitives over :class:`~molscreen.engine.tensor.Tensor`.

Every op takes an optional ``tape``; with ``tape=None`` it is a plain numpy
forward pass.  Only the operations the graph model needs are provided; there
is no general broadcasting beyond bias-style row vectors.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .tensor import Tape, Tensor


def _result(data, inputs, backward_fn, tape: Tape | None) -> Tensor:
    out = Tensor(data)
    if tape is not None and any(t.requires_grad for t in inputs):
        out.requires_grad = True
        tape.record(out, inputs, backward_fn)
    return out


def _unbroadcast(grad: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    while grad.ndim > len(shape):
        grad = grad.sum(axis=0)
    for axis, size in enumerate(shape):
        if size == 1 and grad.shape[axis] != 1:
            grad = grad.sum(axis=axis, keepdims=True)
    return grad


def matmul(
    a: Tensor, b: Tensor, bias: Tensor | None = None, tape: Tape | None = None
) -> Tensor:
    """``a @ b``, with an optional bias row added in place into the product."""
    if a.ndim != 2 or b.ndim != 2:
        raise ValueError("matmul expects 2-D operands")
    out = a.data @ b.data
    inputs = (a, b)
    if bias is not None:
        out += bias.data
        inputs += (bias,)

    def backward(up):
        grads = (up @ b.data.T, a.data.T @ up)
        return grads if bias is None else grads + (_unbroadcast(up, bias.shape),)

    return _result(out, inputs, backward, tape)


def add(*terms: Tensor, tape: Tape | None = None) -> Tensor:
    """Sum of two or more tensors, added left to right into one array;
    terms after the first two may be bias-style rows broadcast into it."""
    if len(terms) < 2:
        raise ValueError("add needs at least two terms")
    out = terms[0].data + terms[1].data
    for term in terms[2:]:
        out += term.data
    shapes = [t.shape for t in terms]

    def backward(up):
        return tuple(_unbroadcast(up, shape) for shape in shapes)

    return _result(out, terms, backward, tape)


def scale(x: Tensor, factor: float, tape: Tape | None = None) -> Tensor:
    factor = float(factor)

    def backward(up):
        return (up * factor,)

    return _result(x.data * factor, (x,), backward, tape)


def relu(x: Tensor, tape: Tape | None = None) -> Tensor:
    keep = x.data > 0

    def backward(up):
        return (up * keep,)

    # fmax maps NaN to 0.0 and adding +0.0 turns -0.0 into +0.0: the bits of
    # np.where(keep, x, 0.0), in less time
    out = np.fmax(x.data, 0.0)
    out += 0.0
    return _result(out, (x,), backward, tape)


def dropout(
    x: Tensor,
    rate: float,
    rng: np.random.Generator | None,
    train: bool,
    tape: Tape | None = None,
) -> Tensor:
    """Inverted dropout: zero with probability ``rate``, scale by 1/(1-rate)."""
    if not 0.0 <= rate < 1.0:
        raise ValueError(f"dropout rate must be in [0, 1), got {rate}")
    if not train or rate == 0.0:
        return x
    if rng is None:
        raise ValueError("train-mode dropout needs a random stream")
    keep = rng.random(x.shape) >= rate
    factor = keep / (1.0 - rate)

    def backward(up):
        return (up * factor,)

    return _result(x.data * factor, (x,), backward, tape)


def _table_grad(table: np.ndarray, indices: np.ndarray, up: np.ndarray) -> np.ndarray:
    """Each table row sums the ``up`` rows that read it, in index order
    from +0.0: bit-identical to ``np.add.at(zeros, indices, up)``."""
    grad = np.zeros_like(table)
    terms = up[np.argsort(indices, kind="stable")]
    counts = np.bincount(indices, minlength=table.shape[0])
    stops = np.cumsum(counts)
    # reduce over axis 0 folds rows wider than 1 sequentially but sums a
    # 1-wide column pairwise; accumulate is sequential at every width
    wide = up.ndim == 2 and up.shape[1] > 1
    for row in np.flatnonzero(counts):
        uses = terms[stops[row] - counts[row] : stops[row]]
        if wide:
            grad[row] += np.add.reduce(uses, axis=0)
        else:
            grad[row] += np.add.accumulate(uses, axis=0, out=uses)[-1]
    return grad


def embedding_lookup(
    tables: Sequence[Tensor], indices: np.ndarray, tape: Tape | None = None
) -> Tensor:
    """Sum of one row per table, ``tables[0][indices[:, 0]] +
    tables[1][indices[:, 1]] + ...``, added left to right into one array;
    ``indices`` has one column per table."""
    tables = tuple(tables)
    indices = np.asarray(indices, dtype=np.int64)
    if not tables or indices.ndim != 2 or indices.shape[1] != len(tables):
        raise ValueError("embedding indices need one column per table")
    columns = indices.T
    for table, column in zip(tables, columns):
        if column.size and (column.min() < 0 or column.max() >= table.shape[0]):
            raise IndexError("embedding index out of range")
    out = tables[0].data[columns[0]]
    for table, column in zip(tables[1:], columns[1:]):
        out += table.data[column]

    def backward(up):
        return tuple(
            _table_grad(table.data, column, up) if table.requires_grad else None
            for table, column in zip(tables, columns)
        )

    return _result(out, tables, backward, tape)


# np.add.reduceat sums a segment of at most this many rows as
# a0 + ((a1 + a2) + ...); longer ones it sums pairwise in blocks
SHORT_SEGMENT = 8


def _slot_columns(keys: np.ndarray, items: np.ndarray, num_keys: int):
    """CSR slots of ``items`` grouped by ``keys``, in their given order.

    Returns the keys that occur, most items first (stable), and one column
    per slot: column ``j`` holds the ``j``-th item of every key with more
    than ``j`` items, so each column is a prefix of the key list and nothing
    is padded.
    """
    counts = np.bincount(keys, minlength=num_keys)
    by_count = np.argsort(-counts, kind="stable")[: np.count_nonzero(counts)]
    grouped = items[np.argsort(keys, kind="stable")]
    starts = (np.cumsum(counts) - counts)[by_count]
    sorted_counts = counts[by_count]
    columns = tuple(
        grouped[starts[: np.count_nonzero(sorted_counts > j)] + j]
        for j in range(int(sorted_counts[0]) if by_count.size else 0)
    )
    return by_count, columns


class SegmentLayout:
    """Which value rows each segment of a :func:`segment_sum` adds up.

    Term ``t`` adds row ``rows[t]`` of the values into segment
    ``segment_ids[t]``; a segment sums its terms in their given order.
    With ``rows=None`` term ``t`` is row ``t`` (a plain segment reduction
    over ``len(segment_ids)`` rows).  The layout is built once and reused
    for every call over the same graph structure:

    * forward, segments of 1..``SHORT_SEGMENT`` terms: slot columns of
      value rows, folded in ``np.add.reduceat``'s order;
    * forward, longer segments: their rows, summed by ``np.add.reduceat``;
    * backward: slot columns of the segments each value row feeds, folded
      from +0.0 in term order as ``np.add.at`` would.
    """

    def __init__(self, segment_ids, num_segments: int, rows=None, num_rows=None):
        segment_ids = np.asarray(segment_ids, dtype=np.int64)
        if segment_ids.ndim != 1:
            raise ValueError("segment ids must be one-dimensional")
        if rows is None:
            rows = np.arange(segment_ids.size, dtype=np.int64)
            num_rows = segment_ids.size
        elif num_rows is None:
            raise ValueError("a layout with explicit rows needs num_rows")
        rows = np.asarray(rows, dtype=np.int64)
        if rows.shape != segment_ids.shape:
            raise ValueError("segment ids must be one per term")
        if segment_ids.size and (
            segment_ids.min() < 0 or segment_ids.max() >= num_segments
        ):
            raise ValueError("segment id out of range")
        if rows.size and (rows.min() < 0 or rows.max() >= num_rows):
            raise ValueError("value row out of range")
        self.num_segments = int(num_segments)
        self.num_rows = int(num_rows)
        self.counts = np.bincount(segment_ids, minlength=num_segments)

        short = self.counts[segment_ids] <= SHORT_SEGMENT
        self.short_segments, self.short_columns = _slot_columns(
            segment_ids[short], rows[short], num_segments
        )
        long_terms = np.flatnonzero(~short)
        long_terms = long_terms[np.argsort(segment_ids[long_terms], kind="stable")]
        self.long_rows = rows[long_terms]
        self.long_segments = np.unique(segment_ids[long_terms])
        long_counts = self.counts[self.long_segments]
        self.long_starts = np.cumsum(long_counts) - long_counts

        self.used_rows, self.use_columns = _slot_columns(rows, segment_ids, num_rows)

    def totals(self, data: np.ndarray) -> np.ndarray:
        """Per-segment sums of ``data`` rows, bit-identical to gathering the
        terms and calling ``np.add.reduceat`` on the sorted segments."""
        totals = np.zeros((self.num_segments,) + data.shape[1:], dtype=data.dtype)
        columns = self.short_columns
        if columns:
            head = data[columns[0]]
            if len(columns) > 1:
                tail = data[columns[1]]
                for column in columns[2:]:
                    tail[: column.size] += data[column]
                head[: tail.shape[0]] += tail
            totals[self.short_segments] = head
        if self.long_segments.size:
            totals[self.long_segments] = np.add.reduceat(
                data[self.long_rows], self.long_starts, axis=0
            )
        return totals

    def scatter(self, up: np.ndarray) -> np.ndarray:
        """Per-value-row sums of the ``up`` rows of the segments it feeds:
        the gradient of :meth:`totals`, bit-identical to
        ``np.add.at(zeros, rows, up[segment_ids])``."""
        grad = np.zeros((self.num_rows,) + up.shape[1:], dtype=up.dtype)
        columns = self.use_columns
        if columns:
            acc = up[columns[0]]
            acc += 0.0
            for column in columns[1:]:
                acc[: column.size] += up[column]
            grad[self.used_rows] = acc
        return grad


def _check_layout(values: Tensor, layout: SegmentLayout) -> None:
    if values.shape[0] != layout.num_rows:
        raise ValueError(
            f"values have {values.shape[0]} rows, the layout indexes {layout.num_rows}"
        )


def segment_sum(
    values: Tensor, layout: SegmentLayout, tape: Tape | None = None
) -> Tensor:
    """Gather-and-sum: segment ``s`` of the result adds up the value rows
    that ``layout`` assigns to it, without building one row per term."""
    _check_layout(values, layout)

    def backward(up):
        return (layout.scatter(up),)

    return _result(layout.totals(values.data), (values,), backward, tape)


def segment_mean(
    values: Tensor, layout: SegmentLayout, tape: Tape | None = None
) -> Tensor:
    """:func:`segment_sum` divided by each segment's term count; empty
    segments are zero."""
    _check_layout(values, layout)
    divisor = np.maximum(layout.counts, 1).astype(np.float64)
    totals = layout.totals(values.data)
    means = totals / divisor[:, None] if totals.ndim == 2 else totals / divisor

    def backward(up):
        scaled = up / divisor[:, None] if up.ndim == 2 else up / divisor
        return (layout.scatter(scaled),)

    return _result(means, (values,), backward, tape)


@dataclass
class BatchNormState:
    """Per-feature running statistics for batch normalization."""

    running_mean: np.ndarray
    running_var: np.ndarray
    momentum: float = 0.1
    eps: float = 1e-5

    @classmethod
    def initial(cls, num_features: int, momentum: float = 0.1, eps: float = 1e-5):
        return cls(
            running_mean=np.zeros(num_features),
            running_var=np.ones(num_features),
            momentum=momentum,
            eps=eps,
        )

    def copy(self) -> "BatchNormState":
        return BatchNormState(
            running_mean=self.running_mean.copy(),
            running_var=self.running_var.copy(),
            momentum=self.momentum,
            eps=self.eps,
        )


def batch_norm(
    x: Tensor,
    gamma: Tensor,
    beta: Tensor,
    state: BatchNormState,
    train: bool,
    update_running: bool = True,
    tape: Tape | None = None,
) -> Tensor:
    """Normalize each feature over the batch (train) or by running stats (eval)."""
    if train:
        if x.shape[0] < 2:
            raise ValueError("train-mode batch norm needs at least 2 rows")
        mean = x.data.mean(axis=0)
        var = x.data.var(axis=0)
        if update_running:
            m = state.momentum
            state.running_mean *= 1.0 - m
            state.running_mean += m * mean
            state.running_var *= 1.0 - m
            state.running_var += m * var
    else:
        mean = state.running_mean
        var = state.running_var
    inv_std = 1.0 / np.sqrt(var + state.eps)
    x_hat = (x.data - mean) * inv_std
    out = gamma.data * x_hat + beta.data

    if train:

        def backward(up):
            n = x.shape[0]
            d_hat = up * gamma.data
            d_x = (
                inv_std
                / n
                * (
                    n * d_hat
                    - d_hat.sum(axis=0)
                    - x_hat * (d_hat * x_hat).sum(axis=0)
                )
            )
            return d_x, (up * x_hat).sum(axis=0), up.sum(axis=0)

    else:

        def backward(up):
            return (
                up * gamma.data * inv_std,
                (up * x_hat).sum(axis=0),
                up.sum(axis=0),
            )

    return _result(out, (x, gamma, beta), backward, tape)


def mse_loss(pred: Tensor, target, tape: Tape | None = None) -> Tensor:
    target = np.asarray(target, dtype=np.float64)
    if target.shape != pred.shape:
        raise ValueError("prediction and target shapes differ")
    diff = pred.data - target
    out = np.mean(diff * diff)

    def backward(up):
        return (up * 2.0 * diff / diff.size,)

    return _result(out, (pred,), backward, tape)


def masked_sse(pred: Tensor, target, mask, tape: Tape | None = None) -> Tensor:
    """Sum of squared errors over entries where ``mask`` is nonzero.

    Masked entries contribute exactly zero to both the value and the
    gradient.
    """
    target = np.asarray(target, dtype=np.float64)
    mask = np.asarray(mask) != 0
    if target.shape != pred.shape or mask.shape != pred.shape:
        raise ValueError("prediction, target, and mask shapes differ")
    diff = np.where(mask, pred.data - target, 0.0)
    out = np.sum(diff * diff)

    def backward(up):
        return (up * 2.0 * diff,)

    return _result(out, (pred,), backward, tape)


def concat_columns(tensors, tape: Tape | None = None) -> Tensor:
    tensors = list(tensors)
    widths = [t.shape[1] for t in tensors]
    out = np.concatenate([t.data for t in tensors], axis=1)
    offsets = np.concatenate(([0], np.cumsum(widths)))

    def backward(up):
        return tuple(
            up[:, offsets[i] : offsets[i + 1]] for i in range(len(tensors))
        )

    return _result(out, tuple(tensors), backward, tape)
