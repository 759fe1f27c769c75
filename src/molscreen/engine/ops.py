"""Differentiable primitives over :class:`~molscreen.engine.tensor.Tensor`.

Every op takes an optional ``tape``; with ``tape=None`` it is a plain numpy
forward pass that builds no array only backward reads (``relu`` makes no
mask, batch norm no ``x_hat`` beside its output).  Only the operations the
graph model needs are provided; there is no general broadcasting beyond
bias-style row vectors.  A backward closure captures only the arrays its
backward reads (a mask, not the masked input; a row count, not the batch),
since the tape keeps no op's output.  Segment sums, forward and backward,
and embedding-table gradients add their terms from +0.0 in term order, as
``np.add.at`` does.
"""

from __future__ import annotations

from functools import cached_property
from typing import Sequence

import numpy as np

from .tensor import Tape, Tensor


def _result(data, inputs, backward_fn, tape: Tape | None) -> Tensor:
    out = Tensor(data)
    if tape is not None and any(t.requires_grad for t in inputs):
        out.requires_grad = True
        tape.record(out, inputs, backward_fn)
    return out


# OpenBLAS sums a row of a full 8-row block in one order at any row count, a
# shorter tail or a lone row in others; 4-row tiles still left rows differing
ROW_TILE = 8


def _row_tiled(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """``a @ b`` with each row's bits independent of the other rows: full
    ``ROW_TILE``-row tiles in place, the tail in one zero-padded tile."""
    n, full = len(a), len(a) - len(a) % ROW_TILE
    out = np.empty((n, b.shape[1]))
    np.matmul(a[:full], b, out=out[:full])
    if full < n:
        tail = np.concatenate((a[full:], np.zeros((full + ROW_TILE - n, a.shape[1]))))
        out[full:] = (tail @ b)[: n - full]
    return out


def matmul(a: Tensor, b: Tensor, bias: Tensor | None = None, tape: Tape | None = None) -> Tensor:
    """``a @ b`` row-tiled, so each row's bits depend on that row of ``a``
    alone, with an optional bias row added in place into the product."""
    if a.ndim != 2 or b.ndim != 2:
        raise ValueError("matmul expects 2-D operands")
    out = _row_tiled(a.data, b.data)
    inputs = (a, b)
    if bias is not None:
        out += bias.data
        inputs += (bias,)

    def backward(up):
        grads = (up @ b.data.T, a.data.T @ up)
        return grads if bias is None else grads + (up.sum(axis=0),)

    return _result(out, inputs, backward, tape)


def add(*terms: Tensor, tape: Tape | None = None) -> Tensor:
    """Sum of two or more tensors, added left to right into one array; any
    term but the first may be a bias-style row broadcast into it, whose
    gradient is the sum of the upstream rows."""
    if len(terms) < 2:
        raise ValueError("add needs at least two terms")
    out = terms[0].data + terms[1].data
    for term in terms[2:]:
        out += term.data
    shapes = [t.shape for t in terms]

    def backward(up):
        return tuple(up if shape == up.shape else up.sum(axis=0) for shape in shapes)

    return _result(out, terms, backward, tape)


def scale(x: Tensor, factor: float, tape: Tape | None = None) -> Tensor:
    factor = float(factor)

    def backward(up):
        return (up * factor,)

    return _result(x.data * factor, (x,), backward, tape)


def relu(x: Tensor, tape: Tape | None = None) -> Tensor:
    # fmax maps NaN to 0.0 and adding +0.0 turns -0.0 into +0.0: the bits of
    # np.where(x > 0, x, 0.0), in less time
    out = np.fmax(x.data, 0.0)
    out += 0.0
    if tape is None or not x.requires_grad:
        return Tensor(out)
    keep = x.data > 0

    def backward(up):
        return (up * keep,)

    return _result(out, (x,), backward, tape)


def dropout(
    x: Tensor, rate: float, rng: np.random.Generator, tape: Tape | None = None
) -> Tensor:
    """Inverted dropout: zero with probability ``rate``, scale by 1/(1-rate).
    Train mode with a positive rate only; an eval-mode forward, or a model
    without dropout, does not call it."""
    if not 0.0 < rate < 1.0:
        raise ValueError(f"dropout rate must be in (0, 1), got {rate}")
    keep = rng.random(x.shape) >= rate

    def backward(up):
        # the bool mask, not the float64 factor, waits for backward
        return (up * (keep / (1.0 - rate)),)

    return _result(x.data * (keep / (1.0 - rate)), (x,), backward, tape)


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


def _fold(data: np.ndarray, slots, n_out: int) -> np.ndarray:
    """Row ``keys[i]`` of the result sums ``data[column[i]]`` over the slot
    columns that reach ``i``, from +0.0 in column order: bit-identical to
    ``np.add.at`` of those rows into zeros.  Rows no key names are +0.0."""
    keys, columns = slots
    out = np.zeros((n_out,) + data.shape[1:], dtype=data.dtype)
    if columns:
        acc = data[columns[0]]
        acc += 0.0
        for column in columns[1:]:
            acc[: column.size] += data[column]
        out[keys] = acc
    return out


class SegmentLayout:
    """Which value rows each segment of a :func:`segment_sum` adds up.

    Term ``t`` adds row ``rows[t]`` of the values into segment
    ``segment_ids[t]``; a segment sums its terms in their given order.
    With ``rows=None`` term ``t`` is row ``t`` (a plain segment reduction
    over ``len(segment_ids)`` rows).  The layout is built once and reused
    for every call over the same graph structure.  Both directions fold
    slot columns from +0.0 in term order, as ``np.add.at`` would:

    * forward: for each segment, the value rows it sums;
    * backward: for each value row, the segments it feeds.  These slots
      are built on the first :meth:`scatter`, so an eval-mode pass never
      pays for them.
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
        # (segments, term_columns): the forward slots
        self._sums = _slot_columns(segment_ids, rows, num_segments)
        self._terms = (rows, segment_ids)

    @cached_property
    def _uses(self):  # (used_rows, use_columns): the backward slots
        return _slot_columns(*self._terms, self.num_rows)

    def totals(self, data: np.ndarray) -> np.ndarray:
        """Per-segment sums of ``data`` rows, bit-identical to
        ``np.add.at(zeros, segment_ids, data[rows])``."""
        return _fold(data, self._sums, self.num_segments)

    def scatter(self, up: np.ndarray) -> np.ndarray:
        """Per-value-row sums of the ``up`` rows of the segments it feeds:
        the gradient of :meth:`totals`, bit-identical to
        ``np.add.at(zeros, rows, up[segment_ids])``."""
        return _fold(up, self._uses, self.num_rows)


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
    """:func:`segment_sum` of (rows, width) values divided by each segment's
    term count; empty segments are zero."""
    _check_layout(values, layout)
    divisor = np.maximum(layout.counts, 1).astype(np.float64)[:, None]
    means = layout.totals(values.data)
    means /= divisor  # in place: 1-D values raise rather than broadcast

    def backward(up):
        return (layout.scatter(up / divisor),)

    return _result(means, (values,), backward, tape)


BN_MOMENTUM = 0.1  # weight of each train batch's statistics in the running ones
BN_EPS = 1e-5  # added to the variance before its square root


def batch_norm(
    x: Tensor,
    gamma: Tensor,
    beta: Tensor,
    running_mean: np.ndarray,
    running_var: np.ndarray,
    train: bool,
    update_running: bool = True,
    tape: Tape | None = None,
) -> Tensor:
    """Normalize each feature over the batch (train) or by the running
    statistics (eval).  A train-mode call with ``update_running`` moves
    ``running_mean`` and ``running_var`` in place toward the batch's.  Eval
    mode is forward-only: with a tape it is a ``ValueError``."""
    if not train and tape is not None:
        raise ValueError("eval-mode batch norm is forward-only; call it without a tape")
    if train:
        if x.shape[0] < 2:
            raise ValueError("train-mode batch norm needs at least 2 rows")
        mean = x.data.mean(axis=0)
        var = x.data.var(axis=0)
        if update_running:
            m = BN_MOMENTUM
            running_mean *= 1.0 - m
            running_mean += m * mean
            running_var *= 1.0 - m
            running_var += m * var
    else:
        mean = running_mean
        var = running_var
    inv_std = 1.0 / np.sqrt(var + BN_EPS)
    x_hat = x.data - mean
    x_hat *= inv_std
    if tape is None:  # the output overwrites x_hat, which no backward reads
        x_hat *= gamma.data
        x_hat += beta.data
        return Tensor(x_hat)
    out = x_hat * gamma.data
    out += beta.data
    n = x.shape[0]

    def backward(up):
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

    Masked entries contribute exactly zero to the gradient and nothing to
    the value: the sum runs over the selected entries alone, in row-major
    order, so unselected columns do not change its rounding.
    """
    target = np.asarray(target, dtype=np.float64)
    mask = np.asarray(mask) != 0
    if target.shape != pred.shape or mask.shape != pred.shape:
        raise ValueError("prediction, target, and mask shapes differ")
    diff = np.where(mask, pred.data - target, 0.0)
    selected = diff[mask]
    out = np.sum(selected * selected)

    def backward(up):
        return (up * 2.0 * diff,)

    return _result(out, (pred,), backward, tape)


def concat_columns(tensors, tape: Tape | None = None) -> Tensor:
    tensors = list(tensors)
    widths = [t.shape[1] for t in tensors]
    out = np.concatenate([t.data for t in tensors], axis=1)
    offsets = np.concatenate(([0], np.cumsum(widths)))
    count = len(tensors)

    def backward(up):
        return tuple(up[:, offsets[i] : offsets[i + 1]] for i in range(count))

    return _result(out, tuple(tensors), backward, tape)
