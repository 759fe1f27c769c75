"""Minimal dense tensor with tape-based reverse-mode differentiation.

A :class:`Tape` records every primitive op in execution order, which is a
valid topological order of the computation graph.  ``backward`` walks the
records once in reverse, accumulating gradients additively, so a tensor used
as input to several ops receives the sum of all contributions.  It consumes
the tape as it goes: each record is released once it has run, so only leaf
tensors (inputs that no recorded op produced) keep ``.grad`` afterwards.

A record holds no tensor an op produced.  The gradient of a recorded op's
output goes into a :class:`GradSlot`, which the tape keeps in the tensor's
place; a leaf input is kept as itself.  So a forward array lives only while
the caller's names or a backward closure hold it, and each op's closure
keeps only the arrays its backward reads.
"""

from __future__ import annotations

from typing import Callable, Sequence

import numpy as np


class GradSlot:
    """Where backward sums the gradient of a recorded op's output, without
    the output's array."""

    __slots__ = ("grad", "requires_grad")

    def __init__(self, requires_grad: bool):
        self.grad: np.ndarray | None = None
        self.requires_grad = requires_grad


class Tensor:
    """Value-like float64 array, optionally tracked for gradients.

    ``slot`` is set when a tape records the tensor as an op's output; a leaf
    has none and takes its gradient in ``.grad``.
    """

    __slots__ = ("data", "grad", "requires_grad", "slot")

    def __init__(self, data, requires_grad: bool = False):
        self.data = np.asarray(data, dtype=np.float64)
        self.grad: np.ndarray | None = None
        self.requires_grad = requires_grad
        self.slot: GradSlot | None = None

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    @property
    def ndim(self) -> int:
        return self.data.ndim

    def item(self) -> float:
        return float(self.data.reshape(()))

    def __repr__(self) -> str:
        return f"Tensor(shape={self.shape}, requires_grad={self.requires_grad})"


class Tape:
    """Ordered record of executed ops for one backward pass.

    ``backward`` pops each record as it runs it and drops the output's
    gradient once the record's ``backward_fn`` has used it, so closures and
    the forward arrays they hold are freed during the pass rather than when
    the tape dies.  A tape therefore runs backward once; after it, only leaf
    tensors keep ``.grad``.
    """

    def __init__(self):
        # (output slot, input slots and leaves, backward_fn); backward_fn
        # maps the output gradient to one gradient array (or None) per input
        self._records: list[tuple[GradSlot, tuple[GradSlot | Tensor, ...], Callable]] = []

    def record(
        self,
        output: Tensor,
        inputs: Sequence[Tensor],
        backward_fn: Callable[[np.ndarray], Sequence[np.ndarray | None]],
    ) -> None:
        output.slot = GradSlot(output.requires_grad)
        self._records.append((output.slot, tuple(map(_grad_home, inputs)), backward_fn))

    def backward(self, loss: Tensor) -> None:
        """Accumulate gradients of ``loss`` into every leaf tensor, consuming
        the tape."""
        if loss.data.size != 1:
            raise ValueError("backward requires a scalar loss")
        _grad_home(loss).grad = np.ones_like(loss.data)
        records = self._records
        while records:
            slot, inputs, backward_fn = records.pop()
            up, slot.grad = slot.grad, None
            if up is not None:
                _accumulate(inputs, backward_fn(up))


def _grad_home(tensor: Tensor) -> GradSlot | Tensor:
    """Where backward sums ``tensor``'s gradient: its slot, or a leaf itself."""
    return tensor if tensor.slot is None else tensor.slot


def _accumulate(inputs: tuple[GradSlot | Tensor, ...], grads) -> None:
    # a function, so its loop variables do not hold the last gradient
    # array alive while the next record's backward runs
    for home, grad in zip(inputs, grads):
        if grad is None or not home.requires_grad:
            continue
        if home.grad is None:
            # 0.0 + grad is what adding into zeros gave, without the zero
            # fill; the fresh array never aliases grad
            home.grad = np.add(grad, 0.0, out=np.empty_like(grad))
        else:
            home.grad += grad
