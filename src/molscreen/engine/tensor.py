"""Minimal dense tensor with tape-based reverse-mode differentiation.

A :class:`Tape` records every primitive op in execution order, which is a
valid topological order of the computation graph.  ``backward`` walks the
records once in reverse, accumulating gradients additively, so a tensor used
as input to several ops receives the sum of all contributions.
"""

from __future__ import annotations

from typing import Callable, Sequence

import numpy as np


class Tensor:
    """Value-like float64 array, optionally tracked for gradients."""

    __slots__ = ("data", "grad", "requires_grad")

    def __init__(self, data, requires_grad: bool = False):
        self.data = np.asarray(data, dtype=np.float64)
        self.grad: np.ndarray | None = None
        self.requires_grad = requires_grad

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
    """Ordered record of executed ops for one backward pass."""

    def __init__(self):
        # (output, inputs, backward_fn); backward_fn maps the output gradient
        # to one gradient array (or None) per input
        self._records: list[
            tuple[Tensor, tuple[Tensor, ...], Callable[[np.ndarray], Sequence[np.ndarray | None]]]
        ] = []

    def record(
        self,
        output: Tensor,
        inputs: Sequence[Tensor],
        backward_fn: Callable[[np.ndarray], Sequence[np.ndarray | None]],
    ) -> None:
        self._records.append((output, tuple(inputs), backward_fn))

    def backward(self, loss: Tensor) -> None:
        """Accumulate gradients of ``loss`` into every recorded tensor."""
        if loss.data.size != 1:
            raise ValueError("backward requires a scalar loss")
        loss.grad = np.ones_like(loss.data)
        for output, inputs, backward_fn in reversed(self._records):
            if output.grad is None:
                continue
            for tensor, grad in zip(inputs, backward_fn(output.grad)):
                if grad is None or not tensor.requires_grad:
                    continue
                if tensor.grad is None:
                    # 0.0 + grad is what adding into zeros gave, without
                    # the zero fill; the fresh array never aliases grad
                    tensor.grad = np.add(grad, 0.0, out=np.empty_like(tensor.data))
                else:
                    tensor.grad += grad
