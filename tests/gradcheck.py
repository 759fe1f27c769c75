"""Central-difference gradient verification, shared by the engine, model
and acceptance tests."""

from __future__ import annotations

import numpy as np

from molscreen.engine import Tape


def grad_check(f, wrt, h: float = 1e-5) -> float:
    """Compare tape gradients of ``f`` against central differences.

    ``f(tape)`` must build and return a scalar loss Tensor, evaluating the
    same deterministic function on every call (fixed dropout streams, no
    running-statistic updates).  With ``tape=None`` it runs forward only.
    Returns the maximum relative error over all elements of ``wrt``.
    """
    for t in wrt:
        t.grad = None
    tape = Tape()
    loss = f(tape)
    tape.backward(loss)
    analytic = [
        t.grad.copy() if t.grad is not None else np.zeros_like(t.data) for t in wrt
    ]

    worst = 0.0
    for tensor, grads in zip(wrt, analytic):
        flat = tensor.data.reshape(-1)
        flat_grads = grads.reshape(-1)
        for i in range(flat.size):
            original = flat[i]
            flat[i] = original + h
            plus = f(None).item()
            flat[i] = original - h
            minus = f(None).item()
            flat[i] = original
            numeric = (plus - minus) / (2.0 * h)
            a = flat_grads[i]
            err = abs(a - numeric) / max(abs(a), abs(numeric), 1e-6)
            worst = max(worst, err)
    return worst
