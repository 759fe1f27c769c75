"""Adam optimizer with bias correction and atomic step rejection."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .tensor import Tensor


class NonFiniteGradientError(RuntimeError):
    """A gradient contained NaN or infinity; the step was not applied."""


BETA1 = 0.9  # decay of the first-moment estimate
BETA2 = 0.999  # decay of the second-moment estimate
EPS = 1e-8  # added to the root of the second moment


@dataclass
class AdamState:
    lr: float = 0.001
    step_count: int = 0
    # first/second moment estimates keyed by parameter position
    m: dict[int, np.ndarray] = field(default_factory=dict)
    v: dict[int, np.ndarray] = field(default_factory=dict)


def adam_step(params, grads, state: AdamState) -> None:
    """Apply one Adam update in place.

    ``params`` must be passed in the same order on every call because moment
    estimates are keyed by position.  All gradients are validated before any
    parameter moves, so a non-finite gradient leaves everything untouched.
    """
    params = list(params)
    grads = [np.asarray(g, dtype=np.float64) for g in grads]
    if len(params) != len(grads):
        raise ValueError("one gradient per parameter required")
    for g in grads:
        if not np.all(np.isfinite(g)):
            raise NonFiniteGradientError("non-finite gradient; step rejected")
    state.step_count += 1
    t = state.step_count
    bias1 = 1.0 - BETA1**t
    bias2 = 1.0 - BETA2**t
    for i, (p, g) in enumerate(zip(params, grads)):
        m = state.m.get(i)
        v = state.v.get(i)
        if m is None:
            m = np.zeros_like(p.data)
            v = np.zeros_like(p.data)
        m = BETA1 * m + (1.0 - BETA1) * g
        v = BETA2 * v + (1.0 - BETA2) * (g * g)
        state.m[i] = m
        state.v[i] = v
        p.data -= state.lr * (m / bias1) / (np.sqrt(v / bias2) + EPS)
