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
            m = state.m[i] = np.zeros_like(p.data)
            v = state.v[i] = np.zeros_like(p.data)
        # in place, in the operand order of
        #   m = BETA1 * m + (1 - BETA1) * g
        #   v = BETA2 * v + (1 - BETA2) * (g * g)
        #   p -= lr * (m / bias1) / (sqrt(v / bias2) + EPS)
        # so every value is bit-identical to that formula
        step = np.multiply(g, 1.0 - BETA1)
        m *= BETA1
        m += step
        np.multiply(g, g, out=step)
        step *= 1.0 - BETA2
        v *= BETA2
        v += step
        denom = np.divide(v, bias2)
        np.sqrt(denom, out=denom)
        denom += EPS
        np.divide(m, bias1, out=step)
        step *= state.lr
        step /= denom
        p.data -= step
