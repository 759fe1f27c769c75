"""Tape-based autodiff engine: tensors, primitives, Adam and RNG streams."""

from . import ops
from .optim import AdamState, NonFiniteGradientError, adam_step
from .rng import rng_stream
from .tensor import Tape, Tensor

__all__ = [
    "AdamState",
    "NonFiniteGradientError",
    "Tape",
    "Tensor",
    "adam_step",
    "ops",
    "rng_stream",
]
