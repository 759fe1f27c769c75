"""A fixed reference workload that measures how fast the machine runs right now.

The mix mirrors the kinds of work the package does, without calling it:
interpreted loops over small dicts and lists (parsing, featurization, CSV),
and the forward and backward of a few message-passing layers written in
plain NumPy (gathers, segment sums, float64 matrix products, scatter-adds)
on a batch the size of a training step.  Because it never touches molscreen,
a change to the package cannot change its time.
"""

from __future__ import annotations

import time

import numpy as np

# the scale of scaled seconds: CPU time of one block on the reference
# machine; blocks took 36-62 ms on a 2-vCPU x86-64 VM with one BLAS thread
REFERENCE_S = 0.060
BLOCKS = 2

_rng = np.random.default_rng(0)
_TOKENS = list("CC(=O)Nc1ccc(O)cc1" * 8)
# a fixed batch shaped like a training step's: 128 nodes, 256 edges, width 256
_NODES, _EDGES, _WIDTH = 128, 256, 256
_H = _rng.standard_normal((_NODES, _WIDTH))
_SRC = _rng.integers(0, _NODES, size=_EDGES)
_DST = np.sort(_rng.integers(0, _NODES, size=_EDGES))
_STARTS = np.flatnonzero(np.r_[True, _DST[1:] != _DST[:-1]])
_W1 = _rng.standard_normal((_WIDTH, 2 * _WIDTH)) * 0.05
_W2 = _rng.standard_normal((2 * _WIDTH, _WIDTH)) * 0.05


def _interpreted() -> int:
    """Dict and list work on short strings, like parsing a SMILES."""
    total = 0
    for _ in range(700):
        counts: dict[str, int] = {}
        stack = []
        for ch in _TOKENS:
            counts[ch] = counts.get(ch, 0) + 1
            if ch == "(":
                stack.append(len(stack))
            elif ch == ")" and stack:
                stack.pop()
        total += len(counts) + len(stack)
    return total


def _layers() -> float:
    """Forward and backward of message-passing layers in plain NumPy."""
    acc = 0.0
    h = _H
    for _ in range(4):
        gathered = h[_SRC]
        summed = np.zeros_like(h)
        summed[_DST[_STARTS]] = np.add.reduceat(gathered, _STARTS, axis=0)
        hidden = np.maximum((h + summed) @ _W1, 0.0)
        mixed = hidden @ _W2
        normed = (mixed - mixed.mean(axis=0)) / np.sqrt(mixed.var(axis=0) + 1e-5)
        up = np.ones_like(normed) * 1e-3
        d_hidden = (up @ _W2.T) * (hidden > 0)
        d_w1 = (h + summed).T @ d_hidden
        d_s = d_hidden @ _W1.T
        d_h = np.zeros_like(h)
        np.add.at(d_h, _SRC, d_s[_DST])
        acc += float(normed[0, 0] + d_w1[0, 0] + d_h[0, 0])
        h = np.maximum(normed, 0.0)
    return acc


def slowdown() -> float:
    """Mean CPU time of ``BLOCKS`` blocks over ``REFERENCE_S``: 1.0 on the
    reference machine, 2.0 when work runs at half its speed."""
    total = 0.0
    for _ in range(BLOCKS):
        start = time.process_time()
        _interpreted()
        _layers()
        total += time.process_time() - start
    return total / BLOCKS / REFERENCE_S
