"""Synthetic benchmark data: random small molecules with a shared latent score.

Every task's label is an affine transform of one latent score that is linear
in four interpretable descriptors (atom count, ring-bond count, heteroatom
count, mean degree), plus optional Gaussian noise.  Tasks therefore share
structure, which is exactly the regime multi-task training and transfer are
supposed to exploit.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np

from .data import TaskDataset, _is_int, _is_list_of
from .engine import rng_stream
from .featurize import featurize
from .model import _check_fits
from .smiles import ELEMENTS, VALENCES, MolGraph, parse_smiles

# weights over (atom count, ring-bond count, heteroatom count, mean degree)
DESCRIPTOR_WEIGHTS = np.array([0.08, -0.15, 0.25, -0.4])

# consecutive draws without a new molecule after which synth_dataset decides
# the atom-count range holds too few distinct molecules
MAX_STALE_DRAWS = 10_000


def descriptor_vector(smiles: str) -> np.ndarray:
    return _descriptors(parse_smiles(smiles))


def _descriptors(graph: MolGraph) -> np.ndarray:
    n_atoms = len(graph.atoms)
    ring_bonds = sum(1 for b in graph.bonds if b.in_ring)
    heteroatoms = sum(1 for a in graph.atoms if a.atomic_number != 6)
    mean_degree = 2.0 * len(graph.bonds) / n_atoms
    return np.array([n_atoms, ring_bonds, heteroatoms, mean_degree], dtype=np.float64)


def latent_score(smiles: str) -> float:
    return float(np.dot(DESCRIPTOR_WEIGHTS, descriptor_vector(smiles)))


def random_molecule(stream, min_atoms: int = 4, max_atoms: int = 14) -> str:
    """A random connected molecule over C/N/O: a random tree plus up to two
    extra edges (rings), all single bonds, each atom within its lowest
    standard valence (``smiles.VALENCES``)."""
    n = int(stream.integers(min_atoms, max_atoms + 1))
    elements = [int(z) for z in stream.choice([6, 7, 8], size=n, p=[0.7, 0.15, 0.15])]
    adjacent: list[set[int]] = [set() for _ in range(n)]

    def capacity(v: int) -> int:
        return VALENCES[elements[v]][0] - len(adjacent[v])

    for v in range(1, n):
        candidates = [u for u in range(v) if capacity(u) > 0]
        u = int(candidates[stream.integers(len(candidates))])
        adjacent[u].add(v)
        adjacent[v].add(u)
    for _ in range(int(stream.integers(0, 3))):
        for _attempt in range(10):
            u, v = (int(x) for x in stream.integers(0, n, size=2))
            if u != v and v not in adjacent[u] and capacity(u) > 0 and capacity(v) > 0:
                adjacent[u].add(v)
                adjacent[v].add(u)
                break
    return _graph_to_smiles(elements, adjacent)


def _graph_to_smiles(elements: list[int], adjacent: list[set[int]]) -> str:
    n = len(elements)
    discovered = [-1] * n
    parent = [-1] * n
    children: list[list[int]] = [[] for _ in range(n)]
    ring_partners: list[list[int]] = [[] for _ in range(n)]
    counter = 0
    stack = [(0, iter(sorted(adjacent[0])))]
    discovered[0] = counter
    while stack:
        v, neighbors = stack[-1]
        advanced = False
        for w in neighbors:
            if discovered[w] < 0:
                discovered[w] = (counter := counter + 1)
                parent[w] = v
                children[v].append(w)
                stack.append((w, iter(sorted(adjacent[w]))))
                advanced = True
                break
            if w != parent[v] and discovered[w] < discovered[v]:
                # one ring-closure pair per non-tree edge, recorded at both ends
                ring_partners[v].append(w)
                ring_partners[w].append(v)
        if not advanced:
            stack.pop()

    open_digits: dict[frozenset[int], int] = {}
    free = list(range(99, 0, -1))  # allocate the smallest digit first

    def ring_marks(v: int) -> str:
        marks = []
        for w in sorted(ring_partners[v], key=lambda u: discovered[u]):
            edge = frozenset((v, w))
            if edge in open_digits:
                digit = open_digits.pop(edge)
                free.append(digit)
                free.sort(reverse=True)
            else:
                digit = free.pop()
                open_digits[edge] = digit
            marks.append(str(digit) if digit < 10 else f"%{digit}")
        return "".join(marks)

    def emit(v: int) -> str:
        out = ELEMENTS[elements[v]] + ring_marks(v)
        kids = children[v]
        for c in kids[:-1]:
            out += "(" + emit(c) + ")"
        if kids:
            out += emit(kids[-1])
        return out

    return emit(0)


_META_KEYS = ("seed", "n_tasks", "a_values", "b_values", "noise_sigma", "latent_scores")


def _is_finite(value) -> bool:
    """A JSON number that converts to a finite float."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        return False
    try:
        return math.isfinite(value)
    except OverflowError:  # an integer too large for a float
        return False


@dataclass
class SynthMeta:
    """Ground truth behind a generated dataset."""

    seed: int
    n_tasks: int
    a_values: list[float]
    b_values: list[float]
    noise_sigma: float
    latent_scores: np.ndarray

    def to_json(self) -> str:
        return json.dumps(
            {
                "seed": self.seed,
                "n_tasks": self.n_tasks,
                "a_values": self.a_values,
                "b_values": self.b_values,
                "noise_sigma": self.noise_sigma,
                "descriptor_weights": DESCRIPTOR_WEIGHTS.tolist(),
                "latent_scores": self.latent_scores.tolist(),
            },
            indent=2,
        )

    @classmethod
    def from_json(cls, text: str) -> "SynthMeta":
        """Read ``to_json`` output.  ``ValueError`` names the first field
        that is missing or has the wrong type, length or value."""
        raw = json.loads(text)
        if not isinstance(raw, dict):
            raise ValueError("metadata must be a JSON object")
        missing = [key for key in _META_KEYS if key not in raw]
        if missing:
            raise ValueError(f"metadata lacks {missing}")
        for key in ("seed", "n_tasks"):
            if not _is_int(raw[key]):
                raise ValueError(f"{key} must be an integer, got {raw[key]!r}")
        n_tasks = raw["n_tasks"]
        if n_tasks < 1:
            raise ValueError(f"n_tasks must be >= 1, got {n_tasks}")
        for key in ("a_values", "b_values"):
            values = raw[key]
            if not (_is_list_of(values, _is_finite) and len(values) == n_tasks):
                raise ValueError(f"{key} must be a list of {n_tasks} finite numbers")
        if not (_is_finite(raw["noise_sigma"]) and raw["noise_sigma"] >= 0):
            raise ValueError(f"noise_sigma must be finite and >= 0, got {raw['noise_sigma']!r}")
        if not _is_list_of(raw["latent_scores"], _is_finite):
            raise ValueError("latent_scores must be a list of finite numbers")
        return cls(
            seed=raw["seed"],
            n_tasks=raw["n_tasks"],
            a_values=raw["a_values"],
            b_values=raw["b_values"],
            noise_sigma=raw["noise_sigma"],
            latent_scores=np.asarray(raw["latent_scores"], dtype=np.float64),
        )


def synth_dataset(
    n_tasks: int,
    n_per_task: int,
    seed: int,
    noise_sigma: float = 0.1,
    min_atoms: int = 4,
    max_atoms: int = 14,
) -> tuple[TaskDataset, SynthMeta]:
    """Distinct random molecules, densely labeled for every task.

    Raises ``ValueError`` when ``MAX_STALE_DRAWS`` draws in a row add no new
    molecule: the atom-count range holds fewer than ``n_per_task``."""
    if n_tasks < 2:
        raise ValueError("need at least 2 tasks")
    if seed < 0:
        raise ValueError(f"seed must be >= 0, got {seed}")
    if n_per_task < 1:
        raise ValueError(f"n_per_task must be >= 1, got {n_per_task}")
    if not 0.0 <= noise_sigma < np.inf:  # false for NaN too
        raise ValueError(f"noise_sigma must be finite and >= 0, got {noise_sigma}")
    if min_atoms < 1:
        raise ValueError(f"min_atoms must be >= 1, got {min_atoms}")
    if min_atoms > max_atoms:
        raise ValueError(
            f"min_atoms ({min_atoms}) must not exceed max_atoms ({max_atoms})"
        )
    nbytes = 8 * n_tasks * (2 + 2 * n_per_task)  # a and b, then the noise and the labels
    _check_fits(nbytes, f"n_tasks={n_tasks}, n_per_task={n_per_task}: the labels")
    mol_stream = rng_stream(seed, 0)
    coef_stream = rng_stream(seed, 1)
    noise_stream = rng_stream(seed, 2)
    smiles: list[str] = []
    seen = set()
    stale = 0
    while len(smiles) < n_per_task:
        smi = random_molecule(mol_stream, min_atoms, max_atoms)
        if smi not in seen:
            seen.add(smi)
            smiles.append(smi)
            stale = 0
            continue
        stale += 1
        if stale == MAX_STALE_DRAWS:
            raise ValueError(
                f"found {len(smiles)} distinct molecules of {min_atoms}-{max_atoms} "
                f"atoms, then {MAX_STALE_DRAWS} draws in a row gave no new one; "
                f"n_per_task={n_per_task} needs a wider min_atoms/max_atoms range"
            )
    a = coef_stream.uniform(0.5, 1.5, n_tasks).tolist()
    b = coef_stream.uniform(-1.0, 1.0, n_tasks).tolist()
    latent, graphs = np.empty(n_per_task), []
    for i, smi in enumerate(smiles):
        graph = parse_smiles(smi)  # one parse gives descriptors and features
        latent[i] = np.dot(DESCRIPTOR_WEIGHTS, _descriptors(graph))
        graphs.append(featurize(graph))
    # unit draws scaled afterwards: zero sigma gives exact zeros while
    # consuming the same stream state as any other sigma
    noise = noise_stream.normal(0.0, 1.0, (n_per_task, n_tasks)) * noise_sigma
    labels = latent[:, None] * np.asarray(a) + np.asarray(b) + noise
    names = [f"task{t}" for t in range(n_tasks)]
    ds = TaskDataset(smiles, graphs, labels, names, ["lower_is_better"] * n_tasks)
    meta = SynthMeta(
        seed=seed,
        n_tasks=n_tasks,
        a_values=a,
        b_values=b,
        noise_sigma=noise_sigma,
        latent_scores=latent,
    )
    return ds, meta


def task_oracle(meta: SynthMeta, task: int):
    """Deterministic labeling function for one task (no noise)."""
    a = meta.a_values[task]
    b = meta.b_values[task]

    def oracle(smiles: str) -> float:
        return a * latent_score(smiles) + b

    return oracle
