"""Categorical feature indices for molecular graphs.

Every atom maps to seven embedding-table indices and every bond to three.
The table widths are this build's fixed feature schema: models embed these
indices and sum the resulting vectors, so a checkpoint records the widths and
their ``SCHEMA_HASH``, and loading one made for other widths fails.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass

import numpy as np

from .smiles import (
    Atom,
    Bond,
    BondDirection,
    BondOrder,
    Chirality,
    MolGraph,
    parse_smiles,
)

# atomic type, formal charge, degree, chirality, numH, aromaticity, hybridization
ATOM_FEATURE_WIDTHS = (119, 16, 11, 4, 9, 2, 5)
# direction, type, in-ring
BOND_FEATURE_WIDTHS = (7, 4, 2)

SCHEMA_HASH = hashlib.sha256(
    json.dumps(
        {"atom": list(ATOM_FEATURE_WIDTHS), "bond": list(BOND_FEATURE_WIDTHS)},
        sort_keys=True,
    ).encode()
).hexdigest()


def _read_only_limits(widths: tuple[int, ...]) -> np.ndarray:
    limits = np.array(widths, dtype=np.uint64)
    limits.flags.writeable = False
    return limits


# the widths as uint64 arrays for the range check, built once
ATOM_INDEX_LIMITS = _read_only_limits(ATOM_FEATURE_WIDTHS)
BOND_INDEX_LIMITS = _read_only_limits(BOND_FEATURE_WIDTHS)

# hybridization buckets
HYB_S = 0
HYB_SP = 1
HYB_SP2 = 2
HYB_SP3 = 3
HYB_MISC = 4

_CHIRALITY_INDEX = {
    Chirality.NONE: 0,
    Chirality.CLOCKWISE: 1,
    Chirality.COUNTERCLOCKWISE: 2,
    Chirality.OTHER: 3,
}

_DIRECTION_INDEX = {
    BondDirection.NONE: 0,
    BondDirection.UP: 1,
    BondDirection.DOWN: 2,
    BondDirection.BEGIN_WEDGE: 3,
    BondDirection.BEGIN_DASH: 4,
    BondDirection.EITHER: 5,
    BondDirection.UNKNOWN: 6,
}

_BOND_TYPE_INDEX = {
    BondOrder.SINGLE: 0,
    BondOrder.DOUBLE: 1,
    BondOrder.TRIPLE: 2,
    BondOrder.AROMATIC: 3,
}


class SchemaError(ValueError):
    """A feature index fell outside its declared table width."""


@dataclass
class FeaturizedGraph:
    atom_indices: np.ndarray  # (n_atoms, 7) int64
    bond_indices: np.ndarray  # (n_bonds, 3) int64
    bond_endpoints: np.ndarray  # (n_bonds, 2) int64

    @property
    def n_atoms(self) -> int:
        return self.atom_indices.shape[0]

    @property
    def n_bonds(self) -> int:
        return self.bond_indices.shape[0]


def _hybridization(graph: MolGraph, idx: int) -> int:
    atom = graph.atoms[idx]
    if 0 < atom.atomic_number <= 2:
        return HYB_S
    doubles = triples = 0
    for _, bond_idx in graph.neighbors[idx]:
        order = graph.bonds[bond_idx].order
        if order is BondOrder.DOUBLE:
            doubles += 1
        elif order is BondOrder.TRIPLE:
            triples += 1
    if triples >= 1 or doubles >= 2:
        return HYB_SP
    if atom.aromatic or (doubles >= 1 and atom.degree + atom.hydrogens <= 3):
        return HYB_SP2
    if atom.degree + atom.hydrogens > 0:
        return HYB_SP3
    return HYB_MISC


def atom_feature_indices(graph: MolGraph, idx: int) -> tuple[int, ...]:
    atom: Atom = graph.atoms[idx]
    atomic = atom.atomic_number if 1 <= atom.atomic_number <= 118 else 0
    charge = atom.formal_charge + 7 if -7 <= atom.formal_charge <= 7 else 15
    degree = min(atom.degree, 10)
    chirality = _CHIRALITY_INDEX[atom.chirality]
    num_h = min(atom.hydrogens, 8)
    aromatic = int(atom.aromatic)
    return (atomic, charge, degree, chirality, num_h, aromatic, _hybridization(graph, idx))


def bond_feature_indices(bond: Bond) -> tuple[int, int, int]:
    return (
        _DIRECTION_INDEX[bond.direction],
        _BOND_TYPE_INDEX[bond.order],
        int(bond.in_ring),
    )


def featurize(graph: MolGraph) -> FeaturizedGraph:
    """Map a parsed molecule to per-atom and per-bond index arrays: C-ordered
    views of one int64 array of 7 integers per atom, 3 per bond, then 2
    endpoints per bond."""
    n_atoms, n_bonds = len(graph.atoms), len(graph.bonds)
    values: list[int] = []
    for i in range(n_atoms):
        values += atom_feature_indices(graph, i)
    for bond in graph.bonds:
        values += bond_feature_indices(bond)
    for bond in graph.bonds:
        values += (bond.a, bond.b)
    flat = np.array(values, dtype=np.int64)
    atom_end = 7 * n_atoms
    bond_end = atom_end + 3 * n_bonds
    fg = FeaturizedGraph(
        atom_indices=flat[:atom_end].reshape(n_atoms, 7),
        bond_indices=flat[atom_end:bond_end].reshape(n_bonds, 3),
        bond_endpoints=flat[bond_end:].reshape(n_bonds, 2),
    )
    _check_ranges(fg)
    return fg


def featurize_smiles(smiles: str) -> FeaturizedGraph:
    return featurize(parse_smiles(smiles))


def _check_ranges(fg: FeaturizedGraph) -> None:
    # Viewed as uint64, a negative index is huge, so one comparison against
    # the widths catches both ends of the range.
    for matrix, limits, kind in (
        (fg.atom_indices, ATOM_INDEX_LIMITS, "atom"),
        (fg.bond_indices, BOND_INDEX_LIMITS, "bond"),
    ):
        if matrix.size and (matrix.view(np.uint64) >= limits).any():
            raise SchemaError(f"{kind} feature index outside schema widths")
