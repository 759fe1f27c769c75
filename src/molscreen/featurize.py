"""Categorical feature indices for molecular graphs.

Every atom maps to seven embedding-table indices and every bond to three.
The widths form the fixed feature schema; models embed these indices and sum
the resulting vectors, so the schema must match between training and
inference (checked via :meth:`FeatureSchema.schema_hash`).
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
from functools import cached_property

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


@dataclass(frozen=True)
class FeatureSchema:
    atom_widths: tuple[int, ...] = ATOM_FEATURE_WIDTHS
    bond_widths: tuple[int, ...] = BOND_FEATURE_WIDTHS

    def schema_hash(self) -> str:
        payload = json.dumps(
            {"atom": list(self.atom_widths), "bond": list(self.bond_widths)},
            sort_keys=True,
        )
        return hashlib.sha256(payload.encode()).hexdigest()

    @cached_property
    def index_limits(self) -> tuple[np.ndarray, np.ndarray]:
        """The atom and bond widths as read-only uint64 arrays, built once
        per schema."""
        limits = (
            np.array(self.atom_widths, dtype=np.uint64),
            np.array(self.bond_widths, dtype=np.uint64),
        )
        for array in limits:
            array.flags.writeable = False
        return limits


DEFAULT_SCHEMA = FeatureSchema()


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


def featurize(graph: MolGraph, schema: FeatureSchema = DEFAULT_SCHEMA) -> FeaturizedGraph:
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
    _check_ranges(fg, schema)
    return fg


def featurize_smiles(
    smiles: str, schema: FeatureSchema = DEFAULT_SCHEMA
) -> FeaturizedGraph:
    return featurize(parse_smiles(smiles), schema)


def _check_ranges(fg: FeaturizedGraph, schema: FeatureSchema) -> None:
    # Viewed as uint64, a negative index is huge, so one comparison against
    # the widths catches both ends of the range.
    atom_limits, bond_limits = schema.index_limits
    for matrix, limits, kind in (
        (fg.atom_indices, atom_limits, "atom"),
        (fg.bond_indices, bond_limits, "bond"),
    ):
        if matrix.size and (matrix.view(np.uint64) >= limits).any():
            raise SchemaError(f"{kind} feature index outside schema widths")
