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
    """Map a parsed molecule to per-atom and per-bond index arrays."""
    atom_rows = [atom_feature_indices(graph, i) for i in range(len(graph.atoms))]
    bond_rows = [bond_feature_indices(b) for b in graph.bonds]
    endpoints = [(b.a, b.b) for b in graph.bonds]
    fg = FeaturizedGraph(
        atom_indices=np.asarray(atom_rows, dtype=np.int64).reshape(-1, 7),
        bond_indices=np.asarray(bond_rows, dtype=np.int64).reshape(-1, 3),
        bond_endpoints=np.asarray(endpoints, dtype=np.int64).reshape(-1, 2),
    )
    _check_ranges(fg, schema)
    return fg


def featurize_smiles(
    smiles: str, schema: FeatureSchema = DEFAULT_SCHEMA
) -> FeaturizedGraph:
    return featurize(parse_smiles(smiles), schema)


def _check_ranges(fg: FeaturizedGraph, schema: FeatureSchema) -> None:
    for matrix, widths, kind in (
        (fg.atom_indices, schema.atom_widths, "atom"),
        (fg.bond_indices, schema.bond_widths, "bond"),
    ):
        if matrix.size == 0:
            continue
        limits = np.asarray(widths, dtype=np.int64)
        if np.any(matrix < 0) or np.any(matrix >= limits):
            raise SchemaError(f"{kind} feature index outside schema widths")
