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

from .smiles import BondDirection, BondOrder, Chirality, MolGraph, parse_smiles

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


def featurize(graph: MolGraph) -> FeaturizedGraph:
    """Map a parsed molecule to per-atom and per-bond index arrays: C-ordered
    views of one int64 array of 7 integers per atom, 3 per bond, then 2
    endpoints per bond.

    One pass over the bonds writes their rows and tallies each atom's
    double and triple bonds for its hybridization; a second pass writes the
    atom rows.
    """
    atoms, bonds = graph.atoms, graph.bonds
    n_atoms, n_bonds = len(atoms), len(bonds)
    # doubles + 2 * triples per atom (the double and triple type indices are
    # 1 and 2): 2 or more means sp, 1 means one double bond
    unsaturation = [0] * n_atoms
    bond_values: list[int] = []
    endpoints: list[int] = []
    for bond in bonds:
        a, b = bond.a, bond.b
        bond_type = _BOND_TYPE_INDEX[bond.order]
        if bond_type == 1 or bond_type == 2:
            unsaturation[a] += bond_type
            unsaturation[b] += bond_type
        bond_values += (_DIRECTION_INDEX[bond.direction], bond_type, int(bond.in_ring))
        endpoints += (a, b)
    values: list[int] = []
    for atom, unsaturated in zip(atoms, unsaturation):
        z, charge, degree, hydrogens = (
            atom.atomic_number, atom.formal_charge, atom.degree, atom.hydrogens
        )
        if 0 < z <= 2:
            hybridization = HYB_S
        elif unsaturated >= 2:
            hybridization = HYB_SP
        elif atom.aromatic or (unsaturated == 1 and degree + hydrogens <= 3):
            hybridization = HYB_SP2
        elif degree + hydrogens > 0:
            hybridization = HYB_SP3
        else:
            hybridization = HYB_MISC
        values += (
            z if 1 <= z <= 118 else 0,
            charge + 7 if -7 <= charge <= 7 else 15,
            degree if degree < 10 else 10,
            _CHIRALITY_INDEX[atom.chirality],
            hydrogens if hydrogens < 8 else 8,
            int(atom.aromatic),
            hybridization,
        )
    values += bond_values
    values += endpoints
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
    # the widths catches both ends of the range; count_nonzero is a plain C
    # call where ndarray.any goes through Python.
    for matrix, limits, kind in (
        (fg.atom_indices, ATOM_INDEX_LIMITS, "atom"),
        (fg.bond_indices, BOND_INDEX_LIMITS, "bond"),
    ):
        if np.count_nonzero(matrix.view(np.uint64) >= limits):
            raise SchemaError(f"{kind} feature index outside schema widths")
