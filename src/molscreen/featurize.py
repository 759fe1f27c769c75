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

from .smiles import BondDirection, BondOrder, Chirality, MolGraph, parse_smiles

# atomic type, formal charge, degree, chirality, numH, aromaticity, hybridization
ATOM_FEATURE_WIDTHS = (119, 16, 11, len(Chirality), 9, 2, 5)
# direction, type, in-ring
BOND_FEATURE_WIDTHS = (len(BondDirection), len(BondOrder), 2)

SCHEMA_HASH = hashlib.sha256(
    json.dumps(
        {"atom": list(ATOM_FEATURE_WIDTHS), "bond": list(BOND_FEATURE_WIDTHS)},
        sort_keys=True,
    ).encode()
).hexdigest()


# hybridization buckets
HYB_S = 0
HYB_SP = 1
HYB_SP2 = 2
HYB_SP3 = 3
HYB_MISC = 4

# read once here: an attribute lookup on an Enum class goes through
# EnumType's __getattr__ hook, ~0.1 us a time
_MULTIPLE_BONDS = (BondOrder.DOUBLE, BondOrder.TRIPLE)


class SchemaError(ValueError):
    """A feature index fell outside its declared table width."""


@dataclass(slots=True)
class FeaturizedGraph:
    """One molecule's feature integers, row after row: one per schema column
    for each atom and each bond, and 2 endpoints per bond.
    ``GraphBatch.from_graphs`` converts a whole batch into its int64
    matrices at once."""

    atom_values: list[int]
    bond_values: list[int]
    endpoint_values: list[int]
    n_atoms: int
    n_bonds: int

    def __post_init__(self):  # packing reads the lists back to back by these counts
        atom_columns, bond_columns = len(ATOM_FEATURE_WIDTHS), len(BOND_FEATURE_WIDTHS)
        if (len(self.atom_values), len(self.bond_values), len(self.endpoint_values)) != (
            atom_columns * self.n_atoms, bond_columns * self.n_bonds, 2 * self.n_bonds
        ):
            raise ValueError(
                f"feature lists must hold {atom_columns} values per atom, {bond_columns} per bond "
                "and 2 ends"
            )


def featurize(graph: MolGraph) -> FeaturizedGraph:
    """Map a parsed molecule to its per-atom and per-bond feature integers.

    One pass over the bonds writes their rows and tallies each atom's
    double and triple bonds for its hybridization; a second pass writes the
    atom rows.  The clamps keep every column inside its width except
    degree, H count, aromaticity and in-ring, which only a hand-built graph
    can push out; those are compared as they are written, and an atom
    fault is reported before a bond fault.
    """
    atoms, bonds = graph.atoms, graph.bonds
    # doubles + 2 * triples per atom (the double and triple type indices are
    # 1 and 2): 2 or more means sp, 1 means one double bond
    unsaturation = [0] * len(atoms)
    bond_values: list[int] = []
    endpoints: list[int] = []
    bond_fault = False
    for bond in bonds:
        a, b = bond.a, bond.b
        order = bond.order
        if order in _MULTIPLE_BONDS:
            unsaturation[a] += order
            unsaturation[b] += order
        in_ring = int(bond.in_ring)
        if in_ring != 0 and in_ring != 1:
            bond_fault = True
        bond_values += (bond.direction, order, in_ring)
        endpoints += (a, b)
    values: list[int] = []
    for atom, unsaturated in zip(atoms, unsaturation):
        z, charge, degree, hydrogens = (
            atom.atomic_number, atom.formal_charge, atom.degree, atom.hydrogens
        )
        aromatic = int(atom.aromatic)
        if degree < 0 or hydrogens < 0 or (aromatic != 0 and aromatic != 1):
            raise SchemaError("atom feature index outside schema widths")
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
            atom.chirality,
            hydrogens if hydrogens < 8 else 8,
            aromatic,
            hybridization,
        )
    if bond_fault:
        raise SchemaError("bond feature index outside schema widths")
    return FeaturizedGraph(values, bond_values, endpoints, len(atoms), len(bonds))


def featurize_smiles(smiles: str) -> FeaturizedGraph:
    return featurize(parse_smiles(smiles))
