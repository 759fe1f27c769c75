"""Featurizer tests: hand-mapped index vectors, schema invariants, and an
independent per-row oracle."""

import ast
import hashlib
import json
import sys
from pathlib import Path

import numpy as np
import pytest

from molscreen.engine.rng import rng_stream
from molscreen.featurize import (
    ATOM_FEATURE_WIDTHS,
    BOND_FEATURE_WIDTHS,
    SCHEMA_HASH,
    FeaturizedGraph,
    SchemaError,
    featurize,
    featurize_smiles,
)
from molscreen.smiles import (
    Atom,
    Bond,
    BondDirection,
    BondOrder,
    Chirality,
    SmilesError,
    parse_smiles,
)
from molscreen.synth import random_molecule

sys.path.insert(0, str(Path(__file__).parent))
from helpers import graph_matrices  # noqa: E402
from test_smiles import graph_of  # noqa: E402


def widths_hash(atom_widths, bond_widths):
    """sha256 of the widths as sorted-key JSON, the formula checkpoints
    have always recorded."""
    payload = json.dumps(
        {"atom": list(atom_widths), "bond": list(bond_widths)}, sort_keys=True
    )
    return hashlib.sha256(payload.encode()).hexdigest()


def out_of_range_graph(*, atom=False, bond=False):
    """Ethane with its first atom's aromaticity index (width 2) and its
    bond's in-ring index (width 2) set to 2 where asked."""
    atoms = [Atom(atomic_number=6, aromatic=2 if atom else False), Atom(atomic_number=6)]
    bonds = [Bond(a=0, b=1, order=BondOrder.SINGLE, in_ring=2 if bond else False)]
    return graph_of(atoms, bonds)


def atom_row(smiles, idx=0):
    return tuple(graph_matrices(featurize_smiles(smiles))[0][idx])


def bond_row(smiles, idx=0):
    return tuple(graph_matrices(featurize_smiles(smiles))[1][idx])


class TestSchema:
    def test_widths(self):
        assert ATOM_FEATURE_WIDTHS == (119, 16, 11, 4, 9, 2, 5)
        assert BOND_FEATURE_WIDTHS == (7, 4, 2)

    def test_hash_is_stable_hex(self):
        assert SCHEMA_HASH == widths_hash(ATOM_FEATURE_WIDTHS, BOND_FEATURE_WIDTHS)
        assert len(SCHEMA_HASH) == 64
        int(SCHEMA_HASH, 16)

    def test_hash_changes_with_widths(self):
        other = widths_hash((119, 16, 11, 4, 9, 2, 6), BOND_FEATURE_WIDTHS)
        assert other != SCHEMA_HASH

    def test_category_values_are_the_oracle_indices(self):
        # the parser's members are written as feature indices: each class
        # counts 0, 1, ... in declaration order, matches the oracle's own
        # table, and is as wide as its schema column
        for category, oracle, width in (
            (Chirality, CHIRALITY_INDEX, ATOM_FEATURE_WIDTHS[3]),
            (BondDirection, DIRECTION_INDEX, BOND_FEATURE_WIDTHS[0]),
            (BondOrder, BOND_TYPE_INDEX, BOND_FEATURE_WIDTHS[1]),
        ):
            assert [int(member) for member in category] == list(range(len(category)))
            assert {member: int(member) for member in category} == oracle
            assert width == len(category) == len(oracle)
            # members hash as the ints they are, in C
            assert category.__hash__ is int.__hash__


class TestAtomRows:
    # Columns: atomic type, formal charge, degree, chirality, numH,
    # aromaticity, hybridization (s=0, sp=1, sp2=2, sp3=3, misc=4).

    def test_benzene_carbon(self):
        assert atom_row("c1ccccc1") == (6, 7, 2, 0, 1, 1, 2)

    def test_methane(self):
        assert atom_row("C") == (6, 7, 0, 0, 4, 0, 3)

    def test_ammonium(self):
        assert atom_row("[NH4+]") == (7, 8, 0, 0, 4, 0, 3)

    def test_carbon_dioxide_center_is_sp(self):
        assert atom_row("O=C=O", 1) == (6, 7, 2, 0, 0, 0, 1)

    def test_nitrile(self):
        assert atom_row("C#N", 0) == (6, 7, 1, 0, 1, 0, 1)
        assert atom_row("C#N", 1) == (7, 7, 1, 0, 0, 0, 1)

    def test_ethene_carbon_is_sp2(self):
        assert atom_row("C=C") == (6, 7, 1, 0, 2, 0, 2)

    def test_ketone_carbon_is_sp2(self):
        assert atom_row("CC(=O)C", 1) == (6, 7, 3, 0, 0, 0, 2)

    def test_pyridine_nitrogen(self):
        assert atom_row("c1ccncc1", 3) == (7, 7, 2, 0, 0, 1, 2)

    def test_thiophene_sulfur(self):
        assert atom_row("c1ccsc1", 3) == (16, 7, 2, 0, 0, 1, 2)

    def test_fluorine_is_sp3(self):
        assert atom_row("FC(F)(F)F", 0) == (9, 7, 1, 0, 0, 0, 3)

    def test_chirality_indices(self):
        assert atom_row("N[C@@H](C)O", 1)[3] == 1
        assert atom_row("N[C@H](C)O", 1)[3] == 2

    def test_negative_charge(self):
        assert atom_row("CC(=O)[O-]", 3)[1] == 6

    def test_charge_out_of_range_maps_to_misc(self):
        assert atom_row("[O-8]")[1] == 15
        assert atom_row("[O+9]")[1] == 15

    def test_bare_sodium_cation_is_misc_hybridization(self):
        assert atom_row("[Na+]") == (11, 8, 0, 0, 0, 0, 4)

    def test_hydrogen_count_clamps_at_eight(self):
        assert atom_row("[CH9]")[4] == 8

    def test_unknown_atomic_number_maps_to_misc(self):
        graph = graph_of([Atom(atomic_number=200)], [])
        assert featurize(graph).atom_values[0] == 0

    def test_degree_clamps_at_ten(self):
        atoms = [Atom(atomic_number=6) for _ in range(12)]
        bonds = [Bond(a=0, b=i, order=BondOrder.SINGLE) for i in range(1, 12)]
        graph = graph_of(atoms, bonds)
        assert featurize(graph).atom_values[2] == 10


class TestBondRows:
    def test_benzene_bond(self):
        assert bond_row("c1ccccc1") == (0, 3, 1)

    def test_ethane_bond(self):
        assert bond_row("CC") == (0, 0, 0)

    def test_ethene_bond(self):
        assert bond_row("C=C") == (0, 1, 0)

    def test_triple_bond(self):
        assert bond_row("C#N") == (0, 2, 0)

    def test_directional_bond(self):
        assert bond_row("C/C=C/C", 0) == (1, 0, 0)
        assert bond_row("C/C=C\\C", 2) == (2, 0, 0)

    def test_ring_bond_flag(self):
        assert bond_row("C1CC1", 0) == (0, 0, 1)
        assert bond_row("CC1CC1", 0) == (0, 0, 0)


class TestArrays:
    def test_shapes_and_dtypes(self):
        fg = featurize_smiles("CC(=O)O")
        assert (fg.n_atoms, fg.n_bonds) == (4, 3)
        assert (len(fg.atom_values), len(fg.bond_values), len(fg.endpoint_values)) == (28, 9, 6)
        atoms, bonds, endpoints = graph_matrices(fg)
        assert atoms.shape == (4, 7)
        assert bonds.shape == (3, 3)
        assert endpoints.shape == (3, 2)
        assert atoms.dtype == bonds.dtype == endpoints.dtype == np.int64

    def test_endpoints_match_graph(self):
        graph = parse_smiles("CC(=O)O")
        fg = featurize(graph)
        assert fg.endpoint_values == [end for b in graph.bonds for end in (b.a, b.b)]

    def test_molecule_without_bonds(self):
        fg = featurize_smiles("C")
        assert fg.bond_values == fg.endpoint_values == []
        _, bonds, endpoints = graph_matrices(fg)
        assert bonds.shape == (0, 3)
        assert endpoints.shape == (0, 2)

    @pytest.mark.parametrize(
        "smiles",
        ["C", "CCO", "c1ccccc1", "CC(=O)[O-]", "C1CCC2CCCCC2C1", "N#Cc1ccccc1"],
    )
    def test_indices_in_schema_range(self, smiles):
        atoms, bonds, _ = graph_matrices(featurize_smiles(smiles))
        for col, width in enumerate(ATOM_FEATURE_WIDTHS):
            assert np.all(atoms[:, col] >= 0)
            assert np.all(atoms[:, col] < width)
        for col, width in enumerate(BOND_FEATURE_WIDTHS):
            assert np.all(bonds[:, col] >= 0)
            assert np.all(bonds[:, col] < width)

    def test_atom_order_follows_input_order(self):
        assert atom_row("CCO", 2)[0] == 8

    def test_isomorphic_rewrites_give_same_multisets(self):
        for left, right in [("CCO", "OCC"), ("Cc1ccccc1", "c1ccccc1C")]:
            a = graph_matrices(featurize_smiles(left))
            b = graph_matrices(featurize_smiles(right))
            assert sorted(map(tuple, a[0])) == sorted(map(tuple, b[0]))
            assert sorted(map(tuple, a[1])) == sorted(map(tuple, b[1]))

    def test_bad_schema_width_raises(self):
        with pytest.raises(SchemaError):
            featurize(out_of_range_graph(atom=True))


# The oracle: per-row builders with their own index tables, and a
# hybridization that walks each atom's neighbours.  ``featurize`` shares none
# of this code.
CHIRALITY_INDEX = {
    Chirality.NONE: 0,
    Chirality.CLOCKWISE: 1,
    Chirality.COUNTERCLOCKWISE: 2,
    Chirality.OTHER: 3,
}
DIRECTION_INDEX = {
    BondDirection.NONE: 0,
    BondDirection.UP: 1,
    BondDirection.DOWN: 2,
    BondDirection.BEGIN_WEDGE: 3,
    BondDirection.BEGIN_DASH: 4,
    BondDirection.EITHER: 5,
    BondDirection.UNKNOWN: 6,
}
BOND_TYPE_INDEX = {
    BondOrder.SINGLE: 0,
    BondOrder.DOUBLE: 1,
    BondOrder.TRIPLE: 2,
    BondOrder.AROMATIC: 3,
}


def hybridization(graph, idx):
    """s=0, sp=1, sp2=2, sp3=3, misc=4."""
    atom = graph.atoms[idx]
    if 0 < atom.atomic_number <= 2:
        return 0
    doubles = triples = 0
    for _, bond_idx in graph.neighbors[idx]:
        order = graph.bonds[bond_idx].order
        if order is BondOrder.DOUBLE:
            doubles += 1
        elif order is BondOrder.TRIPLE:
            triples += 1
    if triples >= 1 or doubles >= 2:
        return 1
    if atom.aromatic or (doubles >= 1 and atom.degree + atom.hydrogens <= 3):
        return 2
    if atom.degree + atom.hydrogens > 0:
        return 3
    return 4


def atom_feature_indices(graph, idx):
    atom = graph.atoms[idx]
    atomic = atom.atomic_number if 1 <= atom.atomic_number <= 118 else 0
    charge = atom.formal_charge + 7 if -7 <= atom.formal_charge <= 7 else 15
    return (
        atomic,
        charge,
        min(atom.degree, 10),
        CHIRALITY_INDEX[atom.chirality],
        min(atom.hydrogens, 8),
        int(atom.aromatic),
        hybridization(graph, idx),
    )


def bond_feature_indices(bond):
    return (DIRECTION_INDEX[bond.direction], BOND_TYPE_INDEX[bond.order], int(bond.in_ring))


def reference_featurize(graph):
    """Per-row tuples through ``np.asarray(...).reshape``, then a range check
    with separate lower and upper comparisons."""
    atom_rows = [atom_feature_indices(graph, i) for i in range(len(graph.atoms))]
    bond_rows = [bond_feature_indices(b) for b in graph.bonds]
    endpoints = [(b.a, b.b) for b in graph.bonds]
    arrays = (
        np.asarray(atom_rows, dtype=np.int64).reshape(-1, 7),
        np.asarray(bond_rows, dtype=np.int64).reshape(-1, 3),
        np.asarray(endpoints, dtype=np.int64).reshape(-1, 2),
    )
    for matrix, widths, kind in (
        (arrays[0], ATOM_FEATURE_WIDTHS, "atom"),
        (arrays[1], BOND_FEATURE_WIDTHS, "bond"),
    ):
        if matrix.size == 0:
            continue
        limits = np.asarray(widths, dtype=np.int64)
        if np.any(matrix < 0) or np.any(matrix >= limits):
            raise SchemaError(f"{kind} feature index outside schema widths")
    return arrays


def _outcome(function, graph):
    try:
        return function(graph)
    except SchemaError as exc:
        return str(exc)


def assert_matches_reference(graph):
    expected = _outcome(reference_featurize, graph)
    got = _outcome(featurize, graph)
    if isinstance(expected, str):
        assert got == expected
        return
    assert not isinstance(got, str), got
    for array, want in zip(graph_matrices(got), expected):
        assert array.dtype == np.int64
        assert array.shape == want.shape
        assert array.flags.c_contiguous
        np.testing.assert_array_equal(array, want)


def _test_file_smiles() -> list[str]:
    """Every string literal of the SMILES and featurizer test modules that
    parses as a molecule."""
    found = []
    for name in ("test_smiles.py", "test_featurize.py"):
        tree = ast.parse((Path(__file__).parent / name).read_text())
        for node in ast.walk(tree):
            if isinstance(node, ast.Constant) and isinstance(node.value, str):
                try:
                    parse_smiles(node.value)
                except SmilesError:
                    continue
                found.append(node.value)
    return sorted(set(found))


# Bracket, charge, chirality, direction, aromatic-heteroatom and %nn cases:
# every string of tests/test_smiles.py that parses, plus a few more.
EDGE_CASES = (
    "C", "C#N", "C%12CCC%12", "C/C=C/C", "C/C=C\\C", "C1CC1C", "C1CC1C1CC1",
    "C1CCC2CCCCC2C1", "C1CCCCC1", "C1CCCCC=1", "C=1CCCCC1", "C=C", "CC",
    "CC(=O)O", "CC(=O)[O-]", "CCO", "CSC", "Cc1ccccc1", "Cc1ccccc1C1CC1",
    "ClCCl", "FC(F)(F)F", "N#Cc1ccccc1", "NC(C)O", "N[C@@H](C)O", "N[C@H](C)O",
    "O", "O=C=O", "[13CH4]", "[CH2]", "[CH4:7]", "[CH4]", "[C]", "[Ca++]",
    "[Fe+2]", "[H][H]", "[NH4+]", "[O--]", "[O-2]", "[OH-]", "c1cc[nH]c1",
    "c1ccccc1", "c1ccncc1", "c1ccoc1", "c1ccsc1",
    "[se]1cccc1", "c1cc[te]c1", "[2H]C([2H])([2H])Br", "F[C@](Cl)(Br)I",
    "[C@TH1H](F)(Cl)Br", "F/C=C/C=C\\F", "C%10CC%10%11CC%11", "C%99CC1CC1%99",
    "[O-8]", "[O+9]", "[CH9]", "[Na+]", "[13CH3]O", "B1C=CC=C1", "[b-]1cccc1",
    "Ic1ccc(Br)cc1", "P(=O)(O)(O)O", "S(=O)(=O)(C)C", "C#CC#N", "c1ccc2[nH]ccc2c1",
)


def oracle_corpus():
    """2000 compounds of 4-14 atoms and 200 of 15-40 from one fixed stream,
    then the edge cases."""
    stream = rng_stream(0, 11)
    small = [random_molecule(stream, 4, 14) for _ in range(2000)]
    large = [random_molecule(stream, 15, 40) for _ in range(200)]
    return small + large + list(EDGE_CASES)


# sha256 of every array of oracle_corpus() in order (atom indices, bond
# indices, endpoints per compound), computed with the featurizer of the
# commit before the single-pass rewrite of the parser and featurizer.
ORACLE_CORPUS_SHA256 = "6abde2309d41b134c8b512802970d66b7dd63811c999a7e35bdfd3c8f07a22b1"


class TestFeaturizeOracle:
    """``featurize`` keeps each molecule's integers as lists and checks the
    columns its clamps leave open as it writes them; the per-row array
    construction and two-sided range check it replaced are the
    reference."""

    def test_every_test_file_smiles(self):
        corpus = _test_file_smiles()
        assert len(corpus) > 50
        for smiles in corpus:
            assert_matches_reference(parse_smiles(smiles))

    def test_fixed_corpus_matches_oracle_and_pinned_digest(self):
        digest = hashlib.sha256()
        for smiles in oracle_corpus():
            graph = parse_smiles(smiles)
            assert_matches_reference(graph)
            for array in graph_matrices(featurize(graph)):
                digest.update(array.tobytes())
        assert digest.hexdigest() == ORACLE_CORPUS_SHA256

    def test_random_library(self):
        stream = rng_stream(0, 5)
        for _ in range(500):
            assert_matches_reference(parse_smiles(random_molecule(stream)))

    @pytest.mark.parametrize(
        "smiles",
        ["C", "[Na+]", "[NH4+]", "CC(=O)[O-]", "[O-8]", "[13CH3]O", "N[C@@H](C)O",
         "F[C@](Cl)(Br)I", "C/C=C\\C", "[CH9]"],
    )
    def test_bracket_charged_chiral_and_bondless(self, smiles):
        assert_matches_reference(parse_smiles(smiles))

    def test_bondless_views(self):
        atoms, bonds, endpoints = graph_matrices(featurize_smiles("C"))
        assert atoms.shape == (1, 7)
        assert bonds.shape == (0, 3)
        assert endpoints.shape == (0, 2)

    def test_schema_rejecting_atoms(self):
        graph = out_of_range_graph(atom=True)
        assert_matches_reference(graph)
        with pytest.raises(SchemaError, match="^atom feature index"):
            featurize(graph)

    def test_schema_rejecting_only_bonds(self):
        graph = out_of_range_graph(bond=True)
        assert_matches_reference(graph)
        with pytest.raises(SchemaError, match="^bond feature index"):
            featurize(graph)
        featurize(out_of_range_graph())

    def test_atoms_are_checked_before_bonds(self):
        graph = out_of_range_graph(atom=True, bond=True)
        assert_matches_reference(graph)
        with pytest.raises(SchemaError, match="^atom feature index"):
            featurize(graph)

    def test_negative_index_caught_by_single_comparison(self):
        graph = graph_of([Atom(atomic_number=6, hydrogens=-1)], [])
        assert atom_feature_indices(graph, 0)[4] == -1
        assert_matches_reference(graph)
        with pytest.raises(SchemaError, match="^atom feature index"):
            featurize(graph)

    @staticmethod
    def _hand_built(column, value):
        """Ethane with one atom or bond field set to ``value`` after
        ``graph_of`` has filled in the degrees."""
        graph = graph_of(
            [Atom(atomic_number=6), Atom(atomic_number=6)],
            [Bond(a=0, b=1, order=BondOrder.SINGLE)],
        )
        owner = graph.bonds[0] if column == "in_ring" else graph.atoms[0]
        setattr(owner, column, value)
        return graph

    @pytest.mark.parametrize(
        "column, value, kind",
        [
            ("degree", -1, "atom"),
            ("hydrogens", -1, "atom"),
            ("aromatic", -1, "atom"),
            ("aromatic", 2, "atom"),
            ("in_ring", -1, "bond"),
            ("in_ring", 2, "bond"),
        ],
    )
    def test_each_column_that_can_leave_its_width(self, column, value, kind):
        graph = self._hand_built(column, value)
        assert_matches_reference(graph)
        with pytest.raises(SchemaError, match=f"^{kind} feature index"):
            featurize(graph)

    @pytest.mark.parametrize("atom_column", ["degree", "hydrogens", "aromatic"])
    def test_atom_fault_reported_before_bond_fault(self, atom_column):
        graph = self._hand_built("in_ring", -1)
        setattr(graph.atoms[1], atom_column, -1)
        assert_matches_reference(graph)
        with pytest.raises(SchemaError, match="^atom feature index"):
            featurize(graph)

    def test_feature_lists_must_match_counts(self):
        fg = featurize_smiles("CCO")
        with pytest.raises(ValueError, match="^feature lists must hold"):
            FeaturizedGraph(fg.atom_values, fg.bond_values, fg.endpoint_values, 4, 2)
        with pytest.raises(ValueError, match="^feature lists must hold"):
            FeaturizedGraph(fg.atom_values, fg.bond_values[:-3], fg.endpoint_values, 3, 2)
