"""Parser tests against a hand-verified molecule corpus."""

import random

import pytest

import molscreen.smiles as smiles_module
from molscreen.smiles import (
    Atom,
    AtomSyntaxError,
    Bond,
    BondDirection,
    BondOrder,
    Chirality,
    EmptySmilesError,
    MolGraph,
    MultipleFragmentsError,
    SmilesError,
    StructureError,
    UnclosedRingError,
    UnknownAtomError,
    UnmatchedParenthesisError,
    parse_smiles,
    perceive_rings,
)

S = BondOrder.SINGLE
D = BondOrder.DOUBLE
T = BondOrder.TRIPLE
A = BondOrder.AROMATIC

# Each entry: smiles -> (atoms, bonds) where atoms are
# (atomic_number, aromatic, formal_charge, hydrogens) in appearance order and
# bonds are (a, b, order, in_ring) in creation order.  All values were worked
# out by hand from the valence rules.
CORPUS = {
    "C": ([(6, False, 0, 4)], []),
    "O": ([(8, False, 0, 2)], []),
    "[NH4+]": ([(7, False, 1, 4)], []),
    "CC": (
        [(6, False, 0, 3), (6, False, 0, 3)],
        [(0, 1, S, False)],
    ),
    "C=C": (
        [(6, False, 0, 2), (6, False, 0, 2)],
        [(0, 1, D, False)],
    ),
    "C#N": (
        [(6, False, 0, 1), (7, False, 0, 0)],
        [(0, 1, T, False)],
    ),
    "CCO": (
        [(6, False, 0, 3), (6, False, 0, 2), (8, False, 0, 1)],
        [(0, 1, S, False), (1, 2, S, False)],
    ),
    "CC(=O)O": (
        [(6, False, 0, 3), (6, False, 0, 0), (8, False, 0, 0), (8, False, 0, 1)],
        [(0, 1, S, False), (1, 2, D, False), (1, 3, S, False)],
    ),
    "c1ccccc1": (
        [(6, True, 0, 1)] * 6,
        [
            (0, 1, A, True),
            (1, 2, A, True),
            (2, 3, A, True),
            (3, 4, A, True),
            (4, 5, A, True),
            (5, 0, A, True),
        ],
    ),
    "Cc1ccccc1": (
        [(6, False, 0, 3), (6, True, 0, 0)] + [(6, True, 0, 1)] * 5,
        [
            (0, 1, S, False),
            (1, 2, A, True),
            (2, 3, A, True),
            (3, 4, A, True),
            (4, 5, A, True),
            (5, 6, A, True),
            (6, 1, A, True),
        ],
    ),
    "c1ccncc1": (
        [
            (6, True, 0, 1),
            (6, True, 0, 1),
            (6, True, 0, 1),
            (7, True, 0, 0),
            (6, True, 0, 1),
            (6, True, 0, 1),
        ],
        [
            (0, 1, A, True),
            (1, 2, A, True),
            (2, 3, A, True),
            (3, 4, A, True),
            (4, 5, A, True),
            (5, 0, A, True),
        ],
    ),
    "c1cc[nH]c1": (
        [
            (6, True, 0, 1),
            (6, True, 0, 1),
            (6, True, 0, 1),
            (7, True, 0, 1),
            (6, True, 0, 1),
        ],
        [
            (0, 1, A, True),
            (1, 2, A, True),
            (2, 3, A, True),
            (3, 4, A, True),
            (4, 0, A, True),
        ],
    ),
    "C1CCCCC1": (
        [(6, False, 0, 2)] * 6,
        [
            (0, 1, S, True),
            (1, 2, S, True),
            (2, 3, S, True),
            (3, 4, S, True),
            (4, 5, S, True),
            (5, 0, S, True),
        ],
    ),
    "C1CC1C": (
        [
            (6, False, 0, 2),
            (6, False, 0, 2),
            (6, False, 0, 1),
            (6, False, 0, 3),
        ],
        [
            (0, 1, S, True),
            (1, 2, S, True),
            (2, 0, S, True),
            (2, 3, S, False),
        ],
    ),
    "ClCCl": (
        [(17, False, 0, 0), (6, False, 0, 2), (17, False, 0, 0)],
        [(0, 1, S, False), (1, 2, S, False)],
    ),
    "FC(F)(F)F": (
        [
            (9, False, 0, 0),
            (6, False, 0, 0),
            (9, False, 0, 0),
            (9, False, 0, 0),
            (9, False, 0, 0),
        ],
        [(0, 1, S, False), (1, 2, S, False), (1, 3, S, False), (1, 4, S, False)],
    ),
    "O=C=O": (
        [(8, False, 0, 0), (6, False, 0, 0), (8, False, 0, 0)],
        [(0, 1, D, False), (1, 2, D, False)],
    ),
    "CC(=O)[O-]": (
        [(6, False, 0, 3), (6, False, 0, 0), (8, False, 0, 0), (8, False, -1, 0)],
        [(0, 1, S, False), (1, 2, D, False), (1, 3, S, False)],
    ),
    "[13CH4]": ([(6, False, 0, 4)], []),
    "N#Cc1ccccc1": (
        [(7, False, 0, 0), (6, False, 0, 0), (6, True, 0, 0)]
        + [(6, True, 0, 1)] * 5,
        [
            (0, 1, T, False),
            (1, 2, S, False),
            (2, 3, A, True),
            (3, 4, A, True),
            (4, 5, A, True),
            (5, 6, A, True),
            (6, 7, A, True),
            (7, 2, A, True),
        ],
    ),
    "C1CCC2CCCCC2C1": (
        [
            (6, False, 0, 2),
            (6, False, 0, 2),
            (6, False, 0, 2),
            (6, False, 0, 1),
            (6, False, 0, 2),
            (6, False, 0, 2),
            (6, False, 0, 2),
            (6, False, 0, 2),
            (6, False, 0, 1),
            (6, False, 0, 2),
        ],
        [
            (0, 1, S, True),
            (1, 2, S, True),
            (2, 3, S, True),
            (3, 4, S, True),
            (4, 5, S, True),
            (5, 6, S, True),
            (6, 7, S, True),
            (7, 8, S, True),
            (8, 3, S, True),
            (8, 9, S, True),
            (9, 0, S, True),
        ],
    ),
    "C%12CCC%12": (
        [(6, False, 0, 2)] * 4,
        [(0, 1, S, True), (1, 2, S, True), (2, 3, S, True), (3, 0, S, True)],
    ),
    "CSC": (
        [(6, False, 0, 3), (16, False, 0, 0), (6, False, 0, 3)],
        [(0, 1, S, False), (1, 2, S, False)],
    ),
    "c1ccoc1": (
        [
            (6, True, 0, 1),
            (6, True, 0, 1),
            (6, True, 0, 1),
            (8, True, 0, 0),
            (6, True, 0, 1),
        ],
        [
            (0, 1, A, True),
            (1, 2, A, True),
            (2, 3, A, True),
            (3, 4, A, True),
            (4, 0, A, True),
        ],
    ),
    "c1ccsc1": (
        [
            (6, True, 0, 1),
            (6, True, 0, 1),
            (6, True, 0, 1),
            (16, True, 0, 0),
            (6, True, 0, 1),
        ],
        [
            (0, 1, A, True),
            (1, 2, A, True),
            (2, 3, A, True),
            (3, 4, A, True),
            (4, 0, A, True),
        ],
    ),
}


def graph_of(atoms, bonds):
    """A MolGraph of hand-built atoms and bonds, with the neighbour lists
    and degrees the parser would give them."""
    graph = MolGraph(atoms=atoms, bonds=bonds, neighbors=[[] for _ in atoms])
    for idx, bond in enumerate(bonds):
        graph.neighbors[bond.a].append((bond.b, idx))
        graph.neighbors[bond.b].append((bond.a, idx))
    for v, atom in enumerate(atoms):
        atom.degree = len(graph.neighbors[v])
    return graph


def ring_edge_oracle(n_atoms, edges):
    """Edge lies on a cycle iff its endpoints stay connected without it."""

    def connected(start, goal, skip):
        seen = {start}
        frontier = [start]
        while frontier:
            v = frontier.pop()
            if v == goal:
                return True
            for j, (a, b) in enumerate(edges):
                if j == skip:
                    continue
                if a == v and b not in seen:
                    seen.add(b)
                    frontier.append(b)
                elif b == v and a not in seen:
                    seen.add(a)
                    frontier.append(a)
        return False

    return [connected(a, b, j) for j, (a, b) in enumerate(edges)]


class TestCorpus:
    @pytest.mark.parametrize("smiles", sorted(CORPUS))
    def test_atoms(self, smiles):
        graph = parse_smiles(smiles)
        expected = CORPUS[smiles][0]
        assert len(graph.atoms) == len(expected)
        got = [
            (a.atomic_number, a.aromatic, a.formal_charge, a.hydrogens)
            for a in graph.atoms
        ]
        assert got == list(expected)

    @pytest.mark.parametrize("smiles", sorted(CORPUS))
    def test_bonds(self, smiles):
        graph = parse_smiles(smiles)
        expected = CORPUS[smiles][1]
        got = [(b.a, b.b, b.order, b.in_ring) for b in graph.bonds]
        assert got == list(expected)

    @pytest.mark.parametrize("smiles", sorted(CORPUS))
    def test_ring_flags_match_oracle(self, smiles):
        graph = parse_smiles(smiles)
        edges = [(b.a, b.b) for b in graph.bonds]
        oracle = ring_edge_oracle(len(graph.atoms), edges)
        assert [b.in_ring for b in graph.bonds] == oracle

    @pytest.mark.parametrize("smiles", sorted(CORPUS))
    def test_degree_matches_incidence(self, smiles):
        graph = parse_smiles(smiles)
        counts = [0] * len(graph.atoms)
        for b in graph.bonds:
            counts[b.a] += 1
            counts[b.b] += 1
        assert [a.degree for a in graph.atoms] == counts

    @pytest.mark.parametrize("smiles", sorted(CORPUS))
    def test_deterministic(self, smiles):
        assert parse_smiles(smiles) == parse_smiles(smiles)


class TestChiralityAndDirection:
    def test_at_is_counterclockwise(self):
        graph = parse_smiles("N[C@H](C)O")
        assert graph.atoms[1].chirality is Chirality.COUNTERCLOCKWISE
        assert graph.atoms[1].hydrogens == 1

    def test_at_at_is_clockwise(self):
        graph = parse_smiles("N[C@@H](C)O")
        assert graph.atoms[1].chirality is Chirality.CLOCKWISE

    def test_unmarked_atoms_have_no_chirality(self):
        graph = parse_smiles("NC(C)O")
        assert all(a.chirality is Chirality.NONE for a in graph.atoms)

    def test_slash_directions(self):
        graph = parse_smiles("C/C=C/C")
        assert [b.order for b in graph.bonds] == [S, D, S]
        assert [b.direction for b in graph.bonds] == [
            BondDirection.UP,
            BondDirection.NONE,
            BondDirection.UP,
        ]

    def test_backslash_direction(self):
        graph = parse_smiles("C/C=C\\C")
        assert graph.bonds[2].direction is BondDirection.DOWN


class TestBracketAtoms:
    def test_charge_digits(self):
        assert parse_smiles("[Fe+2]").atoms[0].formal_charge == 2
        assert parse_smiles("[O-2]").atoms[0].formal_charge == -2

    def test_repeated_charge_signs(self):
        assert parse_smiles("[Ca++]").atoms[0].formal_charge == 2
        assert parse_smiles("[O--]").atoms[0].formal_charge == -2

    def test_default_hydrogen_count_is_zero(self):
        atom = parse_smiles("[C]").atoms[0]
        assert atom.hydrogens == 0
        assert atom.bracket_hydrogens == 0

    def test_lone_h_after_symbol_means_one(self):
        assert parse_smiles("[OH-]").atoms[0].hydrogens == 1

    def test_isotope_is_discarded(self):
        assert parse_smiles("[13CH4]") == parse_smiles("[CH4]")

    def test_bracket_hydrogen_count_not_inferred(self):
        # Bracket atoms take the declared H count verbatim, never valence rules.
        assert parse_smiles("[CH2]").atoms[0].hydrogens == 2

    def test_atom_class_is_discarded(self):
        assert parse_smiles("[CH4:7]") == parse_smiles("[CH4]")

    def test_explicit_hydrogen_atom(self):
        graph = parse_smiles("[H][H]")
        assert [a.atomic_number for a in graph.atoms] == [1, 1]


class TestErrors:
    def test_empty_string(self):
        with pytest.raises(EmptySmilesError) as exc:
            parse_smiles("")
        assert exc.value.position == 0

    def test_unclosed_ring(self):
        with pytest.raises(UnclosedRingError) as exc:
            parse_smiles("C1CC")
        assert exc.value.position == 1

    def test_unknown_atom_symbol(self):
        with pytest.raises(UnknownAtomError) as exc:
            parse_smiles("Cz")
        assert exc.value.position == 1

    def test_unknown_bracket_symbol(self):
        with pytest.raises(UnknownAtomError):
            parse_smiles("[Xq]")

    def test_unmatched_close_paren(self):
        with pytest.raises(UnmatchedParenthesisError) as exc:
            parse_smiles("CC)C")
        assert exc.value.position == 2

    def test_unclosed_open_paren(self):
        with pytest.raises(UnmatchedParenthesisError) as exc:
            parse_smiles("CC(C")
        assert exc.value.position == 2

    def test_charge_syntax_error(self):
        with pytest.raises(AtomSyntaxError):
            parse_smiles("[C+-]")

    def test_hydrogen_before_symbol_error(self):
        # H-count before the element symbol is malformed bracket syntax.
        with pytest.raises(SmilesError):
            parse_smiles("[H4N]")

    def test_unterminated_bracket(self):
        with pytest.raises(AtomSyntaxError) as exc:
            parse_smiles("C[CH2")
        assert exc.value.position == 1

    def test_dot_rejected(self):
        with pytest.raises(MultipleFragmentsError) as exc:
            parse_smiles("CC.CC")
        assert exc.value.position == 2

    def test_double_bond_symbol(self):
        with pytest.raises(StructureError):
            parse_smiles("C==C")

    def test_leading_bond(self):
        with pytest.raises(StructureError):
            parse_smiles("=CC")

    def test_trailing_bond(self):
        with pytest.raises(StructureError):
            parse_smiles("CC=")

    def test_ring_closure_to_self(self):
        with pytest.raises(StructureError):
            parse_smiles("C11")

    def test_duplicate_ring_bond(self):
        with pytest.raises(StructureError):
            parse_smiles("C12CC12")

    def test_conflicting_ring_bond_orders(self):
        with pytest.raises(StructureError):
            parse_smiles("C=1CCCCC-1")

    def test_aromatic_bond_needs_aromatic_atoms(self):
        with pytest.raises(StructureError):
            parse_smiles("C:C")

    def test_errors_carry_byte_offsets(self):
        for bad, err in [
            ("C1CC", UnclosedRingError),
            ("CC(C", UnmatchedParenthesisError),
            ("Cz", UnknownAtomError),
            ("", EmptySmilesError),
        ]:
            with pytest.raises(err) as exc:
                parse_smiles(bad)
            assert isinstance(exc.value.position, int)
            assert 0 <= exc.value.position <= len(bad)


class TestAsciiDigits:
    """Ring numbers and bracket numbers are ASCII digits only; any other
    Unicode digit is a SmilesError with its position, never a bare
    ValueError from int() or a silently accepted ring."""

    @pytest.mark.parametrize(
        "smiles, error, position",
        [
            ("C\u00b2", UnknownAtomError, 1),  # superscript two as a ring digit
            ("C\u0663CC\u0663", UnknownAtomError, 1),  # Arabic-Indic three
            ("C%\u00b2\u00b3", StructureError, 1),
            ("[CH\u00b2]", AtomSyntaxError, 3),
            ("[C+\u00b2]", AtomSyntaxError, 3),
            ("[\u00b2C]", UnknownAtomError, 1),
            ("[C:\u00b2]", AtomSyntaxError, 3),
        ],
    )
    def test_non_ascii_digit_is_a_positioned_smiles_error(self, smiles, error, position):
        with pytest.raises(error) as exc:
            parse_smiles(smiles)
        assert exc.value.position == position

    def test_ascii_forms_still_parse(self):
        assert len(parse_smiles("C%12CC%12").bonds) == 3
        atom = parse_smiles("[2CH2+2:3]").atoms[0]
        assert (atom.hydrogens, atom.formal_charge) == (2, 2)


class TestRingClosureBonds:
    def test_order_given_at_open(self):
        graph = parse_smiles("C=1CCCCC1")
        assert graph.bonds[-1].order is D

    def test_order_given_at_close(self):
        graph = parse_smiles("C1CCCCC=1")
        assert graph.bonds[-1].order is D

    def test_digit_reusable_after_close(self):
        graph = parse_smiles("C1CC1C1CC1")
        assert len(graph.bonds) == 7
        ring_flags = [b.in_ring for b in graph.bonds]
        assert ring_flags == [True, True, True, False, True, True, True]


class TestValenceProperty:
    BOND_VALUE = {S: 1, D: 2, T: 3, A: 1}
    VALENCES = {
        5: (3,),
        6: (4,),
        7: (3, 5),
        8: (2,),
        9: (1,),
        15: (3, 5),
        16: (2, 4, 6),
        17: (1,),
        35: (1,),
        53: (1,),
    }

    @pytest.mark.parametrize("smiles", sorted(CORPUS))
    def test_non_aromatic_organic_atoms_hit_a_declared_valence(self, smiles):
        graph = parse_smiles(smiles)
        for idx, atom in enumerate(graph.atoms):
            if atom.aromatic or atom.bracket_hydrogens is not None:
                continue
            total = atom.hydrogens + sum(
                self.BOND_VALUE[graph.bonds[b].order]
                for _, b in graph.neighbors[idx]
            )
            assert total in self.VALENCES[atom.atomic_number]


class TestPerceiveRings:
    def _random_graph(self, rng):
        n = rng.randint(2, 12)
        edges = set()
        # random spanning tree then a few extra edges
        for v in range(1, n):
            u = rng.randrange(v)
            edges.add((u, v))
        for _ in range(rng.randint(0, 4)):
            a, b = rng.sample(range(n), 2)
            key = (min(a, b), max(a, b))
            if key not in edges:
                edges.add(key)
        atoms = [
            Atom(atomic_number=6, aromatic=False, formal_charge=0, hydrogens=0)
            for _ in range(n)
        ]
        bonds = [Bond(a=a, b=b, order=S) for a, b in sorted(edges)]
        return graph_of(atoms, bonds)

    def test_matches_oracle_on_random_graphs(self):
        rng = random.Random(20260814)
        for _ in range(300):
            graph = self._random_graph(rng)
            perceive_rings(graph)
            edges = [(b.a, b.b) for b in graph.bonds]
            assert [b.in_ring for b in graph.bonds] == ring_edge_oracle(
                len(graph.atoms), edges
            )

    @pytest.mark.parametrize("smiles", sorted(CORPUS))
    def test_parser_searches_only_cyclic_graphs(self, smiles, monkeypatch):
        # a parsed molecule is connected, so fewer bonds than atoms means a
        # tree: the parser skips the search and every flag stays False
        searched = []

        def spy(graph):
            searched.append(graph)
            return perceive_rings(graph)

        monkeypatch.setattr(smiles_module, "perceive_rings", spy)
        graph = parse_smiles(smiles)
        oracle = ring_edge_oracle(len(graph.atoms), [(b.a, b.b) for b in graph.bonds])
        assert [b.in_ring for b in graph.bonds] == oracle
        assert searched == ([graph] if any(oracle) else [])

    def test_idempotent(self):
        graph = parse_smiles("Cc1ccccc1C1CC1")
        flags = [b.in_ring for b in graph.bonds]
        perceive_rings(graph)
        assert [b.in_ring for b in graph.bonds] == flags
