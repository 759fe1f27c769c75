"""Parser tests against a hand-verified molecule corpus."""

import random
import re

import numpy as np
import pytest

import molscreen.smiles as smiles_module
from molscreen.engine import rng_stream
from molscreen.featurize import featurize, featurize_smiles
from molscreen.smiles import (
    Atom,
    AtomSyntaxError,
    Bond,
    BondDirection,
    BondOrder,
    Chirality,
    ELEMENTS,
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
from molscreen.synth import random_molecule

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

    def test_aromatic_arsenic(self):
        # OpenSMILES's bracket aromatic symbols are b c n o p s se as
        graph = parse_smiles("c1cc[as]c1")
        assert graph.atoms[3] == Atom(33, aromatic=True, bracket_hydrogens=0, degree=2)
        assert all(bond.order is BondOrder.AROMATIC for bond in graph.bonds)


class TestBracketAtomProperty:
    """Bodies built from the parts of OpenSMILES's
    ``'[' isotope? symbol chiral? hcount? charge? class? ']'``, in order and
    shuffled, some with one character inserted, replaced or dropped: each
    parses or raises a positioned AtomSyntaxError or UnknownAtomError, and
    a parsed body's atom does not depend on its isotope or atom class."""

    PARTS = (
        ("", "13", "007"),
        ("C", "c", "Sc", "se", "as", "H", "Xq", ""),
        ("", "@", "@@", "@TH1", "@OH", "@SP"),
        ("", "H", "H0", "H3", "H12"),
        ("", "+", "--", "+2", "-0", "+++"),
        ("", ":1", ":42", ":"),
    )
    MUTATIONS = ("@", "H", "+", "-", ":", "0", "9", "C", "c", "s", "S", "\u00b2", "\u0663")

    def bodies(self, n):
        rnd = random.Random(20211)
        for _ in range(n):
            parts = [rnd.choice(options) for options in self.PARTS]
            if rnd.random() < 0.3:
                rnd.shuffle(parts)
            body = "".join(parts)
            if rnd.random() < 0.5:
                k, char = rnd.randrange(len(body) + 1), rnd.choice(self.MUTATIONS)
                body = rnd.choice(
                    (body[:k] + char + body[k:], body[:k] + char + body[k + 1 :],
                     body[:k] + body[k + 1 :])
                )
            yield body

    def test_parses_or_fails_inside_its_brackets(self):
        accepted = 0
        for body in self.bodies(4000):
            try:
                atom = parse_smiles(f"[{body}]").atoms[0]
            except (AtomSyntaxError, UnknownAtomError) as exc:
                assert 1 <= exc.position <= len(body) + 1, body
                continue
            accepted += 1
            bare = re.sub(r":[0-9]+\Z", "", body.lstrip("0123456789"))
            assert parse_smiles(f"[{bare}]").atoms[0] == atom, body
        assert 400 < accepted < 3600


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

    @pytest.mark.parametrize(
        "smiles, position",
        [("C()C", 1), ("CC()", 2), ("C(())C", 2), ("C1CC1()", 5), ("C(1)CC1", 1)],
    )
    def test_branch_without_an_atom(self, smiles, position):
        # OpenSMILES: branch ::= '(' [bond|dot] chain ')', and a chain
        # starts with an atom; a ring bond alone is not one
        with pytest.raises(StructureError) as exc:
            parse_smiles(smiles)
        assert exc.value.position == position

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


def shuffled_smiles(graph, rng):
    """SMILES for a parsed molecule without chirality or bond directions,
    written from a random root with neighbours visited in random order and
    ring bonds given random closure numbers (``0``-``9`` and ``%10``-``%99``,
    reused once closed), each ring bond's symbol at its opening, its closing
    or both.  A bond symbol the parser would infer is written half the time.
    Bracket atoms keep their element, aromaticity, H count and charge, each
    count in one of its two spellings; featurize drops the isotope and atom
    class, so they are not written.  Returns the SMILES and the graph's atom
    index for each atom of the string, in order."""
    atoms = graph.atoms
    order = {frozenset((bond.a, bond.b)): bond.order for bond in graph.bonds}
    root = int(rng.integers(len(atoms)))
    rank = {root: 0}
    parent = {root: -1}
    children = [[] for _ in atoms]
    ring_partners = [[] for _ in atoms]

    def shuffled_neighbors(v):
        return iter(rng.permutation(sorted(w for w, _ in graph.neighbors[v])).tolist())

    stack = [(root, shuffled_neighbors(root))]
    while stack:
        v, neighbors = stack[-1]
        for w in neighbors:
            if w not in rank:
                rank[w] = len(rank)
                parent[w] = v
                children[v].append(w)
                stack.append((w, shuffled_neighbors(w)))
                break
            if w != parent[v] and rank[w] < rank[v]:
                ring_partners[v].append(w)
                ring_partners[w].append(v)
        else:
            stack.pop()

    def bond_symbol(v, w):
        symbol = "-=#:"[order[frozenset((v, w))]]
        inferred = ":" if atoms[v].aromatic and atoms[w].aromatic else "-"
        return "" if symbol == inferred and rng.random() < 0.5 else symbol

    open_numbers = {}  # ring bond -> (number, symbol to write at its closing)

    def ring_marks(v):
        marks = []
        for w in rng.permutation(ring_partners[v]).tolist():
            edge = frozenset((v, w))
            if edge in open_numbers:
                number, symbol = open_numbers.pop(edge)
            else:
                taken = {number for number, _ in open_numbers.values()}
                free = [k for k in range(100) if k not in taken]
                small = [k for k in free if k < 10]
                pool = small if small and rng.random() < 0.5 else free
                number, symbol = int(rng.choice(pool)), bond_symbol(v, w)
                at_open, at_close = [(symbol, ""), ("", symbol), (symbol, symbol)][
                    int(rng.integers(3))
                ]
                open_numbers[edge] = (number, at_close)
                symbol = at_open
            marks.append(symbol + (str(number) if number < 10 else f"%{number}"))
        return "".join(marks)

    def count(prefix, n):
        return prefix if n == 1 and rng.random() < 0.5 else f"{prefix}{n}"

    def atom_text(v):
        atom = atoms[v]
        symbol = ELEMENTS[atom.atomic_number]
        symbol = symbol.lower() if atom.aromatic else symbol
        if atom.bracket_hydrogens is None:
            return symbol
        charge = atom.formal_charge
        hydrogens = count("H", atom.hydrogens) if atom.hydrogens else ""
        sign = count("+" if charge > 0 else "-", abs(charge)) if charge else ""
        return f"[{symbol}{hydrogens}{sign}]"

    def emit(v):
        out = atom_text(v) + ring_marks(v)
        branches = [bond_symbol(v, c) + emit(c) for c in children[v]]
        return out + "".join(f"({b})" for b in branches[:-1]) + "".join(branches[-1:])

    return emit(root), sorted(rank, key=rank.get)


def assert_round_trip(graph, text, order):
    """``text`` featurizes to ``graph``'s rows: every atom row, and every
    bond row with its endpoints mapped back through the atom ``order``."""
    want, got = featurize(graph), featurize_smiles(text)
    assert got.n_atoms == want.n_atoms and got.n_bonds == want.n_bonds, text
    atom_rows = np.reshape(want.atom_values, (-1, 7))
    assert np.reshape(got.atom_values, (-1, 7)).tolist() == atom_rows[order].tolist(), text

    def bond_rows(featurized, index):
        ends = np.reshape(featurized.endpoint_values, (-1, 2))
        rows = np.reshape(featurized.bond_values, (-1, 3)).tolist()
        return sorted(
            (tuple(row), tuple(sorted(index[e] for e in pair)))
            for row, pair in zip(rows, ends.tolist())
        )

    assert bond_rows(got, order) == bond_rows(want, range(want.n_atoms)), text


class TestRoundTrip:
    """A molecule rewritten in a random atom order with random ring-closure
    numbers parses to the same featurized molecule."""

    def test_random_order_and_ring_numbers(self):
        # 200 seeded ``random_molecule`` graphs
        stream, rng = rng_stream(0, 91), np.random.default_rng(91)
        written = []
        for _ in range(200):
            graph = parse_smiles(random_molecule(stream))
            text, order = shuffled_smiles(graph, rng)
            written.append(text)
            assert_round_trip(graph, text, order)
        # the writer did reach every case it exists for
        assert any("%" in t for t in written)
        assert any(any(ch.isdigit() for ch in t.replace("%", "")) for t in written)

    def test_hand_verified_corpus(self):
        # every molecule of CORPUS and of the featurizer's edge cases that
        # has no chirality or bond direction: featurize records those as
        # written, and they change with atom order
        from test_featurize import EDGE_CASES

        rng = np.random.default_rng(92)
        written = []
        for smiles in sorted(set(CORPUS) | set(EDGE_CASES)):
            graph = parse_smiles(smiles)
            if any(a.chirality for a in graph.atoms) or any(b.direction for b in graph.bonds):
                continue
            for _ in range(10):
                text, order = shuffled_smiles(graph, rng)
                written.append(text)
                assert_round_trip(graph, text, order)
        # bracket atoms with a charge and with explicit H; outside brackets,
        # aromatic ring closures, double and triple bonds, ring-bond symbols
        # and symbols the parser would infer
        assert any(re.search(r"\[[^]]*[+-]", t) for t in written)
        assert any(re.search(r"\[[a-zA-Z]+H", t) for t in written)
        bare = [re.sub(r"\[[^]]*\]", "*", t) for t in written]
        for pattern in (r"[bcnops][\d%]", "=", "#", r"[-=#:][\d%]", "-", ":"):
            assert any(re.search(pattern, t) for t in bare), pattern
