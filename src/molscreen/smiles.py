"""SMILES parsing for organic-subset molecules.

Produces an in-memory molecular graph with aromaticity taken verbatim from
lowercase atom symbols (no aromaticity perception), valence-derived hydrogen
counts, and ring-membership flags on bonds.  Single connected molecules only;
dot-separated fragments are rejected.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum


class BondOrder(Enum):
    SINGLE = "single"
    DOUBLE = "double"
    TRIPLE = "triple"
    AROMATIC = "aromatic"


class BondDirection(Enum):
    NONE = "none"
    UP = "up"
    DOWN = "down"
    BEGIN_WEDGE = "begin_wedge"
    BEGIN_DASH = "begin_dash"
    EITHER = "either"
    UNKNOWN = "unknown"


class Chirality(Enum):
    NONE = "none"
    CLOCKWISE = "clockwise"
    COUNTERCLOCKWISE = "counterclockwise"
    OTHER = "other"


class SmilesError(ValueError):
    """Base class for parse failures; carries the byte offset of the fault."""

    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (position {position})")
        self.position = position


class EmptySmilesError(SmilesError):
    pass


class UnknownAtomError(SmilesError):
    pass


class AtomSyntaxError(SmilesError):
    """Malformed bracket-atom body (isotope/H-count/charge/chirality)."""


class UnclosedRingError(SmilesError):
    pass


class UnmatchedParenthesisError(SmilesError):
    pass


class StructureError(SmilesError):
    """Structurally invalid bond, branch, or ring-closure usage."""


class MultipleFragmentsError(SmilesError):
    pass


ELEMENTS = (
    "*", "H", "He", "Li", "Be", "B", "C", "N", "O", "F", "Ne", "Na", "Mg",
    "Al", "Si", "P", "S", "Cl", "Ar", "K", "Ca", "Sc", "Ti", "V", "Cr", "Mn",
    "Fe", "Co", "Ni", "Cu", "Zn", "Ga", "Ge", "As", "Se", "Br", "Kr", "Rb",
    "Sr", "Y", "Zr", "Nb", "Mo", "Tc", "Ru", "Rh", "Pd", "Ag", "Cd", "In",
    "Sn", "Sb", "Te", "I", "Xe", "Cs", "Ba", "La", "Ce", "Pr", "Nd", "Pm",
    "Sm", "Eu", "Gd", "Tb", "Dy", "Ho", "Er", "Tm", "Yb", "Lu", "Hf", "Ta",
    "W", "Re", "Os", "Ir", "Pt", "Au", "Hg", "Tl", "Pb", "Bi", "Po", "At",
    "Rn", "Fr", "Ra", "Ac", "Th", "Pa", "U", "Np", "Pu", "Am", "Cm", "Bk",
    "Cf", "Es", "Fm", "Md", "No", "Lr", "Rf", "Db", "Sg", "Bh", "Hs", "Mt",
    "Ds", "Rg", "Cn", "Nh", "Fl", "Mc", "Lv", "Ts", "Og",
)

SYMBOL_TO_NUMBER = {symbol: z for z, symbol in enumerate(ELEMENTS) if z}

# Organic subset: written without brackets, hydrogens filled in by valence.
ORGANIC_SYMBOLS = {"B", "C", "N", "O", "P", "S", "F", "Cl", "Br", "I"}
AROMATIC_SYMBOLS = {"b": 5, "c": 6, "n": 7, "o": 8, "p": 15, "s": 16}
AROMATIC_BRACKET_SYMBOLS = dict(AROMATIC_SYMBOLS, se=34, te=52)

# Standard valences used to infer hydrogen counts on organic-subset atoms.
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

BOND_ORDER_VALUE = {
    BondOrder.SINGLE: 1,
    BondOrder.DOUBLE: 2,
    BondOrder.TRIPLE: 3,
    BondOrder.AROMATIC: 1,
}

_BOND_CHARS = {
    "-": BondOrder.SINGLE,
    "=": BondOrder.DOUBLE,
    "#": BondOrder.TRIPLE,
    ":": BondOrder.AROMATIC,
    "/": BondOrder.SINGLE,
    "\\": BondOrder.SINGLE,
}

_CHIRAL_CLASSES = ("TH", "AL", "SP", "TB", "OH")


@dataclass
class Atom:
    atomic_number: int
    aromatic: bool = False
    formal_charge: int = 0
    hydrogens: int = 0
    # Declared H count for bracket atoms, None when inferred from valence.
    bracket_hydrogens: int | None = None
    chirality: Chirality = Chirality.NONE
    degree: int = 0


@dataclass
class Bond:
    a: int
    b: int
    order: BondOrder
    direction: BondDirection = BondDirection.NONE
    in_ring: bool = False


@dataclass
class MolGraph:
    atoms: list[Atom] = field(default_factory=list)
    bonds: list[Bond] = field(default_factory=list)
    # neighbors[v] lists (neighbor atom index, bond index) in creation order
    neighbors: list[list[tuple[int, int]]] = field(default_factory=list)

    @classmethod
    def from_atoms_and_bonds(cls, atoms: list[Atom], bonds: list[Bond]) -> "MolGraph":
        graph = cls(atoms=atoms, bonds=bonds)
        graph.neighbors = [[] for _ in atoms]
        for idx, bond in enumerate(bonds):
            graph.neighbors[bond.a].append((bond.b, idx))
            graph.neighbors[bond.b].append((bond.a, idx))
        for v, atom in enumerate(atoms):
            atom.degree = len(graph.neighbors[v])
        return graph


def parse_smiles(text: str) -> MolGraph:
    """Parse a SMILES string into a :class:`MolGraph`.

    Atoms appear in the graph in the order they appear in the string.  Ring
    membership is perceived before returning.  Raises a subclass of
    :class:`SmilesError` with a byte offset on malformed input.
    """
    return _Parser(text).parse()


class _Parser:
    def __init__(self, text: str):
        self.text = text
        self.pos = 0
        self.atoms: list[Atom] = []
        self.bonds: list[Bond] = []
        self.adjacency: list[set[int]] = []
        self.prev: int | None = None
        # (bond char, position) for a bond symbol awaiting its second atom
        self.pending: tuple[str, int] | None = None
        # open branch points as (atom index at '(', position of '(')
        self.stack: list[tuple[int, int]] = []
        # ring number -> (atom index, bond char or None, position opened)
        self.open_rings: dict[int, tuple[int, str | None, int]] = {}

    def parse(self) -> MolGraph:
        if not self.text:
            raise EmptySmilesError("empty SMILES string", 0)
        while self.pos < len(self.text):
            ch = self.text[self.pos]
            if ch in _BOND_CHARS:
                self._take_bond_char(ch)
            elif ch == "(":
                self._open_branch()
            elif ch == ")":
                self._close_branch()
            elif ch.isdigit():
                self._ring_digit(int(ch), self.pos)
                self.pos += 1
            elif ch == "%":
                self._percent_ring()
            elif ch == ".":
                raise MultipleFragmentsError(
                    "multi-fragment input is not supported", self.pos
                )
            elif ch == "[":
                atom, end = self._bracket_atom()
                self._add_atom(atom)
                self.pos = end
            else:
                self._organic_atom()
        self._check_terminal_state()
        return self._finish()

    # -- token handlers -----------------------------------------------------

    def _take_bond_char(self, ch: str) -> None:
        if self.prev is None:
            raise StructureError("bond symbol before any atom", self.pos)
        if self.pending is not None:
            raise StructureError("two bond symbols in a row", self.pos)
        self.pending = (ch, self.pos)
        self.pos += 1

    def _open_branch(self) -> None:
        if self.prev is None:
            raise StructureError("branch opened before any atom", self.pos)
        if self.pending is not None:
            raise StructureError("bond symbol before branch", self.pos)
        self.stack.append((self.prev, self.pos))
        self.pos += 1

    def _close_branch(self) -> None:
        if self.pending is not None:
            raise StructureError("dangling bond at branch close", self.pending[1])
        if not self.stack:
            raise UnmatchedParenthesisError("unmatched ')'", self.pos)
        self.prev, _ = self.stack.pop()
        self.pos += 1

    def _percent_ring(self) -> None:
        digits = self.text[self.pos + 1 : self.pos + 3]
        if len(digits) != 2 or not digits.isdigit():
            raise StructureError("'%' must be followed by two digits", self.pos)
        self._ring_digit(int(digits), self.pos)
        self.pos += 3

    def _ring_digit(self, number: int, position: int) -> None:
        if self.prev is None:
            raise StructureError("ring closure before any atom", position)
        bond_char = None
        if self.pending is not None:
            bond_char, _ = self.pending
            self.pending = None
        if number not in self.open_rings:
            self.open_rings[number] = (self.prev, bond_char, position)
            return
        other, other_char, _ = self.open_rings.pop(number)
        if other == self.prev:
            raise StructureError("ring bond to the same atom", position)
        if bond_char and other_char and bond_char != other_char:
            raise StructureError("conflicting ring-closure bond orders", position)
        self._add_bond(self.prev, other, bond_char or other_char, position)

    def _organic_atom(self) -> None:
        text = self.text
        two = text[self.pos : self.pos + 2]
        if two in ("Cl", "Br"):
            self._add_atom(Atom(atomic_number=SYMBOL_TO_NUMBER[two]))
            self.pos += 2
            return
        ch = text[self.pos]
        if ch in ORGANIC_SYMBOLS:
            self._add_atom(Atom(atomic_number=SYMBOL_TO_NUMBER[ch]))
        elif ch in AROMATIC_SYMBOLS:
            self._add_atom(Atom(atomic_number=AROMATIC_SYMBOLS[ch], aromatic=True))
        else:
            raise UnknownAtomError(f"unexpected character {ch!r}", self.pos)
        self.pos += 1

    # -- bracket atoms ------------------------------------------------------

    def _bracket_atom(self) -> tuple[Atom, int]:
        start = self.pos
        end = self.text.find("]", start + 1)
        if end < 0:
            raise AtomSyntaxError("unterminated bracket atom", start)
        body = self.text[start + 1 : end]
        k = 0

        def fail(message: str, offset: int):
            raise AtomSyntaxError(message, start + 1 + offset)

        # isotope (parsed and discarded)
        while k < len(body) and body[k].isdigit():
            k += 1
        if k == len(body):
            fail("missing element symbol", k)

        aromatic = False
        two = body[k : k + 2] if len(body) - k >= 2 else ""
        if two in AROMATIC_BRACKET_SYMBOLS:
            number = AROMATIC_BRACKET_SYMBOLS[two]
            aromatic = True
            k += 2
        elif two in SYMBOL_TO_NUMBER:
            number = SYMBOL_TO_NUMBER[two]
            k += 2
        elif body[k] in SYMBOL_TO_NUMBER:
            number = SYMBOL_TO_NUMBER[body[k]]
            k += 1
        elif body[k] in AROMATIC_SYMBOLS:
            number = AROMATIC_SYMBOLS[body[k]]
            aromatic = True
            k += 1
        else:
            raise UnknownAtomError(
                f"unknown element symbol at {body[k:]!r}", start + 1 + k
            )

        chirality = Chirality.NONE
        if k < len(body) and body[k] == "@":
            k += 1
            if k < len(body) and body[k] == "@":
                chirality = Chirality.CLOCKWISE
                k += 1
            elif body[k : k + 2] in _CHIRAL_CLASSES:
                chirality = Chirality.OTHER
                k += 2
                while k < len(body) and body[k].isdigit():
                    k += 1
            else:
                chirality = Chirality.COUNTERCLOCKWISE

        hydrogens = 0
        if k < len(body) and body[k] == "H":
            k += 1
            digits = ""
            while k < len(body) and body[k].isdigit():
                digits += body[k]
                k += 1
            hydrogens = int(digits) if digits else 1

        charge = 0
        if k < len(body) and body[k] in "+-":
            sign = 1 if body[k] == "+" else -1
            first = body[k]
            k += 1
            digits = ""
            while k < len(body) and body[k].isdigit():
                digits += body[k]
                k += 1
            if digits:
                charge = sign * int(digits)
            else:
                magnitude = 1
                while k < len(body) and body[k] == first:
                    magnitude += 1
                    k += 1
                charge = sign * magnitude

        if k < len(body) and body[k] == ":":
            k += 1
            digits = ""
            while k < len(body) and body[k].isdigit():
                digits += body[k]
                k += 1
            if not digits:
                fail("':' must be followed by an atom-class number", k)

        if k != len(body):
            fail(f"unexpected bracket content {body[k:]!r}", k)

        atom = Atom(
            atomic_number=number,
            aromatic=aromatic,
            formal_charge=charge,
            hydrogens=hydrogens,
            bracket_hydrogens=hydrogens,
            chirality=chirality,
        )
        return atom, end + 1

    # -- graph assembly -----------------------------------------------------

    def _add_atom(self, atom: Atom) -> None:
        idx = len(self.atoms)
        self.atoms.append(atom)
        self.adjacency.append(set())
        if self.prev is not None:
            bond_char = None
            position = self.pos
            if self.pending is not None:
                bond_char, position = self.pending
                self.pending = None
            self._add_bond(self.prev, idx, bond_char, position)
        elif self.pending is not None:
            raise StructureError("bond with no preceding atom", self.pending[1])
        self.prev = idx

    def _add_bond(
        self, a: int, b: int, bond_char: str | None, position: int
    ) -> None:
        if b in self.adjacency[a]:
            raise StructureError("duplicate bond between atoms", position)
        direction = BondDirection.NONE
        if bond_char is None:
            both_aromatic = self.atoms[a].aromatic and self.atoms[b].aromatic
            order = BondOrder.AROMATIC if both_aromatic else BondOrder.SINGLE
        else:
            order = _BOND_CHARS[bond_char]
            if bond_char == "/":
                direction = BondDirection.UP
            elif bond_char == "\\":
                direction = BondDirection.DOWN
            if order is BondOrder.AROMATIC and not (
                self.atoms[a].aromatic and self.atoms[b].aromatic
            ):
                raise StructureError(
                    "aromatic bond between non-aromatic atoms", position
                )
        self.bonds.append(Bond(a=a, b=b, order=order, direction=direction))
        self.adjacency[a].add(b)
        self.adjacency[b].add(a)

    def _check_terminal_state(self) -> None:
        if self.pending is not None:
            raise StructureError("dangling bond at end of input", self.pending[1])
        if self.stack:
            raise UnmatchedParenthesisError("unclosed '('", self.stack[-1][1])
        if self.open_rings:
            position = min(entry[2] for entry in self.open_rings.values())
            raise UnclosedRingError("unclosed ring closure digit", position)

    def _finish(self) -> MolGraph:
        graph = MolGraph.from_atoms_and_bonds(self.atoms, self.bonds)
        _assign_hydrogens(graph)
        perceive_rings(graph)
        return graph


def _assign_hydrogens(graph: MolGraph) -> None:
    """Fill hydrogen counts on organic-subset atoms from standard valences.

    Aromatic bonds count as order one toward the bond sum; aromatic atoms with
    a remaining hydrogen then give one up to the ring, which reproduces the
    conventional counts (benzene carbons get one H, pyridine nitrogen none).
    """
    for idx, atom in enumerate(graph.atoms):
        if atom.bracket_hydrogens is not None:
            continue
        bond_sum = sum(
            BOND_ORDER_VALUE[graph.bonds[b].order] for _, b in graph.neighbors[idx]
        )
        hydrogens = 0
        for valence in VALENCES[atom.atomic_number]:
            if valence >= bond_sum:
                hydrogens = valence - bond_sum
                break
        if atom.aromatic and hydrogens > 0:
            hydrogens -= 1
        atom.hydrogens = hydrogens


def perceive_rings(graph: MolGraph) -> MolGraph:
    """Set ``in_ring`` on every bond: True iff the bond is not a bridge.

    Iterative depth-first bridge finding; linear in atoms + bonds.
    Idempotent, and safe on disconnected graphs built directly.
    """
    n = len(graph.atoms)
    for bond in graph.bonds:
        bond.in_ring = True
    disc = [-1] * n
    low = [0] * n
    clock = 0
    for root in range(n):
        if disc[root] != -1:
            continue
        disc[root] = low[root] = clock
        clock += 1
        stack = [(root, -1, iter(graph.neighbors[root]))]
        while stack:
            v, via_bond, it = stack[-1]
            pushed = False
            for u, bond_idx in it:
                if bond_idx == via_bond:
                    continue
                if disc[u] == -1:
                    disc[u] = low[u] = clock
                    clock += 1
                    stack.append((u, bond_idx, iter(graph.neighbors[u])))
                    pushed = True
                    break
                low[v] = min(low[v], disc[u])
            if not pushed:
                stack.pop()
                if stack:
                    parent = stack[-1][0]
                    low[parent] = min(low[parent], low[v])
                    if low[v] > disc[parent]:
                        graph.bonds[via_bond].in_ring = False
    return graph
