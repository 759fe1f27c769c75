"""SMILES parsing for organic-subset molecules.

Produces an in-memory molecular graph with aromaticity taken verbatim from
lowercase atom symbols (no aromaticity perception), valence-derived hydrogen
counts, and ring-membership flags on bonds.  Single connected molecules only;
dot-separated fragments are rejected.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from enum import IntEnum


# A category's values are its feature indices, which ``featurize`` writes.
class BondOrder(IntEnum):
    SINGLE = 0
    DOUBLE = 1
    TRIPLE = 2
    AROMATIC = 3


class BondDirection(IntEnum):
    NONE = 0
    UP = 1
    DOWN = 2
    BEGIN_WEDGE = 3
    BEGIN_DASH = 4
    EITHER = 5
    UNKNOWN = 6


class Chirality(IntEnum):
    NONE = 0
    CLOCKWISE = 1
    COUNTERCLOCKWISE = 2
    OTHER = 3


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

AROMATIC_SYMBOLS = {"b": 5, "c": 6, "n": 7, "o": 8, "p": 15, "s": 16}
AROMATIC_BRACKET_SYMBOLS = {**AROMATIC_SYMBOLS, "as": 33, "se": 34, "te": 52}

# Organic subset: written without brackets, hydrogens filled in by valence.
# One-letter symbol -> (atomic number, aromatic); "Cl" and "Br" are the two
# two-letter symbols, and they start with "C" and "B".
_ORGANIC_ATOMS = {symbol: (SYMBOL_TO_NUMBER[symbol], False) for symbol in "BCNOPSFI"}
_ORGANIC_ATOMS.update((symbol, (z, True)) for symbol, z in AROMATIC_SYMBOLS.items())

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

# the valence a bond uses, indexed by its BondOrder; an aromatic bond uses 1
BOND_ORDER_VALUE = (1, 2, 3, 1)

# bond symbol -> (order, direction); an unwritten bond is ':' between two
# aromatic atoms and '-' otherwise
_BOND_CHARS = {
    "-": (BondOrder.SINGLE, BondDirection.NONE),
    "=": (BondOrder.DOUBLE, BondDirection.NONE),
    "#": (BondOrder.TRIPLE, BondDirection.NONE),
    ":": (BondOrder.AROMATIC, BondDirection.NONE),
    "/": (BondOrder.SINGLE, BondDirection.UP),
    "\\": (BondOrder.SINGLE, BondDirection.DOWN),
}

# Ring numbers, like every number in a bracket atom, are ASCII digits only:
# str.isdigit() and re's \d also accept '²' or '٣'.
_DIGITS = "0123456789"

# OpenSMILES: bracket_atom ::= '[' isotope? symbol chiral? hcount? charge? class? ']'.
# Every group is optional, so the body always matches, and the match ends
# where the body stops following the grammar.  Longer symbols are tried
# first: "[Sc]" is scandium, not sulfur and an aromatic carbon.
_BRACKET_SYMBOLS = {**SYMBOL_TO_NUMBER, **AROMATIC_BRACKET_SYMBOLS}
_BRACKET_BODY = re.compile(
    "(?P<isotope>[0-9]*)"
    f"(?P<symbol>{'|'.join(sorted(_BRACKET_SYMBOLS, key=len, reverse=True))})?"
    "(?P<chiral>@(?:@|(?:TH|AL|SP|TB|OH)[0-9]*)?)?"
    "(?P<hcount>H[0-9]*)?"
    r"(?P<charge>[+-][0-9]+|\++|-+)?"
    "(?::(?P<class>[0-9]+))?"
)
_CHIRALITY = {None: Chirality.NONE, "@": Chirality.COUNTERCLOCKWISE, "@@": Chirality.CLOCKWISE}


@dataclass(slots=True)
class Atom:
    atomic_number: int
    aromatic: bool = False
    formal_charge: int = 0
    hydrogens: int = 0
    # Declared H count for bracket atoms, None when inferred from valence.
    bracket_hydrogens: int | None = None
    chirality: Chirality = Chirality.NONE
    degree: int = 0


@dataclass(slots=True)
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


def parse_smiles(text: str) -> MolGraph:
    """Parse a SMILES string into a :class:`MolGraph`.

    Atoms appear in the graph in the order they appear in the string.  Ring
    membership is perceived before returning.  Raises a subclass of
    :class:`SmilesError` with a byte offset on malformed input.
    """
    if not text:
        raise EmptySmilesError("empty SMILES string", 0)
    atoms: list[Atom] = []
    bonds: list[Bond] = []
    neighbors: list[list[tuple[int, int]]] = []
    prev: int | None = None
    # (bond char, position) for a bond symbol awaiting its second atom
    pending: tuple[str, int] | None = None
    # open branch points as (atom index at '(', position of '(')
    branches: list[tuple[int, int]] = []
    # ring number -> (atom index, bond char or None, position opened)
    open_rings: dict[int, tuple[int, str | None, int]] = {}

    def add_bond(a: int, b: int, bond_char: str | None, position: int) -> None:
        both_aromatic = atoms[a].aromatic and atoms[b].aromatic
        if bond_char is None:
            bond_char = ":" if both_aromatic else "-"
        elif bond_char == ":" and not both_aromatic:
            raise StructureError("aromatic bond between non-aromatic atoms", position)
        order, direction = _BOND_CHARS[bond_char]
        neighbors[a].append((b, len(bonds)))
        neighbors[b].append((a, len(bonds)))
        bonds.append(Bond(a, b, order, direction))

    pos, end = 0, len(text)
    while pos < end:
        ch = text[pos]
        if ch in _ORGANIC_ATOMS:
            two = text[pos : pos + 2]
            if two == "Cl" or two == "Br":
                atom = Atom(SYMBOL_TO_NUMBER[two])
                pos += 2
            else:
                atom = Atom(*_ORGANIC_ATOMS[ch])
                pos += 1
        elif ch == "[":
            atom, pos = _bracket_atom(text, pos)
        elif ch in _BOND_CHARS:
            if prev is None:
                raise StructureError("bond symbol before any atom", pos)
            if pending is not None:
                raise StructureError("two bond symbols in a row", pos)
            pending = (ch, pos)
            pos += 1
            continue
        elif ch == "(":
            if prev is None:
                raise StructureError("branch opened before any atom", pos)
            if pending is not None:
                raise StructureError("bond symbol before branch", pos)
            branches.append((prev, pos))
            pos += 1
            continue
        elif ch == ")":
            if pending is not None:
                raise StructureError("dangling bond at branch close", pending[1])
            if not branches:
                raise UnmatchedParenthesisError("unmatched ')'", pos)
            opened_at, open_pos = branches.pop()
            if prev == opened_at:
                raise StructureError("branch holds no atom", open_pos)
            prev = opened_at
            pos += 1
            continue
        elif ch in _DIGITS or ch == "%":
            position = pos
            if ch == "%":
                digits = text[pos + 1 : pos + 3]
                if len(digits) != 2 or not (digits.isascii() and digits.isdigit()):
                    raise StructureError("'%' must be followed by two digits", pos)
                number = int(digits)
                pos += 3
            else:
                number = int(ch)
                pos += 1
            if prev is None:
                raise StructureError("ring closure before any atom", position)
            bond_char = None
            if pending is not None:
                bond_char = pending[0]
                pending = None
            if number not in open_rings:
                open_rings[number] = (prev, bond_char, position)
                continue
            other, other_char, _ = open_rings.pop(number)
            if other == prev:
                raise StructureError("ring bond to the same atom", position)
            if bond_char and other_char and bond_char != other_char:
                raise StructureError("conflicting ring-closure bond orders", position)
            if any(u == other for u, _ in neighbors[prev]):
                raise StructureError("duplicate bond between atoms", position)
            add_bond(prev, other, bond_char or other_char, position)
            continue
        elif ch == ".":
            raise MultipleFragmentsError("multi-fragment input is not supported", pos)
        else:
            raise UnknownAtomError(f"unexpected character {ch!r}", pos)
        # a new atom: bond it to the previous one, if any
        idx = len(atoms)
        atoms.append(atom)
        neighbors.append([])
        if prev is not None:
            if pending is None:
                add_bond(prev, idx, None, pos)
            else:
                add_bond(prev, idx, *pending)
                pending = None
        prev = idx

    if pending is not None:
        raise StructureError("dangling bond at end of input", pending[1])
    if branches:
        raise UnmatchedParenthesisError("unclosed '('", branches[-1][1])
    if open_rings:
        position = min(entry[2] for entry in open_rings.values())
        raise UnclosedRingError("unclosed ring closure digit", position)
    for atom, atom_neighbors in zip(atoms, neighbors):
        atom.degree = len(atom_neighbors)
    graph = MolGraph(atoms, bonds, neighbors)
    _assign_hydrogens(graph)
    # connected, so fewer bonds than atoms is a tree: every in_ring stays False
    if len(bonds) >= len(atoms):
        perceive_rings(graph)
    return graph


def _bracket_atom(text: str, start: int) -> tuple[Atom, int]:
    """The bracket atom opening at ``start``, and the position after its ']'."""
    end = text.find("]", start + 1)
    if end < 0:
        raise AtomSyntaxError("unterminated bracket atom", start)
    m = _BRACKET_BODY.match(text, start + 1, end)
    symbol = m["symbol"]
    if symbol is None:
        k = m.end("isotope")
        if k == end:
            raise AtomSyntaxError("missing element symbol", k)
        raise UnknownAtomError(f"unknown element symbol at {text[k:end]!r}", k)
    k = m.end()
    if k != end:
        if text[k] == ":" and m["class"] is None:  # not a second ':' after a class
            raise AtomSyntaxError("':' must be followed by an atom-class number", k + 1)
        raise AtomSyntaxError(f"unexpected bracket content {text[k:end]!r}", k)
    hcount, charge = m["hcount"] or "H0", m["charge"] or "+0"
    hydrogens = int(hcount[1:] or 1)  # 'H' alone is one
    # a sign without digits counts its repeats: '--' is -2
    magnitude = int(charge[1:]) if charge[1:].isdigit() else len(charge)
    return Atom(
        atomic_number=_BRACKET_SYMBOLS[symbol],
        aromatic=symbol in AROMATIC_BRACKET_SYMBOLS,
        formal_charge=-magnitude if charge[0] == "-" else magnitude,
        hydrogens=hydrogens,
        bracket_hydrogens=hydrogens,
        chirality=_CHIRALITY.get(m["chiral"], Chirality.OTHER),
    ), end + 1


def _assign_hydrogens(graph: MolGraph) -> None:
    """Fill hydrogen counts on organic-subset atoms from standard valences.

    One pass over the bonds sums each atom's bond orders, aromatic bonds
    counting as order one; aromatic atoms with a remaining hydrogen then
    give one up to the ring, which reproduces the conventional counts
    (benzene carbons get one H, pyridine nitrogen none).
    """
    bond_sums = [0] * len(graph.atoms)
    for bond in graph.bonds:
        value = BOND_ORDER_VALUE[bond.order]
        bond_sums[bond.a] += value
        bond_sums[bond.b] += value
    for atom, bond_sum in zip(graph.atoms, bond_sums):
        if atom.bracket_hydrogens is not None:
            continue
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
    atoms, bonds, neighbors = graph.atoms, graph.bonds, graph.neighbors
    for bond in bonds:
        bond.in_ring = True
    disc = [-1] * len(atoms)
    low = [0] * len(atoms)
    clock = 0
    for root in range(len(atoms)):
        if disc[root] != -1:
            continue
        disc[root] = low[root] = clock
        clock += 1
        stack = [(root, -1, iter(neighbors[root]))]
        while stack:
            v, via_bond, it = stack[-1]
            for u, bond_idx in it:
                if bond_idx == via_bond:
                    continue
                if disc[u] == -1:
                    disc[u] = low[u] = clock
                    clock += 1
                    stack.append((u, bond_idx, iter(neighbors[u])))
                    break
                if disc[u] < low[v]:
                    low[v] = disc[u]
            else:  # every neighbour seen: v is finished
                stack.pop()
                if stack:
                    parent = stack[-1][0]
                    if low[v] < low[parent]:
                        low[parent] = low[v]
                    if low[v] > disc[parent]:
                        bonds[via_bond].in_ring = False
    return graph
