"""SMILES parsing into molecular graphs with ring perception.

Supports the subset needed for circular-fingerprint invariants: the organic
subset, lowercase aromatic atoms, branches, single/double/triple/aromatic
bond symbols, one- and two-digit ring closures, bracket atoms with isotope,
charge and hydrogen counts, and dot-separated fragments.  Stereochemistry
markers (``/``, ``\\``, ``@``) are accepted and discarded.  Aromaticity is
purely syntactic (lowercase notation); no kekulization is attempted.

Implicit hydrogen counts for unbracketed atoms follow the usual valence
rule: the smallest default valence that accommodates the atom's bond-order
sum determines the hydrogen deficit.  Aromatic ring bonds count 1.5 toward
that sum.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from enum import Enum

from .elements import (
    AROMATIC_BRACKET,
    AROMATIC_ORGANIC,
    AROMATIC_VALENCE,
    ATOMIC_NUMBERS,
    DEFAULT_VALENCES,
    ORGANIC_SUBSET,
)
from .errors import (
    ConflictingRingBond,
    InvalidCharge,
    UnbalancedParenthesis,
    UnclosedRingBond,
    UnexpectedCharacter,
    UnknownElement,
)

__all__ = ["Atom", "Bond", "BondOrder", "MolecularGraph", "parse_smiles", "perceive_rings"]


class BondOrder(Enum):
    SINGLE = 1
    DOUBLE = 2
    TRIPLE = 3
    AROMATIC = 4

    @property
    def valence_units(self) -> float:
        return 1.5 if self is BondOrder.AROMATIC else float(self.value)


@dataclass(frozen=True)
class Atom:
    atomic_number: int
    formal_charge: int = 0
    explicit_h: int = 0
    aromatic: bool = False
    isotope: int = 0


@dataclass(frozen=True)
class Bond:
    a: int
    b: int
    order: BondOrder


@dataclass
class MolecularGraph:
    """Atoms, bonds and the derived per-atom/per-bond annotations.

    Graphs are treated as immutable once built; all operations that would
    change one return a new graph instead.
    """

    atoms: list[Atom]
    bonds: list[Bond]
    implicit_h: list[int] = field(default_factory=list)
    atom_in_ring: list[bool] = field(default_factory=list)
    bond_in_ring: list[bool] = field(default_factory=list)

    def adjacency(self) -> list[list[tuple[int, int]]]:
        """Per-atom list of (neighbor index, bond index)."""
        adj: list[list[tuple[int, int]]] = [[] for _ in self.atoms]
        for bi, bond in enumerate(self.bonds):
            adj[bond.a].append((bond.b, bi))
            adj[bond.b].append((bond.a, bi))
        return adj


_BOND_SYMBOLS = {
    "-": BondOrder.SINGLE,
    "=": BondOrder.DOUBLE,
    "#": BondOrder.TRIPLE,
    ":": BondOrder.AROMATIC,
    "/": BondOrder.SINGLE,   # stereo direction discarded
    "\\": BondOrder.SINGLE,
}

_DIGITS = "0123456789"  # str.isdigit accepts non-ASCII digits; int() does not

_MAX_CHARGE = 15


class _Parser:
    def __init__(self, text: str):
        self.text = text
        self.pos = 0
        self.atoms: list[Atom] = []
        self.from_bracket: list[bool] = []
        self.bonds: list[Bond] = []
        self.bond_keys: set[tuple[int, int]] = set()
        self.prev: int | None = None
        self.pending: BondOrder | None = None
        self.branch_stack: list[int] = []
        # ring number -> (atom index, bond symbol or None, offset of the digit)
        self.open_rings: dict[int, tuple[int, BondOrder | None, int]] = {}

    # -- cursor helpers --------------------------------------------------

    def peek(self) -> str | None:
        return self.text[self.pos] if self.pos < len(self.text) else None

    def take(self) -> str:
        ch = self.text[self.pos]
        self.pos += 1
        return ch

    def read_digits(self) -> str:
        start = self.pos
        while self.pos < len(self.text) and self.text[self.pos] in _DIGITS:
            self.pos += 1
        return self.text[start:self.pos]

    # -- atom/bond emission ------------------------------------------------

    def add_atom(self, atom: Atom, bracket: bool, offset: int) -> None:
        idx = len(self.atoms)
        self.atoms.append(atom)
        self.from_bracket.append(bracket)
        if self.prev is not None:
            order = self.pending
            if order is None:
                both_aromatic = atom.aromatic and self.atoms[self.prev].aromatic
                order = BondOrder.AROMATIC if both_aromatic else BondOrder.SINGLE
            self.add_bond(self.prev, idx, order, offset)
        elif self.pending is not None:
            raise UnexpectedCharacter("bond with no preceding atom", self.text, offset)
        self.pending = None
        self.prev = idx

    def add_bond(self, a: int, b: int, order: BondOrder, offset: int) -> None:
        if a == b:
            raise ConflictingRingBond("ring bond closes onto its own atom", self.text, offset)
        key = (min(a, b), max(a, b))
        if key in self.bond_keys:
            raise ConflictingRingBond("duplicate bond between atoms", self.text, offset)
        self.bond_keys.add(key)
        self.bonds.append(Bond(a, b, order))

    # -- token handlers ------------------------------------------------------

    def parse(self) -> tuple[list[Atom], list[Bond], list[bool]]:
        while self.pos < len(self.text):
            offset = self.pos
            ch = self.peek()
            if ch == "(":
                self.take()
                if self.prev is None or self.pending is not None:
                    raise UnbalancedParenthesis("branch opened without an atom", self.text, offset)
                self.branch_stack.append(self.prev)
            elif ch == ")":
                self.take()
                if not self.branch_stack:
                    raise UnbalancedParenthesis("unmatched closing parenthesis", self.text, offset)
                if self.pending is not None:
                    raise UnexpectedCharacter("dangling bond before ')'", self.text, offset)
                self.prev = self.branch_stack.pop()
            elif ch in _BOND_SYMBOLS:
                self.take()
                if self.pending is not None:
                    raise UnexpectedCharacter("two consecutive bond symbols", self.text, offset)
                self.pending = _BOND_SYMBOLS[ch]
            elif ch == ".":
                self.take()
                if self.pending is not None:
                    raise UnexpectedCharacter("bond before fragment separator", self.text, offset)
                self.prev = None
            elif ch in _DIGITS or ch == "%":
                self.ring_closure(offset)
            elif ch == "[":
                self.bracket_atom(offset)
            elif ch.isalpha():
                self.organic_atom(offset)
            else:
                raise UnexpectedCharacter(f"unexpected character {ch!r}", self.text, offset)

        if self.open_rings:
            _, (_, _, offset) = min(self.open_rings.items(), key=lambda kv: kv[1][2])
            raise UnclosedRingBond("ring closure never paired", self.text, offset)
        if self.branch_stack:
            raise UnbalancedParenthesis("unclosed branch", self.text, len(self.text))
        if self.pending is not None:
            raise UnexpectedCharacter("dangling bond at end of input", self.text, len(self.text))
        return self.atoms, self.bonds, self.from_bracket

    def ring_closure(self, offset: int) -> None:
        if self.prev is None:
            raise UnexpectedCharacter("ring closure with no preceding atom", self.text, offset)
        ch = self.take()
        if ch == "%":
            digits = self.read_digits()
            if len(digits) < 2:
                raise UnexpectedCharacter("'%' needs two digits", self.text, offset)
            if len(digits) > 2:
                raise UnexpectedCharacter("'%' takes exactly two digits", self.text, offset)
            number = int(digits)
        else:
            number = int(ch)
        symbol = self.pending
        self.pending = None
        if number in self.open_rings:
            other, other_symbol, _ = self.open_rings.pop(number)
            if symbol is not None and other_symbol is not None and symbol is not other_symbol:
                raise ConflictingRingBond("ring closure bond symbols disagree", self.text, offset)
            order = symbol or other_symbol
            if order is None:
                both_aromatic = self.atoms[other].aromatic and self.atoms[self.prev].aromatic
                order = BondOrder.AROMATIC if both_aromatic else BondOrder.SINGLE
            self.add_bond(other, self.prev, order, offset)
        else:
            self.open_rings[number] = (self.prev, symbol, offset)

    def organic_atom(self, offset: int) -> None:
        rest = self.text[self.pos:]
        for symbol in ORGANIC_SUBSET:
            if rest.startswith(symbol):
                self.pos += len(symbol)
                self.add_atom(Atom(ATOMIC_NUMBERS[symbol]), bracket=False, offset=offset)
                return
        ch = rest[0]
        if ch in AROMATIC_ORGANIC:
            self.pos += 1
            atom = Atom(ATOMIC_NUMBERS[ch.upper()], aromatic=True)
            self.add_atom(atom, bracket=False, offset=offset)
            return
        raise UnknownElement(f"unknown element {ch!r}", self.text, offset)

    def bracket_atom(self, offset: int) -> None:
        self.take()  # consume '['
        isotope = 0
        digits = self.read_digits()
        if digits:
            isotope = int(digits)

        symbol_offset = self.pos
        symbol = self._read_symbol()
        if symbol is None:
            raise UnknownElement("missing element symbol in brackets", self.text, symbol_offset)
        aromatic = symbol.islower()
        if aromatic and symbol not in AROMATIC_BRACKET:
            raise UnknownElement(f"{symbol!r} cannot be aromatic", self.text, symbol_offset)
        atomic_number = ATOMIC_NUMBERS.get(symbol.capitalize())
        if atomic_number is None:
            raise UnknownElement(f"unknown element {symbol!r}", self.text, symbol_offset)

        hydrogens = 0
        charge = 0
        seen_charge = False
        while True:
            ch = self.peek()
            at = self.pos
            if ch is None:
                raise UnexpectedCharacter("unterminated bracket atom", self.text, offset)
            if ch == "]":
                self.take()
                break
            if ch == "@":
                # chirality marker, not used by the fingerprint invariants
                self.take()
                if self.peek() == "@":
                    self.take()
            elif ch == "H":
                self.take()
                digits = self.read_digits()
                hydrogens = int(digits) if digits else 1
            elif ch in "+-":
                if seen_charge:
                    raise InvalidCharge("multiple charge groups", self.text, at)
                charge = self._read_charge(at)
                seen_charge = True
            elif ch == ":":
                self.take()
                if not self.read_digits():
                    raise UnexpectedCharacter("atom class needs digits", self.text, at)
            else:
                raise UnexpectedCharacter(f"unexpected {ch!r} in brackets", self.text, at)

        atom = Atom(atomic_number, formal_charge=charge, explicit_h=hydrogens,
                    aromatic=aromatic, isotope=isotope)
        self.add_atom(atom, bracket=True, offset=offset)

    def _read_symbol(self) -> str | None:
        ch = self.peek()
        if ch is None or not ch.isalpha():
            return None
        self.take()
        nxt = self.peek()
        if nxt is not None and nxt.islower():
            two = ch + nxt
            if two in AROMATIC_BRACKET or (ch.isupper() and two in ATOMIC_NUMBERS):
                self.take()
                return two
        if ch.isupper() or ch in AROMATIC_BRACKET:
            return ch
        return None

    def _read_charge(self, offset: int) -> int:
        sign_char = self.take()
        sign = 1 if sign_char == "+" else -1
        count = 1
        while self.peek() == sign_char:
            self.take()
            count += 1
        digits = self.read_digits()
        if digits:
            if count > 1:
                raise InvalidCharge("repeated signs followed by digits", self.text, offset)
            count = int(digits)
        if count > _MAX_CHARGE:
            raise InvalidCharge(f"charge magnitude {count} out of range", self.text, offset)
        return sign * count


def _implicit_hydrogens(atoms: list[Atom], bonds: list[Bond], from_bracket: list[bool]) -> list[int]:
    order_sum = [0.0] * len(atoms)
    for bond in bonds:
        order_sum[bond.a] += bond.order.valence_units
        order_sum[bond.b] += bond.order.valence_units

    counts: list[int] = []
    for idx, atom in enumerate(atoms):
        if from_bracket[idx]:
            counts.append(0)  # bracket atoms carry hydrogens explicitly
            continue
        used = math.ceil(order_sum[idx])
        if atom.aromatic:
            valence = AROMATIC_VALENCE.get(atom.atomic_number, 4)
            counts.append(max(0, valence - used))
            continue
        options = DEFAULT_VALENCES.get(atom.atomic_number, ())
        for valence in options:
            if valence >= used:
                counts.append(valence - used)
                break
        else:
            counts.append(0)
    return counts


def _find_cycle_edges(graph: MolecularGraph) -> list[bool]:
    """Mark each bond that lies on some simple cycle (i.e. is not a bridge)."""
    adj = graph.adjacency()
    n_atoms = len(graph.atoms)
    disc = [-1] * n_atoms
    low = [0] * n_atoms
    is_bridge = [False] * len(graph.bonds)
    timer = 0

    for root in range(n_atoms):
        if disc[root] != -1:
            continue
        # iterative DFS: (node, incoming bond index, iterator position)
        stack: list[tuple[int, int, int]] = [(root, -1, 0)]
        disc[root] = low[root] = timer
        timer += 1
        while stack:
            node, in_edge, i = stack[-1]
            if i < len(adj[node]):
                stack[-1] = (node, in_edge, i + 1)
                nxt, edge = adj[node][i]
                if edge == in_edge:
                    continue
                if disc[nxt] == -1:
                    disc[nxt] = low[nxt] = timer
                    timer += 1
                    stack.append((nxt, edge, 0))
                else:
                    low[node] = min(low[node], disc[nxt])
            else:
                stack.pop()
                if stack:
                    parent = stack[-1][0]
                    low[parent] = min(low[parent], low[node])
                    if low[node] > disc[parent]:
                        is_bridge[in_edge] = True
    return [not b for b in is_bridge]


def perceive_rings(graph: MolecularGraph) -> MolecularGraph:
    """Return a copy with in-ring flags recomputed from cycle membership."""
    bond_in_ring = _find_cycle_edges(graph)
    atom_in_ring = [False] * len(graph.atoms)
    for bi, bond in enumerate(graph.bonds):
        if bond_in_ring[bi]:
            atom_in_ring[bond.a] = True
            atom_in_ring[bond.b] = True
    return MolecularGraph(
        atoms=list(graph.atoms),
        bonds=list(graph.bonds),
        implicit_h=list(graph.implicit_h),
        atom_in_ring=atom_in_ring,
        bond_in_ring=bond_in_ring,
    )


def parse_smiles(text: str) -> MolecularGraph:
    """Parse a SMILES string into a molecular graph.

    The result has bonds, implicit hydrogen counts and ring flags resolved.
    Raises a SmilesParseError subclass identifying the byte offset on any
    malformed input.
    """
    if not text:
        raise UnexpectedCharacter("empty SMILES", text, 0)
    atoms, bonds, from_bracket = _Parser(text).parse()
    graph = MolecularGraph(
        atoms=atoms,
        bonds=bonds,
        implicit_h=_implicit_hydrogens(atoms, bonds, from_bracket),
    )
    return perceive_rings(graph)
