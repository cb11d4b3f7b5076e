"""SMILES parsing into molecular graphs with ring perception.

Supports the subset needed for circular-fingerprint invariants: the organic
subset, lowercase aromatic atoms, branches, single/double/triple/aromatic
bond symbols, one- and two-digit ring closures, bracket atoms with isotope,
charge and hydrogen counts, and dot-separated fragments.  Stereochemistry
markers (``/``, ``\\``, ``@``) are accepted and discarded.  Aromaticity is
purely syntactic (lowercase notation); no kekulization is attempted.

The parser is one compiled regular expression run over the string with
`re.finditer`: each match is one token (an organic or aromatic atom, a
bracket atom, a bond symbol, a ring closure, a parenthesis or a dot), and a
character that no token matches is an error at its offset.  Organic-subset
atoms are frozen, so every use of one symbol shares one `Atom`.

Implicit hydrogen counts for unbracketed atoms follow the usual valence
rule: the smallest default valence that accommodates the atom's bond-order
sum determines the hydrogen deficit.  Aromatic ring bonds count 1.5 toward
that sum.

A graph's adjacency is built once: `parse_smiles` fills it while it adds
bonds, and ring perception and Morgan fingerprints both read that one list
through `MolecularGraph.adjacency`.  A bond is in a ring exactly when it is
not a bridge; `parse_smiles` sets both ring flag lists from one bridge
search over that adjacency.
"""

from __future__ import annotations

import re
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
from .errors import SmilesParseError

__all__ = ["Atom", "Bond", "BondOrder", "MolecularGraph", "parse_smiles"]


class BondOrder(Enum):
    SINGLE = 1
    DOUBLE = 2
    TRIPLE = 3
    AROMATIC = 4

    # Members are singletons, so identity hashing is equality hashing; it keeps
    # dict lookups keyed by a member in C instead of `Enum.__hash__`.
    __hash__ = object.__hash__


# bond-order contribution to an atom's valence, in half units (aromatic = 1.5)
_HALF_UNITS = {BondOrder.SINGLE: 2, BondOrder.DOUBLE: 4, BondOrder.TRIPLE: 6,
               BondOrder.AROMATIC: 3}


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


def _build_adjacency(n_atoms: int, bonds: list[Bond]) -> list[list[tuple[int, int]]]:
    adj: list[list[tuple[int, int]]] = [[] for _ in range(n_atoms)]
    for bi, bond in enumerate(bonds):
        adj[bond.a].append((bond.b, bi))
        adj[bond.b].append((bond.a, bi))
    return adj


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
    _adjacency: list[list[tuple[int, int]]] | None = field(
        default=None, init=False, repr=False, compare=False)

    def adjacency(self) -> list[list[tuple[int, int]]]:
        """Per-atom list of (neighbor index, bond index), built once per graph.

        Every caller gets the same lists, so none may change them.
        """
        if self._adjacency is None:
            self._adjacency = _build_adjacency(len(self.atoms), self.bonds)
        return self._adjacency


_BOND_SYMBOLS = {
    "-": BondOrder.SINGLE,
    "=": BondOrder.DOUBLE,
    "#": BondOrder.TRIPLE,
    ":": BondOrder.AROMATIC,
    "/": BondOrder.SINGLE,   # stereo direction discarded
    "\\": BondOrder.SINGLE,
}

# One alternative per token kind; character classes spell out ASCII digits,
# which is all `int` reads here (`str.isdigit` would also accept others).
_TOKEN = re.compile(
    "(?P<atom>" + "|".join(ORGANIC_SUBSET + AROMATIC_ORGANIC) + ")"
    # '%' reads exactly two digits; a digit after them is another ring closure
    "|(?P<ring>[0-9]|%[0-9]{0,2})"
    "|(?P<open>\\()"
    "|(?P<close>\\))"
    "|(?P<bond>[-=#:/\\\\])"
    "|(?P<dot>\\.)"
    # up to the closing bracket, or to the end of a string that has none
    "|(?P<bracket>\\[[^\\]]*\\]?)"
)
_BRACKET_ISOTOPE = re.compile("[0-9]*")
# chirality, hydrogen count, one charge group, atom class
_BRACKET_ITEM = re.compile("(?P<chiral>@@?)|H(?P<h>[0-9]*)|(?P<signs>\\++|-+)(?P<count>[0-9]*)"
                           "|:(?P<klass>[0-9]*)")

_BARE_ATOMS = {symbol: Atom(ATOMIC_NUMBERS[symbol]) for symbol in ORGANIC_SUBSET}
_BARE_ATOMS.update({symbol: Atom(ATOMIC_NUMBERS[symbol.upper()], aromatic=True)
                    for symbol in AROMATIC_ORGANIC})

_MAX_CHARGE = 15
_MAX_COUNT = 0xFFFF   # isotopes and hydrogen counts fill 16-bit fields of the atom invariant


def _unexpected(text: str, offset: int) -> SmilesParseError:
    """The error for a character no token starts with."""
    ch = text[offset]
    if ch.isalpha():
        return SmilesParseError(f"unknown element {ch!r}", text, offset)
    return SmilesParseError(f"unexpected character {ch!r}", text, offset)


def _bracket_symbol(text: str, at: int) -> str | None:
    """The element symbol starting at `at` inside brackets, if any."""
    ch = text[at:at + 1]
    if not ch.isalpha():
        return None
    nxt = text[at + 1:at + 2]
    if nxt.islower():
        two = ch + nxt
        if two in AROMATIC_BRACKET or (ch.isupper() and two in ATOMIC_NUMBERS):
            return two
    if ch.isupper() or ch in AROMATIC_BRACKET:
        return ch
    return None


def _bounded(text: str, start: int, end: int, what: str, limit: int) -> int:
    """The decimal number `text[start:end]`, or a SmilesParseError at `start` above `limit`.

    The digits are counted before converting, since `int()` refuses more than
    4,300 of them with a plain ValueError.
    """
    digits = text[start:end].lstrip("0")
    if len(digits) > len(str(limit)):
        raise SmilesParseError(f"{what} of {len(digits)} digits out of range", text, start)
    value = int(digits or "0")
    if value > limit:
        raise SmilesParseError(f"{what} {value} out of range", text, start)
    return value


def _bracket_atom(text: str, start: int, end: int) -> Atom:
    """The atom of the bracket token `text[start:end]`, which opens with '['."""
    at = _BRACKET_ISOTOPE.match(text, start + 1).end()
    isotope = _bounded(text, start + 1, at, "isotope", _MAX_COUNT)
    symbol = _bracket_symbol(text, at)
    if symbol is None:
        raise SmilesParseError("missing element symbol in brackets", text, at)
    aromatic = symbol.islower()
    if aromatic and symbol not in AROMATIC_BRACKET:
        raise SmilesParseError(f"{symbol!r} cannot be aromatic", text, at)
    atomic_number = ATOMIC_NUMBERS.get(symbol.capitalize())
    if atomic_number is None:
        raise SmilesParseError(f"unknown element {symbol!r}", text, at)
    at += len(symbol)

    closed = text[end - 1] == "]"
    body_end = end - closed
    hydrogens = 0
    charge = None
    while at < body_end:
        item = _BRACKET_ITEM.match(text, at, body_end)
        if item is None:
            raise SmilesParseError(f"unexpected {text[at]!r} in brackets", text, at)
        kind = item.lastgroup
        if kind == "h":
            hydrogens = (_bounded(text, *item.span("h"), "hydrogen count", _MAX_COUNT)
                         if item["h"] else 1)
        elif kind == "count":
            if charge is not None:
                raise SmilesParseError("multiple charge groups", text, at)
            signs = item["signs"]
            count = len(signs)
            if item["count"]:
                if count > 1:
                    raise SmilesParseError("repeated signs followed by digits", text, at)
                count = _bounded(text, *item.span("count"), "charge magnitude", _MAX_CHARGE)
            elif count > _MAX_CHARGE:
                raise SmilesParseError(f"charge magnitude {count} out of range", text, at)
            charge = count if signs[0] == "+" else -count
        elif kind == "klass" and not item["klass"]:
            raise SmilesParseError("atom class needs digits", text, at)
        # a chirality marker is not used by the fingerprint invariants
        at = item.end()
    if not closed:
        raise SmilesParseError("unterminated bracket atom", text, start)
    return Atom(atomic_number, formal_charge=charge or 0, explicit_h=hydrogens,
                aromatic=aromatic, isotope=isotope)


def _implicit_hydrogens(atom: Atom, half_units: int) -> int:
    """Hydrogens an unbracketed atom takes, given its bond-order sum in half units."""
    used = (half_units + 1) // 2
    if atom.aromatic:
        return max(0, AROMATIC_VALENCE.get(atom.atomic_number, 4) - used)
    for valence in DEFAULT_VALENCES.get(atom.atomic_number, ()):
        if valence >= used:
            return valence - used
    return 0


def _ring_flags(adjacency: list[list[tuple[int, int]]],
                bonds: list[Bond]) -> tuple[list[bool], list[bool]]:
    """Per-atom and per-bond flags of lying on some simple cycle.

    A bond is on a cycle exactly when it is not a bridge, and an atom exactly
    when one of its bonds is.
    """
    n_atoms = len(adjacency)
    disc = [0] * n_atoms   # discovery time, from 1; 0 = not yet visited
    low = [0] * n_atoms
    in_ring = [True] * len(bonds)
    timer = 0
    for root in range(n_atoms):
        if disc[root]:
            continue
        timer += 1
        disc[root] = low[root] = timer
        # iterative DFS: (node, incoming bond index, iterator over its neighbors)
        stack = [(root, -1, iter(adjacency[root]))]
        while stack:
            node, in_edge, neighbors = stack[-1]
            for nxt, edge in neighbors:
                if edge == in_edge:
                    continue
                if not disc[nxt]:
                    timer += 1
                    disc[nxt] = low[nxt] = timer
                    stack.append((nxt, edge, iter(adjacency[nxt])))
                    break
                if disc[nxt] < low[node]:
                    low[node] = disc[nxt]
            else:
                stack.pop()
                if stack:
                    parent = stack[-1][0]
                    if low[node] < low[parent]:
                        low[parent] = low[node]
                    if low[node] > disc[parent]:
                        in_ring[in_edge] = False
    atom_in_ring = [False] * n_atoms
    for bond, flag in zip(bonds, in_ring):
        if flag:
            atom_in_ring[bond.a] = atom_in_ring[bond.b] = True
    return atom_in_ring, in_ring


def parse_smiles(text: str) -> MolecularGraph:
    """Parse a SMILES string into a molecular graph.

    The result has bonds, implicit hydrogen counts and ring flags resolved.
    Raises a SmilesParseError subclass identifying the byte offset on any
    malformed input, and at offset 0 on a string that holds no atom.
    """
    atoms: list[Atom] = []
    bonds: list[Bond] = []
    adjacency: list[list[tuple[int, int]]] = []
    half_units: list[int] = []     # bond-order sum per atom
    bracketed: list[bool] = []     # bracket atoms carry their hydrogens explicitly
    parent: list[int] = []         # the atom each one bonds to on its chain, or -1
    ring_pairs: set[tuple[int, int]] = set()
    prev: int | None = None
    pending: BondOrder | None = None
    branches: list[int] = []
    # ring number -> (atom index, bond symbol or None, offset of the digit)
    open_rings: dict[int, tuple[int, BondOrder | None, int]] = {}
    pos = 0
    for token in _TOKEN.finditer(text):
        start = token.start()
        if start != pos:
            raise _unexpected(text, pos)
        pos = token.end()
        kind = token.lastgroup
        if kind == "atom" or kind == "bracket":
            if kind == "atom":
                atom = _BARE_ATOMS[token.group()]
            else:
                atom = _bracket_atom(text, start, pos)
            idx = len(atoms)
            atoms.append(atom)
            bracketed.append(kind == "bracket")
            if prev is not None:
                order = pending
                if order is None:
                    both_aromatic = atom.aromatic and atoms[prev].aromatic
                    order = BondOrder.AROMATIC if both_aromatic else BondOrder.SINGLE
                units = _HALF_UNITS[order]
                adjacency[prev].append((idx, len(bonds)))
                adjacency.append([(prev, len(bonds))])
                half_units[prev] += units
                half_units.append(units)
                parent.append(prev)
                bonds.append(Bond(prev, idx, order))
            elif pending is not None:
                raise SmilesParseError("bond with no preceding atom", text, start)
            else:
                adjacency.append([])
                half_units.append(0)
                parent.append(-1)
            pending = None
            prev = idx
        elif kind == "ring":
            if prev is None:
                raise SmilesParseError("ring closure with no preceding atom", text, start)
            digits = token.group()
            if digits[0] == "%":
                digits = digits[1:]
                if len(digits) < 2:
                    raise SmilesParseError("'%' needs two digits", text, start)
            number = int(digits)
            symbol = pending
            pending = None
            opened = open_rings.pop(number, None)
            if opened is None:
                open_rings[number] = (prev, symbol, start)
                continue
            other, other_symbol, _ = opened
            if symbol is not None and other_symbol is not None and symbol is not other_symbol:
                raise SmilesParseError("ring closure bond symbols disagree", text, start)
            if other == prev:
                raise SmilesParseError("ring bond closes onto its own atom", text, start)
            pair = (other, prev) if other < prev else (prev, other)
            if parent[pair[1]] == pair[0] or pair in ring_pairs:
                raise SmilesParseError("duplicate bond between atoms", text, start)
            ring_pairs.add(pair)
            order = symbol or other_symbol
            if order is None:
                both_aromatic = atoms[other].aromatic and atoms[prev].aromatic
                order = BondOrder.AROMATIC if both_aromatic else BondOrder.SINGLE
            units = _HALF_UNITS[order]
            adjacency[other].append((prev, len(bonds)))
            adjacency[prev].append((other, len(bonds)))
            half_units[other] += units
            half_units[prev] += units
            bonds.append(Bond(other, prev, order))
        elif kind == "open":
            if prev is None or pending is not None:
                raise SmilesParseError("branch opened without an atom", text, start)
            branches.append(prev)
        elif kind == "close":
            if not branches:
                raise SmilesParseError("unmatched closing parenthesis", text, start)
            if pending is not None:
                raise SmilesParseError("dangling bond before ')'", text, start)
            prev = branches.pop()
        elif kind == "bond":
            if pending is not None:
                raise SmilesParseError("two consecutive bond symbols", text, start)
            pending = _BOND_SYMBOLS[token.group()]
        else:  # dot
            if pending is not None:
                raise SmilesParseError("bond before fragment separator", text, start)
            prev = None
    if pos != len(text):
        raise _unexpected(text, pos)

    if open_rings:
        offset = min(offset for _, _, offset in open_rings.values())
        raise SmilesParseError("ring closure never paired", text, offset)
    if branches:
        raise SmilesParseError("unclosed branch", text, len(text))
    if pending is not None:
        raise SmilesParseError("dangling bond at end of input", text, len(text))
    if not atoms:  # "", "." and ".." parse cleanly but name no molecule
        raise SmilesParseError("SMILES holds no atom", text, 0)

    if ring_pairs:
        atom_in_ring, bond_in_ring = _ring_flags(adjacency, bonds)
    else:  # without ring closures the bonds form a forest
        bond_in_ring = [False] * len(bonds)
        atom_in_ring = [False] * len(atoms)
    graph = MolecularGraph(
        atoms=atoms,
        bonds=bonds,
        implicit_h=[0 if bracket else _implicit_hydrogens(atom, units)
                    for atom, bracket, units in zip(atoms, bracketed, half_units)],
        atom_in_ring=atom_in_ring,
        bond_in_ring=bond_in_ring,
    )
    graph._adjacency = adjacency
    return graph
