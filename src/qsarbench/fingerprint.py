"""Circular substructure fingerprints and Tanimoto similarity.

Each atom's local environment is hashed out to a configurable radius and
folded into a fixed-width bitset.  Hashing uses blake2b with an 8-byte
digest over a canonical serialization of the environment, so fingerprints
are identical across runs and platforms.  Bit-for-bit parity with any other
fingerprint implementation is not a goal; the invariant tuple below is the
contract.
"""

from __future__ import annotations

import hashlib
import string
import struct
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, DataError, InvariantViolation
from .smiles import MolecularGraph

__all__ = ["Fingerprint", "atom_invariant", "check_morgan_settings", "morgan_fingerprint",
           "tanimoto"]

DEFAULT_RADIUS = 2
DEFAULT_NBITS = 512
# the widest fingerprint: each row is unpacked to one byte per bit before PCA
MAX_NBITS = 1 << 16
_HEX_DIGITS = frozenset(string.hexdigits)


def _hash64(payload: bytes) -> int:
    return int.from_bytes(hashlib.blake2b(payload, digest_size=8).digest(), "big")


@dataclass(frozen=True)
class Fingerprint:
    """Fixed-width bitset; bit i is bit i of the integer `bits`."""

    bits: int
    nbits: int = DEFAULT_NBITS

    def __post_init__(self):
        if self.nbits <= 0 or self.nbits & (self.nbits - 1):
            raise ValueError(f"nbits must be a power of two, got {self.nbits}")
        if self.bits < 0 or self.bits >> self.nbits:
            raise ValueError("bits out of range for nbits")

    @property
    def popcount(self) -> int:
        return self.bits.bit_count()

    def on_bits(self) -> list[int]:
        return [i for i in range(self.nbits) if (self.bits >> i) & 1]

    def as_bit_array(self) -> np.ndarray:
        raw = np.frombuffer(self.bits.to_bytes(-(-self.nbits // 8), "little"), dtype=np.uint8)
        return np.unpackbits(raw, count=self.nbits, bitorder="little")

    @classmethod
    def from_bit_array(cls, arr: np.ndarray) -> "Fingerprint":
        flags = np.asarray(arr).ravel() != 0
        return cls(int.from_bytes(np.packbits(flags, bitorder="little").tobytes(), "little"), flags.size)

    def to_words(self) -> np.ndarray:
        """Pack into little-endian uint64 words for vectorized popcounts."""
        n_words = -(-self.nbits // 64)
        raw = self.bits.to_bytes(n_words * 8, "little")
        return np.frombuffer(raw, dtype="<u8").copy()

    def to_hex(self) -> str:
        return format(self.bits, f"0{self.nbits // 4}x")

    @classmethod
    def from_hex(cls, text: str) -> "Fingerprint":
        """Inverse of `to_hex`: the width is four bits per hex digit."""
        if not set(text) <= _HEX_DIGITS:  # int() also takes "0x", "_", "+" and spaces
            raise ValueError(f"{text!r} is not a string of hex digits")
        return cls(int(text, 16), 4 * len(text))


def atom_invariant(graph: MolecularGraph, atom_index: int) -> int:
    """64-bit hash of an atom's immediate chemical environment.

    The hashed tuple is (atomic number, heavy-atom degree, total hydrogen
    count, formal charge, in-ring flag, isotope).
    """
    return _atom_invariant(graph, atom_index, graph.adjacency()[atom_index])


def _atom_invariant(graph: MolecularGraph, atom_index: int,
                    neighbors: list[tuple[int, int]]) -> int:
    """atom_invariant given the atom's (neighbor index, bond index) list."""
    atom = graph.atoms[atom_index]
    heavy_degree = sum(graph.atoms[other].atomic_number > 1 for other, _ in neighbors)
    total_h = graph.implicit_h[atom_index] + atom.explicit_h
    payload = struct.pack(
        ">cHHHhBH",
        b"A",
        atom.atomic_number,
        heavy_degree,
        total_h,
        atom.formal_charge,
        1 if graph.atom_in_ring[atom_index] else 0,
        atom.isotope,
    )
    return _hash64(payload)


def _environment_hash(radius: int, center_id: int, neighborhood: list[tuple[int, int]]) -> int:
    parts = [struct.pack(">cIQ", b"E", radius, center_id)]
    for bond_code, neighbor_id in sorted(neighborhood):
        parts.append(struct.pack(">BQ", bond_code, neighbor_id))
    return _hash64(b"".join(parts))


def check_morgan_settings(radius: int, nbits: int) -> None:
    """Raise ConfigError unless `radius` >= 0 and `nbits` is a power of two
    no larger than MAX_NBITS."""
    if radius < 0:
        raise ConfigError(f"fingerprint radius must be >= 0, got {radius}")
    if nbits <= 0 or nbits & (nbits - 1):
        raise ConfigError(f"fingerprint bits must be a power of two, got {nbits}")
    if nbits > MAX_NBITS:
        raise ConfigError(f"fingerprint bits must be at most {MAX_NBITS}, got {nbits}")


def morgan_fingerprint(
    graph: MolecularGraph,
    radius: int = DEFAULT_RADIUS,
    nbits: int = DEFAULT_NBITS,
) -> Fingerprint:
    """Fold all atom environments up to `radius` into an `nbits` bitset.

    Iteration follows the usual circular-fingerprint scheme: round zero
    emits every atom invariant; each later round hashes (round, previous
    identifier, sorted neighbor (bond, identifier) pairs).  Environments
    whose covered bond set duplicates one already emitted are dropped,
    keeping the smaller identifier within a round.
    """
    check_morgan_settings(radius, nbits)
    if not graph.atoms:
        raise DataError("cannot fingerprint an empty molecule")

    adjacency = graph.adjacency()
    ids = [_atom_invariant(graph, i, neighbors) for i, neighbors in enumerate(adjacency)]
    bond_codes = [bond.order.value for bond in graph.bonds]
    covers: list[frozenset[int]] = [frozenset() for _ in graph.atoms]

    bits = 0
    for identifier in ids:
        bits |= 1 << (identifier % nbits)
    seen_covers: dict[frozenset[int], int] = {frozenset(): min(ids)} if ids else {}

    for r in range(1, radius + 1):
        new_ids: list[int] = []
        new_covers: list[frozenset[int]] = []
        for idx in range(len(graph.atoms)):
            neighborhood = []
            cover = set(covers[idx])
            for other, bond_idx in adjacency[idx]:
                neighborhood.append((bond_codes[bond_idx], ids[other]))
                cover.add(bond_idx)
                cover.update(covers[other])
            new_ids.append(_environment_hash(r, ids[idx], neighborhood))
            new_covers.append(frozenset(cover))

        # Within-round duplicates keep the smaller identifier; bond sets
        # already emitted in an earlier round are dropped entirely.
        round_best: dict[frozenset[int], int] = {}
        for identifier, cover in zip(new_ids, new_covers):
            if cover in seen_covers:
                continue
            prior = round_best.get(cover)
            if prior is None or identifier < prior:
                round_best[cover] = identifier
        for cover, identifier in round_best.items():
            bits |= 1 << (identifier % nbits)
            seen_covers[cover] = identifier

        ids = new_ids
        covers = new_covers

    return Fingerprint(bits, nbits)


def tanimoto(a: Fingerprint, b: Fingerprint) -> float:
    """|a AND b| / |a OR b|, with the all-zero pair defined as 1.0."""
    if a.nbits != b.nbits:
        raise InvariantViolation(f"fingerprint widths differ: {a.nbits} vs {b.nbits}")
    union = (a.bits | b.bits).bit_count()
    if union == 0:
        return 1.0
    return (a.bits & b.bits).bit_count() / union
