"""Circular substructure fingerprints and Tanimoto similarity.

Each atom's local environment is hashed out to a configurable radius and
folded into a fixed-width bitset.  Hashing uses blake2b with an 8-byte
digest over a canonical serialization of the environment, so fingerprints
are identical across runs and platforms.  Bit-for-bit parity with any other
fingerprint implementation is not a goal; the invariant tuple below is the
contract.

An environment's cover, the set of bonds it spans, is an int bitmask over
bond indices: two covers are the same set exactly when their masks are
equal, and a later round's cover is the OR of the previous masks of the
atom and its neighbors.  Each environment is hashed once, from one joined
payload.  Round-zero identifiers come from a bounded cache keyed by the
atom invariant tuple, since a dataset holds few distinct tuples;
identifiers of radius 1 and up depend on whole neighborhoods and are not
cached.
"""

from __future__ import annotations

import functools
import hashlib
import string
import struct
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, DataError, InvariantViolation
from .smiles import BondOrder, MolecularGraph

__all__ = ["Fingerprint", "check_morgan_settings", "morgan_fingerprint", "tanimoto"]

DEFAULT_RADIUS = 2
DEFAULT_NBITS = 512
# the widest fingerprint: each row is unpacked to one byte per bit before PCA
MAX_NBITS = 1 << 16
_HEX_DIGITS = frozenset(string.hexdigits)
# bound on the number of atom invariant tuples whose digests are kept
_INVARIANT_CACHE_SIZE = 1024
_BOND_CODES = {order: bytes((order.value,)) for order in BondOrder}


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


def _hash_invariant(atomic_number: int, heavy_degree: int, total_h: int,
                    formal_charge: int, in_ring: int, isotope: int) -> bytes:
    """The 8-byte big-endian blake2b digest of an atom's invariant tuple."""
    payload = struct.pack(">cHHHhBH", b"A", atomic_number, heavy_degree, total_h,
                          formal_charge, in_ring, isotope)
    return hashlib.blake2b(payload, digest_size=8).digest()


# Round-0 digests by invariant tuple.  Few distinct tuples occur (29 across
# 3,000 benchmark molecules), and the bound caps the cache on any input.
_cached_invariant = functools.lru_cache(maxsize=_INVARIANT_CACHE_SIZE)(_hash_invariant)


def _atom_ids(graph: MolecularGraph, adjacency: list[list[tuple[int, int]]]) -> list[bytes]:
    """Every atom's round-0 identifier: the digest of its invariant tuple (atomic
    number, heavy-atom degree, total hydrogen count, formal charge, in-ring flag,
    isotope)."""
    heavy = [atom.atomic_number > 1 for atom in graph.atoms]
    return [
        _cached_invariant(atom.atomic_number, sum([heavy[other] for other, _ in neighbors]),
                          h + atom.explicit_h, atom.formal_charge, 1 if in_ring else 0,
                          atom.isotope)
        for atom, neighbors, h, in_ring in zip(graph.atoms, adjacency, graph.implicit_h,
                                               graph.atom_in_ring)
    ]


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

    # An identifier is its 8-byte big-endian digest: bytes order as the
    # integers do, and a neighbor's (bond code, identifier) pair packs as its
    # code byte plus the digest, so sorting packed pairs sorts the pairs.
    adjacency = graph.adjacency()
    ids = _atom_ids(graph, adjacency)
    codes = [_BOND_CODES[bond.order] for bond in graph.bonds]
    neighbor_codes = [[(codes[bond_idx], other) for other, bond_idx in neighbors]
                      for neighbors in adjacency]
    # Bit i of a cover is set when bond i lies in the atom's environment.  Round
    # 1 covers an atom's own bonds; a later round's cover is the union of the
    # atom's and its neighbors' previous covers, which hold the atom's bonds.
    covers = [sum([1 << bond_idx for _, bond_idx in neighbors]) for neighbors in adjacency]
    fold = nbits - 1   # nbits is a power of two, so `& fold` is `% nbits`

    bits = 0
    for identifier in ids:
        bits |= 1 << (int.from_bytes(identifier, "big") & fold)
    seen_covers = {0}

    for r in range(1, radius + 1):
        if r > 1:
            grown = []
            for cover, neighbors in zip(covers, adjacency):
                for other, _ in neighbors:
                    cover |= covers[other]
                grown.append(cover)
            covers = grown
        # every payload of the round starts with (b"E", round)
        head = hashlib.blake2b(b"E" + r.to_bytes(4, "big"), digest_size=8)
        new_ids: list[bytes] = []
        for center, pairs in zip(ids, neighbor_codes):
            env = head.copy()
            env.update(center + b"".join(sorted([code + ids[other] for code, other in pairs])))
            new_ids.append(env.digest())

        # Within-round duplicates keep the smaller identifier; bond sets
        # already emitted in an earlier round are dropped entirely.
        round_best: dict[int, bytes] = {}
        for identifier, cover in zip(new_ids, covers):
            if cover in seen_covers:
                continue
            prior = round_best.get(cover)
            if prior is None or identifier < prior:
                round_best[cover] = identifier
        for cover, identifier in round_best.items():
            bits |= 1 << (int.from_bytes(identifier, "big") & fold)
            seen_covers.add(cover)
        ids = new_ids

    return Fingerprint(bits, nbits)


def tanimoto(a: Fingerprint, b: Fingerprint) -> float:
    """|a AND b| / |a OR b|, with the all-zero pair defined as 1.0."""
    if a.nbits != b.nbits:
        raise InvariantViolation(f"fingerprint widths differ: {a.nbits} vs {b.nbits}")
    union = (a.bits | b.bits).bit_count()
    if union == 0:
        return 1.0
    return (a.bits & b.bits).bit_count() / union
