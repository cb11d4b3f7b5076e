"""Circular substructure fingerprints and Tanimoto similarity.

Each atom's local environment is hashed out to a configurable radius and
folded into a fixed-width bit row, a `(nbits,)` uint8 array of 0s and 1s;
`to_hex` writes it as the number whose bit i is element i.  Hashing uses
blake2b with an 8-byte digest over a canonical serialization of the
environment, so fingerprints are identical across runs and platforms.
Bit-for-bit parity with any other fingerprint implementation is not a goal;
the invariant tuple below is the contract.

Molecules are fingerprinted in batches (`morgan_fingerprints`); one
molecule is a batch of one.  A batch's atoms and bonds become integer
columns, and each round runs over the whole batch in numpy.  An
environment's cover, the set of bonds it spans, is a uint64 bitmask over
its molecule's bond indices, one word per 64 bonds: two covers are the same
set exactly when their masks are equal, and a later round's cover is the
OR of the previous masks of the atom and its neighbors.  Molecules repeat
environments: the 81,645 atoms of the 2,970 molecules in the seed-1
cluster-sweep benchmark input hold 29 distinct invariant tuples, 273
distinct radius-1 payloads and 1,257 distinct radius-2 payloads.  So each distinct payload is hashed
once per batch, and its digest is shared by every atom that has it.
"""

from __future__ import annotations

import hashlib
import string
import struct
from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, DataError, InvariantViolation
from .smiles import BondOrder, MolecularGraph

__all__ = ["Fingerprint", "check_morgan_settings", "from_hex", "morgan_fingerprint",
           "morgan_fingerprints", "tanimoto", "to_hex"]

DEFAULT_RADIUS = 2
DEFAULT_NBITS = 512
# the widest fingerprint: a bit row holds one byte per bit
MAX_NBITS = 1 << 16
_HEX_DIGITS = frozenset(string.hexdigits)
_BOND_CODES = {order: order.value for order in BondOrder}


@dataclass(frozen=True)
class Fingerprint:
    """Fixed-width bitset, bit i of the integer `bits`: only `butina_cluster`'s
    argument, which goes with ROADMAP item 12's Butina half, after item 2a."""

    bits: int
    nbits: int = DEFAULT_NBITS

    def __post_init__(self):
        if self.nbits <= 0 or self.nbits & (self.nbits - 1):
            raise ValueError(f"nbits must be a power of two, got {self.nbits}")
        if self.bits < 0 or self.bits >> self.nbits:
            raise ValueError("bits out of range for nbits")

    @classmethod
    def from_bit_array(cls, arr: np.ndarray) -> "Fingerprint":
        flags = np.asarray(arr).ravel() != 0
        return cls(int.from_bytes(np.packbits(flags, bitorder="little").tobytes(), "little"), flags.size)

    def to_words(self) -> np.ndarray:
        """Pack into little-endian uint64 words for vectorized popcounts."""
        n_words = -(-self.nbits // 64)
        raw = self.bits.to_bytes(n_words * 8, "little")
        return np.frombuffer(raw, dtype="<u8").copy()


def to_hex(bits: np.ndarray) -> str:
    """A bit row as `nbits // 4` hex digits (one below 4 bits), most significant first."""
    packed = np.packbits(bits, bitorder="little").tobytes()
    return format(int.from_bytes(packed, "little"), f"0{bits.size // 4}x")


def from_hex(text: str) -> np.ndarray:
    """Inverse of `to_hex`: the width is four bits per hex digit."""
    if not set(text) <= _HEX_DIGITS:  # int() also takes "0x", "_", "+" and spaces
        raise ValueError(f"{text!r} is not a string of hex digits")
    value, nbits = int(text, 16), 4 * len(text)
    if nbits & (nbits - 1):
        raise ValueError(f"nbits must be a power of two, got {nbits}")
    raw = np.frombuffer(value.to_bytes(-(-nbits // 8), "little"), dtype=np.uint8)
    return np.unpackbits(raw, count=nbits, bitorder="little")


def _hash_invariant(atomic_number: int, heavy_degree: int, total_h: int,
                    formal_charge: int, in_ring: int, isotope: int) -> bytes:
    """The 8-byte big-endian blake2b digest of an atom's invariant tuple."""
    payload = struct.pack(">cHHHhBH", b"A", atomic_number, heavy_degree, total_h,
                          formal_charge, in_ring, isotope)
    return hashlib.blake2b(payload, digest_size=8).digest()


def check_morgan_settings(radius: int, nbits: int) -> None:
    """Raise ConfigError unless `radius` >= 0 and `nbits` is a power of two
    no larger than MAX_NBITS."""
    if radius < 0:
        raise ConfigError(f"fingerprint radius must be >= 0, got {radius}")
    if nbits <= 0 or nbits & (nbits - 1):
        raise ConfigError(f"fingerprint bits must be a power of two, got {nbits}")
    if nbits > MAX_NBITS:
        raise ConfigError(f"fingerprint bits must be at most {MAX_NBITS}, got {nbits}")


def _as_ids(digests: list[bytes]) -> np.ndarray:
    """8-byte big-endian digests as uint64 identifiers, which order as the bytes do."""
    return np.frombuffer(b"".join(digests), dtype=">u8").astype(np.uint64)


def _groups(keys: list[np.ndarray], then: tuple[np.ndarray, ...] = ()
            ) -> tuple[np.ndarray, np.ndarray]:
    """Group rows by their values in the `keys` columns: the first row of each
    group, taking a group's rows in ascending `then` order, and each row's
    group number."""
    order = np.lexsort([*reversed(then), *reversed(keys)])
    starts = np.zeros(order.size, dtype=bool)
    starts[:1] = True
    for key in keys:
        ordered = key[order]
        starts[1:] |= ordered[1:] != ordered[:-1]
    group = np.empty(order.size, dtype=np.intp)
    group[order] = np.cumsum(starts) - 1
    return order[starts], group


@dataclass
class _Batch:
    """A batch's molecules as integer columns.

    Atoms are numbered through the batch.  Each bond is two directed edges,
    one from each end, and edges are grouped by their center atom: atom
    `a`'s edges are `starts[a]` to `starts[a] + degree[a]`.
    """

    molecule: np.ndarray   # per atom: its graph's row in the batch
    ids: np.ndarray        # per atom: round-0 identifier
    degree: np.ndarray     # per atom
    starts: np.ndarray     # per atom
    center: np.ndarray     # per edge
    neighbor: np.ndarray   # per edge
    code: np.ndarray       # per edge: the bond order's code
    bond_bit: np.ndarray   # per edge: (words,) uint64 mask of its bond among its molecule's


def _flatten(graphs: Sequence[MolecularGraph]) -> _Batch:
    atom_counts = np.array([len(graph.atoms) for graph in graphs])
    bond_counts = np.array([len(graph.bonds) for graph in graphs])
    atoms = [atom for graph in graphs for atom in graph.atoms]
    bonds = [bond for graph in graphs for bond in graph.bonds]
    offset = np.repeat(np.cumsum(atom_counts) - atom_counts, bond_counts)
    a = np.array([bond.a for bond in bonds], dtype=np.int64) + offset
    b = np.array([bond.b for bond in bonds], dtype=np.int64) + offset
    codes = np.array([_BOND_CODES[bond.order] for bond in bonds], dtype=np.uint8)
    local = np.arange(len(bonds)) - np.repeat(np.cumsum(bond_counts) - bond_counts, bond_counts)
    order = np.argsort(np.concatenate([a, b]), kind="stable")
    center = np.concatenate([a, b])[order]
    neighbor = np.concatenate([b, a])[order]
    code = np.concatenate([codes, codes])[order]
    local = np.concatenate([local, local])[order]
    # a molecule with more than 64 bonds needs more than one word per mask
    bond_bit = np.zeros((center.size, max(1, -(-int(bond_counts.max()) // 64))), dtype=np.uint64)
    bond_bit[np.arange(center.size), local // 64] = np.uint64(1) << (local % 64).astype(np.uint64)
    degree = np.bincount(center, minlength=len(atoms))

    # round 0: the invariant tuple (atomic number, heavy-atom degree, total
    # hydrogen count, formal charge, in-ring flag, isotope), hashed once per
    # distinct tuple
    atomic_number = np.array([atom.atomic_number for atom in atoms])
    invariants = [
        atomic_number,
        np.bincount(center, weights=atomic_number[neighbor] > 1, minlength=len(atoms)).astype(int),
        np.array([atom.explicit_h for atom in atoms])
        + np.array([h for graph in graphs for h in graph.implicit_h]),
        np.array([atom.formal_charge for atom in atoms]),
        np.array([flag for graph in graphs for flag in graph.atom_in_ring], dtype=int),
        np.array([atom.isotope for atom in atoms]),
    ]
    first, group = _groups(invariants)
    distinct = np.column_stack(invariants)[first].tolist()
    ids = _as_ids([_hash_invariant(*row) for row in distinct])[group]
    return _Batch(np.repeat(np.arange(len(graphs)), atom_counts), ids, degree,
                  np.cumsum(degree) - degree, center, neighbor, code, bond_bit)


def _or_edges(batch: _Batch, values: np.ndarray, out: np.ndarray) -> np.ndarray:
    """`out` with each atom's row ORed with the `values` rows of its edges."""
    bonded = batch.degree > 0
    if bonded.any():
        out[bonded] |= np.bitwise_or.reduceat(values, batch.starts[bonded], axis=0)
    return out


def _next_ids(batch: _Batch, ids: np.ndarray, r: int) -> np.ndarray:
    """Round `r`'s identifiers: the digest of (b"E", round, the atom's identifier,
    its neighbors' (bond code, identifier) pairs in ascending order), hashed
    once per distinct payload in the batch."""
    order = np.lexsort((ids[batch.neighbor], batch.code, batch.center))
    head = hashlib.blake2b(b"E" + r.to_bytes(4, "big"), digest_size=8)
    new_ids = np.empty_like(ids)
    for degree in np.flatnonzero(np.bincount(batch.degree)).tolist():
        atoms = np.flatnonzero(batch.degree == degree)
        edges = order[batch.starts[atoms, None] + np.arange(degree)]
        codes, neighbor_ids = batch.code[edges], ids[batch.neighbor[edges]]
        keys = [ids[atoms]] + [column for k in range(degree)
                               for column in (codes[:, k], neighbor_ids[:, k])]
        first, group = _groups(keys)
        # the payload's bytes: the identifier, then each pair as its code
        # byte and the neighbor's identifier
        payload = np.empty(first.size, dtype=[("id", ">u8"),
                                              ("pairs", [("code", "u1"), ("id", ">u8")], degree)])
        payload["id"] = ids[atoms[first]]
        payload["pairs"]["code"] = codes[first]
        payload["pairs"]["id"] = neighbor_ids[first]
        digests = []
        for row in payload.view(f"V{payload.itemsize}").tolist():
            env = head.copy()
            env.update(row)
            digests.append(env.digest())
        new_ids[atoms] = _as_ids(digests)[group]
    return new_ids


def morgan_fingerprints(
    graphs: Sequence[MolecularGraph],
    radius: int = DEFAULT_RADIUS,
    nbits: int = DEFAULT_NBITS,
) -> np.ndarray:
    """Fold all atom environments up to `radius` of each graph into its row of
    a `(len(graphs), nbits)` uint8 bit matrix.

    Iteration follows the usual circular-fingerprint scheme: round zero
    emits every atom invariant; each later round hashes (round, previous
    identifier, sorted neighbor (bond, identifier) pairs).  Environments
    whose covered bond set duplicates one already emitted are dropped,
    keeping the smaller identifier within a round.
    """
    check_morgan_settings(radius, nbits)
    if not all(graph.atoms for graph in graphs):
        raise DataError("cannot fingerprint an empty molecule")
    bits = np.zeros((len(graphs), nbits), dtype=np.uint8)
    if not graphs:
        return bits
    batch = _flatten(graphs)
    fold = np.uint64(nbits - 1)   # nbits is a power of two, so `& fold` is `% nbits`
    bits[batch.molecule, batch.ids & fold] = 1
    if radius == 0:
        return bits

    # Round 1 covers an atom's own bonds; a later round's cover is the union
    # of the atom's and its neighbors' previous covers.
    ids = batch.ids
    cover = np.zeros((ids.size, batch.bond_bit.shape[1]), dtype=np.uint64)
    cover = _or_edges(batch, batch.bond_bit, cover)
    rounds = []
    for r in range(1, radius + 1):
        if r > 1:
            cover = _or_edges(batch, cover[batch.neighbor], cover.copy())
        ids = _next_ids(batch, ids, r)
        rounds.append((cover, ids))

    # One environment is emitted per distinct (molecule, cover), other than
    # the empty cover: the smallest identifier of the earliest round with it.
    covers = np.concatenate([cover for cover, _ in rounds])
    round_ids = np.concatenate([ids for _, ids in rounds])
    round_of = np.repeat(np.arange(radius), ids.size)
    molecule = np.tile(batch.molecule, radius)
    kept = np.flatnonzero(covers.any(axis=1))
    first, _ = _groups([molecule[kept], *covers[kept].T], then=(round_of[kept], round_ids[kept]))
    emitted = kept[first]
    bits[molecule[emitted], round_ids[emitted] & fold] = 1
    return bits


def morgan_fingerprint(
    graph: MolecularGraph,
    radius: int = DEFAULT_RADIUS,
    nbits: int = DEFAULT_NBITS,
) -> np.ndarray:
    """One molecule's `(nbits,)` uint8 bit row: its row of `morgan_fingerprints`."""
    return morgan_fingerprints([graph], radius, nbits)[0]


def tanimoto(a: np.ndarray, b: np.ndarray) -> float:
    """|a AND b| / |a OR b| of two bit rows, with the all-zero pair defined as 1.0."""
    if a.size != b.size:
        raise InvariantViolation(f"fingerprint widths differ: {a.size} vs {b.size}")
    union = np.count_nonzero(a | b)
    if union == 0:
        return 1.0
    return np.count_nonzero(a & b) / union
