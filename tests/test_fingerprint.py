import hashlib

import numpy as np
import pytest

from qsarbench.data import FEATURIZE_BATCH, _parse_texts
from qsarbench.errors import ConfigError, DataError, InvariantViolation
from qsarbench import fingerprint
from qsarbench.fingerprint import (Fingerprint, from_hex, morgan_fingerprint, morgan_fingerprints,
                                   tanimoto, to_hex)
from qsarbench.smiles import MolecularGraph, Bond, parse_smiles

from conftest import REAL_SMILES, adjacency, perceive_rings, random_smiles


def atom_invariant(graph: MolecularGraph, atom_index: int) -> int:
    """64-bit hash of an atom's immediate chemical environment, one atom at a
    time: the reference for a batch's round-0 identifiers.

    The hashed tuple is (atomic number, heavy-atom degree, total hydrogen
    count, formal charge, in-ring flag, isotope).
    """
    atoms = graph.atoms
    atom = atoms[atom_index]
    heavy_degree = sum(atoms[other].atomic_number > 1
                       for other, _ in adjacency(graph)[atom_index])
    digest = fingerprint._hash_invariant(
        atom.atomic_number,
        heavy_degree,
        graph.implicit_h[atom_index] + atom.explicit_h,
        atom.formal_charge,
        1 if graph.atom_in_ring[atom_index] else 0,
        atom.isotope,
    )
    return int.from_bytes(digest, "big")


def reference_morgan(graph: MolecularGraph, radius: int, nbits: int) -> np.ndarray:
    """One molecule's Morgan bit row, one atom and one environment at a time:
    the reference `morgan_fingerprints` must match row for row.

    Round zero emits every atom invariant; each later round hashes (b"E",
    round, previous identifier, the neighbors' (bond code, identifier) pairs
    in ascending order).  An environment whose covered bond set was emitted
    in an earlier round is dropped; within a round, the smaller identifier
    of a bond set is kept.
    """
    neighbor_lists = adjacency(graph)
    ids = [atom_invariant(graph, i).to_bytes(8, "big") for i in range(len(graph.atoms))]
    codes = [bytes((bond.order.value,)) for bond in graph.bonds]
    # bit i of a cover is set when bond i lies in the atom's environment
    covers = [sum(1 << bond_idx for _, bond_idx in neighbors) for neighbors in neighbor_lists]
    on = [int.from_bytes(identifier, "big") % nbits for identifier in ids]
    seen_covers = {0}
    for r in range(1, radius + 1):
        if r > 1:
            grown = []
            for cover, neighbors in zip(covers, neighbor_lists):
                for other, _ in neighbors:
                    cover |= covers[other]
                grown.append(cover)
            covers = grown
        new_ids = []
        for center, neighbors in zip(ids, neighbor_lists):
            pairs = sorted(codes[bond_idx] + ids[other] for other, bond_idx in neighbors)
            payload = b"E" + r.to_bytes(4, "big") + center + b"".join(pairs)
            new_ids.append(hashlib.blake2b(payload, digest_size=8).digest())
        round_best: dict[int, bytes] = {}
        for identifier, cover in zip(new_ids, covers):
            if cover in seen_covers:
                continue
            if cover not in round_best or identifier < round_best[cover]:
                round_best[cover] = identifier
        on += [int.from_bytes(identifier, "big") % nbits for identifier in round_best.values()]
        seen_covers.update(round_best)
        ids = new_ids
    bits = np.zeros(nbits, dtype=np.uint8)
    bits[on] = 1
    return bits


def fp_from_bits(on_bits, nbits=512):
    """The uint8 bit row with `on_bits` set."""
    bits = np.zeros(nbits, dtype=np.uint8)
    bits[[int(b) for b in on_bits]] = 1
    return bits


def bit_row(fp: Fingerprint) -> np.ndarray:
    """The bit row of a `butina_cluster` argument, unpacked from its words."""
    return np.unpackbits(fp.to_words().view(np.uint8), count=fp.nbits, bitorder="little")


def test_symmetric_atoms_share_invariants():
    graph = parse_smiles("CC")
    assert atom_invariant(graph, 0) == atom_invariant(graph, 1)


def test_different_elements_differ():
    graph = parse_smiles("CO")
    assert atom_invariant(graph, 0) != atom_invariant(graph, 1)


def test_charge_changes_invariant():
    plain = parse_smiles("C")
    charged = parse_smiles("[CH3-]")
    assert atom_invariant(plain, 0) != atom_invariant(charged, 0)


def test_invariant_is_frozen_across_runs():
    # regression pin for hash portability; recompute only on a deliberate
    # invariant-tuple change
    assert atom_invariant(parse_smiles("C"), 0) == 16220966302742209544


@pytest.mark.parametrize("smiles", REAL_SMILES)
def test_cached_round_zero_ids_equal_atom_invariants(smiles):
    # in a batch with every other molecule, which shares its invariant tuples'
    # digests across molecules
    graph = parse_smiles(smiles)
    others = [parse_smiles(s) for s in REAL_SMILES]
    batch = fingerprint._flatten(others + [graph])
    ids = batch.ids[batch.molecule == len(others)]
    assert ids.tolist() == [atom_invariant(graph, i) for i in range(len(graph.atoms))]


def test_methane_radius2_single_bit():
    fp = morgan_fingerprint(parse_smiles("C"), radius=2, nbits=512)
    assert fp.dtype == np.uint8 and fp.shape == (512,)
    assert np.count_nonzero(fp) == 1


def test_ethanol_radius0_three_distinct_bits():
    graph = parse_smiles("CCO")
    invariants = [atom_invariant(graph, i) for i in range(3)]
    expected_bits = {inv % 512 for inv in invariants}
    fp = morgan_fingerprint(graph, radius=0, nbits=512)
    assert len(set(invariants)) == 3
    assert np.count_nonzero(fp) == len(expected_bits) == 3
    assert set(np.flatnonzero(fp).tolist()) == expected_bits


def test_radius_monotonicity(rng):
    corpus = REAL_SMILES + [random_smiles(rng) for _ in range(50)]
    for smiles in corpus:
        graph = parse_smiles(smiles)
        previous = np.zeros(512, dtype=np.uint8)
        for radius in range(4):
            bits = morgan_fingerprint(graph, radius, 512)
            assert np.all(bits >= previous), smiles
            previous = bits


def test_determinism_across_reparses():
    a = morgan_fingerprint(parse_smiles("CC(=O)Oc1ccccc1C(=O)O"), 2, 512)
    b = morgan_fingerprint(parse_smiles("CC(=O)Oc1ccccc1C(=O)O"), 2, 512)
    np.testing.assert_array_equal(a, b)


def test_ethanol_radius2_frozen():
    fp = morgan_fingerprint(parse_smiles("CCO"), 2, 512)
    assert to_hex(fp) == (
        "000000000000000000000000000000001000000000000000000000008000400000"
        "00000000000080000012000000000000000000000000000000000000000000"
    )


def _permute_graph(graph: MolecularGraph, perm: list[int]) -> MolecularGraph:
    """Relabel atoms by perm[old] = new and rebuild the graph."""
    inverse = [0] * len(perm)
    for old, new in enumerate(perm):
        inverse[new] = old
    atoms = [graph.atoms[inverse[new]] for new in range(len(perm))]
    bonds = [Bond(perm[b.a], perm[b.b], b.order) for b in graph.bonds]
    implicit = [graph.implicit_h[inverse[new]] for new in range(len(perm))]
    return perceive_rings(MolecularGraph(atoms=atoms, bonds=bonds, implicit_h=implicit))


def test_permutation_invariance(rng):
    corpus = REAL_SMILES + [random_smiles(rng) for _ in range(40)]
    for smiles in corpus:
        graph = parse_smiles(smiles)
        if len(graph.atoms) < 2:
            continue
        reference = morgan_fingerprint(graph, 2, 512)
        for _ in range(3):
            perm = rng.permutation(len(graph.atoms)).tolist()
            shuffled = _permute_graph(graph, perm)
            np.testing.assert_array_equal(morgan_fingerprint(shuffled, 2, 512), reference,
                                          err_msg=smiles)


def test_empty_molecule_rejected():
    empty = MolecularGraph(atoms=[], bonds=[], implicit_h=[])
    with pytest.raises(DataError, match="cannot fingerprint an empty molecule"):
        morgan_fingerprint(empty, 2, 512)
    graphs = [parse_smiles(s) for s in ("CCO", "c1ccccc1")]
    for at in range(len(graphs) + 1):
        with pytest.raises(DataError, match="^cannot fingerprint an empty molecule$"):
            morgan_fingerprints(graphs[:at] + [empty] + graphs[at:], 2, 512)


def _corpus(rng) -> list[MolecularGraph]:
    """REAL_SMILES and random molecules: more than one featurizer batch."""
    smiles = REAL_SMILES + [random_smiles(rng) for _ in range(FEATURIZE_BATCH)]
    return [parse_smiles(s) for s in smiles]


def test_batches_match_reference(rng):
    graphs = _corpus(rng)
    for radius in range(4):
        for nbits in (4, 64, 512, 1024):
            expected = np.array([reference_morgan(g, radius, nbits) for g in graphs])
            got = morgan_fingerprints(graphs, radius, nbits)
            assert got.dtype == np.uint8
            np.testing.assert_array_equal(got, expected, err_msg=f"radius {radius}, {nbits} bits")


@pytest.mark.parametrize("size", [1, 2, FEATURIZE_BATCH, FEATURIZE_BATCH + 1])
def test_rows_do_not_depend_on_the_batch(rng, size):
    graphs = _corpus(rng)
    expected = np.array([reference_morgan(g, 2, 512) for g in graphs])
    batched = np.concatenate([morgan_fingerprints(graphs[start:start + size], 2, 512)
                              for start in range(0, len(graphs), size)])
    np.testing.assert_array_equal(batched, expected)


def test_fragments_single_atoms_and_many_bonds_match_reference():
    smiles = [
        "[Na+].[Cl-]", "C.C", "C", "[NH4+]", "O", "[2H]", "CCO.[K+]",
        "C" * 66,                   # 65 bonds: two mask words
        "C1CCC(CC1)" * 12 + "C",    # 84 bonds, rings across the word boundary
        "C" * 140,                  # 139 bonds: three words
    ]
    graphs = [parse_smiles(s) for s in smiles]
    assert max(len(g.bonds) for g in graphs) > 128
    for radius in range(4):
        for nbits in (64, 1024):
            got = morgan_fingerprints(graphs, radius, nbits)
            for text, graph, row in zip(smiles, graphs, got):
                np.testing.assert_array_equal(row, reference_morgan(graph, radius, nbits),
                                              err_msg=f"{text} r={radius} {nbits}")
                np.testing.assert_array_equal(morgan_fingerprint(graph, radius, nbits), row)
    assert morgan_fingerprints([], 2, 512).shape == (0, 512)


def test_ingest_featurizes_at_most_one_batch_of_graphs_per_call(rng):
    texts = REAL_SMILES + [random_smiles(rng) for _ in range(2 * FEATURIZE_BATCH)]
    texts[::7] = ["C1CC"] * len(texts[::7])   # rows that do not parse
    sizes = []

    def featurize(graphs):
        sizes.append(len(graphs))
        return morgan_fingerprints(graphs, 2, 512)

    kept, features = _parse_texts(texts, featurize)
    assert max(sizes) <= FEATURIZE_BATCH and sum(sizes) == kept.sum() == len(features)
    assert len(sizes) == -(-len(texts) // FEATURIZE_BATCH)
    expected = [reference_morgan(parse_smiles(texts[i]), 2, 512) for i in np.flatnonzero(kept)]
    np.testing.assert_array_equal(features, np.array(expected))


def test_bad_nbits_rejected():
    graph = parse_smiles("C")
    with pytest.raises(ConfigError):
        morgan_fingerprint(graph, 2, 500)
    with pytest.raises(ConfigError):
        morgan_fingerprint(graph, -1, 512)


def test_tanimoto_identity_and_disjoint():
    a = fp_from_bits([1, 2, 3])
    assert tanimoto(a, a) == 1.0
    b = fp_from_bits([10, 11])
    assert tanimoto(a, b) == 0.0


def test_tanimoto_half_overlap():
    a = fp_from_bits([1, 2, 3])
    b = fp_from_bits([2, 3, 4])
    assert tanimoto(a, b) == pytest.approx(2 / 4)


def test_tanimoto_zero_convention():
    zero = np.zeros(512, dtype=np.uint8)
    assert tanimoto(zero, zero) == 1.0


def test_tanimoto_symmetry(rng):
    for _ in range(100):
        on_a = rng.choice(512, size=rng.integers(0, 40), replace=False)
        on_b = rng.choice(512, size=rng.integers(0, 40), replace=False)
        a, b = fp_from_bits(on_a), fp_from_bits(on_b)
        assert tanimoto(a, b) == tanimoto(b, a)
        assert 0.0 <= tanimoto(a, b) <= 1.0
        # against the same quotient on Python ints
        int_a, int_b = (sum(1 << int(i) for i in on) for on in (on_a, on_b))
        union = (int_a | int_b).bit_count()
        assert tanimoto(a, b) == (1.0 if union == 0 else (int_a & int_b).bit_count() / union)


def test_tanimoto_width_mismatch():
    with pytest.raises(InvariantViolation, match="fingerprint widths differ: 512 vs 256"):
        tanimoto(np.zeros(512, dtype=np.uint8), np.zeros(256, dtype=np.uint8))


def test_hex_round_trip(rng):
    for _ in range(20):
        fp = fp_from_bits(rng.choice(512, size=17, replace=False))
        back = from_hex(to_hex(fp))
        assert back.dtype == np.uint8
        np.testing.assert_array_equal(back, fp)


def test_hex_width_is_four_bits_per_digit():
    fp = fp_from_bits([0, 255], 256)
    assert to_hex(fp) == "8" + "0" * 62 + "1"
    np.testing.assert_array_equal(from_hex(to_hex(fp)), fp)
    assert to_hex(fp_from_bits([0, 3], 4)) == "9"
    np.testing.assert_array_equal(from_hex("9"), fp_from_bits([0, 3], 4))
    # rows narrower than one digit still take one digit
    assert [to_hex(fp_from_bits(on, 2)) for on in ([], [0], [1], [0, 1])] == ["0", "1", "2", "3"]
    # prefixes, separators and spaces would count as digits of the width
    for text in ("0xff", " ff ", "f_ff", "+fff", "00g0"):
        with pytest.raises(ValueError, match="is not a string of hex digits"):
            from_hex(text)
    with pytest.raises(ValueError, match="nbits must be a power of two, got 12"):
        from_hex("fff")


def test_bit_array_round_trip(rng):
    for nbits in (8, 32, 64, 512):
        on = rng.choice(nbits, size=nbits // 4 + 1, replace=False)
        arr = fp_from_bits(on, nbits)
        fp = Fingerprint(sum(1 << int(i) for i in on), nbits)
        assert Fingerprint.from_bit_array(arr) == fp
        assert Fingerprint.from_bit_array(arr.astype(np.float64)) == fp
        np.testing.assert_array_equal(bit_row(fp), arr)


def test_words_popcount_agrees():
    fp = Fingerprint.from_bit_array(fp_from_bits([0, 63, 64, 511]))
    assert int(np.bitwise_count(fp.to_words()).sum()) == 4
