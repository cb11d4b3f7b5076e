import numpy as np
import pytest

from qsarbench.errors import ConfigError, DataError, InvariantViolation
from qsarbench import fingerprint
from qsarbench.fingerprint import Fingerprint, morgan_fingerprint, tanimoto
from qsarbench.smiles import MolecularGraph, Bond, parse_smiles

from conftest import REAL_SMILES, perceive_rings, random_smiles


def atom_invariant(graph: MolecularGraph, atom_index: int) -> int:
    """64-bit hash of an atom's immediate chemical environment, without the
    cache that `morgan_fingerprint` reads: the reference for it.

    The hashed tuple is (atomic number, heavy-atom degree, total hydrogen
    count, formal charge, in-ring flag, isotope).
    """
    atoms = graph.atoms
    atom = atoms[atom_index]
    heavy_degree = sum(atoms[other].atomic_number > 1 for other, _ in graph.adjacency()[atom_index])
    digest = fingerprint._hash_invariant(
        atom.atomic_number,
        heavy_degree,
        graph.implicit_h[atom_index] + atom.explicit_h,
        atom.formal_charge,
        1 if graph.atom_in_ring[atom_index] else 0,
        atom.isotope,
    )
    return int.from_bytes(digest, "big")


def fp_from_bits(on_bits, nbits=512):
    bits = 0
    for b in on_bits:
        bits |= 1 << int(b)
    return Fingerprint(bits, nbits)


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
    graph = parse_smiles(smiles)
    ids = fingerprint._atom_ids(graph, graph.adjacency())
    assert [int.from_bytes(identifier, "big") for identifier in ids] == [
        atom_invariant(graph, i) for i in range(len(graph.atoms))]


def test_methane_radius2_single_bit():
    fp = morgan_fingerprint(parse_smiles("C"), radius=2, nbits=512)
    assert fp.popcount == 1


def test_ethanol_radius0_three_distinct_bits():
    graph = parse_smiles("CCO")
    invariants = [atom_invariant(graph, i) for i in range(3)]
    expected_bits = {inv % 512 for inv in invariants}
    fp = morgan_fingerprint(graph, radius=0, nbits=512)
    assert len(set(invariants)) == 3
    assert fp.popcount == len(expected_bits) == 3
    assert set(fp.on_bits()) == expected_bits


def test_radius_monotonicity(rng):
    corpus = REAL_SMILES + [random_smiles(rng) for _ in range(50)]
    for smiles in corpus:
        graph = parse_smiles(smiles)
        previous = 0
        for radius in range(4):
            bits = morgan_fingerprint(graph, radius, 512).bits
            assert bits & previous == previous, smiles
            previous = bits


def test_determinism_across_reparses():
    a = morgan_fingerprint(parse_smiles("CC(=O)Oc1ccccc1C(=O)O"), 2, 512)
    b = morgan_fingerprint(parse_smiles("CC(=O)Oc1ccccc1C(=O)O"), 2, 512)
    assert a == b


def test_ethanol_radius2_frozen():
    fp = morgan_fingerprint(parse_smiles("CCO"), 2, 512)
    assert fp.to_hex() == (
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
            assert morgan_fingerprint(shuffled, 2, 512) == reference, smiles


def test_empty_molecule_rejected():
    with pytest.raises(DataError, match="cannot fingerprint an empty molecule"):
        morgan_fingerprint(MolecularGraph(atoms=[], bonds=[], implicit_h=[]), 2, 512)


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
    zero = Fingerprint(0, 512)
    assert tanimoto(zero, zero) == 1.0


def test_tanimoto_symmetry(rng):
    for _ in range(100):
        a = fp_from_bits(rng.choice(512, size=rng.integers(0, 40), replace=False))
        b = fp_from_bits(rng.choice(512, size=rng.integers(0, 40), replace=False))
        assert tanimoto(a, b) == tanimoto(b, a)
        assert 0.0 <= tanimoto(a, b) <= 1.0


def test_tanimoto_width_mismatch():
    with pytest.raises(InvariantViolation, match="fingerprint widths differ: 512 vs 256"):
        tanimoto(Fingerprint(0, 512), Fingerprint(0, 256))


def test_hex_round_trip(rng):
    for _ in range(20):
        fp = fp_from_bits(rng.choice(512, size=17, replace=False))
        assert Fingerprint.from_hex(fp.to_hex()) == fp


def test_hex_width_is_four_bits_per_digit():
    fp = fp_from_bits([0, 255], 256)
    assert fp.to_hex() == "8" + "0" * 62 + "1"
    assert Fingerprint.from_hex(fp.to_hex()) == fp
    # prefixes, separators and spaces would count as digits of the width
    for text in ("0xff", " ff ", "f_ff", "+fff", "00g0"):
        with pytest.raises(ValueError):
            Fingerprint.from_hex(text)


def test_bit_array_round_trip(rng):
    for nbits in (8, 32, 64, 512):
        on = rng.choice(nbits, size=nbits // 4 + 1, replace=False)
        fp = fp_from_bits(on, nbits)
        arr = fp.as_bit_array()
        assert arr.shape == (nbits,)
        assert np.flatnonzero(arr).tolist() == sorted(int(i) for i in on)
        assert Fingerprint.from_bit_array(arr) == fp
        assert Fingerprint.from_bit_array(arr.astype(np.float64)) == fp


def test_words_popcount_agrees():
    fp = fp_from_bits([0, 63, 64, 511])
    assert int(np.bitwise_count(fp.to_words()).sum()) == fp.popcount == 4
