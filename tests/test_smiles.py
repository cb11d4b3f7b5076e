import math

import pytest
from hypothesis import given
from hypothesis import strategies as st

from qsarbench.elements import DEFAULT_VALENCES
from qsarbench.errors import SmilesParseError
from qsarbench.smiles import BondOrder, MolecularGraph, parse_smiles

from conftest import REAL_SMILES, perceive_rings, random_smiles


def test_methane():
    graph = parse_smiles("C")
    assert len(graph.atoms) == 1
    assert len(graph.bonds) == 0
    assert graph.implicit_h == [4]


def test_ethanol_valences():
    graph = parse_smiles("CCO")
    assert len(graph.atoms) == 3
    assert len(graph.bonds) == 2
    assert all(b.order is BondOrder.SINGLE for b in graph.bonds)
    assert graph.implicit_h == [3, 2, 1]


def test_benzene():
    graph = parse_smiles("c1ccccc1")
    assert len(graph.atoms) == 6
    assert len(graph.bonds) == 6
    assert all(a.aromatic for a in graph.atoms)
    assert all(b.order is BondOrder.AROMATIC for b in graph.bonds)
    assert all(graph.atom_in_ring)
    assert all(graph.bond_in_ring)
    assert graph.implicit_h == [1] * 6


def test_unclosed_ring_bond():
    with pytest.raises(SmilesParseError, match="ring closure never paired") as err:
        parse_smiles("C1CC")
    assert err.value.offset == 1


def test_acyclic_chain_has_no_rings():
    graph = parse_smiles("CCCC")
    assert not any(graph.atom_in_ring)
    assert not any(graph.bond_in_ring)


def test_cyclobutane_all_in_ring():
    graph = parse_smiles("C1CCC1")
    assert graph.atom_in_ring == [True] * 4
    assert graph.bond_in_ring == [True] * 4


def _simple_cycles_oracle(graph: MolecularGraph) -> tuple[set[int], set[int]]:
    """Brute-force enumeration of simple cycles; returns (atoms, bonds) on any."""
    adjacency = graph.adjacency()
    ring_atoms: set[int] = set()
    ring_bonds: set[int] = set()

    def walk(start: int, node: int, visited: list[int], used_bonds: list[int]):
        for nxt, bond_idx in adjacency[node]:
            if bond_idx in used_bonds:
                continue
            if nxt == start and len(visited) >= 3:
                ring_atoms.update(visited)
                ring_bonds.update(used_bonds + [bond_idx])
            elif nxt not in visited:
                walk(start, nxt, visited + [nxt], used_bonds + [bond_idx])

    for atom in range(len(graph.atoms)):
        walk(atom, atom, [atom], [])
    return ring_atoms, ring_bonds


def test_ring_flags_match_cycle_enumeration_oracle():
    graph = parse_smiles("C1CC1C")
    atoms, bonds = _simple_cycles_oracle(graph)
    assert atoms == {0, 1, 2}
    assert [graph.atom_in_ring[i] for i in range(4)] == [True, True, True, False]
    assert {i for i, flag in enumerate(graph.bond_in_ring) if flag} == bonds


@pytest.mark.parametrize("smiles", REAL_SMILES)
def test_ring_flags_on_corpus_match_oracle(smiles):
    graph = parse_smiles(smiles)
    atoms, bonds = _simple_cycles_oracle(graph)
    assert {i for i, f in enumerate(graph.atom_in_ring) if f} == atoms
    assert {i for i, f in enumerate(graph.bond_in_ring) if f} == bonds


def test_perceive_rings_idempotent():
    # the flags parse_smiles sets are those a fresh ring pass over its graph gives
    for smiles in REAL_SMILES:
        graph = parse_smiles(smiles)
        fresh = perceive_rings(graph)
        assert graph.atom_in_ring == fresh.atom_in_ring
        assert graph.bond_in_ring == fresh.bond_in_ring


def _count_atom_tokens(text: str) -> int:
    """Independent token counter: bracket groups plus bare subset symbols."""
    count = 0
    i = 0
    while i < len(text):
        ch = text[i]
        if ch == "[":
            count += 1
            while text[i] != "]":
                i += 1
        elif text[i:i + 2] in ("Cl", "Br"):
            count += 1
            i += 1
        elif ch in "BCNOPSFI" or ch in "bcnops":
            count += 1
        i += 1
    return count


def test_atom_count_matches_token_counter_oracle(rng):
    corpus = REAL_SMILES + [random_smiles(rng) for _ in range(200)]
    for smiles in corpus:
        graph = parse_smiles(smiles)
        assert len(graph.atoms) == _count_atom_tokens(smiles), smiles


# bond-order contribution to an atom's valence, written out apart from the parser's table
VALENCE_UNITS = {BondOrder.SINGLE: 1, BondOrder.DOUBLE: 2, BondOrder.TRIPLE: 3,
                 BondOrder.AROMATIC: 1.5}


def test_valence_sums_respect_standard_valences(rng):
    corpus = REAL_SMILES + [random_smiles(rng) for _ in range(200)]
    for smiles in corpus:
        if "[" in smiles:
            continue  # bracket atoms carry explicit hydrogens instead
        graph = parse_smiles(smiles)
        order_sum = [0.0] * len(graph.atoms)
        for bond in graph.bonds:
            order_sum[bond.a] += VALENCE_UNITS[bond.order]
            order_sum[bond.b] += VALENCE_UNITS[bond.order]
        for idx, atom in enumerate(graph.atoms):
            if atom.aromatic:
                continue
            used = math.ceil(order_sum[idx])
            allowed = DEFAULT_VALENCES[atom.atomic_number]
            if used <= max(allowed):
                assert used + graph.implicit_h[idx] in allowed, (smiles, idx)


def test_branches_and_bond_symbols():
    graph = parse_smiles("CC(=O)O")
    orders = sorted(b.order.name for b in graph.bonds)
    assert orders == ["DOUBLE", "SINGLE", "SINGLE"]
    assert graph.implicit_h == [3, 0, 0, 1]


def test_triple_bond_and_explicit_single():
    graph = parse_smiles("C#C-C")
    assert [b.order for b in graph.bonds] == [BondOrder.TRIPLE, BondOrder.SINGLE]
    assert graph.implicit_h == [1, 0, 3]


def test_bracket_atom_fields():
    graph = parse_smiles("[13CH3+]")
    atom = graph.atoms[0]
    assert atom.atomic_number == 6
    assert atom.isotope == 13
    assert atom.explicit_h == 3
    assert atom.formal_charge == 1
    assert graph.implicit_h == [0]


def test_bracket_charges():
    assert parse_smiles("[O-]").atoms[0].formal_charge == -1
    assert parse_smiles("[Fe+2]").atoms[0].formal_charge == 2
    assert parse_smiles("[Fe++]").atoms[0].formal_charge == 2
    assert parse_smiles("[N+3]").atoms[0].formal_charge == 3


def test_aromatic_bracket_nitrogen():
    graph = parse_smiles("c1c[nH]cn1")
    pyrrole_n = graph.atoms[2]
    assert pyrrole_n.aromatic
    assert pyrrole_n.explicit_h == 1
    assert all(graph.atom_in_ring)


def test_dot_separated_fragments_share_one_graph():
    graph = parse_smiles("CCO.CC(=O)O")
    assert len(graph.atoms) == 7
    assert len(graph.bonds) == 5


def test_stereo_markers_parsed_and_discarded():
    graph = parse_smiles("C/C=C/C")
    assert [b.order for b in graph.bonds] == [
        BondOrder.SINGLE, BondOrder.DOUBLE, BondOrder.SINGLE,
    ]
    chiral = parse_smiles("C[C@H](N)C(=O)O")
    assert chiral.atoms[1].explicit_h == 1


def test_two_digit_ring_closure():
    graph = parse_smiles("C%12CCCCC%12")
    assert len(graph.bonds) == 6
    assert all(graph.atom_in_ring)


@pytest.mark.parametrize("text, same_as", [
    ("C%101CC%10CC1", "C21CC2CC1"),
    ("C%10CC1CC%101", "C2CC1CC21"),
])
def test_percent_ring_number_is_two_digits_and_a_third_is_another_ring(text, same_as):
    graph = parse_smiles(text)
    assert graph == parse_smiles(same_as)
    assert len(graph.bonds) == 6
    assert all(graph.atom_in_ring)


def test_percent_needs_two_digits():
    for text in ("C%1CC%1", "C%"):
        with pytest.raises(SmilesParseError, match="'%' needs two digits") as err:
            parse_smiles(text)
        assert err.value.offset == 1


def test_ring_bond_order_from_either_closure_digit():
    for text in ("C=1CCCCC=1", "C=1CCCCC1", "C1CCCCC=1"):
        graph = parse_smiles(text)
        closure = graph.bonds[-1]
        assert closure.order is BondOrder.DOUBLE, text


def test_conflicting_ring_bond_symbols():
    with pytest.raises(SmilesParseError, match="ring closure bond symbols disagree"):
        parse_smiles("C=1CCCCC#1")


def test_unbalanced_parentheses():
    with pytest.raises(SmilesParseError, match="unclosed branch"):
        parse_smiles("C(C")
    with pytest.raises(SmilesParseError, match="unmatched closing parenthesis") as err:
        parse_smiles("CC)C")
    assert err.value.offset == 2


def test_unknown_element():
    with pytest.raises(SmilesParseError, match="unknown element 'Q'"):
        parse_smiles("Qx")
    with pytest.raises(SmilesParseError, match="unknown element 'Z'"):
        parse_smiles("[Zz]")


def test_invalid_charge():
    with pytest.raises(SmilesParseError, match="repeated signs followed by digits"):
        parse_smiles("[C++2]")
    with pytest.raises(SmilesParseError, match="charge magnitude 99 out of range"):
        parse_smiles("[C+99]")
    with pytest.raises(SmilesParseError, match="charge magnitude of 5000 digits") as err:
        parse_smiles("[C+" + "1" * 5000 + "]")
    assert err.value.offset == 3
    assert parse_smiles("[C+" + "0" * 5000 + "15]").atoms[0].formal_charge == 15


@pytest.mark.parametrize("text, message, offset", [
    ("[70000C]", "isotope 70000 out of range", 1),
    ("CC[65536CH3]", "isotope 65536 out of range", 3),
    ("[CH70000]", "hydrogen count 70000 out of range", 3),
    ("C[13CH65536+]", "hydrogen count 65536 out of range", 6),
    # more digits than int() converts: a parse error at the number, not a ValueError
    pytest.param("[" + "1" * 5000 + "C]", "isotope of 5000 digits out of range", 1,
                 id="isotope-of-5000-digits"),
    pytest.param("[CH" + "1" * 5000 + "]", "hydrogen count of 5000 digits out of range", 3,
                 id="hydrogen-count-of-5000-digits"),
])
def test_isotope_and_hydrogen_count_fit_sixteen_bits(text, message, offset):
    with pytest.raises(SmilesParseError, match=message) as err:
        parse_smiles(text)
    assert err.value.offset == offset
    atom = parse_smiles("[65535CH65535]").atoms[0]
    assert (atom.isotope, atom.explicit_h) == (65535, 65535)


def test_empty_input_rejected():
    with pytest.raises(SmilesParseError):
        parse_smiles("")


def test_atomless_input_rejected():
    # fragment separators alone parse cleanly but name no molecule to fingerprint
    for text in (".", ".."):
        with pytest.raises(SmilesParseError) as caught:
            parse_smiles(text)
        assert caught.value.offset == 0


def test_duplicate_and_self_ring_bonds_rejected():
    with pytest.raises(SmilesParseError, match="ring bond closes onto its own atom"):
        parse_smiles("C11")
    with pytest.raises(SmilesParseError, match="duplicate bond between atoms"):
        parse_smiles("C12CC12")


@given(st.text(max_size=40))
def test_parser_never_panics(text):
    try:
        graph = parse_smiles(text)
    except SmilesParseError:
        return
    assert isinstance(graph, MolecularGraph)
    assert len(graph.implicit_h) == len(graph.atoms)


@given(st.binary(max_size=30))
def test_parser_never_panics_on_bytes(blob):
    try:
        text = blob.decode("utf-8", errors="surrogateescape")
        graph = parse_smiles(text)
    except SmilesParseError:
        return
    assert isinstance(graph, MolecularGraph)
