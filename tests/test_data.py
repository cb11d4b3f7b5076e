import re
from concurrent.futures import ProcessPoolExecutor
from functools import partial

import numpy as np
import pytest

from qsarbench.data import (
    _CHUNKS_PER_WORKER,
    SCHEMA_PRESETS,
    Dataset,
    DatasetSchema,
    SplitPlan,
    load_dataset,
    load_embeddings,
    make_split,
    subsample_fraction,
    undersample,
)
from qsarbench.errors import ConfigError, DataError

from qsarbench.fingerprint import morgan_fingerprint
from qsarbench.harness import _morgan_bits
from qsarbench.smiles import parse_smiles

from conftest import write_dataset_csv, write_embeddings_csv


def small_dataset(labels=(1, 1, 1, 0), with_features=False):
    n = len(labels)
    return Dataset(
        ids=[f"m{i}" for i in range(n)],
        smiles=["C"] * n,
        labels=np.array(labels),
        features=np.arange(n * 4, dtype=float).reshape(n, 4) if with_features else None,
    )


def test_load_dataset_counts_and_schema(tmp_path):
    path = write_dataset_csv(tmp_path / "d.csv", ["CCO", "c1ccccc1", "CC"], [1, 0, 1])
    data = load_dataset(str(path), SCHEMA_PRESETS["bace"])
    assert len(data) == 3
    assert data.skipped_rows == 0
    assert data.labels.tolist() == [1, 0, 1]
    assert data.ids == ["0", "1", "2"]


def test_load_dataset_skips_unparseable_smiles(tmp_path):
    path = write_dataset_csv(tmp_path / "d.csv", ["CCO", "C1CC", "not smiles", "CC"], [1, 0, 1, 0])
    data = load_dataset(str(path), SCHEMA_PRESETS["bace"])
    assert len(data) == 2
    assert data.skipped_rows == 2
    assert data.skipped_ids == ("1", "2")
    assert data.smiles == ["CCO", "CC"]


def test_load_dataset_featurize_gives_one_row_per_kept_smiles(tmp_path):
    kept = ["CCO", "c1ccccc1", "CC(=O)O"]
    path = write_dataset_csv(tmp_path / "d.csv", ["CCO", "C1CC", "c1ccccc1", "CC(=O)O"], [1, 0, 1, 0])
    data = load_dataset(str(path), SCHEMA_PRESETS["bace"],
                        lambda graph: morgan_fingerprint(graph, 2, 64).as_bit_array())
    assert data.skipped_ids == ("1",)
    assert data.smiles == kept
    assert data.features.dtype == np.uint8
    expected = np.array([morgan_fingerprint(parse_smiles(s), 2, 64).as_bit_array() for s in kept])
    np.testing.assert_array_equal(data.features, expected)
    assert load_dataset(str(path), SCHEMA_PRESETS["bace"]).features is None


def test_pooled_load_matches_serial(tmp_path):
    chunks = _CHUNKS_PER_WORKER * 2
    good = ["CCO", "c1ccccc1", "CC(=O)O", "C#N", "CC(C)C"]
    bad = ["C1CC", "", "not smiles", "[" + "1" * 5000 + "C]"]  # malformed, empty cell, huge
    featurizers = (None, partial(_morgan_bits, radius=2, nbits=512))
    with ProcessPoolExecutor(max_workers=2) as pool:
        # one row; fewer rows than chunks; a count no multiple of the chunk
        # count, whose second chunk holds only rows that do not parse
        for rows in (1, chunks - 3, 3 * chunks + 5):
            size = -(-rows // chunks)
            smiles = [bad[i % len(bad)] if size <= i < 2 * size or i % 3 == 2
                      else good[i % len(good)] for i in range(rows)]
            path = write_dataset_csv(tmp_path / f"d{rows}.csv", smiles, [i % 2 for i in range(rows)])
            for featurize in featurizers:
                serial = load_dataset(str(path), SCHEMA_PRESETS["bace"], featurize)
                pooled = load_dataset(str(path), SCHEMA_PRESETS["bace"], featurize, pool)
                assert pooled.ids == serial.ids
                assert pooled.smiles == serial.smiles
                assert pooled.skipped_ids == serial.skipped_ids
                np.testing.assert_array_equal(pooled.labels, serial.labels)
                if featurize is None:
                    assert pooled.features is None and serial.features is None
                else:
                    assert pooled.features.dtype == serial.features.dtype == np.uint8
                    assert pooled.features.shape == serial.features.shape
                    assert pooled.features.tobytes() == serial.features.tobytes()
            assert len(serial) + serial.skipped_rows == rows
            assert serial.skipped_rows > 0 or rows == 1


def test_load_dataset_missing_column(tmp_path):
    path = write_dataset_csv(tmp_path / "d.csv", ["C"], [1], smiles_col="smiles", label_col="p_np")
    with pytest.raises(DataError, match="lacks column 'mol'"):
        load_dataset(str(path), SCHEMA_PRESETS["bace"])


def test_load_dataset_non_binary_label(tmp_path):
    # the message starts with the file and the row
    for label, named in (("2", "label '2' is not 0 or 1"), ("yes", "label 'yes' is not numeric")):
        path = write_dataset_csv(tmp_path / "d.csv", ["C", "CC"], ["1", label])
        with pytest.raises(DataError, match=f"^{re.escape(str(path))} row 1: {named}$"):
            load_dataset(str(path), SCHEMA_PRESETS["bace"])


def test_load_dataset_float_labels_coerced(tmp_path):
    path = write_dataset_csv(tmp_path / "d.csv", ["C", "CC"], ["1.0", "0.0"])
    data = load_dataset(str(path), SCHEMA_PRESETS["bace"])
    assert data.labels.tolist() == [1, 0]


def test_load_dataset_unreadable():
    with pytest.raises(DataError, match="cannot open /nonexistent/nowhere.csv"):
        load_dataset("/nonexistent/nowhere.csv", SCHEMA_PRESETS["bace"])


def test_custom_schema_with_id_column(tmp_path):
    path = tmp_path / "d.csv"
    path.write_text("key,structure,active\nk1,CCO,1\nk2,CC,0\n", encoding="utf-8")
    schema = DatasetSchema(smiles_col="structure", label_col="active")
    data = load_dataset(str(path), schema)
    assert data.ids == ["0", "1"]  # ids are row numbers, whatever the other columns hold


def test_load_embeddings_alignment(tmp_path, rng):
    ids = ["a", "b", "c"]
    matrix = rng.normal(size=(3, 512))
    path = write_embeddings_csv(tmp_path / "e.csv", ["b", "c", "a"], matrix)
    out = load_embeddings(str(path), ids)
    assert out.shape == (3, 512)
    np.testing.assert_allclose(out[0], matrix[2])  # id "a" was the file's last row
    np.testing.assert_allclose(out[1], matrix[0])


def test_load_embeddings_dimension_mismatch(tmp_path, rng):
    path = write_embeddings_csv(tmp_path / "e.csv", ["a"], rng.normal(size=(1, 511)))
    with pytest.raises(DataError, match="expected 512 embedding columns, got 511"):
        load_embeddings(str(path), ["a"])


def test_load_embeddings_unknown_and_missing_ids(tmp_path, rng):
    matrix = rng.normal(size=(2, 512))
    path = write_embeddings_csv(tmp_path / "e.csv", ["a", "zz"], matrix)
    with pytest.raises(DataError, match=r"ids not present in dataset: \['zz'\]"):
        load_embeddings(str(path), ["a", "b"])
    path2 = write_embeddings_csv(tmp_path / "e2.csv", ["a"], matrix[:1])
    with pytest.raises(DataError, match="dataset id 'b' missing from embeddings"):
        load_embeddings(str(path2), ["a", "b"])
    # the row of a skipped id is ignored, but every other extra or missing id still raises
    np.testing.assert_array_equal(load_embeddings(str(path), ["a"], skipped_ids=("zz",)), matrix[:1])
    with pytest.raises(DataError, match=r"ids not present in dataset: \['zz'\]"):
        load_embeddings(str(path), ["a"], skipped_ids=("yy",))
    with pytest.raises(DataError, match="dataset id 'b' missing from embeddings"):
        load_embeddings(str(path), ["a", "b"], skipped_ids=("zz",))


def test_load_embeddings_non_finite_rejected(tmp_path, rng):
    for bad in (np.nan, np.inf):
        matrix = rng.normal(size=(2, 512))
        matrix[1, 7] = bad
        path = write_embeddings_csv(tmp_path / f"e-{bad}.csv", ["a", "b"], matrix)
        with pytest.raises(DataError, match="'b'"):
            load_embeddings(str(path), ["a", "b"])


def test_load_embeddings_duplicate_id_rejected(tmp_path, rng):
    path = write_embeddings_csv(tmp_path / "e.csv", ["a", "b", "a"], rng.normal(size=(3, 512)))
    with pytest.raises(DataError, match=r"e\.csv: duplicate id 'a'"):
        load_embeddings(str(path), ["a", "b"])


def test_load_embeddings_non_numeric_value_rejected(tmp_path, rng):
    path = write_embeddings_csv(tmp_path / "e.csv", ["a", "b"], rng.normal(size=(2, 512)))
    lines = path.read_text(encoding="utf-8").splitlines()
    lines[2] = lines[2].replace(",", ",x", 1)  # id b's first value becomes "x<number>"
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    with pytest.raises(DataError, match="non-numeric embedding for id 'b'"):
        load_embeddings(str(path), ["a", "b"])


def test_undersample_forced_reduction():
    data = small_dataset((1, 1, 1, 0))
    balanced = undersample(data, seed=3)
    assert len(balanced) == 2
    assert sorted(balanced.labels.tolist()) == [0, 1]


def test_undersample_balanced_input_unchanged():
    data = small_dataset((1, 0, 1, 0))
    out = undersample(data, seed=9)
    assert out.ids == data.ids
    assert out.labels.tolist() == data.labels.tolist()


def test_undersample_deterministic_and_duplicate_free():
    labels = [1] * 100 + [0] * 10
    data = small_dataset(tuple(labels))
    first = undersample(data, seed=123)
    second = undersample(data, seed=123)
    assert len(first) == 20
    assert first.ids == second.ids
    assert len(set(first.ids)) == 20
    third = undersample(data, seed=124)
    assert third.ids != first.ids  # overwhelmingly likely with 100 choose 10


def test_undersample_single_class():
    with pytest.raises(DataError, match="undersampling needs both classes present"):
        undersample(small_dataset((1, 1, 1)), seed=0)


def test_make_split_arithmetic():
    data = small_dataset((1, 0) * 5)
    plan = make_split(data, seed=5)
    assert plan.train_indices.size == 8
    assert plan.test_indices.size == 2


def test_split_with_an_empty_side_rejected():
    with pytest.raises(DataError, match="2 train and 0 test rows"):
        make_split(small_dataset((1, 0)), seed=0)
    with pytest.raises(DataError, match="0 train and 3 test rows"):
        SplitPlan(train_indices=np.array([], dtype=np.int64), test_indices=np.arange(3))


def test_split_disjoint_and_covering_for_many_seeds():
    data = small_dataset((1, 0) * 13)
    for seed in range(50):
        plan = make_split(data, seed=seed)
        union = np.union1d(plan.train_indices, plan.test_indices)
        assert union.tolist() == list(range(26))
        assert np.intersect1d(plan.train_indices, plan.test_indices).size == 0


def test_split_deterministic():
    data = small_dataset((1, 0) * 10)
    a = make_split(data, seed=77)
    b = make_split(data, seed=77)
    assert a.train_indices.tolist() == b.train_indices.tolist()


def test_subsample_identity_fraction():
    data = small_dataset((1, 0) * 10)
    plan = make_split(data, seed=1)
    same = subsample_fraction(plan, 1.0, seed=2)
    assert same.train_indices.tolist() == plan.train_indices.tolist()
    assert same.test_indices.tolist() == plan.test_indices.tolist()


def test_subsample_is_subset():
    labels = tuple(int(i % 2) for i in range(125))
    data = small_dataset(labels)
    plan = make_split(data, seed=4)
    sub = subsample_fraction(plan, 0.3, seed=6)
    assert sub.train_indices.size == 30
    assert set(sub.train_indices.tolist()) <= set(plan.train_indices.tolist())
    assert sub.test_indices.tolist() == plan.test_indices.tolist()


def test_subsample_zero_rows_rejected():
    data = small_dataset((1, 0, 1, 0, 1, 0, 1, 0, 1, 0))
    plan = make_split(data, seed=1)
    with pytest.raises(DataError, match="fraction 0.01 of 8 rows rounds to zero"):
        subsample_fraction(plan, 0.01, seed=0)


def test_subsample_fraction_out_of_range():
    data = small_dataset((1, 0, 1, 0))
    plan = make_split(data, seed=1)
    with pytest.raises(ConfigError):
        subsample_fraction(plan, 1.5, seed=0)
    with pytest.raises(ConfigError):
        subsample_fraction(plan, 0.0, seed=0)


def test_take_keeps_alignment():
    data = small_dataset((1, 0, 1, 0), with_features=True)
    sub = data.take(np.array([2, 3]))
    assert sub.ids == ["m2", "m3"]
    assert sub.labels.tolist() == [1, 0]
    np.testing.assert_allclose(sub.features, data.features[2:])


# --- real MoleculeNet files, exercised only when present -------------------------

def _load_real(name):
    from conftest import moleculenet_path
    path = moleculenet_path(name)
    if path is None:
        pytest.skip(f"{name} CSV not available (no network in this environment)")
    return load_dataset(str(path), SCHEMA_PRESETS[name])


def test_real_bace_row_count():
    data = _load_real("bace")
    assert len(data) + data.skipped_rows == 1522


def test_real_bbbp_row_count():
    data = _load_real("bbbp")
    assert len(data) + data.skipped_rows == 2053


def test_real_hiv_row_count():
    data = _load_real("hiv")
    total = len(data) + data.skipped_rows
    assert 39000 <= total <= 42000  # "~40000 compounds"
