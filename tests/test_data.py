import csv
import re
import warnings
from concurrent.futures import Executor, Future, ProcessPoolExecutor
from functools import partial

import numpy as np
import pytest

from qsarbench.data import (
    FEATURIZE_BATCH,
    SCHEMA_PRESETS,
    Dataset,
    DatasetSchema,
    SplitPlan,
    load_dataset,
    load_embeddings,
    make_split,
    open_input,
    parse_floats,
    subsample_fraction,
    undersample,
)
from qsarbench.errors import ConfigError, DataError

from qsarbench.fingerprint import morgan_fingerprints
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
                        lambda graphs: morgan_fingerprints(graphs, 2, 64))
    assert data.skipped_ids == ("1",)
    assert data.smiles == kept
    assert data.features.dtype == np.uint8
    expected = morgan_fingerprints([parse_smiles(s) for s in kept], 2, 64)
    np.testing.assert_array_equal(data.features, expected)
    assert load_dataset(str(path), SCHEMA_PRESETS["bace"]).features is None


def assert_same_dataset(got, expected):
    assert got.ids == expected.ids
    assert got.smiles == expected.smiles
    assert got.skipped_ids == expected.skipped_ids
    np.testing.assert_array_equal(got.labels, expected.labels)
    if expected.features is None:
        assert got.features is None
    else:
        assert got.features.dtype == expected.features.dtype
        assert got.features.shape == expected.features.shape
        assert got.features.tobytes() == expected.features.tobytes()


def test_pooled_load_matches_serial(tmp_path):
    good = ["CCO", "c1ccccc1", "CC(=O)O", "C#N", "CC(C)C"]
    bad = ["C1CC", "", "not smiles", "[" + "1" * 5000 + "C]"]  # malformed, empty cell, huge
    featurizers = (None, partial(_morgan_bits, radius=2, nbits=512))
    with ProcessPoolExecutor(max_workers=2) as pool:
        # one row; fewer rows than one slice; three slices and 5 rows, whose
        # second slice holds only rows that do not parse; no row that parses
        for rows, unparsed in ((1, ()), (FEATURIZE_BATCH - 3, ()),
                               (3 * FEATURIZE_BATCH + 5, range(FEATURIZE_BATCH, 2 * FEATURIZE_BATCH)),
                               (7, range(7))):
            smiles = [bad[i % len(bad)] if i in unparsed or i % 3 == 2 else good[i % len(good)]
                      for i in range(rows)]
            path = write_dataset_csv(tmp_path / f"d{rows}.csv", smiles, [i % 2 for i in range(rows)])
            for featurize in featurizers:
                serial = load_dataset(str(path), SCHEMA_PRESETS["bace"], featurize)
                pooled = load_dataset(str(path), SCHEMA_PRESETS["bace"], featurize, pool)
                assert_same_dataset(pooled, serial)
                if featurize is not None:   # a (rows, bits) uint8 matrix, even with no rows
                    assert serial.features.shape == (len(serial), 512)
                    assert serial.features.dtype == np.uint8
            assert len(serial) + serial.skipped_rows == rows
            assert serial.skipped_rows > 0 or rows == 1
            assert len(serial) > 0 or len(unparsed) == rows


class SubmitOnlyExecutor(Executor):
    """An executor that implements only `submit`, running each call at once."""

    def submit(self, fn, /, *args, **kwargs):
        future = Future()
        future.set_result(fn(*args, **kwargs))
        return future


def test_load_dataset_on_an_executor_without_a_worker_count(tmp_path):
    smiles = ["CCO", "C1CC", "c1ccccc1", "CC(=O)O"] * FEATURIZE_BATCH
    path = write_dataset_csv(tmp_path / "d.csv", smiles, [i % 2 for i in range(len(smiles))])
    featurize = partial(_morgan_bits, radius=2, nbits=512)
    assert_same_dataset(load_dataset(str(path), SCHEMA_PRESETS["bace"], featurize,
                                     SubmitOnlyExecutor()),
                        load_dataset(str(path), SCHEMA_PRESETS["bace"], featurize))


def test_load_dataset_missing_column(tmp_path):
    path = write_dataset_csv(tmp_path / "d.csv", ["C"], [1], smiles_col="smiles", label_col="p_np")
    with pytest.raises(DataError, match="lacks column 'mol'"):
        load_dataset(str(path), SCHEMA_PRESETS["bace"])


def test_empty_files_have_no_header_row(tmp_path):
    path = tmp_path / "empty.csv"
    path.write_text("")
    message = f"^{re.escape(str(path))} has no header row$"
    with pytest.raises(DataError, match=message):
        load_dataset(str(path), SCHEMA_PRESETS["bace"])
    with pytest.raises(DataError, match=message):
        load_embeddings(str(path), ["a"])


def test_load_dataset_non_binary_label(tmp_path):
    # the message starts with the file and the row
    for label, named in (("2", "label '2' is not 0 or 1"), ("yes", "label 'yes' is not numeric")):
        path = write_dataset_csv(tmp_path / "d.csv", ["C", "CC"], ["1", label])
        with pytest.raises(DataError, match=f"^{re.escape(str(path))} row 1: {named}$"):
            load_dataset(str(path), SCHEMA_PRESETS["bace"])


@pytest.mark.parametrize("label", ["1_0", "0_0", "\u0663", "\u0660"])
def test_load_dataset_label_in_another_number_syntax_rejected(tmp_path, label):
    # float() reads '1_0' as 10, '0_0' as 0 and the Arabic-Indic digits as 3 and 0
    path = write_dataset_csv(tmp_path / "d.csv", ["C", "CC"], ["1", label])
    with pytest.raises(DataError, match=f"^{re.escape(str(path))} row 1: label "
                                        f"{re.escape(repr(label))} is not numeric$"):
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
    # a data row one value short under a good header
    header, row = write_embeddings_csv(tmp_path / "e.csv", ["a"],
                                       rng.normal(size=(1, 512))).read_text().splitlines()
    path.write_text(f"{header}\n{row.rsplit(',', 1)[0]}\n")
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
        with pytest.raises(DataError, match=f"^{re.escape(str(path))}: non-finite embedding "
                                            "value for id 'b'$"):
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
    with pytest.raises(DataError, match=f"^{re.escape(str(path))}: non-numeric embedding "
                                        "for id 'b'$"):
        load_embeddings(str(path), ["a", "b"])


@pytest.mark.parametrize("value", ["1_0", "\u0663"])
def test_load_embeddings_value_in_another_number_syntax_rejected(tmp_path, rng, value):
    path = write_embeddings_csv(tmp_path / "e.csv", ["a", "b"], rng.normal(size=(2, 512)))
    lines = path.read_text(encoding="utf-8").splitlines()
    first = "b," + value + lines[2][lines[2].index(",", 2):]   # id b's first value
    last = lines[2][:lines[2].rindex(",") + 1] + value         # and its last
    for row in (first, last):
        path.write_text("\n".join(lines[:2] + [row]) + "\n", encoding="utf-8")
        with pytest.raises(DataError, match=f"^{re.escape(str(path))}: non-numeric embedding "
                                            "for id 'b'$"):
            load_embeddings(str(path), ["a", "b"])


def test_load_embeddings_skips_blank_lines(tmp_path, rng):
    matrix = rng.normal(size=(3, 512))
    path = write_embeddings_csv(tmp_path / "e.csv", ["a", "b", "c"], matrix)
    lines = path.read_text(encoding="utf-8").splitlines()
    # an interior blank line after the header and after row a, and a trailing one
    path.write_text("\n".join([lines[0], "", lines[1], "", lines[2], lines[3], ""]) + "\n",
                    encoding="utf-8")
    np.testing.assert_array_equal(load_embeddings(str(path), ["a", "b", "c"]), matrix)


def rowwise_embeddings(path, ids, skipped_ids=()):
    """The row-wise `load_embeddings` that read every file before numpy's text
    reader took over valid ones: the reference for its bits and messages."""
    rows = {}
    with open_input(path) as handle:
        reader = filter(None, csv.reader(handle))
        header = next(reader, None)
        if header is None:
            raise DataError(f"{path} has no header row")
        if len(header) - 1 != 512:
            raise DataError(f"{path}: expected 512 embedding columns, got {len(header) - 1}")
        for row in reader:
            if len(row) - 1 != 512:
                raise DataError(f"{path}: expected 512 embedding columns, got {len(row) - 1}")
            key = row[0]
            if key in rows:
                raise DataError(f"{path}: duplicate id {key!r}")
            try:
                rows[key] = parse_floats(row[1:])
            except ValueError as exc:
                raise DataError(f"{path}: non-numeric embedding for id {key!r}") from exc
            if not np.isfinite(rows[key]).all():
                raise DataError(f"{path}: non-finite embedding value for id {key!r}")
    extra = set(rows) - set(ids) - set(skipped_ids)
    if extra:
        raise DataError(f"{path}: ids not present in dataset: {sorted(extra)[:5]}")
    out = np.empty((len(ids), 512), dtype=np.float64)
    for i, key in enumerate(ids):
        if key not in rows:
            raise DataError(f"{path}: dataset id {key!r} missing from embeddings")
        out[i] = rows[key]
    return out


def _set_cell(line, column, text):
    """`line` with its value cell `column` (0 is e0) replaced by `text`."""
    cells = line.split(",")
    cells[column + 1] = text
    return ",".join(cells)


ABC = ["a", "b", "c"]
QUOTED = '"1.5"'
EM_SPACED = "\u20031.5"   # float reads it as 1.5; the rule rejects it
# (name, the file's text from its header and rows a, b and c, the dataset ids,
# the skipped ids)
EMBEDDING_EDGE_CASES = [
    ("in-order", lambda h, a, b, c: f"{h}\n{a}\n{b}\n{c}\n", ABC, ()),
    ("out-of-order", lambda h, a, b, c: f"{h}\n{c}\n{a}\n{b}\n", ABC, ()),
    ("one-row", lambda h, a, b, c: f"{h}\n{b}\n", ["b"], ()),
    ("crlf", lambda h, a, b, c: f"{h}\r\n{a}\r\n{b}\r\n{c}\r\n", ABC, ()),
    ("cr", lambda h, a, b, c: f"{h}\r{a}\r{b}\r{c}\r", ABC, ()),
    ("no-final-line-end", lambda h, a, b, c: f"{h}\n{a}\n{b}\n{c}", ABC, ()),
    ("quoted-id", lambda h, a, b, c: f'{h}\n"a"{a[1:]}\n{b}\n{c}\n', ABC, ()),
    ("quoted-id-with-comma", lambda h, a, b, c: f'{h}\n{a}\n"b,x"{b[1:]}\n{c}\n',
     ["a", "b,x", "c"], ()),
    ("quoted-value", lambda h, a, b, c: f"{h}\n{a}\n{_set_cell(b, 3, QUOTED)}\n{c}\n", ABC, ()),
    ("blank-lines", lambda h, a, b, c: f"\n{h}\n\n{a}\r\n\r\n{b}\n{c}\n\n", ABC, ()),
    ("whitespace-line", lambda h, a, b, c: f"{h}\n{a}\n  \n{b}\n{c}\n", ABC, ()),
    ("tab-line", lambda h, a, b, c: f"{h}\n{a}\n{b}\n\t\n{c}\n", ABC, ()),
    ("trailing-comma", lambda h, a, b, c: f"{h}\n{a}\n{b},\n{c}\n", ABC, ()),
    ("trailing-comma-everywhere", lambda h, a, b, c: f"{h},\n{a},\n{b},\n{c},\n", ABC, ()),
    ("id-without-values", lambda h, a, b, c: f"{h}\n{a}\nb,\n{c}\n", ABC, ()),
    ("short-header", lambda h, a, b, c: f"{h.rsplit(',', 1)[0]}\n{a}\n{b}\n{c}\n", ABC, ()),
    ("underscore", lambda h, a, b, c: f"{h}\n{a}\n{_set_cell(b, 0, '1_0')}\n{c}\n", ABC, ()),
    ("underscore-in-ids", lambda h, a, b, c: f"{h}\nid_a{a[1:]}\n{b}\n{c}\n",
     ["id_a", "b", "c"], ()),
    ("non-ascii-digit", lambda h, a, b, c: f"{h}\n{a}\n{b}\n{_set_cell(c, 511, chr(0x663))}\n",
     ABC, ()),
    ("non-ascii-space", lambda h, a, b, c: f"{h}\n{a}\n{_set_cell(b, 7, EM_SPACED)}\n{c}\n",
     ABC, ()),
    ("control-space", lambda h, a, b, c: f"{h}\n{a}\n{_set_cell(b, 7, chr(0x1C) + '1.5')}\n{c}\n",
     ABC, ()),
    ("tab-before-value", lambda h, a, b, c: f"{h}\n{a}\n{_set_cell(b, 7, chr(9) + '1.5')}\n{c}\n",
     ABC, ()),
    ("spaces-around-value", lambda h, a, b, c: f"{h}\n{_set_cell(a, 2, ' -1.5e3 ')}\n{b}\n{c}\n",
     ABC, ()),
    ("number-syntaxes", lambda h, a, b, c: "\n".join(
        [h, a, b, ",".join(["c", "+1.5", "-.5", "5.", "1E+05", "4.9e-324",
                            "2.2250738585072011e-308",
                            "0.1000000000000000055511151231257827021181583404541015625",
                            "123456789012345678901234567890", "-0", "1e-400"]
                           + c.split(",")[11:])]) + "\n", ABC, ()),
    ("non-ascii-id", lambda h, a, b, c: f"{h}\né{a[1:]}\n{b}\n{c}\n", ["é", "b", "c"], ()),
    ("nul", lambda h, a, b, c: f"{h}\n{a}\n{_set_cell(b, 4, '1' + chr(0))}\n{c}\n", ABC, ()),
    ("nan", lambda h, a, b, c: f"{h}\n{a}\n{_set_cell(b, 4, 'nan')}\n{c}\n", ABC, ()),
    ("inf", lambda h, a, b, c: f"{h}\n{a}\n{b}\n{_set_cell(c, 0, '-Infinity')}\n", ABC, ()),
    ("overflow", lambda h, a, b, c: f"{h}\n{_set_cell(a, 9, '1e999')}\n{b}\n{c}\n", ABC, ()),
    ("empty-cell", lambda h, a, b, c: f"{h}\n{a}\n{_set_cell(b, 100, '')}\n{c}\n", ABC, ()),
    ("hex", lambda h, a, b, c: f"{h}\n{a}\n{_set_cell(b, 1, '0x10')}\n{c}\n", ABC, ()),
    ("duplicate", lambda h, a, b, c: f"{h}\n{a}\n{b}\n{a}\n{c}\n", ABC, ()),
    ("duplicate-before-bad-cell", lambda h, a, b, c:
     f"{h}\n{a}\n{a}\n{_set_cell(b, 0, 'x')}\n{c}\n", ABC, ()),
    ("bad-cell-before-duplicate", lambda h, a, b, c:
     f"{h}\n{a}\n{_set_cell(b, 0, 'x')}\n{a}\n{c}\n", ABC, ()),
    ("non-finite-before-missing", lambda h, a, b, c: f"{h}\n{a}\n{_set_cell(b, 0, 'inf')}\n",
     ABC, ()),
    ("extra", lambda h, a, b, c: f"{h}\n{a}\n{b}\n{c}\n", ["a", "b"], ()),
    ("missing", lambda h, a, b, c: f"{h}\n{a}\n{b}\n{c}\n", ABC + ["d"], ()),
    ("skipped", lambda h, a, b, c: f"{h}\n{a}\n{b}\n{c}\n", ["a", "c"], ("b",)),
    ("skipped-out-of-order", lambda h, a, b, c: f"{h}\n{c}\n{b}\n{a}\n", ["a", "c"], ("b", "z")),
    ("skipped-and-extra", lambda h, a, b, c: f"{h}\n{a}\n{b}\n{c}\n", ["a", "c"], ("z",)),
    ("skipped-and-missing", lambda h, a, b, c: f"{h}\n{a}\n{b}\n", ["a", "c"], ("b",)),
    ("header-only", lambda h, a, b, c: f"{h}\n", [], ()),
    ("header-only-with-ids", lambda h, a, b, c: f"{h}\n\n", ["a"], ()),
    ("empty-file", lambda h, a, b, c: "", ABC, ()),
    ("blank-file", lambda h, a, b, c: "\n\r\n", ABC, ()),
]


@pytest.mark.parametrize("build, ids, skipped", [case[1:] for case in EMBEDDING_EDGE_CASES],
                         ids=[case[0] for case in EMBEDDING_EDGE_CASES])
def test_load_embeddings_edge_cases_match_the_rowwise_reader(tmp_path, build, ids, skipped):
    matrix = np.random.default_rng(8).normal(size=(3, 512))
    lines = write_embeddings_csv(tmp_path / "rows.csv", ABC, matrix).read_text().splitlines()
    path = tmp_path / "e.csv"
    path.write_bytes(build(*lines).encode("utf-8"))
    outcomes = []
    for read in (rowwise_embeddings, load_embeddings):
        with warnings.catch_warnings():
            warnings.simplefilter("error")   # no numpy warning reaches the caller
            try:
                out = read(str(path), list(ids), skipped)
            except DataError as exc:
                outcomes.append(("error", str(exc)))
            else:
                outcomes.append((out.dtype, out.shape, out.tobytes()))
    assert outcomes[0] == outcomes[1]


@pytest.mark.parametrize("bad_row, named", [(None, "is not valid UTF-8"),
                                             (1, "non-finite embedding value for id 'a'")])
def test_load_embeddings_invalid_utf8_matches_the_rowwise_reader(tmp_path, rng, bad_row, named):
    path = write_embeddings_csv(tmp_path / "e.csv", ABC, rng.normal(size=(3, 512)))
    lines = path.read_text().splitlines()
    if bad_row is not None:
        lines[bad_row] = _set_cell(lines[bad_row], 0, "nan")
    text = ("\n".join(lines) + "\n").encode()
    path.write_bytes(text[:-20] + b"\xff" + text[-19:])   # a bad byte in the last row
    messages = []
    for read in (rowwise_embeddings, load_embeddings):
        with pytest.raises(DataError) as caught:
            read(str(path), ABC)
        messages.append(str(caught.value))
    assert messages[0] == messages[1]
    assert named in messages[0]


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


def test_bad_labels_and_overlaps_are_named_as_the_set_operations_name_them():
    # the checks compare plainly (np.unique would import numpy.ma); the bad
    # labels are named as plain numbers, sorted, and the overlap as
    # np.intersect1d names it
    labels = np.array([1, 7, 0, 2, 7, -1])
    with pytest.raises(DataError, match=f"^{re.escape('labels outside {0,1}: [-1, 2, 7]')}$"):
        Dataset(ids=list("abcdef"), smiles=["C"] * 6, labels=labels)
    train = np.array([9, 3, 3, 7, 1, 5, 11, 20])
    for test in ([11, 3, 5, 1, 7, 9, 0, 9], [20, 4], [4, 21, 2]):
        common = np.intersect1d(train, test)
        if not common.size:
            SplitPlan(train_indices=np.unique(train), test_indices=np.array(test))
            continue
        expected = f"train/test overlap at indices {common[:5]}"
        with pytest.raises(DataError, match=f"^{re.escape(expected)}$"):
            SplitPlan(train_indices=train, test_indices=np.array(test))


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
