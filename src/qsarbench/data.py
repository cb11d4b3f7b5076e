"""Dataset loading, class balancing and seeded train/test splitting.

Loaders accept MoleculeNet-style CSVs (header row, UTF-8).  Rows whose
SMILES cannot be parsed are skipped with a logged count; their ids are
carried on the dataset and their count is surfaced in every experiment
report, so the effective dataset size is always visible.

A split plan is just its two sorted index arrays.  Every plan builder
(`make_split`, `subsample_fraction`, `clustering.cluster_training_plan`)
returns one, and its checks reject overlapping, duplicated or empty sides
before any PCA fit or training starts.  The random split always trains on
`TRAIN_FRACTION` of the rows, the published 80/20 protocol.

Tables of numbers, the imgmol embeddings and the `pca` command's matrix, are
read by `read_table`.  Numpy's C text reader parses them a line at a time,
straight into one float64 matrix.  It converts a cell as `float` does, but it
strips more white space, so `parse_floats`' rule is checked on each line's
text as a whole before numpy sees it, which costs far less than a check per
cell.  A table that check, the csv quoting or a rule turns away is read again
row by row, and that reader names the first bad row.
"""

from __future__ import annotations

import csv
import itertools
import logging
import math
from collections.abc import Callable, Iterator
from concurrent.futures import Executor
from contextlib import contextmanager
from dataclasses import dataclass
from typing import TextIO

import numpy as np

from .errors import ConfigError, DataError, SmilesParseError
from .rng import generator
from .smiles import MolecularGraph, parse_smiles

__all__ = [
    "Dataset",
    "DatasetSchema",
    "SplitPlan",
    "SCHEMA_PRESETS",
    "UNDERSAMPLE_BY_DATASET",
    "load_dataset",
    "load_embeddings",
    "undersample",
    "make_split",
    "subsample_fraction",
]

logger = logging.getLogger(__name__)

EMBEDDING_DIM = 512
TRAIN_FRACTION = 0.8
# SMILES per ingest slice and so graphs per featurizer call: enough for a batch
# to share its work, few enough that the graphs held at once cost little memory
FEATURIZE_BATCH = 128


@dataclass(frozen=True)
class DatasetSchema:
    smiles_col: str
    label_col: str


SCHEMA_PRESETS: dict[str, DatasetSchema] = {
    "bace": DatasetSchema(smiles_col="mol", label_col="Class"),
    "bbbp": DatasetSchema(smiles_col="smiles", label_col="p_np"),
    "hiv": DatasetSchema(smiles_col="smiles", label_col="HIV_active"),
}

# Class balancing is applied where the source data is strongly imbalanced.
UNDERSAMPLE_BY_DATASET: dict[str, bool] = {"bace": False, "bbbp": True, "hiv": True}


@dataclass
class Dataset:
    ids: list[str]
    smiles: list[str]
    labels: np.ndarray
    features: np.ndarray | None = None  # uint8 0/1 bits for mgfp, float64 embeddings for imgmol
    skipped_ids: tuple[str, ...] = ()

    def __post_init__(self):
        self.labels = np.asarray(self.labels, dtype=np.int64)
        lengths = {len(self.ids), len(self.smiles), len(self.labels)}
        if self.features is not None:
            lengths.add(self.features.shape[0])
        if len(lengths) != 1:
            raise DataError("dataset columns have inconsistent lengths")
        # plain comparisons: np.unique and np.intersect1d import numpy.ma (about 1.6 MiB)
        bad = self.labels[(self.labels != 0) & (self.labels != 1)]
        if bad.size:
            raise DataError(f"labels outside {{0,1}}: {sorted(set(bad))}")

    def __len__(self) -> int:
        return len(self.ids)

    @property
    def skipped_rows(self) -> int:
        return len(self.skipped_ids)

    def take(self, indices: np.ndarray) -> "Dataset":
        idx = np.asarray(indices, dtype=np.int64)
        return Dataset(
            ids=[self.ids[i] for i in idx],
            smiles=[self.smiles[i] for i in idx],
            labels=self.labels[idx],
            features=None if self.features is None else self.features[idx],
            skipped_ids=self.skipped_ids,
        )


@dataclass(frozen=True)
class SplitPlan:
    train_indices: np.ndarray
    test_indices: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "train_indices", np.asarray(self.train_indices, dtype=np.int64))
        object.__setattr__(self, "test_indices", np.asarray(self.test_indices, dtype=np.int64))
        if not (self.train_indices.size and self.test_indices.size):
            raise DataError(
                f"split has {self.train_indices.size} train and {self.test_indices.size} "
                "test rows; both sides need at least one"
            )
        train, test = np.sort(self.train_indices), np.sort(self.test_indices)
        found = test[np.searchsorted(test, train).clip(max=test.size - 1)] == train
        found[1:] &= train[1:] != train[:-1]   # a sorted merge; each index once
        overlap = train[found]
        if overlap.size:
            raise DataError(f"train/test overlap at indices {overlap[:5]}")
        if len(set(self.train_indices.tolist())) != self.train_indices.size:
            raise DataError("duplicate train indices")


def _round_half_up(x: float) -> int:
    return int(math.floor(x + 0.5))


def parse_floats(cells: list[str]) -> np.ndarray:
    """The numbers in an input file's row of cells, as a float64 row: ASCII text
    without `_`, then `float`, which alone also reads `1_0` as 10 and the
    Arabic-Indic digit three as 3.  The rule is checked once for the whole row;
    a ValueError names the first cell that breaks it or `float`."""
    joined = "".join(cells)
    if not joined.isascii() or "_" in joined:
        for cell in cells:
            if not cell.isascii() or "_" in cell:
                raise ValueError(f"could not convert string to float: {cell!r}")
            float(cell)
    return np.fromiter(map(float, cells), np.float64, len(cells))


def _coerce_label(path: str, text: str, row: int) -> int:
    try:
        value, = parse_floats([text.strip()])
    except (ValueError, AttributeError):
        raise DataError(f"{path} row {row}: label {text!r} is not numeric") from None
    if value == 0.0:
        return 0
    if value == 1.0:
        return 1
    raise DataError(f"{path} row {row}: label {text!r} is not 0 or 1")


@contextmanager
def open_input(path: str) -> Iterator[TextIO]:
    """A UTF-8 text input whose open and decode errors are DataErrors naming the file."""
    try:
        handle = open(path, newline="", encoding="utf-8")
    except OSError as exc:
        raise DataError(f"cannot open {path}: {exc}") from exc
    with handle:
        try:
            yield handle
        except UnicodeDecodeError as exc:
            raise DataError(f"{path} is not valid UTF-8: {exc}") from exc


def _parse_chunk(texts: list[str], featurize: Callable[[list[MolecularGraph]], np.ndarray] | None
                 ) -> tuple[np.ndarray, np.ndarray | None]:
    """One slice of at most `FEATURIZE_BATCH` SMILES: its kept-row mask and `featurize`
    of its parsed graphs, a (kept, width) matrix in the featurizer's dtype (uint8
    for mgfp), (0, width) when no row of the slice parses; None without `featurize`."""
    kept = np.zeros(len(texts), dtype=bool)
    graphs = []
    for i, text in enumerate(texts):
        try:
            graphs.append(parse_smiles(text))
        except SmilesParseError:
            continue
        kept[i] = True
    return kept, None if featurize is None else featurize(graphs)


def _parse_texts(texts: list[str], featurize: Callable[[list[MolecularGraph]], np.ndarray] | None,
                 executor: Executor | None = None) -> tuple[np.ndarray, np.ndarray | None]:
    """`_parse_chunk` over `FEATURIZE_BATCH` slices of `texts`, in this process or on
    `executor`: the kept-row mask and the kept rows' features in row order, copied into
    one matrix as each slice arrives, so ingest never holds its features twice."""
    # zero texts still make one (empty) slice, so there is a mask to concatenate
    # and, with `featurize`, a (0, width) matrix
    slices = [texts[start:start + FEATURIZE_BATCH]
              for start in range(0, max(len(texts), 1), FEATURIZE_BATCH)]
    masks, features, count = [], None, 0
    for mask, matrix in (map if executor is None else executor.map)(
            _parse_chunk, slices, [featurize] * len(slices)):
        masks.append(mask)
        if matrix is not None:
            if features is None:
                features = np.empty((len(texts),) + matrix.shape[1:], dtype=matrix.dtype)
            features[count:count + len(matrix)] = matrix
            count += len(matrix)
    return np.concatenate(masks), None if features is None else features[:count]


def load_dataset(path: str, schema: DatasetSchema,
                 featurize: Callable[[list[MolecularGraph]], np.ndarray] | None = None,
                 executor: Executor | None = None) -> Dataset:
    """Read a CSV of molecules, parsing each SMILES once; unparseable rows are skipped.

    The CSV's ids, SMILES and labels are read here, so a label error names its
    row.  Parsing, and with `featurize` one feature row per parsed graph
    (`featurize` maps a list of graphs to one row each), runs in
    `FEATURIZE_BATCH`-row slices, in this process or, with `executor`, on
    its workers; the slices' results come back in row order.  Either way each
    row is parsed, skipped or featurized alike, so the dataset is the same.
    On an executor `featurize` must pickle: a module-level function or a
    `functools.partial` of one.
    """
    texts: list[str] = []
    labels: list[int] = []
    with open_input(path) as handle:
        reader = csv.DictReader(handle)
        header = reader.fieldnames
        if header is None:
            raise DataError(f"{path} has no header row")
        for col in (schema.smiles_col, schema.label_col):
            if col not in header:
                raise DataError(f"{path} lacks column {col!r}")
        for row_number, row in enumerate(reader):
            texts.append((row[schema.smiles_col] or "").strip())
            labels.append(_coerce_label(path, row[schema.label_col], row_number))

    kept, features = _parse_texts(texts, featurize, executor)
    skipped = tuple(str(i) for i in np.flatnonzero(~kept).tolist())
    if skipped:
        logger.info("skipped %d unparseable SMILES rows in %s", len(skipped), path)
    rows = np.flatnonzero(kept).tolist()
    return Dataset(ids=[str(i) for i in rows], smiles=[texts[i] for i in rows],
                   labels=np.array(labels, dtype=np.int64)[kept], skipped_ids=skipped,
                   features=features)


# the lines csv.reader reads as an empty row, which is no row
_LINE_ENDS = ("\n", "\r\n", "\r")
# The commas and the characters of the numbers `float` reads, less `_` and
# every white space but " ": numpy's reader strips more white space than `float`.
_NUMBER_CHARS = b"0123456789+-.eE aAfFiInNtTyY,"


class _Irregular(ValueError):
    """A table that `np.loadtxt` might read otherwise than the row-wise reader."""


def _plain_cells(lines: Iterator[str], keys: list[str] | None) -> Iterator[str]:
    """The number text of each non-blank line: the line without its end and,
    when `keys` is a list, without its first cell, which is appended to `keys`.
    Cut at its commas, a line gives `csv.reader`'s cells only when it holds no
    quote and no field past csv's size limit.

    `parse_floats`' rule is checked on this text, a line at a time, rather
    than on each cell.  Where the text holds only `_NUMBER_CHARS`,
    `np.loadtxt` converts each cell with the `PyOS_string_to_double` that
    `float` uses, and so reads exactly the cells `float` reads, to the same
    bits.  Without the check it would read `1.5` after an em space, which the
    rule rejects, or after a `\\x1c`, which `float` rejects too.  Raises
    _Irregular at the first line it cannot vouch for."""
    limit = csv.field_size_limit()
    for line in lines:
        if line in _LINE_ENDS:
            continue
        text = line.rstrip("\r\n")
        comma = -1 if keys is None else text.find(",")
        cells = text[comma + 1:]
        # loadtxt skips an empty line, which csv.reader reads as a row of one cell
        if ((keys is not None and comma < 0) or not cells or '"' in text or len(text) > limit
                or cells.encode().translate(None, _NUMBER_CHARS)):
            raise _Irregular
        if keys is not None:
            keys.append(text[:comma])
        yield cells


def _read_plain(lines: Iterator[str], width: int, keyed: bool) -> tuple[list[str], np.ndarray]:
    """The keys and float64 matrix of a table's data lines, parsed by numpy's C
    text reader one line at a time.  Raises a ValueError for any table the
    row-wise reader might read otherwise or reject."""
    keys: list[str] = []
    cells = _plain_cells(lines, keys if keyed else None)
    first = next(cells, None)
    if first is None:   # loadtxt would warn of an empty input
        return keys, np.empty((0, width), dtype=np.float64)
    matrix = np.loadtxt(itertools.chain((first,), cells), dtype=np.float64, delimiter=",",
                        comments=None, ndmin=2)
    if (matrix.shape[1] != width or not np.isfinite(matrix).all()
            or len(set(keys)) != len(keys)):
        raise _Irregular
    return keys, matrix


def _read_rows(path: str, rows: Iterator[list[str]], messages: dict[str, str], width: int,
               keyed: bool) -> tuple[list[str], np.ndarray]:
    """The keys and float64 matrix of a table's csv rows, read and checked row by
    row; a DataError with `messages`' text names the first bad row."""
    keys: list[str] = []
    seen: set[str] = set()
    values = []
    for index, row in enumerate(rows):
        key, cells = (row[0], row[1:]) if keyed else (None, row)
        fields = dict(path=path, index=index, key=key, count=len(cells), width=width)
        if len(cells) != width:
            raise DataError(messages["width"].format(**fields))
        if keyed:
            if key in seen:
                raise DataError(messages["duplicate"].format(**fields))
            seen.add(key)
            keys.append(key)
        try:
            values.append(parse_floats(cells))
        except ValueError as exc:
            raise DataError(messages["number"].format(**fields, error=exc)) from exc
        if not np.isfinite(values[-1]).all():
            raise DataError(messages["finite"].format(**fields))
    return keys, np.array(values, dtype=np.float64).reshape(len(values), width)


@contextmanager
def _open_table(path: str, messages: dict[str, str], width: int | None,
                keyed: bool) -> Iterator[tuple[TextIO, Iterator[list[str]], int]]:
    """A table opened past its header row: the handle, its non-blank csv rows and
    the number of values a row holds."""
    with open_input(path) as handle:
        rows = filter(None, csv.reader(handle))  # blank lines are no rows, as in csv.DictReader
        header = next(rows, None)
        if header is None:
            raise DataError(messages["empty"].format(path=path))
        if width is not None and len(header) - keyed != width:
            raise DataError(messages["width"].format(path=path, count=len(header) - keyed,
                                                     width=width))
        yield handle, rows, len(header) - keyed


def read_table(path: str, messages: dict[str, str], width: int | None = None,
               keyed: bool = False) -> tuple[list[str], np.ndarray]:
    """The keys (with `keyed`, each data row's first cell) and the float64 matrix
    of a CSV of numbers under a header row.  Blank lines are no rows.

    `width`, when given, is the number of values the header and each row must
    hold (less the key column); by default rows are as wide as the header.
    `messages` holds the DataError texts as format strings over `path`,
    `index` (of the data row), `key`, `count` (of the row's values), `width`
    and `error` (`float`'s ValueError): `empty` for a file with no header row,
    `width` for a header or row of another width, and `number`, `finite` and,
    with `keyed`, `duplicate` for the first row whose cells are not all
    `parse_floats` numbers, are not all finite or repeat a key.

    The table is read by numpy's C text reader a line at a time, so its text,
    its lines and its matrix are never all held at once.  A table that reader
    cannot vouch for, or that breaks a rule, is read again by `csv.reader` and
    `parse_floats` row by row, which gives the same bits for a valid table and
    the message of its first bad row for an invalid one.
    """
    with _open_table(path, messages, width, keyed) as (handle, _, width):
        try:
            return _read_plain(handle, width, keyed)
        except ValueError:   # _Irregular, loadtxt's errors and UnicodeDecodeError
            pass
    with _open_table(path, messages, width, keyed) as (_, rows, width):
        return _read_rows(path, rows, messages, width, keyed)


_EMBEDDING_MESSAGES = {
    "empty": "{path} has no header row",
    "width": "{path}: expected {width} embedding columns, got {count}",
    "duplicate": "{path}: duplicate id {key!r}",
    "number": "{path}: non-numeric embedding for id {key!r}",
    "finite": "{path}: non-finite embedding value for id {key!r}",
}


def load_embeddings(path: str, ids: list[str], skipped_ids: tuple[str, ...] = ()) -> np.ndarray:
    """Read an `id,e0,...,e511` CSV (with `read_table`) and align rows to the given id order.

    Every id must have a row.  Rows of `skipped_ids` (rows the dataset loader
    could not parse) are ignored; any other extra id raises DataError rather
    than silently reordering or dropping rows.  A file already in `ids` order
    is returned as read; any other is gathered into that order once.
    """
    keys, matrix = read_table(path, _EMBEDDING_MESSAGES, EMBEDDING_DIM, keyed=True)
    if keys == list(ids):
        return matrix
    position = dict(zip(keys, range(len(keys))))
    extra = position.keys() - set(ids) - set(skipped_ids)
    if extra:
        raise DataError(f"{path}: ids not present in dataset: {sorted(extra)[:5]}")
    for key in ids:
        if key not in position:
            raise DataError(f"{path}: dataset id {key!r} missing from embeddings")
    return matrix[[position[key] for key in ids]]


def undersample(data: Dataset, seed: int) -> Dataset:
    """Randomly reduce the majority class to the minority count (no replacement)."""
    positive = np.flatnonzero(data.labels == 1)
    negative = np.flatnonzero(data.labels == 0)
    if positive.size == 0 or negative.size == 0:
        raise DataError("undersampling needs both classes present")
    minority, majority = sorted((positive, negative), key=lambda a: a.size)
    rng = generator(seed)
    chosen = rng.choice(majority, size=minority.size, replace=False)
    keep = np.sort(np.concatenate([minority, chosen]))
    return data.take(keep)


def make_split(data: Dataset, seed: int) -> SplitPlan:
    """Seeded unstratified split; train gets round(TRAIN_FRACTION * rows)."""
    total = len(data)
    n_train = _round_half_up(TRAIN_FRACTION * total)
    perm = generator(seed).permutation(total)
    return SplitPlan(train_indices=np.sort(perm[:n_train]), test_indices=np.sort(perm[n_train:]))


def subsample_fraction(plan: SplitPlan, fraction: float, seed: int) -> SplitPlan:
    """Keep a seeded random fraction of the training indices; tests untouched."""
    if not 0.0 < fraction <= 1.0:
        raise ConfigError(f"fraction must be in (0, 1], got {fraction}")
    keep = _round_half_up(fraction * plan.train_indices.size)
    if keep == 0:
        raise DataError(f"fraction {fraction} of {plan.train_indices.size} rows rounds to zero")
    rng = generator(seed)
    chosen = rng.choice(plan.train_indices, size=keep, replace=False)
    return SplitPlan(train_indices=np.sort(chosen), test_indices=plan.test_indices.copy())
