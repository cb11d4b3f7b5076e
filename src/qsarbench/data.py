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
"""

from __future__ import annotations

import csv
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


def load_embeddings(path: str, ids: list[str], skipped_ids: tuple[str, ...] = ()) -> np.ndarray:
    """Read an `id,e0,...,e511` CSV and align rows to the given id order.

    Every id must have a row.  Rows of `skipped_ids` (rows the dataset loader
    could not parse) are ignored; any other extra id raises DataError rather
    than silently reordering or dropping rows.
    """
    rows: dict[str, np.ndarray] = {}
    with open_input(path) as handle:
        reader = filter(None, csv.reader(handle))  # blank lines are no rows, as in csv.DictReader
        header = next(reader, None)
        if header is None:
            raise DataError(f"{path} has no header row")
        if len(header) - 1 != EMBEDDING_DIM:
            raise DataError(
                f"{path}: expected {EMBEDDING_DIM} embedding columns, got {len(header) - 1}"
            )
        for row in reader:
            if len(row) - 1 != EMBEDDING_DIM:
                raise DataError(
                    f"{path}: expected {EMBEDDING_DIM} embedding columns, got {len(row) - 1}"
                )
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
    out = np.empty((len(ids), EMBEDDING_DIM), dtype=np.float64)
    for i, key in enumerate(ids):
        if key not in rows:
            raise DataError(f"{path}: dataset id {key!r} missing from embeddings")
        out[i] = rows[key]
    return out


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
