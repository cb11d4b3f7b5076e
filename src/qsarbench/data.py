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
        bad = set(np.unique(self.labels)) - {0, 1}
        if bad:
            raise DataError(f"labels outside {{0,1}}: {sorted(bad)}")

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
        overlap = np.intersect1d(self.train_indices, self.test_indices)
        if overlap.size:
            raise DataError(f"train/test overlap at indices {overlap[:5]}")
        if len(set(self.train_indices.tolist())) != self.train_indices.size:
            raise DataError("duplicate train indices")


def _round_half_up(x: float) -> int:
    return int(math.floor(x + 0.5))


def _coerce_label(path: str, text: str, row: int) -> int:
    try:
        value = float(text.strip())
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


def load_dataset(path: str, schema: DatasetSchema,
                 featurize: Callable[[MolecularGraph], np.ndarray] | None = None) -> Dataset:
    """Read a CSV of molecules, parsing each SMILES once; unparseable rows are skipped.

    With `featurize`, each parsed graph becomes one feature row and is then
    dropped; the stacked matrix keeps the featurizer's dtype (uint8 for mgfp).
    """
    ids: list[str] = []
    smiles: list[str] = []
    labels: list[int] = []
    rows: list[np.ndarray] = []
    skipped: list[str] = []
    with open_input(path) as handle:
        reader = csv.DictReader(handle)
        header = reader.fieldnames
        if header is None:
            raise DataError(f"{path} has no header row")
        for col in (schema.smiles_col, schema.label_col):
            if col not in header:
                raise DataError(f"{path} lacks column {col!r}")
        for row_number, row in enumerate(reader):
            text = (row[schema.smiles_col] or "").strip()
            label = _coerce_label(path, row[schema.label_col], row_number)
            row_id = str(row_number)
            try:
                graph = parse_smiles(text)
            except SmilesParseError:
                skipped.append(row_id)
                continue
            if featurize is not None:
                rows.append(featurize(graph))
            ids.append(row_id)
            smiles.append(text)
            labels.append(label)

    if skipped:
        logger.info("skipped %d unparseable SMILES rows in %s", len(skipped), path)
    return Dataset(ids=ids, smiles=smiles, labels=np.array(labels), skipped_ids=tuple(skipped),
                   features=None if featurize is None else np.array(rows))


def load_embeddings(path: str, ids: list[str], skipped_ids: tuple[str, ...] = ()) -> np.ndarray:
    """Read an `id,e0,...,e511` CSV and align rows to the given id order.

    Every id must have a row.  Rows of `skipped_ids` (rows the dataset loader
    could not parse) are ignored; any other extra id raises DataError rather
    than silently reordering or dropping rows.
    """
    rows: dict[str, np.ndarray] = {}
    with open_input(path) as handle:
        reader = csv.reader(handle)
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
                rows[key] = np.array([float(v) for v in row[1:]], dtype=np.float64)
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
