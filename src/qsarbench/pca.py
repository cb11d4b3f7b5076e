"""Principal component analysis fit on training rows only.

The covariance uses the L-1 divisor and a symmetric eigendecomposition.
The eigensolver runs with numpy's bundled OpenBLAS held at one thread,
because a threaded `eigh` returns different bits for each thread count.
Eigenvector sign is fixed by convention: the entry of largest absolute
value in each component is made positive, so fits are deterministic.
Requesting more components than the sample count supports is allowed (the
trailing components have zero variance) and logged, because the clustered
training protocol fits on very small sets.
"""

from __future__ import annotations

import csv
import ctypes
import functools
import glob
import logging
import os
from collections.abc import Iterator
from contextlib import contextmanager
from dataclasses import dataclass

import numpy as np

from .data import open_input, parse_floats
from .errors import DataError

__all__ = ["PcaModel", "fit_pca", "transform"]

logger = logging.getLogger(__name__)

ORTHONORMAL_TOLERANCE = 1e-8   # largest |C C^T - I| entry a loaded model may have


@dataclass(frozen=True)
class PcaModel:
    mean: np.ndarray          # (M,)
    components: np.ndarray    # (k, M), rows orthonormal
    eigenvalues: np.ndarray   # (k,), non-negative, non-increasing

    @property
    def n_features(self) -> int:
        return self.mean.shape[0]

    @property
    def n_components(self) -> int:
        return self.components.shape[0]

    def truncate(self, k: int) -> "PcaModel":
        if k > self.n_components:
            raise DataError(f"cannot truncate to {k} of {self.n_components} components")
        return PcaModel(self.mean, self.components[:k], self.eigenvalues[:k])

    def to_csv(self, path: str) -> None:
        """Flat CSV: mean row, then one row per component, then eigenvalues."""
        with open(path, "w", newline="", encoding="utf-8") as handle:
            writer = csv.writer(handle)
            writer.writerow([repr(float(v)) for v in self.mean])
            for row in self.components:
                writer.writerow([repr(float(v)) for v in row])
            writer.writerow([repr(float(v)) for v in self.eigenvalues])

    @classmethod
    def from_csv(cls, path: str) -> "PcaModel":
        rows = []
        with open_input(path) as handle:
            # blank lines are no rows, as in csv.DictReader
            for number, row in enumerate(filter(None, csv.reader(handle)), 1):
                try:
                    rows.append(parse_floats(row))
                except ValueError as exc:
                    raise DataError(f"{path}: row {number}: {exc}") from None
        if len(rows) < 3:
            raise DataError(f"{path}: expected mean, components and eigenvalues")
        mean, components, eigenvalues = rows[0], rows[1:-1], rows[-1]
        if any(len(row) != len(mean) for row in components):
            raise DataError(f"{path}: a component row is not as wide as the "
                            f"{len(mean)}-column mean row")
        if len(eigenvalues) != len(components):
            raise DataError(f"{path}: {len(eigenvalues)} eigenvalues for "
                            f"{len(components)} components")
        components = np.vstack(components)
        if not all(np.isfinite(values).all() for values in (mean, components, eigenvalues)):
            raise DataError(f"{path}: a value is not finite")
        if np.any(eigenvalues < 0) or np.any(np.diff(eigenvalues) > 0):
            raise DataError(f"{path}: eigenvalues must be non-negative and non-increasing")
        gram = components @ components.T
        if np.max(np.abs(gram - np.eye(len(gram)))) > ORTHONORMAL_TOLERANCE:
            raise DataError(f"{path}: component rows are not orthonormal "
                            f"within {ORTHONORMAL_TOLERANCE}")
        return cls(mean=mean, components=components, eigenvalues=eigenvalues)


def _fix_signs(components: np.ndarray) -> np.ndarray:
    out = components.copy()
    for i, row in enumerate(out):
        pivot = np.argmax(np.abs(row))
        if row[pivot] < 0:
            out[i] = -row
    return out


@functools.cache
def _openblas_threads() -> tuple | None:
    """The (get, set) thread-count functions of numpy's bundled OpenBLAS, or None."""
    site = os.path.dirname(os.path.dirname(np.__file__))
    for pattern in ("numpy.libs/libscipy_openblas64_*", "numpy/.dylibs/libscipy_openblas64_*"):
        for path in sorted(glob.glob(os.path.join(site, pattern))):
            try:
                lib = ctypes.CDLL(path)
                get_threads = lib.scipy_openblas_get_num_threads64_
                set_threads = lib.scipy_openblas_set_num_threads64_
            except (OSError, AttributeError):
                continue
            get_threads.argtypes, get_threads.restype = [], ctypes.c_int
            set_threads.argtypes, set_threads.restype = [ctypes.c_int], None
            return get_threads, set_threads
    logger.warning("numpy's bundled OpenBLAS not found: PCA axes may depend on the BLAS thread count")
    return None


@contextmanager
def _one_blas_thread() -> Iterator[None]:
    """Run the block on one OpenBLAS thread, then restore the previous count."""
    threads = _openblas_threads()
    if threads is None:
        yield
        return
    get_threads, set_threads = threads
    previous = get_threads()
    set_threads(1)
    try:
        yield
    finally:
        set_threads(previous)


def fit_pca(x: np.ndarray, k: int) -> PcaModel:
    """Fit the top-k principal axes of the rows of x."""
    x = np.asarray(x)  # uint8 bits stay uint8: mean and x - mean promote to float64
    if x.ndim != 2:
        raise DataError("expected a 2-D sample matrix")
    n_rows, n_cols = x.shape
    if n_rows < 2:
        raise DataError(f"need at least 2 rows to fit a covariance, got {n_rows}")
    if k < 1 or k > n_cols:
        raise DataError(f"k={k} outside [1, {n_cols}]")
    if k > n_rows - 1:
        logger.warning(
            "k=%d exceeds the covariance rank bound %d; trailing components have zero variance",
            k, n_rows - 1,
        )

    mean = x.mean(axis=0)
    centered = x - mean
    cov = centered.T @ centered / (n_rows - 1)
    with _one_blas_thread():
        eigenvalues, eigenvectors = np.linalg.eigh(cov)
    order = np.argsort(eigenvalues)[::-1][:k]
    values = np.clip(eigenvalues[order], 0.0, None)
    components = _fix_signs(eigenvectors[:, order].T)
    return PcaModel(mean=mean, components=components, eigenvalues=values)


def transform(model: PcaModel, x: np.ndarray) -> np.ndarray:
    """Project rows onto the principal axes: (x - mean) @ components.T."""
    x = np.asarray(x)
    if x.ndim == 1:
        x = x[None, :]
    if x.shape[1] != model.n_features:
        raise DataError(
            f"expected {model.n_features} columns, got {x.shape[1]}"
        )
    return (x - model.mean) @ model.components.T
