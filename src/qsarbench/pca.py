"""Principal component analysis fit on training rows only.

The covariance uses the L-1 divisor.  `fit_pca` picks its symmetric
eigenproblem from the shape of the m x d sample matrix alone, never from k:
with fewer rows than columns it solves the m x m Gram matrix Xc Xc^T/(m-1)
of the centered rows, which has the covariance's nonzero spectrum (the
snapshot method), maps each eigenvector u to the axis Xc^T u and
re-orthonormalizes those axes in eigenvalue order by two classical Gram-Schmidt passes;
otherwise it solves the d x d covariance Xc^T Xc/(m-1).  The whole fit runs
with numpy's bundled OpenBLAS held at one thread, because a threaded `eigh`
returns different bits for each thread count.

An axis is ranked when its eigenvalue exceeds the largest eigenvalue times
d times machine epsilon (numpy's `matrix_rank` rule on the covariance);
at most m-1 axes are ranked, since centering removes one dimension.  Each
ranked axis has its sign fixed: its entry of largest absolute value (the
first such, on a tie) is made positive.

Requesting more components than the rank r is allowed and logged, because
the clustered training protocol fits on very small sets.  The axes past r
are not left to the eigensolver, which may return any basis of the null
space: they complete the basis by a fixed rule.  The standard basis vectors
e_0, e_1, ... are taken in index order; each is projected off every axis
kept so far with two classical Gram-Schmidt passes and kept, normalized, if
its residual norm is at least 1/(2 sqrt(d)).  That threshold always
completes the basis (the residuals' squares sum to at least 1 over the d
candidates while an axis is missing).  A completed axis built from e_j has
a positive j-th entry and eigenvalue 0.  The completion depends on the
ranked axes only, so another BLAS kernel moves it by rounding, and a fit of
k axes is the first k axes of any wider fit.
"""

from __future__ import annotations

import csv
import ctypes
import functools
import glob
import logging
import os
from collections.abc import Iterator, Sequence
from contextlib import contextmanager
from dataclasses import dataclass

import numpy as np

from .data import open_input, parse_floats
from .errors import DataError, InvariantViolation

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


def _fix_signs(components: np.ndarray) -> None:
    """Flip, in place, each row whose entry of largest absolute value is negative."""
    pivots = np.abs(components).argmax(axis=1)
    components[components[np.arange(len(components)), pivots] < 0] *= -1.0


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


def _project_off(axes: np.ndarray, vector: np.ndarray, overlaps: np.ndarray) -> np.ndarray:
    """The vector less its projection on the orthonormal rows of axes, in two
    classical Gram-Schmidt passes; overlaps is axes @ vector."""
    vector = vector - axes.T @ overlaps
    return vector - axes.T @ (axes @ vector)


def _complete(basis: np.ndarray, kept: int) -> None:
    """Fill basis[kept:] with the standard basis vectors, in index order, whose
    residual off every row above them is at least 1/(2 sqrt(d)), normalized."""
    width = basis.shape[1]
    threshold = 0.5 / np.sqrt(width)
    unit = np.zeros(width)
    for j in range(width):
        if kept == len(basis):
            return
        unit[j] = 1.0
        residual = _project_off(basis[:kept], unit, basis[:kept, j])
        unit[j] = 0.0
        norm = np.linalg.norm(residual)
        if norm >= threshold:
            basis[kept] = residual / norm
            kept += 1
    if kept < len(basis):
        raise InvariantViolation(f"completed only {kept} of {len(basis)} PCA axes")


def fit_pca(x: np.ndarray, k: int) -> PcaModel:
    """Fit the top-k principal axes of the rows of x.  Axes past the rank of
    the centered rows complete the basis with zero eigenvalues."""
    x = np.asarray(x)  # uint8 bits stay uint8: mean and x - mean promote to float64
    if x.ndim != 2:
        raise DataError("expected a 2-D sample matrix")
    n_rows, n_cols = x.shape
    if n_rows < 2:
        raise DataError(f"need at least 2 rows to fit a covariance, got {n_rows}")
    if k < 1 or k > n_cols:
        raise DataError(f"k={k} outside [1, {n_cols}]")

    gram = n_rows < n_cols
    with _one_blas_thread():
        mean = x.mean(axis=0)
        centered = x - mean
        square = centered @ centered.T if gram else centered.T @ centered
        square /= n_rows - 1
        eigenvalues, eigenvectors = np.linalg.eigh(square)
        order = np.argsort(eigenvalues)[::-1]
        tolerance = max(eigenvalues[order[0]], 0.0) * n_cols * np.finfo(np.float64).eps
        rank = min(int(np.count_nonzero(eigenvalues > tolerance)), n_rows - 1)
        ranked = min(k, rank)
        components = np.empty((k, n_cols))
        for i, column in enumerate(order[:ranked]):
            if gram:
                # a snapshot axis, made orthogonal to the larger ones
                snapshot = centered.T @ eigenvectors[:, column]
                axis = _project_off(components[:i], snapshot, components[:i] @ snapshot)
                components[i] = axis / np.linalg.norm(axis)
            else:
                components[i] = eigenvectors[:, column]
        _fix_signs(components[:ranked])
        _complete(components, ranked)
    if k > rank:
        logger.warning("k=%d exceeds the rank %d of the centered training rows; completed "
                       "%d zero-variance axes from the standard basis", k, rank, k - rank)
    values = np.zeros(k)
    values[:ranked] = eigenvalues[order[:ranked]]
    return PcaModel(mean=mean, components=components, eigenvalues=values)


def transform(model: PcaModel, x: np.ndarray,
              widths: Sequence[int] | None = None) -> np.ndarray | list[np.ndarray]:
    """Project rows onto the principal axes: (x - mean) @ components.T.

    With `widths`, a list of projections, one per k in `widths`, onto the
    first k axes, all from one centered copy of the rows; each is the same
    product as `transform(model.truncate(k), x)`, so it has the same bits.
    """
    x = np.asarray(x)
    if x.ndim == 1:
        x = x[None, :]
    if x.shape[1] != model.n_features:
        raise DataError(
            f"expected {model.n_features} columns, got {x.shape[1]}"
        )
    centered = x - model.mean
    models = [model] if widths is None else [model.truncate(k) for k in widths]
    projections = [centered @ m.components.T for m in models]
    return projections[0] if widths is None else projections
