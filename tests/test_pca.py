import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from qsarbench import pca
from qsarbench.errors import DataError
from qsarbench.pca import PcaModel, fit_pca, transform

from conftest import write_dataset_csv

ROOT = Path(__file__).resolve().parent.parent


def char_poly_coefficients(a: np.ndarray) -> np.ndarray:
    """Faddeev-LeVerrier: coefficients of det(lambda*I - A), leading 1."""
    m = a.shape[0]
    coeffs = [1.0]
    mk = np.zeros_like(a)
    for k in range(1, m + 1):
        mk = a @ (mk + coeffs[-1] * np.eye(m))
        coeffs.append(-np.trace(mk) / k)
    return np.array(coeffs)


def eigenvalues_by_bisection(a: np.ndarray, tol: float = 1e-13) -> np.ndarray:
    """All real roots of the characteristic polynomial via sign-change bisection."""
    m = a.shape[0]
    coeffs = char_poly_coefficients(a)
    radius = np.max(np.sum(np.abs(a), axis=1))
    lo, hi = -radius - 1.0, radius + 1.0
    grid = np.linspace(lo, hi, 200_001)
    values = np.polyval(coeffs, grid)
    roots = []
    for i in np.flatnonzero(np.sign(values[:-1]) * np.sign(values[1:]) < 0):
        left, right = grid[i], grid[i + 1]
        f_left = np.polyval(coeffs, left)
        for _ in range(200):
            mid = 0.5 * (left + right)
            f_mid = np.polyval(coeffs, mid)
            if f_left * f_mid <= 0:
                right = mid
            else:
                left, f_left = mid, f_mid
            if right - left < tol:
                break
        roots.append(0.5 * (left + right))
    roots.extend(grid[np.flatnonzero(values == 0.0)])
    assert len(roots) == m, "oracle must isolate every eigenvalue"
    return np.sort(np.array(roots))[::-1]


def test_axis_aligned_data():
    x = np.array([[0.0, 0.0], [1.0, 0.0], [2.0, 0.0], [5.0, 0.0]])
    model = fit_pca(x, 1)
    np.testing.assert_allclose(model.components[0], [1.0, 0.0], atol=1e-12)
    np.testing.assert_allclose(model.eigenvalues[0], np.var(x[:, 0], ddof=1), atol=1e-12)


def test_diagonal_line_hand_computed():
    x = np.array([[0.0, 0.0], [1.0, 1.0], [2.0, 2.0]])
    model = fit_pca(x, 1)
    np.testing.assert_allclose(model.components[0], [1 / np.sqrt(2)] * 2, atol=1e-12)
    np.testing.assert_allclose(model.eigenvalues[0], 2.0, atol=1e-12)
    scores = transform(model, x)[:, 0]
    np.testing.assert_allclose(scores, [-np.sqrt(2), 0.0, np.sqrt(2)], atol=1e-12)


def test_transform_of_mean_is_zero(rng):
    x = rng.normal(size=(20, 6))
    model = fit_pca(x, 3)
    np.testing.assert_allclose(transform(model, x.mean(axis=0)), 0.0, atol=1e-10)


def test_full_rank_transform_is_isometry(rng):
    x = rng.normal(size=(30, 5))
    model = fit_pca(x, 5)
    projected = transform(model, x)
    centered = x - x.mean(axis=0)
    np.testing.assert_allclose(
        np.linalg.norm(projected, axis=1), np.linalg.norm(centered, axis=1), atol=1e-10
    )
    # reconstruction through the complete basis is exact up to centering
    np.testing.assert_allclose(projected @ model.components + model.mean, x, atol=1e-10)


def test_orthonormality_and_ordering(rng):
    x = rng.normal(size=(40, 12))
    model = fit_pca(x, 8)
    gram = model.components @ model.components.T
    np.testing.assert_allclose(gram, np.eye(8), atol=1e-10)
    assert np.all(np.diff(model.eigenvalues) <= 1e-12)
    assert np.all(model.eigenvalues >= 0)


def test_trace_identity(rng):
    x = rng.normal(size=(25, 7))
    model = fit_pca(x, 7)
    centered = x - x.mean(axis=0)
    cov = centered.T @ centered / (x.shape[0] - 1)
    assert abs(model.eigenvalues.sum() - np.trace(cov)) <= 1e-8


def test_sign_convention_deterministic(rng):
    x = rng.normal(size=(15, 4))
    a = fit_pca(x, 4)
    b = fit_pca(x.copy(), 4)
    np.testing.assert_array_equal(a.components, b.components)
    for row in a.components:
        assert row[np.argmax(np.abs(row))] > 0


def test_fix_signs_matches_a_row_loop(rng):
    rows = rng.normal(size=(40, 9))
    rows[3] = [0.5, -0.5, 0.0, 0.5, -0.5, 0.0, 0.0, 0.0, 0.0]  # a tie: the first pivot decides
    rows[4] = -rows[3]
    expected = rows.copy()
    for i, row in enumerate(expected):
        if row[np.argmax(np.abs(row))] < 0:
            expected[i] = -row
    pca._fix_signs(rows)
    assert rows.tobytes() == expected.tobytes()
    assert rows[3, 0] == rows[4, 0] == 0.5


def test_eigenvalues_match_char_poly_oracle(rng):
    for m in (2, 3, 4):
        for _ in range(5):
            x = rng.normal(size=(12, m)) * rng.uniform(0.5, 3.0, size=m)
            model = fit_pca(x, m)
            centered = x - x.mean(axis=0)
            cov = centered.T @ centered / (x.shape[0] - 1)
            oracle = eigenvalues_by_bisection(cov)
            np.testing.assert_allclose(model.eigenvalues, oracle, atol=1e-8, rtol=1e-8)


def test_rank_deficient_fit_allowed(caplog):
    x = np.array([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]])
    model = fit_pca(x, 3)  # rank 1; e_0, then e_2, complete it (e_1 lies in the span by then)
    root = np.sqrt(0.5)
    np.testing.assert_allclose(model.components, [[root, -root, 0.0], [root, root, 0.0],
                                                  [0.0, 0.0, 1.0]], atol=1e-15)
    np.testing.assert_allclose(model.eigenvalues[0], 1.0, rtol=1e-15)
    assert model.eigenvalues[1] == model.eigenvalues[2] == 0.0
    assert "k=3 exceeds the rank 1 of the centered training rows; completed 2 " \
           "zero-variance axes" in caplog.text


def _orthonormality_gap(components: np.ndarray) -> float:
    return float(np.max(np.abs(components @ components.T - np.eye(len(components)))))


def test_snapshot_axes_stay_orthonormal_past_the_rank(tmp_path):
    # rows spanning nine decades: the small snapshot axes Xc^T u lean on the
    # large ones until they are orthogonalized, and the rank tolerance cuts
    # the spectrum below the last row
    rng = np.random.default_rng(17)
    x = rng.normal(size=(64, 512)) * np.logspace(0, -9, 64)[:, None]
    model = fit_pca(x, 256)
    rank = np.count_nonzero(model.eigenvalues)
    assert 32 < rank < 63
    assert _orthonormality_gap(model.components) <= 1e-12
    path = tmp_path / "model.csv"
    model.to_csv(str(path))
    loaded = PcaModel.from_csv(str(path))
    np.testing.assert_array_equal(loaded.components, model.components)
    np.testing.assert_array_equal(loaded.eigenvalues, model.eigenvalues)


def _dense_completion(ranked: np.ndarray, k: int) -> tuple[np.ndarray, list[int]]:
    """Modified Gram-Schmidt, axis by axis, of e_0, e_1, ... against the
    ranked axes and the axes kept before them: the completed axes and the
    index of the standard basis vector each came from."""
    width = ranked.shape[1]
    kept, sources = list(ranked), []
    for j in range(width):
        if len(kept) == k:
            break
        vector = np.eye(width)[j]
        for _ in range(2):
            for axis in kept:
                vector = vector - (axis @ vector) * axis
        if np.linalg.norm(vector) >= 0.5 / np.sqrt(width):
            kept.append(vector / np.linalg.norm(vector))
            sources.append(j)
    return np.array(kept[len(ranked):]), sources


# 70 rows of 24 columns span all but (e_10 - e_11)/sqrt(2), which e_10 completes
@pytest.mark.parametrize("rows, cols, k, first_sources", [
    (9, 64, 40, [0, 1, 2, 4, 5, 6, 8]), (16, 96, 96, [0, 1, 2, 4, 5, 6, 8]), (70, 24, 24, [10]),
])
def test_completion_matches_a_dense_gram_schmidt_reference(rows, cols, k, first_sources):
    rng = np.random.default_rng(rows)
    x = rng.integers(0, 2, size=(rows, cols)).astype(np.float64)
    # rows differing from row 0 in one column only put e_3 and e_7 in the
    # span of the centered rows, so the completion must skip them
    x[1], x[2] = x[0], x[0]
    x[1, 3], x[2, 7] = 1 - x[0, 3], 1 - x[0, 7]
    x[:, 10] = x[:, 11]   # one rank short in the 70-row fit
    model = fit_pca(x, k)
    rank = np.count_nonzero(model.eigenvalues)
    assert rank < k and np.all(model.eigenvalues[:rank] > 0)
    reference, sources = _dense_completion(model.components[:rank], k)
    np.testing.assert_allclose(model.components[rank:], reference, rtol=0, atol=1e-12)
    assert _orthonormality_gap(model.components) <= 1e-12
    assert sources[:len(first_sources)] == first_sources
    # a completed axis from e_j needs no sign fix: its j-th entry is positive
    assert all(model.components[rank + i, j] > 0 for i, j in enumerate(sources))


def test_errors():
    with pytest.raises(DataError, match="expected a 2-D sample matrix"):
        fit_pca(np.ones(3), 1)
    with pytest.raises(DataError, match="need at least 2 rows"):
        fit_pca(np.ones((1, 3)), 1)
    with pytest.raises(DataError, match=r"k=4 outside \[1, 3\]"):
        fit_pca(np.ones((5, 3)), 4)
    model = fit_pca(np.eye(3), 2)
    with pytest.raises(DataError, match="expected 3 columns, got 4"):
        transform(model, np.ones((2, 4)))


def test_csv_round_trip(tmp_path, rng):
    x = rng.normal(size=(10, 5))
    model = fit_pca(x, 3)
    path = tmp_path / "model.csv"
    model.to_csv(str(path))
    loaded = PcaModel.from_csv(str(path))
    np.testing.assert_array_equal(loaded.mean, model.mean)
    np.testing.assert_array_equal(loaded.components, model.components)
    np.testing.assert_array_equal(loaded.eigenvalues, model.eigenvalues)


@pytest.mark.parametrize("text, message", [
    ("0.5,1.0\n1.0,0.0\n", "expected mean, components and eigenvalues"),
    ("0.5,1.0\n1.0,0.0\nx,2.0\n", r"row 3: could not convert string to float: 'x'"),
    ("0.5,1.0\n1.0,0.0,0.0\n2.0\n", "a component row is not as wide as the 2-column mean row"),
    ("0.5,1.0\n1.0,0.0\n0.0,1.0\n2.0\n", "1 eigenvalues for 2 components"),
    ("0.5,nan\n1.0,0.0\n-2.0\n", "a value is not finite"),
    ("0.5,1.0\n1.0,inf\n2.0\n", "a value is not finite"),
    ("0.5,1.0\n1.0,0.0\n-2.0\n", "eigenvalues must be non-negative and non-increasing"),
    ("0.5,1.0\n1.0,0.0\n0.0,1.0\n1.0,2.0\n",
     "eigenvalues must be non-negative and non-increasing"),
    ("0.5,1.0\n1.0,1.0\n2.0\n", r"component rows are not orthonormal within 1e-08"),
    ("0.5,1.0\n1.0,0.0\n1.0,0.0\n2.0,1.0\n", r"component rows are not orthonormal"),
])
def test_csv_malformed_rejected(tmp_path, text, message):
    path = tmp_path / "model.csv"
    path.write_text(text, encoding="utf-8")
    with pytest.raises(DataError, match=f"^{re.escape(str(path))}: {message}"):
        PcaModel.from_csv(str(path))


def test_csv_skips_blank_lines(tmp_path, rng):
    model = fit_pca(rng.normal(size=(10, 4)), 2)
    path = tmp_path / "model.csv"
    model.to_csv(str(path))
    lines = path.read_text(encoding="utf-8").splitlines()
    path.write_text("\n".join([lines[0], "", *lines[1:], "", ""]) + "\n", encoding="utf-8")
    loaded = PcaModel.from_csv(str(path))
    np.testing.assert_array_equal(loaded.mean, model.mean)
    np.testing.assert_array_equal(loaded.components, model.components)
    np.testing.assert_array_equal(loaded.eigenvalues, model.eigenvalues)


@pytest.mark.parametrize("value", ["1_0", "\u0663"])
def test_csv_value_in_another_number_syntax_rejected(tmp_path, value):
    path = tmp_path / "model.csv"
    path.write_text(f"0.5,1.0\n1.0,0.0\n{value}\n", encoding="utf-8")
    with pytest.raises(DataError, match=f"^{re.escape(str(path))}: row 3: could not convert "
                                        f"string to float: {re.escape(repr(value))}$"):
        PcaModel.from_csv(str(path))


def test_csv_that_cannot_be_read_names_its_file(tmp_path):
    missing = tmp_path / "missing.csv"
    with pytest.raises(DataError, match=f"^cannot open {re.escape(str(missing))}: "):
        PcaModel.from_csv(str(missing))
    latin = tmp_path / "latin.csv"
    latin.write_bytes(b"0.5,1.0\n1.0,0.0\n2.0\xff\n")
    with pytest.raises(DataError, match=f"^{re.escape(str(latin))} is not valid UTF-8: "):
        PcaModel.from_csv(str(latin))


def test_truncate():
    x = np.random.default_rng(0).normal(size=(20, 6))
    model = fit_pca(x, 6)
    small = model.truncate(2)
    np.testing.assert_array_equal(small.components, model.components[:2])
    with pytest.raises(DataError, match="cannot truncate to 7 of 6 components"):
        model.truncate(7)
    # truncating one wide fit must be exactly a narrower fit; 9 and 40 rows
    # of 64 columns take the Gram path, and 9 rows give a rank-8 covariance,
    # so k=16 and k=32 reach into its completed axes, as the cluster sweep's
    # small training sets do
    for rows in (40, 9):
        x = np.random.default_rng(rows).integers(0, 2, size=(rows, 64)).astype(np.float64)
        widest = fit_pca(x, 32)
        for k in (1, 4, 8, 16, 32):
            direct, cut = fit_pca(x, k), widest.truncate(k)
            assert np.array_equal(cut.components, direct.components)
            assert np.array_equal(cut.eigenvalues, direct.eigenvalues)
            assert np.array_equal(transform(cut, x), transform(direct, x))
    # uint8 0/1 bits, as the fingerprint matrix is held, fit and project
    # exactly as their float64 copy
    bits = np.random.default_rng(5).integers(0, 2, size=(30, 64), dtype=np.uint8)
    model, reference = fit_pca(bits, 16), fit_pca(bits.astype(np.float64), 16)
    assert np.array_equal(model.mean, reference.mean)
    assert np.array_equal(model.components, reference.components)
    assert np.array_equal(model.eigenvalues, reference.eigenvalues)
    assert np.array_equal(transform(model, bits), transform(reference, bits.astype(np.float64)))


FIT_PCA_DIGEST = """
import hashlib
import numpy as np
from qsarbench.pca import fit_pca
x = (np.random.Generator(np.random.Philox(11)).random((1200, 512)) < 0.1).astype(np.uint8)
for model in (fit_pca(x, 512), fit_pca(x[:40], 256)):  # covariance, then Gram past the rank
    print(hashlib.sha256(model.components.tobytes() + model.eigenvalues.tobytes()).hexdigest())
"""

CLUSTER_REPORT = """
import sys
from qsarbench.harness import ExperimentConfig, run_cluster_protocol, write_report_files
config = ExperimentConfig(dataset="bace", dataset_path=sys.argv[1], n_list=(2, 4), reps=1,
                          resplits=1, epochs=2, batch_size=8, cluster_k=(1, 3), workers=1)
paths = write_report_files(run_cluster_protocol(config), sys.argv[2], "r")
print(open(paths["json"]).read() + open(paths["csv"]).read())
"""


def _under_blas_threads(threads: int, code: str, *args: str) -> str:
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), OPENBLAS_NUM_THREADS=str(threads))
    result = subprocess.run([sys.executable, "-c", code, *args], env=env,
                            capture_output=True, text=True, timeout=120)
    assert result.returncode == 0, result.stderr
    return result.stdout


def test_fits_and_reports_do_not_depend_on_the_blas_thread_count(tmp_path):
    if pca._openblas_threads() is None:
        pytest.skip("numpy's bundled OpenBLAS is not available to pin")
    # a threaded eigh of this covariance returns other bits than a one-thread eigh
    assert _under_blas_threads(1, FIT_PCA_DIGEST) == _under_blas_threads(2, FIT_PCA_DIGEST)
    # k=1 fits 16 axes on 2 rows: all but one are completed past the rank
    smiles = ["CC(=O)Oc1ccccc1C(=O)O"] * 25 + ["CCCCCCCCCC"] * 25 + ["C", "CCO", "CCN"]
    labels = [int(i % 3 == 0) for i in range(len(smiles))]
    data = str(write_dataset_csv(tmp_path / "d.csv", smiles, labels))
    reports = [_under_blas_threads(t, CLUSTER_REPORT, data, str(tmp_path / str(t))) for t in (1, 2)]
    assert reports[0] == reports[1]


KERNEL_FIT = """
import sys
import numpy as np
from qsarbench.pca import fit_pca
x = np.random.Generator(np.random.Philox(3)).integers(0, 2, size=(16, 512), dtype=np.uint8)
np.save(sys.argv[1], fit_pca(x, 256).components)
"""

# each OpenBLAS kernel and the instruction set /proc/cpuinfo must list for it
KERNELS = {"SkylakeX": "avx512f", "Haswell": "avx2", "Sandybridge": "avx"}


def _cpu_flags() -> set[str]:
    try:
        text = Path("/proc/cpuinfo").read_text(encoding="utf-8")
    except OSError:
        return set()
    return {flag for line in text.splitlines() if line.startswith("flags")
            for flag in line.split(":", 1)[1].split()}


def test_axes_past_the_rank_do_not_depend_on_the_blas_kernel(tmp_path):
    # 16 rows span 15 axes: the other 241 of 256 are completed, not left to
    # the eigensolver, so another kernel moves every axis by rounding only
    flags = _cpu_flags()
    kernels = [kernel for kernel, flag in KERNELS.items() if flag in flags]
    if len(kernels) < 2:
        pytest.skip(f"fewer than two of the OpenBLAS kernels {sorted(KERNELS)} run on this CPU")
    axes = {}
    for kernel in kernels:
        path = tmp_path / f"{kernel}.npy"
        env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), OPENBLAS_CORETYPE=kernel)
        result = subprocess.run([sys.executable, "-c", KERNEL_FIT, str(path)], env=env,
                                capture_output=True, text=True, timeout=120)
        assert result.returncode == 0, result.stderr
        axes[kernel] = np.load(path)
    first = axes[kernels[0]]
    for kernel in kernels[1:]:
        np.testing.assert_allclose(axes[kernel], first, rtol=0, atol=1e-12, err_msg=kernel)
