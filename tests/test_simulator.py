import math
import re

import numpy as np
import pytest

from qsarbench.errors import DataError, InvariantViolation
from qsarbench.quantum import QuantumModelParams, q_forward
from qsarbench.simulator import (
    BLOCK_WIDTH,
    adjoint_gradient,
    amplitude_embed,
    ansatz_sweep,
    apply_cnot_array,
    apply_layer,
    apply_single_array,
    block_widths,
    entangler_offset,
    layer_factors,
    parameter_shift_gradient,
    partial_trace_matrix,
    qubit_overlaps,
    rep_factors,
    ring_permutation,
    rot_matrix,
    run_ansatz,
    run_factors,
    z_expectations,
    z_sign_matrix,
)


# --- dense-matrix oracle -------------------------------------------------------

def rz_matrix(theta: float) -> np.ndarray:
    return np.array(
        [[np.exp(-0.5j * theta), 0.0], [0.0, np.exp(0.5j * theta)]], dtype=np.complex128
    )


def ry_matrix(theta: float) -> np.ndarray:
    c = math.cos(theta / 2.0)
    s = math.sin(theta / 2.0)
    return np.array([[c, -s], [s, c]], dtype=np.complex128)


def dense_single(u: np.ndarray, n: int, qubit: int) -> np.ndarray:
    out = np.eye(1, dtype=np.complex128)
    for q in range(n):
        out = np.kron(out, u if q == qubit else np.eye(2))
    return out


def dense_cnot(n: int, control: int, target: int) -> np.ndarray:
    dim = 1 << n
    out = np.zeros((dim, dim), dtype=np.complex128)
    for basis in range(dim):
        control_bit = (basis >> (n - 1 - control)) & 1
        image = basis ^ (1 << (n - 1 - target)) if control_bit else basis
        out[image, basis] = 1.0
    return out


def dense_ansatz(n: int, angles: np.ndarray) -> np.ndarray:
    dim = 1 << n
    out = np.eye(dim, dtype=np.complex128)
    for layer in range(angles.shape[0]):
        for q in range(n):
            out = dense_single(rot_matrix(*angles[layer, q]), n, q) @ out
        if n > 1:
            offset = entangler_offset(layer, n)
            for q in range(n):
                out = dense_cnot(n, q, (q + offset) % n) @ out
    return out


def random_state(rng, n: int) -> np.ndarray:
    amps = rng.normal(size=1 << n) + 1j * rng.normal(size=1 << n)
    return amps / np.linalg.norm(amps)


# --- amplitude embedding ----------------------------------------------------------

def test_embed_basis_vector():
    state = amplitude_embed(np.array([1.0, 0.0, 0.0, 0.0]))
    np.testing.assert_array_equal(state, [1, 0, 0, 0])
    assert state.dtype == np.complex128


def test_embed_three_four_five():
    state = amplitude_embed(np.array([3.0, 4.0]))
    np.testing.assert_allclose(state, [0.6, 0.8])


def test_embed_uniform_and_z():
    state = amplitude_embed(np.ones(4))
    np.testing.assert_allclose(state, 0.5)
    np.testing.assert_allclose(z_expectations(state), [0.0, 0.0], atol=1e-15)


def test_embed_zero_vector_falls_back_to_uniform():
    state = amplitude_embed(np.zeros(8))
    np.testing.assert_allclose(state, 1 / math.sqrt(8))
    assert abs(np.sum(np.abs(state) ** 2) - 1.0) < 1e-12


def test_embed_batch_bits_match_each_row_alone_and_the_quotient_expression():
    x = np.random.default_rng(5).normal(size=(2, 3, 8))
    x[0, 1] = 0.0            # zero norm: the uniform state
    x[1, 0] = 1e-14          # norm below the 1e-12 threshold: uniform too
    x[1, 2] *= 1e-9          # small, but above the threshold
    x[0, 2, 3] = -0.0        # a signed zero in a row that is divided
    batch = amplitude_embed(x)
    norms = np.sqrt(np.sum(x * x, axis=-1, keepdims=True))
    zero = norms < 1e-12
    quotient = np.where(zero, 1 / math.sqrt(8), x / np.where(zero, 1.0, norms))
    assert batch.dtype == np.complex128 and batch.shape == x.shape
    assert batch.tobytes() == quotient.astype(np.complex128).tobytes()
    for index in np.ndindex(2, 3):
        assert amplitude_embed(x[index]).tobytes() == batch[index].tobytes()


def test_embed_rejects_non_power_of_two():
    with pytest.raises(InvariantViolation, match="input length 3 is not a power of two"):
        amplitude_embed(np.ones(3))
    with pytest.raises(InvariantViolation, match="input length 1 is not a power of two"):
        amplitude_embed(np.ones(1))


def test_bit_ordering_qubit0_is_msb():
    state = amplitude_embed(np.array([0.0, 0.0, 1.0, 0.0]))  # basis index 2 = |10>
    np.testing.assert_allclose(z_expectations(state), [-1.0, 1.0])


# --- single-qubit gates -------------------------------------------------------------

def test_rot_zero_angles_is_identity(rng):
    state = random_state(rng, 3)
    out = apply_single_array(state, 3, 1, rot_matrix(0.0, 0.0, 0.0))
    np.testing.assert_allclose(out, state, atol=1e-15)


def test_ry_pi_flips_ground_state():
    state = amplitude_embed(np.array([1.0, 0.0]))
    out = apply_single_array(state, 1, 0, rot_matrix(0.0, math.pi, 0.0))
    np.testing.assert_allclose(out, [0.0, 1.0], atol=1e-15)
    np.testing.assert_allclose(z_expectations(out), [-1.0], atol=1e-15)


def test_rot_is_rz_ry_rz_composition(rng):
    for _ in range(25):
        a, b, g = rng.uniform(-2 * math.pi, 2 * math.pi, size=3)
        composed = rz_matrix(g) @ ry_matrix(b) @ rz_matrix(a)
        np.testing.assert_allclose(rot_matrix(a, b, g), composed, atol=1e-15)
    # a batch of angles, as the circuit sweeps build them: each slice is the scalar call
    angles = rng.uniform(-math.pi, math.pi, size=(2, 4, 3))
    u = rot_matrix(*np.moveaxis(angles, -1, 0))
    assert u.shape == (2, 4, 2, 2)
    for i, j in np.ndindex(2, 4):
        np.testing.assert_array_equal(u[i, j], rot_matrix(*angles[i, j]))


def test_rz_ry_conventions():
    theta = 0.7
    np.testing.assert_allclose(
        rz_matrix(theta),
        np.diag([np.exp(-0.5j * theta), np.exp(0.5j * theta)]),
        atol=1e-15,
    )
    np.testing.assert_allclose(
        ry_matrix(theta),
        [[math.cos(theta / 2), -math.sin(theta / 2)],
         [math.sin(theta / 2), math.cos(theta / 2)]],
        atol=1e-15,
    )


def test_single_qubit_gate_matches_dense_oracle(rng):
    for n in range(1, 5):
        for _ in range(10):
            state = random_state(rng, n)
            qubit = int(rng.integers(0, n))
            u = rot_matrix(*rng.uniform(-math.pi, math.pi, size=3))
            fast = apply_single_array(state, n, qubit, u)
            dense = dense_single(u, n, qubit) @ state
            np.testing.assert_allclose(fast, dense, atol=1e-12)


# --- CNOT ----------------------------------------------------------------------------

def test_cnot_truth_table():
    state = amplitude_embed(np.array([0.0, 0.0, 1.0, 0.0]))  # |10>
    out = apply_cnot_array(state, 2, 0, 1)
    np.testing.assert_array_equal(out, [0, 0, 0, 1])  # |11>

    state = amplitude_embed(np.array([0.0, 1.0, 0.0, 0.0]))  # |01>
    out = apply_cnot_array(state, 2, 0, 1)
    np.testing.assert_array_equal(out, [0, 1, 0, 0])  # unchanged


def test_cnot_involution(rng):
    for n in (2, 3, 4):
        state = random_state(rng, n)
        control, target = rng.choice(n, size=2, replace=False)
        twice = apply_cnot_array(apply_cnot_array(state, n, control, target), n, control, target)
        np.testing.assert_allclose(twice, state, atol=1e-15)


def test_cnot_matches_dense_oracle(rng):
    for n in (2, 3, 4):
        for _ in range(10):
            state = random_state(rng, n)
            control, target = (int(v) for v in rng.choice(n, size=2, replace=False))
            fast = apply_cnot_array(state, n, control, target)
            dense = dense_cnot(n, control, target) @ state
            np.testing.assert_allclose(fast, dense, atol=1e-12)


def test_cnot_errors(rng):
    state = random_state(rng, 2)
    with pytest.raises(InvariantViolation, match="control and target must differ"):
        apply_cnot_array(state, 2, 1, 1)
    with pytest.raises(InvariantViolation, match=r"qubit 2 outside \[0, 2\)"):
        apply_cnot_array(state, 2, 0, 2)
    with pytest.raises(InvariantViolation, match=r"qubit 5 outside \[0, 2\)"):
        apply_single_array(state, 2, 5, rot_matrix(0.1, 0.2, 0.3))
    for width in (2, 8):  # amplitude arrays that are not 2**n wide
        with pytest.raises(DataError, match=f"{width} amplitudes for 2 qubits"):
            apply_cnot_array(np.zeros((3, width)), 2, 0, 1)


# --- ansatz ---------------------------------------------------------------------------

def test_entangler_offsets():
    assert [entangler_offset(layer, 2) for layer in (0, 1)] == [1, 1]
    assert [entangler_offset(layer, 3) for layer in (0, 1)] == [1, 2]
    assert [entangler_offset(layer, 4) for layer in (0, 1)] == [1, 2]


@pytest.mark.parametrize("n", range(2, 9))
def test_ring_permutation_matches_dense_cnot_product(n, rng):
    dim = 1 << n
    for offset in range(1, n):
        layer = offset - 1
        assert entangler_offset(layer, n) == offset
        dense = np.eye(dim)
        for q in range(n):
            dense = dense_cnot(n, q, (q + offset) % n) @ dense
        forward, inverse = ring_permutation(layer, n)
        # amps[forward] == dense @ amps, so gathering the identity's rows gives dense
        np.testing.assert_array_equal(np.eye(dim)[forward], dense)
        np.testing.assert_array_equal(np.eye(dim)[inverse], dense.T)
        states = rng.normal(size=(3, dim)) + 1j * rng.normal(size=(3, dim))
        np.testing.assert_array_equal(states[:, forward][:, inverse], states)
        np.testing.assert_array_equal(states[:, inverse][:, forward], states)


def test_zero_angle_ansatz_is_cnot_ring(rng):
    state = random_state(rng, 2)
    expected = apply_cnot_array(apply_cnot_array(state, 2, 0, 1), 2, 1, 0)
    expected = apply_cnot_array(apply_cnot_array(expected, 2, 0, 1), 2, 1, 0)
    out = run_ansatz(state, np.zeros((2, 2, 3)))
    np.testing.assert_allclose(out, expected, atol=1e-15)


def test_single_qubit_ansatz_is_two_rotations(rng):
    state = random_state(rng, 1)
    angles = rng.uniform(-math.pi, math.pi, size=(2, 1, 3))
    expected = apply_single_array(state, 1, 0, rot_matrix(*angles[0, 0]))
    expected = apply_single_array(expected, 1, 0, rot_matrix(*angles[1, 0]))
    out = run_ansatz(state, angles)
    np.testing.assert_allclose(out, expected, atol=1e-15)


def test_ansatz_matches_dense_oracle(rng):
    for n in (2, 3, 4):
        state = random_state(rng, n)
        angles = rng.uniform(-math.pi, math.pi, size=(2, n, 3))
        out = run_ansatz(state, angles)
        dense = dense_ansatz(n, angles) @ state
        np.testing.assert_allclose(out, dense, atol=1e-12)
        assert abs(np.sum(np.abs(out) ** 2) - 1.0) < 1e-12


@pytest.mark.parametrize("n", range(1, 10))
def test_fused_layer_matches_dense_rotations(n, rng):
    """One fused layer, and its un-apply with the conjugate-transposed
    factors, equal the product of the dense single-qubit rotations, for the
    block split chosen at every width; a one-block layer from n = 2 on also
    holds its CNOT ring."""
    widths = block_widths(n)
    assert sum(widths) == n and max(widths) <= BLOCK_WIDTH
    assert len(widths) == -(-n // BLOCK_WIDTH) and max(widths) - min(widths) <= 1
    angles = rng.uniform(-math.pi, math.pi, size=(2, n, 3))
    u = rot_matrix(*angles.transpose(2, 0, 1))
    factors = layer_factors(u)
    assert [f.shape for f in factors] == [(2, 1 << w, 1 << w) for w in widths]
    states = rng.normal(size=(3, 1 << n)) + 1j * rng.normal(size=(3, 1 << n))
    for layer in range(2):
        dense = np.eye(1 << n, dtype=np.complex128)
        for q in range(n):
            dense = dense_single(u[layer, q], n, q) @ dense
        if len(widths) == 1 and n > 1:
            for q in range(n):
                dense = dense_cnot(n, q, (q + entangler_offset(layer, n)) % n) @ dense
        fused = apply_layer(states.T, [f[layer] for f in factors])
        undone = apply_layer(states.T, [f[layer].conj().T for f in factors])
        np.testing.assert_allclose(fused, states @ dense.T, rtol=0, atol=1e-13)
        np.testing.assert_allclose(undone, states @ dense.conj(), rtol=0, atol=1e-13)


def einsum_qubit_overlap(block_overlap: np.ndarray, width: int, q: int) -> np.ndarray:
    """Qubit q's (reps, 2, 2) overlap from its block's (reps, 2^w, 2^w) one:
    the partial trace over the block's other qubits, written as an einsum."""
    shape = (len(block_overlap),) + (1 << q, 2, 1 << (width - 1 - q)) * 2
    return np.einsum("raibajb->rij", block_overlap.reshape(shape))


@pytest.mark.parametrize("reps", (1, 3))
@pytest.mark.parametrize("widths", [(1,), (2,), (3,), (4,), (4, 4), (3, 2, 2)])
def test_partial_trace_product_matches_the_einsum(widths, reps, rng):
    """One product with the cached 0/1 matrix gives every qubit's 2x2 overlap
    of every block, as the per-qubit einsum does, up to summation order."""
    shapes = [(reps, 1 << w, 1 << w) for w in widths]
    overlaps = [rng.normal(size=shape) + 1j * rng.normal(size=shape) for shape in shapes]
    traced = qubit_overlaps(np.concatenate([o.reshape(reps, -1) for o in overlaps], axis=1), widths)
    assert traced.shape == (reps, sum(widths), 2, 2)
    expected = [einsum_qubit_overlap(o, w, q) for o, w in zip(overlaps, widths) for q in range(w)]
    np.testing.assert_allclose(traced, np.stack(expected, axis=1), rtol=0, atol=1e-13)
    matrix = partial_trace_matrix(widths)
    assert matrix is partial_trace_matrix(widths) and set(np.unique(matrix)) == {0.0, 1.0}
    with pytest.raises(ValueError):
        matrix[0, 0] = 1.0


def test_norm_preserved_after_1000_random_gates(rng):
    n = 4
    amps = random_state(rng, n)
    for _ in range(1000):
        if rng.random() < 0.5:
            amps = apply_single_array(
                amps, n, int(rng.integers(0, n)),
                rot_matrix(*rng.uniform(-math.pi, math.pi, size=3)),
            )
        else:
            control, target = (int(v) for v in rng.choice(n, size=2, replace=False))
            amps = apply_cnot_array(amps, n, control, target)
    assert abs(np.sum(np.abs(amps) ** 2) - 1.0) <= 1e-12


def test_gates_are_linear_on_unnormalized_vectors(rng):
    n = 3
    s1 = rng.normal(size=8) + 1j * rng.normal(size=8)
    s2 = rng.normal(size=8) + 1j * rng.normal(size=8)
    alpha, beta = 1.7, -0.3 + 2.2j
    u = rot_matrix(0.4, -1.2, 2.0)
    combined = apply_single_array(alpha * s1 + beta * s2, n, 1, u)
    separate = alpha * apply_single_array(s1, n, 1, u) + beta * apply_single_array(s2, n, 1, u)
    np.testing.assert_allclose(combined, separate, atol=1e-12)
    combined = apply_cnot_array(alpha * s1 + beta * s2, n, 0, 2)
    separate = alpha * apply_cnot_array(s1, n, 0, 2) + beta * apply_cnot_array(s2, n, 0, 2)
    np.testing.assert_allclose(combined, separate, atol=1e-12)


# --- measurement -----------------------------------------------------------------------

def test_z_expectations_extremes():
    ground = amplitude_embed(np.array([1.0, 0.0, 0.0, 0.0]))
    np.testing.assert_allclose(z_expectations(ground), [1.0, 1.0])
    top = amplitude_embed(np.array([0.0, 0.0, 0.0, 1.0]))
    np.testing.assert_allclose(z_expectations(top), [-1.0, -1.0])


def test_cached_z_signs_are_read_only():
    ground = amplitude_embed(np.array([1.0, 0.0, 0.0, 0.0]))
    with pytest.raises(ValueError):
        z_sign_matrix(2)[0, 0] = 5.0
    np.testing.assert_array_equal(z_expectations(ground), [1.0, 1.0])


def test_cached_ring_gathers_are_read_only_and_shared_by_layers_of_one_offset():
    for n in (2, 3, 4):   # offsets cycle 1, ..., n-1, so layer n-1 repeats layer 0's
        assert entangler_offset(n - 1, n) == entangler_offset(0, n)
        first, again = ring_permutation(0, n), ring_permutation(n - 1, n)
        assert first[0] is again[0] and first[1] is again[1]
        for gather in first:
            with pytest.raises(ValueError):
                gather[0] = 1
    assert ring_permutation(0, 3)[0] is not ring_permutation(1, 3)[0]


def test_z_expectations_against_explicit_sum(rng):
    for n in (1, 2, 3):
        state = random_state(rng, n)
        probs = np.abs(state) ** 2
        expected = [
            sum(p * (1 if not (b >> (n - 1 - q)) & 1 else -1) for b, p in enumerate(probs))
            for q in range(n)
        ]
        np.testing.assert_allclose(z_expectations(state), expected, atol=1e-12)


@pytest.mark.parametrize("n", (1, 2, 3, 4, 8))
def test_batch_and_single_states_share_one_api(n, rng):
    """A (B, 2^n) batch gives the row-by-row results, zero row included, at
    every batch size, bit for bit.

    Embedding is elementwise, and every matrix product of the ansatz and of
    <Z> has two or more rows even for one state: a lone row is multiplied
    as a two-row product, since BLAS's matrix-vector code (one row) and
    matrix-matrix code (a batch) sum in different orders.  So the model's
    score of one row is its score inside the batch, on a BLAS kernel that
    sums a row alike wherever it sits in a batch (OpenBLAS's SkylakeX).
    """
    angles = rng.uniform(0.0, 2 * math.pi, size=(2, n, 3))
    params = QuantumModelParams(angles, rng.uniform(-1.0, 1.0, size=n))
    for rows in (5, 2, 32, 300):
        x = rng.normal(size=(rows, 1 << n))
        x[rows // 2] = 0.0
        amps = amplitude_embed(x)
        final = run_ansatz(amps, angles)
        z = z_expectations(final)
        scores = q_forward(params, x)
        assert amps.shape == final.shape == x.shape and z.shape == (rows, n)
        np.testing.assert_array_equal(amps[rows // 2], np.full(1 << n, 1 / math.sqrt(1 << n)))
        for row, a, f, zz, score in zip(x, amps, final, z, scores):
            assert np.array_equal(amplitude_embed(row), a)
            assert np.array_equal(run_ansatz(a, angles), f)
            assert np.array_equal(z_expectations(f), zz)
            assert q_forward(params, row) == score


# --- parameter shift ---------------------------------------------------------------------

def test_parameter_shift_zero_upstream():
    grad = parameter_shift_gradient(np.array([1.0, 2.0, 3.0, 4.0]), np.ones((2, 2, 3)),
                                    np.zeros(2))
    np.testing.assert_array_equal(grad, 0.0)


def test_parameter_shift_takes_one_input_vector():
    with pytest.raises(DataError, match=r"one input vector .* shapes \(3, 4\) and \(2,\)"):
        parameter_shift_gradient(np.ones((3, 4)), np.ones((2, 2, 3)), np.zeros(2))


def test_parameter_shift_single_ry_closed_form():
    # one layer on one qubit: beta acts as RY(theta) on |0>, so <Z> = cos(theta)
    for theta in (0.3, math.pi / 2, 2.1):
        angles = np.zeros((1, 1, 3))
        angles[0, 0, 1] = theta
        grad = parameter_shift_gradient(np.array([1.0, 0.0]), angles, np.ones(1))
        assert grad[0, 0, 1] == pytest.approx(-math.sin(theta), abs=1e-12)
        assert grad[0, 0, 0] == pytest.approx(0.0, abs=1e-12)
    angles = np.zeros((1, 1, 3))
    angles[0, 0, 1] = math.pi / 2
    grad = parameter_shift_gradient(np.array([1.0, 0.0]), angles, np.ones(1))
    assert grad[0, 0, 1] == pytest.approx(-1.0, abs=1e-12)


def test_parameter_shift_matches_finite_differences(rng):
    for trial in range(30):
        n = int(rng.integers(1, 4))
        x = rng.normal(size=1 << n)
        upstream = rng.normal(size=n)
        angles = rng.uniform(-math.pi, math.pi, size=(2, n, 3))
        grad = parameter_shift_gradient(x, angles, upstream)

        def objective(flat):
            state = run_ansatz(amplitude_embed(x), flat.reshape(2, n, 3))
            return float(upstream @ z_expectations(state))

        h = 1e-6
        flat = angles.ravel()
        fd = np.zeros_like(flat)
        for j in range(flat.size):
            step = np.zeros_like(flat)
            step[j] = h
            fd[j] = (objective(flat + step) - objective(flat - step)) / (2 * h)
        scale = max(np.linalg.norm(fd), 1e-12)
        assert np.linalg.norm(grad.ravel() - fd) / scale < 1e-6


@pytest.mark.parametrize("n", (1, 2, 3, 4, 8))
def test_adjoint_gradient_equals_summed_parameter_shift(n, rng):
    """The batched adjoint sweep meets the parameter-shift contract summed
    over rows, for any per-row upstream weights, not only MSE-shaped ones."""
    for layers in (2, n):
        angles = rng.uniform(0.0, 2 * math.pi, size=(layers, n, 3))
        x = rng.normal(size=(4, 1 << n))
        upstream = rng.normal(size=(4, n))
        upstream[1] = 0.0                        # a row that contributes nothing
        upstream[2] = np.abs(upstream[2])
        upstream[3] = -np.abs(upstream[3])
        final, kept = ansatz_sweep(amplitude_embed(x)[None], angles[None])
        grad = adjoint_gradient(final, kept, upstream[None])
        reference = sum(parameter_shift_gradient(row, angles, weights)
                        for row, weights in zip(x, upstream))
        assert grad.shape == (1,) + angles.shape
        np.testing.assert_allclose(grad[0], reference, atol=1e-12)
    with pytest.raises(DataError, match=r"upstream must be \(reps, rows, "):
        adjoint_gradient(final, kept, upstream[None, :, :-1])


def dense_ansatz_on(n: int, angles: np.ndarray, states: np.ndarray) -> np.ndarray:
    """`dense_ansatz(n, angles) @ states.T`, gate by gate, for widths where the
    whole dense unitary would be slow to build."""
    out = states.T
    for layer in range(angles.shape[0]):
        for q in range(n):
            out = dense_single(rot_matrix(*angles[layer, q]), n, q) @ out
        if n > 1:
            offset = entangler_offset(layer, n)
            for q in range(n):
                out = dense_cnot(n, q, (q + offset) % n) @ out
    return out.T


@pytest.mark.parametrize("n", (2, 3, 4, 5, 8))
def test_ansatz_matches_dense_oracle_with_n_layers(n, rng):
    """Every ring offset, folded into a one-block layer's factor (n <= 4) or
    gathered after two blocks of two to four qubits, against dense gates."""
    states = np.stack([random_state(rng, n) for _ in range(3)])
    angles = rng.uniform(-math.pi, math.pi, size=(n, n, 3))
    np.testing.assert_allclose(run_ansatz(states, angles), dense_ansatz_on(n, angles, states),
                               rtol=0, atol=1e-12)


@pytest.mark.parametrize("n", (4, 8))
def test_norm_preserved_after_hundreds_of_fused_layers(n, rng):
    states = amplitude_embed(rng.normal(size=(5, 1 << n)))
    out = run_ansatz(states, rng.uniform(0.0, 2 * math.pi, size=(400, n, 3)))
    np.testing.assert_allclose(np.sum(np.abs(out) ** 2, axis=1), 1.0, rtol=0, atol=1e-12)


@pytest.mark.parametrize("n", (1, 2, 3, 4, 8))
def test_rep_axis_sweeps_equal_the_per_rep_calls(n, rng):
    """Per-rep angles on a leading rep axis give each rep's own sweep,
    adjoint gradient and forward-only outputs bit for bit."""
    reps = 3
    angles = rng.uniform(0.0, 2 * math.pi, size=(reps, 2, n, 3))
    amps = amplitude_embed(rng.normal(size=(reps, 6, 1 << n)))
    upstream = rng.normal(size=(reps, 6, n))
    final, kept = ansatz_sweep(amps, angles)
    grad = adjoint_gradient(final, kept, upstream)
    shared = run_factors(amps[0], rep_factors(angles))
    assert final.shape == amps.shape and grad.shape == angles.shape
    assert shared.shape == (reps,) + amps.shape[1:]
    for rep in range(reps):
        one = slice(rep, rep + 1)
        alone, alone_kept = ansatz_sweep(amps[one], angles[one])
        np.testing.assert_array_equal(final[one], alone)
        np.testing.assert_array_equal(grad[one], adjoint_gradient(alone, alone_kept, upstream[one]))
        np.testing.assert_array_equal(shared[rep], run_ansatz(amps[0], angles[rep]))
    with pytest.raises(DataError, match=r"3 reps of angles need \(reps, rows, 2\^n\) amplitudes"):
        ansatz_sweep(amps[:2], angles)
    # the one-model layout, (rows, 2^n) amplitudes or (layers, n, 3) angles
    with pytest.raises(DataError, match=r"1 reps of angles need \(reps, rows, 2\^n\) amplitudes"):
        ansatz_sweep(amps[0], angles[:1])
    with pytest.raises(DataError, match=re.escape(f"angles must be (reps, layers, {n}, 3)")):
        ansatz_sweep(amps[:1], angles[0])


def test_state_vector_validation():
    state = amplitude_embed(np.ones(4))
    # angles that do not fit the width, and angles that are not (layers, n, 3)
    for shape in ((2, 3, 3), (2, 2), (2, 2, 2), (1, 2, 2, 3)):
        with pytest.raises(DataError, match=re.escape(f"angles must be (layers, 2, 3), got {shape}")):
            run_ansatz(state, np.zeros(shape))
    with pytest.raises(InvariantViolation, match="input length 3 is not a power of two"):
        z_expectations(np.ones(3, dtype=complex))
    with pytest.raises(DataError, match=r"angles must be \(layers, n, 3\), got \(2, 3\)"):
        QuantumModelParams(np.zeros((2, 3)), np.zeros(3))
