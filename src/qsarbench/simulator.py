"""Exact statevector simulation of the variational circuit.

Conventions, asserted by the test suite:

* qubit 0 is the most significant bit of the basis index;
* RZ(t) = diag(exp(-it/2), exp(+it/2)), RY(t) = [[cos t/2, -sin t/2],
  [sin t/2, cos t/2]];
* a three-angle rotation applies RZ(alpha), then RY(beta), then RZ(gamma);
* an ansatz layer is one rotation per qubit followed by a ring of CNOTs
  with target offset (layer mod max(n-1, 1)) + 1; single qubits skip the
  entanglers.

A state is its complex amplitude array and an ansatz its (layers, n, 3)
angle array.  The state functions (`amplitude_embed`, `run_ansatz`,
`z_expectations`) and the gate kernels take arbitrary leading batch axes, so
one state and a whole batch of circuit evaluations go through the same numpy
calls; the state functions read n from the amplitude width 2^n.
Measurements are exact expectations; there is no shot sampling.  Rotations
work on the amplitude array with stride arithmetic (`apply_single_array`),
and `rot_matrix` is the one builder of their unitaries.  A CNOT is an index
gather of the basis states (`apply_cnot_array`); a layer's CNOT ring is one
cached gather (`ring_permutation`), composed from the per-gate gathers.  The
circuit's order is written here only: the forward sweep `run_ansatz`, the
adjoint sweep `adjoint_gradient` that walks it backwards for the trainer's
angle gradients, and the parameter-shift reference
`parameter_shift_gradient`.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import DataError, InvariantViolation

__all__ = [
    "amplitude_embed",
    "apply_single_array",
    "apply_cnot_array",
    "run_ansatz",
    "z_expectations",
    "parameter_shift_gradient",
    "adjoint_gradient",
    "entangler_offset",
]

ZERO_NORM_THRESHOLD = 1e-12
DEFAULT_LAYERS = 2


def _n_qubits(width: int) -> int:
    """The qubit count n of an amplitude width 2^n."""
    if width < 2 or width & (width - 1):
        raise InvariantViolation(f"input length {width} is not a power of two >= 2")
    return width.bit_length() - 1


def amplitude_embed(x: np.ndarray) -> np.ndarray:
    """Normalize rows of width 2^n into (complex) amplitude vectors.

    A row with norm below 1e-12 embeds as the uniform state.
    """
    x = np.asarray(x, dtype=np.float64)
    size = x.shape[-1]
    _n_qubits(size)
    norms = np.sqrt(np.sum(x * x, axis=-1, keepdims=True))
    zero = norms < ZERO_NORM_THRESHOLD
    amps = np.where(zero, 1.0 / math.sqrt(size), x / np.where(zero, 1.0, norms))
    return amps.astype(np.complex128)


def rz_matrix(theta: float) -> np.ndarray:
    return np.array(
        [[np.exp(-0.5j * theta), 0.0], [0.0, np.exp(0.5j * theta)]], dtype=np.complex128
    )


def ry_matrix(theta: float) -> np.ndarray:
    c = math.cos(theta / 2.0)
    s = math.sin(theta / 2.0)
    return np.array([[c, -s], [s, c]], dtype=np.complex128)


def rot_matrix(alpha, beta, gamma) -> np.ndarray:
    """Unitary of RZ(gamma) . RY(beta) . RZ(alpha), for angles of any common
    shape S: the result has shape S + (2, 2)."""
    alpha, beta, gamma = (np.asarray(t, dtype=np.float64) for t in (alpha, beta, gamma))
    diagonal = np.cos(beta / 2.0) * np.exp(-0.5j * (alpha + gamma))   # u[0, 0]
    off = np.sin(beta / 2.0) * np.exp(0.5j * (alpha - gamma))         # -u[0, 1]
    u = np.empty(diagonal.shape + (2, 2), dtype=np.complex128)
    u[..., 0, 0] = diagonal
    u[..., 0, 1] = -off
    np.conjugate(off, out=u[..., 1, 0])
    np.conjugate(diagonal, out=u[..., 1, 1])
    return u


def rot_matrix_derivatives(alpha, beta, gamma) -> tuple[np.ndarray, np.ndarray]:
    """The rotation unitary and its three angle derivatives, for angles of any
    common shape S: the unitaries have shape S + (2, 2), the derivatives
    S + (3, 2, 2), ordered (alpha, beta, gamma).
    """
    u = rot_matrix(alpha, beta, gamma)
    # dRY(beta)/dbeta = RY(beta + pi) / 2, between the same two RZ gates
    d_beta = 0.5 * rot_matrix(alpha, np.add(beta, math.pi), gamma)
    half = np.array([-0.5j, 0.5j])
    # RZ(alpha) acts first, so its derivative scales the columns of u; RZ(gamma)
    # acts last and scales the rows
    derivatives = np.stack([u * half, d_beta, u * half[:, None]], axis=-3)
    return u, derivatives


def _check_qubit(qubit: int, n_qubits: int) -> None:
    if not 0 <= qubit < n_qubits:
        raise InvariantViolation(f"qubit {qubit} outside [0, {n_qubits})")


def apply_single_array(amps: np.ndarray, n_qubits: int, qubit: int, u: np.ndarray) -> np.ndarray:
    _check_qubit(qubit, n_qubits)
    pre = 1 << qubit
    post = 1 << (n_qubits - 1 - qubit)
    shape = amps.shape
    s = amps.reshape(shape[:-1] + (pre, 2, post))
    zero = s[..., 0, :]
    one = s[..., 1, :]
    out = np.empty_like(s)
    lo = out[..., 0, :]
    hi = out[..., 1, :]
    np.multiply(zero, u[0, 0], out=lo)
    lo += u[0, 1] * one
    np.multiply(zero, u[1, 0], out=hi)
    hi += u[1, 1] * one
    return out.reshape(shape)


def apply_cnot_array(amps: np.ndarray, n_qubits: int, control: int, target: int) -> np.ndarray:
    _check_qubit(control, n_qubits)
    _check_qubit(target, n_qubits)
    if control == target:
        raise InvariantViolation("control and target must differ")
    if amps.shape[-1] != 1 << n_qubits:   # a gather would silently drop the rest
        raise DataError(f"{amps.shape[-1]} amplitudes for {n_qubits} qubits")
    basis = np.arange(1 << n_qubits)
    # the basis state with the target bit flipped wherever the control bit is set
    flip = ((basis >> (n_qubits - 1 - control)) & 1) << (n_qubits - 1 - target)
    return amps[..., basis ^ flip]


def entangler_offset(layer: int, n_qubits: int) -> int:
    """Ring CNOT target offset for a layer: cycles 1, 2, ..., n-1."""
    return (layer % max(n_qubits - 1, 1)) + 1


_RINGS: dict[tuple[int, int], tuple[np.ndarray, np.ndarray]] = {}


def ring_permutation(layer: int, n_qubits: int) -> tuple[np.ndarray, np.ndarray]:
    """Gather indices of a layer's CNOT ring and of its inverse.

    `amps[..., forward]` applies the ring and `amps[..., inverse]` undoes it.
    Built once per (offset, n) by running the ring's CNOTs on the basis
    indices themselves, then cached read-only.
    """
    offset = entangler_offset(layer, n_qubits)
    ring = _RINGS.get((offset, n_qubits))
    if ring is None:
        forward = np.arange(1 << n_qubits)
        for q in range(n_qubits):
            forward = apply_cnot_array(forward, n_qubits, q, (q + offset) % n_qubits)
        inverse = np.argsort(forward)
        forward.setflags(write=False)
        inverse.setflags(write=False)
        ring = _RINGS[offset, n_qubits] = (forward, inverse)
    return ring


def _ansatz_angles(angles: np.ndarray, n_qubits: int) -> np.ndarray:
    angles = np.asarray(angles, dtype=np.float64)
    if angles.ndim != 3 or angles.shape[1:] != (n_qubits, 3):
        raise DataError(f"angles must be (layers, {n_qubits}, 3), got {angles.shape}")
    return angles


def run_ansatz(amps: np.ndarray, angles: np.ndarray) -> np.ndarray:
    """The ansatz's output amplitudes; `angles` is (layers, n, 3) in radians."""
    n_qubits = _n_qubits(amps.shape[-1])
    angles = _ansatz_angles(angles, n_qubits)
    u = rot_matrix(*angles.transpose(2, 0, 1))
    for layer in range(angles.shape[0]):
        for q in range(n_qubits):
            amps = apply_single_array(amps, n_qubits, q, u[layer, q])
        if n_qubits > 1:
            amps = amps[..., ring_permutation(layer, n_qubits)[0]]
    return amps


_Z_SIGNS: dict[int, np.ndarray] = {}


def z_sign_matrix(n_qubits: int) -> np.ndarray:
    """(2^n, n) matrix of +/-1: the Z eigenvalue of each basis state per qubit."""
    signs = _Z_SIGNS.get(n_qubits)
    if signs is None:
        basis = np.arange(1 << n_qubits)
        signs = np.empty((1 << n_qubits, n_qubits))
        for q in range(n_qubits):
            bit = (basis >> (n_qubits - 1 - q)) & 1
            signs[:, q] = 1.0 - 2.0 * bit
        signs.setflags(write=False)
        _Z_SIGNS[n_qubits] = signs
    return signs


def z_expectations(amps: np.ndarray) -> np.ndarray:
    """Exact <Z_q> for every qubit q, along the last axis."""
    probs = amps.real ** 2 + amps.imag ** 2
    return probs @ z_sign_matrix(_n_qubits(amps.shape[-1]))


def _qubit_overlap(b: np.ndarray, a: np.ndarray, n_qubits: int, qubit: int) -> np.ndarray:
    """The 2x2 overlap M of `adjoint_gradient` on `qubit`: its axis is moved
    first, then M is one (2, K) x (K, 2) product."""
    pre = a.shape[0] << qubit
    post = 1 << (n_qubits - 1 - qubit)
    a_t = a.reshape(pre, 2, post).transpose(1, 0, 2).reshape(2, -1)
    b_t = b.reshape(pre, 2, post).transpose(1, 0, 2).reshape(2, -1)
    return b_t.conj() @ a_t.T


def adjoint_gradient(final: np.ndarray, n_qubits: int, angles: np.ndarray,
                     upstream: np.ndarray) -> np.ndarray:
    """Gradient of sum_rows sum_q upstream[row, q] * <Z_q> w.r.t. every angle.

    `final` holds the circuit's (B, 2^n) output states, `upstream` the
    (B, n) weights; the result has the shape of `angles`.  This is the
    contract of `parameter_shift_gradient` summed over rows, computed with
    one backward sweep (Jones & Gacon, arXiv:2009.02823).  The weighted sum
    is <psi|O|psi> with a diagonal per-row observable O, so the adjoint
    state `b` starts as O|final>.  The sweep un-applies each layer's CNOT
    ring (one inverse gather) and each rotation U (all gates are unitary),
    keeping `a`, the state just before U, and `b`, the adjoint state just
    after it.  An angle's gradient is 2*Re(<b|dU|a>), and since dU acts on
    one qubit, <b|dU|a> = sum_ij dU[i, j] * M[i, j] with the 2x2 overlap
    M[i, j] = sum of conj(b) * a over the amplitudes whose qubit is i in b
    and j in a, summed over the batch and the other qubits.  One M per
    rotation thus serves its three angles.
    """
    if upstream.shape != (final.shape[0], n_qubits):
        raise DataError(f"upstream must be (rows, {n_qubits}), got {upstream.shape}")
    a = final
    b = (upstream @ z_sign_matrix(n_qubits).T) * a
    u, derivatives = rot_matrix_derivatives(*angles.transpose(2, 0, 1))
    u_dag = u.conj().swapaxes(-1, -2)
    overlaps = np.empty(angles.shape[:2] + (2, 2), dtype=np.complex128)
    for layer in reversed(range(angles.shape[0])):
        if n_qubits > 1:
            inverse = ring_permutation(layer, n_qubits)[1]
            a = a[:, inverse]
            b = b[:, inverse]
        for q in reversed(range(n_qubits)):
            a = apply_single_array(a, n_qubits, q, u_dag[layer, q])   # state before this gate
            overlaps[layer, q] = _qubit_overlap(b, a, n_qubits, q)
            b = apply_single_array(b, n_qubits, q, u_dag[layer, q])
    return 2.0 * np.einsum("lncij,lnij->lnc", derivatives, overlaps).real


def parameter_shift_gradient(x: np.ndarray, angles: np.ndarray,
                             upstream: np.ndarray) -> np.ndarray:
    """Gradient of sum_q upstream[q] * <Z_q> w.r.t. every rotation angle,
    for one input vector `x`; the result has the shape of `angles`.

    Uses the exact two-point rule: d<Z>/dtheta = (<Z>(theta + pi/2)
    - <Z>(theta - pi/2)) / 2, valid because every parametrized gate is an
    RY or RZ rotation.
    """
    upstream = np.asarray(upstream, dtype=np.float64)
    amps = amplitude_embed(x)
    n_qubits = amps.shape[-1].bit_length() - 1
    if amps.ndim != 1 or upstream.shape != (n_qubits,):
        raise DataError(f"expected one input vector and one upstream entry per qubit, "
                        f"got shapes {amps.shape} and {upstream.shape}")
    angles = _ansatz_angles(angles, n_qubits)

    def shifted_z(index: tuple[int, ...], delta: float) -> np.ndarray:
        shifted = angles.copy()
        shifted[index] += delta
        return z_expectations(run_ansatz(amps, shifted))

    grad = np.zeros_like(angles)
    for index in np.ndindex(angles.shape):
        z_plus = shifted_z(index, +math.pi / 2)
        z_minus = shifted_z(index, -math.pi / 2)
        grad[index] = upstream @ (z_plus - z_minus) / 2.0
    return grad
