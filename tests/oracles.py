"""Reference implementations that the simulator tests check against.

The per-gate kernels apply one rotation or one CNOT to amplitude arrays of
any leading shape, qubit 0 the most significant bit of the basis index.  The
dense-matrix oracle builds each gate, and a whole ansatz, as its explicit
2^n x 2^n unitary, with the circuit's gate order written out one gate at a
time.  The package runs neither: its sweeps fuse a layer's rotations and
apply a CNOT ring as one cached gather (`qsarbench.simulator`).
"""

import math

import numpy as np

from qsarbench.errors import DataError, InvariantViolation
from qsarbench.simulator import entangler_offset, rot_matrix


# --- per-gate kernels ----------------------------------------------------------------

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
