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
`z_expectations`) take arbitrary leading batch axes, so one state and a
whole batch of circuit evaluations go through the same numpy calls; they
read n from the amplitude width 2^n.  Measurements are exact expectations;
there is no shot sampling.  `rot_matrix` is the one builder of the rotation
unitaries.  A layer's rotations act on distinct qubits and commute, so the
sweeps fuse them (gate fusion as in Haener & Steiger, arXiv:1704.01127):
the qubits split into as few contiguous blocks of at most BLOCK_WIDTH as
possible (`block_widths`), and each block's rotations form one Kronecker
factor (`layer_factors`).  A circuit of at most BLOCK_WIDTH qubits is one
block: its 2^n x 2^n factor has the layer's CNOT ring folded in (its rows
permuted by the ring), so a layer is one product of the rows with it, and
one product with its conjugate undoes the layer.  A wider circuit applies a
layer as one matrix product per block on the state viewed as a tensor with
one mode per block, a mode product in the sense of Kolda & Bader (SIAM
Review 2009) (`apply_layer`), and then its CNOT ring, one cached index
gather of the basis states (`ring_permutation`) composed from the per-gate
gathers (`apply_cnot_array`).  A lone row is multiplied as one of two equal
rows (`_rows_times`), in a layer's product and in `z_expectations`, so one
state takes the same BLAS path alone as inside a batch.  The per-gate kernels
`apply_single_array` and `apply_cnot_array` serve as references and for
single gates; the sweeps call neither, though `ring_permutation` builds
its gathers with `apply_cnot_array`.  The circuit's order is written here
only: the forward sweep `ansatz_sweep` (and `run_ansatz`), the adjoint
sweep `adjoint_gradient` that walks it backwards a layer at a time with the
forward sweep's factors, and the parameter-shift reference
`parameter_shift_gradient`.  The adjoint sweep keeps one overlap per qubit
block and layer, takes every qubit's 2x2 share of them with one product by
a cached 0/1 partial-trace matrix (`partial_trace_matrix`,
`qubit_overlaps`), and reads the trainer's angle gradients off those in
closed form.

The sweeps take one layout, the trainer's rep axis: (reps, layers, n, 3)
angles build per-rep (reps, layers, 2^w, 2^w) factors (`rep_factors`), and
every layer product, CNOT gather, block overlap and partial trace is one
stacked call over the reps, each rep's arithmetic that of its own sweep;
one model is one rep.  `ansatz_sweep` keeps its angles, each layer's input
and the layer factors for the adjoint sweep; `run_factors` runs every rep's
factors, built once, on the same rows (as the trainer scores its test rows
in chunks), forward only, keeping none, and `run_ansatz` is it for one
(layers, n, 3) ansatz.
"""

from __future__ import annotations

import functools
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
BLOCK_WIDTH = 4   # widest qubit block, and widest circuit whose ring folds into its layer factor
DEFAULT_LAYERS = 2


def _n_qubits(width: int) -> int:
    """The qubit count n of an amplitude width 2^n."""
    if width < 2 or width & (width - 1):
        raise InvariantViolation(f"input length {width} is not a power of two >= 2")
    return width.bit_length() - 1


def amplitude_embed(x: np.ndarray) -> np.ndarray:
    """Normalize rows of width 2^n into (complex) amplitude vectors.

    A row with norm below 1e-12 embeds as the uniform state.  The quotients
    are written straight into the real parts of the one complex result.
    """
    x = np.asarray(x, dtype=np.float64)
    size = x.shape[-1]
    _n_qubits(size)
    norms = np.sqrt(np.sum(x * x, axis=-1, keepdims=True))
    zero = norms < ZERO_NORM_THRESHOLD
    amps = np.zeros(x.shape, dtype=np.complex128)
    np.divide(x, np.where(zero, 1.0, norms), out=amps.real)
    np.copyto(amps.real, 1.0 / math.sqrt(size), where=zero)
    return amps


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


def ring_permutation(layer: int, n_qubits: int) -> tuple[np.ndarray, np.ndarray]:
    """Gather indices of a layer's CNOT ring and of its inverse.

    `amps[..., forward]` applies the ring and `amps[..., inverse]` undoes it.
    Built once per (offset, n) by running the ring's CNOTs on the basis
    indices themselves, then cached read-only.
    """
    return _ring(entangler_offset(layer, n_qubits), n_qubits)


@functools.cache
def _ring(offset: int, n_qubits: int) -> tuple[np.ndarray, np.ndarray]:
    forward = np.arange(1 << n_qubits)
    for q in range(n_qubits):
        forward = apply_cnot_array(forward, n_qubits, q, (q + offset) % n_qubits)
    inverse = np.argsort(forward)
    forward.setflags(write=False)
    inverse.setflags(write=False)
    return forward, inverse


def _ansatz_angles(angles: np.ndarray, n_qubits: int) -> np.ndarray:
    angles = np.asarray(angles, dtype=np.float64)
    if angles.ndim != 3 or angles.shape[1:] != (n_qubits, 3):
        raise DataError(f"angles must be (layers, {n_qubits}, 3), got {angles.shape}")
    return angles


def block_widths(n_qubits: int) -> tuple[int, ...]:
    """Widths of the contiguous qubit blocks of a fused layer, qubit 0's first.

    As few blocks as BLOCK_WIDTH allows, widths as equal as possible: a
    circuit of at most BLOCK_WIDTH qubits is one block, whose factor is the
    whole layer, CNOT ring included (`layer_factors`).
    """
    blocks = -(-n_qubits // BLOCK_WIDTH)
    return tuple(n_qubits // blocks + (i < n_qubits % blocks) for i in range(blocks))


def layer_factors(u: np.ndarray) -> list[np.ndarray]:
    """The Kronecker factors of every layer: per block, the (..., layers, 2^w, 2^w)
    product of its qubits' rotations `u` (..., layers, n, 2, 2), qubit 0 most
    significant.

    A layer of one block from n = 2 on has its CNOT ring folded in: the
    factor's rows are permuted by the layer's `ring_permutation`, so it is
    the ring times the rotations, and its conjugate transpose undoes both.
    """
    n_qubits, layers = u.shape[-3], u.shape[-4]
    factors, first = [], 0
    for width in block_widths(n_qubits):
        factor = u[..., first, :, :]
        for q in range(first + 1, first + width):
            size = 2 * factor.shape[-1]
            factor = (factor[..., :, None, :, None] * u[..., q, None, :, None, :]
                      ).reshape(u.shape[:-3] + (size, size))
        factors.append(factor)
        first += width
    if len(factors) == 1 and n_qubits > 1:
        factors[0] = factors[0][(..., *_ring_rows(layers, n_qubits), slice(None))]
    return factors


@functools.cache
def _ring_rows(layers: int, n_qubits: int) -> tuple[np.ndarray, np.ndarray]:
    """The (layers, 1) layer index and (layers, 2^n) ring gathers that
    permute the rows of every layer's factor by its CNOT ring, cached
    read-only."""
    index = np.arange(layers)[:, None]
    rings = np.stack([ring_permutation(layer, n_qubits)[0] for layer in range(layers)])
    for part in (index, rings):
        part.setflags(write=False)
    return index, rings


def _rows_times(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """`a @ b`, with a lone row of `a` multiplied as a two-row product.

    numpy sends a one-row product down BLAS's matrix-vector path, which sums
    in another order than the matrix-matrix path a batch takes, so a state
    alone would differ in its last bits from the same state in a batch.  As
    one of two equal rows it takes the batch's path.  That path sums a row
    alike wherever it sits in the batch under OpenBLAS's SkylakeX kernel;
    other kernels (Haswell, Sandybridge) may sum a row in a one-row tail
    differently.
    """
    if a.ndim > 1 and a.shape[-2] != 1:
        return a @ b
    pair = np.repeat(np.atleast_2d(a), 2, axis=-2) @ b
    return pair[..., 0, :].reshape(a.shape[:-1] + pair.shape[-1:])


def apply_layer(x: np.ndarray, factors: list[np.ndarray]) -> np.ndarray:
    """One layer's rotations: the Kronecker `factors` (..., 2^w, 2^w) of its
    qubit blocks, each applied as one mode product, on a batch-last
    (..., 2^n, rows) state; the result is batch-first, (..., rows, 2^n).
    Leading axes, such as the sweeps' rep axis, pair each state with its
    own factors.

    Viewed as a tensor, the state's modes are the qubit blocks, qubit 0's
    first, then the rows.  Each product `x.reshape(d, -1).T @ K.T` applies
    the first mode's factor and moves that mode to the back, so once every
    block is applied the rows lead, and no product copies a transposed
    state.  A leading axis makes each product a stack of the same matrix
    products.  The sweeps apply a layer of two or more blocks this way, so
    each product has two or more rows even for one state, and a state
    alone is summed in the same order as inside a batch; a one-block layer
    is one product of the rows with its factor (`_sweep`).
    """
    lead, width = x.shape[:-2], x.shape[-2]
    for factor in factors:
        x = x.reshape(lead + (factor.shape[-1], -1)).swapaxes(-1, -2) @ factor.swapaxes(-1, -2)
    return x.reshape(lead + (-1, width))


def _rep_angles(angles: np.ndarray, n_qubits: int) -> np.ndarray:
    angles = np.asarray(angles, dtype=np.float64)
    if angles.ndim != 4 or angles.shape[2:] != (n_qubits, 3):
        raise DataError(f"angles must be (reps, layers, {n_qubits}, 3), got {angles.shape}")
    return angles


def rep_factors(angles: np.ndarray) -> list[np.ndarray]:
    """Each block's (reps, layers, 2^w, 2^w) factors of (reps, layers, n, 3) angles."""
    return layer_factors(rot_matrix(angles[..., 0], angles[..., 1], angles[..., 2]))


def _rep_index(reps: int) -> np.ndarray:
    """The (reps, 1) index that makes `x[_rep_index(len(x)), perm]` gather each
    rep's rows `perm` of a (reps, a, b) array into one C-ordered
    (reps, len(perm), b) array; `x[:, perm]` would order it perm-first, and
    the next layer would copy it again."""
    return np.arange(reps)[:, None]


def _sweep(x: np.ndarray, factors: list[np.ndarray], inputs: list | None = None) -> np.ndarray:
    """The forward sweep of a batch-first (reps, rows, 2^n) state through
    every layer of the (reps, layers, ...) `factors`; the result is
    batch-first too.  Each layer's input is appended to `inputs` when a
    list is given: batch-first for one block, batch-last for more.

    A one-block layer is one product of the rows with its factor, which
    holds the ring.  With two or more blocks a layer is `apply_layer`
    followed by its CNOT ring, one gather that also returns the state to
    batch-last.
    """
    if len(factors) == 1:
        transposed = factors[0].swapaxes(-1, -2)
        for layer in range(transposed.shape[1]):
            if inputs is not None:
                inputs.append(x)
            x = _rows_times(x, transposed[:, layer])
        return x
    n_qubits = _n_qubits(x.shape[-1])
    rep_index = _rep_index(len(x))
    x = x.swapaxes(1, 2)
    for layer in range(factors[0].shape[1]):
        if inputs is not None:
            inputs.append(x)
        x = apply_layer(x, [factor[:, layer] for factor in factors]).swapaxes(1, 2)
        x = x[rep_index, ring_permutation(layer, n_qubits)[0]]
    return x.swapaxes(1, 2)


def ansatz_sweep(amps: np.ndarray, angles: np.ndarray) -> tuple[np.ndarray, tuple]:
    """The ansatz's (reps, rows, 2^n) output amplitudes, and `kept`, what
    `adjoint_gradient` needs of the sweep: its angles, each layer's input
    state and the layer factors.

    (reps, layers, n, 3) angles act on (reps, rows, 2^n) amplitudes, rep r's
    angles on rep r's rows.
    """
    n_qubits = _n_qubits(amps.shape[-1])
    angles = _rep_angles(angles, n_qubits)
    if amps.ndim != 3 or len(amps) != len(angles):
        raise DataError(f"{len(angles)} reps of angles need (reps, rows, 2^n) amplitudes, "
                        f"got {amps.shape}")
    factors = rep_factors(angles)
    inputs: list[np.ndarray] = []
    final = _sweep(amps, factors, inputs)
    return final, (angles, inputs, factors)


def run_ansatz(amps: np.ndarray, angles: np.ndarray) -> np.ndarray:
    """The ansatz's output amplitudes, for states of any leading shape;
    `angles` is (layers, n, 3) in radians.  `run_factors` with one rep."""
    angles = _ansatz_angles(angles, _n_qubits(amps.shape[-1]))
    rows = amps.reshape(-1, amps.shape[-1])
    return run_factors(rows, rep_factors(angles[None]))[0].reshape(amps.shape)


def run_factors(amps: np.ndarray, factors: list[np.ndarray]) -> np.ndarray:
    """Every rep's ansatz on the same rows: (rows, 2^n) amplitudes and the
    (reps, layers, ...) `rep_factors` give the (reps, rows, 2^n) outputs, so
    that one build of the factors serves any number of row chunks.  Forward
    only: no layer's input is kept."""
    return _sweep(np.broadcast_to(amps, (len(factors[0]),) + amps.shape), factors)


@functools.cache
def z_sign_matrix(n_qubits: int) -> np.ndarray:
    """(2^n, n) matrix of +/-1: the Z eigenvalue of each basis state per qubit,
    cached read-only."""
    basis = np.arange(1 << n_qubits)
    signs = np.empty((1 << n_qubits, n_qubits))
    for q in range(n_qubits):
        bit = (basis >> (n_qubits - 1 - q)) & 1
        signs[:, q] = 1.0 - 2.0 * bit
    signs.setflags(write=False)
    return signs


def z_expectations(amps: np.ndarray) -> np.ndarray:
    """Exact <Z_q> for every qubit q, along the last axis.  A lone state is
    summed as inside a batch (`_rows_times`), so both give the same bits."""
    probs = amps.real ** 2 + amps.imag ** 2
    return _rows_times(probs, z_sign_matrix(_n_qubits(amps.shape[-1])))


@functools.cache
def partial_trace_matrix(widths: tuple[int, ...]) -> np.ndarray:
    """The (4n, S) 0/1 matrix of the partial traces of qubit blocks of
    `widths`, cached read-only.

    Times the blocks' (2^w, 2^w) overlaps, each flattened and stacked in
    block order (S = sum of 4^w rows), it gives every qubit's flattened 2x2
    overlap, qubit 0's first: entry [q, i, j] sums the block entries whose
    row has qubit q at i and column at j, and whose row and column agree on
    the block's other qubits.
    """
    n_qubits = sum(widths)
    trace = np.zeros((n_qubits, 2, 2, sum(1 << 2 * w for w in widths)))
    qubit = start = 0
    for width in widths:
        size = 1 << width
        row, col = np.divmod(np.arange(size * size), size)
        for shift in reversed(range(width)):   # the block's qubits, most significant first
            match = np.flatnonzero(((row ^ col) | (1 << shift)) == 1 << shift)
            trace[qubit, (row[match] >> shift) & 1, (col[match] >> shift) & 1, start + match] = 1.0
            qubit += 1
        start += size * size
    trace = trace.reshape(4 * n_qubits, -1)
    trace.setflags(write=False)
    return trace


def qubit_overlaps(blocks: np.ndarray, widths: tuple[int, ...]) -> np.ndarray:
    """Every qubit's 2x2 overlap, (..., n, 2, 2), from the flattened block
    overlaps `blocks` (..., S), stacked as in `partial_trace_matrix`.  Each
    leading index is one real product, with the real and imaginary parts as
    two columns, so its bits do not depend on the other leading indices."""
    parts = blocks.view(np.float64).reshape(blocks.shape + (2,))
    traced = partial_trace_matrix(widths) @ parts
    return traced.view(np.complex128).reshape(blocks.shape[:-1] + (sum(widths), 2, 2))


def adjoint_gradient(final: np.ndarray, kept: tuple, upstream: np.ndarray) -> np.ndarray:
    """Gradient of sum_rows sum_q upstream[rep, row, q] * <Z_q> w.r.t. every
    angle of every rep.

    `final` and `kept` (the sweep's angles, each layer's input state and the
    layer factors) come from one `ansatz_sweep`; `upstream` holds the
    (reps, rows, n) weights, and the result has the shape of the kept
    (reps, layers, n, 3) angles.  Per rep this is the contract of
    `parameter_shift_gradient` summed over rows, computed with one backward
    sweep (Jones & Gacon, arXiv:2009.02823) that takes a whole layer at a
    time, for every rep at once.  The weighted sum is <psi|O|psi> with a
    diagonal per-row observable O, so the adjoint state `b` starts as
    O|final>.  Per layer, the sweep un-applies the layer, giving
    c = U^dagger b: a one-block layer with one product by its conjugate
    factor, which also undoes the ring, and a wider one with its inverse
    ring gather and `apply_layer` on the conjugate-transposed kept block
    factors.  The rotations act on distinct qubits and commute, so an angle
    of qubit q's rotation u has the gradient
    g = 2 Re sum_ij (u^dagger du)[i, j] N[i, j], with s the layer's input
    and N the 2x2 overlap N[i, j] = sum of conj(c) * s over the amplitudes
    whose qubit q is i in c and j in s, summed over the batch and the other
    qubits: a partial trace of its block's (2^w, 2^w) overlap c^H s, one
    product per block and layer.  Every layer's block overlaps are kept, and
    one product takes all their partial traces (`qubit_overlaps`).  The
    generators u^dagger du are Paulis (Schuld et al., PRA 99, 2019), so with
    p = exp(i alpha) each g is closed-form in N and no derivative is built:
      alpha: u^dagger du = -(i/2) Z,  g = Im(N00 - N11);
      beta:  u^dagger du = -(i/2) RZ(alpha)^dagger Y RZ(alpha),
             g = Re(conj(p) N10 - p N01)
               = cos alpha Re(N10 - N01) + sin alpha Im(N01 + N10);
      gamma: u^dagger du = -(i/2) RZ(alpha)^dagger (cos beta Z - sin beta X) RZ(alpha),
             g = cos beta g_alpha - sin beta Im(p N01 + conj(p) N10),
             where Im(p N01 + conj(p) N10)
               = cos alpha Im(N01 + N10) - sin alpha Re(N10 - N01).
    """
    angles, inputs, factors = kept
    n_qubits = _n_qubits(final.shape[-1])
    reps, layers = angles.shape[:2]
    if upstream.shape != final.shape[:-1] + (n_qubits,):
        raise DataError(f"upstream must be (reps, rows, {n_qubits}), got {upstream.shape}")
    widths = block_widths(n_qubits)
    b = (upstream @ z_sign_matrix(n_qubits).T) * final
    blocks = np.empty((reps, layers, sum(1 << 2 * w for w in widths)), dtype=np.complex128)
    if len(factors) == 1:
        undo = factors[0].conj()   # each row times conj(F) is F^dagger applied to it
        size = 1 << n_qubits
        for layer in reversed(range(layers)):
            b = _rows_times(b, undo[:, layer])
            np.matmul(b.conj().swapaxes(1, 2), inputs[layer],
                      out=blocks[:, layer].reshape(reps, size, size))
    else:
        undo = [factor.conj().swapaxes(-1, -2) for factor in factors]
        rep_index = _rep_index(reps)
        for layer in reversed(range(layers)):
            b = b.swapaxes(1, 2)[rep_index, ring_permutation(layer, n_qubits)[1]]
            b = apply_layer(b, [factor[:, layer] for factor in undo])
            batch_last = b.swapaxes(1, 2)   # as the kept input
            c = np.conjugate(batch_last, out=np.empty(batch_last.shape, dtype=b.dtype))
            first = start = 0
            for width in widths:
                # the block's mode between the qubits before it and the rest
                shape, size = (reps, 1 << first, 1 << width, -1), 1 << width
                np.sum(c.reshape(shape) @ inputs[layer].reshape(shape).swapaxes(-1, -2), axis=1,
                       out=blocks[:, layer, start:start + size * size].reshape(reps, size, size))
                first += width
                start += size * size
    overlaps = qubit_overlaps(blocks, widths)   # (reps, layers, n, 2, 2)
    n01, n10 = overlaps[..., 0, 1], overlaps[..., 1, 0]
    cos, sin = np.cos(angles[..., :2]), np.sin(angles[..., :2])
    im_sum = n01.imag + n10.imag       # Im(N01 + N10)
    re_diff = n10.real - n01.real      # Re(N10 - N01)
    grad = np.empty(angles.shape)
    np.subtract(overlaps[..., 0, 0].imag, overlaps[..., 1, 1].imag, out=grad[..., 0])
    grad[..., 1] = cos[..., 0] * re_diff + sin[..., 0] * im_sum
    grad[..., 2] = (cos[..., 1] * grad[..., 0]
                    - sin[..., 1] * (cos[..., 0] * im_sum - sin[..., 0] * re_diff))
    return grad


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
