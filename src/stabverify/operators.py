"""Dense operator algebra: Pauli matrices, state vectors, partial transpose,
Hermitian eigendecomposition, purity/fidelity/entropy.

Matrices and state vectors are plain complex numpy arrays.  Basis index bit
q-1 corresponds to qubit q, so tensor factors are assembled with qubit n as
the most significant Kronecker factor.
"""

from __future__ import annotations

from functools import reduce

import numpy as np

from . import kernels
from .pauli import Graph, LocalFrame, PauliString, stabilizer_group, transformed_generators

MAX_QUBITS_DENSE = 12

PAULI_1Q = {
    (0, 0): np.eye(2, dtype=np.complex128),
    (1, 0): np.array([[0, 1], [1, 0]], dtype=np.complex128),
    (0, 1): np.array([[1, 0], [0, -1]], dtype=np.complex128),
    (1, 1): np.array([[0, -1j], [1j, 0]], dtype=np.complex128),
}


def check_hermitian(op: np.ndarray, tol: float = 1e-12) -> np.ndarray:
    op = np.asarray(op, dtype=np.complex128)
    if op.ndim != 2 or op.shape[0] != op.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {op.shape}")
    dev = np.max(np.abs(op - op.conj().T))
    if dev > tol * max(1.0, np.max(np.abs(op))):
        raise ValueError(f"matrix is not Hermitian (deviation {dev:.2e})")
    return op


def num_qubits(dim: int) -> int:
    n = dim.bit_length() - 1
    if dim != 1 << n:
        raise ValueError(f"dimension {dim} is not a power of 2")
    return n


def pauli_to_matrix(p: PauliString) -> np.ndarray:
    """Dense matrix of a signed Pauli string (qubit 1 = least significant bit)."""
    if p.n > MAX_QUBITS_DENSE:
        raise ValueError(f"dense representation capped at {MAX_QUBITS_DENSE} qubits")
    mats = [
        PAULI_1Q[((p.x >> (q - 1)) & 1, (p.z >> (q - 1)) & 1)]
        for q in range(p.n, 0, -1)
    ]
    return p.sign * reduce(np.kron, mats)


def _frame_unitary_1q(image_x, image_z) -> np.ndarray:
    """2x2 unitary u with u X u^dag = image_x and u Z u^dag = image_z."""
    A = image_x[2] * PAULI_1Q[(image_x[0], image_x[1])]
    B = image_z[2] * PAULI_1Q[(image_z[0], image_z[1])]
    w, V = np.linalg.eig(B)  # B is a +/-1 involution
    b = V[:, np.argmax(w.real)]
    b = b / np.linalg.norm(b)
    return np.column_stack([b, A @ b])


def _apply_1q(vec: np.ndarray, u: np.ndarray, qubit: int, n: int) -> np.ndarray:
    t = vec.reshape([2] * n)
    axis = n - qubit  # axis 0 is qubit n
    t = np.tensordot(u, t, axes=([1], [axis]))
    t = np.moveaxis(t, 0, axis)
    return t.reshape(-1)


def graph_state_vector(graph: Graph, frame: LocalFrame | None = None) -> np.ndarray:
    """The joint +1 eigenvector of the (frame-transformed) generators.

    Built as the CZ circuit on |+...+> followed by the per-qubit frame
    unitaries; the global phase is fixed by making the largest-magnitude
    amplitude real positive.
    """
    n = graph.n
    if n > MAX_QUBITS_DENSE:
        raise ValueError(f"dense representation capped at {MAX_QUBITS_DENSE} qubits")
    dim = 1 << n
    vec = np.full(dim, 1.0 / np.sqrt(dim), dtype=np.complex128)
    idx = np.arange(dim)
    for a, b in graph.edges:
        both = ((idx >> (a - 1)) & 1) & ((idx >> (b - 1)) & 1)
        vec = vec * (1.0 - 2.0 * both)
    if frame is not None and not frame.is_identity():
        if frame.n != n:
            raise ValueError("frame size does not match graph")
        for q in range(1, n + 1):
            ix, iz = frame.images[q - 1]
            if (ix, iz) == ((1, 0, 1), (0, 1, 1)):
                continue
            vec = _apply_1q(vec, _frame_unitary_1q(ix, iz), q, n)
    j0 = int(np.argmax(np.abs(vec)))
    phase = vec[j0] / abs(vec[j0])
    return vec * np.conj(phase)


def partial_transpose(op: np.ndarray, subset, n: int | None = None) -> np.ndarray:
    """Transpose the listed qubits (1-based) of a dense operator."""
    op = np.asarray(op)
    if n is None:
        n = num_qubits(op.shape[0])
    subset = set(subset)
    if not subset <= set(range(1, n + 1)):
        raise ValueError(f"subset {sorted(subset)} outside qubits 1..{n}")
    if not subset:
        return op.copy()
    t = op.reshape([2] * (2 * n))
    perm = list(range(2 * n))
    for q in subset:
        i, j = n - q, 2 * n - q
        perm[i], perm[j] = perm[j], perm[i]
    return t.transpose(perm).reshape(op.shape)


def eig_hermitian(op: np.ndarray):
    """Eigenvalues (ascending) and orthonormal eigenvectors of a Hermitian matrix.

    LAPACK ``eigh`` on the complex128 matrix; rejects non-Hermitian input.
    """
    return np.linalg.eigh(check_hermitian(op, tol=1e-10))


def eigvals_hermitian(op: np.ndarray) -> np.ndarray:
    return eig_hermitian(op)[0]


def purity(op: np.ndarray) -> float:
    """tr(op^2) for Hermitian op, computed entrywise."""
    op = np.asarray(op)
    return float(np.vdot(op, op).real)


def fidelity_pure(op: np.ndarray, vec: np.ndarray) -> float:
    """<v|op|v> for a unit vector v."""
    vec = np.asarray(vec)
    return float(np.vdot(vec, np.asarray(op) @ vec).real)


def trace_inner(a: np.ndarray, b: np.ndarray) -> float:
    """tr(a b) for Hermitian a, b (real symmetric inner product)."""
    return float(np.vdot(np.asarray(a), np.asarray(b)).real)


def von_neumann_entropy(op: np.ndarray, tol: float = 1e-9) -> float:
    """Base-2 entropy of a density operator; 0 log 0 = 0."""
    w = eigvals_hermitian(op)
    if w[0] < -tol:
        raise ValueError(f"negative eigenvalue {w[0]:.3e} in entropy input")
    return shannon_entropy(np.clip(w, 0.0, None))


def shannon_entropy(p: np.ndarray) -> float:
    """Base-2 entropy of a probability vector; 0 log 0 = 0."""
    p = np.asarray(p, dtype=float)
    nz = p[p > 0]
    return float(-(nz * np.log2(nz)).sum())


def graph_diagonal_operator(
    weights: np.ndarray, graph: Graph, frame: LocalFrame | None = None
) -> np.ndarray:
    """Dense sum_j weights_j |j><j| over the (framed) graph basis.

    Assembled through the stabilizer expansion 2^-n sum_k m_k S_k with
    m = forward Walsh transform of the weights.
    """
    n = graph.n
    weights = np.asarray(weights, dtype=float)
    if weights.size != 1 << n:
        raise ValueError("weight vector length must be 2^n")
    frame = frame or LocalFrame.identity(n)
    group = stabilizer_group(transformed_generators(graph, frame))
    m = kernels.fwht(weights.astype(np.float64))
    rho = np.zeros((1 << n, 1 << n), dtype=np.complex128)
    for k, s in enumerate(group):
        if m[k] != 0.0:
            rho += m[k] * pauli_to_matrix(s)
    return rho / (1 << n)


def stabilizer_expectations(vec: np.ndarray, group: list[PauliString]) -> np.ndarray:
    """<v|S_k|v> for every group element (dense matrices; small n only)."""
    out = np.empty(len(group))
    for k, s in enumerate(group):
        out[k] = fidelity_pure(pauli_to_matrix(s), vec)
    return out
