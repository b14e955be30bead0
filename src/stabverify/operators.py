"""Dense operator algebra: graph-state vectors, graph-diagonal operators,
partial transpose, Hermitian eigendecomposition, purity, fidelity and
Shannon entropy.

Matrices and state vectors are plain complex numpy arrays.  Basis index bit
q-1 corresponds to qubit q, so tensor factors are assembled with qubit n as
the most significant Kronecker factor.  Graph-basis vectors and operators
come from the CZ signs, the frame's per-qubit unitaries and the weights'
Walsh transform; no stabilizer group or Pauli matrix is formed for them.
"""

from __future__ import annotations

import numpy as np

from . import kernels
from .pauli import Graph, LocalFrame

MAX_QUBITS_DENSE = 12

PAULI_1Q = {
    (0, 0): np.eye(2, dtype=np.complex128),
    (1, 0): np.array([[0, 1], [1, 0]], dtype=np.complex128),
    (0, 1): np.array([[1, 0], [0, -1]], dtype=np.complex128),
    (1, 1): np.array([[0, -1j], [1j, 0]], dtype=np.complex128),
}


def check_hermitian(op: np.ndarray, tol: float = 1e-12) -> np.ndarray:
    """op as complex128 if it is a Hermitian matrix or a (k, d, d) stack of
    them, each checked against its own largest entry; else a ValueError."""
    op = np.asarray(op, dtype=np.complex128)
    if op.ndim not in (2, 3) or op.shape[-1] != op.shape[-2]:
        raise ValueError(f"expected a square matrix or a stack of them, got shape {op.shape}")
    dev = np.abs(op - op.conj().swapaxes(-1, -2)).max(axis=(-2, -1))
    bad = dev > tol * np.maximum(1.0, np.abs(op).max(axis=(-2, -1)))
    if bad.any():
        raise ValueError(f"matrix is not Hermitian (deviation {dev[bad].max():.2e})")
    return op


def num_qubits(dim: int) -> int:
    n = dim.bit_length() - 1
    if dim != 1 << n:
        raise ValueError(f"dimension {dim} is not a power of 2")
    return n


def _dense_dim(n: int) -> int:
    if n > MAX_QUBITS_DENSE:
        raise ValueError(f"dense representation capped at {MAX_QUBITS_DENSE} qubits")
    return 1 << n


def _frame_unitary_1q(image_x, image_z) -> np.ndarray:
    """2x2 unitary u with u X u^dag = image_x and u Z u^dag = image_z.

    Its columns are b and A b, with b the +1 eigenvector of B = image_z.
    I + B is twice the projector onto it, a rank-one matrix, so b is its
    normalized nonzero column: real when B is +/-X or +/-Z.
    """
    A = image_x[2] * PAULI_1Q[(image_x[0], image_x[1])]
    B = image_z[2] * PAULI_1Q[(image_z[0], image_z[1])]
    P = np.eye(2) + B
    b = P[:, 0] if P[0, 0] != 0 else P[:, 1]  # P[0, 0] is 0 only for B = -Z
    b = b / np.linalg.norm(b)
    return np.column_stack([b, A @ b])


def _framed_graph_rows(a: np.ndarray, graph: Graph, frame: LocalFrame | None) -> np.ndarray:
    """U S a for a (2^n, k) array: each row x of a times the CZ sign
    (-1)^{|E(x)|}, then the frame's per-qubit unitaries U on the row index."""
    n = graph.n
    if frame is not None and frame.n != n:
        raise ValueError("frame size does not match graph")
    idx = np.arange(1 << n)
    sign = np.ones(1 << n)
    for u, v in graph.edges:
        sign *= 1.0 - 2.0 * ((idx >> (u - 1)) & (idx >> (v - 1)) & 1)
    a = a * sign[:, None]
    if frame is None or frame.is_identity():
        return a
    t = a.reshape([2] * n + [-1])
    for q, (ix, iz) in enumerate(frame.images, 1):
        axis = n - q  # axis 0 is qubit n
        t = np.moveaxis(np.tensordot(_frame_unitary_1q(ix, iz), t, axes=([1], [axis])), 0, axis)
    return t.reshape(a.shape)


def graph_state_vector(graph: Graph, frame: LocalFrame | None = None) -> np.ndarray:
    """The joint +1 eigenvector of the (frame-transformed) generators, U S |+...+>,
    with the largest-magnitude amplitude made real positive."""
    dim = _dense_dim(graph.n)
    plus = np.full((dim, 1), 1.0 / np.sqrt(dim), dtype=np.complex128)
    vec = _framed_graph_rows(plus, graph, frame)[:, 0]
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
    """Eigenvalues (ascending) and orthonormal eigenvectors of a Hermitian
    matrix, or of each matrix of a (k, d, d) stack.

    LAPACK ``eigh`` on complex128; rejects non-Hermitian input.
    """
    return np.linalg.eigh(check_hermitian(op, tol=1e-10))


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


def shannon_entropy(p: np.ndarray) -> float:
    """Base-2 entropy of a probability vector; 0 log 0 = 0."""
    p = np.asarray(p, dtype=float)
    nz = p[p > 0]
    return float(0.0 - (nz * np.log2(nz)).sum())  # 0.0, not -0.0, for a pure p


def graph_diagonal_operator(
    weights: np.ndarray, graph: Graph, frame: LocalFrame | None = None
) -> np.ndarray:
    """Dense sum_j weights_j |j><j| over the (framed) graph basis.

    With |j> = U Z^j |G> this is U S M S U^dag = U S (U S M)^dag, where S
    holds the CZ signs and M[x, y] = m[x ^ y] / 2^n is real symmetric, with
    m the forward Walsh transform of the weights.
    """
    n = graph.n
    weights = np.asarray(weights, dtype=float)
    if weights.size != 1 << n:
        raise ValueError("weight vector length must be 2^n")
    idx = np.arange(_dense_dim(n))
    m = kernels.fwht(weights) / idx.size
    half = _framed_graph_rows(m[idx[:, None] ^ idx].astype(np.complex128), graph, frame)
    return _framed_graph_rows(half.conj().T, graph, frame)

