"""Exact PPT global robustness by semidefinite programming.

Primal problem (one PSD constraint per requested bipartition):

    min tr(sigma)  s.t.  sigma >= 0,  (rho + sigma)^Gamma_T >= 0  for all T

Dual:  max -sum_T tr(Y_T rho^Gamma_T)  s.t.  Y_T >= 0, sum_T Y_T^Gamma_T <= I.

Every returned solution carries a rescaled dual certificate that is verified
post-hoc from the returned primal and dual points alone, never from solver
slacks, so the reported duality gap is a rigorous bound regardless of solver
internals.  Each path's constraint is one ``solve_conic`` block, and
``dense_newton`` solves its Schur matrix.  Next to ``slack``, ``apply``,
``adjoint`` and ``factor`` the block supplies its cone's three certificate
primitives: ``spectra`` (the smallest eigenvalue of each part), ``clip``
(each part projected onto its cone) and ``dual_max`` (the largest
eigenvalue of sum_T Y_T^Gamma_T).  Both paths end in one routine,
``_robustness``, which solves (or, for a state that is PPT on every cut,
takes sigma = 0 with a zero dual) and certifies with ``_certify``: one
check against ``PSD_FLOOR`` and ``GAP_BOUND`` for every ``SdpSolution``.

Two paths, each over the given bipartitions or, for None, all of them:
  * ``ppt_robustness(rho, partitions)``: dense sigma, capped at 5 qubits.
    Sigma's coordinates (``_hermitian_coords``) are its diagonal, the Re
    parts above it and, for complex rho only, the Im parts: real symmetric
    (2^n (2^n + 1) / 2) for real rho, whose optimum is real, a prefix of the
    Hermitian ones (4^n).  sigma >= 0 with every (rho + sigma)^Gamma_T >= 0
    is one ``PptBlock``: a stack of complex Hermitian or real symmetric d x d
    matrices, paired with the dual stack by Re tr.  A partial transpose only
    permutes matrix positions, so the block's offsets, slack, apply and
    adjoint are each one scatter or gather, and its Schur term comes from
    rows of one Khatri-Rao product of two column takes of each scaling
    matrix, summed over the stack, as in the sparse Schur assembly of
    Fujisawa, Kojima and Nakata, Math. Program. 79 (1997).  Its certificate
    primitives are stacked LAPACK eigensolves, of eigenvalues only except in
    ``clip``.
  * ``symmetry_reduced_robustness``: for graph-diagonal rho the optimum may
    be sought among graph-diagonal sigma (stabilizer twirling preserves
    feasibility and the objective), where every partial transpose is again
    diagonal in the graph basis.  The program collapses to a linear program
    in the 2^n diagonal weights x of sigma, and it is solved and certified
    on weight vectors only.  With H the 2^n x 2^n Walsh matrix and eps_T the
    sign each stabilizer element picks up under the partial transpose over
    T, the spectrum of the transposed operator with weights v is exactly

        M_T v = H (eps_T * H v) / 2^n        (two fast Walsh transforms).

    The LP is posed in u = H x: the objective tr(sigma) is u_0, each cut's
    slack is M_T p + H (eps_T * u) / 2^n, and x >= 0 is the row T = {}
    (eps = 1, offset 0) of the same orthant block.  Its certificate
    primitives work entrywise on these rows: a spectrum's minimum is a row
    minimum and the dual bound one more Walsh transform, so no eigensolve
    runs and no dense operator is built unless a caller reads
    ``SdpSolution.sigma`` or ``.dual_certificate``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property, partial
from typing import Callable

import numpy as np

from . import kernels
from .operators import (
    check_hermitian,
    eig_hermitian,
    graph_diagonal_operator,
    partial_transpose,
)
from .pauli import Graph, LocalFrame, StabilizerCodec
from .reconstruct import GraphDiagonalState, state_p
from .solver import SdpConvergenceError, solve_conic

MAX_DENSE_DIM = 32
MAX_REDUCED_DIM = 4096
PSD_FLOOR = -1e-8
GAP_BOUND = 1e-6


def all_bipartitions(n: int) -> list[tuple[int, ...]]:
    """All bipartitions of {1..n}, one representative per complement pair."""
    out = []
    for mask in range(1, (1 << n) - 1):
        if mask & 1:  # keep the side containing qubit 1
            out.append(tuple(q for q in range(1, n + 1) if (mask >> (q - 1)) & 1))
    return out


def canonical_partitions(n: int, partitions=None) -> list[tuple[int, ...]]:
    """Each partition of {1..n} as the sorted side holding qubit 1, without
    repeats; all bipartitions for None.  Both solver paths and the CLI's
    --partitions go through here."""
    full = set(range(1, n + 1))
    seen = {}
    for part in all_bipartitions(n) if partitions is None else partitions:
        s = set(part)
        if not s or s == full or not s <= full:
            raise ValueError(f"partition {sorted(s)} is not a proper nonempty subset of 1..{n}")
        if 1 not in s:
            s = full - s
        seen[tuple(sorted(s))] = None
    if not seen:
        raise ValueError("need at least one partition")
    return list(seen)


def check_solver_size(n: int, method: str) -> None:
    """Refuse, with a ValueError, an n-qubit state beyond the cap of the
    ``"dense"`` or ``"reduced"`` path, before that path allocates anything."""
    cap = MAX_DENSE_DIM if method == "dense" else MAX_REDUCED_DIM
    if 1 << n > cap:
        raise ValueError(
            f"the {method} robustness path is capped at dimension {cap} "
            f"({cap.bit_length() - 1} qubits); this state has {n} qubits"
        )


@dataclass
class SdpSolution:
    """Certified solution of the PPT-robustness program.

    ``sigma`` and ``dual_certificate`` (one Y_T per partition) are dense
    operators, built by ``operators`` when first read: a reduced solution
    holds them as graph-basis weight vectors until then.
    """

    value: float
    duality_gap: float
    dual_value: float
    partitions: list
    min_eigs: dict
    sigma_min_eig: float
    iterations: int
    method: str
    operators: Callable[[], tuple] = field(repr=False, compare=False)

    @cached_property
    def _dense(self) -> tuple:
        return self.operators()

    @property
    def sigma(self) -> np.ndarray:
        return self._dense[0]

    @property
    def dual_certificate(self) -> list:
        return self._dense[1]

    def to_json_dict(self) -> dict:
        """The report's sdp section; its provenance covers every number in it."""
        return {
            "value": {"value": self.value, "provenance": "sdp"},
            "duality_gap": self.duality_gap,
            "dual_value": self.dual_value,
            "method": self.method,
            "iterations": self.iterations,
            "partitions": [list(t) for t in self.partitions],
            "sigma_min_eig": self.sigma_min_eig,
            "partial_transpose_min_eigs": {
                ",".join(map(str, t)): v for t, v in self.min_eigs.items()
            },
            "provenance": "sdp",
        }


def ppt_min_eig(rho: np.ndarray, partition) -> float:
    """Minimum eigenvalue of rho^Gamma over the given qubit subset."""
    return float(np.linalg.eigvalsh(check_hermitian(partial_transpose(rho, partition), 1e-10))[0])


def _check_density(rho: np.ndarray):
    if not np.isfinite(rho).all():
        raise ValueError("rho has entries that are not finite numbers")
    low = np.linalg.eigvalsh(check_hermitian(rho, 1e-10))[0]
    if low < -1e-9:
        raise ValueError(f"rho is not PSD (min eigenvalue {low:.3e})")
    tr = float(np.trace(rho).real)
    if abs(tr - 1.0) > 1e-9:
        raise ValueError(f"rho has trace {tr!r}, expected 1")


def dense_newton(H):
    """rhs -> H^-1 rhs for a block's dense Schur matrix H, which it overwrites:
    H is symmetrized and ridged by 1e-14 tr H / n, and a Cholesky factorization
    raises ``np.linalg.LinAlgError`` unless it is positive definite."""
    H += H.T
    H *= 0.5
    H.flat[::len(H) + 1] += 1e-14 * np.trace(H) / len(H)
    np.linalg.cholesky(H)  # the positive-definiteness check
    return lambda rhs: np.linalg.solve(H, rhs)


def _hermitian_coords(d: int, real: bool):
    """Sigma's real coordinates as an index map into a flat d x d matrix.

    Entry pair u holds the flat positions pos[u] = (x, swap x) of sigma's
    entries z_u and conj(z_u): first the d diagonal pairs, then each (a, b)
    with a < b in row-major order.  The coordinates, of the basis E_aa, then
    E_ab + E_ba, then -i E_ab + i E_ba, are the d diagonal entries, Re z_ab of
    each pair, then (complex rho only) Im z_ab of each pair, so the real
    symmetric ones (d(d+1)/2) are a prefix of the Hermitian ones (d^2).
    Coordinate i sets Re z_u = scale[i] x_i (Re z_aa = x_i / 2, as z_aa is
    counted at both positions of its pair) or Im z_ab = scale[i] x_i = -x_i.
    weights = 2 scale scale' is the factor of ``PptBlock.schur``.

    For real rho the real set is exact: conjugation commutes with every
    partial transpose and keeps sigma >= 0 and tr sigma, so (sigma +
    conj sigma) / 2 is feasible with the same trace (a symmetry reduction,
    Gatermann and Parrilo, J. Pure Appl. Algebra 192 (2004)).
    """
    a, b = np.triu_indices(d, 1)
    rows = np.concatenate((np.arange(d), a))
    cols = np.concatenate((np.arange(d), b))
    pos = np.stack((rows * d + cols, cols * d + rows), axis=1)
    im = np.full(0 if real else a.size, -1.0)  # Im z_ab = -x_i
    scale = np.concatenate((np.full(d, 0.5), np.ones(a.size), im))
    return pos, scale, 2.0 * np.multiply.outer(scale, scale)


class PptBlock:
    """The dense program's PSD stack in sigma's coordinates (see
    ``_hermitian_coords``): part T of ``[(), *partitions]`` is
    x -> offset_T + (sum_i x_i B_i)^Gamma_T, with offset 0 for T = ()
    (sigma >= 0) and rho^Gamma_T for a cut ((rho + sigma)^Gamma_T >= 0).
    A real rho takes the real symmetric coordinates and a float64 stack,
    any other rho the Hermitian ones and a complex128 stack.  A partial
    transpose only permutes matrix positions (an involution that commutes
    with the transpose): M^Gamma_T = M.ravel()[perm[T]], and ``rows``,
    ``cols`` hold the row and column of the position x of each entry pair in
    each part.  So the offsets, every map and the certificate's partial
    transposes are scatters or gathers on d x d matrices (sum_T Z_T^Gamma_T
    is one flat ``gather`` of the stack) and no basis matrix is formed.
    ``schur`` assembles in work arrays of the stack's dtype, allocated once
    here, and returns a new matrix on each call, which ``factor`` hands to
    ``dense_newton`` to own and overwrite.
    """

    def __init__(self, rho, partitions):
        d = rho.shape[0]
        real = not rho.imag.any()
        self.base, self.scale, self.weights = _hermitian_coords(d, real)
        parts = [(), *partitions]
        flat = np.arange(d * d).reshape(d, d)
        self.perm = np.stack([partial_transpose(flat, part).ravel() for part in parts])
        self.rows, self.cols = np.divmod(self.perm[:, self.base[:, 0]], d)
        self.offset = (rho.real if real else rho).ravel()[self.perm].reshape(len(parts), d, d)
        self.offset[0] = 0.0
        k, u = self.rows.shape
        self.gather = self.perm + d * d * np.arange(k)[:, None]
        self.work = tuple(np.empty(s, self.offset.dtype) for s in [(u, u)] * 4 + [(d, u)] * 2)

    def hermitian(self, x):
        """sigma = sum_i x_i B_i as a d x d matrix of the stack's dtype."""
        u, y = len(self.base), self.scale * x
        z = y[:u].astype(self.offset.dtype)  # Re z
        if y.size > u:  # Im coordinates: Im z of the pairs a < b
            z.imag[self.offset.shape[1]:] = y[u:]
        h = np.zeros(self.perm.shape[1], dtype=self.offset.dtype)
        h[self.base[:, 1]] = z.conj()
        h[self.base[:, 0]] += z  # a diagonal pair gets z + conj(z) = x_i
        return h.reshape(self.offset.shape[1:])

    def slack(self, x):
        return self.offset + self.apply(x)

    def apply(self, dx):
        return self.hermitian(dx).ravel()[self.perm].reshape(self.offset.shape)

    def _transposed_sum(self, Z):
        """sum_T Z_T^Gamma_T, flat, for any (k, d, d) stack Z."""
        return np.take(Z, self.gather).sum(axis=0)

    def adjoint(self, Z):
        """sum_T Re tr(B_i^Gamma_T Z_T) for each i; Z is any (k, d, d) stack.

        The partial transpose is its own adjoint under Re tr, so this is
        Re tr(B_i Y) with Y = sum_T Z_T^Gamma_T: on the pair (x, swap x) of
        B_i, scale_i Re(Y[x] + Y[swap x]) for a Re coordinate and
        scale_i Im(Y[x] - Y[swap x]) for an Im coordinate.
        """
        y = self._transposed_sum(Z)
        a, b = y[self.base[:, 0]], y[self.base[:, 1]]
        im = (a - b).imag[self.offset.shape[1]:] if self.scale.size > a.size else []
        return self.scale * np.concatenate(((a + b).real, im))

    def schur(self, W):
        """[sum_T Re tr(A_iT W_T A_kT W_T)]_ik with A_iT = B_i^Gamma_T, for a
        Hermitian (k, d, d) stack W.

        In part T coordinate i sits on its entry pair (x, swap x), with
        A_iT = c_i E_x + conj(c_i) E_swap x, where c_i is scale_i
        for a Re coordinate and i scale_i for an Im coordinate.  For k on the
        pair (y, swap y), and with K[(p, q), (r, s)] = W_T[q, r] W_T[s, p],

            Re tr(A_iT W_T A_kT W_T) = 2 Re (c_i c_k K[x, y] + c_i conj(c_k) K[x, swap y]),

        as the two terms at swap x are conjugates of these (Hermitian W_T
        gives K[swap x, swap y] = conj K[x, y]).  That is 2 scale_i scale_k
        times the entry (i, k) of [[Re P, Im Q], [-Im P, Re Q]] (Im rows and
        columns on the pairs a < b), P = K[x, swap y] + K[x, y], Q = K[x, swap y] - K[x, y].
        With x = (a, b) over the pairs, A = W_T[:, a] and B = W_T'[:, b], the
        Khatri-Rao product Y[(p, q), k] = A[p, k] B[q, k] holds K[x, y] in its
        row swap x = (b, a) and, W_T being Hermitian, conj K[x, swap y] in its
        row x.  Only these rows are formed, as A[b] * B[a] and A[a] * B[b].
        Both K are summed over the parts, and P, Q and the weights are formed
        once from the sums.  The real symmetric coordinates (real W) need
        Re P alone; Q is never formed.
        """
        d = W.shape[1]
        kxy, kxs, g, h, wa, wb = self.work
        kxy.fill(0.0)
        kxs.fill(0.0)
        for w, a, b in zip(W, self.rows, self.cols):
            # mode="clip" lets take write straight into out (indices are in range)
            w.take(a, axis=1, out=wa, mode="clip")
            w.T.take(b, axis=1, out=wb, mode="clip")
            kxy += np.multiply(wa.take(b, axis=0, out=g, mode="clip"),
                               wb.take(a, axis=0, out=h, mode="clip"), out=g)
            kxs += np.multiply(wa.take(a, axis=0, out=g, mode="clip"),
                               wb.take(b, axis=0, out=h, mode="clip"), out=g)
        np.conjugate(kxs, out=kxs)
        p = kxs + kxy
        if not np.iscomplexobj(self.offset):
            return self.weights * p.real
        q = kxs - kxy
        return self.weights * np.block([[p.real, q.imag[:, d:]],
                                        [-p.imag[d:], q.real[d:, d:]]])

    def factor(self, W):
        return dense_newton(self.schur(W))

    def spectra(self, S):
        """The smallest eigenvalue of each part of a (k, d, d) stack S."""
        return np.linalg.eigvalsh(S)[:, 0]

    def clip(self, Z):
        """Each part of a (k, d, d) stack Z projected onto the PSD cone."""
        w, V = eig_hermitian(Z)
        return (V * np.clip(w, 0.0, None)[:, None, :]) @ V.conj().swapaxes(1, 2)

    def dual_max(self, Y):
        """The largest eigenvalue of sum_T Y_T^Gamma_T."""
        d = self.offset.shape[1]
        return float(np.linalg.eigvalsh(self._transposed_sum(Y).reshape(d, d))[-1])


def _certify(block, x, dual, partitions, iterations, method, operators) -> SdpSolution:
    """The certificate that every returned solution passes, recomputed from
    x and dual through the block's own maps, never from solver slacks.

    sigma and every (rho + sigma)^Gamma_T are the parts of block.slack(x),
    every rho^Gamma_T a part of block.offset.  The cut parts Y_T of dual are
    clipped to their cone and rescaled so that sum_T Y_T^Gamma_T <= I holds
    exactly: a rigorous dual bound.  Each smallest eigenvalue must reach
    ``PSD_FLOOR`` and the certified gap value - dual_value lie within
    ``GAP_BOUND``; a NaN fails every check.  operators(sigma part,
    certificate parts) builds the dense sigma and [Y_T] when first read.
    """
    S = block.slack(x).reshape(block.offset.shape)
    mins = block.spectra(S)
    Y = block.clip(np.reshape(dual, block.offset.shape))
    Y[0] = 0.0  # part T = () is sigma >= 0, not a cut
    certificate = Y[1:] / (1.0 + max(0.0, block.dual_max(Y) - 1.0))
    # 0.0 - v, not -v, so that a zero bound prints as 0 and not as -0
    dual_value = 0.0 - float(np.vdot(certificate, block.offset[1:]).real)
    value = float(np.trace(S[0]).real if S.ndim == 3 else S[0].sum())
    sigma_min = float(mins[0])
    if not sigma_min >= PSD_FLOOR:
        raise SdpConvergenceError(f"sigma not PSD ({sigma_min:.3e})")
    min_eigs = dict(zip(partitions, mins[1:].tolist()))
    for part, w in min_eigs.items():
        if not w >= PSD_FLOOR:
            raise SdpConvergenceError(f"(rho+sigma)^Gamma not PSD on {part} ({w:.3e})")
    gap = value - dual_value
    if not -1e-9 <= gap <= GAP_BOUND * (1.0 + abs(value)):
        raise SdpConvergenceError(f"certified duality gap {gap:.3e} exceeds tolerance")
    return SdpSolution(
        value=value,
        duality_gap=gap,
        dual_value=dual_value,
        partitions=list(partitions),
        min_eigs=min_eigs,
        sigma_min_eig=sigma_min,
        iterations=iterations,
        method=method,
        operators=partial(operators, S[0], certificate),
    )


def _robustness(block, c, identity, partitions, method, operators) -> SdpSolution:
    """Minimize c'x (tr sigma) over the block and certify the result.

    A state that is PPT on every cut has the optimum sigma = 0, certified
    at x = 0 with a zero dual.  Otherwise the solve starts at sigma = t0 I,
    identity being the coordinates of I, with t0 beyond every rho^Gamma_T's
    negative part, so that the start is strictly feasible.
    """
    low = float(block.spectra(block.offset)[1:].min())  # rho^Gamma_T
    if low >= -1e-12:
        return _certify(block, np.zeros(c.size), np.zeros_like(block.offset),
                        partitions, 0, method, operators)
    res = solve_conic(c, block, (0.5 - 2.0 * low) * identity)
    return _certify(block, res.x, res.dual, partitions, res.iterations, method, operators)


def ppt_robustness(rho, partitions=None) -> SdpSolution:
    """Dense-path PPT robustness of the density matrix rho over the given
    bipartitions (all of them for None), with a verified dual certificate."""
    rho = np.asarray(rho, dtype=np.complex128)
    d = rho.shape[0] if rho.ndim else 0
    if rho.shape != (d, d) or not d or d & (d - 1):
        raise ValueError("rho must be square with power-of-2 dimension")
    n = d.bit_length() - 1
    check_solver_size(n, "dense")
    _check_density(rho)
    partitions = canonical_partitions(n, partitions)
    block = PptBlock(rho, partitions)
    c = np.zeros(block.scale.size)
    c[:d] = 1.0  # tr(sigma): the diagonal coordinates come first
    return _robustness(block, c, c, partitions, "dense",
                       lambda sigma, Y: (sigma.astype(np.complex128), list(Y)))


# ----------------------------------------------------------------------
# Symmetry-reduced path for graph-diagonal states, in the Walsh domain.


def _parity_signs(tmask, masks) -> np.ndarray:
    """(-1)^{popcount(t & m)} for each t in tmask (rows), m in masks (columns).

    With masks the Y-factor masks of the stabilizer elements, row T is eps_T:
    the sign each S_k picks up under the partial transpose over T.
    """
    parity = tmask[:, None] & masks[None, :]
    for shift in (32, 16, 8, 4, 2, 1):
        parity ^= parity >> shift
    return 1.0 - 2.0 * (parity & 1)


def _cut_masks(graph: Graph, frame: LocalFrame, partitions):
    """Y-factor mask of each stabilizer element (in group-index order) and
    qubit mask of each partition, as int64 arrays."""
    tmask = np.array([sum(1 << (q - 1) for q in part) for part in partitions],
                     dtype=np.int64)
    return StabilizerCodec(graph, frame).y_masks(), tmask


class CutBlock:
    """The LP's one orthant block, in u = H x for sigma's weights x: row T is
    M_T p + H (eps_T * u) / 2^n = spectrum of (rho + sigma)^Gamma_T, and row 0
    is T = {} (eps = 1, offset 0), which is x itself.  ``offset`` holds the
    rows M_T p (the spectra of rho^Gamma_T) as a (rows, 2^n) array; the slack
    and every map's image are flat, the solver's orthant.  Applied by one
    Walsh transform per row; no M_T is ever formed.  ``factor`` solves with
    the matrix of ``schur`` through ``dense_newton``.

    ymask holds the Y-factor mask of each stabilizer element, tmask the qubit
    mask of each partition (see ``_cut_masks``), p the weights of rho.
    """

    def __init__(self, ymask: np.ndarray, tmask: np.ndarray, p: np.ndarray):
        dim = ymask.size
        idx = np.arange(dim)
        tmask = np.concatenate(([0], tmask))
        self.signs = _parity_signs(tmask, ymask)
        self._chars = _parity_signs(tmask, idx)
        self._gather = ((ymask[:, None] ^ ymask[None, :]) * dim
                        + (idx[:, None] ^ idx[None, :]))
        self.offset = self.apply(kernels.fwht(p)).reshape(self.signs.shape)
        self.offset[0] = 0.0  # row T = {}: offset 0

    def slack(self, u):
        return self.offset.ravel() + self.apply(u)

    def apply(self, du):
        return kernels.fwht(self.signs * du).ravel() / du.size

    def adjoint(self, z):
        z = np.reshape(z, self.signs.shape)
        return (self.signs * kernels.fwht(z)).sum(axis=0) / z.shape[1]

    def schur(self, d):
        """sum_T A_T' diag(d_T) A_T with A_T = H diag(eps_T) / 2^n, that is

            [sum_T eps_T[i] eps_T[j] fwht(d_T)[i ^ j]]_ij / 4^n
                = g[y_i ^ y_j, i ^ j] / 4^n,  g[a, k] = sum_T (-1)^{a.t_T} fwht(d_T)[k],

        by H diag(f) H = [fwht(f)[i ^ j]]_ij and eps_T[i] eps_T[j] =
        (-1)^{(y_i ^ y_j).t_T}.  The gather is exactly symmetric.
        """
        dim = self.signs.shape[1]
        g = self._chars.T @ kernels.fwht(np.reshape(d, self.signs.shape))
        return g.ravel()[self._gather] / dim ** 2

    def factor(self, d):
        return dense_newton(self.schur(d))

    def spectra(self, S):
        """The smallest entry of each row of S, the spectrum of its part."""
        return S.min(axis=1)

    def clip(self, z):
        """Each entry of z projected onto the nonnegative orthant."""
        return np.maximum(z, 0.0)

    def dual_max(self, y):
        """The largest eigenvalue of sum_T Y_T^Gamma_T for the graph-diagonal
        Y_T with weights y_T: its spectrum is sum_T M_T y_T = H adjoint(y)."""
        return float(kernels.fwht(self.adjoint(y)).max())


def _graph_diagonal_operators(sigma_weights, certificate_weights, graph, frame):
    return (graph_diagonal_operator(sigma_weights, graph, frame),
            [graph_diagonal_operator(y, graph, frame) for y in certificate_weights])


def symmetry_reduced_robustness(
    state,
    graph: Graph,
    frame: LocalFrame | None = None,
    partitions=None,
) -> SdpSolution:
    """PPT robustness restricted to graph-diagonal sigma.

    A stabilizer twirl maps any feasible sigma to a graph-diagonal one with
    the same trace (partial transposes of stabilizer elements are the same
    elements up to sign), so for graph-diagonal rho this restriction is
    exact; the program becomes a linear program in the diagonal weights,
    solved and certified on weight vectors (see the module docstring).
    """
    try:
        p = GraphDiagonalState(state_p(state)).p
    except ValueError as exc:
        raise ValueError(f"state must be a physical population vector: {exc}") from None
    n = graph.n
    if p.size != 1 << n:
        raise ValueError("population vector length must be 2^n")
    check_solver_size(n, "reduced")
    frame = frame or LocalFrame.identity(n)
    partitions = canonical_partitions(n, partitions)
    c = np.zeros(1 << n)
    c[0] = 1.0  # tr(sigma) = sum(x) = u_0, and sigma = I is u = H ones = 2^n e_0
    return _robustness(CutBlock(*_cut_masks(graph, frame, partitions), p), c, c.size * c,
                       partitions, "reduced",
                       partial(_graph_diagonal_operators, graph=graph, frame=frame))
