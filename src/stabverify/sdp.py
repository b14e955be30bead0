"""Exact PPT global robustness by semidefinite programming.

Primal problem (one PSD constraint per requested bipartition):

    min tr(sigma)  s.t.  sigma >= 0,  (rho + sigma)^Gamma_T >= 0  for all T

Dual:  max -sum_T tr(Y_T rho^Gamma_T)  s.t.  Y_T >= 0, sum_T Y_T^Gamma_T <= I.

Every returned solution carries a rescaled dual certificate that is verified
post-hoc from the returned primal and dual points alone, never from solver
slacks, so the reported duality gap is a rigorous bound regardless of solver
internals.

Two paths:
  * ``ppt_robustness``: dense Hermitian sigma (2^2n real unknowns), intended
    for n <= 4; each Hermitian constraint enters as its real symmetric
    embedding.  Certified by fresh dense eigensolves.
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
    (eps = 1, offset 0) of the same orthant block.  Feasibility and the
    rescaled dual bound are checked entrywise on vectors; no dense operator
    is built unless a caller reads ``SdpSolution.sigma`` or
    ``.dual_certificate``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property, partial
from typing import Callable

import numpy as np

from . import kernels
from .operators import (
    eig_hermitian,
    graph_diagonal_operator,
    partial_transpose,
    trace_inner,
)
from .pauli import Graph, LocalFrame, transformed_generators
from .reconstruct import state_p
from .solver import (
    SdpBlock,
    SdpConvergenceError,
    real_embed,
    real_unembed,
    solve_conic,
)

MAX_DENSE_DIM = 64
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


def canonical_partitions(n: int, partitions) -> list[tuple[int, ...]]:
    full = set(range(1, n + 1))
    seen = {}
    for part in partitions:
        s = set(part)
        if not s or s == full or not s <= full:
            raise ValueError(f"partition {sorted(s)} is not a proper nonempty subset of 1..{n}")
        if 1 not in s:
            s = full - s
        seen[tuple(sorted(s))] = None
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


@dataclass(frozen=True)
class RobustnessProblem:
    rho: np.ndarray
    partitions: list

    def __post_init__(self):
        rho = np.asarray(self.rho, dtype=np.complex128)
        n = rho.shape[0].bit_length() - 1
        if rho.shape[0] != 1 << n or rho.shape[0] != rho.shape[1]:
            raise ValueError("rho must be square with power-of-2 dimension")
        object.__setattr__(self, "rho", rho)
        object.__setattr__(
            self, "partitions", canonical_partitions(n, self.partitions)
        )

    @property
    def n(self) -> int:
        return self.rho.shape[0].bit_length() - 1


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
        return {
            "value": self.value,
            "duality_gap": self.duality_gap,
            "dual_value": self.dual_value,
            "method": self.method,
            "iterations": self.iterations,
            "partitions": [list(t) for t in self.partitions],
            "sigma_min_eig": self.sigma_min_eig,
            "partial_transpose_min_eigs": {
                ",".join(map(str, t)): v for t, v in self.min_eigs.items()
            },
        }


def ppt_min_eig(rho: np.ndarray, partition) -> float:
    """Minimum eigenvalue of rho^Gamma over the given qubit subset."""
    w, _ = eig_hermitian(partial_transpose(rho, partition))
    return float(w[0])


def _check_density(rho: np.ndarray):
    w, _ = eig_hermitian(rho)
    if w[0] < -1e-9:
        raise ValueError(f"rho is not PSD (min eigenvalue {w[0]:.3e})")
    tr = float(np.trace(rho).real)
    if abs(tr - 1.0) > 1e-9:
        raise ValueError(f"rho has trace {tr!r}, expected 1")


def _hermitian_basis(d: int) -> list[np.ndarray]:
    basis = []
    for a in range(d):
        e = np.zeros((d, d), dtype=np.complex128)
        e[a, a] = 1.0
        basis.append(e)
    for a in range(d):
        for b in range(a + 1, d):
            e = np.zeros((d, d), dtype=np.complex128)
            e[a, b] = 1.0
            e[b, a] = 1.0
            basis.append(e)
            e = np.zeros((d, d), dtype=np.complex128)
            e[a, b] = -1.0j
            e[b, a] = 1.0j
            basis.append(e)
    return basis


def _certify(rho, sigma, partitions, raw_multipliers, method, iterations):
    """Post-hoc feasibility and weak-duality check with fresh eigensolves.

    raw_multipliers: complex Hermitian Y_T per partition (any roundoff);
    they are clipped to the PSD cone and rescaled so sum Y_T^Gamma <= I holds
    exactly, which turns them into a rigorous dual bound.

    This is the dense path's check.  The reduced path is certified by
    ``_certify_weights``, the same checks on weight vectors through the exact
    diagonal identity spectrum((sum_j v_j |j><j|)^Gamma_T) = M_T v.
    """
    d = rho.shape[0]
    value = float(np.trace(sigma).real)
    ws, _ = eig_hermitian(sigma)
    sigma_min = float(ws[0])
    if sigma_min < PSD_FLOOR:
        raise SdpConvergenceError(f"sigma not PSD ({sigma_min:.3e})")
    min_eigs = {}
    for part in partitions:
        w, _ = eig_hermitian(partial_transpose(rho + sigma, part))
        min_eigs[part] = float(w[0])
        if w[0] < PSD_FLOOR:
            raise SdpConvergenceError(
                f"(rho+sigma)^Gamma not PSD on {part} ({w[0]:.3e})"
            )
    clipped = []
    for Y in raw_multipliers:
        w, V = eig_hermitian(Y)
        wc = np.clip(w, 0.0, None)
        clipped.append((V * wc) @ V.conj().T)
    excess = np.zeros((d, d), dtype=np.complex128)
    for part, Y in zip(partitions, clipped):
        excess += partial_transpose(Y, part)
    we, _ = eig_hermitian(np.eye(d) - excess)
    theta = max(0.0, -float(we[0]))
    scale = 1.0 / (1.0 + theta)
    certificate = [scale * Y for Y in clipped]
    dual_value = -sum(
        trace_inner(Y, partial_transpose(rho, part))
        for part, Y in zip(partitions, certificate)
    )
    gap = value - dual_value
    if gap > GAP_BOUND * (1.0 + abs(value)) or gap < -1e-9:
        raise SdpConvergenceError(
            f"certified duality gap {gap:.3e} exceeds tolerance"
        )
    return SdpSolution(
        value=value,
        duality_gap=gap,
        dual_value=dual_value,
        partitions=list(partitions),
        min_eigs=min_eigs,
        sigma_min_eig=sigma_min,
        iterations=iterations,
        method=method,
        operators=lambda: (sigma, certificate),
    )


def _zero_operators(d, count):
    return (np.zeros((d, d), dtype=np.complex128),
            [np.zeros((d, d), dtype=np.complex128) for _ in range(count)])


def _trivial_solution(d, partitions, min_eigs, method):
    return SdpSolution(
        value=0.0,
        duality_gap=0.0,
        dual_value=0.0,
        partitions=list(partitions),
        min_eigs=dict(zip(partitions, min_eigs)),
        sigma_min_eig=0.0,
        iterations=0,
        method=method,
        operators=partial(_zero_operators, d, len(partitions)),
    )


def ppt_robustness(
    problem: RobustnessProblem,
    gap_tol: float = 1e-7,
    max_iter: int = 200,
) -> SdpSolution:
    """Dense-path PPT robustness with a verified dual certificate."""
    check_solver_size(problem.n, "dense")
    rho = problem.rho
    d = rho.shape[0]
    _check_density(rho)
    partitions = problem.partitions
    if not partitions:
        raise ValueError("need at least one partition")
    pt_eigs = [ppt_min_eig(rho, part) for part in partitions]
    if min(pt_eigs) >= -1e-12:
        return _trivial_solution(d, partitions, pt_eigs, "dense")

    basis = _hermitian_basis(d)
    m = len(basis)
    c = np.array([float(np.trace(B).real) for B in basis])
    blocks = [SdpBlock(np.zeros((2 * d, 2 * d)), np.stack([real_embed(B) for B in basis]))]
    for part in partitions:
        F0 = real_embed(partial_transpose(rho, part))
        F = np.stack([real_embed(partial_transpose(B, part)) for B in basis])
        blocks.append(SdpBlock(F0, F))
    t0 = 0.5 + 2.0 * max(0.0, -min(pt_eigs))
    x0 = np.zeros(m)
    x0[:d] = t0  # sigma starts at t0 * identity
    res = solve_conic(c, blocks, x0, gap_tol=gap_tol, max_iter=max_iter)
    sigma = np.zeros((d, d), dtype=np.complex128)
    for xi, B in zip(res.x, basis):
        sigma += xi * B
    # embedded inner products double complex traces, hence the factor 2
    multipliers = [2.0 * real_unembed(Z) for Z in res.duals[1:]]
    return _certify(rho, sigma, partitions, multipliers, "dense", res.iterations)


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
    qubit mask of each partition, as int64 arrays.  Element k's X and Z masks
    are the XORs of those of the generators over the set bits of k."""
    xs = zs = np.zeros(1, dtype=np.int64)
    for g in transformed_generators(graph, frame):
        xs = np.concatenate((xs, xs ^ g.x))
        zs = np.concatenate((zs, zs ^ g.z))
    tmask = np.array([sum(1 << (q - 1) for q in part) for part in partitions],
                     dtype=np.int64)
    return xs & zs, tmask


def _cut_products(signs, v) -> np.ndarray:
    """Row T is M_T v = H (eps_T * H v) / 2^n: the spectrum, in graph-basis
    order, of the partial transpose over T of the graph-diagonal operator
    with weights v."""
    v = np.asarray(v, dtype=np.float64)
    return kernels.fwht(signs * kernels.fwht(v)) / v.size


def _cut_adjoint(signs, z) -> np.ndarray:
    """sum_T M_T z_T for a (partitions, 2^n) stack z (each M_T is symmetric)."""
    return kernels.fwht((signs * kernels.fwht(z)).sum(axis=0)) / z.shape[1]


class CutBlock:
    """The LP's one orthant block, in u = H x for sigma's weights x: row T is
    M_T p + H (eps_T * u) / 2^n = spectrum of (rho + sigma)^Gamma_T, and row 0
    is T = {} (eps = 1, offset 0), which is x itself.  Applied by one Walsh
    transform per row; no M_T is ever formed.

    ymask holds the Y-factor mask of each stabilizer element, tmask the qubit
    mask of each partition (see ``_cut_masks``), p the weights of rho.
    """

    kind = "lp"

    def __init__(self, ymask: np.ndarray, tmask: np.ndarray, p: np.ndarray):
        dim = ymask.size
        idx = np.arange(dim)
        tmask = np.concatenate(([0], tmask))
        self.signs = _parity_signs(tmask, ymask)
        self._chars = _parity_signs(tmask, idx)
        self._gather = ((ymask[:, None] ^ ymask[None, :]) * dim
                        + (idx[:, None] ^ idx[None, :]))
        g0 = np.zeros(self.signs.shape)
        g0[1:] = _cut_products(self.signs[1:], p)
        self.g0 = g0.ravel()
        self.size = self.g0.size

    def slack(self, u):
        return self.g0 + self.apply(u)

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


def _graph_diagonal_operators(sigma_weights, certificate_weights, graph, frame):
    return (graph_diagonal_operator(sigma_weights, graph, frame),
            [graph_diagonal_operator(y, graph, frame) for y in certificate_weights])


def _certify_weights(p, q, raw_multipliers, signs, partitions, iterations,
                     graph, frame):
    """Diagonal counterpart of ``_certify`` on graph-basis weight vectors.

    rho, sigma and every Y_T are graph-diagonal with weights p, q and the
    rows of raw_multipliers, so each spectrum below is exact: sigma's is q,
    (rho + sigma)^Gamma_T's is M_T (p + q), and (sum_T Y_T^Gamma_T)'s is
    sum_T M_T y_T.  All are recomputed from p, q and y_T, never taken from
    solver slacks.  The y_T are clipped at 0 and rescaled so the dual
    constraint sum_T Y_T^Gamma_T <= I holds, as in ``_certify``.
    """
    value = float(q.sum())
    sigma_min = float(q.min())
    if sigma_min < PSD_FLOOR:
        raise SdpConvergenceError(f"sigma not PSD ({sigma_min:.3e})")
    min_eigs = {}
    for part, w in zip(partitions, _cut_products(signs, p + q)):
        min_eigs[part] = float(w.min())
        if w.min() < PSD_FLOOR:
            raise SdpConvergenceError(
                f"(rho+sigma)^Gamma not PSD on {part} ({w.min():.3e})"
            )
    clipped = np.maximum(raw_multipliers, 0.0)
    theta = max(0.0, float(_cut_adjoint(signs, clipped).max()) - 1.0)
    certificate = clipped / (1.0 + theta)
    dual_value = -float(np.sum(certificate * _cut_products(signs, p)))
    gap = value - dual_value
    if gap > GAP_BOUND * (1.0 + abs(value)) or gap < -1e-9:
        raise SdpConvergenceError(
            f"certified duality gap {gap:.3e} exceeds tolerance"
        )
    return SdpSolution(
        value=value,
        duality_gap=gap,
        dual_value=dual_value,
        partitions=list(partitions),
        min_eigs=min_eigs,
        sigma_min_eig=sigma_min,
        iterations=iterations,
        method="reduced",
        operators=partial(_graph_diagonal_operators, q, list(certificate),
                          graph, frame),
    )


def symmetry_reduced_robustness(
    state,
    graph: Graph,
    frame: LocalFrame | None = None,
    partitions=None,
    gap_tol: float = 1e-7,
    max_iter: int = 200,
) -> SdpSolution:
    """PPT robustness restricted to graph-diagonal sigma.

    A stabilizer twirl maps any feasible sigma to a graph-diagonal one with
    the same trace (partial transposes of stabilizer elements are the same
    elements up to sign), so for graph-diagonal rho this restriction is
    exact; the program becomes a linear program in the diagonal weights,
    solved and certified on weight vectors (see the module docstring).
    """
    p = state_p(state)
    n = graph.n
    if p.size != 1 << n:
        raise ValueError("population vector length must be 2^n")
    check_solver_size(n, "reduced")
    if p.min() < -1e-10 or abs(p.sum() - 1.0) > 1e-9:
        raise ValueError("state must be a physical population vector")
    frame = frame or LocalFrame.identity(n)
    partitions = canonical_partitions(
        n, partitions if partitions is not None else all_bipartitions(n)
    )
    if not partitions:
        raise ValueError("need at least one partition")
    D = 1 << n
    cuts = CutBlock(*_cut_masks(graph, frame, partitions), p)
    offsets = cuts.g0.reshape(cuts.signs.shape)[1:]  # row T: spectrum of rho^Gamma_T
    low = float(offsets.min())
    if low >= -1e-12:
        return _trivial_solution(D, partitions, [float(b.min()) for b in offsets], "reduced")

    c = np.zeros(D)
    c[0] = 1.0  # tr(sigma) = sum(x) = u_0; x0 = t0 * ones is u0 = D t0 e_0
    u0 = D * (0.5 + 2.0 * max(0.0, -low)) * c
    res = solve_conic(c, [cuts], u0, gap_tol=gap_tol, max_iter=max_iter)
    x = kernels.fwht(res.x) / D
    return _certify_weights(
        p, np.maximum(x, 0.0), res.duals[0].reshape(cuts.signs.shape)[1:],
        cuts.signs[1:], partitions, res.iterations, graph, frame,
    )
