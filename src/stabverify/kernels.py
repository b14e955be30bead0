"""Numeric inner-loop kernels, each in two variants.

Every kernel has a numba ``@njit`` implementation (``*_numba``) and a pure
numpy implementation (``*_numpy``).  The module-level names (``fwht``,
``jacobi_eigh_real``, ...) dispatch to the numba variant when numba imports
successfully and the environment variable ``STABVERIFY_NO_NUMBA`` is unset.
Set ``STABVERIFY_NO_NUMBA=1`` to force the numpy path; both variants must
agree to tight tolerances (see tests and benchmarks/bench_kernels.py).

Kernels:
  fwht             in-place unnormalized Walsh-Hadamard butterfly
                   (fwht_rows: the numpy variant over the rows of a stack)
  jacobi_eigh_real cyclic Jacobi eigensolver, real symmetric input
  jacobi_eigh_herm cyclic Jacobi eigensolver, complex Hermitian input
  simplex_project  Euclidean projection onto the probability simplex
  pg_fit           projected-gradient weighted least squares on the simplex
"""

import os

import numpy as np

try:
    from numba import njit

    HAVE_NUMBA = True
except ImportError:  # pragma: no cover - numba is a declared dependency
    HAVE_NUMBA = False

    def njit(*args, **kwargs):
        def wrap(fn):
            return fn

        return wrap(args[0]) if args and callable(args[0]) else wrap


USE_NUMBA = HAVE_NUMBA and os.environ.get("STABVERIFY_NO_NUMBA", "") not in (
    "1",
    "true",
    "yes",
)

_JACOBI_SWEEPS = 60


# ----------------------------------------------------------------------
# Walsh-Hadamard transform.  Unnormalized: applying twice multiplies by n.


@njit(cache=False)
def fwht_numba(a):
    out = a.copy()
    n = out.size
    h = 1
    while h < n:
        for i in range(0, n, 2 * h):
            for j in range(i, i + h):
                x = out[j]
                y = out[j + h]
                out[j] = x + y
                out[j + h] = x - y
        h *= 2
    return out


def fwht_numpy(a):
    """Transform along the last axis (a 1-D vector, or each row of a stack)."""
    out = np.array(a, dtype=np.float64, copy=True)
    *lead, n = out.shape
    h = 1
    while h < n:
        out = out.reshape(*lead, -1, 2, h)
        top = out[..., 0, :] + out[..., 1, :]
        bot = out[..., 0, :] - out[..., 1, :]
        out = np.stack((top, bot), axis=-2)
        h *= 2
    return out.reshape(*lead, n)


def fwht_rows(a):
    """fwht of every row of a 2-D array, on the numpy path everywhere
    (the numba variant takes 1-D input only)."""
    return fwht_numpy(a)


# ----------------------------------------------------------------------
# Jacobi eigensolvers.  Return (eigenvalues ascending, eigenvector columns).
# The numba variant runs classical cyclic sweeps; the numpy variant applies
# round-robin rounds of disjoint rotations as a single orthogonal update,
# which is an exact reordering of the same rotation set.


@njit(cache=False)
def jacobi_real_numba(A0, tol):
    d = A0.shape[0]
    A = A0.copy()
    V = np.eye(d)
    if d == 1:
        return np.array([A[0, 0]]), V
    nrm = 0.0
    for i in range(d):
        for j in range(d):
            nrm += A[i, j] * A[i, j]
    thresh = tol * max(np.sqrt(nrm), 1e-300)
    skip = 1e-3 * thresh / d
    for _ in range(_JACOBI_SWEEPS):
        off = 0.0
        for p in range(d - 1):
            for q in range(p + 1, d):
                off += A[p, q] * A[p, q]
        if np.sqrt(2.0 * off) <= thresh:
            break
        for p in range(d - 1):
            for q in range(p + 1, d):
                apq = A[p, q]
                if abs(apq) <= skip:
                    continue
                tau = (A[q, q] - A[p, p]) / (2.0 * apq)
                if tau >= 0:
                    t = 1.0 / (tau + np.sqrt(1.0 + tau * tau))
                else:
                    t = -1.0 / (-tau + np.sqrt(1.0 + tau * tau))
                c = 1.0 / np.sqrt(1.0 + t * t)
                s = t * c
                for k in range(d):
                    akp = A[k, p]
                    akq = A[k, q]
                    A[k, p] = c * akp - s * akq
                    A[k, q] = s * akp + c * akq
                for k in range(d):
                    apk = A[p, k]
                    aqk = A[q, k]
                    A[p, k] = c * apk - s * aqk
                    A[q, k] = s * apk + c * aqk
                for k in range(d):
                    vkp = V[k, p]
                    vkq = V[k, q]
                    V[k, p] = c * vkp - s * vkq
                    V[k, q] = s * vkp + c * vkq
    w = np.empty(d)
    for i in range(d):
        w[i] = A[i, i]
    order = np.argsort(w)
    return w[order], V[:, order]


@njit(cache=False)
def jacobi_herm_numba(A0, tol):
    d = A0.shape[0]
    A = A0.copy()
    V = np.eye(d, dtype=np.complex128)
    if d == 1:
        return np.array([A[0, 0].real]), V
    nrm = 0.0
    for i in range(d):
        for j in range(d):
            nrm += abs(A[i, j]) ** 2
    thresh = tol * max(np.sqrt(nrm), 1e-300)
    skip = 1e-3 * thresh / d
    for _ in range(_JACOBI_SWEEPS):
        off = 0.0
        for p in range(d - 1):
            for q in range(p + 1, d):
                off += abs(A[p, q]) ** 2
        if np.sqrt(2.0 * off) <= thresh:
            break
        for p in range(d - 1):
            for q in range(p + 1, d):
                apq = A[p, q]
                g = abs(apq)
                if g <= skip:
                    continue
                ph = apq / g
                tau = (A[q, q].real - A[p, p].real) / (2.0 * g)
                if tau >= 0:
                    t = 1.0 / (tau + np.sqrt(1.0 + tau * tau))
                else:
                    t = -1.0 / (-tau + np.sqrt(1.0 + tau * tau))
                c = 1.0 / np.sqrt(1.0 + t * t)
                s = t * c
                # unitary 2x2 block [[c, s*ph], [-s*conj(ph), c]]
                for k in range(d):
                    akp = A[k, p]
                    akq = A[k, q]
                    A[k, p] = c * akp - s * np.conj(ph) * akq
                    A[k, q] = s * ph * akp + c * akq
                for k in range(d):
                    apk = A[p, k]
                    aqk = A[q, k]
                    A[p, k] = c * apk - s * ph * aqk
                    A[q, k] = s * np.conj(ph) * apk + c * aqk
                for k in range(d):
                    vkp = V[k, p]
                    vkq = V[k, q]
                    V[k, p] = c * vkp - s * np.conj(ph) * vkq
                    V[k, q] = s * ph * vkp + c * vkq
    w = np.empty(d)
    for i in range(d):
        w[i] = A[i, i].real
    order = np.argsort(w)
    return w[order], V[:, order]


def _round_robin_pairs(d):
    """Rounds of disjoint index pairs covering every (p, q), p < q, once."""
    players = list(range(d)) if d % 2 == 0 else list(range(d)) + [-1]
    nn = len(players)
    rounds = []
    for _ in range(nn - 1):
        pairs = [
            (min(players[i], players[nn - 1 - i]), max(players[i], players[nn - 1 - i]))
            for i in range(nn // 2)
            if players[i] != -1 and players[nn - 1 - i] != -1
        ]
        rounds.append((np.array([p for p, _ in pairs]), np.array([q for _, q in pairs])))
        players = [players[0], players[-1]] + players[1:-1]
    return rounds


def _offdiag_norm(A):
    # computed entrywise; norm(A)^2 - sum(diag^2) cancels catastrophically
    B = A.copy()
    np.fill_diagonal(B, 0.0)
    return np.linalg.norm(B)


def jacobi_real_numpy(A0, tol):
    d = A0.shape[0]
    A = np.array(A0, dtype=np.float64, copy=True)
    V = np.eye(d)
    if d == 1:
        return np.array([A[0, 0]]), V
    thresh = tol * max(np.linalg.norm(A), 1e-300)
    skip = 1e-3 * thresh / d
    rounds = _round_robin_pairs(d)
    for _ in range(_JACOBI_SWEEPS):
        if _offdiag_norm(A) <= thresh:
            break
        for ps, qs in rounds:
            apq = A[ps, qs]
            act = np.abs(apq) > skip
            if not act.any():
                continue
            p, q, g = ps[act], qs[act], apq[act]
            tau = (A[q, q] - A[p, p]) / (2.0 * g)
            t = np.where(tau >= 0, 1.0, -1.0)
            t = t / (np.abs(tau) + np.sqrt(1.0 + tau * tau))
            c = 1.0 / np.sqrt(1.0 + t * t)
            s = t * c
            Q = np.eye(d)
            Q[p, p] = c
            Q[q, q] = c
            Q[p, q] = s
            Q[q, p] = -s
            A = Q.T @ A @ Q
            V = V @ Q
    w = np.diag(A).copy()
    order = np.argsort(w)
    return w[order], V[:, order]


def jacobi_herm_numpy(A0, tol):
    d = A0.shape[0]
    A = np.array(A0, dtype=np.complex128, copy=True)
    V = np.eye(d, dtype=np.complex128)
    if d == 1:
        return np.array([A[0, 0].real]), V
    thresh = tol * max(np.linalg.norm(A), 1e-300)
    skip = 1e-3 * thresh / d
    rounds = _round_robin_pairs(d)
    for _ in range(_JACOBI_SWEEPS):
        if _offdiag_norm(A) <= thresh:
            break
        for ps, qs in rounds:
            apq = A[ps, qs]
            g = np.abs(apq)
            act = g > skip
            if not act.any():
                continue
            p, q, g, apq = ps[act], qs[act], g[act], apq[act]
            ph = apq / g
            tau = (A[q, q].real - A[p, p].real) / (2.0 * g)
            t = np.where(tau >= 0, 1.0, -1.0)
            t = t / (np.abs(tau) + np.sqrt(1.0 + tau * tau))
            c = 1.0 / np.sqrt(1.0 + t * t)
            s = t * c
            Q = np.eye(d, dtype=np.complex128)
            Q[p, p] = c
            Q[q, q] = c
            Q[p, q] = s * ph
            Q[q, p] = -s * np.conj(ph)
            A = Q.conj().T @ A @ Q
            V = V @ Q
    w = np.real(np.diag(A)).copy()
    order = np.argsort(w)
    return w[order], V[:, order]


# ----------------------------------------------------------------------
# Simplex projection (Held/Condat sort-based, exact).


@njit(cache=False)
def simplex_project_numba(y):
    n = y.size
    u = np.sort(y)[::-1]
    css = 0.0
    rho = 0
    theta = 0.0
    for j in range(n):
        css += u[j]
        t = (css - 1.0) / (j + 1)
        if u[j] - t > 0:
            rho = j
            theta = t
    out = np.empty(n)
    for i in range(n):
        v = y[i] - theta
        out[i] = v if v > 0 else 0.0
    return out


def simplex_project_numpy(y):
    u = np.sort(y)[::-1]
    css = np.cumsum(u)
    j = np.arange(1, y.size + 1)
    t = (css - 1.0) / j
    rho = np.nonzero(u - t > 0)[0][-1]
    return np.maximum(y - t[rho], 0.0)


# ----------------------------------------------------------------------
# Projected gradient for min_p sum_k w_k ((H p)_k - v_k)^2 over the simplex.
# H is the +/-1 character matrix applied via fwht; idx selects measured rows.
# Weights are normalized internally so the stationarity residual is measured
# on an O(1)-scaled objective.


@njit(cache=False)
def pg_fit_numba(idx, values, weights, p0, max_iter, tol):
    D = p0.size
    w = weights / weights.sum()
    # Lipschitz bound of the gradient by power iteration on 2 H' W H
    u = np.empty(D)
    for i in range(D):
        u[i] = 1.0 / (i + 1.0)
    lam = 1.0
    for _ in range(80):
        t = fwht_numba(u)
        r = np.zeros(D)
        for j in range(idx.size):
            r[idx[j]] = w[j] * t[idx[j]]
        hu = 2.0 * fwht_numba(r)
        lam = np.sqrt(np.dot(hu, hu))
        if lam <= 0:
            break
        u = hu / lam
    L = max(lam * 1.05, 1e-12)
    p = p0.copy()
    kkt = np.inf
    it = 0
    for it in range(1, max_iter + 1):
        t = fwht_numba(p)
        r = np.zeros(D)
        for j in range(idx.size):
            r[idx[j]] = w[j] * (t[idx[j]] - values[j])
        g = 2.0 * fwht_numba(r)
        kkt = 0.0
        stat = simplex_project_numba(p - g)
        for i in range(D):
            d = abs(p[i] - stat[i])
            if d > kkt:
                kkt = d
        if kkt <= tol:
            break
        p = simplex_project_numba(p - g / L)
    return p, kkt, it


def pg_fit_numpy(idx, values, weights, p0, max_iter, tol):
    D = p0.size
    w = weights / weights.sum()
    u = 1.0 / np.arange(1.0, D + 1.0)
    lam = 1.0
    for _ in range(80):
        t = fwht_numpy(u)
        r = np.zeros(D)
        r[idx] = w * t[idx]
        hu = 2.0 * fwht_numpy(r)
        lam = np.linalg.norm(hu)
        if lam <= 0:
            break
        u = hu / lam
    L = max(lam * 1.05, 1e-12)
    p = p0.copy()
    kkt = np.inf
    it = 0
    for it in range(1, max_iter + 1):
        t = fwht_numpy(p)
        r = np.zeros(D)
        r[idx] = w * (t[idx] - values)
        g = 2.0 * fwht_numpy(r)
        kkt = np.max(np.abs(p - simplex_project_numpy(p - g)))
        if kkt <= tol:
            break
        p = simplex_project_numpy(p - g / L)
    return p, kkt, it


# ----------------------------------------------------------------------
# Dispatch.

if USE_NUMBA:
    fwht = fwht_numba
    jacobi_eigh_real = jacobi_real_numba
    jacobi_eigh_herm = jacobi_herm_numba
    simplex_project = simplex_project_numba
    pg_fit = pg_fit_numba
else:
    fwht = fwht_numpy
    jacobi_eigh_real = jacobi_real_numpy
    jacobi_eigh_herm = jacobi_herm_numpy
    simplex_project = simplex_project_numpy
    pg_fit = pg_fit_numpy


def warmup():
    """Trigger JIT compilation of every dispatched kernel (no-op without numba)."""
    fwht(np.ones(4))
    jacobi_eigh_real(np.eye(2), 1e-13)
    jacobi_eigh_herm(np.eye(2, dtype=np.complex128), 1e-13)
    simplex_project(np.array([0.5, 0.7]))
    pg_fit(np.arange(2, dtype=np.int64), np.array([1.0, 0.5]),
           np.array([1.0, 1.0]), np.array([0.5, 0.5]), 10, 1e-6)
