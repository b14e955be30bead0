"""Numeric inner-loop kernels, in numpy.

Kernels:
  fwht             unnormalized Walsh-Hadamard butterfly along the last axis
                   (a 1-D vector, or each row of a stack)
  simplex_project  Euclidean projection onto the probability simplex
  pg_fit           projected-gradient weighted least squares on the simplex

Every Hermitian eigensolve goes to LAPACK through ``np.linalg.eigh``.
"""

import numpy as np

# Read by pipebench/bench.py for its environment block; no kernel uses numba.
USE_NUMBA = False


# ----------------------------------------------------------------------
# Walsh-Hadamard transform.  Unnormalized: applying twice multiplies by n.


def fwht(a):
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


# ----------------------------------------------------------------------
# Simplex projection (Held/Condat sort-based, exact).


def simplex_project(y):
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


def pg_fit(idx, values, weights, p0, max_iter, tol):
    D = p0.size
    w = weights / weights.sum()
    u = 1.0 / np.arange(1.0, D + 1.0)
    lam = 1.0
    for _ in range(80):
        t = fwht(u)
        r = np.zeros(D)
        r[idx] = w * t[idx]
        hu = 2.0 * fwht(r)
        lam = np.linalg.norm(hu)
        if lam <= 0:
            break
        u = hu / lam
    L = max(lam * 1.05, 1e-12)
    p = p0.copy()
    kkt = np.inf
    it = 0
    for it in range(1, max_iter + 1):
        t = fwht(p)
        r = np.zeros(D)
        r[idx] = w * (t[idx] - values)
        g = 2.0 * fwht(r)
        kkt = np.max(np.abs(p - simplex_project(p - g)))
        if kkt <= tol:
            break
        p = simplex_project(p - g / L)
    return p, kkt, it
