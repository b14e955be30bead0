"""Numeric inner-loop kernels, in numpy.

Kernels:
  fwht             unnormalized Walsh-Hadamard transform along the last axis
                   (a 1-D vector, or each row of a stack), as BLAS products
                   over small Sylvester Hadamard factors
  simplex_project  Euclidean projection onto the probability simplex
  pg_fit           weighted least squares on the simplex by accelerated
                   projected gradient (FISTA with adaptive restart), ended
                   by a conjugate-gradient solve on the optimal face

Every Hermitian eigensolve goes to LAPACK through ``np.linalg.eigh``.
"""

import functools

import numpy as np

# Read by pipebench/bench.py for its environment block; no kernel uses numba.
USE_NUMBA = False


# ----------------------------------------------------------------------
# Walsh-Hadamard transform.  Unnormalized: applying twice multiplies by n.
#
# H_{2^n} = H_{2^c1} (x) ... (x) H_{2^ck} with every c_i <= _FACTOR_BITS, so
# the transform is one matrix product per factor against a small Sylvester
# matrix: the last factor acts on the trailing axis of the reshaped input,
# each earlier one from the left on a (d, rest) slice.  Python overhead is
# then per factor, not per butterfly level.  A factor costs 2^c_i
# multiply-adds per entry, summed in sequence, so wider factors cost more
# flops and more rounding for fewer calls: at 5 bits, n = 14 takes a third
# of the time it takes at 7 bits, and the round trip's error stays within
# twice the radix-2 butterfly's, while n <= 10 still takes two products.  From
# n = 2 on there are at least two factors, so every product is a GEMM with
# at least two rows; a stack and its rows then take the same kernels and
# give the same floats (a 1-row product would go to GEMV, which sums in
# another order).

_FACTOR_BITS = 5


@functools.cache
def _hadamard(bits):
    """Read-only Sylvester Hadamard matrix of order 2^bits."""
    h = np.ones((1, 1))
    for _ in range(bits):
        h = np.block([[h, h], [h, -h]])
    h.flags.writeable = False
    return h


@functools.cache
def _factor_bits(n):
    """Split n into balanced factor widths <= _FACTOR_BITS, two or more from n = 2."""
    k = max(-(-n // _FACTOR_BITS), min(n, 2), 1)
    return tuple(n // k + (i < n % k) for i in range(k))


def fwht(a):
    """Transform along the last axis (a 1-D vector, or each row of a stack).

    Returns a new float64 array; the input is never modified or aliased.
    """
    x = np.asarray(a, dtype=np.float64)
    size = x.shape[-1] if x.ndim else 0
    if size < 1 or size & (size - 1):
        raise ValueError(f"fwht needs a power-of-2 length on the last axis, got shape {x.shape}")
    bits = _factor_bits(size.bit_length() - 1)
    q = 1 << bits[-1]
    out = x.reshape(-1, q) @ _hadamard(bits[-1])
    for b in bits[-2::-1]:
        out = np.matmul(_hadamard(b), out.reshape(-1, 1 << b, q))
        q <<= b
    return out.reshape(x.shape)


# ----------------------------------------------------------------------
# Simplex projection (Held/Condat sort-based, exact).


@functools.cache
def _ranks(size):
    """Read-only 1.0, 2.0, ..., size."""
    j = np.arange(1.0, size + 1.0)
    j.flags.writeable = False
    return j


def simplex_project(y):
    u = np.sort(y)[::-1]
    t = np.add.accumulate(u)
    t -= 1.0
    t /= _ranks(y.size)
    rho = y.size - 1 - np.argmax((u > t)[::-1])  # the last j with u_j > t_j
    out = y - t[rho]
    return np.maximum(out, 0.0, out=out)


# ----------------------------------------------------------------------
# Accelerated projected gradient (FISTA; Beck & Teboulle 2009) for
# min_p sum_k w_k ((H p)_k - v_k)^2 over the simplex.  H is the +/-1
# character matrix applied via fwht; idx selects the measured rows, by an
# index array or, for the full group, by the slice 1: (no gather).  Weights are
# normalized internally so the stationarity residual is measured on an
# O(1)-scaled objective.  The step 1/L uses the gradient's exact Lipschitz
# constant: H' diag(w) H is an XOR convolution, whose spectrum is the Walsh
# transform of its kernel, and H H = D I makes that D w, so lambda_max =
# 2 D max(w).  The gradient is affine in p, so at the extrapolated point
# y = p + beta (p - p_prev) it is g + beta (g - g_prev) from the two
# gradients already in hand: an iteration costs one gradient (2 fwht) and two
# projections (the KKT test and the step), as a plain projected-gradient step.
# Momentum restarts (t = 1) whenever the step turns against the momentum,
# (y - p_new).(p_new - p) > 0 (O'Donoghue & Candes 2015), which stops the
# iterates oscillating about the minimizer once momentum builds up.
#
# The optimum is sparse (most populations of a noisy record fit to exactly 0),
# and FISTA finds its support long before it has polished the values there.
# So whenever the support F of p equals that of the KKT projection
# P(p - g), and F has not been tried before, the fit solves the quadratic on
# the face {q : q = 0 off F, sum q = 1} exactly, by conjugate gradients on
# the Hessian H diag(2w) H (two fwht per step, no matrix).  The candidate
# ends the fit only if it is >= 0 and passes the same KKT test as the
# iterates; otherwise FISTA goes on from its own iterate, untouched.


def _face_solve(p, g, face, hess_w, tol):
    """Minimizer of the quadratic on the face of p, from p with gradient g.

    Projected CG on {q_F : sum q_F = 1}: each residual and product has its
    mean removed, so the iterates keep their sum.  It stops when the
    residual's max falls to tol / 10, when it stops falling (CG passes a
    rounding floor and then diverges), on a direction without positive
    curvature, or after |F| steps.  On a noisy record the face Hessian is
    well conditioned (condition number about 3 at 10 qubits), so there is no
    preconditioner.  Returns the candidate, 0 off the face.
    """
    x = p[face]
    r = -g[face]
    r -= r.mean()
    s = r
    rr = r @ r
    res = np.abs(r).max()
    u = np.zeros(p.size)
    for _ in range(x.size):
        if res <= 0.1 * tol:
            break
        u[face] = s
        a = fwht(hess_w * fwht(u))[face]
        a -= a.mean()
        curv = s @ a
        if not curv > 0.0:  # a flat direction: unmeasured rows leave H singular
            break
        alpha = rr / curv
        r_next = r - alpha * a
        res_next = np.abs(r_next).max()
        if not res_next < res:
            break
        x = x + alpha * s
        r, res = r_next, res_next
        rr, rr_prev = r @ r, rr
        s = r + (rr / rr_prev) * s
    u[face] = x
    return u


def pg_fit(idx, values, weights, p0, max_iter, tol):
    D = p0.size
    w = weights / weights.sum()
    L = 1.05 * 2.0 * D * w.max()
    w2 = 2.0 * w  # the gradient is 2 H' diag(w) (H p - v)
    hess_w = np.zeros(D)  # the Hessian is H diag(2w) H, weight 0 off idx
    hess_w[idx] = w2
    r = np.zeros(D)  # rows outside idx stay 0
    tried = set()

    def gradient(q):
        r[idx] = w2 * (fwht(q)[idx] - values)
        return fwht(r)

    def kkt_residual(q, d):
        return np.abs(np.subtract(q, d, out=d), out=d).max()

    p = p_prev = p0.copy()
    g_prev = 0.0
    t = 1.0
    kkt = np.inf
    it = 0
    for it in range(1, max_iter + 1):
        g = gradient(p)
        d = simplex_project(p - g)
        face = d > 0.0
        kkt = kkt_residual(p, d)
        if kkt <= tol:
            break
        # the face step (a NaN iterate has an empty face, which is skipped)
        if np.array_equal(face, p > 0.0) and face.any() and (key := face.tobytes()) not in tried:
            tried.add(key)
            q = _face_solve(p, g, face, hess_w, tol)
            if q.min() >= 0.0:
                kkt_q = kkt_residual(q, simplex_project(q - gradient(q)))
                if kkt_q <= tol:
                    return q, kkt_q, it
        t_next = 0.5 * (1.0 + (1.0 + 4.0 * t * t) ** 0.5)
        beta = (t - 1.0) / t_next
        y = p + beta * (p - p_prev)
        p_prev, g_prev, p = p, g, simplex_project(y - (g + beta * (g - g_prev)) / L)
        t = 1.0 if np.dot(y - p, p - p_prev) > 0.0 else t_next
    return p, kkt, it
