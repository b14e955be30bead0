"""Numeric inner-loop kernels, in numpy.

Kernels:
  fwht             unnormalized Walsh-Hadamard transform along the last axis
                   (a 1-D vector, or each row of a stack), as BLAS products
                   over small Sylvester Hadamard factors
  simplex_project  Euclidean projection onto the probability simplex
  pg_fit           weighted least squares on the simplex by accelerated
                   projected gradient (FISTA with adaptive restart)

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


def pg_fit(idx, values, weights, p0, max_iter, tol):
    D = p0.size
    w = weights / weights.sum()
    L = 1.05 * 2.0 * D * w.max()
    w2 = 2.0 * w  # the gradient is 2 H' diag(w) (H p - v)
    p = p_prev = p0.copy()
    r = np.zeros(D)  # rows outside idx stay 0
    g_prev = 0.0
    t = 1.0
    kkt = np.inf
    it = 0
    for it in range(1, max_iter + 1):
        r[idx] = w2 * (fwht(p)[idx] - values)
        g = fwht(r)
        d = simplex_project(p - g)
        kkt = np.abs(np.subtract(p, d, out=d), out=d).max()
        if kkt <= tol:
            break
        t_next = 0.5 * (1.0 + (1.0 + 4.0 * t * t) ** 0.5)
        beta = (t - 1.0) / t_next
        y = p + beta * (p - p_prev)
        p_prev, g_prev, p = p, g, simplex_project(y - (g + beta * (g - g_prev)) / L)
        t = 1.0 if np.dot(y - p, p - p_prev) > 0.0 else t_next
    return p, kkt, it
