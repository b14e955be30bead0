"""Optimal worst-case bounds from generator-only measurement data.

Given the n generator expectations a_i of an n-qubit graph state and the
size |B| of the smaller color class of its two-coloring:

    F_min  = max{0, (sum |a_i| - n + 2) / 2}
    R_Gmin = max{0, 2^|B| (sum |a_i| - n + 2) / 2 - 1}
    LR_Gmin = log2(1 + R_Gmin)
    E_Rmin = max{0, |B| - sum_i H((1 + |a_i|) / 2)}      (H = binary entropy)

``purity_min`` is the worst-case purity over physical states whose cluster
fidelity respects F_min: the quadratic program

    min sum_j p_j^2   s.t.  p >= 0, sum p = 1, p_0 >= F_min

whose optimum puts p_0 = f = max(F_min, 2^-n) and spreads the remainder
uniformly: f^2 + (1 - f)^2 / (2^n - 1).  Every state compatible with the
generator data is feasible here, so this is a valid lower bound on its
purity; ``purity_min_solution`` certifies it by an explicit KKT residual.

Error bars come from Monte-Carlo resampling of the a_i (clipped normal),
because the bounds are nonsmooth at their max{0, .} kinks.  There is one draw
per row chunk, so memory stays bounded, and one fused pass per cache-sized
block of a chunk: one clip and abs, one row sum for F_min (and from it p_min
and R_Gmin) and one entropy row sum, through the public functions' helpers.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .operators import shannon_entropy
from .reconstruct import state_p

MIN_TRIALS = 1000  # fewest Monte-Carlo trials behind an error bar
# most trials: the sampled bounds keep four doubles per trial, so the peak RSS
# of analyze table1.json grows from 37 MB at 10^4 trials to 82 MB at 10^6
MAX_TRIALS = 1_000_000


def _abs_a(a) -> np.ndarray:
    a = np.abs(np.asarray(a, dtype=float))
    if a.ndim == 0 or a.shape[-1] == 0:
        raise ValueError("expected a nonempty vector of generator expectations")
    if a.max() > 1.0 + 1e-12:
        raise ValueError(f"generator expectation magnitude {a.max()} exceeds 1")
    return np.minimum(a, 1.0, out=a)


@dataclass(frozen=True)
class GeneratorData:
    """Generator expectations a_i with their one-sigma uncertainties."""

    a: np.ndarray
    sigma: np.ndarray

    def __post_init__(self):
        a = np.asarray(self.a, dtype=float)
        s = np.asarray(self.sigma, dtype=float)
        if a.shape != s.shape or a.ndim != 1:
            raise ValueError("a and sigma must be equal-length vectors")
        for name, v in (("a", a), ("sigma", s)):
            if not np.isfinite(v).all():
                raise ValueError(f"{name} must be finite")
        if (np.abs(a) > 1).any() or (s < 0).any():
            raise ValueError("need |a_i| <= 1 and sigma_i >= 0")
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "sigma", s)

    @property
    def n(self) -> int:
        return self.a.size


def _fidelity(s, n: int):  # s: row sums of n magnitudes |a_i|
    return np.maximum(0.0, (s - n + 2.0) / 2.0)


def fidelity_min(a):
    """Optimal worst-case fidelity from generator expectations alone."""
    a = _abs_a(a)
    return _fidelity(a.sum(axis=-1), a.shape[-1])


def _robustness(f, b_size: int):
    with np.errstate(over="ignore"):
        r = np.maximum(0.0, np.ldexp(f, b_size) - 1.0)
    if not np.isfinite(r).all():
        raise OverflowError(
            f"rg_min = 2^{b_size} F_min - 1 is beyond the largest double (|B| = {b_size})"
        )
    return r


def robustness_min(a, b_size: int):
    """Worst-case global-robustness bound; b_size from two_coloring.

    Raises OverflowError when 2^|B| F_min - 1 exceeds the largest double.
    """
    return _robustness(fidelity_min(a), b_size)


def log_robustness(r: float) -> float:
    """log2(1 + r) for r >= 0."""
    if r < 0:
        raise ValueError("robustness must be nonnegative")
    return float(np.log2(1.0 + r))


def _rel_entropy(x: np.ndarray, b_size: int):
    """E_Rmin from magnitudes x = |a_i|, overwriting x.  p = (1 + x) / 2 lies
    in [1/2, 1], so only 1 - p can be 0; its floor 5e-324 gives 0 * -1074 =
    -0.0 there, without log2(0).  h = -H, so |B| - sum H = |B| + h.sum()."""
    p = np.divide(np.add(x, 1.0, out=x), 2.0, out=x)
    h = np.log2(p) * p
    q = np.subtract(1.0, p, out=p)
    h += np.log2(np.maximum(q, 5e-324)) * q
    return np.maximum(0.0, b_size + h.sum(axis=-1))


def rel_entropy_min(a, b_size: int):
    """Worst-case relative-entropy-of-entanglement bound from generators."""
    return _rel_entropy(_abs_a(a), b_size)


def er_lower_from_state(state, b_size: int) -> float:
    """Relative-entropy bound |B| - S(p) for a physical graph-diagonal state."""
    return max(0.0, b_size - shannon_entropy(state_p(state)))


@dataclass(frozen=True)
class PurityQpSolution:
    value: float
    p: np.ndarray
    kkt_residual: float


def purity_min_solution(a, n: int | None = None) -> PurityQpSolution:
    """Solve the worst-case purity QP and certify its KKT conditions.

    The minimizer is p_0 = max(F_min, 2^-n) with the remaining mass uniform;
    the returned residual is the largest violation among stationarity,
    feasibility and complementary slackness; the value is ``purity_min``.
    """
    a = _abs_a(a)
    n = a.size if n is None else n
    dim = 1 << n
    f = max(fidelity_min(a), 1.0 / dim)
    rest = (1.0 - f) / (dim - 1)
    p = np.full(dim, rest)
    p[0] = f
    # KKT of min p'p s.t. sum p = 1 (mult mu), p0 >= f (mult lam >= 0), p >= 0:
    #   2 p_j = mu            (j > 0, p_j > 0)
    #   2 p_0 = mu + lam
    mu = 2.0 * rest
    lam = 2.0 * f - mu
    res = max(
        abs(p.sum() - 1.0),
        max(0.0, f - p[0]),
        max(0.0, -lam),
        abs(lam * (p[0] - f)),
        float(np.max(np.abs(2.0 * p[1:] - mu))) if dim > 1 else 0.0,
    )
    return PurityQpSolution(value=float(purity_min(a, n)), p=p, kkt_residual=res)


def _purity(f, n: int):
    f = np.maximum(f, 0.5 ** n)
    # (1 - f)^2 / (2^n - 1) with the 2^-n applied last, so nothing overflows
    return f * f + np.ldexp((1.0 - f) ** 2 / (1.0 - 0.5 ** n), -n)


def purity_min(a, n: int | None = None):
    """Worst-case purity consistent with the generator measurements."""
    return _purity(fidelity_min(a), np.shape(a)[-1] if n is None else n)


# ----------------------------------------------------------------------
# Monte-Carlo error propagation.


# Samples drawn per chunk: 1.28 MB of doubles, so that every draw up to
# 10 000 trials of 16 generators is a single chunk, while a record of
# thousands of qubits never holds its (trials, n) matrix at once.
_CHUNK_SAMPLES = 160_000
# Samples per fused evaluation block: 128 KB of doubles, which stay in cache.
_BLOCK_SAMPLES = 16_384


def _sample_chunks(a, sigma, trials: int, seed: int):
    """Unclipped row chunks of the (trials, n) draws a_i' ~ N(a_i, sigma_i).
    The chunks are consecutive draws from one generator, so they stack to the
    same matrix as a single draw; z * sigma + a are Generator.normal's floats.
    The trial count is checked at the call, before any draw.  A product
    beyond the largest double is the intended saturation (+/-inf, which the
    clip maps to +/-1), so it raises no overflow warning."""
    if not MIN_TRIALS <= trials <= MAX_TRIALS:
        raise ValueError(f"use between {MIN_TRIALS} and {MAX_TRIALS} trials, not {trials}")
    rng = np.random.default_rng(seed)
    rows = max(1, _CHUNK_SAMPLES // max(np.size(a), 1))

    def draw(count):
        z = rng.standard_normal((count, np.size(a)))
        with np.errstate(over="ignore"):
            return np.add(np.multiply(z, sigma, out=z), a, out=z)

    return (draw(min(rows, trials - start)) for start in range(0, trials, rows))


def propagate_errors(bound_fn, a, sigma, trials: int = 10_000, seed: int = 0):
    """Mean and std of bound_fn over a_i' ~ N(a_i, sigma_i) clipped to [-1, 1].

    bound_fn maps a (rows, n) sample matrix to one value per row.
    """
    chunks = _sample_chunks(a, sigma, trials, seed)
    vals, start = np.empty(trials), 0
    for c in chunks:
        vals[start:start + len(c)] = bound_fn(np.clip(c, -1.0, 1.0, out=c))
        start += len(c)
    return {"mean": float(vals.mean()), "std": float(vals.std())}


def _sampled_bounds(a, sigma, b_size: int, trials: int, seed: int) -> np.ndarray:
    """Rows F_min, p_min, R_Gmin, E_Rmin per sample, one fused pass per block,
    each written in place into the (4, trials) result."""
    chunks = _sample_chunks(a, sigma, trials, seed)
    n, out, done = np.size(a), np.empty((4, trials)), 0
    rows = max(1, _BLOCK_SAMPLES // n)
    for chunk in chunks:
        for start in range(0, len(chunk), rows):
            x = chunk[start:start + rows]
            o = out[:, done:done + len(x)]
            o[0] = f = _fidelity(np.abs(np.clip(x, -1.0, 1.0, out=x), out=x).sum(axis=-1), n)
            o[1] = _purity(f, n)
            o[2] = _robustness(f, b_size)
            o[3] = _rel_entropy(x, b_size)
            done += len(x)
    return out


def _std(x) -> float:
    """x.std() taken on x scaled into [-1, 1] by a power of 2.

    The scaling is exact, so the result equals x.std() wherever that is
    finite, but its squares cannot overflow when |x| is beyond 1e154.
    """
    e = int(np.frexp(np.max(np.abs(x)))[1])
    return float(np.ldexp(np.ldexp(x, -e).std(), e))


@dataclass(frozen=True)
class BoundValue:
    value: float
    sigma: float

    def to_json_dict(self, provenance: str = "generator-bound") -> dict:
        return {"value": float(self.value), "provenance": provenance,
                "sigma": float(self.sigma)}


@dataclass(frozen=True)
class BoundReport:
    """All generator-only bounds with Monte-Carlo error bars."""

    f_min: BoundValue
    p_min: BoundValue
    rg_min: BoundValue
    lrg_min: BoundValue
    er_min: BoundValue

    def to_json_dict(self) -> dict:
        return {
            name: getattr(self, name).to_json_dict()
            for name in ("f_min", "p_min", "rg_min", "lrg_min", "er_min")
        }


def bound_report(
    data: GeneratorData, b_size: int, trials: int = 10_000, seed: int = 0
) -> BoundReport:
    """Evaluate all bounds at the measured a and attach Monte-Carlo sigmas.

    One shared sample set keeps the derived quantities (e.g. lrg vs rg)
    mutually consistent.
    """
    f, p, rs, er = _sampled_bounds(data.a, data.sigma, b_size, trials, seed)
    rg = robustness_min(data.a, b_size)
    return BoundReport(
        f_min=BoundValue(fidelity_min(data.a), float(f.std())),
        p_min=BoundValue(purity_min(data.a), float(p.std())),
        rg_min=BoundValue(rg, _std(rs)),
        lrg_min=BoundValue(log_robustness(rg), float(np.log2(1.0 + rs).std())),
        er_min=BoundValue(rel_entropy_min(data.a, b_size), float(er.std())),
    )
