"""Primal-dual interior-point solver for small conic programs

    minimize    c'x
    subject to  F0_j + sum_i x_i F_ij  PSD for each j   (a Hermitian PSD stack)
         or     g0 + G x  >= 0                         (an orthant)

Mehrotra predictor-corrector with Nesterov-Todd scaling.  The constraint is
one block: an object with ``slack(x)``, ``apply(dx)``, ``adjoint(Z)`` and
``factor(W)``, whose cone the solver reads from the shape of the slack.  A
(k, d, d) slack is a stack of complex Hermitian or real symmetric matrices
(a real slack keeps every iterate and eigensolve real) in the PSD cone, paired
with its dual by Re tr summed over the stack, and its Schur matrix at the
stack W = R* R of scaling matrices is [sum_j Re tr(F_ij W_j F_kj W_j)]_ik.  A
vector slack lies in the orthant, and its Schur matrix at the scaling vector
W = 1 / r^2 is G' diag(W) G.  ``factor(W)`` returns a solve rhs -> dx of
the Schur system, or raises ``np.linalg.LinAlgError`` if it is not positive
definite.  The solver never sees the F_ij, G or the Schur matrix, so each
block applies its constraint and solves its Newton system in its own
structure (``sdp.PptBlock``, ``sdp.CutBlock``; ``sdp.dense_newton``).

Each iteration factors the Newton system once.  Both Newton directions,
predictor and corrector, come from one routine: dx from the block's solve,
dS = apply(dx), ds = scale(dS), dz = K - ds and dZ = back(dz).  The cone
enters in three places only: the scaling pair, sym(R dS R*) and
sym(R* dz R) for a PSD stack (R from a batched Cholesky factor of the dual
and one batched ``eigh``) or dS / r and dz / r on an orthant; the
corrector's complementarity target K; and the scaled spectrum of the step
test, one batched ``eigvalsh`` of both directions on a PSD stack or D / lam
on an orthant.  A failed scaling, Newton factorization or step-length
eigensolve raises SdpConvergenceError with the best iterate.
Iterates are rebound, never updated in place, so none is copied.

The dual starts at s times the unit start (1 on each orthant entry, 2 I on
each d x d matrix, which counts d barrier terms), s = c'a / a'a with
a = adjoint(unit): the multiple nearest dual feasibility.  If c'a <= 0 it
keeps the unit start.  On both of ``sdp``'s blocks a is a multiple of c, so
the start is dual feasible.  Step control: fraction-to-boundary
``STEP_FRAC``, at most 200 steps by default, relative complementarity-gap
and dual-residual target ``GAP_TOL``.
Every iterate, the start and the one after the last step included, is
tested for convergence and kept if it is the best so far.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

GAP_TOL = 1e-7     # relative duality-gap and dual-residual target
STEP_FRAC = 0.98   # fraction of the step to the cone boundary


class SdpConvergenceError(RuntimeError):
    """Solver stopped before reaching the gap target; carries the best iterate."""

    def __init__(self, message, result=None):
        super().__init__(message)
        self.result = result


@dataclass
class IpmResult:
    x: np.ndarray
    dual: np.ndarray
    gap: float
    dual_residual: float
    objective: float
    iterations: int
    converged: bool


def _ct(a):
    """Conjugate transpose of each matrix of a stack."""
    return a.conj().swapaxes(-1, -2)


def _sym(a):
    """Hermitian part of each matrix of a stack."""
    return (a + _ct(a)) / 2.0


def _diag(v):
    """Stack of diagonal matrices from a (k, d) stack of diagonals."""
    return v[..., None] * np.eye(v.shape[-1])


def _nt_scaling(S, Z):
    """R, lam with R S R* = R^-* Z R^-1 = diag(lam) for PSD stacks S, Z, so
    R* R inverts the Nesterov-Todd point W (W Z W = S): Z = L L* (raising
    LinAlgError unless Z > 0), L* S L = U diag(lam^2) U*, R = lam^-1/2 U* L*."""
    L = np.linalg.cholesky(Z)
    M = _ct(L) @ S @ L
    wm, Um = np.linalg.eigh((M + _ct(M)) / 2.0)
    wm = np.maximum(wm, 1e-300)
    return _ct(Um * wm[:, None, :] ** -0.25) @ _ct(L), np.sqrt(wm)


def _max_steps(lam, ds, dz=None):
    """sup alpha with diag(lam) + alpha D in the cone (lam > 0), for D = ds
    and D = dz: 1 / -min(e) over the eigenvalues e of Lam^-1/2 D Lam^-1/2,
    which on an orthant (1 x 1 blocks) are D / lam.  The affine dz (None) is
    -diag(lam) - ds, with e = -1 - e(ds), so it takes no eigensolve."""
    D = ds[None] if dz is None else np.stack((ds, dz))
    if lam.ndim == 1:
        e = D / lam
    else:
        li = 1.0 / np.sqrt(lam)
        e = np.linalg.eigvalsh((li[:, :, None] * D) * li[:, None, :])
    ts = (e[0].min(), -1.0 - e[0].max() if dz is None else e[1].min())
    return [np.inf if t >= 0.0 else 1.0 / (-t) for t in ts]


def solve_conic(c: np.ndarray, block, x0: np.ndarray, max_iter: int = 200) -> IpmResult:
    """Run the predictor-corrector IPM from a strictly feasible primal x0,
    for at most max_iter steps."""
    c = np.asarray(c, dtype=float)
    x = np.asarray(x0, dtype=float).copy()
    S = block.slack(x)
    psd = S.ndim == 3
    Z = _diag(np.full(S.shape[:2], 2.0)) if psd else np.ones(S.size)
    a = block.adjoint(Z)
    if c @ a > 0.0:  # the multiple of the unit start nearest dual feasibility
        Z = (c @ a) / (a @ a) * Z
    nu = S.shape[0] * S.shape[1] if psd else S.size  # barrier parameter
    rd_tol = GAP_TOL * (1.0 + np.linalg.norm(c, np.inf))
    best = None  # (gap + dual residual, then the IpmResult fields of the best iterate)

    def fail(message):
        return SdpConvergenceError(message, IpmResult(*best[1:], converged=False))

    for it in range(max_iter + 1):
        gap = float(np.vdot(S, Z).real)
        rd = c - block.adjoint(Z)
        obj = float(c @ x)
        rd_norm = float(np.linalg.norm(rd, np.inf))
        if best is None or gap + rd_norm < best[0]:
            best = (gap + rd_norm, x, Z, gap, rd_norm, obj, it)
        if gap <= GAP_TOL * (1.0 + abs(obj)) and rd_norm <= rd_tol:
            return IpmResult(x, Z, gap, rd_norm, obj, it, converged=True)
        if it == max_iter:
            break
        mu = gap / nu

        # NT scaling pair: ds = scale(dS), dZ = back(dz); S and Z both scale to Lam
        if psd:
            try:
                R, lam = _nt_scaling(S, Z)
            except np.linalg.LinAlgError as exc:
                raise fail(f"NT scaling failed at iteration {it}: {exc}") from None
            W = _ct(R) @ R
            Lam = _diag(lam)
            scale = lambda D: _sym(R @ D @ _ct(R))
            back = lambda D: _sym(_ct(R) @ D @ R)
        else:
            R = np.sqrt(S / Z)
            W = 1.0 / R ** 2
            lam = Lam = np.sqrt(S * Z)
            scale = back = lambda D: D / R
        solve = None  # drop the last Newton matrix before the next factorization
        try:
            solve = block.factor(W)
        except np.linalg.LinAlgError:
            raise fail(f"Schur system not positive definite at iteration {it}") from None

        def directions(K, rhs):
            """Newton direction (dx, dS, dZ, ds, dz) to the scaled
            complementarity target K, from the Schur right-hand side rhs."""
            dx = solve(rhs)
            dS = block.apply(dx)
            ds = scale(dS)
            dz = K - ds
            return dx, dS, back(dz), ds, dz

        def steps(frac, *d):
            """Primal and dual step lengths, frac of the way to the cone
            boundary and at most 1."""
            try:
                return [min(1.0, frac * a) for a in _max_steps(lam, *d)]
            except np.linalg.LinAlgError as exc:
                raise fail(f"step length failed at iteration {it}: {exc}") from None

        # affine: back(-Lam) = -Z, so -rd + block.adjoint(back(-Lam)) = -c
        _, dS, dZ, dsa, dza = directions(-Lam, -c)
        ap, ad = steps(1.0, dsa)  # scaled dza = -lam - dsa
        mu_aff = float(np.vdot(S + ap * dS, Z + ad * dZ).real) / nu
        sig = float(np.clip((max(mu_aff, 0.0) / mu) ** 3, 1e-10, 1.0))

        # corrector target: sig mu I - lam^2 - sym(dsa dza) over (lam_i + lam_j) / 2
        if psd:
            Cm = (dsa @ dza + dza @ dsa) / 2.0
            K = 2.0 * (sig * mu * np.eye(lam.shape[1]) - _diag(lam ** 2) - Cm) / (
                lam[:, :, None] + lam[:, None, :])
        else:
            K = (sig * mu - lam ** 2 - dsa * dza) / lam
        dx, dS, dZ, ds, dz = directions(K, -rd + block.adjoint(back(K)))
        ap, ad = steps(STEP_FRAC, ds, dz)
        if ap < 1e-12 and ad < 1e-12:
            raise fail(f"step collapsed at iteration {it}")
        x = x + ap * dx  # x, Z and S are rebound, never updated in place,
        Z = Z + ad * dZ  # so the kept best iterate needs no copy
        S = block.slack(x)

    raise fail(f"no convergence after {max_iter} iterations (gap {best[3]:.3e})")
