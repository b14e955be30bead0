"""Primal-dual interior-point solver for small conic programs

    minimize    c'x
    subject to  F0_j + sum_i x_i F_ij   PSD        (dense symmetric blocks)
                g0_k + G_k x            >= 0       (orthant blocks)

Mehrotra predictor-corrector with Nesterov-Todd scaling.  A block is any
object with ``kind`` ("sdp" or "lp"), ``size``, ``slack(x)``, ``apply(dx)``,
``adjoint(Z)`` and ``schur(W)``, its term of the Schur matrix:
[tr(F_i W F_k W)]_ik for an SDP block at the scaling matrix W, G' diag(W) G
for an orthant block at the scaling vector W.  The solver never sees the
F_i or G, so each block applies its constraint in its own structure
(``sdp.PptBlock``, ``sdp.CutBlock``).  Complex Hermitian constraints enter
through their real symmetric embedding (``real_embed``), which doubles the
block size and the eigenvalue multiplicities but keeps all solver arithmetic
real.  Block eigendecompositions use LAPACK ``eigh``.  A Cholesky
factorization checks that the Schur matrix is positive definite; each Newton
system is then solved by ``np.linalg.solve`` (numpy has no triangular solve).

Step control: fraction-to-boundary 0.98, at most 200 iterations, relative
complementarity-gap target 1e-7 by default.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


class SdpConvergenceError(RuntimeError):
    """Solver stopped before reaching the gap target; carries the best iterate."""

    def __init__(self, message, result=None):
        super().__init__(message)
        self.result = result


def real_embed(h: np.ndarray) -> np.ndarray:
    """Complex Hermitian d x d -> real symmetric 2d x 2d with doubled spectrum."""
    h = np.asarray(h, dtype=np.complex128)
    d = h.shape[0]
    out = np.empty((2 * d, 2 * d))
    out[:d, :d] = out[d:, d:] = h.real
    out[d:, :d] = h.imag
    out[:d, d:] = -h.imag
    return out


def real_unembed(s: np.ndarray) -> np.ndarray:
    """Inverse of real_embed up to Hermitization of roundoff."""
    d = s.shape[0] // 2
    re = (s[:d, :d] + s[d:, d:]) / 2.0
    im = (s[d:, :d] - s[:d, d:]) / 2.0
    h = re + 1j * im
    return (h + h.conj().T) / 2.0


@dataclass
class IpmResult:
    x: np.ndarray
    slacks: list
    duals: list
    gap: float
    dual_residual: float
    objective: float
    iterations: int
    converged: bool


def _max_step_diag_scaled(lam, D):
    """sup alpha with diag(lam) + alpha D PSD (lam > 0 elementwise)."""
    li = 1.0 / np.sqrt(lam)
    M = (li[:, None] * D) * li[None, :]
    w, _ = np.linalg.eigh(M)
    t = w[0]
    return np.inf if t >= 0.0 else 1.0 / (-t)


def _max_step_pos(s, ds):
    """sup alpha with s + alpha ds >= 0 (s > 0 elementwise)."""
    steps = np.divide(-s, ds, out=np.full(s.shape, np.inf), where=ds < 0)
    return float(steps.min())


def solve_conic(
    c: np.ndarray,
    blocks: list,
    x0: np.ndarray,
    gap_tol: float = 1e-7,
    max_iter: int = 200,
    step_frac: float = 0.98,
) -> IpmResult:
    """Run the predictor-corrector IPM from a strictly feasible primal x0."""
    c = np.asarray(c, dtype=float)
    x = np.asarray(x0, dtype=float).copy()
    nb = len(blocks)
    Z = [np.eye(b.size) if b.kind == "sdp" else np.ones(b.size) for b in blocks]
    nu = sum(b.size for b in blocks)
    best = None

    def pairing(Ss, Zs):
        return sum(
            float(np.vdot(Ss[j], Zs[j]).real) for j in range(nb)
        )

    for it in range(max_iter):
        S = [b.slack(x) for b in blocks]
        gap = pairing(S, Z)
        rd = c - sum(blocks[j].adjoint(Z[j]) for j in range(nb))
        obj = float(c @ x)
        rd_norm = float(np.linalg.norm(rd, np.inf))
        result = IpmResult(
            x=x.copy(), slacks=S, duals=[z.copy() for z in Z], gap=gap,
            dual_residual=rd_norm, objective=obj, iterations=it, converged=False,
        )
        if best is None or gap + rd_norm < best.gap + best.dual_residual:
            best = result
        if gap <= gap_tol * (1.0 + abs(obj)) and rd_norm <= gap_tol * (
            1.0 + np.linalg.norm(c, np.inf)
        ):
            result.converged = True
            return result
        mu = gap / nu

        # NT scaling per block: the scaled point lam is diagonal.  An SDP
        # block keeps Ri (W^-1 = Ri' Ri, ds = Ri dS Ri'), an orthant block
        # w (W = diag(w)^2, ds = dS / w).
        scal = []
        H = np.zeros((c.size, c.size))
        for j, b in enumerate(blocks):
            if b.kind == "sdp":
                wz, Uz = np.linalg.eigh(Z[j])
                wz = np.maximum(wz, 1e-300)
                Zh = (Uz * np.sqrt(wz)) @ Uz.T
                M = Zh @ S[j] @ Zh
                wm, Um = np.linalg.eigh((M + M.T) / 2.0)
                wm = np.maximum(wm, 1e-300)
                Ri = (Um * wm ** -0.25).T @ Zh
                H += b.schur(Ri.T @ Ri)
                scal.append((Ri, np.sqrt(wm)))
            else:
                s, z = S[j], Z[j]
                w = np.sqrt(s / z)
                H += b.schur(1.0 / w ** 2)
                scal.append((w, np.sqrt(s * z)))
        H += H.T
        H *= 0.5
        H.flat[::c.size + 1] += 1e-14 * np.trace(H) / c.size
        try:
            np.linalg.cholesky(H)  # the positive-definiteness check
        except np.linalg.LinAlgError:
            raise SdpConvergenceError(
                f"Schur system not positive definite at iteration {it}", best
            ) from None

        def directions(sig, corr):
            """Newton direction; corr is the affine (ds, dz) list or None."""
            Ks = []  # scaled complementarity target of each block
            for j, b in enumerate(blocks):
                lam = scal[j][1]
                if corr is None:
                    Ks.append(-np.diag(lam) if b.kind == "sdp" else -lam)
                elif b.kind == "sdp":
                    dsa, dza = corr[j]
                    Cm = (dsa @ dza + dza @ dsa) / 2.0
                    Rm = sig * mu * np.eye(b.size) - np.diag(lam ** 2) - Cm
                    Ks.append(2.0 * Rm / (lam[:, None] + lam[None, :]))
                else:
                    dsa, dza = corr[j]
                    Ks.append((sig * mu - lam ** 2 - dsa * dza) / lam)
            if corr is None:
                rhs = -c  # A*(W^{-1/2}(-lam)W^{-1/2}) - rd = -c
            else:
                rhs = -rd
                for j, b in enumerate(blocks):
                    W, K = scal[j][0], Ks[j]
                    if b.kind == "sdp":
                        T = W.T @ K @ W
                        rhs += b.adjoint((T + T.T) / 2.0)
                    else:
                        rhs += b.adjoint(K / W)
            dx = np.linalg.solve(H, rhs)
            out = []
            for j, b in enumerate(blocks):
                W, K = scal[j][0], Ks[j]
                dS = b.apply(dx)
                if b.kind == "sdp":
                    ds = W @ dS @ W.T
                    ds = (ds + ds.T) / 2.0
                    dz = K - ds
                    dZ = W.T @ dz @ W
                    out.append((dS, (dZ + dZ.T) / 2.0, ds, dz))
                else:
                    ds = dS / W
                    dz = K - ds
                    out.append((dS, dz / W, ds, dz))
            return dx, out

        def boundary_steps(dirs):
            ap = ad = np.inf
            for j, b in enumerate(blocks):
                lam = scal[j][1]
                if b.kind == "sdp":
                    ap = min(ap, _max_step_diag_scaled(lam, dirs[j][2]))
                    ad = min(ad, _max_step_diag_scaled(lam, dirs[j][3]))
                else:
                    ap = min(ap, _max_step_pos(lam, dirs[j][2]))
                    ad = min(ad, _max_step_pos(lam, dirs[j][3]))
            return ap, ad

        dx_a, dirs_a = directions(0.0, None)
        ap, ad = boundary_steps(dirs_a)
        ap, ad = min(1.0, ap), min(1.0, ad)
        mu_aff = pairing(
            [S[j] + ap * dirs_a[j][0] for j in range(nb)],
            [Z[j] + ad * dirs_a[j][1] for j in range(nb)],
        ) / nu
        sig = float(np.clip((max(mu_aff, 0.0) / mu) ** 3, 1e-10, 1.0))

        corr = [(dirs_a[j][2], dirs_a[j][3]) for j in range(nb)]
        dx, dirs = directions(sig, corr)
        ap, ad = boundary_steps(dirs)
        ap = min(1.0, step_frac * ap)
        ad = min(1.0, step_frac * ad)
        if ap < 1e-12 and ad < 1e-12:
            raise SdpConvergenceError(f"step collapsed at iteration {it}", best)
        x = x + ap * dx
        Z = [Z[j] + ad * dirs[j][1] for j in range(nb)]

    S = [b.slack(x) for b in blocks]
    gap = pairing(S, Z)
    rd = c - sum(blocks[j].adjoint(Z[j]) for j in range(nb))
    final = IpmResult(
        x=x, slacks=S, duals=Z, gap=gap,
        dual_residual=float(np.linalg.norm(rd, np.inf)),
        objective=float(c @ x), iterations=max_iter, converged=False,
    )
    if best is not None and best.gap + best.dual_residual < final.gap + final.dual_residual:
        final = best
    raise SdpConvergenceError(
        f"no convergence after {max_iter} iterations (gap {final.gap:.3e})", final
    )
