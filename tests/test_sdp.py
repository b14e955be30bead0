import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from hypothesis.extra.numpy import arrays

import stabverify as sv
from stabverify import (
    Graph,
    SdpConvergenceError,
    all_bipartitions,
    graph_diagonal_operator,
    graph_state_vector,
    partial_transpose,
    ppt_min_eig,
    ppt_robustness,
    symmetry_reduced_robustness,
)
from stabverify.sdp import PptBlock, canonical_partitions, dense_newton
from stabverify.simulate import NoiseModel, apply_noise
from stabverify.solver import STEP_FRAC, _ct, _diag, _max_steps, _nt_scaling, solve_conic
from conftest import graphs_and_frames
from oracles import PauliString, pauli_to_matrix


class SdpBlock:
    """Dense oracle block: x -> F0 + sum_i x_i F[i] into a (k, m, m) stack of
    Hermitian matrices, paired by Re tr, with every product formed in full
    from the (dim, k, m, m) F stack."""

    def __init__(self, F0: np.ndarray, F: np.ndarray):
        self.F0 = F0
        self.F = F

    def slack(self, x):
        return self.F0 + np.tensordot(x, self.F, axes=(0, 0))

    def apply(self, dx):
        return np.tensordot(dx, self.F, axes=(0, 0))

    def adjoint(self, Z):
        return np.tensordot(self.F.conj(), Z, axes=([1, 2, 3], [0, 1, 2])).real

    def schur(self, W):
        G = W[None] @ self.F @ W[None]
        return np.tensordot(self.F, G.swapaxes(-1, -2), axes=([1, 2, 3], [1, 2, 3])).real

    def factor(self, W):
        return dense_newton(self.schur(W))


def three_gather_schur(block, W):
    """Reference ``PptBlock.schur``: the assembly from three element gathers
    of each scaling matrix per part, K[x, y] = G * G' with G = W_T[b, a] and
    K[x, swap y] = W_T[b, b] * W_T'[a, a], kept to check the Khatri-Rao form."""
    u = len(block.base)
    kxy, kxs = np.zeros((u, u), W.dtype), np.zeros((u, u), W.dtype)
    for w, a, b in zip(W, block.rows, block.cols):
        g = w[b][:, a]
        kxy += g * g.T
        kxs += w[b][:, b] * w[a][:, a].T
    p = kxs + kxy
    if not np.iscomplexobj(block.offset):
        return block.weights * p.real
    q = kxs - kxy
    d = len(W[0])  # the Im coordinates sit on the pairs a < b, from pair d on
    return block.weights * np.block([[p.real, q.imag[:, d:]], [-p.imag[d:], q.real[d:, d:]]])


def hermitian_basis(d):
    """E_aa, then for each a < b in row-major order E_ab + E_ba, then for each
    a < b in the same order -i E_ab + i E_ba: the real symmetric basis first."""
    basis = [b + 0j for b in symmetric_basis(d)]
    for a in range(d):
        for b in range(a + 1, d):
            e = np.zeros((d, d), dtype=np.complex128)
            e[a, b], e[b, a] = -1.0j, 1.0j
            basis.append(e)
    return basis


def symmetric_basis(d):
    """E_aa, then for each a < b in row-major order E_ab + E_ba."""
    basis = []
    for a in range(d):
        e = np.zeros((d, d))
        e[a, a] = 1.0
        basis.append(e)
    for a in range(d):
        for b in range(a + 1, d):
            e = np.zeros((d, d))
            e[a, b] = e[b, a] = 1.0
            basis.append(e)
    return basis


def bell_density():
    v = np.zeros(4, dtype=complex)
    v[0] = v[3] = 1 / np.sqrt(2)
    return np.outer(v, v.conj())


def singlet_projector():
    v = np.zeros(4, dtype=complex)
    v[1] = 1 / np.sqrt(2)
    v[2] = -1 / np.sqrt(2)
    return np.outer(v, v.conj())


def rand_graph_diag(n, graph, seed):
    rng = np.random.default_rng(seed)
    p = rng.dirichlet(np.ones(1 << n))
    return p, graph_diagonal_operator(p, graph)


class TestSolverCore:
    def test_tiny_lp(self):
        # min x s.t. x >= 1  ->  1
        c = np.ones(1)
        block = SdpBlock(np.array([[[-1.0]]]), np.array([[[[1.0]]]]))
        res = solve_conic(c, block, np.array([2.0]))
        assert res.converged
        assert abs(res.objective - 1.0) < 1e-6

    @staticmethod
    def positive_part_program(A, basis):
        # min tr(s) s.t. s >= 0, s >= A: one 2-stack, optimum the positive part of A
        d = len(A)
        F = np.stack([np.stack((b, b)) for b in basis])
        c = np.array([np.trace(b).real for b in basis])
        x0 = np.zeros(len(basis))
        x0[:d] = float(np.abs(np.linalg.eigvalsh(A)).max()) + 1.0  # s = x0 I
        return c, SdpBlock(np.stack((np.zeros_like(A), -A)), F), x0

    def positive_part(self, A, basis):
        return solve_conic(*self.positive_part_program(A, basis))

    def test_positive_part_sdp(self):
        rng = np.random.default_rng(0)
        d = 4
        A = rng.standard_normal((d, d))
        A = (A + A.T) / 2
        oracle = float(np.clip(np.linalg.eigvalsh(A), 0, None).sum())
        res = self.positive_part(A, symmetric_basis(d))
        assert res.converged
        assert abs(res.objective - oracle) < 1e-6

    def test_positive_part_complex_hermitian(self):
        # the same program over complex Hermitian s: every conjugate transpose
        # of the solver's stack branch matters here
        rng = np.random.default_rng(5)
        d = 4
        A = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
        A = (A + A.conj().T) / 2
        oracle = float(np.clip(np.linalg.eigvalsh(A), 0, None).sum())
        res = self.positive_part(A, hermitian_basis(d))
        assert res.converged
        assert abs(res.objective - oracle) < 1e-6

    def test_nonconvergence_raises_with_best_iterate(self):
        c = np.ones(1)
        block = SdpBlock(np.array([[[-1.0]]]), np.array([[[[1.0]]]]))
        with pytest.raises(SdpConvergenceError) as ei:
            solve_conic(c, block, np.array([2.0]), max_iter=1)
        assert ei.value.result is not None
        assert ei.value.result.gap >= 0

    @pytest.mark.parametrize("basis", [symmetric_basis, hermitian_basis])
    def test_dual_not_positive_definite_at_scaling_raises_with_best(self, monkeypatch, basis):
        # steps twice as long as the cone allows leave a dual stack that is
        # not positive definite: its Cholesky factorization at the next NT
        # scaling stops the solve with the best iterate, not a LinAlgError
        import stabverify.solver as solver

        monkeypatch.setattr(solver, "STEP_FRAC", 2.0)
        rng = np.random.default_rng(2)
        A = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
        A = (A + A.conj().T) / 2 if basis is hermitian_basis else (A.real + A.real.T) / 2
        message = r"^NT scaling failed at iteration \d+: "
        with pytest.raises(SdpConvergenceError, match=message) as ei:
            self.positive_part(A, basis(4))
        assert ei.value.result is not None
        assert np.isfinite(ei.value.result.objective) and ei.value.result.gap >= 0

    @pytest.mark.parametrize("seed", [42, 64])
    def test_failed_step_length_eigensolve_raises_with_best(self, monkeypatch, seed):
        # on these programs an overshooting step leaves a scaling so badly
        # conditioned that the step-length eigensolve itself does not
        # converge: the solve stops with the best iterate, not a LinAlgError
        import stabverify.solver as solver

        monkeypatch.setattr(solver, "STEP_FRAC", 2.0)
        A = np.random.default_rng(seed).standard_normal((4, 4))
        message = r"^step length failed at iteration \d+: "
        with np.errstate(over="ignore", invalid="ignore"):  # the scaling overflows
            with pytest.raises(SdpConvergenceError, match=message) as ei:
                self.positive_part((A + A.T) / 2, symmetric_basis(4))
        assert ei.value.result is not None

    def test_iterate_after_the_last_step_is_tested(self):
        # max_iter steps reach iterate max_iter, which is tested like the rest
        c = np.ones(1)
        block = SdpBlock(np.array([[[-1.0]]]), np.array([[[[1.0]]]]))
        steps = solve_conic(c, block, np.array([2.0])).iterations
        res = solve_conic(c, block, np.array([2.0]), max_iter=steps)
        assert res.converged and res.iterations == steps
        with pytest.raises(SdpConvergenceError, match=f"after {steps - 1} iterations"):
            solve_conic(c, block, np.array([2.0]), max_iter=steps - 1)


def conic_program(kind):
    """(c, block, x0) as the dense path (a real or a complex PptBlock) or the
    reduced path (a CutBlock) hands them to solve_conic, for a noisy 3-qubit
    path state."""
    graph = Graph.path(3)
    p = apply_noise(graph, NoiseModel((0.05, 0.03, 0.07), 0.02)).p
    rho = graph_diagonal_operator(p, graph)
    if kind == "complex":  # local phases diag(1, e^{i phi}) on qubits 1 and 3
        bits = np.arange(8)
        phases = np.exp(0.7j * ((bits >> 2) & 1) + 1.9j * (bits & 1))
        rho = phases[:, None] * rho * phases.conj()[None, :]
    if kind == "cut":
        return first_posed(lambda: symmetry_reduced_robustness(p, graph))
    return first_posed(lambda: ppt_robustness(rho))


def first_posed(run):
    """(c, block, x0) of the first program that run() hands to solve_conic."""
    import stabverify.sdp as sdp

    posed = []
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(sdp, "solve_conic", lambda *args: posed.append(args) or solve_conic(*args))
        run()
    return posed[0]


@pytest.mark.parametrize("kind", ["real", "complex", "cut"])
def test_dual_start_is_dual_feasible(kind):
    # the unit start scaled by c'a / a'a, a = adjoint(unit), has a zero dual
    # residual on both blocks, whose a is a multiple of c
    c, block, x0 = conic_program(kind)
    with pytest.raises(SdpConvergenceError, match="after 0 iterations") as ei:
        solve_conic(c, block, x0, max_iter=0)
    start = ei.value.result
    assert start.iterations == 0 and np.array_equal(start.x, x0)
    assert start.dual_residual <= 1e-15 * (1.0 + np.abs(c).max())


@pytest.mark.parametrize("psd,c", [
    (True, [1.0]), (True, [0.0]), (False, [1.0, -2.0]), (False, [1.0, -1.0]),
], ids=["psd-negative", "psd-zero", "orthant-negative", "orthant-zero"])
def test_unit_start_is_kept_without_a_positive_multiple(psd, c):
    # c'a <= 0 for a = adjoint(unit): no positive multiple of the unit start
    # (2 I on a matrix, 1 on an orthant entry) is nearer dual feasibility
    c = np.array(c)
    if psd:  # 1 - x >= 0 as a 1 x 1 stack, a = -2
        block = SdpBlock(np.array([[[1.0]]]), np.array([[[[-1.0]]]]))
        unit = np.full((1, 1, 1), 2.0)
    else:
        block, unit = DiagonalBlock(np.zeros(2)), np.ones(2)
    with pytest.raises(SdpConvergenceError, match="after 0 iterations") as ei:
        solve_conic(c, block, np.full(c.size, 0.5), max_iter=0)
    assert np.array_equal(ei.value.result.dual, unit)


class KeepsIterates:
    """A block that holds on to every array the solver hands it, with a copy,
    so that a test can tell whether the solver later changed one in place."""

    def __init__(self, block):
        self.block, self.seen = block, []  # (method, array, copy)

    def keep(self, method, a):
        self.seen.append((method, a, a.copy()))

    def slack(self, x):
        self.keep("slack", x)
        return self.block.slack(x)

    def adjoint(self, Z):
        self.keep("adjoint", Z)
        return self.block.adjoint(Z)

    def apply(self, dx):
        return self.block.apply(dx)

    def factor(self, W):
        self.keep("factor", W)
        return self.block.factor(W)

    def iterates(self):
        """(x, Z) of every iterate the solver tested.  Each x goes to slack
        once; the first adjoint after it is its Z's dual residual, except at
        the start, whose first adjoint is the unscaled unit dual."""
        out, x, skip = [], None, 1
        for method, a, _ in self.seen:
            if method == "slack":
                x = a
            elif method == "adjoint" and x is not None:
                if skip:
                    skip -= 1
                else:
                    out.append((x, a))
                    x = None
        return out


@pytest.mark.parametrize("kind", ["real", "complex", "cut"])
def test_kept_iterates_are_never_overwritten(kind):
    # the best and the converged iterate are the solver's own x and Z, not
    # copies: each must still be exactly the point whose objective and gap
    # were recorded, and no array handed to the block may change afterwards
    c, block, x0 = conic_program(kind)
    assert type(block).__name__ == ("CutBlock" if kind == "cut" else "PptBlock")
    assert np.iscomplexobj(getattr(block, "offset", None)) == (kind == "complex")
    converged = solve_conic(c, block, x0)
    keeper = KeepsIterates(block)
    with pytest.raises(SdpConvergenceError, match="no convergence") as ei:
        solve_conic(c, keeper, x0, max_iter=converged.iterations - 2)
    for res in (ei.value.result, converged):
        assert c @ res.x == res.objective
        assert np.vdot(block.slack(res.x), res.dual).real == res.gap
    assert all(np.array_equal(a, kept) for _, a, kept in keeper.seen)


@pytest.mark.parametrize("program", ["cluster2", "positive-part"])
def test_best_iterate_minimizes_abs_gap_plus_residual(monkeypatch, program):
    # steps twice as long as the cone allows take the dual out of the cone,
    # where the gap reads about -3e273: the reported best iterate must be the
    # one nearest optimality by |gap| + dual residual, not by gap + residual
    import stabverify.solver as solver

    if program == "cluster2":  # robustness --method dense of the pure 2-qubit cluster
        rho = graph_diagonal_operator(np.array([1.0, 0.0, 0.0, 0.0]), Graph.path(2))
        c, block, x0 = first_posed(lambda: ppt_robustness(rho))
    else:
        rng = np.random.default_rng(1)
        A = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
        c, block, x0 = TestSolverCore.positive_part_program((A + A.conj().T) / 2, hermitian_basis(4))
    monkeypatch.setattr(solver, "STEP_FRAC", 2.0)
    keeper = KeepsIterates(block)
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(SdpConvergenceError) as ei:
            solve_conic(c, keeper, x0)
        scores = [abs(np.vdot(block.slack(x), Z).real) + np.linalg.norm(c - block.adjoint(Z), np.inf)
                  for x, Z in keeper.iterates()]
    best = ei.value.result
    assert len(scores) > best.iterations and max(scores) > 1e270
    assert abs(best.gap) + best.dual_residual == min(scores)


class DiagonalBlock:
    """min c'x s.t. x >= low as one orthant block with the identity map: its
    Schur matrix is diag(W), which ``factor`` inverts entrywise.  It has no
    ``schur``, so the solver can only reach it through ``factor``."""

    def __init__(self, low):
        self.low = low

    def slack(self, x):
        return x - self.low

    def apply(self, dx):
        return dx

    def adjoint(self, z):
        return z

    def factor(self, W):
        return lambda rhs: rhs / W


def test_newton_solves_come_only_from_the_block(monkeypatch):
    # with numpy's dense solve and Cholesky refusing every call, an
    # elementwise factor still takes the solver to x = low
    def refuse(*args, **kwargs):
        raise AssertionError("the solver called dense linear algebra")

    monkeypatch.setattr(np.linalg, "solve", refuse)
    monkeypatch.setattr(np.linalg, "cholesky", refuse)
    low, c = np.array([0.3, -1.0, 2.0, 0.0]), np.array([1.0, 2.0, 0.5, 3.0])
    res = solve_conic(c, DiagonalBlock(low), low + 1.0)
    assert res.converged
    assert np.allclose(res.x, low, rtol=0, atol=1e-6)
    assert np.allclose(res.dual, c, rtol=1e-6)


class FactorFailsAt:
    """A block whose factorization raises LinAlgError, as for a Schur matrix
    that is not positive definite, from its call number `at` (0-based) on."""

    def __init__(self, block, at):
        self.block, self.at, self.calls = block, at, 0

    def __getattr__(self, name):
        return getattr(self.block, name)

    def factor(self, W):
        self.calls += 1
        if self.calls > self.at:
            raise np.linalg.LinAlgError("Matrix is not positive definite")
        return self.block.factor(W)


def test_failed_factor_raises_with_the_best_iterate():
    c, block, x0 = conic_program("cut")
    message = r"^Schur system not positive definite at iteration 2$"
    with pytest.raises(SdpConvergenceError, match=message) as ei:
        solve_conic(c, FactorFailsAt(block, 2), x0)
    res = ei.value.result
    assert res is not None and not res.converged and res.iterations <= 2
    assert c @ res.x == res.objective
    assert np.vdot(block.slack(res.x), res.dual).real == res.gap


def test_last_newton_matrix_is_released_before_the_next_factorization(monkeypatch):
    # each iteration's solve holds its Schur matrix; it must be freed before
    # the next one is formed and factored, or a large solve peaks with two
    import weakref

    import stabverify.sdp as sdp

    made, live = [], []
    newton, factor = sdp.dense_newton, sdp.CutBlock.factor

    def recording_newton(H):
        made.append(weakref.ref(H))
        return newton(H)

    def counting_factor(block, W):
        live.append(sum(ref() is not None for ref in made))
        return factor(block, W)

    monkeypatch.setattr(sdp, "dense_newton", recording_newton)
    monkeypatch.setattr(sdp.CutBlock, "factor", counting_factor)
    graph = Graph.path(4)
    sol = symmetry_reduced_robustness(apply_noise(graph, NoiseModel.uniform(4, 0.05)).p, graph)
    assert sol.iterations == len(live) == len(made) >= 5
    assert live == [0] * len(live)


@settings(max_examples=60, deadline=None)
@given(n=st.integers(1, 70), seed=st.integers(0, 2 ** 32 - 1))
@example(n=63, seed=0)
@example(n=64, seed=0)
@example(n=65, seed=0)
def test_dense_newton_solves_the_ridged_symmetric_part(n, seed):
    # bit for bit np.linalg.solve on (H + H') / 2 with the 1e-14 tr / n ridge,
    # for H whose symmetric part is positive definite; a symmetric H with a
    # negative diagonal entry is not positive definite and is refused
    rng = np.random.default_rng(seed)
    H = rng.uniform(-1.0, 1.0, (n, n)) + (n + 1.0) * np.eye(n)
    rhs = rng.standard_normal(n)
    S = 0.5 * (H + H.T)
    S[np.diag_indices(n)] += 1e-14 * np.trace(S) / n
    assert np.array_equal(dense_newton(H.copy())(rhs), np.linalg.solve(S, rhs))
    k = rng.integers(n)
    S[k, k] = -S[k, k]
    with pytest.raises(np.linalg.LinAlgError):
        dense_newton(S)


def unit_bounded(shape):
    return arrays(np.float64, shape, elements=st.floats(-1.0, 1.0))


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_nt_scaling_diagonalizes_both_sides(data):
    # R S R* = R^-* Z R^-1 = diag(lam) on random positive definite stacks,
    # and W = (R* R)^-1 is the Nesterov-Todd point: W Z W = S
    k, d = data.draw(st.integers(1, 4)), data.draw(st.integers(1, 6))
    real = data.draw(st.booleans())

    def positive_definite():
        a = data.draw(unit_bounded((k, d, d)))
        if not real:
            a = a + 1j * data.draw(unit_bounded((k, d, d)))
        return a @ _ct(a) + 0.1 * np.eye(d)

    S, Z = positive_definite(), positive_definite()
    R, lam = _nt_scaling(S, Z)
    assert R.dtype == S.dtype and lam.shape == (k, d)
    Ri = np.linalg.inv(R)
    W = np.linalg.inv(_ct(R) @ R)

    def close(got, want):
        return np.max(np.abs(got - want)) <= 1e-10 * np.max(np.abs(want))

    assert close(R @ S @ _ct(R), _diag(lam))
    assert close(_ct(Ri) @ Z @ Ri, _diag(lam))
    assert close(W @ Z @ W, S)


def _step_case(data, psd):
    """lam > 0 and scaled directions ds, dz: a (k, d) lam with real or
    complex Hermitian (k, d, d) stacks, or an (m,) lam with vectors.  Each
    direction is indefinite or, at times, in the cone (an infinite step)."""
    rng = np.random.default_rng(data.draw(st.integers(0, 2 ** 32 - 1), label="seed"))
    shape = ((data.draw(st.integers(1, 4), label="k"), data.draw(st.integers(1, 6), label="d"))
             if psd else (data.draw(st.integers(1, 12), label="m"),))
    lam = np.exp(rng.uniform(-3.0, 3.0, shape))

    def direction():
        a = rng.standard_normal(shape + shape[-1:] if psd else shape)
        if psd and not real:
            a = a + 1j * rng.standard_normal(a.shape)
        a = (a @ _ct(a) if psd else a * a) if data.draw(st.booleans(), label="in cone") else (
            (a + _ct(a)) / 2.0 if psd else a)
        return a * np.exp(rng.uniform(-3.0, 3.0))

    real = data.draw(st.booleans(), label="real")
    return lam, direction(), direction()


def _cone_min(lam, d):
    """Smallest eigenvalue of diag(lam) + d over the stack, or entry of lam + d."""
    return (np.linalg.eigvalsh(_diag(lam) + d) if lam.ndim == 2 else lam + d).min()


@settings(max_examples=80, deadline=None)
@given(data=st.data())
def test_orthant_steps_are_the_rule_on_1x1_blocks(data):
    # an orthant is a stack of 1 x 1 PSD blocks: the same rule, one eigensolve
    # per entry, gives the same steps up to rounding
    lam, ds, dz = _step_case(data, psd=False)
    for d in ((ds,), (ds, dz)):
        stacked = _max_steps(lam[:, None], *(v[:, None, None] for v in d))
        assert np.allclose(_max_steps(lam, *d), stacked, rtol=1e-12, atol=0)


@settings(max_examples=80, deadline=None)
@given(data=st.data(), psd=st.booleans())
def test_finite_steps_end_on_the_cone_boundary(data, psd):
    # diag(lam) + alpha d has its smallest eigenvalue (entry) at 0 and lies
    # inside the cone short of the step; an infinite step has d in the cone
    lam, ds, dz = _step_case(data, psd)
    for alpha, d in zip(_max_steps(lam, ds, dz), (ds, dz)):
        if alpha == np.inf:
            assert _cone_min(np.zeros_like(lam), d) >= -1e-12 * np.abs(d).max()
        else:
            scale = lam.max() + alpha * np.abs(d).max()
            assert abs(_cone_min(lam, alpha * d)) <= 1e-12 * scale
            assert _cone_min(lam, STEP_FRAC * alpha * d) > 0


@settings(max_examples=80, deadline=None)
@given(data=st.data(), psd=st.booleans())
def test_affine_dual_step_is_the_rule_on_its_direction(data, psd):
    # dz = None stands for -diag(lam) - ds; the reciprocal step -min(e), 0
    # for an infinite step, is compared, since a step near inf is ill-posed
    lam, ds, _ = _step_case(data, psd)
    explicit = -(_diag(lam) if psd else lam) - ds
    got, want = (1.0 / np.array(_max_steps(lam, ds, dz)) for dz in (None, explicit))
    assert np.allclose(got, want, rtol=1e-12, atol=1e-12 * (1.0 + np.abs(ds).max() / lam.min()))


@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_psd_steps_equal_separate_eigensolves(data):
    # the one batched eigvalsh of both directions makes the same LAPACK
    # calls as one eigvalsh per direction, so the steps are bit-identical
    lam, ds, dz = _step_case(data, psd=True)
    li = 1.0 / np.sqrt(lam)
    ts = [np.linalg.eigvalsh((li[:, :, None] * d) * li[:, None, :]).min() for d in (ds, dz)]
    assert _max_steps(lam, ds, dz) == [np.inf if t >= 0.0 else 1.0 / (-t) for t in ts]


@pytest.mark.parametrize("real", [True, False], ids=["real", "complex"])
@pytest.mark.parametrize("n", [2, 3, 4])
def test_schur_matches_three_gather_assembly(n, real):
    # the Khatri-Rao assembly keeps the products and the order of the sums
    # over parts: equal for a real symmetric stack, and equal up to the
    # conjugate of a sum for a complex Hermitian one
    rng = np.random.default_rng(n)
    d, parts = 1 << n, all_bipartitions(n)
    shape = (1 + len(parts), d, d)
    a, h = rng.standard_normal(shape), rng.standard_normal((d, d))
    rho = h + h.T + 0j
    if not real:
        a = a + 1j * rng.standard_normal(shape)
        rho = rho + 1j * (h - h.T)
    block = PptBlock(rho, parts)
    W = a + _ct(a)
    got, want = block.schur(W), three_gather_schur(block, W)
    if real:
        assert np.array_equal(got, want)
    else:
        assert np.max(np.abs(got - want)) <= 1e-14 * np.max(np.abs(want))


@pytest.mark.parametrize("real", [True, False], ids=["real", "complex"])
def test_schur_reuses_its_work_arrays_but_never_its_result(real):
    # one block fed alternating scaling stacks returns, bit for bit, what a
    # fresh block returns for each, and no two returned matrices share memory
    rng = np.random.default_rng(11)
    d, parts = 8, all_bipartitions(3)
    h = rng.standard_normal((d, d))
    rho = h + h.T + (0j if real else 1j * (h - h.T))
    stacks = []
    for _ in range(2):
        a = rng.standard_normal((1 + len(parts), d, d))
        if not real:
            a = a + 1j * rng.standard_normal(a.shape)
        stacks.append(a + _ct(a))
    block = PptBlock(rho, parts)
    assert np.iscomplexobj(block.offset) != real
    got = [block.schur(W) for W in stacks * 2]
    for H, W in zip(got, stacks * 2):
        assert np.array_equal(H, PptBlock(rho, parts).schur(W))
    assert not any(np.shares_memory(a, b) for i, a in enumerate(got) for b in got[i + 1:])


@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_ppt_block_matches_dense_oracle(data):
    # every map of the index-map stack against the F stack it replaces: a real
    # rho takes the real symmetric coordinates, any other the Hermitian ones
    n = data.draw(st.integers(1, 3))
    d = 1 << n
    real = data.draw(st.booleans())
    subsets = st.sets(st.integers(1, n)).map(lambda s: tuple(sorted(s)))
    parts = data.draw(st.lists(subsets, min_size=1, max_size=4))
    k = 1 + len(parts)
    re, im = data.draw(unit_bounded((d, d))), data.draw(unit_bounded((d, d)))
    wr, wi = data.draw(unit_bounded((k, d, d))), data.draw(unit_bounded((k, d, d)))
    zr, zi = data.draw(unit_bounded((k, d, d))), data.draw(unit_bounded((k, d, d)))
    rho = re + re.T + 0j
    W = wr + wr.swapaxes(1, 2)  # schur's scaling stack
    Z = zr
    if real:
        rho, basis = rho.real, symmetric_basis(d)
    else:
        im[0, 1] += data.draw(st.floats(0.1, 1.0))  # keep rho complex
        rho = rho + 1j * (im - im.T)
        W = W + 1j * (wi - wi.swapaxes(1, 2))
        Z = Z + 1j * zi
        basis = hermitian_basis(d)
    x = data.draw(unit_bounded(len(basis)))
    block = PptBlock(rho + 0j, parts)
    assert block.scale.size == (d * (d + 1) // 2 if real else d * d) == len(basis)
    assert block.offset.dtype == (np.float64 if real else np.complex128)
    all_parts = [(), *parts]
    F = np.stack([np.stack([partial_transpose(B, t) for t in all_parts]) for B in basis])
    F0 = np.stack([np.zeros((d, d))] + [partial_transpose(rho, t) for t in parts])
    oracle = SdpBlock(F0, F)

    def close(got, want):
        return np.max(np.abs(got - want)) <= 1e-12 * max(1.0, np.max(np.abs(want)))

    assert close(block.slack(x), oracle.slack(x))
    assert close(block.apply(x), oracle.apply(x))
    assert close(block.adjoint(Z), oracle.adjoint(Z))
    assert close(block.schur(W), oracle.schur(W))
    assert close(block.hermitian(x), np.tensordot(x, F[:, 0], axes=(0, 0)))


@settings(max_examples=20, deadline=None)
@given(data=st.data())
def test_complex_rho_matches_its_real_local_unitary_image(data):
    # local diagonal phases diag(1, e^{i phi}) make a real rho complex without
    # changing its robustness: the two solves, one in the real symmetric and
    # one in the Hermitian coordinates, agree within their certified gaps
    import stabverify.sdp as sdp

    n = data.draw(st.integers(2, 3))
    d = 1 << n
    a = data.draw(unit_bounded((d, d)))
    mixed = a @ a.T + 1e-3 * np.eye(d)
    w = data.draw(st.floats(0.0, 0.25))
    v = graph_state_vector(Graph.path(n))
    # NPT on every cut: each partial transpose of the path graph state has
    # least eigenvalue -1/2 for n <= 3, so rho^Gamma's is at most -(1 - w) / 2 + w
    rho = (1 - w) * np.outer(v, v) + w * mixed / np.trace(mixed)
    qubits = data.draw(st.sets(st.integers(1, n), min_size=1))
    phases = np.ones(d, dtype=np.complex128)
    for q in qubits:
        bit = (np.arange(d) >> (n - q)) & 1
        phases *= np.exp(1j * data.draw(st.floats(0.3, 2.8)) * bit)
    rotated = phases[:, None] * rho * phases.conj()[None, :]
    assert np.abs(rotated.imag).max() > 1e-3

    sizes = []
    real_solve = sdp.solve_conic

    def recording(c, block, x0):
        sizes.append((c.size, block.offset.dtype))
        return real_solve(c, block, x0)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(sdp, "solve_conic", recording)
        sol_real = ppt_robustness(rho)
        sol_complex = ppt_robustness(rotated)
    assert sizes == [(d * (d + 1) // 2, np.float64), (d * d, np.complex128)]
    assert abs(sol_real.value - sol_complex.value) <= (
        sol_real.duality_gap + sol_complex.duality_gap)


class TestBellOracle:
    def test_value_against_hand_constructions(self):
        rho = bell_density()
        sol = ppt_robustness(rho, [[1]])
        # primal witness: the singlet projector is feasible with trace 1
        sig = singlet_projector()
        assert np.linalg.eigvalsh(sig)[0] > -1e-12
        assert np.linalg.eigvalsh(partial_transpose(rho + sig, [1]))[0] > -1e-10
        # dual witness: Y = 2 * singlet projector proves value >= 1
        Y = 2.0 * sig
        assert np.linalg.eigvalsh(Y)[0] > -1e-12
        assert np.linalg.eigvalsh(np.eye(4) - partial_transpose(Y, [1]))[0] > -1e-10
        dual_value = -np.trace(Y @ partial_transpose(rho, [1])).real
        assert abs(dual_value - 1.0) < 1e-12
        assert abs(sol.value - 1.0) < 1e-5

    def test_dense_search_confirms_infeasibility_below_one(self):
        # dense SLSQP search over the Pauli parametrization: no feasible
        # sigma with tr sigma < 1 - 1e-4
        from scipy.optimize import minimize

        rho = bell_density()
        # sigma = sum_i x_i P_i / 4 and its partial transpose, stacked once
        paulis = [pauli_to_matrix(PauliString.from_string(a + b))
                  for a in "IXYZ" for b in "IXYZ"]
        basis = np.stack([(P, partial_transpose(P, [1])) for P in paulis]) / 4.0
        offset = np.stack((np.zeros((4, 4)), partial_transpose(rho, [1])))

        def neg_eigs(x):
            # least eigenvalue of sigma and of (rho + sigma)^Gamma
            return np.linalg.eigvalsh(offset + np.tensordot(x, basis, axes=1))[:, 0].min()

        rng = np.random.default_rng(1)
        feasible = []
        for _ in range(8):
            x0 = rng.standard_normal(16) * 0.2
            x0[0] = 2.0  # trace component
            res = minimize(
                lambda x: x[0],  # tr sigma = x0 (identity coefficient * 4 / 4)
                x0,
                constraints=[{"type": "ineq", "fun": neg_eigs}],
                method="SLSQP",
                options={"maxiter": 300, "ftol": 1e-12},
            )
            # the restarts stop at maxiter without reporting success; a final
            # iterate counts when it meets the constraint
            if neg_eigs(res.x) > -1e-8:
                feasible.append(res.fun)
        assert feasible and min(feasible) >= 1.0 - 1e-4

    def test_certificate_fields(self):
        sol = ppt_robustness(bell_density(), [[1]])
        assert sol.duality_gap <= 1e-6 * (1 + abs(sol.value))
        assert sol.dual_value <= sol.value + 1e-12
        assert sol.sigma_min_eig >= -1e-8
        assert all(v >= -1e-8 for v in sol.min_eigs.values())
        # independent verification of the stored certificate via LAPACK
        Y = sol.dual_certificate[0]
        assert np.linalg.eigvalsh(Y)[0] >= -1e-10
        slack = np.eye(4) - partial_transpose(Y, [1])
        assert np.linalg.eigvalsh(slack)[0] >= -1e-10
        recomputed = -np.trace(Y @ partial_transpose(bell_density(), [1])).real
        assert abs(recomputed - sol.dual_value) < 1e-10


def _tamper(check):
    """solve_conic with its returned iterate spoiled so that one certificate
    check must refuse it."""
    real = solve_conic

    def tampered(c, block, x0):
        res = real(c, block, x0)
        if check == "sigma":
            res.x = res.x - 1e-3 * c  # sigma minus a multiple of I: not PSD
        elif check == "cut":
            res.x = 0.5 * res.x  # half the optimal sigma leaves the cut NPT
        else:
            res.dual = 0.0 * res.dual  # a zero dual bound against value 1
        return res

    return tampered


@pytest.mark.parametrize("method", ["dense", "reduced"])
@pytest.mark.parametrize("check,message", [
    ("sigma", r"^sigma not PSD \("),
    ("cut", r"^\(rho\+sigma\)\^Gamma not PSD on \(1,\) \("),
    ("gap", r"^certified duality gap .* exceeds tolerance$"),
], ids=["sigma", "cut", "gap"])
def test_certificate_refuses_a_tampered_iterate(monkeypatch, method, check, message):
    import stabverify.sdp as sdp

    monkeypatch.setattr(sdp, "solve_conic", _tamper(check))
    with pytest.raises(SdpConvergenceError, match=message):
        if method == "dense":
            ppt_robustness(bell_density(), [[1]])
        else:
            symmetry_reduced_robustness(np.eye(4)[0], Graph.path(2))


class TestPptMinEig:
    def test_bell(self):
        assert abs(ppt_min_eig(bell_density(), [1]) + 0.5) < 1e-10

    def test_product_state(self):
        rng = np.random.default_rng(2)
        a = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
        ra = a @ a.conj().T
        ra /= np.trace(ra).real
        b = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
        rb = b @ b.conj().T
        rb /= np.trace(rb).real
        rho = np.kron(rb, ra)
        assert ppt_min_eig(rho, [1]) >= -1e-12

    def test_maximally_mixed(self):
        assert abs(ppt_min_eig(np.eye(8) / 8, [1, 2]) - 1 / 8) < 1e-12


@settings(max_examples=80, deadline=None)
@given(n=st.integers(2, 3), complex_=st.booleans(), seed=st.integers(0, 2 ** 32 - 1))
# about 1 in 200 of these states leaves the raw dual of the solve infeasible
# by more than 1e-10, so that only the certificate's rescaling restores
# I - sum_T Y_T^Gamma_T >= 0; these three do so by 0.9e-9 to 3.3e-9
@example(n=3, complex_=True, seed=173)
@example(n=3, complex_=False, seed=200)
@example(n=2, complex_=False, seed=8)
def test_dense_certificates_hold_on_random_states(n, complex_, seed):
    # sigma and the rescaled dual certificate of the dense path, checked from
    # the returned operators alone with numpy's eigensolver: primal
    # feasibility, dual feasibility and the dual value
    d = 1 << n
    rng = np.random.default_rng(seed)
    rank = int(rng.integers(1, d + 1))
    a = rng.standard_normal((d, rank))
    if complex_:
        a = a + 1j * rng.standard_normal((d, rank))
    rho = a @ a.conj().T
    rho /= np.trace(rho).real
    sol = ppt_robustness(rho)
    assert sol.partitions == all_bipartitions(n)
    pairs = list(zip(sol.partitions, sol.dual_certificate))
    assert np.linalg.eigvalsh(sol.sigma)[0] >= -1e-8
    for part, Y in pairs:
        assert np.linalg.eigvalsh(partial_transpose(rho + sol.sigma, part))[0] >= -1e-8
        assert np.linalg.eigvalsh(Y)[0] >= -1e-10
    total = sum(partial_transpose(Y, part) for part, Y in pairs)
    assert np.linalg.eigvalsh(np.eye(d) - total)[0] >= -1e-10
    dual = -sum(np.trace(Y @ partial_transpose(rho, part)).real for part, Y in pairs)
    assert abs(dual - sol.dual_value) <= 1e-9


class TestDensePath:
    def test_separable_diagonal_is_zero(self):
        rho = np.diag([0.4, 0.3, 0.2, 0.1]).astype(complex)
        sol = ppt_robustness(rho, all_bipartitions(2))
        assert sol.value == 0.0
        assert sol.iterations == 0
        assert np.allclose(sol.sigma, 0)

    @pytest.mark.parametrize(
        "n,graph",
        [
            (2, Graph.path(2)),
            (3, Graph.path(3)),
            (3, Graph.from_edges(3, [(1, 2), (1, 3)])),
            (4, Graph.path(4)),
            (4, Graph.from_edges(4, [(1, 2), (1, 3), (1, 4)])),
        ],
    )
    def test_pure_graph_state_value(self, n, graph):
        # pure graph states on two-colorable graphs: 2^|B| - 1 over all cuts
        b = sv.two_coloring(graph).b_size
        v = graph_state_vector(graph)
        rho = np.outer(v, v.conj())
        sol = ppt_robustness(rho, all_bipartitions(n))
        assert abs(sol.value - (2 ** b - 1)) < 1e-4

    def test_noisy_cluster_iterations_and_reduced_agreement(self, paper4):
        # the exact iteration count from the dual-feasible start (the unit
        # start of the F-stack blocks this path replaced took 10)
        graph, frame = paper4
        for z in (0.02, 0.05, 0.08):
            p = apply_noise(graph, NoiseModel((z, z + 0.004, z - 0.003, z + 0.002), 0.02)).p
            rho = graph_diagonal_operator(p, graph, frame)
            sol = ppt_robustness(rho, all_bipartitions(4))
            reduced = symmetry_reduced_robustness(p, graph, frame)
            assert sol.iterations == 9
            assert abs(sol.value - reduced.value) <= 1e-8 * reduced.value
            assert sol.duality_gap <= 1e-6 * (1 + sol.value)

    @pytest.mark.parametrize("rho", [bell_density(), np.eye(4) / 4], ids=["solved", "trivial"])
    def test_operators_are_complex_hermitian_for_real_rho(self, rho):
        # the real symmetric solve still hands callers complex128 operators
        sol = ppt_robustness(rho.real, [[1]])
        assert len(sol.dual_certificate) == 1
        for op in (sol.sigma, *sol.dual_certificate):
            assert op.dtype == np.complex128 and op.shape == (4, 4)
            assert np.allclose(op, op.conj().T, rtol=0.0, atol=1e-14)

    def test_monotone_in_partitions(self):
        p, rho = rand_graph_diag(3, Graph.path(3), seed=3)
        parts = all_bipartitions(3)
        prev = -1.0
        for stop in range(1, len(parts) + 1):
            val = ppt_robustness(rho, parts[:stop]).value
            assert val >= prev - 1e-7
            prev = val

    def test_partition_reordering_and_complement_invariance(self):
        p, rho = rand_graph_diag(3, Graph.path(3), seed=4)
        parts = all_bipartitions(3)
        v1 = ppt_robustness(rho, parts).value
        flipped = [tuple(sorted(set(range(1, 4)) - set(t))) for t in reversed(parts)]
        v2 = ppt_robustness(rho, flipped).value
        assert abs(v1 - v2) < 1e-8

    def test_rejects_bad_inputs(self):
        bad = np.diag([1.2, -0.2, 0.0, 0.0]).astype(complex)
        with pytest.raises(ValueError, match="PSD"):
            ppt_robustness(bad, [[1]])
        rho = np.diag([0.6, 0.6, 0.0, 0.0]).astype(complex)
        with pytest.raises(ValueError, match="trace"):
            ppt_robustness(rho, [[1]])
        with pytest.raises(ValueError, match="proper"):
            canonical_partitions(2, [[1, 2]])
        big = np.eye(128, dtype=complex) / 128
        with pytest.raises(ValueError, match="capped"):
            ppt_robustness(big, [[1]])

    @pytest.mark.parametrize("bad", [np.nan, np.inf], ids=["nan", "inf"])
    def test_rejects_non_finite_rho(self, bad):
        rho = bell_density()
        rho[1, 1] = bad
        with pytest.raises(ValueError, match="finite"):
            ppt_robustness(rho, [[1]])

    @pytest.mark.parametrize("shape", [(4,), (4, 4, 4)], ids=["1d", "3d"])
    def test_rejects_rho_that_is_not_a_matrix(self, shape):
        with pytest.raises(ValueError, match="square"):
            ppt_robustness(np.ones(shape), [[1]])


class TestReducedPath:
    def test_uniform_is_zero(self):
        sol = symmetry_reduced_robustness(np.full(16, 1 / 16), Graph.path(4))
        assert sol.value == 0.0

    def test_pure_4path(self):
        p = np.zeros(16)
        p[0] = 1
        sol = symmetry_reduced_robustness(p, Graph.path(4))
        assert abs(sol.value - 3.0) < 1e-4
        assert sol.method == "reduced"

    @pytest.mark.parametrize(
        "n,graph",
        [
            (2, Graph.path(2)),
            (3, Graph.path(3)),
            (3, Graph.from_edges(3, [(1, 2), (1, 3)])),
            (3, Graph.from_edges(3, [(1, 2), (2, 3), (1, 3)])),
        ],
    )
    def test_matches_dense_exhaustively_small_n(self, n, graph):
        # every bipartition subset family and several random states
        parts = all_bipartitions(n)
        for seed in range(3):
            p, rho = rand_graph_diag(n, graph, seed=10 + seed)
            vd = ppt_robustness(rho, parts).value
            vr = symmetry_reduced_robustness(p, graph, partitions=parts).value
            assert abs(vd - vr) < 1e-5

    def test_nine_qubit_prefix_cuts_match_an_independent_lp_solver(self):
        # the LP min sum x s.t. M_T (p + x) >= 0, x >= 0 with every M_T formed
        # densely from scipy's Hadamard matrix and solved by HiGHS, at
        # D = 512: its value lies between the certified dual bound and value
        from scipy.linalg import hadamard
        from scipy.optimize import linprog

        from stabverify.pauli import LocalFrame, StabilizerCodec

        n = 9
        graph = Graph.path(n)
        eps = np.random.default_rng(9).uniform(0.02, 0.08, n)
        p = apply_noise(graph, NoiseModel(tuple(eps), 0.01)).p
        cuts = [tuple(range(1, k + 1)) for k in range(1, n)]
        sol = symmetry_reduced_robustness(p, graph, partitions=cuts)
        H = hadamard(1 << n).astype(float)
        y = StabilizerCodec(graph, LocalFrame.identity(n)).y_masks()
        eps_t = [1.0 - 2.0 * (np.bitwise_count(y & sum(1 << (q - 1) for q in cut)) & 1)
                 for cut in cuts]
        M = np.vstack([H @ (e[:, None] * H) for e in eps_t]) / (1 << n)
        lp = linprog(np.ones(1 << n), A_ub=-M, b_ub=M @ p, bounds=(0, None), method="highs")
        assert lp.status == 0
        tol = 1e-7 * (1.0 + abs(sol.value))
        assert sol.dual_value - tol <= lp.fun <= sol.value + tol

    def test_matches_dense_single_partitions(self):
        graph = Graph.path(3)
        p, rho = rand_graph_diag(3, graph, seed=21)
        for part in all_bipartitions(3):
            vd = ppt_robustness(rho, [part]).value
            vr = symmetry_reduced_robustness(p, graph, partitions=[part]).value
            assert abs(vd - vr) < 1e-6

    def test_matches_dense_n4_random(self, paper4):
        graph, frame = paper4
        rng = np.random.default_rng(30)
        for _ in range(2):
            p = rng.dirichlet(np.ones(16))
            rho = graph_diagonal_operator(p, graph, frame)
            vd = ppt_robustness(rho, all_bipartitions(4)).value
            vr = symmetry_reduced_robustness(p, graph, frame).value
            assert abs(vd - vr) < 1e-6

    @settings(max_examples=60, deadline=None)
    @given(case=graphs_and_frames(max_n=3), seed=st.integers(0, 2 ** 32 - 1))
    def test_matches_dense_on_random_graphs_and_frames(self, case, seed):
        graph, frame = case
        p = np.random.default_rng(seed).dirichlet(np.ones(1 << graph.n))
        rho = graph_diagonal_operator(p, graph, frame)
        if graph.n == 1:  # one qubit has no bipartition, and both paths say so
            with pytest.raises(ValueError, match="need at least one partition"):
                ppt_robustness(rho)
            with pytest.raises(ValueError, match="need at least one partition"):
                symmetry_reduced_robustness(p, graph, frame)
            return
        sol = symmetry_reduced_robustness(p, graph, frame)
        assert abs(ppt_robustness(rho, all_bipartitions(graph.n)).value - sol.value) < 1e-6
        # sigma and the dual certificate hold as dense operators in the framed
        # graph basis; the value alone is the same in every frame
        assert np.linalg.eigvalsh(sol.sigma)[0] >= -1e-8
        for part in sol.partitions:
            assert np.linalg.eigvalsh(partial_transpose(rho + sol.sigma, part))[0] >= -1e-8
        pairs = list(zip(sol.partitions, sol.dual_certificate))
        total = sum(partial_transpose(Y, part) for part, Y in pairs)
        dual = -sum(np.trace(Y @ partial_transpose(rho, part)).real for part, Y in pairs)
        assert np.linalg.eigvalsh(np.eye(1 << graph.n) - total)[0] >= -1e-10
        assert abs(dual - sol.dual_value) < 1e-9

    def test_frame_invariance(self, paper4):
        graph, frame = paper4
        rng = np.random.default_rng(31)
        p = rng.dirichlet(np.ones(16))
        v1 = symmetry_reduced_robustness(p, graph).value
        v2 = symmetry_reduced_robustness(p, graph, frame).value
        assert abs(v1 - v2) < 1e-6

    def test_certificate_verified_independently(self, paper4):
        graph, frame = paper4
        p = np.zeros(16)
        p[0] = 0.9
        p[3] = 0.1
        sol = symmetry_reduced_robustness(p, graph, frame)
        rho = graph_diagonal_operator(p, graph, frame)
        total = np.zeros((16, 16), dtype=complex)
        dual = 0.0
        for part, Y in zip(sol.partitions, sol.dual_certificate):
            assert np.linalg.eigvalsh(Y)[0] >= -1e-10
            total += partial_transpose(Y, part)
            dual -= np.trace(Y @ partial_transpose(rho, part)).real
        assert np.linalg.eigvalsh(np.eye(16) - total)[0] >= -1e-10
        assert dual <= sol.value + 1e-12
        assert abs(dual - sol.dual_value) < 1e-9

    def test_dense_operators_built_only_on_access(self, paper4, monkeypatch):
        # the solve and its certification run on weight vectors; sigma and the
        # dual certificate become dense operators only when first read
        import stabverify.sdp as sdp

        def refuse(*args, **kwargs):
            raise AssertionError("dense operator built during the reduced solve")

        graph, frame = paper4
        p = np.zeros(16)
        p[0] = 0.9
        p[3] = 0.1
        real_operator = sdp.graph_diagonal_operator
        built = []

        def counting(*args):
            built.append(args)
            return real_operator(*args)

        monkeypatch.setattr(sdp, "eig_hermitian", refuse)
        monkeypatch.setattr(sdp, "graph_diagonal_operator", refuse)
        sol = symmetry_reduced_robustness(p, graph, frame)
        trivial = symmetry_reduced_robustness(np.full(16, 1 / 16), graph, frame)
        monkeypatch.setattr(sdp, "graph_diagonal_operator", counting)
        sigma = sol.sigma
        assert sol.sigma is sigma and len(sol.dual_certificate) == 7
        assert len(built) == 1 + len(sol.partitions)  # built once, then reused
        w = np.linalg.eigvalsh(sigma)
        assert abs(w.sum() - sol.value) < 1e-12
        assert abs(w[0] - sol.sigma_min_eig) < 1e-12
        assert np.allclose(trivial.sigma, 0) and len(trivial.dual_certificate) == 7

    def test_rejects_unphysical_state(self):
        with pytest.raises(ValueError, match="physical"):
            symmetry_reduced_robustness(np.array([0.5, 0.6, -0.1, 0.0]), Graph.path(2))

    @pytest.mark.parametrize("p", [
        [np.nan, 0.5, 0.5, 0.0],
        [np.inf, 0.5, 0.5, 0.0],
        [0.25, 0.25, 0.25, 0.25 + 5e-10],
    ], ids=["nan", "inf", "sum-off-by-5e-10"])
    def test_rejects_population_vector_that_state_refuses(self, p):
        # the rule of GraphDiagonalState, so a NaN never reaches the solver
        with pytest.raises(ValueError, match="physical population vector"):
            symmetry_reduced_robustness(np.array(p), Graph.path(2))

    def test_barely_npt_state(self):
        # uniform mixing of the 4-qubit cluster crosses the PPT boundary at
        # w = 8/9; just below it the optimum is tiny but still certified
        graph = Graph.path(4)
        delta = np.eye(16)[0]
        for eps in (1e-4, 1e-6):
            w = 8.0 / 9.0 - eps
            p = (1 - w) * delta + w / 16
            sol = symmetry_reduced_robustness(p, graph)
            assert 0.0 < sol.value < 10 * eps
            assert sol.duality_gap <= 1e-6 * (1 + sol.value)
        w = 8.0 / 9.0 + 1e-6  # just inside: PPT on every cut, shortcut hit
        p = (1 - w) * delta + w / 16
        sol = symmetry_reduced_robustness(p, graph)
        assert sol.value == 0.0 and sol.iterations == 0
