import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from stabverify.kernels import fwht, pg_fit, simplex_project


def walsh_matrix(n):
    j = np.arange(1 << n)
    pop = np.zeros((1 << n, 1 << n), dtype=int)
    b = j[:, None] & j[None, :]
    for k in range(n):
        pop += (b >> k) & 1
    return 1.0 - 2.0 * (pop % 2)


def butterfly(a):
    """Radix-2 reference transform along the last axis, one level per pass."""
    out = np.array(a, dtype=np.float64, copy=True)
    *lead, size = out.shape
    h = 1
    while h < size:
        out = out.reshape(*lead, -1, 2, h)
        top = out[..., 0, :] + out[..., 1, :]
        bot = out[..., 0, :] - out[..., 1, :]
        out = np.stack((top, bot), axis=-2)
        h *= 2
    return out.reshape(*lead, size)


def fixed_step_pg(idx, values, weights, p0, max_iter, tol):
    """Plain projected gradient with pg_fit's step 1/L and KKT test, no momentum."""
    D = p0.size
    w = weights / weights.sum()
    L = 1.05 * 2.0 * D * w.max()
    p = p0.copy()
    kkt = np.inf
    it = 0
    for it in range(1, max_iter + 1):
        r = np.zeros(D)
        r[idx] = w * (fwht(p)[idx] - values)
        g = 2.0 * fwht(r)
        kkt = np.max(np.abs(p - simplex_project(p - g)))
        if kkt <= tol:
            break
        p = simplex_project(p - g / L)
    return p, kkt, it


class TestFwht:
    # n = 1|2, 10|11 and 15|16 sit on either side of a change in the factor count
    @pytest.mark.parametrize("n", range(17))
    @pytest.mark.parametrize("shape", [(), (3,)], ids=["vector", "stack"])
    def test_matches_butterfly(self, n, shape):
        x = np.random.default_rng(n).uniform(-1.0, 1.0, shape + (1 << n,))
        tol = 1e-12 * 2.0 ** (n / 2) * np.abs(x).max()
        assert np.max(np.abs(fwht(x) - butterfly(x))) <= tol

    @pytest.mark.parametrize("n", range(17))
    def test_stack_equals_rows_exactly(self, n):
        x = np.random.default_rng(100 + n).uniform(-1.0, 1.0, (3, 1 << n))
        assert np.array_equal(fwht(x), np.array([fwht(row) for row in x]))

    @pytest.mark.parametrize("n", [0, 1, 2, 7, 8])
    @pytest.mark.parametrize("shape", [(), (3,)], ids=["vector", "stack"])
    def test_leaves_input_alone(self, n, shape):
        x = np.random.default_rng(n).standard_normal(shape + (1 << n,))
        before = x.copy()
        y = fwht(x)
        assert np.array_equal(x, before)
        assert y.dtype == np.float64 and y.shape == x.shape
        assert not np.shares_memory(x, y)

    def test_list_and_int_inputs(self):
        assert np.array_equal(fwht([1, 2, 3, 4]), [10.0, -2.0, -4.0, 0.0])
        assert np.array_equal(fwht([5]), [5.0])
        y = fwht(np.arange(8))
        assert y.dtype == np.float64
        assert np.array_equal(y, butterfly(np.arange(8)))

    @pytest.mark.parametrize("a", [[], [1.0, 2.0, 3.0], np.zeros((2, 6)), 1.0])
    def test_rejects_length_not_a_power_of_two(self, a):
        with pytest.raises(ValueError, match="power-of-2"):
            fwht(a)

    def test_matches_matrix_oracle(self):
        rng = np.random.default_rng(0)
        for n in range(1, 7):
            x = rng.standard_normal(1 << n)
            assert np.allclose(fwht(x), walsh_matrix(n) @ x, atol=1e-12)

    def test_double_transform_scales(self):
        rng = np.random.default_rng(1)
        x = rng.standard_normal(32)
        assert np.allclose(fwht(fwht(x)), 32 * x, atol=1e-10)


class TestSimplexProject:
    def oracle(self, y):
        # exhaustive bisection on the shift
        lo, hi = y.min() - 1.0, y.max()
        for _ in range(200):
            mid = (lo + hi) / 2
            if np.maximum(y - mid, 0).sum() > 1:
                lo = mid
            else:
                hi = mid
        return np.maximum(y - hi, 0)

    def test_against_oracle(self):
        rng = np.random.default_rng(4)
        for _ in range(30):
            y = rng.standard_normal(int(rng.integers(1, 40))) * 3
            p = simplex_project(y)
            assert abs(p.sum() - 1) < 1e-12
            assert (p >= 0).all()
            assert np.allclose(p, self.oracle(y), atol=1e-10)

    def test_fixed_point_on_simplex(self):
        rng = np.random.default_rng(5)
        p = rng.dirichlet(np.ones(8))
        assert np.allclose(simplex_project(p), p, atol=1e-12)


class TestPgFit:
    def setup_problem(self, seed=7, n=3):
        rng = np.random.default_rng(seed)
        D = 1 << n
        p_true = rng.dirichlet(np.ones(D))
        m = fwht(p_true)
        idx = np.arange(1, D, dtype=np.int64)
        vals = m[idx]
        wts = np.full(idx.size, 1e4)
        return p_true, idx, vals, wts

    def test_lipschitz_constant_is_exact(self):
        # pg_fit's step: H' diag(w) H, with w zero off the measured rows, is an
        # XOR convolution whose spectrum is D w, so lambda_max is D max(w)
        rng = np.random.default_rng(11)
        for n in (1, 3, 5):
            D = 1 << n
            H = fwht(np.eye(D))
            for _ in range(4):
                idx = rng.choice(D, rng.integers(1, D + 1), replace=False)
                w = np.zeros(D)
                w[idx] = rng.uniform(0.01, 5.0, idx.size)
                eigs = np.linalg.eigvalsh(H.T @ (w[:, None] * H))
                assert np.allclose(eigs, np.sort(D * w), rtol=0, atol=1e-12 * D * w.max())

    def test_recovers_consistent_data(self):
        p_true, idx, vals, wts = self.setup_problem()
        p0 = np.full(p_true.size, 1.0 / p_true.size)
        p, kkt, _ = pg_fit(idx, vals, wts, p0, 200_000, 1e-10)
        assert kkt <= 1e-10
        assert np.max(np.abs(p - p_true)) < 1e-6

    @staticmethod
    def noisy_full_group(rng, n, sigma_hi):
        """Every non-identity row measured with a positive weight, so the
        objective is strongly convex on the simplex and its minimizer unique."""
        D = 1 << n
        idx = np.arange(1, D, dtype=np.int64)
        sigma = rng.uniform(0.01, sigma_hi, D - 1)
        noise = sigma * rng.standard_normal(D - 1)
        vals = np.clip(fwht(rng.dirichlet(np.ones(D)))[idx] + noise, -1.0, 1.0)
        return idx, vals, 1.0 / sigma ** 2, np.full(D, 1.0 / D)

    @settings(max_examples=50, deadline=None)
    @given(n=st.integers(1, 6), seed=st.integers(0, 2 ** 32 - 1))
    def test_matches_fixed_step_oracle(self, n, seed):
        problem = self.noisy_full_group(np.random.default_rng(seed), n, 0.03)
        p, kkt, _ = pg_fit(*problem, 100_000, 1e-10)
        q, kkt_q, _ = fixed_step_pg(*problem, 100_000, 1e-10)
        assert kkt <= 1e-10 and kkt_q <= 1e-10
        assert (p >= 0).all() and abs(p.sum() - 1.0) < 1e-12
        assert np.max(np.abs(p - q)) <= 1e-7

    def test_fewer_iterations_than_fixed_step(self):
        problem = self.noisy_full_group(np.random.default_rng(8), 8, 0.05)
        _, kkt, it = pg_fit(*problem, 100_000, 1e-9)
        _, kkt_q, it_q = fixed_step_pg(*problem, 100_000, 1e-9)
        assert kkt <= 1e-9 and kkt_q <= 1e-9
        assert 2 * it <= it_q

    def test_stops_at_max_iter(self):
        problem = self.noisy_full_group(np.random.default_rng(9), 5, 0.05)
        p, kkt, it = pg_fit(*problem, 3, 1e-12)
        assert it == 3 and kkt > 1e-12
        assert (p >= 0).all() and abs(p.sum() - 1.0) < 1e-12
