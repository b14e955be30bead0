import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra.numpy import arrays

from stabverify import bounds
from stabverify import (
    GeneratorData,
    bound_report,
    er_lower_from_state,
    fidelity_min,
    log_robustness,
    propagate_errors,
    purity_min,
    purity_min_solution,
    rel_entropy_min,
    robustness_min,
)

PROPERTY_SETTINGS = settings(max_examples=40, deadline=None)


def binary_entropy(p):
    if p in (0.0, 1.0):
        return 0.0
    return -p * np.log2(p) - (1 - p) * np.log2(1 - p)


class TestFidelityMin:
    def test_table1(self, table1):
        a, _ = table1
        assert abs(fidelity_min(a) - 0.8455) < 1e-12

    def test_table2(self, table2):
        a, _ = table2
        assert abs(fidelity_min(a) - 0.5445) < 1e-12

    def test_perfect_data(self):
        assert fidelity_min(np.ones(5)) == 1.0

    def test_clamps_at_zero(self):
        assert fidelity_min(np.array([0.1, 0.1, 0.1, 0.1])) == 0.0

    def test_below_every_feasible_fidelity(self):
        # worst-case property: sample physical p, read off its marginals a,
        # and compare the bound against the population it constrains (the
        # basis index whose bits mark the negative a_i)
        rng = np.random.default_rng(0)
        n = 3
        for _ in range(200):
            p = rng.dirichlet(np.ones(1 << n) * 0.5)
            a = np.array(
                [
                    sum(p[j] * (-1) ** ((j >> i) & 1) for j in range(1 << n))
                    for i in range(n)
                ]
            )
            target = sum(1 << i for i in range(n) if a[i] < 0)
            assert fidelity_min(a) <= p[target] + 1e-12

    def test_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            fidelity_min(np.array([1.2, 0.5]))


class TestPurityMin:
    def test_table1(self, table1):
        a, _ = table1
        assert abs(purity_min(a) - 0.715) < 0.005

    def test_table2(self, table2):
        a, _ = table2
        assert abs(purity_min(a) - 0.297) < 0.005

    def test_perfect_data(self):
        assert abs(purity_min(np.ones(4)) - 1.0) < 1e-12

    def test_kkt_certificate(self, table1, table2):
        for a in (table1[0], table2[0]):
            sol = purity_min_solution(a)
            assert sol.kkt_residual <= 1e-9
            assert (sol.p >= 0).all()
            assert abs(sol.p.sum() - 1) < 1e-12
            assert abs(float(sol.p @ sol.p) - sol.value) < 1e-12

    def test_n2_brute_force_oracle(self):
        # independent numeric solve of the same program (scipy SLSQP), plus a
        # coarse grid sanity check at its own resolution
        from scipy.optimize import minimize

        rng = np.random.default_rng(1)
        for _ in range(5):
            a = rng.uniform(0.6, 1.0, 2)
            f = fidelity_min(a)
            best = np.inf
            for trial in range(4):
                x0 = rng.dirichlet(np.ones(4))
                x0[0] = max(x0[0], f)
                x0 /= x0.sum()
                res = minimize(
                    lambda p: p @ p,
                    x0,
                    jac=lambda p: 2 * p,
                    bounds=[(0, 1)] * 4,
                    constraints=[
                        {"type": "eq", "fun": lambda p: p.sum() - 1},
                        {"type": "ineq", "fun": lambda p: p[0] - f},
                    ],
                    method="SLSQP",
                    options={"ftol": 1e-14, "maxiter": 500},
                )
                if res.success:
                    best = min(best, res.fun)
            assert abs(purity_min(a) - best) < 1e-6
            # grid check: step 1/400 in p0, uniform remainder is optimal by
            # symmetry of the objective over the unconstrained entries
            p0s = np.concatenate([[f], np.arange(np.ceil(f * 400) / 400, 1.0001, 1 / 400)])
            grid_best = np.min(p0s ** 2 + (1 - p0s) ** 2 / 3)
            assert abs(purity_min(a) - grid_best) < 1e-4

    def test_above_fidelity_squared(self):
        rng = np.random.default_rng(2)
        for _ in range(100):
            a = rng.uniform(0.7, 1.0, int(rng.integers(2, 7)))
            f = fidelity_min(a)
            if f > 0:
                assert purity_min(a) >= f ** 2 - 1e-12

    def test_uninformative_data_gives_mixed(self):
        assert abs(purity_min(np.zeros(3)) - 1 / 8) < 1e-12

    def test_same_floats_as_direct_formula_below_1024(self):
        # f^2 + (1 - f)^2 / (2^n - 1), as written before 2^n could overflow
        a = np.random.default_rng(3).uniform(0.5, 1.0, (200, 4))
        for n in range(1, 1024):
            f = np.maximum(fidelity_min(a), 0.5 ** n)
            assert np.array_equal(purity_min(a, n), f * f + (1.0 - f) ** 2 / (2.0 ** n - 1.0))

    @pytest.mark.parametrize("n", [1024, 1075, 2100, 100_000])
    def test_no_overflow_from_1024(self, n):
        a = np.random.default_rng(3).uniform(0.5, 1.0, (200, 4))
        f = fidelity_min(a)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            p = purity_min(a, n)
        assert np.all(np.abs(p - f * f) <= 2.0 ** -1000)


class TestRobustnessMin:
    def test_table1(self, table1):
        a, _ = table1
        assert abs(robustness_min(a, 2) - 2.382) < 1e-12

    def test_table2(self, table2):
        a, _ = table2
        assert abs(robustness_min(a, 3) - 3.356) < 1e-12

    def test_pure_state_limit(self):
        assert abs(robustness_min(np.ones(4), 2) - 3.0) < 1e-12

    def test_consistency_with_fidelity(self, table1):
        a, _ = table1
        f = fidelity_min(a)
        assert abs(robustness_min(a, 2) - (4 * f - 1)) < 1e-12

    def test_clamps_at_zero(self):
        assert robustness_min(np.array([0.3, 0.3]), 1) == 0.0

    def test_beyond_double_raises_naming_rg_min(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert robustness_min(np.ones(4), 1023) == 2.0 ** 1023
            assert robustness_min(np.zeros(3), 5000) == 0.0
            with pytest.raises(OverflowError, match="rg_min"):
                robustness_min(np.ones(4), 1024)


class TestRelEntropyMin:
    def test_table1(self, table1):
        a, _ = table1
        v = rel_entropy_min(a, 2)
        assert abs(v - 1.120) < 0.002
        oracle = 2 - sum(binary_entropy((1 + x) / 2) for x in a)
        assert abs(v - oracle) < 1e-12

    def test_table2(self, table2):
        a, _ = table2
        assert abs(rel_entropy_min(a, 3) - 1.013) < 0.002

    def test_perfect_data(self):
        assert rel_entropy_min(np.ones(6), 3) == 3.0


class TestLogRobustness:
    def test_examples(self):
        assert abs(log_robustness(3.0) - 2.0) < 1e-12
        assert log_robustness(0.0) == 0.0
        assert abs(log_robustness(2.384) - 1.759) < 5e-4

    def test_table1_chain(self, table1):
        a, _ = table1
        v = log_robustness(robustness_min(a, 2))
        assert 1.757 <= v <= 1.760

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            log_robustness(-0.1)


class TestErLowerFromState:
    def test_pure(self):
        p = np.zeros(16)
        p[0] = 1
        assert er_lower_from_state(p, 2) == 2.0

    def test_uniform(self):
        assert er_lower_from_state(np.full(16, 1 / 16), 2) == 0.0

    def test_product_state_matches_generator_bound(self):
        # max-entropy state with the given bit marginals is the product
        # distribution; its entropy is the sum of the binary entropies
        rng = np.random.default_rng(3)
        for _ in range(200):
            n = int(rng.integers(2, 7))
            a = rng.uniform(0.0, 1.0, n)
            marg = (1.0 + a) / 2.0
            p = np.ones(1)
            for i in range(n):
                p = np.concatenate([p * marg[i], p * (1 - marg[i])])
            # reorder: bit i of the index must track qubit i
            idx = np.arange(1 << n)
            q = np.empty_like(p)
            for j in idx:
                val = 1.0
                for i in range(n):
                    val *= (1 - marg[i]) if (j >> i) & 1 else marg[i]
                q[j] = val
            b = int(rng.integers(1, n))
            assert abs(er_lower_from_state(q, b) - rel_entropy_min(a, b)) < 1e-10


class TestPropagateErrors:
    def test_zero_sigma(self, table1):
        a, _ = table1
        out = propagate_errors(fidelity_min, a, np.zeros(4), trials=1000, seed=1)
        assert out["std"] < 1e-12
        assert abs(out["mean"] - fidelity_min(a)) < 1e-12

    def test_quadrature_oracle(self, table1):
        # linear regime: std of F_min is (1/2) sqrt(sum sigma^2)
        a, sigma = table1
        out = propagate_errors(fidelity_min, a, sigma, trials=40_000, seed=2)
        oracle = 0.5 * np.sqrt((sigma ** 2).sum())
        assert abs(out["std"] - oracle) < 0.08 * oracle

    def test_scaling(self, table1):
        a, sigma = table1
        s1 = propagate_errors(fidelity_min, a, sigma, trials=20_000, seed=3)["std"]
        s2 = propagate_errors(fidelity_min, a, 2 * sigma, trials=20_000, seed=3)["std"]
        assert 1.6 < s2 / s1 < 2.4

    def test_deterministic(self, table1):
        a, sigma = table1
        r1 = propagate_errors(fidelity_min, a, sigma, trials=2000, seed=7)
        r2 = propagate_errors(fidelity_min, a, sigma, trials=2000, seed=7)
        assert r1 == r2

    def test_trials_floor(self, table1):
        a, sigma = table1
        with pytest.raises(ValueError):
            propagate_errors(fidelity_min, a, sigma, trials=10)

    def test_trials_ceiling(self, table1):
        # every trial's bound values are kept: 10^8 trials would need ~9 GB
        a, sigma = table1
        with pytest.raises(ValueError, match=f"not {bounds.MAX_TRIALS + 1}$"):
            propagate_errors(fidelity_min, a, sigma, trials=bounds.MAX_TRIALS + 1)
        with pytest.raises(ValueError, match=f"not {bounds.MAX_TRIALS + 1}$"):
            bound_report(GeneratorData(a, sigma), 2, trials=bounds.MAX_TRIALS + 1)


class TestMonotonicityAndSymmetry:
    def test_monotone_in_each_magnitude(self):
        rng = np.random.default_rng(4)
        for _ in range(200):
            n = int(rng.integers(2, 7))
            a = rng.uniform(0, 1, n)
            i = int(rng.integers(0, n))
            b = a.copy()
            b[i] = min(1.0, a[i] + rng.uniform(0, 1 - a[i] + 1e-9))
            bs = int(rng.integers(1, n))
            assert robustness_min(b, bs) >= robustness_min(a, bs) - 1e-12
            assert rel_entropy_min(b, bs) >= rel_entropy_min(a, bs) - 1e-12

    def test_sign_flip_invariance(self):
        rng = np.random.default_rng(5)
        for _ in range(200):
            n = int(rng.integers(2, 7))
            a = rng.uniform(-1, 1, n)
            flips = rng.choice([-1, 1], n)
            bs = int(rng.integers(1, n))
            for fn in (
                fidelity_min,
                purity_min,
                lambda x: robustness_min(x, bs),
                lambda x: rel_entropy_min(x, bs),
            ):
                assert abs(fn(a) - fn(a * flips)) < 1e-12


class TestBoundReport:
    def test_structure_and_consistency(self, table1):
        a, sigma = table1
        rep = bound_report(GeneratorData(a, sigma), 2, trials=2000, seed=0)
        assert abs(rep.lrg_min.value - np.log2(1 + rep.rg_min.value)) < 1e-12
        for name in ("f_min", "p_min", "rg_min", "lrg_min", "er_min"):
            bv = getattr(rep, name)
            assert bv.value >= 0
            assert bv.sigma >= 0
        d = rep.to_json_dict()
        assert d["f_min"]["provenance"] == "generator-bound"

    def test_values_match_direct_calls(self, table2):
        a, sigma = table2
        rep = bound_report(GeneratorData(a, sigma), 3, trials=1000, seed=1)
        assert rep.f_min.value == fidelity_min(a)
        assert rep.rg_min.value == robustness_min(a, 3)
        assert rep.er_min.value == rel_entropy_min(a, 3)
        assert rep.p_min.value == purity_min(a)

    def test_generator_data_validation(self):
        with pytest.raises(ValueError):
            GeneratorData(np.array([0.5, 1.5]), np.array([0.1, 0.1]))
        with pytest.raises(ValueError):
            GeneratorData(np.array([0.5]), np.array([-0.1]))
        for bad in (np.nan, np.inf, -np.inf):
            with pytest.raises(ValueError, match="^a must be finite"):
                GeneratorData(np.array([bad, 0.9, 0.9]), np.full(3, 0.01))
            with pytest.raises(ValueError, match="^sigma must be finite"):
                GeneratorData(np.full(3, 0.9), np.array([0.01, bad, 0.01]))

    def test_sigmas_pinned(self, table1):
        # the per-sample evaluation's floats for seed 0 and 10 000 trials
        a, sigma = table1
        rep = bound_report(GeneratorData(a, sigma), 2, seed=0)
        assert rep.f_min.sigma == 0.002394358744172848
        assert rep.rg_min.sigma == 0.009577434976691392
        assert rep.lrg_min.sigma == 0.00408562490635783
        assert rep.er_min.sigma == 0.011051437912852582
        assert rep.p_min.sigma == pytest.approx(0.003999506514639216, rel=1e-15, abs=0)

    @pytest.mark.parametrize("chunk", [1, 7, 999, 10_000])
    def test_chunked_draws_are_bit_identical(self, monkeypatch, chunk):
        # the draws come in row chunks from one generator; the floats must not
        # depend on the chunk size
        rng = np.random.default_rng(5)
        a, sigma = rng.uniform(0.95, 1.0, 30), rng.uniform(0.0, 0.01, 30)
        whole = bound_report(GeneratorData(a, sigma), 15, trials=2345, seed=9)
        mc = propagate_errors(purity_min, a, sigma, trials=1500, seed=2)
        monkeypatch.setattr(bounds, "_CHUNK_SAMPLES", chunk)
        assert bound_report(GeneratorData(a, sigma), 15, trials=2345, seed=9) == whole
        assert propagate_errors(purity_min, a, sigma, trials=1500, seed=2) == mc

    def test_default_trials_of_16_generators_are_one_chunk(self):
        chunks = list(bounds._sample_chunks(np.zeros(16), np.ones(16), 10_000, 0))
        assert [c.shape for c in chunks] == [(10_000, 16)]


@PROPERTY_SETTINGS
@given(data=st.data())
def test_stacked_bounds_match_rows(data):
    n = data.draw(st.integers(1, 16))
    rows = data.draw(st.integers(1, 64))
    b_size = data.draw(st.integers(1, n))
    x = data.draw(arrays(np.float64, (rows, n), elements=st.floats(-1.0, 1.0)))
    for fn in (
        fidelity_min,
        purity_min,
        lambda v: robustness_min(v, b_size),
        lambda v: rel_entropy_min(v, b_size),
    ):
        assert np.array_equal(fn(x), np.array([fn(row) for row in x]))


@PROPERTY_SETTINGS
@given(data=st.data())
def test_fused_pass_matches_public_functions(data):
    # reference: one unchunked Generator.normal draw, clipped, evaluated by the
    # public bound functions on all rows at once
    n = data.draw(st.integers(1, 40))
    chunk, block = bounds._CHUNK_SAMPLES // n, bounds._BLOCK_SAMPLES // n
    edges = {bounds.MIN_TRIALS, 3 * block + 1, chunk - 1, chunk + block + 7}
    trials = data.draw(st.sampled_from(sorted(t for t in edges if t >= bounds.MIN_TRIALS)))
    entry = st.sampled_from([-1.0, 0.0, 1.0]) | st.floats(-1.0, 1.0)
    a = data.draw(arrays(np.float64, n, elements=entry))
    sigma = data.draw(arrays(np.float64, n, elements=st.sampled_from([0.0]) | st.floats(0.0, 0.2)))
    b_size, seed = data.draw(st.integers(0, n)), data.draw(st.integers(0, 2 ** 32 - 1))
    x = np.clip(np.random.default_rng(seed).normal(a, sigma, (trials, n)), -1.0, 1.0)
    rs = robustness_min(x, b_size)
    rg = robustness_min(a, b_size)
    expected = {
        "f_min": (fidelity_min(a), fidelity_min(x).std()),
        "p_min": (purity_min(a), purity_min(x).std()),
        "rg_min": (rg, bounds._std(rs)),
        "lrg_min": (log_robustness(rg), np.log2(1.0 + rs).std()),
        "er_min": (rel_entropy_min(a, b_size), rel_entropy_min(x, b_size).std()),
    }
    rep = bound_report(GeneratorData(a, sigma), b_size, trials=trials, seed=seed)
    assert {k: (v.value, v.sigma) for k, v in vars(rep).items()} == expected


def test_rel_entropy_at_saturated_entries_raises_no_float_error():
    with np.errstate(all="raise"):
        v = rel_entropy_min(np.array([1.0, 1.0, 0.5]), 2)
    assert v == 2 - binary_entropy(0.75)


@PROPERTY_SETTINGS
@given(a=st.integers(1, 12).flatmap(
    lambda n: arrays(np.float64, n, elements=st.floats(-1.0, 1.0))))
def test_purity_closed_form_matches_certified_minimizer(a):
    sol = purity_min_solution(a)
    assert sol.kkt_residual <= 1e-9
    assert abs(purity_min(a) - float(sol.p @ sol.p)) <= 1e-12
