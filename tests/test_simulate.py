import json

import numpy as np
import pytest

from stabverify import (
    Graph,
    NoiseModel,
    apply_noise,
    exact_expectations,
    sample_record,
)
from stabverify.presets import FRAME_PAPER6, GRAPH_PAPER6
from stabverify.reconstruct import record_to_json_dict
from stabverify.simulate import generator_indices


class TestNoiseModel:
    def test_validation(self):
        with pytest.raises(ValueError):
            NoiseModel((0.6, 0.1))
        with pytest.raises(ValueError):
            NoiseModel((0.1, 0.1), depolarizing=1.5)

    def test_uniform_constructor(self):
        m = NoiseModel.uniform(3, 0.05, 0.1)
        assert m.eps_z == (0.05, 0.05, 0.05)
        assert m.depolarizing == 0.1


class TestApplyNoise:
    def test_zero_noise_is_pure(self):
        st = apply_noise(Graph.path(4), NoiseModel.uniform(4, 0.0))
        expected = np.zeros(16)
        expected[0] = 1
        assert np.allclose(st.p, expected)

    def test_single_qubit_flip_character_sum(self):
        # flipping only bit a with probability eps: m_k = 1 - 2 eps when the
        # product includes generator a, else 1 (one-line character sum)
        n, a, eps = 4, 2, 0.11
        eps_z = [0.0] * n
        eps_z[a - 1] = eps
        st = apply_noise(Graph.path(n), NoiseModel(tuple(eps_z)))
        m = exact_expectations(st)
        for k in range(1 << n):
            expected = 1.0 - 2.0 * eps if (k >> (a - 1)) & 1 else 1.0
            assert abs(m[k] - expected) < 1e-12

    def test_full_depolarizing_is_uniform(self):
        st = apply_noise(Graph.path(3), NoiseModel.uniform(3, 0.2, depolarizing=1.0))
        assert np.allclose(st.p, 1 / 8)

    def test_product_expectations(self):
        eps = (0.01, 0.12, 0.07)
        st = apply_noise(Graph.path(3), NoiseModel(eps))
        m = exact_expectations(st)
        for k in range(8):
            expected = 1.0
            for i in range(3):
                if (k >> i) & 1:
                    expected *= 1.0 - 2.0 * eps[i]
            assert abs(m[k] - expected) < 1e-12

    def test_size_mismatch(self):
        with pytest.raises(ValueError):
            apply_noise(Graph.path(3), NoiseModel.uniform(4, 0.1))


class TestSampleRecord:
    def test_exact_expectation_gives_exact_value(self):
        p = np.zeros(4)
        p[0] = 1
        rec = sample_record(p, Graph.path(2), shots=100, seed=0)
        for k, e in rec.entries.items():
            if k:
                assert e.value == 1.0
                assert e.sigma == 0.0

    def test_deterministic_given_seed(self):
        st = apply_noise(Graph.path(3), NoiseModel.uniform(3, 0.07))
        r1 = sample_record(st, Graph.path(3), shots=500, seed=42)
        r2 = sample_record(st, Graph.path(3), shots=500, seed=42)
        assert json.dumps(record_to_json_dict(r1)) == json.dumps(record_to_json_dict(r2))
        r3 = sample_record(st, Graph.path(3), shots=500, seed=43)
        assert r1 != r3

    def test_large_shot_consistency(self):
        # binomial tail: |value - m| <= 5 sigma_true in at least 99% of draws
        g = Graph.path(2)
        st = apply_noise(g, NoiseModel.uniform(2, 0.12))
        m = exact_expectations(st)
        shots = 1_000_000
        hits = 0
        total = 0
        for seed in range(70):
            rec = sample_record(st, g, shots=shots, seed=seed)
            for k, e in rec.entries.items():
                if k == 0:
                    continue
                total += 1
                bound = 5 * np.sqrt((1 - m[k] ** 2) / shots)
                if abs(e.value - m[k]) <= bound:
                    hits += 1
        assert hits / total >= 0.99

    def test_sigma_formula(self):
        st = apply_noise(Graph.path(2), NoiseModel.uniform(2, 0.2))
        rec = sample_record(st, Graph.path(2), shots=777, seed=5)
        for k, e in rec.entries.items():
            if k:
                assert abs(e.sigma - np.sqrt((1 - e.value ** 2) / 777)) < 1e-15

    def test_subset_of_indices(self):
        st = apply_noise(Graph.path(3), NoiseModel.uniform(3, 0.02))
        rec = sample_record(st, Graph.path(3), indices=generator_indices(3),
                            shots=100, seed=1)
        assert sorted(rec.entries) == [1, 2, 4]
        assert rec.has_generators()
        assert not rec.has_full_group()

    def test_invalid_shots(self):
        with pytest.raises(ValueError):
            sample_record(np.array([1.0, 0, 0, 0]), Graph.path(2), shots=0)

    @pytest.mark.parametrize("eps", [0.0, 0.04])
    def test_matches_per_row_scalar_draws(self, eps):
        # one binomial call over all rows takes the same draws from the stream
        # as one call per row in sorted order; the identity row takes none
        graph, frame = GRAPH_PAPER6, FRAME_PAPER6
        state = apply_noise(graph, NoiseModel.uniform(6, eps))
        m = exact_expectations(state)
        ks = [0, 1, 2, 5, 17, 40, 63]
        rec = sample_record(state, graph, frame, indices=ks[::-1], shots=333, seed=11)
        rng = np.random.default_rng(11)
        assert list(rec.entries) == ks
        assert (rec.entries[0].value, rec.entries[0].sigma) == (1.0, 0.0)
        for k in ks[1:]:
            value = (2.0 * rng.binomial(333, min(max((1.0 + m[k]) / 2.0, 0.0), 1.0)) - 333) / 333
            sigma = float(np.sqrt(max(1.0 - value ** 2, 0.0) / 333))
            assert (rec.entries[k].value, rec.entries[k].sigma, rec.entries[k].shots) == (
                value, sigma, 333)


class TestEndToEndRecovery:
    def test_fit_recovers_population_within_shot_noise(self):
        from stabverify import ml_fit, walsh_populations

        g = Graph.path(4)
        st = apply_noise(g, NoiseModel((0.003, 0.0755, 0.0315, 0.0445)))
        rec = sample_record(st, g, shots=100_000, seed=11)
        fit = ml_fit(rec)
        m, _ = rec.full_vector()
        raw = walsh_populations(m).p
        tv_fit = 0.5 * np.abs(fit.p - st.p).sum()
        tv_raw = 0.5 * np.abs(raw - st.p).sum()
        assert tv_fit <= 3 * max(tv_raw, 1e-6)
