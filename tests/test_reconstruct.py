import numpy as np
import pytest

from stabverify import (
    Graph,
    LocalFrame,
    MeasurementEntry,
    MeasurementRecord,
    NoiseModel,
    RecordFormatError,
    apply_noise,
    expectations_from_populations,
    ml_fit,
    raw_fidelity,
    raw_purity,
    sample_record,
    walsh_populations,
)
from stabverify.reconstruct import (
    fit_objective,
    record_from_json_dict,
    record_to_json_dict,
)


def full_record(graph, m, sigma, frame=None):
    entries = {
        k: MeasurementEntry(float(m[k]), float(sigma[k]))
        for k in range(1, m.size)
    }
    return MeasurementRecord(
        graph=graph, frame=frame or LocalFrame.identity(graph.n), entries=entries
    )


class TestWalshPopulations:
    def test_ideal_data_is_delta(self):
        p = walsh_populations(np.ones(16)).p
        expected = np.zeros(16)
        expected[0] = 1
        assert np.allclose(p, expected, atol=1e-12)

    def test_only_identity_gives_uniform(self):
        m = np.zeros(8)
        m[0] = 1
        assert np.allclose(walsh_populations(m).p, 1 / 8, atol=1e-15)

    def test_hand_sum_n2(self):
        m = np.array([1.0, 0.5, 0.5, 0.25])
        # oracle: p_i = (1/4) sum_k (-1)^{popcount(i&k)} m_k, expanded by hand
        oracle = np.array(
            [
                sum((-1) ** bin(i & k).count("1") * m[k] for k in range(4)) / 4
                for i in range(4)
            ]
        )
        got = walsh_populations(m).p
        assert np.allclose(got, oracle, atol=1e-15)
        assert np.allclose(got, [0.5625, 0.1875, 0.1875, 0.0625], atol=1e-15)

    def test_sum_is_always_one(self):
        rng = np.random.default_rng(0)
        m = np.concatenate([[1.0], rng.uniform(-1, 1, 31)])
        assert abs(walsh_populations(m).p.sum() - 1.0) < 1e-12

    def test_identity_expectation_enforced(self):
        with pytest.raises(ValueError, match="identity"):
            walsh_populations(np.array([0.9, 0.5]))


class TestRoundtrip:
    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_exhaustive_basis(self, n):
        dim = 1 << n
        for j in range(dim):
            p = np.zeros(dim)
            p[j] = 1.0
            m = expectations_from_populations(p)
            assert np.allclose(walsh_populations(m).p, p, atol=1e-12)

    @pytest.mark.parametrize("n", [5, 6])
    def test_random_simplex(self, n):
        rng = np.random.default_rng(n)
        for _ in range(10):
            p = rng.dirichlet(np.ones(1 << n))
            m = expectations_from_populations(p)
            assert np.allclose(walsh_populations(m).p, p, atol=1e-12)

    def test_delta_maps_to_ones_and_back(self):
        p = np.zeros(8)
        p[0] = 1
        assert np.allclose(expectations_from_populations(p), 1.0)
        u = np.full(8, 1 / 8)
        m = expectations_from_populations(u)
        assert np.allclose(m, [1, 0, 0, 0, 0, 0, 0, 0], atol=1e-12)


class TestRawFidelityPurity:
    def test_ideal(self):
        rec = full_record(Graph.path(2), np.ones(4), np.zeros(4))
        f, s = raw_fidelity(rec)
        assert abs(f - 1) < 1e-12 and s == 0
        assert abs(raw_purity(np.ones(4)) - 1) < 1e-12

    def test_single_qubit_example(self):
        rec = full_record(Graph(1, frozenset()), np.array([1.0, 0.8]), np.zeros(2))
        f, _ = raw_fidelity(rec)
        assert abs(f - 0.9) < 1e-12

    def test_sigma_quadrature(self):
        m = np.ones(4)
        sig = np.array([0.0, 0.01, 0.02, 0.02])
        rec = full_record(Graph.path(2), m, sig)
        _, s = raw_fidelity(rec)
        assert abs(s - np.sqrt((sig ** 2).sum()) / 4) < 1e-15

    def test_purity_uniform_mixing(self):
        m = np.zeros(16)
        m[0] = 1
        assert abs(raw_purity(m) - 1 / 16) < 1e-15

    def test_purity_hand_example(self):
        # direct sum oracle on the n=2 example populations
        m = np.array([1.0, 0.5, 0.5, 0.25])
        p = walsh_populations(m).p
        direct = float((p ** 2).sum())
        assert abs(direct - 0.390625) < 1e-12
        assert abs(raw_purity(m) - direct) < 1e-12

    def test_parseval_consistency(self):
        rng = np.random.default_rng(1)
        p = rng.dirichlet(np.ones(16))
        m = expectations_from_populations(p)
        assert abs(raw_purity(m) - float((p ** 2).sum())) < 1e-12

    def test_fidelity_equals_first_population(self):
        rng = np.random.default_rng(2)
        m = np.concatenate([[1.0], rng.uniform(-1, 1, 15)])
        rec = full_record(Graph.path(4), m, np.full(16, 0.01))
        f, _ = raw_fidelity(rec)
        assert abs(f - walsh_populations(m).p[0]) < 1e-15

    def test_missing_entries_rejected(self):
        rec = MeasurementRecord(
            graph=Graph.path(2),
            frame=LocalFrame.identity(2),
            entries={1: MeasurementEntry(0.9, 0.01)},
        )
        with pytest.raises(ValueError, match="full stabilizer group"):
            raw_fidelity(rec)


class TestMlFit:
    def test_recovers_consistent_physical_data(self):
        g = Graph.path(4)
        state = apply_noise(g, NoiseModel.uniform(4, 0.04))
        m = expectations_from_populations(state.p)
        rec = full_record(g, m, np.full(16, 0.01))
        fit = ml_fit(rec)
        assert np.max(np.abs(fit.p - state.p)) < 1e-6
        assert fit_objective(rec, fit) < 1e-10

    def test_fitted_fidelity_tracks_raw(self):
        # target population 0.880 with full-group data: the fitted leading
        # population agrees with the raw fidelity within 0.01
        g = Graph.path(4)
        rng = np.random.default_rng(5)
        p_true = np.concatenate([[0.880], 0.12 * rng.dirichlet(np.ones(15))])
        rec = sample_record(p_true, g, shots=200_000, seed=9)
        fit = ml_fit(rec)
        f, _ = raw_fidelity(rec)
        assert abs(f - 0.880) < 0.01
        assert abs(fit.p[0] - f) < 0.01

    def test_negative_raw_population_case(self):
        # low statistics on a near-pure state push raw populations negative
        g = Graph.path(3)
        p_true = np.zeros(8)
        p_true[0] = 0.97
        p_true[5] = 0.03
        rec = sample_record(p_true, g, shots=300, seed=12)
        m, _ = rec.full_vector()
        raw = walsh_populations(m).p
        assert raw.min() < 0  # the scenario under test
        fit = ml_fit(rec)
        assert (fit.p >= -1e-12).all()
        clipped = np.clip(raw, 0, None)
        clipped /= clipped.sum()
        assert fit_objective(rec, fit) <= fit_objective(rec, clipped) + 1e-12

    def test_convexity_restarts_agree(self):
        g = Graph.path(3)
        state = apply_noise(g, NoiseModel.uniform(3, 0.08, depolarizing=0.05))
        rec = sample_record(state, g, shots=2000, seed=3)
        rng = np.random.default_rng(17)
        objs = []
        for _ in range(5):
            start = rng.dirichlet(np.ones(8))
            objs.append(fit_objective(rec, ml_fit(rec, start=start)))
        assert np.max(objs) - np.min(objs) < 1e-8

    def test_generator_only_fit(self):
        g = Graph.path(4)
        entries = {
            1 << a: MeasurementEntry(0.9, 0.01) for a in range(4)
        }
        rec = MeasurementRecord(graph=g, frame=LocalFrame.identity(4), entries=entries)
        fit = ml_fit(rec)
        m = expectations_from_populations(fit.p)
        for a in range(4):
            assert abs(m[1 << a] - 0.9) < 1e-6

    def test_inconsistent_data_still_converges(self):
        # no physical p reproduces these values; the fit settles on the
        # weighted least-squares compromise with a certified residual
        g = Graph.path(2)
        rec = MeasurementRecord(
            graph=g,
            frame=LocalFrame.identity(2),
            entries={
                1: MeasurementEntry(1.0, 0.01),
                2: MeasurementEntry(1.0, 0.01),
                3: MeasurementEntry(-1.0, 0.01),
            },
        )
        fit = ml_fit(rec)
        assert (fit.p >= -1e-12).all()
        assert abs(fit.p.sum() - 1) < 1e-9
        assert fit_objective(rec, fit) > 0.01  # genuinely inconsistent

    def test_empty_record_rejected(self):
        rec = MeasurementRecord(
            graph=Graph.path(2), frame=LocalFrame.identity(2), entries={}
        )
        with pytest.raises(ValueError, match="empty"):
            ml_fit(rec)

    def test_zero_sigma_without_shots_rejected(self):
        rec = MeasurementRecord(
            graph=Graph.path(2),
            frame=LocalFrame.identity(2),
            entries={1: MeasurementEntry(0.9, 0.0)},
        )
        with pytest.raises(ValueError, match="sigma"):
            ml_fit(rec)

    def test_shots_derive_sigma(self):
        rec = MeasurementRecord(
            graph=Graph.path(2),
            frame=LocalFrame.identity(2),
            entries={
                1: MeasurementEntry(0.9, 0.0, shots=1000),
                2: MeasurementEntry(0.8, 0.0, shots=1000),
            },
        )
        fit = ml_fit(rec)
        m = expectations_from_populations(fit.p)
        assert abs(m[1] - 0.9) < 1e-6 and abs(m[2] - 0.8) < 1e-6


class TestRecordValidation:
    def test_identity_entry_must_be_exact(self):
        with pytest.raises(RecordFormatError, match="identity"):
            MeasurementRecord(
                graph=Graph.path(2),
                frame=LocalFrame.identity(2),
                entries={0: MeasurementEntry(0.99, 0.0)},
            )

    def test_value_range(self):
        with pytest.raises(RecordFormatError, match="outside"):
            MeasurementRecord(
                graph=Graph.path(2),
                frame=LocalFrame.identity(2),
                entries={1: MeasurementEntry(1.2, 0.0)},
            )

    def test_index_range(self):
        with pytest.raises(RecordFormatError, match="outside"):
            MeasurementRecord(
                graph=Graph.path(2),
                frame=LocalFrame.identity(2),
                entries={9: MeasurementEntry(0.5, 0.1)},
            )

    @pytest.mark.parametrize("ks", ["1_0", " 10", "10 ", "+10", "0b1", "1", "1000", "10\u0661"])
    def test_k_string_rejects_what_int_would_accept(self, ks):
        # int(..., 2) reads underscores, spaces, signs, prefixes and Unicode digits
        d = {"graph": {"n": 3, "edges": [[1, 2], [2, 3]]},
             "measurements": [{"k": ks, "value": 0.9}]}
        with pytest.raises(RecordFormatError, match="bad stabilizer index string"):
            record_from_json_dict(d)


class TestRecordJson:
    def test_pauli_and_k_keys_equivalent(self, paper4):
        graph, frame = paper4
        d = {
            "graph": graph.to_json_dict(),
            "frame": frame.to_json_list(),
            "measurements": [
                {"pauli": "-ZZII", "value": 0.994, "sigma": 0.001},
                # leftmost character is k_1, so generator 3 reads "0010"
                {"k": "0010", "value": 0.937, "sigma": 0.003},
            ],
        }
        rec = record_from_json_dict(d)
        assert set(rec.entries) == {1, 4}
        assert rec.entries[1].value == 0.994
        assert rec.entries[4].value == 0.937

    def test_wrong_sign_rejected(self, paper4):
        graph, frame = paper4
        d = {
            "graph": graph.to_json_dict(),
            "frame": frame.to_json_list(),
            "measurements": [{"pauli": "ZZII", "value": 0.9}],
        }
        with pytest.raises(RecordFormatError, match="not a stabilizer element"):
            record_from_json_dict(d)

    def test_duplicate_rejected(self, paper4):
        graph, frame = paper4
        d = {
            "graph": graph.to_json_dict(),
            "frame": frame.to_json_list(),
            "measurements": [
                {"k": "1000", "value": 0.9, "sigma": 0.1},
                {"pauli": "-ZZII", "value": 0.9, "sigma": 0.1},
            ],
        }
        with pytest.raises(RecordFormatError, match="duplicate"):
            record_from_json_dict(d)

    def test_roundtrip(self, paper6):
        graph, frame = paper6
        rec = sample_record(
            apply_noise(graph, NoiseModel.uniform(6, 0.02)),
            graph,
            frame,
            indices=[1, 2, 3, 9],
            shots=500,
            seed=4,
        )
        again = record_from_json_dict(record_to_json_dict(rec))
        assert again == rec
