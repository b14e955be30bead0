import json
import logging

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

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
from stabverify import kernels
from stabverify.reconstruct import (
    ML_TOL,
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

    @pytest.mark.parametrize("power", [-997, 997])
    def test_sigma_is_finite_and_exact_at_extreme_scales(self, power):
        # the quadrature sum is taken on sigmas scaled by a power of 2: it
        # used to overflow to inf near 1e300 and underflow to 0 near 1e-300
        sig = np.ldexp([0.0, 1.0, 2.0, 2.0], power)
        _, s = raw_fidelity(full_record(Graph.path(2), np.ones(4), sig))
        assert s == np.ldexp(0.75, power)

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

    def test_identity_entry_is_skipped(self):
        # <S_0> = sum(p) = 1 for every p, so its zero sigma needs no shots
        g = Graph.path(3)
        m = expectations_from_populations(apply_noise(g, NoiseModel.uniform(3, 0.05)).p)
        rec = full_record(g, m, np.full(8, 0.02))
        with_identity = MeasurementRecord(g, rec.frame, {0: MeasurementEntry(1.0, 0.0),
                                                         **rec.entries})
        assert np.array_equal(ml_fit(with_identity).p, ml_fit(rec).p)
        assert fit_objective(with_identity, m) == fit_objective(rec, m)

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

    @settings(max_examples=40, deadline=None)
    @given(n=st.integers(1, 4), seed=st.integers(0, 2 ** 32 - 1),
           power=st.integers(-1000, 1000))
    def test_power_of_2_on_every_sigma_leaves_the_fit_bit_identical(self, n, seed, power):
        # the weights are formed on sigmas scaled by a power of 2, so that no
        # weight overflows or underflows at extreme finite sigmas
        g = Graph.path(n)
        rec = sample_record(apply_noise(g, NoiseModel.uniform(n, 0.05)), g, shots=1000,
                            seed=seed)
        sigma = np.random.default_rng(seed).uniform(0.001, 0.1, rec.k.size)
        fits = [ml_fit(MeasurementRecord.from_columns(g, rec.frame, rec.k, rec.value,
                                                      np.ldexp(sigma, e), np.zeros(rec.k.size)))
                for e in (0, power)]
        assert np.array_equal(fits[0].p, fits[1].p)

    def test_nan_residual_is_not_convergence(self, monkeypatch):
        # NaN weights used to run the whole iteration cap and pass the
        # residual test, since kkt > ML_TOL is False for a NaN
        g = Graph.path(2)
        rec = full_record(g, np.ones(4), np.full(4, 0.01))
        monkeypatch.setattr(kernels, "pg_fit", lambda *a: (np.full(4, np.nan), np.nan, 1))
        with pytest.raises(RuntimeError, match="did not reach"):
            ml_fit(rec)

    def test_logs_iterations_and_residual(self, caplog):
        g = Graph.path(3)
        rec = sample_record(apply_noise(g, NoiseModel.uniform(3, 0.05)), g, shots=1000, seed=4)
        with caplog.at_level(logging.DEBUG, logger="stabverify"):
            ml_fit(rec)
        [record] = [r for r in caplog.records if r.name == "stabverify"]
        assert record.levelno == logging.DEBUG
        iterations, kkt = record.args
        assert iterations >= 1 and 0.0 <= kkt <= ML_TOL
        assert record.getMessage() == f"ml_fit: {iterations} iterations, KKT residual {kkt:.3g}"
        assert logging.getLogger("stabverify").handlers == []

    def test_face_step_ends_a_10_qubit_fit_early(self, monkeypatch):
        # a full-group record like the benchmark's: FISTA alone stops after
        # 33 iterations, the conjugate-gradient solve on its face after 13
        g = Graph.path(10)
        rng = np.random.default_rng(1)
        noise = NoiseModel(tuple(rng.uniform(0.01, 0.05, 10)), float(rng.uniform(0.01, 0.03)))
        rec = sample_record(apply_noise(g, noise), g, shots=2000, seed=1)
        fits = []
        pg_fit = kernels.pg_fit
        monkeypatch.setattr(kernels, "pg_fit", lambda *a: fits.append(pg_fit(*a)) or fits[-1])
        ml_fit(rec)
        [(p, kkt, iterations)] = fits
        assert kkt <= ML_TOL and iterations <= 20

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


OK_ROW = {"k": "1000", "value": 0.9, "sigma": 0.01}

# (rows, exact message) on the paper4 graph and frame, where -ZZII is k = 1.
# Row-format errors are raised in row order before any 'pauli' text is
# decoded; a row's 'shots' is read before its 'value' and 'sigma'.
MALFORMED_ROWS = {
    "non_object": ([OK_ROW, [1]], "measurements[1]: must be an object"),
    "missing_value": ([{"k": "1000", "sigma": 0.1}], "measurements[0]: missing 'value'"),
    "value_true": ([{"k": "1000", "value": True}],
                   "measurements[0]: 'value' must be a finite number, got True"),
    "value_string": ([{"k": "1000", "value": "0.9"}],
                     "measurements[0]: 'value' must be a finite number, got '0.9'"),
    "value_1e999": ([{"k": "1000", "value": json.loads("1e999")}],
                    "measurements[0]: 'value' must be a finite number, got inf"),
    "value_nan": ([{"k": "1000", "value": float("nan")}],
                  "measurements[0]: 'value' must be a finite number, got nan"),
    "sigma_string": ([{"k": "1000", "value": 0.9, "sigma": "0.1"}],
                     "measurements[0]: 'sigma' must be a finite number, got '0.1'"),
    "shots_float": ([{"k": "1000", "value": 0.9, "shots": 10.0}],
                    "measurements[0]: 'shots' must be an integer, got 10.0"),
    "shots_true": ([{"k": "1000", "value": 0.9, "shots": True}],
                   "measurements[0]: 'shots' must be an integer, got True"),
    "shots_zero": ([{"k": "1000", "value": 0.9, "shots": 0}],
                   "measurements[0]: 'shots' must be at least 1, got 0"),
    "no_key": ([{"value": 0.9}], "measurements[0]: need either 'k' or 'pauli'"),
    "k_not_string": ([{"k": 1, "value": 0.9}], "measurements[0]: 'k' must be a string, got 1"),
    "pauli_not_string": ([{"pauli": 5, "value": 0.9}],
                         "measurements[0]: 'pauli' must be a string, got 5"),
    "bad_k": ([{"k": "10", "value": 0.9}],
              "measurements[0]: bad stabilizer index string '10' for n=4"),
    "short_pauli": ([{"pauli": " zz ", "value": 0.9}],
                    "measurements[0]: operator 'ZZ' has fewer than 4 qubits"),
    "non_stabilizer_pauli": ([{"pauli": "ZZII", "value": 0.9}],
                             "measurements[0]: operator 'ZZII' is not a stabilizer element "
                             "of this graph and frame (check the sign)"),
    "duplicate_index": ([OK_ROW, {"pauli": "-ZZII", "value": 0.9}],
                        "measurements[1]: duplicate stabilizer index 1"),
    "shots_before_value": ([{"k": "1000", "value": "x", "shots": 0}],
                           "measurements[0]: 'shots' must be at least 1, got 0"),
    "value_before_sigma": ([{"k": "1000", "value": None, "sigma": None}],
                           "measurements[0]: 'value' must be a finite number, got None"),
    "key_before_value": ([{"k": "2", "value": None}],
                         "measurements[0]: bad stabilizer index string '2' for n=4"),
    "format_before_decode": ([{"pauli": "ZZII", "value": 0.9}, {"k": "1000", "value": None}],
                             "measurements[1]: 'value' must be a finite number, got None"),
    "decode_in_row_order": ([{"pauli": "-ZZII", "value": 0.9}, OK_ROW,
                             {"pauli": "ZZII", "value": 0.9}],
                            "measurements[1]: duplicate stabilizer index 1"),
    "non_stabilizer_before_duplicate": ([{"pauli": "ZZII", "value": 0.9}, OK_ROW,
                                         {"pauli": "-ZZII", "value": 0.9}],
                                        "measurements[0]: operator 'ZZII' is not a stabilizer "
                                        "element of this graph and frame (check the sign)"),
    "duplicate_k_rows": ([OK_ROW, {"k": "0100", "value": 0.5}, OK_ROW],
                         "measurements[2]: duplicate stabilizer index 1"),
    "value_range": ([{"k": "1000", "value": 1.5}], "entry 1: value 1.5 outside [-1, 1]"),
    "negative_sigma": ([{"k": "1000", "value": 0.9, "sigma": -0.1}],
                       "entry 1: negative sigma -0.1"),
    "identity": ([{"k": "0000", "value": 0.99}],
                 "identity entry (k=0) must have value 1 and sigma 0"),
}


class TestRecordDiagnostics:
    @pytest.mark.parametrize("rows, message", MALFORMED_ROWS.values(), ids=MALFORMED_ROWS)
    def test_exact_message(self, paper4, rows, message):
        graph, frame = paper4
        d = {"graph": graph.to_json_dict(), "frame": frame.to_json_list(),
             "measurements": rows}
        with pytest.raises(RecordFormatError) as info:
            record_from_json_dict(d)
        assert str(info.value) == message


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
