import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra.numpy import arrays

from stabverify import (
    Graph,
    LocalFrame,
    eig_hermitian,
    fidelity_pure,
    graph_diagonal_operator,
    graph_state_vector,
    partial_transpose,
    purity,
    trace_inner,
)
from stabverify.kernels import fwht
from stabverify.operators import check_hermitian, shannon_entropy
from oracles import (
    PauliString,
    generators,
    pauli_to_matrix,
    stabilizer_expectations,
    stabilizer_group,
    transformed_generators,
    von_neumann_entropy,
)
from stabverify.presets import FRAME_PAPER4, FRAME_PAPER6, GRAPH_PAPER4, GRAPH_PAPER6


def char_poly_roots(A):
    """Eigenvalue oracle: Faddeev-LeVerrier coefficients, then companion roots."""
    n = A.shape[0]
    coeffs = np.zeros(n + 1, dtype=complex)
    coeffs[0] = 1.0
    M = np.eye(n, dtype=complex)
    for k in range(1, n + 1):
        AM = A @ M
        coeffs[k] = -np.trace(AM) / k
        M = AM + coeffs[k] * np.eye(n)
    return np.sort(np.roots(coeffs).real)


def stabilizer_expansion(weights, graph, frame=None):
    """Oracle: 2^-n sum_k m_k S_k over the framed stabilizer group, m = fwht(weights)."""
    group = stabilizer_group(transformed_generators(graph, frame or LocalFrame.identity(graph.n)))
    m = fwht(np.asarray(weights, dtype=np.float64))
    return sum(mk * pauli_to_matrix(s) for mk, s in zip(m, group)) / len(group)


@st.composite
def framed_graphs(draw, letters):
    """A graph on 1-4 vertices and a frame whose images use only `letters`."""
    n = draw(st.integers(1, 4))
    pairs = [(a, b) for a in range(1, n + 1) for b in range(a + 1, n + 1)]
    edges = draw(st.lists(st.sampled_from(pairs), unique=True)) if pairs else []
    tokens = []
    for _ in range(n):
        image_x, image_z = draw(st.permutations(letters))[:2]
        sign_x, sign_z = draw(st.sampled_from("+-")), draw(st.sampled_from("+-"))
        tokens.append((sign_x + image_x, sign_z + image_z))
    return Graph.from_edges(n, edges), LocalFrame.from_tokens(tokens)


class TestPauliToMatrix:
    def test_z(self):
        assert np.array_equal(pauli_to_matrix(PauliString.from_string("Z")),
                              np.diag([1, -1]).astype(complex))

    def test_minus_zz(self):
        got = pauli_to_matrix(PauliString.from_string("-ZZ"))
        assert np.array_equal(got, np.diag([-1, 1, 1, -1]).astype(complex))

    def test_xz_squared_identity(self):
        m = pauli_to_matrix(PauliString.from_string("XZ"))
        assert np.allclose(m @ m, np.eye(4))

    def test_involutory_traceless(self):
        rng = np.random.default_rng(5)
        for _ in range(10):
            n = int(rng.integers(1, 5))
            p = PauliString(n, int(rng.integers(0, 1 << n)), int(rng.integers(0, 1 << n)),
                            int(rng.choice([-1, 1])))
            m = pauli_to_matrix(p)
            assert np.allclose(m @ m, np.eye(1 << n))
            if (p.x, p.z) != (0, 0):
                assert abs(np.trace(m)) < 1e-12
            check_hermitian(m)

    def test_qubit_order(self):
        # X on qubit 1 flips the least significant bit of the basis index
        m = pauli_to_matrix(PauliString.from_string("XI"))
        v = np.zeros(4)
        v[0] = 1
        assert np.argmax(np.abs(m @ v)) == 1

    def test_dimension_guard(self):
        with pytest.raises(ValueError, match="capped"):
            pauli_to_matrix(PauliString.identity(13))


class TestGraphStateVector:
    def test_single_vertex_plus(self):
        v = graph_state_vector(Graph(1, frozenset()))
        assert np.allclose(v, np.array([1, 1]) / np.sqrt(2))

    def test_path4_amplitudes_oracle(self):
        # 1/2 (|+00+> + |+01-> + |-10+> - |-11->), qubit 1 = least significant
        plus = np.array([1, 1]) / np.sqrt(2)
        minus = np.array([1, -1]) / np.sqrt(2)
        zero, one = np.array([1.0, 0.0]), np.array([0.0, 1.0])

        def term(q1, q2, q3, q4):
            out = np.zeros(16, dtype=complex)
            for i1 in range(2):
                for i2 in range(2):
                    for i3 in range(2):
                        for i4 in range(2):
                            out[i1 + 2 * i2 + 4 * i3 + 8 * i4] += (
                                q1[i1] * q2[i2] * q3[i3] * q4[i4]
                            )
            return out

        oracle = 0.5 * (
            term(plus, zero, zero, plus)
            + term(plus, zero, one, minus)
            + term(minus, one, zero, plus)
            - term(minus, one, one, minus)
        )
        v = graph_state_vector(Graph.path(4))
        assert abs(abs(np.vdot(v, oracle)) - 1) < 1e-12

    def test_framed_state_table1(self, paper4):
        graph, frame = paper4
        v = graph_state_vector(graph, frame)
        for g in transformed_generators(graph, frame):
            assert abs(fidelity_pure(pauli_to_matrix(g), v) - 1.0) < 1e-10

    @pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
    def test_all_stabilizer_expectations_plus_one(self, n):
        graph = Graph.path(n)
        v = graph_state_vector(graph)
        group = stabilizer_group(generators(graph))
        ex = stabilizer_expectations(v, group)
        assert np.allclose(ex, 1.0, atol=1e-10)

    def test_paper6_framed_expectations(self, paper6):
        graph, frame = paper6
        v = graph_state_vector(graph, frame)
        group = stabilizer_group(transformed_generators(graph, frame))
        ex = stabilizer_expectations(v, group)
        assert np.allclose(ex, 1.0, atol=1e-10)

    def test_unit_norm(self):
        v = graph_state_vector(Graph.path(5))
        assert abs(np.linalg.norm(v) - 1) < 1e-12


class TestPartialTranspose:
    def test_empty_subset_identity(self):
        rng = np.random.default_rng(0)
        m = rng.standard_normal((8, 8))
        assert np.array_equal(partial_transpose(m, []), m)

    def test_involution(self):
        rng = np.random.default_rng(1)
        m = rng.standard_normal((16, 16)) + 1j * rng.standard_normal((16, 16))
        for subset in ([1], [2, 4], [1, 3], [1, 2, 3, 4]):
            assert np.allclose(partial_transpose(partial_transpose(m, subset), subset), m)

    def test_trace_and_hermiticity_preserved(self):
        rng = np.random.default_rng(2)
        m = rng.standard_normal((8, 8)) + 1j * rng.standard_normal((8, 8))
        m = (m + m.conj().T) / 2
        pt = partial_transpose(m, [2])
        assert abs(np.trace(pt) - np.trace(m)) < 1e-12
        check_hermitian(pt)

    def test_product_state_spectrum_unchanged(self):
        rng = np.random.default_rng(3)

        def rand_dm(d):
            a = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
            rho = a @ a.conj().T
            return rho / np.trace(rho).real

        # rho_A (qubit 1) x rho_B (qubits 2-3): transposing either whole
        # factor transposes that factor only and keeps the spectrum
        rho = np.kron(rand_dm(4), rand_dm(2))  # qubit 1 least significant
        w0, _ = eig_hermitian(rho)
        for subset in ([1], [2, 3]):
            w1, _ = eig_hermitian(partial_transpose(rho, subset))
            assert np.allclose(w0, w1, atol=1e-10)
        # fully separable product: any subset preserves the spectrum
        prod = np.kron(np.kron(rand_dm(2), rand_dm(2)), rand_dm(2))
        w0, _ = eig_hermitian(prod)
        for subset in ([1], [2], [3], [1, 3], [2, 3]):
            w1, _ = eig_hermitian(partial_transpose(prod, subset))
            assert np.allclose(w0, w1, atol=1e-10)

    def test_bell_eigenvalues_oracle(self):
        # |Phi+><Phi+| partially transposed: hand-checkable 4x4 matrix
        bell = np.zeros(4, dtype=complex)
        bell[0] = bell[3] = 1 / np.sqrt(2)
        rho = np.outer(bell, bell.conj())
        pt = partial_transpose(rho, [2])
        expected = 0.5 * np.array(
            [[1, 0, 0, 0], [0, 0, 1, 0], [0, 1, 0, 0], [0, 0, 0, 1]], dtype=complex
        )
        assert np.allclose(pt, expected, atol=1e-12)
        w, _ = eig_hermitian(pt)
        assert np.allclose(w, [-0.5, 0.5, 0.5, 0.5], atol=1e-10)

    def test_bad_subset(self):
        with pytest.raises(ValueError, match="outside"):
            partial_transpose(np.eye(4), [3])


class TestEigHermitian:
    def test_diagonal(self):
        w, V = eig_hermitian(np.diag([3.0, -1.0, 2.0]).astype(complex))
        assert np.allclose(w, [-1, 2, 3])

    def test_pauli_x(self):
        w, _ = eig_hermitian(pauli_to_matrix(PauliString.from_string("X")))
        assert np.allclose(w, [-1, 1])

    def test_char_poly_oracle_8x8(self):
        rng = np.random.default_rng(8)
        A = rng.standard_normal((8, 8)) + 1j * rng.standard_normal((8, 8))
        A = (A + A.conj().T) / 2
        w, _ = eig_hermitian(A)
        assert np.max(np.abs(w - char_poly_roots(A))) < 1e-8

    def test_reconstruction_and_orthonormality(self):
        rng = np.random.default_rng(9)
        for d, cplx in [(5, True), (16, True), (12, False)]:
            A = rng.standard_normal((d, d))
            if cplx:
                A = A + 1j * rng.standard_normal((d, d))
            A = (A + A.conj().T) / 2
            w, V = eig_hermitian(A)
            scale = np.max(np.abs(A))
            assert np.max(np.abs(A - (V * w) @ V.conj().T)) <= 1e-9 * scale
            assert np.max(np.abs(V.conj().T @ V - np.eye(d))) <= 1e-10
            assert np.all(np.diff(w) >= -1e-14)

    @pytest.mark.parametrize("d", [1, 2, 3, 8, 32])
    def test_real_reconstruction(self, d):
        rng = np.random.default_rng(d)
        A = rng.standard_normal((d, d))
        A = (A + A.T) / 2
        w, V = eig_hermitian(A)
        assert np.max(np.abs(A - (V * w) @ V.conj().T)) < 1e-10 * max(1, np.max(np.abs(A)))
        assert np.max(np.abs(V.conj().T @ V - np.eye(d))) < 1e-11

    @pytest.mark.parametrize("d", [1, 2, 3, 8, 16])
    def test_herm_reconstruction(self, d):
        rng = np.random.default_rng(d + 100)
        A = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
        A = (A + A.conj().T) / 2
        w, V = eig_hermitian(A)
        assert np.max(np.abs(A - (V * w) @ V.conj().T)) < 1e-10 * max(1, np.max(np.abs(A)))
        assert np.max(np.abs(V.conj().T @ V - np.eye(d))) < 1e-11

    def test_doubled_spectrum_input(self):
        # the real 2d x 2d block form of a Hermitian h has every eigenvalue twice
        rng = np.random.default_rng(42)
        h = rng.standard_normal((6, 6)) + 1j * rng.standard_normal((6, 6))
        h = (h + h.conj().T) / 2
        emb = np.block([[h.real, -h.imag], [h.imag, h.real]])
        w, V = eig_hermitian(emb)
        assert np.max(np.abs(emb - (V * w) @ V.conj().T)) < 1e-10
        assert np.allclose(w[0::2], w[1::2], atol=1e-9)

    def test_degenerate_spectrum(self):
        A = np.diag([1.0, 1.0, 2.0, 2.0]).astype(complex)
        w, V = eig_hermitian(A)
        assert np.allclose(w, [1, 1, 2, 2])
        assert np.max(np.abs(V.conj().T @ V - np.eye(4))) < 1e-12

    def test_non_hermitian_rejected(self):
        with pytest.raises(ValueError, match="Hermitian"):
            eig_hermitian(np.array([[0.0, 1.0], [0.0, 0.0]]))

    def test_stack_matches_one_matrix_at_a_time(self):
        rng = np.random.default_rng(11)
        A = rng.standard_normal((3, 6, 6)) + 1j * rng.standard_normal((3, 6, 6))
        A = A + A.conj().swapaxes(1, 2)
        w, V = eig_hermitian(A)
        for a, wa, va in zip(A, w, V):
            w1, v1 = eig_hermitian(a)
            assert np.array_equal(wa, w1) and np.array_equal(va, v1)

    def test_stack_checks_each_matrix_on_its_own_scale(self):
        # a deviation of 1e-6 passes next to entries of 1e6 but not in a
        # matrix of unit entries, even when the stack holds both
        big, small = 1e6 * np.eye(2), np.eye(2)
        small[0, 1] = 1e-6
        eig_hermitian(np.stack((big + small - np.eye(2),)))
        with pytest.raises(ValueError, match="Hermitian"):
            eig_hermitian(np.stack((big, small)))
        with pytest.raises(ValueError, match="square matrix or a stack"):
            eig_hermitian(np.zeros((2, 2, 3)))


class TestScalarFunctionals:
    def test_pure_state(self, paper4):
        graph, frame = paper4
        v = graph_state_vector(graph, frame)
        rho = np.outer(v, v.conj())
        assert abs(purity(rho) - 1) < 1e-12
        assert abs(fidelity_pure(rho, v) - 1) < 1e-12
        assert abs(von_neumann_entropy(rho)) < 1e-8

    def test_maximally_mixed(self):
        rho = np.eye(16) / 16
        assert abs(purity(rho) - 1 / 16) < 1e-12
        assert abs(von_neumann_entropy(rho) - 4) < 1e-10

    def test_entropy_scalar_formula(self):
        rho = np.diag([0.9, 0.1]).astype(complex)
        expected = -(0.9 * np.log2(0.9) + 0.1 * np.log2(0.1))
        assert abs(von_neumann_entropy(rho) - expected) < 1e-10
        assert abs(shannon_entropy([0.9, 0.1]) - expected) < 1e-12

    def test_entropy_rejects_negative(self):
        with pytest.raises(ValueError, match="negative"):
            von_neumann_entropy(np.diag([1.1, -0.1]).astype(complex))

    def test_purity_entrywise_vs_eigenvalues(self):
        rng = np.random.default_rng(12)
        a = rng.standard_normal((8, 8)) + 1j * rng.standard_normal((8, 8))
        rho = a @ a.conj().T
        rho /= np.trace(rho).real
        w, _ = eig_hermitian(rho)
        assert abs(purity(rho) - float((w ** 2).sum())) < 1e-10

    def test_trace_inner(self):
        rng = np.random.default_rng(13)
        a = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
        a = (a + a.conj().T) / 2
        b = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
        b = (b + b.conj().T) / 2
        ti = trace_inner(a, b)
        assert abs(ti - np.trace(a @ b).real) < 1e-12
        assert abs(ti - trace_inner(b, a)) < 1e-12


class TestGraphDiagonalOperator:
    def test_matches_eigenbasis_sum(self, paper4):
        graph, frame = paper4
        rng = np.random.default_rng(14)
        p = rng.dirichlet(np.ones(16))
        rho = graph_diagonal_operator(p, graph, frame)
        check_hermitian(rho)
        assert abs(np.trace(rho).real - 1) < 1e-10
        # expectations of the framed stabilizers equal the Walsh transform of p
        group = stabilizer_group(transformed_generators(graph, frame))
        m = fwht(p.astype(np.float64))
        for k, s in enumerate(group):
            assert abs(trace_inner(rho, pauli_to_matrix(s)) - m[k]) < 1e-10

    def test_pure_population_is_projector(self, paper4):
        graph, frame = paper4
        p = np.zeros(16)
        p[0] = 1.0
        rho = graph_diagonal_operator(p, graph, frame)
        v = graph_state_vector(graph, frame)
        assert np.allclose(rho, np.outer(v, v.conj()), atol=1e-10)

    @pytest.mark.parametrize("graph, frame", [
        (GRAPH_PAPER4, FRAME_PAPER4),
        (GRAPH_PAPER6, FRAME_PAPER6),
        (GRAPH_PAPER6, LocalFrame.identity(6)),
        (Graph.path(5), None),
    ], ids=["paper4", "paper6", "paper6-identity", "path5"])
    def test_matches_stabilizer_expansion(self, graph, frame):
        p = np.random.default_rng(graph.n).dirichlet(np.ones(1 << graph.n))
        rho = graph_diagonal_operator(p, graph, frame)
        assert rho.dtype == np.complex128
        assert np.max(np.abs(rho - stabilizer_expansion(p, graph, frame))) <= 1e-12
        assert not rho.imag.any()  # X/Z frames give a real operator

    @settings(max_examples=60, deadline=None)
    @given(data=st.data())
    def test_drawn_frames_match_stabilizer_expansion(self, data):
        # frames with Y images; the state vector comes from the same helper
        graph, frame = data.draw(framed_graphs("XYZ"))
        w = data.draw(arrays(np.float64, 1 << graph.n, elements=st.floats(-1.0, 1.0)))
        rho = graph_diagonal_operator(w, graph, frame)
        assert np.max(np.abs(rho - stabilizer_expansion(w, graph, frame))) <= 1e-12
        group = stabilizer_group(transformed_generators(graph, frame))
        v = graph_state_vector(graph, frame)
        assert np.max(np.abs(stabilizer_expectations(v, group) - 1.0)) <= 1e-12

    @settings(max_examples=60, deadline=None)
    @given(data=st.data())
    def test_xz_frames_give_real_operators(self, data):
        # a real rho keeps the dense PPT path in real symmetric coordinates
        graph, frame = data.draw(framed_graphs("XZ"))
        w = data.draw(arrays(np.float64, 1 << graph.n, elements=st.floats(-1.0, 1.0)))
        assert not graph_diagonal_operator(w, graph, frame).imag.any()

    def test_rejects_bad_sizes(self):
        with pytest.raises(ValueError, match="length"):
            graph_diagonal_operator(np.ones(8) / 8, Graph.path(2))
        with pytest.raises(ValueError, match="frame size"):
            graph_diagonal_operator(np.ones(4) / 4, Graph.path(2), LocalFrame.identity(3))
        with pytest.raises(ValueError, match="frame size"):
            graph_state_vector(Graph.path(2), FRAME_PAPER4)
        # refused before the 2^13 x 2^13 matrix is formed
        with pytest.raises(ValueError, match="capped"):
            graph_diagonal_operator(np.ones(1 << 13) / (1 << 13), Graph.path(13))
        with pytest.raises(ValueError, match="capped"):
            graph_state_vector(Graph.path(13))
