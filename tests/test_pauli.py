import importlib
import pkgutil

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from stabverify import Graph, LocalFrame, NotTwoColorableError, StabilizerCodec, two_coloring
from conftest import graphs_and_frames
from oracles import (
    PauliString,
    apply_frame,
    generators,
    multiply,
    pauli_to_matrix,
    stabilizer_group,
    transformed_generators,
)


def mat(s):
    return pauli_to_matrix(PauliString.from_string(s))


class TestPauliString:
    def test_string_roundtrip(self):
        for s in ["X", "-Z", "IXYZ", "-YYZI", "IIII"]:
            assert str(PauliString.from_string(s)) == s

    def test_plus_prefix_allowed(self):
        assert str(PauliString.from_string("+XZ")) == "XZ"

    def test_invalid_strings(self):
        with pytest.raises(ValueError):
            PauliString.from_string("XQ")
        with pytest.raises(ValueError):
            PauliString.from_string("-")
        with pytest.raises(ValueError):
            PauliString(2, x=4, z=0)  # mask bit outside range
        with pytest.raises(ValueError):
            PauliString(2, x=1, z=0, sign=2)

    def test_weight_and_ycount(self):
        p = PauliString.from_string("-XYZI")
        assert p.weight == 3
        assert p.y_count == 1

    def test_commutes_with(self):
        x = PauliString.from_string("X")
        z = PauliString.from_string("Z")
        assert not x.commutes_with(z)
        assert PauliString.from_string("XX").commutes_with(PauliString.from_string("ZZ"))


class TestMultiply:
    def test_example_against_dense_oracle(self):
        # X1 Z2 x Z1 X2 Z3 -> +Y1 Y2 Z3, checked by brute-force matrices
        p = PauliString.from_string("XZI")
        q = PauliString.from_string("ZXZ")
        r = multiply(p, q)
        assert str(r) == "YYZ"
        assert np.allclose(mat("XZI") @ mat("ZXZ"), pauli_to_matrix(r))

    def test_self_product_is_identity(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            n = int(rng.integers(1, 6))
            p = PauliString(n, int(rng.integers(0, 1 << n)), int(rng.integers(0, 1 << n)),
                            int(rng.choice([-1, 1])))
            r = multiply(p, p)
            assert (r.x, r.z, r.sign) == (0, 0, 1)

    def test_identity_preserves_sign(self):
        p = PauliString.from_string("-ZZ")
        r = multiply(p, PauliString.identity(2))
        assert str(r) == "-ZZ"

    def test_anticommuting_rejected(self):
        with pytest.raises(ValueError, match="anticommuting"):
            multiply(PauliString.from_string("X"), PauliString.from_string("Z"))

    def test_mismatched_size_rejected(self):
        with pytest.raises(ValueError):
            multiply(PauliString.from_string("X"), PauliString.from_string("XX"))

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_group_products_match_dense_oracle(self, n):
        group = stabilizer_group(generators(Graph.path(n)))
        mats = [pauli_to_matrix(g) for g in group]
        for i, gi in enumerate(group):
            for j, gj in enumerate(group):
                prod = multiply(gi, gj)
                assert np.allclose(mats[i] @ mats[j], pauli_to_matrix(prod), atol=1e-12)


class TestGenerators:
    def test_path4(self):
        gens = generators(Graph.path(4))
        assert [str(g) for g in gens] == ["XZII", "ZXZI", "IZXZ", "IIZX"]

    def test_single_vertex(self):
        gens = generators(Graph(1, frozenset()))
        assert [str(g) for g in gens] == ["X"]

    def test_paper6_vertex1(self, paper6):
        graph, _ = paper6
        g1 = generators(graph)[0]
        assert str(g1) == "XZIZII"  # X on 1, Z on neighbors 2 and 4

    def test_generators_commute(self):
        gens = generators(Graph.path(5))
        for i, g in enumerate(gens):
            for h in gens[i + 1:]:
                assert g.commutes_with(h)


class TestStabilizerGroup:
    def test_single_qubit(self):
        group = stabilizer_group([PauliString.from_string("X")])
        assert [str(g) for g in group] == ["I", "X"]

    def test_path4_group_properties(self):
        group = stabilizer_group(generators(Graph.path(4)))
        assert len(group) == 16
        assert len({(g.x, g.z, g.sign) for g in group}) == 16
        for g in group:
            sq = multiply(g, g)
            assert (sq.x, sq.z, sq.sign) == (0, 0, 1)
        for i, g in enumerate(group):
            for h in group[i + 1:]:
                assert g.commutes_with(h)

    def test_index_convention(self):
        # element at k = k1 + 2 k2 + ... ; (k1,k2,k3,k4) = (1,1,0,0) -> index 3
        group = stabilizer_group(generators(Graph.path(4)))
        assert str(group[3]) == "YYZI"

    def test_exhaustive_small_n(self):
        for n in [2, 3, 5, 6]:
            group = stabilizer_group(generators(Graph.path(n)))
            assert len({(g.x, g.z) for g in group}) == 1 << n
            for g in group:
                assert multiply(g, g).sign == 1

    def test_dependent_generators_rejected(self):
        g = PauliString.from_string("XZ")
        with pytest.raises(ValueError, match="dependent"):
            stabilizer_group([g, g])

    def test_noncommuting_generators_rejected(self):
        with pytest.raises(ValueError, match="commute"):
            stabilizer_group([PauliString.from_string("XI"), PauliString.from_string("ZI")])


class TestLocalFrame:
    def test_identity(self):
        f = LocalFrame.identity(3)
        assert f.is_identity()
        p = PauliString.from_string("-XYZ")
        assert apply_frame(f, p) == p

    def test_invalid_frames(self):
        with pytest.raises(ValueError, match="commute"):
            LocalFrame.from_tokens([("+X", "-X")])
        with pytest.raises(ValueError):
            LocalFrame.from_tokens([("+I", "+Z")])

    def test_table1_row(self, paper4):
        _, frame = paper4
        out = apply_frame(frame, PauliString.from_string("XZII"))
        assert str(out) == "-ZZII"

    def test_table2_generator5_row(self, paper6):
        _, frame = paper6
        out = apply_frame(frame, PauliString.from_string("IZIIXZ"))
        assert str(out) == "-IXIIXZ"

    def test_full_table1_regression(self, paper4):
        graph, frame = paper4
        got = [str(g) for g in transformed_generators(graph, frame)]
        assert got == ["-ZZII", "-XXZI", "IZXX", "IIZZ"]

    def test_full_table2_regression(self, paper6):
        graph, frame = paper6
        got = [str(g) for g in transformed_generators(graph, frame)]
        assert got == ["XXIXII", "ZZIIZI", "-IIZIIZ", "ZIIZII", "-IXIIXZ", "IIXIZX"]

    def test_homomorphism_property(self, paper4):
        # frame(p * q) == frame(p) * frame(q) on commuting inputs
        _, frame = paper4
        group = stabilizer_group(generators(Graph.path(4)))
        rng = np.random.default_rng(11)
        for _ in range(50):
            p = group[rng.integers(0, 16)]
            q = group[rng.integers(0, 16)]
            lhs = apply_frame(frame, multiply(p, q))
            rhs = multiply(apply_frame(frame, p), apply_frame(frame, q))
            assert lhs == rhs

    def test_frame_images_dense_oracle(self, paper4):
        # each transformed generator, as a matrix, is the conjugation of the
        # original by the per-qubit unitaries realized in operators
        from stabverify.operators import _frame_unitary_1q

        graph, frame = paper4
        us = [np.eye(2)] * 4
        for q in range(4):
            us[q] = _frame_unitary_1q(*frame.images[q])
        U = np.kron(np.kron(us[3], us[2]), np.kron(us[1], us[0]))
        for g, gt in zip(generators(graph), transformed_generators(graph, frame)):
            lhs = U @ pauli_to_matrix(g) @ U.conj().T
            assert np.allclose(lhs, pauli_to_matrix(gt), atol=1e-12)

    def test_json_roundtrip(self, paper6):
        _, frame = paper6
        assert LocalFrame.from_json_list(frame.to_json_list()) == frame


class TestGraph:
    def test_validation(self):
        with pytest.raises(ValueError, match="self-loop"):
            Graph.from_edges(3, [(1, 1)])
        with pytest.raises(ValueError, match="outside"):
            Graph.from_edges(3, [(1, 4)])
        g = Graph.from_edges(3, [(2, 1), (1, 2)])
        assert len(g.edges) == 1

    def test_json_roundtrip(self, paper6):
        graph, _ = paper6
        assert Graph.from_json_dict(graph.to_json_dict()) == graph

    @settings(max_examples=60, deadline=None)
    @given(data=st.data())
    def test_neighbors_match_edge_scan(self, data):
        n = data.draw(st.integers(1, 12))
        vertex = st.integers(1, n)
        pairs = data.draw(st.lists(st.tuples(vertex, vertex).filter(lambda e: e[0] != e[1]),
                                   max_size=3 * n))
        g = Graph.from_edges(n, pairs)
        for a in range(0, n + 2):
            scan = {v for u, v in g.edges if u == a} | {u for u, v in g.edges if v == a}
            assert g.neighbors(a) == scan
        # the adjacency is derived state: equality, hashing, repr and JSON ignore it
        flipped = Graph.from_edges(n, [(b, a) for a, b in reversed(pairs)])
        assert flipped == g and hash(flipped) == hash(g)
        assert repr(g) == f"Graph(n={n}, edges={g.edges!r})"
        assert g.to_json_dict() == flipped.to_json_dict()
        assert Graph.from_json_dict(g.to_json_dict()) == g


class TestStabilizerCodec:
    @settings(max_examples=60, deadline=None)
    @given(case=graphs_and_frames(), data=st.data())
    def test_matches_the_group(self, case, data):
        graph, frame = case
        n = graph.n
        texts = [str(s) for s in stabilizer_group(transformed_generators(graph, frame))]
        codec = StabilizerCodec(graph, frame)
        assert codec.encode(range(1 << n)) == texts
        assert codec.decode(texts) == list(range(1 << n))
        assert codec.decode("+" + t for t in texts if t[0] != "-") == [
            k for k, t in enumerate(texts) if t[0] != "-"]
        # a flipped sign, a wrong length or a foreign letter is never an element
        flipped = [t[1:] if t[0] == "-" else "-" + t for t in texts]
        assert codec.decode(flipped) == [None] * len(texts)
        assert codec.decode("+" + t for t in texts if t[0] == "-") == [
            None for t in texts if t[0] == "-"]
        body = [t.lstrip("-") for t in texts]
        assert codec.decode(b + "I" for b in body) == [None] * len(texts)
        if n > 1:
            assert codec.decode(b[1:] for b in body) == [None] * len(texts)
        letter = data.draw(st.sampled_from("AQW-+ ix"))
        where = data.draw(st.integers(0, n - 1))
        assert codec.decode(b[:where] + letter + b[where + 1:] for b in body) == [None] * len(texts)
        # any signed Pauli string is decoded to its group index or to None
        index = {t: k for k, t in enumerate(texts)}
        strings = data.draw(st.lists(
            st.tuples(st.sampled_from(["", "-", "+"]), st.text("IXYZ", min_size=n, max_size=n)),
            max_size=40))
        probes = [sign + b for sign, b in strings]
        assert codec.decode(probes) == [index.get(p.removeprefix("+")) for p in probes]

    def test_large_graph_without_the_group(self):
        # generators and a few products of a 70-qubit ring, far beyond 2^n
        n = 70
        graph = Graph.from_edges(n, [(a, a % n + 1) for a in range(1, n + 1)])
        codec = StabilizerCodec(graph, LocalFrame.identity(n))
        gens = [str(g) for g in generators(graph)]
        assert codec.encode(1 << a for a in range(n)) == gens
        assert codec.decode(gens) == [1 << a for a in range(n)]
        k = (1 << 69) | 1  # vertices 70 and 1 are adjacent: X_70 Z_1 * X_1 Z_70 = Y Y
        text = str(multiply(generators(graph)[0], generators(graph)[69]))
        assert codec.encode([k]) == [text] and codec.decode([text]) == [k]

    def test_sizes_must_agree(self):
        with pytest.raises(ValueError, match="qubit counts differ"):
            StabilizerCodec(Graph.path(3), LocalFrame.identity(4))


def test_no_module_holds_a_per_pauli_object():
    # stabilizer elements are bit arrays in the package; the object layer
    # lives in the tests' oracles only
    import stabverify

    modules = [stabverify] + [importlib.import_module(f"stabverify.{info.name}")
                              for info in pkgutil.iter_modules(stabverify.__path__)]
    assert len(modules) > 1
    for module in modules:
        for name in ("PauliString", "stabilizer_group", "pauli_to_matrix", "multiply",
                     "apply_frame"):
            assert not hasattr(module, name), f"{module.__name__}.{name}"


class TestTwoColoring:
    def test_path4(self):
        assert two_coloring(Graph.path(4)).b_size == 2

    def test_path6_and_paper6(self, paper6):
        assert two_coloring(Graph.path(6)).b_size == 3
        graph, _ = paper6
        assert two_coloring(graph).b_size == 3

    def test_classes_are_independent_sets(self):
        col = two_coloring(Graph.path(5))
        g = Graph.path(5)
        for cls in (col.amber, col.blue):
            for a in cls:
                assert not (g.neighbors(a) & cls)
        assert col.amber | col.blue == set(range(1, 6))
        assert not col.amber & col.blue

    def test_triangle_rejected(self):
        with pytest.raises(NotTwoColorableError):
            two_coloring(Graph.from_edges(3, [(1, 2), (2, 3), (1, 3)]))

    def test_disconnected_rejected(self):
        with pytest.raises(ValueError, match="connected"):
            two_coloring(Graph.from_edges(4, [(1, 2)]))
