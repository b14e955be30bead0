"""Property tests of the Walsh-domain identities behind the reduced PPT path.

``fwht`` transforms a vector or each row of a stack, the same either way, and
applying it twice multiplies by 2^n.  For a graph-diagonal operator with weights v, the partial transpose over T is
again graph-diagonal with weights M_T v = H (eps_T * H v) / 2^n.  These tests
check that identity, and the LP block built on it, against dense operators
over random graphs, local frames and weights at n <= 4.
"""

import numpy as np
from hypothesis import given, settings, strategies as st
from hypothesis.extra.numpy import arrays

from stabverify import Graph, LocalFrame, graph_diagonal_operator, partial_transpose
from stabverify.kernels import fwht
from stabverify.sdp import CutBlock, _cut_masks, all_bipartitions

PROPERTY_SETTINGS = settings(max_examples=40, deadline=None)


@st.composite
def graphs_and_frames(draw):
    n = draw(st.integers(2, 4))
    kind = draw(st.sampled_from(["path", "ring", "star"]))
    path = [(a, a + 1) for a in range(1, n)]
    if kind == "path":
        edges = path
    elif kind == "ring":
        edges = path + [(n, 1)] if n >= 3 else path
    else:
        center = draw(st.integers(1, n))
        edges = [(center, a) for a in range(1, n + 1) if a != center]
    pairs = []
    for _ in range(n):
        image_x, image_z = draw(st.permutations("XYZ"))[:2]
        sign_x, sign_z = draw(st.sampled_from("+-")), draw(st.sampled_from("+-"))
        pairs.append((sign_x + image_x, sign_z + image_z))
    return Graph.from_edges(n, edges), LocalFrame.from_tokens(pairs)


def weights(n):
    return arrays(np.float64, 1 << n, elements=st.floats(-1.0, 1.0))


@PROPERTY_SETTINGS
@given(data=st.data())
def test_fwht_stack_matches_rows_and_inverts(data):
    n = data.draw(st.integers(0, 16))
    rows = data.draw(st.integers(1, 5))
    x = data.draw(arrays(np.float64, (rows, 1 << n), elements=st.floats(-1.0, 1.0)))
    stacked = fwht(x)
    assert np.array_equal(stacked, np.array([fwht(row) for row in x]))
    # the round trip returns 2^n x; past n = 12 allow 64 units in the last
    # place of 2^n, which the radix-2 butterfly needs as well at n = 16
    tol = max(1e-10, 64 * np.spacing(2.0 ** n))
    assert np.max(np.abs(fwht(stacked) - (1 << n) * x)) <= tol


def dense_cut_matrices(graph, frame, partitions):
    """M_T[i, j] = <b_i| (|b_j><b_j|)^Gamma_T |b_i> over the graph basis b."""
    dim = 1 << graph.n
    projectors = [graph_diagonal_operator(np.eye(dim)[j], graph, frame)
                  for j in range(dim)]
    mats = []
    for part in partitions:
        transposed = [partial_transpose(P, part) for P in projectors]
        mats.append(np.array([[np.vdot(Pi, Tj).real for Tj in transposed]
                              for Pi in projectors]))
    return mats


@PROPERTY_SETTINGS
@given(data=st.data())
def test_cut_spectrum_matches_dense_partial_transpose(data):
    graph, frame = data.draw(graphs_and_frames())
    v = data.draw(weights(graph.n))
    partitions = all_bipartitions(graph.n)
    block = CutBlock(*_cut_masks(graph, frame, partitions), v)
    rho = graph_diagonal_operator(v, graph, frame)
    for part, spectrum in zip(partitions, block.g0.reshape(len(partitions), -1)):
        dense = np.linalg.eigvalsh(partial_transpose(rho, part))
        assert np.max(np.abs(np.sort(spectrum) - dense)) <= 1e-12


@PROPERTY_SETTINGS
@given(data=st.data())
def test_cut_block_matches_dense_products(data):
    graph, frame = data.draw(graphs_and_frames())
    n, dim = graph.n, 1 << graph.n
    partitions = all_bipartitions(n)
    p = data.draw(weights(n))
    x = data.draw(weights(n))
    z = data.draw(arrays(np.float64, len(partitions) * dim,
                         elements=st.floats(-1.0, 1.0)))
    d = data.draw(arrays(np.float64, len(partitions) * dim,
                         elements=st.floats(1e-3, 1e3)))
    block = CutBlock(*_cut_masks(graph, frame, partitions), p)
    mats = dense_cut_matrices(graph, frame, partitions)

    assert np.allclose(block.g0, np.concatenate([M @ p for M in mats]),
                       rtol=0, atol=1e-12)
    assert np.allclose(block.apply(x), np.concatenate([M @ x for M in mats]),
                       rtol=0, atol=1e-12)
    zs = z.reshape(len(partitions), dim)
    assert np.allclose(block.adjoint(z), sum(M.T @ zt for M, zt in zip(mats, zs)),
                       rtol=0, atol=1e-12)
    ds = d.reshape(len(partitions), dim)
    schur = sum(M.T @ (dt[:, None] * M) for M, dt in zip(mats, ds))
    assert np.allclose(block.schur(d), schur, rtol=0, atol=1e-12 * np.abs(d).max())
