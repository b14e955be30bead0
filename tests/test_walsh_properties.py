"""Property tests of the Walsh-domain identities behind the reduced PPT path.

``fwht`` transforms a vector or each row of a stack, the same either way, and
applying it twice multiplies by 2^n.  For a graph-diagonal operator with weights v, the partial transpose over T is
again graph-diagonal with weights M_T v = H (eps_T * H v) / 2^n.  These tests
check that identity, and the LP block built on it in u = H x, against dense
operators over random graphs, local frames and weights at n <= 4, and the
codec's Y masks against the explicitly built group at n <= 6.
"""

import numpy as np
from hypothesis import given, settings, strategies as st
from hypothesis.extra.numpy import arrays

from conftest import graphs_and_frames
from stabverify import graph_diagonal_operator, partial_transpose
from stabverify.kernels import fwht
from stabverify.sdp import CutBlock, PptBlock, _cut_masks, all_bipartitions
from oracles import stabilizer_group, transformed_generators

PROPERTY_SETTINGS = settings(max_examples=40, deadline=None)


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
    graph, frame = data.draw(graphs_and_frames(max_n=4))
    v = data.draw(weights(graph.n))
    partitions = all_bipartitions(graph.n)
    block = CutBlock(*_cut_masks(graph, frame, partitions), v)
    rho = graph_diagonal_operator(v, graph, frame)
    offsets = block.offset
    assert np.array_equal(offsets[0], np.zeros(1 << graph.n))  # row T = {}: x >= 0
    for part, spectrum in zip(partitions, offsets[1:]):
        dense = np.linalg.eigvalsh(partial_transpose(rho, part))
        assert np.max(np.abs(np.sort(spectrum) - dense)) <= 1e-12


@PROPERTY_SETTINGS
@given(data=st.data())
def test_cut_block_matches_dense_products(data):
    # the block acts on u = H x; row T = {} has M = I and offset 0, so with
    # A_T = M_T H / 2^n its rows are offset_T + A_T u = M_T p + M_T x and x
    graph, frame = data.draw(graphs_and_frames(max_n=4))
    n, dim = graph.n, 1 << graph.n
    partitions = all_bipartitions(n)
    rows = 1 + len(partitions)
    p = data.draw(weights(n))
    x = data.draw(weights(n))
    z = data.draw(arrays(np.float64, rows * dim, elements=st.floats(-1.0, 1.0)))
    d = data.draw(arrays(np.float64, rows * dim, elements=st.floats(1e-3, 1e3)))
    block = CutBlock(*_cut_masks(graph, frame, partitions), p)
    mats = [np.eye(dim)] + dense_cut_matrices(graph, frame, partitions)
    walsh = fwht(np.eye(dim))
    lifts = [M @ walsh / dim for M in mats]

    offsets = np.concatenate([np.zeros(dim)] + [M @ p for M in mats[1:]])
    assert np.allclose(block.offset.ravel(), offsets, rtol=0, atol=1e-12)
    u = fwht(x)
    assert np.allclose(block.apply(u), np.concatenate([M @ x for M in mats]),
                       rtol=0, atol=1e-12)
    zs = z.reshape(rows, dim)
    assert np.allclose(block.adjoint(z), sum(A.T @ zt for A, zt in zip(lifts, zs)),
                       rtol=0, atol=1e-12)
    ds = d.reshape(rows, dim)
    schur = sum(A.T @ (dt[:, None] * A) for A, dt in zip(lifts, ds))
    assert np.allclose(block.schur(d), schur, rtol=0, atol=1e-12 * np.abs(d).max())


@PROPERTY_SETTINGS
@given(data=st.data())
def test_cut_block_certificate_primitives_match_the_dense_block(data):
    # the LP block's spectra and dual bound are those of the dense PSD stack
    # of the same graph-diagonal operators, part by part
    graph, frame = data.draw(graphs_and_frames(max_n=3))
    n, dim = graph.n, 1 << graph.n
    partitions = all_bipartitions(n)
    rows = 1 + len(partitions)
    p = data.draw(weights(n))
    y = data.draw(arrays(np.float64, (rows, dim), elements=st.floats(0.0, 1.0)))
    cuts = CutBlock(*_cut_masks(graph, frame, partitions), p)
    dense = PptBlock(graph_diagonal_operator(p, graph, frame), partitions)
    assert np.allclose(cuts.spectra(cuts.offset), dense.spectra(dense.offset),
                       rtol=0, atol=1e-10)
    Y = np.stack([graph_diagonal_operator(w, graph, frame) for w in y])
    for t in [*range(rows), slice(None)]:  # each part alone, then their sum
        mask = np.zeros(rows)
        mask[t] = 1.0
        assert abs(cuts.dual_max(mask[:, None] * y)
                   - dense.dual_max(mask[:, None, None] * Y)) <= 1e-10


@PROPERTY_SETTINGS
@given(data=st.data())
def test_cut_masks_match_stabilizer_group(data):
    graph, frame = data.draw(graphs_and_frames(max_n=6))
    partitions = all_bipartitions(graph.n)
    ymask, tmask = _cut_masks(graph, frame, partitions)
    group = stabilizer_group(transformed_generators(graph, frame))
    assert ymask.dtype == np.int64
    assert ymask.tolist() == [s.x & s.z for s in group]
    assert tmask.tolist() == [sum(1 << (q - 1) for q in part) for part in partitions]
