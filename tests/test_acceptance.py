"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with ``pytest tests/test_acceptance.py -v`` (the per-criterion lines are
echoed in the terminal summary; add ``-s`` to stream them live).  Timed
sections assume warmed-up JIT kernels, which the session fixture provides.
"""

import time

import numpy as np
import pytest

import stabverify as sv
from stabverify import (
    GeneratorData,
    Graph,
    NoiseModel,
    all_bipartitions,
    apply_noise,
    er_lower_from_state,
    expectations_from_populations,
    fidelity_min,
    graph_state_vector,
    log_robustness,
    ml_fit,
    partial_transpose,
    ppt_robustness,
    purity_min,
    purity_min_solution,
    rel_entropy_min,
    robustness_min,
    sample_record,
    symmetry_reduced_robustness,
    walsh_populations,
)
from stabverify.reconstruct import fit_objective

from conftest import ACCEPTANCE_LINES, TABLE1_A, TABLE1_SIGMA, TABLE2_A, TABLE2_SIGMA


def record_line(criterion, ok, detail):
    status = "PASS" if ok else "FAIL"
    line = f"criterion {criterion}: {status} - {detail}"
    ACCEPTANCE_LINES.append(line)
    print(line)
    assert ok, line


def test_criterion_1_generator_bounds_four_qubits():
    t0 = time.perf_counter()
    f = fidelity_min(TABLE1_A)
    rg = robustness_min(TABLE1_A, 2)
    lrg = log_robustness(rg)
    er = rel_entropy_min(TABLE1_A, 2)
    elapsed = time.perf_counter() - t0
    checks = [
        abs(f - 0.8455) <= 0.0005,
        abs(rg - 2.382) <= 0.005,
        1.757 <= lrg <= 1.760,
        abs(er - 1.120) <= 0.002,
        elapsed < 1.0,
    ]
    record_line(
        1,
        all(checks),
        f"f_min={f:.4f} rg_min={rg:.4f} lrg_min={lrg:.4f} er_min={er:.4f} "
        f"({elapsed * 1e3:.1f} ms)",
    )


def test_criterion_2_generator_bounds_six_qubits():
    t0 = time.perf_counter()
    f = fidelity_min(TABLE2_A)
    rg = robustness_min(TABLE2_A, 3)
    er = rel_entropy_min(TABLE2_A, 3)
    elapsed = time.perf_counter() - t0
    checks = [
        abs(f - 0.5445) <= 0.0005,
        abs(rg - 3.356) <= 0.010,
        abs(er - 1.013) <= 0.002,
        elapsed < 1.0,
    ]
    record_line(
        2,
        all(checks),
        f"f_min={f:.4f} rg_min={rg:.4f} er_min={er:.4f} ({elapsed * 1e3:.1f} ms)",
    )


def test_criterion_3_worst_case_purity_qp():
    t0 = time.perf_counter()
    s1 = purity_min_solution(TABLE1_A)
    s2 = purity_min_solution(TABLE2_A)
    elapsed = time.perf_counter() - t0
    checks = [
        abs(s1.value - 0.715) <= 0.005,
        abs(s2.value - 0.297) <= 0.005,
        s1.kkt_residual <= 1e-9,
        s2.kkt_residual <= 1e-9,
        elapsed < 10.0,
    ]
    record_line(
        3,
        all(checks),
        f"p_min(4q)={s1.value:.4f} p_min(6q)={s2.value:.4f} "
        f"kkt<={max(s1.kkt_residual, s2.kkt_residual):.1e} ({elapsed * 1e3:.1f} ms)",
    )


def test_criterion_4_sdp_sanity():
    # Bell state against the hand-built primal/dual sandwich
    bell = np.zeros(4, dtype=complex)
    bell[0] = bell[3] = 1 / np.sqrt(2)
    rho_bell = np.outer(bell, bell.conj())
    singlet = np.zeros(4, dtype=complex)
    singlet[1], singlet[2] = 1 / np.sqrt(2), -1 / np.sqrt(2)
    proj = np.outer(singlet, singlet.conj())
    # primal witness (trace 1) and dual witness (value 1), checked numerically
    prim_ok = (
        np.linalg.eigvalsh(proj)[0] > -1e-12
        and np.linalg.eigvalsh(partial_transpose(rho_bell + proj, [1]))[0] > -1e-10
    )
    Y = 2.0 * proj
    dual_ok = (
        np.linalg.eigvalsh(np.eye(4) - partial_transpose(Y, [1]))[0] > -1e-10
        and abs(-np.trace(Y @ partial_transpose(rho_bell, [1])).real - 1.0) < 1e-12
    )
    sol_bell = ppt_robustness(rho_bell, [[1]])

    t_dense = time.perf_counter()
    v4 = graph_state_vector(sv.GRAPH_PAPER4, sv.FRAME_PAPER4)
    sol4 = ppt_robustness(np.outer(v4, v4.conj()), all_bipartitions(4))
    t_dense = time.perf_counter() - t_dense

    t_red = time.perf_counter()
    p6 = np.zeros(64)
    p6[0] = 1.0
    sol6 = symmetry_reduced_robustness(p6, sv.GRAPH_PAPER6, sv.FRAME_PAPER6)
    t_red = time.perf_counter() - t_red

    # reduced path must agree with the dense path exactly at small n
    agree = []
    rng = np.random.default_rng(0)
    for n, graph in ((2, Graph.path(2)), (3, Graph.path(3))):
        p = rng.dirichlet(np.ones(1 << n))
        rho = sv.graph_diagonal_operator(p, graph)
        vd = ppt_robustness(rho, all_bipartitions(n)).value
        vr = symmetry_reduced_robustness(p, graph).value
        agree.append(abs(vd - vr))

    gaps = [sol_bell.duality_gap, sol4.duality_gap, sol6.duality_gap]
    values = [sol.value for sol in (sol_bell, sol4, sol6)]
    checks = [
        prim_ok and dual_ok,
        abs(sol_bell.value - 1.0) <= 1e-5,
        abs(sol4.value - 3.0) <= 1e-4,
        abs(log_robustness(sol4.value) - 2.0) <= 1e-4,
        abs(sol6.value - 7.0) <= 1e-4,
        all(g <= 1e-6 * (1 + abs(v)) for g, v in zip(gaps, values)),
        max(agree) <= 1e-5,
        t_dense < 30.0,
        t_red < 300.0,
    ]
    record_line(
        4,
        all(checks),
        f"bell={sol_bell.value:.6f} cluster4={sol4.value:.6f} ({t_dense:.2f} s) "
        f"cluster6={sol6.value:.6f} ({t_red:.2f} s) max_gap={max(gaps):.1e} "
        f"reduced_vs_dense<={max(agree):.1e}",
    )


def _end_to_end_run(seed, trials=2000):
    graph = Graph.path(4)
    eps = tuple((1.0 - a) / 2.0 for a in TABLE1_A)
    state = apply_noise(graph, NoiseModel(eps))
    m_exact = expectations_from_populations(state.p)
    exact_a = np.array([m_exact[1 << i] for i in range(4)])
    rec = sample_record(state, graph, indices=[1 << i for i in range(4)],
                        shots=100_000, seed=seed)
    a, s = rec.generator_values()
    assert np.max(np.abs(a - TABLE1_A)) < 0.01
    data = GeneratorData(a, s)
    results = []
    for fn, exact in (
        (fidelity_min, fidelity_min(exact_a)),
        (purity_min, purity_min(exact_a)),
        (lambda x: robustness_min(x, 2), robustness_min(exact_a, 2)),
        (lambda x: rel_entropy_min(x, 2), rel_entropy_min(exact_a, 2)),
    ):
        mc = sv.propagate_errors(fn, data.a, data.sigma, trials=trials, seed=seed)
        results.append((fn(data.a), exact, mc["std"]))
    return results


def test_criterion_5_substituted_properties():
    # (a) end-to-end simulation: all four bounds within 3 MC sigmas of the
    # analytic values from the exact expectations, for 20 seeded runs
    worst = 0.0
    for seed in range(20):
        for got, exact, std in _end_to_end_run(seed):
            pull = abs(got - exact) / max(std, 1e-12)
            worst = max(worst, pull)
    a_ok = worst <= 3.0

    # (b) Walsh round-trip exhaustive at n <= 4 and fit convexity
    rt_err = 0.0
    for n in range(1, 5):
        dim = 1 << n
        for j in range(dim):
            p = np.zeros(dim)
            p[j] = 1.0
            rt_err = max(
                rt_err,
                float(np.max(np.abs(walsh_populations(expectations_from_populations(p)).p - p))),
            )
    conv_spread = 0.0
    rng = np.random.default_rng(123)
    for n in (2, 3, 4):
        graph = Graph.path(n)
        state = apply_noise(graph, NoiseModel.uniform(n, 0.06, depolarizing=0.08))
        rec = sample_record(state, graph, shots=3000, seed=n)
        objs = [
            fit_objective(rec, ml_fit(rec, start=rng.dirichlet(np.ones(1 << n))))
            for _ in range(5)
        ]
        conv_spread = max(conv_spread, max(objs) - min(objs))
    b_ok = rt_err <= 1e-12 and conv_spread <= 1e-8

    # (c) monotonicity and sign invariance on 1000 random inputs
    c_ok = True
    rng = np.random.default_rng(77)
    for _ in range(1000):
        n = int(rng.integers(2, 7))
        bs = int(rng.integers(1, n))
        a = rng.uniform(0, 1, n)
        i = int(rng.integers(0, n))
        b = a.copy()
        b[i] = min(1.0, a[i] + rng.uniform(0, 1.0 - a[i] + 1e-12))
        c_ok &= robustness_min(b, bs) >= robustness_min(a, bs) - 1e-12
        c_ok &= rel_entropy_min(b, bs) >= rel_entropy_min(a, bs) - 1e-12
        flips = rng.choice([-1.0, 1.0], n)
        c_ok &= abs(fidelity_min(a * flips) - fidelity_min(a)) < 1e-12
        c_ok &= abs(purity_min(a * flips) - purity_min(a)) < 1e-12
        c_ok &= abs(robustness_min(a * flips, bs) - robustness_min(a, bs)) < 1e-12
        c_ok &= abs(rel_entropy_min(a * flips, bs) - rel_entropy_min(a, bs)) < 1e-12

    # (d) product states with the generator marginals reproduce the
    # generator-only entropy bound exactly
    d_err = 0.0
    rng = np.random.default_rng(99)
    for _ in range(300):
        n = int(rng.integers(2, 7))
        bs = int(rng.integers(1, n))
        a = rng.uniform(0, 1, n)
        marg = (1.0 + a) / 2.0
        idx = np.arange(1 << n)
        p = np.ones(1 << n)
        for i in range(n):
            bit = (idx >> i) & 1
            p *= np.where(bit == 1, 1.0 - marg[i], marg[i])
        d_err = max(d_err, abs(er_lower_from_state(p, bs) - rel_entropy_min(a, bs)))
    d_ok = d_err <= 1e-10

    record_line(
        5,
        a_ok and b_ok and c_ok and d_ok,
        f"(a) worst pull={worst:.2f} sigma  (b) roundtrip<={rt_err:.1e} "
        f"convexity spread<={conv_spread:.1e}  (c) 1000 random inputs ok={bool(c_ok)}  "
        f"(d) product equality<={d_err:.1e}",
    )
