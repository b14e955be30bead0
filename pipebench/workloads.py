"""Seeded inputs, operations and output checks of the benchmark's workloads.

``build(workload, seed, directory)`` writes the workload's input files with
``stabverify.simulate`` and returns its operations, one CLI invocation each.
Every operation carries the reference values its output is checked against;
``check(op, doc)`` lists the problems found in one parsed JSON report.

The seed changes noise levels and shot samples, never problem sizes, so runs
with different seeds do the same amount of work.  The reasons for each
workload are in README.md next to this file.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from stabverify.pauli import Graph, LocalFrame
from stabverify.presets import FRAME_PAPER4, GRAPH_PAPER4
from stabverify.reconstruct import record_to_json_dict, save_record
from stabverify.sdp import symmetry_reduced_robustness
from stabverify.simulate import NoiseModel, apply_noise, generator_indices, sample_record

WORKLOADS = ("generator_only", "full_group_ml", "reduced_sdp", "dense_sdp")
BOUND_NAMES = ("f_min", "p_min", "rg_min", "lrg_min", "er_min")

# Generator bounds of the bundled datasets as pinned in tests/test_acceptance.py
# and tests/test_cli.py: name -> (expected value, allowed deviation).
PINNED = {
    "table1.json": {"f_min": (0.8455, 5e-4), "p_min": (0.715, 5e-3), "rg_min": (2.382, 5e-3),
                    "lrg_min": (1.7585, 1.5e-3), "er_min": (1.120, 2e-3)},
    "table2.json": {"f_min": (0.5445, 5e-4), "p_min": (0.297, 5e-3), "rg_min": (3.356, 1e-2),
                    "er_min": (1.013, 2e-3)},
}

# Problem sizes (qubits).  Full-group records repeat each size because the
# ML fit's iteration count varies with the sampled data; "tiny" is for the
# benchmark's self-test only.
SIZES = {
    "full": {"generator_only": (10, 11, 12, 13, 14),
             "full_group_ml": tuple(n for n in range(8, 13) for _ in range(3)),
             "reduced_sdp": 6, "dense_sdp": 4},
    "tiny": {"generator_only": (4, 5), "full_group_ml": (3, 4),
             "reduced_sdp": 3, "dense_sdp": 2},
}
# Noise levels (graph-basis flip probability) of the SDP workloads' states.
REDUCED_LEVELS = (0.03, 0.04, 0.05, 0.06, 0.07, 0.08, 0.09)
DENSE_LEVELS = (0.02, 0.035, 0.05, 0.065, 0.08)
# Certificate checks of every SDP report, fixed here so that they cannot move
# with the program's own constants.
GAP_BOUND = 1e-6             # duality_gap <= GAP_BOUND * (1 + |value|)
PSD_FLOOR = -1e-8            # smallest allowed sigma / partial-transpose eigenvalue
ML_FIDELITY_TOL = 0.02       # ML fidelity vs the simulated state; shot noise is ~1e-3
DENSE_VS_REDUCED_TOL = 1e-5  # as in acceptance criterion 4
CLUSTER_TOL = 1e-4           # as in acceptance criterion 4


@dataclass
class Op:
    """One CLI invocation and the references its JSON report must match."""

    label: str
    argv: list
    kind: str                       # "bounds" or "sdp"
    ref: dict = field(default_factory=dict)


# ----------------------------------------------------------------------
# Reference values, computed here independently of stabverify.bounds.


def closed_form_bounds(a, b_size: int) -> dict:
    """The paper's generator-only bounds from expectations a and |B|."""
    a = np.minimum(np.abs(np.asarray(a, dtype=float)), 1.0)
    n = a.size
    excess = (a.sum() - n + 2.0) / 2.0
    f = max(0.0, excess)
    rg = max(0.0, 2.0 ** b_size * excess - 1.0)
    q = (1.0 + a) / 2.0
    h = sum(-x * math.log2(x) - (1 - x) * math.log2(1 - x) for x in q if 0.0 < x < 1.0)
    f0 = max(f, 2.0 ** -n)
    return {"f_min": f, "p_min": f0 ** 2 + (1.0 - f0) ** 2 / (2 ** n - 1),
            "rg_min": rg, "lrg_min": math.log2(1.0 + rg), "er_min": max(0.0, b_size - h)}


def _exact(values: dict) -> dict:
    return {k: (v, 1e-9 * (1.0 + abs(v))) for k, v in values.items()}


# ----------------------------------------------------------------------
# Input generation.


def _noisy(graph: Graph, rng, eps_lo, eps_hi, w_lo, w_hi):
    eps = tuple(float(e) for e in rng.uniform(eps_lo, eps_hi, graph.n))
    return apply_noise(graph, NoiseModel(eps, float(rng.uniform(w_lo, w_hi))))


def _generator_only(rng, directory: Path, scale: str):
    trials = ["--trials", "1000"] if scale == "tiny" else []  # else the default 10 000
    ops = [Op(name.split(".")[0], ["analyze", name, "--format", "json", *trials], "bounds",
              {"bounds": PINNED[name], "full_group": False})
           for name in ("table1.json", "table2.json")]
    for n in SIZES[scale]["generator_only"]:
        graph = Graph.path(n)
        rec = sample_record(_noisy(graph, rng, 0.005, 0.04, 0.0, 0.02), graph,
                            indices=generator_indices(n), shots=10_000,
                            seed=int(rng.integers(2 ** 31)))
        path = directory / f"generators_path{n}.json"
        save_record(rec, path)
        a = [rec.entries[1 << i].value for i in range(n)]
        ops.append(Op(f"path{n}", ["analyze", str(path), "--format", "json", *trials], "bounds",
                      {"bounds": _exact(closed_form_bounds(a, n // 2)), "full_group": False}))
    return ops


def _full_group_ml(rng, directory: Path, scale: str):
    ops = []
    for j, n in enumerate(SIZES[scale]["full_group_ml"]):
        graph = Graph.path(n)
        state = _noisy(graph, rng, 0.01, 0.05, 0.01, 0.03)
        rec = sample_record(state, graph, shots=2000, seed=int(rng.integers(2 ** 31)))
        doc = record_to_json_dict(rec)
        for row in doc["measurements"]:
            del row["k"]  # rows keyed by operator string only
        path = directory / f"full_path{n}_{j}.json"
        path.write_text(json.dumps(doc))
        m = np.ones(1 << n)
        for k, e in rec.entries.items():
            m[k] = e.value
        a = [rec.entries[1 << i].value for i in range(n)]
        ops.append(Op(f"path{n}_{j}", ["analyze", str(path), "--trials", "1000", "--format", "json"],
                      "bounds", {
                          "bounds": _exact(closed_form_bounds(a, n // 2)),
                          "full_group": True,
                          "raw_fidelity": float(m.mean()),
                          "raw_purity": float((m ** 2).mean()),
                          "fidelity": float(state.p[0]),
                          "b_size": n // 2,
                      }))
    return ops


def _reduced_sdp(rng, directory: Path, scale: str):
    n = SIZES[scale]["reduced_sdp"]
    graph = Graph.path(n)
    ops = []
    for z in REDUCED_LEVELS:
        state = _noisy(graph, rng, z - 0.005, z + 0.005, 0.015, 0.025)
        rec = sample_record(state, graph, shots=5000, seed=int(rng.integers(2 ** 31)))
        path = directory / f"noisy_z{z:.3f}.json"
        save_record(rec, path)
        ops.append(Op(f"z{z:.3f}", ["robustness", str(path), "--partitions", "all",
                                    "--format", "json"], "sdp",
                      {"method": "reduced", "cuts": 2 ** (n - 1) - 1, "entangled": True}))
    return ops


def _dense_sdp(rng, directory: Path, scale: str):
    n = SIZES[scale]["dense_sdp"]
    # the paper's 4-qubit cluster, or a plain path at the self-test size
    graph, frame = (GRAPH_PAPER4, FRAME_PAPER4) if n == 4 else (Graph.path(n), LocalFrame.identity(n))
    cuts = 2 ** (n - 1) - 1
    pure = np.zeros(1 << n)
    pure[0] = 1.0
    states = [("pure", pure, {"value": (2.0 ** (n // 2) - 1.0, CLUSTER_TOL)})]
    for z in DENSE_LEVELS:
        p = _noisy(graph, rng, z - 0.005, z + 0.005, 0.015, 0.025).p
        reduced = symmetry_reduced_robustness(p, graph, frame).value
        states.append((f"z{z:.3f}", p, {"value": (reduced, DENSE_VS_REDUCED_TOL)}))
    ops = []
    for label, p, ref in states:
        path = directory / f"state_{label}.json"
        path.write_text(json.dumps({"graph": graph.to_json_dict(),
                                    "frame": frame.to_json_list(), "p": p.tolist()}))
        ops.append(Op(label, ["robustness", str(path), "--method", "dense", "--format", "json"],
                      "sdp", {"method": "dense", "cuts": cuts, **ref}))
    return ops


_BUILDERS = {"generator_only": _generator_only, "full_group_ml": _full_group_ml,
             "reduced_sdp": _reduced_sdp, "dense_sdp": _dense_sdp}


def build(workload: str, seed: int, directory: Path, scale: str = "full") -> list[Op]:
    """Write the workload's inputs for this seed and return its operations."""
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    rng = np.random.default_rng([seed, WORKLOADS.index(workload)])
    return _BUILDERS[workload](rng, directory, scale)


# ----------------------------------------------------------------------
# Output checks.


def _near(problems, what, got, want, tol):
    if not abs(got - want) <= tol:
        problems.append(f"{what} = {got!r}, expected {want!r} +/- {tol:g}")


def _check_bounds(ref: dict, doc: dict, problems: list):
    if doc["input"]["full_group"] is not ref["full_group"]:
        problems.append(f"input.full_group is {doc['input']['full_group']}")
    gb = doc["generator_bounds"]
    if sorted(gb) != sorted(BOUND_NAMES):
        problems.append(f"generator_bounds has {sorted(gb)}")
    for name, leaf in gb.items():
        if not leaf["sigma"] >= 0.0:
            problems.append(f"{name}.sigma = {leaf['sigma']!r}")
    for name, (want, tol) in ref["bounds"].items():
        _near(problems, name, gb[name]["value"], want, tol)
    if not ref["full_group"]:
        return
    raw, ml = doc["raw"], doc["ml"]
    _near(problems, "raw.fidelity", raw["fidelity"]["value"], ref["raw_fidelity"], 1e-12)
    _near(problems, "raw.purity", raw["purity"]["value"], ref["raw_purity"], 1e-12)
    f, purity, entropy = ml["fidelity"]["value"], ml["purity"]["value"], ml["entropy"]["value"]
    _near(problems, "ml.fidelity", f, ref["fidelity"], ML_FIDELITY_TOL)
    if not f * f - 1e-12 <= purity <= 1.0 + 1e-12:
        problems.append(f"ml.purity {purity!r} outside [fidelity^2, 1]")
    if not entropy >= 0.0:
        problems.append(f"ml.entropy = {entropy!r}")
    _near(problems, "ml.er_lower", ml["er_lower"]["value"],
          max(0.0, ref["b_size"] - entropy), 1e-9)


def _check_sdp(ref: dict, doc: dict, problems: list):
    sdp = doc["sdp"]
    if "error" in sdp:
        problems.append(f"sdp error: {sdp['error']}")
        return
    value = sdp["value"]["value"]
    if sdp["method"] != ref["method"]:
        problems.append(f"method {sdp['method']!r}")
    if len(sdp["partitions"]) != ref["cuts"]:
        problems.append(f"{len(sdp['partitions'])} cuts solved, expected {ref['cuts']}")
    if not sdp["duality_gap"] <= GAP_BOUND * (1.0 + abs(value)):
        problems.append(f"duality gap {sdp['duality_gap']!r} at value {value!r}")
    eigs = [sdp["sigma_min_eig"], *sdp["partial_transpose_min_eigs"].values()]
    if not min(eigs) >= PSD_FLOOR:
        problems.append(f"min eigenvalue {min(eigs)!r} below {PSD_FLOOR}")
    if ref.get("entangled") and not value > 0.0:
        problems.append(f"robustness {value!r} of an entangled state")
    if "value" in ref:
        _near(problems, "robustness", value, *ref["value"])


def check(op: Op, doc: dict) -> list[str]:
    """Problems with one operation's parsed report (empty when correct)."""
    problems = []
    try:
        (_check_bounds if op.kind == "bounds" else _check_sdp)(op.ref, doc, problems)
    except (KeyError, TypeError, AttributeError) as exc:
        problems.append(f"report lacks an expected field ({exc!r})")
    return problems
