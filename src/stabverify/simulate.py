"""Synthetic measurement records: graph-diagonal noise plus finite-shot sampling."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .pauli import Graph, LocalFrame
from .reconstruct import (
    GraphDiagonalState,
    MeasurementRecord,
    expectations_from_populations,
    state_p,
)


@dataclass(frozen=True)
class NoiseModel:
    """Independent graph-basis bit flips per qubit plus optional depolarizing.

    eps_z[q-1] is the flip probability of graph-basis bit q (local dephasing
    in the frame where the state is graph-diagonal); depolarizing mixes in
    the maximally mixed state with weight w.
    """

    eps_z: tuple
    depolarizing: float = 0.0

    def __post_init__(self):
        eps = tuple(float(e) for e in self.eps_z)
        if any(not 0.0 <= e <= 0.5 for e in eps):
            raise ValueError("flip probabilities must lie in [0, 1/2]")
        if not 0.0 <= self.depolarizing <= 1.0:
            raise ValueError("depolarizing weight must lie in [0, 1]")
        object.__setattr__(self, "eps_z", eps)

    @classmethod
    def uniform(cls, n: int, eps: float, depolarizing: float = 0.0) -> "NoiseModel":
        return cls(tuple([eps] * n), depolarizing)


def apply_noise(graph: Graph, model: NoiseModel) -> GraphDiagonalState:
    """Populations of the noisy state: product of per-bit flips, then mixing."""
    n = graph.n
    if len(model.eps_z) != n:
        raise ValueError(f"noise model has {len(model.eps_z)} qubits, graph has {n}")
    dim = 1 << n
    idx = np.arange(dim)
    p = np.ones(dim)
    for q in range(1, n + 1):
        e = model.eps_z[q - 1]
        bit = (idx >> (q - 1)) & 1
        p *= np.where(bit == 1, e, 1.0 - e)
    w = model.depolarizing
    p = (1.0 - w) * p + w / dim
    return GraphDiagonalState(p)


def exact_expectations(state) -> np.ndarray:
    """Noise-free stabilizer expectations m_k of a graph-diagonal state."""
    return expectations_from_populations(state_p(state))


def sample_record(
    state,
    graph: Graph,
    frame: LocalFrame | None = None,
    indices=None,
    shots: int = 10_000,
    seed: int = 0,
) -> MeasurementRecord:
    """Finite-shot record: each index draws `shots` +/-1 outcomes.

    P(+1) = (1 + m_k)/2 with m_k the exact expectation; the stored value is
    the sample mean and sigma = sqrt((1 - value^2)/shots).  Deterministic
    for a fixed seed (indices are sampled in sorted order).
    """
    if shots < 1:
        raise ValueError("need at least one shot")
    p = state_p(state)
    n = graph.n
    frame = frame or LocalFrame.identity(n)
    m = expectations_from_populations(p)
    if indices is None:
        indices = range(1, 1 << n)
    ks = np.array(sorted(set(int(k) for k in indices)), dtype=np.int64)
    drawn = ks != 0  # the identity row is exactly 1 and takes no draw
    value = np.ones(ks.size)
    prob = np.clip((1.0 + m[ks[drawn]]) / 2.0, 0.0, 1.0)
    value[drawn] = (2.0 * np.random.default_rng(seed).binomial(shots, prob) - shots) / shots
    sigma = np.sqrt(np.maximum(1.0 - value ** 2, 0.0) / shots)
    return MeasurementRecord.from_columns(graph, frame, ks, value, sigma,
                                          np.full(ks.size, shots, dtype=np.int64))


def generator_indices(n: int) -> list[int]:
    return [1 << a for a in range(n)]
