"""State reconstruction from stabilizer expectation values.

The 2^n stabilizer expectations m_k and the graph-basis populations p_i are
a Walsh-transform pair:

    p_i = 2^-n sum_k (-1)^{i.k} m_k        m_k = sum_i (-1)^{i.k} p_i

Raw populations from measured data may dip negative; ``ml_fit`` projects the
data onto the physical simplex by weighted least squares.

A record row names its stabilizer element either by the index string 'k' or
by the signed operator text 'pauli' in the record's frame.  Reading and
writing 'pauli' texts goes through ``pauli.StabilizerCodec``, which decodes
and encodes all rows in one O(rows * n) batch, so no record form builds the
2^n group and records of any n parse.
"""

from __future__ import annotations

import json
import sys
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from . import kernels
from .operators import shannon_entropy
from .pauli import Graph, LocalFrame, StabilizerCodec


class RecordFormatError(ValueError):
    """Malformed measurement-record content (carries a field diagnostic)."""


class MeasurementEntry(NamedTuple):
    value: float
    sigma: float
    shots: int | None = None


@dataclass(frozen=True)
class MeasurementRecord:
    """Stabilizer expectation data for one experiment.

    entries maps the stabilizer group index k (bit a-1 set = generator a in
    the product) to a measured expectation with uncertainty.
    """

    graph: Graph
    frame: LocalFrame
    entries: dict[int, MeasurementEntry]

    def __post_init__(self):
        dim = 1 << self.graph.n
        for k, e in self.entries.items():
            if not 0 <= k < dim:
                raise RecordFormatError(f"stabilizer index {k} outside [0, {dim})")
            if not -1.0 <= e.value <= 1.0:
                raise RecordFormatError(f"entry {k}: value {e.value} outside [-1, 1]")
            if e.sigma < 0:
                raise RecordFormatError(f"entry {k}: negative sigma {e.sigma}")
        if 0 in self.entries:
            e = self.entries[0]
            if abs(e.value - 1.0) > 1e-9 or e.sigma > 1e-9:
                raise RecordFormatError(
                    "identity entry (k=0) must have value 1 and sigma 0"
                )

    @property
    def n(self) -> int:
        return self.graph.n

    def has_full_group(self) -> bool:
        return len(self.entries.keys() - {0}) == (1 << self.n) - 1

    def has_generators(self) -> bool:
        return all((1 << a) in self.entries for a in range(self.n))

    def full_vector(self) -> np.ndarray:
        """(values, sigmas) over the whole group; requires the full group."""
        missing = (1 << self.n) - 1 - len(self.entries.keys() - {0})
        if missing:
            raise ValueError(
                f"full stabilizer group required; missing {missing} indices"
            )
        dim = 1 << self.n
        m = np.ones(dim)
        s = np.zeros(dim)
        k = np.fromiter(self.entries, np.int64, len(self.entries))
        m[k] = np.fromiter((e.value for e in self.entries.values()), np.float64, k.size)
        s[k] = np.fromiter((e.sigma for e in self.entries.values()), np.float64, k.size)
        return m, s

    def generator_values(self) -> tuple[np.ndarray, np.ndarray]:
        """(a, sigma) for the n single-generator entries."""
        if not self.has_generators():
            missing = [a + 1 for a in range(self.n) if (1 << a) not in self.entries]
            raise ValueError(f"generator entries missing for vertices {missing}")
        a = np.array([self.entries[1 << i].value for i in range(self.n)])
        s = np.array([self.entries[1 << i].sigma for i in range(self.n)])
        return a, s

    def measured_indices(self) -> list[int]:
        return sorted(self.entries)


@dataclass(frozen=True)
class RawPopulations:
    """Graph-basis populations as measured; entries may be negative."""

    p: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "p", np.asarray(self.p, dtype=float))

    @property
    def fidelity(self) -> float:
        return float(self.p[0])


@dataclass(frozen=True)
class GraphDiagonalState:
    """Physical graph-diagonal state: p >= 0, sum p = 1."""

    p: np.ndarray

    def __post_init__(self):
        p = np.asarray(self.p, dtype=float)
        if not np.isfinite(p).all():
            raise ValueError("populations must be finite numbers")
        if p.min() < -1e-10:
            raise ValueError(f"negative population {p.min():.3e}")
        if abs(p.sum() - 1.0) > 1e-10:
            raise ValueError(f"populations sum to {float(p.sum())!r}, not 1")
        object.__setattr__(self, "p", p)

    @property
    def fidelity(self) -> float:
        return float(self.p[0])

    def purity(self) -> float:
        return float(np.dot(self.p, self.p))

    def entropy(self) -> float:
        return shannon_entropy(self.p)


def state_p(state) -> np.ndarray:
    """Accept a GraphDiagonalState, RawPopulations, or bare array."""
    if isinstance(state, (GraphDiagonalState, RawPopulations)):
        return state.p
    return np.asarray(state, dtype=float)


def _check_pow2(v: np.ndarray) -> np.ndarray:
    if v.ndim != 1 or v.size & (v.size - 1) or v.size == 0:
        raise ValueError(f"expected a vector of length 2^n, got shape {v.shape}")
    return v


def walsh_populations(m: np.ndarray) -> RawPopulations:
    """Populations from a full 2^n expectation vector (m[0] must be 1)."""
    m = _check_pow2(np.asarray(m, dtype=float))
    if abs(m[0] - 1.0) > 1e-9:
        raise ValueError("expectation of the identity must be 1")
    return RawPopulations(kernels.fwht(m.astype(np.float64)) / m.size)


def expectations_from_populations(p) -> np.ndarray:
    """Forward Walsh transform; exact inverse of walsh_populations."""
    return kernels.fwht(_check_pow2(state_p(p)).astype(np.float64))


def raw_fidelity(record: MeasurementRecord) -> tuple[float, float]:
    """Average of all 2^n stabilizer expectations, with quadrature sigma."""
    m, s = record.full_vector()
    dim = m.size
    return float(m.sum() / dim), float(np.sqrt((s ** 2).sum()) / dim)


def raw_purity(m: np.ndarray) -> float:
    """Purity from the full expectation vector: 2^-n sum m_k^2 (Parseval)."""
    m = _check_pow2(np.asarray(m, dtype=float))
    if abs(m[0] - 1.0) > 1e-9:
        raise ValueError("expectation of the identity must be 1")
    return float((m ** 2).sum() / m.size)


def _fit_data(record: MeasurementRecord) -> tuple:
    """(k, value, weight) arrays of the non-identity entries, in index order.

    The weight is 1/sigma^2.  Where an entry has shots, its sigma is at least
    the binomial estimate and 1/shots: a sample mean of exactly +/-1 has zero
    binomial estimate but still an O(1/shots) true uncertainty.
    """
    entries = record.entries.values()
    k = np.fromiter(record.entries, np.int64, len(entries))
    value = np.fromiter((e.value for e in entries), np.float64, k.size)
    sigma = np.fromiter((e.sigma for e in entries), np.float64, k.size)
    shots = np.fromiter((e.shots or np.nan for e in entries), np.float64, k.size)
    # fmax skips the NaN floors of entries without shots
    sigma = np.fmax(sigma, np.fmax(np.sqrt(np.maximum(1.0 - value ** 2, 0.0) / shots),
                                   1.0 / shots))
    order = np.argsort(k)
    order = order[k[order] != 0]
    k, value, sigma = k[order], value[order], sigma[order]
    if (sigma <= 0).any():
        raise ValueError(f"entry {k[np.argmax(sigma <= 0)]} needs a positive sigma "
                         "(or shots) for the fit")
    return k, value, 1.0 / sigma ** 2


ML_MAX_ITER = 1_000_000  # cap on ml_fit's FISTA iterations
ML_TOL = 1e-9            # ml_fit's KKT-residual target


def ml_fit(record: MeasurementRecord, start: np.ndarray | None = None) -> GraphDiagonalState:
    """Max-likelihood graph-diagonal state: weighted least squares on the simplex.

    Minimizes sum_k w_k (<S_k>_p - value_k)^2 with w_k = 1/sigma_k^2 over
    physical populations p, by accelerated projected gradient (``kernels.pg_fit``:
    FISTA with adaptive restart, step 1/L from the gradient's exact Lipschitz
    constant L).  The identity entry is exact for any p and is skipped.
    Deterministic for the default uniform start.
    """
    if not record.entries:
        raise ValueError("empty measurement record")
    k, values, weights = _fit_data(record)
    if not k.size:
        raise ValueError("record has no non-identity entries")
    dim = 1 << record.n
    p0 = np.full(dim, 1.0 / dim) if start is None else np.asarray(start, dtype=float)
    p, kkt, _ = kernels.pg_fit(k, values, weights, p0.astype(np.float64), ML_MAX_ITER, ML_TOL)
    if kkt > ML_TOL:
        raise RuntimeError(f"fit did not reach the target residual ({kkt:.2e})")
    return GraphDiagonalState(p)


def fit_objective(record: MeasurementRecord, p) -> float:
    """The weighted least-squares objective at populations p (normalized weights)."""
    k, values, weights = _fit_data(record)
    m = expectations_from_populations(state_p(p))
    return float(np.dot(weights, (m[k] - values) ** 2) / weights.sum())


# ----------------------------------------------------------------------
# JSON documents (formats in README.md); every one is read here.


def _read_header(d, read_body) -> tuple:
    """(graph, frame, body) of a record or state document.

    An absent or null frame is the identity, which is built qubit by qubit,
    so ``read_body(d, n)`` first reads the body and checks it against the
    declared qubit count: a declared n must not cost more than the document.
    """
    if not isinstance(d, dict):
        raise RecordFormatError(f"a document must be a JSON object, got {type(d).__name__}")
    graph = Graph.from_json_dict(d.get("graph"))
    frame = None
    if d.get("frame") is not None:
        frame = LocalFrame.from_json_list(d["frame"])
        if frame.n != graph.n:
            raise RecordFormatError(f"'frame' lists {frame.n} qubits, the graph has {graph.n}")
    body = read_body(d, graph.n)
    return graph, frame or LocalFrame.identity(graph.n), body


# JSON number types by exact type, which leaves out bool (an int subclass)
_JSON_NUMBER = {float: (int, float), int: (int,)}
_MAX_DOUBLE = sys.float_info.max


def _number_error(i: int, key: str, v, kind=float) -> RecordFormatError:
    expected = "an integer" if kind is int else "a finite number"
    return RecordFormatError(f"measurements[{i}]: '{key}' must be {expected}, got {v!r}")


def _read_rows(d: dict, n: int) -> tuple:
    """(keys, entries, at) of the measurement rows, checked and built in one pass;
    the key of each row listed in ``at`` is still its 'pauli' text.  Numbers are
    never coerced: 'value', 'sigma' and 'shots' must be finite JSON numbers."""
    rows = d.get("measurements")
    if not isinstance(rows, list) or not rows:
        raise RecordFormatError("'measurements' must be a nonempty list of rows")
    keys, entries, at = [], [], []
    number = _JSON_NUMBER[float]
    for i, row in enumerate(rows):
        if not isinstance(row, dict):
            raise RecordFormatError(f"measurements[{i}]: must be an object")
        if "value" not in row:
            raise RecordFormatError(f"measurements[{i}]: missing 'value'")
        key = "k" if "k" in row else "pauli" if "pauli" in row else None
        if key is None:
            raise RecordFormatError(f"measurements[{i}]: need either 'k' or 'pauli'")
        k = row[key]
        if not isinstance(k, str):
            raise RecordFormatError(f"measurements[{i}]: '{key}' must be a string, got {k!r}")
        if key == "k":
            if len(k) != n or not set(k) <= {"0", "1"}:
                raise RecordFormatError(
                    f"measurements[{i}]: bad stabilizer index string {k!r} for n={n}")
            k = int(k[::-1], 2)  # character a is bit a
        else:
            k = k.strip().upper()
            if len(k) < n:
                raise RecordFormatError(
                    f"measurements[{i}]: operator {k!r} has fewer than {n} qubits")
            at.append(i)
        shots = row.get("shots")
        if "shots" in row:
            if type(shots) is not int or not -_MAX_DOUBLE <= shots <= _MAX_DOUBLE:
                raise _number_error(i, "shots", shots, int)
            if shots < 1:
                raise RecordFormatError(
                    f"measurements[{i}]: 'shots' must be at least 1, got {shots!r}")
        value = row["value"]
        if type(value) not in number or not -_MAX_DOUBLE <= value <= _MAX_DOUBLE:
            raise _number_error(i, "value", value)
        sigma = row.get("sigma", 0.0)
        if type(sigma) not in number or not -_MAX_DOUBLE <= sigma <= _MAX_DOUBLE:
            raise _number_error(i, "sigma", sigma)
        keys.append(k)
        entries.append(MeasurementEntry(float(value), float(sigma), shots))
    return keys, entries, at


def record_from_json_dict(d: dict) -> MeasurementRecord:
    graph, frame, (keys, rows, at) = _read_header(d, _read_rows)
    # 'pauli' texts are decoded in one batch; a non-member keeps its text as key
    decoded = StabilizerCodec(graph, frame).decode([keys[i] for i in at]) if at else []
    for i, k in zip(at, decoded):
        if k is not None:
            keys[i] = k
    entries = dict(zip(keys, rows))
    if None in decoded or len(entries) < len(keys):  # name the first bad row
        seen = set()
        for i, k in enumerate(keys):
            if isinstance(k, str):
                raise RecordFormatError(
                    f"measurements[{i}]: operator {k!r} is not a stabilizer element "
                    "of this graph and frame (check the sign)")
            if k in seen:
                raise RecordFormatError(f"measurements[{i}]: duplicate stabilizer index {k}")
            seen.add(k)
    return MeasurementRecord(graph=graph, frame=frame, entries=entries)


def _read_populations(d: dict, n: int) -> GraphDiagonalState:
    """'p', the 2^n graph-basis populations; 2^n is not formed, as n may be huge."""
    p = d["p"]
    if not isinstance(p, list) or not all(
            type(v) in _JSON_NUMBER[float] and -_MAX_DOUBLE <= v <= _MAX_DOUBLE for v in p):
        raise RecordFormatError("'p' must be a list of finite numbers")
    if len(p) & (len(p) - 1) or len(p).bit_length() != n + 1:
        raise RecordFormatError(f"'p' must list 2^{n} populations, got {len(p)}")
    return GraphDiagonalState(np.array(p, dtype=float))


def state_from_json_dict(d: dict) -> tuple[Graph, LocalFrame, GraphDiagonalState]:
    """(graph, frame, state) of a state document."""
    return _read_header(d, _read_populations)


def record_to_json_dict(record: MeasurementRecord) -> dict:
    ks = record.measured_indices()
    paulis = StabilizerCodec(record.graph, record.frame).encode(ks)
    rows = []
    for k, pauli in zip(ks, paulis):
        e = record.entries[k]
        row = {
            "k": format(k, f"0{record.n}b")[::-1],  # character a is bit a
            "pauli": pauli,
            "value": e.value,
            "sigma": e.sigma,
        }
        if e.shots is not None:
            row["shots"] = e.shots
        rows.append(row)
    return {
        "graph": record.graph.to_json_dict(),
        "frame": record.frame.to_json_list(),
        "measurements": rows,
    }


def _load_json(path):
    with open(path) as fh:
        try:
            return json.load(fh)
        except (json.JSONDecodeError, RecursionError) as exc:  # or nested beyond the parser
            raise RecordFormatError(f"{path}: invalid JSON ({exc})") from None


def load_record(path) -> MeasurementRecord:
    return record_from_json_dict(_load_json(path))


def load_record_or_state(path):
    """The record in a file, or (graph, frame, state) for a state document (one with 'p')."""
    d = _load_json(path)
    return state_from_json_dict(d) if isinstance(d, dict) and "p" in d else record_from_json_dict(d)


def save_record(record: MeasurementRecord, path):
    with open(path, "w") as fh:
        json.dump(record_to_json_dict(record), fh, indent=1)
        fh.write("\n")
