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

import numpy as np

from . import kernels
from .operators import shannon_entropy
from .pauli import Graph, LocalFrame, StabilizerCodec


class RecordFormatError(ValueError):
    """Malformed measurement-record content (carries a field diagnostic)."""


@dataclass(frozen=True)
class MeasurementEntry:
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
        for k, e in self.entries.items():
            m[k] = e.value
            s[k] = e.sigma
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


def _entry_sigma(e: MeasurementEntry) -> float:
    """Uncertainty used for fit weights.

    A sample mean of exactly +/-1 has zero binomial estimate but still an
    O(1/shots) true uncertainty, so shots-derived sigmas are floored there.
    """
    sigma = e.sigma
    if e.shots:
        derived = float(np.sqrt(max(1.0 - e.value ** 2, 0.0) / e.shots))
        sigma = max(sigma, derived, 1.0 / e.shots)
    return sigma


ML_MAX_ITER = 1_000_000  # cap on ml_fit's projected-gradient iterations
ML_TOL = 1e-9            # ml_fit's KKT-residual target


def ml_fit(record: MeasurementRecord, start: np.ndarray | None = None) -> GraphDiagonalState:
    """Max-likelihood graph-diagonal state: weighted least squares on the simplex.

    Minimizes sum_k w_k (<S_k>_p - value_k)^2 with w_k = 1/sigma_k^2 over
    physical populations p, by projected gradient with a fixed step from the
    gradient's exact Lipschitz constant.  The identity entry is exact for any
    p and is skipped.  Deterministic for the default uniform start.
    """
    if not record.entries:
        raise ValueError("empty measurement record")
    dim = 1 << record.n
    idx = []
    vals = []
    wts = []
    for k in record.measured_indices():
        if k == 0:
            continue
        e = record.entries[k]
        sigma = _entry_sigma(e)
        if sigma <= 0:
            raise ValueError(
                f"entry {k} needs a positive sigma (or shots) for the fit"
            )
        idx.append(k)
        vals.append(e.value)
        wts.append(1.0 / sigma ** 2)
    if not idx:
        raise ValueError("record has no non-identity entries")
    p0 = np.full(dim, 1.0 / dim) if start is None else np.asarray(start, dtype=float)
    p, kkt, _ = kernels.pg_fit(
        np.asarray(idx, dtype=np.int64),
        np.asarray(vals, dtype=np.float64),
        np.asarray(wts, dtype=np.float64),
        p0.astype(np.float64),
        ML_MAX_ITER,
        ML_TOL,
    )
    if kkt > ML_TOL:
        raise RuntimeError(f"fit did not reach the target residual ({kkt:.2e})")
    return GraphDiagonalState(p)


def fit_objective(record: MeasurementRecord, p) -> float:
    """The weighted least-squares objective at populations p (normalized weights)."""
    p = state_p(p)
    m = expectations_from_populations(p)
    num = 0.0
    wsum = 0.0
    for k, e in record.entries.items():
        if k == 0:
            continue
        w = 1.0 / _entry_sigma(e) ** 2
        num += w * (m[k] - e.value) ** 2
        wsum += w
    return num / wsum


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


def _row_number(row: dict, key: str, where: str, kind=float):
    """row[key] as a finite float, or as an int for kind=int; nothing is coerced."""
    v = row[key]
    if type(v) not in _JSON_NUMBER[kind] or not -_MAX_DOUBLE <= v <= _MAX_DOUBLE:
        expected = "an integer" if kind is int else "a finite number"
        raise RecordFormatError(f"{where}: '{key}' must be {expected}, got {v!r}")
    return kind(v)


def _read_rows(d: dict, n: int) -> list:
    """(k, entry) for each measurement row; k is still the text of a 'pauli' row."""
    rows = d.get("measurements")
    if not isinstance(rows, list) or not rows:
        raise RecordFormatError("'measurements' must be a nonempty list of rows")
    out = []
    for i, row in enumerate(rows):
        where = f"measurements[{i}]"
        if not isinstance(row, dict):
            raise RecordFormatError(f"{where}: must be an object")
        if "value" not in row:
            raise RecordFormatError(f"{where}: missing 'value'")
        key = "k" if "k" in row else "pauli" if "pauli" in row else None
        if key is None:
            raise RecordFormatError(f"{where}: need either 'k' or 'pauli'")
        k = row[key]
        if not isinstance(k, str):
            raise RecordFormatError(f"{where}: '{key}' must be a string, got {k!r}")
        if key == "k":
            if len(k) != n or not set(k) <= {"0", "1"}:
                raise RecordFormatError(f"{where}: bad stabilizer index string {k!r} for n={n}")
            k = int(k[::-1], 2)  # character a is bit a
        else:
            k = k.strip().upper()
            if len(k) < n:
                raise RecordFormatError(f"{where}: operator {k!r} has fewer than {n} qubits")
        shots = _row_number(row, "shots", where, int) if "shots" in row else None
        if shots is not None and shots < 1:
            raise RecordFormatError(f"{where}: 'shots' must be at least 1, got {shots!r}")
        out.append((k, MeasurementEntry(
            value=_row_number(row, "value", where),
            sigma=_row_number(row, "sigma", where) if "sigma" in row else 0.0,
            shots=shots,
        )))
    return out


def record_from_json_dict(d: dict) -> MeasurementRecord:
    graph, frame, rows = _read_header(d, _read_rows)
    # 'pauli' texts are decoded in one batch
    texts = [k for k, _ in rows if isinstance(k, str)]
    decoded = iter(zip(texts, StabilizerCodec(graph, frame).decode(texts)) if texts else ())
    entries = {}
    for i, (k, entry) in enumerate(rows):
        if isinstance(k, str):
            text, k = next(decoded)
            if k is None:
                raise RecordFormatError(
                    f"measurements[{i}]: operator {text!r} is not a stabilizer element "
                    "of this graph and frame (check the sign)")
        if k in entries:
            raise RecordFormatError(f"measurements[{i}]: duplicate stabilizer index {k}")
        entries[k] = entry
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
