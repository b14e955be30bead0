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
import math
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


def ml_fit(
    record: MeasurementRecord,
    start: np.ndarray | None = None,
    max_iter: int = 1_000_000,
    tol: float = 1e-9,
) -> GraphDiagonalState:
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
        max_iter,
        tol,
    )
    if kkt > tol:
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
# JSON serialization.
# {"graph": {...}, "frame": [...], "measurements": [
#    {"k": "0101", "value": ..., "sigma": ..., "shots": ...} |
#    {"pauli": "-XXZI", "value": ..., ...}]}


def _index_from_kstring(ks: str, n: int) -> int:
    if len(ks) != n or not set(ks) <= {"0", "1"}:
        raise RecordFormatError(f"bad stabilizer index string {ks!r} for n={n}")
    return int(ks[::-1], 2)  # character a is bit a


def _kstring_from_index(k: int, n: int) -> str:
    return "".join("1" if (k >> a) & 1 else "0" for a in range(n))


def _row_number(row: dict, key: str, where: str, convert=float):
    try:
        out = convert(row[key])
    except (TypeError, ValueError, OverflowError):
        out = math.nan
    if not math.isfinite(out):
        raise RecordFormatError(f"{where}: '{key}' must be a finite number, got {row[key]!r}")
    return out


def record_from_json_dict(d: dict) -> MeasurementRecord:
    if not isinstance(d, dict):
        raise RecordFormatError(
            f"a record must be a JSON object, got {type(d).__name__}"
        )
    try:
        graph = Graph.from_json_dict(d["graph"])
        frame = LocalFrame.from_json_list(d["frame"]) if d.get("frame") else LocalFrame.identity(graph.n)
        rows = d["measurements"]
    except KeyError as exc:
        raise RecordFormatError(f"missing top-level field {exc}") from None
    if not isinstance(rows, list):
        raise RecordFormatError("'measurements' must be a list")
    # 'pauli' texts are decoded in one batch up front; errors are still raised
    # in row order below
    texts = {i: str(row["pauli"]).strip().upper() for i, row in enumerate(rows)
             if isinstance(row, dict) and "pauli" in row and "k" not in row}
    decoded = {}
    if texts:
        decoded = dict(zip(texts, StabilizerCodec(graph, frame).decode(texts.values())))
    entries = {}
    for i, row in enumerate(rows):
        where = f"measurements[{i}]"
        if not isinstance(row, dict):
            raise RecordFormatError(f"{where}: must be an object")
        if "value" not in row:
            raise RecordFormatError(f"{where}: missing 'value'")
        if "k" in row:
            k = _index_from_kstring(str(row["k"]), graph.n)
        elif "pauli" in row:
            if not texts[i]:
                raise RecordFormatError(f"{where}: empty 'pauli' string")
            k = decoded[i]
            if k is None:
                raise RecordFormatError(
                    f"{where}: operator {texts[i]!r} is not a stabilizer element "
                    "of this graph and frame (check the sign)"
                )
        else:
            raise RecordFormatError(f"{where}: need either 'k' or 'pauli'")
        if k in entries:
            raise RecordFormatError(f"{where}: duplicate stabilizer index {k}")
        shots = _row_number(row, "shots", where, int) if "shots" in row else None
        if shots is not None and shots < 1:
            raise RecordFormatError(f"{where}: 'shots' must be at least 1, got {row['shots']!r}")
        entries[k] = MeasurementEntry(
            value=_row_number(row, "value", where),
            sigma=_row_number(row, "sigma", where) if "sigma" in row else 0.0,
            shots=shots,
        )
    return MeasurementRecord(graph=graph, frame=frame, entries=entries)


def record_to_json_dict(record: MeasurementRecord) -> dict:
    ks = record.measured_indices()
    paulis = StabilizerCodec(record.graph, record.frame).encode(ks)
    rows = []
    for k, pauli in zip(ks, paulis):
        e = record.entries[k]
        row = {
            "k": _kstring_from_index(k, record.n),
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


def load_record(path) -> MeasurementRecord:
    with open(path) as fh:
        try:
            data = json.load(fh)
        except json.JSONDecodeError as exc:
            raise RecordFormatError(f"{path}: invalid JSON ({exc})") from None
    return record_from_json_dict(data)


def save_record(record: MeasurementRecord, path):
    with open(path, "w") as fh:
        json.dump(record_to_json_dict(record), fh, indent=1)
        fh.write("\n")
