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
2^n group and records of any n parse.  A record is held as columns (k, value,
sigma, shots), and a document's rows are read and checked a field at a time,
one column each.  A document that fails a column check is checked again
row by row, which names its first bad row.
"""

from __future__ import annotations

import json
import logging
import sys
from dataclasses import dataclass
from itertools import repeat
from types import MappingProxyType
from typing import Mapping, NamedTuple

import numpy as np

from . import kernels
from .operators import shannon_entropy
from .pauli import INT64_INDEX_QUBITS, Graph, LocalFrame, StabilizerCodec, index_column

_log = logging.getLogger("stabverify")  # no handler here: the application configures it


class RecordFormatError(ValueError):
    """Malformed measurement-record content (carries a field diagnostic)."""


class MeasurementEntry(NamedTuple):
    value: float
    sigma: float
    shots: int | None = None


def _int_column(ints) -> np.ndarray:
    """int64 array of Python ints, or an object array where one is beyond int64."""
    try:
        return np.array(ints, dtype=np.int64)
    except OverflowError:
        return np.array(ints, dtype=object)


def _first_repeat(k: np.ndarray) -> int | None:
    """Row of the first index that an earlier row already holds, or None."""
    if k.size < 2 or np.asarray(k[1:] > k[:-1], dtype=bool).all():
        return None
    order = np.argsort(k, kind="stable")  # equal indices keep their row order
    ordered = k[order]
    later = order[1:][np.asarray(ordered[1:] == ordered[:-1], dtype=bool)]
    return int(later.min()) if later.size else None


class MeasurementRecord:
    """Stabilizer expectation data for one experiment, held as four columns.

    Row i measured the stabilizer group element k[i] (bit a-1 set = generator
    a in the product) with expectation value[i] and uncertainty sigma[i] over
    shots[i] shots, 0 where the row gives no count.  k is int64, or an object
    array of exact Python ints past ``INT64_INDEX_QUBITS`` qubits; shots is
    int64 unless a count is beyond it; value and sigma are float64.  The
    columns keep the row order and are read-only.  ``entries`` maps k to a
    MeasurementEntry for code that reads rows one at a time; it is built on
    first read.
    """

    __slots__ = ("graph", "frame", "k", "value", "sigma", "shots", "_entries", "_full")

    def __init__(self, graph: Graph, frame: LocalFrame, entries: Mapping[int, MeasurementEntry]):
        rows = entries.values()
        self._set_columns(graph, frame, list(entries), [e.value for e in rows],
                          [e.sigma for e in rows], [e.shots or 0 for e in rows])

    @classmethod
    def from_columns(cls, graph: Graph, frame: LocalFrame, k, value, sigma,
                     shots) -> "MeasurementRecord":
        """A record from copies of its columns."""
        record = cls.__new__(cls)
        record._set_columns(graph, frame, k, value, sigma, shots)
        return record

    def _set_columns(self, graph, frame, k, value, sigma, shots):
        columns = {
            "k": (_int_column(k) if graph.n <= INT64_INDEX_QUBITS
                  else np.array([int(v) for v in k], dtype=object)),
            "value": np.array(value, dtype=np.float64),
            "sigma": np.array(sigma, dtype=np.float64),
            "shots": np.array(shots) if isinstance(shots, np.ndarray) else _int_column(shots),
        }
        if len({c.shape for c in columns.values()}) > 1 or columns["k"].ndim != 1:
            raise ValueError("record columns must be vectors of one length")
        for column in columns.values():
            column.flags.writeable = False
        for name, v in (("graph", graph), ("frame", frame), *columns.items(),
                        ("_entries", None), ("_full", None)):
            object.__setattr__(self, name, v)
        self._check()

    def _check(self):
        k, value, sigma = self.k, self.value, self.sigma
        twin = _first_repeat(k)
        if twin is not None:
            raise RecordFormatError(f"duplicate stabilizer index {int(k[twin])}")
        dim = 1 << self.n
        outside = np.asarray((k < 0) | (k >= dim), dtype=bool)
        bad = outside | ~((value >= -1.0) & (value <= 1.0)) | (sigma < 0)
        if bad.any():  # the first bad row, checked in the order below
            i = int(np.argmax(bad))
            ki, v = int(k[i]), float(value[i])
            if outside[i]:
                raise RecordFormatError(f"stabilizer index {ki} outside [0, {dim})")
            if not -1.0 <= v <= 1.0:
                raise RecordFormatError(f"entry {ki}: value {v} outside [-1, 1]")
            raise RecordFormatError(f"entry {ki}: negative sigma {float(sigma[i])}")
        identity = np.flatnonzero(np.asarray(k == 0, dtype=bool))
        if identity.size and (abs(value[identity[0]] - 1.0) > 1e-9 or sigma[identity[0]] > 1e-9):
            raise RecordFormatError("identity entry (k=0) must have value 1 and sigma 0")

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}: records are read-only")

    def __reduce__(self):  # copy and pickle rebuild the record from its columns
        return (MeasurementRecord.from_columns,
                (self.graph, self.frame, self.k, self.value, self.sigma, self.shots))

    def __eq__(self, other):
        if not isinstance(other, MeasurementRecord):
            return NotImplemented
        return (self.graph, self.frame) == (other.graph, other.frame) and self.entries == other.entries

    __hash__ = None

    def __repr__(self):
        return f"MeasurementRecord(graph={self.graph!r}, frame={self.frame!r}, rows={self.k.size})"

    @property
    def n(self) -> int:
        return self.graph.n

    @property
    def entries(self) -> Mapping[int, MeasurementEntry]:
        """Read-only mapping k -> MeasurementEntry, in row order."""
        if self._entries is None:
            shots = [s or None for s in self.shots.tolist()]
            rows = map(MeasurementEntry, self.value.tolist(), self.sigma.tolist(), shots)
            object.__setattr__(self, "_entries",
                               MappingProxyType(dict(zip(self.k.tolist(), rows))))
        return self._entries

    def _non_identity(self) -> int:
        return self.k.size - int(np.count_nonzero(np.asarray(self.k == 0, dtype=bool)))

    def has_full_group(self) -> bool:
        return self._non_identity() == (1 << self.n) - 1

    def _generator_rows(self) -> np.ndarray:
        """Row of each generator's entry, -1 where it has none."""
        rows = np.full(self.n, -1, dtype=np.intp)
        k = self.k
        if k.dtype == object:  # past INT64_INDEX_QUBITS qubits
            for i, ki in enumerate(k.tolist()):
                if ki and not ki & (ki - 1):
                    rows[ki.bit_length() - 1] = i
        else:
            single = np.flatnonzero((k > 0) & (k & (k - 1) == 0))
            rows[np.frexp(k[single].astype(np.float64))[1] - 1] = single
        return rows

    def has_generators(self) -> bool:
        return bool((self._generator_rows() >= 0).all())

    def full_vector(self) -> tuple[np.ndarray, np.ndarray]:
        """(values, sigmas) over the whole group, read-only; requires the full group."""
        if self._full is None:
            dim = 1 << self.n
            missing = dim - 1 - self._non_identity()
            if missing:
                raise ValueError(
                    f"full stabilizer group required; missing {missing} indices"
                )
            m = np.ones(dim)
            s = np.zeros(dim)
            m[self.k] = self.value
            s[self.k] = self.sigma
            m.flags.writeable = s.flags.writeable = False
            object.__setattr__(self, "_full", (m, s))
        return self._full

    def generator_values(self) -> tuple[np.ndarray, np.ndarray]:
        """(a, sigma) for the n single-generator entries."""
        rows = self._generator_rows()
        if (rows < 0).any():
            missing = (np.flatnonzero(rows < 0) + 1).tolist()
            raise ValueError(f"generator entries missing for vertices {missing}")
        return self.value[rows], self.sigma[rows]

    def measured_indices(self) -> list[int]:
        return np.sort(self.k).tolist()


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
        with np.errstate(over="ignore"):  # finite entries may sum to inf
            total = float(p.sum())
        if abs(total - 1.0) > 1e-10:
            raise ValueError(f"populations sum to {total!r}, not 1")
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
    """Average of all 2^n stabilizer expectations, with quadrature sigma
    (from the record's cached ``full_vector``)."""
    m, s = record.full_vector()
    dim = m.size
    e = int(np.frexp(s.max())[1])  # exact scaling: no square overflows or underflows
    quadrature = np.ldexp(np.sqrt((np.ldexp(s, -e) ** 2).sum()), e)
    return float(m.sum() / dim), float(quadrature / dim)


def raw_purity(m: np.ndarray) -> float:
    """Purity from the full expectation vector: 2^-n sum m_k^2 (Parseval)."""
    m = _check_pow2(np.asarray(m, dtype=float))
    if abs(m[0] - 1.0) > 1e-9:
        raise ValueError("expectation of the identity must be 1")
    return float((m ** 2).sum() / m.size)


def _fit_data(record: MeasurementRecord) -> tuple:
    """(k, value, weight) arrays of the non-identity entries, in index order.

    The weight is 1/sigma^2, up to one common power of 2 that puts the
    smallest sigma in [1/2, 1): the scaling is exact, so the normalized
    weights are unchanged, but the largest weight is finite and nonzero at
    any finite sigma.  Where an entry has shots, its sigma is at least
    the binomial estimate and 1/shots: a sample mean of exactly +/-1 has zero
    binomial estimate but still an O(1/shots) true uncertainty.
    """
    value = record.value
    shots = record.shots.astype(np.float64)
    shots[shots == 0] = np.nan  # fmax skips the NaN floors of rows without shots
    sigma = np.fmax(record.sigma, np.fmax(np.sqrt(np.maximum(1.0 - value ** 2, 0.0) / shots),
                                          1.0 / shots))
    order = np.argsort(record.k)
    order = order[record.k[order] != 0]
    k, value, sigma = record.k[order], value[order], sigma[order]
    if (sigma <= 0).any():
        raise ValueError(f"entry {k[np.argmax(sigma <= 0)]} needs a positive sigma "
                         "(or shots) for the fit")
    with np.errstate(over="ignore"):  # a sigma 2^512 times the smallest weighs 0
        return k, value, 1.0 / np.ldexp(sigma, -int(np.frexp(sigma.min())[1])) ** 2


ML_MAX_ITER = 1_000_000  # cap on ml_fit's FISTA iterations
ML_TOL = 1e-9            # ml_fit's KKT-residual target


def ml_fit(record: MeasurementRecord, start: np.ndarray | None = None) -> GraphDiagonalState:
    """Max-likelihood graph-diagonal state: weighted least squares on the simplex.

    Minimizes sum_k w_k (<S_k>_p - value_k)^2 with w_k = 1/sigma_k^2 over
    physical populations p, by accelerated projected gradient (``kernels.pg_fit``:
    FISTA with adaptive restart, step 1/L from the gradient's exact Lipschitz
    constant L), to a KKT residual of at most ``ML_TOL``.  Once FISTA has
    found the support of the optimum, a conjugate-gradient solve on that face
    usually ends the fit; its result is kept only if it passes the same KKT
    test.  The iteration count and the final residual are logged at DEBUG
    level on the ``stabverify`` logger.  The identity entry
    is exact for any p and is skipped.  The default start is the simplex
    projection of the raw populations fwht(m) / 2^n, with m_0 = 1 and every
    unmeasured m_k taken as 0.  For the full group with equal weights that
    start is already the minimizer, since the objective is then 2^n times the
    squared distance from p to the raw populations.  A full group's rows are
    selected by a slice, any other record's by an index array.
    """
    if not record.k.size:
        raise ValueError("empty measurement record")
    k, values, weights = _fit_data(record)
    if not k.size:
        raise ValueError("record has no non-identity entries")
    dim = 1 << record.n
    rows = slice(1, None) if k.size == dim - 1 else k
    if start is None:
        m = np.zeros(dim)
        m[0] = 1.0
        m[rows] = values
        p0 = kernels.simplex_project(kernels.fwht(m) / dim)
    else:
        p0 = np.asarray(start, dtype=np.float64)
    p, kkt, iterations = kernels.pg_fit(rows, values, weights, p0, ML_MAX_ITER, ML_TOL)
    _log.debug("ml_fit: %d iterations, KKT residual %.3g", iterations, kkt)
    if not kkt <= ML_TOL:  # also a NaN residual
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


def _check_row(i: int, row, n: int):
    """Raise the diagnostic of row i if it is malformed: the key comes before
    'shots', 'value' and 'sigma'.  Numbers are never coerced: 'value', 'sigma'
    and 'shots' must be finite JSON numbers."""
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
    elif len(k.strip().upper()) < n:
        raise RecordFormatError(
            f"measurements[{i}]: operator {k.strip().upper()!r} has fewer than {n} qubits")
    if "shots" in row:
        shots = row["shots"]
        if type(shots) is not int or not -_MAX_DOUBLE <= shots <= _MAX_DOUBLE:
            raise _number_error(i, "shots", shots, int)
        if shots < 1:
            raise RecordFormatError(
                f"measurements[{i}]: 'shots' must be at least 1, got {shots!r}")
    for name, v in (("value", row["value"]), ("sigma", row.get("sigma", 0.0))):
        if type(v) not in _JSON_NUMBER[float] or not -_MAX_DOUBLE <= v <= _MAX_DOUBLE:
            raise _number_error(i, name, v)


class _Absent:
    """Stands for a field that a row leaves out."""


_ABSENT = _Absent()

# Each column reader returns the column, or None where a row fails its check.


def _float_column(col: list) -> np.ndarray | None:
    """float64 column of finite JSON numbers (int or float, never bool)."""
    types = set(map(type, col))
    if types <= {int, float} and (
            int not in types or all(-_MAX_DOUBLE <= v <= _MAX_DOUBLE for v in col)):
        a = np.fromiter(col, np.float64, len(col))
        if np.isfinite(a).all():
            return a
    return None


def _shots_column(col: list) -> np.ndarray | None:
    """Shot counts, JSON integers of at least 1; 0 where a row has none."""
    types = set(map(type, col))
    if not types <= {int, _Absent}:
        return None
    absent = _Absent in types
    a = _int_column([1 if v is _ABSENT else v for v in col] if absent else col)
    if np.asarray((a < 1) | (a > _MAX_DOUBLE), dtype=bool).any():
        return None
    if absent:
        a[np.array([v is _ABSENT for v in col])] = 0
    return a


def _k_strings(col: list, n: int) -> np.ndarray | None:
    """Group indices of 'k' strings, whose character a is bit a-1."""
    if not all(isinstance(v, str) and len(v) == n for v in col):
        return None
    chars = np.frombuffer("".join(col).encode("ascii", "replace"), dtype=np.uint8)
    bits = chars.reshape(len(col), n) - ord("0")
    return index_column(bits.T) if (bits <= 1).all() else None


def _pauli_texts(col: list, n: int) -> list | None:
    """The 'pauli' texts stripped and in capitals, each of at least n characters."""
    if not all(map(isinstance, col, repeat(str))):
        return None
    texts = [v.strip().upper() for v in col]
    return texts if min(map(len, texts), default=n) >= n else None


# the fields a row may hold, each with its value where the row leaves it out
_FIELDS = {"k": _ABSENT, "pauli": _ABSENT, "value": _ABSENT, "sigma": 0.0, "shots": _ABSENT}


def _field_columns(rows: list) -> dict:
    """Each field of _FIELDS as a column over the rows, a pass per field; a
    row that is not an object holds no field."""
    try:
        return {f: list(map(dict.get, rows, repeat(f), repeat(v))) for f, v in _FIELDS.items()}
    except TypeError:
        return _field_columns([r if isinstance(r, dict) else {} for r in rows])


def _read_rows(d: dict, n: int) -> tuple:
    """(k, value, sigma, shots, at, texts) of the measurement rows.

    k holds the index of each 'k' row; the rows at the positions ``at`` are
    keyed by their 'pauli' texts instead, stripped and in capitals.  Each
    field is read and checked as one column.  When a column fails its check,
    the rows are checked one by one with ``_check_row``, which raises the
    first bad row's diagnostic.
    """
    rows = d.get("measurements")
    if not isinstance(rows, list) or not rows:
        raise RecordFormatError("'measurements' must be a nonempty list of rows")
    columns = _field_columns(rows)
    keys, texts = columns["k"], columns["pauli"]
    if keys.count(_ABSENT) == len(rows):  # every row keyed by 'pauli'
        at, keys = np.arange(len(rows)), []
    else:
        at = np.flatnonzero([v is _ABSENT for v in keys])
        keys = [v for v in keys if v is not _ABSENT] if at.size else keys
        texts = [texts[i] for i in at]
    read = (_k_strings(keys, n) if keys else keys, _float_column(columns["value"]),
            _float_column(columns["sigma"]), _shots_column(columns["shots"]),
            _pauli_texts(texts, n))
    if any(c is None for c in read):
        for i, row in enumerate(rows):
            _check_row(i, row, n)
    k, value, sigma, shots, texts = read
    return k, value, sigma, shots, at, texts


def record_from_json_dict(d: dict) -> MeasurementRecord:
    graph, frame, (k, value, sigma, shots, at, texts) = _read_header(d, _read_rows)
    size = value.size
    members = np.ones(size, dtype=bool)
    if at.size:  # 'pauli' texts are decoded in one batch
        decoded, member = StabilizerCodec(graph, frame).indices(texts)
        if at.size == size:
            k, members = decoded, member
        else:
            keyed, k = k, np.empty(size, dtype=decoded.dtype)
            k[np.setdiff1d(np.arange(size), at)] = keyed
            k[at] = decoded
            members[at] = member
    # name the first row that is no stabilizer element or repeats an index
    stranger = size if members.all() else int(np.argmin(members))
    rows = np.flatnonzero(members) if stranger < size else np.arange(size)
    twin = _first_repeat(k[rows])
    twin = size if twin is None else int(rows[twin])
    if stranger < twin:
        text = texts[int(np.searchsorted(at, stranger))]
        raise RecordFormatError(
            f"measurements[{stranger}]: operator {text!r} is not a stabilizer element "
            "of this graph and frame (check the sign)")
    if twin < size:
        raise RecordFormatError(f"measurements[{twin}]: duplicate stabilizer index {k[twin]}")
    return MeasurementRecord.from_columns(graph, frame, k, value, sigma, shots)


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
    """The record document, rows in index order, each keyed by both 'k' and 'pauli'."""
    order = np.argsort(record.k, kind="stable")
    k = record.k[order]
    paulis = StabilizerCodec(record.graph, record.frame).encode(k)
    rows = []
    for ki, pauli, value, sigma, shots in zip(k.tolist(), paulis, record.value[order].tolist(),
                                              record.sigma[order].tolist(),
                                              record.shots[order].tolist()):
        row = {
            "k": format(ki, f"0{record.n}b")[::-1],  # character a is bit a
            "pauli": pauli,
            "value": value,
            "sigma": sigma,
        }
        if shots:
            row["shots"] = shots
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
