"""Row-by-row reference reader of measurement-record documents.

It checks one row at a time, in row order, and names 'pauli' texts by
looking them up in the explicitly built stabilizer group, so it only serves
small n.  ``oracle_entries(d)`` returns {k: (value, sigma, shots)} of a valid
document and raises the ``RecordFormatError`` that stabverify's reader must
raise for an invalid one: the first bad row's field error (the key, then
'shots', 'value' and 'sigma'); then, in row order, the first row that is no
stabilizer element or repeats an index; then the first entry out of range,
and last the identity entry.
"""

import sys

from oracles import stabilizer_group, transformed_generators
from stabverify.reconstruct import RecordFormatError, _read_header

_NUMBER = (int, float)
_MAX_DOUBLE = sys.float_info.max


def _number_error(i, key, v, kind=float):
    expected = "an integer" if kind is int else "a finite number"
    return RecordFormatError(f"measurements[{i}]: '{key}' must be {expected}, got {v!r}")


def read_rows(d, n):
    """(keys, entries): the rows' indices (a 'pauli' row keeps its text) and
    (value, sigma, shots) tuples, checked row by row."""
    rows = d.get("measurements")
    if not isinstance(rows, list) or not rows:
        raise RecordFormatError("'measurements' must be a nonempty list of rows")
    keys, entries = [], []
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
        shots = row.get("shots")
        if "shots" in row:
            if type(shots) is not int or not -_MAX_DOUBLE <= shots <= _MAX_DOUBLE:
                raise _number_error(i, "shots", shots, int)
            if shots < 1:
                raise RecordFormatError(
                    f"measurements[{i}]: 'shots' must be at least 1, got {shots!r}")
        value = row["value"]
        if type(value) not in _NUMBER or not -_MAX_DOUBLE <= value <= _MAX_DOUBLE:
            raise _number_error(i, "value", value)
        sigma = row.get("sigma", 0.0)
        if type(sigma) not in _NUMBER or not -_MAX_DOUBLE <= sigma <= _MAX_DOUBLE:
            raise _number_error(i, "sigma", sigma)
        keys.append(k)
        entries.append((float(value), float(sigma), shots))
    return keys, entries


def oracle_entries(d):
    graph, frame, (keys, rows) = _read_header(d, read_rows)
    group = {str(s): k for k, s in
             enumerate(stabilizer_group(transformed_generators(graph, frame)))}
    entries = {}
    for i, key in enumerate(keys):
        if isinstance(key, str):  # one optional sign, then exactly n letters
            body = key[1:] if key[:1] in ("+", "-") else key
            text = ("-" if key[:1] == "-" else "") + body
            if len(body) != graph.n or text not in group:
                raise RecordFormatError(
                    f"measurements[{i}]: operator {key!r} is not a stabilizer element "
                    "of this graph and frame (check the sign)")
            key = group[text]
        if key in entries:
            raise RecordFormatError(f"measurements[{i}]: duplicate stabilizer index {key}")
        entries[key] = rows[i]
    for k, (value, sigma, _) in entries.items():
        if not -1.0 <= value <= 1.0:
            raise RecordFormatError(f"entry {k}: value {value} outside [-1, 1]")
        if sigma < 0:
            raise RecordFormatError(f"entry {k}: negative sigma {sigma}")
    if 0 in entries and (abs(entries[0][0] - 1.0) > 1e-9 or entries[0][1] > 1e-9):
        raise RecordFormatError("identity entry (k=0) must have value 1 and sigma 0")
    return entries
