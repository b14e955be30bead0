"""Property tests of measurement-record documents.

A record survives the JSON round trip column by column, and on corrupted
documents the columnar reader raises exactly the diagnostic of the row-by-row
reference reader in ``record_oracle``.
"""

import copy
import math
import pickle

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from conftest import graphs_and_frames
from record_oracle import oracle_entries
from stabverify.reconstruct import (MeasurementRecord, RecordFormatError, load_record,
                                    record_from_json_dict, record_to_json_dict, save_record)


@st.composite
def records(draw, max_n=6):
    """Records on random graphs and frames (Y images included) over a random
    set of group indices, the identity among them at times; a row has shots
    or not."""
    graph, frame = draw(graphs_and_frames(max_n=max_n))
    dim = 1 << graph.n
    ks = draw(st.lists(st.integers(0, dim - 1), min_size=1, max_size=min(dim, 24), unique=True))
    value = [1.0 if k == 0 else draw(st.floats(-1.0, 1.0)) for k in ks]
    sigma = [0.0 if k == 0 else draw(st.floats(0.0, 0.5)) for k in ks]
    shots = [draw(st.sampled_from([0, 1, 2000, 10 ** 6])) for _ in ks]
    return MeasurementRecord.from_columns(graph, frame, ks, value, sigma, shots)


def keyed_document(record, data):
    """The record's document with its rows keyed by 'k', by 'pauli', by both,
    or by a mix of the three."""
    doc = record_to_json_dict(record)
    style = data.draw(st.sampled_from(["k", "pauli", "both", "mixed"]))
    for row in doc["measurements"]:
        drop = data.draw(st.sampled_from(["k", "pauli", None])) if style == "mixed" else (
            {"k": "pauli", "pauli": "k"}.get(style))
        row.pop(drop, None)
    return doc


def columns(record):
    """The four columns in index order."""
    order = np.argsort(record.k)
    return [c[order] for c in (record.k, record.value, record.sigma, record.shots)]


def assert_same_columns(got, want):
    assert (got.graph, got.frame) == (want.graph, want.frame)
    for a, b in zip(columns(got), columns(want)):
        assert a.dtype == b.dtype and np.array_equal(a, b)


@settings(max_examples=80, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(record=records(), data=st.data())
def test_round_trip_keeps_every_column(tmp_path, record, data):
    again = record_from_json_dict(keyed_document(record, data))
    assert_same_columns(again, record)
    assert again == record
    path = tmp_path / "record.json"
    save_record(record, path)
    assert_same_columns(load_record(path), record)


@settings(max_examples=30, deadline=None)
@given(record=records())
def test_copy_and_pickle_keep_every_column(record):
    for again in (copy.copy(record), copy.deepcopy(record), pickle.loads(pickle.dumps(record))):
        assert_same_columns(again, record)
        assert again == record
        assert not again.k.flags.writeable


def _set(field, value):
    def corrupt(row, other, n):
        row[field] = value
        return row
    return corrupt


def _pauli_only(row, text):
    row.pop("k", None)
    row["pauli"] = text
    return row


def _wrong_sign(row, other, n):
    text = row["pauli"]
    return _pauli_only(row, text[1:] if text[0] == "-" else "-" + text)


def _padded_lower_case(row, other, n):
    # valid once stripped and capitalized; '+' is an optional sign
    text = row["pauli"].lower()
    return _pauli_only(row, "\n" + text if text[0] == "-" else " +" + text + "\t")


def _inner_newline(row, other, n):
    text = row["pauli"]
    return _pauli_only(row, text[:-1] + "\n" + text[-1:])


# The kinds of corruption of the exact-message table in test_reconstruct.py,
# plus texts that stay valid only after stripping and capitalizing, and texts
# with whitespace inside.
# corrupt(row, other, n) returns the new row; other is another row of the
# same document.
CORRUPTIONS = {
    "non_object": lambda row, other, n: [1],
    "missing_value": lambda row, other, n: {f: v for f, v in row.items() if f != "value"},
    "value_true": _set("value", True),
    "value_string": _set("value", "0.9"),
    "value_none": _set("value", None),
    "value_inf": _set("value", math.inf),
    "value_nan": _set("value", math.nan),
    "value_beyond_double": _set("value", 10 ** 400),
    "sigma_string": _set("sigma", "0.1"),
    "sigma_nan": _set("sigma", math.nan),
    "shots_float": _set("shots", 10.0),
    "shots_true": _set("shots", True),
    "shots_zero": _set("shots", 0),
    "shots_beyond_double": _set("shots", 10 ** 400),
    "no_key": lambda row, other, n: {f: v for f, v in row.items() if f not in ("k", "pauli")},
    "k_not_string": _set("k", 1),
    "pauli_not_string": lambda row, other, n: _pauli_only(row, 5),
    "bad_k": lambda row, other, n: {**row, "k": "2" + "0" * (n - 1)},
    "k_not_ascii": lambda row, other, n: {**row, "k": "١" + "0" * (n - 1)},
    "short_pauli": lambda row, other, n: _pauli_only(row, "X" * (n - 1)),
    "wrong_sign": _wrong_sign,
    "plus_sign_and_spaces": _padded_lower_case,
    "inner_newline": _inner_newline,
    "duplicate_index": lambda row, other, n: {
        **{f: v for f, v in row.items() if f not in ("k", "pauli")},
        **{f: other[f] for f in ("k", "pauli") if f in other}},
    "value_range": _set("value", 1.5),
    "negative_sigma": _set("sigma", -0.1),
    "identity": lambda row, other, n: {"k": "0" * n, "value": 0.99},
}


# rows that pass every field check and fail later, if at all
LATE = ("wrong_sign", "plus_sign_and_spaces", "inner_newline", "duplicate_index",
        "value_range", "negative_sigma", "identity")


def corrupted_document(record, data, kinds):
    """The record's document with rows corrupted by the given kinds, one row
    each, then each row keyed by 'k', 'pauli' or both."""
    doc = record_to_json_dict(record)
    rows = doc["measurements"]
    originals = copy.deepcopy(rows)  # texts and keys to corrupt with
    for kind in kinds:
        i = data.draw(st.integers(0, len(rows) - 1))
        other = originals[data.draw(st.integers(0, len(rows) - 1))]
        rows[i] = CORRUPTIONS[kind](copy.deepcopy(originals[i]), other, record.n)
    for row in rows:
        if isinstance(row, dict) and "k" in row and "pauli" in row:
            row.pop(data.draw(st.sampled_from(["k", "pauli", None])), None)
    return doc


def assert_reader_matches_oracle(doc):
    try:
        want = oracle_entries(doc)
    except RecordFormatError as exc:
        with pytest.raises(RecordFormatError) as info:
            record_from_json_dict(doc)
        assert str(info.value) == str(exc)
    else:
        got = record_from_json_dict(doc).entries
        assert {k: tuple(e) for k, e in got.items()} == want


@settings(max_examples=300, deadline=None)
@given(record=records(), data=st.data())
def test_diagnostics_match_the_row_oracle(record, data):
    kinds = data.draw(st.lists(st.sampled_from(sorted(CORRUPTIONS)), min_size=1, max_size=3))
    assert_reader_matches_oracle(corrupted_document(record, data, kinds))


@settings(max_examples=200, deadline=None)
@given(record=records(), data=st.data())
def test_late_checks_keep_row_order(record, data):
    # a non-member and a repeated index in every document, in either order,
    # among other rows that fail only after the field checks
    kinds = ["wrong_sign", "duplicate_index", *data.draw(st.lists(st.sampled_from(LATE),
                                                                  max_size=2))]
    assert_reader_matches_oracle(corrupted_document(record, data, data.draw(st.permutations(kinds))))
