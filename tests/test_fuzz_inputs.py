"""Mutated record and state documents through the CLI.

Each example starts from a valid 2- or 3-qubit document and applies one to
three mutations: a dropped key, or a leaf or container replaced by a value
of another JSON type or by an extreme finite number.  Whatever the result,
the exit-code contract holds: exit 0 or 3 writes strict JSON to stdout, exit
0 with nothing on stderr; exit 2 writes nothing there and one 'error:' line
to stderr; no exception escapes.
"""

import copy
import json
import warnings

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from conftest import run_cli, strict_json
from stabverify.pauli import Graph, LocalFrame
from stabverify.reconstruct import record_to_json_dict
from stabverify.simulate import NoiseModel, apply_noise, sample_record

REPLACEMENTS = (None, True, 2.5, -1, 0, 1e-300, 1e300, "x", [], {})
COMMANDS = (
    ("analyze", "--partitions", "all", "--trials", "1000"),
    ("robustness",),
    ("robustness", "--method", "dense"),
)
FRAMES = {2: [("-Z", "+X"), ("+Y", "-Z")], 3: [("-Z", "+X"), ("+X", "-Y"), ("+Y", "+Z")]}


def _record(n):
    """A full-group record; rows alternate between 'k' and 'pauli' keys."""
    graph, frame = Graph.path(n), LocalFrame.from_tokens(FRAMES[n])
    state = apply_noise(graph, NoiseModel.uniform(n, 0.04))
    doc = record_to_json_dict(sample_record(state, graph, frame, shots=500, seed=n))
    for i, row in enumerate(doc["measurements"]):
        del row["pauli" if i % 2 else "k"]
    return doc


def _state(n):
    graph, frame = Graph.path(n), LocalFrame.from_tokens(FRAMES[n])
    p = apply_noise(graph, NoiseModel.uniform(n, 0.04)).p
    return {"graph": graph.to_json_dict(), "frame": frame.to_json_list(), "p": p.tolist()}


DOCUMENTS = {"record2": _record(2), "record3": _record(3), "state2": _state(2),
             "state3": _state(3)}


def _paths(node, path=()):
    """Path of every node of a JSON document, the root first."""
    yield path
    items = node.items() if isinstance(node, dict) else (
        enumerate(node) if isinstance(node, list) else ())
    for key, child in items:
        yield from _paths(child, path + (key,))


def _mutated(doc, data):
    doc = copy.deepcopy(doc)
    for _ in range(data.draw(st.integers(1, 3), label="mutations")):
        paths = list(_paths(doc))
        keys = [p for p in paths if p and isinstance(_at(doc, p[:-1]), dict)]
        if keys and data.draw(st.booleans(), label="drop"):
            path = data.draw(st.sampled_from(keys), label="drop key")
            del _at(doc, path[:-1])[path[-1]]
            continue
        path = data.draw(st.sampled_from(paths), label="replace")
        value = copy.deepcopy(data.draw(st.sampled_from(REPLACEMENTS), label="by"))
        if not path:
            doc = value
        else:
            _at(doc, path[:-1])[path[-1]] = value
    return doc


def _at(doc, path):
    for key in path:
        doc = doc[key]
    return doc


@pytest.mark.parametrize("command", COMMANDS, ids=" ".join)
@settings(max_examples=40, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(name=st.sampled_from(sorted(DOCUMENTS)), data=st.data())
def test_mutated_documents_keep_the_exit_contract(tmp_path, capsys, command, name, data):
    _check_exit_contract(tmp_path, capsys, command, _mutated(DOCUMENTS[name], data))


def _extreme_sigma(sigma, drop_shots):
    doc = copy.deepcopy(DOCUMENTS["record3"])
    row = doc["measurements"][0]
    row["sigma"] = sigma
    if drop_shots:
        del row["shots"]
    return doc


# one row's sigma at an extreme finite value: the first made the ML fit run
# its whole iteration cap on NaN weights and exit 2 with a wrong diagnostic,
# the second overflowed the raw-fidelity sigma into a non-JSON Infinity
EXTREME = {"sigma 1e-300 without shots": _extreme_sigma(1e-300, True),
           "sigma 1e300": _extreme_sigma(1e300, False)}


@pytest.mark.parametrize("command", COMMANDS, ids=" ".join)
@pytest.mark.parametrize("name", sorted(EXTREME))
def test_extreme_sigmas_keep_the_exit_contract(tmp_path, capsys, command, name):
    _check_exit_contract(tmp_path, capsys, command, EXTREME[name])


def _check_exit_contract(tmp_path, capsys, command, doc):
    f = tmp_path / "doc.json"
    f.write_text(json.dumps(doc))
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code, out, err = run_cli(capsys, *command, str(f), "--format", "json")
    err += "".join(f"{w.category.__name__}: {w.message}\n" for w in caught)  # as on a terminal
    assert code in (0, 2, 3)
    if code == 2:
        assert out == ""
        assert err.startswith("error:") and len(err.splitlines()) == 1
    else:
        strict_json(out)
        if code == 0:
            assert err == ""
