import json

import numpy as np
import pytest
from hypothesis import strategies as st

from stabverify.cli import main
from stabverify.pauli import Graph, LocalFrame
from stabverify.presets import FRAME_PAPER4, FRAME_PAPER6, GRAPH_PAPER4, GRAPH_PAPER6

ACCEPTANCE_LINES = []


def pytest_terminal_summary(terminalreporter):
    if ACCEPTANCE_LINES:
        terminalreporter.section("acceptance criteria")
        for line in ACCEPTANCE_LINES:
            terminalreporter.write_line(line)

TABLE1_A = np.array([0.994, 0.849, 0.937, 0.911])
TABLE1_SIGMA = np.array([0.001, 0.003, 0.003, 0.002])
TABLE2_A = np.array([0.593, 0.879, 0.998, 0.997, 0.791, 0.831])
TABLE2_SIGMA = np.array([0.008, 0.005, 0.001, 0.001, 0.006, 0.006])


@pytest.fixture
def table1():
    return TABLE1_A.copy(), TABLE1_SIGMA.copy()


@pytest.fixture
def table2():
    return TABLE2_A.copy(), TABLE2_SIGMA.copy()


@pytest.fixture
def paper4():
    return GRAPH_PAPER4, FRAME_PAPER4


@pytest.fixture
def paper6():
    return GRAPH_PAPER6, FRAME_PAPER6


def run_cli(capsys, *argv):
    """Exit code, stdout and stderr of one in-process CLI call."""
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def run_json(capsys, *argv):
    code, out, err = run_cli(capsys, *argv, "--format", "json")
    return code, strict_json(out), err


def strict_json(text):
    """json.loads that refuses NaN and Infinity, which are not JSON."""
    def refuse(token):
        raise ValueError(f"non-finite number {token} in JSON output")

    return json.loads(text, parse_constant=refuse)


LETTER_BITS = {"X": (1, 0), "Y": (1, 1), "Z": (0, 1)}


@st.composite
def graphs_and_frames(draw, max_n=8):
    """Graphs on n <= max_n vertices with any edge set (empty and disconnected
    ones included) and a valid local frame: per qubit, two distinct Pauli
    letters as the images of X and Z, each with either sign."""
    n = draw(st.integers(1, max_n))
    pairs = [(a, b) for a in range(1, n + 1) for b in range(a + 1, n + 1)]
    keep = draw(st.lists(st.booleans(), min_size=len(pairs), max_size=len(pairs)))
    graph = Graph.from_edges(n, [e for e, k in zip(pairs, keep) if k])
    images = []
    for _ in range(n):
        lx, lz = draw(st.permutations("XYZ"))[:2]
        sx, sz = draw(st.sampled_from([1, -1])), draw(st.sampled_from([1, -1]))
        images.append(((*LETTER_BITS[lx], sx), (*LETTER_BITS[lz], sz)))
    return graph, LocalFrame(n, tuple(images))
