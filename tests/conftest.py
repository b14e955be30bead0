import json

import numpy as np
import pytest

from stabverify.cli import main
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
