#!/usr/bin/env python3
"""Digest the output of every benchmark operation, for byte-identity checks.

    python3 tools/op_digests.py SRC [--seeds 11,27182]

SRC is the directory that holds the ``stabverify`` package to run (the
``src/`` of a checkout).  For each workload and seed, the inputs are written
by ``pipebench/workloads.py`` of this checkout into a temporary directory, and
each operation runs through ``stabverify.cli.main`` in-process, with BLAS on
one thread.  One line per operation:

    workload seed label exit_code sha256(stdout) sha256(stderr) [iterations value duality_gap]

with the input directory replaced by ``<inputs>`` before hashing.  A
``robustness`` operation adds the ``iterations``, ``value`` and
``duality_gap`` of its report's sdp section (``-`` for a field it lacks),
so a change that moves the solver's iterates shows by how much.  Two
versions of the program give the same bytes on every operation exactly when
``diff`` of their outputs is empty, e.g. with a ``git archive`` of the parent
unpacked next to the change:

    python3 tools/op_digests.py parent/src > parent.txt
    python3 tools/op_digests.py src > change.txt
    diff parent.txt change.txt
"""

import argparse
import hashlib
import io
import json
import os
import sys
import tempfile
import traceback
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

# before numpy is imported, so that BLAS starts with one thread
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

PIPEBENCH = Path(__file__).resolve().parent.parent / "pipebench"


def _digest(text: str, inputs: str) -> str:
    return hashlib.sha256(text.replace(inputs, "<inputs>").encode()).hexdigest()


def _solve_fields(argv, stdout: str) -> list:
    """iterations, value and duality_gap of a robustness report, as text."""
    if argv[0] != "robustness":
        return []
    try:
        sdp = json.loads(stdout)["sdp"]
    except (ValueError, KeyError):
        sdp = {}
    fields = (sdp.get("iterations"), sdp.get("value", {}).get("value"), sdp.get("duality_gap"))
    return ["-" if v is None else repr(v) for v in fields]


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("src", type=Path, help="directory holding the stabverify package")
    ap.add_argument("--seeds", default="11,27182", help="comma-separated workload seeds")
    args = ap.parse_args(argv)

    src = args.src.resolve()
    if not (src / "stabverify" / "__init__.py").is_file():
        ap.error(f"no stabverify package in {src}")
    sys.path[:0] = [str(src), str(PIPEBENCH)]
    import workloads  # imports stabverify from src
    from stabverify import cli

    seeds = [int(s) for s in args.seeds.split(",")]
    for name in workloads.WORKLOADS:
        for seed in seeds:
            with tempfile.TemporaryDirectory() as inputs:
                for op in workloads.build(name, seed, Path(inputs)):
                    out, err = io.StringIO(), io.StringIO()
                    try:
                        with redirect_stdout(out), redirect_stderr(err):
                            code = cli.main(op.argv)
                    except SystemExit as exc:  # argparse rejected the arguments
                        code = exc.code
                    except Exception:
                        code = None
                        err.write(traceback.format_exc())
                    print(name, seed, op.label, code, _digest(out.getvalue(), inputs),
                          _digest(err.getvalue(), inputs),
                          *_solve_fields(op.argv, out.getvalue()), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
