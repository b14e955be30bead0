#!/usr/bin/env python3
"""Time one reduced-path solve and read its peak RSS, in a fresh process.

    python3 tools/solve_rss.py SRC --graph path:N --cuts prefix|all [--repeat R]

SRC is the directory that holds the ``stabverify`` package to run (the
``src/`` of a checkout).  Each row runs in a fresh ``python3 -c`` child with
``PYTHONPATH=SRC`` and BLAS on one thread.  The child builds the record that
``stabverify simulate --graph path:N --noise z=0.05 --shots 100000 --seed 3``
writes, fits it with ``ml_fit``, times ``symmetry_reduced_robustness`` over
the prefix cuts {1..k} (k = 1..N-1) or all cuts in-process, and prints one
JSON line:

    {"n", "cuts", "seconds", "iterations", "value", "duality_gap", "peak_rss_mb"}

``peak_rss_mb`` is the child's ``ru_maxrss``.  Linux carries ``ru_maxrss``
across fork + exec, so a child reads at least the launching process's own
peak; this script therefore imports neither numpy nor stabverify.  R rows
(``--repeat``, default 1) run one after another.
"""

import argparse
import os
import subprocess
import sys
from pathlib import Path

CHILD = """
import json, resource, sys, time
from stabverify import Graph, symmetry_reduced_robustness
from stabverify.reconstruct import ml_fit
from stabverify.simulate import NoiseModel, apply_noise, sample_record

n, cuts = int(sys.argv[1]), sys.argv[2]
graph = Graph.path(n)
state = apply_noise(graph, NoiseModel.uniform(n, 0.05))
fit = ml_fit(sample_record(state, graph, indices=range(1, 1 << n), shots=100000, seed=3))
parts = None if cuts == "all" else [tuple(range(1, k + 1)) for k in range(1, n)]
start = time.perf_counter()
sol = symmetry_reduced_robustness(fit, graph, partitions=parts)
seconds = time.perf_counter() - start
print(json.dumps({"n": n, "cuts": cuts, "seconds": round(seconds, 3),
                  "iterations": sol.iterations, "value": sol.value,
                  "duality_gap": sol.duality_gap,
                  "peak_rss_mb": round(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, 1)}))
"""


def _path_qubits(spec: str) -> int:
    name, _, n = spec.partition(":")
    if name != "path" or not n.isdigit() or not 2 <= int(n) <= 12:
        raise argparse.ArgumentTypeError(f"expected path:N with N in 2..12, got {spec!r}")
    return int(n)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("src", type=Path, help="directory holding the stabverify package")
    ap.add_argument("--graph", type=_path_qubits, required=True, metavar="path:N")
    ap.add_argument("--cuts", choices=("prefix", "all"), required=True)
    ap.add_argument("--repeat", type=int, default=1, choices=range(1, 101), metavar="R")
    args = ap.parse_args(argv)

    src = args.src.resolve()
    if not (src / "stabverify" / "__init__.py").is_file():
        ap.error(f"no stabverify package in {src}")
    env = dict(os.environ, PYTHONPATH=str(src))
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    for _ in range(args.repeat):
        done = subprocess.run([sys.executable, "-c", CHILD, str(args.graph), args.cuts],
                              env=env, stdout=subprocess.PIPE, text=True)
        if done.returncode:
            return done.returncode
        print(done.stdout.strip(), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
