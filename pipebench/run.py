#!/usr/bin/env python3
"""Pipeline benchmark of stabverify's analyze and robustness commands.

Run from the root of a source checkout (the program is imported from its
``src/`` directory):

    python3 pipebench/run.py --workload generator_only --seed 1 --seconds 20 --trace 0

Workloads: generator_only, full_group_ml, reduced_sdp, dense_sdp (see
README.md next to this file).  ``--trace 0`` measures the end-to-end metrics
with no tracing; ``--trace 1`` spends half the time untraced and half with
every layer wrapped, and reports the per-layer metrics.  The last line of
standard output is the result as one JSON object; the line before it holds
the run's environment, op counts and any failures.  Spans of a traced run
are written to pipebench/out/.
"""

import argparse
import json
import os
import sys
from pathlib import Path

BLAS_THREADS = 1
# before numpy is imported, so that BLAS starts with this many threads
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (SRC / "stabverify" / "__init__.py").is_file():
        print(f"error: no stabverify sources at {SRC}; run from a source checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import bench  # imports stabverify from SRC

    if args.workload not in bench.workloads.WORKLOADS:
        ap.error(f"--workload must be one of {', '.join(bench.workloads.WORKLOADS)}")
    out_dir = HERE / "out"
    out_dir.mkdir(exist_ok=True)
    spans = out_dir / f"spans-{args.workload}-seed{args.seed}.jsonl" if args.trace else None
    result, details = bench.run(args.workload, args.seed, args.seconds, bool(args.trace),
                                out_dir, spans_path=spans)
    print(json.dumps(details))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
