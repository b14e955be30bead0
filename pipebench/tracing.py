"""External tracing of stabverify's layers for the benchmark's traced run.

Nothing under ``src/`` knows about this module.  ``Tracer`` wraps the public
functions listed in ``LAYERS`` from outside: it finds every module namespace
of the package that holds the original function object (names are bound by
``from ... import``, so ``stabverify.sdp.solve_conic`` is a second call site
of ``stabverify.solver.solve_conic``) and rebinds each one to a wrapper that
records a span.  Spans stay in memory as ``[name, op, parent, start, end]``
and are written out once the run ends.

A layer whose function no longer exists is reported with zero calls.
"""

from __future__ import annotations

import json
import sys
import time
from collections import defaultdict

PACKAGE = "stabverify"

LAYERS = (
    "cli.main",
    "reconstruct.load_record",
    "reconstruct.record_from_json_dict",
    "reconstruct.ml_fit",
    "pauli.stabilizer_group",
    "bounds.bound_report",
    "kernels.fwht",
    "kernels.pg_fit",
    "kernels.jacobi_eigh_real",
    "kernels.jacobi_eigh_herm",
    "solver.solve_conic",
    "operators.eig_hermitian",
    "operators.graph_diagonal_operator",
    "operators.partial_transpose",
    "sdp.symmetry_reduced_robustness",
    "sdp.ppt_robustness",
)
STATS = (("calls", "count"), ("ms", "ms"), ("self_ms", "ms"))

# Counts read from arguments or return values: layer -> (metric, how to
# combine over calls, value of one call).
COUNTERS = {
    "solver.solve_conic": ("solver.solve_conic.iterations", "sum",
                           lambda args, out: out.iterations),
    "kernels.pg_fit": ("kernels.pg_fit.iterations", "sum", lambda args, out: out[2]),
    "pauli.stabilizer_group": ("pauli.stabilizer_group.elements", "sum",
                               lambda args, out: len(out)),
    # computed work: vector entries transformed, from the argument's size
    "kernels.fwht": ("kernels.fwht.elements", "sum", lambda args, out: len(args[0])),
    "sdp.symmetry_reduced_robustness": ("sdp.duality_gap_max", "max",
                                        lambda args, out: out.duality_gap),
    "sdp.ppt_robustness": ("sdp.duality_gap_max", "max", lambda args, out: out.duality_gap),
}

OVERHEAD = "trace.overhead_frac"

# Every per-layer metric with its unit, in output order.  Summed counts are
# per op; the gap is the largest over the traced ops.
METRICS = tuple(
    [(f"{layer}.{stat}", unit) for layer in LAYERS for stat, unit in STATS]
    + [(metric, "count") for metric, how, _ in COUNTERS.values() if how == "sum"]
    + [("sdp.duality_gap_max", "1"), (OVERHEAD, "1")]
)


class Tracer:
    """Wraps the layer functions while active (use as a context manager)."""

    def __init__(self):
        self.spans = []
        self.op = -1
        self.counts = defaultdict(float)
        self._stack = []
        self._patched = []

    def __enter__(self):
        namespaces = [m for name, m in list(sys.modules.items())
                      if name == PACKAGE or name.startswith(PACKAGE + ".")]
        for layer in LAYERS:
            module_name, func = layer.split(".")
            module = sys.modules.get(f"{PACKAGE}.{module_name}")
            original = getattr(module, func, None)
            if original is None:
                continue
            wrapper = self._wrap(layer, original)
            for ns in namespaces:
                for attr, value in list(vars(ns).items()):
                    if value is original:
                        setattr(ns, attr, wrapper)
                        self._patched.append((ns, attr, original))
        return self

    def __exit__(self, *exc):
        for ns, attr, original in reversed(self._patched):
            setattr(ns, attr, original)
        self._patched.clear()
        return False

    def _wrap(self, layer, fn):
        spans, stack, counts = self.spans, self._stack, self.counts
        counter = COUNTERS.get(layer)
        clock = time.perf_counter

        def traced(*args, **kwargs):
            span = [layer, self.op, stack[-1] if stack else -1, 0.0, 0.0]
            stack.append(len(spans))
            spans.append(span)
            span[3] = clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                span[4] = clock()
                stack.pop()
            if counter is not None:
                metric, how, value = counter
                v = value(args, out)
                counts[metric] = counts[metric] + v if how == "sum" else max(counts[metric], v)
            return out

        traced.__wrapped__ = fn
        return traced

    def metrics(self, n_ops: int) -> dict:
        """Per-op calls, inclusive ms and self ms of each layer, plus counts.

        Self time is a span's duration minus the durations of its direct
        child spans (one thread, so children never overlap).
        """
        child = [0.0] * len(self.spans)
        for name, op, parent, start, end in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out = {f"{layer}.{stat}": 0.0 for layer in LAYERS for stat, _ in STATS}
        for i, (name, op, parent, start, end) in enumerate(self.spans):
            out[f"{name}.calls"] += 1
            out[f"{name}.ms"] += (end - start) * 1e3
            out[f"{name}.self_ms"] += (end - start - child[i]) * 1e3
        out = {k: v / n_ops for k, v in out.items()}
        for metric, how, _ in COUNTERS.values():
            total = self.counts.get(metric, 0.0)
            out[metric] = total / n_ops if how == "sum" else total
        return out

    def write(self, path):
        t0 = self.spans[0][3] if self.spans else 0.0
        with open(path, "w") as fh:
            for i, (name, op, parent, start, end) in enumerate(self.spans):
                fh.write(json.dumps({
                    "id": i, "op": op, "parent": parent, "name": name,
                    "start_ms": (start - t0) * 1e3, "end_ms": (end - t0) * 1e3,
                }) + "\n")
