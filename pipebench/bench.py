"""Measurement loop of the pipeline benchmark (see run.py for the command).

One client in a closed loop: each operation is one in-process call of
``stabverify.cli.main([...,"--format","json"])`` and the next starts only
when it has returned.  Operations cycle through the workload's inputs in a
fixed order, and a timed phase runs the whole number of cycles closest to
its time budget, so every run's latency sample holds each input equally
often.  Outputs are checked after the phase, outside the timed region.
"""

from __future__ import annotations

import io
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass
from pathlib import Path

import numpy as np

import stabverify
from stabverify import cli, kernels

import tracing
import workloads

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
SETUP_REPS = 3

END_TO_END = (
    ("setup_s", "s"),
    ("throughput_ops_per_s", "1/s"),
    ("latency_p50_ms", "ms"),
    ("peak_rss_mb", "MB"),
)


@dataclass
class OpResult:
    op: workloads.Op
    seconds: float
    code: object
    stdout: str
    stderr: str


def _reject_constant(name):
    raise ValueError(f"non-standard JSON constant {name}")


def run_op(op: workloads.Op) -> OpResult:
    out, err = io.StringIO(), io.StringIO()
    t0 = time.perf_counter()
    try:
        with redirect_stdout(out), redirect_stderr(err):
            code = cli.main(op.argv)  # looked up per call, so a tracer sees it
    except SystemExit as exc:  # argparse rejected the arguments
        code = exc.code
    except Exception:  # a traceback is a failed op, not a failed benchmark
        code = None
        err.write(traceback.format_exc())
    return OpResult(op, time.perf_counter() - t0, code, out.getvalue(), err.getvalue())


def problems_of(res: OpResult, first_stdout: dict) -> list[str]:
    """Why one op failed: exit code, strict JSON, content checks, determinism."""
    if res.code != 0:
        return [f"exit code {res.code!r}: {res.stderr.strip()[-500:]}"]
    try:
        doc = json.loads(res.stdout, parse_constant=_reject_constant)
    except ValueError as exc:
        return [f"output is not strict JSON ({exc})"]
    problems = workloads.check(res.op, doc)
    if first_stdout.setdefault(id(res.op), res.stdout) != res.stdout:
        problems.append("output differs from an earlier run of the same input")
    return problems


def timed_phase(ops, seconds: float):
    """Whole cycles over ops, as many as fit closest to `seconds`."""
    results = []
    t0 = time.perf_counter()
    cycles = 0
    while True:
        results.extend(run_op(op) for op in ops)
        cycles += 1
        elapsed = time.perf_counter() - t0
        if elapsed + 0.5 * elapsed / cycles >= seconds:
            return results, elapsed, cycles


def time_import() -> float:
    """Wall time of a fresh interpreter that imports the CLI module."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    t0 = time.perf_counter()
    subprocess.run([sys.executable, "-c", "import stabverify.cli"], env=env,
                   cwd=ROOT, check=True)
    return time.perf_counter() - t0


def set_up(workload, seed, directory: Path, scale, reps):
    """Import, input generation and one warm-up op, `reps` times over.

    Each repetition writes its inputs to a fresh subdirectory.  Returns the
    last repetition's ops, every warm-up result and each repetition's time.
    """
    times, warm = [], []
    for rep in range(reps):
        t_import = time_import()
        t0 = time.perf_counter()
        ops = workloads.build(workload, seed, directory / f"setup{rep}", scale)
        t_gen = time.perf_counter() - t0
        warm.append(run_op(ops[0]))
        times.append(t_import + t_gen + warm[-1].seconds)
    return ops, warm, times


def git_commit():
    """The checkout's commit, or None outside a git checkout."""
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref  # detached HEAD
    ref_file = ROOT / ".git" / ref[5:]
    return ref_file.read_text().strip() if ref_file.is_file() else None


def environment(seed: int) -> dict:
    """Settings two runs must share to be comparable."""
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
        "use_numba": bool(kernels.USE_NUMBA),
        "stabverify": stabverify.__version__,
        "seed": seed,
        "git_commit": git_commit(),
    }


def run(workload: str, seed: int, seconds: float, trace: bool, work_dir,
        scale: str = "full", setup_reps: int = SETUP_REPS, spans_path=None):
    """One benchmark run; returns (result line, details) as dicts."""
    with tempfile.TemporaryDirectory(prefix="inputs-", dir=work_dir) as directory:
        ops, warm, setup_times = set_up(workload, seed, Path(directory), scale, setup_reps)
        untraced, wall, cycles = timed_phase(ops, seconds / 2 if trace else seconds)
        traced, tracer = [], None
        if trace:
            with tracing.Tracer() as tracer:
                for i, op in enumerate(ops * cycles):
                    tracer.op = i
                    traced.append(run_op(op))

    first_stdout, failures = {}, []
    checked = warm + untraced + traced
    for res in checked:
        problems = problems_of(res, first_stdout)
        if problems:
            failures.append({"op": res.op.label, "problems": problems})
    p50_ms = statistics.median(r.seconds for r in untraced) * 1e3
    details = {
        "workload": workload,
        "scale": scale,
        "seconds": seconds,
        "trace": int(trace),
        "environment": environment(seed),
        "setup_runs_s": setup_times,
        "timed_ops": len(untraced),
        "cycles": cycles,
        "error_rate": len(failures) / len(checked),
        "op_p50_ms": {op.label: statistics.median(
            r.seconds for r in untraced if r.op is op) * 1e3 for op in ops},
        "failures": failures[:5],
    }
    if trace:
        metrics = tracer.metrics(len(traced))
        traced_p50_ms = statistics.median(r.seconds for r in traced) * 1e3
        metrics[tracing.OVERHEAD] = traced_p50_ms / p50_ms - 1.0
        units = dict(tracing.METRICS)
        details["traced_op_mean_ms"] = statistics.fmean(r.seconds for r in traced) * 1e3
        details["self_ms_sum"] = sum(v for k, v in metrics.items() if k.endswith(".self_ms"))
        if spans_path is not None:
            tracer.write(spans_path)
    else:
        metrics = {
            "setup_s": statistics.median(setup_times),
            "throughput_ops_per_s": len(untraced) / wall,
            "latency_p50_ms": p50_ms,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        units = dict(END_TO_END)
    result = {
        "correct": not failures,
        "attempted": len(checked),
        "failed": len(failures),
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }
    return result, details
