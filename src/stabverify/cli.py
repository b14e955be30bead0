"""Command-line front end.

    stabverify analyze DATA [--trials N] [--seed S] [--partitions ...] ...
    stabverify simulate --graph path:4 --noise z=0.02 --shots 100000 --out f.json
    stabverify robustness INPUT [--partitions all] [--method dense|reduced]

DATA is a measurement-record JSON file; bundled example datasets table1.json
and table2.json resolve by name if no local file shadows them.  Exit codes:
0 success, 2 malformed input (including a bad --partitions entry, a
negative --seed, --trials outside MIN_TRIALS..MAX_TRIALS, a simulate graph
above MAX_SIMULATE_QUBITS or --shots outside 1..MAX_SHOTS), 3 robustness
solve not possible (no full group, or more qubits than the solver path's
cap: 5 for dense, 12 for reduced) or not converged, or rg_min beyond the
double range.  At exit 3
both analyze and robustness still emit a partial report, and stderr holds
one error: line.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys
from dataclasses import dataclass, field
from importlib import resources

from . import __version__
from .bounds import MAX_TRIALS, MIN_TRIALS, GeneratorData, bound_report, er_lower_from_state
from .operators import graph_diagonal_operator
from .pauli import Graph, LocalFrame, NotTwoColorableError, StabilizerCodec, two_coloring
from .presets import FRAME_PRESETS, GRAPH_PRESETS
from .reconstruct import (GraphDiagonalState, MeasurementRecord, _load_json, load_record,
                          load_record_or_state, ml_fit, raw_fidelity, raw_purity, save_record)
from .sdp import (all_bipartitions, canonical_partitions, check_solver_size, ppt_robustness,
                  symmetry_reduced_robustness)
from .simulate import NoiseModel, apply_noise, exact_expectations, generator_indices, sample_record
from .solver import SdpConvergenceError

EXIT_OK = 0
EXIT_BAD_INPUT = 2
EXIT_SDP = 3

# simulate forms all 2^n graph-basis populations of its state (and, with
# --indices all, 2^n - 1 rows); at this cap it peaks at about 85 MB RSS
MAX_SIMULATE_QUBITS = 16
MAX_SHOTS = 2 ** 63 - 1  # the shot draws and the records count shots in int64


@dataclass
class Report:
    """Analysis results; every numeric leaf carries a provenance tag."""

    sections: dict = field(default_factory=dict)

    def add(self, section: str, name: str, value: float, provenance: str,
            sigma: float | None = None):
        leaf = {"value": float(value), "provenance": provenance}
        if sigma is not None:
            leaf["sigma"] = float(sigma)
        self.sections.setdefault(section, {})[name] = leaf

    def set_section(self, section: str, payload):
        self.sections[section] = payload

    def to_json(self) -> str:
        return _json_text(self.sections, "")

    def to_text(self) -> str:
        lines = []
        for section, payload in self.sections.items():
            lines.append(f"[{section}]")
            if isinstance(payload, dict):
                for name, leaf in payload.items():
                    if isinstance(leaf, dict) and "value" in leaf:
                        txt = f"  {name:<18} {leaf['value']:.12g}"
                        if "sigma" in leaf:
                            txt += f" +/- {leaf['sigma']:.12g}"
                        txt += f"   ({leaf['provenance']})"
                        lines.append(txt)
                    else:
                        lines.append(f"  {name:<18} {json.dumps(leaf)}")
            else:
                lines.append(f"  {json.dumps(payload)}")
        return "\n".join(lines) + "\n"

    def emit(self, fmt: str):
        if fmt == "json":
            sys.stdout.write(self.to_json() + "\n")
        else:
            sys.stdout.write(self.to_text())


# lists go on one line without spaces: a full-group record's report lists
# all 2^n - 1 measured indices
_ENCODER = json.JSONEncoder(allow_nan=False, separators=(",", ":"))


def _json_text(value, indent: str) -> str:
    """Strict JSON of value: an object's members one per line, indented by one
    space more than the object; a list or scalar on one line, without spaces,
    by the C encoder."""
    if not isinstance(value, dict) or not value:
        return _ENCODER.encode(value)
    inner = indent + " "
    members = ",\n".join(f"{inner}{_ENCODER.encode(key)}: {_json_text(v, inner)}"
                          for key, v in value.items())
    return "{\n" + members + "\n" + indent + "}"


def _resolve_data_path(path: str) -> str:
    if os.path.exists(path):
        return path
    if os.path.basename(path) == path:  # bare names may refer to bundled data
        bundled = resources.files("stabverify").joinpath("data", path)
        if bundled.is_file():
            return str(bundled)
    raise FileNotFoundError(f"no such file: {path}")


def _simulable(n: int) -> int:
    if n > MAX_SIMULATE_QUBITS:
        raise ValueError(f"simulate is capped at {MAX_SIMULATE_QUBITS} qubits "
                         f"(it forms all 2^n populations); the graph has {n}")
    return n


def _check_range(option: str, value: int, low: int, high: int | None = None) -> None:
    """Refuse, with a ValueError naming the option, a value below low or above high."""
    if value < low:
        raise ValueError(f"{option} must be at least {low} (got {value})")
    if high is not None and value > high:
        raise ValueError(f"{option} must be at most {high} (got {value})")


def _read_option_file(option: str, path: str, parse):
    doc = _load_json(path)  # a syntax error names the path, a content error the option
    try:
        return parse(doc)
    except ValueError as exc:
        raise ValueError(f"{option} {path}: {exc}") from None


def _parse_graph(spec: str, frame_name: str | None = None) -> Graph:
    """The --graph of simulate, refused above MAX_SIMULATE_QUBITS before a
    path is built."""
    if spec in GRAPH_PRESETS:
        return GRAPH_PRESETS[spec]
    if spec.startswith("path:"):
        try:
            n = int(spec[len("path:"):])
        except ValueError:
            raise ValueError(f"--graph {spec!r}: expected path:N with N a whole number") from None
        _simulable(n)
        # a preset frame pins the vertex labeling of its own chain
        if frame_name in GRAPH_PRESETS and GRAPH_PRESETS[frame_name].n == n:
            return GRAPH_PRESETS[frame_name]
        return Graph.path(n)
    graph = _read_option_file("--graph", spec, Graph.from_json_dict)
    _simulable(graph.n)
    return graph


def _parse_frame(spec: str | None, n: int) -> LocalFrame:
    if spec is None or spec == "identity":
        return LocalFrame.identity(n)
    if spec in FRAME_PRESETS:
        frame = FRAME_PRESETS[spec]
    else:
        frame = _read_option_file("--frame", spec, LocalFrame.from_json_list)
    if frame.n != n:
        raise ValueError(f"--frame {spec} lists {frame.n} qubits; the graph has {n}")
    return frame


def _noise_number(text: str, spec: str) -> float:
    try:
        return float(text)
    except ValueError:
        raise ValueError(f"--noise {spec!r}: {text!r} is not a number") from None


def _parse_noise(specs, n: int) -> NoiseModel:
    eps = [0.0] * n
    w = 0.0
    for spec in specs or []:
        key, _, val = spec.partition("=")
        key = key.strip().lower()
        if key == "z":
            parts = [_noise_number(v, spec) for v in val.split(",")]
            if len(parts) == 1:
                eps = [parts[0]] * n
            elif len(parts) == n:
                eps = parts
            else:
                raise ValueError(f"noise z= needs 1 or {n} values, got {len(parts)}")
        elif key == "w":
            w = _noise_number(val, spec)
        else:
            raise ValueError(f"unknown noise component {key!r} (use z= or w=)")
    return NoiseModel(tuple(eps), w)


ALL_CUTS = "all"


def _parse_partitions(specs, n: int):
    """Canonical partitions from --partitions entries: None if not given, and
    ALL_CUTS for 'all', which ``_run_sdp`` expands with ``all_bipartitions``
    (2^(n-1) - 1 cuts) only once it has a state to solve."""
    if specs is None:
        return None
    out = []
    for spec in specs:
        if spec == "all":
            return ALL_CUTS
        try:
            out.append(tuple(int(tok) for tok in spec.split(",") if tok.strip()))
        except ValueError:
            raise ValueError(
                f"--partitions {spec!r}: expected 'all' or comma-separated qubit numbers"
            ) from None
    return canonical_partitions(n, out)


def _input_digest(record: MeasurementRecord, path: str) -> dict:
    return {
        "path": path,
        "n": record.n,
        "edges": sorted(list(e) for e in record.graph.edges),
        "measured_indices": record.measured_indices(),
        "full_group": record.has_full_group(),
        "generators_present": record.has_generators(),
    }


def cmd_analyze(args) -> int:
    try:
        # refused before the record is read and fitted, not by bound_report after
        _check_range("--trials", args.trials, MIN_TRIALS, MAX_TRIALS)
        _check_range("--seed", args.seed, 0)
        path = _resolve_data_path(args.data)
        record = load_record(path)
        partitions = _parse_partitions(args.partitions, record.n)
        state = ml_fit(record) if record.has_full_group() else None
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_BAD_INPUT

    report = Report()
    report.set_section("input", _input_digest(record, args.data))
    b_size = None
    try:
        b_size = two_coloring(record.graph).b_size
    except (NotTwoColorableError, ValueError) as exc:
        report.set_section("two_coloring", {"error": str(exc)})

    if state is not None:
        f, fs = raw_fidelity(record)
        m, _ = record.full_vector()
        report.add("raw", "fidelity", f, "raw", sigma=fs)
        report.add("raw", "purity", raw_purity(m), "raw")
        report.add("ml", "fidelity", state.fidelity, "ml")
        report.add("ml", "purity", state.purity(), "ml")
        report.add("ml", "entropy", state.entropy(), "ml")
        if b_size is not None:
            report.add("ml", "er_lower", er_lower_from_state(state, b_size), "ml")

    code = EXIT_OK
    if record.has_generators() and b_size is not None:
        a, s = record.generator_values()
        try:
            rep = bound_report(GeneratorData(a, s), b_size, trials=args.trials, seed=args.seed)
        except OverflowError as exc:  # rg_min beyond the double range
            print(f"error: {exc}", file=sys.stderr)
            report.set_section("generator_bounds", {"error": str(exc)})
            code = EXIT_SDP
        else:
            report.set_section("generator_bounds", rep.to_json_dict())

    if partitions:
        code = _run_sdp(report, state, record.graph, record.frame,
                        partitions, args.method)[0] or code
    report.emit(args.format)
    return code


def _run_sdp(report: Report, state: GraphDiagonalState | None, graph, frame,
             partitions, method: str):
    """The report's sdp section for both commands, and the exit code with the
    cuts solved.  ALL_CUTS is expanded only once a state exists; without one
    (no full stabilizer group), beyond a size cap, or when the solve or its
    certificate fails, the section holds the error, which also goes to stderr
    as one error: line, and the code is EXIT_SDP."""
    try:
        if state is None:
            raise ValueError("PPT robustness needs a reconstructed state (full "
                             "stabilizer group); generator-only data gives the "
                             "rg_min bound instead")
        if partitions == ALL_CUTS:
            partitions = all_bipartitions(graph.n)
        check_solver_size(graph.n, method)  # before rho is built
        if method == "dense":
            rho = graph_diagonal_operator(state.p, graph, frame)
            sol = ppt_robustness(rho, partitions)
        else:
            sol = symmetry_reduced_robustness(state, graph, frame, partitions)
    except (SdpConvergenceError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        section = {"error": str(exc)}
        if isinstance(exc, SdpConvergenceError) and exc.result is not None:
            section["best_objective"] = exc.result.objective
            section["best_gap"] = exc.result.gap
        report.set_section("sdp", section)
        return EXIT_SDP, partitions
    report.set_section("sdp", sol.to_json_dict())
    return EXIT_OK, partitions


def cmd_simulate(args) -> int:
    try:
        _check_range("--seed", args.seed, 0)
        _check_range("--shots", args.shots, 1, MAX_SHOTS)
        graph = _parse_graph(args.graph, args.frame)
        frame = _parse_frame(args.frame, graph.n)
        model = _parse_noise(args.noise, graph.n)
        state = apply_noise(graph, model)
        if args.indices == "generators":
            ks = generator_indices(graph.n)
        else:
            ks = range(1, 1 << graph.n)
        record = sample_record(state, graph, frame, indices=ks,
                               shots=args.shots, seed=args.seed)
        save_record(record, args.out)
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_BAD_INPUT
    m = exact_expectations(state)
    ks = record.measured_indices()
    print(f"wrote {args.out} ({record.k.size} entries, {args.shots} shots)")
    print("exact expectations:")
    for k, pauli in zip(ks, StabilizerCodec(graph, frame).encode(ks)):
        print(f"  k={k:0{graph.n}b} {pauli:>{graph.n + 1}}  m = {m[k]:.12g}")
    return EXIT_OK


def cmd_robustness(args) -> int:
    try:
        doc = load_record_or_state(_resolve_data_path(args.input))
        if isinstance(doc, MeasurementRecord):
            state = ml_fit(doc) if doc.has_full_group() else None
            graph, frame = doc.graph, doc.frame
        else:
            graph, frame, state = doc
        partitions = _parse_partitions(args.partitions, graph.n) or ALL_CUTS
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_BAD_INPUT

    report = Report()
    listing = {"path": args.input, "n": graph.n}
    report.set_section("input", listing)
    code, partitions = _run_sdp(report, state, graph, frame, partitions, args.method)
    if partitions != ALL_CUTS:
        listing["partitions"] = [list(t) for t in partitions]
    report.emit(args.format)
    return code


@functools.cache  # built once per process; parse_args keeps no state between calls
def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="stabverify",
        description="Entanglement verification for graph-state experiments "
                    "from stabilizer measurement data.",
    )
    ap.add_argument("--version", action="version", version=f"stabverify {__version__}")
    sub = ap.add_subparsers(dest="command", required=True)

    pa = sub.add_parser("analyze", help="full analysis of a measurement record")
    pa.add_argument("data", help="record JSON file (or bundled name, e.g. table1.json)")
    pa.add_argument("--format", choices=("text", "json"), default="text")
    pa.add_argument("--trials", type=int, default=10_000,
                    help=f"Monte-Carlo trials for error bars (default 10000, "
                         f"at least {MIN_TRIALS}, at most {MAX_TRIALS})")
    pa.add_argument("--seed", type=int, default=0,
                    help="seed of the Monte-Carlo draws, at least 0 (default 0)")
    pa.add_argument("--partitions", action="append",
                    help="'all' or comma-separated qubits; repeatable; "
                         "enables the PPT robustness solve")
    pa.add_argument("--method", choices=("reduced", "dense"), default="reduced",
                    help="robustness solver path (default reduced)")
    pa.set_defaults(fn=cmd_analyze)

    ps = sub.add_parser("simulate", help="write a synthetic measurement record")
    ps.add_argument("--graph", required=True,
                    help=f"path:N, paper4, paper6, or a graph JSON file; at most "
                         f"{MAX_SIMULATE_QUBITS} qubits, where simulate peaks at about "
                         f"85 MB RSS")
    ps.add_argument("--frame", default=None,
                    help="identity (default), paper4, paper6, or a frame JSON file")
    ps.add_argument("--noise", action="append",
                    help="z=eps or z=e1,...,en (graph-basis flips), w=weight "
                         "(depolarizing); repeatable")
    ps.add_argument("--shots", type=int, default=10_000,
                    help=f"shots per measured index (default 10000, at least 1, "
                         f"at most {MAX_SHOTS} = 2^63 - 1)")
    ps.add_argument("--seed", type=int, default=0,
                    help="seed of the shot sampling, at least 0 (default 0)")
    ps.add_argument("--indices", choices=("all", "generators"), default="all")
    ps.add_argument("--out", required=True)
    ps.set_defaults(fn=cmd_simulate)

    pr = sub.add_parser("robustness", help="PPT robustness of a reconstructed state")
    pr.add_argument("input", help="record JSON (full group) or state JSON with a 'p' vector")
    pr.add_argument("--partitions", action="append",
                    help="'all' (default) or comma-separated qubits; repeatable")
    pr.add_argument("--method", choices=("reduced", "dense"), default="reduced")
    pr.add_argument("--format", choices=("text", "json"), default="text")
    pr.set_defaults(fn=cmd_robustness)
    return ap


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    return args.fn(args)


if __name__ == "__main__":
    sys.exit(main())
