import contextlib
import io
import json
import math
import os
import re
import subprocess
import sys
import time
import warnings
from pathlib import Path

import numpy as np
import pytest

import stabverify
from conftest import run_cli, run_json, strict_json
from stabverify import cli
from stabverify.bounds import MAX_TRIALS
from stabverify.cli import Report, main


class TestAnalyzeBundled:
    def test_table1_numbers(self, capsys):
        code, rep, _ = run_json(capsys, "analyze", "table1.json", "--trials", "2000")
        assert code == 0
        gb = rep["generator_bounds"]
        assert abs(gb["f_min"]["value"] - 0.8455) < 5e-4
        assert abs(gb["p_min"]["value"] - 0.715) < 5e-3
        assert abs(gb["rg_min"]["value"] - 2.382) < 5e-3
        assert 1.757 <= gb["lrg_min"]["value"] <= 1.760
        assert abs(gb["er_min"]["value"] - 1.120) < 2e-3
        assert gb["f_min"]["provenance"] == "generator-bound"
        assert rep["input"]["full_group"] is False

    def test_table2_numbers(self, capsys):
        code, rep, _ = run_json(capsys, "analyze", "table2.json", "--trials", "2000")
        assert code == 0
        gb = rep["generator_bounds"]
        assert abs(gb["f_min"]["value"] - 0.5445) < 5e-4
        assert abs(gb["p_min"]["value"] - 0.297) < 5e-3
        assert abs(gb["rg_min"]["value"] - 3.356) < 1e-2
        assert abs(gb["er_min"]["value"] - 1.013) < 2e-3

    def test_text_and_json_numbers_identical(self, capsys):
        code, rep, _ = run_json(capsys, "analyze", "table1.json", "--trials", "1500",
                                "--seed", "3")
        code2, text, _ = run_cli(capsys, "analyze", "table1.json", "--trials", "1500",
                                 "--seed", "3")
        assert code == code2 == 0
        for name, leaf in rep["generator_bounds"].items():
            m = re.search(rf"{name}\s+([-\d.e+]+) \+/- ([-\d.e+]+)", text)
            assert m, f"{name} missing from text report"
            assert abs(float(m.group(1)) - leaf["value"]) <= 1e-9 * (1 + abs(leaf["value"]))
            assert abs(float(m.group(2)) - leaf["sigma"]) <= 1e-9 * (1 + abs(leaf["sigma"]))

    def test_report_json_roundtrips(self, capsys):
        code, rep, _ = run_json(capsys, "analyze", "table2.json", "--trials", "1000")
        assert code == 0
        assert json.loads(json.dumps(rep)) == rep


class TestJsonLayout:
    @pytest.fixture(scope="class")
    def reports(self, tmp_path_factory):
        """(json, text) of analyze on a noisy 4-qubit full-group record, with
        every section: input, raw, ml, generator_bounds and sdp."""
        out = tmp_path_factory.mktemp("layout") / "full4.json"
        argv = ["--trials", "1000", "--partitions", "all"]
        assert main(["simulate", "--graph", "paper4", "--frame", "paper4", "--noise",
                     "z=0.04", "--shots", "5000", "--seed", "2", "--out", str(out)]) == 0
        texts = []
        for fmt in ("json", "text"):
            buf = io.StringIO()
            with contextlib.redirect_stdout(buf):
                assert main(["analyze", str(out), *argv, "--format", fmt]) == 0
            texts.append(buf.getvalue())
        return texts

    def test_objects_indented_lists_inline(self, reports):
        text = reports[0]
        doc = strict_json(text)
        assert doc["input"]["measured_indices"] == list(range(1, 16))
        lines = text.splitlines()
        assert lines[0] == "{" and lines[-1] == "}" and text.endswith("}\n")
        depth = 0
        for line in lines:  # objects open a line each, one space deeper
            body = line.lstrip(" ")
            depth -= body.startswith("}")
            assert len(line) - len(body) == depth, line
            depth += body.endswith("{")
            # a list opens and closes on one line
            assert line.count("[") == line.count("]"), line
        assert depth == 0
        assert '"measured_indices": [1,2,3,' in text
        assert '"partitions": [[1],[1,2],[1,3],[1,2,3],[1,4],[1,2,4],[1,3,4]],' in text

    def test_text_and_json_carry_the_same_numbers(self, reports):
        doc, text = strict_json(reports[0]), reports[1]
        lines = text.splitlines()
        for section, payload in doc.items():
            assert f"[{section}]" in lines
            for name, leaf in payload.items():
                if isinstance(leaf, dict) and "value" in leaf:
                    prefix = f"  {name:<18} {leaf['value']:.12g}"
                    if "sigma" in leaf:
                        prefix += f" +/- {leaf['sigma']:.12g}"
                    assert any(line.startswith(prefix) for line in lines), prefix
                else:
                    assert f"  {name:<18} {json.dumps(leaf)}" in lines, name


class TestSimulate:
    def test_deterministic_output(self, tmp_path, capsys):
        f1, f2 = tmp_path / "a.json", tmp_path / "b.json"
        for f in (f1, f2):
            code, out, _ = run_cli(
                capsys, "simulate", "--graph", "path:4", "--noise", "z=0.02",
                "--shots", "100000", "--seed", "7", "--out", str(f),
            )
            assert code == 0
            assert "exact expectations" in out
        assert f1.read_bytes() == f2.read_bytes()

    def test_zero_shots_rejected(self, tmp_path, capsys):
        code, _, err = run_cli(
            capsys, "simulate", "--graph", "path:4", "--shots", "0",
            "--out", str(tmp_path / "x.json"),
        )
        assert code == 2
        assert "shots" in err

    def test_bad_graph_spec(self, tmp_path, capsys):
        code, _, err = run_cli(
            capsys, "simulate", "--graph", "nope:4", "--shots", "10",
            "--out", str(tmp_path / "x.json"),
        )
        assert code == 2

    @pytest.mark.parametrize("option, spec, message", [
        ("--graph", "path:x", "--graph 'path:x': expected path:N with N a whole number"),
        ("--graph", "path:", "--graph 'path:': expected path:N with N a whole number"),
        ("--graph", "path:1.5", "--graph 'path:1.5': expected path:N with N a whole number"),
        ("--noise", "z=abc", "--noise 'z=abc': 'abc' is not a number"),
        ("--noise", "z=0.01,x,0.02", "--noise 'z=0.01,x,0.02': 'x' is not a number"),
        ("--noise", "w=abc", "--noise 'w=abc': 'abc' is not a number"),
        ("--noise", "w=", "--noise 'w=': '' is not a number"),
    ], ids=["graph-x", "graph-empty", "graph-float", "noise-z", "noise-z-list", "noise-w",
            "noise-w-empty"])
    def test_bad_graph_or_noise_spec_exits_2_naming_it(self, tmp_path, capsys, option, spec,
                                                       message):
        args = {"--graph": "path:3", "--noise": "z=0.02", option: spec}
        out = tmp_path / "x.json"
        code, stdout, err = run_cli(capsys, "simulate", "--graph", args["--graph"],
                                    "--noise", args["--noise"], "--out", str(out))
        assert code == 2 and stdout == "" and not out.exists()
        assert err == f"error: {message}\n"

    @pytest.mark.parametrize("text", ["[" * 200_000, '{"n": 3 "edges": []}'],
                             ids=["nested", "syntax"])
    @pytest.mark.parametrize("option", ["--graph", "--frame"])
    def test_unreadable_graph_or_frame_file_exits_2_naming_it(self, tmp_path, capsys, option,
                                                              text):
        # read by the one JSON reader of records and state documents
        f = tmp_path / "spec.json"
        f.write_text(text)
        args = {"--graph": "path:3", "--frame": "identity", option: str(f)}
        out = tmp_path / "x.json"
        code, stdout, err = run_cli(capsys, "simulate", "--graph", args["--graph"],
                                    "--frame", args["--frame"], "--out", str(out))
        assert code == 2 and stdout == "" and not out.exists()
        assert err.startswith(f"error: {f}: invalid JSON") and len(err.splitlines()) == 1

    @pytest.mark.parametrize("option, doc, message", [
        ("--graph", {"n": "3"}, "graph 'n' must be an integer"),
        ("--frame", [{"X": "+Z"}], "'frame' must be a list"),
    ], ids=["graph", "frame"])
    def test_malformed_graph_or_frame_content_names_the_option(self, tmp_path, capsys, option,
                                                               doc, message):
        f = tmp_path / "spec.json"
        f.write_text(json.dumps(doc))
        args = {"--graph": "path:1", "--frame": "identity", option: str(f)}
        code, stdout, err = run_cli(capsys, "simulate", "--graph", args["--graph"],
                                    "--frame", args["--frame"], "--out", str(tmp_path / "x.json"))
        assert code == 2 and stdout == ""
        assert err.startswith(f"error: {option} {f}: {message}") and len(err.splitlines()) == 1

    @pytest.mark.parametrize("frame", ["file", "paper4"])
    def test_frame_for_another_qubit_count_exits_2_naming_it(self, tmp_path, capsys, frame):
        if frame == "file":
            frame = str(tmp_path / "frame1.json")
            Path(frame).write_text(json.dumps([{"X": "+Z", "Z": "+X"}]))
        code, out, err = run_cli(capsys, "simulate", "--graph", "path:2", "--frame", frame,
                                 "--out", str(tmp_path / "x.json"))
        assert code == 2 and out == ""
        assert err.startswith(f"error: --frame {frame} lists ") and "the graph has 2" in err
        assert len(err.splitlines()) == 1

    @pytest.mark.parametrize("graph", ["path:17", "path:40", "file"])
    def test_beyond_the_qubit_cap_exits_2_at_once(self, tmp_path, capsys, monkeypatch, graph):
        # the state's 2^n populations are never formed (8 TiB at 40 qubits),
        # nor is the path itself, which costs O(n) for path:1000000000
        def refuse(n):
            raise AssertionError(f"Graph.path({n}) built beyond the cap")

        monkeypatch.setattr(stabverify.Graph, "path", refuse)
        if graph == "file":
            graph = str(tmp_path / "graph.json")
            Path(graph).write_text(json.dumps({"n": 40, "edges": [[1, 2]]}))
        out = tmp_path / "x.json"
        start = time.perf_counter()
        code, stdout, err = run_cli(capsys, "simulate", "--graph", graph,
                                    "--indices", "generators", "--out", str(out))
        assert time.perf_counter() - start < 1.0
        assert code == 2 and stdout == "" and not out.exists()
        assert err.startswith("error: simulate is capped at 16 qubits")
        assert len(err.splitlines()) == 1

    def test_paper6_preset_generators_match_bundled_table(self, tmp_path, capsys):
        out = tmp_path / "p6.json"
        code, _, _ = run_cli(
            capsys, "simulate", "--graph", "path:6", "--frame", "paper6",
            "--indices", "generators", "--shots", "50", "--out", str(out),
        )
        assert code == 0
        data = json.loads(out.read_text())
        got = [row["pauli"] for row in data["measurements"]]
        assert got == ["XXIXII", "ZZIIZI", "-IIZIIZ", "ZIIZII", "-IXIIXZ", "IIXIZX"]

    def test_full_pipeline_ideal_state(self, tmp_path, capsys):
        out = tmp_path / "ideal.json"
        code, _, _ = run_cli(
            capsys, "simulate", "--graph", "path:4", "--shots", "100",
            "--seed", "1", "--out", str(out),
        )
        assert code == 0
        code, rep, _ = run_json(capsys, "analyze", str(out), "--trials", "1000")
        assert code == 0
        assert abs(rep["raw"]["fidelity"]["value"] - 1.0) < 1e-12
        assert abs(rep["ml"]["fidelity"]["value"] - 1.0) < 1e-9

    @pytest.mark.parametrize("graph,frame", [("paper4", "paper4"), ("path:1", "identity")])
    def test_pure_fit_entropy_is_positive_zero(self, tmp_path, capsys, graph, frame):
        # a noiseless record fits a pure state, whose entropy must print as
        # 0, not as the -0 of a negated zero sum
        out = tmp_path / "pure.json"
        code, _, _ = run_cli(capsys, "simulate", "--graph", graph, "--frame", frame,
                             "--shots", "1000", "--out", str(out))
        assert code == 0
        code, rep, _ = run_json(capsys, "analyze", str(out))
        entropy = rep["ml"]["entropy"]["value"]
        assert code == 0 and entropy == 0.0 and math.copysign(1.0, entropy) == 1.0
        code, text, _ = run_cli(capsys, "analyze", str(out))
        assert code == 0 and re.search(r"^\s*entropy\s+0\s+\(ml\)$", text, re.M)


class TestRobustnessCommand:
    def write_state(self, tmp_path, n, edges, p):
        f = tmp_path / "state.json"
        f.write_text(json.dumps({"graph": {"n": n, "edges": edges}, "p": list(p)}))
        return str(f)

    def test_pure_4path_state_file(self, tmp_path, capsys):
        p = [0.0] * 16
        p[0] = 1.0
        f = self.write_state(tmp_path, 4, [[1, 2], [2, 3], [3, 4]], p)
        code, rep, _ = run_json(capsys, "robustness", f)
        assert code == 0
        assert abs(rep["sdp"]["value"]["value"] - 3.0) < 1e-4
        assert rep["sdp"]["duality_gap"] <= 1e-6 * 4

    def test_bell_state_file(self, tmp_path, capsys):
        f = self.write_state(tmp_path, 2, [[1, 2]], [1.0, 0.0, 0.0, 0.0])
        code, rep, _ = run_json(capsys, "robustness", f)
        assert code == 0
        assert abs(rep["sdp"]["value"]["value"] - 1.0) < 1e-5

    def test_separable_state_file(self, tmp_path, capsys):
        f = self.write_state(tmp_path, 2, [[1, 2]], [0.25] * 4)
        code, rep, _ = run_json(capsys, "robustness", f)
        assert code == 0
        assert rep["sdp"]["value"]["value"] == 0.0

    @pytest.mark.parametrize("method", ["reduced", "dense"])
    def test_ppt_state_prints_positive_zeros(self, tmp_path, capsys, method):
        # sigma = 0 is certified with a zero dual; no number may print as -0
        f = self.write_state(tmp_path, 2, [[1, 2]], [0.25] * 4)
        code, rep, _ = run_json(capsys, "robustness", f, "--method", method)
        sdp = rep["sdp"]
        assert code == 0 and sdp["iterations"] == 0
        for v in (sdp["value"]["value"], sdp["duality_gap"], sdp["dual_value"],
                  sdp["sigma_min_eig"]):
            assert v == 0.0 and math.copysign(1.0, v) == 1.0

    def test_sdp_section_is_the_solution_json(self, tmp_path, capsys):
        # one serializer: the section is SdpSolution.to_json_dict() as it
        # stands, with value a leaf that names its provenance
        p = [0.8, 0.1, 0.06, 0.04]
        f = self.write_state(tmp_path, 2, [[1, 2]], p)
        code, rep, _ = run_json(capsys, "robustness", f)
        sol = stabverify.symmetry_reduced_robustness(np.array(p), stabverify.Graph.path(2))
        assert code == 0
        assert list(rep["sdp"].items()) == list(json.loads(json.dumps(sol.to_json_dict())).items())
        assert sol.to_json_dict()["value"] == {"value": sol.value, "provenance": "sdp"}
        assert rep["sdp"]["provenance"] == "sdp"

    def test_dense_method_agrees(self, tmp_path, capsys):
        f = self.write_state(tmp_path, 2, [[1, 2]], [0.8, 0.1, 0.06, 0.04])
        code, rep_r, _ = run_json(capsys, "robustness", f)
        code2, rep_d, _ = run_json(capsys, "robustness", f, "--method", "dense")
        assert code == code2 == 0
        assert abs(rep_r["sdp"]["value"]["value"] - rep_d["sdp"]["value"]["value"]) < 1e-6

    def test_generator_only_input_explains(self, tmp_path, capsys):
        out = tmp_path / "gen.json"
        run_cli(capsys, "simulate", "--graph", "path:4", "--indices", "generators",
                "--shots", "200", "--seed", "2", "--out", str(out))
        code, _, err = run_cli(capsys, "robustness", str(out))
        assert code == 3
        assert "rg_min" in err

    def test_record_input_runs_fit_first(self, tmp_path, capsys):
        out = tmp_path / "full.json"
        run_cli(capsys, "simulate", "--graph", "path:4", "--noise", "z=0.03",
                "--shots", "20000", "--seed", "5", "--out", str(out))
        code, rep, _ = run_json(capsys, "robustness", str(out), "--partitions", "all")
        assert code == 0
        assert rep["sdp"]["value"]["value"] > 1.5

    def test_single_partition_flag(self, tmp_path, capsys):
        f = self.write_state(tmp_path, 2, [[1, 2]], [1.0, 0.0, 0.0, 0.0])
        code, rep, _ = run_json(capsys, "robustness", f, "--partitions", "1")
        assert code == 0
        assert abs(rep["sdp"]["value"]["value"] - 1.0) < 1e-5

    def test_repeated_calls_carry_no_options_over(self, tmp_path, capsys):
        # one parser serves every call in a process: appended lists and
        # non-default choices must not leak into the next call
        assert cli.build_parser() is cli.build_parser()
        p = [0.0] * 8
        p[0] = 1.0
        f = self.write_state(tmp_path, 3, [[1, 2], [2, 3]], p)
        calls = [
            (["--partitions", "1", "--partitions", "2", "--method", "dense"],
             [[1], [1, 3]], "dense"),
            (["--partitions", "3"], [[1, 2]], "reduced"),
            ([], [[1], [1, 2], [1, 3]], "reduced"),  # all cuts
        ]
        for _ in range(2):
            for argv, partitions, method in calls:
                code, rep, _ = run_json(capsys, "robustness", f, *argv)
                assert code == 0
                assert rep["input"]["partitions"] == partitions
                assert rep["sdp"]["method"] == method
        code, out, _ = run_cli(capsys, "robustness", f)
        assert code == 0 and not out.lstrip().startswith("{")
        args = cli.build_parser().parse_args(["analyze", "table1.json"])
        assert (args.partitions, args.trials, args.seed, args.format, args.method) == (
            None, 10_000, 0, "text", "reduced")

    def test_refused_certificate_exits_3_with_a_report(self, tmp_path, capsys, monkeypatch):
        import stabverify.sdp as sdp

        real = sdp.solve_conic

        def zero_dual(c, block, x0):
            res = real(c, block, x0)
            res.dual = 0.0 * res.dual
            return res

        monkeypatch.setattr(sdp, "solve_conic", zero_dual)
        f = self.write_state(tmp_path, 2, [[1, 2]], [1.0, 0.0, 0.0, 0.0])
        code, out, err = run_cli(capsys, "robustness", f, "--format", "json")
        assert code == 3
        assert err.startswith("error: certified duality gap") and len(err.splitlines()) == 1
        rep = strict_json(out)
        assert rep["input"]["partitions"] == [[1]]
        assert rep["sdp"] == {"error": err.removeprefix("error: ").strip()}


    def test_failed_nt_scaling_exits_3_with_the_best_iterate(self, tmp_path, capsys,
                                                             monkeypatch):
        # steps twice as long as the cone allows leave a dual stack that is
        # not positive definite, so the next NT scaling cannot factor it
        import stabverify.solver as solver

        monkeypatch.setattr(solver, "STEP_FRAC", 2.0)
        f = self.write_state(tmp_path, 2, [[1, 2]], [0.9, 0.1, 0.0, 0.0])
        code, out, err = run_cli(capsys, "robustness", f, "--method", "dense",
                                 "--format", "json")
        assert code == 3
        assert err.startswith("error: NT scaling failed at iteration ")
        assert len(err.splitlines()) == 1 and "Traceback" not in err
        section = strict_json(out)["sdp"]
        assert section["error"] == err.removeprefix("error: ").strip()
        assert np.isfinite(section["best_objective"]) and section["best_gap"] >= 0


class TestNonBipartiteGraph:
    def test_triangle_graph_full_analysis(self, tmp_path, capsys):
        # no two-coloring, so generator bounds are unavailable, but raw/ml
        # reconstruction and the robustness solve still run
        gfile = tmp_path / "triangle.json"
        gfile.write_text(json.dumps({"n": 3, "edges": [[1, 2], [2, 3], [1, 3]]}))
        out = tmp_path / "rec.json"
        code, _, _ = run_cli(
            capsys, "simulate", "--graph", str(gfile), "--noise", "z=0.05",
            "--shots", "5000", "--seed", "4", "--out", str(out),
        )
        assert code == 0
        code, rep, _ = run_json(capsys, "analyze", str(out), "--partitions", "all",
                                "--trials", "1000")
        assert code == 0
        assert "error" in rep["two_coloring"]
        assert "generator_bounds" not in rep
        assert rep["raw"]["fidelity"]["value"] > 0.5
        assert rep["sdp"]["value"]["value"] > 0

    def test_analyze_dense_method(self, tmp_path, capsys):
        out = tmp_path / "rec.json"
        run_cli(capsys, "simulate", "--graph", "path:3", "--noise", "z=0.02",
                "--shots", "5000", "--seed", "6", "--out", str(out))
        code, rep_r, _ = run_json(capsys, "analyze", str(out), "--partitions", "all",
                                  "--trials", "1000")
        code2, rep_d, _ = run_json(capsys, "analyze", str(out), "--partitions", "all",
                                   "--method", "dense", "--trials", "1000")
        assert code == code2 == 0
        vr = rep_r["sdp"]["value"]["value"]
        vd = rep_d["sdp"]["value"]["value"]
        assert abs(vr - vd) < 1e-5


class TestAnalyzeErrors:
    def test_missing_file(self, capsys):
        code, _, err = run_cli(capsys, "analyze", "no-such-file.json")
        assert code == 2
        assert "no such file" in err

    def test_invalid_json(self, tmp_path, capsys):
        f = tmp_path / "bad.json"
        f.write_text("{nope")
        code, _, err = run_cli(capsys, "analyze", str(f))
        assert code == 2
        assert "invalid JSON" in err

    @pytest.mark.parametrize("command", ["analyze", "robustness"])
    def test_nesting_beyond_the_parser_exits_2(self, tmp_path, capsys, command):
        # json.load raises RecursionError: a traceback and exit 1
        f = tmp_path / "deep.json"
        f.write_text("[" * 100_000 + "]" * 100_000)
        code, out, err = run_cli(capsys, command, str(f))
        assert code == 2 and out == ""
        assert err.startswith("error:") and "invalid JSON" in err
        assert len(err.strip().splitlines()) == 1

    def test_operator_mismatch_diagnostic(self, tmp_path, capsys):
        f = tmp_path / "bad2.json"
        f.write_text(json.dumps({
            "graph": {"n": 4, "edges": [[1, 2], [2, 3], [3, 4]]},
            "measurements": [{"pauli": "XYZI", "value": 0.5}],
        }))
        code, _, err = run_cli(capsys, "analyze", str(f))
        assert code == 2
        assert "measurements[0]" in err

    @pytest.mark.parametrize("trials", ["0", "999"])
    def test_trials_below_floor_exits_2(self, capsys, trials):
        # fewer than 1000 trials used to print "sigma": NaN and exit 0
        code, out, err = run_cli(capsys, "analyze", "table1.json", "--trials", trials,
                                 "--format", "json")
        assert code == 2
        assert out == ""
        assert "--trials must be at least 1000" in err

    def test_report_json_refuses_nan(self):
        report = Report()
        report.add("raw", "fidelity", 0.5, "raw", sigma=float("nan"))
        with pytest.raises(ValueError):
            report.to_json()

    def test_partitions_without_full_group_exits_3(self, tmp_path, capsys):
        out = tmp_path / "gen.json"
        run_cli(capsys, "simulate", "--graph", "path:4", "--indices", "generators",
                "--shots", "200", "--seed", "2", "--out", str(out))
        code, rep, err = run_json(capsys, "analyze", str(out), "--partitions", "all",
                                  "--trials", "1000")
        assert code == 3
        assert "error" in rep["sdp"]
        assert err == f"error: {rep['sdp']['error']}\n"
        assert "generator_bounds" in rep  # partial report still emitted


def _null_value_record():
    return {
        "graph": {"n": 2, "edges": [[1, 2]]},
        "measurements": [{"k": "10", "value": 0.9, "sigma": 0.01},
                         {"k": "01", "value": None, "sigma": 0.01}],
    }


def _full_group_record(**last_row):
    rows = [{"k": "10", "value": 0.9, "sigma": 0.01},
            {"k": "01", "value": 0.9, "sigma": 0.01},
            {"k": "11", "value": 0.8, **last_row}]
    return {"graph": {"n": 2, "edges": [[1, 2]]}, "measurements": rows}


def _table1_record(pauli):
    doc = json.loads(Path(stabverify.__file__).with_name("data").joinpath("table1.json")
                     .read_text())
    doc["measurements"] = [{"pauli": pauli, "value": 0.994, "sigma": 0.001}]
    return doc


def _k_record(graph=None, frame=None, **first_row):
    """A 2-qubit k-keyed full-group record with graph fields, frame and
    first-row fields replaced."""
    doc = _full_group_record(sigma=0.01)
    doc["measurements"][0].update(first_row)
    if graph is not None:
        doc["graph"].update(graph)
    if frame is not None:
        doc["frame"] = frame
    return doc


def _state(**fields):
    return {"graph": {"n": 2, "edges": [[1, 2]]}, "p": [0.8, 0.1, 0.06, 0.04], **fields}


BAD_FRAME = [{"X": 5, "Z": "+Z"}, {"X": "+X", "Z": "+Z"}]
SHORT_FRAME = [{"X": "+X", "Z": "+Z"}]


class TestMalformedDocuments:
    # each used to crash with a traceback and exit 1, or to parse
    @pytest.mark.parametrize("command", ["analyze", "robustness"])
    @pytest.mark.parametrize("doc,field", [
        ([1, 2], "JSON object"),
        ("p", "JSON object"),
        (_null_value_record(), "measurements[1]: 'value'"),
        (_full_group_record(), "positive sigma"),
        (_full_group_record(shots=0), "measurements[2]: 'shots'"),
        (_full_group_record(sigma=0.01, shots=-5), "measurements[2]: 'shots'"),
        # "+-ZZII" used to parse as the element -ZZII
        (_table1_record("+-ZZII"), "measurements[0]: operator '+-ZZII' is not a stabilizer"),
        # an AttributeError traceback
        (_k_record(frame=BAD_FRAME), "'frame'"),
        (_state(frame=BAD_FRAME), "'frame'"),
        # a frame shorter than the graph: exit 0 for analyze, 3 for robustness
        (_k_record(frame=SHORT_FRAME), "'frame' lists 1 qubits"),
        (_state(frame=SHORT_FRAME), "'frame' lists 1 qubits"),
        # silently coerced
        (_k_record(graph={"n": 2.7}), "graph 'n'"),
        (_k_record(graph={"n": True}), "graph 'n'"),
        (_k_record(graph={"edges": [[True, 2]]}), "graph 'edges'"),
        (_full_group_record(sigma=0.01, shots=2.5), "measurements[2]: 'shots'"),
        (_full_group_record(sigma=0.01, value=True), "measurements[2]: 'value'"),
        (_k_record(k=10), "measurements[0]: 'k'"),
        (_table1_record(None), "measurements[0]: 'pauli'"),
        # no rows: analyze used to exit 0 with an input digest only
        ({"graph": {"n": 2, "edges": [[1, 2]]}, "measurements": []}, "'measurements'"),
    ])
    def test_exits_2_naming_the_field(self, tmp_path, capsys, command, doc, field):
        f = tmp_path / "doc.json"
        f.write_text(json.dumps(doc))
        code, out, err = run_cli(capsys, command, str(f), "--format", "json")
        assert code == 2
        assert out == ""
        assert field in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("doc", [
        {"p": [1.0, 0.0, 0.0, 0.0]},
        {"graph": {"n": 2, "edges": [[1, 2]]}, "p": [1.0, 0.0, 0.0]},
        {"graph": {"n": 2, "edges": [[1, 2]]}, "p": None},
        {"graph": {"n": 2, "edges": [[1, 2]]}, "p": {}},
        _state(frame=BAD_FRAME),
        _state(frame=SHORT_FRAME),
        _state(p=[0.8, 0.1, 0.1, False]),
    ])
    def test_bad_state_file_exits_2(self, tmp_path, capsys, doc):
        f = tmp_path / "state.json"
        f.write_text(json.dumps(doc))
        code, out, err = run_cli(capsys, "robustness", str(f))
        assert code == 2
        assert out == ""
        assert err.startswith("error:")

    @pytest.mark.parametrize("command,doc,field", [
        ("analyze", {"graph": {"n": 10 ** 9, "edges": []}, "measurements": []}, "'measurements'"),
        ("robustness", {"graph": {"n": 10 ** 9, "edges": []}, "measurements": []},
         "'measurements'"),
        ("analyze", {"graph": {"n": 10 ** 9, "edges": []},
                     "measurements": [{"k": "1", "value": 0.9, "sigma": 0.01}]},
         "measurements[0]: bad stabilizer index string '1'"),
        ("robustness", {"graph": {"n": 10 ** 9, "edges": []}, "p": [1.0]}, "'p' must list"),
    ])
    def test_declared_n_costs_no_more_than_the_document(self, tmp_path, capsys, command,
                                                        doc, field):
        # the identity frame is built qubit by qubit (13 s and 217 MB at 2e7
        # qubits, gigabytes at 1e9), so the body is checked against n first
        f = tmp_path / "huge.json"
        f.write_text(json.dumps(doc))
        start = time.perf_counter()
        code, out, err = run_cli(capsys, command, str(f), "--format", "json")
        assert time.perf_counter() - start < 1.0
        assert code == 2 and out == ""
        assert err.startswith("error:") and field in err
        assert len(err.strip().splitlines()) == 1


class TestPartitionsInput:
    # each used to exit 1 with a ValueError traceback
    @pytest.fixture(scope="class")
    def record4(self, tmp_path_factory):
        out = tmp_path_factory.mktemp("rec") / "full4.json"
        assert main(["simulate", "--graph", "path:4", "--noise", "z=0.03",
                     "--shots", "2000", "--seed", "1", "--out", str(out)]) == 0
        return str(out)

    @pytest.mark.parametrize("command", ["analyze", "robustness"])
    @pytest.mark.parametrize("spec,named", [
        ("1,x", "'1,x'"),
        ("1,2,3,4", "[1, 2, 3, 4]"),
        ("9", "[9]"),
    ])
    def test_bad_entry_exits_2_naming_it(self, record4, capsys, command, spec, named):
        capsys.readouterr()  # drop what the fixture's simulate printed
        code, out, err = run_cli(capsys, command, record4, "--partitions", spec,
                                 "--format", "json")
        assert code == 2
        assert out == ""
        assert err.startswith("error:") and named in err
        assert len(err.strip().splitlines()) == 1

    def test_generator_record_never_expands_all(self, capsys, monkeypatch):
        # 'all' names 2^(n-1) - 1 cuts; a record without the full group has
        # no state to solve, so they are never listed
        import stabverify.cli as cli

        def refuse(n):
            raise AssertionError("all_bipartitions called for a generator-only record")

        monkeypatch.setattr(cli, "all_bipartitions", refuse)
        code, rep, _ = run_json(capsys, "analyze", "table1.json", "--trials", "1000",
                                "--partitions", "all")
        assert code == 3
        assert "full" in rep["sdp"]["error"] and "f_min" in rep["generator_bounds"]
        code, out, err = run_cli(capsys, "analyze", "table1.json", "--partitions", "1,x")
        assert code == 2 and out == "" and "'1,x'" in err

    def test_population_sum_printed_as_a_number(self, tmp_path, capsys):
        f = tmp_path / "state.json"
        f.write_text(json.dumps({"graph": {"n": 2, "edges": [[1, 2]]},
                                 "p": [0.4, 0.1, 0.1, 0.1]}))
        code, out, err = run_cli(capsys, "robustness", str(f))
        assert code == 2
        assert "populations sum to 0.7" in err
        assert "np." not in err

    def test_population_sum_that_overflows_gives_one_error_line(self, tmp_path, capsys):
        f = tmp_path / "state.json"
        f.write_text(json.dumps({"graph": {"n": 2, "edges": [[1, 2]]},
                                 "p": [1e308, 1e308, 0, 0]}))
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # outside pytest a warning reaches stderr
            code, out, err = run_cli(capsys, "robustness", str(f))
        assert code == 2 and out == ""
        assert len(err.splitlines()) == 1 and err.startswith("error:")
        assert "sum to inf" in err


class TestSolverCaps:
    def write_state(self, tmp_path, n):
        p = [0.9] + [0.1 / ((1 << n) - 1)] * ((1 << n) - 1)
        edges = [[i, i + 1] for i in range(1, n)]
        f = tmp_path / f"state{n}.json"
        f.write_text(json.dumps({"graph": {"n": n, "edges": edges}, "p": p}))
        return str(f)

    @pytest.mark.parametrize("n,method,cap", [(6, "dense", 32), (7, "dense", 32),
                                              (13, "reduced", 4096)])
    def test_beyond_cap_exits_3(self, tmp_path, capsys, n, method, cap):
        f = self.write_state(tmp_path, n)
        code, out, err = run_cli(capsys, "robustness", f, "--method", method,
                                 "--format", "json")
        assert code == 3
        assert err.startswith("error:") and f"capped at dimension {cap}" in err
        assert len(err.strip().splitlines()) == 1
        assert "capped" in strict_json(out)["sdp"]["error"]

    def test_dense_cap_in_analyze(self, tmp_path, capsys):
        out = tmp_path / "full7.json"
        run_cli(capsys, "simulate", "--graph", "path:7", "--noise", "z=0.05",
                "--shots", "1000", "--seed", "2", "--out", str(out))
        code, rep, err = run_json(capsys, "analyze", str(out), "--partitions", "1",
                                  "--method", "dense", "--trials", "1000")
        assert code == 3
        assert "capped" in err and "capped" in rep["sdp"]["error"]
        assert "ml" in rep  # partial report still emitted


def test_cli_import_leaves_scipy_out():
    # scipy is a test-only dependency: importing the CLI must not pull it in
    probe = ("import sys, stabverify.cli; "
             "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    src = str(Path(stabverify.__file__).resolve().parents[1])
    done = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": src}, check=True)
    assert done.stdout.strip() == "[]"


class TestBadOptionValues:
    # every out-of-range or malformed option value is one error: line and
    # exit 2; a negative --seed used to end in numpy's traceback (analyze)
    # or in a message that did not name the option (simulate)
    CASES = [
        ("analyze", "--seed", "-1"),
        ("analyze", "--trials", "0"),
        ("analyze", "--trials", str(MAX_TRIALS + 1)),
        ("analyze", "--partitions", "1,x"),
        ("robustness", "--partitions", "1,x"),
        ("simulate", "--seed", "-1"),
        ("simulate", "--noise", "z=abc"),
        ("simulate", "--graph", "path:x"),
        ("simulate", "--shots", "0"),
        ("simulate", "--shots", str(2 ** 63)),  # beyond int64
    ]

    @pytest.fixture(scope="class")
    def record3(self, tmp_path_factory):
        out = tmp_path_factory.mktemp("rec") / "full3.json"
        with contextlib.redirect_stdout(io.StringIO()):
            assert main(["simulate", "--graph", "path:3", "--noise", "z=0.05",
                         "--shots", "500", "--seed", "1", "--out", str(out)]) == 0
        return str(out)

    @pytest.mark.parametrize("command, option, value", CASES,
                             ids=[f"{c}{o}={v}" for c, o, v in CASES])
    def test_exits_2_with_one_error_line_naming_it(self, record3, tmp_path, capsys,
                                                   command, option, value):
        out = tmp_path / "x.json"
        if command == "simulate":
            argv = ["simulate", "--graph", "path:3", "--out", str(out), option, value]
        else:
            argv = [command, record3, option, value, "--format", "json"]
        code, stdout, err = run_cli(capsys, *argv)
        assert code == 2 and stdout == "" and not out.exists()
        assert "Traceback" not in err
        assert len(err.splitlines()) == 1
        assert err.startswith(f"error: {option}")


class TestExtremeSigmas:
    # finite sigmas far from 1: the fit weights 1/sigma^2 and the raw-fidelity
    # quadrature sum used to overflow or underflow, which ran the ML fit to its
    # iteration cap on NaN weights or wrote Infinity into the JSON report
    SIGMAS = (1e-300, 1e-200, 1e200, 1e300)
    MIX = (1e-300, 1e300, 1e-200, 1e200, 1.0, 1e-3, 0.5)
    CASES = [f"one {s:g}" for s in SIGMAS] + [f"every {s:g}" for s in SIGMAS] + ["mix"]

    @pytest.fixture(scope="class")
    def record3(self, tmp_path_factory):
        out = tmp_path_factory.mktemp("rec") / "full3.json"
        with contextlib.redirect_stdout(io.StringIO()):
            assert main(["simulate", "--graph", "path:3", "--noise", "z=0.05",
                         "--shots", "1000", "--out", str(out)]) == 0
        return out.read_text()

    def write(self, record3, case, tmp_path):
        """The record with one row's, every row's or the MIX sigmas, and no
        shots on those rows (their binomial floor would hide a tiny sigma)."""
        doc = json.loads(record3)
        rows = doc["measurements"]
        if case == "mix":
            sigmas = self.MIX
        elif case.startswith("one"):
            sigmas, rows = [float(case.split()[1])], rows[:1]
        else:
            sigmas = [float(case.split()[1])] * len(rows)
        for row, sigma in zip(rows, sigmas):
            row["sigma"] = sigma
            del row["shots"]
        f = tmp_path / f"{case.replace(' ', '_')}.json"
        f.write_text(json.dumps(doc))
        return str(f)

    def run(self, capsys, *argv):
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # outside pytest a warning reaches stderr
            code, out, err = run_cli(capsys, *argv, "--format", "json")
        assert code == 0 and err == ""
        return strict_json(out)

    @pytest.mark.parametrize("case", CASES)
    def test_analyze_and_robustness_exit_0(self, record3, tmp_path, capsys, case):
        f = self.write(record3, case, tmp_path)
        rep = self.run(capsys, "analyze", f, "--partitions", "all", "--trials", "1000")
        assert rep["sdp"]["value"] == self.run(capsys, "robustness", f)["sdp"]["value"]

    def test_equal_sigmas_give_one_value_at_every_scale(self, record3, tmp_path, capsys):
        # equal sigmas weigh every row equally, whatever their size
        values = [self.run(capsys, "robustness", self.write(record3, f"every {s:g}", tmp_path))
                  ["sdp"]["value"]["value"] for s in self.SIGMAS]
        assert values == pytest.approx([values[0]] * len(values), rel=1e-12)

    def test_generator_sigma_near_the_largest_double(self, tmp_path, capsys):
        # the Monte-Carlo draws overflow to +/-inf, which the clip maps to
        # +/-1: the intended saturation, with no overflow warning
        rows = [{"k": k, "value": 0.9, "sigma": 1e308} for k in ("100", "010", "001")]
        f = tmp_path / "gen3.json"
        f.write_text(json.dumps({"graph": {"n": 3, "edges": [[1, 2], [2, 3]]},
                                 "measurements": rows}))
        bounds = self.run(capsys, "analyze", str(f), "--trials", "1000")["generator_bounds"]
        assert bounds["f_min"]["value"] == pytest.approx(0.85, rel=1e-12)
        assert bounds["f_min"]["sigma"] == 0.0  # every clipped draw is +/-1


class TestLargeGeneratorRecord:
    # the bounds need only the n generator rows; no 2^n group or vector
    N = 64

    def write_record(self, tmp_path):
        a = 0.9996 - 0.0004 * (np.arange(self.N) % 7)
        rows = [{"k": "0" * i + "1" + "0" * (self.N - 1 - i), "value": v, "sigma": 0.002}
                for i, v in enumerate(a)]
        edges = [[i, i + 1] for i in range(1, self.N)]
        f = tmp_path / "path64.json"
        f.write_text(json.dumps({"graph": {"n": self.N, "edges": edges}, "measurements": rows}))
        return f, a

    def test_analyze_gives_closed_forms(self, tmp_path, capsys):
        f, a = self.write_record(tmp_path)
        code, rep, err = run_json(capsys, "analyze", str(f), "--trials", "1000")
        assert code == 0, err
        assert "ml" not in rep and "raw" not in rep
        fid = (a.sum() - self.N + 2) / 2
        q = (1 + a) / 2
        entropy = -(q * np.log2(q) + (1 - q) * np.log2(1 - q)).sum()
        bounds = rep["generator_bounds"]
        assert bounds["f_min"]["value"] == pytest.approx(fid, rel=1e-12)
        assert bounds["rg_min"]["value"] == pytest.approx(2.0 ** 32 * fid - 1, rel=1e-12)
        assert bounds["er_min"]["value"] == pytest.approx(32 - entropy, rel=1e-12)

    def test_robustness_exits_3(self, tmp_path, capsys):
        # the default 'all' names 2^63 - 1 cuts: never listed without a state
        f, _ = self.write_record(tmp_path)
        start = time.perf_counter()
        code, out, err = run_cli(capsys, "robustness", str(f), "--format", "json")
        assert time.perf_counter() - start < 1.0
        assert code == 3
        assert err.startswith("error:") and len(err.splitlines()) == 1
        assert "full stabilizer group" in err
        rep = strict_json(out)
        assert rep["input"]["n"] == self.N
        assert "full stabilizer group" in rep["sdp"]["error"]


class TestHugeGeneratorRecord:
    # 2^n and 2^|B| overflow a double from 1024 on; the bounds must not
    def write_record(self, tmp_path, n):
        rows = [{"k": "0" * i + "1" + "0" * (n - 1 - i), "value": 0.99999, "sigma": 0.002}
                for i in range(n)]
        edges = [[i, i + 1] for i in range(1, n)]
        f = tmp_path / f"path{n}.json"
        f.write_text(json.dumps({"graph": {"n": n, "edges": edges}, "measurements": rows}))
        return f

    def test_1100_qubits_analyze(self, tmp_path, capsys):
        f = self.write_record(tmp_path, 1100)
        code, out, err = run_cli(capsys, "analyze", str(f), "--trials", "1000",
                                 "--format", "json")
        assert code == 0, err
        bounds = strict_json(out)["generator_bounds"]
        fid = (1100 * 0.99999 - 1100 + 2) / 2
        assert bounds["f_min"]["value"] == pytest.approx(fid, rel=1e-12)
        assert bounds["p_min"]["value"] == pytest.approx(fid ** 2, rel=1e-12)
        assert bounds["rg_min"]["value"] == pytest.approx(2.0 ** 550 * fid, rel=1e-12)
        assert bounds["lrg_min"]["value"] == pytest.approx(550 + np.log2(fid), rel=1e-12)
        assert 0 < bounds["rg_min"]["sigma"] < bounds["rg_min"]["value"]

    @pytest.mark.parametrize("fmt", ["json", "text"])
    def test_2100_qubits_rg_min_beyond_double_exits_3(self, tmp_path, capsys, fmt):
        f = self.write_record(tmp_path, 2100)
        code, out, err = run_cli(capsys, "analyze", str(f), "--trials", "1000",
                                 "--format", fmt)
        assert code == 3
        assert "rg_min" in err
        assert "Traceback" not in err
        assert not re.search(r"inf|nan", out, re.IGNORECASE)
        if fmt == "json":
            assert "rg_min" in strict_json(out)["generator_bounds"]["error"]


    def test_5000_qubits_in_bounded_memory(self, tmp_path):
        # the Monte-Carlo draws are evaluated in row chunks: 10 000 trials of
        # 5000 generators would be 400 MB as one matrix.  The probe reports
        # its own peak RSS, VmHWM, which exec resets; ru_maxrss would carry
        # over the launching test process's peak across fork and exec.
        f = self.write_record(tmp_path, 5000)
        done, peak_mb = _run_with_peak_rss("analyze", str(f), "--format", "json")
        assert done.returncode == 3
        assert "rg_min" in strict_json(done.stdout)["generator_bounds"]["error"]
        assert peak_mb < 300


def _run_with_peak_rss(*argv):
    """A CLI run in a fresh interpreter and its peak RSS in MB.  The probe
    reports its own VmHWM, which exec resets; ru_maxrss would carry over the
    launching test process's peak across fork and exec."""
    probe = ("import re, sys; from stabverify.cli import main; "
             "code = main(sys.argv[1:]); "
             "hwm = re.search(r'VmHWM:\\s*(\\d+) kB', open('/proc/self/status').read()); "
             "print('vmhwm_kb', hwm.group(1), file=sys.stderr); sys.exit(code)")
    src = str(Path(stabverify.__file__).resolve().parents[1])
    done = subprocess.run([sys.executable, "-c", probe, *argv],
                          capture_output=True, text=True, env={**os.environ, "PYTHONPATH": src})
    return done, int(re.search(r"vmhwm_kb (\d+)", done.stderr).group(1)) / 1024


def test_million_trials_in_bounded_memory():
    # the sampled bounds are written in place into one (4, trials) array; a
    # list of per-block arrays and their concatenation peaked at about 130 MB
    done, peak_mb = _run_with_peak_rss("analyze", "table1.json", "--trials", "1000000",
                                       "--format", "json")
    assert done.returncode == 0
    strict_json(done.stdout)
    assert peak_mb < 90


def _generator_text(graph, a):
    """Generator a of a graph state in letters, built independently of the codec."""
    letters = ["I"] * graph.n
    letters[a - 1] = "X"
    for b in graph.neighbors(a):
        letters[b - 1] = "Z"
    return "".join(letters)


class TestPauliRowsWithoutTheGroup:
    # 'pauli' rows are decoded per row; the 2^n group is never built
    @pytest.fixture
    def no_group(self, monkeypatch):
        def refusing(name):
            def refuse(*args):
                raise AssertionError(f"{name} called")
            return refuse

        for name, module in list(sys.modules.items()):
            if name.split(".")[0] != "stabverify":
                continue
            for attr in ("stabilizer_group", "pauli_to_matrix"):
                if hasattr(module, attr):
                    monkeypatch.setattr(module, attr, refusing(attr))

    @staticmethod
    def noisy_paper4():
        from stabverify.simulate import NoiseModel, apply_noise

        graph, frame = stabverify.GRAPH_PAPER4, stabverify.FRAME_PAPER4
        return graph, frame, apply_noise(graph, NoiseModel.uniform(4, 0.04)).p

    def test_dense_robustness_of_a_paper4_state_file(self, tmp_path, capsys, no_group):
        # the dense path builds rho in the Walsh domain
        graph, frame, p = self.noisy_paper4()
        f = tmp_path / "state.json"
        f.write_text(json.dumps({"graph": graph.to_json_dict(), "frame": frame.to_json_list(),
                                 "p": p.tolist()}))
        code, rep, err = run_json(capsys, "robustness", str(f), "--method", "dense")
        assert code == 0, err
        reduced = stabverify.symmetry_reduced_robustness(p, graph, frame)
        assert abs(rep["sdp"]["value"]["value"] - reduced.value) < 1e-6

    def test_reduced_solution_operators(self, no_group):
        graph, frame, p = self.noisy_paper4()
        sol = stabverify.symmetry_reduced_robustness(p, graph, frame)
        w = np.linalg.eigvalsh(sol.sigma)
        assert sol.value > 0 and abs(w.sum() - sol.value) < 1e-12
        assert len(sol.dual_certificate) == 7
        assert all(np.linalg.eigvalsh(Y)[0] >= -1e-10 for Y in sol.dual_certificate)

    def test_load_save_and_simulate(self, tmp_path, capsys, no_group):
        from stabverify.reconstruct import load_record, save_record

        out = tmp_path / "full5.json"
        code, stdout, _ = run_cli(capsys, "simulate", "--graph", "paper6", "--frame", "paper6",
                                  "--noise", "z=0.03", "--shots", "500", "--seed", "4",
                                  "--out", str(out))
        assert code == 0 and "k=000011" in stdout
        doc = json.loads(out.read_text())
        for row in doc["measurements"]:
            del row["k"]
        keyed = tmp_path / "pauli_only.json"
        keyed.write_text(json.dumps(doc))
        record = load_record(keyed)
        assert record.has_full_group() and record.entries == load_record(out).entries
        save_record(record, tmp_path / "again.json")
        assert (tmp_path / "again.json").read_text() == out.read_text()

    def test_40_qubit_generator_record(self, tmp_path, capsys, no_group):
        n = 40
        graph = stabverify.Graph.path(n)
        rows = [{"pauli": _generator_text(graph, a), "value": 0.9995, "sigma": 0.001}
                for a in range(1, n + 1)]
        f = tmp_path / "path40.json"
        f.write_text(json.dumps({"graph": graph.to_json_dict(), "measurements": rows}))
        code, out, err = run_cli(capsys, "analyze", str(f), "--trials", "1000",
                                 "--format", "json")
        assert code == 0, err
        rep = strict_json(out)
        assert rep["input"]["measured_indices"] == [1 << a for a in range(n)]
        fid = (n * 0.9995 - n + 2) / 2
        assert rep["generator_bounds"]["f_min"]["value"] == pytest.approx(fid, rel=1e-12)
        assert rep["generator_bounds"]["rg_min"]["value"] == pytest.approx(
            2.0 ** 20 * fid - 1, rel=1e-12)
