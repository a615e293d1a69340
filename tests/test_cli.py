import csv
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ifsdyn import (
    Circle,
    FiniteDiscrete,
    Interval,
    Product,
    SymbolSpace,
    build_chain_graph,
    chain_recurrent_set,
    harmonic_series,
    make_system,
    perturbed_orbit,
    point,
    point_from_json,
    point_to_json,
    record_from_json,
    sample_point,
    selector_random,
    shadow_verify,
)
from ifsdyn.averaging import running_average_curve, series_from_csv
import ifsdyn.cli
from ifsdyn.cli import main
from ifsdyn.experiments import powers_of_two_series
from ifsdyn.models import UNIT
from ifsdyn.spaces import value_repr


def test_usage_errors_exit_2(tmp_path, capsys):
    assert main([]) == 2
    assert main(["orbit", "--model", "binary_affine", "--x0", "0"]) == 2  # missing steps
    assert main(["orbit", "--model", "binary_affine", "--x0", "0",
                 "--steps", "3", "--bogus"]) == 2
    assert main(["orbit", "--model", "no_such_model", "--x0", "0", "--steps", "3"]) == 2
    assert main(["orbit", "--model", "affine_family", "--x0", "0", "--steps", "2"]) == 2
    assert main(["chain", "find", "--model", "circle_pair",
                 "--epsilon", "0.05", "--grid", "0.0125"]) == 2  # missing endpoints
    err = capsys.readouterr().err
    assert "error" in err or "usage" in err
    assert "error: model 'affine_family' needs betas and offsets" in err and "Traceback" not in err
    # a negative seed, and grids past GRID_GUARD points (refused before any is built)
    assert main(["experiment", "lemma-density", "--seed", "-1", "--output-root", str(tmp_path)]) == 2
    for model, grid_step in [("circle_pair", "1e-9"), ("circle_pair", "5e-324"), ("binary_affine", "5e-324")]:
        assert main(["chain", "transitive", "--model", model, "--epsilon", "0.05", "--grid", grid_step]) == 2
    captured = capsys.readouterr()
    err = captured.err.splitlines()
    assert captured.out == "" and list(tmp_path.iterdir()) == []
    assert err == ["error: parameter 'seed' of lemma-density must be at least 0, got -1",
                   "error: a grid at resolution 1e-09 needs 1e+09 points, more than GRID_GUARD = 1048576",
                   "error: a grid at resolution 5e-324 needs inf points, more than GRID_GUARD = 1048576",
                   "error: a grid at resolution 5e-324 needs inf points, more than GRID_GUARD = 1048576"]


@pytest.mark.parametrize("command", ["orbit", "pseudo"])
@pytest.mark.parametrize("sigma", [[], ["--sigma", "random:4"], ["--sigma", "periodic:01"]])
def test_negative_step_counts_exit_2_naming_the_length(command, sigma, capsys):
    assert main([command, "--model", "binary_affine", "--x0", "0.5", "--steps", "-1", *sigma]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err == "error: selector length must be >= 0, got -1\n"


def test_unparseable_values_exit_2(tmp_path, capsys):
    rec_file = tmp_path / "rec.json"
    assert main(["pseudo", "--model", "interval_pair", "--x0", "0.2", "--steps", "10", "--tol", "1",
                 "--output", str(rec_file)]) == 0
    assert main(["orbit", "--model", "binary_affine", "--x0", "abc", "--steps", "3"]) == 2
    assert main(["orbit", "--model", "binary_affine", "--x0", "0", "--steps", "3",
                 "--sigma", "random:x"]) == 2
    assert main(["pseudo", "--model", "binary_affine", "--x0", "0", "--steps", "3",
                 "--noise", "const:nan"]) == 2
    assert main(["experiment", "lemma-density", "--set", "tol=bad"]) == 2
    # negative horizons, and nan where a parameter must be positive
    assert main(["orbit", "--model", "binary_affine", "--sigma", "0101", "--x0", "0", "--steps", "-1"]) == 2
    assert main(["orbit", "--model", "binary_affine", "--sigma", "periodic:01", "--x0", "0",
                 "--steps", "-3", "--format", "csv"]) == 2
    assert main(["chain", "transitive", "--model", "interval_pair", "--epsilon", "nan", "--grid", "0.01"]) == 2
    assert main(["chain", "transitive", "--model", "interval_pair", "--epsilon", "0.05", "--grid", "nan"]) == 2
    assert main(["shadow", "--model", "interval_pair", "--pseudo-file", str(rec_file), "--mode", "search",
                 "--grid-step", "nan"]) == 2
    captured = capsys.readouterr()
    err = captured.err.splitlines()
    assert captured.out == "" and len(err) == 9 and all(line.startswith("error: ") for line in err)


@pytest.mark.parametrize("name, setting, message", [
    ("thm-product", "trials=1.5", "parameter 'trials' of thm-product must have the JSON type of its default 20"),
    ("thm-product", 'n="x"', "parameter 'n' of thm-product must have the JSON type of its default 5000"),
    ("ex-circle-chain", "epsilon=null", "parameter 'epsilon' of ex-circle-chain must have the JSON type"),
    ("thm-power-consistency", "ks=[]", "parameter 'ks' of thm-power-consistency must have the JSON type"),
    ("lemma-density", "nosuch=1", "lemma-density has no parameter 'nosuch'"),
    ("thm-product", "trials=0", "parameter 'trials' of thm-product must be finite and at least 1, got 0"),
    ("thm-power-consistency", "steps=0", "parameter 'steps' of thm-power-consistency must be finite and at least 1"),
    ("thm-power-consistency", "ks=[2,0]", "parameter 'ks' of thm-power-consistency must be finite and at least 1"),
    ("thm-conjugacy", "trials=0", "parameter 'trials' of thm-conjugacy must be finite and at least 1"),
    ("lemma-density", "tol=NaN", "parameter 'tol' of lemma-density must be finite and at least 0, got nan"),
    ("ex-circle-chain", "epsilon=-1", "parameter 'epsilon' of ex-circle-chain must be finite and at least 0"),
    ("thm-power-consistency", "ks=[2,Infinity]", "parameter 'ks' of thm-power-consistency must have the JSON type"),
    ("thm-power-consistency", "seed=-1", "parameter 'seed' of thm-power-consistency must be at least 0, got -1"),
    # in range, refused by the experiment itself: nothing is written either
    ("ex-interval-no-shadowing", "start_grid_step=0", "resolution must be positive"),
    ("ex-circle-chain", "epsilon=0", "epsilon must be positive"),
    ("ex-circle-chain", "resolution=1e-9", "a grid at resolution 1e-09 needs 1e+09 points, more than GRID_GUARD"),
], ids=["trials=1.5", 'n="x"', "epsilon=null", "ks=[]", "nosuch=1", "trials=0", "steps=0", "ks=[2,0]",
        "conjugacy trials=0", "tol=NaN", "epsilon=-1", "ks=[2,Infinity]",
        "seed=-1", "start_grid_step=0", "epsilon=0", "resolution=1e-9"])
def test_experiment_overrides_checked_exit_2(name, setting, message, tmp_path, capsys):
    """An override must name a parameter, have its default's JSON type (a
    list nonempty) and be in range: every number finite, counts (integer
    defaults) >= 1 and amounts (float defaults) >= 0. Otherwise the run
    stops with one error line, and no result directory is made."""
    assert main(["experiment", name, "--set", setting, "--output-root", str(tmp_path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.startswith(f"error: {message}") and captured.err.count("\n") == 1
    assert list(tmp_path.iterdir()) == []


def test_retired_experiment_exits_2(tmp_path, capsys):
    """ex-interval-chain-probe is gone; its answers come from `chain transitive`."""
    assert main(["experiment", "ex-interval-chain-probe", "--output-root", str(tmp_path)]) == 2
    assert "invalid choice" in capsys.readouterr().err and list(tmp_path.iterdir()) == []


def test_list_models(capsys):
    assert main(["list-models"]) == 0
    out = capsys.readouterr().out
    assert "binary_affine" in out and "circle_pair" in out


def test_orbit_csv(tmp_path):
    out = tmp_path / "orbit.csv"
    code = main(["orbit", "--model", "binary_affine", "--sigma", "0101",
                 "--x0", "0", "--steps", "4", "--format", "csv",
                 "--output", str(out)])
    assert code == 0
    lines = [l for l in out.read_text().splitlines() if not l.startswith("#")]
    rows = list(csv.reader(lines))
    assert rows[0] == ["index", "coordinates", "lambda"]
    assert len(rows) == 6  # header + 5 points
    values = [float(r[1]) for r in rows[1:]]
    assert values == [0.0, 0.0, 0.5, 0.25, 0.625]
    # numeric flags echoed as comments
    text = out.read_text()
    assert "# steps=4" in text and "# sigma=0101" in text


def test_pseudo_shadow_round_trip(tmp_path):
    rec_file = tmp_path / "rec.json"
    code = main(["pseudo", "--model", "binary_affine", "--x0", "0.5",
                 "--steps", "3000", "--noise", "harmonic", "--seed", "11",
                 "--tol", "0.01", "--output", str(rec_file)])
    assert code == 0  # harmonic average at n=3000 is below 0.01
    payload = json.loads(rec_file.read_text())
    assert "config" in payload and payload["config"]["steps"] == 3000
    rec_cli = record_from_json(payload["record"])

    ifs = make_system("binary_affine")
    rec_lib = perturbed_orbit(ifs, selector_random(0, 3000, 2), point(UNIT, 0.5),
                              harmonic_series(3000), 11)
    assert np.array_equal(rec_cli.errors.values, rec_lib.errors.values)
    assert rec_cli.points == rec_lib.points

    out_file = tmp_path / "shadow.json"
    code = main(["shadow", "--model", "binary_affine",
                 "--pseudo-file", str(rec_file), "--mode", "verify",
                 "--z0", "0.5", "--output", str(out_file)])
    assert code == 0
    rep_cli = json.loads(out_file.read_text())["report"]
    rep_lib = shadow_verify(ifs, rec_lib, point(UNIT, 0.5), rec_lib.selector, 3000)
    assert rep_cli["final_average"] == pytest.approx(rep_lib.final_average, abs=0)
    assert rep_cli["sup_error"] == pytest.approx(rep_lib.sup_error, abs=0)


def test_shadow_truncated_record_exit_2(tmp_path, capsys):
    rec_file = tmp_path / "rec.json"
    assert main(["pseudo", "--model", "binary_affine", "--x0", "0.5",
                 "--steps", "50", "--noise", "harmonic", "--seed", "3",
                 "--tol", "1", "--output", str(rec_file)]) == 0
    capsys.readouterr()
    assert main(["shadow", "--model", "binary_affine", "--pseudo-file", str(rec_file), "--mode", "verify"]) == 2
    assert _one_error_line(capsys) == "error: verify mode requires --z0"
    payload = json.loads(rec_file.read_text())
    payload["record"]["errors"] = payload["record"]["errors"][:-5]
    rec_file.write_text(json.dumps(payload))
    capsys.readouterr()
    assert main(["shadow", "--model", "binary_affine", "--pseudo-file", str(rec_file),
                 "--mode", "verify", "--z0", "0.5"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "Traceback" not in err


def test_pseudo_false_verdict_exit_1(tmp_path):
    rec_file = tmp_path / "rec.json"
    code = main(["pseudo", "--model", "binary_affine", "--x0", "0.5",
                 "--steps", "50", "--noise", "const:0.3", "--seed", "1",
                 "--output", str(rec_file)])
    assert code == 1
    # with no noise the record is a true orbit: every error 0, verdict true
    assert main(["pseudo", "--model", "binary_affine", "--x0", "0.5", "--steps", "50", "--noise", "zero",
                 "--output", str(rec_file)]) == 0
    assert json.loads(rec_file.read_text())["record"]["errors"] == [0.0] * 50


def test_shadow_contracting_mode(tmp_path):
    rec_file = tmp_path / "rec.json"
    main(["pseudo", "--model", "binary_affine", "--x0", "1.0",
          "--steps", "5000", "--noise", "harmonic", "--seed", "2",
          "--output", str(rec_file)])
    out_file = tmp_path / "rep.json"
    code = main(["shadow", "--model", "binary_affine",
                 "--pseudo-file", str(rec_file), "--mode", "contracting",
                 "--output", str(out_file)])
    assert code == 0
    rep = json.loads(out_file.read_text())["report"]
    assert rep["bound"] is not None
    assert rep["final_average"] <= rep["bound"] + 1e-12


def test_chain_find_and_transitive(tmp_path):
    out_file = tmp_path / "witness.json"
    code = main(["chain", "find", "--model", "circle_pair",
                 "--from", "0.5", "--to", "0.0",
                 "--epsilon", "0.05", "--grid", "0.00195",
                 "--output", str(out_file)])
    assert code == 0
    payload = json.loads(out_file.read_text())
    assert payload["found"]
    assert payload["config"]["epsilon"] == 0.05
    assert len(payload["witness"]["points"]) >= 2

    # leftward passage on interval_pair is blocked: exit 1, the reachable count, no witness
    assert main(["chain", "find", "--model", "interval_pair", "--from", "0.9", "--to", "0.1",
                 "--epsilon", "0.01", "--grid", "0.0025", "--output", str(out_file)]) == 1
    payload = json.loads(out_file.read_text())
    assert not payload["found"] and payload["reachable_count"] == 28 and "witness" not in payload

    code = main(["chain", "transitive", "--model", "circle_pair",
                 "--epsilon", "0.05", "--grid", "0.00195",
                 "--output", str(tmp_path / "t.json")])
    assert code == 0

    # contraction-only system is not transitive: exit 1 with counterexample
    spec = {
        "name": "halving",
        "space": {"type": "interval", "lo": 0.0, "hi": 1.0},
        "maps": [{"name": "half", "form": "affine", "params": [0.5, 0.0]}],
        "claimed_contraction": 0.5,
        "surjective": [False],
    }
    spec_file = tmp_path / "halving.json"
    spec_file.write_text(json.dumps(spec))
    out2 = tmp_path / "t2.json"
    code = main(["chain", "transitive", "--spec-file", str(spec_file),
                 "--epsilon", "0.01", "--grid", "0.0025", "--output", str(out2)])
    assert code == 1
    assert json.loads(out2.read_text())["counterexample"]


def test_chain_cr_lists_the_chain_recurrent_set(tmp_path):
    out = tmp_path / "cr.json"
    assert main(["chain", "cr", "--model", "circle_pair", "--epsilon", "0.05", "--grid", "0.0125",
                 "--output", str(out)]) == 0
    g = build_chain_graph(make_system("circle_pair"), 0.0125, 0.05)
    nodes = chain_recurrent_set(g)
    got = json.loads(out.read_text())
    assert got["count"] == len(nodes) > 0 and got["nodes"] == list(nodes)
    assert got["coordinates"] == [value_repr(g.nodes[i]) for i in nodes]


def test_chain_graph_csv_and_dot(tmp_path):
    edges = tmp_path / "edges.csv"
    code = main(["chain", "graph", "--model", "interval_pair",
                 "--epsilon", "0.05", "--grid", "0.0125", "--format", "csv",
                 "--output", str(edges)])
    assert code == 0
    lines = [l for l in edges.read_text().splitlines() if not l.startswith("#")]
    assert lines[0] == "u,v,lambda"
    assert len(lines) > 10
    dot = tmp_path / "g.dot"
    code = main(["chain", "graph", "--model", "interval_pair",
                 "--epsilon", "0.05", "--grid", "0.0125", "--dot",
                 "--output", str(dot)])
    assert code == 0
    assert dot.read_text().startswith("digraph")


def test_cesaro_command(tmp_path):
    src = tmp_path / "series.csv"
    src.write_text("index,value\n" + "\n".join(f"{i},0.5" for i in range(10)) + "\n")
    out = tmp_path / "avg.json"
    code = main(["cesaro", "--input", str(src), "--n", "10", "--output", str(out)])
    assert code == 0
    assert json.loads(out.read_text())["average"] == pytest.approx(0.5)


def test_curve_csvs_read_back_as_floats(tmp_path):
    """The lemma-density running average and `shadow --format csv` hold plain
    float reprs: `cesaro --input` reads them, and `series_from_csv` returns
    the kept curve values bit for bit."""
    root = tmp_path / "results"
    assert main(["experiment", "lemma-density", "--set", "horizon=20000", "--output-root", str(root),
                 "--output", str(tmp_path / "result.json")]) == 0
    artifact = next(root.glob("lemma-density/*/running_average.csv"))
    kept = running_average_curve(powers_of_two_series(20000)).values[::20]  # stride 20000 // 1000
    assert series_from_csv(artifact).values.tobytes() == kept.tobytes()

    rec_file, shadow_csv, shadow_json = tmp_path / "rec.json", tmp_path / "curve.csv", tmp_path / "rep.json"
    assert main(["pseudo", "--model", "binary_affine", "--x0", "0.5", "--steps", "200",
                 "--noise", "harmonic", "--seed", "4", "--tol", "1", "--output", str(rec_file)]) == 0
    shadow = ["shadow", "--model", "binary_affine", "--pseudo-file", str(rec_file), "--mode", "contracting",
              "--tol", "1"]
    assert main(shadow + ["--format", "csv", "--output", str(shadow_csv)]) == 0
    assert main(shadow + ["--output", str(shadow_json)]) == 0
    curve = np.array(json.loads(shadow_json.read_text())["report"]["cesaro_curve"])
    assert series_from_csv(shadow_csv).values.tobytes() == curve.tobytes()
    for path in (artifact, shadow_csv):
        out = tmp_path / "avg.json"
        assert main(["cesaro", "--input", str(path), "--output", str(out)]) == 0
        assert json.loads(out.read_text())["average"] == pytest.approx(float(series_from_csv(path).values.mean()))


def test_csv_files_end_lines_with_newline_only(tmp_path):
    pseudo, edges = tmp_path / "rec.csv", tmp_path / "edges.csv"
    assert main(["pseudo", "--model", "binary_affine", "--x0", "0.5", "--steps", "20",
                 "--noise", "harmonic", "--tol", "1", "--format", "csv", "--output", str(pseudo)]) == 0
    assert main(["chain", "graph", "--model", "interval_pair", "--epsilon", "0.05", "--grid", "0.0125",
                 "--format", "csv", "--output", str(edges)]) == 0
    for path in (pseudo, edges):
        data = path.read_bytes()
        assert data.count(b"\n") > 10 and b"\r" not in data


@pytest.mark.parametrize("command", ["orbit", "shadow", "pseudo", "chain graph"])
def test_csv_on_stdout_equals_the_output_file(command, tmp_path, capsys):
    """CSV text reaches stdout unchanged, with no blank line after its last
    row; JSON on stdout ends in one newline."""
    if command == "orbit":
        args = ["orbit", "--model", "binary_affine", "--sigma", "0101", "--x0", "0", "--steps", "4"]
    elif command == "pseudo":
        args = ["pseudo", "--model", "binary_affine", "--x0", "0.5", "--steps", "20", "--tol", "1"]
    elif command == "chain graph":
        args = ["chain", "graph", "--model", "binary_affine", "--epsilon", "0.05", "--grid", "0.0125"]
    else:
        rec_file = tmp_path / "rec.json"
        assert main(["pseudo", "--model", "binary_affine", "--x0", "0.5", "--steps", "30",
                     "--noise", "harmonic", "--tol", "1", "--output", str(rec_file)]) == 0
        args = ["shadow", "--model", "binary_affine", "--pseudo-file", str(rec_file), "--mode", "contracting",
                "--tol", "1"]
    out = tmp_path / "out.csv"
    assert main(args + ["--format", "csv", "--output", str(out)]) == 0
    capsys.readouterr()
    assert main(args + ["--format", "csv"]) == 0
    printed = capsys.readouterr().out
    assert printed.encode() == out.read_bytes() and printed.endswith("\n") and not printed.endswith("\n\n")
    assert main(args) == 0
    printed = capsys.readouterr().out
    assert printed.endswith("}\n") and json.loads(printed)["config"]["model"] == "binary_affine"


def test_cesaro_skips_blank_rows_and_names_short_ones(tmp_path, capsys):
    curve, out = tmp_path / "curve.csv", tmp_path / "avg.json"
    curve.write_text("# model=binary_affine\nn,average\n1,0.5\n\n2,0.25\n\n")
    assert main(["cesaro", "--input", str(curve), "--output", str(out)]) == 0
    assert json.loads(out.read_text())["average"] == 0.375
    for text, line in (("n,average\n1,0.5\n2\n", 3), ("# c\nn,average\n\n1,0.5\n0.25\n", 5)):
        curve.write_text(text)
        assert main(["cesaro", "--input", str(curve)]) == 2
        assert f"line {line} has 1 field(s)" in _one_error_line(capsys)


def test_cesaro_sum_that_overflows_exits_2(tmp_path, capsys):
    """An average whose sum overflows is refused, not printed as the
    invalid JSON token Infinity."""
    src = tmp_path / "series.csv"
    src.write_text("index,value\n0,1e308\n1,1e308\n")
    assert main(["cesaro", "--input", str(src)]) == 2
    assert "series values must be finite" in _one_error_line(capsys)


def test_ratio_command(tmp_path):
    out = tmp_path / "ratio.json"
    code = main(["ratio", "--model", "binary_affine", "--pairs", "2000",
                 "--seed", "3", "--output", str(out)])
    assert code == 0
    payload = json.loads(out.read_text())
    assert payload["estimate"] == pytest.approx(0.5, abs=1e-9)
    assert payload["config"]["pairs"] == 2000


def test_experiment_command(tmp_path):
    out = tmp_path / "exp.json"
    code = main(["experiment", "thm-power-consistency", "--seed", "7",
                 "--output-root", str(tmp_path / "results"),
                 "--set", "trials=10", "--output", str(out)])
    assert code == 0
    payload = json.loads(out.read_text())
    assert payload["verdict"] is True
    assert payload["metrics"]["max_deviation"] == 0.0


def test_shadow_recomputes_stored_errors(tmp_path, capsys):
    rec_file = tmp_path / "rec.json"
    assert main(["pseudo", "--model", "binary_affine", "--x0", "0.5",
                 "--steps", "50", "--noise", "harmonic", "--seed", "3",
                 "--tol", "1", "--output", str(rec_file)]) == 0
    args = ["shadow", "--model", "binary_affine", "--pseudo-file", str(rec_file),
            "--mode", "contracting"]
    assert main(args) in (0, 1)
    payload = json.loads(rec_file.read_text())
    payload["record"]["errors"] = [0.0] * len(payload["record"]["errors"])
    rec_file.write_text(json.dumps(payload))
    capsys.readouterr()
    assert main(args) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: stored step error 0") and "Traceback" not in err


def test_explicit_sigma_names_maps_past_nine(tmp_path, capsys):
    out = tmp_path / "orbit.json"
    base = ["orbit", "--model", "finite_permutations:4", "--x0", "0", "--steps", "3"]
    assert main(base + ["--sigma", "12,3,23", "--output", str(out)]) == 0
    assert json.loads(out.read_text())["selector"] == [12, 3, 23]
    assert main(base + ["--sigma", "0101", "--output", str(out)]) == 0
    assert json.loads(out.read_text())["selector"] == [0, 1, 0]
    capsys.readouterr()
    assert main(base + ["--sigma", "12,3,24"]) == 2
    assert capsys.readouterr().err.startswith("error: ")


def test_short_permutation_spec_exits_2(tmp_path, capsys):
    spec = {"name": "short", "space": {"type": "finite", "n": 3},
            "maps": [{"name": "p", "form": "permutation", "params": [0, 1]}]}
    spec_file = tmp_path / "short.json"
    spec_file.write_text(json.dumps(spec))
    for x0 in ("0", "2"):
        assert main(["orbit", "--spec-file", str(spec_file), "--x0", x0, "--steps", "3"]) == 2
    err = capsys.readouterr().err.splitlines()
    assert err == ["error: a permutation of 3 points needs 3 images, got 2"] * 2


def _one_error_line(capsys) -> str:
    err = capsys.readouterr().err
    assert "Traceback" not in err
    lines = err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: ")
    return lines[0]


def test_infinite_interval_spec_exits_2(tmp_path, capsys):
    spec = {"name": "wide", "space": {"type": "interval", "lo": 0.0, "hi": float("inf")},
            "maps": [{"name": "id", "form": "identity", "params": []}]}
    spec_file = tmp_path / "wide.json"
    spec_file.write_text(json.dumps(spec))  # writes "hi": Infinity
    assert main(["chain", "graph", "--spec-file", str(spec_file),
                 "--epsilon", "0.05", "--grid", "0.0125"]) == 2
    assert "finite lo < hi" in _one_error_line(capsys)
    spec["space"] = {"type": "interval", "lo": 10 ** 400, "hi": 1.0}  # no float holds it
    spec_file.write_text(json.dumps(spec))
    assert main(["chain", "graph", "--spec-file", str(spec_file),
                 "--epsilon", "0.05", "--grid", "0.0125"]) == 2
    assert _one_error_line(capsys).startswith("error: interval lo must be a number, got 1000")


@pytest.mark.parametrize("depth", [1, 65, 100])
def test_symbol_depths_outside_2_to_64_exit_2(depth, tmp_path, capsys):
    message = f"error: symbol space depth must lie in 2 to 64, got {depth}"
    assert main(["orbit", "--model", f"sigma2_prepend:{depth}", "--x0", "0", "--steps", "2"]) == 2
    assert _one_error_line(capsys) == message
    spec = {"name": "deep", "space": {"type": "symbols", "depth": depth},
            "maps": [{"name": "p0", "form": "prepend", "params": [0]}]}
    spec_file = tmp_path / "deep.json"
    spec_file.write_text(json.dumps(spec))
    assert main(["orbit", "--spec-file", str(spec_file), "--x0", "0", "--steps", "2"]) == 2
    assert _one_error_line(capsys) == message


def test_missing_json_keys_exit_2(tmp_path, capsys):
    good = {"name": "id", "space": {"type": "interval"},
            "maps": [{"name": "id", "form": "identity", "params": []}]}
    no_params = {**good, "maps": [{"name": "id", "form": "identity"}]}
    no_space = {k: v for k, v in good.items() if k != "space"}
    bare_map = {**good, "maps": [3]}
    list_param = {**good, "maps": [{"name": "a", "form": "affine", "params": [[0.5], 0.0]}]}
    list_lo = {**good, "space": {"type": "interval", "lo": [0]}}
    text_ratio = {**good, "claimed_contraction": "0.5"}
    int_params = {**good, "maps": [{"name": "a", "form": "affine", "params": 5}]}
    int_maps = {**good, "maps": 5}
    for spec, text in ((no_params, "'params'"), (no_space, "'space'"), (bare_map, "'form'"),
                       (list_param, "affine parameter must be a number, got [0.5]"),
                       (list_lo, "interval lo must be a number, got [0]"),
                       (text_ratio, "claimed_contraction must be a number, got '0.5'"),
                       (int_params, "'params' must hold an array, got int"),
                       (int_maps, "'maps' must hold an array, got int"),
                       ([1, 2], "must be an object with key 'space', got list")):
        spec_file = tmp_path / "spec.json"
        spec_file.write_text(json.dumps(spec))
        assert main(["chain", "graph", "--spec-file", str(spec_file),
                     "--epsilon", "0.05", "--grid", "0.0125"]) == 2
        assert text in _one_error_line(capsys)
    rec_file = tmp_path / "rec.json"
    assert main(["pseudo", "--model", "binary_affine", "--x0", "0.5", "--steps", "20",
                 "--tol", "1", "--output", str(rec_file)]) == 0
    good_rec = json.loads(rec_file.read_text())["record"]
    no_errors = {k: v for k, v in good_rec.items() if k != "errors"}
    int_entries = {**good_rec, "selector": {**good_rec["selector"], "entries": 5}}
    for payload, text in (({"record": no_errors}, "'errors'"),
                          ({"record": {**good_rec, "points": 5}}, "'points' must hold an array, got int"),
                          ({"record": int_entries}, "'entries' must hold an array, got int"),
                          ({"record": {**good_rec, "errors": 5}}, "'errors' must hold an array, got int"),
                          ([1], "must be an object with key 'points', got list")):
        rec_file.write_text(json.dumps(payload))
        assert main(["shadow", "--model", "binary_affine", "--pseudo-file", str(rec_file),
                     "--mode", "contracting"]) == 2
        assert text in _one_error_line(capsys)


def test_removed_flags_exit_2(capsys):
    assert main(["orbit", "--model", "binary_affine", "--x0", "0", "--steps", "3",
                 "--seed", "1"]) == 2
    assert main(["cesaro", "--input", "series.csv", "--format", "json"]) == 2
    assert main(["ratio", "--model", "binary_affine", "--format", "csv"]) == 2
    err = capsys.readouterr().err
    assert err.count("unrecognized arguments") == 3


def test_zero_horizons_and_nan_tolerances_exit_2(tmp_path, capsys):
    """0 reaches the library's guards instead of meaning "everything", and a
    nan tolerance is refused before any output."""
    rec_file, series_file = tmp_path / "rec.json", tmp_path / "s.csv"
    assert main(["pseudo", "--model", "binary_affine", "--x0", "0.5", "--steps", "20",
                 "--tol", "1", "--output", str(rec_file)]) == 0
    series_file.write_text("index,value\n0,1\n1,2\n2,3\n")
    capsys.readouterr()
    shadow = ["shadow", "--model", "binary_affine", "--pseudo-file", str(rec_file), "--z0", "0.5"]
    for mode in ("contracting", "search", "verify"):
        assert main(shadow + ["--mode", mode, "--horizon", "0"]) == 2
        assert main(shadow + ["--mode", mode, "--tol", "nan"]) == 2
    assert main(["cesaro", "--input", str(series_file), "--n", "0"]) == 2
    assert main(["pseudo", "--model", "binary_affine", "--x0", "0.5", "--steps", "10", "--tol", "nan"]) == 2
    captured = capsys.readouterr()
    err = captured.err.splitlines()
    assert captured.out == "" and len(err) == 8 and all(line.startswith("error: ") for line in err)


def test_chain_flags_apply_to_their_action(monkeypatch, capsys):
    """--format csv and --dot belong to `chain graph`, and `chain find`
    needs both ends; each is refused before a graph is built."""
    built = []
    monkeypatch.setattr(ifsdyn.cli, "build_chain_graph", lambda *args: built.append(args))
    for action in (["transitive", "--format", "csv"], ["cr", "--dot"], ["find", "--from", "0.1", "--to", "0.9", "--dot"],
                   ["find", "--from", "0.1"], ["find", "--to", "0.9"]):
        assert main(["chain", *action, "--model", "interval_pair", "--epsilon", "0.05", "--grid", "0.0125"]) == 2
    captured = capsys.readouterr()
    err = captured.err.splitlines()
    assert built == [] and captured.out == "" and len(err) == 5 and all(line.startswith("error: ") for line in err)


def test_closed_stdout_pipe_ends_quietly_with_the_command_code():
    """A reader that stops after one line leaves no traceback, and the
    command exits with the code of a run whose output is read to the end."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    cmd = [sys.executable, "-m", "ifsdyn.cli", "pseudo", "--model", "binary_affine", "--x0", "0.5",
           "--steps", "20000", "--format", "csv"]
    full = subprocess.run(cmd, env=env, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, check=False)
    proc = subprocess.Popen(cmd, env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    assert proc.stdout.readline() == b"# model=binary_affine\n"
    proc.stdout.close()
    err = proc.stderr.read()
    proc.stderr.close()
    assert proc.wait() == full.returncode and err == b"" and full.stderr == b""


def _nested_product_spec(tmp_path) -> str:
    """A spec file on ([0,1] x [0,1]) x [0,1] with one map: t/2 on the first
    factor, the identity on the second, t/2 + 1/2 on the third."""
    unit = {"type": "interval"}
    spec = {"name": "nested", "space": {"type": "product", "left": {"type": "product", "left": unit, "right": unit},
                                        "right": unit},
            "maps": [{"name": "f", "form": "product", "params": [
                {"name": "g", "form": "product", "params": [{"name": "a", "form": "affine", "params": [0.5, 0.0]},
                                                           {"name": "i", "form": "identity", "params": []}]},
                {"name": "c", "form": "affine", "params": [0.5, 0.5]}]}]}
    spec_file = tmp_path / "nested.json"
    spec_file.write_text(json.dumps(spec))
    return str(spec_file)


def test_point_flags_read_nested_products_symbols_and_finite_points(tmp_path, capsys):
    out = tmp_path / "orbit.json"

    def orbit_values(*args):
        assert main(["orbit", *args, "--output", str(out)]) == 0
        return [p["value"] for p in json.loads(out.read_text())["points"]]

    t = [0.3, 0.5 * 0.3 + 0.5]
    t.append(0.5 * t[1] + 0.5)
    assert orbit_values("--spec-file", _nested_product_spec(tmp_path), "--x0", "[[0.1,0.2],0.3]",
                        "--steps", "2", "--sigma", "00") == [[[0.1, 0.2], t[0]], [[0.05, 0.2], t[1]],
                                                             [[0.025, 0.2], t[2]]]
    assert orbit_values("--model", "sigma2_prepend", "--x0", "0110", "--steps", "1", "--sigma", "1") == [
        "0110" + "0" * 60, "10110" + "0" * 59]
    assert orbit_values("--model", "finite_permutations:3", "--x0", "2", "--steps", "1", "--sigma", "5") == [2, 0]
    capsys.readouterr()
    assert main(["orbit", "--model", "finite_permutations:3", "--x0", "2.5", "--steps", "1"]) == 2
    assert _one_error_line(capsys) == "error: finite point must be an integer, got '2.5'"


def test_record_with_a_one_element_product_value_exits_2(tmp_path, capsys):
    spec, rec_file = _nested_product_spec(tmp_path), tmp_path / "rec.json"
    assert main(["pseudo", "--spec-file", spec, "--x0", "[[0.1,0.2],0.3]", "--steps", "5",
                 "--output", str(rec_file)]) in (0, 1)
    payload = json.loads(rec_file.read_text())
    payload["record"]["points"][1]["value"] = [[0.1, 0.2]]
    rec_file.write_text(json.dumps(payload))
    capsys.readouterr()
    assert main(["shadow", "--spec-file", spec, "--pseudo-file", str(rec_file), "--mode", "contracting"]) == 2
    assert _one_error_line(capsys) == "error: product payload must be a pair"


_LEAF_KINDS = st.one_of(st.sampled_from([UNIT, Interval(-2.0, 3.0), Circle()]),
                        st.integers(2, 64).map(SymbolSpace), st.integers(1, 6).map(FiniteDiscrete))


@settings(max_examples=150, deadline=None)
@given(kind=st.recursive(_LEAF_KINDS, lambda k: st.builds(Product, k, k), max_leaves=6),
       seed=st.integers(0, 2**32 - 1))
def test_points_round_trip_through_json_and_flag_text(kind, seed):
    """A point comes back from its JSON record, and the CLI reader gives it
    back from its flag text: JSON for a product, the JSON value as text
    otherwise."""
    p = sample_point(kind, np.random.default_rng(seed))
    value = point_to_json(p)["value"]
    assert point_from_json(point_to_json(p)) == p
    text = json.dumps(value) if isinstance(kind, Product) else str(value)
    assert ifsdyn.cli._parse_point(kind, text) == p
