import csv
import json

import numpy as np
import pytest

from ifsdyn import (
    harmonic_series,
    make_system,
    perturbed_orbit,
    point,
    record_from_json,
    selector_random,
    shadow_verify,
)
from ifsdyn.averaging import running_average_curve, series_from_csv
from ifsdyn.cli import main
from ifsdyn.experiments import powers_of_two_series
from ifsdyn.models import UNIT


def test_usage_errors_exit_2(capsys):
    assert main([]) == 2
    assert main(["orbit", "--model", "binary_affine", "--x0", "0"]) == 2  # missing steps
    assert main(["orbit", "--model", "binary_affine", "--x0", "0",
                 "--steps", "3", "--bogus"]) == 2
    assert main(["orbit", "--model", "no_such_model", "--x0", "0", "--steps", "3"]) == 2
    assert main(["chain", "find", "--model", "circle_pair",
                 "--epsilon", "0.05", "--grid", "0.0125"]) == 2  # missing endpoints
    err = capsys.readouterr().err
    assert "error" in err or "usage" in err


def test_unparseable_values_exit_2(capsys):
    assert main(["orbit", "--model", "binary_affine", "--x0", "abc", "--steps", "3"]) == 2
    assert main(["orbit", "--model", "binary_affine", "--x0", "0", "--steps", "3",
                 "--sigma", "random:x"]) == 2
    assert main(["pseudo", "--model", "binary_affine", "--x0", "0", "--steps", "3",
                 "--noise", "const:nan"]) == 2
    assert main(["experiment", "lemma-density", "--set", "tol=bad"]) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 4 and all(line.startswith("error: ") for line in err)


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


def test_missing_json_keys_exit_2(tmp_path, capsys):
    good = {"name": "id", "space": {"type": "interval"},
            "maps": [{"name": "id", "form": "identity", "params": []}]}
    no_params = {**good, "maps": [{"name": "id", "form": "identity"}]}
    no_space = {k: v for k, v in good.items() if k != "space"}
    bare_map = {**good, "maps": [3]}
    for spec, key in ((no_params, "params"), (no_space, "space"), (bare_map, "form")):
        spec_file = tmp_path / "spec.json"
        spec_file.write_text(json.dumps(spec))
        assert main(["chain", "graph", "--spec-file", str(spec_file),
                     "--epsilon", "0.05", "--grid", "0.0125"]) == 2
        assert repr(key) in _one_error_line(capsys)
    rec_file = tmp_path / "rec.json"
    assert main(["pseudo", "--model", "binary_affine", "--x0", "0.5", "--steps", "20",
                 "--tol", "1", "--output", str(rec_file)]) == 0
    payload = json.loads(rec_file.read_text())
    del payload["record"]["errors"]
    rec_file.write_text(json.dumps(payload))
    assert main(["shadow", "--model", "binary_affine", "--pseudo-file", str(rec_file),
                 "--mode", "contracting"]) == 2
    assert "'errors'" in _one_error_line(capsys)


def test_removed_flags_exit_2(capsys):
    assert main(["orbit", "--model", "binary_affine", "--x0", "0", "--steps", "3",
                 "--seed", "1"]) == 2
    assert main(["cesaro", "--input", "series.csv", "--format", "json"]) == 2
    assert main(["ratio", "--model", "binary_affine", "--format", "csv"]) == 2
    err = capsys.readouterr().err
    assert err.count("unrecognized arguments") == 3
