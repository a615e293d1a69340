import hashlib
import json
from pathlib import Path

import pytest

from ifsdyn import DomainError, run
from ifsdyn.cli import main
from ifsdyn.experiments import experiment_names


def test_experiment_names():
    names = experiment_names()
    assert "thm-contracting-bound" in names
    assert len(names) == 8
    with pytest.raises(DomainError):
        run("no-such-experiment")


def _check_result(res, tmp_path):
    assert res.verdict
    for art in res.artifacts:
        assert Path(art).exists()
    out = json.loads(next(Path(tmp_path).glob(f"{res.name}/*/result.json")).read_text())
    assert out["verdict"] == res.verdict
    assert out["metrics"] == pytest.approx(res.metrics)
    assert "seed" in out["parameters"]


def test_contracting_bound_experiment(tmp_path):
    res = run("thm-contracting-bound", {"n": 20000}, output_root=tmp_path, seed=1)
    _check_result(res, tmp_path)
    assert res.metrics["binary_ratio"] <= 1.0
    assert res.metrics["sigma2_ratio"] <= 1.0


def test_power_consistency_experiment(tmp_path):
    res = run("thm-power-consistency", {"trials": 30}, output_root=tmp_path, seed=2)
    _check_result(res, tmp_path)
    assert res.metrics["max_deviation"] == 0.0


def test_conjugacy_experiment(tmp_path):
    res = run("thm-conjugacy", {"trials": 6, "n": 4000}, output_root=tmp_path, seed=3)
    _check_result(res, tmp_path)
    assert res.metrics["mismatches"] == 0.0


def test_product_experiment(tmp_path):
    res = run("thm-product", {"trials": 5, "n": 2000}, output_root=tmp_path, seed=4)
    _check_result(res, tmp_path)
    assert res.metrics["max_sandwich_violation"] <= 1e-12


def test_lemma_density_experiment(tmp_path):
    res = run("lemma-density", {"horizon": 100000}, output_root=tmp_path, seed=5)
    _check_result(res, tmp_path)
    assert res.metrics["density"] < 0.01


def test_circle_chain_experiment(tmp_path):
    res = run("ex-circle-chain", output_root=tmp_path, seed=6)
    _check_result(res, tmp_path)
    assert res.metrics["pair_transitive"] == 1.0
    assert res.metrics["f1_transitive"] == 0.0
    assert res.metrics["pair_cr_count"] == 512.0
    assert res.metrics["f1_cr_count"] < 512.0
    assert res.metrics["f1_cr_contains_half"] == 1.0


def test_interval_no_shadowing_experiment(tmp_path):
    res = run("ex-interval-no-shadowing", {"invariance_points": 2000},
              output_root=tmp_path, seed=7)
    _check_result(res, tmp_path)
    assert res.metrics["greedy_floor"] >= 0.2


def test_interval_chain_probe(tmp_path):
    res = run("ex-interval-chain-probe", output_root=tmp_path, seed=8)
    _check_result(res, tmp_path)
    # the pair blocks leftward chains below the max drift 1/16 and opens
    # above it; the probe documents that transition
    assert res.metrics["transitive@0.005"] == 0.0
    assert res.metrics["transitive@0.02"] == 0.0
    assert res.metrics["transitive@0.08"] == 1.0


def test_reproducibility_same_seed(tmp_path):
    a = run("thm-power-consistency", {"trials": 10}, output_root=tmp_path, seed=9)
    b = run("thm-power-consistency", {"trials": 10}, output_root=tmp_path, seed=9)
    assert a.metrics == b.metrics
    c = run("lemma-density", {"horizon": 50000}, output_root=tmp_path, seed=9)
    d = run("lemma-density", {"horizon": 50000}, output_root=tmp_path, seed=9)
    assert c.metrics == d.metrics


def test_thresholds_live_in_parameters(tmp_path):
    res = run("lemma-density", {"horizon": 50000}, output_root=tmp_path, seed=10)
    for key in ("density_cutoff", "tail_cutoff", "tol"):
        assert key in res.parameters


# Fixed-seed outputs of every experiment at seed 0 with small overrides:
# (overrides, verdict, metrics, sha256 of each artifact by file name). A
# refactor that changes a verdict, a metric or an artifact byte fails here.
GOLDEN = {
    "thm-contracting-bound": (
        {"n": 20000}, True,
        {"binary_bound": 0.0010915393847544632, "binary_final_average": 0.0005021149182503606,
         "binary_ratio": 0.4600062308913472, "sigma2_bound": 0.0010110321044921875,
         "sigma2_final_average": 0.00046645431518554687, "sigma2_ratio": 0.46136449388007666},
        {"binary_affine_curve.csv": "63c27fdf6892a5437b99f0635ee9e7e5bd8a793e642b45b3bde4c786e7aec13f"},
    ),
    "thm-power-consistency": (
        {"trials": 6}, True,
        {"max_deviation": 0.0},
        {"deviations.csv": "df9b68c7b67bbe1824b03ad6ddaf590d8a0426f24b5ab3d8536608ede088c123"},
    ),
    "thm-conjugacy": (
        {"trials": 4, "n": 500}, True,
        {"max_avg_original": 0.25884594044668396, "max_avg_transported": 0.2576104387457474,
         "mismatches": 0.0},
        {"trials.csv": "2a1078bbfc15e70c51f8a315d8e9b59e0ac21c50bc2c145c11d8a02c8dc82c14"},
    ),
    "thm-product": (
        {"trials": 3, "n": 300}, True,
        {"max_sandwich_violation": 0.0},
        {"trials.csv": "3d1a0ed5af1dd5577715507a622ed495aec68fc1cde737d2cf003b753bfb06a5"},
    ),
    "lemma-density": (
        {"horizon": 20000}, True,
        {"cesaro": 0.00121081447353977, "density": 0.00055, "marked_count": 11.0,
         "no_decay": 0.0, "tail_max": 9.999000099990002e-05},
        {"index_set.json": "2a74a28cda921b7cc885910c0da43d2b6317a0c87d1dc8e981ca577736c5b9f7",
         "running_average.csv": "47d5885c250a4ce7f1bafe42c763f66ba4aa6ba9b58ce034e51dbd38e059c673"},
    ),
    "ex-circle-chain": (
        {"resolution": 0.0078125}, True,
        {"edge_count": 2259.0, "f1_cr_contains_half": 1.0, "f1_cr_count": 70.0,
         "f1_transitive": 0.0, "pair_cr_count": 128.0, "pair_transitive": 1.0,
         "witness_length": 13.0},
        {"chain_recurrent.json": "544fc0cef1e92b087e2e9ce1fec5aa09b538fd5a8fa8cf5ffcd3cbf3e6eb4493",
         "pair_edges.csv": "75b349220772f156c2877eda3fc6eab37f0415ca35c788ef2e133aef09e1803a",
         "witness.json": "9d455602567bf99e4824e3f225f749af3ab4aeb9d6e570b36e9c099aadb8acab"},
    ),
    "ex-interval-no-shadowing": (
        {"invariance_points": 200, "start_grid_step": 0.02}, True,
        {"crossing_length": 19.0, "crossing_valid": 1.0, "greedy_floor": 0.49,
         "invariance_ok": 1.0},
        {"crossing.csv": "8912745048fadb5ed63044ac77f88cfa5caecf081cfec4ba41b95fc6eff1b8be",
         "search_report.json": "f915f0276e07f0a0293394c805c3e1104e20a6c27da537018e9b89a3bdcccebd"},
    ),
    "ex-interval-chain-probe": (
        {"epsilons": [0.02, 0.08], "grid_divisor": 16}, True,
        {"transitive@0.02": 0.0, "transitive@0.08": 1.0},
        {"verdicts.json": "4011770d281c1a3a1c2f23eabce26787561b195d3ff0fdbfdc86461887570ac8"},
    ),
}


def test_golden_covers_every_experiment():
    assert list(GOLDEN) == experiment_names()


@pytest.mark.parametrize("name", list(GOLDEN))
def test_golden_fixed_seed(name, tmp_path):
    overrides, verdict, metrics, hashes = GOLDEN[name]
    sets = [f"{k}={json.dumps(v)}" for k, v in overrides.items()]
    out = tmp_path / "cli.json"
    argv = ["experiment", name, "--seed", "0", "--output-root", str(tmp_path / "results"),
            "--output", str(out)] + [a for s in sets for a in ("--set", s)]
    assert main(argv) == (0 if verdict else 1)
    # the CLI prints exactly what run() writes to result.json
    result_json = next((tmp_path / "results" / name).glob("*/result.json"))
    assert out.read_text() == result_json.read_text()
    res = json.loads(out.read_text())
    assert res["verdict"] is verdict
    assert res["metrics"] == metrics
    assert res["parameters"] == {**res["parameters"], **overrides, "seed": 0}
    got = {Path(a).name: hashlib.sha256(Path(a).read_bytes()).hexdigest() for a in res["artifacts"]}
    assert got == hashes
