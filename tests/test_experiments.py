import dataclasses
import hashlib
import inspect
import json
from pathlib import Path

import numpy as np
import pytest

import ifsdyn.core
import ifsdyn.experiments
from ifsdyn import (
    ContractionError,
    DomainError,
    IFSSpec,
    MapDef,
    constant_series,
    make_system,
    run,
    series,
    subsystem,
    validate_delta_pseudo_orbit,
)
from ifsdyn.cli import main
from ifsdyn.experiments import _DEFAULTS, crossing_record, experiment_names


def test_experiment_names():
    names = experiment_names()
    assert "thm-contracting-bound" in names
    assert len(names) == 7
    with pytest.raises(DomainError):
        run("no-such-experiment")


def test_readme_table_names_every_experiment():
    """The README's experiment table has one row per cataloged experiment, in
    catalog order, and no other."""
    text = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    section = text.split("\n## Experiments\n", 1)[1].split("\n## ", 1)[0]
    rows = [line.split("`")[1] for line in section.splitlines() if line.startswith("| `")]
    assert rows == experiment_names()


def test_readme_quick_tour_runs_as_written():
    """The one python block under "Library quick tour" runs, asserts and all."""
    text = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    section = text.split("\n## Library quick tour\n", 1)[1].split("\n## ", 1)[0]
    blocks = section.split("```python\n")[1:]
    assert len(blocks) == 1
    exec(compile(blocks[0].split("\n```", 1)[0], "README.md", "exec"), {})


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


@pytest.mark.parametrize("delta", [0.01, 0.005, 0.002, 1e-3, 1e-4])
def test_crossing_record_is_a_delta_pseudo_orbit_past_099(delta):
    """Every step error of the crossing is below delta, the last one too:
    where the map's image already lies past 0.99 by more than the jump, the
    record ends at that image instead of clamping onto 0.99."""
    rec = crossing_record(make_system("interval_pair"), delta)
    assert rec.errors.values.max() < delta and validate_delta_pseudo_orbit(rec, delta).ok
    assert rec.points[-1].value >= 0.99 > rec.points[-2].value


def test_overrides_keep_their_default_json_type(tmp_path):
    """An integer serves where a float is expected; a boolean serves for no
    number, a list item has its default item's type, and nothing is written
    for a refused override."""
    res = run("lemma-density", {"horizon": 2000, "tol": 1}, output_root=tmp_path / "ok")
    assert res.parameters["tol"] == 1 and res.parameters["horizon"] == 2000
    for name, bad in (("lemma-density", {"horizon": True}), ("lemma-density", {"tol": False}),
                      ("thm-power-consistency", {"ks": [2, 2.5]}), ("thm-power-consistency", {"ks": 2}),
                      ("thm-product", {"seed": "0"})):
        with pytest.raises(DomainError, match=repr(next(iter(bad)))):
            run(name, bad, output_root=tmp_path / "refused")
    assert not (tmp_path / "refused").exists()


def test_power_consistency_fails_on_words_in_the_wrong_order(tmp_path, monkeypatch):
    """Words that compose their letters last-first are not every k-th step
    of the base orbit: the strided record's steps then miss."""
    digits = ifsdyn.core.word_digits
    monkeypatch.setattr(ifsdyn.core, "word_digits", lambda mu, base, k: digits(mu, base, k)[::-1])
    res = run("thm-power-consistency", {"trials": 6}, output_root=tmp_path, seed=0)
    assert not res.verdict and res.metrics["max_deviation"] == 2.0


# Each experiment's verdict turns False on a doctored input: the module-level
# name its body reads is replaced, and the same overrides pass undoctored.

def _flips(name, overrides, tmp_path, monkeypatch, **doctored):
    assert run(name, overrides, output_root=tmp_path, seed=0).verdict
    for attr, value in doctored.items():
        monkeypatch.setattr(ifsdyn.experiments, attr, value)
    res = run(name, overrides, output_root=tmp_path, seed=0)
    assert not res.verdict
    return res.metrics


def test_contracting_bound_fails_on_noise_that_does_not_decay(tmp_path, monkeypatch):
    metrics = _flips("thm-contracting-bound", {"n": 5000, "tol_abs": 0.01}, tmp_path, monkeypatch,
                     harmonic_series=lambda n: constant_series(n, 0.05))
    assert 0.01 < metrics["binary_final_average"] <= metrics["binary_bound"]


def test_contracting_bound_raises_on_a_claimed_ratio_below_the_true_one(tmp_path, monkeypatch):
    """A claim under the sampled ratio stops the run before any verdict."""
    make = ifsdyn.experiments.make_system
    monkeypatch.setattr(ifsdyn.experiments, "make_system",
                        lambda name: dataclasses.replace(make(name), claimed_contraction=0.4))
    with pytest.raises(ContractionError, match="exceeds claimed 0.4$"):
        run("thm-contracting-bound", {"n": 5000}, output_root=tmp_path, seed=0)


def test_conjugacy_fails_on_records_carried_by_the_identity(tmp_path, monkeypatch):
    """The system stays the true conjugate under t -> t^2, but its records
    and starts are carried over unsquared."""
    square, conjugate = ifsdyn.experiments._square, ifsdyn.experiments.conjugate_ifs
    metrics = _flips("thm-conjugacy", {"trials": 6, "n": 2000}, tmp_path, monkeypatch,
                     conjugate_ifs=lambda ifs, h, h_inv, space: conjugate(ifs, square, h_inv, space),
                     _square=lambda p: p)
    assert metrics["mismatches"] == 3.0


def test_product_fails_on_a_selector_with_its_factors_swapped(tmp_path, monkeypatch):
    pair_index = ifsdyn.experiments.pair_index
    metrics = _flips("thm-product", {"trials": 3, "n": 1000}, tmp_path, monkeypatch,
                     pair_index=lambda lam, gam, nleft: pair_index(gam, lam, nleft))
    assert metrics["max_sandwich_violation"] > 0.3


def test_lemma_density_fails_on_a_series_of_positive_density(tmp_path, monkeypatch):
    metrics = _flips("lemma-density", {"horizon": 50000}, tmp_path, monkeypatch,
                     powers_of_two_series=lambda h: series((np.arange(h) % 10 == 0).astype(float), bound=1.0))
    assert metrics["density"] > 0.09 and metrics["cesaro"] == 0.1


def test_circle_chain_fails_on_f1_alone(tmp_path, monkeypatch):
    make = ifsdyn.experiments.make_system
    metrics = _flips("ex-circle-chain", {"resolution": 1 / 128}, tmp_path, monkeypatch,
                     make_system=lambda name: subsystem(make(name), [0]))
    assert metrics["pair_transitive"] == 0.0 and metrics["witness_length"] == 0.0


def test_interval_no_shadowing_fails_when_a_map_carries_the_lower_half_up(tmp_path, monkeypatch):
    """f1 with t -> 0.9 t + 0.1, which sends 0.45 to 0.505."""
    make = ifsdyn.experiments.make_system

    def doctored(name):
        pair = make(name)
        return IFSSpec(pair.space, (pair.maps[0], MapDef("g", "affine", (0.9, 0.1))))

    metrics = _flips("ex-interval-no-shadowing", {"start_grid_step": 0.01, "invariance_points": 1000},
                     tmp_path, monkeypatch, make_system=doctored)
    assert metrics["invariance_ok"] == 0.0


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


@pytest.mark.parametrize("name", list(GOLDEN))
def test_bodies_return_their_files_and_write_none(name, tmp_path, monkeypatch):
    """An experiment body returns each file as text chunks and leaves the
    writing to run(): its bytes match the golden hashes, and the working
    directory stays empty."""
    monkeypatch.chdir(tmp_path)
    fn, defaults = _DEFAULTS[name]
    overrides, verdict, metrics, hashes = GOLDEN[name]
    got_verdict, got_metrics, files = fn(**{**defaults, "seed": 0, **overrides})
    assert (got_verdict, got_metrics) == (verdict, metrics)
    got = {fname: hashlib.sha256("".join(chunks).encode()).hexdigest() for fname, chunks in files.items()}
    assert got == hashes
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("name", experiment_names())
def test_bodies_bind_exactly_their_parameters(name):
    """run() calls a body with its _DEFAULTS row and the seed as keywords,
    so the body takes exactly those names: a key it ignored would raise."""
    fn, defaults = _DEFAULTS[name]
    assert list(inspect.signature(fn).parameters) == [*defaults, "seed"]
