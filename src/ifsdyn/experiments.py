"""Named, reproducible experiment procedures.

Each experiment binds library operations to a falsifiable numeric verdict
with its thresholds declared in the parameter dict, and writes result.json
plus data files under results/<name>/<timestamp>/. Library modules only
expose raw quantities; the pass/fail logic lives here.
"""

from __future__ import annotations

import json
import time
from dataclasses import asdict, dataclass
from pathlib import Path
from typing import Callable

import numpy as np

from .averaging import (
    Series,
    constant_series,
    density,
    extract_null_density_set,
    harmonic_series,
    running_average_curve,
    series,
    verify_null_density_implies_average,
)
from .chains import (
    ChainWitness,
    build_chain_graph,
    chain_recurrent_set,
    edges_to_csv,
    find_chain,
    is_chain_transitive,
    snap_to_node,
    validate_witness,
    witness_to_json,
)
from .core import (
    apply,
    conjugate_ifs,
    orbit,
    pair_index,
    power_ifs,
    product_ifs,
    selector_explicit,
    selector_random,
    subsystem,
    word_index,
)
from .errors import DomainError
from .models import UNIT, make_system
from .pseudo_orbits import (
    PseudoOrbitRecord,
    perturbed_orbit,
    pseudo_orbit_record,
    record_to_csv,
    validate_delta_pseudo_orbit,
)
from .shadowing import (
    contracting_shadow,
    finite_shadowing_check,
    report_to_json,
    shadow_verify,
)
from .spaces import Point, distance, point, sample_point


@dataclass(frozen=True)
class ExperimentResult:
    name: str
    parameters: dict
    verdict: bool
    metrics: dict
    artifacts: list[str]
    wall_time: float


def _write_rows(path: Path, header: str, rows) -> None:
    """CSV artifact: the header line, then each row's fields as `str` gives
    them."""
    with path.open("w") as fh:
        fh.write(header + "\n")
        for r in rows:
            fh.write(",".join(map(str, r)) + "\n")


def _curve_csv(values, path: Path, stride: int) -> None:
    """Running-average curve downsampled for artifact size; n is the true
    prefix length of each kept row."""
    _write_rows(path, "n,average", ((i + 1, repr(float(values[i]))) for i in range(0, len(values), stride)))


def _random_record(ifs, noise: Series, seed: int):
    """Perturbed orbit from a random start under a random selector, with
    the step errors drawn up to `noise`."""
    x0 = sample_point(ifs.space, np.random.default_rng(seed))
    sel = selector_random(seed + 1, noise.horizon, ifs.nmaps)
    return perturbed_orbit(ifs, sel, x0, noise, seed + 2)


# --- experiment bodies -------------------------------------------------------

def _exp_contracting_bound(p: dict, outdir: Path):
    n = p["n"]
    seed = p["seed"]
    binary, sigma2 = make_system("binary_affine"), make_system("sigma2_prepend")
    rec = perturbed_orbit(binary, selector_random(seed, n, 2), point(UNIT, 1.0),
                          harmonic_series(n), seed + 1)
    reps = {
        "binary": contracting_shadow(binary, rec, y0=point(UNIT, 0.0)),
        "sigma2": contracting_shadow(sigma2, _random_record(sigma2, harmonic_series(n), seed + 10),
                                     y0=point(sigma2.space, [0] * 64)),
    }
    metrics = {}
    for tag, rep in reps.items():
        metrics[f"{tag}_final_average"] = rep.final_average
        metrics[f"{tag}_bound"] = rep.bound
        metrics[f"{tag}_ratio"] = rep.final_average / rep.bound if rep.bound else 0.0
    ok = (all(rep.final_average <= rep.bound + 1e-12 for rep in reps.values())
          and reps["binary"].final_average <= p["tol_abs"])
    curve_path = outdir / "binary_affine_curve.csv"
    _curve_csv(reps["binary"].cesaro_curve.values, curve_path, max(1, n // 1000))
    return ok, metrics, [str(curve_path)]


def _exp_power_consistency(p: dict, outdir: Path):
    ks = p["ks"]
    trials = p["trials"]
    steps = p["steps"]
    seed = p["seed"]
    models = [make_system("sigma2_prepend"), make_system("binary_affine")]
    powers = {(mi, k): power_ifs(m, k) for mi, m in enumerate(models) for k in ks}
    max_dev = 0.0
    rows = []
    for t in range(trials):
        mi = t % 2
        base = models[mi]
        k = ks[t % len(ks)]
        pspec = powers[(mi, k)]
        rng = np.random.default_rng(seed + 100 * t)
        x0 = sample_point(base.space, rng)
        sel = selector_random(seed + 100 * t + 1, k * steps, base.nmaps)
        words = [
            word_index([sel.entry(i * k + j) for j in range(k)], base.nmaps)
            for i in range(steps)
        ]
        wsel = selector_explicit(words, pspec.nmaps)
        a = orbit(pspec, wsel, x0, steps).points
        b = orbit(base, sel, x0, k * steps).points[::k]
        dev = max(0.0, *map(distance, a, b))
        rows.append((t, k, base.name, dev))
        max_dev = max(max_dev, dev)
    path = outdir / "deviations.csv"
    _write_rows(path, "trial,k,model,deviation", rows)
    return max_dev <= p["tol"], {"max_deviation": max_dev}, [str(path)]


def _square(pt: Point) -> Point:
    return point(pt.kind, pt.value * pt.value)


def _sqrt(pt: Point) -> Point:
    return point(pt.kind, pt.value ** 0.5)


def _exp_conjugacy(p: dict, outdir: Path):
    trials = p["trials"]
    n = p["n"]
    tol_avg = p["tol_avg"]
    noise = p["noise_level"]
    seed = p["seed"]
    binary = make_system("binary_affine")
    conj = conjugate_ifs(binary, _square, _sqrt, UNIT)
    mismatches = 0
    rows = []
    for t in range(trials):
        schedule = harmonic_series(n) if t < trials // 2 else constant_series(n, noise)
        rec = _random_record(binary, schedule, seed + 31 * t)
        tpoints = [_square(q) for q in rec.points]
        trec = pseudo_orbit_record(conj, tpoints, rec.selector)
        z = rec.points[0]
        r1 = shadow_verify(binary, rec, z, rec.selector, n, tol_avg=tol_avg)
        r2 = shadow_verify(conj, trec, _square(z), rec.selector, n, tol_avg=tol_avg)
        if r1.verdict_avg != r2.verdict_avg:
            mismatches += 1
        rows.append((t, r1.final_average, r2.final_average, r1.verdict_avg, r2.verdict_avg))
    path = outdir / "trials.csv"
    _write_rows(path, "trial,avg_original,avg_transported,verdict_original,verdict_transported",
                rows)
    metrics = {
        "mismatches": float(mismatches),
        "max_avg_original": max(r[1] for r in rows),
        "max_avg_transported": max(r[2] for r in rows),
    }
    return mismatches == 0, metrics, [str(path)]


def _exp_product(p: dict, outdir: Path):
    trials = p["trials"]
    n = p["n"]
    tol = p["tol"]
    seed = p["seed"]
    binary = make_system("binary_affine")
    prod = product_ifs(binary, binary)
    worst = 0.0
    rows = []
    for t in range(trials):
        lrec = _random_record(binary, harmonic_series(n), seed + 977 * t)
        rrec = _random_record(binary, harmonic_series(n), seed + 977 * t + 13)
        pts = [point(prod.space, (a, b)) for a, b in zip(lrec.points, rrec.points)]
        entries = [
            pair_index(lrec.selector.entry(i), rrec.selector.entry(i), binary.nmaps)
            for i in range(n)
        ]
        psel = selector_explicit(entries, prod.nmaps)
        prec = pseudo_orbit_record(prod, pts, psel)
        u, v = lrec.points[0], rrec.points[0]
        rp = shadow_verify(prod, prec, point(prod.space, (u, v)), psel, n)
        rl = shadow_verify(binary, lrec, u, lrec.selector, n)
        rr = shadow_verify(binary, rrec, v, rrec.selector, n)
        gaps = [
            rp.final_average - (rl.final_average + rr.final_average),
            rl.final_average - rp.final_average,
            rr.final_average - rp.final_average,
        ]
        worst = max(worst, *gaps)
        rows.append((t, rp.final_average, rl.final_average, rr.final_average))
    path = outdir / "trials.csv"
    _write_rows(path, "trial,avg_product,avg_left,avg_right", rows)
    return worst <= tol, {"max_sandwich_violation": worst}, [str(path)]


def powers_of_two_series(horizon: int):
    """a_i = 1 when i is a power of two, else 1/(i+1)."""
    vals = 1.0 / np.arange(1, horizon + 1)
    i = 1
    while i < horizon:
        vals[i] = 1.0
        i *= 2
    return series(vals, bound=1.0)


def _exp_lemma_density(p: dict, outdir: Path):
    horizon = p["horizon"]
    s = powers_of_two_series(horizon)
    decomp = extract_null_density_set(s)
    j = decomp.index_set
    check = verify_null_density_implies_average(s, j, p["tol"])
    dens = density(j, horizon)
    ok = (
        not decomp.no_decay
        and dens < p["density_cutoff"]
        and decomp.tail_max < p["tail_cutoff"]
        and check.verdict
    )
    jpath = outdir / "index_set.json"
    jpath.write_text(json.dumps(list(j.indices)))
    curve = running_average_curve(s)
    cpath = outdir / "running_average.csv"
    _curve_csv(curve.values, cpath, max(1, horizon // 1000))
    metrics = {
        "density": dens,
        "tail_max": decomp.tail_max,
        "cesaro": check.cesaro,
        "marked_count": float(len(j)),
        "no_decay": float(decomp.no_decay),
    }
    return bool(ok), metrics, [str(jpath), str(cpath)]


def _exp_circle_chain(p: dict, outdir: Path):
    eps = p["epsilon"]
    h = p["resolution"]
    pair = make_system("circle_pair")
    g = build_chain_graph(pair, h, eps)
    trans = is_chain_transitive(g)
    half = point(pair.space, 0.5)
    zero = point(pair.space, 0.0)
    leg1 = find_chain(g, half, zero)
    leg2 = find_chain(g, zero, half)
    witness_ok = False
    witness = None
    if leg1.found and leg2.found:
        witness = ChainWitness(
            leg1.witness.points + leg2.witness.points[1:],
            leg1.witness.labels + leg2.witness.labels,
        )
        witness_ok = validate_witness(pair, witness, eps)
    f1_only = subsystem(pair, [0])
    g1 = build_chain_graph(f1_only, h, eps)
    trans1 = is_chain_transitive(g1)
    cr_pair = chain_recurrent_set(g)
    cr_f1 = chain_recurrent_set(g1)
    half_idx, _ = snap_to_node(g1, half)
    ok = trans.transitive and witness_ok and not trans1.transitive
    artifacts = []
    epath = outdir / "pair_edges.csv"
    edges_to_csv(g, epath)
    artifacts.append(str(epath))
    if witness is not None:
        wpath = outdir / "witness.json"
        wpath.write_text(json.dumps(witness_to_json(witness), indent=2))
        artifacts.append(str(wpath))
    crpath = outdir / "chain_recurrent.json"
    crpath.write_text(json.dumps({"pair": list(cr_pair), "f1_only": list(cr_f1)}))
    artifacts.append(str(crpath))
    metrics = {
        "pair_transitive": float(trans.transitive),
        "f1_transitive": float(trans1.transitive),
        "pair_cr_count": float(len(cr_pair)),
        "f1_cr_count": float(len(cr_f1)),
        "f1_cr_contains_half": float(half_idx in cr_f1),
        "witness_length": float(len(witness.points)) if witness else 0.0,
        "edge_count": float(g.edge_count),
    }
    return bool(ok), metrics, artifacts


def crossing_record(ifs, delta: float) -> PseudoOrbitRecord:
    """Rightward delta-pseudo-orbit from 0.01 to 0.99 under map 0: follow
    the map and add a jump just under delta, clamping the final step to land
    exactly on 0.99."""
    if not 0 < delta:
        raise DomainError("delta must be positive")
    jump, hi = 0.95 * delta, 0.99
    pts = [point(ifs.space, 0.01)]
    cur = pts[0]
    while cur.value < hi:
        base = apply(ifs, 0, cur)
        nxt = point(ifs.space, min(base.value + jump, hi))
        pts.append(nxt)
        cur = nxt
        if len(pts) > 100000:
            raise DomainError("crossing construction failed to terminate")
    sel = selector_explicit([0] * (len(pts) - 1), ifs.nmaps)
    return pseudo_orbit_record(ifs, pts, sel)


def _exp_interval_no_shadowing(p: dict, outdir: Path):
    pair = make_system("interval_pair")
    us = np.arange(p["invariance_points"] + 1) / p["invariance_points"]
    vs = pair.raw_images(pair.space.canon_batch(us))  # (maps, points)
    slack = 1e-12
    invariance_ok = not (((us <= 0.5) & (vs > 0.5 + slack)).any()
                         or ((us >= 0.5) & (vs < 0.5 - slack)).any())
    rec = crossing_record(pair, p["delta"])
    dcheck = validate_delta_pseudo_orbit(rec, p["delta"])
    step = p["start_grid_step"]
    starts = [point(pair.space, i * step) for i in range(int(round(1.0 / step)) + 1)]
    result = finite_shadowing_check(pair, rec, p["epsilon"], starts, len(rec.points))
    ok = invariance_ok and dcheck.ok and not result.found and result.sup_achieved >= p["epsilon"]
    rpath = outdir / "crossing.csv"
    record_to_csv(rec, rpath)
    spath = outdir / "search_report.json"
    spath.write_text(json.dumps(report_to_json(result.report), indent=2))
    metrics = {
        "invariance_ok": float(invariance_ok),
        "crossing_valid": float(dcheck.ok),
        "crossing_length": float(len(rec.points)),
        "greedy_floor": result.sup_achieved,
    }
    return bool(ok), metrics, [str(rpath), str(spath)]


def _exp_interval_chain_probe(p: dict, outdir: Path):
    pair = make_system("interval_pair")
    metrics = {}
    verdicts = {}
    for eps in p["epsilons"]:
        # finer than the eps/4 guard so near-threshold eps is not decided by
        # node spacing
        h = min(eps / 4, eps / p["grid_divisor"])
        g = build_chain_graph(pair, h, eps)
        rep = is_chain_transitive(g)
        key = f"transitive@{eps}"
        metrics[key] = float(rep.transitive)
        verdicts[str(eps)] = rep.transitive
    path = outdir / "verdicts.json"
    path.write_text(json.dumps(verdicts, indent=2))
    # diagnostic probe: completing the sweep is the only pass condition
    return True, metrics, [str(path)]


_DEFAULTS: dict[str, tuple[Callable, dict]] = {
    "thm-contracting-bound": (_exp_contracting_bound, {"n": 100000, "tol_abs": 1e-3}),
    "thm-power-consistency": (_exp_power_consistency,
                              {"ks": [2, 3, 4], "trials": 100, "steps": 8, "tol": 1e-12}),
    "thm-conjugacy": (_exp_conjugacy,
                      {"trials": 20, "n": 10000, "tol_avg": 1e-2, "noise_level": 0.3}),
    "thm-product": (_exp_product, {"trials": 20, "n": 5000, "tol": 1e-12}),
    "lemma-density": (_exp_lemma_density,
                      {"horizon": 1000000, "density_cutoff": 0.01,
                       "tail_cutoff": 0.05, "tol": 1e-3}),
    "ex-circle-chain": (_exp_circle_chain, {"epsilon": 0.05, "resolution": 1.0 / 512}),
    "ex-interval-no-shadowing": (_exp_interval_no_shadowing,
                                 {"delta": 0.01, "epsilon": 0.2,
                                  "start_grid_step": 1e-3, "invariance_points": 10000}),
    "ex-interval-chain-probe": (_exp_interval_chain_probe,
                                {"epsilons": [0.005, 0.02, 0.08], "grid_divisor": 16}),
}


def experiment_names() -> list[str]:
    return list(_DEFAULTS)


def run(name: str, overrides: dict | None = None, output_root="results",
        seed: int = 0) -> ExperimentResult:
    """Execute one cataloged experiment; deterministic given `seed`."""
    if name not in _DEFAULTS:
        raise DomainError(f"unknown experiment {name!r}; choose from {list(_DEFAULTS)}")
    fn, defaults = _DEFAULTS[name]
    params = dict(defaults)
    params["seed"] = seed
    if overrides:
        params.update(overrides)
    stamp = time.strftime("%Y%m%dT%H%M%S") + f"{time.time_ns() % 1_000_000_000:09d}"
    outdir = Path(output_root) / name / stamp
    outdir.mkdir(parents=True, exist_ok=True)
    t0 = time.perf_counter()
    verdict, metrics, artifacts = fn(params, outdir)
    wall = time.perf_counter() - t0
    result = ExperimentResult(name, params, verdict, metrics, artifacts, wall)
    (outdir / "result.json").write_text(json.dumps(asdict(result), indent=2))
    return result
