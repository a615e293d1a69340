"""Named, reproducible experiment procedures.

Each experiment binds library operations to a falsifiable numeric verdict
with its thresholds declared in the parameter dict. `_DEFAULTS` holds each
body and its parameters; a body is a pure function of those parameters and
the seed, taken by name: it returns its verdict, its metrics and its data
files, each file as a name and its text chunks. `run` writes those files and
result.json under results/<name>/<timestamp>/. Library modules only expose
raw quantities; the pass/fail logic lives here.
"""

from __future__ import annotations

import json
import math
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
    build_chain_graph,
    chain_recurrent_set,
    edges_csv,
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
    product_ifs,
    selector_explicit,
    selector_random,
    subsystem,
)
from .errors import DomainError
from .models import UNIT, make_system
from .pseudo_orbits import (
    PseudoOrbitRecord,
    perturbed_orbit,
    pseudo_orbit_record,
    record_csv,
    stride_subsample,
    validate_delta_pseudo_orbit,
)
from .shadowing import (
    contracting_shadow,
    finite_shadowing_check,
    report_to_json,
    shadow_verify,
)
from .spaces import Point, RawPoints, csv_lines, grid, point, sample_point


@dataclass(frozen=True)
class ExperimentResult:
    name: str
    parameters: dict
    verdict: bool
    metrics: dict
    artifacts: list[str]
    wall_time: float


def _curve_csv(values, stride: int):
    """Running-average curve downsampled for artifact size; n is the true
    prefix length of each kept row."""
    return csv_lines("n,average", ((i + 1, repr(float(values[i]))) for i in range(0, len(values), stride)))


def _random_record(ifs, noise: Series, seed: int):
    """Perturbed orbit from a random start under a random selector, with
    the step errors drawn up to `noise`."""
    x0 = sample_point(ifs.space, np.random.default_rng(seed))
    sel = selector_random(seed + 1, noise.horizon, ifs.nmaps)
    return perturbed_orbit(ifs, sel, x0, noise, seed + 2)


# --- experiment bodies -------------------------------------------------------

def _exp_contracting_bound(*, n, tol_abs, seed):
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
          and reps["binary"].final_average <= tol_abs)
    curve = _curve_csv(reps["binary"].cesaro_curve.values, max(1, n // 1000))
    return ok, metrics, {"binary_affine_curve.csv": curve}


def _exp_power_consistency(*, ks, trials, steps, tol, seed):
    models = [make_system("sigma2_prepend"), make_system("binary_affine")]
    max_dev = 0.0
    rows = []
    for t in range(trials):
        base = models[t % 2]
        k = ks[t % len(ks)]
        x0 = sample_point(base.space, np.random.default_rng(seed + 100 * t))
        sel = selector_random(seed + 100 * t + 1, k * steps, base.nmaps)
        # every k-th point of an orbit of F is an orbit of F^k: the strided steps have zero error
        _, sub = stride_subsample(base, orbit(base, sel, x0, k * steps), k)
        dev = float(sub.errors.values.max())
        rows.append((t, k, base.name, dev))
        max_dev = max(max_dev, dev)
    files = {"deviations.csv": csv_lines("trial,k,model,deviation", rows)}
    return max_dev <= tol, {"max_deviation": max_dev}, files


def _square(pt: Point) -> Point:
    return point(pt.kind, pt.value * pt.value)


def _sqrt(pt: Point) -> Point:
    return point(pt.kind, pt.value ** 0.5)


def _exp_conjugacy(*, trials, n, tol_avg, noise_level, seed):
    binary = make_system("binary_affine")
    conj = conjugate_ifs(binary, _square, _sqrt, UNIT)
    mismatches = 0
    rows = []
    for t in range(trials):
        schedule = harmonic_series(n) if t < trials // 2 else constant_series(n, noise_level)
        rec = _random_record(binary, schedule, seed + 31 * t)
        tpoints = [_square(q) for q in rec.points]
        trec = pseudo_orbit_record(conj, tpoints, rec.selector)
        z = rec.points[0]
        r1 = shadow_verify(binary, rec, z, rec.selector, n, tol_avg=tol_avg)
        r2 = shadow_verify(conj, trec, _square(z), rec.selector, n, tol_avg=tol_avg)
        if r1.verdict_avg != r2.verdict_avg:
            mismatches += 1
        rows.append((t, r1.final_average, r2.final_average, r1.verdict_avg, r2.verdict_avg))
    metrics = {
        "mismatches": float(mismatches),
        "max_avg_original": max(r[1] for r in rows),
        "max_avg_transported": max(r[2] for r in rows),
    }
    header = "trial,avg_original,avg_transported,verdict_original,verdict_transported"
    return mismatches == 0, metrics, {"trials.csv": csv_lines(header, rows)}


def _exp_product(*, trials, n, tol, seed):
    binary = make_system("binary_affine")
    prod = product_ifs(binary, binary)
    worst = 0.0
    rows = []
    for t in range(trials):
        lrec = _random_record(binary, harmonic_series(n), seed + 977 * t)
        rrec = _random_record(binary, harmonic_series(n), seed + 977 * t + 13)
        pts = RawPoints(prod.space, (lrec.points.raws, rrec.points.raws))
        entries = pair_index(lrec.selector.indices, rrec.selector.indices, binary.nmaps)
        psel = selector_explicit(entries.tolist(), prod.nmaps)
        prec = pseudo_orbit_record(prod, pts, psel)
        rp = shadow_verify(prod, prec, pts[0], psel, n)
        rl = shadow_verify(binary, lrec, lrec.points[0], lrec.selector, n)
        rr = shadow_verify(binary, rrec, rrec.points[0], rrec.selector, n)
        gaps = [
            rp.final_average - (rl.final_average + rr.final_average),
            rl.final_average - rp.final_average,
            rr.final_average - rp.final_average,
        ]
        worst = max(worst, *gaps)
        rows.append((t, rp.final_average, rl.final_average, rr.final_average))
    files = {"trials.csv": csv_lines("trial,avg_product,avg_left,avg_right", rows)}
    return worst <= tol, {"max_sandwich_violation": worst}, files


def powers_of_two_series(horizon: int):
    """a_i = 1 when i is a power of two, else 1/(i+1)."""
    vals = 1.0 / np.arange(1, horizon + 1)
    i = 1
    while i < horizon:
        vals[i] = 1.0
        i *= 2
    return series(vals, bound=1.0)


def _exp_lemma_density(*, horizon, density_cutoff, tail_cutoff, tol, seed):
    s = powers_of_two_series(horizon)
    decomp = extract_null_density_set(s)
    j = decomp.index_set
    check = verify_null_density_implies_average(s, j, tol)
    dens = density(j, horizon)
    ok = (
        not decomp.no_decay
        and dens < density_cutoff
        and decomp.tail_max < tail_cutoff
        and check.verdict
    )
    files = {"index_set.json": [json.dumps(list(j.indices))],
             "running_average.csv": _curve_csv(running_average_curve(s).values, max(1, horizon // 1000))}
    metrics = {
        "density": dens,
        "tail_max": decomp.tail_max,
        "cesaro": check.cesaro,
        "marked_count": float(len(j)),
        "no_decay": float(decomp.no_decay),
    }
    return bool(ok), metrics, files


def _exp_circle_chain(*, epsilon, resolution, seed):
    pair = make_system("circle_pair")
    g = build_chain_graph(pair, resolution, epsilon)
    trans = is_chain_transitive(g)
    half = point(pair.space, 0.5)
    zero = point(pair.space, 0.0)
    leg1 = find_chain(g, half, zero)
    leg2 = find_chain(g, zero, half)
    witness_ok = False
    witness = None
    if leg1.found and leg2.found:
        labels = leg1.witness.selector.entries + leg2.witness.selector.entries
        witness = pseudo_orbit_record(pair, (*leg1.witness.points, *leg2.witness.points[1:]),
                                      selector_explicit(labels, pair.nmaps))
        witness_ok = validate_witness(pair, witness, epsilon)
    f1_only = subsystem(pair, [0])
    g1 = build_chain_graph(f1_only, resolution, epsilon)
    trans1 = is_chain_transitive(g1)
    cr_pair = chain_recurrent_set(g)
    cr_f1 = chain_recurrent_set(g1)
    half_idx, _ = snap_to_node(g1, half)
    ok = trans.transitive and witness_ok and not trans1.transitive
    files = {"pair_edges.csv": edges_csv(g)}
    if witness is not None:
        files["witness.json"] = [json.dumps(witness_to_json(witness), indent=2)]
    files["chain_recurrent.json"] = [json.dumps({"pair": list(cr_pair), "f1_only": list(cr_f1)})]
    metrics = {
        "pair_transitive": float(trans.transitive),
        "f1_transitive": float(trans1.transitive),
        "pair_cr_count": float(len(cr_pair)),
        "f1_cr_count": float(len(cr_f1)),
        "f1_cr_contains_half": float(half_idx in cr_f1),
        "witness_length": float(len(witness.points)) if witness else 0.0,
        "edge_count": float(g.edge_count),
    }
    return bool(ok), metrics, files


def crossing_record(ifs, delta: float) -> PseudoOrbitRecord:
    """Rightward delta-pseudo-orbit from 0.01 to 0.99 or past it under map 0:
    follow the map and add a jump just under delta. The final step lands
    exactly on 0.99 when that costs at most the jump; when the map's image
    lies further past 0.99, the record ends at that image, with error 0."""
    if not 0 < delta:
        raise DomainError("delta must be positive")
    jump, hi = 0.95 * delta, 0.99
    pts = [point(ifs.space, 0.01)]
    cur = pts[0]
    while cur.value < hi:
        base = apply(ifs, 0, cur)
        nxt = point(ifs.space, min(base.value + jump, hi)) if base.value - hi <= jump else base
        pts.append(nxt)
        cur = nxt
        if len(pts) > 100000:
            raise DomainError("crossing construction failed to terminate")
    sel = selector_explicit([0] * (len(pts) - 1), ifs.nmaps)
    return pseudo_orbit_record(ifs, pts, sel)


def _exp_interval_no_shadowing(*, delta, epsilon, start_grid_step, invariance_points, seed):
    pair = make_system("interval_pair")
    us = np.arange(invariance_points + 1) / invariance_points
    vs = pair.raw_images(pair.space.canon_batch(us))  # (maps, points)
    slack = 1e-12
    invariance_ok = not (((us <= 0.5) & (vs > 0.5 + slack)).any()
                         or ((us >= 0.5) & (vs < 0.5 - slack)).any())
    rec = crossing_record(pair, delta)
    dcheck = validate_delta_pseudo_orbit(rec, delta)
    starts = grid(pair.space, start_grid_step)
    result = finite_shadowing_check(pair, rec, epsilon, starts, len(rec.points))
    ok = invariance_ok and dcheck.ok and not result.found and result.sup_achieved >= epsilon
    files = {"crossing.csv": record_csv(rec),
             "search_report.json": [json.dumps(report_to_json(result.report), indent=2)]}
    metrics = {
        "invariance_ok": float(invariance_ok),
        "crossing_valid": float(dcheck.ok),
        "crossing_length": float(len(rec.points)),
        "greedy_floor": result.sup_achieved,
    }
    return bool(ok), metrics, files


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
}


def experiment_names() -> list[str]:
    return list(_DEFAULTS)


def _same_json_type(value, default) -> bool:
    """Whether an override has its default's JSON type: an integer serves
    where a float is expected, a boolean serves for no number, and a list
    must be nonempty with items of its default's item type."""
    if isinstance(default, list):
        return isinstance(value, list) and bool(value) and all(_same_json_type(v, default[0]) for v in value)
    if isinstance(value, bool) or isinstance(default, bool):
        return type(value) is type(default)
    return isinstance(value, (int, float) if isinstance(default, float) else type(default))


def run(name: str, overrides: dict | None = None, output_root="results",
        seed: int = 0) -> ExperimentResult:
    """Execute one cataloged experiment; deterministic given `seed`."""
    if name not in _DEFAULTS:
        raise DomainError(f"unknown experiment {name!r}; choose from {list(_DEFAULTS)}")
    fn, defaults = _DEFAULTS[name]
    params = dict(defaults)
    params["seed"] = seed
    for key, value in (overrides or {}).items():
        if key not in params:
            raise DomainError(f"{name} has no parameter {key!r}; choose from {sorted(params)}")
        if not _same_json_type(value, params[key]):
            raise DomainError(f"parameter {key!r} of {name} must have the JSON type of its default "
                              f"{params[key]!r}, got {value!r}")
        # every number finite; counts (integer defaults) >= 1, amounts (float defaults) >= 0, seeds below
        items, default = (value, params[key][0]) if isinstance(value, list) else ([value], params[key])
        least = 0 if isinstance(default, float) else 1
        if key != "seed" and not all(least <= v < math.inf for v in items):
            raise DomainError(f"parameter {key!r} of {name} must be finite and at least {least}, got {value!r}")
        params[key] = value
    if params["seed"] < 0:  # numpy draws from non-negative seeds only
        raise DomainError(f"parameter 'seed' of {name} must be at least 0, got {params['seed']!r}")
    t0 = time.perf_counter()
    verdict, metrics, files = fn(**params)
    stamp = time.strftime("%Y%m%dT%H%M%S") + f"{time.time_ns() % 1_000_000_000:09d}"
    outdir = Path(output_root) / name / stamp
    outdir.mkdir(parents=True, exist_ok=True)
    for fname, chunks in files.items():
        with (outdir / fname).open("w") as fh:
            fh.writelines(chunks)
    wall = time.perf_counter() - t0
    result = ExperimentResult(name, params, verdict, metrics, [str(outdir / f) for f in files], wall)
    (outdir / "result.json").write_text(json.dumps(asdict(result), indent=2))
    return result
