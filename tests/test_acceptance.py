"""Acceptance suite: one test per numbered criterion, each printing a
pass/fail line (run with `pytest tests/test_acceptance.py -v -s`)."""

import math
import time

import numpy as np

from ifsdyn import (
    Circle,
    Interval,
    apply,
    backward_branch,
    build_chain_graph,
    conjugate_ifs,
    constant_series,
    density,
    distance,
    dyadic_block_sequence,
    dyadic_seam_indices,
    estimate_contraction_ratio,
    extract_null_density_set,
    find_chain,
    finite_shadowing_check,
    greedy_shadow_search,
    grid,
    harmonic_series,
    is_chain_transitive,
    make_system,
    pair_index,
    perturbed_orbit,
    point,
    power_ifs,
    product_ifs,
    pseudo_orbit_record,
    sample_point,
    selector_explicit,
    selector_random,
    shadow_verify,
    subsystem,
    validate_aapo,
    validate_delta_pseudo_orbit,
    validate_witness,
    verify_null_density_implies_average,
    word_index,
)
from ifsdyn.experiments import crossing_record, powers_of_two_series
from ifsdyn.shadowing import contracting_shadow

UNIT = Interval(0.0, 1.0)


def _report(num, name, ok, elapsed=None):
    status = "PASS" if ok else "FAIL"
    timing = f" ({elapsed:.2f}s)" if elapsed is not None else ""
    print(f"[criterion {num:02d}] {name}: {status}{timing}")
    assert ok, f"criterion {num} ({name}) failed"


def test_criterion_01_contracting_bound():
    t0 = time.perf_counter()
    n = 100_000
    binary = make_system("binary_affine")
    rec = perturbed_orbit(binary, selector_random(0, n, 2), point(UNIT, 1.0),
                          harmonic_series(n), seed=1)
    rep = contracting_shadow(binary, rec, y0=point(UNIT, 0.0))
    harm = float(np.sum(1.0 / np.arange(1, n)))
    formula = 2.0 * (1.0 + harm) / n
    ok = (rep.final_average <= rep.bound + 1e-12
          and rep.final_average <= formula + 1e-12
          and formula <= 2.63e-4
          and rep.final_average <= 1e-3)

    sigma2 = make_system("sigma2_prepend")
    rng = np.random.default_rng(5)
    rec2 = perturbed_orbit(sigma2, selector_random(2, n, 2),
                           sample_point(sigma2.space, rng),
                           harmonic_series(n), seed=3)
    rep2 = contracting_shadow(sigma2, rec2, y0=point(sigma2.space, [0] * 64))
    ok &= rep2.final_average <= rep2.bound + 1e-12
    elapsed = time.perf_counter() - t0
    ok &= elapsed < 5.0
    _report(1, "contracting bound at n=1e5", ok, elapsed)


def test_criterion_02_pointwise_inductive_bound():
    t0 = time.perf_counter()
    fam = make_system("affine_family", betas=(0.3, 0.5, 0.9),
                      offsets=(0.2, 0.3, 0.05))
    beta = 0.9
    n = 10_000
    ok = True
    for seed in range(100):
        rng = np.random.default_rng(seed)
        x0 = sample_point(fam.space, rng)
        y0 = sample_point(fam.space, rng)
        sel = selector_random(seed + 1, n, 3)
        rec = perturbed_orbit(fam, sel, x0, harmonic_series(n), seed + 2)
        alphas = rec.errors.values
        bound = distance(y0, rec.points[0])  # running inductive bound
        cur = y0
        for i in range(n):
            d = distance(cur, rec.points[i])
            if d > bound + 1e-9:
                ok = False
                break
            cur = apply(fam, sel.entry(i), cur)
            bound = float(alphas[i]) + beta * bound
        if not ok:
            break
    _report(2, "pointwise inductive bound, 100 seeded records", ok, time.perf_counter() - t0)


def test_criterion_03_power_stride_identity():
    t0 = time.perf_counter()
    steps = 8
    ok = True
    for model, tol in [("sigma2_prepend", 0.0), ("binary_affine", 1e-12)]:
        base = make_system(model)
        for k in (2, 3, 4):
            pspec = power_ifs(base, k)
            rng = np.random.default_rng(10 * k)
            for trial in range(100):
                sel = selector_random(trial + 7000 * k, k * steps, base.nmaps)
                x = sample_point(base.space, rng)
                words = [
                    word_index([sel.entry(i * k + j) for j in range(k)], base.nmaps)
                    for i in range(steps)
                ]
                wsel = selector_explicit(words, pspec.nmaps)
                cur_p, cur_b = x, x
                for i in range(steps):
                    cur_p = apply(pspec, wsel.entry(i), cur_p)
                    for j in range(k):
                        cur_b = apply(base, sel.entry(i * k + j), cur_b)
                    if distance(cur_p, cur_b) > tol:
                        ok = False
    elapsed = time.perf_counter() - t0
    ok &= elapsed < 2.0
    _report(3, "power stride identity k in {2,3,4}", ok, elapsed)


def test_criterion_04_conjugacy_invariance():
    t0 = time.perf_counter()
    binary = make_system("binary_affine")

    def h(p):
        return point(UNIT, p.value * p.value)

    def h_inv(p):
        return point(UNIT, p.value ** 0.5)

    conj = conjugate_ifs(binary, h, h_inv, UNIT)
    n = 10_000
    tol = 1e-2
    ok = True
    for trial in range(20):
        seed = 31 * trial
        rng = np.random.default_rng(seed)
        x0 = sample_point(UNIT, rng)
        sel = selector_random(seed + 1, n, 2)
        sched = harmonic_series(n) if trial < 10 else constant_series(n, 0.3)
        rec = perturbed_orbit(binary, sel, x0, sched, seed + 2)
        trec = pseudo_orbit_record(conj, [h(q) for q in rec.points], sel)
        r1 = shadow_verify(binary, rec, rec.points[0], sel, n, tol_avg=tol)
        r2 = shadow_verify(conj, trec, h(rec.points[0]), sel, n, tol_avg=tol)
        ok &= r1.verdict_avg == r2.verdict_avg
    _report(4, "conjugacy invariance of shadow verdicts", ok, time.perf_counter() - t0)


def test_criterion_05_product_sandwich():
    t0 = time.perf_counter()
    binary = make_system("binary_affine")
    prod = product_ifs(binary, binary)
    n = 5000
    ok = True
    for trial in range(20):
        seed = 977 * trial
        rng = np.random.default_rng(seed)
        lsel = selector_random(seed + 1, n, 2)
        rsel = selector_random(seed + 2, n, 2)
        lrec = perturbed_orbit(binary, lsel, sample_point(UNIT, rng),
                               harmonic_series(n), seed + 3)
        rrec = perturbed_orbit(binary, rsel, sample_point(UNIT, rng),
                               harmonic_series(n), seed + 4)
        pts = [point(prod.space, (a, b)) for a, b in zip(lrec.points, rrec.points)]
        psel = selector_explicit(
            [pair_index(lsel.entry(i), rsel.entry(i), 2) for i in range(n)], 4)
        prec = pseudo_orbit_record(prod, pts, psel)
        u, v = lrec.points[0], rrec.points[0]
        rp = shadow_verify(prod, prec, point(prod.space, (u, v)), psel, n)
        rl = shadow_verify(binary, lrec, u, lsel, n)
        rr = shadow_verify(binary, rrec, v, rsel, n)
        ok &= rp.final_average <= rl.final_average + rr.final_average + 1e-12
        ok &= rl.final_average <= rp.final_average + 1e-12
        ok &= rr.final_average <= rp.final_average + 1e-12
    _report(5, "product max-metric sandwich", ok, time.perf_counter() - t0)


def _oracle_levels_agree(values, dec):
    horizon = len(values)
    marked = set(dec.index_set.indices)
    seen = set()
    prev_start = 0
    boundaries = [c.start for c in dec.levels] + [horizon]
    for cut, end in zip(dec.levels, boundaries[1:]):
        ind = values > cut.theta
        run = np.cumsum(ind) / np.arange(1, horizon + 1)
        if not np.all(run[cut.start:] < cut.theta):
            return False
        if cut.start > prev_start and not run[cut.start - 1] >= cut.theta:
            return False
        for i in range(cut.start, end):
            if (i in marked) != bool(ind[i]):
                return False
        seen.update(range(cut.start, end))
        prev_start = cut.start
    return marked <= seen


def test_criterion_06_density_decomposition():
    t0 = time.perf_counter()
    horizon = 1_000_000
    s = powers_of_two_series(horizon)
    dec = extract_null_density_set(s)
    chk = verify_null_density_implies_average(s, dec.index_set, tol=1e-3)
    ok = (not dec.no_decay
          and density(dec.index_set, horizon) < 0.01
          and dec.tail_max < 0.05
          and chk.verdict
          and _oracle_levels_agree(s.values, dec))
    elapsed = time.perf_counter() - t0
    ok &= elapsed < 10.0
    _report(6, "density-zero decomposition at T=1e6", ok, elapsed)


def test_criterion_07_dyadic_block_aapo():
    t0 = time.perf_counter()
    depth = 14
    cp = make_system("circle_pair")
    x = point(Circle(), 0.2)
    y = point(Circle(), 0.9)
    branch = backward_branch(cp, 1, y, 2 ** (depth - 1))
    rec = dyadic_block_sequence(cp, 1, x, y, branch, depth)
    errs = rec.errors.values
    ok = True
    for n in (4, 64, 2 ** 10, 2 ** 14, len(errs)):
        structural = dyadic_seam_indices(depth, below=n)
        ok &= len(structural) <= 2 * (math.floor(math.log2(n)) + 1)
        loud = np.nonzero(errs[:n] > 1e-12)[0]
        ok &= set(loud.tolist()) <= set(structural)
    avg = validate_aapo(rec, 2 ** 14, tol=1.0).final_average
    ok &= avg <= 2 * 15 * 0.5 / 2 ** 14  # = 9.155e-4
    ok &= avg <= 9.2e-4
    _report(7, "dyadic block seams and average", ok, time.perf_counter() - t0)


def test_criterion_08_circle_chain():
    t0 = time.perf_counter()
    eps, h = 0.05, 1.0 / 512
    pair = make_system("circle_pair")
    g = build_chain_graph(pair, h, eps)
    trans = is_chain_transitive(g)
    half = point(Circle(), 0.5)
    zero = point(Circle(), 0.0)
    leg1 = find_chain(g, half, zero)
    leg2 = find_chain(g, zero, half)
    ok = trans.transitive and leg1.found and leg2.found
    if ok:
        labels = leg1.witness.selector.entries + leg2.witness.selector.entries
        loop = pseudo_orbit_record(pair, (*leg1.witness.points, *leg2.witness.points[1:]), selector_explicit(labels))
        ok &= validate_witness(pair, loop, eps)
        ok &= loop.points[0] == loop.points[-1] == g.nodes[g.size // 2]
        ok &= zero.value in [p.value for p in loop.points]
    g1 = build_chain_graph(subsystem(pair, [0]), h, eps)
    ok &= not is_chain_transitive(g1).transitive
    elapsed = time.perf_counter() - t0
    ok &= elapsed < 20.0
    _report(8, "circle chain transitivity and witness", ok, elapsed)


def test_criterion_09_no_shadowing_certificate():
    t0 = time.perf_counter()
    pair = make_system("interval_pair")
    ok = True
    for i in range(10_001):
        u = i / 10_000
        p = point(UNIT, u)
        for lam in range(2):
            v = apply(pair, lam, p).value
            if u <= 0.5 and v > 0.5 + 1e-12:
                ok = False
            if u >= 0.5 and v < 0.5 - 1e-12:
                ok = False
    rec = crossing_record(pair, 0.01)
    vals = [p.value for p in rec.points]
    ok &= vals[0] == 0.01 and vals[-1] == 0.99
    ok &= validate_delta_pseudo_orbit(rec, 0.01).ok
    starts = [point(UNIT, i / 1000) for i in range(1001)]
    res = finite_shadowing_check(pair, rec, 0.2, starts, len(rec.points))
    ok &= not res.found
    ok &= res.sup_achieved >= 0.2
    elapsed = time.perf_counter() - t0
    ok &= elapsed < 30.0
    _report(9, "interval pair no-shadowing certificate", ok, elapsed)


def test_criterion_10_monotonicity_suite():
    t0 = time.perf_counter()
    ok = True
    # epsilon-edge-set inclusion, 10 instances
    pair = make_system("interval_pair")
    cp = make_system("circle_pair")
    cases = [(pair, 0.008), (pair, 0.02), (pair, 0.04), (pair, 0.06), (pair, 0.08),
             (cp, 0.02), (cp, 0.03), (cp, 0.05), (cp, 0.07), (cp, 0.1)]
    for ifs, eps in cases:
        h = 0.002
        g_small = build_chain_graph(ifs, h, eps)
        g_big = build_chain_graph(ifs, h, eps * 1.5)
        for u in range(g_small.size):
            if not set(g_small.out_edges[u].tolist()) <= set(g_big.out_edges[u].tolist()):
                ok = False

    # greedy refinement monotonicity, 10 seeded instances
    binary = make_system("binary_affine")
    n = 400
    for seed in range(10):
        rec = perturbed_orbit(binary, selector_random(seed, n, 2),
                              point(UNIT, 0.5), harmonic_series(n), seed + 50)
        coarse = grid(UNIT, 0.5)
        fine = coarse + [point(UNIT, v) for v in (0.1, 0.3, 0.7, 0.9)]
        r1 = greedy_shadow_search(binary, rec, coarse, n)
        r2 = greedy_shadow_search(binary, rec, fine, n)
        ok &= r2.final_average <= r1.final_average

    # contraction estimate running max, 10 seeds
    for seed in range(10):
        prev = -1.0
        for pairs in (50, 200, 800):
            est = estimate_contraction_ratio(binary, pairs, seed)
            ok &= est >= prev
            prev = est
    _report(10, "monotonicity suite", ok, time.perf_counter() - t0)
