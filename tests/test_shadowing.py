import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ifsdyn import (
    ContractionError,
    DomainError,
    IFSSpec,
    Interval,
    LengthError,
    MapDef,
    contracting_shadow,
    contracting_shadow_bound,
    diameter,
    finite_shadowing_check,
    grid,
    greedy_shadow_search,
    harmonic_series,
    constant_series,
    make_system,
    orbit,
    pair_index,
    perturbed_orbit,
    point,
    product_ifs,
    pseudo_orbit_record,
    sample_point,
    selector_explicit,
    selector_random,
    series,
    shadow_verify,
)
from ifsdyn.experiments import crossing_record

UNIT = Interval(0.0, 1.0)


def _harmonic_rec(ifs, n, seed, x0=None):
    rng = np.random.default_rng(seed)
    x0 = x0 or sample_point(ifs.space, rng)
    return perturbed_orbit(ifs, selector_random(seed + 1, n, ifs.nmaps), x0,
                           harmonic_series(n), seed + 2)


def test_shadow_verify_true_orbit():
    b = make_system("binary_affine")
    rec = orbit(b, selector_random(0, 40, 2), point(UNIT, 0.7), 40)
    rep = shadow_verify(b, rec, rec.points[0], rec.selector, 40, tol_avg=1e-12, tol_sup=1e-12)
    assert rep.sup_error == 0.0 and rep.final_average == 0.0
    assert rep.verdict_avg and rep.verdict_sup


def test_shadow_verify_harmonic_matches_bound_oracle():
    b = make_system("binary_affine")
    n = 100_000
    rec = _harmonic_rec(b, n, 30, x0=point(UNIT, 1.0))
    rep = shadow_verify(b, rec, point(UNIT, 0.0), rec.selector, n)
    harm = float(np.sum(1.0 / np.arange(1, n + 1)))
    assert rep.final_average <= 2 * (1 + harm) / n
    assert rep.final_average == rep.cesaro_curve.values[-1]


def test_shadow_verify_constant_noise_fails():
    b = make_system("binary_affine")
    n = 2000
    rec = perturbed_orbit(b, selector_random(31, n, 2), point(UNIT, 0.5),
                          constant_series(n, 0.3), seed=32)
    rep = shadow_verify(b, rec, point(UNIT, 0.5), rec.selector, n, tol_avg=0.1)
    assert not rep.verdict_avg


def test_contracting_shadow_bound_formula():
    zeros = series(np.zeros(200))
    assert contracting_shadow_bound(0.5, 1.0, zeros, 100) == pytest.approx(0.02)
    n = 100_000
    harm = harmonic_series(n)
    partial = float(np.sum(1.0 / np.arange(1, n)))
    expect = 2 * (1 + partial) / n
    assert contracting_shadow_bound(0.5, 1.0, harm, n) == pytest.approx(expect, rel=1e-12)
    # nonincreasing in n once the tail stops contributing
    flat = series(np.zeros(1000))
    vals = [contracting_shadow_bound(0.5, 1.0, flat, n) for n in (10, 100, 1000)]
    assert vals == sorted(vals, reverse=True)
    with pytest.raises(DomainError):
        contracting_shadow_bound(1.0, 1.0, harm, 10)


@pytest.mark.parametrize("m0", [float("nan"), float("inf"), -1.0])
def test_contracting_shadow_bound_needs_a_finite_nonnegative_gap(m0):
    with pytest.raises(DomainError, match=f"^initial gap must be finite and nonnegative, got {m0}$"):
        contracting_shadow_bound(0.5, m0, harmonic_series(10), 10)
    assert contracting_shadow_bound(0.5, 0.0, series(np.zeros(10)), 10) == 0.0


def test_contracting_shadow_true_orbit():
    b = make_system("binary_affine")
    rec = orbit(b, selector_random(33, 50, 2), point(UNIT, 0.4), 50)
    rep = contracting_shadow(b, rec)
    assert rep.final_average == 0.0 and rep.sup_error == 0.0


def test_contracting_shadow_requires_claim():
    cp = make_system("circle_pair")
    rec = orbit(cp, selector_random(34, 10, 2), point(cp.space, 0.3), 10)
    with pytest.raises(ContractionError):
        contracting_shadow(cp, rec)


def test_contracting_shadow_rejects_false_claim():
    from ifsdyn import IFSSpec, MapDef

    fake = IFSSpec(UNIT, (MapDef("wide", "affine", (0.9, 0.05)),),
                   claimed_contraction=0.5)
    rec = orbit(fake, selector_random(35, 5, 1), point(UNIT, 0.2), 5)
    with pytest.raises(ContractionError):
        contracting_shadow(fake, rec)


def test_contracting_shadow_reports_first_bound_violation():
    # the map t -> 0.9t + 0.05 expands the 0.8 start gap to 0.72 in one step,
    # above the bound 0 + 0.5*0.8 of the (false) claimed ratio 0.5
    fake = IFSSpec(UNIT, (MapDef("wide", "affine", (0.9, 0.05)),),
                   claimed_contraction=0.5)
    rec = orbit(fake, selector_random(35, 5, 1), point(UNIT, 0.2), 5)
    msg = "step 1: tracking error 0.72 exceeds inductive bound 0.4"
    with pytest.raises(ContractionError, match=re.escape(msg)):
        contracting_shadow(fake, rec, y0=point(UNIT, 1.0), validate=False)


def test_long_bound_violation_names_the_step_of_the_scalar_bounds():
    """At n = 20,000 the bounds run on lanes; a claimed ratio of 0.25 for
    halvings breaks them a few steps after the noise starts, at step 18,000,
    and the error names the step and the bound the scalar recurrence gives."""
    from ifsdyn.shadowing import _track

    b = make_system("binary_affine")
    fake = IFSSpec(UNIT, b.maps, claimed_contraction=0.25)
    n = 20_000
    values = np.where(np.arange(n) < 18_000, 0.0, 1e-3)
    rec = perturbed_orbit(fake, selector_random(37, n, 2), point(UNIT, 0.3), series(values), seed=38)
    ds = _track(fake, rec, rec.points[0], n, rec.selector)
    bounds = [bd := float(ds[0])] + [bd := a + 0.25 * bd for a in rec.errors.values[: n - 1].tolist()]
    i = next(i for i in range(n) if ds[i] > bounds[i] + 1e-9)
    assert i > 18_000
    msg = f"step {i}: tracking error {float(ds[i])} exceeds inductive bound {bounds[i]}"
    with pytest.raises(ContractionError, match=f"^{re.escape(msg)}$"):
        contracting_shadow(fake, rec, validate=False)


def test_pointwise_inductive_bound_binary_and_symbolic():
    b = make_system("binary_affine")
    n = 3000
    rec = _harmonic_rec(b, n, 36)
    y0 = point(UNIT, 0.0)
    rep = contracting_shadow(b, rec, y0=y0)  # raises if any step violates
    assert rep.final_average <= rep.bound + 1e-9

    s2 = make_system("sigma2_prepend")
    rec2 = _harmonic_rec(s2, n, 37)
    y0 = point(s2.space, [0] * 64)
    rep2 = contracting_shadow(s2, rec2, y0=y0)
    assert rep2.final_average <= rep2.bound + 1e-9


def test_start_point_irrelevance():
    b = make_system("binary_affine")
    n = 5000
    rec = _harmonic_rec(b, n, 38)
    r1 = contracting_shadow(b, rec, y0=point(UNIT, 0.0), validate=False)
    r2 = contracting_shadow(b, rec, y0=point(UNIT, 1.0), validate=False)
    cap = diameter(UNIT) / ((1 - 0.5) * n) + 1e-9
    assert abs(r1.final_average - r2.final_average) <= cap


def test_greedy_zero_on_true_orbit():
    b = make_system("binary_affine")
    rec = orbit(b, selector_random(39, 30, 2), point(UNIT, 0.5), 30)
    starts = [point(UNIT, 0.1), rec.points[0], point(UNIT, 0.9)]
    rep = greedy_shadow_search(b, rec, starts, 30)
    assert rep.final_average == 0.0
    assert rep.candidate == rec.points[0]


@pytest.mark.parametrize("seed", range(8))
def test_greedy_dominates_fixed_selector(seed):
    b = make_system("binary_affine")
    n = 2000
    rec = _harmonic_rec(b, n, seed * 101)
    y0 = point(UNIT, 0.25)
    rc = contracting_shadow(b, rec, y0=y0, validate=False)
    rg = greedy_shadow_search(b, rec, [y0], n)
    assert rg.final_average <= rc.final_average + 1e-12


def test_greedy_monotone_under_grid_refinement():
    b = make_system("binary_affine")
    n = 500
    for seed in range(10):
        rec = _harmonic_rec(b, n, 1000 + seed)
        coarse = grid(UNIT, 0.25)
        fine = coarse + [point(UNIT, v) for v in (0.1, 0.37, 0.66, 0.93)]
        r_coarse = greedy_shadow_search(b, rec, coarse, n)
        r_fine = greedy_shadow_search(b, rec, fine, n)
        assert r_fine.final_average <= r_coarse.final_average


def _pair_record(seed, n, noise):
    pair = make_system("interval_pair")
    x0 = sample_point(UNIT, np.random.default_rng(seed))
    return pair, perturbed_orbit(pair, selector_random(seed, n, 2), x0, constant_series(n, noise), seed)


@settings(max_examples=100, deadline=None)
@given(seed=st.integers(0, 10_000), noise=st.floats(0.0, 0.1),
       s=st.lists(st.floats(0.0, 1.0), min_size=1, max_size=6),
       t=st.lists(st.floats(0.0, 1.0), min_size=1, max_size=6))
def test_greedy_adding_starts_only_lowers_the_average(seed, noise, s, t):
    """The search keeps its best start, so more starts, in either order,
    never report a higher average than the starts they contain."""
    pair, rec = _pair_record(seed, 30, noise)
    starts_s, starts_t = [point(UNIT, v) for v in s], [point(UNIT, v) for v in t]
    avg_s = greedy_shadow_search(pair, rec, starts_s, 30).final_average
    assert greedy_shadow_search(pair, rec, starts_s + starts_t, 30).final_average <= avg_s
    assert greedy_shadow_search(pair, rec, starts_t + starts_s, 30).final_average <= avg_s


def test_greedy_finer_grid_can_raise_the_average():
    """A finer grid is not a superset of a coarser one: grid(UNIT, 0.035)
    lacks points of grid(UNIT, 0.07), and here it does worse."""
    pair, rec = _pair_record(1, 30, 0.05)
    coarse, fine = grid(UNIT, 0.07), grid(UNIT, 0.035)
    assert not set(coarse) <= set(fine)
    assert (greedy_shadow_search(pair, rec, fine, 31).final_average
            > greedy_shadow_search(pair, rec, coarse, 31).final_average)


def test_finite_shadowing_check_true_orbit():
    b = make_system("binary_affine")
    rec = orbit(b, selector_random(40, 25, 2), point(UNIT, 0.3), 25)
    res = finite_shadowing_check(b, rec, 1e-6, [rec.points[0]], 25)
    assert res.found and res.sup_achieved == 0.0


def test_finite_shadowing_epsilon_must_be_positive():
    b = make_system("binary_affine")
    rec = orbit(b, selector_random(40, 5, 2), point(UNIT, 0.3), 5)
    for bad in (0.0, -0.1, float("nan")):
        with pytest.raises(DomainError):
            finite_shadowing_check(b, rec, bad, [rec.points[0]], 5)


def test_finite_shadowing_contracting_delta_orbit():
    b = make_system("binary_affine")
    n = 400
    delta = 0.001
    rec = perturbed_orbit(b, selector_random(41, n, 2), point(UNIT, 0.5),
                          constant_series(n, delta), seed=42)
    starts = [rec.points[0]] + grid(UNIT, 0.25)
    res = finite_shadowing_check(b, rec, 0.01, starts, n)
    # delta/(1-beta) = 0.002 < 0.01
    assert res.found
    assert res.sup_achieved <= 0.002 + 1e-12


def test_finite_shadowing_interval_pair_negative():
    pair = make_system("interval_pair")
    rec = crossing_record(pair, 0.01)
    starts = grid(UNIT, 1e-3)
    res = finite_shadowing_check(pair, rec, 0.2, starts, len(rec.points))
    assert not res.found
    assert res.sup_achieved >= 0.2


def test_horizon_checks():
    b = make_system("binary_affine")
    rec = orbit(b, selector_random(43, 10, 2), point(UNIT, 0.3), 10)
    starts = [rec.points[0]]
    for n in (0, len(rec.points) + 1):
        with pytest.raises(LengthError):
            finite_shadowing_check(b, rec, 0.1, starts, n)
        with pytest.raises(LengthError):
            greedy_shadow_search(b, rec, starts, n)
    with pytest.raises(DomainError):
        shadow_verify(b, rec, rec.points[0], rec.selector, 0)


def test_greedy_selector_replays_under_shadow_verify():
    perms = make_system("finite_permutations:4")
    h = 30
    rec = perturbed_orbit(perms, selector_random(45, h - 1, perms.nmaps), point(perms.space, 2),
                          constant_series(h - 1, 1.0), seed=46)
    rep = greedy_shadow_search(perms, rec, grid(perms.space, 1.0), h)
    again = shadow_verify(perms, rec, rep.candidate, rep.selector, h)
    assert np.array_equal(again.cesaro_curve.values, rep.cesaro_curve.values)
    assert again.sup_error == rep.sup_error


@pytest.mark.parametrize("model", ["binary_affine", "sigma2_prepend"])
def test_contracting_shadow_reaches_the_last_record_point(model):
    ifs = make_system(model)
    rec = _harmonic_rec(ifs, 400, 50)
    y0 = sample_point(ifs.space, np.random.default_rng(51))
    n = rec.steps + 1
    full = contracting_shadow(ifs, rec, y0=y0, n=n)
    ver = shadow_verify(ifs, rec, y0, rec.selector, n)
    assert full.final_average == ver.final_average
    assert full.final_average <= full.bound
    with pytest.raises(LengthError):
        contracting_shadow(ifs, rec, y0=y0, n=n + 1)


@settings(max_examples=60, deadline=None)
@given(
    maps=st.lists(st.tuples(st.floats(0.0, 1.0, exclude_min=True, exclude_max=True),
                            st.floats(0.0, 1.0)), min_size=1, max_size=4),
    noise=st.floats(0.0, 1.0),
    starts=st.tuples(st.floats(0.0, 1.0), st.floats(0.0, 1.0)),
    n=st.integers(1, 60),
    seed=st.integers(0, 2**31 - 1),
)
def test_contracting_inductive_bound_holds_for_random_affine_families(maps, noise, starts, n, seed):
    """d_i <= b_i for every uniformly contracting affine family, selector and
    start: contracting_shadow with validation never raises."""
    ifs = IFSSpec(UNIT, tuple(MapDef(f"a{i}", "affine", (b, c * (1.0 - b)))
                              for i, (b, c) in enumerate(maps)),
                  claimed_contraction=max(b for b, _ in maps))
    rec = perturbed_orbit(ifs, selector_random(seed, n, ifs.nmaps), point(UNIT, starts[0]),
                          series(noise * harmonic_series(n).values), seed)
    rep = contracting_shadow(ifs, rec, y0=point(UNIT, starts[1]), validate=True)
    assert rep.final_average <= rep.bound + 1e-12


@settings(max_examples=30, deadline=None)
@given(seed=st.integers(0, 2**31 - 1), n=st.integers(1, 300))
def test_product_sandwich_on_random_seeds(seed, n):
    """max(rl, rr) <= rp <= rl + rr for the shadow averages of two records
    and of their product record under the max metric."""
    b = make_system("binary_affine")
    prod = product_ifs(b, b)
    rng = np.random.default_rng(seed)
    lrec, rrec = (perturbed_orbit(b, selector_random(seed + i, n, 2), sample_point(UNIT, rng),
                                  harmonic_series(n), seed + 2 + i) for i in (0, 1))
    lsel, rsel = lrec.selector, rrec.selector
    psel = selector_explicit([pair_index(lsel.entry(i), rsel.entry(i), 2) for i in range(n)], 4)
    pts = [point(prod.space, (u, v)) for u, v in zip(lrec.points, rrec.points)]
    prec = pseudo_orbit_record(prod, pts, psel)
    zl, zr = sample_point(UNIT, rng), sample_point(UNIT, rng)
    rl = shadow_verify(b, lrec, zl, lsel, n + 1).final_average
    rr = shadow_verify(b, rrec, zr, rsel, n + 1).final_average
    rp = shadow_verify(prod, prec, point(prod.space, (zl, zr)), psel, n + 1).final_average
    assert max(rl, rr) - 1e-12 <= rp <= rl + rr + 1e-12
