import dataclasses
import math
import pickle

import numpy as np
import pytest

from ifsdyn import (
    BranchError,
    Circle,
    DeltaCheck,
    DomainError,
    GuardError,
    IFSError,
    Interval,
    LengthError,
    SelectorSequence,
    apply,
    backward_branch,
    constant_series,
    distance,
    dyadic_block_sequence,
    dyadic_seam_indices,
    harmonic_series,
    make_system,
    orbit,
    perturbed_orbit,
    point,
    pseudo_orbit_record,
    record_from_json,
    record_to_json,
    sample_point,
    selector_explicit,
    selector_random,
    series,
    stride_subsample,
    validate_aapo,
    validate_delta_pseudo_orbit,
    word_index,
)
from test_raw_core import CASES

UNIT = Interval(0.0, 1.0)


@pytest.mark.parametrize("name, n", [*((name, 300) for name in sorted(CASES)),
                                     ("binary_affine", 20_000), ("sigma2_prepend", 20_000)])
def test_true_orbit_validates_for_every_delta(name, n):
    """All errors of a true orbit vanish on every family: re-measured on
    `raw_images`, the walk (lanes and the uint64 scan at 20,000 steps) gives
    exactly the zeros that `orbit` records."""
    ifs = CASES[name][0]
    x0 = sample_point(ifs.space, np.random.default_rng(n))
    rec = orbit(ifs, selector_random(0, n, ifs.nmaps), x0, n)
    again = pseudo_orbit_record(ifs, rec.points, rec.selector).errors.values
    assert again.max() == 0.0 and again.tobytes() == rec.errors.values.tobytes()
    for delta in (1e-9, 1e-3, 0.5):
        assert validate_delta_pseudo_orbit(rec, delta).ok


def test_delta_must_be_positive():
    b = make_system("binary_affine")
    rec = orbit(b, selector_random(0, 5, 2), point(UNIT, 0.7), 5)
    for bad in (0.0, -1.0, math.nan):
        with pytest.raises(DomainError):
            validate_delta_pseudo_orbit(rec, bad)


def test_injected_jump_detected():
    b = make_system("binary_affine")
    orb = orbit(b, selector_random(1, 20, 2), point(UNIT, 0.2), 20)
    pts = list(orb.points)
    moved = min(pts[5].value + 0.3, 1.0)
    pts[5] = point(UNIT, moved)
    rec = pseudo_orbit_record(b, pts, orb.selector)
    chk = validate_delta_pseudo_orbit(rec, 0.1)
    assert not chk.ok
    assert chk.worst_index == 4  # the step into the displaced point
    assert chk.worst_error == pytest.approx(abs(moved - orb.points[5].value))


def test_uniform_noise_below_half_delta():
    b = make_system("binary_affine")
    delta = 0.02
    rec = perturbed_orbit(b, selector_random(2, 200, 2), point(UNIT, 0.4),
                          constant_series(200, delta / 2 * 0.99), seed=3)
    assert validate_delta_pseudo_orbit(rec, delta).ok


def test_validate_aapo():
    b = make_system("binary_affine")
    rec = orbit(b, selector_random(3, 30, 2), point(UNIT, 0.9), 30)
    rep = validate_aapo(rec, 30, tol=1e-12)
    assert rep.verdict and rep.final_average == 0.0

    n = 10_000
    noisy = perturbed_orbit(b, selector_random(4, n, 2), point(UNIT, 0.5),
                            harmonic_series(n), seed=5)
    rep = validate_aapo(noisy, n, tol=1e-2)
    oracle = sum(1.0 / (i + 1) for i in range(n)) / n
    assert rep.verdict
    assert rep.final_average <= oracle + 1e-12  # clipping only shrinks errors

    # constant errors realized exactly on the circle (no boundary clipping)
    cp = make_system("circle_pair")
    flat = perturbed_orbit(cp, selector_random(6, 500, 2), point(Circle(), 0.5),
                           constant_series(500, 0.2), seed=7)
    assert np.allclose(flat.errors.values, 0.2)
    assert not validate_aapo(flat, 500, tol=0.19).verdict


def test_perturbed_zero_schedule_is_true_orbit():
    b = make_system("binary_affine")
    sel = selector_random(8, 25, 2)
    rec = perturbed_orbit(b, sel, point(UNIT, 0.3), constant_series(25, 0.0), seed=9)
    assert np.all(rec.errors.values == 0.0)
    assert rec.points == orbit(b, sel, point(UNIT, 0.3), 25).points


def test_perturbed_errors_match_schedule_up_to_clipping():
    b = make_system("binary_affine")
    n = 300
    sched = harmonic_series(n)
    rec = perturbed_orbit(b, selector_random(10, n, 2), point(UNIT, 0.5), sched, seed=11)
    assert np.all(rec.errors.values <= sched.values + 1e-15)
    # interior steps realize the schedule exactly
    exact = np.isclose(rec.errors.values, sched.values, atol=1e-15)
    assert exact.mean() > 0.5

    c = make_system("circle_pair")
    recc = perturbed_orbit(c, selector_random(12, n, 2), point(Circle(), 0.1),
                           constant_series(n, 0.3), seed=13)
    # no boundary on the circle: schedule realized exactly everywhere
    assert np.allclose(recc.errors.values, 0.3, atol=1e-15)


def test_perturbed_symbol_noise_quantized():
    s2 = make_system("sigma2_prepend")
    n = 200
    sched = harmonic_series(n)
    rng = np.random.default_rng(14)
    rec = perturbed_orbit(s2, selector_random(15, n, 2), sample_point(s2.space, rng),
                          sched, seed=16)
    errs = rec.errors.values
    assert np.all(errs <= sched.values + 1e-15)
    # realized steps are powers of two, within a factor two of the schedule
    for e, s in zip(errs, sched.values):
        if e > 0:
            assert math.log2(e) == int(math.log2(e))
            assert e > s / 2 - 1e-15


def test_perturbed_schedule_guard():
    b = make_system("binary_affine")
    with pytest.raises(DomainError):
        perturbed_orbit(b, selector_explicit([0, 0]), point(UNIT, 0.1),
                        series([2.0, 0.0]), seed=0)


def _dyadic_fixture(depth):
    cp = make_system("circle_pair")
    x = point(Circle(), 0.2)
    y = point(Circle(), 0.9)
    branch = backward_branch(cp, 1, y, 2 ** max(depth - 1, 1))
    return cp, x, y, branch


def test_dyadic_prefix_depth_two():
    cp, x, y, branch = _dyadic_fixture(2)
    rec = dyadic_block_sequence(cp, 1, x, y, branch, 2)
    gx = apply(cp, 1, x)
    y_m1 = branch[-2]
    expected = [x, y, x, y, x, gx, y_m1, y]
    assert len(rec.points) == 8
    for got, want in zip(rec.points, expected):
        assert distance(got, want) == 0.0


def test_dyadic_seam_structure():
    depth = 8
    cp, x, y, branch = _dyadic_fixture(depth)
    rec = dyadic_block_sequence(cp, 1, x, y, branch, depth)
    seams = set(dyadic_seam_indices(depth))
    errs = rec.errors.values
    # off-seam steps are true applications up to the branch tolerance
    for i, e in enumerate(errs):
        if i not in seams:
            assert e <= 1e-12
    for n in (4, 16, 100, len(errs)):
        count = len(dyadic_seam_indices(depth, below=n))
        assert count <= 2 * (math.floor(math.log2(n)) + 1)


def test_dyadic_block_average_bound():
    depth = 10
    cp, x, y, branch = _dyadic_fixture(depth)
    rec = dyadic_block_sequence(cp, 1, x, y, branch, depth)
    diam = 0.5
    for k in range(2, depth + 1):
        n = 2 ** k
        rep = validate_aapo(rec, n, tol=1.0)
        assert rep.final_average < 2 * (k + 1) * diam / 2 ** k


def test_dyadic_preconditions():
    cp, x, y, branch = _dyadic_fixture(4)
    with pytest.raises(BranchError):
        dyadic_block_sequence(cp, 1, x, y, branch[-2:], 4)  # branch too short
    bad = list(branch)[:-1] + [x]  # does not end at y
    with pytest.raises(BranchError):
        dyadic_block_sequence(cp, 1, x, y, bad, 4)
    b = make_system("binary_affine")  # no surjective map
    with pytest.raises(DomainError):
        dyadic_block_sequence(b, 0, point(UNIT, 0.1), point(UNIT, 0.9), [point(UNIT, 0.9)], 1)


def test_dyadic_branch_is_revalidated_forward():
    cp, x, y, branch = _dyadic_fixture(4)
    moved = list(branch)[:3] + [point(Circle(), branch[3].value + 1e-6)] + list(branch)[4:]
    with pytest.raises(BranchError, match="re-validation"):
        dyadic_block_sequence(cp, 1, x, y, moved, 4)
    with pytest.raises(DomainError):  # a branch point off the space
        dyadic_block_sequence(cp, 1, x, y, [point(UNIT, 0.5)] + list(branch)[1:], 4)


def test_one_point_record_has_no_errors():
    b = make_system("binary_affine")
    rec = pseudo_orbit_record(b, [point(UNIT, 0.3)], selector_explicit([]))
    assert rec.steps == 0 and len(rec.errors.values) == 0
    assert validate_delta_pseudo_orbit(rec, 0.1) == DeltaCheck(True, 0, 0.0)


def test_nan_tolerance_is_rejected():
    b = make_system("binary_affine")
    rec = orbit(b, selector_random(3, 30, 2), point(UNIT, 0.9), 30)
    with pytest.raises(DomainError, match="nan"):
        validate_aapo(rec, 30, tol=math.nan)


def test_stride_subsample_true_orbit():
    b = make_system("binary_affine")
    rec = orbit(b, selector_random(17, 12, 2), point(UNIT, 0.8), 12)
    pspec, sub = stride_subsample(b, rec, 3)
    assert np.all(sub.errors.values == 0.0)
    assert len(sub.points) == 5
    assert sub.points == rec.points[::3]


def test_strides_of_one_family_share_one_compiled_power():
    """Each (family, k) builds and compiles its power family once: strides of
    two records at one k get the same spec and the same compiled maps."""
    b = make_system("binary_affine")
    recs = [orbit(b, selector_random(seed, 12, 2), point(UNIT, x), 12) for seed, x in ((3, 0.2), (4, 0.9))]
    (p1, s1), (p2, s2) = (stride_subsample(b, rec, 3) for rec in recs)
    assert p1 is p2 and p1._family is p2._family
    assert np.all(s1.errors.values == 0.0) and np.all(s2.errors.values == 0.0)
    assert stride_subsample(b, recs[0], 2)[0] is not p1
    assert stride_subsample(make_system("binary_affine"), recs[0], 3)[0] is not p1  # per family object
    assert "_powers" not in vars(pickle.loads(pickle.dumps(b)))


def test_stride_word_indices():
    b = make_system("binary_affine")
    sel = selector_explicit([0, 1, 1, 0, 1, 1], 2)
    rec = orbit(b, sel, point(UNIT, 0.6), 6)
    pspec, sub = stride_subsample(b, rec, 2)
    assert len(sub.points) == 4
    # words (0,1), (1,0), (1,1) with the first symbol most significant
    assert sub.selector.entries == (1, 2, 3)
    with pytest.raises(LengthError):
        stride_subsample(b, rec, 4)


def test_stride_words_match_the_entry_loop():
    """The word indices of `stride_subsample` equal the per-word
    `word_index` of the selector's entries; an entry that is no map index
    raises the DomainError of `apply` for the first such entry, and a short
    selector raises the LengthError of its first missing entry, after the
    power guard."""
    b = make_system("binary_affine")
    rec = orbit(b, selector_random(24, 12, 2), point(UNIT, 0.4), 12)
    for entries in (rec.selector.entries, (0, 2, 1, 1, 3, 0, 1, 0, 0, 1, 1, 1), (1, -1) * 6,
                    (0, 1) * 5 + (0, 2)):
        for k in (2, 3, 4):
            again = dataclasses.replace(rec, selector=SelectorSequence(entries))
            words = [word_index(entries[i * k:(i + 1) * k], 2) for i in range(12 // k)]
            try:
                for e in entries:  # the error a step-by-step loop meets first
                    apply(b, e, point(UNIT, 0.4))
                want = ("ok", tuple(selector_explicit(words, 2 ** k).entries))
            except DomainError as exc:
                want = ("DomainError", str(exc))
            try:
                got = ("ok", stride_subsample(b, again, k)[1].selector.entries)
            except DomainError as exc:
                got = ("DomainError", str(exc))
            assert got == want
    long = orbit(b, selector_random(25, 26, 2), point(UNIT, 0.4), 26)
    short = dataclasses.replace(long, selector=SelectorSequence(long.selector.entries[:5]))
    with pytest.raises(LengthError, match=r"^selector exhausted: entry 5 requested, 5 realized$"):
        stride_subsample(b, short, 2)
    with pytest.raises(GuardError):
        stride_subsample(b, short, 13)


def test_stride_harmonic_aapo():
    b = make_system("binary_affine")
    n = 10_000
    rec = perturbed_orbit(b, selector_random(18, n, 2), point(UNIT, 0.5),
                          harmonic_series(n), seed=19)
    pspec, sub = stride_subsample(b, rec, 2)
    rep = validate_aapo(sub, 5000, tol=2e-2)
    assert rep.verdict
    # slope-1/2 continuity: subsampled error <= alpha_{2i+1} + alpha_{2i}/2
    a = rec.errors.values
    bound = a[1::2] + 0.5 * a[0::2]
    assert np.all(sub.errors.values <= bound + 1e-12)


def test_stride_delta_bound_affine():
    fam = make_system("affine_family", betas=(0.8, 0.6), offsets=(0.1, 0.2))
    L = 0.8
    delta = 0.01
    n = 600
    rec = perturbed_orbit(fam, selector_random(20, n, 2), point(UNIT, 0.5),
                          constant_series(n, delta), seed=21)
    for k in (2, 3):
        _, sub = stride_subsample(fam, rec, k)
        cap = delta * sum(L ** j for j in range(k))
        assert np.all(sub.errors.values <= cap + 1e-12)


def test_record_json_round_trip():
    b = make_system("binary_affine")
    rec = perturbed_orbit(b, selector_random(22, 20, 2), point(UNIT, 0.25),
                          harmonic_series(20), seed=23)
    clone = record_from_json(record_to_json(rec))
    assert clone.points == rec.points
    assert clone.selector.entries == rec.selector.entries
    assert np.array_equal(clone.errors.values, rec.errors.values)


def test_record_json_rejects_disagreeing_lengths():
    b = make_system("binary_affine")
    rec = perturbed_orbit(b, selector_random(22, 20, 2), point(UNIT, 0.25),
                          harmonic_series(20), seed=23)
    payload = record_to_json(rec)
    for key, field in (("errors", None), ("points", None), ("selector", "entries")):
        bad = record_to_json(rec)
        if field is None:
            bad[key] = bad[key][:-1]
        else:
            bad[key][field] = bad[key][field][:-1]
        with pytest.raises(IFSError):
            record_from_json(bad)
    payload["selector"]["entries"].append(0)  # a longer selector is allowed
    assert record_from_json(payload).steps == 20


def test_errors_recomputable_from_points_and_selector():
    b = make_system("binary_affine")
    rec = perturbed_orbit(b, selector_random(24, 60, 2), point(UNIT, 0.4),
                          harmonic_series(60), seed=25)
    rebuilt = pseudo_orbit_record(b, rec.points, rec.selector)
    assert np.all(np.abs(rebuilt.errors.values - rec.errors.values) <= 1e-12)
