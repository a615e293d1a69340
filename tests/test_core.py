import json
import pickle

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ifsdyn import (
    Circle,
    DomainError,
    GuardError,
    IFSSpec,
    Interval,
    LengthError,
    MapDef,
    SelectorSequence,
    SymbolSpace,
    apply,
    apply_map,
    compose_apply,
    conjugate_ifs,
    distance,
    estimate_contraction_ratio,
    ifs_from_json,
    ifs_to_json,
    make_system,
    orbit,
    pair_split,
    point,
    power_ifs,
    product_ifs,
    sample_point,
    selector_explicit,
    selector_periodic,
    selector_random,
    subsystem,
    word_digits,
    word_index,
)
from ifsdyn.cli import _parse_selector
from ifsdyn.spaces import batch_leaves

UNIT = Interval(0.0, 1.0)
BITS = "".join


def identity_ifs(space=UNIT):
    return IFSSpec(space, (MapDef("id", "identity"),))


def test_apply_examples():
    b = make_system("binary_affine")
    assert apply(b, 0, point(UNIT, 0.8)).value == 0.4
    s2 = make_system("sigma2_prepend")
    s = point(s2.space, "0" * 64)
    out = apply(s2, 1, s)
    assert out.value[:4] == (1, 0, 0, 0)
    # F1(t) = t + (1/2 - t)t at t = 0.25
    cp = make_system("circle_pair")
    assert apply(cp, 0, point(Circle(), 0.25)).value == pytest.approx(0.3125, abs=1e-15)


def test_apply_errors():
    b = make_system("binary_affine")
    with pytest.raises(DomainError):
        apply(b, 2, point(UNIT, 0.5))
    with pytest.raises(DomainError):
        apply(b, 0, point(Circle(), 0.5))
    with pytest.raises(DomainError):  # a bitmask step cannot prepend a non-bit
        apply_map(MapDef("p2", "prepend", (2,)), point(SymbolSpace(8), "1"))


def test_orbit_examples():
    b = make_system("binary_affine")
    rec = orbit(b, selector_explicit([0]), point(UNIT, 0.3), 0)
    assert [p.value for p in rec.points] == [0.3]
    rec = orbit(b, selector_explicit([0, 0, 0]), point(UNIT, 1.0), 3)
    assert [p.value for p in rec.points] == [1.0, 0.5, 0.25, 0.125]
    rec = orbit(b, selector_periodic([1], 3), point(UNIT, 0.0), 3)
    assert [p.value for p in rec.points] == [0.0, 0.5, 0.75, 0.875]


def test_orbit_recurrence_exact():
    b = make_system("binary_affine")
    sel = selector_random(4, 50, 2)
    rec = orbit(b, sel, point(UNIT, 0.37), 50)
    for i in range(50):
        assert apply(b, sel.entry(i), rec.points[i]) == rec.points[i + 1]


def test_selector_exhaustion():
    b = make_system("binary_affine")
    with pytest.raises(LengthError):
        orbit(b, selector_explicit([0, 1]), point(UNIT, 0.5), 3)


def test_compose_apply():
    b = make_system("binary_affine")
    x = point(UNIT, 0.9)
    assert compose_apply(b, selector_explicit([0]), 0, x) == x
    # f1(f0(0)) = f1(0) = 0.5
    assert compose_apply(b, selector_explicit([0, 1]), 2, point(UNIT, 0.0)).value == 0.5


def test_compose_equals_orbit_endpoint():
    b = make_system("binary_affine")
    rng = np.random.default_rng(11)
    for _ in range(100):
        n = int(rng.integers(1, 30))
        sel = selector_random(int(rng.integers(0, 10_000)), n, 2)
        x = sample_point(b.space, rng)
        assert compose_apply(b, sel, n, x) == orbit(b, sel, x, n).points[n]


def test_cocycle_property():
    b = make_system("binary_affine")
    rng = np.random.default_rng(12)
    for _ in range(100):
        n = int(rng.integers(0, 20))
        m = int(rng.integers(0, 20))
        sel = selector_random(int(rng.integers(0, 10_000)), n + m, 2)
        x = sample_point(b.space, rng)
        direct = compose_apply(b, sel, n + m, x)
        staged = compose_apply(b, sel.shift(n), m, compose_apply(b, sel, n, x))
        assert direct == staged


def test_estimate_contraction_ratio():
    b = make_system("binary_affine")
    est = estimate_contraction_ratio(b, 10_000, seed=0)
    # slope 1/2 exactly; rounding noise stays inside the 1e-9 claim slack
    assert est >= 0.5 - 1e-12
    assert est == pytest.approx(0.5, abs=1e-9)
    s2 = make_system("sigma2_prepend")
    est2 = estimate_contraction_ratio(s2, 10_000, seed=0)
    assert 0.49 <= est2 <= 0.5
    ident = identity_ifs()
    assert estimate_contraction_ratio(ident, 100, seed=0) == 1.0


def test_estimate_running_max():
    b = make_system("binary_affine")
    prev = 0.0
    for pairs in (10, 100, 1000, 5000):
        est = estimate_contraction_ratio(b, pairs, seed=9)
        assert est >= prev
        prev = est


def test_word_index_round_trip():
    for base in (2, 3, 5):
        for k in (2, 3, 4):
            for mu in range(base ** k):
                digits = word_digits(mu, base, k)
                assert word_index(digits, base) == mu


def test_power_ifs_word_enumeration():
    s2 = make_system("sigma2_prepend")
    p2 = power_ifs(s2, 2)
    assert p2.nmaps == 4
    s = point(s2.space, "0" * 64)
    # enumeration: map 1 applies prepend0 first then prepend1, giving 10...
    outs = [BITS(map(str, apply(p2, mu, s).value[:2])) for mu in range(4)]
    assert outs == ["00", "10", "01", "11"]
    assert p2.claimed_contraction == pytest.approx(0.25)


def test_power_zero_word_is_double_f0():
    b = make_system("binary_affine")
    p2 = power_ifs(b, 2)
    x = point(UNIT, 0.9)
    assert apply(p2, 0, x) == apply(b, 0, apply(b, 0, x))
    est = estimate_contraction_ratio(p2, 2000, seed=1)
    assert est == pytest.approx(0.25, abs=1e-12)


def test_power_guard():
    perms = make_system("finite_permutations:4")  # 24 maps
    with pytest.raises(GuardError):
        power_ifs(perms, 3)  # 24^3 > 4096
    with pytest.raises(DomainError):
        power_ifs(perms, 1)


@pytest.mark.parametrize("model", ["sigma2_prepend", "binary_affine"])
@pytest.mark.parametrize("k", [2, 3, 4])
def test_stride_identity(model, k):
    base = make_system(model)
    pspec = power_ifs(base, k)
    rng = np.random.default_rng(100 * k)
    steps = 6
    for trial in range(100):
        sel = selector_random(trial + 1000 * k, k * steps, base.nmaps)
        x = sample_point(base.space, rng)
        words = [
            word_index([sel.entry(i * k + j) for j in range(k)], base.nmaps)
            for i in range(steps)
        ]
        wsel = selector_explicit(words, pspec.nmaps)
        for i in range(steps + 1):
            a = compose_apply(pspec, wsel, i, x)
            b = compose_apply(base, sel, k * i, x)
            assert distance(a, b) == 0.0  # identical op sequences, bitwise


def test_product_ifs():
    b = make_system("binary_affine")
    prod = product_ifs(b, b)
    x = point(prod.space, (1.0, 1.0))
    out = apply(prod, 0, x)
    assert (out.value[0].value, out.value[1].value) == (0.5, 0.5)
    assert prod.nmaps == 4
    lam, gam = pair_split(3, 2)
    assert (lam, gam) == (1, 1)
    assert prod.claimed_contraction == 0.5
    # both coordinates halve, so every sampled max-metric ratio is 1/2
    est = estimate_contraction_ratio(prod, 3000, seed=2)
    assert est == pytest.approx(0.5, abs=1e-9)
    assert est >= 0.5 - 1e-12


def test_conjugate_identity():
    b = make_system("binary_affine")
    conj = conjugate_ifs(b, lambda p: p, lambda p: p, UNIT)
    x = point(UNIT, 0.3)
    for lam in range(2):
        assert apply(conj, lam, x) == apply(b, lam, x)


def test_conjugate_square():
    b = make_system("binary_affine")

    def h(p):
        return point(UNIT, p.value * p.value)

    def h_inv(p):
        return point(UNIT, p.value ** 0.5)

    conj = conjugate_ifs(b, h, h_inv, UNIT)
    # g0(y) = (sqrt(y)/2)^2 = y/4
    for y in (0.0, 0.04, 0.25, 0.81, 1.0):
        assert apply(conj, 0, point(UNIT, y)).value == pytest.approx(y / 4, abs=1e-12)


def test_conjugate_orbit_commutation():
    b = make_system("binary_affine")

    def h(p):
        return point(UNIT, p.value * p.value)

    def h_inv(p):
        return point(UNIT, p.value ** 0.5)

    conj = conjugate_ifs(b, h, h_inv, UNIT)
    rng = np.random.default_rng(21)
    for trial in range(100):
        n = 12
        sel = selector_random(trial, n, 2)
        x = sample_point(b.space, rng)
        fo = orbit(b, sel, x, n)
        go = orbit(conj, sel, h(x), n)
        for p, q in zip(fo.points, go.points):
            assert distance(h(p), q) <= 1e-9


def test_conjugate_maps_compare_by_function():
    b = make_system("binary_affine")
    sq = conjugate_ifs(b, lambda p: point(UNIT, p.value ** 2),
                       lambda p: point(UNIT, p.value ** 0.5), UNIT)
    cu = conjugate_ifs(b, lambda p: point(UNIT, p.value ** 3),
                       lambda p: point(UNIT, p.value ** (1 / 3)), UNIT)
    assert sq.maps[0] != cu.maps[0] and sq != cu
    assert sq.maps == sq.maps
    fn = sq.maps[0].fn
    assert MapDef("g", "conjugate", (), fn) == MapDef("g", "conjugate", (), fn)


def test_conjugate_validation_failure():
    b = make_system("binary_affine")
    from ifsdyn import ConjugacyError

    with pytest.raises(ConjugacyError):
        conjugate_ifs(b, lambda p: point(UNIT, p.value / 2), lambda p: p, UNIT)


def test_subsystem():
    cp = make_system("circle_pair")
    only_f1 = subsystem(cp, [0])
    assert only_f1.nmaps == 1
    assert only_f1.surjective_flags == (True,)
    x = point(Circle(), 0.7)
    assert apply(only_f1, 0, x) == apply(cp, 0, x)


def test_ifs_json_round_trip():
    for model in ["binary_affine", "sigma2_prepend", "circle_pair",
                  "interval_pair", "finite_permutations:3"]:
        ifs = make_system(model)
        clone = ifs_from_json(ifs_to_json(ifs))
        assert clone.space == ifs.space
        assert clone.maps == ifs.maps
        assert clone.claimed_contraction == ifs.claimed_contraction
        assert clone.surjective_flags == ifs.surjective_flags
    prod = product_ifs(make_system("binary_affine"), make_system("binary_affine"))
    clone = ifs_from_json(ifs_to_json(prod))
    x = point(prod.space, (0.3, 0.8))
    assert apply(clone, 2, x) == apply(prod, 2, x)


def test_used_ifs_pickles():
    """Specs stay picklable (for process pools) after their maps have run."""
    for ifs in (make_system("sigma2_prepend"), power_ifs(make_system("binary_affine"), 2)):
        x = sample_point(ifs.space, np.random.default_rng(0))
        walked = orbit(ifs, selector_explicit([1, 0, 1]), x, 3).points  # compiles the walk
        clone = pickle.loads(pickle.dumps(ifs))
        assert clone == ifs and apply(clone, 1, x) == apply(ifs, 1, x)
        assert orbit(clone, selector_explicit([1, 0, 1]), x, 3).points == walked


def test_selector_range_is_cached_outside_equality_and_pickles():
    b = make_system("binary_affine")
    sel = SelectorSequence((0, 1, 1, 5, 0, -1))
    fresh = pickle.dumps(sel)
    x = point(UNIT, 0.5)
    assert len(orbit(b, sel, x, 3).points) == 4  # the bad entries lie past the horizon
    for n in (4, 6):
        with pytest.raises(DomainError, match=r"^map index 5 out of range for 2 maps$"):
            orbit(b, sel, x, n)
    with pytest.raises(DomainError, match=r"^map index -1 out of range for 6 maps$"):
        orbit(IFSSpec(UNIT, (MapDef("id", "identity"),) * 6), sel, x, 6)
    assert "entry_range" in vars(sel) and sel.entry_range == (-1, 5)
    assert pickle.dumps(sel) == fresh and "entry_range" not in vars(pickle.loads(fresh))
    twin = SelectorSequence((0, 1, 1, 5, 0, -1))
    assert sel == twin and hash(sel) == hash(twin) and pickle.loads(fresh) == sel
    assert SelectorSequence(()).entry_range == (0, -1)
    with pytest.raises(LengthError, match=r"^selector exhausted: entry 0 requested, 0 realized$"):
        orbit(b, SelectorSequence(()), x, 1)


def test_conjugate_does_not_serialize():
    b = make_system("binary_affine")
    conj = conjugate_ifs(b, lambda p: p, lambda p: p, UNIT)
    with pytest.raises(DomainError):
        ifs_to_json(conj)


def test_maps_stay_inside_space():
    rng = np.random.default_rng(5)
    for model in ["binary_affine", "sigma2_prepend", "circle_pair",
                  "interval_pair", "finite_permutations:3"]:
        ifs = make_system(model)
        for _ in range(200):
            x = sample_point(ifs.space, rng)
            for lam in range(ifs.nmaps):
                y = apply(ifs, lam, x)
                assert y.kind == ifs.space


def test_periodic_labels_round_trip_through_the_cli_parser():
    assert selector_periodic([0, 1, 1], 5).generator == "periodic:011"
    assert selector_periodic([12, 3], 5).generator != selector_periodic([1, 23], 5).generator
    for pattern in ([0, 1], [1, 2, 3], [12, 3], [1, 23], [10], [0, 11, 2], [9, 9]):
        sel = selector_periodic(pattern, 7, 24)
        assert _parse_selector(sel.generator, 7, 24) == sel


def _wire(ifs):
    return ifs_from_json(json.loads(json.dumps(ifs_to_json(ifs))))


_affine_maps = st.lists(st.tuples(st.floats(0.01, 0.99), st.floats(0.0, 1.0)),
                        min_size=1, max_size=3).map(
    lambda ps: tuple(MapDef(f"a{i}", "affine", (a, b * (1.0 - a))) for i, (a, b) in enumerate(ps)))


@settings(max_examples=40, deadline=None)
@given(maps=_affine_maps, k=st.integers(2, 3), perm_n=st.integers(1, 3), seed=st.integers(0, 2**31 - 1))
def test_compose_and_product_specs_survive_the_json_wire(maps, k, perm_n, seed):
    """ifs_to_json -> ifs_from_json gives an equal spec whose family images
    are byte-identical, for power (compose) and product families."""
    base = IFSSpec(UNIT, maps, claimed_contraction=max(m.params[0] for m in maps), name="rand")
    rng = np.random.default_rng(seed)
    for ifs in (power_ifs(base, k), product_ifs(base, make_system(f"finite_permutations:{perm_n}")),
                product_ifs(power_ifs(base, 2), base)):
        clone = _wire(ifs)
        assert clone == ifs
        kind = ifs.space
        batch = kind.batch([kind.encode(sample_point(kind, rng)) for _ in range(7)])
        for a, b in zip(batch_leaves(clone.raw_images(batch)), batch_leaves(ifs.raw_images(batch))):
            assert a.dtype == b.dtype and a.tobytes() == b.tobytes()
