"""The raw-coordinate trajectory core against Point-by-Point oracles.

The oracles below are the step-by-step implementations the raw core
replaced: `apply` through the map-form ladder and `point()`, the metric on
`Point`s, `_displace` with one scalar draw per leaf and step, and the walks
of `orbit`, `perturbed_orbit`, `pseudo_orbit_record` and the shadow track.
Outputs must agree bit for bit, including the state of the generator that
`perturbed_orbit` draws from.
"""

import dataclasses
import math
import operator
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import ifsdyn.core as core
import ifsdyn.shadowing as shadowing
from ifsdyn import (
    Circle,
    DomainError,
    FiniteDiscrete,
    IFSSpec,
    Interval,
    MapDef,
    Point,
    Product,
    RawPoints,
    SelectorSequence,
    SymbolSpace,
    apply,
    conjugate_ifs,
    constant_series,
    diameter,
    distance,
    estimate_contraction_ratio,
    finite_shadowing_check,
    greedy_shadow_search,
    harmonic_series,
    make_system,
    orbit,
    perturbed_orbit,
    point,
    power_ifs,
    product_ifs,
    pseudo_orbit_record,
    running_average_curve,
    sample_point,
    selector_explicit,
    selector_periodic,
    selector_random,
    series,
    stride_subsample,
    word_index,
)
from ifsdyn.core import _twopiece, walk
from ifsdyn.errors import ContractionError, IFSError
from ifsdyn.spaces import _EDGE_SLACK, batch_leaves, leafwise, sample_batch, unbatch

UNIT = Interval(0.0, 1.0)


# --- Point-by-Point oracles ---------------------------------------------------

def oracle_apply_map(m, x):
    kind = x.kind
    if m.form == "identity":
        return x
    if m.form == "affine":
        if not isinstance(kind, Interval):
            raise DomainError("affine maps act on intervals")
        a, b = m.params
        return point(kind, a * x.value + b)
    if m.form == "twopiece_quadratic":
        if not isinstance(kind, (Interval, Circle)):
            raise DomainError("twopiece_quadratic acts on [0,1] or the circle")
        c_low, c_high = m.params
        return point(kind, _twopiece(c_low, c_high, x.value))
    if m.form == "prepend":
        (bit,) = m.params
        return Point(kind, (bit,) + x.value[: kind.depth - 1])
    if m.form == "permutation":
        return point(kind, m.params[x.value])
    if m.form == "compose":
        for sub in m.params:
            x = oracle_apply_map(sub, x)
        return x
    if m.form == "product":
        ml, mr = m.params
        return Point(kind, (oracle_apply_map(ml, x.value[0]), oracle_apply_map(mr, x.value[1])))
    if m.form == "conjugate":
        return m.fn(x)
    raise DomainError(f"unknown map form {m.form!r}")


def oracle_apply(ifs, lam, x):
    if not 0 <= lam < ifs.nmaps:
        raise DomainError(f"map index {lam} out of range for {ifs.nmaps} maps")
    if x.kind != ifs.space:
        raise DomainError("point does not belong to the IFS space")
    return oracle_apply_map(ifs.maps[lam], x)


def oracle_distance(a, b):
    if a.kind != b.kind:
        raise DomainError("kind mismatch")
    kind = a.kind
    if isinstance(kind, Interval):
        return abs(a.value - b.value)
    if isinstance(kind, Circle):
        d = abs(a.value - b.value)
        return min(d, 1.0 - d)
    if isinstance(kind, SymbolSpace):
        for k, (sa, sb) in enumerate(zip(a.value, b.value)):
            if sa != sb:
                return 2.0 ** (1 - k)
        return 0.0
    if isinstance(kind, FiniteDiscrete):
        return 0.0 if a.value == b.value else 1.0
    return max(oracle_distance(a.value[0], b.value[0]), oracle_distance(a.value[1], b.value[1]))


def oracle_displace(base, s, rng):
    kind = base.kind
    if s <= 0:
        return base
    if isinstance(kind, Interval):
        sign = 1.0 if rng.integers(0, 2) else -1.0
        return point(kind, min(max(base.value + sign * s, kind.lo), kind.hi))
    if isinstance(kind, Circle):
        sign = 1.0 if rng.integers(0, 2) else -1.0
        return point(kind, (base.value + sign * min(s, 0.5)) % 1.0)
    if isinstance(kind, SymbolSpace):
        k = 0
        while k < kind.depth and 2.0 ** (1 - k) > s:
            k += 1
        if k >= kind.depth:
            return base
        bits = list(base.value)
        bits[k] ^= 1
        return Point(kind, tuple(bits))
    if isinstance(kind, FiniteDiscrete):
        if s < 1.0 or kind.n == 1:
            return base
        shift = 1 + int(rng.integers(0, kind.n - 1))
        return point(kind, (base.value + shift) % kind.n)
    return Point(kind, (oracle_displace(base.value[0], s, rng),
                        oracle_displace(base.value[1], s, rng)))


def oracle_perturbed_orbit(ifs, selector, x0, schedule, seed):
    rng = np.random.default_rng(seed)
    n = schedule.horizon
    pts, errs, cur = [x0], np.empty(n), x0
    for i in range(n):
        base = oracle_apply(ifs, selector.entry(i), cur)
        cur = oracle_displace(base, float(schedule.values[i]), rng)
        errs[i] = oracle_distance(base, cur)
        pts.append(cur)
    return pts, errs, rng.bit_generator.state


def oracle_orbit(ifs, selector, x0, n):
    if x0.kind != ifs.space:
        raise DomainError("initial point does not belong to the IFS space")
    pts = [x0]
    for i in range(n):
        pts.append(oracle_apply(ifs, selector.entry(i), pts[-1]))
    return pts


def oracle_record_errors(ifs, pts, selector):
    return np.array([oracle_distance(oracle_apply(ifs, selector.entry(i), pts[i]), pts[i + 1])
                     for i in range(len(pts) - 1)], dtype=float)


def oracle_track(ifs, pts, z, n, sigma=None):
    lams = list(sigma.entries[: n - 1]) if sigma is not None else []
    ds, cur = [], z
    for i in range(n - 1):
        ds.append(oracle_distance(cur, pts[i]))
        if sigma is not None:
            cur = oracle_apply(ifs, lams[i], cur)
            continue
        best = math.inf
        for lam in range(ifs.nmaps):
            image = oracle_apply(ifs, lam, cur)
            gap = oracle_distance(image, pts[i + 1])
            if gap < best:
                best, pick, nxt = gap, lam, image
        lams.append(pick)
        cur = nxt
    ds.append(oracle_distance(cur, pts[n - 1]))
    return np.asarray(ds, dtype=float), lams


# --- cases --------------------------------------------------------------------

def _square(q):
    return point(q.kind, q.value * q.value)


def _sqrt(q):
    return point(q.kind, q.value ** 0.5)


def _cases():
    binary = make_system("binary_affine")
    circle = make_system("circle_pair")
    perms = make_system("finite_permutations:4")
    return {
        "binary_affine": (binary, "harmonic"),
        "sigma2_prepend": (make_system("sigma2_prepend"), "harmonic"),
        "symbols8": (make_system("sigma2_prepend:8"), "harmonic"),
        "symbols100": (make_system("sigma2_prepend:100"), "harmonic"),
        "circle_pair": (circle, "harmonic"),
        "interval_pair": (make_system("interval_pair"), "harmonic"),
        "finite_permutations4": (perms, "one"),
        "power": (power_ifs(binary, 2), "harmonic"),
        "binary_x_binary": (product_ifs(binary, binary), "harmonic"),
        "circle_x_circle": (product_ifs(circle, circle), "harmonic"),
        "binary_x_finite": (product_ifs(binary, perms), "one"),
        "conjugate": (conjugate_ifs(binary, _square, _sqrt, UNIT), "harmonic"),
    }


CASES = _cases()


def _schedule(ifs, kind, n):
    if kind == "one":
        return constant_series(n, 1.0)
    values = harmonic_series(n).values * min(1.0, diameter(ifs.space))
    values[::7] = 0.0  # steps without displacement
    return series(values)


def _fingerprint(p):
    """Payload with its Python types, floats as exact hex."""
    if isinstance(p.kind, Product):
        return (_fingerprint(p.value[0]), _fingerprint(p.value[1]))
    v = p.value
    return (type(v).__name__, v.hex() if isinstance(v, float) else v)


def _same_points(a, b):
    return len(a) == len(b) and all(_fingerprint(p) == _fingerprint(q) for p, q in zip(a, b))


def _library_perturbed(monkeypatch, *args):
    """perturbed_orbit and the state of the generator it made, after the call."""
    made = []
    real = np.random.default_rng

    def spy(seed):
        made.append(real(seed))
        return made[-1]

    monkeypatch.setattr(np.random, "default_rng", spy)
    rec = perturbed_orbit(*args)
    monkeypatch.undo()
    return rec, made[0].bit_generator.state


@pytest.mark.parametrize("name", sorted(CASES))
def test_raw_core_matches_point_oracles(name, monkeypatch):
    ifs, noise = CASES[name]
    n = 300
    rng = np.random.default_rng(11)
    sel = selector_random(12, n, ifs.nmaps)
    x0, z = sample_point(ifs.space, rng), sample_point(ifs.space, rng)
    schedule = _schedule(ifs, noise, n)

    rec, state = _library_perturbed(monkeypatch, ifs, sel, x0, schedule, 13)
    pts, errs, oracle_state = oracle_perturbed_orbit(ifs, sel, x0, schedule, 13)
    assert _same_points(rec.points, pts)
    assert rec.errors.values.tobytes() == errs.tobytes()
    assert state == oracle_state

    assert _same_points(orbit(ifs, sel, x0, n).points, oracle_orbit(ifs, sel, x0, n))

    again = pseudo_orbit_record(ifs, list(rec.points), sel)
    assert again.errors.values.tobytes() == oracle_record_errors(ifs, pts, sel).tobytes()

    for start in (rec.points[0], z):
        ds = shadowing._track(ifs, rec, start, n + 1, sel)
        assert ds.tobytes() == oracle_track(ifs, pts, start, n + 1, sel)[0].tobytes()

    # the lockstep greedy search, from a grid with duplicate starts
    starts = [rec.points[0], z, z, *(sample_point(ifs.space, rng) for _ in range(4)), rec.points[0]]
    ds, lams = shadowing._greedy_tracks(ifs, rec, starts, 80)
    assert ds.shape == (len(starts), 80) and lams.shape == (len(starts), 79)
    for row, start in enumerate(starts):
        ods, olams = oracle_track(ifs, pts, start, 80)
        assert ds[row].tobytes() == ods.tobytes() and lams[row].tolist() == olams


@pytest.mark.parametrize("depth", [8, 64, 100])
def test_symbol_flips_at_powers_of_two(depth, monkeypatch):
    """Noise at and next to every power of two, where a log2 estimate of the
    flipped bit rounds the wrong way."""
    powers = np.ldexp(1.0, -np.arange(0, depth + 2))
    subnormals = np.ldexp([1.0, 1.5, 1.0, 1.75], [-1074, -1060, -1023, -1023])
    values = np.concatenate([powers, np.nextafter(powers, 0.0), np.nextafter(powers, 2.0), subnormals])
    values = np.minimum(values, 2.0)
    ifs = make_system(f"sigma2_prepend:{depth}")
    n = len(values)
    sel = selector_random(31, n, ifs.nmaps)
    x0 = sample_point(ifs.space, np.random.default_rng(32))
    rec, state = _library_perturbed(monkeypatch, ifs, sel, x0, series(values), 33)
    pts, errs, oracle_state = oracle_perturbed_orbit(ifs, sel, x0, series(values), 33)
    assert _same_points(rec.points, pts)
    assert rec.errors.values.tobytes() == errs.tobytes()
    assert state == oracle_state


def test_replaced_record_points_are_encoded_again():
    b = CASES["binary_affine"][0]
    sel = selector_random(41, 20, 2)
    rec = perturbed_orbit(b, sel, point(UNIT, 0.3), harmonic_series(20), 42)
    pts = list(rec.points)
    pts[10] = point(UNIT, 0.99)
    moved = dataclasses.replace(rec, points=tuple(pts))
    ds = shadowing._track(b, moved, pts[0], 21, sel)
    assert ds.tobytes() == oracle_track(b, pts, pts[0], 21, sel)[0].tobytes()


def _raises_same(f, g):
    """f and g raise exceptions of the same type."""
    caught = []
    for fn in (f, g):
        with pytest.raises(Exception) as info:
            fn()
        caught.append(info.type)
    assert caught[0] is caught[1], caught


def test_error_types_match_oracles():
    b = CASES["binary_affine"][0]
    noise = constant_series(4, 0.01)
    wrong = point(Circle(), 0.2)
    good = point(UNIT, 0.2)
    bad_sel = SelectorSequence((0, 1, 5, 0))
    short_sel = SelectorSequence((0, 1))
    _raises_same(lambda: orbit(b, bad_sel, good, 4), lambda: oracle_orbit(b, bad_sel, good, 4))
    _raises_same(lambda: orbit(b, short_sel, good, 4), lambda: oracle_orbit(b, short_sel, good, 4))
    _raises_same(lambda: orbit(b, selector_explicit([0] * 4), wrong, 4),
                 lambda: oracle_orbit(b, selector_explicit([0] * 4), wrong, 4))
    for sel, x in ((bad_sel, good), (short_sel, good), (selector_explicit([0] * 4), wrong)):
        _raises_same(lambda: perturbed_orbit(b, sel, x, noise, 1),
                     lambda: oracle_perturbed_orbit(b, sel, x, noise, 1))
    pts = list(orbit(b, selector_explicit([0] * 4), good, 4).points)
    _raises_same(lambda: pseudo_orbit_record(b, pts, bad_sel),
                 lambda: oracle_record_errors(b, pts, bad_sel))
    _raises_same(lambda: pseudo_orbit_record(b, pts[:2] + [wrong] + pts[3:], selector_explicit([0] * 4)),
                 lambda: oracle_record_errors(b, pts[:2] + [wrong] + pts[3:], selector_explicit([0] * 4)))
    rec = pseudo_orbit_record(b, pts, selector_explicit([0] * 4))
    _raises_same(lambda: shadowing._track(b, rec, good, 5, bad_sel),
                 lambda: oracle_track(b, pts, good, 5, bad_sel))
    _raises_same(lambda: shadowing._greedy_tracks(b, rec, [good, wrong], 5),
                 lambda: oracle_track(b, pts, wrong, 5))

    leave = IFSSpec(UNIT, (MapDef("out", "affine", (1.0, 0.5)),))
    sel = selector_explicit([0] * 4)
    _raises_same(lambda: orbit(leave, sel, good, 4), lambda: oracle_orbit(leave, sel, good, 4))
    _raises_same(lambda: perturbed_orbit(leave, sel, good, noise, 1),
                 lambda: oracle_perturbed_orbit(leave, sel, good, noise, 1))
    high = [point(UNIT, 0.8)] * 5
    _raises_same(lambda: pseudo_orbit_record(leave, high, sel),
                 lambda: oracle_record_errors(leave, high, sel))
    _raises_same(lambda: shadowing._greedy_tracks(leave, rec, [good, high[0]], 5),
                 lambda: oracle_track(leave, pts, high[0], 5))


@pytest.mark.parametrize("kind", [UNIT, Circle(), SymbolSpace(8), SymbolSpace(100), FiniteDiscrete(5),
                                  Product(UNIT, SymbolSpace(70)), Product(Circle(), FiniteDiscrete(3))])
def test_encode_decode_and_metrics(kind):
    rng = np.random.default_rng(21)
    pts = [sample_point(kind, rng) for _ in range(60)]
    pts += pts[:5]  # equal pairs
    raws = [kind.encode(p) for p in pts]
    assert _same_points([kind.decode(r) for r in raws], pts)
    a, b = pts[:-1], pts[1:]
    expect = np.array([oracle_distance(p, q) for p, q in zip(a, b)])
    assert np.array([kind.dist(x, y) for x, y in zip(raws, raws[1:])]).tobytes() == expect.tobytes()
    assert kind.dists(kind.batch(raws[:-1]), kind.batch(raws[1:])).tobytes() == expect.tobytes()
    # a batch against one raw value, as the lockstep search measures it
    one = np.array([oracle_distance(p, pts[0]) for p in pts])
    assert kind.dists(kind.batch(raws), raws[0]).tobytes() == one.tobytes()
    assert _same_points([kind.decode(r) for r in unbatch(kind.batch(raws))], pts)


def test_symbol_bitmask_puts_the_first_symbol_in_the_top_bit():
    kind = SymbolSpace(100)
    assert kind.encode(point(kind, "1")) == 1 << 99
    assert kind.encode(point(kind, "0" * 99 + "1")) == 1
    p = point(kind, "01")
    assert kind.dist(kind.encode(p), kind.encode(point(kind, "0"))) == 2.0 ** (1 - 1)


# --- the family-image call and the lockstep search ---------------------------

def _leaf_rows(images):
    """Leaf arrays of a batch of images, as lists of Python values."""
    return [a.tolist() for a in batch_leaves(images)]


MIXED = IFSSpec(UNIT, (MapDef("a", "affine", (0.5, 0.25)), MapDef("q", "twopiece_quadratic", (1.5, -0.5)),
                       MapDef("id", "identity"), MapDef("c", "compose", (MapDef("a", "affine", (0.5, 0.0)),
                                                                          MapDef("q", "twopiece_quadratic", (2.0, 2.0))))))


FAMILIES = {"mixed": MIXED, "power_of_product": power_ifs(CASES["binary_x_finite"][0], 2),
            "circle_x_conjugate": product_ifs(CASES["circle_pair"][0], CASES["conjugate"][0])}


@pytest.mark.parametrize("name", sorted(CASES) + sorted(FAMILIES))
def test_family_images_match_raw_steps(name):
    ifs = FAMILIES[name] if name in FAMILIES else CASES[name][0]
    kind = ifs.space
    rng = np.random.default_rng(51)
    raws = [kind.encode(sample_point(kind, rng)) for _ in range(9)]
    raws += raws[:2]
    images = ifs.raw_images(kind.batch(raws))
    expect = kind.batch([step(x) for step in ifs.raw_steps for x in raws])
    for got, want in zip(_leaf_rows(images), _leaf_rows(expect)):
        assert np.shape(got) == (ifs.nmaps, len(raws))
        flat = [v for row in got for v in row]
        assert [(type(v), v.hex() if isinstance(v, float) else v) for v in flat] == \
            [(type(v), v.hex() if isinstance(v, float) else v) for v in want]


def test_family_images_raise_as_the_steps_do():
    good = UNIT.batch([0.2, 0.9])
    for maps in ((MapDef("out", "affine", (1.0, 0.5)),),
                 (MapDef("a", "affine", (0.5, 0.0)), MapDef("out", "affine", (1.0, 0.5))),
                 (MapDef("p", "prepend", (1,)),),
                 (MapDef("a", "affine", (0.5, 0.0)), MapDef("p", "permutation", (0, 1)))):
        ifs = IFSSpec(UNIT, maps)
        _raises_same(lambda: ifs.raw_images(good), lambda: [s(x) for s in ifs.raw_steps for x in (0.2, 0.9)])
    circle = IFSSpec(Circle(), (MapDef("q", "twopiece_quadratic", (math.nan, 0.0)),))
    _raises_same(lambda: circle.raw_images(Circle().batch([0.2])), lambda: circle.raw_steps[0](0.2))
    perm = IFSSpec(FiniteDiscrete(3), (MapDef("p", "permutation", (0, 5, 1)),))
    _raises_same(lambda: perm.raw_images(FiniteDiscrete(3).batch([1])), lambda: perm.raw_steps[0](1))


def _pairs_oracle(ifs, raws, lams):
    """The scalar step of map lams[..., s] at raws[s], for every broadcast
    (map, point) pair, map-major."""
    lams, at = np.broadcast_arrays(lams, np.arange(len(raws)))
    return [ifs.raw_steps[lam](raws[i]) for lam, i in zip(lams.ravel().tolist(), at.ravel().tolist())]


def _flat(batch):
    """Leaf values of a batch in C order, as (type, exact value) pairs."""
    return [[(type(v), v.hex() if isinstance(v, float) else v) for v in a.ravel().tolist()]
            for a in batch_leaves(batch)]


@pytest.mark.parametrize("name", sorted(CASES) + sorted(FAMILIES))
def test_images_under_given_maps_match_raw_steps(name):
    """`raw_images(x, lams)` is the scalar step of map lams[..., s] at x[s],
    bit for bit and in type: one map per point, one map for all points, every
    map, and on an empty batch."""
    ifs = FAMILIES[name] if name in FAMILIES else CASES[name][0]
    kind, m = ifs.space, ifs.nmaps
    rng = np.random.default_rng(52)
    raws = [kind.encode(sample_point(kind, rng)) for _ in range(9)]
    per_point = rng.integers(0, m, size=len(raws))
    for lams in (per_point, tuple(per_point.tolist()), m - 1, np.intp(0), np.arange(m)[:, None]):
        images = ifs.raw_images(kind.batch(raws), lams)
        shape = np.broadcast_shapes(np.shape(lams), (len(raws),))
        assert all(a.shape == shape for a in batch_leaves(images))
        assert _flat(images) == _flat(kind.batch(_pairs_oracle(ifs, raws, lams)))
    empty = kind.batch([])
    for lams, shape in ((np.zeros(0, dtype=np.intp), (0,)), (0, (0,)), (np.arange(m)[:, None], (m, 0))):
        images = ifs.raw_images(empty, lams)
        assert all(a.shape == shape and a.dtype == b.dtype for a, b in zip(batch_leaves(images), batch_leaves(empty)))
    assert _flat(ifs.raw_images(kind.batch(raws))) == _flat(ifs.raw_images(kind.batch(raws), np.arange(m)[:, None]))


def test_images_under_given_maps_raise_as_the_steps_do():
    """A map is evaluated only where `lams` names it, and the first error is
    of the type a map-by-map loop over the broadcast pairs raises."""
    out, half = MapDef("out", "affine", (1.0, 0.5)), MapDef("a", "affine", (0.5, 0.0))
    cases = [(IFSSpec(UNIT, maps), [0.2, 0.9, 0.6])
             for maps in ((half, out), (out, half), (half, MapDef("p", "prepend", (1,))),
                          (half, MapDef("p", "permutation", (0, 1))),
                          (MapDef("id", "identity"), MapDef("c", "compose", (out, out))))]
    perms = IFSSpec(FiniteDiscrete(3), (MapDef("q", "permutation", (2, 0, 1)), MapDef("p", "permutation", (0, 5, 1))))
    cases += [(perms, [0, 2, 1]), (product_ifs(CASES["binary_affine"][0], perms), [(0.2, 0), (0.9, 2), (0.6, 1)])]
    raised = 0
    for ifs, raws in cases:
        for lams in (0, 1, [0, 1, 0], [1, 0, 0], [0, 0, 0], np.arange(2)[:, None]):
            try:
                want = _flat(ifs.space.batch(_pairs_oracle(ifs, raws, lams)))
            except IFSError as exc:
                with pytest.raises(type(exc)):
                    ifs.raw_images(ifs.space.batch(raws), lams)
                raised += 1
                continue
            assert _flat(ifs.raw_images(ifs.space.batch(raws), lams)) == want
    assert raised >= len(cases)


def _map_strategy():
    affine = st.tuples(st.floats(0.0, 1.0, exclude_min=True), st.floats(0.0, 1.0)).map(
        lambda p: MapDef("a", "affine", (p[0], p[1] * (1.0 - p[0]))))
    twopiece = st.tuples(st.floats(-2.0, 2.0), st.floats(-2.0, 2.0)).map(
        lambda p: MapDef("q", "twopiece_quadratic", p))
    return st.one_of(affine, twopiece)


@settings(max_examples=60, deadline=None)
@given(
    maps=st.lists(_map_strategy(), min_size=1, max_size=4),
    starts=st.lists(st.one_of(st.sampled_from([0.0, 0.25, 0.5, 1.0]), st.floats(0.0, 1.0)),
                    min_size=1, max_size=6),
    noise=st.floats(0.0, 0.5),
    n=st.integers(1, 40),
    seed=st.integers(0, 2**31 - 1),
)
def test_lockstep_search_picks_the_best_per_start_track(maps, starts, noise, n, seed):
    """The lockstep winner, its selector and its Cesàro curve are those of
    the best per-start oracle track, the first start winning ties."""
    ifs = IFSSpec(UNIT, tuple(maps))
    rng = np.random.default_rng(seed)
    rec = perturbed_orbit(ifs, selector_random(seed, n, ifs.nmaps), sample_point(UNIT, rng),
                          series(noise * harmonic_series(n).values), seed)
    grid = [point(UNIT, v) for v in starts] + [point(UNIT, starts[0])]  # a duplicate start
    pts = list(rec.points)
    tracks = [oracle_track(ifs, pts, z, n + 1) for z in grid]
    for score, report in ((np.mean, greedy_shadow_search(ifs, rec, grid, n + 1)),
                          (np.max, finite_shadowing_check(ifs, rec, 0.1, grid, n + 1).report)):
        best = min(range(len(grid)), key=lambda k: score(tracks[k][0]))
        ods, olams = tracks[best]
        assert report.candidate is grid[best]
        assert list(report.selector.entries) == olams
        assert report.cesaro_curve.values.tobytes() == running_average_curve(series(ods)).values.tobytes()
        assert report.sup_error == float(ods.max())


# --- raw-backed record points ------------------------------------------------

@pytest.mark.parametrize("name", sorted(CASES))
def test_record_points_are_a_decoding_view(name):
    ifs, noise = CASES[name]
    kind, n = ifs.space, 60
    rng = np.random.default_rng(61)
    sel = selector_random(62, n, ifs.nmaps)
    x0 = sample_point(kind, rng)
    rec = perturbed_orbit(ifs, sel, x0, _schedule(ifs, noise, n), 63)
    orb = orbit(ifs, sel, x0, n)
    assert _same_points(orb.points[:1], [x0]) and _same_points(rec.points[:1], [x0])
    for pts in (rec.points, orb.points):
        assert isinstance(pts, RawPoints) and len(pts) == n + 1
        eager = (x0, *map(kind.decode, unbatch(pts.raws)[1:]))  # the tuple of the points
        assert _same_points(pts, eager)
        assert _same_points([pts[i] for i in range(-len(pts), len(pts))], eager + eager)
        assert pts[7] == pts[7] and pts[7] is not pts[7]  # equal, decoded afresh, never cached
        for cut in (slice(3, 40, 4), slice(None, None, 2), slice(-5, None), slice(9, 2)):
            assert isinstance(pts[cut], RawPoints) and _same_points(pts[cut], eager[cut])
            assert pts[cut] == eager[cut] and eager[cut] == pts[cut]
        assert pts == eager and eager == pts and hash(pts) == hash(eager)
        assert pts != eager[:-1] and pts != list(eager) and pts != eager[::-1]
        assert pts == RawPoints(kind, leafwise(np.copy, pts.raws)) and pts[1:] != pts[:-1]
        for out in (n + 1, -n - 2):
            with pytest.raises(IndexError):
                pts[out]
    assert rec.raw(kind) is rec.points.raws


def _python_payload(p):
    """Whether a point's payload holds Python values only, no numpy scalars."""
    if isinstance(p.kind, Product):
        return all(_python_payload(q) for q in p.value)
    if isinstance(p.kind, SymbolSpace):
        return type(p.value) is tuple and all(type(b) is int for b in p.value)
    return type(p.value) in (float, int)


def test_word_backed_views_equal_int_backed_ones():
    """A view of uint64 words equals, slices and decodes as a view of the
    same points held as Python ints (the batch form above depth 64)."""
    ifs = make_system("sigma2_prepend")
    kind, n = ifs.space, 40
    x0 = sample_point(kind, np.random.default_rng(81))
    sel = selector_random(82, n, 2)
    for pts in (perturbed_orbit(ifs, sel, x0, harmonic_series(n), 83).points, orbit(ifs, sel, x0, n).points):
        assert isinstance(pts, RawPoints) and pts.raws.dtype == np.uint64
        ints = RawPoints(kind, pts.raws.astype(object))
        assert pts == ints and ints == pts and hash(pts) == hash(ints) == hash(tuple(ints))
        for cut in (slice(2, 9), slice(None, None, 3), slice(-4, None)):
            assert pts[cut] == ints[cut] and pts[cut] == tuple(ints[cut])
        assert pts != RawPoints(kind, ints.raws[::-1]) and pts[1:] != ints[:-1]
        assert _same_points(pts, ints) and all(_same_points([pts[i]], [ints[i]]) for i in (0, 7, -1))
        assert all(_python_payload(p) for p in (*pts, *pts[3:6], pts[-1]))
    floats = RawPoints(UNIT, UNIT.batch([0.25, 0.5, 1.0]))  # any kind's batch decodes to Python values
    assert floats == tuple(point(UNIT, v) for v in (0.25, 0.5, 1.0))
    assert all(_python_payload(p) for p in (*floats, floats[1]))


def _is_batch(kind, raws, n):
    """Whether `raws` is a batch of n points of `kind`: one array per leaf,
    of that leaf's dtype, nested as the product is."""
    same = leafwise(lambda a, e: type(a) is np.ndarray and a.dtype == e.dtype and a.shape == (n,),
                    raws, kind.batch([]))
    return all(batch_leaves(same))


@pytest.mark.parametrize("name", sorted(CASES))
def test_walks_views_and_records_hold_batches(name):
    ifs, noise = CASES[name]
    kind, n = ifs.space, 30
    sel = selector_random(64, n, ifs.nmaps)
    x0 = sample_point(kind, np.random.default_rng(65))
    rec = perturbed_orbit(ifs, sel, x0, _schedule(ifs, noise, n), 66)
    walked, bases = ifs.raw_walk(kind.encode(x0), sel.entries, None)
    assert _is_batch(kind, walked, n + 1) and bases is None
    assert _is_batch(kind, walk(ifs, sel, kind.encode(x0), n)[0], n + 1)
    encoded = pseudo_orbit_record(ifs, tuple(rec.points), sel)
    for r in (rec, encoded, pseudo_orbit_record(ifs, rec.points, sel)):
        assert isinstance(r.points, RawPoints) and _is_batch(kind, r.points.raws, n + 1)
        assert r.raw(kind) is r.points.raws and _is_batch(kind, r.points[::2].raws, n // 2 + 1)
    assert _is_batch(kind, orbit(ifs, sel, x0, n).points.raws, n + 1)
    assert encoded.points == rec.points and encoded.errors.values.tobytes() == rec.errors.values.tobytes()
    replaced = dataclasses.replace(rec, points=tuple(rec.points))
    assert _is_batch(kind, replaced.raw(kind), n + 1) and replaced.raw(kind) is not replaced.raw(kind)


def test_no_numpy_word_reaches_scalar_steps_or_metrics(monkeypatch):
    """Records walked on words, fed to the scalar paths: record errors,
    strides (power families walk step by step), perturbed walks of power
    and product families, and Point-level apply and distance."""
    def python_only(*raws):
        for r in raws:
            assert type(r) is int if not isinstance(r, tuple) else all(type(v) in (int, float) for v in r), r

    real_dist = SymbolSpace.dist
    monkeypatch.setattr(SymbolSpace, "dist", lambda self, a, b: python_only(a, b) or real_dist(self, a, b))

    def checked(ifs):
        steps = ifs.raw_steps
        ifs.__dict__["raw_steps"] = tuple((lambda x, f=f: python_only(x) or f(x)) for f in steps)
        return ifs

    base = make_system("sigma2_prepend")
    n, sel = 24, selector_random(92, 24, 2)
    x0 = sample_point(base.space, np.random.default_rng(91))
    rec = perturbed_orbit(base, sel, x0, harmonic_series(n), 93)
    orb = orbit(base, sel, x0, n)
    plain = checked(make_system("sigma2_prepend"))
    for pts in (rec.points, orb.points):
        again = pseudo_orbit_record(plain, pts, sel)
        assert again.points is pts and again.errors.values.tobytes() == \
            oracle_record_errors(base, list(pts), sel).tobytes()
        for k in (2, 3):
            _, sub = stride_subsample(base, again, k)
            assert all(_python_payload(p) for p in sub.points)
        assert distance(apply(plain, 1, pts[5]), pts[6]) == oracle_distance(oracle_apply(base, 1, pts[5]), pts[6])
    binary = make_system("binary_affine")
    for ifs, start in ((checked(power_ifs(base, 2)), x0),
                       (checked(product_ifs(base, binary)), point(Product(base.space, UNIT), (x0, 0.25)))):
        walked = perturbed_orbit(ifs, selector_random(94, n, ifs.nmaps), start, harmonic_series(n), 95)
        assert all(_python_payload(p) for p in walked.points)
        for p, q in zip(walked.points, walked.points[1:]):
            distance(p, q)


def test_views_stride_and_replace_as_tuples_did():
    b = CASES["binary_affine"][0]
    kind = b.space
    sel = selector_random(71, 24, 2)
    rec = perturbed_orbit(b, sel, point(UNIT, 0.3), harmonic_series(24), 72)
    tup = dataclasses.replace(rec, points=tuple(rec.points))
    for k in (2, 3, 4):
        (pa, a), (pb, bb) = stride_subsample(b, rec, k), stride_subsample(b, tup, k)
        assert pa == pb and isinstance(a.points, RawPoints) and isinstance(bb.points, RawPoints)
        assert _same_points(a.points, bb.points) and a.points == bb.points
        assert a.errors.values.tobytes() == bb.errors.values.tobytes()
    # a record built from a view keeps it; a replaced record never reuses the old batch
    again = pseudo_orbit_record(b, rec.points, sel)
    assert again.points is rec.points and again.raw(kind) is rec.raw(kind)
    pts = list(rec.points)
    pts[10] = point(UNIT, 0.99)
    for moved in (dataclasses.replace(rec, points=tuple(pts)), dataclasses.replace(again, points=tuple(pts))):
        assert moved.raw(kind) is not rec.raw(kind)
        assert moved.raw(kind).tolist() == [kind.encode(p) for p in pts]
    with pytest.raises(DomainError):
        rec.raw(Circle())


@settings(max_examples=40, deadline=None)
@given(model=st.sampled_from(["binary_affine", "sigma2_prepend"]), k=st.sampled_from([2, 3, 4]),
       m=st.integers(1, 25), scale=st.sampled_from([0.0, 1e-3, 0.1, 1.0]), seed=st.integers(0, 2**31 - 1))
def test_power_stride_identity_on_random_seeds(model, k, m, scale, seed):
    """Every k-th point of a raw-backed record is a pseudo-orbit of the k-fold
    power family, whose words step like k base steps."""
    base = make_system(model)
    rng = np.random.default_rng(seed)
    sel = selector_random(seed, k * m, base.nmaps)
    noise = series(scale * harmonic_series(k * m).values * min(1.0, diameter(base.space)))
    rec = perturbed_orbit(base, sel, sample_point(base.space, rng), noise, seed)
    pspec, sub = stride_subsample(base, rec, k)
    assert pspec == power_ifs(base, k) and isinstance(sub.points, RawPoints)
    assert _same_points(sub.points, list(rec.points)[::k])
    for i in range(m):
        word = sel.entries[i * k:(i + 1) * k]
        assert sub.selector.entries[i] == word_index(word, base.nmaps)
        start = rec.points[i * k]
        image = orbit(base, selector_explicit(word), start, k).points[-1]
        assert _same_points([apply(pspec, sub.selector.entries[i], start)], [image])
        assert sub.errors.values[i] == oracle_distance(image, rec.points[(i + 1) * k])


# --- the interval canon and permutation tables --------------------------------

def _old_canon(kind, value):
    v = float(value)
    if not kind.lo - _EDGE_SLACK <= v <= kind.hi + _EDGE_SLACK:
        raise DomainError(f"{v} outside interval [{kind.lo}, {kind.hi}]")
    return min(max(v, kind.lo), kind.hi)


def _outcome(f):
    try:
        v = f()
    except DomainError as exc:
        return "DomainError", str(exc)
    return type(v).__name__, v.hex() if isinstance(v, float) else v


_BOUNDS = st.floats(-1e6, 1e6, allow_nan=False)


@st.composite
def _interval_and_values(draw):
    lo, hi = sorted(draw(st.tuples(_BOUNDS, _BOUNDS).filter(lambda t: t[0] != t[1])))
    lo, hi = draw(st.sampled_from([(lo, hi), (0.0, 1.0), (-0.0, 1.0), (-1.0, -0.0), (0, 1)]))
    edges = [lo, hi, lo - _EDGE_SLACK, hi + _EDGE_SLACK]
    near = [np.nextafter(e, t) for e in edges for t in (-math.inf, math.inf)]
    special = st.sampled_from(edges + near + [0.0, -0.0, math.nan, math.inf, -math.inf])
    return Interval(lo, hi), draw(st.lists(st.one_of(special, st.floats()), min_size=1, max_size=8))


@settings(max_examples=300, deadline=None)
@given(_interval_and_values())
def test_interval_canon_matches_min_max_clamp(case):
    """The branch clamp of `Interval.canon` returns what min(max(v, lo), hi)
    returned, bit for bit and in type, and raises the same DomainError."""
    kind, values = case
    for v in values:
        assert _outcome(lambda: kind.canon(v)) == _outcome(lambda: _old_canon(kind, v))


def test_permutation_tables_list_one_image_per_point():
    kind = FiniteDiscrete(3)
    perm = MapDef("q", "permutation", (2, 0, 1))
    for table in ((0, 1), (0, 1, 2, 0)):
        bad = MapDef("p", "permutation", table)
        ifs = IFSSpec(kind, (bad,))
        for i in range(3):
            with pytest.raises(DomainError, match="needs 3 images"):
                apply(ifs, 0, point(kind, i))
        with pytest.raises(DomainError, match="needs 3 images"):
            orbit(ifs, selector_explicit([0, 0]), point(kind, 2), 2)
        with pytest.raises(DomainError, match="needs 3 images"):
            perturbed_orbit(ifs, selector_explicit([0, 0]), point(kind, 2), constant_series(2, 1.0), 1)
        for family in ((perm, bad), (bad, perm)):
            with pytest.raises(DomainError, match="needs 3 images"):
                IFSSpec(kind, family).raw_images(kind.batch([0, 2]))
        side = product_ifs(CASES["binary_affine"][0], ifs)
        with pytest.raises(DomainError, match="needs 3 images"):
            side.raw_images(side.space.batch([(0.5, 0)]))
        with pytest.raises(DomainError, match="needs 3 images"):
            side.raw_steps[0]((0.5, 0))
    assert IFSSpec(kind, (perm,)).raw_steps[0](2) == 1


# --- the compiled walk kernels -------------------------------------------------

def _walk_outcome(fn):
    """What a walk gives: its points (Python types, floats as exact hex), or
    its error's type and message."""
    try:
        return "ok", [_fingerprint(p) for p in fn()]
    except IFSError as exc:
        return type(exc).__name__, str(exc)


def _perturbed_outcomes(ifs, sel, x0, values, seed):
    """perturbed_orbit and its oracle on the schedule `values`: the outcome
    with the errors' bytes, and the state of the generator each drew from
    (compared only when both walks finish)."""
    made, recs, real = [], [], np.random.default_rng
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(np.random, "default_rng", lambda s: made.append(real(s)) or made[-1])
        got = _walk_outcome(lambda: recs.append(perturbed_orbit(ifs, sel, x0, series(values), seed))
                            or recs[0].points)
    if got[0] == "ok":
        got = got + (recs[0].errors.values.tobytes(), made[0].bit_generator.state)
    try:
        pts, errs, state = oracle_perturbed_orbit(ifs, sel, x0, series(values), seed)
        want = ("ok", [_fingerprint(p) for p in (_stored(x0), *pts[1:])], errs.tobytes(), state)
    except IFSError as exc:
        want = type(exc).__name__, str(exc)
    return got, want


def _stored(x0):
    """The start as a batch holds it: an interval start that is no float
    (0, np.float64) comes back as a Python float of the same value."""
    return RawPoints(x0.kind, x0.kind.batch([x0.kind.encode(x0)]))[0]


def _check_walks(ifs, sel, x0, values, seed, horizons=None):
    """walk, orbit and perturbed_orbit against the per-step oracles at every
    horizon up to len(values) (or at `horizons`), so an error must come at
    the oracle's step."""
    kind = ifs.space
    for k in range(len(values) + 1) if horizons is None else horizons:
        want = _walk_outcome(lambda: [_stored(x0), *oracle_orbit(ifs, sel, x0, k)[1:]])
        assert _walk_outcome(lambda: orbit(ifs, sel, x0, k).points) == want
        assert _walk_outcome(lambda: RawPoints(kind, walk(ifs, sel, kind.encode(x0), k)[0])) == want
        got, want = _perturbed_outcomes(ifs, sel, x0, np.asarray(values[:k], dtype=float), seed)
        assert got == want


_SLOPES = st.one_of(st.sampled_from([0, 1, -1, 2, -2, 0.0, -0.0, 0.5, -0.5, 1.0, -2.0]),
                    st.floats(-2.0, 2.0))
# images land on an edge, or past it by less or more than the edge slack
_PUSHES = st.sampled_from([0.0, 0.5 * _EDGE_SLACK, -0.5 * _EDGE_SLACK, 2 * _EDGE_SLACK, -2 * _EDGE_SLACK])


@st.composite
def _affine_walks(draw):
    lo, hi = draw(st.one_of(st.sampled_from([(0.0, 1.0), (-0.0, 1.0), (-1.0, -0.0), (-1.0, 1.0), (0.25, 0.75)]),
                            st.tuples(st.floats(-4.0, 4.0), st.floats(1e-3, 4.0)).map(lambda p: (p[0], p[0] + p[1]))))
    kind = Interval(lo, hi)
    inside = st.one_of(st.sampled_from([kind.lo, kind.hi]), st.floats(kind.lo, kind.hi))
    maps = []
    for _ in range(draw(st.integers(1, 3))):
        a, anchor, target = draw(_SLOPES), draw(inside), draw(inside)
        b = draw(st.one_of(st.just(target + draw(_PUSHES) - a * anchor), st.sampled_from([0, 0.0, -0.0]), inside))
        maps.append(MapDef("a", "affine", (a, b)))
    ifs = IFSSpec(kind, tuple(maps))
    n = draw(st.integers(0, 10))
    entries = draw(st.lists(st.integers(0, len(maps) - 1), min_size=n, max_size=n))
    if draw(st.booleans()):  # a map index out of range, or a selector that runs out
        entries.insert(draw(st.integers(0, n)), draw(st.sampled_from([len(maps), len(maps) + 3, -1])))
    elif n and draw(st.booleans()):
        entries.pop()
    start = draw(st.one_of(st.sampled_from([kind.lo, kind.hi, -0.0, 0, np.float64(kind.lo)]), inside))
    shifts = st.one_of(st.sampled_from([0.0, *(abs(m.params[1]) for m in maps)]).filter(lambda v: v <= hi - lo),
                       st.floats(0.0, hi - lo))
    values = draw(st.lists(shifts, min_size=n, max_size=n))
    return ifs, SelectorSequence(tuple(entries)), Point(kind, start), values


@settings(max_examples=300, deadline=None)
@given(_affine_walks(), st.integers(0, 2**31 - 1))
def test_affine_kernel_matches_step_oracles(case, seed):
    """The affine kernel against the per-step oracles: edge starts (and -0.0,
    and starts that are no float), images on an edge or past it within and
    beyond the slack, shifts that land exactly on a signed-zero edge, and
    selectors with a bad entry."""
    _check_walks(*case, seed)


@pytest.mark.parametrize("lo, hi, b", [(-0.0, 1.0, 0.25), (-1.0, -0.0, -0.25), (0.0, 1.0, 0.25)])
def test_affine_kernel_shifts_onto_signed_zero_edges(lo, hi, b):
    """Images b shifted by |b| both ways, so some land on 0.0 exactly, next to
    an edge at -0.0 or 0.0, where the clamp must keep the sum's sign."""
    ifs = IFSSpec(Interval(lo, hi), (MapDef("c", "affine", (0.0, b)),))
    _check_walks(ifs, selector_explicit([0] * 8), Point(ifs.space, 0.5), [abs(b)] * 8, 5)


@settings(max_examples=150, deadline=None)
@given(depth=st.sampled_from([2, 7, 64, 65, 100]), data=st.data(), seed=st.integers(0, 2**31 - 1))
def test_prepend_kernel_matches_step_oracles(depth, data, seed):
    ifs = make_system(f"sigma2_prepend:{depth}")
    kind = ifs.space
    n = data.draw(st.integers(0, 10))
    entries = data.draw(st.lists(st.integers(0, 1), min_size=n, max_size=n))
    if data.draw(st.booleans()):
        entries.insert(data.draw(st.integers(0, n)), data.draw(st.sampled_from([2, 5, -1])))
    bits = data.draw(st.one_of(st.sampled_from(["0", "1" * depth, "1", "0" * (depth - 1) + "1"]),
                               st.lists(st.sampled_from("01"), min_size=depth, max_size=depth).map("".join)))
    powers = np.ldexp(1.0, -np.arange(depth + 1)).tolist()
    values = data.draw(st.lists(st.one_of(st.sampled_from([0.0, *powers]), st.floats(0.0, 2.0)),
                                min_size=n, max_size=n))
    _check_walks(ifs, SelectorSequence(tuple(entries)), point(kind, bits), values, seed)


@settings(max_examples=60, deadline=None)
@given(depth=st.sampled_from([2, 7, 63, 64]), data=st.data(), seed=st.integers(0, 2**31 - 1))
def test_prepend_scan_matches_step_oracles_past_the_depth(depth, data, seed):
    """Selectors up to 2*depth + 5 entries long, past the step where the
    scan saturates and the start word has shifted out: all-ones starts,
    top-bit flips (noise 2), constant selectors and a late bad entry."""
    ifs = make_system(f"sigma2_prepend:{depth}")
    n = data.draw(st.integers(depth - 1, 2 * depth + 5))
    entries = data.draw(st.one_of(st.sampled_from([[0] * n, [1] * n]),
                                  st.lists(st.integers(0, 1), min_size=n, max_size=n)))
    bad = data.draw(st.one_of(st.none(), st.integers(max(n - 3, 0), n)))
    if bad is not None:
        entries.insert(bad, data.draw(st.sampled_from([2, -1])))
    bits = data.draw(st.one_of(st.sampled_from(["1" * depth, "1", "0"]),
                               st.lists(st.sampled_from("01"), min_size=depth, max_size=depth).map("".join)))
    values = data.draw(st.one_of(st.sampled_from([[2.0] * n, [0.0] * n, [2.0 ** (2 - depth)] * n]),
                                 st.lists(st.sampled_from([0.0, 2.0, 1.0, 2.0 ** (2 - depth)]), min_size=n, max_size=n)))
    horizons = sorted({0, 1, depth - 1, depth, depth + 1, n - 1, n} | ({bad, bad + 1} if bad is not None else set()))
    _check_walks(ifs, SelectorSequence(tuple(entries)), point(ifs.space, bits), values, seed,
                 [k for k in horizons if 0 <= k <= n])


def _prepend_loop(tops, x, lams, masks):
    """The Python-int walk the word scan replaced: the orbit and the images."""
    out, bases = [x], []
    for lam, mask in zip(lams, masks):
        bases.append(base := tops[lam] | (x >> 1))
        out.append(x := base ^ mask)
    return out, bases


@pytest.mark.parametrize("depth", [2, 7, 63, 64])
def test_prepend_scan_matches_the_int_loop_on_long_walks(depth):
    ifs = make_system(f"sigma2_prepend:{depth}")
    kind = ifs.space
    tops = [m.params[0] << (depth - 1) for m in ifs.maps]
    rng = np.random.default_rng(depth)
    top, full = 1 << (depth - 1), (1 << depth) - 1
    flips = [1 << k for k in range(depth)] + [0]
    for n in sorted({0, 1, depth - 1, depth, depth + 1, 2 * depth + 5, 4 * depth + 3, 300}):
        lam_rows = ([0] * n, [1] * n, rng.integers(0, 2, n).tolist())
        mask_rows = ([0] * n, [top] * n, [full] * n,
                     [flips[k] for k in rng.integers(0, depth + 1, n).tolist()])
        for x in (full, top, 0, 1, kind.encode(sample_point(kind, rng))):
            for lams in lam_rows:
                walked, none = ifs.raw_walk(x, tuple(lams))
                assert none is None and walked.dtype == np.uint64
                assert walked.tolist() == _prepend_loop(tops, x, lams, [0] * n)[0]
                for masks in mask_rows:
                    # rows as long as the selector, longer or shorter: the walk stops with the shorter
                    for given in (masks, masks + [top], masks[:-1]):
                        walked, bases = ifs.raw_walk(x, tuple(lams), operator.xor, kind.batch(given))
                        assert (walked.tolist(), bases.tolist()) == _prepend_loop(tops, x, lams, given)


def test_walk_kernels_compile_for_the_orbit_long_families_only():
    affine, prepend = make_system("binary_affine"), make_system("sigma2_prepend")
    assert affine.raw_walk.__name__ == "affine_walk" and prepend.raw_walk.__name__ == "prepend_scan"
    numpy_params = IFSSpec(UNIT, (MapDef("a", "affine", (np.float64(0.5), 0.0)),))
    for ifs in (numpy_params, MIXED, power_ifs(affine, 2), product_ifs(affine, affine), CASES["conjugate"][0],
                CASES["symbols100"][0]):
        assert ifs.raw_walk.__name__ == "generic"
    walked, _ = walk(numpy_params, selector_explicit([0, 0]), 1.0, 2)
    assert walked.dtype == np.float64 and walked.tolist() == [1.0, 0.5, 0.25]


# --- lanes on long contracting affine walks ------------------------------------

def _raw_outcome(fn):
    try:
        return "ok", fn()
    except IFSError as exc:
        return type(exc).__name__, str(exc)


def _walk_bytes(ifs, sel, x0, values, seed, k):
    """orbit, walk and perturbed_orbit at horizon k, as raw bytes or error
    texts, with the errors and the generator state of perturbed_orbit."""
    kind, made, real = ifs.space, [], np.random.default_rng

    def perturbed():
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(np.random, "default_rng", lambda s: made.append(real(s)) or made[-1])
            rec = perturbed_orbit(ifs, sel, x0, series(values[:k]), seed)
        return rec.points.raws.tobytes(), rec.errors.values.tobytes(), made[0].bit_generator.state

    return (_raw_outcome(lambda: orbit(ifs, sel, x0, k).points.raws.tobytes()),
            _raw_outcome(lambda: walk(ifs, sel, kind.encode(x0), k)[0].tobytes()),
            _raw_outcome(perturbed))


def _lane_case(name, lane):
    """A family, a selector, a start and a shift schedule, about 8 lanes long."""
    n, rng = 8 * lane, np.random.default_rng(lane)
    ran = rng.integers(0, 2, n).tolist()
    harmonic = harmonic_series(n).values
    binary = make_system("binary_affine")
    if name == "binary_affine":
        return binary, SelectorSequence(tuple(ran)), point(UNIT, 0.3), harmonic
    if name == "affine_family":
        fam = make_system("affine_family", betas=(0.3, 0.5, 0.9), offsets=(0.2, 0.3, 0.05))
        return fam, selector_random(lane, n, 3), point(UNIT, 0.7), harmonic
    if name == "negative_and_zero_slopes":
        ifs = IFSSpec(Interval(-1.0, 1.0), (MapDef("a", "affine", (-0.5, 0.25)), MapDef("b", "affine", (0, -0.5)),
                                           MapDef("c", "affine", (0.75, -0.0))))
        return ifs, selector_random(lane, n, 3), point(ifs.space, -0.4), harmonic
    if name == "zero_slopes":  # x -> 0*x + -0.0 keeps the sign of x, and so must a zero shift
        ifs = IFSSpec(Interval(-1.0, 1.0), (MapDef("z", "affine", (0.0, -0.0)), MapDef("q", "affine", (0, -0.25))))
        return ifs, selector_random(lane, n, 2), point(ifs.space, -0.5), np.resize([0.0, 0.0, 0.25], n)
    if name == "signed_zero_edges":  # shifts by 0.25 land on 0.0 next to the edge -0.0
        ifs = IFSSpec(Interval(-1.0, -0.0), (MapDef("a", "affine", (0.5, -0.25)), MapDef("b", "affine", (0.5, -0.0))))
        return ifs, selector_random(lane, n, 2), point(ifs.space, -0.5), np.full(n, 0.25)
    if name in ("late_exits", "late_bad_entry"):
        # 60 halvings toward 1, then a map past the edge: within the slack at
        # 3.5 lanes (clamped), beyond it at 6.5 lanes (raises); or an index
        # out of range at 6.5 lanes
        maps = binary.maps + (MapDef("s", "affine", (0.5, 0.5 + 0.5 * _EDGE_SLACK)), MapDef("x", "affine", (0.5, 0.6)))
        for at, lam in ((7 * lane // 2, 2), (13 * lane // 2, 3)):
            ran[at - 60:at + 1] = [1] * 60 + [lam if name == "late_exits" else 5]
        return IFSSpec(UNIT, maps), SelectorSequence(tuple(ran)), point(UNIT, 0.3), harmonic
    assert name == "zero_periodic"  # t/2 is exact, so lanes settle only once the orbit underflows to 0
    return binary, selector_periodic([0], n), point(UNIT, 0.3), harmonic


@pytest.mark.parametrize("name", ["binary_affine", "affine_family", "negative_and_zero_slopes", "zero_slopes",
                                  "signed_zero_edges", "late_exits", "late_bad_entry", "zero_periodic"])
def test_lanes_match_the_scalar_loop(name, monkeypatch):
    """orbit, walk and perturbed_orbit on lanes against the scalar loop,
    byte for byte, at 1, 2 and 7 lanes (the length rule lifted) and past
    the length rule: points, errors, generator state and error texts."""
    real_shape, real_scan, scans = core.lane_shape, core.lane_scan, []
    ifs = _lane_case(name, 256)[0]
    slope = max(abs(m.params[0]) for m in ifs.maps)
    burn, lane = real_shape(slope, math.inf)
    ifs, sel, x0, values = _lane_case(name, lane)
    monkeypatch.setattr(core, "lane_scan", lambda *args: scans.append(len(args[1])) or real_scan(*args))
    for k in (lane - 1, lane + 1, 7 * lane + 5):
        monkeypatch.setattr(core, "lane_shape", lambda slope, n: None)
        want = _walk_bytes(ifs, sel, x0, values, 5, k)
        monkeypatch.setattr(core, "lane_shape", lambda slope, n: real_shape(slope, math.inf))
        assert _walk_bytes(ifs, sel, x0, values, 5, k) == want
    assert len(scans) >= 9  # every walk took the lanes
    if name == "binary_affine":  # past the length rule, against the per-step oracles
        monkeypatch.setattr(core, "lane_shape", real_shape)
        reach = 40 * (burn + lane)
        ifs, sel, x0, values = _lane_case(name, reach // 8 + 1)
        scans.clear()
        _check_walks(ifs, sel, x0, values, 5, [reach])
        assert scans == [reach] * 3


def test_lane_rule_reads_the_family_slopes():
    """Lanes engage from 40*(W + L) steps, W = ceil(80 / -log2 max|a|),
    L = max(256, 2W): not on criterion 02's 10,000-step records (max slope
    0.9), nor at max slope 0.99, 1 or nan; a zero slope takes W = 1."""
    assert core.lane_shape(0.5, 13_439) is None and core.lane_shape(0.5, 13_440) == (80, 256)
    assert core.lane_shape(0.9, 10_000) is None and core.lane_shape(0.9, math.inf) == (527, 1054)
    assert core.lane_shape(0.0, 10_280) == (1, 256) and core.lane_shape(0.75, math.inf) == (193, 386)
    assert core.lane_shape(0.99, 600_000) is None
    assert core.lane_shape(1.0, math.inf) is None and core.lane_shape(math.nan, math.inf) is None
    fam = make_system("affine_family", betas=(0.3, 0.99), offsets=(0.2, 0.0))
    scalar = orbit(fam, selector_random(1, 20_000, 2), point(UNIT, 0.7), 20_000)
    huge = IFSSpec(UNIT, (MapDef("h", "affine", (0.5, 10 ** 400)),))  # no float offset: the scalar loop
    with pytest.raises(OverflowError):
        orbit(huge, selector_explicit([0] * 20_000), point(UNIT, 0.5), 20_000)
    assert scalar.points.raws[-1] == oracle_orbit(fam, scalar.selector, point(UNIT, 0.7), 20_000)[-1].value


def test_one_lane_pass_settles_a_contracting_walk():
    """One pass settles every lane of a random binary_affine walk, with
    and without shifts, so the scalar loop walks none of it (p = n). Under
    the all-zero selector t/2^i is exact and lane 1's start misses lane 0's
    end, so p is the start of lane 1."""
    shape = core.lane_shape(0.5, math.inf)
    _, sel, _, values = _lane_case("binary_affine", shape[1])
    a, b = np.full(len(sel), 0.5), np.array([0.0, 0.5])[sel.indices]
    for d in (None, values / 100):
        assert core.lane_scan(0.3, a, b, shape, d, 0.0, 1.0)[2] == len(sel)
    assert core.lane_scan(0.3, a, np.zeros(len(sel)), shape)[2] == shape[1]


def _plain_affine_loop(x0, a, b, d, lo, hi, canon):
    """x_{i+1} = a_i*x_i + b_i one step at a time: an image off [lo, hi] goes
    through `canon`, and a nonzero shift moves it, clamped by min and max."""
    t, out, bases = x0, [x0], []
    for i in range(len(a)):
        base = a[i] * t + b[i]
        if not lo <= base <= hi:
            base = canon(base)
        bases.append(base)
        out.append(t := base if d is None or d[i] == 0 else min(max(base + d[i], lo), hi))
    return np.array(out).tobytes(), None if d is None else np.array(bases, dtype=float).tobytes()


@st.composite
def _affine_orbits(draw):
    """Per-map tables of slopes in [-0.9, 0.9] (the bound keeps lanes short)
    and offsets that keep the interval, or signed zeros for both;
    maybe one slope-0 map landing past an edge by less or more than the slack
    at one step; shifts drawn from a pool with zeros of both signs and
    shifts large enough to clamp."""
    lo, hi = draw(st.sampled_from([(0.0, 1.0), (-0.0, 1.0), (-1.0, -0.0), (-1.0, 1.0), (0.25, 0.75)]))
    mid, half = (lo + hi) / 2, (hi - lo) / 2
    a, b = [], []
    for _ in range(draw(st.integers(1, 3))):
        if draw(st.booleans()):  # x -> +-0.0*x +- 0.0, a zero whose sign can follow x's
            a.append(draw(st.sampled_from([0.0, -0.0])))
            b.append(draw(st.sampled_from([0.0, -0.0])))
            continue
        a.append(draw(st.one_of(st.sampled_from([0.5, -0.5, 0.9, -0.9]), st.floats(-0.9, 0.9))))
        middle = mid + draw(st.floats(-1.0, 1.0)) * (1 - abs(a[-1])) * half  # a*[lo, hi] + b within [lo, hi]
        b.append(draw(st.one_of(st.just(middle - a[-1] * mid), st.sampled_from([0.0, -0.0]))))
    lane = core.lane_shape(max(map(abs, a)), math.inf)[1]
    n = lane * draw(st.integers(0, 3)) + draw(st.integers(1, lane))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))  # long arrays from a drawn seed
    lams = rng.integers(0, len(a), n)
    if draw(st.booleans()):
        lams[draw(st.integers(0, n - 1))] = len(a)
        past = draw(st.sampled_from([0.5, 2.0])) * _EDGE_SLACK
        a.append(0.0)
        b.append(draw(st.sampled_from([hi + past, lo - past])))
    x0 = draw(st.one_of(st.sampled_from([lo, hi, mid]), st.floats(lo, hi)))
    shift = st.one_of(st.sampled_from([0.0, -0.0, hi - lo, lo - hi]), st.floats(lo - hi, hi - lo))
    pool = draw(st.one_of(st.none(), st.lists(shift, min_size=1, max_size=6)))
    d = None if pool is None else np.array(pool)[rng.integers(0, len(pool), n)]
    return float(x0), np.array(a), np.array(b), d, lo, hi, np.array(lams, dtype=np.intp)


@settings(max_examples=100, deadline=None)
@given(_affine_orbits(), st.booleans())
def test_affine_orbit_matches_the_plain_loop(case, per_step):
    """`affine_orbit` on its scalar loop alone, and with the length rule
    lifted so lanes take every walk, against the plain loop: the bytes of
    the orbit and of the images, or the same DomainError text for an image
    beyond the slack; per-map tables indexed by `lams`, or the per-step
    coefficients they give."""
    x0, a, b, d, lo, hi, lams = case
    canon, scans = Interval(lo, hi).canon, []
    want = _raw_outcome(lambda: _plain_affine_loop(x0, a[lams].tolist(), b[lams].tolist(),
                                                   None if d is None else d.tolist(), lo, hi, canon))
    real_shape, real_scan = core.lane_shape, core.lane_scan
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(core, "lane_scan", lambda *args: scans.append(len(args[1])) or real_scan(*args))
        for shape in (lambda slope, n: None, lambda slope, n: real_shape(slope, math.inf)):
            mp.setattr(core, "lane_shape", shape)
            assert _raw_outcome(lambda: tuple(None if v is None else v.tobytes() for v in (
                core.affine_orbit(x0, a[lams], b[lams], d, lo, hi, canon) if per_step
                else core.affine_orbit(x0, a, b, d, lo, hi, canon, lams)))) == want
    assert scans == [len(lams)]


@pytest.mark.parametrize("beta", [0.25, 0.375])
def test_contracting_bounds_on_each_side_of_the_lane_rule(beta, monkeypatch):
    """b_{i+1} = alpha_i + beta*b_i over 40*(W + L) - 1 steps, on the loop,
    and 40*(W + L) steps, on lanes, against the plain recurrence, byte for
    byte; then contracting_shadow with beta claimed for halvings (whose walks
    stay below their own rule here) names the step and the bound of the
    plain recurrence on either side of the rule."""
    burn, lane = core.lane_shape(beta, math.inf)
    reach, scans, real_scan = 40 * (burn + lane), [], core.lane_scan
    monkeypatch.setattr(core, "lane_scan", lambda *args: scans.append(len(args[1])) or real_scan(*args))
    rng = np.random.default_rng(reach)
    for m in (reach - 1, reach):
        alphas = np.where(rng.random(m) < 0.3, 0.0, rng.random(m) * 1e-3)
        want = [bd := 0.25] + [bd := alpha + beta * bd for alpha in alphas.tolist()]
        got, images = core.affine_orbit(0.25, np.full(m, beta), alphas)
        assert images is None and got.tobytes() == np.array(want).tobytes()
    assert scans == [reach]
    fake = IFSSpec(UNIT, make_system("binary_affine").maps, claimed_contraction=beta)
    for n in (reach, reach + 1):
        values = np.where(np.arange(n) < n - 300, 0.0, 1e-3)
        rec = perturbed_orbit(fake, selector_random(n, n, 2), point(UNIT, 0.3), series(values), seed=n)
        ds = shadowing._track(fake, rec, rec.points[0], n, rec.selector)
        bounds = [bd := float(ds[0])] + [bd := alpha + beta * bd for alpha in rec.errors.values[: n - 1].tolist()]
        i = next(i for i in range(n) if ds[i] > bounds[i] + 1e-9)
        msg = f"step {i}: tracking error {float(ds[i])} exceeds inductive bound {bounds[i]}"
        scans.clear()
        with pytest.raises(ContractionError, match=f"^{re.escape(msg)}$"):
            shadowing.contracting_shadow(fake, rec, validate=False)
        assert i > n - 300 and scans == ([] if n == reach else [reach])


# --- word-sized symbol distances and the batch sampler -------------------------

@pytest.mark.parametrize("depth", [2, 8, 63, 64, 65])
def test_symbol_dists_match_per_pair_dist(depth):
    kind = SymbolSpace(depth)
    rng = np.random.default_rng(depth)
    top, full = 1 << (depth - 1), (1 << depth) - 1
    a = [kind.encode(sample_point(kind, rng)) for _ in range(30)] + [top, top, full, 0, top | 1, 1]
    b = a[::-1] + []
    b[:4] = a[:4]  # equal points
    m = np.stack([kind.batch(a), kind.batch(b), kind.batch(a[::-1])])

    def expect(rows, other):
        return np.array([[kind.dist(x, y) for x, y in zip(row, other)] for row in rows])

    assert kind.dists(kind.batch(a), kind.batch(b)).tobytes() == expect([a], b)[0].tobytes()
    assert kind.dists(m, kind.batch(b)).tobytes() == expect(m.tolist(), b).tobytes()
    for one in (top, full, 0, a[5]):
        got = kind.dists(kind.batch(a), one)
        assert got.shape == (len(a),) and got.tobytes() == expect([a], [one] * len(a))[0].tobytes()


def oracle_sample_point(kind, rng):
    """The draws sample_point made one point at a time."""
    if isinstance(kind, Interval):
        return point(kind, kind.lo + (kind.hi - kind.lo) * rng.random())
    if isinstance(kind, Circle):
        return point(kind, rng.random())
    if isinstance(kind, SymbolSpace):
        return point(kind, rng.integers(0, 2, size=kind.depth))
    if isinstance(kind, FiniteDiscrete):
        return point(kind, int(rng.integers(0, kind.n)))
    return Point(kind, (oracle_sample_point(kind.left, rng), oracle_sample_point(kind.right, rng)))


def _sampled_kinds():
    kinds = {make_system(name).space for name in ("binary_affine", "sigma2_prepend", "circle_pair",
                                                  "interval_pair", "finite_permutations:4")}
    kinds |= {SymbolSpace(2), SymbolSpace(7), SymbolSpace(9), SymbolSpace(63), SymbolSpace(65), SymbolSpace(100),
              FiniteDiscrete(1), FiniteDiscrete(5), Interval(-3.0, -0.0)}
    return sorted(kinds, key=repr) + [Product(UNIT, SymbolSpace(7)), Product(Circle(), Product(FiniteDiscrete(3), UNIT))]


@pytest.mark.parametrize("kind", _sampled_kinds(), ids=repr)
@pytest.mark.parametrize("count", [1, 2, 33])
def test_sample_batch_draws_as_a_sample_point_loop(kind, count):
    batched, single, looped = (np.random.default_rng(count) for _ in range(3))
    want = [oracle_sample_point(kind, looped) for _ in range(count)]
    assert _same_points([kind.decode(r) for r in unbatch(sample_batch(kind, batched, count))], want)
    assert _same_points([sample_point(kind, single) for _ in range(count)], want)
    assert batched.bit_generator.state == single.bit_generator.state == looped.bit_generator.state


def oracle_contraction_ratio(ifs, pairs, seed):
    """The pair-at-a-time ratio estimate."""
    rng, best = np.random.default_rng(seed), 0.0
    for _ in range(pairs):
        x, y = oracle_sample_point(ifs.space, rng), oracle_sample_point(ifs.space, rng)
        d = oracle_distance(x, y)
        if d < 1e-6:
            continue
        for lam in range(ifs.nmaps):
            best = max(best, oracle_distance(oracle_apply(ifs, lam, x), oracle_apply(ifs, lam, y)) / d)
    return best


@pytest.mark.parametrize("name", sorted(CASES))
@pytest.mark.parametrize("pairs", [1, 7, 300])
def test_batched_ratio_estimate_matches_pair_loop(name, pairs):
    ifs = CASES[name][0]
    got = estimate_contraction_ratio(ifs, pairs, seed=pairs)
    assert type(got) is float and got == oracle_contraction_ratio(ifs, pairs, pairs)
