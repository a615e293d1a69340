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

import numpy as np
import pytest

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
    SelectorSequence,
    SymbolSpace,
    conjugate_ifs,
    constant_series,
    diameter,
    harmonic_series,
    make_system,
    orbit,
    perturbed_orbit,
    point,
    power_ifs,
    product_ifs,
    pseudo_orbit_record,
    sample_point,
    selector_explicit,
    selector_random,
    series,
)
from ifsdyn.core import _twopiece

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
        ds, lams = shadowing._track(ifs, rec, start, n + 1, sel)
        ods, olams = oracle_track(ifs, pts, start, n + 1, sel)
        assert ds.tobytes() == ods.tobytes() and list(lams) == olams
        ds, lams = shadowing._track(ifs, rec, start, 80)
        ods, olams = oracle_track(ifs, pts, start, 80)
        assert ds.tobytes() == ods.tobytes() and list(lams) == olams


@pytest.mark.parametrize("depth", [8, 64, 100])
def test_symbol_flips_at_powers_of_two(depth, monkeypatch):
    """Noise at and next to every power of two, where a log2 estimate of the
    flipped bit rounds the wrong way."""
    powers = np.ldexp(1.0, -np.arange(0, depth + 2))
    values = np.concatenate([powers, np.nextafter(powers, 0.0), np.nextafter(powers, 2.0)])
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
    ds, _ = shadowing._track(b, moved, pts[0], 21, sel)
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
    _raises_same(lambda: shadowing._track(b, rec, wrong, 5),
                 lambda: oracle_track(b, pts, wrong, 5))

    leave = IFSSpec(UNIT, (MapDef("out", "affine", (1.0, 0.5)),))
    sel = selector_explicit([0] * 4)
    _raises_same(lambda: orbit(leave, sel, good, 4), lambda: oracle_orbit(leave, sel, good, 4))
    _raises_same(lambda: perturbed_orbit(leave, sel, good, noise, 1),
                 lambda: oracle_perturbed_orbit(leave, sel, good, noise, 1))
    high = [point(UNIT, 0.8)] * 5
    _raises_same(lambda: pseudo_orbit_record(leave, high, sel),
                 lambda: oracle_record_errors(leave, high, sel))
    _raises_same(lambda: shadowing._track(leave, rec, high[0], 5),
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
    assert kind.dists(raws[:-1], raws[1:]).tobytes() == expect.tobytes()


def test_symbol_bitmask_puts_the_first_symbol_in_the_top_bit():
    kind = SymbolSpace(100)
    assert kind.encode(point(kind, "1")) == 1 << 99
    assert kind.encode(point(kind, "0" * 99 + "1")) == 1
    p = point(kind, "01")
    assert kind.dist(kind.encode(p), kind.encode(point(kind, "0"))) == 2.0 ** (1 - 1)
