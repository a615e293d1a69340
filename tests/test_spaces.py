import math

import numpy as np
import pytest

from ifsdyn import (
    Circle,
    DomainError,
    FiniteDiscrete,
    GuardError,
    Interval,
    Product,
    SymbolSpace,
    UnsupportedKindError,
    diameter,
    distance,
    grid,
    point,
    point_from_json,
    point_to_json,
    sample_point,
    space_from_json,
    space_to_json,
)
from ifsdyn.core import map_from_json
from ifsdyn.pseudo_orbits import record_from_json
from ifsdyn.spaces import GRID_GUARD, csv_lines, grid_batch, value_repr

UNIT = Interval(0.0, 1.0)

ALL_KINDS = [
    UNIT,
    Interval(-2.0, 3.0),
    Circle(),
    SymbolSpace(16),
    SymbolSpace(64),
    FiniteDiscrete(5),
    Product(UNIT, Circle()),
    Product(Product(UNIT, UNIT), FiniteDiscrete(3)),
]


def test_kind_guards():
    with pytest.raises(DomainError):
        Interval(1.0, 1.0)
    with pytest.raises(DomainError):
        SymbolSpace(1)
    with pytest.raises(DomainError):
        FiniteDiscrete(0)
    deep = UNIT
    for _ in range(7):
        deep = Product(deep, UNIT)
    with pytest.raises(GuardError):
        Product(deep, UNIT)


@pytest.mark.parametrize("depth", [1, 65, 100])
def test_symbol_depths_outside_2_to_64_are_refused(depth):
    """A symbol batch holds one uint64 word per point, so no space is deeper than 64."""
    message = f"^symbol space depth must lie in 2 to 64, got {depth}$"
    with pytest.raises(DomainError, match=message):
        SymbolSpace(depth)
    with pytest.raises(DomainError, match=message):
        space_from_json({"type": "symbols", "depth": depth})


def test_interval_rejects_non_finite_bounds():
    for lo, hi in ((0.0, math.inf), (-math.inf, 0.0), (-math.inf, math.inf), (0.0, math.nan)):
        with pytest.raises(DomainError, match="finite lo < hi"):
            Interval(lo, hi)


def test_point_validation():
    assert point(UNIT, 0.5).value == 0.5
    with pytest.raises(DomainError):
        point(UNIT, 1.5)
    for bad in (float("nan"), float("inf"), float("-inf")):
        with pytest.raises(DomainError):
            point(UNIT, bad)
        with pytest.raises(DomainError):
            point(Circle(), bad)
    # circle canonicalization to [0, 1)
    assert point(Circle(), 1.25).value == 0.25
    assert point(Circle(), 1.0).value == 0.0
    assert point(Circle(), -0.25).value == 0.75
    # a tiny negative reduces to 1.0 in floats, which wraps to 0
    assert point(Circle(), -1e-20).value == 0.0
    assert Circle().canon_batch([-1e-20]).tolist() == [0.0]
    # bit payloads accept strings and pad to depth
    p = point(SymbolSpace(8), "011")
    assert p.value == (0, 1, 1, 0, 0, 0, 0, 0)
    with pytest.raises(DomainError):
        point(SymbolSpace(4), "21")
    with pytest.raises(DomainError):
        point(FiniteDiscrete(3), 3)


def test_distance_symbol_space():
    s16 = SymbolSpace(16)
    s = point(s16, "0111")
    t = point(s16, "0000")
    assert distance(s, s) == 0.0
    # first difference at index 1 gives 1/2^0
    assert distance(s, t) == 1.0
    # first difference at index 0 gives 1/2^(-1)
    assert distance(point(s16, "1000"), point(s16, "0000")) == 2.0
    # beyond-depth differences collapse to zero
    a = point(s16, [0] * 16)
    assert distance(a, point(s16, [0] * 15 + [1])) == 2.0 ** (1 - 15)


def test_distance_circle_and_product():
    c = Circle()
    assert distance(point(c, 0.1), point(c, 0.9)) == pytest.approx(0.2, abs=1e-15)
    prod = Product(UNIT, UNIT)
    a = point(prod, (0.2, 0.7))
    b = point(prod, (0.5, 0.8))
    assert distance(a, b) == pytest.approx(0.3, abs=1e-15)


def test_distance_kind_mismatch():
    with pytest.raises(DomainError):
        distance(point(UNIT, 0.5), point(Circle(), 0.5))


def test_diameter():
    assert diameter(UNIT) == 1.0
    assert diameter(Interval(-2.0, 3.0)) == 5.0
    # sup of min(|a-b|, 1-|a-b|) is attained at antipodal points
    assert diameter(Circle()) == 0.5
    # metric formula evaluated at first-bit disagreement
    assert diameter(SymbolSpace(32)) == 2.0
    assert diameter(FiniteDiscrete(4)) == 1.0
    assert diameter(FiniteDiscrete(1)) == 0.0
    assert diameter(Product(Circle(), UNIT)) == 1.0


@pytest.mark.parametrize("kind", ALL_KINDS)
def test_metric_axioms_random_triples(kind):
    rng = np.random.default_rng(42)
    for _ in range(10_000):
        a = sample_point(kind, rng)
        b = sample_point(kind, rng)
        c = sample_point(kind, rng)
        dab = distance(a, b)
        assert dab == distance(b, a)
        assert distance(a, a) == 0.0
        assert distance(a, c) <= dab + distance(b, c) + 1e-12
        assert 0.0 <= dab <= diameter(kind) + 1e-12


def test_circle_distance_capped():
    rng = np.random.default_rng(0)
    c = Circle()
    assert all(
        distance(sample_point(c, rng), sample_point(c, rng)) <= 0.5 for _ in range(10_000)
    )


def test_symbol_distances_are_powers_of_two():
    rng = np.random.default_rng(1)
    kind = SymbolSpace(16)
    allowed = {0.0} | {2.0 ** (1 - k) for k in range(16)}
    for _ in range(2000):
        d = distance(sample_point(kind, rng), sample_point(kind, rng))
        assert d in allowed


def test_grid_examples():
    pts = grid(UNIT, 0.25)
    assert [p.value for p in pts] == [0.0, 0.25, 0.5, 0.75, 1.0]
    cpts = grid(Circle(), 0.25)
    assert [p.value for p in cpts] == [0.0, 0.25, 0.5, 0.75]
    fpts = grid(FiniteDiscrete(3), 0.7)
    assert [p.value for p in fpts] == [0, 1, 2]
    with pytest.raises(UnsupportedKindError):
        grid(SymbolSpace(8), 0.1)
    for bad in (0.0, math.nan):
        with pytest.raises(DomainError):
            grid(UNIT, bad)
    # more than GRID_GUARD points: refused before numpy or math.ceil sees the count
    for kind, bad in [(UNIT, 1e-9), (UNIT, 5e-324), (Circle(), 1e-9), (Circle(), 5e-324),
                      (Product(UNIT, Circle()), 1e-9)]:
        with pytest.raises(GuardError, match="more than GRID_GUARD"):
            grid(kind, bad)


def test_grid_guard_bounds_the_point_count():
    """GRID_GUARD points are built; one more is refused, and a product
    counts the product of its factors' points."""
    assert len(grid_batch(Circle(), 1.0 / GRID_GUARD)) == GRID_GUARD
    assert len(grid_batch(UNIT, 1.0 / (GRID_GUARD - 1))) == GRID_GUARD
    assert len(grid_batch(Product(Circle(), Circle()), 1.0 / 1024)[0]) == GRID_GUARD
    for kind, h in [(Circle(), 1.0 / (GRID_GUARD + 1)), (UNIT, 1.0 / GRID_GUARD),
                    (Product(Circle(), Circle()), 1.0 / 1025), (FiniteDiscrete(GRID_GUARD + 1), 1.0)]:
        with pytest.raises(GuardError, match="more than GRID_GUARD"):
            grid_batch(kind, h)


@pytest.mark.parametrize("kind,h", [
    (UNIT, 0.037),
    (Interval(-2.0, 3.0), 0.11),
    (Circle(), 0.037),
    (FiniteDiscrete(4), 0.5),
    (Product(UNIT, Circle()), 0.09),
])
def test_grid_is_h_net(kind, h):
    pts = grid(kind, h)
    rng = np.random.default_rng(7)
    worst = 0.0
    for _ in range(10_000):
        q = sample_point(kind, rng)
        worst = max(worst, min(distance(q, p) for p in pts))
    assert worst <= h


def grid_oracle(kind, resolution):
    """The grid built one `point()` at a time, as `grid` once did."""
    if isinstance(kind, Interval):
        span = kind.hi - kind.lo
        npts = max(2, math.ceil(span / resolution) + 1)
        step = span / (npts - 1)
        return [point(kind, kind.lo + i * step) for i in range(npts)]
    if isinstance(kind, Circle):
        m = max(1, math.ceil(1.0 / resolution))
        return [point(kind, i / m) for i in range(m)]
    if isinstance(kind, FiniteDiscrete):
        return [point(kind, i) for i in range(kind.n)]
    lefts, rights = grid_oracle(kind.left, resolution), grid_oracle(kind.right, resolution)
    return [point(kind, (l, r)) for l in lefts for r in rights]


def _payload_types(p):
    if isinstance(p.kind, Product):
        return (_payload_types(p.value[0]), _payload_types(p.value[1]))
    return type(p.value)


@pytest.mark.parametrize("kind,h", [
    (Interval(0, 1), 0.037),
    (Interval(-2, 3), 0.3),
    (Interval(-2.0, 3.0), 0.11),
    (Interval(0.1, 0.7), 0.6),
    (Circle(), 0.037),
    (Circle(), 2.0),
    (FiniteDiscrete(1), 0.5),
    (FiniteDiscrete(4), 0.5),
    (Product(UNIT, Circle()), 0.09),
    (Product(Product(Interval(0, 1), FiniteDiscrete(3)), Circle()), 0.2),
    (Product(Circle(), Product(FiniteDiscrete(2), Interval(-1.0, 1.0))), 0.3),
])
def test_grid_decodes_the_point_by_point_grid(kind, h):
    pts, expected = grid(kind, h), grid_oracle(kind, h)
    assert pts == expected
    assert [_payload_types(p) for p in pts] == [_payload_types(p) for p in expected]


def test_integer_interval_bounds_clamp_to_floats():
    kind = Interval(0, 1)
    assert (kind.lo, kind.hi) == (0.0, 1.0) and type(kind.lo) is type(kind.hi) is float
    low, high = point(kind, -1e-10), point(kind, 1 + 1e-10)
    assert type(low.value) is float and low.value == 0.0 and value_repr(low) == "0.0"
    assert type(high.value) is float and high.value == 1.0 and value_repr(high) == "1.0"
    assert kind == UNIT and hash(kind) == hash(UNIT)


def test_value_repr_of_a_product_point_joins_its_sides():
    kind = Product(Interval(0, 1), Product(SymbolSpace(4), FiniteDiscrete(3)))
    assert value_repr(point(kind, (0.25, ("0110", 2)))) == "0.25;0110;2"


def test_grid_deterministic_order():
    assert [p.value for p in grid(UNIT, 0.3)] == [p.value for p in grid(UNIT, 0.3)]
    prod = Product(FiniteDiscrete(2), FiniteDiscrete(2))
    vals = [(p.value[0].value, p.value[1].value) for p in grid(prod, 0.5)]
    assert vals == [(0, 0), (0, 1), (1, 0), (1, 1)]


@pytest.mark.parametrize("kind", ALL_KINDS)
def test_point_json_round_trip(kind):
    rng = np.random.default_rng(3)
    for _ in range(25):
        p = sample_point(kind, rng)
        q = point_from_json(point_to_json(p))
        assert q == p
    assert space_from_json(space_to_json(kind)) == kind


def test_symbol_json_uses_bit_string():
    p = point(SymbolSpace(8), "0110")
    assert point_to_json(p)["value"] == "01100000"


def test_symbol_payload_entries_must_equal_bits():
    kind = SymbolSpace(4)
    for bad in ([1.7, 0.2], [0.9, 1.0], [float("nan")], [2], [-1], "0a1", "012",
                np.array([0, 3]), np.array([0.5]), [1, 0, 0, 0, 1]):
        with pytest.raises(DomainError):
            point(kind, bad)
    for payload in ([1, 0, 1], (1.0, 0.0), [True, False, True, True], np.array([1, 0, 1, 1]),
                    np.array([1.0, 0.0]), np.array([True]), "1011", "", np.int64(1) * np.ones(4, int)):
        p = point(kind, payload)
        bits = [int(b) for b in payload] + [0] * (4 - len(payload))
        assert p.value == tuple(bits) and all(type(b) is int for b in p.value)


def test_point_reads_list_pairs_and_refuses_other_payloads():
    prod = Product(Product(UNIT, Circle()), SymbolSpace(4))
    assert point(prod, [[0.1, 1.25], "01"]) == point(prod, ((0.1, 0.25), (0, 1)))
    for bad in ([0.1], [[0.1, 0.2]], [[0.1, 0.2], "01", "1"], "[[0.1, 0.2], '01']", None,
                [[0.1, None], "01"], [[{}, 0.2], "01"], [[0.1, [0.2]], "01"], [[0.1, 0.2], 5]):
        with pytest.raises(DomainError):
            point(prod, bad)


def _record_with_entry(e):
    pts = [point_to_json(point(UNIT, 0.5)), point_to_json(point(UNIT, 0.25))]
    return record_from_json({"points": pts, "selector": {"entries": [e]}, "errors": [0.0]})


# one reader per integer field: (field name in the error, reader, a fraction, an integer)
_INTEGER_FIELDS = [
    ("finite point", lambda v: point(FiniteDiscrete(4), v).value, 2.7, 2),
    ("finite point", lambda v: point_from_json({"kind": {"type": "finite", "n": 4}, "value": v}).value, 2.7, 2),
    ("n", lambda v: space_from_json({"type": "finite", "n": v}).n, 3.5, 3),
    ("depth", lambda v: space_from_json({"type": "symbols", "depth": v}).depth, 8.9, 8),
    ("n", lambda v: FiniteDiscrete(v).n, 2.5, 2),
    ("depth", lambda v: SymbolSpace(v).depth, 8.5, 8),
    ("permutation parameter", lambda v: map_from_json({"name": "p", "form": "permutation", "params": [v, 0]}).params[0],
     1.5, 1),
    ("prepend parameter", lambda v: map_from_json({"name": "p", "form": "prepend", "params": [v]}).params[0], 0.7, 1),
    ("selector entry", lambda v: _record_with_entry(v).selector.entries[0], 0.9, 1),
]


@pytest.mark.parametrize("field, read, fraction, whole", _INTEGER_FIELDS,
                         ids=["point", "json point", "n", "depth", "finite size", "symbol depth", "permutation", "prepend",
                              "selector"])
def test_integer_fields_refuse_fractions(field, read, fraction, whole):
    """A fraction is refused by name, not truncated; an integer, its float
    and (for 1) True read as that int."""
    with pytest.raises(DomainError, match=f"^{field} must be an integer, got {fraction}$"):
        read(fraction)
    for v in (whole, float(whole), np.float64(whole), *([True] if whole == 1 else [])):
        got = read(v)
        assert got == whole and type(got) is int


def test_csv_lines():
    lines = list(csv_lines("a,b", [(1, "x"), (2.5, "")], ["k=v"]))
    assert lines == ["# k=v\n", "a,b\n", "1,x\n", "2.5,\n"]
    for ragged in ((1,), (1, 2, 3)):
        with pytest.raises(TypeError):
            list(csv_lines("a,b", [ragged]))
