import math
import re

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import ifsdyn.core as core

from ifsdyn import (
    BranchError,
    Circle,
    DomainError,
    FiniteDiscrete,
    GuardError,
    IFSSpec,
    Interval,
    MapDef,
    Product,
    SymbolSpace,
    apply,
    apply_map,
    backward_branch,
    distance,
    estimate_contraction_ratio,
    invert_map,
    list_models,
    make_system,
    point,
)

UNIT = Interval(0.0, 1.0)


def F1(t):
    if t <= 0.5:
        return t + (0.5 - t) * t
    return t - (t - 0.5) * (1.0 - t)


def F2(t):
    if t <= 0.5:
        return t + (0.5 - t) * t
    return t + (1.0 - t) * (t - 0.5)


def test_circle_pair_formulas():
    cp = make_system("circle_pair")
    for t in np.linspace(0.0, 0.999, 201):
        p = point(Circle(), t)
        assert apply(cp, 0, p).value == pytest.approx(F1(t) % 1.0, abs=1e-15)
        assert apply(cp, 1, p).value == pytest.approx(F2(t) % 1.0, abs=1e-15)


def test_circle_pair_agree_on_lower_half():
    cp = make_system("circle_pair")
    for t in np.linspace(0.0, 0.5, 101):
        p = point(Circle(), t)
        assert apply(cp, 0, p) == apply(cp, 1, p)  # identical formula, bitwise


def test_interval_pair_ordering():
    pair = make_system("interval_pair")
    fixed = {0.0, 0.5, 1.0}
    for i in range(10_001):
        u = i / 10_000
        p = point(UNIT, u)
        f1 = apply(pair, 0, p).value
        f2 = apply(pair, 1, p).value
        if u in fixed:
            assert abs(f1 - u) <= 1e-12 and abs(f2 - u) <= 1e-12
        else:
            assert f1 > f2 > u


def test_interval_pair_monotone_pieces():
    pair = make_system("interval_pair")
    for lam in range(2):
        vals = [apply(pair, lam, point(UNIT, i / 2000)).value for i in range(2001)]
        assert all(a < b + 1e-15 for a, b in zip(vals, vals[1:]))


def test_sigma2_prepend_maps():
    s2 = make_system("sigma2_prepend")
    s = point(s2.space, "1010")
    assert apply(s2, 0, s).value[:5] == (0, 1, 0, 1, 0)
    assert apply(s2, 1, s).value[:5] == (1, 1, 0, 1, 0)


def test_claimed_contractions_validated():
    for model in ["binary_affine", "sigma2_prepend"]:
        ifs = make_system(model)
        est = estimate_contraction_ratio(ifs, 5000, seed=3)
        assert est <= ifs.claimed_contraction + 1e-9
    fam = make_system("affine_family", betas=(0.3, 0.5, 0.9), offsets=(0.2, 0.3, 0.05))
    est = estimate_contraction_ratio(fam, 5000, seed=3)
    assert est <= fam.claimed_contraction + 1e-9


def test_surjectivity_flags():
    assert make_system("circle_pair").surjective_flags == (True, True)
    assert make_system("interval_pair").surjective_flags == (True, True)
    assert make_system("sigma2_prepend").surjective_flags == (False, False)
    assert make_system("binary_affine").surjective_flags == (False, False)


def test_finite_permutations():
    perms = make_system("finite_permutations:3")
    assert perms.nmaps == 6
    assert all(perms.surjective_flags)
    x = point(perms.space, 1)
    images = {apply(perms, lam, x).value for lam in range(6)}
    assert images == {0, 1, 2}
    with pytest.raises(GuardError):
        make_system("finite_permutations:6")


def test_finite_permutations_read_n_as_an_integer():
    with pytest.raises(DomainError, match="^n must be an integer, got 2.5$"):
        make_system("finite_permutations", n=2.5)
    perms = make_system("finite_permutations", n=3.0)
    assert perms.space == FiniteDiscrete(3) and perms.nmaps == 6


def test_affine_family_guards():
    with pytest.raises(GuardError):
        make_system("affine_family", betas=(1.0,), offsets=(0.0,))
    with pytest.raises(DomainError):
        make_system("affine_family", betas=(0.5,), offsets=(0.7,))  # 0.5+0.7 > 1
    with pytest.raises(DomainError):
        make_system("affine_family", betas=(0.5, 0.5), offsets=(0.1,))


def test_unknown_model():
    with pytest.raises(DomainError):
        make_system("lorenz")


def test_list_models():
    names = [n for n, _ in list_models()]
    assert "binary_affine" in names and "circle_pair" in names


def test_backward_branch_affine_leaves_space():
    b = make_system("binary_affine")
    # preimage chain of 0.5 under x/2: 1.0, then 2.0 which escapes [0,1]
    br = backward_branch(b, 0, point(UNIT, 0.5), 1)
    assert [p.value for p in br] == [1.0, 0.5]
    with pytest.raises(BranchError):
        backward_branch(b, 0, point(UNIT, 0.5), 2)


def test_backward_branch_identity():
    from ifsdyn import IFSSpec, MapDef

    ident = IFSSpec(UNIT, (MapDef("id", "identity"),))
    br = backward_branch(ident, 0, point(UNIT, 0.3), 5)
    assert all(p.value == 0.3 for p in br)


def test_backward_branch_circle_f2():
    cp = make_system("circle_pair")
    y = point(Circle(), 0.9)
    br = backward_branch(cp, 1, y, 3)
    vals = [p.value for p in br]
    assert all(a < b for a, b in zip(vals, vals[1:]))  # increasing toward y
    assert all(v < 1.0 for v in vals)
    for a, b in zip(br, br[1:]):
        assert distance(apply(cp, 1, a), b) <= 1e-12


def test_backward_branch_fixed_point_constant():
    cp = make_system("circle_pair")
    zero = point(Circle(), 0.0)
    br = backward_branch(cp, 1, zero, 4)
    assert all(p.value == 0.0 for p in br)


def test_backward_branch_recovery_within_50_steps():
    # branches whose forward recomposition is expanding (limit point 1/2,
    # slope 3/2) amplify one ulp per step, so float64 caps their usable
    # length near 1.5^m * eps <= 1e-10, i.e. m around 30
    cp = make_system("circle_pair")
    pair = make_system("interval_pair")
    for ifs, lam, y, m in [(cp, 0, point(Circle(), 0.3), 50),
                           (cp, 1, point(Circle(), 0.8), 30),
                           (pair, 0, point(UNIT, 0.45), 50),
                           (pair, 1, point(UNIT, 0.93), 30)]:
        br = backward_branch(ifs, lam, y, m)
        cur = br[0]
        for _ in range(m):
            cur = apply(ifs, lam, cur)
        assert distance(cur, y) <= 1e-10


def test_backward_branch_prepend_image_only():
    s2 = make_system("sigma2_prepend")
    y = point(s2.space, "10")
    br = backward_branch(s2, 1, y, 1)
    assert br[0].value[:2] == (0, 0)
    with pytest.raises(BranchError):
        backward_branch(s2, 0, y, 1)  # 1... is not in prepend0's image


def test_backward_branch_of_length_zero_is_the_point():
    cp = make_system("circle_pair")
    y = point(Circle(), 0.9)
    assert list(backward_branch(cp, 1, y, 0)) == [y]


def test_backward_branch_revalidates_every_step(monkeypatch):
    cp = make_system("circle_pair")
    real, made = core._compile_map, []

    def third_off(m, kind, inverse=False):  # the third preimage is off by 1e-9
        step = real(m, kind, inverse)
        if not inverse:
            return step

        def off(v):
            made.append(step(v))
            return made[-1] + 1e-9 if len(made) == 3 else made[-1]

        return off

    monkeypatch.setattr(core, "_compile_map", third_off)
    with pytest.raises(BranchError, match="re-validation"):
        backward_branch(cp, 1, point(Circle(), 0.9), 5)


_NEAR_TWO = 2 - 3 * 2 ** -52  # B rounds down, and D = B^2 - 4cv reads below 0 at v = 1/2


@settings(max_examples=300, deadline=None)
@given(c_low=st.floats(-2.0, 2.0), c_high=st.floats(-2.0, 2.0),
       v=st.one_of(st.sampled_from([0.0, 0.5 - 2 ** -54, 0.5, 1.0]),
                   st.floats(0.0, 0.5, exclude_max=True), st.floats(0.5, 1.0)))
@example(c_low=-2.0, c_high=-2.0, v=0.0)  # B = 0: the quotient reads 0/0
@example(c_low=2.0, c_high=_NEAR_TWO, v=1.0)  # D < 0 on the upper piece
@example(c_low=_NEAR_TWO, c_high=2.0, v=0.5 - 2 ** -54)  # the quotient reads above 1/2
def test_twopiece_inverse_is_exact_on_its_piece(c_low, c_high, v):
    """For |c| <= 2 the closed-form preimage t of v maps back to v within
    2^-51 and lies on v's piece: [0, 1/2] for v < 1/2, else [1/2, 1]."""
    m = MapDef("f", "twopiece_quadratic", (c_low, c_high))
    t = invert_map(m, point(UNIT, v)).value
    assert abs(apply_map(m, point(UNIT, t)).value - v) <= 2 ** -51
    assert (0.0 <= t <= 0.5) if v < 0.5 else (0.5 <= t <= 1.0)


def test_twopiece_inverse_needs_a_monotone_map():
    for params in ((2.5, 1.0), (1.0, -2.5), (math.nan, 1.0)):
        with pytest.raises(BranchError, match="has no inverse"):
            invert_map(MapDef("steep", "twopiece_quadratic", params), point(UNIT, 0.3))


@pytest.mark.parametrize("model", ["circle_pair", "interval_pair"])
def test_twopiece_branches_keep_their_side(model):
    """4,096-point branches end at y and stay on y's half: [0, 1/2] below
    1/2, [1/2, 1] above it, where the circle's 0 is its 1."""
    ifs = make_system(model)
    top, one = (1.0 - 2 ** -53, 0.0) if model == "circle_pair" else (1.0, 1.0)
    for lam in range(ifs.nmaps):
        for y in (0.0, 0.1, 0.45, 0.5 - 2 ** -54, 0.5 + 2 ** -53, 0.55, 0.9, top):
            vals = backward_branch(ifs, lam, point(ifs.space, y), 4095).raws
            assert len(vals) == 4096 and vals[-1] == y
            if y < 0.5:
                assert vals.max() <= 0.5
            else:
                assert np.all((vals >= 0.5) | (vals == one))


def test_invert_compose_and_product():
    """A composition inverts last map first, a product side by side; a
    preimage off the interval raises through either, as the part alone does."""
    half, upper = MapDef("h", "affine", (0.5, 0.0)), MapDef("u", "affine", (0.5, 0.5))
    both = MapDef("hu", "compose", (half, upper))  # t -> t/4 + 1/2
    assert invert_map(both, point(UNIT, 0.75)).value == 1.0
    with pytest.raises(BranchError, match="leaves the interval"):
        invert_map(both, point(UNIT, 0.25))
    kind = Product(UNIT, FiniteDiscrete(3))
    pair = MapDef("ux", "product", (upper, MapDef("r", "permutation", (1, 2, 0))))
    x = invert_map(pair, point(kind, (0.625, 0)))
    assert (x.value[0].value, x.value[1].value) == (0.25, 2) and apply_map(pair, x) == point(kind, (0.625, 0))
    with pytest.raises(BranchError, match="leaves the interval"):
        invert_map(pair, point(kind, (0.25, 0)))


def test_invert_permutation():
    perms = make_system("finite_permutations:3")
    for lam in range(perms.nmaps):
        for v in range(3):
            y = apply(perms, lam, point(perms.space, v))
            assert invert_map(perms.maps[lam], y).value == v


def test_inverse_of_a_permutation_tuple_off_its_image_raises_branch_error():
    """(0, 0, 0) is no bijection: 2 has no preimage, 0 has the first one."""
    kind = FiniteDiscrete(3)
    const = MapDef("c", "permutation", (0, 0, 0))
    ifs = IFSSpec(kind, (const,))
    message = "^2 is not in the image of permutation c$"
    with pytest.raises(BranchError, match=message):
        invert_map(const, point(kind, 2))
    with pytest.raises(BranchError, match=message):
        backward_branch(ifs, 0, point(kind, 2), 3)
    assert invert_map(const, point(kind, 0)) == point(kind, 0)
    assert backward_branch(ifs, 0, point(kind, 0), 2).raws.tolist() == [0, 0, 0]


# --- both directions of the map-form ladder ----------------------------------

_WIDE = Interval(-2.0, 3.0)
_IDENTITY = MapDef("id", "identity")
# an invertible twopiece map has |c| <= 2; below 1.5 its slope stays >= 1/4, so
# a round trip through four such maps loses at most 4^4 ulps
_MILD_C = st.floats(-1.5, 1.5)
_STEEP_C = st.one_of(st.floats(2.0, 4.0, exclude_min=True), st.floats(-4.0, -2.0, exclude_max=True))


def _kinds(depth=2):
    # a round trip through k prepends loses the k last bits; with k <= 4 and
    # depth >= 48 that is below 2^-43
    leaf = st.one_of(st.sampled_from([UNIT, _WIDE, Circle()]), st.integers(48, 64).map(SymbolSpace),
                     st.integers(1, 5).map(FiniteDiscrete))
    if not depth:
        return leaf
    return st.one_of(leaf, st.tuples(_kinds(depth - 1), _kinds(depth - 1)).map(lambda p: Product(*p)))


def _raws(kind):
    if isinstance(kind, Product):
        return st.tuples(_raws(kind.left), _raws(kind.right))
    if isinstance(kind, Interval):
        return st.floats(kind.lo, kind.hi)
    if isinstance(kind, Circle):
        return st.floats(0.0, 1.0, exclude_max=True)
    if isinstance(kind, SymbolSpace):
        return st.integers(0, 2 ** kind.depth - 1)
    return st.integers(0, kind.n - 1)


@st.composite
def _map_on(draw, kind, nest=2):
    """(m, why): a map of any form that acts on `kind`, with compose nested up
    to `nest` deep and product as deep as `kind`, and the BranchError text
    of the first part without an inverse that inverting it reaches, or None."""
    forms = ["identity", "conjugate"] + ["compose"] * (nest > 0)
    if isinstance(kind, Product):
        forms.append("product")
    elif isinstance(kind, Interval):
        forms += ["affine", "twopiece_quadratic"] if kind == UNIT else ["affine"]
    elif isinstance(kind, Circle):
        forms.append("twopiece_quadratic")
    else:
        forms.append("prepend" if isinstance(kind, SymbolSpace) else "permutation")
    form = draw(st.sampled_from(forms))
    name = f"m{draw(st.integers(0, 9))}"
    why = f"{form} map {name} has no inverse"
    if form == "identity":
        return _IDENTITY, None
    if form == "conjugate":
        return MapDef(name, form, fn=lambda p: p), why
    if form == "compose":  # the inverse runs the last part first
        parts = draw(st.lists(_map_on(kind, nest - 1), max_size=2))
        return MapDef(name, form, tuple(m for m, _ in parts)), next((w for _, w in parts[::-1] if w), None)
    if form == "product":  # the left side first
        sides = draw(_map_on(kind.left, nest)), draw(_map_on(kind.right, nest))
        return MapDef(name, form, tuple(m for m, _ in sides)), next((w for _, w in sides if w), None)
    if form == "affine":  # |a| in [1/4, 1] or a = 0, mapping [lo, hi] into itself
        a = draw(st.one_of(st.just(0.0), st.floats(0.25, 1.0), st.floats(-1.0, -0.25)))
        lo = kind.lo + draw(st.floats(0.0, 1.0)) * (1 - abs(a)) * (kind.hi - kind.lo)
        return MapDef(name, form, (a, lo - a * (kind.lo if a >= 0 else kind.hi))), None if a else why
    if form == "twopiece_quadratic":  # |c| > 2 only on the circle, where any c keeps the space
        cs = _MILD_C if kind == UNIT else st.one_of(_MILD_C, _STEEP_C)
        c = draw(cs), draw(cs)
        return MapDef(name, form, c), why if max(map(abs, c)) > 2 else None
    if form == "prepend":
        return MapDef(name, form, (draw(st.integers(0, 1)),)), None
    return MapDef(name, form, tuple(draw(st.permutations(range(kind.n))))), None


@st.composite
def _mapped_points(draw):
    kind = draw(_kinds())
    m, why = draw(_map_on(kind))
    return m, kind.decode(draw(_raws(kind))), why


@settings(max_examples=400, deadline=None)
@given(case=_mapped_points())
@example(case=(MapDef("e", "compose", ()), point(UNIT, 0.3), None))  # the empty compose is the identity both ways
def test_invert_map_undoes_apply_map(case):
    """For maps of every form, nested compose and product included, the
    inverse undoes the step to 1e-12 where every part has an inverse, and
    raises the BranchError of the first part without one otherwise."""
    m, x, why = case
    y = apply_map(m, x)
    if why is None:
        assert distance(invert_map(m, y), x) <= 1e-12
    else:
        with pytest.raises(BranchError, match=f"^{re.escape(why)}$"):
            invert_map(m, y)


def _foreign_maps(kind):
    """Maps whose form cannot act on `kind`."""
    foreign = [MapDef("w", "twist"), MapDef("p2", "prepend", (2,))]
    if not isinstance(kind, Interval):
        foreign.append(MapDef("a", "affine", (0.5, 0.0)))
    if kind not in (UNIT, Circle()):
        foreign.append(MapDef("q", "twopiece_quadratic", (1.0, 1.0)))
    if not isinstance(kind, SymbolSpace):
        foreign.append(MapDef("p0", "prepend", (0,)))
    if kind != FiniteDiscrete(3):
        foreign.append(MapDef("r", "permutation", (1, 2, 0)))
    if not isinstance(kind, Product):
        foreign.append(MapDef("xy", "product", (_IDENTITY, _IDENTITY)))
    return foreign


@settings(max_examples=200, deadline=None)
@given(data=st.data(), kind=_kinds(), wrap=st.sampled_from(["none", "compose", "product"]))
def test_unsupported_forms_raise_the_same_domain_error_both_ways(data, kind, wrap):
    """A form that cannot act on the space raises one DomainError, with one
    text, from the step and from the inverse, also as a part of a compose
    (after the identity) or as the left side of a product."""
    m = data.draw(st.sampled_from(_foreign_maps(kind)))
    x = kind.decode(data.draw(_raws(kind)))
    if wrap == "compose":
        m = MapDef("c", "compose", (_IDENTITY, m))
    elif wrap == "product":
        m, x = MapDef("c", "product", (m, _IDENTITY)), point(Product(kind, UNIT), (x, 0.5))
    with pytest.raises(DomainError) as step:
        apply_map(m, x)
    with pytest.raises(DomainError) as inverse:
        invert_map(m, x)
    assert type(step.value) is type(inverse.value) is DomainError
    assert str(step.value) == str(inverse.value)
