import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import ifsdyn.models as models

from ifsdyn import (
    BranchError,
    Circle,
    DomainError,
    FiniteDiscrete,
    GuardError,
    Interval,
    MapDef,
    Product,
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

    ident = IFSSpec(UNIT, (MapDef("id", "identity"),), surjective_flags=(True,))
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
    real, made = models._compile_inverse, []

    def third_off(m, kind):  # the third preimage is off by 1e-9
        inverse = real(m, kind)

        def step(v):
            made.append(inverse(v))
            return made[-1] + 1e-9 if len(made) == 3 else made[-1]

        return step

    monkeypatch.setattr(models, "_compile_inverse", third_off)
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
