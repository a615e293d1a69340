from fractions import Fraction
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ifsdyn import (
    DomainError,
    Interval,
    block_saturation,
    cesaro_average,
    constant_series,
    density,
    extract_null_density_set,
    harmonic_series,
    index_set,
    make_system,
    perturbed_orbit,
    point,
    running_average_curve,
    selector_random,
    series,
    validate_aapo,
    verify_null_density_implies_average,
)
from ifsdyn import averaging
from ifsdyn.experiments import powers_of_two_series


def powers_of_two_below(n):
    out = []
    p = 1
    while p < n:
        out.append(p)
        p *= 2
    return out


def test_cesaro_basics():
    s = constant_series(100, 0.3)
    assert cesaro_average(s, 1) == pytest.approx(0.3)
    assert cesaro_average(s, 100) == pytest.approx(0.3)
    with pytest.raises(DomainError):
        cesaro_average(s, 0)
    with pytest.raises(DomainError):
        cesaro_average(s, 101)


def test_cesaro_harmonic_oracle():
    n = 10_000
    s = harmonic_series(n)
    oracle = sum(1.0 / (i + 1) for i in range(n)) / n
    assert cesaro_average(s, n) == pytest.approx(oracle, rel=1e-12)
    assert oracle == pytest.approx(9.7876e-4, rel=1e-4)


def test_cesaro_powers_of_two_indicator():
    n = 1024
    vals = np.zeros(n)
    vals[powers_of_two_below(n)] = 1.0
    s = series(vals)
    # direct count of powers of two in [0, 1024): 1, 2, ..., 512
    count = len(powers_of_two_below(n))
    assert count == 10
    assert cesaro_average(s, n) == pytest.approx(count / n)


def test_running_average_curve():
    s = constant_series(50, 0.7)
    curve = running_average_curve(s)
    assert np.allclose(curve.values, 0.7)
    z = constant_series(20, 0.0)
    assert np.all(running_average_curve(z).values == 0.0)
    h = running_average_curve(harmonic_series(1000)).values
    assert np.all(np.diff(h) <= 1e-15)  # monotone nonincreasing for decreasing input


@pytest.mark.parametrize("values", [
    [0.0],
    [3.0, 0.0, 0.1, 7.5],
    np.random.default_rng(5).random(2_001) * 1e3,
    1.0 / np.arange(1, 10_001),
])
def test_running_average_curve_contract(values):
    """The curve is the plain cumsum/arange quotient, byte for byte, and
    read-only like every checked series."""
    v = series(values).values
    curve = running_average_curve(series(values)).values
    assert curve.tobytes() == (np.cumsum(v) / np.arange(1, len(v) + 1)).tobytes()
    assert not curve.flags.writeable


def test_running_average_curve_overflow_is_not_finite():
    # the sum overflows to inf; the curve refuses it, and numpy's overflow
    # warning (an error under this suite) stays inside
    with pytest.raises(DomainError, match="series values must be finite"):
        running_average_curve(series([1e308, 1e308]))


@pytest.mark.parametrize("average", [lambda s: cesaro_average(s, s.horizon), extract_null_density_set],
                         ids=["cesaro", "extract"])
def test_overflowing_average_is_refused_as_the_curve_refuses_it(average):
    with pytest.raises(DomainError, match="series values must be finite"):
        average(series([1e308, 1e308]))


def test_extract_takes_its_average_from_cesaro_average():
    """The decomposition's no-decay test reads cesaro_average, which equals
    the array mean bit for bit."""
    rng = np.random.default_rng(12)
    for _ in range(200):
        s = series(rng.random(int(rng.integers(1, 3000))) ** 3)
        assert cesaro_average(s, s.horizon) == float(s.values.mean())
    with mock.patch.object(averaging, "cesaro_average", return_value=1.0) as avg:
        assert extract_null_density_set(series([0.0, 1.0, 0.0])).no_decay
    avg.assert_called_once()


def test_validate_aapo_prefix_is_the_prefix_curve():
    b = make_system("binary_affine")
    rec = perturbed_orbit(b, selector_random(4, 500, 2), point(Interval(0.0, 1.0), 0.3),
                          harmonic_series(500), 11)
    rep = validate_aapo(rec, 123, tol=1e-2)
    curve = running_average_curve(series(rec.errors.values[:123]))
    assert rep.curve.values.tobytes() == curve.values.tobytes()
    assert rep.final_average == float(curve.values[-1])
    assert not rep.curve.values.flags.writeable


def test_series_validation():
    with pytest.raises(DomainError):
        series([-0.1, 0.2])
    with pytest.raises(DomainError):
        series([0.5, 2.0], bound=1.0)
    for bad in (float("nan"), float("inf")):
        with pytest.raises(DomainError):
            series([0.1, bad])


def test_density_examples():
    evens = index_set(range(0, 1000, 2), 1000)
    assert density(evens, 1000) == pytest.approx(0.5)
    pows = index_set(powers_of_two_below(1024), 1024)
    assert density(pows, 1024) == pytest.approx(10 / 1024)
    empty = index_set([], 100)
    assert density(empty, 100) == 0.0
    with pytest.raises(DomainError):
        density(empty, 0)


@given(
    st.sets(st.integers(0, 199), max_size=60),
    st.sets(st.integers(0, 199), max_size=60),
    st.integers(1, 200),
)
@settings(deadline=None)
def test_density_subadditive(a, b, n):
    j = index_set(a, 200)
    k = index_set(b, 200)
    union = index_set(a | b, 200)
    # exact rational comparison avoids float-rounding doubt
    cnt = lambda s: sum(1 for i in s.indices if i < n)
    assert Fraction(cnt(union), n) <= Fraction(cnt(j), n) + Fraction(cnt(k), n)
    assert density(union, n) <= density(j, n) + density(k, n) + 1e-15


@given(
    st.sets(st.integers(0, 499), max_size=40),
    st.integers(1, 8),
)
@settings(max_examples=200, deadline=None)
def test_block_saturation_density_bound(ixs, k):
    horizon = 500
    j = index_set(ixs, horizon)
    sat = block_saturation(j, k)
    assert set(j.indices) <= set(sat.indices)
    # every index of a block containing a J-member is present
    for i in j.indices:
        b = i // k
        for m in range(b * k, min((b + 1) * k, horizon)):
            assert m in sat
    d = Fraction(len(j.indices), horizon)
    dsat = Fraction(len(sat.indices), horizon)
    assert dsat <= k * d + Fraction(k, horizon)


def test_linearity_of_cesaro():
    rng = np.random.default_rng(17)
    for _ in range(20):
        n = int(rng.integers(5, 400))
        a = rng.random(n)
        b = rng.random(n)
        lhs = cesaro_average(series(a + b), n)
        rhs = cesaro_average(series(a), n) + cesaro_average(series(b), n)
        assert lhs == pytest.approx(rhs, abs=1e-12)


def test_extract_zero_series():
    dec = extract_null_density_set(constant_series(1000, 0.0))
    assert not dec.no_decay
    assert len(dec.index_set) == 0


def test_extract_no_decay_on_evens():
    vals = np.zeros(10_000)
    vals[::2] = 1.0
    dec = extract_null_density_set(series(vals, bound=1.0))
    assert dec.no_decay
    assert len(dec.index_set) == 10_000  # full prefix returned


def _oracle_check_levels(values, dec):
    """Independent verification of the level-set construction: minimal level
    starts, and exact membership on every level segment."""
    horizon = len(values)
    marked = set(dec.index_set.indices)
    starts = [c.start for c in dec.levels] + [horizon]
    seen = set()
    prev_start = 0
    for cut, end in zip(dec.levels, starts[1:]):
        ind = values > cut.theta
        run = np.cumsum(ind) / np.arange(1, horizon + 1)
        # stays strictly below theta for every prefix longer than start
        assert np.all(run[cut.start:] < cut.theta)
        # minimality unless clamped by the previous level's start
        if cut.start > prev_start:
            assert run[cut.start - 1] >= cut.theta
        # exact membership on the segment
        for i in range(cut.start, end):
            assert (i in marked) == bool(ind[i]), i
        seen.update(range(cut.start, end))
        prev_start = cut.start
    # nothing marked outside the level segments
    assert marked <= seen


def _prefix_scan_start(a, theta):
    """Level start by the direct scan: the last prefix whose running share of
    values above theta reaches theta, over every prefix of the series."""
    run = np.cumsum(a > theta) / np.arange(1, len(a) + 1)
    bad = np.nonzero(run >= theta)[0]
    return int(bad[-1]) + 1 if len(bad) else 0


@st.composite
def _level_series(draw):
    """Series of 1-3,000 entries: exact powers of two (ties at every
    threshold) mixed with zeros, decaying uniform draws, constants, and
    values within a factor 2 of their bound (no decay)."""
    n = draw(st.integers(1, 3_000))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    kind = draw(st.sampled_from(["powers", "decaying", "constant", "no_decay"]))
    if kind == "powers":
        marked = rng.random(n) < draw(st.floats(0.0, 1.0))
        values = np.where(marked, 2.0 ** -rng.integers(0, 63, n).astype(float), 0.0)
    elif kind == "decaying":
        values = rng.random(n) / np.arange(1, n + 1) ** draw(st.floats(0.0, 1.5))
    elif kind == "constant":
        c = draw(st.one_of(st.just(0.0), st.integers(0, 62).map(lambda j: 2.0 ** -j),
                           st.floats(0.0, 1.0)))
        values = np.full(n, c)
    else:
        values = rng.uniform(0.5, 1.0, n) * 2.0 ** -draw(st.integers(0, 62))
    bound = draw(st.sampled_from([None, 1.0])) if kind != "no_decay" else float(values.max())
    return series(values, bound=bound)


@given(_level_series())
@settings(max_examples=200, deadline=None)
def test_extract_matches_prefix_scan(s):
    dec = extract_null_density_set(s)
    with mock.patch.object(averaging, "_level_start", _prefix_scan_start):
        ref = extract_null_density_set(s)
    assert dec.levels == ref.levels
    assert dec.index_set.indices == ref.index_set.indices
    assert dec.tail_max == ref.tail_max
    assert dec.tail_threshold == ref.tail_threshold
    assert dec.no_decay == ref.no_decay
    if dec.no_decay:
        assert dec.index_set.indices == tuple(range(s.horizon))
    else:
        _oracle_check_levels(s.values, dec)


def test_extract_powers_of_two_with_oracle():
    horizon = 100_000
    s = powers_of_two_series(horizon)
    dec = extract_null_density_set(s)
    assert not dec.no_decay
    powers = set(powers_of_two_below(horizon))
    n1 = dec.levels[0].start
    assert {p for p in powers if p >= n1} <= set(dec.index_set.indices)
    assert density(dec.index_set, horizon) < 0.01
    assert dec.tail_max < 0.05
    assert dec.tail_max <= dec.tail_threshold
    _oracle_check_levels(s.values, dec)


def test_verify_examples():
    n = 1000
    s = constant_series(n, 1.0)
    all_idx = index_set(range(n), n)
    chk = verify_null_density_implies_average(s, all_idx, tol=1e-3)
    assert chk.verdict  # bound degenerates to B + tol
    assert chk.density_term == pytest.approx(1.0)
    empty = index_set([], n)
    chk2 = verify_null_density_implies_average(s, empty, tol=0.5)
    assert not chk2.verdict  # constant series never decays off an empty set
    chk3 = verify_null_density_implies_average(s, empty, tol=1.0)
    assert chk3.verdict


def test_verify_powers_of_two():
    horizon = 100_000
    s = powers_of_two_series(horizon)
    dec = extract_null_density_set(s)
    chk = verify_null_density_implies_average(s, dec.index_set, tol=1e-3)
    assert chk.verdict


@pytest.mark.parametrize("builder", [
    lambda: harmonic_series(20_000),
    lambda: powers_of_two_series(20_000),
    # random but genuinely Cesàro-decaying
    lambda: series(np.random.default_rng(3).random(20_000)
                   / np.arange(1, 20_001) ** 0.7, bound=1.0),
])
def test_extract_verify_round_trip(builder):
    s = builder()
    dec = extract_null_density_set(s)
    assert not dec.no_decay
    chk = verify_null_density_implies_average(s, dec.index_set, tol=1e-2)
    assert chk.verdict
