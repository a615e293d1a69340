"""Construction and validation of pseudo-orbits.

A pseudo-orbit record stores the point sequence, the selector that claims to
drive it, and the per-step error series alpha_i = d(f_{sel[i]}(x_i), x_{i+1}).
Validators check the sup-norm (delta-pseudo-orbit) and Cesàro (asymptotic
average) conditions at a finite horizon.
"""

from __future__ import annotations

import csv
import operator
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Iterator, Optional, Sequence

import numpy as np

from .averaging import Series, running_average_curve, series
from .core import (
    IFSSpec,
    SelectorSequence,
    apply,
    orbit,
    power_ifs,
    selector_explicit,
    usable_entries,
    word_index,
)
from .errors import BranchError, DomainError, LengthError
from .spaces import (
    Circle,
    FiniteDiscrete,
    Interval,
    Point,
    Product,
    RawPoints,
    SpaceKind,
    SymbolSpace,
    diameter,
    distance,
    json_key,
    leaf_kinds,
    point_from_json,
    point_to_json,
    unbatch,
    value_repr,
)


@dataclass(frozen=True, eq=False)
class PseudoOrbitRecord:
    points: Sequence[Point]  # a RawPoints view when the library walked the record
    selector: SelectorSequence
    errors: Series
    # (space, raw coordinates of the points), found or encoded at most once;
    # not an __init__ argument, so dataclasses.replace never copies a stale one
    _raw: Optional[tuple] = field(default=None, init=False, repr=False)

    @property
    def steps(self) -> int:
        return len(self.points) - 1

    def raw(self, kind: SpaceKind):
        """Raw coordinates of the points in `kind`, a view's own list or batch,
        or else a list encoded on first use. Raises DomainError unless every
        point lies in `kind`."""
        if self._raw is None or self._raw[0] != kind:
            self._keep_raw(kind, _raws(kind, self.points))
        return self._raw[1]

    def _keep_raw(self, kind: SpaceKind, raw) -> "PseudoOrbitRecord":
        object.__setattr__(self, "_raw", (kind, raw))
        return self


def _raws(kind: SpaceKind, points: Sequence[Point]):
    if isinstance(points, RawPoints) and points.kind == kind:
        return points.raws
    if any(p.kind is not kind and p.kind != kind for p in points):
        raise DomainError("record points do not belong to the IFS space")
    return [kind.encode(p) for p in points]


def pseudo_orbit_record(ifs: IFSSpec, points: Sequence[Point], selector: SelectorSequence) -> PseudoOrbitRecord:
    """Build a record from explicit points, recomputing the error series. A
    RawPoints view of the IFS space is kept as it is, without decoding."""
    pts = points if isinstance(points, RawPoints) else tuple(points)
    if len(pts) < 1:
        raise DomainError("a pseudo-orbit needs at least one point")
    n = len(pts) - 1
    if len(selector) < n:
        raise LengthError(f"selector provides {len(selector)} entries, need {n}")
    kind, steps = ifs.space, ifs.raw_steps
    if n == 0:  # no step to check the point's space
        return PseudoOrbitRecord(pts, selector, series(np.empty(0), bound=diameter(kind)))
    raw = _raws(kind, pts)
    lams, error = usable_entries(ifs, selector, n)
    images = [steps[lam](x) for lam, x in zip(lams, unbatch(raw))]
    if error is not None:
        raise error
    errs = kind.dists(kind.batch(images), kind.batch(raw[1:]))
    return PseudoOrbitRecord(pts, selector, series(errs, bound=diameter(kind)))._keep_raw(kind, raw)


def record_from_orbit(ifs: IFSSpec, orb) -> PseudoOrbitRecord:
    """A true orbit as a pseudo-orbit (all errors vanish)."""
    return pseudo_orbit_record(ifs, orb.points, orb.selector)


@dataclass(frozen=True)
class DeltaCheck:
    ok: bool
    worst_index: int
    worst_error: float


def validate_delta_pseudo_orbit(rec: PseudoOrbitRecord, delta: float) -> DeltaCheck:
    """True iff every step error is strictly below delta; reports the argmax."""
    if delta <= 0:
        raise DomainError("delta must be positive")
    errs = rec.errors.values
    if len(errs) == 0:
        return DeltaCheck(True, 0, 0.0)
    worst = int(np.argmax(errs))
    return DeltaCheck(float(errs[worst]) < delta, worst, float(errs[worst]))


@dataclass(frozen=True, eq=False)
class AapoReport:
    final_average: float
    curve: Series
    verdict: bool


def validate_aapo(rec: PseudoOrbitRecord, horizon: int, tol: float) -> AapoReport:
    """Cesàro average of the first `horizon` errors, with its running curve
    for decay inspection."""
    if not 1 <= horizon <= rec.errors.horizon:
        raise LengthError(f"horizon {horizon} outside [1, {rec.errors.horizon}]")
    curve = running_average_curve(series(rec.errors.values[:horizon]))
    final = float(curve.values[-1])
    return AapoReport(final, curve, final <= tol)


def _draw_highs(kind: SpaceKind, s: np.ndarray) -> np.ndarray:
    """Per step, the exclusive upper bound of the one integer a leaf of
    `kind` draws when displaced by s, or 0 where it draws none: a direction
    (2) on intervals and circles, a shift (n-1) on finite spaces of n > 1
    points when s >= 1."""
    if isinstance(kind, (Interval, Circle)):
        return np.where(s > 0, 2, 0)
    if isinstance(kind, FiniteDiscrete) and kind.n > 1:
        return np.where(s >= 1.0, kind.n - 1, 0)
    return np.zeros(len(s), dtype=np.int64)


def _flip_index(s: np.ndarray, depth: int) -> np.ndarray:
    """Per step, the smallest k with 2^(1-k) <= s: the bit whose flip moves a
    symbol point by at most s. `depth` where no bit qualifies or s <= 0."""
    pos = s > 0
    k = np.full(len(s), depth, dtype=np.int64)
    k[pos] = np.clip(np.ceil(1.0 - np.log2(s[pos])), 0, depth)
    while True:  # log2 rounds; settle the estimate against the comparison itself
        up = pos & (k < depth) & (np.ldexp(1.0, 1 - k) > s)
        down = pos & (k > 0) & (np.ldexp(1.0, 2 - k) <= s)
        if not (up.any() or down.any()):
            return k
        k += up
        k -= down


def _moves(kind: SpaceKind, s: np.ndarray, draws: Iterator[np.ndarray]) -> tuple[Callable, Sequence]:
    """A raw displacement `move(raw, param)` and its per-step params (a list,
    or on a symbol space a batch of flip masks), which move a point of `kind`
    by min(s, feasible). `draws` yields each leaf's column of drawn integers,
    in leaf order."""
    if isinstance(kind, Product):
        left, lp = _moves(kind.left, s, draws)
        right, rp = _moves(kind.right, s, draws)
        return (lambda x, p: (left(x[0], p[0]), right(x[1], p[1]))), list(zip(unbatch(lp), unbatch(rp)))
    drawn = next(draws)
    if isinstance(kind, Interval):
        lo, hi, canon = kind.lo, kind.hi, kind.canon
        shifts = np.where(s > 0, np.where(drawn == 1, s, -s), 0.0).tolist()
        return (lambda x, d: canon(lo if (v := x + d) < lo else hi if v > hi else v) if d else x), shifts
    if isinstance(kind, Circle):
        canon = kind.canon
        shifts = np.where(s > 0, np.where(drawn == 1, 1.0, -1.0) * np.minimum(s, 0.5), 0.0)
        return (lambda x, d: canon((x + d) % 1.0) if d else x), shifts.tolist()
    if isinstance(kind, SymbolSpace):
        masks = kind.batch([1 << (kind.depth - 1 - k) for k in range(kind.depth)] + [0])
        return operator.xor, masks[_flip_index(s, kind.depth)]
    if isinstance(kind, FiniteDiscrete):
        n, canon = kind.n, kind.canon
        shifts = np.where(_draw_highs(kind, s) > 0, 1 + drawn, 0)
        return (lambda x, k: canon((x + k) % n) if k else x), shifts.tolist()
    raise DomainError(f"unknown space kind {kind!r}")


def perturbed_orbit(
    ifs: IFSSpec,
    selector: SelectorSequence,
    x0: Point,
    noise_schedule: Series,
    seed: int,
) -> PseudoOrbitRecord:
    """Drive an orbit while displacing each step by the scheduled amount.

    Realized errors equal the schedule except where a space boundary or the
    representation resolution clips the step, in which case the smaller
    realized value is recorded.

    Displacements: on an interval or circle leaf, a drawn direction (1 up,
    0 down); on a symbol leaf, a flip of the first bit whose flip moves the
    point by at most the scheduled amount; on a finite leaf, a drawn cyclic
    shift of 1..n-1 when the amount is >= 1. The draws depend on the schedule
    and the leaf kinds alone, so they are all made before the walk, with one
    `rng.integers` call, in the order a step-by-step loop would make them
    (step by step, leaves left to right).
    """
    diam = diameter(ifs.space)
    if len(noise_schedule.values) and float(noise_schedule.values.max()) > diam:
        raise DomainError("noise schedule exceeds the space diameter")
    kind, walk = ifs.space, ifs.raw_walk
    if x0.kind != kind:
        raise DomainError("point does not belong to the IFS space")
    cur, s, rng = kind.encode(x0), noise_schedule.values, np.random.default_rng(seed)
    highs = np.stack([_draw_highs(leaf, s) for leaf in leaf_kinds(kind)], axis=1)
    drawn = np.zeros_like(highs)
    need = highs > 0  # row-major: step by step, leaves left to right
    if need.any():
        drawn[need] = rng.integers(0, highs[need])
    move, params = _moves(kind, s, iter(drawn.T))
    lams, error = usable_entries(ifs, selector, len(s))
    raw, bases = walk(cur, lams, move, params)
    if error is not None:
        raise error
    errs = kind.dists(kind.batch(bases), kind.batch(raw[1:]))
    return PseudoOrbitRecord(RawPoints(kind, raw), selector, series(errs, bound=diam))


def dyadic_seam_indices(depth: int, below: int | None = None) -> tuple[int, ...]:
    """Structural seam positions of the dyadic block sequence of the given
    depth: steps 0 and 1, then the forward/backward switch and the block end
    inside every block. Only indices with a successor point are included."""
    last = 2 ** (depth + 1) - 2  # final step index of the record
    seams = [0, 1]
    for k in range(1, depth + 1):
        seams.append(2 ** k + 2 ** (k - 1) - 1)
        seams.append(2 ** (k + 1) - 1)
    cap = last + 1 if below is None else min(below, last + 1)
    return tuple(i for i in seams if i < cap)


def dyadic_block_sequence(
    ifs: IFSSpec,
    g: int,
    x: Point,
    y: Point,
    backward_branch: Sequence[Point],
    depth: int,
) -> PseudoOrbitRecord:
    """Alternating forward/backward dyadic blocks joining x and y under one
    surjective map g.

    Block k (indices [2^k, 2^{k+1})) holds the forward run x, g(x), ...,
    g^{2^{k-1}-1}(x) followed by the tail of the backward branch ending at y.
    Errors vanish except at the two seams of each block, so the error series
    is Cesàro-null with O(log n / n) seam density.

    `backward_branch` must list [y_{-m}, ..., y_{-1}, y] with g(y_{-j}) =
    y_{-j+1} (validated to 1e-9) and m + 1 >= 2^{depth-1}.
    """
    if depth < 1:
        raise DomainError("depth must be >= 1")
    if not 0 <= g < ifs.nmaps:
        raise DomainError(f"map index {g} out of range")
    if not ifs.surjective_flags[g]:
        raise DomainError("dyadic blocks need a surjective map (flag not set)")
    branch = list(backward_branch)
    need = 2 ** (depth - 1)
    if len(branch) < need:
        raise BranchError(f"backward branch has {len(branch)} points, need {need}")
    if distance(branch[-1], y) > 1e-9:
        raise BranchError("backward branch must end at y")
    for a, b in zip(branch, branch[1:]):
        if distance(apply(ifs, g, a), b) > 1e-9:
            raise BranchError("backward branch fails forward re-validation")

    fwd = orbit(ifs, selector_explicit([g] * (need - 1)), x, need - 1).points  # shared by all blocks

    pts: list[Point] = [x, y]
    for k in range(1, depth + 1):
        half = 2 ** (k - 1)
        pts.extend(fwd[:half])
        pts.extend(branch[-half:])
    sel = selector_explicit([g] * (len(pts) - 1), ifs.nmaps)
    return pseudo_orbit_record(ifs, pts, sel)


def stride_subsample(ifs: IFSSpec, rec: PseudoOrbitRecord, k: int) -> tuple[IFSSpec, PseudoOrbitRecord]:
    """Every k-th point of the record as a pseudo-orbit of the k-fold power
    family, with the selector re-encoded as word indices and the errors
    recomputed under the composed maps."""
    if k < 2:
        raise DomainError("stride needs k >= 2")
    n = rec.steps
    if n % k != 0:
        raise LengthError(f"record length {n} is not a multiple of {k}")
    pspec = power_ifs(ifs, k)
    pts = rec.points[::k]
    words = [
        word_index([rec.selector.entry(i * k + j) for j in range(k)], ifs.nmaps)
        for i in range(n // k)
    ]
    return pspec, pseudo_orbit_record(pspec, pts, selector_explicit(words, pspec.nmaps))


# --- wire formats -----------------------------------------------------------

def record_to_json(rec: PseudoOrbitRecord) -> dict:
    return {
        "points": [point_to_json(p) for p in rec.points],
        "selector": {"entries": list(rec.selector.entries), "generator": rec.selector.generator},
        "errors": [float(v) for v in rec.errors.values],
    }


def record_from_json(d: dict) -> PseudoOrbitRecord:
    pts = tuple(point_from_json(p) for p in json_key(d, "points"))
    stored, errors = json_key(d, "selector"), json_key(d, "errors")
    sel = SelectorSequence(tuple(int(e) for e in json_key(stored, "entries")),
                           stored.get("generator", "explicit"))
    if not len(errors) == len(pts) - 1 <= len(sel):
        raise LengthError(f"record lengths disagree: {len(pts)} points, {len(errors)} "
                          f"errors, {len(sel)} selector entries")
    return PseudoOrbitRecord(pts, sel, series(errors))


def record_to_csv(rec: PseudoOrbitRecord, path, comments: Sequence[str] = ()) -> None:
    with Path(path).open("w", newline="") as fh:
        for c in comments:
            fh.write(f"# {c}\n")
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["index", "coordinates", "lambda", "alpha"])
        for i, p in enumerate(rec.points):
            if i < rec.steps:
                writer.writerow([i, value_repr(p), rec.selector.entries[i],
                                 repr(float(rec.errors.values[i]))])
            else:
                writer.writerow([i, value_repr(p), "", ""])
