"""Construction and validation of pseudo-orbits.

A pseudo-orbit record stores the point sequence, the selector that claims to
drive it, and the per-step error series alpha_i = d(f_{sel[i]}(x_i), x_{i+1}).
Validators check the sup-norm (delta-pseudo-orbit) and Cesàro (asymptotic
average) conditions at a finite horizon.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass
from pathlib import Path
from typing import Sequence

import numpy as np

from .averaging import Series, running_average_curve, series
from .core import (
    IFSSpec,
    SelectorSequence,
    apply,
    power_ifs,
    selector_explicit,
    word_index,
)
from .errors import BranchError, DomainError, LengthError
from .spaces import (
    Circle,
    FiniteDiscrete,
    Interval,
    Point,
    Product,
    SymbolSpace,
    diameter,
    distance,
    point,
    point_from_json,
    point_to_json,
    value_repr,
)


@dataclass(frozen=True, eq=False)
class PseudoOrbitRecord:
    points: tuple[Point, ...]
    selector: SelectorSequence
    errors: Series

    @property
    def steps(self) -> int:
        return len(self.points) - 1


def pseudo_orbit_record(ifs: IFSSpec, points: Sequence[Point], selector: SelectorSequence) -> PseudoOrbitRecord:
    """Build a record from explicit points, recomputing the error series."""
    pts = tuple(points)
    if len(pts) < 1:
        raise DomainError("a pseudo-orbit needs at least one point")
    n = len(pts) - 1
    if len(selector) < n:
        raise LengthError(f"selector provides {len(selector)} entries, need {n}")
    errs = np.empty(n)
    for i in range(n):
        errs[i] = distance(apply(ifs, selector.entry(i), pts[i]), pts[i + 1])
    return PseudoOrbitRecord(pts, selector, series(errs, bound=diameter(ifs.space)))


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


def _displace(base: Point, s: float, rng: np.random.Generator) -> Point:
    """A point at distance min(s, feasible) from `base`; direction is drawn
    from `rng` where the space offers more than one."""
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
            return base  # below representable resolution
        bits = list(base.value)
        bits[k] ^= 1
        return Point(kind, tuple(bits))
    if isinstance(kind, FiniteDiscrete):
        if s < 1.0 or kind.n == 1:
            return base
        shift = 1 + int(rng.integers(0, kind.n - 1))
        return point(kind, (base.value + shift) % kind.n)
    if isinstance(kind, Product):
        return Point(kind, (_displace(base.value[0], s, rng), _displace(base.value[1], s, rng)))
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
    """
    diam = diameter(ifs.space)
    if len(noise_schedule.values) and float(noise_schedule.values.max()) > diam:
        raise DomainError("noise schedule exceeds the space diameter")
    rng = np.random.default_rng(seed)
    n = noise_schedule.horizon
    pts = [x0]
    errs = np.empty(n)
    cur = x0
    for i in range(n):
        base = apply(ifs, selector.entry(i), cur)
        cur = _displace(base, float(noise_schedule.values[i]), rng)
        errs[i] = distance(base, cur)
        pts.append(cur)
    return PseudoOrbitRecord(tuple(pts), selector, series(errs, bound=diam))


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

    # forward iterates of x, shared by all blocks
    fwd = [x]
    for _ in range(2 ** (depth - 1) - 1):
        fwd.append(apply(ifs, g, fwd[-1]))

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
    pts = tuple(point_from_json(p) for p in d["points"])
    sel = SelectorSequence(tuple(int(e) for e in d["selector"]["entries"]),
                           d["selector"].get("generator", "explicit"))
    if not len(d["errors"]) == len(pts) - 1 <= len(sel):
        raise LengthError(f"record lengths disagree: {len(pts)} points, {len(d['errors'])} "
                          f"errors, {len(sel)} selector entries")
    return PseudoOrbitRecord(pts, sel, series(d["errors"]))


def record_to_csv(rec: PseudoOrbitRecord, path, comments: Sequence[str] = ()) -> None:
    with Path(path).open("w", newline="") as fh:
        for c in comments:
            fh.write(f"# {c}\n")
        writer = csv.writer(fh)
        writer.writerow(["index", "coordinates", "lambda", "alpha"])
        for i, p in enumerate(rec.points):
            if i < rec.steps:
                writer.writerow([i, value_repr(p), rec.selector.entries[i],
                                 repr(float(rec.errors.values[i]))])
            else:
                writer.writerow([i, value_repr(p), "", ""])
