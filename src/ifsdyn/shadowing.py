"""Finite-horizon shadowing verification and search.

`shadow_verify` measures how well a candidate orbit tracks a pseudo-orbit in
both sup and Cesàro-average senses. For uniformly contracting families the
tracking error admits an explicit inductive bound, realized here by
`contracting_shadow`; for everything else `greedy_shadow_search` hunts for a
candidate over a start grid.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .averaging import Series, running_average_curve, series
from .core import (
    IFSSpec,
    SelectorSequence,
    affine_orbit,
    estimate_contraction_ratio,
    selector_explicit,
    walk,
)
from .errors import ContractionError, DomainError, LengthError
from .pseudo_orbits import PseudoOrbitRecord
from .spaces import Point, as_batch, leafwise, point_to_json

_VALIDATE_PAIRS = 1000  # pairs of the ratio estimate that contracting_shadow checks the claim with


@dataclass(frozen=True, eq=False)
class ShadowReport:
    candidate: Point
    selector: SelectorSequence
    sup_error: float
    cesaro_curve: Series
    final_average: float
    bound: Optional[float]
    verdict_avg: bool
    verdict_sup: bool
    tol_avg: float
    tol_sup: float


def _finish_report(candidate, sel, ds, bound, tol_avg, tol_sup) -> ShadowReport:
    if math.isnan(tol_avg) or math.isnan(tol_sup):
        raise DomainError("shadowing tolerances must be numbers, got nan")
    curve = running_average_curve(series(ds))
    final = float(curve.values[-1])
    sup = float(ds.max())
    return ShadowReport(
        candidate=candidate,
        selector=sel,
        sup_error=sup,
        cesaro_curve=curve,
        final_average=final,
        bound=bound,
        verdict_avg=final <= tol_avg,
        verdict_sup=sup <= tol_sup,
        tol_avg=tol_avg,
        tol_sup=tol_sup,
    )


def _check_horizon(rec: PseudoOrbitRecord, n: int) -> None:
    if n < 1 or len(rec.points) < n:
        raise LengthError(f"horizon {n} incompatible with record of {len(rec.points)} points")


def _track(ifs: IFSSpec, rec: PseudoOrbitRecord, z: Point, n: int, sigma: SelectorSequence):
    """Distances d_i = d(cur_i, x_i) of the orbit of z under `sigma` to the
    first n record points, walked on raw coordinates."""
    _check_horizon(rec, n)
    if len(sigma) < n - 1:
        raise LengthError("selector shorter than the horizon")
    kind = ifs.space
    xs = rec.raw(kind)
    if z.kind != kind:
        raise DomainError("start point does not belong to the IFS space")
    walked, _ = walk(ifs, sigma, kind.encode(z), n - 1)
    return kind.dists(walked, leafwise(lambda a: a[:n], xs))


def _greedy_tracks(ifs: IFSSpec, rec: PseudoOrbitRecord, starts: Sequence[Point], n: int):
    """Greedy tracks of the first n record points from every start at once.

    All starts step in lockstep, one step per record point: the images of
    every current point under every map (`IFSSpec.raw_images`), their
    distances to the next record point, and per start the map landing
    closest (the first minimum, so ties go to the lowest index). Returns the
    distances d(cur_i, x_i) and the n-1 map indices taken, one row per start."""
    _check_horizon(rec, n)
    kind = ifs.space
    xs = rec.raw(kind)
    cur = as_batch(kind, starts, "start point")
    cols = np.arange(len(starts))
    ds = np.empty((len(starts), n))  # rows contiguous: per-start reductions match 1-D ones
    lams = np.empty((len(starts), n - 1), dtype=np.intp)
    ds[:, 0] = kind.dists(cur, leafwise(lambda a: a[0], xs))
    images = ifs.raw_images
    for i in range(1, n):
        imgs = images(cur)
        gaps = kind.dists(imgs, leafwise(lambda a: a[i], xs))
        pick = gaps.argmin(axis=0)
        cur = leafwise(lambda a: a[pick, cols], imgs)
        ds[:, i] = gaps[pick, cols]
        lams[:, i - 1] = pick
    return ds, lams


def shadow_verify(
    ifs: IFSSpec,
    rec: PseudoOrbitRecord,
    z: Point,
    sigma: SelectorSequence,
    n: int,
    tol_avg: float = 1e-2,
    tol_sup: float = math.inf,
) -> ShadowReport:
    """Track the record from start z under selector sigma for n steps,
    measuring d_i = d(F_{sigma_i}(z), x_i). The 0-step composition is the
    identity, so d_0 = d(z, x_0)."""
    if n < 1:
        raise DomainError("horizon must be >= 1")
    ds = _track(ifs, rec, z, n, sigma)
    return _finish_report(z, sigma, ds, None, tol_avg, tol_sup)


def contracting_shadow_bound(beta: float, m0: float, alphas: Series, n: int) -> float:
    """Averaged tracking bound for a contracting family:
    (1/n) * (1/(1-beta)) * (m0 + sum of the first n-1 step errors)."""
    if not 0 < beta < 1:
        raise DomainError("beta must lie in (0, 1)")
    if not 0 <= m0 < math.inf:  # also rejects nan
        raise DomainError(f"initial gap must be finite and nonnegative, got {m0}")
    if n < 1:
        raise DomainError("horizon must be >= 1")
    return (m0 + float(alphas.values[: max(n - 1, 0)].sum())) / ((1.0 - beta) * n)


def contracting_shadow(
    ifs: IFSSpec,
    rec: PseudoOrbitRecord,
    y0: Optional[Point] = None,
    n: Optional[int] = None,
    tol_avg: float = 1e-2,
    validate: bool = True,
) -> ShadowReport:
    """Shadow with the record's own selector from an arbitrary start, over
    the first n record points (1 <= n <= len(rec.points), default rec.steps).

    Requires a claimed contraction ratio; when `validate` is set, a ratio
    estimate from 1000 sampled pairs must not exceed the claim. After the
    walk, each measured step error is checked against the inductive bound
        d_i <= b_i,  b_0 = d(y0, x_0),  b_{i+1} = alpha_i + beta*b_i
    (that is, alpha_{i-1} + beta*alpha_{i-2} + ... + beta^i*b_0) with slack
    1e-9. A violation falsifies the claimed ratio and raises a
    ContractionError naming the first violating step.
    """
    beta = ifs.claimed_contraction
    if beta is None:
        raise ContractionError("IFS carries no claimed contraction ratio")
    if validate:
        est = estimate_contraction_ratio(ifs, _VALIDATE_PAIRS, seed=0)
        if est > beta + 1e-9:
            raise ContractionError(f"sampled ratio {est} exceeds claimed {beta}")
    if y0 is None:
        y0 = rec.points[0]
    if n is None:
        n = rec.steps
    ds = _track(ifs, rec, y0, n, rec.selector)
    bounds, _ = affine_orbit(float(ds[0]), np.full(n - 1, float(beta)), rec.errors.values[: n - 1])
    over = np.flatnonzero(ds > bounds + 1e-9)
    if len(over):
        i = int(over[0])
        raise ContractionError(
            f"step {i}: tracking error {float(ds[i])} exceeds inductive bound {float(bounds[i])}"
        )
    bound = contracting_shadow_bound(beta, float(ds[0]), rec.errors, n)
    return _finish_report(y0, rec.selector, ds, bound, tol_avg, math.inf)


def _best_start(ifs, rec, initial_grid, n, score, tol_avg, tol_sup) -> ShadowReport:
    """Report of the greedy track with the lowest `score` of its distances
    over the start grid (the first start wins ties)."""
    starts = list(initial_grid)
    if not starts:
        raise DomainError("initial grid must be nonempty")
    ds, lams = _greedy_tracks(ifs, rec, starts, n)
    best = int(np.argmin(score(ds, axis=1)))
    return _finish_report(starts[best], selector_explicit(lams[best].tolist(), ifs.nmaps),
                          ds[best].copy(), None, tol_avg, tol_sup)


def greedy_shadow_search(
    ifs: IFSSpec,
    rec: PseudoOrbitRecord,
    initial_grid: Sequence[Point],
    n: int,
    tol_avg: float = 1e-2,
) -> ShadowReport:
    """Best greedy candidate over a start grid, ranked by final Cesàro
    average (first grid point wins ties). Adding starts can only lower the
    result; a finer grid need not contain a coarser one's points."""
    return _best_start(ifs, rec, initial_grid, n, np.mean, tol_avg, math.inf)


@dataclass(frozen=True, eq=False)
class FiniteShadowingResult:
    found: bool
    sup_achieved: float
    report: ShadowReport


def finite_shadowing_check(
    ifs: IFSSpec,
    rec: PseudoOrbitRecord,
    epsilon: float,
    initial_grid: Sequence[Point],
    n: int,
) -> FiniteShadowingResult:
    """Greedy certifier for sup-norm shadowing at tolerance epsilon.

    A positive answer carries a witness orbit; a negative answer only means
    the grid search found nothing and reports the infimum achieved.
    """
    if not epsilon > 0:
        raise DomainError("epsilon must be positive")
    report = _best_start(ifs, rec, initial_grid, n, np.max, 1e-2, epsilon)
    return FiniteShadowingResult(report.verdict_sup, report.sup_error, report)


def report_to_json(r: ShadowReport) -> dict:
    return {
        "candidate": point_to_json(r.candidate),
        "selector": {"entries": list(r.selector.entries), "generator": r.selector.generator},
        "sup_error": r.sup_error,
        "final_average": r.final_average,
        "bound": r.bound,
        "verdict_avg": r.verdict_avg,
        "verdict_sup": r.verdict_sup,
        "tol_avg": r.tol_avg,
        "tol_sup": None if math.isinf(r.tol_sup) else r.tol_sup,
        "cesaro_curve": [float(v) for v in r.cesaro_curve.values],
    }

