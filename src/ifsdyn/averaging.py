"""Cesàro averages, index-set densities, and the density-zero decomposition
of a Cesàro-null bounded sequence (both directions, at finite horizon)."""

from __future__ import annotations

import csv
from bisect import bisect_left
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Optional

import numpy as np

from .errors import DomainError


@dataclass(frozen=True, eq=False)
class Series:
    """Finite sequence of nonnegative reals with an optional declared bound."""

    values: np.ndarray
    bound: Optional[float] = None

    @property
    def horizon(self) -> int:
        return len(self.values)

    @property
    def effective_bound(self) -> float:
        if self.bound is not None:
            return self.bound
        return float(self.values.max()) if len(self.values) else 0.0


def series(values, bound: Optional[float] = None) -> Series:
    arr = np.asarray(values, dtype=float)
    if arr.ndim != 1:
        raise DomainError("series values must be one-dimensional")
    if not np.isfinite(arr).all():
        raise DomainError("series values must be finite")
    if len(arr) and float(arr.min()) < 0:
        raise DomainError("series values must be nonnegative")
    if bound is not None and not 0 <= bound < np.inf:  # also rejects nan
        raise DomainError(f"series bound must be finite and nonnegative, got {bound}")
    if bound is not None and len(arr) and float(arr.max()) > bound + 1e-12:
        raise DomainError(f"series exceeds declared bound {bound}")
    arr = arr.copy()
    arr.setflags(write=False)
    return Series(arr, bound)


def harmonic_series(n: int) -> Series:
    """a_i = 1/(i+1)."""
    return series(1.0 / np.arange(1, n + 1), bound=1.0)


def constant_series(n: int, c: float) -> Series:
    return series(np.full(n, float(c)), bound=max(c, 0.0) or None)


def cesaro_average(s: Series, n: int) -> float:
    """(1/n) * sum of the first n values."""
    if not 1 <= n <= s.horizon:
        raise DomainError(f"prefix length {n} outside [1, {s.horizon}]")
    with np.errstate(over="ignore"):
        avg = float(s.values[:n].sum() / n)
    # a sum that overflows, or meets a non-finite value, stays non-finite
    if not np.isfinite(avg):
        raise DomainError("series values must be finite")
    return avg


def running_average_curve(s: Series) -> Series:
    """Curve c_n = cesaro_average(s, n) for n = 1..horizon."""
    if s.horizon < 1:
        raise DomainError("empty series has no average curve")
    with np.errstate(over="ignore"):
        curve = np.cumsum(s.values) / np.arange(1, s.horizon + 1)
    if not np.isfinite(curve[-1]):  # as in cesaro_average
        raise DomainError("series values must be finite")
    curve.setflags(write=False)
    return Series(curve)


@dataclass(frozen=True)
class IndexSet:
    """Strictly increasing nonnegative integers below a horizon."""

    indices: tuple[int, ...]
    horizon: int

    def __post_init__(self):
        if any(b <= a for a, b in zip(self.indices, self.indices[1:])):
            raise DomainError("indices must be strictly increasing")
        if self.indices and (self.indices[0] < 0 or self.indices[-1] >= self.horizon):
            raise DomainError("indices must lie in [0, horizon)")

    def __contains__(self, i: int) -> bool:
        pos = bisect_left(self.indices, i)
        return pos < len(self.indices) and self.indices[pos] == i

    def __len__(self) -> int:
        return len(self.indices)


def index_set(indices: Iterable[int], horizon: int) -> IndexSet:
    return IndexSet(tuple(sorted(set(int(i) for i in indices))), horizon)


def density(j: IndexSet, n: int) -> float:
    """|J intersect [0, n)| / n."""
    if n < 1:
        raise DomainError("density prefix must be >= 1")
    return bisect_left(j.indices, n) / n


def block_saturation(j: IndexSet, k: int) -> IndexSet:
    """Union of all length-k aligned blocks that meet J, clipped to the
    horizon. Saturation multiplies density by at most k (plus k/horizon)."""
    if k < 1:
        raise DomainError("block size must be >= 1")
    blocks = sorted({i // k for i in j.indices})
    out = []
    for b in blocks:
        out.extend(range(b * k, min((b + 1) * k, j.horizon)))
    return IndexSet(tuple(out), j.horizon)


@dataclass(frozen=True)
class LevelCut:
    """One threshold level of the decomposition: indices from `start` onward
    are marked when they exceed `theta`."""

    k: int
    theta: float
    start: int


@dataclass(frozen=True)
class DensityDecomposition:
    index_set: IndexSet
    no_decay: bool
    levels: tuple[LevelCut, ...]
    tail_max: float
    tail_threshold: float


def _level_start(a: np.ndarray, theta: float) -> int:
    """Smallest m such that in every prefix of `a` longer than m the share of
    values above theta (a power of two) stays strictly below theta. Between
    the s-th and the next marked index the count is s, so a prefix there
    reaches the share when its length is at most s/theta (exact in float64)."""
    pos = np.flatnonzero(a > theta)
    ends = np.minimum(np.append(pos[1:], len(a)), np.arange(1, len(pos) + 1) / theta)
    hit = ends[ends > pos]
    return int(hit.max()) if len(hit) else 0


_DEEPEST_LEVEL = 60  # the last threshold is 2^-60


def _off_tail_max(values: np.ndarray, mask: np.ndarray) -> float:
    """Maximum of `values` over the unmarked indices of the second half."""
    half = len(values) // 2
    off_tail = values[half:][~mask[half:]]
    return float(off_tail.max()) if len(off_tail) else 0.0


def extract_null_density_set(s: Series) -> DensityDecomposition:
    """Split off a small-density index set J so that the series is small
    outside J.

    Level construction: for k = 1, ..., 60 with thresholds theta_k = 2^-k,
    find the first position after which the running fraction of values above
    theta_k stays below theta_k; from there until the next level starts, mark
    exactly the values above theta_k. If the overall average never falls
    below half the bound, the whole prefix is returned with `no_decay` set.
    """
    a = s.values
    horizon = s.horizon
    if horizon < 1:
        raise DomainError("cannot decompose an empty series")
    bound = s.effective_bound
    final_avg = cesaro_average(s, horizon)
    if bound > 0 and final_avg >= bound / 2:
        return DensityDecomposition(
            index_set=IndexSet(tuple(range(horizon)), horizon),
            no_decay=True,
            levels=(),
            tail_max=0.0,
            tail_threshold=bound,
        )

    levels: list[LevelCut] = []
    prev_start = 0
    for k in range(1, _DEEPEST_LEVEL + 1):
        theta = 2.0 ** -k
        start = max(_level_start(a, theta), prev_start)
        if start >= horizon:
            break
        levels.append(LevelCut(k, theta, start))
        prev_start = start

    # each level marks the values above its theta up to the next level's start; the
    # tail threshold is that of the first level whose segment ends past the half
    mask = np.zeros(horizon, dtype=bool)
    tail_threshold = bound
    if levels:
        starts, thetas = [cut.start for cut in levels], [cut.theta for cut in levels]
        mask[starts[0]:] = a[starts[0]:] > np.repeat(thetas, np.diff(starts + [horizon]))
        tail_threshold = thetas[max(np.searchsorted(starts, horizon // 2, "right") - 1, 0)]
    return DensityDecomposition(
        index_set=IndexSet(tuple(int(i) for i in np.nonzero(mask)[0]), horizon),
        no_decay=False,
        levels=tuple(levels),
        tail_max=_off_tail_max(a, mask),
        tail_threshold=tail_threshold,
    )


@dataclass(frozen=True)
class DensityCheck:
    cesaro: float
    density: float
    density_term: float
    tail: float
    verdict: bool


def verify_null_density_implies_average(s: Series, j: IndexSet, tol: float) -> DensityCheck:
    """Check the decomposition bound at full horizon. The verdict holds when
    the Cesàro average is at most density(J)*B + tail + tol and the off-J
    tail (the maximum of the series off J over the second half) is at most
    tol."""
    if np.isnan(tol):
        raise DomainError("tol must be a number, got nan")
    horizon = s.horizon
    if j.horizon != horizon:
        raise DomainError("index set horizon does not match the series")
    avg = cesaro_average(s, horizon)
    dens = density(j, horizon)
    dens_term = dens * s.effective_bound
    mask = np.zeros(horizon, dtype=bool)
    if j.indices:
        mask[np.asarray(j.indices)] = True
    tail = _off_tail_max(s.values, mask)
    verdict = avg <= dens_term + tail + tol and tail <= tol
    return DensityCheck(avg, dens, dens_term, tail, verdict)


# --- exports ----------------------------------------------------------------

def series_from_csv(path) -> Series:
    """The second field of each row below the header, skipping `#` and blank
    lines; a row of fewer than two fields raises a DomainError naming its line."""
    with Path(path).open() as fh:
        lines = [(i, line) for i, line in enumerate(fh, 1) if line.strip() and not line.startswith("#")]
    values = []
    for (i, _), row in zip(lines[1:], csv.reader(line for _, line in lines[1:])):
        if len(row) < 2:
            raise DomainError(f"{path}: line {i} has {len(row)} field(s), need 2")
        values.append(float(row[1]))
    return series(values)

