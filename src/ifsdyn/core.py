"""IFS definitions, selector sequences, orbits, and the three constructions
(k-fold power, product, conjugacy transport).

Maps are closed-form evaluators described by a small form catalog so that
systems serialize to JSON. The `compose` and `product` forms nest other map
definitions; `conjugate` wraps an arbitrary callable and does not serialize.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import Callable, Optional, Sequence

import numpy as np

from .averaging import Series, series
from .errors import (
    BranchError,
    ConjugacyError,
    DomainError,
    GuardError,
    IFSError,
    LengthError,
)
from .spaces import (
    Circle,
    FiniteDiscrete,
    Interval,
    Point,
    Product,
    RawPoints,
    SpaceKind,
    SymbolSpace,
    as_batch,
    as_float,
    as_int,
    diameter,
    distance,
    json_key,
    json_list,
    json_str,
    leafwise,
    sample_batch,
    sample_point,
    space_from_json,
    space_to_json,
    unbatch,
)

POWER_GUARD = 4096

# spot checks of a family or a conjugacy draw this many points from seed 0
_SPOT_SAMPLES = 32


@dataclass(frozen=True)
class MapDef:
    """One continuous self-map, given by a named closed form.

    Forms:
      identity                params ()
      affine                  params (a, b): t -> a*t + b on an interval
      twopiece_quadratic      params (c_low, c_high):
                                t -> t + c_low*(1/2 - t)*t        on [0, 1/2]
                                t -> t + c_high*(1 - t)*(t - 1/2) on [1/2, 1]
                              (interval [0,1] or circle coordinates)
      prepend                 params (bit,): push a bit at index 0, drop the
                              last bit of the truncated sequence
      permutation             params (image tuple) on a finite space
      compose                 params: MapDefs applied first-to-last
      product                 params (left MapDef, right MapDef)
      conjugate               fn-backed, from conjugate_ifs: params (base MapDef, base space)
    """

    name: str
    form: str
    params: tuple = ()
    fn: Optional[Callable[[Point], Point]] = None  # compared by identity


def _twopiece(c_low: float, c_high: float, t: float) -> float:
    if t <= 0.5:
        return t + c_low * (0.5 - t) * t
    return t + c_high * (1.0 - t) * (t - 0.5)


def _root(c: float, v: float) -> float:
    """The t in [0, 1/2] with t + c*(1/2 - t)*t = v, for v in [0, 1/2] and
    |c| <= 2: the stable root 2v / (B + sqrt(D)), B = 1 + c/2, D = B^2 - 4cv.
    Near c = 2 and v = 1/2, D cancels to rounding, so D <= 0 counts as 0 and
    t is held at 1/2; at c = -2 and v = 0, B = D = 0 and t = 0."""
    b = 1.0 + 0.5 * c
    d = b * b - 4.0 * c * v
    t = 2.0 * v / (b + math.sqrt(d)) if d > 0 else 2.0 * v / b if v else 0.0
    return t if t < 0.5 else 0.5


def _raising(message: str, error: type = DomainError) -> Callable:
    def step(_):
        raise error(message)

    return step


def _identity(x):
    return x


def _chain(steps: Sequence[Callable]) -> Callable:
    def composed(x):
        for step in steps:
            x = step(x)
        return x

    return composed


_FORMS = ("identity", "affine", "twopiece_quadratic", "prepend", "permutation", "compose",
          "product", "conjugate")


def _unsupported(m: MapDef, kind: SpaceKind) -> Optional[str]:
    """Why the form of `m` cannot act on `kind`, or None when it can."""
    form = m.form
    if form == "affine" and not isinstance(kind, Interval):
        return "affine maps act on intervals"
    if form == "twopiece_quadratic":
        if not isinstance(kind, (Interval, Circle)):
            return "twopiece_quadratic acts on [0,1] or the circle"
        if isinstance(kind, Interval) and (kind.lo, kind.hi) != (0.0, 1.0):
            return "twopiece_quadratic needs the unit interval"
    if form == "prepend":
        if not isinstance(kind, SymbolSpace):
            return "prepend acts on symbol spaces"
        if m.params not in ((0,), (1,)):
            return "prepend needs a bit, 0 or 1"
    if form == "permutation" and not isinstance(kind, FiniteDiscrete):
        return "permutations act on finite spaces"
    if form == "permutation" and len(m.params) != kind.n:
        return f"a permutation of {kind.n} points needs {kind.n} images, got {len(m.params)}"
    if form == "product" and not isinstance(kind, Product):
        return "product maps act on product spaces"
    if form not in _FORMS:
        return f"unknown map form {form!r}"
    return None


def _compile_map(m: MapDef, kind: SpaceKind, inverse: bool = False) -> Callable:
    """The raw step of `m` on `kind`: a raw coordinate in, the canonical raw
    coordinate of its image out (see `spaces`); with `inverse`, the raw
    inverse: the raw coordinate of the preimage out, or a BranchError where
    `m` has none. This is the only place the scalar map formulas are
    written. A form that cannot act on `kind` compiles, either way, to a
    step that raises the DomainError applying it would raise. The inverses
    take the constants only they use as default arguments, since each name
    a nested function captures costs every call here a cell, and
    `power_ifs` compiles steps by the thousand."""
    form, why = m.form, _unsupported(m, kind)
    if why is not None:
        return _raising(why)
    if form == "identity":
        return _identity
    if form == "affine":
        (a, b), canon = m.params, kind.canon
        if not inverse:
            return lambda t: canon(a * t + b)
        if a != 0:
            def affine(v, lo=kind.lo - 1e-12, hi=kind.hi + 1e-12):
                if not lo <= (t := (v - b) / a) <= hi:
                    raise BranchError(f"preimage {t} of {v} leaves the interval")
                return canon(t)

            return affine
    if form == "twopiece_quadratic":
        (c_low, c_high), canon = m.params, kind.canon
        if not inverse:
            return lambda t: canon(_twopiece(c_low, c_high, t))
        if all(abs(c) <= 2 for c in m.params):  # monotone pieces
            # v < 1/2, not <=: then v = 1/2 goes to 1/2 + root(c_high, 0) = 1/2 on either side
            return lambda v: canon(_root(c_low, v) if v < 0.5 else 0.5 + _root(c_high, v - 0.5))
    if form == "prepend":
        (bit,), last = m.params, kind.depth - 1
        if not inverse:
            top = bit << last
            return lambda x: top | (x >> 1)

        def unprepend(x, bit=bit, last=last, mask=(1 << kind.depth) - 1):
            if x >> last != bit:
                raise BranchError(f"{x >> last}... is not in the image of prepend{bit}")
            return (x << 1) & mask

        return unprepend
    if form == "permutation":
        if inverse:
            def unpermute(i, image=m.params):
                if i not in image:
                    raise BranchError(f"{i} is not in the image of permutation {m.name}")
                return image.index(i)

            return unpermute
        image, canon = m.params, kind.canon
        return lambda i: canon(image[i])
    if form == "compose":
        parts = reversed(m.params) if inverse else m.params
        return _chain([_compile_map(sub, kind, inverse) for sub in parts])
    if form == "product":
        ml, mr = m.params
        left, right = _compile_map(ml, kind.left, inverse), _compile_map(mr, kind.right, inverse)
        return lambda x: (left(x[0]), right(x[1]))
    if inverse:  # zero slopes, twopiece with |c| > 2, conjugates
        return _raising(f"{form} map {m.name} has no inverse", BranchError)
    fn = m.fn  # conjugate

    def transported(x):
        y = fn(kind.decode(x))
        if y.kind is not kind and y.kind != kind:
            raise DomainError(f"map {m.name} leaves the space")
        return kind.encode(y)

    return transported


def _onto(m: MapDef, kind: SpaceKind) -> bool:
    """Whether `m` maps `kind` onto itself, read from its form. Identity and
    twopiece maps fix both ends of [0, 1] (on the circle they have degree one);
    the compose rule is exact on finite and symbol spaces, sufficient elsewhere."""
    form, params = m.form, m.params
    if form == "prepend" or _unsupported(m, kind) is not None:
        return False
    if form == "permutation":  # a bijection
        return set(params) == set(range(kind.n))
    if form == "affine":  # the canonical endpoint images are the ends
        return {_compile_map(m, kind)(t) for t in (kind.lo, kind.hi)} == {kind.lo, kind.hi}
    if form == "compose":
        return all(_onto(sub, kind) for sub in params)
    if form == "product":
        return _onto(params[0], kind.left) and _onto(params[1], kind.right)
    if form == "conjugate":  # as its base map on its base space
        return len(params) == 2 and _onto(*params)
    return True  # identity, twopiece_quadratic


def lane_shape(slope: float, n: int) -> Optional[tuple[int, int]]:
    """Burn-in W (steps that shrink a gap by 2^-80) and lane length L of
    `lane_scan` at slopes |a| <= slope, or None when lanes do not pay:
    slope >= 1 or nan, or n < 40*(W + L)."""
    if not slope < 1:
        return None
    burn = math.ceil(80 / -math.log2(slope)) if slope else 1
    lane = max(256, 2 * burn)
    return (burn, lane) if n >= 40 * (burn + lane) else None


def lane_scan(x0: float, a: np.ndarray, b: np.ndarray, shape: tuple[int, int], d: Optional[np.ndarray] = None,
              lo: float = -math.inf, hi: float = math.inf):
    """The recurrence of `affine_orbit` on per-step a, b (and d), n = len(a),
    on lanes of L steps (`shape` = (W, L)) stepping as numpy rows with the
    float operations of its scalar loop, in its order.

    Each lane starts W steps early from x0, lane 0 at x0 itself, and all
    walk once. Returns the orbit x_0..x_n, the images (None without d) and
    the count p of leading exact steps: those before the first lane whose
    start lacks the bits of the previous lane's end and before the first
    image off [lo, hi] (or nan), where the scalar loop must take over."""
    (burn, lane), n = shape, len(a)
    at = np.clip(np.arange(-(-n // lane)) * lane + np.arange(-burn, lane)[:, None], 0, n - 1)
    if d is not None:  # x + -0.0 is x, so a zero shift keeps the image, as `if s` does
        d = np.where(d == 0, -0.0, d)
    a, b, d = (None if v is None else v[at] for v in (a, b, d))
    xs, below, cur = np.empty((lane, at.shape[1])), np.empty(at.shape[1], dtype=bool), np.full(at.shape[1], x0)
    bs = xs if d is None else np.empty(xs.shape)
    for r in range(burn + lane):  # burn-in row r goes to row r - burn, which lane row r + lane overwrites
        if r == burn:
            cur[0] = x0
            starts = cur.copy()
        cur = np.multiply(a[r], cur, out=bs[r - burn])
        cur += b[r]
        if d is not None:
            cur = np.add(cur, d[r], out=xs[r - burn])
            np.copyto(cur, lo, where=np.less(cur, lo, out=below))
            np.copyto(cur, hi, where=np.greater(cur, hi, out=below))
    miss = np.flatnonzero(starts[1:].view(np.int64) != xs[-1, :-1].view(np.int64))
    p = min(n, (int(miss[0]) + 1) * lane) if len(miss) else n
    images = bs.T.ravel()[:n]
    off = np.flatnonzero(~((lo <= images[:p]) & (images[:p] <= hi)))  # nan too
    orbit = np.concatenate(([x0], images if d is None else xs.T.ravel()[:n]))
    return orbit, None if d is None else images, int(off[0]) if len(off) else p


def affine_orbit(x0: float, a: np.ndarray, b: np.ndarray, d: Optional[np.ndarray] = None,
                 lo: float = -math.inf, hi: float = math.inf, canon: Callable = float,
                 lams: Optional[np.ndarray] = None):
    """x_0..x_n of x_{i+1} = a_i*x_i + b_i from the float x0, and the images
    before the shifts `d` (None without): a_i, b_i are a[i], b[i], or
    a[lams[i]], b[lams[i]] of per-map tables. An image off [lo, hi] (or nan)
    becomes `canon(image)`; a nonzero d_i shifts it, clamped to [lo, hi] as
    `lo if v < lo else hi if v > hi else v`. Lanes (`lane_scan`) walk what
    `lane_shape` allows, the scalar loop the rest from the first inexact step."""
    n, p = len(a if lams is None else lams), 0
    head, heads = np.array([x0]), np.empty(0)
    if shape := lane_shape(max(a.max(initial=0.0), -a.min(initial=0.0)), n):  # max|a|, nan if any is
        steps = slice(None) if lams is None else lams  # gathers go in as temporaries lane_scan frees
        head, heads, p = lane_scan(x0, a[steps], b[steps], shape, d, lo, hi)
        x0, head, heads = float(head[p]), head[: p + 1], None if d is None else heads[:p]
    # the loop indexes Python floats: the rest of the per-step values, or the per-map tables
    a, b, at = (a[p:], b[p:], range(n - p)) if lams is None else (a, b, lams[p:].tolist())
    a, b = a.tolist(), b.tolist()
    t, out, bases = x0, [], []
    for i, s in zip(at, [0.0] * (n - p) if d is None else d[p:].tolist()):
        if not lo <= (base := a[i] * t + b[i]) <= hi:  # nan too
            base = canon(base)
        t = (lo if (t := base + s) < lo else hi if t > hi else t) if s else base
        bases.append(base)
        out.append(t)
    return np.concatenate((head, out)), None if d is None else np.concatenate((heads, bases))


def _compile_family(maps: Sequence[MapDef], kind: SpaceKind, steps: Sequence[Callable]) -> tuple[Callable, Callable]:
    """`(images, walk)`, the array twins of `_compile_map`'s steps for a whole
    family, from one fast-path guard and one parameter table per form.

    `images(x, lams)` gives at [..., s] the canonical image of x[s], for a
    batch x of shape (S,) (see `spaces`), under map lams[..., s] of an index
    array broadcast against x; one such array per leaf on products. Numeric
    forms gather their parameters by `lams`, one array evaluation per call;
    product families recurse into each side; the others call their scalar
    steps once per broadcast (map, point) pair, map-major, as a map-by-map
    loop would.

    `walk(raw, lams, move=None, params=())` gives the raw orbit of `raw`
    under the map indices `lams` (an intp array or ints), start included, and
    the images before displacement (None without `move`), both as batches;
    `move(base, p)` displaces step i's image by the i-th raw value `p` of the
    batch `params`. Affine families walk a float start on `affine_orbit` with
    the images' tables and the displacement of `pseudo_orbits._moves`; prepend
    families scan uint64 words, where step i is x_{i+1} = (x_i >> 1) ^ c_i,
    c_i = top[lam_i] ^ mask_i (the map's top bit and the flip mask of
    `_moves`, 0 without a move). Others, and affine walks from a start that
    is no float, call `steps` on Python ints."""

    def generic(raw, lams, move=None, params=()):
        out, bases, lams = [raw], [], np.asarray(lams, dtype=np.intp).tolist()
        if move is None:
            for lam in lams:
                out.append(raw := steps[lam](raw))
            return kind.batch(out), None
        for lam, p in zip(lams, unbatch(params)):
            bases.append(base := steps[lam](raw))
            out.append(raw := move(base, p))
        return kind.batch(out), kind.batch(bases)

    form = maps[0].form
    if form in ("identity", "compose", "conjugate") or any(
            m.form != form or len(m.params) != len(maps[0].params) or _unsupported(m, kind) for m in maps):

        def pairwise(x, lams):
            raws = unbatch(x)
            lams, at = np.broadcast_arrays(lams, np.arange(len(raws)))
            out = kind.batch([steps[lam](raws[i]) for lam, i in zip(lams.ravel().tolist(), at.ravel().tolist())])
            return leafwise(lambda a: a.reshape(lams.shape), out)

        return pairwise, generic
    if form == "product":
        sides = zip(zip(*(m.params for m in maps)), (kind.left, kind.right))
        left, right = (_compile_family(ms, k, [_compile_map(m, k) for m in ms])[0] for ms, k in sides)
        return (lambda x, lams: (left(x[0], lams), right(x[1], lams))), generic
    if form == "prepend":
        tops, depth = kind.batch([m.params[0] << (kind.depth - 1) for m in maps]), kind.depth

        def prepend_scan(x, lams, move=None, masks=()):
            s = tops[np.asarray(lams, dtype=np.intp)]
            if move is not None:  # as long as the shorter of the two, as zip is
                masks = masks[: len(s)]
                s = s[: len(masks)] ^ masks
            # x_{i+1} is the XOR of c_{i-j} >> j over j <= i and of x_0 >> (i+1);
            # terms shifted by depth or more vanish. Each pass doubles the j covered.
            k = 1
            while k < min(depth, len(s)):
                s[k:] ^= s[:-k] >> np.uint64(k)
                k *= 2
            x = np.uint64(x)
            head = min(depth - 1, len(s))
            s[:head] ^= x >> np.arange(1, head + 1, dtype=np.uint64)
            return np.concatenate(([x], s)), None if move is None else s ^ masks

        return (lambda x, lams: tops[lams] | (x >> 1)), prepend_scan
    if form == "permutation":
        table = np.array([m.params for m in maps], dtype=np.int64)
        return (lambda i, lams: kind.canon_batch(table[lams, i])), generic
    # affine (a, b) or twopiece (c_low, c_high): one float array per
    # parameter, gathered by lams and broadcast against (S,)
    p, q = (np.array(c, dtype=float) for c in zip(*(m.params for m in maps)))
    if form == "twopiece_quadratic":
        return (lambda t, lams: kind.canon_batch(np.where(t <= 0.5, t + p[lams] * (0.5 - t) * t,
                                                          t + q[lams] * (1.0 - t) * (t - 0.5)))), generic
    lo, hi, canon = kind.lo, kind.hi, kind.canon

    def affine_walk(t, lams, move=None, shifts=()):
        if type(t) is not float:
            return generic(t, lams, move, shifts)
        n = len(lams) if move is None else min(len(lams), len(shifts))
        return affine_orbit(t, p, q, None if move is None else shifts[:n], lo, hi, canon,
                            np.asarray(lams[:n], dtype=np.intp))

    # int or float parameters below 1e308 are exact in a float table, and a*t + b
    # on them rounds as on the Python values
    exact = all(type(c) in (int, float) and abs(c) < 1e308 for m in maps for c in m.params)
    return (lambda t, lams: kind.canon_batch(p[lams] * t + q[lams])), affine_walk if exact else generic


def apply_map(m: MapDef, x: Point) -> Point:
    kind = x.kind
    return kind.decode(_compile_map(m, kind)(kind.encode(x)))


def invert_map(m: MapDef, y: Point) -> Point:
    """Preimage of y under an invertible catalog map. Raises BranchError when
    the map is not invertible at y (or not invertible at all)."""
    kind = y.kind
    return kind.decode(_compile_map(m, kind, inverse=True)(kind.encode(y)))


@dataclass(frozen=True)
class IFSSpec:
    """A finite indexed family of continuous self-maps of one space; whether
    each map is onto is read from its form (`surjective_flags`)."""

    space: SpaceKind
    maps: tuple[MapDef, ...]
    claimed_contraction: Optional[float] = None
    name: str = ""

    def __post_init__(self):
        if not self.maps:
            raise DomainError("an IFS needs at least one map")
        if self.claimed_contraction is not None and not 0 < self.claimed_contraction < 1:
            raise DomainError("claimed contraction ratio must lie in (0,1)")

    @property
    def nmaps(self) -> int:
        return len(self.maps)

    @property
    def surjective_flags(self) -> tuple[bool, ...]:
        """Whether each map is onto the space, computed from its form (`_onto`)."""
        return tuple(_onto(m, self.space) for m in self.maps)

    @cached_property
    def raw_steps(self) -> tuple[Callable, ...]:
        """The raw step of each map on the space (`_compile_map`)."""
        return tuple(_compile_map(m, self.space) for m in self.maps)

    @cached_property
    def _family(self) -> tuple[Callable, Callable]:
        return _compile_family(self.maps, self.space, self.raw_steps)

    @cached_property
    def raw_images(self) -> Callable:
        """`raw_images(x, lams)`: images of a batch of raw coordinates under
        the maps of `lams`, an index array or one index broadcast against the
        batch; under every map, shape (M, S) per leaf, without `lams`."""
        images, every = self._family[0], np.arange(self.nmaps)[:, None]
        return lambda x, lams=every: images(x, np.asarray(lams, dtype=np.intp))

    @property
    def raw_walk(self) -> Callable:
        """The selector walk on raw coordinates, with an optional displacement (`_compile_family`)."""
        return self._family[1]

    @cached_property
    def _powers(self) -> dict:
        """k -> power_ifs(self, k), so each power family is built and compiled once."""
        return {}

    def __getstate__(self) -> dict:
        # the compiled steps are closures; an unpickled spec compiles its own
        return {k: v for k, v in self.__dict__.items()
                if k not in ("raw_steps", "_family", "raw_images", "_powers")}


@dataclass(frozen=True)
class SelectorSequence:
    """Finite realization of a map-index choice sequence."""

    entries: tuple[int, ...]
    generator: str = "explicit"

    def __len__(self) -> int:
        return len(self.entries)

    def entry(self, i: int) -> int:
        if i >= len(self.entries):
            raise LengthError(
                f"selector exhausted: entry {i} requested, {len(self.entries)} realized"
            )
        return self.entries[i]

    def shift(self, n: int) -> "SelectorSequence":
        if n > len(self.entries):
            raise LengthError("shift past end of selector")
        return SelectorSequence(self.entries[n:], f"{self.generator}>>{n}")

    @cached_property
    def entry_range(self) -> tuple[int, int]:
        """The least and the greatest entry, (0, -1) when there are none."""
        return (min(self.entries), max(self.entries)) if self.entries else (0, -1)

    @cached_property
    def indices(self) -> np.ndarray:
        """The entries as a read-only intp array; an entry no intp holds reads -1, no map's index."""
        (low, high), info = self.entry_range, np.iinfo(np.intp)
        fits = info.min <= low and high <= info.max
        out = np.fromiter(self.entries if fits else (e if info.min <= e <= info.max else -1 for e in self.entries),
                          dtype=np.intp, count=len(self.entries))
        out.flags.writeable = False
        return out

    def __getstate__(self) -> dict:
        # pickle the fields alone, as before the range and the array were cached
        return {k: v for k, v in self.__dict__.items() if k not in ("entry_range", "indices")}


def _check_entries(entries: Sequence[int], nmaps: Optional[int]) -> tuple[int, ...]:
    entries = tuple(entries)
    out = tuple(map(int, entries))
    if out != entries:  # some entry is no int: refuse fractions as `as_int` does, entry by entry
        out = tuple(as_int(e, "selector entry") for e in entries)
    if out and min(out) < 0:
        raise DomainError("selector entries must be nonnegative map indices")
    if out and nmaps is not None and max(out) >= nmaps:
        raise DomainError(f"selector entry out of range for {nmaps} maps")
    return out


def selector_explicit(entries: Sequence[int], nmaps: Optional[int] = None) -> SelectorSequence:
    return SelectorSequence(_check_entries(entries, nmaps), "explicit")


def selector_periodic(pattern: Sequence[int], length: int, nmaps: Optional[int] = None) -> SelectorSequence:
    if length < 0:
        raise DomainError(f"selector length must be >= 0, got {length}")
    pat = _check_entries(pattern, nmaps)
    if not pat:
        raise DomainError("periodic selector needs a nonempty pattern")
    reps = -(-length // len(pat))
    label = "".join(map(str, pat))
    if max(pat) >= 10:  # the comma form the CLI parses; a lone index keeps a trailing comma
        label = ",".join(map(str, pat)) + ("," if len(pat) == 1 else "")
    return SelectorSequence((pat * reps)[:length], f"periodic:{label}")


def selector_random(seed: int, length: int, nmaps: int) -> SelectorSequence:
    if length < 0:
        raise DomainError(f"selector length must be >= 0, got {length}")
    rng = np.random.default_rng(seed)
    entries = tuple(rng.integers(0, nmaps, size=length).tolist())
    return SelectorSequence(entries, f"random:{seed}")


@dataclass(frozen=True, eq=False)
class PseudoOrbitRecord:
    """Points, the selector that claims to drive them, and the step errors
    d(f_{sel[i]}(x_i), x_{i+1}), all 0 on a true orbit. `points` is a
    RawPoints view of one batch unless a caller put others there."""

    points: Sequence[Point]
    selector: SelectorSequence
    errors: Series

    @property
    def steps(self) -> int:
        return len(self.points) - 1

    def raw(self, kind: SpaceKind):
        """The points as one batch of `kind`: a view's own, or one encoded now."""
        return as_batch(kind, self.points, "record point")


def apply(ifs: IFSSpec, lam: int, x: Point) -> Point:
    """Evaluate the lam-th map of the family at x."""
    if not 0 <= lam < ifs.nmaps:
        raise DomainError(f"map index {lam} out of range for {ifs.nmaps} maps")
    kind = ifs.space
    if x.kind is not kind and x.kind != kind:
        raise DomainError("point does not belong to the IFS space")
    return kind.decode(ifs.raw_steps[lam](kind.encode(x)))


def step_errors(ifs: IFSSpec, raws, lams: Sequence[int]) -> np.ndarray:
    """d(f_{lams[i]}(x_i), x_{i+1}) for the first len(lams) steps of the batch
    `raws`, in one `raw_images` call; the indices must be in range."""
    n = len(lams)
    images = ifs.raw_images(leafwise(lambda a: a[:n], raws), lams)
    return ifs.space.dists(images, leafwise(lambda a: a[1:n + 1], raws))


def backward_branch(ifs: IFSSpec, lam: int, y: Point, length: int) -> RawPoints:
    """Reverse orbit [y_{-length}, ..., y_{-1}, y] with f_lam(y_{-j}) =
    y_{-j+1}, walked on raw coordinates into a RawPoints view, every step
    re-validated forward to 1e-12 in one batch call."""
    if not 0 <= lam < ifs.nmaps:
        raise DomainError(f"map index {lam} out of range")
    if length < 0:
        raise DomainError("branch length must be nonnegative")
    kind, inverse = ifs.space, _compile_map(ifs.maps[lam], ifs.space, inverse=True)
    raws = unbatch(as_batch(kind, [y], "branch point"))  # [the raw of y]
    for _ in range(length):
        raws.append(inverse(raws[-1]))
    raws = kind.batch(raws[::-1])
    if (step_errors(ifs, raws, [lam] * length) > 1e-12).any():
        raise BranchError("inverse step fails forward re-validation")
    return RawPoints(kind, raws)


def usable_entries(ifs: IFSSpec, selector: SelectorSequence, n: int) -> tuple[np.ndarray, Optional[IFSError]]:
    """The first n selector entries (a slice of `indices`), cut before the
    first map index out of range, and the error a step-by-step loop raises
    where they stop: the DomainError of `apply` for that index, a
    LengthError when the selector runs out, None when all n are usable."""
    lams = selector.indices[:n]
    low, high = selector.entry_range
    if not (low >= 0 and high < ifs.nmaps):  # an entry is out of range; is it among the first n?
        bad = np.flatnonzero((lams < 0) | (lams >= ifs.nmaps))
        if len(bad):
            i = int(bad[0])
            return lams[:i], DomainError(f"map index {selector.entries[i]} out of range for {ifs.nmaps} maps")
    if len(lams) < n:
        return lams, LengthError(f"selector exhausted: entry {len(lams)} requested, {len(lams)} realized")
    return lams, None


def walk(ifs: IFSSpec, selector: SelectorSequence, raw, n: int, move=None, params=()):
    """The one entry to `IFSSpec.raw_walk`: the n-step orbit of the raw
    coordinate `raw`, start included, as one batch, and the images before
    each `move` (None without one). Steps stop at the first selector entry
    that `apply` would reject; its error (an index out of range, or an
    exhausted selector) is raised after them, as a step-by-step loop would."""
    lams, error = usable_entries(ifs, selector, n)
    out = ifs.raw_walk(raw, lams, move, params)
    if error is not None:
        raise error
    return out


def orbit(ifs: IFSSpec, selector: SelectorSequence, x0: Point, n: int) -> PseudoOrbitRecord:
    """Iterate n >= 0 steps under the selector, keeping every point: the
    pseudo-orbit whose n step errors are all 0."""
    kind = ifs.space
    if n < 0:
        raise DomainError(f"step count must be >= 0, got {n}")
    if x0.kind != kind:
        raise DomainError("initial point does not belong to the IFS space")
    raw, _ = walk(ifs, selector, kind.encode(x0), n)
    return PseudoOrbitRecord(RawPoints(kind, raw), selector, series(np.zeros(n), bound=diameter(kind)))


def compose_apply(ifs: IFSSpec, selector: SelectorSequence, n: int, x: Point) -> Point:
    """n-step composition applied to x; the 0-step composition is the identity."""
    return x if n == 0 else orbit(ifs, selector, x, n).points[-1]


def estimate_contraction_ratio(ifs: IFSSpec, sample_pairs: int, seed: int) -> float:
    """Sampled lower bound on the contraction ratio: max over random distinct
    pairs and all maps of d(f(x), f(y)) / d(x, y).

    The points are drawn x_1, y_1, x_2, y_2, ... (`sample_batch`), as pairs
    drawn one at a time would draw them, so estimates with the same seed form
    a running max as `sample_pairs` grows.
    """
    if sample_pairs < 1:
        raise DomainError("sample_pairs must be >= 1")
    kind = ifs.space
    drawn = sample_batch(kind, np.random.default_rng(seed), 2 * sample_pairs)
    xs, ys = (leafwise(lambda v: v[first::2], drawn) for first in (0, 1))
    d = kind.dists(xs, ys)
    # Skip near-degenerate pairs: below this floor the ratio noise
    # ~2^-52/d from rounded map evaluations would exceed the 1e-9
    # slack allowed when checking estimates against a claimed ratio.
    keep = d >= 1e-6
    xs, ys = (ifs.raw_images(leafwise(lambda v: v[keep], side)) for side in (xs, ys))
    return float((kind.dists(xs, ys) / d[keep]).max(initial=0.0))


def word_digits(mu: int, base: int, k: int) -> tuple[int, ...]:
    """Decode a word index into (lambda_0, ..., lambda_{k-1}), lambda_0 being
    the most significant base-`base` digit."""
    digits = []
    for _ in range(k):
        digits.append(mu % base)
        mu //= base
    return tuple(reversed(digits))


def word_index(digits: Sequence, base: int):
    """The index of the word (lambda_0, ..., lambda_{k-1}), lambda_0 being the
    most significant base-`base` digit: an int from int digits, or an array of
    indices from digit columns (equal-length int arrays, lambda_0 first)."""
    mu = 0
    for d in digits:
        mu = mu * base + d
    return mu


def power_ifs(ifs: IFSSpec, k: int) -> IFSSpec:
    """k-fold composition family: one map per length-k word over the index
    set. Word (lambda_0, ..., lambda_{k-1}) composes with lambda_0 applied
    first and is indexed with lambda_0 as the most significant digit. Built
    once per family and k: later calls return the same spec, whose compiled
    maps are then reused."""
    if k < 2:
        raise DomainError("power needs k >= 2")
    if k in ifs._powers:
        return ifs._powers[k]
    count = ifs.nmaps ** k
    if count > POWER_GUARD:
        raise GuardError(f"|maps|^k = {count} exceeds guard {POWER_GUARD}")
    maps = []
    for mu in range(count):
        chain = tuple(ifs.maps[d] for d in word_digits(mu, ifs.nmaps, k))
        name = " o ".join(m.name for m in reversed(chain))
        maps.append(MapDef(name, "compose", chain))
    claimed = None
    if ifs.claimed_contraction is not None:
        claimed = ifs.claimed_contraction ** k
    ifs._powers[k] = IFSSpec(
        space=ifs.space,
        maps=tuple(maps),
        claimed_contraction=claimed,
        name=f"{ifs.name}^{k}" if ifs.name else f"power{k}",
    )
    return ifs._powers[k]


def pair_index(lam: int, gam: int, nleft: int) -> int:
    return lam + nleft * gam


def pair_split(idx: int, nleft: int) -> tuple[int, int]:
    return idx % nleft, idx // nleft


def product_ifs(left: IFSSpec, right: IFSSpec) -> IFSSpec:
    """Componentwise product family on the product space. The combined index
    encodes (lambda, gamma) with lambda least significant."""
    count = left.nmaps * right.nmaps
    if count > POWER_GUARD:
        raise GuardError(f"|maps| = {count} exceeds guard {POWER_GUARD}")
    space = Product(left.space, right.space)
    maps = []
    for idx in range(count):
        lam, gam = pair_split(idx, left.nmaps)
        ml, mr = left.maps[lam], right.maps[gam]
        maps.append(MapDef(f"{ml.name}x{mr.name}", "product", (ml, mr)))
    claimed = None
    if left.claimed_contraction is not None and right.claimed_contraction is not None:
        claimed = max(left.claimed_contraction, right.claimed_contraction)
    return IFSSpec(
        space=space,
        maps=tuple(maps),
        claimed_contraction=claimed,
        name=f"{left.name}x{right.name}",
    )


def conjugate_ifs(ifs: IFSSpec, h: Callable[[Point], Point], h_inv: Callable[[Point], Point],
                  target_space: SpaceKind) -> IFSSpec:
    """Transport the family through a homeomorphism h: each map f becomes
    h o f o h_inv on the target space, with params (f, base space), so it is
    onto when f is. h/h_inv round trips are validated to 1e-9 on 32 random
    samples of both spaces before any map is built."""
    rng, tol = np.random.default_rng(0), 1e-9
    for _ in range(_SPOT_SAMPLES):
        x = sample_point(ifs.space, rng)
        y = sample_point(target_space, rng)
        hx = h(x)
        if hx.kind != target_space:
            raise ConjugacyError("h does not land in the target space")
        if distance(h_inv(hx), x) > tol or distance(h(h_inv(y)), y) > tol:
            raise ConjugacyError(f"h round trip exceeds tolerance {tol}")

    def _transport(lam: int) -> MapDef:
        def g(p: Point) -> Point:
            return h(apply(ifs, lam, h_inv(p)))

        return MapDef(f"{ifs.maps[lam].name}~h", "conjugate", (ifs.maps[lam], ifs.space), g)

    return IFSSpec(
        space=target_space,
        maps=tuple(_transport(lam) for lam in range(ifs.nmaps)),
        claimed_contraction=None,
        name=f"{ifs.name}~h" if ifs.name else "conjugated",
    )


def subsystem(ifs: IFSSpec, indices: Sequence[int]) -> IFSSpec:
    """Restriction of the family to a subset of its map indices."""
    idx = tuple(indices)
    if not idx:
        raise DomainError("subsystem needs at least one index")
    if any(not 0 <= i < ifs.nmaps for i in idx):
        raise DomainError("subsystem index out of range")
    return IFSSpec(
        space=ifs.space,
        maps=tuple(ifs.maps[i] for i in idx),
        claimed_contraction=ifs.claimed_contraction,
        name=f"{ifs.name}[{','.join(map(str, idx))}]",
    )


def validate_ifs(ifs: IFSSpec) -> None:
    """Spot-check that every map sends 32 sampled points of the space back
    into the space (raises DomainError otherwise)."""
    ifs.raw_images(sample_batch(ifs.space, np.random.default_rng(0), _SPOT_SAMPLES))


# --- JSON wire format ------------------------------------------------------

def map_to_json(m: MapDef) -> dict:
    if m.form == "conjugate":
        raise DomainError("conjugate maps carry a closure and do not serialize")
    if m.form in ("compose", "product"):
        params = [map_to_json(sub) for sub in m.params]
    else:
        params = list(m.params)
    return {"name": m.name, "form": m.form, "params": params}


def map_from_json(d: dict) -> MapDef:
    form, raw = json_key(d, "form"), json_list(d, "params")
    if form in ("compose", "product"):
        params = tuple(map_from_json(sub) for sub in raw)
    elif form in ("permutation", "prepend"):  # images, or the one bit
        params = tuple(as_int(v, f"{form} parameter") for v in raw)
    else:
        params = tuple(as_float(v, f"{form} parameter") for v in raw)
    return MapDef(json_str(d, "name"), form, params)


def ifs_to_json(ifs: IFSSpec) -> dict:
    return {
        "name": ifs.name,
        "space": space_to_json(ifs.space),
        "maps": [map_to_json(m) for m in ifs.maps],
        "claimed_contraction": ifs.claimed_contraction,
        "surjective": list(ifs.surjective_flags),
    }


def ifs_from_json(d: dict) -> IFSSpec:
    space, maps = space_from_json(json_key(d, "space")), json_list(d, "maps")
    claimed, flags = d.get("claimed_contraction"), d.get("surjective", [])
    if not isinstance(flags, (list, tuple)) or any(type(b) is not bool for b in flags):
        raise DomainError(f"surjective flags must be a list of true and false, got {flags!r}")
    ifs = IFSSpec(
        space=space,
        maps=tuple(map_from_json(m) for m in maps),
        claimed_contraction=None if claimed is None else as_float(claimed, "claimed_contraction"),
        name=json_str(d, "name") if "name" in d else "",
    )
    if "surjective" in d and tuple(flags) != ifs.surjective_flags:
        raise DomainError(f"surjective flags {flags} disagree with the maps, which give {list(ifs.surjective_flags)}")
    return ifs
