"""IFS definitions, selector sequences, orbits, and the three constructions
(k-fold power, product, conjugacy transport).

Maps are closed-form evaluators described by a small form catalog so that
systems serialize to JSON. The `compose` and `product` forms nest other map
definitions; `conjugate` wraps an arbitrary callable and does not serialize.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Callable, Optional, Sequence

import numpy as np

from .errors import (
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
    distance,
    json_key,
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
      conjugate               fn-backed, produced by conjugate_ifs
    """

    name: str
    form: str
    params: tuple = ()
    fn: Optional[Callable[[Point], Point]] = None  # compared by identity


def _twopiece(c_low: float, c_high: float, t: float) -> float:
    if t <= 0.5:
        return t + c_low * (0.5 - t) * t
    return t + c_high * (1.0 - t) * (t - 0.5)


def _raising(message: str) -> Callable:
    def step(_):
        raise DomainError(message)

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


def _compile_step(m: MapDef, kind: SpaceKind) -> Callable:
    """The raw step of `m` on `kind`: a raw coordinate in, the canonical raw
    coordinate of its image out (see `spaces`). This is the only place the
    scalar map formulas are written. A form that cannot act on `kind`
    compiles to a step that raises the DomainError applying it would raise."""
    form, why = m.form, _unsupported(m, kind)
    if why is not None:
        return _raising(why)
    if form == "identity":
        return _identity
    if form == "affine":
        a, b = m.params
        canon = kind.canon
        return lambda t: canon(a * t + b)
    if form == "twopiece_quadratic":
        c_low, c_high = m.params
        canon = kind.canon
        return lambda t: canon(_twopiece(c_low, c_high, t))
    if form == "prepend":
        top = m.params[0] << (kind.depth - 1)
        return lambda x: top | (x >> 1)
    if form == "permutation":
        image = m.params
        canon = kind.canon
        return lambda i: canon(image[i])
    if form == "compose":
        return _chain([_compile_step(sub, kind) for sub in m.params])
    if form == "product":
        ml, mr = m.params
        left, right = _compile_step(ml, kind.left), _compile_step(mr, kind.right)
        return lambda x: (left(x[0]), right(x[1]))
    fn = m.fn  # conjugate

    def transported(x):
        y = fn(kind.decode(x))
        if y.kind is not kind and y.kind != kind:
            raise DomainError(f"map {m.name} leaves the space")
        return kind.encode(y)

    return transported


def _compile_images(maps: Sequence[MapDef], kind: SpaceKind) -> Callable:
    """The array twin of `_compile_step` for a whole family: a batch of raw
    coordinates of shape (S,) in (see `spaces`), their canonical images under
    every map out, stacked on a leading map axis: shape (M, S), one such
    array per leaf on products. Maps that share one form with numeric
    parameters broadcast them along the map axis, so the family costs one
    array evaluation; product families recurse into each side; the other
    families stack one row per map. A form that cannot act on `kind` raises
    the DomainError its scalar step raises."""
    form = maps[0].form
    if form in ("identity", "compose", "conjugate") or any(
            m.form != form or len(m.params) != len(maps[0].params) for m in maps):
        rows = [_compile_row(m, kind) for m in maps]
        return lambda x: leafwise(lambda *r: np.stack(r), *(row(x) for row in rows))
    why = next(filter(None, (_unsupported(m, kind) for m in maps)), None)
    if why is not None:
        return _raising(why)
    if form == "product":
        left = _compile_images([m.params[0] for m in maps], kind.left)
        right = _compile_images([m.params[1] for m in maps], kind.right)
        return lambda x: (left(x[0]), right(x[1]))
    if form == "prepend":
        tops = kind.batch([m.params[0] << (kind.depth - 1) for m in maps])[:, None]
        return lambda x: tops | (x >> 1)
    if form == "permutation":
        table = np.array([m.params for m in maps], dtype=np.int64)
        return lambda i: kind.canon_batch(table[:, i])
    # affine (a, b) or twopiece (c_low, c_high): one float column of shape
    # (M, 1) per parameter, broadcast against (S,)
    p, q = (np.array(c, dtype=float)[:, None] for c in zip(*(m.params for m in maps)))
    if form == "affine":
        return lambda t: kind.canon_batch(p * t + q)
    return lambda t: kind.canon_batch(np.where(t <= 0.5, t + p * (0.5 - t) * t,  # twopiece
                                               t + q * (1.0 - t) * (t - 0.5)))


def _compile_row(m: MapDef, kind: SpaceKind) -> Callable:
    """One map's batch step: a batch of shape (S,) in, its images out."""
    if m.form == "identity":
        return _identity
    if m.form == "compose":
        return _chain([_compile_row(sub, kind) for sub in m.params])
    if m.form == "conjugate":  # an arbitrary callable: its scalar step, elementwise
        step = _compile_step(m, kind)
        return lambda x: kind.batch([step(r) for r in unbatch(x)])
    images = _compile_images((m,), kind)
    return lambda x: leafwise(lambda a: a[0], images(x))


def _compile_walk(maps: Sequence[MapDef], kind: SpaceKind, steps: Sequence[Callable]) -> Callable:
    """The walk of a family: `walk(raw, lams, move=None, params=())` gives
    the raw orbit of `raw` under the map indices `lams`, start included, and
    the images before displacement (None without `move`); `move(base,
    params[i])` displaces step i's image.

    All-affine families on an interval run a kernel with the map, the range
    check and the displacement inline; it calls `canon` only off the
    interval, to clamp the edge slack or raise, and displaces as
    `pseudo_orbits._moves` does without calling `move`. All-prepend families
    on a symbol space of depth <= 64 walk as one scan on uint64 words, where
    step i is x_{i+1} = (x_i >> 1) ^ c_i with c_i = top[lam_i] ^ mask_i (the
    top bit of the map, and the flip mask of `_moves`, 0 without a move);
    the orbit and the images are then batches. Others, and affine walks from
    a start that is no float, call `steps` and give lists."""

    def generic(raw, lams, move=None, params=()):
        out, bases = [raw], []
        if move is None:
            for lam in lams:
                out.append(raw := steps[lam](raw))
            return out, None
        for lam, p in zip(lams, unbatch(params)):
            bases.append(base := steps[lam](raw))
            out.append(raw := move(base, p))
        return out, bases

    if any(m.form != maps[0].form or _unsupported(m, kind) for m in maps):
        return generic
    if maps[0].form == "prepend":
        if kind.depth > 64:
            return generic
        tops, depth = kind.batch([m.params[0] << (kind.depth - 1) for m in maps]), kind.depth

        def prepend_scan(x, lams, move=None, masks=()):
            s = tops[np.fromiter(lams, dtype=np.intp, count=len(lams))]
            if move is not None:  # as long as the shorter of the two, as zip is
                masks = kind.batch(masks)[: len(s)]
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

        return prepend_scan
    # int or float slopes and offsets keep a*t + b a Python float for a float t
    if maps[0].form != "affine" or any(not {type(c) for c in m.params} <= {int, float} for m in maps):
        return generic
    slopes, offsets = [m.params[0] for m in maps], [m.params[1] for m in maps]
    lo, hi, canon = kind.lo, kind.hi, kind.canon

    def affine_walk(t, lams, move=None, shifts=()):
        if type(t) is not float:
            return generic(t, lams, move, shifts)
        out, bases = [t], []
        if move is None:
            for lam in lams:
                if not lo <= (t := slopes[lam] * t + offsets[lam]) <= hi:  # nan too
                    t = canon(t)
                out.append(t)
            return out, None
        for lam, d in zip(lams, shifts):
            if not lo <= (base := slopes[lam] * t + offsets[lam]) <= hi:
                base = canon(base)
            t = (lo if (t := base + d) < lo else hi if t > hi else t) if d else base
            bases.append(base)
            out.append(t)
        return out, bases

    return affine_walk


def apply_map(m: MapDef, x: Point) -> Point:
    kind = x.kind
    return kind.decode(_compile_step(m, kind)(kind.encode(x)))


@dataclass(frozen=True)
class IFSSpec:
    """A finite indexed family of continuous self-maps of one space."""

    space: SpaceKind
    maps: tuple[MapDef, ...]
    claimed_contraction: Optional[float] = None
    surjective_flags: tuple[bool, ...] = ()
    name: str = ""

    def __post_init__(self):
        if not self.maps:
            raise DomainError("an IFS needs at least one map")
        if self.claimed_contraction is not None and not 0 < self.claimed_contraction < 1:
            raise DomainError("claimed contraction ratio must lie in (0,1)")
        if not self.surjective_flags:
            object.__setattr__(self, "surjective_flags", (False,) * len(self.maps))
        if len(self.surjective_flags) != len(self.maps):
            raise DomainError("one surjectivity flag per map is required")

    @property
    def nmaps(self) -> int:
        return len(self.maps)

    @cached_property
    def raw_steps(self) -> tuple[Callable, ...]:
        """The raw step of each map on the space (`_compile_step`)."""
        return tuple(_compile_step(m, self.space) for m in self.maps)

    @cached_property
    def raw_images(self) -> Callable:
        """Images of a batch of raw coordinates under every map, shape (M, S)
        per leaf (`_compile_images`)."""
        return _compile_images(self.maps, self.space)

    @cached_property
    def raw_walk(self) -> Callable:
        """The selector walk on raw coordinates, with an optional displacement (`_compile_walk`)."""
        return _compile_walk(self.maps, self.space, self.raw_steps)

    def __getstate__(self) -> dict:
        # the compiled steps are closures; an unpickled spec compiles its own
        return {k: v for k, v in self.__dict__.items()
                if k not in ("raw_steps", "raw_images", "raw_walk")}


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

    def __getstate__(self) -> dict:
        # pickle the fields alone, as before the range was cached
        return {k: v for k, v in self.__dict__.items() if k != "entry_range"}


def _check_entries(entries: Sequence[int], nmaps: Optional[int]) -> tuple[int, ...]:
    out = tuple(int(e) for e in entries)
    if any(e < 0 for e in out):
        raise DomainError("selector entries must be nonnegative map indices")
    if nmaps is not None and any(e >= nmaps for e in out):
        raise DomainError(f"selector entry out of range for {nmaps} maps")
    return out


def selector_explicit(entries: Sequence[int], nmaps: Optional[int] = None) -> SelectorSequence:
    return SelectorSequence(_check_entries(entries, nmaps), "explicit")


def selector_periodic(pattern: Sequence[int], length: int, nmaps: Optional[int] = None) -> SelectorSequence:
    pat = _check_entries(pattern, nmaps)
    if not pat:
        raise DomainError("periodic selector needs a nonempty pattern")
    reps = -(-length // len(pat))
    label = "".join(map(str, pat))
    if max(pat) >= 10:  # the comma form the CLI parses; a lone index keeps a trailing comma
        label = ",".join(map(str, pat)) + ("," if len(pat) == 1 else "")
    return SelectorSequence((pat * reps)[:length], f"periodic:{label}")


def selector_random(seed: int, length: int, nmaps: int) -> SelectorSequence:
    rng = np.random.default_rng(seed)
    entries = tuple(int(v) for v in rng.integers(0, nmaps, size=length))
    return SelectorSequence(entries, f"random:{seed}")


@dataclass(frozen=True)
class OrbitRecord:
    """A true trajectory: points[i+1] = f_{selector[i]}(points[i])."""

    initial: Point
    selector: SelectorSequence
    points: Sequence[Point]  # a RawPoints view


def apply(ifs: IFSSpec, lam: int, x: Point) -> Point:
    """Evaluate the lam-th map of the family at x."""
    if not 0 <= lam < ifs.nmaps:
        raise DomainError(f"map index {lam} out of range for {ifs.nmaps} maps")
    kind = ifs.space
    if x.kind is not kind and x.kind != kind:
        raise DomainError("point does not belong to the IFS space")
    return kind.decode(ifs.raw_steps[lam](kind.encode(x)))


def usable_entries(ifs: IFSSpec, selector: SelectorSequence, n: int) -> tuple[Sequence[int], Optional[IFSError]]:
    """The first n selector entries, cut before the first map index out of
    range, and the error a step-by-step loop raises where they stop: the
    DomainError of `apply` for that index, a LengthError when the selector
    runs out, None when all n entries are usable."""
    lams = selector.entries[: max(n, 0)]
    low, high = selector.entry_range
    if not (low >= 0 and high < ifs.nmaps):  # an entry is out of range; is it among the first n?
        i = next((i for i, lam in enumerate(lams) if not 0 <= lam < ifs.nmaps), None)
        if i is not None:
            return lams[:i], DomainError(f"map index {lams[i]} out of range for {ifs.nmaps} maps")
    if len(lams) < n:
        return lams, LengthError(f"selector exhausted: entry {len(lams)} requested, {len(lams)} realized")
    return lams, None


def walk(ifs: IFSSpec, selector: SelectorSequence, raw, n: int):
    """Raw coordinates of the n-step orbit of the raw coordinate `raw`, start
    included, as a list or a batch (`IFSSpec.raw_walk`). Steps run up to the
    first selector entry that `apply` would reject; its error (a map index
    out of range, or an exhausted selector) is raised after them, as a
    step-by-step loop would raise it."""
    lams, error = usable_entries(ifs, selector, n)
    out, _ = ifs.raw_walk(raw, lams)
    if error is not None:
        raise error
    return out


def orbit(ifs: IFSSpec, selector: SelectorSequence, x0: Point, n: int) -> OrbitRecord:
    """Iterate n steps under the selector, keeping every point."""
    kind = ifs.space
    if x0.kind != kind:
        raise DomainError("initial point does not belong to the IFS space")
    return OrbitRecord(x0, selector, RawPoints(kind, walk(ifs, selector, kind.encode(x0), n)))


def compose_apply(ifs: IFSSpec, selector: SelectorSequence, n: int, x: Point) -> Point:
    """n-step composition applied to x; the 0-step composition is the identity."""
    if n <= 0:
        return x
    return orbit(ifs, selector, x, n).points[-1]


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


def word_index(digits: Sequence[int], base: int) -> int:
    mu = 0
    for d in digits:
        mu = mu * base + d
    return mu


def power_ifs(ifs: IFSSpec, k: int) -> IFSSpec:
    """k-fold composition family: one map per length-k word over the index
    set. Word (lambda_0, ..., lambda_{k-1}) composes with lambda_0 applied
    first and is indexed with lambda_0 as the most significant digit."""
    if k < 2:
        raise DomainError("power needs k >= 2")
    count = ifs.nmaps ** k
    if count > POWER_GUARD:
        raise GuardError(f"|maps|^k = {count} exceeds guard {POWER_GUARD}")
    maps = []
    flags = []
    for mu in range(count):
        digits = word_digits(mu, ifs.nmaps, k)
        chain = tuple(ifs.maps[d] for d in digits)
        name = " o ".join(m.name for m in reversed(chain))
        maps.append(MapDef(name, "compose", chain))
        flags.append(all(ifs.surjective_flags[d] for d in digits))
    claimed = None
    if ifs.claimed_contraction is not None:
        claimed = ifs.claimed_contraction ** k
    return IFSSpec(
        space=ifs.space,
        maps=tuple(maps),
        claimed_contraction=claimed,
        surjective_flags=tuple(flags),
        name=f"{ifs.name}^{k}" if ifs.name else f"power{k}",
    )


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
    flags = []
    for idx in range(count):
        lam, gam = pair_split(idx, left.nmaps)
        ml, mr = left.maps[lam], right.maps[gam]
        maps.append(MapDef(f"{ml.name}x{mr.name}", "product", (ml, mr)))
        flags.append(left.surjective_flags[lam] and right.surjective_flags[gam])
    claimed = None
    if left.claimed_contraction is not None and right.claimed_contraction is not None:
        claimed = max(left.claimed_contraction, right.claimed_contraction)
    return IFSSpec(
        space=space,
        maps=tuple(maps),
        claimed_contraction=claimed,
        surjective_flags=tuple(flags),
        name=f"{left.name}x{right.name}",
    )


def conjugate_ifs(ifs: IFSSpec, h: Callable[[Point], Point], h_inv: Callable[[Point], Point],
                  target_space: SpaceKind) -> IFSSpec:
    """Transport the family through a homeomorphism h: each map f becomes
    h o f o h_inv on the target space. h/h_inv round trips are validated to
    1e-9 on 32 random samples of both spaces before any map is built."""
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

        return MapDef(f"{ifs.maps[lam].name}~h", "conjugate", (), g)

    return IFSSpec(
        space=target_space,
        maps=tuple(_transport(lam) for lam in range(ifs.nmaps)),
        claimed_contraction=None,
        surjective_flags=ifs.surjective_flags,
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
        surjective_flags=tuple(ifs.surjective_flags[i] for i in idx),
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
    form, raw = json_key(d, "form"), json_key(d, "params")
    if form in ("compose", "product"):
        params = tuple(map_from_json(sub) for sub in raw)
    elif form == "permutation":
        params = tuple(int(v) for v in raw)
    elif form == "prepend":
        params = (int(raw[0]),)
    else:
        params = tuple(float(v) for v in raw)
    return MapDef(json_key(d, "name"), form, params)


def ifs_to_json(ifs: IFSSpec) -> dict:
    return {
        "name": ifs.name,
        "space": space_to_json(ifs.space),
        "maps": [map_to_json(m) for m in ifs.maps],
        "claimed_contraction": ifs.claimed_contraction,
        "surjective": list(ifs.surjective_flags),
    }


def ifs_from_json(d: dict) -> IFSSpec:
    return IFSSpec(
        space=space_from_json(json_key(d, "space")),
        maps=tuple(map_from_json(m) for m in json_key(d, "maps")),
        claimed_contraction=d.get("claimed_contraction"),
        surjective_flags=tuple(bool(b) for b in d.get("surjective", [])),
        name=d.get("name", ""),
    )
