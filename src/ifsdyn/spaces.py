"""Compact metric spaces: point representations, metrics, diameters, grids.

Five kinds of space are supported: closed real intervals, the unit circle
(coordinates in [0,1) with wraparound metric), truncated one-sided binary
sequence space, finite discrete sets, and binary products of the above with
the max metric.

Besides the public `Point`, every kind has one raw coordinate that the
trajectory loops run on: a float for intervals and circles, an int for finite
spaces, a Python-int bitmask for symbol spaces (first symbol in the top bit;
depths 2 to 64), and a pair of raw coordinates for products. Each kind
converts with `encode(point) -> raw` and `decode(raw) -> Point`, and measures
raw values with `dist(a, b)`.

A batch holds many raw coordinates of one kind as arrays: float64 for
intervals and circles, int64 for finite spaces, one uint64 word per point for
symbol spaces, and a pair of batches for products. A batch is the one raw
form of a point sequence: walks return one, and records and chain graphs keep
the one they walked or encoded. `kind.batch(raws)` and `unbatch(batch)`
convert a list of raw values to a batch and back, and `dists(a, b) ->
ndarray` measures batches elementwise, broadcasting (a batch against one raw
value, too). `canon_batch` is the array twin of `canon`, and `grid_batch`
gives a space's finite net as one batch.
"""

from __future__ import annotations

import math
from collections.abc import Iterable, Iterator, Sequence
from dataclasses import dataclass, field
from typing import Union

import numpy as np

from .errors import DomainError, GuardError, UnsupportedKindError

MAX_PRODUCT_DEPTH = 8
GRID_GUARD = 2**20  # most points grid_batch builds

# Slack for accepting float overshoot at interval endpoints before clamping.
_EDGE_SLACK = 1e-9

# bits <-> ASCII digits, for converting symbol tuples to and from bitmasks
_BITS_TO_DIGITS = bytes.maketrans(b"\x00\x01", b"01")
_DIGITS_TO_BITS = bytes.maketrans(b"01", b"\x00\x01")


@dataclass(frozen=True, slots=True)
class Interval:
    """Closed interval [lo, hi] with the absolute-difference metric."""

    lo: float = 0.0
    hi: float = 1.0

    def __post_init__(self):
        object.__setattr__(self, "lo", float(self.lo))  # so clamped values are floats too
        object.__setattr__(self, "hi", float(self.hi))
        if not -math.inf < self.lo < self.hi < math.inf:  # also rejects nan
            raise DomainError(f"interval needs finite lo < hi, got [{self.lo}, {self.hi}]")

    def canon(self, value) -> float:
        """Raw coordinate of `value`: overshoot up to the edge slack is clamped."""
        v, lo, hi = float(value), self.lo, self.hi
        if not lo - _EDGE_SLACK <= v <= hi + _EDGE_SLACK:  # also rejects nan
            raise DomainError(f"{v} outside interval [{lo}, {hi}]")
        return lo if v < lo else (hi if v > hi else v)  # min(max(v, lo), hi), ties and all

    def canon_batch(self, values) -> np.ndarray:
        v = np.asarray(values, dtype=float)
        bad = ~((self.lo - _EDGE_SLACK <= v) & (v <= self.hi + _EDGE_SLACK))  # also flags nan
        if bad.any():
            raise DomainError(f"{v[bad][0]} outside interval [{self.lo}, {self.hi}]")
        v = np.where(self.lo > v, self.lo, v)  # min(max(v, lo), hi), ties and all
        return np.where(self.hi < v, self.hi, v)

    def encode(self, p: "Point") -> float:
        return p.value

    def decode(self, raw) -> "Point":
        return Point(self, raw)

    def batch(self, raws) -> np.ndarray:
        return np.asarray(raws, dtype=float)

    def dist(self, a: float, b: float) -> float:
        return abs(a - b)

    def dists(self, a, b) -> np.ndarray:
        return np.abs(np.asarray(a, dtype=float) - np.asarray(b, dtype=float))


@dataclass(frozen=True, slots=True)
class Circle:
    """Unit circle, coordinate t in [0,1), metric min(|a-b|, 1-|a-b|)."""

    def canon(self, value) -> float:
        """Raw coordinate of `value`, reduced mod 1."""
        v = float(value) % 1.0
        if v == 1.0:  # a tiny negative rounds up: (-1e-20) % 1.0 == 1.0
            v = 0.0
        elif v != v:  # nan, or +-inf before the reduction
            raise DomainError(f"{value} is not a finite circle coordinate")
        return v

    def canon_batch(self, values) -> np.ndarray:
        with np.errstate(invalid="ignore"):
            v = np.remainder(np.asarray(values, dtype=float), 1.0)  # Python's float %
        v[v == 1.0] = 0.0
        bad = np.isnan(v)
        if bad.any():
            raise DomainError(f"{np.asarray(values)[bad][0]} is not a finite circle coordinate")
        return v

    encode = Interval.encode
    decode = Interval.decode
    batch = Interval.batch

    def dist(self, a: float, b: float) -> float:
        d = abs(a - b)
        return min(d, 1.0 - d)

    def dists(self, a, b) -> np.ndarray:
        d = np.abs(np.asarray(a, dtype=float) - np.asarray(b, dtype=float))
        return np.minimum(d, 1.0 - d)


@dataclass(frozen=True, slots=True)
class SymbolSpace:
    """Binary sequences truncated to `depth` bits, for depths 2 to 64, so
    that a batch holds each point as one uint64 word.

    The metric between distinct points is 1/2^(k-1) where k is the first
    index at which they differ; bits beyond `depth` are treated as equal,
    so distances below 1/2^(depth-2) collapse to zero.
    """

    depth: int = 64

    def __post_init__(self):
        if self.depth not in range(2, 65):
            raise DomainError(f"symbol space depth must lie in 2 to 64, got {self.depth}")

    def encode(self, p: "Point") -> int:
        """Bitmask of the bit tuple, first symbol in the top bit."""
        return int(bytes(p.value).translate(_BITS_TO_DIGITS), 2)

    def decode(self, raw: int) -> "Point":
        return Point(self, tuple(f"{raw:0{self.depth}b}".encode().translate(_DIGITS_TO_BITS)))

    def batch(self, raws) -> np.ndarray:
        return np.asarray(raws, dtype=np.uint64)

    def dist(self, a: int, b: int) -> float:
        # the first disagreement k sits at bit depth-1-k of a ^ b
        return 0.0 if a == b else 2.0 ** (1 - (self.depth - (a ^ b).bit_length()))

    def dists(self, a, b) -> np.ndarray:
        # the exact bit length of a ^ b from its 32-bit halves (a whole word rounds as a float)
        x = np.asarray(a, dtype=np.uint64) ^ np.asarray(b, dtype=np.uint64)
        high, low = np.frexp(x >> np.uint64(32))[1], np.frexp(x & np.uint64(0xFFFFFFFF))[1]
        lengths = np.where(high > 0, high + 32, low)
        return np.where(lengths > 0, np.ldexp(1.0, lengths + (1 - self.depth)), 0.0)


@dataclass(frozen=True, slots=True)
class FiniteDiscrete:
    """{0, ..., n-1} with the 0/1 discrete metric."""

    n: int

    def __post_init__(self):
        if self.n < 1:
            raise DomainError(f"finite space needs n >= 1, got {self.n}")

    def canon(self, value) -> int:
        v = int(value)
        if not 0 <= v < self.n:
            raise DomainError(f"index {v} outside finite space of size {self.n}")
        return v

    def canon_batch(self, values) -> np.ndarray:
        v = np.asarray(values)
        bad = (v < 0) | (v >= self.n)
        if bad.any():
            raise DomainError(f"index {v[bad][0]} outside finite space of size {self.n}")
        return v

    encode = Interval.encode
    decode = Interval.decode

    def batch(self, raws) -> np.ndarray:
        return np.asarray(raws, dtype=np.int64)

    def dist(self, a: int, b: int) -> float:
        return 0.0 if a == b else 1.0

    def dists(self, a, b) -> np.ndarray:
        return (np.asarray(a) != np.asarray(b)).astype(float)


@dataclass(frozen=True, slots=True)
class Product:
    """Binary product with metric max(d_left, d_right)."""

    left: "SpaceKind"
    right: "SpaceKind"

    def __post_init__(self):
        if nesting_depth(self) > MAX_PRODUCT_DEPTH:
            raise GuardError(f"product nesting depth exceeds {MAX_PRODUCT_DEPTH}")

    def encode(self, p: "Point") -> tuple:
        l, r = p.value
        return (self.left.encode(l), self.right.encode(r))

    def decode(self, raw: tuple) -> "Point":
        return Point(self, (self.left.decode(raw[0]), self.right.decode(raw[1])))

    def batch(self, raws) -> tuple:
        return (self.left.batch([x[0] for x in raws]), self.right.batch([x[1] for x in raws]))

    def dist(self, a: tuple, b: tuple) -> float:
        return max(self.left.dist(a[0], b[0]), self.right.dist(a[1], b[1]))

    def dists(self, a, b) -> np.ndarray:
        return np.maximum(self.left.dists(a[0], b[0]), self.right.dists(a[1], b[1]))


SpaceKind = Union[Interval, Circle, SymbolSpace, FiniteDiscrete, Product]


def leafwise(fn, *batches):
    """`fn` applied leaf by leaf to batches of one kind (pairs on products)."""
    if isinstance(batches[0], tuple):
        return tuple(leafwise(fn, *parts) for parts in zip(*batches))
    return fn(*batches)


def unbatch(batch) -> list:
    """The raw values of a batch, as Python values."""
    if isinstance(batch, tuple):
        return list(zip(unbatch(batch[0]), unbatch(batch[1])))
    return batch.tolist()


def batch_leaves(batch) -> list:
    """The leaf arrays of a batch, left to right."""
    if isinstance(batch, tuple):
        return batch_leaves(batch[0]) + batch_leaves(batch[1])
    return [batch]


def nesting_depth(kind: SpaceKind) -> int:
    if isinstance(kind, Product):
        return 1 + max(nesting_depth(kind.left), nesting_depth(kind.right))
    return 1


@dataclass(frozen=True, slots=True)
class Point:
    """A point tagged with the space it lives in.

    `value` is a float for Interval/Circle, an int for FiniteDiscrete, a bit
    tuple for SymbolSpace, and a pair of Points for Product. Construct via
    `point()`, which validates and canonicalizes the payload.
    """

    kind: SpaceKind
    value: object


@dataclass(frozen=True, eq=False, slots=True)
class RawPoints(Sequence):
    """Points of one kind held as one batch of raw coordinates: a read-only
    sequence that decodes a fresh `Point` from Python values on every access
    and keeps none. Slices are views too; equality and hashing are by value,
    as for the tuple of the points."""

    kind: SpaceKind
    raws: object = field(repr=False)  # a batch of `kind`

    def __len__(self) -> int:
        return len(batch_leaves(self.raws)[0])

    def __getitem__(self, i):
        if isinstance(i, slice):
            return RawPoints(self.kind, leafwise(lambda a: a[i], self.raws))
        # a basic slice is cheaper than a[[i]]; a[-1:0] is empty, so -1 ends at None
        return self.kind.decode(unbatch(leafwise(lambda a: a[i:i + 1 or None], self.raws))[0])

    def __iter__(self):
        return map(self.kind.decode, unbatch(self.raws))

    def __eq__(self, other) -> bool:
        if isinstance(other, RawPoints) and other.kind == self.kind:
            return unbatch(self.raws) == unbatch(other.raws)
        return tuple(self) == tuple(other) if isinstance(other, (tuple, RawPoints)) else NotImplemented

    def __hash__(self) -> int:
        return hash(tuple(self))


def as_batch(kind: SpaceKind, points: Sequence[Point], what: str = "point"):
    """The points as one batch of `kind`: a RawPoints view's own batch, or
    else one encoded now. Raises DomainError unless every point lies in `kind`."""
    if isinstance(points, RawPoints) and points.kind == kind:
        return points.raws
    if any(p.kind is not kind and p.kind != kind for p in points):
        raise DomainError(f"a {what} lies outside the space {kind}")
    return kind.batch([kind.encode(p) for p in points])


_BIT_VALUES = frozenset((0, 1))
_BIT_DIGITS = frozenset("01")


def _as_bits(value, depth: int) -> tuple[int, ...]:
    """Bits of a payload: a string of 0/1 digits, or a sequence or array
    whose every entry equals 0 or 1 (so 1.0 and True pass, 1.7 and nan do
    not), padded with zeros to `depth`."""
    if isinstance(value, str):
        ok = _BIT_DIGITS.issuperset(value)
        raw = value.encode().translate(_DIGITS_TO_BITS) if ok else b""
    else:
        raw = value.tolist() if isinstance(value, np.ndarray) else list(value)
        ok = _BIT_VALUES.issuperset(raw)
    if not ok:
        raise DomainError("bit vector entries must be 0 or 1")
    if len(raw) > depth:
        raise DomainError(f"bit vector longer than depth {depth}")
    try:
        bits = tuple(bytes(raw))  # Python ints, fast, from int and bool entries
    except TypeError:  # entries such as 1.0
        bits = tuple(map(int, raw))
    return bits + (0,) * (depth - len(raw))


def point(kind: SpaceKind, value) -> Point:
    """Validate `value` against `kind` and return a canonical Point. The one
    reader of Python, JSON and CLI payloads: a number or its text, a bit string
    or 0/1 sequence for symbols, and for products a tuple or list pair of
    payloads or factor Points. Any other payload raises DomainError."""
    try:
        if isinstance(kind, (Interval, Circle)):
            return Point(kind, kind.canon(value))
        if isinstance(kind, Product):
            if not (isinstance(value, (tuple, list)) and len(value) == 2):
                raise DomainError("product payload must be a pair")
            l, r = value
            pl = l if isinstance(l, Point) and l.kind == kind.left else point(kind.left, l)
            pr = r if isinstance(r, Point) and r.kind == kind.right else point(kind.right, r)
            return Point(kind, (pl, pr))
        if isinstance(kind, FiniteDiscrete):
            return Point(kind, kind.canon(as_int(value, "finite point")))
        if isinstance(kind, SymbolSpace):
            return Point(kind, _as_bits(value, kind.depth))
    except TypeError:  # a payload of no type the kind reads, such as None or a dict
        raise DomainError(f"{value!r} is no point payload of {kind}") from None
    raise UnsupportedKindError(f"unknown space kind {kind!r}")


def distance(a: Point, b: Point) -> float:
    """Metric of the common space of `a` and `b`."""
    kind = a.kind
    if b.kind is not kind and b.kind != kind:
        raise DomainError(f"kind mismatch: {a.kind!r} vs {b.kind!r}")
    return kind.dist(kind.encode(a), kind.encode(b))


def diameter(kind: SpaceKind) -> float:
    """Exact sup of the metric over the space."""
    if isinstance(kind, Interval):
        return kind.hi - kind.lo
    if isinstance(kind, Circle):
        return 0.5
    if isinstance(kind, SymbolSpace):
        return 2.0  # first-bit disagreement: 1/2^(0-1)
    if isinstance(kind, FiniteDiscrete):
        return 0.0 if kind.n == 1 else 1.0
    if isinstance(kind, Product):
        return max(diameter(kind.left), diameter(kind.right))
    raise UnsupportedKindError(f"unknown space kind {kind!r}")


def grid_batch(kind: SpaceKind, resolution: float):
    """Finite net as one batch of raw coordinates: every point of the space
    lies within `resolution` of a grid point. Ordering is deterministic
    (ascending coordinates, left component outermost for products). A grid
    of more than GRID_GUARD points raises GuardError before it is built."""
    if not resolution > 0:
        raise DomainError("resolution must be positive")
    if isinstance(kind, Interval):
        span = kind.hi - kind.lo
        _guard_grid(span / resolution + 1, resolution)  # a float, so inf is refused too
        npts = max(2, math.ceil(span / resolution) + 1)
        return kind.canon_batch(kind.lo + np.arange(npts) * (span / (npts - 1)))
    if isinstance(kind, Circle):
        _guard_grid(1.0 / resolution, resolution)
        m = max(1, math.ceil(1.0 / resolution))
        return np.arange(m) / m
    if isinstance(kind, FiniteDiscrete):
        _guard_grid(kind.n, resolution)
        return np.arange(kind.n, dtype=np.int64)
    if isinstance(kind, Product):
        lefts = grid_batch(kind.left, resolution)
        rights = grid_batch(kind.right, resolution)
        nl, nr = len(batch_leaves(lefts)[0]), len(batch_leaves(rights)[0])
        _guard_grid(nl * nr, resolution)
        return (leafwise(lambda a: np.repeat(a, nr), lefts),
                leafwise(lambda a: np.tile(a, nl), rights))
    if isinstance(kind, SymbolSpace):
        raise UnsupportedKindError("symbol spaces have no coordinate grid")
    raise UnsupportedKindError(f"unknown space kind {kind!r}")


def _guard_grid(npts: float, resolution: float) -> None:
    if npts > GRID_GUARD:
        raise GuardError(f"a grid at resolution {resolution} needs {npts:.3g} points, "
                         f"more than GRID_GUARD = {GRID_GUARD}")


def grid(kind: SpaceKind, resolution: float) -> list[Point]:
    """The points of `grid_batch(kind, resolution)`, in its order."""
    return list(map(kind.decode, unbatch(grid_batch(kind, resolution))))


def sample_point(kind: SpaceKind, rng: np.random.Generator) -> Point:
    """Draw a uniform random point (uniform bits / indices for the discrete
    kinds): the first point of `sample_batch(kind, rng, 1)`."""
    return kind.decode(unbatch(sample_batch(kind, rng, 1))[0])


def sample_batch(kind: SpaceKind, rng: np.random.Generator, count: int):
    """The raw coordinates of `count` uniform random points, as one batch.
    A non-product kind draws them in one `rng` call, with the draws and the
    generator state of `count` one-point calls; a product draws point by
    point, the left factor first."""
    if isinstance(kind, Interval):
        return kind.canon_batch(kind.lo + (kind.hi - kind.lo) * rng.random(count))
    if isinstance(kind, Circle):
        return kind.canon_batch(rng.random(count))
    if isinstance(kind, SymbolSpace):  # rows of bits, first symbol in the top bit
        rows = np.packbits(rng.integers(0, 2, size=(count, kind.depth)), axis=1)
        words = np.zeros((count, 8), dtype=np.uint8)  # each row zero-padded in front to one big-endian word
        words[:, 8 - rows.shape[1]:] = rows
        return words.view(">u8").ravel().astype(np.uint64) >> np.uint64(-kind.depth % 8)
    if isinstance(kind, FiniteDiscrete):
        return kind.canon_batch(rng.integers(0, kind.n, size=count))
    if isinstance(kind, Product):  # point by point, the left factor first
        return kind.batch([tuple(unbatch(sample_batch(side, rng, 1))[0] for side in (kind.left, kind.right))
                           for _ in range(count)])
    raise UnsupportedKindError(f"unknown space kind {kind!r}")


def leaf_kinds(kind: SpaceKind) -> list[SpaceKind]:
    """Non-product factors of `kind`, left to right."""
    if isinstance(kind, Product):
        return leaf_kinds(kind.left) + leaf_kinds(kind.right)
    return [kind]


# --- JSON wire format ------------------------------------------------------

def json_key(d: dict, key: str):
    """`d[key]` of a JSON input; a missing key, or a `d` that is no object,
    raises a DomainError naming it."""
    if not isinstance(d, dict):
        raise DomainError(f"JSON input must be an object with key {key!r}, got {type(d).__name__}")
    if key not in d:
        raise DomainError(f"JSON input lacks key {key!r}")
    return d[key]


def json_list(d: dict, key: str) -> list:
    """`json_key(d, key)`, which must be a JSON array; else a DomainError naming the key."""
    if not isinstance(value := json_key(d, key), (list, tuple)):
        raise DomainError(f"JSON key {key!r} must hold an array, got {type(value).__name__}")
    return value


def as_int(value, what: str) -> int:
    """`value` as an int if it equals one (3, 3.0, True, "3"); else DomainError naming `what`."""
    try:
        v = int(value)
        if v == value or isinstance(value, str):
            return v
    except (TypeError, ValueError, OverflowError):
        pass
    raise DomainError(f"{what} must be an integer, got {value!r}")


def as_float(value, what: str) -> float:
    """`value` as a float if it is a number a float holds (3, 0.5; not True,
    "0.5" or 10**400); else DomainError naming `what`."""
    try:
        if isinstance(value, (int, float)) and not isinstance(value, bool):
            return float(value)
    except OverflowError:
        pass
    raise DomainError(f"{what} must be a number, got {value!r}")


def space_to_json(kind: SpaceKind) -> dict:
    if isinstance(kind, Interval):
        return {"type": "interval", "lo": kind.lo, "hi": kind.hi}
    if isinstance(kind, Circle):
        return {"type": "circle"}
    if isinstance(kind, SymbolSpace):
        return {"type": "symbols", "depth": kind.depth}
    if isinstance(kind, FiniteDiscrete):
        return {"type": "finite", "n": kind.n}
    if isinstance(kind, Product):
        return {
            "type": "product",
            "left": space_to_json(kind.left),
            "right": space_to_json(kind.right),
        }
    raise UnsupportedKindError(f"unknown space kind {kind!r}")


def space_from_json(d: dict) -> SpaceKind:
    t = json_key(d, "type")
    if t == "interval":
        return Interval(as_float(d.get("lo", 0.0), "interval lo"), as_float(d.get("hi", 1.0), "interval hi"))
    if t == "circle":
        return Circle()
    if t == "symbols":
        return SymbolSpace(as_int(d.get("depth", 64), "depth"))
    if t == "finite":
        return FiniteDiscrete(as_int(json_key(d, "n"), "n"))
    if t == "product":
        return Product(space_from_json(json_key(d, "left")), space_from_json(json_key(d, "right")))
    raise DomainError(f"unknown space type {t!r}")


def _value_to_json(p: Point):
    """The payload as JSON: a bit string for symbols, a pair for products."""
    kind = p.kind
    if isinstance(kind, SymbolSpace):
        return "".join(str(b) for b in p.value)
    if isinstance(kind, Product):
        return [_value_to_json(p.value[0]), _value_to_json(p.value[1])]
    return p.value


def point_to_json(p: Point) -> dict:
    return {"kind": space_to_json(p.kind), "value": _value_to_json(p)}


def point_from_json(d: dict) -> Point:
    return point(space_from_json(json_key(d, "kind")), json_key(d, "value"))


def _cell(v) -> str:
    if isinstance(v, list):  # a product pair
        return ";".join(map(_cell, v))
    return v if isinstance(v, str) else repr(v)


def value_repr(p: Point) -> str:
    """Compact single-cell text form of a point payload (CSV export): its
    JSON value, with product components joined by ';'."""
    return _cell(_value_to_json(p))


def csv_lines(header: str, rows: Iterable[tuple], comments: Iterable[str] = ()) -> Iterator[str]:
    """CSV text one line at a time: a `# c` line per comment, the header,
    then each row tuple's fields as `str` gives them, joined by commas. A
    row with more or fewer fields than the header raises TypeError."""
    line = ",".join(["%s"] * (header.count(",") + 1)) + "\n"  # one slot per column
    yield from (f"# {c}\n" for c in comments)
    yield header + "\n"
    yield from map(line.__mod__, rows)
