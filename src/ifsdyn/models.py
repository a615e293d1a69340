"""Catalog of concrete systems used throughout the tests and experiments.

binary_affine      two affine halvings of [0,1] (contracting, ratio 1/2)
sigma2_prepend     bit-prepend pair on the truncated sequence space
circle_pair        two degree-one circle homeomorphisms F1, F2 that agree on
                   the lower half; F1 attracts the upper half to 1/2, F2
                   pushes it up to 1
interval_pair      two interval homeomorphisms with f1(x) > f2(x) > x away
                   from the fixed points {0, 1/2, 1}, so both halves of [0,1]
                   are invariant
finite_permutations(n)   all n! permutations of {0..n-1}, n <= 5
affine_family(betas, offsets)   user-chosen contracting affine maps
"""

from __future__ import annotations

import math
from itertools import permutations
from typing import Callable

from .core import IFSSpec, MapDef, _chain, _identity, _raising, _unsupported, step_errors, validate_ifs
from .errors import BranchError, DomainError, GuardError
from .spaces import Circle, FiniteDiscrete, Interval, Point, RawPoints, SpaceKind, SymbolSpace, as_batch, unbatch

UNIT = Interval(0.0, 1.0)


def _binary_affine() -> IFSSpec:
    return IFSSpec(
        space=UNIT,
        maps=(
            MapDef("half", "affine", (0.5, 0.0)),
            MapDef("half_up", "affine", (0.5, 0.5)),
        ),
        claimed_contraction=0.5,
        surjective_flags=(False, False),
        name="binary_affine",
    )


def _sigma2_prepend(depth: int = 64) -> IFSSpec:
    return IFSSpec(
        space=SymbolSpace(depth),
        maps=(
            MapDef("prepend0", "prepend", (0,)),
            MapDef("prepend1", "prepend", (1,)),
        ),
        claimed_contraction=0.5,
        surjective_flags=(False, False),
        name="sigma2_prepend",
    )


def _circle_pair() -> IFSSpec:
    return IFSSpec(
        space=Circle(),
        maps=(
            MapDef("F1", "twopiece_quadratic", (1.0, -1.0)),
            MapDef("F2", "twopiece_quadratic", (1.0, 1.0)),
        ),
        claimed_contraction=None,
        surjective_flags=(True, True),
        name="circle_pair",
    )


def _interval_pair() -> IFSSpec:
    # f1's coefficient 1.5 is one concrete monotone realization of the
    # ordering constraint f1 > f2 > identity away from {0, 1/2, 1}.
    return IFSSpec(
        space=UNIT,
        maps=(
            MapDef("f1", "twopiece_quadratic", (1.5, 1.5)),
            MapDef("f2", "twopiece_quadratic", (1.0, 1.0)),
        ),
        claimed_contraction=None,
        surjective_flags=(True, True),
        name="interval_pair",
    )


def _finite_permutations(n: int) -> IFSSpec:
    if not 1 <= n <= 5:
        raise GuardError(f"finite_permutations supports n <= 5, got {n}")
    perms = sorted(permutations(range(n)))
    return IFSSpec(
        space=FiniteDiscrete(n),
        maps=tuple(MapDef("p" + "".join(map(str, p)), "permutation", p) for p in perms),
        claimed_contraction=None,
        surjective_flags=(True,) * len(perms),
        name=f"finite_permutations:{n}",
    )


def _affine_family(betas=None, offsets=None) -> IFSSpec:
    if betas is None or offsets is None:
        raise DomainError("model 'affine_family' needs betas and offsets: pass them from Python or use --spec-file")
    betas = tuple(float(b) for b in betas)
    offsets = tuple(float(c) for c in offsets)
    if len(betas) != len(offsets) or not betas:
        raise DomainError("betas and offsets must be equal-length and nonempty")
    for b, c in zip(betas, offsets):
        if not abs(b) < 1:
            raise GuardError(f"affine_family slopes must satisfy |beta| < 1, got {b}")
        for endpoint in (c, b + c):
            if not 0.0 <= endpoint <= 1.0:
                raise DomainError(f"map x -> {b}x + {c} leaves [0,1]")
    return IFSSpec(
        space=UNIT,
        maps=tuple(
            MapDef(f"aff{i}", "affine", (b, c)) for i, (b, c) in enumerate(zip(betas, offsets))
        ),
        claimed_contraction=max(abs(b) for b in betas),
        surjective_flags=(False,) * len(betas),
        name="affine_family",
    )


_CATALOG = {
    "binary_affine": (_binary_affine, "two affine halvings of [0,1], ratio 0.5"),
    "sigma2_prepend": (_sigma2_prepend, "bit-prepend pair on the sequence space"),
    "circle_pair": (_circle_pair, "circle homeomorphism pair F1/F2"),
    "interval_pair": (_interval_pair, "interval pair with invariant halves"),
    "finite_permutations": (_finite_permutations, "all permutations of {0..n-1}, n<=5"),
    "affine_family": (_affine_family, "contracting affine maps (betas, offsets)"),
}


def list_models() -> list[tuple[str, str]]:
    return [(name, desc) for name, (_, desc) in _CATALOG.items()]


def parse_model_id(model_id: str) -> tuple[str, dict]:
    """Split 'name' or 'name:arg' CLI form into builder name and kwargs."""
    name, _, arg = model_id.partition(":")
    if name not in _CATALOG:
        raise DomainError(f"unknown model {name!r}; see list-models")
    kwargs = {}
    if arg:
        if name == "finite_permutations":
            kwargs["n"] = int(arg)
        elif name == "sigma2_prepend":
            kwargs["depth"] = int(arg)
        else:
            raise DomainError(f"model {name!r} takes no inline parameter")
    return name, kwargs


def make_system(model_id: str, **params) -> IFSSpec:
    """Instantiate a cataloged system; inline parameters ('name:arg') and
    keyword parameters merge, keywords winning."""
    name, kwargs = parse_model_id(model_id)
    kwargs.update(params)
    ifs = _CATALOG[name][0](**kwargs)
    validate_ifs(ifs)
    return ifs


# --- map inversion and backward branches -------------------------------------

def _root(c: float, v: float) -> float:
    """The t in [0, 1/2] with t + c*(1/2 - t)*t = v, for v in [0, 1/2] and
    |c| <= 2: the stable root 2v / (B + sqrt(D)), B = 1 + c/2, D = B^2 - 4cv.
    Near c = 2 and v = 1/2, D cancels to rounding, so D <= 0 counts as 0 and
    t is held at 1/2; at c = -2 and v = 0, B = D = 0 and t = 0."""
    b = 1.0 + 0.5 * c
    d = b * b - 4.0 * c * v
    t = 2.0 * v / (b + math.sqrt(d)) if d > 0 else 2.0 * v / b if v else 0.0
    return t if t < 0.5 else 0.5


def _compile_inverse(m: MapDef, kind: SpaceKind) -> Callable:
    """The raw inverse of `m` on `kind`, the twin of `core._compile_step`: a
    raw coordinate in, its preimage's out, or a BranchError where `m` has
    none (or the DomainError of `apply` where `m` cannot act on `kind`)."""
    form, why = m.form, _unsupported(m, kind)
    if why is not None:
        return _raising(why)
    if form == "identity":
        return _identity
    if form == "affine" and m.params[0] != 0:
        (a, b), lo, hi = m.params, kind.lo - 1e-12, kind.hi + 1e-12

        def affine(v):
            if not lo <= (t := (v - b) / a) <= hi:
                raise BranchError(f"preimage {t} of {v} leaves the interval")
            return kind.canon(t)

        return affine
    if form == "twopiece_quadratic" and all(abs(c) <= 2 for c in m.params):  # monotone pieces
        c_low, c_high = m.params
        # v < 1/2, not <=: then v = 1/2 goes to 1/2 + root(c_high, 0) = 1/2 on either side
        return lambda v: kind.canon(_root(c_low, v) if v < 0.5 else 0.5 + _root(c_high, v - 0.5))
    if form == "permutation":
        return m.params.index
    if form == "prepend":
        (bit,), top, mask = m.params, kind.depth - 1, (1 << kind.depth) - 1

        def unprepend(x):
            if x >> top != bit:
                raise BranchError(f"{x >> top}... is not in the image of prepend{bit}")
            return (x << 1) & mask

        return unprepend
    if form == "compose":
        return _chain([_compile_inverse(sub, kind) for sub in reversed(m.params)])
    if form == "product":
        left, right = (_compile_inverse(sub, k) for sub, k in zip(m.params, (kind.left, kind.right)))
        return lambda x: (left(x[0]), right(x[1]))
    return _raising(f"{form} map {m.name} has no inverse", BranchError)


def invert_map(m: MapDef, y: Point) -> Point:
    """Preimage of y under an invertible catalog map. Raises BranchError when
    the map is not invertible at y (or not invertible at all)."""
    kind = y.kind
    return kind.decode(_compile_inverse(m, kind)(kind.encode(y)))


def backward_branch(ifs: IFSSpec, lam: int, y: Point, length: int) -> RawPoints:
    """Reverse orbit [y_{-length}, ..., y_{-1}, y] with f_lam(y_{-j}) =
    y_{-j+1}, walked on raw coordinates into a RawPoints view, every step
    re-validated forward to 1e-12 in one batch call."""
    if not 0 <= lam < ifs.nmaps:
        raise DomainError(f"map index {lam} out of range")
    if length < 0:
        raise DomainError("branch length must be nonnegative")
    kind, inverse = ifs.space, _compile_inverse(ifs.maps[lam], ifs.space)
    raws = unbatch(as_batch(kind, [y], "branch point"))  # [the raw of y]
    for _ in range(length):
        raws.append(inverse(raws[-1]))
    raws = kind.batch(raws[::-1])
    if (step_errors(ifs, raws, [lam] * length) > 1e-12).any():
        raise BranchError("inverse step fails forward re-validation")
    return RawPoints(kind, raws)
