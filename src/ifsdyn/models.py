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

from itertools import permutations

from .core import IFSSpec, MapDef, backward_branch, invert_map, validate_ifs  # the inverses are re-exported
from .errors import DomainError, GuardError
from .spaces import Circle, FiniteDiscrete, Interval, SymbolSpace, as_int

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
    n = as_int(n, "n")
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
