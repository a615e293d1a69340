"""Epsilon-chain analysis on discretized phase spaces.

The chain graph puts one node per grid point and an edge u -> v whenever some
map of the family sends u within epsilon of v. Graph paths are genuine
epsilon-chains (one-sided soundness). Completeness at the coarser scale
epsilon/2 needs (L+1)*h/2 <= epsilon/2 for grid spacing h and maps of
Lipschitz constant L; the h <= epsilon/4 guard ensures it only for L <= 3.

The builder takes each map's targets of a node from exact windows: on each
leaf, the grid indices within epsilon of the image's coordinate form one
cyclic index range, whose two ends the metric itself fixes. A map's targets
are the box of its leaf ranges, and a node's targets the union of its maps'
boxes. Distances are computed only at the ends of the ranges, and the edges
equal those of comparing every pair of nodes.

A continuous map sends a cell to a connected set, so a node's targets are a
few index ranges (`ChainGraph.runs`: 23,347 hold the 3,128,868 edges of the
12,801-node `interval_pair` graph), which the builder's rows give. A built
graph stores its edges as these ranges alone; a node's out-list, and its
labels (per edge, the first map of least distance from the map images), are
computed when read. `find_chain` searches breadth-first on ranges, keeping
the parents and visit order of a FIFO queue, and stops at the target;
self-loops are the ranges that hold their own source.

Nodes are held as the raw grid batch itself (a `RawPoints` view). A witness
is a `PseudoOrbitRecord` with step errors <= epsilon whose points view that
batch along the path, so a `Point` is decoded only for counterexamples.
Strongly connected components come from Tarjan's algorithm on the ranges,
with no numpy call per visit of a node; transitivity and recurrence read
each node's component index.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass
from typing import Iterator, Optional, Sequence

import numpy as np

from .core import IFSSpec, PseudoOrbitRecord, selector_explicit, step_errors, usable_entries
from .errors import DomainError, GuardError, IFSError
from .pseudo_orbits import pseudo_orbit_record
from .spaces import (
    Circle,
    Point,
    RawPoints,
    batch_leaves,
    csv_lines,
    diameter,
    grid_batch,
    leaf_kinds,
    leafwise,
    point_to_json,
)

_WITNESS_SLACK = 1e-12
_CHUNK_NODES = 128  # out-lists per block of _runs_of; bounds its temporaries
_CHUNK_ROWS = 2**15  # box rows build_chain_graph cuts at once, unless one node has more
_NO_NODES = np.empty(0, dtype=np.intp)


@dataclass(frozen=True, eq=False)
class ChainGraph:
    """An epsilon-chain graph on a grid. A built graph keeps its edges as
    `runs` alone and computes `out_edges[u]` and `out_labels[u]` when read."""

    ifs: IFSSpec
    nodes: RawPoints
    epsilon: float
    resolution: float
    out_edges: Sequence[np.ndarray]    # per node, ascending target indices, in intp
    out_labels: Sequence[np.ndarray]   # matching argmin map index per edge, in the least uint dtype

    @property
    def size(self) -> int:
        return len(self.nodes)

    @property
    def edge_count(self) -> int:
        return int((self.runs[2] - self.runs[1]).sum())

    @functools.cached_property
    def components(self) -> list[list[int]]:
        """Strongly connected components, computed once per graph."""
        return _components(self.runs)

    @functools.cached_property
    def _component_index(self) -> np.ndarray:
        """Per node, the place of its component in `components`."""
        comps, index = self.components, np.empty(self.size, dtype=np.intp)
        index[np.fromiter(itertools.chain.from_iterable(comps), np.intp, self.size)] = np.repeat(
            np.arange(len(comps)), list(map(len, comps)))
        return index

    @functools.cached_property
    def runs(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(ptr, start, stop): node u's targets are the ranges start[k], ...,
        stop[k] - 1 for k in ptr[u], ..., ptr[u + 1] - 1, disjoint, ascending
        and maximal. `build_chain_graph` fills this from its rows."""
        return _runs_of(self.out_edges)


@dataclass(frozen=True, eq=False)
class _OnRead(Sequence):
    """`out_edges` or `out_labels` of a built graph: read-only, indexed and
    sliced as a tuple of `size` arrays, node u's computed as `read(u)`."""

    size: int
    read: functools.partial  # not a closure, so that the graph pickles

    def __len__(self) -> int:
        return self.size

    def __getitem__(self, u):
        u = range(self.size)[u]
        return tuple(map(self.read, u)) if isinstance(u, range) else self.read(u)


def _out_list(runs: tuple[np.ndarray, np.ndarray, np.ndarray], u: int) -> np.ndarray:
    """Node u's targets, ascending: its ranges of `runs`, expanded."""
    ptr, start, stop = runs
    k = slice(ptr[u], ptr[u + 1])
    return np.concatenate([_NO_NODES, *map(np.arange, start[k].tolist(), stop[k].tolist())])


def _labels(nodes: RawPoints, images, runs: tuple[np.ndarray, np.ndarray, np.ndarray], u: int) -> np.ndarray:
    """Per target of node u, the first map of least distance from u's image."""
    targets = _out_list(runs, u)
    dists = nodes.kind.dists(leafwise(lambda a: a[:, u, None], images),
                             leafwise(lambda a: a[targets], nodes.raws))
    return dists.argmin(axis=0).astype(np.min_scalar_type(len(dists) - 1))


def _runs_of(out_edges: Sequence[np.ndarray]) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The maximal ranges of consecutive targets in each out-list, in stored
    order; a block of out-lists at a time bounds the temporaries."""
    ptr, start, stop = [np.zeros(1, dtype=np.intp)], [_NO_NODES], [_NO_NODES]
    for c0 in range(0, len(out_edges), _CHUNK_NODES):
        block = out_edges[c0:c0 + _CHUNK_NODES]
        lengths = np.fromiter(map(len, block), dtype=np.intp, count=len(block))
        targets = np.concatenate([_NO_NODES, *block])
        ends = np.cumsum(lengths)
        firsts = ends - lengths  # where each node's targets start
        head = np.diff(targets, prepend=-2) != 1
        head[firsts[lengths > 0]] = True
        at = np.flatnonzero(head)
        ptr.append(np.searchsorted(at, ends) + ptr[-1][-1])
        start.append(targets[at])
        stop.append(targets[np.append(at, len(targets))[1:] - 1] + 1)
    return tuple(map(np.concatenate, (ptr, start, stop)))


def _leaf_windows(kind, axis: np.ndarray, q: np.ndarray, epsilon: float):
    """Per map and source node, the indices i of one leaf's grid `axis` with
    kind.dists(axis[i], q) <= epsilon, for that leaf's coordinate q[map, node]
    of the map image: a cyclic index range (start, width).

    The metric is monotone in the index on each side of q (and of its
    antipode on a circle), float rounding included, so these indices are one
    range. `searchsorted` places each end to within a step or so; the metric,
    evaluated at each end and beyond it, then moves the end one index at a
    time to its exact place: out while the index beyond it is within
    epsilon, in while the index at it is not."""
    n = len(axis)
    if epsilon >= diameter(kind):  # every index is within epsilon
        return np.zeros(q.shape, dtype=np.intp), np.full(q.shape, n)
    ext = np.concatenate([axis - 1.0, axis, axis + 1.0]) if isinstance(kind, Circle) else axis
    lo = np.searchsorted(ext, q - epsilon).ravel()
    hi = np.searchsorted(ext, q + epsilon, side="right").ravel()
    at = np.arange(len(lo))  # the windows whose ends may still move
    while len(at):  # move each end by one index where the metric says so
        a, b = lo[at], hi[at]
        within = kind.dists(axis[np.stack([a - 1, a, b - 1, b]) % n], q.flat[at]) <= epsilon
        step_a = (~within[1] & (a < b)).astype(np.intp) - (within[0] & (a > 0) & (b - a < n))
        a += step_a
        step_b = (within[3] & (b < len(ext)) & (b - a < n)).astype(np.intp) - (~within[2] & (b > a))
        lo[at], hi[at] = a, b + step_b
        at = at[(step_a != 0) | (step_b != 0)]
    return (lo % n).reshape(q.shape), (hi - lo).reshape(q.shape)


def _ranges(first: np.ndarray, count: np.ndarray) -> np.ndarray:
    """The ranges first[i], ..., first[i] + count[i] - 1, concatenated."""
    ends = np.cumsum(count)
    out = np.repeat(first - ends + count, count)
    out += np.arange(len(out))
    return out


def _rows(windows: list, count: np.ndarray, sizes: list[int], strides: list[int], nodes: slice):
    """The boxes of the source nodes `nodes` cut into rows: a row fixes every
    leaf but the last and holds one range of the last leaf. `count` holds
    the rows per (map, node) before a range that wraps past the last index
    splits in two. Returns (key, end) per row, sorted by key = u * size + the
    row's first target, where end is its last target + 1 on that scale."""
    size = sizes[0] * strides[0]
    flat = [[a[:, nodes].ravel() for a in w] for w in windows]  # per (map, node), map-major
    count = count[:, nodes]
    nmaps = len(count)
    count = count.ravel()
    k = _ranges(np.zeros_like(count), count)
    base = np.repeat(np.tile(np.arange(size)[nodes] * size, nmaps), count)
    for l in reversed(range(len(sizes) - 1)):
        start, width = (np.repeat(a, count) for a in flat[l])
        k, kl = np.divmod(k, width)
        base += (start + kl) % sizes[l] * strides[l]
    start, width = (np.repeat(a, count) for a in flat[-1])
    wrap = start + width - sizes[-1]  # > 0: the range goes on from index 0 to wrap - 1
    split = wrap > 0
    key = np.concatenate([base + start, base[split]])
    end = np.concatenate([base + np.minimum(start + width, sizes[-1]), base[split] + wrap[split]])
    order = np.argsort(key, kind="stable")
    return key[order], end[order]


def build_chain_graph(ifs: IFSSpec, resolution: float, epsilon: float) -> ChainGraph:
    """Discretize the space at `resolution` and connect u -> v when some map
    image of u lies within `epsilon` of v. The graph computes a node's
    out-list and labels (the closest map, the first on ties) when read.

    The targets of u under one map form a box: the product of that map's
    exact leaf windows (`_leaf_windows`, which evaluates the metric only at
    the ends of each window). The targets of u are the union of its maps'
    boxes, in ascending order, so the edges equal those of comparing every
    pair of nodes, at O(edges) cost. Blocks of source nodes bound the
    temporaries. The rows (see `_rows`), joined where they overlap or touch,
    are the graph's `runs`, the one form in which it keeps its edges."""
    if not epsilon > 0:
        raise DomainError("epsilon must be positive")
    # completeness at epsilon/2 needs (L+1)*h/2 <= epsilon/2: this ensures it for L <= 3 only
    if resolution > epsilon / 4 + 1e-15:
        raise GuardError(f"grid resolution {resolution} exceeds epsilon/4 = {epsilon / 4}")
    kind = ifs.space
    batch = grid_batch(kind, resolution)
    kinds = leaf_kinds(kind)
    images = ifs.raw_images(batch)  # per leaf, (map, node)
    # the grid is the product of the leaf grids, first leaf outermost
    axes = [np.asarray(grid_batch(k, resolution), dtype=float) for k in kinds]
    sizes = [len(a) for a in axes]
    strides = [int(np.prod(sizes[l + 1:])) for l in range(len(sizes))]
    size = sizes[0] * strides[0]
    windows = [_leaf_windows(k, a, np.asarray(q, dtype=float), epsilon)
               for k, a, q in zip(kinds, axes, batch_leaves(images))]
    count = functools.reduce(np.multiply, (w[1] for w in windows[:-1]), np.ones_like(windows[-1][1]))
    # rows for many nodes at once, up to _CHUNK_ROWS of them (a wrapped range makes two)
    span = max(1, _CHUNK_ROWS // (2 * int(count.sum(axis=0).max())))
    ptr, run_start, run_stop = [np.zeros(1, dtype=np.intp)], [], []  # the graph's ranges, per span
    for s0 in range(0, size, span):
        key, end = _rows(windows, count, sizes, strides, slice(s0, s0 + span))
        reach = np.maximum.accumulate(end)
        row_of = np.searchsorted(key, np.arange(s0, min(s0 + span, size) + 1) * size)  # node s0 + i starts row_of[i]
        # a range starts at a gap or a node's first row and ends at its last row's reach
        head = np.append(True, key[1:] > reach[:-1])
        head[row_of[:-1]] = True
        heads = np.flatnonzero(head)
        ptr.append(np.searchsorted(heads, row_of[1:]) + ptr[-1][-1])
        run_start.append(key[heads] % size)
        run_stop.append(run_start[-1] + reach[np.append(heads[1:], len(key)) - 1] - key[heads])
    nodes, runs = RawPoints(kind, batch), tuple(map(np.concatenate, (ptr, run_start, run_stop)))
    g = ChainGraph(ifs, nodes, epsilon, resolution, _OnRead(size, functools.partial(_out_list, runs)),
                   _OnRead(size, functools.partial(_labels, nodes, images, runs)))
    vars(g)["runs"] = runs
    return g


def snap_to_node(g: ChainGraph, p: Point) -> tuple[int, float]:
    """Nearest grid node and its distance; a point of another space raises
    DomainError."""
    kind = g.ifs.space
    if p.kind is not kind and p.kind != kind:
        raise DomainError("point does not belong to the IFS space")
    d = kind.dists(g.nodes.raws, kind.encode(p))
    i = int(np.argmin(d))
    return i, float(d[i])


def validate_witness(ifs: IFSSpec, w: PseudoOrbitRecord, epsilon: float) -> bool:
    """Whether the record is an epsilon-chain: >= 1 step, each error recomputed
    on the raw maps under `w.selector` and within epsilon (+1e-12)."""
    if w.steps < 1 or len(w.selector) < w.steps:
        return False
    lams, error = usable_entries(ifs, w.selector, w.steps)
    ok = bool((step_errors(ifs, w.raw(ifs.space), lams) <= epsilon + _WITNESS_SLACK).all())
    if ok and error is not None:  # a label out of range after good steps raises as `apply` does
        raise error
    return ok


@dataclass(frozen=True, eq=False)
class ChainSearchResult:
    found: bool
    witness: Optional[PseudoOrbitRecord]
    snap_from: float
    snap_to: float
    reachable: Optional[tuple[int, ...]]  # diagnostic frontier when not found


def _first_cover(start: np.ndarray, stop: np.ndarray, n: int) -> np.ndarray:
    """For each v in [0, n), the least r with start[r] <= v < stop[r], or
    len(start) if none. A sparse table: range r writes r into the two blocks
    of length 2**k, 2**k <= stop[r] - start[r] < 2**(k + 1), that begin at
    start[r] and end at stop[r]; each level then folds its blocks into their
    two halves one level down, to single nodes."""
    k = np.frexp(stop - start)[1].astype(np.intp) - 1
    table = np.full((int(k.max()) + 1, n), len(start), dtype=np.intp)
    r = np.arange(len(start))
    np.minimum.at(table.ravel(), k * n + start, r)
    np.minimum.at(table.ravel(), k * n + stop - (1 << k), r)
    for j in range(len(table) - 1, 0, -1):
        h = 1 << (j - 1)
        np.minimum(table[j - 1], table[j], out=table[j - 1])
        np.minimum(table[j - 1, h:], table[j, :-h], out=table[j - 1, h:])
    return table[0]


def _range_min(values: np.ndarray, start: np.ndarray, stop: np.ndarray) -> np.ndarray:
    """For each r, values[start[r]:stop[r]].min() (a nonempty range): the
    least of the two blocks of 2**j values that begin and end it, where
    2**j <= stop[r] - start[r] < 2**(j + 1). One level of blocks at a time."""
    level = np.frexp(stop - start)[1]  # j + 1
    out = np.empty(len(start), dtype=values.dtype)
    row = values  # at level j, row[i] = values[i:i + 2**j].min()
    for j in range(int(level.max(initial=0))):
        at = np.flatnonzero(level == j + 1)
        out[at] = np.minimum(row[start[at]], row[stop[at] - (1 << j)])
        row = np.minimum(row[:-(1 << j)], row[1 << j:])
    return out


def _bfs(runs: tuple[np.ndarray, np.ndarray, np.ndarray], start: int, stop: int) -> np.ndarray:
    """Breadth-first search from `start`, one level per step, until `stop`
    is reached. Returns each node's parent (-1 if unreached); parents and
    visit order match a FIFO queue that scans each node's targets in
    ascending order. `start` is expanded but not marked, so it gets a parent
    only if some path of >= 1 step returns to it.

    A level reads its frontier's ranges (`ChainGraph.runs`) in scan order; a
    node's first cover among them gives its place in the scan, so the new
    nodes, in order of that place, take the owner of their first cover as
    parent."""
    ptr, lo, hi = runs
    parent = np.full(len(ptr) - 1, -1, dtype=np.intp)
    frontier = np.array([start], dtype=np.intp)
    while len(frontier) and parent[stop] == -1:
        count = ptr[frontier + 1] - ptr[frontier]
        r = _ranges(ptr[frontier], count)  # the frontier's ranges, in scan order
        if not len(r):
            break
        a, b = lo[r], hi[r]
        base = int(a.min())
        cover = _first_cover(a - base, b - base, int(b.max()) - base)
        new = np.flatnonzero(cover < len(r))
        new = new[parent[base + new] == -1]
        new = new[np.argsort(cover[new], kind="stable")]
        parent[base + new] = np.repeat(frontier, count)[cover[new]]
        frontier = base + new
    return parent


def find_chain(g: ChainGraph, x: Point, y: Point) -> ChainSearchResult:
    """Shortest chain between the grid nodes nearest x and y (>= 1 step, so
    x = y asks for a cycle). The witness is re-validated against the raw
    maps, not the graph."""
    src, snap_from = snap_to_node(g, x)
    dst, snap_to = snap_to_node(g, y)
    parent = _bfs(g.runs, src, dst)
    if parent[dst] == -1:
        reachable = tuple(int(v) for v in np.flatnonzero(parent != -1))
        return ChainSearchResult(False, None, snap_from, snap_to, reachable)
    path = [dst, int(parent[dst])]
    while path[-1] != src:
        path.append(int(parent[path[-1]]))
    path.reverse()
    labels = [int(g.out_labels[u][np.searchsorted(g.out_edges[u], v)]) for u, v in zip(path, path[1:])]
    nodes = RawPoints(g.ifs.space, leafwise(lambda a: a[path], g.nodes.raws))
    witness = pseudo_orbit_record(g.ifs, nodes, selector_explicit(labels, g.ifs.nmaps))
    if witness.errors.values.max() > g.epsilon + _WITNESS_SLACK:
        raise IFSError("graph path failed raw-map re-validation")
    return ChainSearchResult(True, witness, snap_from, snap_to, None)


def strongly_connected_components(out_edges: Sequence[np.ndarray]) -> list[list[int]]:
    """Tarjan's algorithm with roots in ascending order, scanning each node's
    edges in stored order (deterministic); components come out in the order
    Tarjan completes them, each sorted."""
    return _components(_runs_of(out_edges))


def _components(runs: tuple[np.ndarray, np.ndarray, np.ndarray]) -> list[list[int]]:
    """`strongly_connected_components` on ranges: node u's targets are the
    ranges k = ptr[u], ..., ptr[u + 1] - 1 of `runs`, scanned in that order.

    Pass 1 is Tarjan's DFS, where a "least unvisited id >= i" skip list gives
    a range's next tree edge. A sparse table gives P[x], the least pre-order
    number among x's targets. Pass 2 takes the nodes in finish order. The
    low-link is the least of pre[x], the lows of x's non-root children and
    the pre-order numbers of x's targets in no component yet: P[x] if the
    target giving it is in none; else a skip list over placed ids lists them,
    so pass 2 reads each edge at most once. It differs from Tarjan's
    scan-time value only by descendants, which number above pre[x] and never
    decide a root. A root takes the pending nodes of its subtree, those above
    it."""
    ptr, lo, hi = runs
    n = len(ptr) - 1
    ids = np.arange(max(n, len(lo)) + 2).astype(object)  # one int object per value, for every list
    # node n is virtual: its one range 0, ..., n - 1 makes the roots its
    # children, in ascending order; lo_ reads one past each node's last range
    ptr_ = ids[np.append(ptr, len(lo) + 1)].tolist()
    lo_, hi_ = ids[np.append(lo, [0, 0])].tolist(), ids[np.append(hi, n)].tolist()
    unseen = ids[:n + 1].tolist()  # unseen[i] == i: i unvisited; else [i, unseen[i]) all visited
    parent, order, post, path = [0] * n, [], [], []  # path: per ancestor, its range and where it resumes
    v, k, end, i = n, len(lo), len(lo) + 1, 0
    while True:
        while k < end:
            while unseen[i] != i:  # path halving
                unseen[i] = i = unseen[unseen[i]]
            if i < hi_[k]:
                break
            k += 1
            i = lo_[k]
        else:  # v finishes
            if v == n:
                break
            post.append(v)
            i, k, v = path.pop(), path.pop(), parent[v]
            end = ptr_[v + 1]
            continue
        path += k, i + 1  # descend along the tree edge v -> i
        unseen[i] = unseen[i + 1]
        order.append(i)
        parent[i] = v
        v, k, end = i, ptr_[i], ptr_[i + 1]
        i = lo_[k]
    del unseen, path  # before pass 2 makes its lists
    pre_a = np.empty(n, dtype=np.intp)
    pre_a[order] = np.arange(n)
    least = np.full(n, n, dtype=np.intp)
    has = ptr[:-1] < ptr[1:]
    least[has] = np.minimum.reduceat(_range_min(pre_a, lo, hi), ptr[:-1][has])
    pre, least = ids[pre_a].tolist(), ids[least].tolist()
    low = pre[:]
    placed = ids[:n + 1].tolist()  # as `unseen`, for the nodes in a component
    pending, comps = [], []
    for x in post:
        l, p = low[x], least[x]
        if p < l:
            w = order[p]
            if placed[w] == w:
                l = p
            else:  # list x's unplaced targets
                for r in range(ptr_[x], ptr_[x + 1]):
                    i = lo_[r]
                    while True:
                        while placed[i] != i:
                            placed[i] = i = placed[placed[i]]
                        if i >= hi_[r]:
                            break
                        l, i = min(l, pre[i]), i + 1
        if l < pre[x]:
            low[parent[x]] = min(low[parent[x]], l)
            pending.append(x)
        else:
            comp = [x]
            while pending and pre[pending[-1]] > pre[x]:
                comp.append(pending.pop())
            for v in comp:
                placed[v] = placed[v + 1]
            comp.sort()
            comps.append(comp)
    return comps


def chain_recurrent_set(g: ChainGraph) -> tuple[int, ...]:
    """Nodes on some graph cycle: members of a nontrivial strongly connected
    component, or nodes with a self-loop."""
    index = g._component_index
    recurrent = np.bincount(index)[index] >= 2
    ptr, start, stop = g.runs
    u = np.repeat(np.arange(g.size), np.diff(ptr))  # each range's source
    recurrent[u[(start <= u) & (u < stop)]] = True
    return tuple(np.flatnonzero(recurrent).tolist())


@dataclass(frozen=True, eq=False)
class TransitivityReport:
    transitive: bool
    counterexample: Optional[tuple[Point, Point]]


def is_chain_transitive(g: ChainGraph) -> TransitivityReport:
    """True iff the chain graph is strongly connected; otherwise returns a
    concrete ordered pair with no connecting chain."""
    index = g._component_index
    if len(g.components) <= 1:  # one component, or no node
        return TransitivityReport(True, None)
    k = index[0]
    # node 0 is Tarjan's first root, so the components completed up to and
    # including its own are exactly the nodes it reaches
    missed = np.flatnonzero(index > k)
    if len(missed):
        return TransitivityReport(False, (g.nodes[0], g.nodes[int(missed[0])]))
    # node 0 reaches every node, so exactly its own component reaches it back
    return TransitivityReport(False, (g.nodes[int(np.argmax(index != k))], g.nodes[0]))


# --- exports ----------------------------------------------------------------

def _edge_rows(g: ChainGraph) -> Iterator[tuple[int, int, int]]:  # (u, v, label) as Python ints
    return itertools.chain.from_iterable(
        zip(itertools.repeat(u), g.out_edges[u].tolist(), g.out_labels[u].tolist()) for u in range(g.size))


def edges_csv(g: ChainGraph, comments: Sequence[str] = ()) -> Iterator[str]:
    return csv_lines("u,v,lambda", _edge_rows(g), comments)


def witness_to_json(w: PseudoOrbitRecord) -> dict:
    return {
        "points": [point_to_json(p) for p in w.points],
        "labels": list(w.selector.entries[:w.steps]),
    }


def graph_to_dot(g: ChainGraph) -> Iterator[str]:
    """The graph in DOT, one chunk per line; the text ends in `}` with no newline."""
    yield "digraph chains {"
    yield from map('\n  n%d -> n%d [label="%d"];'.__mod__, _edge_rows(g))
    yield "\n}"
