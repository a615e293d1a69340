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
equal those of comparing every pair of nodes. An edge's label, the first map
of least distance, is computed from the map images when it is read.

A continuous map sends a cell to a connected set, so a node's targets are a
few index ranges (`ChainGraph.runs`: 23,347 hold the 3,128,868 edges of the
12,801-node `interval_pair` graph), which the builder's rows give.
`find_chain` searches breadth-first on ranges, keeping the parents and visit
order of a FIFO queue, and stops at the target; self-loops are the ranges
that hold their own source.

Nodes are held as the raw grid batch itself (a `RawPoints` view). A witness
is a `PseudoOrbitRecord` with step errors <= epsilon whose points view that
batch along the path, so a `Point` is decoded only for counterexamples.
Strongly connected components come from Tarjan's algorithm with one numpy
gather per visit of a node.
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
_CHUNK_NODES = 128  # source nodes per block of build_chain_graph; bounds its temporaries
_CHUNK_ROWS = 2**15  # box rows build_chain_graph cuts at once, unless one block has more


@dataclass(frozen=True, eq=False)
class ChainGraph:
    ifs: IFSSpec
    nodes: RawPoints
    epsilon: float
    resolution: float
    out_edges: tuple[np.ndarray, ...]  # per node, ascending target indices
    out_labels: Sequence[np.ndarray]   # matching argmin map index per edge, in the least uint dtype

    @property
    def size(self) -> int:
        return len(self.nodes)

    @property
    def edge_count(self) -> int:
        return sum(len(e) for e in self.out_edges)

    @functools.cached_property
    def components(self) -> list[list[int]]:
        """Strongly connected components, computed once per graph."""
        return strongly_connected_components(self.out_edges)

    @functools.cached_property
    def runs(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(ptr, start, stop): node u's targets are the ranges start[k], ...,
        stop[k] - 1 for k in ptr[u], ..., ptr[u + 1] - 1, disjoint, ascending
        and maximal. `build_chain_graph` fills this from its rows."""
        return _runs_of(self.out_edges)


@dataclass(frozen=True, eq=False)
class _EdgeLabels(Sequence):
    """`ChainGraph.out_labels` of a built graph, read-only and computed on
    each read: node u's are, per target, the first map of least distance
    from u's image."""

    nodes: RawPoints
    images: object  # `raw_images` of the node batch: per leaf, (map, node)
    out_edges: tuple[np.ndarray, ...]

    def __len__(self) -> int:
        return len(self.out_edges)

    def __getitem__(self, u: int) -> np.ndarray:
        targets = self.out_edges[u]
        # a[:, u, None], not a[:, u:u + 1]: for u = -1 that slice is empty
        dists = self.nodes.kind.dists(leafwise(lambda a: a[:, u, None], self.images),
                                      leafwise(lambda a: a[targets], self.nodes.raws))
        return dists.argmin(axis=0).astype(np.min_scalar_type(len(dists) - 1))


def _runs_of(out_edges: Sequence[np.ndarray]) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The maximal ranges of consecutive targets in each ascending out-list."""
    lengths = np.fromiter(map(len, out_edges), dtype=np.intp, count=len(out_edges))
    targets = np.concatenate([np.empty(0, dtype=np.intp), *out_edges])
    firsts = np.cumsum(lengths) - lengths  # where each node's targets start
    head = np.diff(targets, prepend=-2) != 1
    head[firsts[lengths > 0]] = True
    at = np.flatnonzero(head)
    ptr = np.searchsorted(at, np.append(firsts, len(targets)))
    return ptr, targets[at], targets[np.append(at, len(targets))[1:] - 1] + 1


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
    image of u lies within `epsilon` of v. The graph computes an edge's
    label (the closest map, the first on ties) when it is read.

    The targets of u under one map form a box: the product of that map's
    exact leaf windows (`_leaf_windows`, which evaluates the metric only at
    the ends of each window). The targets of u are the union of its maps'
    boxes, in ascending order, so the edges equal those of comparing every
    pair of nodes, at O(edges) cost. Blocks of source nodes bound the
    temporaries. The rows that add targets (see `_rows`), joined where they
    touch, are the graph's `runs`, stored with it so that it never derives
    them."""
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
    # rows for many blocks at once, up to _CHUNK_ROWS of them (a wrapped range makes two)
    span = _CHUNK_NODES * max(1, _CHUNK_ROWS // (2 * int(count.sum(axis=0).max()) * _CHUNK_NODES))
    out_edges: list[np.ndarray] = []
    ptr, run_start, run_stop = [np.zeros(1, dtype=np.intp)], [], []  # the graph's ranges, per span
    for s0 in range(0, size, span):
        key, end = _rows(windows, count, sizes, strides, slice(s0, s0 + span))
        # each row adds the targets that no earlier row holds
        reach = np.maximum.accumulate(end)
        first = key.copy()
        np.maximum(key[1:], reach[:-1], out=first[1:])
        added = np.maximum(end - first, 0)
        place = np.append(0, np.cumsum(added))  # where each row's targets start
        row_of = np.searchsorted(key, np.arange(s0, min(s0 + span, size) + 1) * size)  # node s0 + i starts row_of[i]
        target = first % size
        # a row's added targets are one range, which joins the range before
        # unless a gap parts them or the row is its node's first (each node
        # has rows, and a row after a gap adds targets)
        head = np.empty(len(key), dtype=bool)
        np.greater(key[1:], reach[:-1], out=head[1:])
        head[row_of[:-1]] = True
        heads = np.flatnonzero(head)
        ptr.append(np.searchsorted(heads, row_of[1:]) + ptr[-1][-1])
        run_start.append(target[heads])
        run_stop.append(run_start[-1] + np.diff(place[np.append(heads, len(key))]))
        for c0 in range(0, len(row_of) - 1, _CHUNK_NODES):  # one block of source nodes at a time
            rows = row_of[c0:c0 + _CHUNK_NODES + 1]
            r0, r1 = rows[0], rows[-1]
            targets = _ranges(target[r0:r1], added[r0:r1])
            cuts = (place[rows] - place[r0]).tolist()
            out_edges += [targets[a:b] for a, b in zip(cuts, cuts[1:])]
    nodes, edges = RawPoints(kind, batch), tuple(out_edges)
    g = ChainGraph(ifs, nodes, epsilon, resolution, edges, _EdgeLabels(nodes, images, edges))
    vars(g)["runs"] = tuple(map(np.concatenate, (ptr, run_start, run_stop)))
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
    """Iterative Tarjan over nodes in ascending order, scanning each node's
    edges in stored order (deterministic); components come out in the order
    Tarjan completes them, each sorted.

    Each visit of a node gathers `rank` over its edges not yet scanned, where
    rank is -1 for unvisited nodes, the DFS index while a node is on the
    stack and n once its component is emitted. The first -1 is the next tree
    edge, since every earlier target is visited; the minimum over the targets
    before it is the low-link update, as emitted nodes rank above every
    index."""
    n = len(out_edges)
    rank = np.full(n, -1, dtype=np.intp)
    stack: list[int] = []
    comps: list[list[int]] = []
    counter = 0
    for root in range(n):
        if rank[root] != -1:
            continue
        rank[root] = counter
        work = [[root, counter, 0, counter, 0]]  # node, index, next edge, low, stack position
        stack.append(root)
        counter += 1
        while work:
            frame = work[-1]
            v, index, pi, low, base = frame
            edges = out_edges[v]
            r = rank[edges[pi:]]
            if len(r):
                j = int(r.argmin())
                if r[j] == -1:  # descend along the tree edge v -> w
                    if j:
                        low = min(low, int(r[:j].min()))
                    frame[2], frame[3] = pi + j + 1, low
                    w = int(edges[pi + j])
                    rank[w] = counter
                    work.append([w, counter, 0, counter, len(stack)])
                    stack.append(w)
                    counter += 1
                    continue
                low = min(low, int(r[j]))
            work.pop()
            if low == index:  # v roots a component: pop it off the stack
                if base == len(stack) - 1:  # one node, the common case: scalar writes
                    comps.append([stack.pop()])
                    rank[v] = n
                else:
                    comp = stack[base:]
                    del stack[base:]
                    rank[comp] = n
                    comps.append(sorted(comp))
            else:
                work[-1][3] = min(work[-1][3], low)
    return comps


def chain_recurrent_set(g: ChainGraph) -> tuple[int, ...]:
    """Nodes on some graph cycle: members of a nontrivial strongly connected
    component, or nodes with a self-loop."""
    recurrent = {v for comp in g.components if len(comp) >= 2 for v in comp}
    ptr, start, stop = g.runs
    u = np.repeat(np.arange(g.size), np.diff(ptr))  # each range's source
    recurrent.update(u[(start <= u) & (u < stop)].tolist())
    return tuple(sorted(recurrent))


@dataclass(frozen=True, eq=False)
class TransitivityReport:
    transitive: bool
    counterexample: Optional[tuple[Point, Point]]


def is_chain_transitive(g: ChainGraph) -> TransitivityReport:
    """True iff the chain graph is strongly connected; otherwise returns a
    concrete ordered pair with no connecting chain."""
    comps = g.components
    # node 0 is Tarjan's first root, so the components completed up to and
    # including its own are exactly the nodes it reaches
    k = next(i for i, c in enumerate(comps) if c[0] == 0)  # components are sorted
    if len(comps[k]) == g.size:
        return TransitivityReport(True, None)
    reached = {v for c in comps[:k + 1] for v in c}
    if len(reached) < g.size:
        return TransitivityReport(False, (g.nodes[0], g.nodes[min(set(range(g.size)) - reached)]))
    # node 0 reaches every node, so exactly its own component reaches it back
    w = min(set(range(g.size)) - set(comps[k]))
    return TransitivityReport(False, (g.nodes[w], g.nodes[0]))


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
