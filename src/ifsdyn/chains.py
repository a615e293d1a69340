"""Epsilon-chain analysis on discretized phase spaces.

The chain graph puts one node per grid point and an edge u -> v whenever some
map of the family sends u within epsilon of v. Graph paths are genuine
epsilon-chains (one-sided soundness); completeness holds at the coarser scale
epsilon/2, which the h <= epsilon/4 guard protects.

Nodes are held as raw grid coordinates (`RawPoints`); a `Point` is decoded
only for witnesses and counterexamples. Strongly connected components come
from Tarjan's algorithm with one numpy gather per visit of a node, and
`find_chain` stops its breadth-first search at the target.
"""

from __future__ import annotations

import csv
import functools
from dataclasses import dataclass
from pathlib import Path
from typing import Optional, Sequence

import numpy as np

from .core import IFSSpec, apply
from .errors import DomainError, GuardError, IFSError
from .spaces import (
    Circle,
    FiniteDiscrete,
    Point,
    RawPoints,
    batch_leaves,
    distance,
    grid_batch,
    leaf_kinds,
    point_to_json,
    unbatch,
)

_WITNESS_SLACK = 1e-12
_CHUNK_NODES = 128  # source nodes per block of build_chain_graph; bounds its temporaries


@dataclass(frozen=True, eq=False)
class ChainGraph:
    ifs: IFSSpec
    nodes: RawPoints
    epsilon: float
    resolution: float
    out_edges: tuple[np.ndarray, ...]   # per node, ascending target indices
    out_labels: tuple[np.ndarray, ...]  # matching argmin map index per edge

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


def _leaf_windows(kind, axis: np.ndarray, q: np.ndarray, epsilon: float):
    """Per source node, the indices of one leaf's grid `axis` that may lie
    within epsilon of that leaf's coordinate q[map, node] of some map image:
    a cyclic index range given as (start, width, how many indices wrap to 0).
    The range is padded by one index on each side, so float rounding can add
    candidates but never drop one."""
    n = len(axis)
    # under the 0/1 metric of a finite space, epsilon >= 1 reaches every point
    reach = np.inf if isinstance(kind, FiniteDiscrete) and epsilon >= 1 else epsilon
    if isinstance(kind, Circle):
        axis = np.concatenate([axis - 1.0, axis, axis + 1.0])
    lo = np.clip(np.searchsorted(axis, q - reach).min(axis=0) - 1, 0, len(axis))
    hi = np.clip(np.searchsorted(axis, q + reach, side="right").max(axis=0) + 1, 0, len(axis))
    width = np.minimum(hi - lo, n)
    start = lo % n
    return start, width, np.maximum(start + width - n, 0)


def build_chain_graph(ifs: IFSSpec, resolution: float, epsilon: float) -> ChainGraph:
    """Discretize the space at `resolution` and connect u -> v when some map
    image of u lies within `epsilon` of v (edge label = the closest map).

    Only nodes inside per-leaf windows around the images of u are candidates,
    and each candidate is checked with the metric itself, so the edges and
    labels equal those of comparing every pair of nodes, at O(edges) cost."""
    if epsilon <= 0:
        raise DomainError("epsilon must be positive")
    if resolution > epsilon / 4 + 1e-15:
        raise GuardError(f"grid resolution {resolution} exceeds epsilon/4 = {epsilon / 4}")
    kind = ifs.space
    batch = grid_batch(kind, resolution)
    kinds = leaf_kinds(kind)
    images = np.stack(batch_leaves(ifs.raw_images(batch)), axis=-1, dtype=float)  # (map, node, leaf)
    # the grid is the product of the leaf grids, first leaf outermost
    axes = [np.asarray(grid_batch(k, resolution), dtype=float) for k in kinds]
    strides = [int(np.prod([len(a) for a in axes[l + 1:]])) for l in range(len(axes))]
    windows = [_leaf_windows(k, a, images[..., l], epsilon)
               for l, (k, a) in enumerate(zip(kinds, axes))]
    counts = np.prod([w[1] for w in windows], axis=0)
    out_edges: list[np.ndarray] = []
    out_labels: list[np.ndarray] = []
    for c0 in range(0, len(counts), _CHUNK_NODES):
        rows = slice(c0, c0 + _CHUNK_NODES)
        count = counts[rows]
        ends = np.cumsum(count)
        k = np.arange(ends[-1]) - np.repeat(ends - count, count)  # candidate's place in its window
        # last leaf varies fastest, so each node's targets come out ascending
        targets, target_coords = None, []
        for l in reversed(range(len(kinds))):
            start, width, wrapped = (w[rows] for w in windows[l])
            if l:
                k, kl = np.divmod(k, np.repeat(width, count))
            else:  # what the inner leaves leave of k indexes the first leaf
                kl = k
            idx = kl + np.repeat(start, count)
            if wrapped.any():
                wrapped = np.repeat(wrapped, count)
                idx = np.where(kl < wrapped, kl, idx - wrapped)
            targets = idx if targets is None else targets + idx * strides[l]
            target_coords.append((l, axes[l][idx]))
        # distance to the closest map image, and that map (the first on ties)
        for lam in range(ifs.nmaps):
            d = functools.reduce(np.maximum, (
                kinds[l].dists(coords, np.repeat(images[lam, rows, l], count))
                for l, coords in target_coords))
            if lam == 0:
                best, label = d, np.zeros(len(d), dtype=np.intp)
            else:
                label[d < best] = lam
                np.minimum(best, d, out=best)
        keep = best <= epsilon
        targets, label = targets[keep], label[keep]
        cuts = [0, *np.cumsum(keep)[ends - 1].tolist()]  # every window holds >= 1 index
        out_edges += [targets[a:b] for a, b in zip(cuts, cuts[1:])]
        out_labels += [label[a:b] for a, b in zip(cuts, cuts[1:])]
    return ChainGraph(ifs, RawPoints(kind, unbatch(batch)), epsilon, resolution,
                      tuple(out_edges), tuple(out_labels))


def snap_to_node(g: ChainGraph, p: Point) -> tuple[int, float]:
    """Nearest grid node and its distance."""
    kind = g.ifs.space
    d = kind.dists(kind.batch(g.nodes.raws), kind.encode(p))
    i = int(np.argmin(d))
    return i, float(d[i])


@dataclass(frozen=True)
class ChainWitness:
    """A validated epsilon-chain over grid nodes."""

    points: tuple[Point, ...]
    labels: tuple[int, ...]


def validate_witness(ifs: IFSSpec, w: ChainWitness, epsilon: float) -> bool:
    if len(w.points) != len(w.labels) + 1 or len(w.labels) < 1:
        return False
    return all(
        distance(apply(ifs, lam, a), b) <= epsilon + _WITNESS_SLACK
        for a, b, lam in zip(w.points, w.points[1:], w.labels)
    )


@dataclass(frozen=True, eq=False)
class ChainSearchResult:
    found: bool
    witness: Optional[ChainWitness]
    snap_from: float
    snap_to: float
    reachable: Optional[tuple[int, ...]]  # diagnostic frontier when not found


def _bfs(out_edges: Sequence[np.ndarray], start: int, stop: int) -> np.ndarray:
    """Breadth-first search from `start`, one level per step, until `stop`
    is reached. Returns each node's parent (-1 if unreached); parents and
    visit order match a FIFO queue that scans edges in stored order. `start`
    is expanded but not marked, so it gets a parent only if some path of >= 1
    step returns to it."""
    parent = np.full(len(out_edges), -1, dtype=np.intp)
    first = np.full(len(out_edges), np.iinfo(np.intp).max)  # a target's first place in its level
    frontier = np.array([start], dtype=np.intp)
    while len(frontier) and parent[stop] == -1:
        edges = [out_edges[u] for u in frontier]
        targets = np.concatenate(edges)
        sources = np.repeat(frontier, [len(e) for e in edges])
        unseen = parent[targets] == -1
        targets, sources = targets[unseen], sources[unseen]
        place = np.arange(len(targets))
        np.minimum.at(first, targets, place)
        new = first[targets] == place
        frontier = targets[new]
        parent[frontier] = sources[new]
    return parent


def find_chain(g: ChainGraph, x: Point, y: Point) -> ChainSearchResult:
    """Shortest chain between the grid nodes nearest x and y (>= 1 step, so
    x = y asks for a cycle). The witness is re-validated against the raw
    maps, not the graph."""
    src, snap_from = snap_to_node(g, x)
    dst, snap_to = snap_to_node(g, y)
    parent = _bfs(g.out_edges, src, dst)
    if parent[dst] == -1:
        reachable = tuple(int(v) for v in np.flatnonzero(parent != -1))
        return ChainSearchResult(False, None, snap_from, snap_to, reachable)
    path = [dst, int(parent[dst])]
    while path[-1] != src:
        path.append(int(parent[path[-1]]))
    path.reverse()
    labels = tuple(int(g.out_labels[u][np.searchsorted(g.out_edges[u], v)])
                   for u, v in zip(path, path[1:]))
    witness = ChainWitness(tuple(g.nodes[i] for i in path), labels)
    if not validate_witness(g.ifs, witness, g.epsilon):
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
    for c0 in range(0, g.size, _CHUNK_NODES):  # self-loops, one block of sources at a time
        edges = g.out_edges[c0:c0 + _CHUNK_NODES]
        sources = np.repeat(np.arange(c0, c0 + len(edges)), [len(e) for e in edges])
        recurrent.update(sources[np.concatenate(edges) == sources].tolist())
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

def edges_to_csv(g: ChainGraph, path, comments: Sequence[str] = ()) -> None:
    with Path(path).open("w", newline="") as fh:
        for c in comments:
            fh.write(f"# {c}\n")
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["u", "v", "lambda"])
        for u in range(g.size):
            for v, lam in zip(g.out_edges[u], g.out_labels[u]):
                writer.writerow([u, int(v), int(lam)])


def witness_to_json(w: ChainWitness) -> dict:
    return {
        "points": [point_to_json(p) for p in w.points],
        "labels": list(w.labels),
    }


def graph_to_dot(g: ChainGraph) -> str:
    lines = ["digraph chains {"]
    for u in range(g.size):
        for v, lam in zip(g.out_edges[u], g.out_labels[u]):
            lines.append(f'  n{u} -> n{int(v)} [label="{int(lam)}"];')
    lines.append("}")
    return "\n".join(lines)
