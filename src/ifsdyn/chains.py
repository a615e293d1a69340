"""Epsilon-chain analysis on discretized phase spaces.

The chain graph puts one node per grid point and an edge u -> v whenever some
map of the family sends u within epsilon of v. Graph paths are genuine
epsilon-chains (one-sided soundness); completeness holds at the coarser scale
epsilon/2, which the h <= epsilon/4 guard protects.
"""

from __future__ import annotations

import csv
import functools
import json
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
    batch_leaves,
    distance,
    grid,
    leaf_coords,
    leaf_distances,
    leaf_kinds,
    point_to_json,
)

_WITNESS_SLACK = 1e-12
_CHUNK_NODES = 128  # source nodes per block of build_chain_graph; bounds its temporaries


@dataclass(frozen=True, eq=False)
class ChainGraph:
    ifs: IFSSpec
    nodes: tuple[Point, ...]
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

    def has_self_loop(self, i: int) -> bool:
        e = self.out_edges[i]
        pos = np.searchsorted(e, i)
        return pos < len(e) and e[pos] == i

    @functools.cached_property
    def components(self) -> list[list[int]]:
        """Strongly connected components, computed once per graph."""
        return strongly_connected_components(self.out_edges)

    @functools.cached_property
    def _coords(self) -> np.ndarray:
        """Leaf coordinates of the nodes, one row per node, computed once."""
        return _coord_matrix(self.nodes)


def _coord_matrix(nodes: Sequence[Point]) -> np.ndarray:
    return np.asarray([leaf_coords(p) for p in nodes], dtype=float)


def _distances_to_nodes(kinds, coords: np.ndarray, p: Point) -> np.ndarray:
    qs = leaf_coords(p)
    out = leaf_distances(kinds[0], qs[0], coords[:, 0])
    for l in range(1, len(kinds)):
        np.maximum(out, leaf_distances(kinds[l], qs[l], coords[:, l]), out=out)
    return out


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
    nodes = tuple(grid(kind, resolution))
    kinds = leaf_kinds(kind)
    images = np.stack(batch_leaves(ifs.raw_images(kind.batch([kind.encode(p) for p in nodes]))),
                      axis=-1, dtype=float)  # (map, node, leaf)
    # the grid is the product of the leaf grids, first leaf outermost
    axes = [_coord_matrix(grid(k, resolution))[:, 0] for k in kinds]
    strides = [int(np.prod([len(a) for a in axes[l + 1:]])) for l in range(len(axes))]
    windows = [_leaf_windows(k, a, images[..., l], epsilon)
               for l, (k, a) in enumerate(zip(kinds, axes))]
    counts = np.prod([w[1] for w in windows], axis=0)
    out_edges: list[np.ndarray] = []
    out_labels: list[np.ndarray] = []
    for c0 in range(0, len(nodes), _CHUNK_NODES):
        count = counts[c0:c0 + _CHUNK_NODES]
        src = np.repeat(np.arange(c0, c0 + len(count)), count)
        k = np.arange(len(src)) - np.repeat(np.cumsum(count) - count, count)
        targets = np.zeros(len(src), dtype=np.intp)
        dmat = np.zeros((ifs.nmaps, len(src)))  # max over leaves; distances are >= 0
        # last leaf varies fastest, so each node's targets come out ascending
        for l in reversed(range(len(kinds))):
            start, width, wrapped = (w[src] for w in windows[l])
            k, kl = np.divmod(k, width)
            idx = np.where(kl < wrapped, kl, start + kl - wrapped)
            targets += idx * strides[l]
            for lam in range(ifs.nmaps):
                np.maximum(dmat[lam], leaf_distances(kinds[l], images[lam, src, l], axes[l][idx]),
                           out=dmat[lam])
        keep = dmat.min(axis=0) <= epsilon
        cuts = np.cumsum(np.bincount(src[keep] - c0, minlength=len(count)))[:-1]
        out_edges += np.split(targets[keep], cuts)
        out_labels += np.split(dmat.argmin(axis=0)[keep], cuts)
    return ChainGraph(ifs, nodes, epsilon, resolution,
                      tuple(out_edges), tuple(out_labels))


def snap_to_node(g: ChainGraph, p: Point) -> tuple[int, float]:
    """Nearest grid node and its distance."""
    kinds = leaf_kinds(g.ifs.space)
    d = _distances_to_nodes(kinds, g._coords, p)
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


def _edge_label(g: ChainGraph, u: int, v: int) -> int:
    e = g.out_edges[u]
    pos = int(np.searchsorted(e, v))
    return int(g.out_labels[u][pos])


def _bfs(out_edges: Sequence[np.ndarray], start: int) -> np.ndarray:
    """Breadth-first search from `start`, one level per step. Returns each
    node's parent (-1 if unreached); parents and visit order match a FIFO
    queue that scans edges in stored order. `start` is expanded but not
    marked, so it gets a parent only if some path of >= 1 step returns to it."""
    parent = np.full(len(out_edges), -1, dtype=np.intp)
    frontier = np.array([start], dtype=np.intp)
    while len(frontier):
        edges = [out_edges[u] for u in frontier]
        targets = np.concatenate(edges)
        sources = np.repeat(frontier, [len(e) for e in edges])
        unseen = parent[targets] == -1
        targets, sources = targets[unseen], sources[unseen]
        first = np.sort(np.unique(targets, return_index=True)[1])
        frontier = targets[first]
        parent[frontier] = sources[first]
    return parent


def find_chain(g: ChainGraph, x: Point, y: Point) -> ChainSearchResult:
    """Shortest chain between the grid nodes nearest x and y (>= 1 step, so
    x = y asks for a cycle). The witness is re-validated against the raw
    maps, not the graph."""
    src, snap_from = snap_to_node(g, x)
    dst, snap_to = snap_to_node(g, y)
    parent = _bfs(g.out_edges, src)
    if parent[dst] == -1:
        reachable = tuple(int(v) for v in np.flatnonzero(parent != -1))
        return ChainSearchResult(False, None, snap_from, snap_to, reachable)
    path = [dst]
    while True:
        prev = int(parent[path[-1]])
        path.append(prev)
        if prev == src:
            break
    path.reverse()
    labels = tuple(_edge_label(g, u, v) for u, v in zip(path, path[1:]))
    witness = ChainWitness(tuple(g.nodes[i] for i in path), labels)
    if not validate_witness(g.ifs, witness, g.epsilon):
        raise IFSError("graph path failed raw-map re-validation")
    return ChainSearchResult(True, witness, snap_from, snap_to, None)


def strongly_connected_components(out_edges: Sequence[np.ndarray]) -> list[list[int]]:
    """Iterative Tarjan over nodes in ascending order (deterministic)."""
    n = len(out_edges)
    index = [-1] * n
    low = [0] * n
    on_stack = [False] * n
    stack: list[int] = []
    comps: list[list[int]] = []
    counter = 0
    for root in range(n):
        if index[root] != -1:
            continue
        work = [(root, 0)]
        while work:
            v, pi = work[-1]
            if pi == 0:
                index[v] = low[v] = counter
                counter += 1
                stack.append(v)
                on_stack[v] = True
            advanced = False
            edges = out_edges[v]
            while pi < len(edges):
                w = int(edges[pi])
                pi += 1
                if index[w] == -1:
                    work[-1] = (v, pi)
                    work.append((w, 0))
                    advanced = True
                    break
                if on_stack[w]:
                    low[v] = min(low[v], index[w])
            if advanced:
                continue
            work.pop()
            if low[v] == index[v]:
                comp = []
                while True:
                    w = stack.pop()
                    on_stack[w] = False
                    comp.append(w)
                    if w == v:
                        break
                comps.append(sorted(comp))
            if work:
                u, _ = work[-1]
                low[u] = min(low[u], low[v])
    return comps


def chain_recurrent_set(g: ChainGraph) -> tuple[int, ...]:
    """Nodes on some graph cycle: members of a nontrivial strongly connected
    component, or nodes with a self-loop."""
    recurrent = set()
    for comp in g.components:
        if len(comp) >= 2:
            recurrent.update(comp)
    for i in range(g.size):
        if g.has_self_loop(i):
            recurrent.add(i)
    return tuple(sorted(recurrent))


@dataclass(frozen=True, eq=False)
class TransitivityReport:
    transitive: bool
    counterexample: Optional[tuple[Point, Point]]


def is_chain_transitive(g: ChainGraph) -> TransitivityReport:
    """True iff the chain graph is strongly connected; otherwise returns a
    concrete ordered pair with no connecting chain."""
    home = next(c for c in g.components if c[0] == 0)  # components are sorted
    if len(home) == g.size:
        return TransitivityReport(True, None)
    reached = _bfs(g.out_edges, 0) != -1
    reached[0] = True
    if not reached.all():
        v = int(np.argmin(reached))
        return TransitivityReport(False, (g.nodes[0], g.nodes[v]))
    # node 0 reaches every node, so exactly its own component reaches it back
    w = min(set(range(g.size)) - set(home))
    return TransitivityReport(False, (g.nodes[w], g.nodes[0]))


# --- exports ----------------------------------------------------------------

def edges_to_csv(g: ChainGraph, path, comments: Sequence[str] = ()) -> None:
    with Path(path).open("w", newline="") as fh:
        for c in comments:
            fh.write(f"# {c}\n")
        writer = csv.writer(fh)
        writer.writerow(["u", "v", "lambda"])
        for u in range(g.size):
            for v, lam in zip(g.out_edges[u], g.out_labels[u]):
                writer.writerow([u, int(v), int(lam)])


def witness_to_json(w: ChainWitness) -> dict:
    return {
        "points": [point_to_json(p) for p in w.points],
        "labels": list(w.labels),
    }


def witness_to_json_file(w: ChainWitness, path) -> None:
    Path(path).write_text(json.dumps(witness_to_json(w), indent=2))


def graph_to_dot(g: ChainGraph) -> str:
    lines = ["digraph chains {"]
    for u in range(g.size):
        for v, lam in zip(g.out_edges[u], g.out_labels[u]):
            lines.append(f'  n{u} -> n{int(v)} [label="{int(lam)}"];')
    lines.append("}")
    return "\n".join(lines)
