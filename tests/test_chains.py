import math
import tracemalloc
from collections import deque

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import ifsdyn.chains
from ifsdyn import (
    Circle,
    DomainError,
    FiniteDiscrete,
    GuardError,
    IFSSpec,
    Interval,
    MapDef,
    RawPoints,
    UnsupportedKindError,
    apply,
    backward_branch,
    build_chain_graph,
    chain_recurrent_set,
    distance,
    dyadic_block_sequence,
    dyadic_seam_indices,
    find_chain,
    grid,
    is_chain_transitive,
    make_system,
    point,
    power_ifs,
    product_ifs,
    sample_point,
    snap_to_node,
    validate_witness,
)
from ifsdyn.chains import ChainGraph, graph_to_dot, strongly_connected_components
from ifsdyn.core import PseudoOrbitRecord, SelectorSequence
from ifsdyn.spaces import grid_batch

UNIT = Interval(0.0, 1.0)


def identity_ifs():
    return IFSSpec(UNIT, (MapDef("id", "identity"),), surjective_flags=(True,))


def halving_ifs():
    return IFSSpec(UNIT, (MapDef("half", "affine", (0.5, 0.0)),),
                   claimed_contraction=0.5)


def test_guard_and_unsupported():
    with pytest.raises(GuardError):
        build_chain_graph(identity_ifs(), 0.01, 0.02)  # h > eps/4
    for eps, h in ((0.0, 0.001), (-0.1, 0.001), (math.nan, 0.001), (0.02, math.nan), (0.02, 0.0)):
        with pytest.raises(DomainError):
            build_chain_graph(identity_ifs(), h, eps)
    s2 = make_system("sigma2_prepend")
    with pytest.raises(UnsupportedKindError):
        build_chain_graph(s2, 0.001, 0.01)


def test_identity_self_loops_and_out_degree():
    g = build_chain_graph(identity_ifs(), 0.01, 0.05)
    assert all(i in g.out_edges[i] for i in range(g.size))
    assert all(len(g.out_edges[i]) >= 1 for i in range(g.size))


def test_halving_edges():
    g = build_chain_graph(halving_ifs(), 0.002, 0.01)
    # image of node 1.0 is 0.5: edges into [0.49, 0.51] only
    i_one = g.size - 1
    targets = [g.nodes[v].value for v in g.out_edges[i_one]]
    assert all(abs(t - 0.5) <= 0.01 + 1e-12 for t in targets)
    assert targets  # nonempty
    # node 0 maps to 0: no edge beyond 0.01
    targets0 = [g.nodes[v].value for v in g.out_edges[0]]
    assert all(t <= 0.01 + 1e-12 for t in targets0)


def test_find_chain_self_loop_cycle():
    g = build_chain_graph(identity_ifs(), 0.01, 0.05)
    x = point(UNIT, 0.5)
    res = find_chain(g, x, x)
    assert res.found
    assert len(res.witness.points) == 2
    assert res.witness.points[0] == res.witness.points[1]
    assert res.snap_from <= 0.01


def test_find_chain_halving():
    g = build_chain_graph(halving_ifs(), 0.002, 0.01)
    down = find_chain(g, point(UNIT, 1.0), point(UNIT, 0.0))
    assert down.found
    assert validate_witness(g.ifs, down.witness, 0.01)
    up = find_chain(g, point(UNIT, 0.0), point(UNIT, 1.0))
    assert not up.found
    # reachable set from 0 is trapped below the fixed point of r -> r/2 + eps
    reach_max = max(g.nodes[i].value for i in up.reachable)
    assert reach_max <= 2 * 0.01 + 1e-12


def test_find_chain_interval_pair():
    pair = make_system("interval_pair")
    g = build_chain_graph(pair, 0.0025, 0.01)
    right = find_chain(g, point(UNIT, 0.1), point(UNIT, 0.9))
    assert right.found
    assert validate_witness(pair, right.witness, 0.01)
    left = find_chain(g, point(UNIT, 0.9), point(UNIT, 0.1))
    assert not left.found
    # leftward passage is blocked where the slower map still moves right
    # by more than eps
    us = np.linspace(0.15, 0.35, 200)
    gaps = [min(apply(pair, lam, point(UNIT, u)).value - u for lam in range(2)) for u in us]
    assert max(gaps) > 0.01


def test_snap_and_find_chain_refuse_a_point_of_another_space():
    """As `apply` does: a point of [0, 2] on a graph of [0, 1] has no nearest
    node, nor has a circle point on a graph of the circle squared."""
    unit = build_chain_graph(halving_ifs(), 0.05, 0.2)
    cp = make_system("circle_pair")
    square = build_chain_graph(product_ifs(cp, cp), 1 / 16, 0.25)
    message = "^point does not belong to the IFS space$"
    for g, p in ((unit, point(Interval(0.0, 2.0), 0.3)), (square, point(Circle(), 0.3))):
        with pytest.raises(DomainError, match=message):
            snap_to_node(g, p)
        with pytest.raises(DomainError, match=message):
            find_chain(g, g.nodes[0], p)
    with pytest.raises(DomainError, match=message):
        find_chain(unit, point(Interval(0.0, 2.0), 1.7), point(UNIT, 0.5))


def test_witness_labels_out_of_range_raise_after_good_steps():
    """Steps are checked in one batch call, in the order a step-by-step
    check meets them: a label out of range raises the DomainError of
    `apply`, unless an earlier step already fails."""
    half = halving_ifs()
    pts = tuple(point(UNIT, v) for v in (0.8, 0.4, 0.2))

    def chain(points, labels):  # unchecked, as a caller may build one
        return PseudoOrbitRecord(points, SelectorSequence(labels), None)

    assert validate_witness(half, chain(pts, (0, 0)), 1e-12)
    assert not validate_witness(half, chain(pts[::-1], (0, 0)), 0.1)
    for bad in (1, -1):
        with pytest.raises(DomainError, match=f"map index {bad} out of range for 1 maps"):
            validate_witness(half, chain(pts, (0, bad)), 0.01)
        assert not validate_witness(half, chain(pts[::-1], (0, bad)), 0.01)
    assert validate_witness(half, chain(pts[:1], ()), 1.0) is False  # no step
    assert validate_witness(half, chain(pts, (0,)), 1.0) is False  # fewer labels than steps


def test_dot_export_is_the_joined_edge_lines():
    g = build_chain_graph(make_system("interval_pair"), 0.0125, 0.05)
    old = ["digraph chains {"] + [f'  n{u} -> n{int(v)} [label="{int(lam)}"];' for u in range(g.size)
                                  for v, lam in zip(g.out_edges[u], g.out_labels[u])] + ["}"]
    chunks = list(graph_to_dot(g))
    assert "".join(chunks) == "\n".join(old) and len(chunks) == g.edge_count + 2


def test_chain_recurrent_identity_all():
    g = build_chain_graph(identity_ifs(), 0.01, 0.05)
    assert chain_recurrent_set(g) == tuple(range(g.size))


def test_chain_recurrent_halving():
    eps = 0.01
    g = build_chain_graph(halving_ifs(), 0.002, eps)
    rec = chain_recurrent_set(g)
    values = [g.nodes[i].value for i in rec]
    # reachability fixed point of r -> r/2 + eps is 2*eps
    assert values
    assert max(values) <= 2 * eps + 1e-12
    grid_vals = [p.value for p in g.nodes]
    expected = [i for i, v in enumerate(grid_vals) if v <= 2 * eps + 1e-12]
    assert list(rec) == expected


def test_transitive_identity_vs_halving():
    g = build_chain_graph(identity_ifs(), 0.01, 0.05)
    rep = is_chain_transitive(g)
    assert rep.transitive
    g2 = build_chain_graph(halving_ifs(), 0.002, 0.01)
    rep2 = is_chain_transitive(g2)
    assert not rep2.transitive
    a, b = rep2.counterexample
    res = find_chain(g2, a, b)
    assert not res.found


def test_interval_pair_transitivity_across_the_drift():
    """The pair blocks leftward chains below its largest drift
    eps* = 1/16 and opens them above it; a grid of eps/16 keeps node
    spacing from deciding the answer near the threshold."""
    pair = make_system("interval_pair")
    got = {eps: is_chain_transitive(build_chain_graph(pair, eps / 16, eps)).transitive
           for eps in (0.005, 0.02, 0.08)}
    assert got == {0.005: False, 0.02: False, 0.08: True}


def test_edge_monotonicity_in_epsilon():
    pair = make_system("interval_pair")
    h = 0.005
    for eps_lo, eps_hi in [(0.02, 0.03), (0.03, 0.05), (0.02, 0.05)]:
        g_lo = build_chain_graph(pair, h, eps_lo)
        g_hi = build_chain_graph(pair, h, eps_hi)
        for u in range(g_lo.size):
            assert set(g_lo.out_edges[u].tolist()) <= set(g_hi.out_edges[u].tolist())
        cr_lo = set(chain_recurrent_set(g_lo))
        cr_hi = set(chain_recurrent_set(g_hi))
        assert cr_lo <= cr_hi


def test_witness_soundness_random_queries():
    pair = make_system("circle_pair")
    g = build_chain_graph(pair, 1 / 128, 0.06)
    rng = np.random.default_rng(9)
    for _ in range(20):
        x = point(Circle(), rng.random())
        y = point(Circle(), rng.random())
        res = find_chain(g, x, y)
        assert res.found
        for a, b, lam in zip(res.witness.points, res.witness.points[1:], res.witness.selector.entries):
            assert distance(apply(pair, lam, a), b) <= 0.06 + 1e-12


def test_interval_pair_invariance():
    pair = make_system("interval_pair")
    for i in range(10_001):
        u = i / 10_000
        p = point(UNIT, u)
        for lam in range(2):
            v = apply(pair, lam, p).value
            if u <= 0.5:
                assert v <= 0.5 + 1e-12
            if u >= 0.5:
                assert v >= 0.5 - 1e-12


def test_dyadic_steps_are_graph_edges():
    cp = make_system("circle_pair")
    h = 1 / 128
    eps = 4 * h
    g = build_chain_graph(cp, h, eps)
    x = point(Circle(), 0.2)
    y = point(Circle(), 0.9)
    branch = backward_branch(cp, 1, y, 2 ** 4)
    rec = dyadic_block_sequence(cp, 1, x, y, branch, 5)
    seams = set(dyadic_seam_indices(5))
    for i in range(rec.steps):
        if i in seams:
            continue
        u, _ = snap_to_node(g, rec.points[i])
        v, _ = snap_to_node(g, rec.points[i + 1])
        assert v in g.out_edges[u].tolist()


# --- graphs, BFS and transitivity against reference implementations ----------

def all_pairs_graph(ifs, resolution, epsilon):
    """(out_edges, out_labels) from comparing every map image of every node
    with every node: the definition build_chain_graph must reproduce."""
    kind = ifs.space
    nodes = grid(kind, resolution)
    batch = kind.batch([kind.encode(p) for p in nodes])
    out_edges, out_labels = [], []
    for node in nodes:
        dmat = np.stack([kind.dists(batch, kind.encode(apply(ifs, lam, node)))
                         for lam in range(ifs.nmaps)])
        targets = np.nonzero(dmat.min(axis=0) <= epsilon)[0]
        out_edges.append(targets)
        out_labels.append(dmat.argmin(axis=0)[targets])
    return out_edges, out_labels


def tarjan_oracle(out_edges):
    """Iterative Tarjan that scans one edge at a time, roots in ascending
    order: the components, in the order they complete, each sorted."""
    n = len(out_edges)
    index = [-1] * n
    low = [0] * n
    on_stack = [False] * n
    stack, comps = [], []
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


def bfs_oracle(out_edges, src):
    """Parents from a FIFO-queue BFS; src is expanded but not marked."""
    parent = {}
    queue = deque([src])
    while queue:
        u = queue.popleft()
        for v in out_edges[u]:
            v = int(v)
            if v not in parent:
                parent[v] = u
                queue.append(v)
    return parent


def find_chain_oracle(g, src, dst):
    """(node path, labels) of the first-found shortest chain, or
    (None, sorted reachable nodes)."""
    parent = bfs_oracle(g.out_edges, src)
    if dst not in parent:
        return None, tuple(sorted(parent))
    path = [dst, parent[dst]]
    while path[-1] != src:
        path.append(parent[path[-1]])
    path.reverse()
    labels = tuple(int(g.out_labels[u][np.searchsorted(g.out_edges[u], v)])
                   for u, v in zip(path, path[1:]))
    return path, labels


def transitivity_oracle(g):
    """None if every node reaches every other; else the pair (0, smallest
    node 0 misses), or (smallest node that cannot reach 0, 0)."""
    everything = set(range(g.size))
    fwd = set(bfs_oracle(g.out_edges, 0)) | {0}
    if fwd != everything:
        return 0, min(everything - fwd)
    sources = np.repeat(np.arange(g.size), [len(e) for e in g.out_edges])
    targets = np.concatenate(g.out_edges)
    order = np.argsort(targets, kind="stable")
    bounds = np.cumsum(np.bincount(targets, minlength=g.size))[:-1]
    back = set(bfs_oracle(np.split(sources[order], bounds), 0)) | {0}
    if back != everything:
        return min(everything - back), 0
    return None


def _catalog_systems():
    """name -> (ifs, resolution, epsilon)"""
    cp = make_system("circle_pair")
    ip = make_system("interval_pair")
    return {
        "binary_affine": (make_system("binary_affine"), 0.01, 0.05),
        "affine_family": (make_system("affine_family", betas=(0.3, 0.7, 0.45),
                                      offsets=(0.0, 0.3, 0.55)), 0.013, 0.06),
        "interval_pair": (ip, 0.005, 0.02),
        "circle_pair": (cp, 0.0125, 0.05),
        "circle_pair_whole": (cp, 0.1, 0.7),  # every window is the whole circle
        "F1_only": (IFSSpec(cp.space, cp.maps[:1]), 0.0125, 0.05),
        "halving": (halving_ifs(), 0.002, 0.01),
        # node 0 lies on no cycle
        "halving_to_one": (IFSSpec(UNIT, (MapDef("half1", "affine", (0.5, 0.5)),)), 0.002, 0.01),
        "identity": (identity_ifs(), 0.01, 0.05),
        "finite_permutations": (make_system("finite_permutations:3"), 0.1, 0.5),
        "identity on 5 points, eps >= 1":
            (IFSSpec(FiniteDiscrete(5), (MapDef("id", "identity"),)), 0.25, 1.0),
        "circle_pair^2": (product_ifs(cp, cp), 1 / 16, 0.25),
        "circle_pair^2 fine": (product_ifs(cp, cp), 1 / 64, 4 / 64),
        "interval_pair x permutations":
            (product_ifs(ip, make_system("finite_permutations:2")), 0.05, 0.3),
        "(circle_pair x interval_pair) x circle_pair":
            (product_ifs(product_ifs(cp, ip), cp), 0.125, 0.5),
        # 12,801 nodes, 3.1 M edges: node 0 reaches every node, the graph is
        # still not transitive
        "interval_pair fine": (ip, 0.005 / 64, 0.005),
    }


@pytest.fixture(scope="module", params=list(_catalog_systems()))
def catalog_graph(request):
    ifs, h, eps = _catalog_systems()[request.param]
    return request.param, build_chain_graph(ifs, h, eps)


def test_build_matches_all_pairs(catalog_graph):
    _, g = catalog_graph
    edges, labels = all_pairs_graph(g.ifs, g.resolution, g.epsilon)
    assert g.size == len(edges) and g.edge_count > 0
    for u in range(g.size):
        assert np.array_equal(g.out_edges[u], edges[u])
        assert np.array_equal(g.out_labels[u], labels[u])


def test_labels_take_the_smallest_unsigned_dtype(catalog_graph):
    """A label is a map index < nmaps, so one byte holds it on the catalog systems."""
    _, g = catalog_graph
    assert {a.dtype for a in g.out_labels} == {np.dtype(np.uint8)}


@st.composite
def unit_maps(draw, circle):
    """One map of [0, 1] or of the circle: affine (intervals only; slopes
    and offsets often dyadic, so images fall on grid points) or twopiece."""
    if not circle and draw(st.booleans()):
        a = draw(st.sampled_from([0.5, -0.5, 0.25, 1.0, -1.0, 0.1, 0.0]) | st.floats(-1, 1))
        lo, hi = -min(a, 0.0), 1.0 - max(a, 0.0)  # the offsets that keep a*t + b in [0, 1]
        b = draw(st.integers(math.ceil(lo * 64), math.floor(hi * 64)).map(lambda j: j / 64)
                 | st.floats(lo, hi))
        return MapDef("f", "affine", (a, b))
    c = st.sampled_from([1.0, 1.5, -1.0, 2.0, 0.0]) | st.floats(-1, 2)
    return MapDef("g", "twopiece_quadratic", (draw(c), draw(c)))


@st.composite
def unit_families(draw, circle, most=3):
    """1 to `most` maps; the first map is sometimes repeated, so two images
    coincide at every node, and twopiece maps share fixed points 0, 1/2, 1."""
    maps = draw(st.lists(unit_maps(circle), min_size=1, max_size=most))
    if len(maps) < most and draw(st.booleans()):
        maps.append(maps[0])
    return IFSSpec(Circle() if circle else UNIT, tuple(maps))


@st.composite
def chain_systems(draw):
    """(ifs, resolution, epsilon) with resolution <= epsilon/4. Epsilon is an
    exact multiple of the resolution, a float up to 1.2 (past 1/2, a window
    of the whole circle; past 1, every index of a finite leaf), or the metric
    distance from some image to some grid point, so a window ends exactly
    there, or one ulp either side of it."""
    shape = draw(st.sampled_from(["interval", "circle", "x finite", "circle^2", "circle^2 subset"]))
    if shape in ("interval", "circle"):
        ifs = draw(unit_families(shape == "circle"))
        h = draw(st.sampled_from([1 / 16, 1 / 32, 1 / 64, 0.013, 0.021]))
    else:
        if shape == "x finite":
            n = draw(st.integers(1, 4))
            perms = draw(st.lists(st.permutations(range(n)), min_size=1, max_size=2))
            right = IFSSpec(FiniteDiscrete(n), tuple(MapDef("p", "permutation", tuple(q)) for q in perms))
            ifs = product_ifs(draw(unit_families(draw(st.booleans()), most=2)), right)
        else:
            ifs = product_ifs(draw(unit_families(True, most=2)), draw(unit_families(True, most=2)))
            if shape == "circle^2 subset":  # not every pair of leaf maps: the boxes' union is no product
                keep = draw(st.sets(st.integers(0, ifs.nmaps - 1), min_size=1))
                ifs = IFSSpec(ifs.space, tuple(ifs.maps[i] for i in sorted(keep)))
        h = draw(st.sampled_from([1 / 8, 1 / 16, 0.07]))
    rule = draw(st.sampled_from(["multiple", "float", "distance"]))
    if rule == "multiple":
        eps = h * draw(st.integers(4, 40))
    elif rule == "float":
        eps = draw(st.floats(4 * h, 1.2))
    else:  # the distance from an image to a grid point, or one ulp either side of it
        nodes = grid(ifs.space, h)
        image = apply(ifs, draw(st.integers(0, ifs.nmaps - 1)), draw(st.sampled_from(nodes)))
        eps = distance(image, draw(st.sampled_from(nodes)))
        eps = float(np.nextafter(eps, draw(st.sampled_from([-math.inf, eps, math.inf]))))
        assume(eps >= 4 * h)
    return ifs, h, eps


@settings(max_examples=150, deadline=None)
@given(chain_systems())
def test_build_matches_all_pairs_on_random_systems(system):
    ifs, h, eps = system
    g = build_chain_graph(ifs, h, eps)
    edges, labels = all_pairs_graph(ifs, h, eps)
    assert g.size == len(edges)
    assert all(e.dtype == np.intp for e in g.out_edges)
    assert {a.dtype for a in g.out_labels} == {np.min_scalar_type(ifs.nmaps - 1)}
    for u in range(g.size):
        assert np.array_equal(g.out_edges[u], edges[u])
        assert np.array_equal(g.out_labels[u], labels[u])


@settings(max_examples=500, deadline=None)
@given(circle=st.booleans(), h=st.sampled_from([1 / 16, 1 / 64, 0.013, 1 / 1024, 0.0007]),
       q=st.lists(st.floats(0, 1, exclude_max=True), min_size=1, max_size=8),
       j=st.integers(0, 2**20), whole=st.sampled_from([False, False, False, True]))
def test_leaf_windows_are_the_indices_within_epsilon(circle, h, q, j, whole):
    """Each window is exactly the cyclic index range the metric accepts, at
    an epsilon on the boundary (the distance from the first image to a grid
    point, and one ulp either side of it), however the rounding of
    q +- epsilon falls; `whole` adds 1/2, a window of every index."""
    kind = Circle() if circle else UNIT
    axis = np.asarray(grid_batch(kind, h), dtype=float)
    q = np.array(q)
    d = float(kind.dists(axis[j % len(axis)], q[0]))
    for eps in (np.nextafter(d, -math.inf), d, np.nextafter(d, math.inf)):
        eps = 0.5 + eps if whole else max(float(eps), 4 * h)
        start, width = ifsdyn.chains._leaf_windows(kind, axis, q[None, :], eps)
        for i, qi in enumerate(q):
            want = np.flatnonzero(kind.dists(axis, qi) <= eps)
            got = (start[0, i] + np.arange(width[0, i])) % len(axis)
            assert np.array_equal(np.sort(got), want)


def test_build_temporaries_stay_small():
    """Blocks of source nodes bound what the build holds beyond its graph:
    at most 4 MiB on 12,801 nodes and 3.1 M edges."""
    ip = make_system("interval_pair")
    build_chain_graph(ip, 0.005 / 4, 0.005)  # compiles the maps outside the trace
    tracemalloc.start()
    try:
        g = build_chain_graph(ip, 0.005 / 64, 0.005)
        retained, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert g.edge_count == 3_128_868
    assert peak - retained <= 4 * 2**20


def test_labels_of_more_than_256_maps_take_two_bytes():
    fam = power_ifs(make_system("finite_permutations:3"), 4)
    g = build_chain_graph(fam, 0.25, 1.0)
    edges, labels = all_pairs_graph(fam, 0.25, 1.0)
    assert fam.nmaps == 1296 and {a.dtype for a in g.out_labels} == {np.dtype(np.uint16)}
    assert all(map(np.array_equal, g.out_labels, labels)) and all(map(np.array_equal, g.out_edges, edges))


def test_find_chain_matches_bfs_oracle(catalog_graph):
    _, g = catalog_graph
    rng = np.random.default_rng(3)
    queries = 2 if g.edge_count > 100_000 else 40
    pairs = [tuple(int(k) for k in rng.integers(0, g.size, 2)) for _ in range(queries)]
    pairs += [(0, 0), (g.size - 1, g.size - 1)]  # cycle queries
    for i, j in pairs:
        res = find_chain(g, g.nodes[i], g.nodes[j])
        path, labels_or_reach = find_chain_oracle(g, i, j)
        assert res.found == (path is not None)
        if path is None:
            assert res.witness is None and res.reachable == labels_or_reach
        else:
            assert res.reachable is None
            assert res.witness.points == tuple(g.nodes[k] for k in path)
            assert res.witness.selector.entries == labels_or_reach


def test_transitivity_matches_oracle(catalog_graph):
    name, g = catalog_graph
    rep = is_chain_transitive(g)
    pair = transitivity_oracle(g)
    if pair is None:
        assert rep.transitive and rep.counterexample is None
    else:
        assert not rep.transitive
        assert rep.counterexample == (g.nodes[pair[0]], g.nodes[pair[1]])
    if name == "interval_pair fine":  # the branch where node 0 reaches all
        assert pair is not None and pair[1] == 0


def test_components_match_tarjan_oracle(catalog_graph):
    _, g = catalog_graph
    assert g.components == tarjan_oracle(g.out_edges)


@st.composite
def digraphs(draw):
    """Out-lists in ascending order without repeats; self-loops, empty lists
    and one-node graphs included."""
    n = draw(st.integers(1, 14))
    degree = draw(st.integers(0, n))
    return tuple(np.array(sorted(draw(st.sets(st.integers(0, n - 1), max_size=degree))),
                          dtype=np.intp) for _ in range(n))


@settings(max_examples=300, deadline=None)
@given(digraphs())
def test_scc_and_transitivity_on_random_digraphs(out_edges):
    assert strongly_connected_components(out_edges) == tarjan_oracle(out_edges)
    n = len(out_edges)
    space = FiniteDiscrete(n)
    g = ChainGraph(IFSSpec(space, (MapDef("id", "identity"),)), RawPoints(space, np.arange(n)),
                   1.0, 1.0, out_edges, tuple(np.zeros_like(e) for e in out_edges))
    rep = is_chain_transitive(g)
    pair = transitivity_oracle(g)
    assert rep.transitive == (pair is None)
    assert rep.counterexample == (None if pair is None else (g.nodes[pair[0]], g.nodes[pair[1]]))


# catalog systems with Lipschitz constant L <= 3, where chains of the space at
# epsilon/2 are graph paths: a snap moves a point by at most h/2 <= epsilon/8
_LIPSCHITZ_3 = {"interval_pair": 0.02, "circle_pair": 0.05, "binary_affine": 0.05}


@pytest.fixture(scope="module")
def quarter_grids():
    return {model: build_chain_graph(make_system(model), eps / 4, eps)
            for model, eps in _LIPSCHITZ_3.items()}


@settings(max_examples=200, deadline=None)
@given(model=st.sampled_from(sorted(_LIPSCHITZ_3)), x=st.floats(0, 1), lam=st.integers(0, 1),
       shift=st.floats(-0.5, 0.5))
def test_chains_complete_at_half_epsilon(quarter_grids, model, x, lam, shift):
    g = quarter_grids[model]
    kind, eps = g.ifs.space, g.epsilon
    x = point(kind, x % 1.0 if isinstance(kind, Circle) else x)
    fx = apply(g.ifs, lam, x).value
    y = point(kind, (fx + shift * eps) % 1.0 if isinstance(kind, Circle)
              else min(max(fx + shift * eps, kind.lo), kind.hi))
    assume(distance(apply(g.ifs, lam, x), y) <= eps / 2)
    u, _ = snap_to_node(g, x)
    v, _ = snap_to_node(g, y)
    assert v in g.out_edges[u].tolist()


_QUERY_SYSTEMS = ["interval_pair", "circle_pair", "F1_only", "halving", "circle_pair^2",
                  "interval_pair x permutations", "(circle_pair x interval_pair) x circle_pair"]


@pytest.fixture(scope="module")
def query_graphs():
    systems = _catalog_systems()
    return {name: build_chain_graph(*systems[name]) for name in _QUERY_SYSTEMS}


@settings(max_examples=150, deadline=None)
@given(name=st.sampled_from(_QUERY_SYSTEMS), seed=st.integers(0, 2**32 - 1))
def test_found_witnesses_validate(query_graphs, name, seed):
    g = query_graphs[name]
    rng = np.random.default_rng(seed)
    x, y = sample_point(g.ifs.space, rng), sample_point(g.ifs.space, rng)
    res = find_chain(g, x, y)
    if not res.found:
        assert snap_to_node(g, y)[0] not in res.reachable
        return
    w = res.witness
    assert validate_witness(g.ifs, w, g.epsilon)
    assert w.errors.values.max() <= g.epsilon + 1e-12
    path = [snap_to_node(g, p)[0] for p in w.points]
    assert w.points[0] == g.nodes[snap_to_node(g, x)[0]]
    assert w.points[-1] == g.nodes[snap_to_node(g, y)[0]]
    for u, v, lam in zip(path, path[1:], w.selector.entries):
        assert v in g.out_edges[u].tolist()
        assert lam == g.out_labels[u][np.searchsorted(g.out_edges[u], v)]


def test_scc_computed_once_per_graph(monkeypatch):
    calls = []
    tarjan = ifsdyn.chains.strongly_connected_components

    def counting(out_edges):
        calls.append(1)
        return tarjan(out_edges)

    monkeypatch.setattr(ifsdyn.chains, "strongly_connected_components", counting)
    g = build_chain_graph(halving_ifs(), 0.002, 0.01)
    is_chain_transitive(g)
    chain_recurrent_set(g)
    is_chain_transitive(g)
    assert len(calls) == 1
