"""The three benchmark workloads: seeded inputs, tasks and correctness checks.

A workload builds all of its inputs from the seed when it is constructed, so
that work counts in set-up time and the library receives only the generated
inputs. The worker then runs tasks back to back, cycling through `round`. A
task is the call sequence that produces one verdict; every call into the
library sits in a span of the given tracer.

`check` returns the problems it finds in one task's outputs (none when they
are right). It recomputes results with numpy from the catalog models'
definitions, tests the paper's invariants, and compares chain-graph counts
with the values the seed commit produces, which use no random numbers. No
check compares floats that depend on the library's random stream, and none
uses the verdict of `verify_null_density_implies_average`.

Requires `ifsdyn` to be importable; worker.py puts the checkout's `src/`
first on the import path.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

import ifsdyn as d
from spans import PROBE_TASK, Tracer

COUNT_KEYS = ("steps", "map_evals", "starts", "graph_nodes", "graph_edges", "scc", "pair_evals")

BINARY_OFFSETS = np.array([0.0, 0.5])  # binary_affine: t -> t/2 + offset
PAIR_COEFFS = np.array([1.5, 1.0])     # interval_pair: twopiece coefficients of f1, f2
BETA = 0.5                             # claimed ratio of binary_affine and sigma2_prepend


def _close(a: float, b: float) -> bool:
    return abs(a - b) <= 1e-9 * max(abs(a), abs(b)) + 1e-15


def _counts(**given) -> dict:
    return {k: given.get(k, 0) for k in COUNT_KEYS}


# --- independent model arithmetic (numpy) ------------------------------------

def _binary_orbit(y0: float, lam) -> np.ndarray:
    ys = [y0]
    y = y0
    for off in BINARY_OFFSETS[lam].tolist():
        y = 0.5 * y + off
        ys.append(y)
    return np.array(ys)


def _symbol_words(points) -> np.ndarray:
    """Depth-64 bit tuples as uint64, first symbol in the top bit."""
    bits = np.fromiter(itertools.chain.from_iterable(q.value for q in points),
                       dtype=np.uint8, count=64 * len(points))
    packed = np.packbits(bits.reshape(len(points), 64), axis=1, bitorder="big")
    return packed.view(">u8").ravel().astype(np.uint64)


def _symbol_prepend(x: np.ndarray, lam: np.ndarray) -> np.ndarray:
    return (lam.astype(np.uint64) << np.uint64(63)) | (x >> np.uint64(1))


def _symbol_dist(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """2^(1-k) for first disagreement index k, i.e. 2^(floor(log2(a^b)) - 62)."""
    x = a ^ b
    hi = (x >> np.uint64(32)).astype(np.float64)
    lo = (x & np.uint64(0xFFFFFFFF)).astype(np.float64)
    top = np.where(hi > 0, np.frexp(hi)[1] + 32, np.frexp(lo)[1]) - 1
    return np.where(x == 0, 0.0, np.ldexp(1.0, top - 62))


def _symbol_orbit(y0: int, lam) -> np.ndarray:
    ys = [y0]
    y = y0
    for bit in lam.tolist():
        y = (bit << 63) | (y >> 1)
        ys.append(y)
    return np.array(ys, dtype=np.uint64)


def _twopiece(c, t):
    return np.where(t <= 0.5, t + c * (0.5 - t) * t, t + c * (1.0 - t) * (t - 0.5))


def _values(points) -> np.ndarray:
    return np.array([q.value for q in points], dtype=float)


# --- workloads ---------------------------------------------------------------

class OrbitLong:
    """One long average-shadowing verification per task, alternating
    binary_affine (interval, affine maps) and sigma2_prepend (64-bit symbols,
    prepend maps). Work unit: orbit steps walked by the trajectory calls."""

    name = "orbit-long"
    work = "steps"
    work_label = "orbit steps"
    SCALES = {
        "full": {"n": 100_000, "pool": 2, "ratio_pairs": 1000, "tol_avg": 1e-2,
                 "binary_avg_max": 1e-3, "sampled_steps": 1000},
        "tiny": {"n": 2_000, "pool": 2, "ratio_pairs": 100, "tol_avg": 1e-2,
                 "binary_avg_max": 1e-2, "sampled_steps": 100},
    }

    def __init__(self, seed: int, scale: str):
        self.seed, self.scale = seed, scale
        self.params = dict(self.SCALES[scale])
        n = self.params["n"]
        self.systems = (d.make_system("binary_affine"), d.make_system("sigma2_prepend"))
        self.round = tuple(s.name for s in self.systems)
        self.noise = d.harmonic_series(n)
        rng = np.random.default_rng([seed, 1])
        self.inputs = [[self._draw(ifs, rng) for _ in range(self.params["pool"])]
                       for ifs in self.systems]

    def _draw(self, ifs, rng):
        n = self.params["n"]
        sel = d.selector_explicit(rng.integers(0, ifs.nmaps, n).tolist(), ifs.nmaps)
        x0 = d.sample_point(ifs.space, rng)
        y0 = d.sample_point(ifs.space, rng)
        return sel, x0, y0, int(rng.integers(2**31))

    def task(self, j: int, tr: Tracer) -> dict:
        p = self.params
        n = p["n"]
        ifs = self.systems[j % 2]
        sel, x0, y0, noise_seed = self.inputs[j % 2][(j // 2) % p["pool"]]
        with tr.span("pseudo_orbits.perturbed_orbit", units=n):
            rec = d.perturbed_orbit(ifs, sel, x0, self.noise, noise_seed)
        # contracting_shadow's own ratio check, called separately so that its
        # fixed cost gets a span of its own.
        with tr.span("core.estimate_contraction_ratio"):
            ratio = d.estimate_contraction_ratio(ifs, p["ratio_pairs"], seed=0)
        if ratio > ifs.claimed_contraction + 1e-9:
            raise d.ContractionError(f"sampled ratio {ratio} exceeds claimed {ifs.claimed_contraction}")
        with tr.span("shadowing.contracting_shadow", units=n):
            shadow = d.contracting_shadow(ifs, rec, y0=y0, validate=False)
        with tr.span("shadowing.shadow_verify", units=n):
            verify = d.shadow_verify(ifs, rec, rec.points[0], rec.selector, n + 1)
        with tr.span("pseudo_orbits.validate_aapo"):
            aapo = d.validate_aapo(rec, n, p["tol_avg"])
        with tr.span("averaging.extract_null_density_set"):
            dec = d.extract_null_density_set(rec.errors)
        return {"ifs": ifs, "y0": y0, "rec": rec, "shadow": shadow, "verify": verify,
                "aapo": aapo, "dec": dec,
                "counts": _counts(steps=3 * n, map_evals=3 * n - 1)}

    def check(self, j: int, out: dict) -> list[str]:
        p = self.params
        n = p["n"]
        ifs, rec = out["ifs"], out["rec"]
        lam = np.asarray(rec.selector.entries[:n], dtype=np.int64)
        if ifs.name == "binary_affine":
            xs = _values(rec.points)
            errs = np.abs(0.5 * xs[:-1] + BINARY_OFFSETS[lam] - xs[1:])
            ys = _binary_orbit(out["y0"].value, lam[: n - 1])
            zs = _binary_orbit(float(xs[0]), lam)
            ds, dv = np.abs(ys - xs[:n]), np.abs(zs - xs)
        else:
            xs = _symbol_words(rec.points)
            errs = _symbol_dist(_symbol_prepend(xs[:-1], lam), xs[1:])
            ys = _symbol_orbit(int(_symbol_words([out["y0"]])[0]), lam[: n - 1])
            zs = _symbol_orbit(int(xs[0]), lam)
            ds, dv = _symbol_dist(ys, xs[:n]), _symbol_dist(zs, xs)

        problems = []
        recorded = np.asarray(rec.errors.values)
        if len(recorded) != n or np.abs(recorded - errs).max() > 1e-12:
            problems.append("recorded step errors differ from the recomputed ones")
        rng = np.random.default_rng([self.seed, 2, j])
        for i in rng.choice(n, size=p["sampled_steps"], replace=False).tolist():
            e = d.distance(d.apply(ifs, int(lam[i]), rec.points[i]), rec.points[i + 1])
            if abs(e - errs[i]) > 1e-12:
                problems.append(f"step {i}: distance(apply(...)) = {e}, recomputed {errs[i]}")
                break
        if not _close(out["aapo"].final_average, float(errs.mean())):
            problems.append("validate_aapo average differs from the numpy Cesàro average")

        shadow = out["shadow"]
        bound = (ds[0] + errs[: n - 1].sum()) / ((1 - BETA) * n)
        if not _close(shadow.final_average, float(ds.mean())):
            problems.append("contracting_shadow average differs from the recomputed one")
        if not _close(shadow.bound, float(bound)):
            problems.append("contracting_shadow bound differs from the recomputed one")
        if not shadow.final_average <= shadow.bound + 1e-12:
            problems.append("contracting_shadow average exceeds its bound")
        if ifs.name == "binary_affine" and shadow.final_average > p["binary_avg_max"]:
            problems.append(f"binary_affine shadow average above {p['binary_avg_max']}")

        verify = out["verify"]
        if not _close(verify.final_average, float(dv.mean())):
            problems.append("shadow_verify average differs from the recomputed one")
        if verify.final_average > errs.sum() / ((1 - BETA) * (n + 1)) + 1e-12:
            problems.append("shadow_verify from x0 exceeds the contracting bound")

        dec = out["dec"]
        mask = np.zeros(n, dtype=bool)
        mask[np.asarray(dec.index_set.indices, dtype=np.int64)] = True
        off = errs[n // 2:][~mask[n // 2:]]
        if dec.no_decay:
            problems.append("harmonic step errors reported as not decaying")
        if not _close(dec.tail_max, float(off.max()) if len(off) else 0.0):
            problems.append("density decomposition tail differs from the recomputed one")
        if dec.tail_max > dec.tail_threshold:
            problems.append("density decomposition tail above its threshold")
        return problems

    def probe_cases(self, rng):
        return [(ifs, [d.sample_point(ifs.space, rng) for _ in range(400)]) for ifs in self.systems]


def _square(q):
    return d.point(q.kind, q.value * q.value)


def _sqrt(q):
    return d.point(q.kind, q.value ** 0.5)


class SearchFanout:
    """Short horizons with many starts or many maps, plus records built from
    caller points on composite spaces. Work unit: map evaluations."""

    name = "search-fanout"
    work = "map_evals"
    work_label = "map evaluations"
    round = ("search",)
    SCALES = {
        "full": {"deltas": (0.01, 0.005, 0.002), "start_grid": 1001, "epsilon": 0.2,
                 "perm_n": 4, "greedy_horizon": 2000, "product_n": 5000,
                 "conjugate_n": 10000, "tol_avg": 1e-2},
        "tiny": {"deltas": (0.01, 0.005, 0.002), "start_grid": 101, "epsilon": 0.2,
                 "perm_n": 4, "greedy_horizon": 200, "product_n": 500,
                 "conjugate_n": 1000, "tol_avg": 1e-2},
    }

    def __init__(self, seed: int, scale: str):
        self.seed, self.scale = seed, scale
        self.params = p = dict(self.SCALES[scale])
        rng = np.random.default_rng([seed, 3])

        # interval_pair crossing records, built as in ex-interval-no-shadowing:
        # f1 plus a jump of 0.95*delta per step, from a seeded start near 0
        # up to 0.99 (19-25 points).
        self.pair = pair = d.make_system("interval_pair")
        lo = 0.005 + 0.005 * rng.random()
        self.crossings = [self._crossing(delta, lo) for delta in p["deltas"]]
        m = p["start_grid"] - 1
        self.starts = [d.point(pair.space, i / m) for i in range(m + 1)]

        # finite_permutations: a random record, searched from every point.
        self.perms = d.make_system(f"finite_permutations:{p['perm_n']}")
        h = p["greedy_horizon"]
        pts = [d.point(self.perms.space, v) for v in rng.integers(0, p["perm_n"], h).tolist()]
        sel = d.selector_explicit(rng.integers(0, self.perms.nmaps, h - 1).tolist(), self.perms.nmaps)
        self.perm_rec = d.pseudo_orbit_record(self.perms, pts, sel)
        self.perm_starts = d.grid(self.perms.space, 1.0)
        perm_table = sorted(itertools.permutations(range(p["perm_n"])))
        # lowest-index permutation sending a to b: the greedy tie-break
        self.first_perm = np.array([[next(k for k, q in enumerate(perm_table) if q[a] == b)
                                     for b in range(p["perm_n"])] for a in range(p["perm_n"])])

        # binary_affine x binary_affine: raw coordinate pairs from two records.
        binary = d.make_system("binary_affine")
        self.prod = d.product_ifs(binary, binary)
        n = p["product_n"]
        left, right = (self._harmonic_record(binary, n, rng) for _ in range(2))
        self.prod_values = [(a.value, b.value) for a, b in zip(left.points, right.points)]
        self.prod_lam = (np.asarray(left.selector.entries), np.asarray(right.selector.entries))
        self.prod_sel = d.selector_explicit(
            [d.pair_index(a, b, binary.nmaps) for a, b in zip(left.selector.entries, right.selector.entries)],
            self.prod.nmaps)

        # binary_affine transported by t -> t^2 (fn-backed maps).
        self.conj = d.conjugate_ifs(binary, _square, _sqrt, binary.space)
        base = self._harmonic_record(binary, p["conjugate_n"], rng)
        self.conj_base = _values(base.points)
        self.conj_values = [q.value * q.value for q in base.points]
        self.conj_sel = base.selector

        s = len(self.starts)
        steps = sum(s * (len(r.points) - 1) for _, r in self.crossings)
        greedy_steps = len(self.perm_starts) * (h - 1)
        nc = p["conjugate_n"]
        self.counts = _counts(
            steps=steps + greedy_steps + 2 * n + 2 * nc,
            map_evals=steps * pair.nmaps + greedy_steps * self.perms.nmaps + 2 * n + 2 * nc,
            starts=s * len(self.crossings) + len(self.perm_starts))

    def _crossing(self, delta, lo):
        pts = [d.point(self.pair.space, lo)]
        while pts[-1].value < 0.99:
            nxt = d.apply(self.pair, 0, pts[-1]).value + 0.95 * delta
            pts.append(d.point(self.pair.space, min(nxt, 0.99)))
        sel = d.selector_explicit([0] * (len(pts) - 1), self.pair.nmaps)
        return delta, d.pseudo_orbit_record(self.pair, pts, sel)

    @staticmethod
    def _harmonic_record(ifs, n, rng):
        sel = d.selector_explicit(rng.integers(0, ifs.nmaps, n).tolist(), ifs.nmaps)
        x0 = d.sample_point(ifs.space, rng)
        return d.perturbed_orbit(ifs, sel, x0, d.harmonic_series(n), int(rng.integers(2**31)))

    def task(self, j: int, tr: Tracer) -> dict:
        p = self.params
        crossing = []
        for _, rec in self.crossings:
            h = len(rec.points)
            with tr.span("shadowing.finite_shadowing_check",
                         units=len(self.starts) * self.pair.nmaps * (h - 1)):
                crossing.append(d.finite_shadowing_check(self.pair, rec, p["epsilon"], self.starts, h))
        h = p["greedy_horizon"]
        with tr.span("shadowing.greedy_shadow_search",
                     units=len(self.perm_starts) * self.perms.nmaps * (h - 1)):
            greedy = d.greedy_shadow_search(self.perms, self.perm_rec, self.perm_starts, h)
        composite = []
        for ifs, values, sel in ((self.prod, self.prod_values, self.prod_sel),
                                 (self.conj, self.conj_values, self.conj_sel)):
            n = len(values) - 1
            with tr.span("spaces.point", calls=n + 1):
                pts = [d.point(ifs.space, v) for v in values]
            with tr.span("pseudo_orbits.pseudo_orbit_record", units=n):
                rec = d.pseudo_orbit_record(ifs, pts, sel)
            with tr.span("shadowing.shadow_verify", units=n):
                rep = d.shadow_verify(ifs, rec, pts[0], sel, n + 1, tol_avg=p["tol_avg"])
            composite.append((rec, rep))
        return {"crossing": crossing, "greedy": greedy, "product": composite[0],
                "conjugate": composite[1], "counts": dict(self.counts)}

    def check(self, j: int, out: dict) -> list[str]:
        p = self.params
        eps = p["epsilon"]
        problems = []

        # interval_pair: both halves are invariant, so no orbit shadows a
        # crossing; recompute the greedy search over all starts at once.
        z0 = _values(self.starts)
        for (delta, rec), res in zip(self.crossings, out["crossing"]):
            xs = _values(rec.points)
            cur = z0
            sup = np.abs(cur - xs[0])
            for x in xs[1:]:
                cands = _twopiece(PAIR_COEFFS[:, None], cur[None, :])
                pick = np.argmin(np.abs(cands - x), axis=0)
                cur = cands[pick, np.arange(len(cur))]
                sup = np.maximum(sup, np.abs(cur - x))
            best = float(sup.min())
            if res.found or res.sup_achieved < eps:
                problems.append(f"delta={delta}: crossing shadowed within {res.sup_achieved} < {eps}")
            if not _close(res.sup_achieved, best):
                problems.append(f"delta={delta}: greedy floor {res.sup_achieved}, recomputed {best}")

        # finite_permutations: some map always hits the next point exactly.
        g = out["greedy"]
        xs = np.array([q.value for q in self.perm_rec.points])
        h = p["greedy_horizon"]
        if g.final_average != 0.0 or g.sup_error != 0.0:
            problems.append(f"permutation greedy average {g.final_average}, expected exactly 0")
        if g.candidate.value != xs[0]:
            problems.append("permutation greedy did not start at the record's first point")
        if not np.array_equal(np.asarray(g.selector.entries), self.first_perm[xs[: h - 1], xs[1:h]]):
            problems.append("permutation greedy selector is not the lowest-index exact match")

        # product: the shadow average is sandwiched by the component averages.
        rec, rep = out["product"]
        pts = [(q.value[0].value, q.value[1].value) for q in rec.points]
        xl, xr = np.array(pts).T
        lam_l, lam_r = self.prod_lam
        errs = np.maximum(np.abs(0.5 * xl[:-1] + BINARY_OFFSETS[lam_l] - xl[1:]),
                          np.abs(0.5 * xr[:-1] + BINARY_OFFSETS[lam_r] - xr[1:]))
        if np.abs(np.asarray(rec.errors.values) - errs).max() > 1e-12:
            problems.append("product record errors differ from the recomputed ones")
        dl = np.abs(_binary_orbit(float(xl[0]), lam_l) - xl)
        dr = np.abs(_binary_orbit(float(xr[0]), lam_r) - xr)
        rl, rr, rp = float(dl.mean()), float(dr.mean()), float(np.maximum(dl, dr).mean())
        if not _close(rep.final_average, rp):
            problems.append("product shadow average differs from the recomputed one")
        if not max(rl, rr) - 1e-12 <= rep.final_average <= rl + rr + 1e-12:
            problems.append(f"product sandwich violated: {rl}, {rr}, {rep.final_average}")

        # conjugate: verdicts agree with the original system's.
        rec, rep = out["conjugate"]
        xs = _values(rec.points)
        lam = np.asarray(self.conj_sel.entries)
        errs = np.abs((0.5 * np.sqrt(xs[:-1]) + BINARY_OFFSETS[lam]) ** 2 - xs[1:])
        if np.abs(np.asarray(rec.errors.values) - errs).max() > 1e-12:
            problems.append("conjugate record errors differ from the recomputed ones")
        zs = [xs[0]]
        for off in BINARY_OFFSETS[lam].tolist():
            t = 0.5 * zs[-1] ** 0.5 + off
            zs.append(t * t)
        if not _close(rep.final_average, float(np.abs(np.array(zs) - xs).mean())):
            problems.append("conjugate shadow average differs from the recomputed one")
        base = self.conj_base
        original = float(np.abs(_binary_orbit(float(base[0]), lam) - base).mean())
        if rep.verdict_avg != (original <= p["tol_avg"]):
            problems.append(f"conjugate verdict {rep.verdict_avg} differs from the original's")
        return problems

    def probe_cases(self, rng):
        return [(ifs, [d.sample_point(ifs.space, rng) for _ in range(400)])
                for ifs in (self.pair, self.perms, self.prod, self.conj)]


@dataclass(frozen=True)
class Grid:
    """One chain-graph task and the seed commit's results for it. `ab`/`ba`
    are (found, witness points or reachable-node count) of find_chain."""

    model: str
    epsilon: float
    resolution: float
    a: object
    b: object
    nodes: int
    edges: int
    scc: int
    transitive: bool
    recurrent: int
    ab: tuple
    ba: tuple

    @property
    def label(self) -> str:
        return f"{self.model}@h={self.resolution:g}"


GRIDS = {
    "full": (
        Grid("interval_pair", 0.005, 0.005 / 16, 0.0, 0.5,
             3201, 195559, 3079, False, 131, (True, 13), (False, 1632)),
        Grid("interval_pair", 0.005, 0.005 / 32, 0.0, 0.5,
             6401, 782236, 6147, False, 263, (True, 13), (False, 3265)),
        Grid("interval_pair", 0.005, 0.005 / 64, 0.0, 0.5,
             12801, 3128868, 12287, False, 523, (True, 13), (False, 6530)),
        Grid("circle_pair^2", 4 / 64, 1 / 64, (0.0, 0.0), (0.5, 0.5),
             4096, 467856, 1, True, 4096, (True, 7), (True, 7)),
    ),
    "tiny": (
        Grid("interval_pair", 0.05, 0.05 / 16, 0.0, 0.5,
             321, 12000, 159, False, 179, (True, 6), (False, 202)),
        Grid("circle_pair^2", 4 / 16, 1 / 16, (0.0, 0.0), (0.5, 0.5),
             256, 19600, 1, True, 256, (True, 3), (True, 3)),
    ),
}


class ChainFine:
    """One chain-recurrence analysis per task, cycling through fixed grids.
    Nothing here is random; the seed is recorded only. Work unit: edges."""

    name = "chain-fine"
    work = "graph_edges"
    work_label = "graph edges"

    def __init__(self, seed: int, scale: str):
        self.seed, self.scale = seed, scale
        self.grids = GRIDS[scale]
        self.params = {"grids": [{"model": g.model, "epsilon": g.epsilon, "resolution": g.resolution}
                                 for g in self.grids]}
        circle = d.make_system("circle_pair")
        self.systems = {"interval_pair": d.make_system("interval_pair"),
                        "circle_pair^2": d.product_ifs(circle, circle)}
        self.round = tuple(g.label for g in self.grids)

    def task(self, j: int, tr: Tracer) -> dict:
        grid = self.grids[j % len(self.grids)]
        ifs = self.systems[grid.model]
        a, b = d.point(ifs.space, grid.a), d.point(ifs.space, grid.b)
        with tr.span("chains.build_chain_graph") as sp:
            g = d.build_chain_graph(ifs, grid.resolution, grid.epsilon)
        with tr.span("chains.is_chain_transitive"):
            trans = d.is_chain_transitive(g)
        with tr.span("chains.chain_recurrent_set"):
            recurrent = d.chain_recurrent_set(g)
        with tr.span("chains.find_chain"):
            ab = d.find_chain(g, a, b)
        with tr.span("chains.find_chain"):
            ba = d.find_chain(g, b, a)
        sp.units = g.edge_count
        return {"grid": grid, "ifs": ifs, "graph": g, "transitive": trans,
                "recurrent": recurrent, "ab": ab, "ba": ba,
                "counts": _counts(graph_nodes=g.size, graph_edges=sp.units,
                                  map_evals=g.size * ifs.nmaps,
                                  pair_evals=g.size * g.size * ifs.nmaps)}

    def check(self, j: int, out: dict) -> list[str]:
        grid, g = out["grid"], out["graph"]
        problems = []
        if (g.size, g.edge_count) != (grid.nodes, grid.edges):
            problems.append(f"{grid.label}: {g.size} nodes / {g.edge_count} edges, "
                            f"expected {grid.nodes} / {grid.edges}")
        scc = len(d.strongly_connected_components(g.out_edges))
        out["counts"]["scc"] = scc  # no task call returns it; reported as count.scc
        if scc != grid.scc:
            problems.append(f"{grid.label}: {scc} strongly connected components, expected {grid.scc}")
        trans = out["transitive"]
        if trans.transitive != grid.transitive or (not trans.transitive and trans.counterexample is None):
            problems.append(f"{grid.label}: transitivity verdict {trans.transitive}")
        if len(out["recurrent"]) != grid.recurrent:
            problems.append(f"{grid.label}: {len(out['recurrent'])} chain-recurrent nodes, "
                            f"expected {grid.recurrent}")
        for key in ("ab", "ba"):
            res, (found, size) = out[key], getattr(grid, key)
            got = len(res.witness.points) if res.found else len(res.reachable)
            if (res.found, got) != (found, size):
                problems.append(f"{grid.label}: find_chain {key} gave ({res.found}, {got}), "
                                f"expected ({found}, {size})")
            elif found and not d.validate_witness(out["ifs"], res.witness, grid.epsilon):
                problems.append(f"{grid.label}: find_chain {key} witness fails validate_witness")
        return problems

    def probe_cases(self, rng):
        return [(ifs, [d.sample_point(ifs.space, rng) for _ in range(400)])
                for ifs in self.systems.values()]


WORKLOADS = {w.name: w for w in (OrbitLong, SearchFanout, ChainFine)}


def make(name: str, seed: int, scale: str):
    return WORKLOADS[name](seed, scale)


def warm_up(wl) -> None:
    """One round of a tiny instance: loads code paths and numpy kernels."""
    tiny = type(wl)(wl.seed, "tiny")
    off = Tracer(False)
    for j in range(len(tiny.round)):
        tiny.check(j, tiny.task(j, off))


def _raw(q):
    """Payload as a caller would pass it to point(): plain numbers, nested
    tuples for products."""
    if isinstance(q.kind, d.Product):
        return (_raw(q.value[0]), _raw(q.value[1]))
    return q.value


def run_probes(wl, tr: Tracer, reps: int = 5) -> None:
    """Per-call cost of point(), distance() and apply() on the workload's own
    spaces and map forms."""
    tr.task = PROBE_TASK
    rng = np.random.default_rng([wl.seed, 4])
    for ifs, pts in wl.probe_cases(rng):
        raws = [_raw(q) for q in pts]
        pairs = list(zip(pts, pts[1:] + pts[:1]))
        lams = [i % ifs.nmaps for i in range(len(pts))]
        with tr.span("spaces.point", calls=reps * len(raws)):
            for _ in range(reps):
                for v in raws:
                    d.point(ifs.space, v)
        with tr.span("spaces.distance", calls=reps * len(pairs)):
            for _ in range(reps):
                for a, b in pairs:
                    d.distance(a, b)
        with tr.span("core.apply", calls=reps * len(pts)):
            for _ in range(reps):
                for lam, q in zip(lams, pts):
                    d.apply(ifs, lam, q)
