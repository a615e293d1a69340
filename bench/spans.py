"""Spans around the benchmark's own calls into the library, kept in memory,
and the per-layer metrics derived from them.

A span records its name, start, end, parent span and task id, plus how many
library calls (`calls`) and work units (`units`: steps, map evaluations or
edges) it covers. A span's self time is its duration minus the durations of
its children; children never overlap because the load is one thread.
"""

from __future__ import annotations

import json
from contextlib import contextmanager
from time import perf_counter

# Spans that wrap calls made inside tasks, in the order the metrics list them.
TASK_SPANS = (
    "spaces.point",
    "core.estimate_contraction_ratio",
    "pseudo_orbits.perturbed_orbit",
    "pseudo_orbits.pseudo_orbit_record",
    "pseudo_orbits.validate_aapo",
    "averaging.extract_null_density_set",
    "shadowing.contracting_shadow",
    "shadowing.shadow_verify",
    "shadowing.finite_shadowing_check",
    "shadowing.greedy_shadow_search",
    "chains.build_chain_graph",
    "chains.is_chain_transitive",
    "chains.chain_recurrent_set",
    "chains.find_chain",
)

# Per-call probes, run once after the timed rounds of a traced run.
PROBE_SPANS = ("spaces.point", "spaces.distance", "core.apply")

# Span name -> (stat, scale): self time per work unit of that span.
UNIT_STATS = {
    "pseudo_orbits.perturbed_orbit": ("us_per_step", 1e6),
    "pseudo_orbits.pseudo_orbit_record": ("us_per_step", 1e6),
    "shadowing.contracting_shadow": ("us_per_step", 1e6),
    "shadowing.shadow_verify": ("us_per_step", 1e6),
    "shadowing.finite_shadowing_check": ("us_per_eval", 1e6),
    "shadowing.greedy_shadow_search": ("us_per_eval", 1e6),
    "chains.build_chain_graph": ("ns_per_edge", 1e9),
}

TASK = "task"
PROBE_TASK = -1


class Span:
    __slots__ = ("name", "start", "end", "parent", "task", "calls", "units")

    def __init__(self, name, calls, units):
        self.name = name
        self.calls = calls
        self.units = units
        self.start = self.end = 0.0
        self.parent = None
        self.task = None


class Tracer:
    """Records spans when enabled; when disabled it only hands out a record
    whose `units` the caller may still set, so tasks read the same either way."""

    def __init__(self, enabled: bool):
        self.enabled = enabled
        self.spans: list[Span] = []
        self.task = None
        self._open: list[int] = []

    @contextmanager
    def span(self, name: str, calls: int = 1, units: int = 0):
        sp = Span(name, calls, units)
        if not self.enabled:
            yield sp
            return
        sp.parent = self._open[-1] if self._open else None
        sp.task = self.task
        self._open.append(len(self.spans))
        self.spans.append(sp)
        sp.start = perf_counter()
        try:
            yield sp
        finally:
            sp.end = perf_counter()
            self._open.pop()

    def write(self, path) -> None:
        with open(path, "w") as fh:
            for i, sp in enumerate(self.spans):
                fh.write(json.dumps({
                    "id": i, "name": sp.name, "start": sp.start, "end": sp.end,
                    "parent": sp.parent, "task": sp.task,
                    "calls": sp.calls, "units": sp.units,
                }) + "\n")


def self_times(spans: list[Span]) -> list[float]:
    child = [0.0] * len(spans)
    for sp in spans:
        if sp.parent is not None:
            child[sp.parent] += sp.end - sp.start
    return [sp.end - sp.start - c for sp, c in zip(spans, child)]


def layer_metrics(spans: list[Span]) -> dict[str, float]:
    """Per-layer metrics from the spans of traced tasks and probes.

    `<span>.calls` and `<span>.self_s` are per traced task (totals divided by
    the number of traced tasks), so they stay comparable when a faster commit
    fits more tasks into the run. `<span>.us_per_step` and the like divide a
    span's total self time by its total work units. Probe spans feed only
    `<span>.us_per_call`. `trace.coverage_frac` is the share of task time
    that lies inside the spans of library calls.
    """
    selfs = self_times(spans)
    tasks = 0
    task_total = task_self = 0.0
    agg: dict[str, list[float]] = {}
    probe: dict[str, list[float]] = {}
    for sp, s in zip(spans, selfs):
        if sp.name == TASK:
            tasks += 1
            task_total += sp.end - sp.start
            task_self += s
            continue
        table = probe if sp.task == PROBE_TASK else agg
        acc = table.setdefault(sp.name, [0.0, 0, 0])
        acc[0] += s
        acc[1] += sp.calls
        acc[2] += sp.units
    out: dict[str, float] = {}
    for name in TASK_SPANS:
        s, calls, units = agg.get(name, (0.0, 0, 0))
        out[f"{name}.calls"] = calls / tasks if tasks else 0.0
        out[f"{name}.self_s"] = s / tasks if tasks else 0.0
        if name in UNIT_STATS:
            stat, scale = UNIT_STATS[name]
            out[f"{name}.{stat}"] = s * scale / units if units else 0.0
    for name in PROBE_SPANS:
        s, calls, _ = probe.get(name, (0.0, 0, 0))
        out[f"{name}.us_per_call"] = s * 1e6 / calls if calls else 0.0
    out["trace.coverage_frac"] = 1.0 - task_self / task_total if task_total else 0.0
    return out
