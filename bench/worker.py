"""One workload in one process: set-up, timed rounds, metrics.

run.py starts this script once per workload (and once per set-up probe) with
BLAS/OpenMP threads set to 1. The load is a closed loop with one caller:
tasks run back to back in whole rounds, so every task kind of the workload
has the same share of the samples wherever the time limit falls.

Without tracing the phase ends at the first round boundary after --seconds
once at least MIN_TASKS tasks have run. With tracing, rounds alternate
untraced and traced, the phase ends after an even number of rounds, and the
per-call probes run afterwards. The last line on stdout is a JSON object for
run.py.
"""

from __future__ import annotations

import argparse
import json
import platform
import resource
import statistics
import sys
import time
import traceback
from importlib import metadata
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
RESULTS = Path(__file__).resolve().parent / "results"
MIN_TASKS = 11        # the tail percentile needs 10 samples beyond it
MAX_PHASE_S = 120.0   # keeps a run inside its time limit if the library is very slow
SHOWN_FAILURES = 3


def load_library():
    src = (ROOT / "src").resolve()
    sys.path.insert(0, str(src))
    import ifsdyn
    if not Path(ifsdyn.__file__).resolve().is_relative_to(src):
        raise ImportError(f"ifsdyn was imported from {ifsdyn.__file__}, not from the checkout's src/")
    return ifsdyn


def tail(times: list[float]) -> tuple[float, float]:
    """The highest nearest-rank percentile with at least 10 samples above it:
    the 11th largest sample, at percentile 100*(n-10)/n."""
    n = len(times)
    return sorted(times)[n - 11], 100.0 * (n - 10) / n


def run_phase(wl, seconds: float, trace: bool, tracer):
    from spans import TASK, Tracer

    off = Tracer(False)
    times, traced, counts, failures = [], [], [], []
    units = 0
    rounds = 0
    t0 = perf_counter()
    while True:
        tr = tracer if trace and rounds % 2 else off
        for _ in wl.round:
            j = len(times)
            tr.task = j
            t = perf_counter()
            try:
                with tr.span(TASK):
                    out = wl.task(j, tr)
            except Exception:  # a task that raises is a failed task
                times.append(perf_counter() - t)
                problems = ["raised: " + traceback.format_exc()]
            else:
                times.append(perf_counter() - t)
                try:
                    problems = wl.check(j, out)
                except Exception:  # so is one whose outputs break the check
                    problems = ["check raised: " + traceback.format_exc()]
                if not problems:
                    units += out["counts"][wl.work]
                    counts.append(out["counts"])
                del out
            traced.append(tr is tracer)
            if problems:
                failures.append(f"task {j} ({wl.round[j % len(wl.round)]}): " + "; ".join(problems))
                if len(failures) <= SHOWN_FAILURES:
                    print(failures[-1], file=sys.stderr)
        rounds += 1
        elapsed = perf_counter() - t0
        done = rounds % 2 == 0 if trace else len(times) >= MIN_TASKS
        if elapsed >= MAX_PHASE_S or (elapsed >= seconds and done):
            break
    return {"times": times, "traced": traced, "counts": counts, "failures": failures,
            "units": units, "rounds": rounds, "phase_s": perf_counter() - t0}


def end_to_end(wl, phase) -> tuple[dict, dict]:
    times = phase["times"]
    if len(times) < MIN_TASKS:
        raise RuntimeError(f"only {len(times)} tasks ran in {MAX_PHASE_S} s; the tail needs {MIN_TASKS}")
    value, pct = tail(times)
    metrics = {
        "task_p50_s": statistics.median(times),
        "task_tail_s": value,
        "work_per_s": phase["units"] / sum(times),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "failed_frac": len(phase["failures"]) / len(times),
    }
    notes = {"tail_percentile": pct, "tail_beyond": 10, "work_unit": wl.work_label}
    return metrics, notes


def per_layer(wl, phase, tracer) -> dict:
    import spans
    import workloads

    workloads.run_probes(wl, tracer)
    metrics = spans.layer_metrics(tracer.spans)
    counts = phase["counts"]
    for key in workloads.COUNT_KEYS:
        if key != "pair_evals":
            metrics[f"count.{key}"] = sum(c[key] for c in counts) / len(counts) if counts else 0.0
    pair_evals = sum(c["pair_evals"] for c in counts)
    metrics["chains.build_chain_graph.edge_fill"] = (
        sum(c["graph_edges"] for c in counts) / pair_evals if pair_evals else 0.0)
    on = [t for t, tr in zip(phase["times"], phase["traced"]) if tr]
    base = statistics.median([t for t, tr in zip(phase["times"], phase["traced"]) if not tr])
    metrics["trace.overhead_frac"] = (statistics.median(on) - base) / base
    return metrics


def provenance(ifsdyn) -> dict:
    def version(dist):
        try:
            return metadata.version(dist)
        except metadata.PackageNotFoundError:
            return None

    import numpy
    return {"ifsdyn": ifsdyn.__version__, "python": platform.python_version(),
            "numpy": numpy.__version__, "scipy": version("scipy")}


def main(argv=None) -> None:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--scale", choices=("full", "tiny"), default="full")
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--spawned-ns", type=int, required=True,
                    help="time.monotonic_ns() read by the launcher just before starting this process")
    args = ap.parse_args(argv)

    ifsdyn = load_library()
    import workloads
    from spans import Tracer

    wl = workloads.make(args.workload, args.seed, args.scale)
    workloads.warm_up(wl)
    setup_s = (time.monotonic_ns() - args.spawned_ns) / 1e9
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s}))
        return

    tracer = Tracer(True)
    phase = run_phase(wl, args.seconds, bool(args.trace), tracer)
    notes = {"tasks": len(phase["times"]), "rounds": phase["rounds"],
             "phase_s": phase["phase_s"], "round": list(wl.round),
             "task_times_s": phase["times"]}
    if args.trace:
        metrics = per_layer(wl, phase, tracer)
        RESULTS.mkdir(exist_ok=True)
        spans_file = RESULTS / f"spans-{args.workload}-seed{args.seed}-{args.scale}.jsonl"
        tracer.write(spans_file)
        notes["spans_file"] = str(spans_file.relative_to(ROOT))
    else:
        metrics, more = end_to_end(wl, phase)
        notes.update(more)
    print(json.dumps({
        "setup_s": setup_s,
        "attempted": len(phase["times"]),
        "failed": len(phase["failures"]),
        "failures": phase["failures"][:SHOWN_FAILURES],
        "metrics": metrics,
        "notes": notes,
        "params": wl.params,
        "provenance": provenance(ifsdyn),
    }))


if __name__ == "__main__":
    main()
