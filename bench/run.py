"""Benchmark of ifsdyn: one workload (or all three) end to end or traced.

    python3 bench/run.py --workload orbit-long --seed 1 --seconds 30 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 30

Each workload runs in a fresh process (bench/worker.py) with BLAS/OpenMP
threads set to 1, so peak_rss_mb belongs to that workload alone. With
--trace 0 the launcher also starts SETUP_PROBES processes that only set up,
and reports setup_s as the median over them and the measured process. With
--trace 1 it reports the per-layer metrics instead.

The metric names and units come from BENCHMARK.json at the root of the
checkout. The launcher prints one line per metric with its unit, then, as
the last line of stdout, one JSON object with the keys correct, attempted,
failed and metrics. Results with their provenance are also written to
bench/results/. It exits with 2, printing no result, when the checkout has
no src/ifsdyn to benchmark.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
WORKER = BENCH / "worker.py"
RESULTS = BENCH / "results"
WORKLOADS = ("orbit-long", "search-fanout", "chain-fine")
SETUP_PROBES = 4
RUN_LIMIT_S = 170.0
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")


class RunError(RuntimeError):
    pass


def spawn(args: list[str], timeout: float) -> dict:
    env = dict(os.environ, **{var: "1" for var in THREAD_VARS})
    cmd = [sys.executable, str(WORKER), *args, "--spawned-ns", str(time.monotonic_ns())]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True,
                              timeout=max(timeout, 1.0))
    except subprocess.TimeoutExpired as exc:
        raise RunError(f"worker exceeded {timeout:.0f} s: {' '.join(args)}") from exc
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RunError(f"worker exited with {proc.returncode}: {' '.join(args)}")
    return json.loads(lines[-1])


def git_sha() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                          capture_output=True, text=True, timeout=30)
    return proc.stdout.strip() if proc.returncode == 0 else None


def run_workload(name: str, args, spec: dict) -> dict:
    common = ["--workload", name, "--seed", str(args.seed), "--seconds", str(args.seconds),
              "--trace", str(args.trace), "--scale", args.scale]
    # Half of the set-up probes run before the measured process and half
    # after it, so that the set-up samples spread over the whole run.
    probes = 0 if args.trace else SETUP_PROBES
    start = time.monotonic()
    setups = [spawn(common + ["--setup-only"], 30.0)["setup_s"] for _ in range(probes // 2)]
    res = spawn(common, RUN_LIMIT_S - 30.0 - (time.monotonic() - start))
    setups.append(res["setup_s"])
    setups += [spawn(common + ["--setup-only"], 30.0)["setup_s"] for _ in range(probes - probes // 2)]
    values = dict(res["metrics"], setup_s=statistics.median(setups))
    kind = "per_layer" if args.trace else "end_to_end"
    missing = [m["name"] for m in spec[kind] if m["name"] not in values]
    if missing:
        raise RunError(f"{name}: no value for {', '.join(missing)}")
    res["notes"]["setup_samples_s"] = setups
    res["provenance"].update(git=git_sha(), nproc=os.cpu_count(),
                             cpus_allowed=len(os.sched_getaffinity(0)))
    res["run"] = {"workload": name, "seed": args.seed, "seconds": args.seconds,
                  "trace": args.trace, "scale": args.scale, "blas_threads": 1}
    res["metrics"] = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in spec[kind]}
    if not args.trace:
        res["metrics_extra"] = {"failed_frac": {"value": values["failed_frac"], "unit": "ratio"}}
    RESULTS.mkdir(exist_ok=True)
    out = RESULTS / f"{name}-seed{args.seed}-trace{args.trace}-{args.scale}.json"
    out.write_text(json.dumps(res, indent=1) + "\n")
    return res


def report(res: dict) -> None:
    run, notes, prov = res["run"], res["notes"], res["provenance"]
    print(f"# workload={run['workload']} seed={run['seed']} seconds={run['seconds']} "
          f"trace={run['trace']} scale={run['scale']} tasks={notes['tasks']} "
          f"rounds={notes['rounds']} phase_s={notes['phase_s']:.2f}")
    print("# provenance " + " ".join(f"{k}={v}" for k, v in prov.items()))
    print("# params " + json.dumps(res["params"]))
    extra = {
        "setup_s": f"median of {len(notes.get('setup_samples_s', []))} set-ups",
        "task_tail_s": f"p{notes.get('tail_percentile', 0):.1f}, 10 of {notes['tasks']} tasks beyond",
        "work_per_s": f"{notes.get('work_unit')} per second of task time",
    }
    rows = dict(res["metrics"], **res.get("metrics_extra", {}))
    for name, m in rows.items():
        print(f"{name:<46} {m['value']:>14.6g} {m['unit']:<8} {extra.get(name, '') if not run['trace'] else ''}")
    for failure in res["failures"]:
        print(f"# FAILED {failure}")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--scale", choices=("full", "tiny"), default="full",
                    help="tiny: small inputs for the self-test's smoke run")
    args = ap.parse_args(argv)

    if not (ROOT / "src" / "ifsdyn" / "__init__.py").is_file():
        print(f"error: no src/ifsdyn under {ROOT}; run from a checkout of the repository",
              file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    try:
        results = [run_workload(name, args, spec) for name in names]
    except RunError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    for res in results:
        report(res)
    metrics = results[0]["metrics"] if len(results) == 1 else {
        f"{res['run']['workload']}.{k}": v for res in results for k, v in res["metrics"].items()}
    failed = sum(res["failed"] for res in results)
    print(json.dumps({"correct": failed == 0,
                      "attempted": sum(res["attempted"] for res in results),
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
