"""Self-test of the benchmark itself; finishes in seconds.

    python3 bench/selftest.py

1. Each workload's check accepts a correct task and rejects the same task's
   outputs with one deliberate fault (a record with one corrupted point, a
   graph with one edge dropped).
2. A tiny-size run of all three workloads, untraced and traced, is correct
   and reports exactly the metrics that BENCHMARK.json names.
3. In a directory holding only BENCHMARK.json and bench/, the benchmark
   exits non-zero without printing a result.

Exits 0 when every case passes.
"""

from __future__ import annotations

import dataclasses
import json
import shutil
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(ROOT / "src"))

import workloads  # noqa: E402
from spans import Tracer  # noqa: E402


def _moved_point(rec, i: int, source: int):
    pts = list(rec.points)
    assert pts[i].value != pts[source].value
    pts[i] = pts[source]
    return dataclasses.replace(rec, points=tuple(pts))


def corrupt_orbit(out: dict) -> None:
    rec = out["rec"]
    out["rec"] = _moved_point(rec, len(rec.points) // 2, len(rec.points) // 2 + 7)


def corrupt_search(out: dict) -> None:
    rec, rep = out["product"]
    out["product"] = (_moved_point(rec, len(rec.points) // 2, len(rec.points) // 2 + 7), rep)


def corrupt_chain(out: dict) -> None:
    g = out["graph"]
    edges, labels = list(g.out_edges), list(g.out_labels)
    edges[0], labels[0] = edges[0][1:], labels[0][1:]
    out["graph"] = dataclasses.replace(g, out_edges=tuple(edges), out_labels=tuple(labels))


CORRUPTIONS = {
    "orbit-long": ("record with one corrupted point", corrupt_orbit),
    "search-fanout": ("product record with one corrupted point", corrupt_search),
    "chain-fine": ("chain graph with one edge dropped", corrupt_chain),
}


def check_rejections() -> list[str]:
    failures = []
    for name, (what, corrupt) in CORRUPTIONS.items():
        wl = workloads.make(name, 0, "tiny")
        for j in range(len(wl.round)):
            out = wl.task(j, Tracer(False))
            problems = wl.check(j, out)
            if problems:
                failures.append(f"{name} task {j}: correct outputs rejected: {problems}")
                continue
            corrupt(out)
            problems = wl.check(j, out)
            status = "rejected" if problems else "ACCEPTED"
            print(f"{name} task {j} ({wl.round[j]}): {what}: {status} {problems[:1]}")
            if not problems:
                failures.append(f"{name} task {j}: {what} was accepted")
    return failures


def run_bench(cwd: Path, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, "bench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=170)


def check_smoke() -> list[str]:
    failures = []
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    for trace, kind in (("0", "end_to_end"), ("1", "per_layer")):
        proc = run_bench(ROOT, "--workload", "all", "--seed", "0", "--seconds", "1",
                         "--trace", trace, "--scale", "tiny")
        if proc.returncode != 0:
            failures.append(f"smoke --trace {trace} exited {proc.returncode}: {proc.stderr[-2000:]}")
            continue
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        want = {f"{w}.{m['name']}" for w in workloads.WORKLOADS for m in spec[kind]}
        print(f"smoke --trace {trace}: correct={result['correct']} attempted={result['attempted']} "
              f"metrics={len(result['metrics'])}")
        if not result["correct"] or result["failed"]:
            failures.append(f"smoke --trace {trace}: {result['failed']} tasks failed")
        if set(result["metrics"]) != want:
            failures.append(f"smoke --trace {trace}: metric names differ from BENCHMARK.json: "
                            f"{sorted(set(result['metrics']) ^ want)}")
    return failures


def check_bare_directory() -> list[str]:
    bare = BENCH / "results" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(BENCH, bare / "bench", ignore=shutil.ignore_patterns("results", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    proc = run_bench(bare, "--workload", "orbit-long", "--seed", "0", "--seconds", "1", "--trace", "0")
    shutil.rmtree(bare)
    print(f"bare directory: exit {proc.returncode}, stdout {proc.stdout.strip()!r}")
    if proc.returncode == 0 or proc.stdout.strip():
        return ["bare directory: the benchmark did not fail cleanly"]
    return []


def main() -> int:
    failures = check_rejections() + check_smoke() + check_bare_directory()
    for f in failures:
        print("FAIL " + f)
    print("selftest: " + ("FAILED" if failures else "ok"))
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
