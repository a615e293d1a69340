"""The library surface the benchmark relies on, checked in tier-1.

`bench/selftest.py` runs each benchmark workload at its tiny size and checks
that the workload's own check accepts the library's outputs and rejects them
with one deliberate fault. Those checks iterate and index `rec.points`, read
`Point.value` payloads (bit tuples on symbol spaces) and rebuild records and
graphs with `dataclasses.replace`, so a library change that breaks any of
this fails here, not only when the benchmark runs.
"""

import importlib
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent.parent / "bench"


def test_benchmark_checks_accept_outputs_and_reject_faults(monkeypatch):
    monkeypatch.syspath_prepend(str(BENCH))
    monkeypatch.setattr(sys, "dont_write_bytecode", True)  # leave bench/ as it is
    selftest = importlib.import_module("selftest")
    assert selftest.check_rejections() == []
