"""Self-test of the benchmark harness at a tiny size (a few seconds each).

    python3 perfbench/selftest.py

Checks that ``BENCHMARK.json`` names exactly the metrics ``metrics.py``
emits, with the same units; that every workload, traced and untraced,
emits every named metric with its unit, passes its correctness checks and
fails no operation; and that a percentile is refused unless the run holds
at least ten samples beyond it.  Exits non-zero on the first failure.
"""

from __future__ import annotations

import json
import os
import shutil
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import metrics  # noqa: E402
import summary  # noqa: E402
from run import run_workload  # noqa: E402
from workloads import TINY_SIZES, WORKLOADS  # noqa: E402


def check_sample_rule() -> None:
    assert summary.samples_needed(0.5) == 20
    assert summary.samples_needed(0.9) == 100
    assert summary.samples_needed(0.99) == 1000
    for q, need in ((0.5, 20), (0.9, 100), (0.99, 1000)):
        try:
            summary.percentile(list(range(need - 1)), q)
        except summary.InsufficientSamples:
            pass
        else:
            raise AssertionError(f"p{q} accepted {need - 1} samples")
        summary.percentile(list(range(need)), q)


def check_declared() -> dict:
    declared = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    for key, ours in (("end_to_end", metrics.END_TO_END),
                      ("per_layer", metrics.PER_LAYER)):
        listed = [(entry["name"], entry["unit"]) for entry in declared[key]]
        assert listed == list(ours), f"BENCHMARK.json {key} != metrics.py"
    names = [entry["name"] for entry in declared["workloads"]]
    assert names == list(WORKLOADS), f"workloads {names} != {list(WORKLOADS)}"
    return declared


def check_workloads(declared: dict) -> None:
    work = HERE.parent / ".perfbench" / f"selftest-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    try:
        for name in WORKLOADS:
            for trace, key in ((False, "end_to_end"), (True, "per_layer")):
                result, lines = run_workload(name, 3, 2.0, trace, work,
                                             sizes=TINY_SIZES)
                units = {entry["name"]: entry["unit"]
                         for entry in declared[key]}
                got = {metric: entry["unit"]
                       for metric, entry in result["metrics"].items()}
                assert got == units, f"{name} trace={trace}: {got} != {units}"
                assert result["correct"] and result["failed"] == 0, \
                    "\n".join(lines)
                assert result["attempted"] >= summary.samples_needed(0.5)
                print(f"ok  {name:<18} trace={int(trace)}  "
                      f"{len(got)} metrics, {result['attempted']} ops")
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            work.parent.rmdir()
        except OSError:
            pass  # a benchmark run still uses it


def main() -> int:
    check_sample_rule()
    print("ok  percentile sample rule")
    check_workloads(check_declared())
    return 0


if __name__ == "__main__":
    sys.exit(main())
