"""End-to-end benchmark of the write, report and serve paths.

Run from the repository root::

    python3 perfbench/run.py --workload fleet_stream --seed 1 --seconds 25 --trace 0

``--trace 0`` prints the end-to-end metrics, measured with tracing off.
``--trace 1`` runs the workload untraced and then traced, half the time
each, and prints the
per-layer metrics (see ``probes.py`` and ``metrics.py``).  The last line of
standard output is one JSON object::

    {"correct": true, "attempted": 31, "failed": 0,
     "metrics": {"op_p50_ms": {"value": 412.5, "unit": "ms"}, ...}}

The lines before it are a readable table: every metric of the workload by
name and unit, including the workload's own figures (``query_warm_p99_ms``,
``live_commit_p50_ms``, ...), and in a traced run the layer splits.

End-to-end metrics, per workload:

==================  =============================  ==========================
workload            one operation (``op_p50_ms``)   work item (``throughput``)
==================  =============================  ==========================
fleet_stream        one ``run_to_store``            committed event
campaign_sharded    one ``run_campaign``            committed event
report_cold         one cycle of all 8 tables       report table
serve_live          one cold grouped ``/v1/query``  completed request
==================  =============================  ==========================

``setup_s`` is the median time to build the workload's inputs from their
``(generator, params, seed)`` spec, over several builds; every build must
produce the same digest.  ``peak_rss_mb`` is the largest resident set of
the process or any child it waited for.  ``store_bytes_per_row`` is on-disk
bytes per committed row of the store the workload writes or reads.

The three timed metrics are scaled to a reference host speed measured
between operations (:class:`summary.HostSpeed`), because the shared
sandboxes this runs on drift by tens of percent within minutes; the
table prints the plain wall-clock figures next to them.

Scratch files live under ``.perfbench/`` in the working directory and are
removed on exit.  The exit code is 0 whenever a result is printed, and 2
when the program's sources (``src/repro``) are missing.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import sys
import time
from pathlib import Path

import summary

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

#: Set-up is repeated at least this often, and until it has taken
#: :data:`SETUP_BUDGET_S` seconds (at most :data:`SETUP_MAX` builds).
SETUP_MIN = 3
SETUP_BUDGET_S = 1.0
SETUP_MAX = 25


def _setup(workload) -> tuple[list[float], list[float], set[str]]:
    """Build the inputs repeatedly; returns wall and reference-speed times."""
    speed = summary.HostSpeed()
    speed.sample()
    spans: list[tuple[float, float]] = []
    digests: set[str] = set()
    while len(spans) < SETUP_MIN or (
            sum(end - start for start, end in spans) < SETUP_BUDGET_S
            and len(spans) < SETUP_MAX):
        start = time.perf_counter()
        digests.add(workload.setup())
        spans.append((start, time.perf_counter()))
        speed.sample()
    return ([end - start for start, end in spans],
            [speed.scaled(start, end) for start, end in spans], digests)


def run_workload(name: str, seed: int, seconds: float, trace: bool,
                 work: Path, sizes=None) -> tuple[dict, list[str]]:
    """Run one workload; returns the result object and the table lines."""
    # These import the program, so only once ``src`` is on the path.
    import metrics
    import probes
    from workloads import SIZES, WORKLOADS

    size = (sizes or SIZES)[name]
    workload = WORKLOADS[name](seed, work, **size)
    setup_wall, setup_times, digests = _setup(workload)
    errors = [] if len(digests) == 1 else [
        f"rebuilding the inputs gave {len(digests)} different digests"]
    # A traced run splits its time: untraced first, then traced, so the
    # overhead of tracing is measured on the same inputs.
    span = seconds / 2 if trace else seconds
    untraced = workload.measure(span)
    runs = [untraced]
    lines = [f"workload {name}  seed {seed}  size {size}",
             f"input digest {sorted(digests)[0][:16]}  "
             f"({len(setup_times)} builds)"]
    if trace:
        tracer = probes.Tracer()
        with tracer:
            traced = workload.measure(span, tracer)
        runs.append(traced)
        ledger = tracer.ledger()
        values = metrics.per_layer(ledger, traced, untraced)
        units = dict(metrics.PER_LAYER)
        lines += _layer_lines(name, ledger, traced, values)
    else:
        try:
            op_p50 = summary.median(untraced.ref_op_ms)
        except summary.InsufficientSamples as exc:
            errors.append(f"op_p50_ms: {exc}")
            op_p50 = summary.plain_median(untraced.ref_op_ms or [0.0])
        values = {
            "setup_s": summary.plain_median(setup_times),
            "peak_rss_mb": summary.peak_rss_mb(),
            "op_p50_ms": op_p50,
            "throughput_per_s": untraced.ref_throughput,
            "store_bytes_per_row": untraced.bytes_per_row,
        }
        units = dict(metrics.END_TO_END)
    for run in runs:
        errors += run.errors
    lines.append(f"ops attempted {untraced.attempted}, "
                 f"samples {len(untraced.op_ms)}, "
                 f"{workload.item_unit} {untraced.items}, "
                 f"wall {untraced.wall_s:.2f} s, host speed "
                 f"{summary.plain_median(untraced.speed.factors):.3f} "
                 f"of the reference")
    lines.append(f"wall-clock: op p50 "
                 f"{summary.plain_median(untraced.op_ms or [0.0]):.4f} ms, "
                 f"{untraced.throughput:.4f} {workload.item_unit}/s, "
                 f"setup {summary.plain_median(setup_wall):.4f} s")
    for metric, (value, unit) in untraced.details.items():
        lines.append(f"  {metric:<40} {value:>14.4f} {unit}")
        if value != value:  # NaN: the run lacks samples for a percentile
            errors.append(f"{metric}: too few samples for the percentile")
    for metric, value in values.items():
        lines.append(f"  {metric:<40} {value:>14.4f} {units[metric]}")
    lines += [f"error: {message}" for message in errors]
    failed = sum(run.failed for run in runs)
    result = {
        "correct": not errors and failed == 0,
        "attempted": sum(run.attempted for run in runs),
        "failed": failed,
        "metrics": {metric: {"value": value, "unit": units[metric]}
                    for metric, value in values.items()},
    }
    return result, lines


def _share(part: float, whole: float) -> str:
    return f"{100.0 * part / whole:5.1f}%" if whole else "  n/a"


def _layer_lines(name: str, ledger, traced, values: dict) -> list[str]:
    """The splits the traced run is asked to confirm, next to their totals."""
    import metrics

    lines = [f"traced: {ledger.roots} root spans, {ledger.orphans} spans "
             f"outside them, unattributed "
             f"{_share(ledger.root_self_s, ledger.root_s)}"]
    reported = set(metrics.SELF_TIMES.values())
    others = sorted(((seconds, span) for span, seconds in ledger.self_s.items()
                     if span not in reported), reverse=True)[:6]
    lines.append("self time in spans without a metric of their own: " + (
        ", ".join(f"{span} {_share(seconds, ledger.root_s)}"
                  for seconds, span in others) or "none"))
    if name == "fleet_stream":
        writer = sum(ledger.self_s.get(span, 0.0) for span in (
            "store.writer.append_batch", "store.columnar.coerce",
            "store.segment.seal", "store.flush"))
        lines.append(f"writer share of run_to_store: "
                     f"{_share(writer, ledger.root_s)} of "
                     f"{ledger.root_s / max(traced.attempted, 1) * 1e3:.1f} "
                     f"ms per run")
    cold = ledger.scoped.get(("serve.service.query", "cold"))
    if cold:
        calls = ledger.durations[("serve.service.query", "cold")]
        total = sum(calls)
        read = cold["store.segment.load_columns"] + cold["store.columnar.decode"]
        lines.append(
            f"cold grouped query split over {total / len(calls) * 1e3:.2f} "
            f"ms mean: kernels {_share(cold['store.kernels.reduce'], total)}"
            f", factorize {_share(cold['store.kernels.factorize'], total)}"
            f", read+decode {_share(read, total)}"
            f", gather {_share(cold['store.query.terminal'], total)}")
    if name == "serve_live":
        lines.append(
            f"segment tier: hit ratio "
            f"{values['serve.cache.segment_hit_ratio']:.3f}, "
            f"{values['serve.cache.segment_entries']:.0f} entries of 1024, "
            f"{values['serve.generation_advances']:.0f} generation advances")
    return lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"perfbench: the program's sources are missing "
              f"({SRC / 'repro'} not found)", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r} "
              f"(have {', '.join(WORKLOADS)})", file=sys.stderr)
        return 2
    work = Path.cwd() / ".perfbench" / f"run-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    try:
        result, lines = run_workload(args.workload, args.seed, args.seconds,
                                     bool(args.trace), work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            work.parent.rmdir()
        except OSError:
            pass  # another run still uses it
    print("\n".join(lines))
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
