"""Command-line interface for the gaugeNN reproduction.

Four subcommands mirror the paper's workflow:

* ``census``    — generate a synthetic snapshot and run the offline analysis
                  (Tables 2-3, Fig. 4, Sec. 4.5/6.1 statistics).
* ``benchmark`` — run the unique models of a snapshot across the device fleet
                  (Figs. 8-10), fanned out on the parallel sweep runner.
* ``sweep``     — full declarative device x backend x batch x thread sweep
                  with upfront compatibility pruning (Sec. 6.2/6.3 style);
                  ``--store PATH`` streams the results into a persistent,
                  queryable store instead of holding them in memory.
* ``store``     — ``query`` / ``report`` / ``info`` / ``compact`` /
                  ``export`` / ``diff`` over a persisted campaign:
                  vectorised filters and aggregations, the paper's figure
                  tables served from disk, per-kind segment format mix and
                  integrity, segment merging (optionally converting
                  row-oriented JSONL segments to the packed columnar
                  format), whole-store format export, and a vectorised
                  store-vs-store diff (aligned group keys, per-metric
                  deltas, new/removed entities).
* ``scenarios`` — scenario-driven energy costs on the Qualcomm boards
                  (Table 4); ``--store PATH`` persists the scenario rows.
* ``fleet``     — deterministic discrete-event fleet simulation: a virtual
                  population issuing scenario-driven inference traffic with
                  stateful thermal/battery devices, device-queue
                  back-pressure and cloud offload routing, streamed into a
                  results store and reported from it; ``--cloud-capacity``
                  resolves cross-user interference on shared regional cloud
                  capacity to a damped deterministic fixed point.
* ``campaign``  — out-of-core sharded campaigns: split a fleet population
                  into contiguous user-range shards, simulate each shard in
                  its own process into a shard-local store, then merge by
                  segment adoption + exact demand-grid addition into one
                  queryable store (bit-identical to an unsharded run for
                  any shard count).
* ``serve``     — asyncio HTTP query/report service over a store directory
                  with snapshot-isolated reads: every request is evaluated
                  against one pinned manifest generation while a campaign
                  keeps appending, with a (generation, fragment) result
                  cache over the store's column views and a background
                  refresh worker; responses are bit-identical to
                  ``store query`` / ``store report --json`` at the same
                  generation.
* ``compare``   — temporal comparison between the 2020 and 2021 snapshots
                  (Fig. 5, Sec. 4.6).
* ``obs``       — telemetry reports over a sidecar store written by
                  :mod:`repro.obs` (``--telemetry`` on ``fleet`` /
                  ``campaign run``): run timeline, per-stage breakdown,
                  shard-skew and metric tables; plus the drift gates —
                  ``obs snapshot`` writes a committed-baseline snapshot
                  (report tables + deterministic counters) and
                  ``obs drift`` classifies a run against it (exact class
                  vs wall-clock tolerance bands, exit code = severity),
                  with ``--bench`` ingesting BENCH_*.json history into a
                  ``bench_runs`` trajectory store.

Example::

    python -m repro.cli census --scale 0.05
    python -m repro.cli benchmark --scale 0.05 --devices A20 S21 --workers 4
    python -m repro.cli sweep --scale 0.02 --backends cpu xnnpack --batches 1 8
    python -m repro.cli sweep --scale 0.02 --store campaign.store
    python -m repro.cli store query campaign.store --where device_name=S21 \
        --group-by backend --agg latency_ms:mean,median
    python -m repro.cli store report campaign.store --table latency_ecdf
    python -m repro.cli fleet --users 200 --hours 12 --store fleet.store
    python -m repro.cli fleet --users 200 --cloud-capacity --diurnal \
        --store fleet.store
    python -m repro.cli store report fleet.store --table cloud_load
    python -m repro.cli store compact fleet.store
    python -m repro.cli campaign run --users 100000 --shards 8 \
        --store campaign.dir --compress
    python -m repro.cli store merge merged.store shard0.store shard1.store
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path
from typing import Optional, Sequence

import numpy as np

from repro import obs
from repro.android.appgen import AppGenerator, GeneratorConfig, ModelPool
from repro.android.playstore import PlayStore
from repro.core import reports
from repro.core.optimizations import analyze_optimizations
from repro.core.pipeline import GaugeNN
from repro.core.scenarios import STANDARD_SCENARIOS, run_scenario, summarize
from repro.core.temporal import compare_snapshots
from repro.core.uniqueness import analyze_finetuning, analyze_uniqueness
from repro.devices.device import DEVICE_FLEET, DEV_BOARDS, device_by_name
from repro.devices.scheduler import ThreadConfig
from repro.runtime import Backend, SweepRunner, SweepSpec
from repro.store import ResultStore, compact_store
from repro.store.schema import ROW_KINDS, TELEMETRY_KINDS

__all__ = ["main", "build_parser"]


def _build_store(scale: float, snapshots: Sequence[str]) -> PlayStore:
    pool = ModelPool()
    configs = {
        "2020": GeneratorConfig.snapshot_2020,
        "2021": GeneratorConfig.snapshot_2021,
    }
    generated = [
        AppGenerator(configs[label](scale=scale), pool).generate()
        for label in snapshots
    ]
    return PlayStore(generated)


def _analysis_for(scale: float, label: str):
    store = _build_store(scale, [label])
    return GaugeNN(store).analyze_snapshot(label)


# --------------------------------------------------------------------------- #
# Subcommands
# --------------------------------------------------------------------------- #
def cmd_census(args: argparse.Namespace) -> int:
    """Offline characterisation of one snapshot."""
    analysis = _analysis_for(args.scale, args.snapshot)
    row = reports.dataset_table(analysis)
    print(f"snapshot {row.label} ({row.date}) at scale {args.scale}")
    print(f"  total apps          : {row.total_apps}")
    print(f"  apps w/ frameworks  : {row.apps_with_frameworks} ({row.apps_with_frameworks_pct:.1f}%)")
    print(f"  apps w/ models      : {row.apps_with_models} ({row.apps_with_models_pct:.1f}%)")
    print(f"  total models        : {row.total_models}")
    print(f"  unique models       : {row.unique_models} ({row.unique_models_pct:.1f}%)")

    print("\nmodels per framework:")
    for framework, count in sorted(analysis.models_by_framework().items(),
                                   key=lambda item: -item[1]):
        print(f"  {framework:<8} {count}")

    print("\ntop tasks:")
    for task, count in sorted(analysis.models_by_task().items(), key=lambda i: -i[1])[:10]:
        print(f"  {task:<24} {count}")

    uniqueness = analyze_uniqueness(analysis.models)
    finetuning = analyze_finetuning(analysis.models)
    adoption = analyze_optimizations(analysis.models)
    print("\nuniqueness / fine-tuning:")
    print(f"  shared instances    : {100 * uniqueness.shared_fraction:.1f}%")
    print(f"  sharing >=20% wts   : {100 * finetuning.sharing_fraction:.1f}% of unique models")
    print("\noptimisation adoption:")
    print(f"  dequantize layers   : {100 * adoption.dequantize_fraction:.1f}%")
    print(f"  int8 weights        : {100 * adoption.int8_weight_fraction:.1f}%")
    print(f"  near-zero weights   : {100 * adoption.mean_near_zero_weight_fraction:.2f}%")
    print(f"  clustering / pruning: {adoption.clustered_models} / {adoption.pruned_models}")
    return 0


def cmd_benchmark(args: argparse.Namespace) -> int:
    """Fleet-wide latency/energy benchmark of the unique models."""
    analysis = _analysis_for(args.scale, args.snapshot)
    device_names = args.devices or [device.name for device in DEVICE_FLEET]
    backend = Backend(args.backend)

    print(f"benchmarking {analysis.unique_models} unique models on "
          f"{device_names} ({backend.value})")
    results = GaugeNN.benchmark_unique_models(
        analysis,
        [device_by_name(name) for name in device_names],
        backends=(backend,),
        num_inferences=args.inferences,
        max_workers=args.workers,
    )
    results_by_device = {name: [] for name in device_names}
    for result in results:
        results_by_device[result.device_name].append(result)

    print(f"\n{'device':<8}{'models':>7}{'mean ms':>10}{'median ms':>12}{'median mJ':>12}")
    for name, device_results in results_by_device.items():
        if not device_results:
            print(f"{name:<8}{0:>7}")
            continue
        latencies = [r.latency_ms for r in device_results]
        energies = [r.energy_mj for r in device_results]
        print(f"{name:<8}{len(device_results):>7}{np.mean(latencies):>10.1f}"
              f"{np.median(latencies):>12.1f}{np.median(energies):>12.1f}")
    return 0


def _parse_thread_config(label: str) -> Optional[ThreadConfig]:
    """Parse a Fig. 12-style thread label: ``auto``, ``4`` or ``4a2``.

    Used as an argparse ``type``, so a malformed label becomes a clean usage
    error instead of a traceback.
    """
    try:
        if label == "auto":
            return None
        if "a" in label:
            threads, affinity = label.split("a", 1)
            return ThreadConfig(threads=int(threads), affinity=int(affinity))
        return ThreadConfig(threads=int(label))
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"invalid thread config {label!r} (expected auto, 4 or 4a2)")


def _positive_int(value: str) -> int:
    parsed = int(value)
    if parsed <= 0:
        raise argparse.ArgumentTypeError(f"must be positive, got {value}")
    return parsed


def cmd_sweep(args: argparse.Namespace) -> int:
    """Full declarative fleet sweep with compatibility pruning."""
    analysis = _analysis_for(args.scale, args.snapshot)
    graphs = GaugeNN.unique_graphs(analysis)
    device_names = args.devices or [device.name for device in DEVICE_FLEET]
    spec = SweepSpec(
        devices=tuple(device_by_name(name) for name in device_names),
        graphs=tuple(graphs),
        backends=tuple(Backend(b) for b in args.backends),
        batch_sizes=tuple(args.batches),
        thread_configs=tuple(args.threads),
        num_inferences=args.inferences,
        seed=args.seed,
    )
    runner = SweepRunner(spec, max_workers=args.workers,
                         chunk_size=args.chunk_size)
    jobs = runner.compatible_jobs()
    print(f"sweep: {spec.num_combinations} combinations, "
          f"{len(jobs)} runnable after pruning "
          f"({len(graphs)} models x {len(device_names)} devices x "
          f"{len(spec.backends)} backends x {len(spec.batch_sizes)} batches x "
          f"{len(spec.thread_configs)} thread configs)")

    if args.store is not None:
        # Streamed ingestion: nothing is collected in memory; the summary is
        # then served from the persisted rows through the query engine.
        store = ResultStore(args.store)
        GaugeNN.persist_snapshot(analysis, store)
        rows = runner.run_to_store(store)
        print(f"streamed {rows} results into {store.root} "
              f"({len(store.segments)} segments)")
        grouped = store.query("executions").group_by(
            "device_name", "backend", "batch_size", "thread_label").agg(
            models=("latency_ms", "count"),
            mean_ms=("latency_ms", "mean"),
            median_mj=("energy_mj", "median")).aggregate()
        print(f"\n{'device':<8}{'backend':<10}{'batch':>6}{'threads':>9}"
              f"{'models':>8}{'mean ms':>10}{'median mJ':>12}")
        for row in grouped:
            print(f"{row['device_name']:<8}{row['backend']:<10}"
                  f"{row['batch_size']:>6}{row['thread_label']:>9}"
                  f"{row['models']:>8}{row['mean_ms']:>10.1f}"
                  f"{row['median_mj']:>12.1f}")
        return 0

    results = runner.run()
    grouped = {}
    for result in results:
        key = (result.device_name, result.backend.value, result.batch_size,
               result.thread_label)
        grouped.setdefault(key, []).append(result)
    print(f"\n{'device':<8}{'backend':<10}{'batch':>6}{'threads':>9}"
          f"{'models':>8}{'mean ms':>10}{'median mJ':>12}")
    for (device, backend, batch, threads), group in sorted(grouped.items()):
        latencies = [r.latency_ms for r in group]
        energies = [r.energy_mj for r in group]
        print(f"{device:<8}{backend:<10}{batch:>6}{threads:>9}"
              f"{len(group):>8}{np.mean(latencies):>10.1f}"
              f"{np.median(energies):>12.1f}")
    return 0


# --------------------------------------------------------------------------- #
# store subcommands
# --------------------------------------------------------------------------- #
#: Comparison operators accepted in --where expressions, longest first so
#: ``<=`` is not parsed as ``<`` against ``=value``.
_WHERE_OPS = ("<=", ">=", "!=", "==", "<", ">", "=")


def _parse_where(expression: str) -> tuple[str, str, object]:
    """Parse a ``--where`` expression like ``device_name=S21`` or ``latency_ms<5``.

    Delegates to :func:`repro.store.query.parse_predicate` — the same
    grammar ``repro serve`` accepts in ``/v1/query`` parameters.
    """
    from repro.store.query import parse_predicate

    try:
        return parse_predicate(expression)
    except ValueError as error:
        raise argparse.ArgumentTypeError(str(error))


def _parse_agg(expression: str) -> tuple[str, list[str]]:
    """Parse an ``--agg`` expression like ``latency_ms:mean,median``."""
    from repro.store.query import parse_agg_expr

    try:
        return parse_agg_expr(expression)
    except ValueError as error:
        raise argparse.ArgumentTypeError(str(error))


def _format_cell(value: object) -> str:
    """One right-aligned query-output cell (None = no defined value)."""
    if value is None:
        return f"{'-':>18}"
    if isinstance(value, float):
        return f"{value:>18.4f}"
    return f"{str(value):>18}"


def cmd_store_query(args: argparse.Namespace) -> int:
    """Filter / group / aggregate over a persisted campaign."""
    store = ResultStore(args.path)
    query = store.query(args.kind)
    try:
        for column, op, value in args.where:
            query.where(column, op, value)
        if args.group_by:
            query.group_by(*args.group_by)
        for column, fns in args.agg:
            query.agg(**{f"{column}_{fn}": (column, fn) for fn in fns})
    except (KeyError, ValueError) as error:
        # Unknown column, bad operator or type-mismatched value: a usage
        # error, not a traceback.
        print(f"error: {error}", file=sys.stderr)
        return 2

    if args.agg:
        output = query.aggregate()
        rows = output if isinstance(output, list) else [output]
        if not rows:
            print("no matching rows")
            return 0
        header = list(rows[0])
        print("  ".join(f"{name:>18}" for name in header))
        for row in rows:
            print("  ".join(_format_cell(row[name]) for name in header))
    else:
        rows = query.rows(limit=args.limit)
        for row in rows:
            print(row)
        if not rows:
            print("no matching rows")
    stats = query.stats
    print(f"\nscanned {stats.segments_scanned}/{stats.segments_total} segments "
          f"({stats.segments_skipped} pruned by stats), "
          f"{stats.rows_matched}/{stats.rows_scanned} rows matched")
    return 0


def cmd_store_report(args: argparse.Namespace) -> int:
    """Serve the paper's figure tables from a persisted campaign.

    Text and ``--json`` render the same :func:`repro.serve.report_payload`,
    so both read one pinned generation through one definition per table.
    """
    from repro.serve import report_payload

    payload = report_payload(ResultStore(args.path), args.table,
                             device=args.device, min_apps=args.min_apps)
    if args.json:
        import json

        print(json.dumps(payload, indent=2, sort_keys=False))
        return 0
    if args.table == "tail_latency":
        if not payload["rows"]:
            print("store holds no fleet_events rows")
            return 0
        print(f"{'device':<16}{'events':>9}{'p50 ms':>9}{'p90 ms':>9}"
              f"{'p99 ms':>9}{'p999 ms':>9}")
        for row in payload["rows"]:
            print(f"{row['device_name']:<16}{row['events']:>9}"
                  f"{row['p50_ms']:>9.1f}{row['p90_ms']:>9.1f}"
                  f"{row['p99_ms']:>9.1f}{row['p999_ms']:>9.1f}")
    elif args.table == "drain":
        if payload["median_mah"] is None:
            print("store holds no fleet_events rows")
            return 0
        print(f"users: {payload['users']}")
        print(f"median drain: {payload['median_mah']:.2f} mAh")
        print(f"p90 drain   : {payload['p90_mah']:.2f} mAh")
    elif args.table == "latency_flops":
        for device, points in payload["points"].items():
            print(f"{device}: {len(points)} points")
            for latency_ms, flops in points[:10]:
                print(f"  {latency_ms:>10.2f} ms  {flops:>14.0f} FLOPs")
            if len(points) > 10:
                print(f"  ... {len(points) - 10} more")
    elif args.table == "cloud_load":
        if not payload["rows"]:
            print("store holds no fleet_load rows")
            return 0
        print(f"{'region':<12}{'API':<28}{'requests':>10}{'peak rps':>10}"
              f"{'MB':>8}{'bins':>6}")
        for row in payload["rows"]:
            print(f"{row['region']:<12}{row['cloud_api']:<28}"
                  f"{row['requests']:>10}{row['peak_rps']:>10.2f}"
                  f"{row['payload_bytes'] / 1e6:>8.1f}{row['active_bins']:>6}")
    elif args.table == "summary":
        summary = payload["summary"]
        print(f"segments: {summary['segments']}")
        for kind, count in summary["rows"].items():
            print(f"  {kind:<12} {count} rows")
        print(f"devices : {', '.join(summary['devices']) or '-'}")
        print(f"backends: {', '.join(summary['backends']) or '-'}")
    elif args.table == "latency_ecdf":
        print(f"{'device':<8}{'models':>8}{'median ms':>12}{'p90 ms':>10}{'p99 ms':>10}")
        for row in payload["rows"]:
            print(f"{row['device']:<8}{row['models']:>8}{row['median_ms']:>12.1f}"
                  f"{row['p90_ms']:>10.1f}{row['p99_ms']:>10.1f}")
    elif args.table == "energy":
        print(f"{'device':<8}{'median mJ':>12}{'mean mJ':>10}{'median W':>10}"
              f"{'MFLOP/sW':>10}")
        for row in payload["rows"]:
            print(f"{row['device']:<8}{row['energy_median_mj']:>12.1f}"
                  f"{row['energy_mean_mj']:>10.1f}{row['power_median_w']:>10.2f}"
                  f"{row['efficiency_median_mflops_per_sw']:>10.1f}")
    else:  # cloud
        print(f"{'API':<28}{'provider':<12}{'apps':>6}")
        for row in payload["rows"]:
            print(f"{row['api']:<28}{row['provider']:<12}{row['apps']:>6}")
    return 0


def _print_summary_table(summary: dict) -> None:
    print(f"\n{'kind':<18}{'segments':>9}{'rows':>10}{'on-disk':>12}"
          "  formats")
    for kind_name, entry in summary.items():
        mix = ", ".join(f"{count} {fmt}" for fmt, count
                        in sorted(entry["formats"].items()))
        print(f"{kind_name:<18}{entry['segments']:>9}{entry['rows']:>10}"
              f"{entry['bytes'] / 1e6:>10.2f}MB  {mix}")


def cmd_store_info(args: argparse.Namespace) -> int:
    """Inspect a persisted campaign's layout, format mix and integrity."""
    store = ResultStore(args.path)
    if args.json:
        import json

        payload = store.info_payload()
        if args.verify:
            payload["verified_segments"] = store.verify_integrity()
        print(json.dumps(payload, indent=2, sort_keys=False))
        return 0
    print(store)
    for meta in store.segments:
        print(f"  {meta.name:<22} {meta.kind:<12} {meta.format:<9} "
              f"{meta.rows:>7} rows  sha256 {meta.sha256[:12]}")
    summary = store.format_summary()
    # Telemetry kinds report under their own heading: a sidecar store is
    # all telemetry, a result store should show none.
    results = {kind: entry for kind, entry in summary.items()
               if kind not in TELEMETRY_KINDS}
    telemetry = {kind: entry for kind, entry in summary.items()
                 if kind in TELEMETRY_KINDS}
    if results:
        _print_summary_table(results)
    if telemetry:
        print("\ntelemetry:")
        _print_summary_table(telemetry)
    if args.verify:
        verified = store.verify_integrity()
        print(f"verified {verified} segment checksums: OK")
    return 0


def cmd_store_export(args: argparse.Namespace) -> int:
    """Rewrite a store into a fresh one in the requested segment format."""
    from repro.store import export_store

    try:
        stats = export_store(args.path, args.dest,
                             output_format=args.format,
                             rows_per_segment=args.rows_per_segment,
                             kinds=args.kinds or None,
                             compress=args.compress)
    except (KeyError, ValueError) as error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    print(f"exported {stats.rows} rows ({', '.join(stats.kinds) or 'no kinds'}) "
          f"into {args.dest} as {stats.segments} {stats.output_format} "
          f"segments")
    delta = stats.source_bytes - stats.output_bytes
    print(f"  {stats.source_bytes / 1e6:.2f} MB -> "
          f"{stats.output_bytes / 1e6:.2f} MB "
          f"({'reclaimed' if delta >= 0 else 'grew by'} "
          f"{abs(delta) / 1e6:.2f} MB)")
    if args.verify:
        verified = ResultStore(args.dest).verify_integrity()
        print(f"verified {verified} segment checksums: OK")
    return 0


def cmd_store_compact(args: argparse.Namespace) -> int:
    """Merge a store's small committed segments into few large ones."""
    store = ResultStore(args.path)
    stats = compact_store(store, rows_per_segment=args.rows_per_segment,
                          kinds=args.kinds or None,
                          output_format=args.format,
                          compress=args.compress)
    if not stats.kinds_compacted:
        print(f"nothing to compact: {stats.segments_before} segments already "
              f"at target layout")
        return 0
    print(f"compacted {', '.join(stats.kinds_compacted)}: "
          f"{stats.segments_before} -> {stats.segments_after} segments "
          f"({stats.rows_rewritten} rows rewritten, "
          f"{stats.files_removed} files removed, "
          f"{'reclaimed' if stats.bytes_reclaimed >= 0 else 'grew by'} "
          f"{abs(stats.bytes_reclaimed) / 1e6:.2f} MB)")
    if args.verify:
        verified = store.verify_integrity()
        print(f"verified {verified} segment checksums: OK")
    return 0


def cmd_store_merge(args: argparse.Namespace) -> int:
    """Adopt source stores' segments into a destination, one commit."""
    from repro.store import merge_stores

    try:
        stats = merge_stores(ResultStore(args.dest), args.sources,
                             kinds=args.kinds or None, verify=args.verify)
    except (KeyError, ValueError) as error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    print(f"merged {stats.sources} stores into {args.dest}: "
          f"{stats.segments_adopted} segments adopted "
          f"({stats.rows_adopted} rows; {stats.files_linked} hard-linked, "
          f"{stats.files_copied} copied; "
          f"kinds: {', '.join(stats.kinds) or 'none'})")
    return 0


def _with_telemetry(args: argparse.Namespace, run_id: str, body) -> int:
    """Run ``body`` with telemetry enabled when ``--telemetry PATH`` was given.

    On success the collected snapshot lands in the sidecar store at the
    given path (tagged ``run_id``); telemetry is always disabled again
    afterwards so one command's spans never leak into the next.
    """
    telemetry = getattr(args, "telemetry", None)
    if telemetry is None:
        return body()
    from repro.obs.sink import write_telemetry

    obs.enable()
    try:
        code = body()
        rows = write_telemetry(telemetry, run_id=run_id)
        print(f"telemetry: {rows} rows into {telemetry}")
        return code
    finally:
        obs.disable()


def cmd_campaign_run(args: argparse.Namespace) -> int:
    return _with_telemetry(args, "campaign", lambda: _campaign_run_body(args))


def _campaign_run_body(args: argparse.Namespace) -> int:
    """Sharded out-of-core campaign: simulate, adopt, add, report."""
    from repro.campaign import campaign_spec, run_campaign

    try:
        spec = campaign_spec(args.workload, args.users, seed=args.seed,
                             horizon_s=args.hours * 3600.0)
    except KeyError as error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    print(f"campaign: {spec.num_users} users over {args.hours:g} h, "
          f"{args.shards} shards ({args.workload} workload"
          f"{', compressed' if args.compress else ''})")
    try:
        result = run_campaign(
            spec, args.store, shards=args.shards,
            bin_seconds=args.bin_minutes * 60.0,
            rows_per_segment=args.rows_per_segment,
            compress=args.compress, max_parallel=args.max_parallel)
    except ValueError as error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    for shard in result.shard_results:
        print(f"  shard {shard.shard_index:>4}: {shard.users} users, "
              f"{shard.events} events ({shard.offloaded} offloaded) "
              f"in {shard.seconds:.1f}s, {shard.segments} segments")
    merge = result.merge
    print(f"simulated {result.events} events in "
          f"{result.simulate_seconds:.1f}s; merged "
          f"{merge.segments_adopted} segments "
          f"({merge.files_linked} linked, {merge.files_copied} copied) "
          f"in {result.merge_seconds:.1f}s")
    print(f"merged store: {result.store_root}")
    return 0


def cmd_scenarios(args: argparse.Namespace) -> int:
    """Table 4 scenario energy on the development boards."""
    analysis = _analysis_for(args.scale, args.snapshot)
    pairs = GaugeNN.graphs_with_tasks(analysis)
    rows_written = 0

    def run_all(writer=None) -> None:
        nonlocal rows_written
        print(f"{'device':<8}{'scenario':<12}{'models':>7}{'avg mAh':>12}{'max mAh':>12}")
        for device in DEV_BOARDS:
            for scenario in STANDARD_SCENARIOS:
                results = run_scenario(scenario, device, pairs)
                if writer is not None:
                    rows_written += writer.append_many(results)
                summary = summarize(results)
                if summary is None:
                    print(f"{device.name:<8}{scenario.name:<12}{'-':>7}")
                    continue
                print(f"{device.name:<8}{scenario.name:<12}{summary.model_count:>7}"
                      f"{summary.mean_mah:>12.3f}{summary.max_mah:>12.3f}")

    if args.store is None:
        run_all()
        return 0
    # Context-managed so rows ingested before a mid-loop failure still seal.
    with ResultStore(args.store).writer() as writer:
        run_all(writer)
    print(f"\npersisted {rows_written} scenario rows into {args.store} "
          f"({writer.segments_sealed} segments)")
    return 0


def cmd_fleet(args: argparse.Namespace) -> int:
    return _with_telemetry(args, "fleet", lambda: _fleet_body(args))


def _fleet_body(args: argparse.Namespace) -> int:
    """Deterministic fleet traffic simulation, reported per device/scenario."""
    from repro.devices.battery import RechargeSchedule
    from repro.fleet import (ROUTE_DEVICE, DiurnalProfile, FleetSimulator,
                             FleetSpec, QueuePolicy, RoutingPolicy,
                             battery_drain_ecdf, offload_summary,
                             tail_latency_table, zoo_population)

    analysis = _analysis_for(args.scale, args.snapshot)
    pairs = GaugeNN.graphs_with_tasks(analysis)
    policy = RoutingPolicy(
        battery_saver_threshold=args.battery_threshold,
        queue=QueuePolicy(max_wait_ms=args.queue_wait_ms,
                          overflow=args.queue_overflow),
    )
    spec_kwargs = dict(
        num_users=args.users,
        horizon_s=args.hours * 3600.0,
        policy=policy,
        seed=args.seed,
        diurnal=DiurnalProfile.default() if args.diurnal else None,
        recharge=RechargeSchedule() if args.recharge else None,
    )
    try:
        spec = FleetSpec(graphs_with_tasks=pairs, **spec_kwargs)
    except ValueError:
        # Small snapshots may hold no model for the Table 4 scenario tasks;
        # fall back to the zoo reference population so the fleet always runs.
        print("snapshot has no scenario-compatible models; using the zoo "
              "reference population")
        spec = FleetSpec(graphs_with_tasks=zoo_population(), **spec_kwargs)

    print(f"fleet: {spec.num_users} users over {args.hours:g} h "
          f"({len(spec.eligible_scenarios)} scenarios, "
          f"{len(spec.devices)} device models)")

    if args.cloud_capacity:
        return _run_fleet_cloud(args, spec)

    simulator = FleetSimulator(spec, max_workers=args.workers,
                               chunk_size=args.chunk_size)
    if args.fleet_store is None:
        # In-memory path: aggregate the trace stream directly.
        traces = simulator.collect()
        events = sum(trace.num_events for trace in traces)
        offloaded = sum(trace.num_offloaded for trace in traces)
        print(f"simulated {events} events ({offloaded} offloaded)")
        per_device: dict[str, list[np.ndarray]] = {}
        drains = []
        for trace in traces:
            if trace.num_events:
                # Only requests served on the device, as the store path's
                # target="device" filter: offloaded, shed and still-queued
                # requests never ran there.
                on_device = trace.route == ROUTE_DEVICE
                if on_device.any():
                    per_device.setdefault(trace.user.device.name, []).append(
                        trace.latency_ms[on_device])
                drains.append(float(trace.discharge_mah.sum()))
        print(f"\n{'device':<8}{'events':>9}{'p50 ms':>10}{'p90 ms':>10}{'p99 ms':>10}")
        for device, chunks in sorted(per_device.items()):
            values = np.concatenate(chunks)
            p50, p90, p99 = np.quantile(values, [0.5, 0.9, 0.99])
            print(f"{device:<8}{values.size:>9}{p50:>10.1f}{p90:>10.1f}{p99:>10.1f}")
        if drains:
            print(f"\nbattery drain per user: median "
                  f"{np.median(drains):.1f} mAh, p90 "
                  f"{np.quantile(drains, 0.9):.1f} mAh")
        return 0

    # Store path: stream the events in, then serve every report from disk.
    store = ResultStore(args.fleet_store)
    rows = simulator.run_to_store(store, rows_per_segment=args.rows_per_segment)
    print(f"streamed {rows} events into {store.root} "
          f"({len(store.segments)} segments)")
    if rows == 0:
        print("no events to report (population idle over this horizon)")
        return 0
    print(f"\n{'device':<8}{'events':>9}{'p50 ms':>10}{'p90 ms':>10}{'p99 ms':>10}")
    for row in tail_latency_table(store, group_by="device_name"):
        print(f"{row['device_name']:<8}{row['events']:>9}{row['p50_ms']:>10.1f}"
              f"{row['p90_ms']:>10.1f}{row['p99_ms']:>10.1f}")
    median_mah, p90_mah = battery_drain_ecdf(store).quantiles((0.5, 0.9))
    print(f"\nbattery drain per user: median {median_mah:.1f} mAh, "
          f"p90 {p90_mah:.1f} mAh")
    summary = offload_summary(store)
    print(f"cloud offload: {summary['offloaded']}/{summary['events']} requests "
          f"({100 * summary['offload_fraction']:.1f}%), "
          f"{summary['uplink_bytes'] / 1e6:.1f} MB uplink")
    for api, entry in summary["by_api"].items():
        print(f"  {api:<28} {entry['requests']:>8} req "
              f"{entry['bytes'] / 1e6:>10.1f} MB")
    return 0


def _run_fleet_cloud(args: argparse.Namespace, spec) -> int:
    """Fleet simulation over shared regional cloud capacity (two-pass)."""
    from repro.cloud import (CapacityModel, InterferenceConfig,
                             InterferenceSimulator, load_report)
    from repro.fleet import queue_summary, tail_latency_table

    capacity = CapacityModel()
    config = InterferenceConfig(bin_seconds=args.cloud_bin_minutes * 60.0,
                                damping=args.cloud_damping,
                                max_passes=args.cloud_max_passes)
    simulator = InterferenceSimulator(spec, capacity, config=config,
                                      max_workers=args.workers,
                                      chunk_size=args.chunk_size)
    print(f"cloud capacity: {len(capacity.regions)} regions, "
          f"{config.bin_seconds / 60:g} min bins, damping {config.damping:g}")

    if args.fleet_store is None:
        result = simulator.run()
        status = "converged" if result.converged else "hit the pass cap"
        print(f"fixed point {status} after {result.passes} passes "
              f"(max |delta| per pass: "
              f"{', '.join(f'{d:.1f}ms' for d in result.deltas_ms)})")
        print(f"offloaded requests: {result.profile.total_requests} "
              f"(peak bin {result.profile.peak_rps():.2f} req/s, "
              f"peak service {result.peak_service_ms:.0f} ms vs "
              f"{spec.policy.cloud.service_ms:g} ms unloaded)")
        counts: dict[str, int] = {}
        for trace in result.traces:
            for target, value in trace.route_counts().items():
                counts[target] = counts.get(target, 0) + value
        arrived = sum(counts.values())
        print("queue conservation: arrived "
              f"{arrived} = " + " + ".join(f"{counts.get(t, 0)} {t}"
                                           for t in ("device", "cloud",
                                                     "shed", "queued")))
        return 0

    store = ResultStore(args.fleet_store)
    rows, result = simulator.run_to_store(
        store, rows_per_segment=args.rows_per_segment)
    status = "converged" if result.converged else "hit the pass cap"
    print(f"fixed point {status} after {result.passes} passes; "
          f"streamed {rows} rows into {store.root} "
          f"({len(store.segments)} segments)")
    # The simulator's streamed arrival count is the external side of the
    # audit — a dropped or duplicated store row flips this to [VIOLATED].
    summary = queue_summary(store, expected_arrived=result.arrived)
    by_target = summary["by_target"]
    print("queue conservation: arrived "
          f"{summary['arrived']} = " + " + ".join(
              f"{by_target[t]} {t}" for t in by_target)
          + ("  [OK]" if summary["conserved"] else "  [VIOLATED]"))
    print(f"\n{'region':<12}{'API':<28}{'requests':>10}{'peak rps':>10}"
          f"{'MB':>8}")
    for row in load_report(store):
        print(f"{row['region']:<12}{row['cloud_api']:<28}"
              f"{row['requests']:>10}{row['peak_rps']:>10.2f}"
              f"{row['payload_bytes'] / 1e6:>8.1f}")
    cloud_rows = tail_latency_table(store, group_by="region", target="cloud")
    if cloud_rows:
        print(f"\n{'region':<12}{'requests':>10}{'p50 ms':>10}{'p99 ms':>10}")
        for row in cloud_rows:
            print(f"{row['region']:<12}{row['events']:>10}"
                  f"{row['p50_ms']:>10.1f}{row['p99_ms']:>10.1f}")
    return 0


def cmd_obs_report(args: argparse.Namespace) -> int:
    """Render one telemetry table from a sidecar store."""
    from repro.obs.report import (available_runs, metrics_table, run_timeline,
                                  shard_skew, stage_breakdown)
    from repro.store import StoreCorruptionError

    # Preflight: distinguish "that store has no telemetry at all" and
    # "your --run matched nothing" from legitimately empty tables, so the
    # messages name what *is* there instead of tracebacks or blank output.
    try:
        store = ResultStore(args.store)
        runs = available_runs(store)
    except StoreCorruptionError as error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    if not runs:
        kinds = ", ".join(store.kinds()) or "none"
        print(f"no matching telemetry in {args.store} "
              f"(row kinds present: {kinds})")
        return 1
    if args.run is not None and args.run not in runs:
        print(f"no matching telemetry for run {args.run!r} "
              f"(available runs: {', '.join(runs)})")
        return 1

    if args.table == "run_timeline":
        rows = run_timeline(store, run_id=args.run)
        if not rows:
            print("no spans recorded")
            return 1
        print(f"{'offset_s':>10} {'duration_s':>11} {'shard':>6} "
              f"{'items':>8}  span")
        for row in rows:
            indent = "  " * row["depth"]
            shard = str(row["shard"]) if row["shard"] >= 0 else "-"
            detail = f"  [{row['detail']}]" if row["detail"] else ""
            print(f"{row['offset_s']:>10.4f} {row['duration_s']:>11.4f} "
                  f"{shard:>6} {row['items']:>8}  "
                  f"{indent}{row['name']}{detail}")
    elif args.table == "stages":
        rows = stage_breakdown(store, run_id=args.run)
        if not rows:
            print("no spans recorded")
            return 1
        print(f"{'stage':<26}{'spans':>7}{'total s':>10}{'mean s':>10}"
              f"{'max s':>10}{'items':>10}")
        for row in rows:
            print(f"{row['name']:<26}{row['spans']:>7}{row['total_s']:>10.4f}"
                  f"{row['mean_s']:>10.4f}{row['max_s']:>10.4f}"
                  f"{row['items']:>10}")
    elif args.table == "shard_skew":
        rows = shard_skew(store, run_id=args.run)
        if not rows:
            print("no shard-scoped spans recorded")
            return 1
        print(f"{'shard':>6}{'spans':>7}{'seconds':>10}{'items':>10}"
              f"{'skew':>8}")
        for row in rows:
            print(f"{row['shard']:>6}{row['spans']:>7}"
                  f"{row['seconds']:>10.4f}{row['items']:>10}"
                  f"{row['skew']:>8.2f}")
    else:
        rows = metrics_table(store, run_id=args.run,
                             metric_class=args.metric_class)
        if not rows:
            print("no metrics recorded")
            return 1
        print(f"{'metric':<28}{'class':<15}{'value':>12} {'total':>14} "
              f"{'min':>12} {'max':>12}")
        for row in rows:
            print(f"{row['metric']:<28}{row['metric_class']:<15}"
                  f"{row['value_i']:>12} {row['total']:>14.4f} "
                  f"{row['min']:>12.4f} {row['max']:>12.4f}")
    return 0


def cmd_store_diff(args: argparse.Namespace) -> int:
    """Vectorised store-vs-store diff: aligned groups, per-metric deltas."""
    from repro.store import StoreCorruptionError, diff_stores
    from repro.store.store import MANIFEST_NAME

    for path in (args.store_a, args.store_b):
        if not (Path(path) / MANIFEST_NAME).exists():
            print(f"error: {path} is not a result store (no {MANIFEST_NAME})",
                  file=sys.stderr)
            return 2
    try:
        diff = diff_stores(ResultStore(args.store_a), ResultStore(args.store_b),
                           kinds=args.kind or None, where=args.where)
    except (KeyError, ValueError, StoreCorruptionError) as error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    if not diff.kinds:
        print("no diffable row kinds in either store")
        return 0
    for kind_name, entry in diff.summary().items():
        print(f"{kind_name}: {entry['rows_a']} vs {entry['rows_b']} rows, "
              f"{entry['matched']} groups matched "
              f"({entry['changed']} changed, {entry['added']} added, "
              f"{entry['removed']} removed)")
        kind_diff = diff.kinds[kind_name]
        for row in kind_diff.changed_rows(limit=args.limit):
            key = "/".join(str(row[name]) for name in kind_diff.keys)
            deltas = ", ".join(
                f"{metric} {row[metric]['a']:g} -> {row[metric]['b']:g}"
                for metric in kind_diff.metrics
                if row[metric]["a"] != row[metric]["b"])
            print(f"  ~ {key}: {deltas}")
        for label, rows in (("+", kind_diff.added_rows(limit=args.limit)),
                            ("-", kind_diff.removed_rows(limit=args.limit))):
            for row in rows:
                key = "/".join(str(row[name]) for name in kind_diff.keys)
                print(f"  {label} {key}")
    for kind_name in diff.skipped:
        print(f"{kind_name}: skipped (no diff spec)")
    if diff.identical:
        print("stores are identical under the diff specs")
        return 0
    return 1


def cmd_obs_snapshot(args: argparse.Namespace) -> int:
    """Write a drift-baseline snapshot of a campaign/telemetry store."""
    from repro.obs.snapshot import build_snapshot, write_snapshot

    if args.store is None and args.telemetry is None:
        print("error: need --store and/or --telemetry to snapshot",
              file=sys.stderr)
        return 2
    meta = {}
    for item in args.meta:
        key, _, value = item.partition("=")
        meta[key] = value
    if args.store is not None:
        meta.setdefault("store", str(args.store))
    if args.telemetry is not None:
        meta.setdefault("telemetry", str(args.telemetry))
    if args.run is not None:
        meta.setdefault("run", args.run)
    snapshot = build_snapshot(store=args.store, telemetry=args.telemetry,
                              run_id=args.run, meta=meta)
    write_snapshot(args.out, snapshot)
    tables = snapshot["tables"]
    print(f"wrote {args.out}: {len(tables)} report tables "
          f"({sum(len(t['rows']) for t in tables.values())} rows), "
          f"{len(snapshot['counters'])} deterministic counters, "
          f"{len(snapshot['wallclock'])} wall-clock metrics")
    return 0


def _drift_exit(report, fail_on: str) -> int:
    """Exit code of a drift run: the max severity, gated by --fail-on."""
    from repro.obs.drift import BREACH, EXACT, TOLERATED

    threshold = {"any": TOLERATED, "breach": BREACH, "exact": EXACT}[fail_on]
    return report.max_severity if report.max_severity >= threshold else 0


def cmd_obs_drift(args: argparse.Namespace) -> int:
    """Classify drift against a baseline (or across BENCH_*.json history)."""
    import json as json_module

    from repro.obs.drift import (DriftPolicy, bench_drift, diff_snapshots,
                                 ingest_bench_files)
    from repro.obs.snapshot import build_snapshot, load_snapshot

    policy = DriftPolicy(rel_tol=args.rel_tol)
    if args.bench is not None:
        bench_files = [Path(p) for p in args.bench] or \
            sorted(Path.cwd().glob("BENCH_*.json"))
        store = ResultStore(args.bench_store)
        stats = ingest_bench_files(store, bench_files)
        print(f"ingested {stats['ingested']} payloads "
              f"({stats['rows']} bench_runs rows, "
              f"{stats['skipped']} skipped as already ingested or unstamped)")
        report = bench_drift(store, policy)
    else:
        if args.baseline is None:
            print("error: --baseline is required (or use --bench)",
                  file=sys.stderr)
            return 2
        try:
            baseline = load_snapshot(args.baseline)
            if args.snapshot is not None:
                current = load_snapshot(args.snapshot)
            elif args.store is not None or args.telemetry is not None:
                current = build_snapshot(store=args.store,
                                         telemetry=args.telemetry,
                                         run_id=args.run,
                                         meta=baseline.get("meta", {}))
            else:
                print("error: need --snapshot or --store/--telemetry for "
                      "the current side", file=sys.stderr)
                return 2
            report = diff_snapshots(baseline, current, policy)
        except (OSError, ValueError) as error:
            print(f"error: {error}", file=sys.stderr)
            return 2

    for note in report.notes:
        print(f"note: {note}")
    if report.clean:
        print("no drift: everything compares clean")
    else:
        for finding in report.findings:
            key = f" [{finding['key']}]" if "key" in finding else ""
            values = ""
            if "baseline" in finding:
                values = f": {finding['baseline']} -> {finding['current']}"
            print(f"{finding['severity'].upper():<10} {finding['source']} "
                  f"{finding['metric']}{key}{values}")
        if report.truncated:
            print(f"... {report.truncated} more findings truncated")
        counts = ", ".join(f"{count} {name}" for name, count
                           in report.severity_counts.items() if count)
        print(f"drift: {counts}")
    if args.report is not None:
        payload = report.to_json()
        payload["policy"] = {"rel_tol": policy.rel_tol,
                             "fail_on": args.fail_on}
        Path(args.report).write_text(
            json_module.dumps(payload, indent=2) + "\n")
        print(f"report written to {args.report}")
    return _drift_exit(report, args.fail_on)


def cmd_compare(args: argparse.Namespace) -> int:
    """Temporal comparison between the two snapshots."""
    store = _build_store(args.scale, ["2020", "2021"])
    gauge = GaugeNN(store)
    earlier = gauge.analyze_snapshot("2020")
    later = gauge.analyze_snapshot("2021")
    comparison = compare_snapshots(earlier, later)
    print(f"models: {comparison.earlier_total_models} -> {comparison.later_total_models} "
          f"({comparison.model_growth:.2f}x)")
    print(f"cloud-ML apps: {comparison.earlier_cloud_apps} -> {comparison.later_cloud_apps} "
          f"({comparison.cloud_growth:.2f}x)")
    print("\ntop category changes (added/removed):")
    for churn in comparison.churn_sorted_by_net_change()[: args.top]:
        print(f"  {churn.category:<22} +{churn.added:<4} -{churn.removed:<4} "
              f"net {churn.net_change:+d}")
    return 0


def cmd_serve(args: argparse.Namespace) -> int:
    """Serve queries and report tables over a (possibly live) store."""
    from repro.serve import ServeApp

    app = ServeApp(args.path, host=args.host, port=args.port,
                   refresh_s=args.refresh, cache=not args.no_cache,
                   compact_segments=args.compact_segments,
                   handler_threads=args.threads)
    app.run()
    return 0


# --------------------------------------------------------------------------- #
# Parser
# --------------------------------------------------------------------------- #
def build_parser() -> argparse.ArgumentParser:
    """Build the top-level argument parser."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="gaugeNN reproduction: characterise and benchmark mobile DNNs",
    )
    subparsers = parser.add_subparsers(dest="command", required=True)

    def add_common(sub: argparse.ArgumentParser) -> None:
        sub.add_argument("--scale", type=float, default=0.05,
                         help="fraction of the paper's dataset size to generate")
        sub.add_argument("--snapshot", choices=("2020", "2021"), default="2021",
                         help="which snapshot to analyse")

    census = subparsers.add_parser("census", help="offline DNN characterisation")
    add_common(census)
    census.set_defaults(func=cmd_census)

    bench = subparsers.add_parser("benchmark", help="fleet latency/energy benchmark")
    add_common(bench)
    bench.add_argument("--devices", nargs="*", default=None,
                       choices=[device.name for device in DEVICE_FLEET],
                       help="devices to benchmark (default: whole fleet)")
    bench.add_argument("--backend", default="cpu",
                       choices=[backend.value for backend in Backend])
    bench.add_argument("--inferences", type=int, default=3,
                       help="measured inferences per model")
    bench.add_argument("--workers", type=_positive_int, default=None,
                       help="sweep worker threads (default: one per job, capped "
                            "at the CPU count)")
    bench.set_defaults(func=cmd_benchmark)

    sweep = subparsers.add_parser(
        "sweep", help="declarative device x backend x batch x thread sweep")
    add_common(sweep)
    sweep.add_argument("--devices", nargs="*", default=None,
                       choices=[device.name for device in DEVICE_FLEET],
                       help="devices to sweep (default: whole fleet)")
    sweep.add_argument("--backends", nargs="*",
                       default=[Backend.CPU.value],
                       choices=[backend.value for backend in Backend])
    sweep.add_argument("--batches", nargs="*", type=_positive_int, default=[1])
    sweep.add_argument("--threads", nargs="*", type=_parse_thread_config,
                       default=[None],
                       help="thread configs: auto, a count (4) or count+affinity (4a2)")
    sweep.add_argument("--inferences", type=_positive_int, default=3)
    sweep.add_argument("--seed", type=int, default=0,
                       help="base seed for the deterministic per-job seeds")
    sweep.add_argument("--workers", type=_positive_int, default=None)
    sweep.add_argument("--chunk-size", type=_positive_int, default=None,
                       help="batch jobs into per-worker slices of this size")
    sweep.add_argument("--store", default=None, metavar="PATH",
                       help="stream results into a persistent store at PATH "
                            "(also ingests the snapshot's app/model rows)")
    sweep.set_defaults(func=cmd_sweep)

    store = subparsers.add_parser(
        "store", help="query and report over a persisted results store")
    store_sub = store.add_subparsers(dest="store_command", required=True)

    query = store_sub.add_parser("query", help="filter/group/aggregate rows")
    query.add_argument("path", help="store directory")
    query.add_argument("--kind", default="executions",
                       choices=sorted(ROW_KINDS))
    query.add_argument("--where", action="append", default=[],
                       type=_parse_where, metavar="COL<OP>VALUE",
                       help="predicate, e.g. device_name=S21, latency_ms<5 "
                            "or 'backend in tflite|ncnn' "
                            "(repeatable; all must hold)")
    query.add_argument("--group-by", nargs="*", default=[],
                       help="columns to group aggregations by")
    query.add_argument("--agg", action="append", default=[],
                       type=_parse_agg, metavar="COL:FN[,FN...]",
                       help="aggregations, e.g. latency_ms:mean,median "
                            "(repeatable)")
    query.add_argument("--limit", type=_positive_int, default=20,
                       help="max rows printed for non-aggregate queries")
    query.set_defaults(func=cmd_store_query)

    report = store_sub.add_parser(
        "report", help="serve paper figure tables from the store")
    report.add_argument("path", help="store directory")
    report.add_argument("--table", default="summary",
                        choices=("summary", "latency_ecdf", "energy", "cloud",
                                 "cloud_load", "tail_latency", "drain",
                                 "latency_flops"))
    report.add_argument("--json", action="store_true",
                        help="emit the table as JSON (the exact payload "
                             "repro serve returns at the same generation)")
    report.add_argument("--device", default=None,
                        help="restrict latency_flops to one device")
    report.add_argument("--min-apps", type=int, default=0,
                        help="drop cloud APIs used by fewer apps")
    report.set_defaults(func=cmd_store_report)

    info = store_sub.add_parser("info", help="inspect segments and integrity")
    info.add_argument("path", help="store directory")
    info.add_argument("--verify", action="store_true",
                      help="verify every segment checksum")
    info.add_argument("--json", action="store_true",
                      help="emit a machine-readable summary (the /v1/stats "
                           "store payload)")
    info.set_defaults(func=cmd_store_info)

    compact = store_sub.add_parser(
        "compact", help="merge small committed segments into few large ones")
    compact.add_argument("path", help="store directory")
    compact.add_argument("--rows-per-segment", type=_positive_int, default=None,
                         help="re-chunk rows at this size (default: one "
                              "segment per kind)")
    compact.add_argument("--kinds", nargs="*", default=[],
                         choices=sorted(ROW_KINDS),
                         help="row kinds to compact (default: all)")
    compact.add_argument("--format", choices=("jsonl", "columnar"),
                         default=None,
                         help="seal the merged segments in this format "
                              "(default: converge each kind to columnar if "
                              "any of its segments already is)")
    compact.add_argument("--compress", action="store_true",
                         help="zlib-compress the rewritten columnar "
                              "segments' column sections")
    compact.add_argument("--verify", action="store_true",
                         help="verify every segment checksum afterwards")
    compact.set_defaults(func=cmd_store_compact)

    export = store_sub.add_parser(
        "export", help="rewrite a store into a fresh one in another format")
    export.add_argument("path", help="source store directory")
    export.add_argument("dest", help="destination store directory (fresh)")
    export.add_argument("--format", choices=("jsonl", "columnar"),
                        default="jsonl",
                        help="destination segment format (default: jsonl — "
                             "the grep-able interchange format)")
    export.add_argument("--rows-per-segment", type=_positive_int, default=None,
                        help="re-chunk rows at this size (default: mirror "
                             "the source's segment boundaries)")
    export.add_argument("--kinds", nargs="*", default=[],
                        choices=sorted(ROW_KINDS),
                        help="row kinds to export (default: all)")
    export.add_argument("--compress", action="store_true",
                        help="zlib-compress columnar output's column "
                             "sections")
    export.add_argument("--verify", action="store_true",
                        help="verify every destination checksum afterwards")
    export.set_defaults(func=cmd_store_export)

    merge = store_sub.add_parser(
        "merge", help="adopt source stores' segments into a destination "
                      "(hard links, one atomic commit, no row rewrite)")
    merge.add_argument("dest", help="destination store directory")
    merge.add_argument("sources", nargs="+",
                       help="source store directories, in merge order")
    merge.add_argument("--kinds", nargs="*", default=[],
                       choices=sorted(ROW_KINDS),
                       help="row kinds to adopt (default: all)")
    merge.add_argument("--verify", action="store_true",
                       help="verify each adopted segment's checksum")
    merge.set_defaults(func=cmd_store_merge)

    diff = store_sub.add_parser(
        "diff", help="vectorised diff of two stores: aligned group keys, "
                     "per-metric deltas, new/removed entities")
    diff.add_argument("store_a", help="baseline store directory")
    diff.add_argument("store_b", help="current store directory")
    diff.add_argument("--kind", action="append", default=None,
                      choices=sorted(ROW_KINDS),
                      help="restrict to this row kind (repeatable; default: "
                           "every diffable kind present)")
    diff.add_argument("--where", action="append", type=_parse_where,
                      default=[], metavar="EXPR",
                      help="predicate applied to both sides (pushdown), "
                           "e.g. run_id=bench")
    diff.add_argument("--limit", type=_positive_int, default=10,
                      help="changed/added/removed rows printed per kind")
    diff.set_defaults(func=cmd_store_diff)

    scenarios = subparsers.add_parser("scenarios", help="Table 4 energy scenarios")
    add_common(scenarios)
    scenarios.add_argument("--store", default=None, metavar="PATH",
                           help="persist the scenario rows into a results "
                                "store at PATH")
    scenarios.set_defaults(func=cmd_scenarios)

    fleet = subparsers.add_parser(
        "fleet", help="deterministic discrete-event fleet traffic simulation")
    add_common(fleet)
    fleet.add_argument("--users", type=_positive_int, default=50,
                       help="size of the virtual population")
    fleet.add_argument("--hours", type=float, default=24.0,
                       help="virtual-time horizon in hours")
    fleet.add_argument("--seed", type=int, default=0,
                       help="base seed of the per-user derived seeds")
    fleet.add_argument("--battery-threshold", type=float, default=0.2,
                       help="battery fraction under which requests offload")
    fleet.add_argument("--workers", type=_positive_int, default=None,
                       help="simulation worker threads (results are "
                            "identical for any value)")
    fleet.add_argument("--chunk-size", type=_positive_int, default=None,
                       help="users per worker slice")
    fleet.add_argument("--store", dest="fleet_store", default=None,
                       metavar="PATH",
                       help="stream fleet_events into a results store at "
                            "PATH and serve the reports from it")
    fleet.add_argument("--rows-per-segment", type=_positive_int, default=8192,
                       help="store segment size for streamed ingestion")
    fleet.add_argument("--queue-wait-ms", type=float, default=2000.0,
                       help="device-queue wait cap before requests overflow")
    fleet.add_argument("--queue-overflow", choices=("shed", "cloud"),
                       default="shed",
                       help="overflow action: drop the request or offload it")
    fleet.add_argument("--diurnal", action="store_true",
                       help="modulate session starts with a night/day profile")
    fleet.add_argument("--recharge", action="store_true",
                       help="nightly charging windows (multi-day horizons)")
    fleet.add_argument("--cloud-capacity", action="store_true",
                       help="model shared regional cloud capacity: two-pass "
                            "deterministic interference to a damped fixed "
                            "point (writes fleet_load rows with --store)")
    fleet.add_argument("--cloud-bin-minutes", type=float, default=15.0,
                       help="width of the cloud load/service time bins")
    fleet.add_argument("--cloud-damping", type=float, default=0.5,
                       help="fixed-point damping factor in (0, 1]")
    fleet.add_argument("--cloud-max-passes", type=_positive_int, default=8,
                       help="iteration cap of the fixed point")
    fleet.add_argument("--telemetry", default=None, metavar="PATH",
                       help="run with telemetry enabled and persist the "
                            "metrics/spans into a sidecar store at PATH")
    fleet.set_defaults(func=cmd_fleet)

    campaign = subparsers.add_parser(
        "campaign", help="out-of-core sharded campaigns over fleet "
                         "populations")
    campaign_sub = campaign.add_subparsers(dest="campaign_command",
                                           required=True)
    campaign_run = campaign_sub.add_parser(
        "run", help="simulate a population sharded and merge into one store")
    campaign_run.add_argument("--users", type=_positive_int, default=100000,
                              help="size of the virtual population")
    campaign_run.add_argument("--shards", type=_positive_int, default=8,
                              help="contiguous user-range shards (output is "
                                   "bit-identical for any value)")
    campaign_run.add_argument("--store", required=True, metavar="DIR",
                              help="campaign directory (shard stores + "
                                   "merged.store)")
    campaign_run.add_argument("--compress", action="store_true",
                              help="zlib-compress sealed columnar segments")
    campaign_run.add_argument("--workload", default="ambient",
                              choices=("ambient", "zoo"),
                              help="population workload: sparse ambient "
                                   "checks (ecosystem scale) or the dense "
                                   "zoo scenarios (small campaigns)")
    campaign_run.add_argument("--hours", type=float, default=24.0,
                              help="virtual-time horizon in hours")
    campaign_run.add_argument("--seed", type=int, default=0,
                              help="base seed of the per-user derived seeds")
    campaign_run.add_argument("--rows-per-segment", type=_positive_int,
                              default=65536,
                              help="merged-event segment size")
    campaign_run.add_argument("--bin-minutes", type=float, default=15.0,
                              help="cloud demand-grid bin width")
    campaign_run.add_argument("--max-parallel", type=_positive_int,
                              default=None,
                              help="shards simulated at once, this "
                                   "process included: it runs the first "
                                   "of every N shards itself, so 1 forks "
                                   "nothing (default: one per CPU; never "
                                   "more than --shards)")
    campaign_run.add_argument("--telemetry", default=None, metavar="PATH",
                              help="run with telemetry enabled and persist "
                                   "the metrics/spans into a sidecar store "
                                   "at PATH")
    campaign_run.set_defaults(func=cmd_campaign_run)

    serve = subparsers.add_parser(
        "serve", help="HTTP query/report service over a (possibly live) "
                      "store with snapshot-isolated reads")
    serve.add_argument("path", help="store directory")
    serve.add_argument("--host", default="127.0.0.1")
    serve.add_argument("--port", type=int, default=8736,
                       help="listen port (0 picks a free one)")
    serve.add_argument("--refresh", type=float, default=1.0, metavar="SECONDS",
                       help="poll interval of the generation refresh worker")
    serve.add_argument("--threads", type=_positive_int, default=8,
                       help="request handler thread pool size")
    serve.add_argument("--no-cache", action="store_true",
                       help="disable the result cache (queries still scan "
                            "the store's column views)")
    serve.add_argument("--compact-segments", type=_positive_int, default=None,
                       metavar="N",
                       help="background-compact a kind once it exceeds N "
                            "committed segments (invalidates the result cache "
                            "and column views)")
    serve.set_defaults(func=cmd_serve)

    obs_parser = subparsers.add_parser(
        "obs", help="telemetry reports over a sidecar store")
    obs_sub = obs_parser.add_subparsers(dest="obs_command", required=True)
    obs_report = obs_sub.add_parser(
        "report", help="render a telemetry table (timeline, stages, "
                       "shard skew, metrics)")
    obs_report.add_argument("store", help="sidecar telemetry store path")
    obs_report.add_argument("--table", default="run_timeline",
                            choices=("run_timeline", "stages", "shard_skew",
                                     "metrics"))
    obs_report.add_argument("--run", default=None, metavar="ID",
                            help="restrict to one run_id (default: all rows)")
    obs_report.add_argument("--metric-class", default=None,
                            choices=("deterministic", "wallclock"),
                            help="metrics table only: restrict to one class")
    obs_report.set_defaults(func=cmd_obs_report)

    obs_snapshot = obs_sub.add_parser(
        "snapshot", help="write a drift-baseline snapshot (report tables + "
                         "deterministic counters) as JSON")
    obs_snapshot.add_argument("--out", required=True, metavar="PATH",
                              help="snapshot JSON destination")
    obs_snapshot.add_argument("--store", default=None, metavar="PATH",
                              help="campaign store to extract the Fig. "
                                   "8/9/10/15 report tables from")
    obs_snapshot.add_argument("--telemetry", default=None, metavar="PATH",
                              help="sidecar telemetry store to extract "
                                   "counters and wall-clock stats from")
    obs_snapshot.add_argument("--run", default=None, metavar="ID",
                              help="restrict telemetry rows to one run_id")
    obs_snapshot.add_argument("--meta", action="append", default=[],
                              metavar="KEY=VALUE",
                              help="provenance stamps carried in the "
                                   "snapshot (repeatable)")
    obs_snapshot.set_defaults(func=cmd_obs_snapshot)

    obs_drift = obs_sub.add_parser(
        "drift", help="classify drift against a baseline snapshot (or "
                      "across BENCH_*.json history with --bench); exit "
                      "code = max severity (0 clean / 1 tolerated / "
                      "2 breach / 3 exact)")
    obs_drift.add_argument("--baseline", default=None, metavar="PATH",
                           help="committed baseline snapshot JSON")
    obs_drift.add_argument("--snapshot", default=None, metavar="PATH",
                           help="current-side snapshot JSON (alternative "
                                "to --store/--telemetry)")
    obs_drift.add_argument("--store", default=None, metavar="PATH",
                           help="build the current side from this campaign "
                                "store")
    obs_drift.add_argument("--telemetry", default=None, metavar="PATH",
                           help="build the current side from this telemetry "
                                "store")
    obs_drift.add_argument("--run", default=None, metavar="ID",
                           help="telemetry run_id filter for the current "
                                "side")
    obs_drift.add_argument("--bench", nargs="*", default=None,
                           metavar="BENCH_JSON",
                           help="perf-trajectory mode: ingest these "
                                "BENCH_*.json files (bare --bench globs "
                                "BENCH_*.json in the current directory) and "
                                "compare each benchmark's two latest runs")
    obs_drift.add_argument("--bench-store", default="bench_trajectory.store",
                           metavar="PATH",
                           help="bench_runs store the trajectory accumulates "
                                "in (ingestion is idempotent)")
    obs_drift.add_argument("--rel-tol", type=float, default=0.25,
                           help="relative tolerance band for wall-clock "
                                "metrics")
    obs_drift.add_argument("--report", default=None, metavar="PATH",
                           help="write the classified findings as JSON "
                                "(the CI artifact)")
    obs_drift.add_argument("--fail-on", default="any",
                           choices=("any", "breach", "exact"),
                           help="lowest severity that makes the exit code "
                                "nonzero (default: any — the raw severity "
                                "is the exit code)")
    obs_drift.set_defaults(func=cmd_obs_drift)

    compare = subparsers.add_parser("compare", help="2020 vs 2021 temporal analysis")
    compare.add_argument("--scale", type=float, default=0.05)
    compare.add_argument("--top", type=int, default=10,
                         help="number of categories to list")
    compare.set_defaults(func=cmd_compare)
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    """CLI entry point."""
    parser = build_parser()
    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
