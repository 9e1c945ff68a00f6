"""Differential oracle for the store-backed figure tables (hypothesis).

:class:`~repro.store.serving.ReportServer` reads the Fig. 8/9/10/15 tables
through ``store.query(...)``; the in-memory functions of
:mod:`repro.core.reports` are the semantic reference.  Generated campaigns
seal their ``executions`` and ``apps`` rows across 1–5 segments, some as
packed columnar segments and some as legacy JSONL, so devices first appear
in different segments; energies include zero and negative values (the
efficiency guard).  Every table must equal the reference in value *and*
order — devices in first-appearance order, rows in ingestion order — over
both a live store and a pinned snapshot.
"""

from __future__ import annotations

import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from legacy_segments import append_jsonl
from repro.android.cloud_apis import CLOUD_APIS
from repro.core import reports
from repro.core.records import AppRecord, SnapshotAnalysis
from repro.runtime import Backend
from repro.runtime.executor import ExecutionResult
from repro.store import ReportServer, ResultStore
from repro.store.schema import app_record_to_row, execution_result_to_row

DEVICES = ("S21", "A20", "Q845", "A70")
API_NAMES = tuple(api.name for api in CLOUD_APIS)

_finite = dict(allow_nan=False, allow_infinity=False)

executions = st.builds(
    ExecutionResult,
    model_name=st.sampled_from(("mobilenet", "blazeface", "lstm")),
    device_name=st.sampled_from(DEVICES),
    backend=st.sampled_from((Backend.CPU, Backend.XNNPACK)),
    batch_size=st.integers(1, 8),
    thread_label=st.sampled_from(("auto", "4")),
    latency_ms=st.one_of(st.sampled_from((1.0, 2.5)),
                         st.floats(1e-3, 1e4, **_finite)),
    energy_mj=st.one_of(st.sampled_from((0.0, -0.0, -3.0, 10.0)),
                        st.floats(-1e3, 1e4, **_finite)),
    power_watts=st.floats(0.0, 20.0, **_finite),
    flops=st.integers(0, 10 ** 12),
    parameters=st.integers(0, 10 ** 8),
    peak_memory_bytes=st.integers(0, 10 ** 9),
    num_inferences=st.integers(1, 5),
)

apps = st.builds(
    AppRecord,
    package=st.sampled_from(("com.a", "com.b", "com.c")),
    title=st.just("app"),
    category=st.just("TOOLS"),
    downloads=st.integers(0, 10 ** 6),
    rating=st.floats(0.0, 5.0, **_finite),
    frameworks_in_code=st.just(()),
    native_libraries=st.just(()),
    accelerators=st.just(()),
    cloud_apis=st.lists(st.sampled_from(API_NAMES), max_size=3,
                        unique=True).map(tuple),
    cloud_providers=st.just(()),
    model_count=st.integers(0, 3),
    candidate_file_count=st.integers(0, 3),
    apk_size_bytes=st.integers(0, 10 ** 8),
)

#: One segment per chunk and kind: ``(executions, apps, as_jsonl)``.
chunks = st.lists(
    st.tuples(st.lists(executions, max_size=6), st.lists(apps, max_size=4),
              st.booleans()),
    min_size=1, max_size=5).filter(
        lambda parts: any(results for results, _, _ in parts))


def _seal(store: ResultStore, kind: str, objects: list, as_jsonl: bool,
          to_row) -> None:
    if not objects:
        return
    if as_jsonl:
        append_jsonl(store, kind, [to_row(obj) for obj in objects],
                     rows_per_segment=len(objects))
        return
    with store.writer(rows_per_segment=len(objects)) as writer:
        writer.append_many(objects)


def _by_device(results: list) -> dict[str, list]:
    grouped: dict[str, list] = {}
    for result in results:
        grouped.setdefault(result.device_name, []).append(result)
    return grouped


# A subnormal energy overflows the efficiency to inf in both paths (the
# reference's Python float division does so silently); NumPy warns there
# and again when a median interpolates between infinities.
@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@settings(max_examples=40, deadline=None)
@given(parts=chunks, min_apps=st.integers(0, 3))
def test_store_tables_equal_in_memory_reference(parts, min_apps):
    results = [result for segment, _, _ in parts for result in segment]
    analysis = SnapshotAnalysis(
        "2021", "2021-01-01",
        apps=[app for _, segment, _ in parts for app in segment])
    by_device = _by_device(results)
    with tempfile.TemporaryDirectory() as tmp:
        store = ResultStore(Path(tmp) / "campaign.store")
        for segment_results, segment_apps, as_jsonl in parts:
            _seal(store, "executions", segment_results, as_jsonl,
                  execution_result_to_row)
            _seal(store, "apps", segment_apps, as_jsonl, app_record_to_row)
        assert ("jsonl" in {meta.format for meta in store.segments}) == any(
            as_jsonl and (segment_results or segment_apps)
            for segment_results, segment_apps, as_jsonl in parts)
        for source in (store, store.open_snapshot()):
            server = ReportServer(source)
            for via_server in (True, False):
                ecdf = (server.latency_ecdf_by_device() if via_server
                        else reports.latency_ecdf_by_device(source))
                assert list(ecdf.items()) == list(
                    reports.latency_ecdf_by_device(by_device).items())
                for drop in (True, False):
                    energy = (server.energy_distributions(drop) if via_server
                              else reports.energy_distributions(source, drop))
                    assert list(energy.items()) == list(
                        reports.energy_distributions(by_device, drop).items())
                for device in DEVICES:
                    points = (server.latency_vs_flops(device) if via_server
                              else reports.latency_vs_flops(source, device))
                    assert points == reports.latency_vs_flops(
                        by_device.get(device, []))
                usage = (server.cloud_api_usage(min_apps) if via_server
                         else reports.cloud_api_usage(source, min_apps))
                assert list(usage.items()) == list(
                    reports.cloud_api_usage(analysis, min_apps).items())
            assert server.summary()["devices"] == sorted(by_device)
