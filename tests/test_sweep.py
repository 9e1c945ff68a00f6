"""Tests for the declarative parallel sweep runner."""

import pytest

from repro.devices.device import DEV_BOARDS, device_by_name
from repro.devices.scheduler import ThreadConfig
from repro.dnn.zoo import autocomplete_lstm, blazeface, mobilenet_v1
from repro.runtime import Backend, SweepRunner, SweepSpec, derive_job_seed


@pytest.fixture(scope="module")
def graphs():
    return (blazeface(weight_seed=2), mobilenet_v1(weight_seed=2),
            autocomplete_lstm(weight_seed=2))


@pytest.fixture(scope="module")
def spec(graphs):
    return SweepSpec(
        devices=(device_by_name("Q845"), device_by_name("S21")),
        graphs=graphs,
        backends=(Backend.CPU, Backend.XNNPACK, Backend.GPU),
        batch_sizes=(1, 4),
        thread_configs=(None, ThreadConfig(4)),
        num_inferences=3,
        seed=7,
    )


class TestSweepSpec:
    def test_expansion_covers_product(self, spec):
        jobs = list(spec.expand())
        assert len(jobs) == spec.num_combinations == 2 * 3 * 3 * 2 * 2

    def test_rejects_empty_axes(self, graphs):
        with pytest.raises(ValueError):
            SweepSpec(devices=(), graphs=graphs)
        with pytest.raises(ValueError):
            SweepSpec(devices=(device_by_name("Q845"),), graphs=graphs,
                      batch_sizes=())
        with pytest.raises(ValueError):
            SweepSpec(devices=(device_by_name("Q845"),), graphs=graphs,
                      batch_sizes=(0,))

    def test_accepts_backend_strings(self, graphs):
        spec = SweepSpec(devices=(device_by_name("Q845"),), graphs=graphs,
                         backends=("cpu", "gpu"))
        assert spec.backends == (Backend.CPU, Backend.GPU)

    def test_job_seeds_depend_on_coordinates_only(self, spec):
        seeds = [job.seed for job in spec.expand()]
        assert len(set(seeds)) == len(seeds)  # all distinct
        assert seeds == [job.seed for job in spec.expand()]  # reproducible
        job = next(spec.expand())
        assert job.seed == derive_job_seed(
            spec.seed, job.device.name, job.graph.name, job.backend,
            job.batch_size, "auto")


class TestPruning:
    def test_snpe_pruned_on_non_qualcomm(self, graphs):
        spec = SweepSpec(devices=(device_by_name("A20"),), graphs=graphs,
                         backends=(Backend.SNPE_DSP,))
        assert SweepRunner(spec).compatible_jobs() == []

    def test_recurrent_model_pruned_on_gpu(self, graphs):
        spec = SweepSpec(devices=(device_by_name("Q845"),), graphs=graphs,
                         backends=(Backend.GPU,))
        jobs = SweepRunner(spec).compatible_jobs()
        assert jobs  # conv models survive
        assert all(job.graph.name != autocomplete_lstm().name for job in jobs)

    def test_pruning_matches_executor_support(self, spec):
        from repro.runtime import Executor

        pruned = {(j.device.name, j.graph.name, j.backend, j.batch_size,
                   j.thread_label)
                  for j in SweepRunner(spec).compatible_jobs()}
        expected = set()
        for job in spec.expand():
            executor = Executor(job.device)
            if executor.supports(job.graph, job.backend):
                expected.add((job.device.name, job.graph.name, job.backend,
                              job.batch_size, job.thread_label))
        assert pruned == expected


class TestDeterminism:
    def test_results_identical_across_worker_counts(self, spec):
        serial = SweepRunner(spec, max_workers=1).run()
        parallel = SweepRunner(spec, max_workers=6).run()
        assert serial == parallel
        assert len(serial) > 0

    def test_results_identical_across_chunk_sizes(self, spec):
        baseline = SweepRunner(spec, max_workers=1).run()
        for chunk_size in (1, 3, 7, 1000):
            chunked = SweepRunner(spec, max_workers=4,
                                  chunk_size=chunk_size).run()
            assert chunked == baseline

    def test_rejects_invalid_chunk_size(self, spec):
        with pytest.raises(ValueError):
            SweepRunner(spec, chunk_size=0)

    def test_job_results_independent_of_spec_subset(self, graphs):
        def single(graph_tuple):
            spec = SweepSpec(devices=(device_by_name("Q845"),),
                             graphs=graph_tuple, num_inferences=3, seed=7)
            return SweepRunner(spec, max_workers=2).run()

        full = single(graphs)
        only_first = single(graphs[:1])
        assert only_first[0] == full[0]

    def test_different_base_seed_changes_noise(self, graphs):
        def run_with(seed):
            spec = SweepSpec(devices=(device_by_name("Q845"),),
                             graphs=graphs[:1], num_inferences=5, seed=seed)
            return SweepRunner(spec).run()[0]

        a, b = run_with(0), run_with(1)
        assert a.model_name == b.model_name
        assert a.latency_ms != b.latency_ms  # different noise draws
        assert a.flops == b.flops  # deterministic accounting unchanged

    def test_streaming_callback_in_job_order(self, spec):
        streamed = []
        results = SweepRunner(spec, max_workers=4).run(on_result=streamed.append)
        assert streamed == results


class TestStreamingPaths:
    def test_iter_results_matches_run(self, spec):
        iterated = list(SweepRunner(spec, max_workers=4).iter_results())
        assert iterated == SweepRunner(spec, max_workers=1).run()

    def test_iter_results_chunked(self, spec):
        iterated = list(SweepRunner(spec, max_workers=3,
                                    chunk_size=5).iter_results())
        assert iterated == SweepRunner(spec, max_workers=1).run()

    def test_collect_false_streams_without_buffering(self, spec):
        streamed = []
        returned = SweepRunner(spec, max_workers=4).run(
            on_result=streamed.append, collect=False)
        assert returned == []
        assert streamed == SweepRunner(spec, max_workers=1).run()

    def test_empty_sweep_iterates_nothing(self, graphs):
        from repro.devices.device import device_by_name

        spec = SweepSpec(devices=(device_by_name("A20"),), graphs=graphs,
                         backends=(Backend.SNPE_DSP,))
        assert list(SweepRunner(spec).iter_results()) == []
        assert SweepRunner(spec).run(collect=False) == []


class TestPipelineWiring:
    def test_benchmark_unique_models(self):
        from repro.android.appgen import AppGenerator, GeneratorConfig
        from repro.android.playstore import PlayStore
        from repro.core.pipeline import GaugeNN

        store = PlayStore(
            [AppGenerator(GeneratorConfig.snapshot_2021(scale=0.02)).generate()])
        gauge = GaugeNN(store)
        analysis = gauge.analyze_snapshot("2021")
        results = GaugeNN.benchmark_unique_models(
            analysis, DEV_BOARDS, num_inferences=2, max_workers=3)
        assert results
        device_names = {record.device_name for record in results}
        assert device_names <= {device.name for device in DEV_BOARDS}
        # Deterministic regardless of parallelism.
        again = GaugeNN.benchmark_unique_models(
            analysis, DEV_BOARDS, num_inferences=2, max_workers=1)
        assert results == again
