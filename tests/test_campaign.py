"""Tests for out-of-core sharded campaigns: shard geometry, bit-identity
for any shard count, kept shard workers, merge-by-adoption semantics and
crash-mid-merge convergence."""

import os
import signal
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

import repro
from repro.campaign import (ambient_spec, campaign_spec, run_campaign,
                            shard_ranges)
from repro.cloud.load import LoadProfile, load_report
from repro.fleet.simulator import FleetSimulator
from repro.runtime.pool import iter_mapped_chunks
from repro.store import ResultStore, merge_stores
from repro.store.merge import adopt_segments

NUM_USERS = 36
HORIZON_S = 6 * 3600.0
BIN_S = 900.0


@pytest.fixture(scope="module")
def spec():
    return ambient_spec(NUM_USERS, seed=7, horizon_s=HORIZON_S)


@pytest.fixture(scope="module")
def baseline(spec, tmp_path_factory):
    """The unsharded (shards=1, in-process) campaign every variant must
    reproduce bit-for-bit."""
    root = tmp_path_factory.mktemp("campaign-baseline")
    return run_campaign(spec, root, shards=1, bin_seconds=BIN_S,
                        use_processes=False)


def _events(store):
    return store.query("fleet_events").arrays()


def _load(store):
    return store.query("fleet_load").arrays()


class TestShardRanges:
    def test_partition_is_contiguous_and_balanced(self):
        for num_users in (0, 1, 7, 36, 1000):
            for shards in (1, 2, 3, 5, 8, 41):
                ranges = shard_ranges(num_users, shards)
                assert len(ranges) == shards
                assert ranges[0][0] == 0
                assert ranges[-1][1] == num_users
                sizes = []
                for (lo, hi), (next_lo, _) in zip(ranges, ranges[1:]):
                    assert hi == next_lo  # contiguous, in user order
                for lo, hi in ranges:
                    assert 0 <= lo <= hi
                    sizes.append(hi - lo)
                assert max(sizes) - min(sizes) <= 1  # balanced
                assert sum(sizes) == num_users

    def test_rejects_bad_arguments(self):
        with pytest.raises(ValueError, match="shards"):
            shard_ranges(10, 0)
        with pytest.raises(ValueError, match="shards"):
            shard_ranges(10, -1)
        with pytest.raises(ValueError, match="num_users"):
            shard_ranges(-1, 2)

    def test_more_shards_than_users_yields_empty_ranges(self):
        ranges = shard_ranges(3, 5)
        assert [hi - lo for lo, hi in ranges] == [1, 1, 1, 0, 0]


class TestBitIdentity:
    """The tentpole invariant: output is identical for any shard count."""

    @pytest.mark.parametrize("shards", [2, 3, 5])
    def test_sharded_matches_unsharded(self, spec, baseline, tmp_path,
                                       shards):
        result = run_campaign(spec, tmp_path / f"c{shards}", shards=shards,
                              bin_seconds=BIN_S, use_processes=False)
        assert result.users == baseline.users
        assert result.events == baseline.events
        assert result.offloaded == baseline.offloaded
        ref_events, got_events = _events(baseline.store), _events(result.store)
        assert set(got_events) == set(ref_events)
        for name, ref in ref_events.items():
            assert np.array_equal(got_events[name], ref), name
            assert got_events[name].dtype == ref.dtype
        ref_load, got_load = _load(baseline.store), _load(result.store)
        for name, ref in ref_load.items():
            assert np.array_equal(got_load[name], ref), name
        assert load_report(result.store) == load_report(baseline.store)

    def test_process_pool_matches_inline(self, spec, baseline, tmp_path):
        result = run_campaign(spec, tmp_path / "procs", shards=4,
                              bin_seconds=BIN_S, max_parallel=2)
        for name, ref in _events(baseline.store).items():
            assert np.array_equal(_events(result.store)[name], ref), name

    def test_one_parallel_shard_forks_nothing(self, spec, baseline,
                                              tmp_path, monkeypatch):
        """``max_parallel`` counts the coordinator, so a cap of one runs
        every shard in this process, identically to the inline run."""
        from repro.runtime import pool

        class NoFork:
            def __init__(self, *args, **kwargs):
                raise AssertionError("a process pool was constructed")

        monkeypatch.setattr(pool.futures, "ProcessPoolExecutor", NoFork)
        result = run_campaign(spec, tmp_path / "one", shards=3,
                              bin_seconds=BIN_S, max_parallel=1)
        inline = run_campaign(spec, tmp_path / "inline", shards=3,
                              bin_seconds=BIN_S, use_processes=False)
        ref_events, got_events = _events(inline.store), _events(result.store)
        assert set(got_events) == set(ref_events)
        for name, ref in ref_events.items():
            assert np.array_equal(got_events[name], ref), name
            assert got_events[name].dtype == ref.dtype
        assert [shard.events for shard in result.shard_results] \
            == [shard.events for shard in inline.shard_results]

    def test_zoo_spec_ships_to_shard_processes(self, tmp_path):
        """The dense zoo spec pickles into shard processes and reproduces
        direct single-thread ingestion exactly."""
        spec = campaign_spec("zoo", 16, seed=3, horizon_s=4 * 3600.0)
        direct = ResultStore(tmp_path / "direct.store")
        FleetSimulator(spec, max_workers=1).run_to_store(direct)
        result = run_campaign(spec, tmp_path / "zoo", shards=2,
                              bin_seconds=BIN_S, use_processes=True)
        ref_events, got_events = _events(direct), _events(result.store)
        assert result.offloaded > 0
        assert len(set(ref_events["scenario"])) > 1
        assert set(got_events) == set(ref_events)
        for name, ref in ref_events.items():
            assert np.array_equal(got_events[name], ref), name
            assert got_events[name].dtype == ref.dtype

    def test_matches_direct_simulator_ingestion(self, spec, baseline,
                                                tmp_path):
        """The campaign path reproduces plain ``run_to_store`` exactly."""
        direct = ResultStore(tmp_path / "direct.store")
        FleetSimulator(spec, max_workers=1).run_to_store(direct)
        for name, ref in _events(direct).items():
            assert np.array_equal(_events(baseline.store)[name], ref), name

    def test_compressed_campaign_is_identical(self, spec, baseline, tmp_path):
        result = run_campaign(spec, tmp_path / "z", shards=3,
                              bin_seconds=BIN_S, compress=True,
                              use_processes=False)
        for name, ref in _events(baseline.store).items():
            assert np.array_equal(_events(result.store)[name], ref), name
        for name, ref in _load(baseline.store).items():
            assert np.array_equal(_load(result.store)[name], ref), name

    def test_load_grid_matches_rebuilt_profiles(self, spec, baseline):
        """The merged grid equals the vectorised per-shard rebuild's sum."""
        rebuilt = LoadProfile.from_store(baseline.store, spec.regions,
                                         spec.horizon_s, BIN_S)
        assert rebuilt.total_requests == baseline.offloaded


class TestCampaignRun:
    def test_result_accounting(self, spec, baseline):
        assert baseline.users == NUM_USERS
        assert [r.shard_index for r in baseline.shard_results] == [0]
        assert sum(r.events for r in baseline.shard_results) \
            == baseline.events
        assert baseline.merge.segments_adopted \
            == sum(1 for _ in baseline.store.segments_for("fleet_events"))
        assert baseline.store.verify_integrity() > 0

    def test_refuses_finished_campaign_directory(self, spec, baseline):
        with pytest.raises(ValueError, match="already holds committed"):
            run_campaign(spec, baseline.store_root.rsplit("/merged.store")[0],
                         shards=1, bin_seconds=BIN_S, use_processes=False)

    def test_empty_shards_are_harmless(self, tmp_path):
        spec = ambient_spec(3, seed=1, horizon_s=3600.0)
        result = run_campaign(spec, tmp_path / "tiny", shards=5,
                              bin_seconds=BIN_S, use_processes=False)
        assert [r.users for r in result.shard_results] == [1, 1, 1, 0, 0]
        assert result.store.query("fleet_events").stats is not None

    def test_campaign_spec_builders(self):
        assert campaign_spec("ambient", 10).num_users == 10
        assert campaign_spec("zoo", 4, seed=2).seed == 2
        with pytest.raises(KeyError, match="unknown campaign workload"):
            campaign_spec("bogus", 10)


def _worker_pids(items):
    """Module-level (picklable) chunk body: the pid that ran each item."""
    return [os.getpid() for _ in items]


def _kept_worker_pids() -> set:
    """Pids of the kept one-worker shard pool (forked here if need be)."""
    pids = set(iter_mapped_chunks(_worker_pids, [0, 1], max_workers=2,
                                  chunk_size=1, use_processes=True))
    return pids - {os.getpid()}


def _assert_events_equal(result, reference):
    ref_events, got_events = _events(reference.store), _events(result.store)
    assert set(got_events) == set(ref_events)
    for name, ref in ref_events.items():
        assert np.array_equal(got_events[name], ref), name
        assert got_events[name].dtype == ref.dtype


class TestKeptShardWorkers:
    """Shard workers are forked once per process and reused; a dead
    worker or a failed shard leaves the next campaign bit-identical.

    Failures come through inputs, not monkeypatches: a kept worker runs
    the code of the moment it was forked and never sees a later patch.
    """

    def test_workers_are_kept_across_campaigns(self, spec, baseline,
                                               tmp_path):
        run_campaign(spec, tmp_path / "first", shards=2, bin_seconds=BIN_S,
                     max_parallel=2)
        pids = _kept_worker_pids()
        result = run_campaign(spec, tmp_path / "second", shards=2,
                              bin_seconds=BIN_S, max_parallel=2)
        assert _kept_worker_pids() == pids
        assert len(pids) == 1
        _assert_events_equal(result, baseline)

    def test_killed_worker_is_replaced(self, spec, baseline, tmp_path):
        run_campaign(spec, tmp_path / "before", shards=2, bin_seconds=BIN_S,
                     max_parallel=2)
        (pid,) = _kept_worker_pids()
        os.kill(pid, signal.SIGKILL)
        # The pool reaps its dead worker once it notices the death.
        deadline = time.monotonic() + 30.0
        while True:
            try:
                os.kill(pid, 0)
            except ProcessLookupError:
                break
            assert time.monotonic() < deadline, "killed worker not reaped"
            time.sleep(0.01)
        result = run_campaign(spec, tmp_path / "after", shards=2,
                              bin_seconds=BIN_S, max_parallel=2)
        _assert_events_equal(result, baseline)
        assert _kept_worker_pids().isdisjoint({pid})

    @pytest.mark.parametrize("failing", [0, 1])
    def test_failed_shard_raises_and_next_campaign_is_identical(
            self, spec, baseline, tmp_path, failing):
        """A shard that cannot write its store fails the campaign in the
        coordinator, whether the coordinator ran it (shard 0) or the worker
        did (shard 1); no shard of the failed call writes after it
        returns, and the next campaign is bit-identical."""
        root = tmp_path / "failing"
        root.mkdir()
        # A regular file where the shard's store directory goes: its
        # manifest path lies under a file.  The coordinator runs shards 0
        # and 2, the worker 1 and 3.
        (root / f"shard-{failing:04d}.store").write_text("")
        with pytest.raises(NotADirectoryError):
            run_campaign(spec, root, shards=4, bin_seconds=BIN_S,
                         max_parallel=2)
        written = sorted((path, path.stat().st_size)
                         for path in root.rglob("*") if path.is_file())
        time.sleep(0.2)
        assert sorted((path, path.stat().st_size)
                      for path in root.rglob("*") if path.is_file()) \
            == written
        result = run_campaign(spec, tmp_path / "next", shards=4,
                              bin_seconds=BIN_S, max_parallel=2)
        _assert_events_equal(result, baseline)
        for name, ref in _load(baseline.store).items():
            assert np.array_equal(_load(result.store)[name], ref), name

    def test_no_worker_outlives_its_process(self, tmp_path):
        """A process that ran a sharded campaign joins its kept workers on
        exit: none is left running, or left unreaped."""
        code = "\n".join([
            "import os",
            "from repro.campaign import ambient_spec, run_campaign",
            "from repro.runtime.pool import iter_mapped_chunks",
            "def pids(items):",
            "    return [os.getpid() for _ in items]",
            "run_campaign(ambient_spec(12, seed=5, horizon_s=7200.0),",
            f"             {str(tmp_path / 'c')!r}, shards=2,",
            "             max_parallel=2)",
            "print(*set(iter_mapped_chunks(pids, [0, 1], max_workers=2,",
            "                              chunk_size=1, use_processes=True))",
            "      - {os.getpid()})",
        ])
        env = dict(os.environ,
                   PYTHONPATH=str(Path(repro.__file__).resolve().parents[1]))
        proc = subprocess.run([sys.executable, "-c", code], env=env,
                              capture_output=True, text=True, timeout=120,
                              check=True)
        pids = [int(pid) for pid in proc.stdout.split()]
        assert len(pids) == 1
        for pid in pids:
            with pytest.raises(ProcessLookupError):
                os.kill(pid, 0)


class TestMergeSemantics:
    @pytest.fixture()
    def shard_stores(self, spec, baseline, tmp_path):
        """Two freshly simulated shard stores covering the population."""
        stores = []
        for index, (lo, hi) in enumerate(shard_ranges(spec.num_users, 2)):
            store = ResultStore(tmp_path / f"s{index}.store")
            FleetSimulator(spec, max_workers=1).run_to_store(
                store, user_range=(lo, hi))
            stores.append(store)
        return stores

    def test_adoption_hard_links_not_copies(self, shard_stores, tmp_path):
        dest = ResultStore(tmp_path / "m.store")
        stats = merge_stores(dest, shard_stores)
        assert stats.files_linked > 0 and stats.files_copied == 0
        source_inodes = {
            os.stat(store.segments_dir / meta.data_filename).st_ino
            for store in shard_stores
            for meta in store.segments_for("fleet_events")
        }
        for meta in dest.segments_for("fleet_events"):
            assert os.stat(
                dest.segments_dir / meta.data_filename).st_ino in source_inodes

    def test_merge_preserves_rows_and_order(self, shard_stores, tmp_path):
        dest = ResultStore(tmp_path / "m.store")
        stats = merge_stores(dest, shard_stores)
        assert stats.rows_adopted == sum(
            meta.rows for store in shard_stores
            for meta in store.segments_for("fleet_events"))
        merged = _events(dest)
        offset = 0
        for store in shard_stores:  # shard order == user order
            part = _events(store)
            rows = part["user_id"].size
            for name, ref in part.items():
                assert np.array_equal(
                    merged[name][offset:offset + rows], ref), name
            offset += rows
        assert dest.verify_integrity() == stats.segments_adopted

    def test_rejects_merging_store_into_itself(self, shard_stores):
        with pytest.raises(ValueError, match="into itself"):
            merge_stores(shard_stores[0], [shard_stores[0]])

    def test_kind_filter(self, shard_stores, tmp_path):
        dest = ResultStore(tmp_path / "m.store")
        stats = merge_stores(dest, shard_stores, kinds=("fleet_load",))
        assert stats.segments_adopted == 0  # run_to_store wrote events only
        assert not dest.segments

    def test_sources_may_be_paths(self, shard_stores, tmp_path):
        dest = ResultStore(tmp_path / "m.store")
        stats = merge_stores(dest, [str(s.root) for s in shard_stores])
        assert stats.sources == 2 and stats.segments_adopted > 0


class TestCrashMidMerge:
    """Kill between segment adoption and manifest commit; reads stay on the
    committed prefix and a retry converges to the same final state."""

    def _shards(self, spec, tmp_path):
        stores = []
        for index, (lo, hi) in enumerate(shard_ranges(spec.num_users, 2)):
            store = ResultStore(tmp_path / f"s{index}.store")
            FleetSimulator(spec, max_workers=1).run_to_store(
                store, user_range=(lo, hi))
            stores.append(store)
        return stores

    def test_crash_before_commit_then_retry_converges(self, spec, tmp_path,
                                                      monkeypatch):
        shard_stores = self._shards(spec, tmp_path)
        dest = ResultStore(tmp_path / "m.store")
        # Seed the destination with a committed prefix the crash must not
        # disturb.
        prefix_store = ResultStore(tmp_path / "prefix.store")
        FleetSimulator(ambient_spec(2, seed=9, horizon_s=3600.0),
                       max_workers=1).run_to_store(prefix_store)
        merge_stores(dest, [prefix_store])
        prefix = _events(dest)
        prefix_names = [m.name for m in dest.segments]

        real_commit = ResultStore._commit

        def crash(store, *args, **kwargs):
            raise RuntimeError("injected crash before manifest commit")

        monkeypatch.setattr(ResultStore, "_commit", crash)
        with pytest.raises(RuntimeError, match="injected crash"):
            merge_stores(dest, shard_stores)
        monkeypatch.setattr(ResultStore, "_commit", real_commit)

        # Reopen cold: adopted-but-uncommitted files are invisible; reads
        # serve exactly the previously committed prefix.
        reopened = ResultStore(dest.root)
        assert [m.name for m in reopened.segments] == prefix_names
        after = _events(reopened)
        for name, ref in prefix.items():
            assert np.array_equal(after[name], ref), name

        # Retry: the unchanged sequence counter re-derives the same target
        # names, so os.replace converges the orphans instead of duplicating.
        orphans = {p.name for p in reopened.segments_dir.iterdir()}
        stats = merge_stores(reopened, shard_stores)
        assert stats.rows_adopted == sum(
            meta.rows for store in shard_stores
            for meta in store.segments_for("fleet_events"))
        final = ResultStore(dest.root)
        adopted_names = {m.data_filename for m in final.segments}
        assert adopted_names <= {p.name for p in final.segments_dir.iterdir()}
        assert orphans <= {p.name for p in final.segments_dir.iterdir()} | \
            adopted_names
        assert final.verify_integrity() == len(final.segments)
        total = _events(final)
        assert total["user_id"].size == prefix["user_id"].size + \
            stats.rows_adopted

    def test_no_tmp_files_survive_a_clean_merge(self, spec, tmp_path):
        shard_stores = self._shards(spec, tmp_path)
        dest = ResultStore(tmp_path / "m.store")
        merge_stores(dest, shard_stores)
        leftovers = [p for p in dest.segments_dir.iterdir()
                     if ".adopt-tmp" in p.name]
        assert leftovers == []
