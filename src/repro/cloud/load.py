"""Time-binned regional cloud load: the fleet's offload demand, aggregated.

A :class:`LoadProfile` counts the offloaded requests of a fleet simulation
into a dense ``[region, API category, time bin]`` integer grid.  Counts are
**mergeable by pure addition**: integer sums are exact and order-independent,
so a profile built from per-user traces is bit-identical for any worker
count, chunk size or shard split — the property the two-pass interference
simulator's determinism rests on.

Profiles persist as ``fleet_load`` store rows (one :class:`LoadCell` per
non-empty grid cell), and :meth:`LoadProfile.from_store` rebuilds a profile
by — again — pure addition over the committed rows, so splitting the rows
across many segments, compacting them, or ingesting them from several
writers never changes the reconstructed profile.

A :class:`ServiceTable` is the frozen read side: the capacity model's
service time per (region, API, bin), looked up per event by both fleet event
loops via :meth:`ServiceTable.service_for`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, Sequence

import numpy as np

from repro import obs
from repro.analysis.stats import time_bin_indices
from repro.android.cloud_apis import CLOUD_APIS
from repro.fleet.queueing import ROUTE_CLOUD
from repro.store.kernels import dense_unique

__all__ = ["LoadCell", "LoadProfile", "ServiceTable", "FIG15_API_NAMES",
           "load_report"]

#: Canonical Fig. 15 API category order (the profile's API axis).
FIG15_API_NAMES: tuple[str, ...] = tuple(api.name for api in CLOUD_APIS)


def _axis_indices(names: np.ndarray, axis: Sequence[str],
                  label: str) -> np.ndarray:
    """Map an array of axis names to their integer indices, vectorised.

    A ``searchsorted`` over the sorted axis replaces a per-row dict lookup;
    an unknown name raises :class:`KeyError` naming it, matching what the
    scalar ``dict[name]`` lookup used to raise.
    """
    axis_array = np.asarray(axis, dtype=np.str_)
    order = np.argsort(axis_array)
    positions = np.searchsorted(axis_array[order], names)
    positions = np.clip(positions, 0, axis_array.size - 1)
    indices = order[positions]
    bad = axis_array[indices] != names
    if bad.any():
        raise KeyError(f"unknown {label} {str(names[bad][0])!r}")
    return indices


@dataclass(frozen=True)
class LoadCell:
    """One non-empty (region, API, time-bin) cell of a load profile."""

    region: str
    cloud_api: str
    bin_index: int
    bin_start_s: float
    bin_seconds: float
    requests: int
    payload_bytes: int

    #: Store row kind these cells persist as (see repro.store.schema).
    __row_kind__ = "fleet_load"


class LoadProfile:
    """Offload demand over time, per region and Fig. 15 API category."""

    def __init__(self, regions: Sequence[str], horizon_s: float,
                 bin_seconds: float,
                 apis: Sequence[str] = FIG15_API_NAMES) -> None:
        if horizon_s <= 0:
            raise ValueError("horizon_s must be positive")
        if bin_seconds <= 0:
            raise ValueError("bin_seconds must be positive")
        if not regions:
            raise ValueError("regions must be non-empty")
        self.regions = tuple(regions)
        self.apis = tuple(apis)
        self.horizon_s = float(horizon_s)
        self.bin_seconds = float(bin_seconds)
        self.num_bins = int(np.ceil(horizon_s / bin_seconds))
        shape = (len(self.regions), len(self.apis), self.num_bins)
        self.requests = np.zeros(shape, dtype=np.int64)
        self.payload_bytes = np.zeros(shape, dtype=np.int64)
        self._region_index = {name: i for i, name in enumerate(self.regions)}
        self._api_index = {name: i for i, name in enumerate(self.apis)}

    # ------------------------------------------------------------------ #
    # Accumulation (exact integer addition — order never matters)
    # ------------------------------------------------------------------ #
    def bin_indices(self, times_s: np.ndarray) -> np.ndarray:
        """Time-bin index of each event time (clipped to the last bin)."""
        return time_bin_indices(times_s, self.bin_seconds, self.num_bins)

    def add_trace(self, trace) -> int:
        """Accumulate one :class:`~repro.fleet.simulator.UserTrace`'s offloads.

        Returns the number of requests added.  Only cloud-served events
        count — shed and queued requests never reached the API.
        """
        mask = trace.route == ROUTE_CLOUD
        count = int(mask.sum())
        if not count:
            return 0
        r = self._region_index[trace.user.region]
        a = self._api_index[trace.cloud_api]
        bins = np.bincount(self.bin_indices(trace.times_s[mask]),
                           minlength=self.num_bins).astype(np.int64)
        self.requests[r, a] += bins
        self.payload_bytes[r, a] += bins * int(trace.payload_bytes)
        return count

    def add_block(self, block) -> int:
        """Accumulate a simulated block's offloads (see
        :meth:`~repro.fleet.simulator.FleetSimulator.iter_blocks`).

        Equal to :meth:`add_trace` over the block's traces, in exact integer
        arithmetic: every cloud-served event is one count in a flat
        (region, API, bin) cell, added with one ``bincount``, and its
        user's payload is added into the same cell.  Region and API come
        from the block's code arrays, so the profile's axes are looked up
        once per (region, API) group that has offloads, not once per user.
        Returns the number of requests added.
        """
        with obs.span("cloud.load.add_trace"):
            cloud = block.route == ROUTE_CLOUD
            count = int(np.count_nonzero(cloud))
            if not count:
                return 0
            owner = np.repeat(np.arange(block.counts.size),
                              block.counts)[cloud]
            apis = len(block.api_names)
            regions = block.columns.spec.regions
            groups, local = dense_unique(
                block.columns.region[owner] * apis + block.api[owner],
                len(regions) * apis)
            # Flat (region, API) row of the grid, per group.
            rows = np.array(
                [self._region_index[regions[group // apis]] * len(self.apis)
                 + self._api_index[block.api_names[group % apis]]
                 for group in groups.tolist()], dtype=np.int64)
            cells = rows[local] * self.num_bins \
                + self.bin_indices(block.times[cloud])
            self.requests += np.bincount(
                cells, minlength=self.requests.size
            ).reshape(self.requests.shape)
            np.add.at(self.payload_bytes.reshape(-1), cells,
                      block.payload[owner])
            return count

    def merge(self, other: "LoadProfile") -> "LoadProfile":
        """Add another profile of the same shape into this one (exact)."""
        if (self.regions, self.apis, self.num_bins,
                self.bin_seconds) != (other.regions, other.apis,
                                      other.num_bins, other.bin_seconds):
            raise ValueError("cannot merge profiles of different shapes")
        self.requests += other.requests
        self.payload_bytes += other.payload_bytes
        return self

    # ------------------------------------------------------------------ #
    # Views
    # ------------------------------------------------------------------ #
    @property
    def total_requests(self) -> int:
        """All offloaded requests counted into the profile."""
        return int(self.requests.sum())

    def offered_rps(self, region_index: int, api_index: int) -> np.ndarray:
        """Per-bin offered load of one (region, API) pair, requests/second."""
        return self.requests[region_index, api_index] / self.bin_seconds

    def peak_rps(self) -> float:
        """The busiest single (region, API, bin) cell's offered load."""
        return float(self.requests.max()) / self.bin_seconds

    # ------------------------------------------------------------------ #
    # Store round-trip
    # ------------------------------------------------------------------ #
    def cells(self) -> Iterator[LoadCell]:
        """Non-empty grid cells in canonical (region, api, bin) order."""
        for r, region in enumerate(self.regions):
            for a, api in enumerate(self.apis):
                for b in np.nonzero(self.requests[r, a])[0]:
                    b = int(b)
                    yield LoadCell(
                        region=region,
                        cloud_api=api,
                        bin_index=b,
                        bin_start_s=b * self.bin_seconds,
                        bin_seconds=self.bin_seconds,
                        requests=int(self.requests[r, a, b]),
                        payload_bytes=int(self.payload_bytes[r, a, b]),
                    )

    def column_batch(self) -> dict[str, np.ndarray]:
        """Non-empty grid cells as one ``fleet_load`` column batch.

        The batch-native counterpart of :meth:`cells`: ``np.nonzero`` walks
        the grid in C (region-major) order — exactly the order
        :meth:`cells` yields — and every column derives from the index
        arrays in one vectorised step, so the persisted rows are identical
        to appending each :class:`LoadCell` individually.
        """
        r_idx, a_idx, b_idx = np.nonzero(self.requests)
        batch = {
            "region": np.array(self.regions)[r_idx] if r_idx.size
            else np.empty(0, dtype=np.str_),
            "cloud_api": np.array(self.apis)[a_idx] if a_idx.size
            else np.empty(0, dtype=np.str_),
            "bin_index": b_idx.astype(np.int64),
            "bin_start_s": b_idx * self.bin_seconds,
            "bin_seconds": np.full(b_idx.size, self.bin_seconds),
            "requests": self.requests[r_idx, a_idx, b_idx],
            "payload_bytes": self.payload_bytes[r_idx, a_idx, b_idx],
        }
        for array in batch.values():
            array.setflags(write=False)  # fresh arrays: skip the writer copy
        return batch

    @classmethod
    def from_store(cls, store, regions: Sequence[str], horizon_s: float,
                   bin_seconds: float,
                   apis: Sequence[str] = FIG15_API_NAMES) -> "LoadProfile":
        """Rebuild a profile by summing a store's ``fleet_load`` rows.

        Pure addition over however many rows/segments the cells were split
        into — re-ingestion, segment splits and compaction all reconstruct
        the identical grid.  The accumulation is one vectorised
        ``np.add.at`` scatter per grid (region/API names map to axis
        indices via a sorted lookup), so rebuilding from millions of cells
        costs no per-row Python loop.
        """
        profile = cls(regions, horizon_s, bin_seconds, apis=apis)
        arrays = store.query("fleet_load").where(
            "bin_seconds", "==", float(bin_seconds)).arrays(
            "region", "cloud_api", "bin_index", "requests", "payload_bytes")
        if not arrays["bin_index"].size:
            return profile
        r = _axis_indices(arrays["region"], profile.regions, "region")
        a = _axis_indices(arrays["cloud_api"], profile.apis, "cloud_api")
        b = arrays["bin_index"].astype(np.intp)
        if b.size and (b.min() < 0 or b.max() >= profile.num_bins):
            raise ValueError(
                "fleet_load rows hold bin indices outside the profile's "
                "horizon")
        np.add.at(profile.requests, (r, a, b),
                  arrays["requests"].astype(np.int64))
        np.add.at(profile.payload_bytes, (r, a, b),
                  arrays["payload_bytes"].astype(np.int64))
        return profile


@dataclass(frozen=True)
class ServiceTable:
    """Frozen per-(region, API, time-bin) cloud service times, milliseconds.

    The read side the event loops consume: built once per interference pass
    from a load profile and a capacity model, then treated as immutable —
    which is what makes a pass a pure function of (spec, table) and the
    whole two-pass run deterministic.  The simulator's worker threads
    share one table read-only.
    """

    regions: tuple[str, ...]
    apis: tuple[str, ...]
    bin_seconds: float
    #: Service time grid ``[region, api, bin]``, ms.
    service_ms: np.ndarray

    def __post_init__(self) -> None:
        expected = (len(self.regions), len(self.apis))
        if self.service_ms.ndim != 3 or self.service_ms.shape[:2] != expected:
            raise ValueError("service_ms must be [region, api, bin]")

    @classmethod
    def constant(cls, regions: Sequence[str], apis: Sequence[str],
                 horizon_s: float, bin_seconds: float,
                 service_ms: float) -> "ServiceTable":
        """A flat table (every bin at the routing policy's nominal time)."""
        num_bins = int(np.ceil(horizon_s / bin_seconds))
        grid = np.full((len(regions), len(apis), num_bins), float(service_ms))
        return cls(tuple(regions), tuple(apis), float(bin_seconds), grid)

    @property
    def num_bins(self) -> int:
        """Time bins per (region, API) row."""
        return int(self.service_ms.shape[2])

    def row(self, region: str, api: str) -> np.ndarray:
        """Per-bin service times of one (region, API) pair."""
        return self.service_ms[self.regions.index(region),
                               self.apis.index(api)]

    def service_for(self, region: str, api: str,
                    times_s: np.ndarray) -> np.ndarray:
        """Service time of requests arriving at ``times_s`` (elementwise)."""
        bins = time_bin_indices(times_s, self.bin_seconds, self.num_bins)
        return self.row(region, api)[bins]

    def max_delta_ms(self, other: "ServiceTable") -> float:
        """Largest absolute per-bin difference to another table (the
        convergence metric of the damped fixed-point iteration)."""
        if self.service_ms.shape != other.service_ms.shape:
            raise ValueError("cannot compare tables of different shapes")
        if not self.service_ms.size:
            return 0.0
        return float(np.abs(self.service_ms - other.service_ms).max())


def load_report(store) -> list[dict]:
    """Per-(region, API) cloud load summary from persisted ``fleet_load`` rows.

    One output row per (region, API category) with total requests, uplink
    bytes, the busiest bin's offered load in requests/second and the active
    bin count — sorted by request volume.  A grid cell may be split across
    several rows (multiple ingestions of the same horizon are additive, the
    contract :meth:`LoadProfile.from_store` rests on), so per-bin peaks are
    taken only after summing each cell's rows.  ``bin_seconds`` is part of
    the cell key: rows written at different bin widths (two campaigns with
    different ``--cloud-bin-minutes`` in one store) stay separate cells,
    each contributing its peak at its own width, rather than being summed
    into one fictitious time window.
    """
    grouped = (store.query("fleet_load")
               .group_by("region", "cloud_api", "bin_seconds", "bin_index")
               .agg(requests=("requests", "sum"),
                    payload_bytes=("payload_bytes", "sum"))
               .aggregate())
    by_pair: dict[tuple[str, str], dict] = {}
    for cell in grouped:
        entry = by_pair.setdefault((cell["region"], cell["cloud_api"]), {
            "requests": 0, "payload_bytes": 0, "peak_rps": 0.0,
            "active_bins": 0,
        })
        entry["requests"] += int(cell["requests"])
        entry["payload_bytes"] += int(cell["payload_bytes"])
        entry["peak_rps"] = max(entry["peak_rps"],
                                int(cell["requests"])
                                / float(cell["bin_seconds"]))
        entry["active_bins"] += 1
    rows = [
        {"region": region, "cloud_api": api, **entry}
        for (region, api), entry in by_pair.items()
    ]
    return sorted(rows, key=lambda r: (-r["requests"], r["region"],
                                       r["cloud_api"]))
