"""Out-of-core sharded campaigns: ecosystem-scale fleets on one box.

The paper's ecosystem claims are population-scale claims, and ROADMAP
item 2 ("true millions of users") is what makes the reproduction's
versions of them credible.  This package is that rung: a campaign
coordinator (:mod:`repro.campaign.coordinator`) that splits a
:class:`~repro.fleet.population.FleetSpec` into contiguous user-range
shards, simulates each shard in its own process into a shard-local
columnar store, and merges the shard stores by **segment adoption** —
hard-linking sealed segment files into the merged store and committing
them in one manifest generation, so the merge cost is per *segment*, not
per row — plus exact integer addition of the shards'
:class:`~repro.cloud.load.LoadProfile` grids.

Everything rests on invariants earlier PRs built deliberately: per-user
seeds make shard boundaries invisible to the event stream, integer
demand grids merge exactly in any order, and store segments are
immutable checksummed files whose names are free to change.  The result
is bit-identical to an unsharded run for any shard count —
``tests/test_campaign.py`` pins that, and
``benchmarks/test_bench_campaign.py`` holds the merge and the zero-copy
mapped ``.colseg`` reads to their speedup gates.

:mod:`repro.campaign.workloads` defines the sparse "Ambient" workload
that makes a 10M-user simulated day tractable on a single machine.
"""

from repro.campaign.coordinator import (CampaignResult, ShardResult,
                                        ShardTask, run_campaign,
                                        shard_ranges)
from repro.campaign.ingest import (BackgroundIngest, ingest_fleet_batches,
                                   synthetic_fleet_batch)
from repro.campaign.workloads import (ambient_scenario, ambient_spec,
                                      campaign_spec)

__all__ = [
    "run_campaign",
    "CampaignResult",
    "ShardResult",
    "ShardTask",
    "shard_ranges",
    "ambient_scenario",
    "ambient_spec",
    "campaign_spec",
    "BackgroundIngest",
    "ingest_fleet_batches",
    "synthetic_fleet_batch",
]
