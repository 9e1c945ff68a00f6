"""On-device vs cloud routing: the fleet's offload policy and cloud costs.

The paper observes the ecosystem splitting between on-device models and
cloud ML APIs (Sec. 3.2/6.4, Fig. 15).  The router reproduces the two
first-order reasons a request leaves the device:

* **capability** — the device cannot meet the scenario's latency deadline
  even cold (``nominal > deadline``, e.g. low-tier phones running 15 FPS
  segmentation), so the whole session class is served by the matching cloud
  API;
* **battery saving** — once the battery falls under the policy threshold the
  user's requests are offloaded to spare the remaining charge (discharge is
  monotone, so this is a one-way switch per user within a simulation).

Both rules are deterministic functions of per-user state, which is what
keeps the simulator's vectorised and per-event reference loops equivalent
and the whole simulation reproducible under any worker count.

Cloud execution costs latency (RTT draw + uplink transfer + service time)
and radio energy; both are computed here so the simulator and the naive
reference share one cost model.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.android.cloud_apis import api_by_name
from repro.core.scenarios import Scenario
from repro.dnn.graph import Graph
from repro.fleet.queueing import QueuePolicy

__all__ = ["CloudProfile", "RoutingPolicy", "cloud_api_for_scenario",
           "SCENARIO_CLOUD_APIS"]

#: Fig. 15 API category serving each standard scenario when offloaded.
SCENARIO_CLOUD_APIS: dict[str, str] = {
    "Sound R.": "Speech",
    "Typing": "Natural Language/Smart Reply",
    "Segm.": "Vision/custom model",
}

#: API category for scenarios without a dedicated mapping.
DEFAULT_CLOUD_API = "Vision/custom model"


def cloud_api_for_scenario(scenario: Scenario) -> str:
    """Name of the cloud API category that serves a scenario's offloads."""
    name = SCENARIO_CLOUD_APIS.get(scenario.name, DEFAULT_CLOUD_API)
    return api_by_name(name).name  # validate against the Fig. 15 table


@dataclass(frozen=True)
class CloudProfile:
    """Latency and energy characteristics of offloaded execution."""

    #: Server-side model execution + queueing, milliseconds.
    service_ms: float = 45.0
    #: Median round-trip time to the API endpoint, milliseconds.
    rtt_median_ms: float = 60.0
    #: Log-normal sigma of the RTT draw (mobile network jitter).
    rtt_sigma: float = 0.35
    #: Average radio power while a request is in flight, watts.
    radio_power_watts: float = 0.9
    #: Sustained uplink throughput, megabits per second.
    uplink_mbps: float = 8.0
    #: Payload bytes uploaded per input element (quantised/compressed).
    payload_bytes_per_element: float = 1.0

    def __post_init__(self) -> None:
        if min(self.service_ms, self.rtt_median_ms, self.radio_power_watts,
               self.uplink_mbps, self.payload_bytes_per_element) <= 0:
            raise ValueError("cloud profile parameters must be positive")

    def payload_bytes(self, graph: Graph) -> int:
        """Uplink bytes one request of this model ships to the API."""
        return int(graph.input_specs[0].num_elements
                   * self.payload_bytes_per_element)

    def transfer_ms(self, payload_bytes: int) -> float:
        """Uplink transfer time of one request payload."""
        return payload_bytes * 8.0 / (self.uplink_mbps * 1e6) * 1e3

    def draw_rtt_ms(self, rng: np.random.Generator, count: int) -> np.ndarray:
        """Per-request RTT draws (log-normal around the median)."""
        return self.rtt_ms_from_normals(rng.standard_normal(count))

    def rtt_ms_from_normals(self, normals: np.ndarray) -> np.ndarray:
        """RTTs of standard-normal draws (elementwise, so a population can
        draw per user and transform once per block)."""
        return self.rtt_median_ms * np.exp(self.rtt_sigma * normals)

    def latency_ms(self, rtt_ms, payload_bytes: int, service_ms=None):
        """End-to-end latency of offloaded requests (elementwise over RTTs).

        ``service_ms`` overrides the profile's fixed service time — scalar or
        per-request array — which is how the cloud capacity layer injects
        load-dependent service times from a frozen regional load profile
        without the router knowing about regions at all.
        """
        if service_ms is None:
            service_ms = self.service_ms
        return rtt_ms + self.transfer_ms(payload_bytes) + service_ms

    def energy_mj(self, latency_ms):
        """Device-side radio energy of offloaded requests (elementwise)."""
        return self.radio_power_watts * latency_ms


@dataclass(frozen=True)
class RoutingPolicy:
    """When the fleet offloads a request instead of running it on device."""

    #: Battery fraction under which requests are offloaded to save charge.
    battery_saver_threshold: float = 0.2
    cloud: CloudProfile = field(default_factory=CloudProfile)
    #: Device-queue back-pressure: overflow cap and shed-vs-offload action.
    queue: QueuePolicy = field(default_factory=QueuePolicy)

    def __post_init__(self) -> None:
        if not 0.0 <= self.battery_saver_threshold < 1.0:
            raise ValueError("battery_saver_threshold must be in [0, 1)")

    def offloads_for_capability(self, nominal_ms: float,
                                deadline_ms: float) -> bool:
        """Whether the device misses the scenario deadline even when cold."""
        return nominal_ms > deadline_ms

    def offloads_for_battery(self, battery_fraction: float) -> bool:
        """Whether the battery-saver threshold routes this request away."""
        return battery_fraction < self.battery_saver_threshold
