"""Use-case-driven energy scenarios (Table 4, Sec. 5.2.2).

The paper converts per-inference energy into realistic daily-usage costs for
three tasks representative of each modality:

* **Sound recognition** — recognise one hour of audio; how much audio one
  inference covers is derived from the model's input dimensions.
* **Typing (auto-complete)** — one inference per new word over a 275-word
  daily WhatsApp-style workload.
* **Semantic segmentation** — segment a person at 15 FPS for a one-hour video
  call, one frame per inference.

Each scenario multiplies the measured per-inference energy by the number of
inferences the use case requires and converts the result into battery
discharge (mAh) against a reference battery.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterable, Optional, Sequence

from repro.devices.battery import Battery
from repro.devices.device import Device
from repro.dnn.graph import Graph, Modality
from repro.runtime.backends import Backend
from repro.runtime.executor import Executor, UnsupportedModelError

__all__ = ["Scenario", "ScenarioResult", "ScenarioSummary", "STANDARD_SCENARIOS",
           "run_scenario", "summarize"]

#: Battery the paper normalises Table 4 against (a common 4000 mAh pack).
REFERENCE_BATTERY = Battery(capacity_mah=4000, voltage=3.85)

#: Average daily number of words typed, derived from WhatsApp usage statistics.
TYPING_WORDS_PER_DAY = 275

#: Frame rate assumed for the video-call segmentation scenario.
SEGMENTATION_FPS = 15

#: Duration of the audio and video scenarios, in seconds.
SCENARIO_DURATION_S = 3600

#: Seconds of *active* typing the daily word count is spread over — WhatsApp
#: sessions are short bursts, not a continuous hour, so the instantaneous
#: word rate (and hence the fleet arrival rate) derives from this window.
TYPING_ACTIVE_SECONDS = 600


def _typing_inferences_for(graph: Graph) -> int:
    """Daily auto-complete inferences: one per typed word.

    A named function (not a lambda) so :class:`Scenario` values stay
    picklable — campaign runs ship fleet specs to their shard processes.
    """
    return TYPING_WORDS_PER_DAY


def _segmentation_inferences_for(graph: Graph) -> int:
    """Video-call segmentation inferences: one per frame at 15 FPS."""
    return SEGMENTATION_FPS * SCENARIO_DURATION_S


def _audio_inferences_for(graph: Graph) -> int:
    """How many inferences cover one hour of audio for a given model.

    The model's input time dimension (frames of a log-mel spectrogram at the
    common 10 ms hop) determines how much audio a single inference consumes,
    mirroring the paper's manual investigation of input dimensions.
    """
    shape = graph.input_specs[0].shape
    frames = shape[1] if len(shape) >= 2 else 96
    seconds_per_inference = max(0.25, frames * 0.010)
    return max(1, int(round(SCENARIO_DURATION_S / seconds_per_inference)))


@dataclass(frozen=True)
class Scenario:
    """A named usage scenario: which models it applies to and how often they run.

    ``session_seconds`` is the active window the scenario's inference count is
    spread over, which makes the *instantaneous* request rate derivable
    (:meth:`arrival_rate_hz`) — the quantity the fleet simulator draws event
    arrivals from.  ``deadline_ms`` is the per-request latency budget implied
    by the use case (a frame period for video, keystroke cadence for typing);
    routing policies offload to cloud APIs when a device cannot meet it.
    """

    name: str
    task_filter: tuple[str, ...]
    modality: Modality
    inference_count: Callable[[Graph], int]
    description: str
    session_seconds: float = float(SCENARIO_DURATION_S)
    deadline_ms: float = float("inf")

    def applies_to(self, task: str, modality: Modality) -> bool:
        """Whether a model with this task/modality participates in the scenario."""
        return task in self.task_filter and modality == self.modality

    def arrival_rate_hz(self, graph: Graph) -> float:
        """Inference requests per second while the scenario is active.

        Derived from the scenario's inference count over its active window —
        e.g. 15 Hz for the 15 FPS video call, the per-model audio chunk rate
        for sound recognition, the burst word rate for typing.
        """
        return self.inference_count(graph) / self.session_seconds


STANDARD_SCENARIOS: tuple[Scenario, ...] = (
    Scenario(
        name="Sound R.",
        task_filter=("sound recognition",),
        modality=Modality.AUDIO,
        inference_count=_audio_inferences_for,
        description="Recognise 1 hour of ambient audio",
        session_seconds=float(SCENARIO_DURATION_S),
        # One audio chunk must be recognised before the next one is captured.
        deadline_ms=1000.0,
    ),
    Scenario(
        name="Typing",
        task_filter=("auto-complete",),
        modality=Modality.TEXT,
        inference_count=_typing_inferences_for,
        description="Auto-complete over a 275-word daily typing workload",
        session_seconds=float(TYPING_ACTIVE_SECONDS),
        # Suggestions must land within keystroke cadence to be useful.
        deadline_ms=150.0,
    ),
    Scenario(
        name="Segm.",
        task_filter=("semantic segmentation", "hair reconstruction"),
        modality=Modality.IMAGE,
        inference_count=_segmentation_inferences_for,
        description="Segment a person at 15 FPS during a 1-hour video call",
        session_seconds=float(SCENARIO_DURATION_S),
        # A frame period at 15 FPS; slower than this drops call frames.
        deadline_ms=1000.0 / SEGMENTATION_FPS,
    ),
)


@dataclass(frozen=True)
class ScenarioResult:
    """Scenario cost of one model on one device."""

    scenario: str
    device: str
    model_name: str
    inference_count: int
    energy_joules: float
    battery_discharge_mah: float
    battery_fraction: float


@dataclass(frozen=True)
class ScenarioSummary:
    """Table 4 row: average/median/min/max battery discharge for one scenario."""

    scenario: str
    device: str
    model_count: int
    mean_mah: float
    std_mah: float
    median_mah: float
    min_mah: float
    max_mah: float


def run_scenario(scenario: Scenario, device: Device, graphs_with_tasks,
                 *, backend: Backend = Backend.CPU,
                 battery: Battery = REFERENCE_BATTERY) -> list[ScenarioResult]:
    """Evaluate one scenario for every applicable model on one device.

    ``graphs_with_tasks`` is an iterable of ``(graph, task)`` pairs — the task
    label comes from the offline analysis, not from the graph metadata.
    """
    executor = Executor(device)
    results: list[ScenarioResult] = []
    for graph, task in graphs_with_tasks:
        if not scenario.applies_to(task, graph.modality):
            continue
        try:
            run = executor.run(graph, backend, num_inferences=5)
        except UnsupportedModelError:
            continue
        count = scenario.inference_count(graph)
        energy_joules = run.energy_mj / 1e3 * count
        results.append(ScenarioResult(
            scenario=scenario.name,
            device=device.name,
            model_name=graph.name,
            inference_count=count,
            energy_joules=energy_joules,
            battery_discharge_mah=battery.discharge_mah(energy_joules),
            battery_fraction=battery.discharge_fraction(energy_joules),
        ))
    return results


def summarize(results: Sequence[ScenarioResult]) -> Optional[ScenarioSummary]:
    """Collapse per-model scenario results into a Table 4 row."""
    if not results:
        return None
    import numpy as np

    discharges = np.array([r.battery_discharge_mah for r in results])
    return ScenarioSummary(
        scenario=results[0].scenario,
        device=results[0].device,
        model_count=len(results),
        mean_mah=float(np.mean(discharges)),
        std_mah=float(np.std(discharges, ddof=1)) if len(discharges) > 1 else 0.0,
        median_mah=float(np.median(discharges)),
        min_mah=float(np.min(discharges)),
        max_mah=float(np.max(discharges)),
    )
