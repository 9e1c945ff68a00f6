"""Thermal throttling model for sustained inference workloads.

Continuous inference heats the SoC until DVFS governors scale frequencies
down; the paper lists thermal throttling among the reasons FLOPs do not
predict latency (Sec. 5.1) and credits the open-deck boards' heat dissipation
for their edge over phones with the same SoC.  The model here is a simple
exponential heat-up towards a steady-state throttle factor.

Two interfaces expose it:

* :class:`ThermalModel` — stateless curves: the throttle factor after a given
  amount of *continuous* sustained load (scalar or vectorised);
* :class:`ThermalState` — a resumable accumulator for workloads that are not
  continuous: inference bursts heat the device up
  (:meth:`~ThermalState.heat_up`), idle gaps between them cool it down
  exponentially (:meth:`~ThermalState.cool_down`), and the current throttle
  factor can be read at any point.  This is the state the fleet simulator
  carries per device across events.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import math

import numpy as np

__all__ = ["ThermalModel", "ThermalState", "throttle_factors"]


def throttle_factors(sustained_seconds, time_constant_s,
                     throttle_floor) -> np.ndarray:
    """Throttle factors of sustained loads, elementwise over all arguments.

    :meth:`ThermalModel.throttle_factor`'s expression in the same operation
    order, with the time constant and floor broadcast too, so devices with
    different thermal models evaluate in one call (the fleet simulator's
    block of users, one row per device) bit-identically to the scalar path.
    """
    sustained = np.asarray(sustained_seconds, dtype=np.float64)
    if sustained.size and float(sustained.min()) < 0:
        raise ValueError("sustained_seconds must be non-negative")
    progress = 1.0 - np.exp(-sustained / time_constant_s)
    return 1.0 - (1.0 - throttle_floor) * progress


@dataclass
class ThermalModel:
    """Tracks how much sustained load slows a device down.

    Parameters
    ----------
    throttle_floor:
        Steady-state performance multiplier after indefinite sustained load
        (1.0 = no throttling).  Phones sit around 0.7-0.85; open-deck boards
        barely throttle.
    time_constant_s:
        Seconds of sustained load after which ~63% of the throttling has
        materialised.
    cooldown_time_constant_s:
        Seconds of idle after which ~63% of the accumulated heat has drained.
        ``None`` (the default) reuses ``time_constant_s``, i.e. symmetric
        heat-up and cool-down.
    """

    throttle_floor: float = 0.8
    time_constant_s: float = 120.0
    cooldown_time_constant_s: Optional[float] = None

    def __post_init__(self) -> None:
        if not 0.0 < self.throttle_floor <= 1.0:
            raise ValueError("throttle_floor must be in (0, 1]")
        if self.time_constant_s <= 0:
            raise ValueError("time_constant_s must be positive")
        if self.cooldown_time_constant_s is not None and self.cooldown_time_constant_s <= 0:
            raise ValueError("cooldown_time_constant_s must be positive when given")

    @classmethod
    def for_device(cls, is_dev_board: bool, tier: str) -> "ThermalModel":
        """Typical thermal behaviour per form factor and tier."""
        if is_dev_board:
            return cls(throttle_floor=0.95, time_constant_s=300.0)
        floors = {"low": 0.70, "mid": 0.78, "high": 0.85}
        return cls(throttle_floor=floors.get(tier, 0.8), time_constant_s=120.0)

    @property
    def cooldown_tau_s(self) -> float:
        """Effective cool-down time constant (defaults to the heat-up one)."""
        return (self.cooldown_time_constant_s
                if self.cooldown_time_constant_s is not None
                else self.time_constant_s)

    def throttle_factor(self, sustained_seconds: float) -> float:
        """Performance multiplier after ``sustained_seconds`` of continuous load."""
        if sustained_seconds < 0:
            raise ValueError("sustained_seconds must be non-negative")
        progress = 1.0 - math.exp(-sustained_seconds / self.time_constant_s)
        return 1.0 - (1.0 - self.throttle_floor) * progress

    def throttle_factors(self, sustained_seconds: np.ndarray) -> np.ndarray:
        """Vectorised :meth:`throttle_factor` over an array of sustained loads.

        Elementwise identical to the scalar path (same expression, same
        operation order); the fleet simulator evaluates whole event vectors
        through this in one call.
        """
        return throttle_factors(sustained_seconds, self.time_constant_s,
                                self.throttle_floor)

    def sustained_latency_ms(self, cold_latency_ms: float, sustained_seconds: float) -> float:
        """Latency of one inference after sustained prior load."""
        return cold_latency_ms / self.throttle_factor(sustained_seconds)

    def state(self, heat_seconds: float = 0.0) -> "ThermalState":
        """A fresh resumable thermal accumulator bound to this model."""
        return ThermalState(model=self, heat_seconds=heat_seconds)


@dataclass
class ThermalState:
    """Resumable heat accumulator: busy time heats, idle time cools.

    ``heat_seconds`` is the *equivalent continuous sustained load*: a device
    that just ran ``h`` seconds of back-to-back inference throttles exactly
    like :meth:`ThermalModel.throttle_factor` at ``h``.  Idle gaps drain it
    exponentially with the model's cool-down time constant, so a long enough
    gap returns the device to (numerically) cold state.  The throttle factor
    read from the state is always clamped to ``[throttle_floor, 1.0]`` by
    construction — heat can grow without bound, the factor cannot fall
    through the floor.
    """

    model: ThermalModel
    heat_seconds: float = 0.0

    def __post_init__(self) -> None:
        if self.heat_seconds < 0:
            raise ValueError("heat_seconds must be non-negative")

    def heat_up(self, busy_seconds: float) -> None:
        """Accumulate ``busy_seconds`` of inference load."""
        if busy_seconds < 0:
            raise ValueError("busy_seconds must be non-negative")
        self.heat_seconds += busy_seconds

    def cool_down(self, idle_seconds: float) -> None:
        """Exponentially drain heat over an idle gap."""
        if idle_seconds < 0:
            raise ValueError("idle_seconds must be non-negative")
        self.heat_seconds *= math.exp(-idle_seconds / self.model.cooldown_tau_s)

    def reset(self) -> None:
        """Return to the cold state (e.g. device rebooted / long shelf gap)."""
        self.heat_seconds = 0.0

    @property
    def throttle_factor(self) -> float:
        """Current performance multiplier given the accumulated heat."""
        return self.model.throttle_factor(self.heat_seconds)

    def latency_ms(self, cold_latency_ms: float) -> float:
        """Latency of one inference issued right now (no state mutation)."""
        return cold_latency_ms / self.throttle_factor
