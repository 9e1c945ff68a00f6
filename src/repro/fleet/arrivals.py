"""Arrival processes: when a virtual user's app issues inference requests.

Each usage scenario implies a characteristic traffic shape over the day —
the paper's Table 4 use cases turned into request streams:

* **Sound R.** — short ambient-recognition sessions a few times a day, each
  emitting audio-chunk inferences at the model-derived chunk rate;
* **Typing** — many short bursts (messaging sessions) at the word rate the
  daily 275-word workload implies;
* **Segm.** — one or two video calls at 15 FPS for minutes at a time: few
  sessions, by far the most events (this is the sustained-load regime where
  thermal throttling materialises).

Sessions arrive as a Poisson process over the horizon, session lengths are
exponential, and within a session events tick at the scenario's
:meth:`~repro.core.scenarios.Scenario.arrival_rate_hz`.  All draws come from
the caller's RNG in a fixed order, so one user's arrivals depend only on
their derived seed.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from repro.core.scenarios import Scenario
from repro.dnn.graph import Graph

__all__ = ["SessionShape", "SESSION_SHAPES", "session_shape_for",
           "DiurnalProfile", "generate_arrivals", "session_ticks"]

#: Floor on generated session durations, seconds (a one-glance session).
MIN_SESSION_S = 2.0


@dataclass(frozen=True)
class SessionShape:
    """How often a scenario's sessions start and how long they last."""

    sessions_per_day: float
    mean_session_s: float

    def __post_init__(self) -> None:
        if self.sessions_per_day <= 0:
            raise ValueError("sessions_per_day must be positive")
        if self.mean_session_s < 0:
            raise ValueError("mean_session_s must be non-negative")


#: Daily session structure per standard scenario name.
SESSION_SHAPES: dict[str, SessionShape] = {
    # A few ambient-audio recognitions per day, a minute or two each.
    "Sound R.": SessionShape(sessions_per_day=6.0, mean_session_s=90.0),
    # Messaging happens in many short bursts.
    "Typing": SessionShape(sessions_per_day=14.0, mean_session_s=45.0),
    # One or two video calls, several minutes each.
    "Segm.": SessionShape(sessions_per_day=1.6, mean_session_s=420.0),
}

#: Shape for scenarios without a dedicated entry.
DEFAULT_SHAPE = SessionShape(sessions_per_day=4.0, mean_session_s=120.0)


def session_shape_for(scenario: Scenario) -> SessionShape:
    """Session structure of a scenario (falls back to a generic shape)."""
    return SESSION_SHAPES.get(scenario.name, DEFAULT_SHAPE)


@dataclass(frozen=True)
class DiurnalProfile:
    """Night/day modulation of when sessions start.

    ``hourly_weights`` gives the relative session-start intensity of each
    hour of the (virtual) day; session start times are drawn by pushing the
    user's uniform draws through the inverse CDF of the piecewise-constant
    intensity, tiled across the horizon.  This consumes exactly one RNG draw
    per session — the same as the uniform placement it replaces — so enabling
    or disabling the profile never shifts any other draw in a user's plan.
    The aggregate effect is the fleet-level day/night swing the cloud
    capacity model sees in its time-binned load profiles.
    """

    hourly_weights: tuple[float, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "hourly_weights", tuple(self.hourly_weights))
        if len(self.hourly_weights) != 24:
            raise ValueError("hourly_weights must have 24 entries")
        if min(self.hourly_weights) <= 0:
            raise ValueError("hourly_weights must be strictly positive")

    @classmethod
    def default(cls) -> "DiurnalProfile":
        """A typical phone-usage day: quiet night, daytime plateau, evening peak."""
        return cls(hourly_weights=(
            0.25, 0.15, 0.10, 0.10, 0.15, 0.30,   # 00-05: asleep
            0.60, 1.00, 1.20, 1.10, 1.00, 1.10,   # 06-11: morning ramp
            1.20, 1.10, 1.00, 1.00, 1.10, 1.30,   # 12-17: daytime plateau
            1.60, 1.80, 1.70, 1.40, 0.90, 0.50,   # 18-23: evening peak
        ))

    def session_start_times(self, uniform: np.ndarray,
                            horizon_s: float) -> np.ndarray:
        """Map uniform [0, 1) draws to start times over ``[0, horizon_s)``.

        The inverse CDF of the hourly intensity, tiled day by day and
        truncated at the horizon; a flat profile reduces to
        ``uniform * horizon_s`` exactly.
        """
        if horizon_s <= 0:
            raise ValueError("horizon_s must be positive")
        hours = int(np.ceil(horizon_s / 3600.0))
        weights = np.asarray(
            [self.hourly_weights[h % 24] for h in range(hours)],
            dtype=np.float64)
        edges = np.minimum(np.arange(1, hours + 1) * 3600.0, horizon_s)
        widths = np.diff(np.concatenate(([0.0], edges)))
        mass = weights * widths
        cum = np.cumsum(mass)
        total = cum[-1]
        targets = np.asarray(uniform, dtype=np.float64) * total
        idx = np.searchsorted(cum, targets, side="right")
        idx = np.minimum(idx, hours - 1)
        below = np.where(idx > 0, cum[idx - 1], 0.0)
        starts = idx * 3600.0 + (targets - below) / weights[idx]
        return np.minimum(starts, np.nextafter(horizon_s, 0.0))


def session_ticks(starts: np.ndarray, durations: np.ndarray,
                  rate_hz: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Request times of a batch of sessions, and the session of each tick.

    Session ``k`` starts at ``starts[k]`` and ticks every ``1 / rate_hz[k]``
    seconds, ``max(1, floor(durations[k] * rate_hz[k]))`` times, with the
    phase anchored at the start.  Ticks come out session by session in
    input order (unmasked, unsorted): one ``np.repeat`` expansion evaluates
    ``start + period * j`` for every tick ``j`` at once, the same IEEE
    operations a per-session ``arange`` would run.
    """
    counts = np.maximum(1, np.floor(durations * rate_hz).astype(np.int64))
    session = np.repeat(np.arange(counts.size), counts)
    first = np.cumsum(counts) - counts
    tick = (np.arange(session.size) - first[session]).astype(np.float64)
    period = 1.0 / rate_hz
    return starts[session] + period[session] * tick, session


def generate_arrivals(scenario: Scenario, graph: Graph,
                      rng: np.random.Generator, horizon_s: float,
                      diurnal: Optional[DiurnalProfile] = None) -> np.ndarray:
    """Sorted request arrival times of one user over ``[0, horizon_s)``.

    Draws, in fixed RNG order: the session count (Poisson on the horizon's
    share of the daily session rate), session start times (uniform, or
    diurnally modulated through ``diurnal``'s inverse CDF — either way one
    draw per session), and session durations (exponential, floored).  Within
    a session requests tick at the scenario-derived rate with the phase
    anchored at the session start, mirroring a frame clock / keystroke
    cadence rather than per-event jitter.
    """
    if horizon_s <= 0:
        raise ValueError("horizon_s must be positive")
    shape = session_shape_for(scenario)
    rate_hz = scenario.arrival_rate_hz(graph)
    if rate_hz <= 0:
        return np.empty(0, dtype=np.float64)

    expected_sessions = shape.sessions_per_day * horizon_s / 86400.0
    num_sessions = int(rng.poisson(expected_sessions))
    if diurnal is None:
        starts = rng.uniform(0.0, horizon_s, num_sessions)
    else:
        starts = diurnal.session_start_times(rng.random(num_sessions),
                                             horizon_s)
    durations = np.maximum(
        rng.exponential(shape.mean_session_s, num_sessions), MIN_SESSION_S)
    if num_sessions == 0:
        return np.empty(0, dtype=np.float64)

    times, _ = session_ticks(starts, durations,
                             np.full(num_sessions, float(rate_hz)))
    times = times[times < horizon_s]
    times.sort(kind="stable")
    return times
