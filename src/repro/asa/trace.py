"""Accumulation-trace recording and CAM replay.

Design-space exploration (how big a CAM? which eviction policy?) does not
need the full Infomap run each time: the *key stream* each vertex feeds to
``accumulate`` is independent of the accumulator.  This module records
that stream once and replays it against any CAM configuration in
milliseconds — the methodology hardware papers use for cache studies.

Usage::

    trace = record_trace(graph)                    # one sequential run
    stats = replay_trace(trace, capacity=512)      # any number of configs
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.accum.plain import PlainDictAccumulator
from repro.asa.cam import CAM
from repro.core.flow import FlowNetwork
from repro.core.infomap import _run_levels
from repro.graph.csr import CSRGraph

__all__ = ["AccumulationTrace", "TraceRecordingAccumulator", "record_trace",
           "replay_trace", "ReplayStats"]


@dataclass
class AccumulationTrace:
    """The key streams of every begin()..items() phase of a run.

    ``phases[i]`` is the sequence of keys accumulated in phase ``i``
    (values are irrelevant to CAM occupancy studies).
    """

    phases: list[np.ndarray] = field(default_factory=list)

    @property
    def num_phases(self) -> int:
        return len(self.phases)

    @property
    def total_ops(self) -> int:
        return int(sum(len(p) for p in self.phases))

    def distinct_keys_per_phase(self) -> np.ndarray:
        return np.array([len(np.unique(p)) for p in self.phases])


class TraceRecordingAccumulator(PlainDictAccumulator):
    """A plain accumulator that also logs the key stream per phase."""

    name = "trace"

    def __init__(self) -> None:
        super().__init__()
        self.trace = AccumulationTrace()
        self._current: list[int] = []

    def begin(self, expected_keys: int = 0) -> None:
        super().begin(expected_keys)
        self._current = []

    def accumulate(self, key: int, value: float) -> None:
        super().accumulate(key, value)
        self._current.append(key)

    def items(self) -> list[tuple[int, float]]:
        self.trace.phases.append(np.asarray(self._current, dtype=np.int64))
        self._current = []
        return super().items()


def record_trace(
    graph: CSRGraph,
    *,
    tau: float = 0.15,
    max_levels: int = 20,
    max_passes_per_level: int = 10,
) -> AccumulationTrace:
    """Run the sequential engine's level loop once with a recording
    accumulator; return the trace."""
    recorder = TraceRecordingAccumulator()
    _run_levels(
        FlowNetwork.from_graph(graph, tau=tau), recorder,
        max_levels=max_levels, max_passes_per_level=max_passes_per_level,
    )
    return recorder.trace


@dataclass
class ReplayStats:
    """CAM behaviour over a full trace."""

    capacity: int
    policy: str
    accumulates: int = 0
    hits: int = 0
    evictions: int = 0
    overflowed_phases: int = 0
    gathered_entries: int = 0

    @property
    def hit_rate(self) -> float:
        return self.hits / self.accumulates if self.accumulates else 0.0

    @property
    def eviction_rate(self) -> float:
        return self.evictions / self.accumulates if self.accumulates else 0.0


def replay_trace(
    trace: AccumulationTrace, capacity: int, policy: str = "lru"
) -> ReplayStats:
    """Replay a recorded trace against a CAM configuration."""
    cam = CAM(capacity, policy=policy)
    out = ReplayStats(capacity=capacity, policy=policy)
    for phase in trace.phases:
        for key in phase.tolist():
            cam.accumulate(int(key), 1.0)
        non, over = cam.gather()
        out.gathered_entries += len(non) + len(over)
        if over:
            out.overflowed_phases += 1
    s = cam.stats
    out.accumulates = s.accumulates
    out.hits = s.hits
    out.evictions = s.evictions
    return out
