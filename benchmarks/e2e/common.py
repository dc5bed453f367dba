"""Helpers shared by the engine and gateway workloads."""

from __future__ import annotations

import resource
import statistics
from dataclasses import dataclass, field

from repro.core import arena

#: fewest measured rounds in a run, however slow the host (smoke: 1)
MIN_ROUNDS = 3


def finished(rounds: int, elapsed: float, seconds: float,
             smoke: bool) -> bool:
    """Whether a run that took ``elapsed`` s for ``rounds`` rounds stops:
    once it has its fewest rounds, when one more round would overshoot
    ``seconds`` by more than stopping now falls short of it."""
    if rounds < (1 if smoke else MIN_ROUNDS):
        return False
    return elapsed * (1 + 0.5 / rounds) >= seconds


@dataclass
class Outcome:
    """What one workload subprocess reports back to ``run.py``."""

    workload: str
    seed: int
    attempted: int = 0
    errors: list[str] = field(default_factory=list)
    #: end-to-end metrics (untraced runs only)
    e2e: dict[str, float] = field(default_factory=dict)
    #: per-layer metrics (trace mode only)
    layers: dict[str, float] = field(default_factory=dict)
    #: base counts behind each per-layer ratio, and other context
    bases: dict[str, str] = field(default_factory=dict)
    info: dict = field(default_factory=dict)

    def fail(self, message: str) -> None:
        self.errors.append(message)

    def to_json(self) -> dict:
        return {
            "workload": self.workload, "seed": self.seed,
            "attempted": self.attempted, "failed": len(self.errors),
            "errors": self.errors, "e2e": self.e2e, "layers": self.layers,
            "bases": self.bases, "info": self.info,
        }


def median(values: list[float]) -> float:
    return statistics.median(values) if values else 0.0


def best(samples: list[list[float]]) -> float:
    """Mean over jobs of each job's fastest repeat.

    ``samples[j]`` holds the times of job ``j``'s repeats, each the same
    work.  On a shared 2-CPU VM the speed drifts by up to 60 % within
    seconds (a fixed Python loop's 10 s medians ranged 16-26 ms while its
    minimum in most windows stayed at 15-16.5 ms), so a median over a run
    moves with the host; the fastest repeat of a job moves only with the
    job.
    """
    jobs = [min(s) for s in samples if s]
    return sum(jobs) / len(jobs) if jobs else 0.0


def peak_rss_mb() -> float:
    """This process's peak resident set (Linux reports KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def leftover_segments(pid: int) -> list[str]:
    """Shared-memory segments still named for ``pid`` after cleanup."""
    return arena.live_segments(arena.segment_prefix(pid))


#: per-layer metrics that only the gateway's result rows can give
ROW_METRICS = ("cache.hit_share", "gateway.overhead_share",
               "gateway.shard_skew")

#: per-layer metrics that only the parallel engine's results can give
PARALLEL_METRICS = ("parallel.worker_compute_share",
                    "parallel.pipe_wait_share", "parallel.serial_share",
                    "parallel.state_writes", "parallel.respawns")
