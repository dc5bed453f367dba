"""Per-run convergence telemetry.

Every engine records one :class:`PassTelemetry` per FindBestCommunity
pass — the pass's one record: worklist, proposed / held-back / applied
moves, module count, codelength, wall and engine seconds — plus one
:class:`LevelTelemetry` per coarsening level, bundled into a
:class:`ConvergenceTelemetry` attached to the engine's result object
(``result.telemetry.passes``).  This is the *measured Python runtime*
counterpart to the simulated hardware counters in :mod:`repro.sim`: it
answers "why did this run converge (or not), and where did the wall
time go".

:func:`publish_run_metrics` pushes the standard metric series
(``infomap.passes``, ``codelength.bits`` per level, per-kernel wall-time
histograms, ...) into the active :mod:`repro.obs.metrics` registry when
metrics are enabled.
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Iterator

from repro.obs import metrics as obs_metrics

__all__ = [
    "PassTelemetry",
    "LevelTelemetry",
    "ConvergenceTelemetry",
    "TelemetryRecorder",
    "publish_run_metrics",
]


@dataclass(frozen=True)
class PassTelemetry:
    """One FindBestCommunity pass, the one record every engine keeps.

    ``proposed - held_back - applied`` is what the BSP commit's backoff
    halving dropped; the sequential engine applies each move as it finds
    it, so there ``proposed == applied`` and ``held_back == 0``.
    """

    level: int
    pass_in_level: int
    vertices: int  #: (super)nodes at this level
    active_vertices: int  #: vertices swept this pass (worklist size)
    proposed: int  #: improving moves the sweep found
    #: proposals :func:`repro.core.bsp.hold_back` kept out of the commit
    held_back: int
    applied: int  #: moves that landed
    num_modules: int  #: modules at the *current* level after the pass
    codelength: float  #: flat (level-0 vertex) codelength in bits
    wall_seconds: float  #: measured Python wall time of the pass
    #: the engine's pass time: simulated FindBest seconds (sequential),
    #: simulated parallel seconds (multicore), else wall time
    seconds: float

    @property
    def rounds(self) -> int:
        """Propose rounds (= barriers): 1, or 0 when the worklist was
        empty."""
        return 1 if self.active_vertices else 0


@dataclass(frozen=True)
class LevelTelemetry:
    """One coarsening level of the multilevel schedule."""

    level: int
    vertices: int  #: (super)nodes entering the level
    passes: int
    modules_after: int
    codelength: float
    wall_seconds: float


@dataclass
class ConvergenceTelemetry:
    """Convergence + wall-time record of one Infomap run."""

    #: "sequential" | "vectorized" | "multicore" | "parallel" | "distributed"
    engine: str
    backend: str | None = None
    num_cores: int = 1
    passes: list[PassTelemetry] = field(default_factory=list)
    levels: list[LevelTelemetry] = field(default_factory=list)
    #: kernel name -> list of measured wall times (one per invocation)
    kernel_wall_seconds: dict[str, list[float]] = field(default_factory=dict)
    converged: bool = False
    wall_seconds: float = 0.0
    run_id: str | None = None

    # ------------------------------------------------------------- queries
    @property
    def num_passes(self) -> int:
        return len(self.passes)

    @property
    def total_moves(self) -> int:
        return sum(p.applied for p in self.passes)

    @property
    def final_codelength(self) -> float:
        return self.passes[-1].codelength if self.passes else float("nan")

    @property
    def final_num_modules(self) -> int:
        return self.passes[-1].num_modules if self.passes else 0

    def codelength_trajectory(self) -> list[float]:
        """Per-pass flat codelengths, in execution order."""
        return [p.codelength for p in self.passes]

    def kernel_totals(self) -> dict[str, float]:
        """Total measured wall seconds per kernel."""
        return {k: sum(v) for k, v in self.kernel_wall_seconds.items()}

    def to_dict(self) -> dict:
        from repro.obs.export import jsonable

        return jsonable(self)

    def summary(self) -> str:
        return (
            f"ConvergenceTelemetry({self.engine}: {self.num_passes} passes, "
            f"{len(self.levels)} levels, {self.total_moves} moves, "
            f"L={self.final_codelength:.4f} bits, "
            f"{self.wall_seconds * 1e3:.1f} ms wall, "
            f"converged={self.converged})"
        )


class TelemetryRecorder:
    """Incremental builder the engines drive while running."""

    def __init__(self, engine: str, backend: str | None = None,
                 num_cores: int = 1, run_id: str | None = None):
        self._tele = ConvergenceTelemetry(
            engine=engine, backend=backend, num_cores=num_cores, run_id=run_id
        )
        self._t0 = time.perf_counter()
        self._level_start: float | None = None
        self._level_no = 0
        self._level_vertices = 0
        self._level_passes = 0

    # -------------------------------------------------------------- kernels
    @contextmanager
    def kernel(self, name: str) -> Iterator[None]:
        """Measure one kernel invocation's wall time."""
        t0 = time.perf_counter()
        try:
            yield
        finally:
            self.record_kernel(name, time.perf_counter() - t0)

    def record_kernel(self, name: str, seconds: float) -> None:
        self._tele.kernel_wall_seconds.setdefault(name, []).append(
            float(seconds)
        )

    # --------------------------------------------------------------- passes
    def begin_level(self, level: int, vertices: int) -> None:
        self._level_no = level
        self._level_vertices = vertices
        self._level_passes = 0
        self._level_start = time.perf_counter()

    def record_pass(self, record: PassTelemetry) -> None:
        self._level_passes += 1
        self._tele.passes.append(record)

    def end_level(self, modules_after: int, codelength: float) -> None:
        start = self._level_start if self._level_start is not None else self._t0
        self._tele.levels.append(
            LevelTelemetry(
                level=self._level_no,
                vertices=self._level_vertices,
                passes=self._level_passes,
                modules_after=modules_after,
                codelength=codelength,
                wall_seconds=time.perf_counter() - start,
            )
        )
        self._level_start = None

    # ---------------------------------------------------------------- final
    def finish(self, converged: bool) -> ConvergenceTelemetry:
        self._tele.converged = converged
        self._tele.wall_seconds = time.perf_counter() - self._t0
        return self._tele


def publish_run_metrics(tele: ConvergenceTelemetry, *,
                        overflow_evictions: int = 0,
                        rehashes: int = 0) -> None:
    """Push one run's telemetry into the active metrics registry.

    No-op when metrics are disabled, so engines can call this
    unconditionally.  Series published (see ``docs/observability.md``):

    * ``infomap.passes``, ``infomap.levels``, ``infomap.moves`` counters;
    * ``codelength.bits{engine,level}`` gauge per level (and a
      ``level="final"`` series for the run's final flat codelength);
    * ``findbest.moves_per_pass{engine}`` histogram;
    * ``kernel.wall_seconds{engine,kernel}`` histograms from the measured
      per-invocation kernel wall times;
    * ``accum.overflow_evictions`` / ``accum.rehashes`` counters from the
      accumulator backends' rare-event tallies.
    """
    if not obs_metrics.is_enabled():
        return
    reg = obs_metrics.get_registry()
    eng = tele.engine
    reg.counter("infomap.runs", engine=eng).inc()
    reg.counter("infomap.passes", engine=eng).inc(tele.num_passes)
    reg.counter("infomap.levels", engine=eng).inc(len(tele.levels))
    reg.counter("infomap.moves", engine=eng).inc(tele.total_moves)
    for lvl in tele.levels:
        reg.gauge("codelength.bits", engine=eng, level=lvl.level).set(
            lvl.codelength
        )
    reg.gauge("codelength.bits", engine=eng, level="final").set(
        tele.final_codelength
    )
    moves_hist = reg.histogram("findbest.moves_per_pass", engine=eng)
    for p in tele.passes:
        moves_hist.observe(p.applied)
    for kernel, samples in tele.kernel_wall_seconds.items():
        h = reg.histogram("kernel.wall_seconds", engine=eng, kernel=kernel)
        for s in samples:
            h.observe(s)
    if overflow_evictions:
        reg.counter("accum.overflow_evictions", engine=eng).inc(
            overflow_evictions
        )
    if rehashes:
        reg.counter("accum.rehashes", engine=eng).inc(rehashes)
    reg.gauge("run.wall_seconds", engine=eng).set(tele.wall_seconds)
