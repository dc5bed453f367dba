"""Sequential instrumented Infomap engine.

Runs the full multilevel schedule on one simulated core:

1. **PageRank** — build the level-0 flow network;
2. repeat per level:
   a. **FindBestCommunity** passes until no vertex moves (or the pass cap);
   b. **UpdateMembers** — fold the level assignment into the per-vertex map;
   c. **Convert2SuperNode** — coarsen and continue on the supernode graph;
3. stop when a level produces no merges.

Steps 2–3 are one private loop, which :mod:`repro.core.hierarchy` and
:func:`repro.asa.trace.record_trace` run too.  All hardware events land in a :class:`~repro.sim.counters.KernelStats`,
from which :class:`InfomapResult` derives the per-kernel timing breakdown
(Fig 2), architectural metrics (Fig 8), and per-iteration runtimes
(Tables III/IV).
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from repro.accum.base import Accumulator
from repro.accum.factory import make_accumulator
from repro.core.findbest import find_best_pass
from repro.core.flow import FlowNetwork
from repro.core.mapequation import MapEquation
from repro.core.partition import Partition
from repro.core.supernode import convert_to_supernodes
from repro.core.update import update_members
from repro.graph.csr import CSRGraph
from repro.obs.logging import get_logger
from repro.obs.spans import trace_span
from repro.obs.telemetry import (
    ConvergenceTelemetry,
    TelemetryRecorder,
    publish_run_metrics,
)
from repro.sim.branch import BranchSite
from repro.sim.context import HardwareContext
from repro.sim.costmodel import CycleBreakdown, CycleModel
from repro.sim.counters import Counters, KernelStats
from repro.sim.machine import MachineConfig, asa_machine, baseline_machine
from repro.util.rng import make_rng

log = get_logger("core.infomap")

__all__ = [
    "ENGINES",
    "BSP_ENGINES",
    "ENGINE_OPTIONS",
    "run_infomap",
    "InfomapResult",
    "IterationRecord",
]

#: HyPC-Map runs its PageRank kernel by power iteration regardless of
#: directedness (Section II-C).  For undirected networks our flow model is
#: exact (no iteration needed functionally), but the kernel's hardware cost
#: is charged as if the power method ran its typical iteration count, so
#: the Fig 2a kernel breakdown keeps the right proportions.
UNDIRECTED_PAGERANK_COST_ITERS = 30


@dataclass(frozen=True)
class IterationRecord:
    """One FindBestCommunity pass: what Tables III/IV time per iteration."""

    iteration: int
    level: int
    pass_in_level: int
    nodes: int
    moves: int
    codelength: float
    seconds: float


@dataclass
class InfomapResult:
    """Outcome of one instrumented Infomap run."""

    modules: np.ndarray
    num_modules: int
    codelength: float
    one_level_codelength: float
    levels: int
    iterations: list[IterationRecord]
    stats: KernelStats
    machine: MachineConfig
    backend: str
    #: vertices whose ASA accumulation overflowed the CAM (0 for softhash)
    overflowed_vertices: int = 0
    pagerank_iterations: int = 0
    #: measured-wall-time convergence record (see repro.obs.telemetry)
    telemetry: ConvergenceTelemetry | None = None

    # ------------------------------------------------------------------
    def cycle_model(self) -> CycleModel:
        return CycleModel(self.machine)

    def breakdown(self, counters: Counters) -> CycleBreakdown:
        return self.cycle_model().cycles(counters)

    def kernel_seconds(self) -> dict[str, float]:
        """Per-kernel simulated seconds (the Fig 2a bars)."""
        cm = self.cycle_model()
        return {
            name: cm.cycles(c).seconds for name, c in self.stats.components().items()
        }

    @property
    def total_seconds(self) -> float:
        return self.breakdown(self.stats.total).seconds

    @property
    def findbest_seconds(self) -> float:
        return self.breakdown(self.stats.findbest).seconds

    @property
    def hash_seconds(self) -> float:
        """Time in hash operations incl. overflow handling (Table V)."""
        return self.breakdown(self.stats.findbest_hash_total).seconds

    @property
    def overflow_seconds(self) -> float:
        return self.breakdown(self.stats.findbest_overflow).seconds

    @property
    def effective_codelength_bits(self) -> float:
        return self.codelength

    def summary(self) -> str:
        return (
            f"InfomapResult({self.backend}: {self.num_modules} modules, "
            f"L={self.codelength:.4f} bits, {self.levels} levels, "
            f"{len(self.iterations)} passes, {self.total_seconds:.3f} sim-s)"
        )


#: the engines :func:`run_infomap` runs.  ``sequential`` is the
#: instrumented one-core engine; the others run the shared BSP schedule
#: (:mod:`repro.core.bsp`) and are what job specs and warm refreshes take
ENGINES = ("sequential", "vectorized", "multicore", "parallel")
BSP_ENGINES = ENGINES[1:]

#: :func:`run_infomap`'s engine-specific options -> the engines that take
#: them (every engine takes ``tau``, ``max_levels`` and ``shuffle_seed``);
#: an option given a value the chosen engine does not take is an error
ENGINE_OPTIONS = {
    "backend": ("sequential", "multicore"),
    "machine": ("sequential", "multicore"),
    "max_passes_per_level": ENGINES,
    "worklist": ("sequential",),
    "accumulator_kwargs": ("sequential",),
    "workers": ("multicore", "parallel"),
    "fault_plan": ("parallel",),
    "worker_timeout": ("parallel",),
    "pool": ("parallel",),
    "deadline": ("parallel",),
    "init_module": BSP_ENGINES,
    "init_active": BSP_ENGINES,
}


def run_infomap(
    graph: CSRGraph,
    backend: str | None = None,
    machine: MachineConfig | None = None,
    tau: float = 0.15,
    max_levels: int = 20,
    max_passes_per_level: int | None = None,
    shuffle_seed: int | None = None,
    worklist: bool | None = None,
    accumulator_kwargs: dict | None = None,
    engine: str = "sequential",
    workers: int | None = None,
    fault_plan=None,
    worker_timeout: float | None = None,
    pool=None,
    deadline: float | None = None,
    init_module: np.ndarray | None = None,
    init_active: np.ndarray | None = None,
):
    """Run multilevel Infomap on ``graph`` — the single engine entry point.

    Every engine-specific option defaults to ``None``, meaning the chosen
    engine's own default.  A value given for an option the engine does
    not take (:data:`ENGINE_OPTIONS`) raises ``ValueError``; every other
    value reaches the engine unchanged.

    Parameters
    ----------
    engine:
        ``"sequential"`` (default) runs the instrumented one-core engine
        with full hardware accounting and returns an
        :class:`InfomapResult`.  ``"vectorized"`` runs the batched numpy
        fast path (:func:`repro.core.vectorized.run_infomap_vectorized`:
        the ``multicore``/``parallel`` barrier-synchronous schedule on
        one in-process shard) and returns a
        :class:`~repro.core.vectorized.VectorizedResult` — no hardware
        accounting, but 1–2 orders of magnitude faster wall clock,
        which is what the CLI and harness want on large graphs.
        ``"multicore"`` runs the HyPC-Map-style engine on ``workers``
        *simulated* cores with per-core hardware accounting
        (:func:`repro.core.multicore.run_infomap_multicore`, a
        :class:`~repro.core.multicore.MulticoreResult`).  ``"parallel"``
        runs the same barrier-synchronous schedule on ``workers`` *real*
        worker processes over shared memory
        (:func:`repro.core.parallel.run_infomap_parallel`, a
        :class:`~repro.core.parallel.ParallelResult`) — bit-identical
        partitions to ``multicore`` at equal worker count and seed.
        All engines minimize the same map equation; partitions can
        differ slightly across *schedules* (sequential vs batched).
    workers:
        Core/worker count for the ``multicore`` and ``parallel`` engines
        (default 2).  The single-rank engines accept only ``1``.
    max_passes_per_level:
        FindBestCommunity pass cap per level: 10 by default, 30 on
        ``vectorized``.
    fault_plan, worker_timeout:
        ``parallel`` engine only: a
        :class:`repro.core.faults.FaultPlan` (or its string spelling)
        injecting worker failures, and the supervisor's reply deadline
        in seconds.  See :func:`repro.core.parallel.run_infomap_parallel`.
    pool, deadline:
        ``parallel`` engine only, the serving
        hooks: a warm worker pool to run on instead of forking a fresh
        one (borrowed, never closed; see
        :func:`repro.core.parallel.run_infomap_parallel`), and a
        wall-clock budget in seconds after which the run is cancelled
        with :class:`repro.core.parallel.DeadlineExceeded`.  The job
        service (:mod:`repro.service`) drives runs through these.
    init_module, init_active:
        BSP engines only: the warm-start assignment and level 0's
        first-pass restriction (see
        :func:`repro.core.bsp.run_bsp_infomap`) — how
        :func:`repro.core.dynamic.warm_refresh` runs.
    backend:
        ``"plain"`` (uninstrumented dict), ``"softhash"`` (the paper's
        Baseline), ``"robinhood"`` or ``"asa"``.  Instrumented engines
        only: ``sequential`` (default ``"plain"``) and ``multicore``
        (default ``"softhash"``); the batched engines perform the
        paper's hash accumulation as whole-sweep numpy segment sums
        instead of per-vertex :class:`~repro.accum.base.Accumulator`
        calls.
    machine:
        Instrumented engines only: the machine configuration; defaults
        to the Table II Baseline machine (ASA-augmented when
        ``backend == "asa"``).
    shuffle_seed:
        When given, vertices are visited in a seeded random order per pass
        instead of natural order.  For the batch-synchronous engines
        (``vectorized``, ``multicore``, ``parallel``) this seeds the
        conflict-backoff RNG instead (default 0).
    worklist, accumulator_kwargs:
        ``sequential`` only.  ``worklist`` (default on) is HyPC-Map's
        active-set optimization: after the first pass, only vertices
        adjacent to a move are revisited, so successive iterations get
        progressively cheaper (the decaying per-iteration runtimes of
        Tables III/IV); ``False`` sweeps every vertex every pass.
        ``accumulator_kwargs`` configure the backend's accumulator.

    Returns
    -------
    InfomapResult | VectorizedResult | MulticoreResult | ParallelResult
        Per the ``engine`` choice; all expose ``modules``,
        ``num_modules``, ``codelength``, ``levels`` and ``telemetry``.
    """
    if engine not in ENGINES:
        raise ValueError(f"unknown engine {engine!r}: choose from {ENGINES}")
    if workers == 1 and engine not in ENGINE_OPTIONS["workers"]:
        workers = None  # a single-rank engine runs one rank
    options = {
        "backend": backend, "machine": machine,
        "max_passes_per_level": max_passes_per_level,
        "worklist": worklist, "accumulator_kwargs": accumulator_kwargs,
        "workers": workers, "fault_plan": fault_plan,
        "worker_timeout": worker_timeout, "pool": pool,
        "deadline": deadline, "init_module": init_module,
        "init_active": init_active,
    }
    given = {k: v for k, v in options.items() if v is not None}
    for name in given:
        if engine not in ENGINE_OPTIONS[name]:
            raise ValueError(
                f"{name}= does not apply to engine {engine!r} (only to "
                f"{', '.join(ENGINE_OPTIONS[name])})"
            )
    if engine == "sequential":
        backend = given.pop("backend", "plain")
        with trace_span("infomap.run", engine="sequential", backend=backend):
            return _run_infomap(
                graph, backend, tau, max_levels, shuffle_seed, **given
            )
    seed = shuffle_seed if shuffle_seed is not None else 0
    if engine == "vectorized":
        from repro.core.vectorized import run_infomap_vectorized

        return run_infomap_vectorized(
            graph, tau=tau, max_levels=max_levels, seed=seed, **given
        )
    if engine == "multicore":
        from repro.core.multicore import run_infomap_multicore

        if "workers" in given:
            given["num_cores"] = given.pop("workers")
        return run_infomap_multicore(
            graph, tau=tau, max_levels=max_levels, seed=seed, **given
        )
    from repro.core.parallel import run_infomap_parallel

    return run_infomap_parallel(
        graph, tau=tau, max_levels=max_levels, seed=seed, **given
    )


def _run_infomap(
    graph: CSRGraph,
    backend: str,
    tau: float,
    max_levels: int,
    shuffle_seed: int | None,
    machine: MachineConfig | None = None,
    max_passes_per_level: int = 10,
    worklist: bool = True,
    accumulator_kwargs: dict | None = None,
) -> InfomapResult:
    if machine is None:
        machine = asa_machine() if backend == "asa" else baseline_machine()
    ctx = HardwareContext(machine)

    recorder = TelemetryRecorder("sequential", backend=backend)
    stats = KernelStats()
    with trace_span("pagerank", vertices=graph.num_vertices), \
            recorder.kernel("pagerank"):
        net = FlowNetwork.from_graph(graph, tau=tau)
        _charge_pagerank(ctx, stats, net)

    accumulator = make_accumulator(
        backend,
        ctx,
        stats.findbest_hash,
        stats.findbest_overflow,
        **(accumulator_kwargs or {}),
    )
    run = _run_levels(
        net, accumulator, ctx, stats, recorder, max_levels=max_levels,
        max_passes_per_level=max_passes_per_level,
        shuffle_seed=shuffle_seed, worklist=worklist,
    )

    telemetry = recorder.finish(run.converged)
    publish_run_metrics(
        telemetry,
        overflow_evictions=getattr(accumulator, "total_evictions", 0),
        rehashes=getattr(accumulator, "total_rehashes", 0),
    )
    log.debug("run done: %s", telemetry.summary())

    return InfomapResult(
        modules=run.modules,
        num_modules=run.num_modules,
        codelength=run.codelength,
        one_level_codelength=run.one_level_codelength,
        levels=run.levels,
        iterations=run.iterations,
        stats=stats,
        machine=machine,
        backend=backend,
        overflowed_vertices=getattr(accumulator, "overflowed_vertices", 0),
        pagerank_iterations=net.pagerank_iterations,
        telemetry=telemetry,
    )


class _Levels(NamedTuple):
    """What :func:`_run_levels` found: the flat partition and its passes."""

    modules: np.ndarray
    num_modules: int
    codelength: float
    one_level_codelength: float
    levels: int
    iterations: list[IterationRecord]
    converged: bool


def _run_levels(
    net: FlowNetwork,
    accumulator: Accumulator,
    ctx: HardwareContext | None = None,
    stats: KernelStats | None = None,
    recorder: TelemetryRecorder | None = None,
    max_levels: int = 20,
    max_passes_per_level: int = 10,
    shuffle_seed: int | None = None,
    worklist: bool = True,
) -> _Levels:
    """The sequential engine's multilevel loop (steps 2–3 above) over a
    flow network, sweeping through ``accumulator``.

    ``ctx``, ``stats`` and ``recorder`` default to throwaway ones, for
    callers that want only the partition (:mod:`repro.core.hierarchy`)
    or the accumulator's key stream (:mod:`repro.asa.trace`).
    """
    if max_levels < 1:
        raise ValueError(f"max_levels must be >= 1, got {max_levels}")
    ctx = ctx or HardwareContext(baseline_machine())
    stats = stats or KernelStats()
    recorder = recorder or TelemetryRecorder("sequential",
                                             backend=accumulator.name)
    cm = CycleModel(ctx.machine)
    mapping = np.arange(net.num_vertices, dtype=np.int64)
    rng = make_rng(shuffle_seed) if shuffle_seed is not None else None
    iterations: list[IterationRecord] = []
    one_level = MapEquation.one_level_codelength(net.node_flow)
    # Σ plogp(p_α) over original vertices: converts supernode-level
    # codelengths back to true flat-partition codelengths
    node_flow_log0 = -one_level

    converged = False
    for level in range(max_levels):
        partition = Partition(net)
        recorder.begin_level(level, net.num_vertices)
        active: np.ndarray | None = None  # None = all vertices (first pass)
        for pass_idx in range(max_passes_per_level):
            order = active
            if order is None and rng is not None:
                order = rng.permutation(net.num_vertices).astype(np.int64)
            elif order is not None and rng is not None:
                order = rng.permutation(order)
            before = cm.cycles(stats.findbest).seconds
            wall0 = time.perf_counter()
            with trace_span("findbest", level=level, pass_=pass_idx):
                moves, moved = find_best_pass(
                    partition, accumulator, ctx, stats, order
                )
            wall = time.perf_counter() - wall0
            after = cm.cycles(stats.findbest).seconds
            codelength = partition.flat_codelength(node_flow_log0)
            nodes = net.num_vertices if order is None else len(order)
            recorder.record_kernel("findbest", wall)
            recorder.record_pass(
                level=level,
                pass_in_level=pass_idx,
                active_vertices=nodes,
                moves=moves,
                num_modules=partition.num_modules,
                codelength=codelength,
                wall_seconds=wall,
            )
            iterations.append(
                IterationRecord(
                    iteration=len(iterations) + 1,
                    level=level,
                    pass_in_level=pass_idx,
                    nodes=nodes,
                    moves=moves,
                    codelength=codelength,
                    seconds=after - before,
                )
            )
            if moves == 0:
                break
            active = _active_set(net, moved) if worklist else None

        dense, k = partition.dense_assignment()
        codelength = partition.flat_codelength(node_flow_log0)
        recorder.end_level(k, codelength)
        log.debug(
            "level %d: %d -> %d modules, L=%.4f bits",
            level, net.num_vertices, k, codelength,
        )
        if k == net.num_vertices:
            # nothing merged, so nothing moved (every move joins a
            # non-empty module): ``mapping`` needs no update
            converged = True
            break
        with trace_span("updatemembers", level=level), \
                recorder.kernel("updatemembers"):
            mapping = update_members(mapping, dense, ctx, stats)
        with trace_span("convert2supernode", level=level, modules=k), \
                recorder.kernel("convert2supernode"):
            net = convert_to_supernodes(net, dense, k, ctx, stats)

    uniq, modules = np.unique(mapping, return_inverse=True)
    return _Levels(
        modules=modules.astype(np.int64),
        num_modules=len(uniq),
        codelength=codelength,
        one_level_codelength=one_level,
        levels=level + 1,
        iterations=iterations,
        converged=converged,
    )


def _active_set(net: FlowNetwork, moved: list[int]) -> np.ndarray:
    """Vertices to revisit next pass: movers plus their neighbourhoods."""
    if not moved:
        return np.empty(0, dtype=np.int64)
    moved_arr = np.asarray(moved, dtype=np.int64)
    parts = [moved_arr]
    for v in moved:
        lo, hi = net.indptr[v], net.indptr[v + 1]
        parts.append(net.indices[lo:hi])
        if net.directed:
            tlo, thi = net.t_indptr[v], net.t_indptr[v + 1]
            parts.append(net.t_indices[tlo:thi])
    return np.unique(np.concatenate(parts))


def _charge_pagerank(
    ctx: HardwareContext, stats: KernelStats, net: FlowNetwork
) -> None:
    """Bulk hardware accounting for the PageRank kernel."""
    kc = ctx.machine.kernel
    iters = net.pagerank_iterations or UNDIRECTED_PAGERANK_COST_ITERS
    arcs = net.num_arcs
    n = net.num_vertices
    ctx.use(stats.pagerank)
    ctx.instr(
        int_alu=iters * (arcs * kc.pagerank_int_alu + n),
        float_alu=iters * (arcs * kc.pagerank_float_alu + n * 2),
        load=iters * arcs * kc.pagerank_load,
        store=iters * n * kc.pagerank_store_per_vertex,
        branch=iters * arcs,
    )
    ctx.branch_agg(BranchSite.LOOP_BACK, iters * arcs, iters * arcs - 1)
    ctx.mem_agg(iters * arcs * kc.pagerank_load, footprint_bytes=0, streaming=True)
    ctx.mem_agg(iters * n, footprint_bytes=n * 8)
