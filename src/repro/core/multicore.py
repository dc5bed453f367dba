"""Simulated multicore (HyPC-Map-style) Infomap engine.

HyPC-Map partitions vertices across OpenMP threads; each thread greedily
moves its own vertices while reading the shared module assignment, with a
barrier per pass.  This engine reproduces that execution model on ``P``
simulated cores by running the shared barrier-synchronous schedule of
:mod:`repro.core.bsp`:

* vertices are partitioned into ``P`` contiguous blocks balanced by arc
  count (HyPC-Map's static edge-balanced distribution);
* per pass, each core *proposes* the best move of every vertex in its
  shard against the pass-start snapshot; the schedule *commits* the
  merged proposal set deterministically behind the barrier (the same
  propose / commit cycle the real process-parallel engine runs, which
  is why ``multicore(P=k)`` and ``parallel(P=k)`` are bit-identical at
  equal seeds — see ``core/bsp.py``);
* each core owns a :class:`~repro.sim.context.HardwareContext` (private
  L1/L2, shared L3 in detailed mode) and — for the ASA backend — its own
  CAM ("each thread has its own core-local CAM", Section III-A).  The
  paper's hardware counters come from an *accounting sweep*: per pass,
  each core replays its shard through the instrumented per-vertex kernel
  (:func:`~repro.core.findbest.find_best_pass` in propose-only mode)
  against the pass-start partition, charging hash/gather/calc work to the
  per-core counters exactly as the sequential engine would, while the
  authoritative proposals come from the batched sweep;
* the pass's parallel time is the *maximum* over cores of the cycles that
  core spent, plus one barrier cost — the ``seconds`` of the pass's
  ``telemetry.passes`` record; per-core metrics (Figs 9–11) come from
  the per-core counters.

PageRank, Convert2SuperNode, and UpdateMembers are parallelized in
HyPC-Map as well; their (bulk-counted) work is split evenly across cores,
except move application (UpdateMembers), which is charged to the core
that owns each applied vertex.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.accum.factory import make_accumulator
from repro.core.bsp import ProposeBackend, run_bsp_infomap
from repro.core.findbest import find_best_pass
from repro.core.flow import FlowNetwork
from repro.core.infomap import _charge_pagerank, check_engine_options
from repro.core.partition import Partition
from repro.core.supernode import convert_to_supernodes
from repro.core.update import update_members
from repro.core.vectorized import Workspace
from repro.graph.csr import CSRGraph
from repro.obs import spans as obs_spans
from repro.obs.logging import get_logger
from repro.obs.spans import trace_span
from repro.obs.telemetry import ConvergenceTelemetry, TelemetryRecorder
from repro.sim.cache import SetAssociativeCache
from repro.sim.context import HardwareContext
from repro.sim.costmodel import CycleModel
from repro.sim.counters import KernelStats
from repro.sim.machine import MachineConfig, asa_machine, baseline_machine

log = get_logger("core.multicore")

__all__ = ["run_infomap_multicore", "MulticoreResult"]


@dataclass
class MulticoreResult:
    """Outcome of a simulated ``P``-core run."""

    modules: np.ndarray
    num_modules: int
    codelength: float
    levels: int
    per_core_stats: list[KernelStats]
    machine: MachineConfig
    backend: str
    num_cores: int
    overflowed_vertices: int = 0
    #: measured-wall-time convergence record (see repro.obs.telemetry)
    telemetry: ConvergenceTelemetry | None = None

    def cycle_model(self) -> CycleModel:
        return CycleModel(self.machine)

    # ------------------------------------------------------------------
    @property
    def hash_seconds_parallel(self) -> float:
        """Parallel hash-operation time (max over cores)."""
        cm = self.cycle_model()
        return max(
            cm.cycles(ks.findbest_hash_total).seconds for ks in self.per_core_stats
        )

    def avg_per_core(self, metric: str, kernel: str = "findbest") -> float:
        """Average per-core value of a metric over the FindBestCommunity kernel.

        ``metric``: ``"instructions"``, ``"branch_mispredict"``, or
        ``"cpi"`` — the per-core quantities of Figs 9, 10 and 11.
        """
        cm = self.cycle_model()
        vals = []
        for ks in self.per_core_stats:
            c = ks.findbest if kernel == "findbest" else ks.total
            if metric == "instructions":
                vals.append(c.instructions)
            elif metric == "branch_mispredict":
                vals.append(c.branch_mispredict)
            elif metric == "cpi":
                vals.append(cm.cycles(c).cpi)
            else:
                raise ValueError(f"unknown metric {metric!r}")
        return float(np.mean(vals))


def _distribute(stats_list: list[KernelStats], temp: KernelStats) -> None:
    """Add an even share of ``temp``'s counters to every core's stats."""
    p = len(stats_list)
    for name, c in temp.components().items():
        share = c.scaled(1.0 / p)
        for ks in stats_list:
            ks.components()[name].add(share)


class _SimulatedCores(ProposeBackend):
    """BSP backend: in-process propose + per-core hardware accounting."""

    engine = "multicore"

    def __init__(
        self, num_cores: int, backend: str, machine: MachineConfig
    ) -> None:
        self.num_cores = num_cores
        self.backend = backend
        self.machine = machine
        shared_l3 = (
            SetAssociativeCache(machine.l3)
            if machine.fidelity == "detailed"
            else None
        )
        self.ctxs = [
            HardwareContext(machine, core_id=p, shared_l3=shared_l3)
            for p in range(num_cores)
        ]
        self.stats = [KernelStats() for _ in range(num_cores)]
        self.accumulators = [
            make_accumulator(
                backend, self.ctxs[p], self.stats[p].findbest_hash,
                self.stats[p].findbest_overflow,
            )
            for p in range(num_cores)
        ]
        self._cm = CycleModel(machine)
        self._barrier_s = machine.barrier_cycles / machine.freq_hz
        self._temp_ctx = HardwareContext(machine, core_id=num_cores)
        self.net: FlowNetwork | None = None
        self.ws: Workspace | None = None
        self._block_bounds: np.ndarray | None = None
        self._acct: Partition | None = None
        self._pass_before: list[float] = []

    # ------------------------------------------------------------ hooks
    def on_flow(self, net: FlowNetwork) -> None:
        # parallel PageRank: each core does 1/P of the work
        temp_stats = KernelStats()
        _charge_pagerank(self._temp_ctx, temp_stats, net)
        _distribute(self.stats, temp_stats)

    def begin_level(self, net, level, blocks, ws) -> None:
        self.net = net
        self.ws = ws
        # right edge (exclusive) of each core's contiguous vertex block,
        # for attributing committed moves to their owning core
        bounds = []
        prev = 0
        for b in blocks:
            if len(b):
                prev = int(b[-1]) + 1
            bounds.append(prev)
        self._block_bounds = np.array(bounds, dtype=np.int64)

    def begin_pass(self, module: np.ndarray) -> None:
        # pass-start snapshot the accounting sweeps replay against
        self._acct = Partition.from_assignment(self.net, module)
        self._pass_before = [
            self._cm.cycles(s.findbest).seconds for s in self.stats
        ]

    def propose(self, shards, module, enter, exit_, flow):
        tracing = obs_spans.is_enabled()
        verts_parts: list[np.ndarray] = []
        targ_parts: list[np.ndarray] = []
        for p, shard in shards:
            if len(shard) == 0:
                continue
            if tracing:
                # attribute this shard's spans to simulated core p
                obs_spans.set_current_core(p)
            # instrumented replay: charges this core's hash/gather/calc
            # counters for sweeping its shard (moves are proposed by the
            # batched sweep below, so the replay applies nothing)
            find_best_pass(
                self._acct, self.accumulators[p], self.ctxs[p],
                self.stats[p], order=shard, apply=False,
            )
            v, t, _ = self.ws.best_moves(module, enter, exit_, flow, verts=shard)
            verts_parts.append(v)
            targ_parts.append(t)
        if tracing:
            obs_spans.set_current_core(0)
        if not verts_parts:
            return np.empty(0, np.int64), np.empty(0, np.int64)
        return np.concatenate(verts_parts), np.concatenate(targ_parts)

    def end_pass(self) -> float:
        after = [self._cm.cycles(s.findbest).seconds for s in self.stats]
        core_secs = [a - b for a, b in zip(after, self._pass_before)]
        return max(core_secs) + self._barrier_s

    def on_commit(self, applied: np.ndarray) -> None:
        # UpdateMembers: each applied move is charged to its owning core
        counts = np.bincount(
            np.searchsorted(self._block_bounds, applied, side="right"),
            minlength=self.num_cores,
        )
        n = self.net.num_vertices
        for p in range(self.num_cores):
            cnt = int(counts[p])
            if cnt == 0:
                continue
            ctx, stats = self.ctxs[p], self.stats[p]
            kc = ctx.machine.kernel
            ctx.use(stats.update_members)
            ctx.instr(
                int_alu=kc.update_int_alu * cnt,
                load=kc.update_load * cnt,
                store=kc.update_store * cnt,
            )
            ctx.mem_agg(cnt, footprint_bytes=n * ctx.layout.node_bytes)

    def on_update_members(self, mapping, dense):
        temp_stats = KernelStats()
        mapping = update_members(mapping, dense, self._temp_ctx, temp_stats)
        _distribute(self.stats, temp_stats)
        return mapping

    def coarsen(self, net, dense, k, ws):
        temp_stats = KernelStats()
        out = convert_to_supernodes(net, dense, k, self._temp_ctx, temp_stats)
        _distribute(self.stats, temp_stats)
        return out

    def metrics_kwargs(self) -> dict:
        return {
            "overflow_evictions": sum(
                getattr(a, "total_evictions", 0) for a in self.accumulators
            ),
            "rehashes": sum(
                getattr(a, "total_rehashes", 0) for a in self.accumulators
            ),
        }


def run_infomap_multicore(
    graph: CSRGraph,
    num_cores: int = 2,
    backend: str = "softhash",
    machine: MachineConfig | None = None,
    tau: float = 0.15,
    max_levels: int = 20,
    max_passes_per_level: int = 10,
    seed: int = 0,
    init_module: np.ndarray | None = None,
    init_active: np.ndarray | None = None,
) -> MulticoreResult:
    """Run Infomap on ``num_cores`` simulated cores.

    Parameters
    ----------
    seed:
        Seeds the commit's conflict-backoff RNG.  ``multicore(P=k)`` and
        ``parallel(P=k)`` are bit-identical at equal ``seed``.
    init_module / init_active:
        Warm-start assignment and first-pass restriction for level 0
        (see :func:`repro.core.bsp.run_bsp_infomap`) — the incremental
        recompute path of :mod:`repro.core.dynamic`.
    """
    check_engine_options(
        "multicore", num_cores=num_cores, seed=seed, tau=tau,
        max_levels=max_levels, max_passes_per_level=max_passes_per_level,
    )
    if machine is None:
        machine = asa_machine() if backend == "asa" else baseline_machine()

    sim = _SimulatedCores(num_cores, backend, machine)
    recorder = TelemetryRecorder(
        "multicore", backend=backend, num_cores=num_cores
    )
    with trace_span(
        "infomap.run", engine="multicore", backend=backend, cores=num_cores
    ):
        outcome = run_bsp_infomap(
            graph,
            sim,
            num_cores,
            seed=seed,
            tau=tau,
            max_levels=max_levels,
            max_passes_per_level=max_passes_per_level,
            recorder=recorder,
            init_module=init_module,
            init_active=init_active,
        )

    overflowed = sum(
        getattr(a, "overflowed_vertices", 0) for a in sim.accumulators
    )
    log.debug("run done: %s", outcome.telemetry.summary())

    return MulticoreResult(
        modules=outcome.modules,
        num_modules=outcome.num_modules,
        codelength=outcome.codelength,
        levels=outcome.levels,
        per_core_stats=sim.stats,
        machine=machine,
        backend=backend,
        num_cores=num_cores,
        overflowed_vertices=overflowed,
        telemetry=outcome.telemetry,
    )
