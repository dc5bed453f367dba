"""Incremental community maintenance under graph updates.

Streaming/evolving networks (the social and biological domains the paper's
introduction motivates) rarely stand still: edges appear and disappear.
Re-running community detection from scratch after every batch of updates
wastes work when only a neighbourhood changed.  :class:`DynamicCommunities`
maintains a partition across edge insertions/deletions by **warm-started
local re-optimization**, and :func:`warm_refresh` is the module-level entry
point the serving layer's delta jobs call directly.

The refresh runs on the engines, not beside them.  A warm refresh is one
:func:`repro.core.infomap.run_infomap` call on a BSP engine — one run of
the shared schedule (:func:`repro.core.bsp.run_bsp_infomap`) — with two
warm-start inputs:

* ``init_module`` — the previous assignment with every *dirty* vertex
  (an endpoint of a changed edge) re-seeded as its own singleton.
  Greedy local moves can merge but never split a module, so vertices
  whose incident edges changed must be free to leave — edge deletions
  would otherwise be invisible to the optimizer.
* ``init_active`` — the *dirty frontier* (dirty vertices plus every
  vertex sharing an arc with one): level 0's first pass sweeps only
  this set, through the same shard-restricted batched sweep
  (:meth:`repro.core.vectorized.Workspace.best_moves` with ``verts=``)
  every BSP engine uses.  Later passes grow the worklist from the
  movers exactly as a cold run does.

Because the BSP schedule is a pure function of ``(graph, P, seed,
init)``, a warm refresh produces **identical partitions on every engine**
at equal ``workers``/``seed``/dirty set — ``engine="vectorized"`` runs the
schedule in-process on one shard, ``"multicore"`` on ``P`` simulated
cores, ``"parallel"`` on ``P`` real worker processes
(``tests/test_engine_conformance.py``, dynamic column).

When the frontier exceeds ``full_rerun_threshold * num_vertices`` the
warm start stops paying (most of the graph would be re-swept anyway,
plus the multilevel fall-through) and the refresh falls back to a
from-scratch run — the measured ``full_rerun`` policy.  That rerun is
the same engine call without the two warm-start inputs, i.e. the
engine's cold schedule.
Each refresh publishes ``dynamic.touched_vertices`` /
``dynamic.frontier_share`` / ``dynamic.full_reruns`` to the metrics
registry and appends a ``kind="dynamic"`` row to the armed run ledger.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from repro.core.infomap import (
    BSP_ENGINES,
    check_engine_options,
    run_infomap,
)
from repro.graph.build import from_edge_array
from repro.graph.csr import CSRGraph
from repro.obs import ledger as obs_ledger
from repro.obs import metrics as obs_metrics
from repro.util.validation import is_finite_real

__all__ = [
    "DEFAULT_FULL_RERUN_THRESHOLD",
    "DynamicCommunities",
    "RefreshResult",
    "dirty_frontier",
    "warm_refresh",
]

#: fall back to a full from-scratch run when the dirty frontier covers
#: more than this share of the vertices (measured: past ~1/4 of V the
#: restricted first pass plus the multilevel fall-through costs about
#: as much as a cold run — see benchmarks/bench_dynamic.py)
DEFAULT_FULL_RERUN_THRESHOLD = 0.25


@dataclass
class RefreshResult:
    """Outcome of one :func:`warm_refresh` / :meth:`DynamicCommunities.refresh`."""

    modules: np.ndarray
    num_modules: int
    codelength: float
    #: multilevel depth of the refresh run (0 for the no-op shortcuts)
    levels: int
    #: distinct vertices seeded for re-examination: the dirty frontier
    #: on a warm refresh, every vertex on a full rerun
    touched_vertices: int
    #: dirty-frontier share of the vertex set that was measured for the
    #: fallback decision (1.0 when there was no partition to warm from)
    frontier_share: float
    #: True when the refresh fell back to a full from-scratch run
    full_rerun: bool
    #: wall-clock seconds of the engine run
    seconds: float = 0.0


def dirty_frontier(graph: CSRGraph, dirty: np.ndarray) -> np.ndarray:
    """Dirty vertices plus every vertex sharing an arc with one.

    The set level 0's first warm pass sweeps: endpoints of changed edges
    must be free to move, and their neighbours are the only vertices
    whose best move can have changed before anything else moves.  Both
    arc directions count (a changed in-edge changes a vertex's options
    in a directed graph).
    """
    dirty = np.unique(np.asarray(dirty, dtype=np.int64))
    if len(dirty) == 0:
        return dirty
    flags = np.zeros(graph.num_vertices, dtype=bool)
    flags[dirty] = True
    src, dst, _ = graph.edge_array()
    return np.unique(np.concatenate([dirty, dst[flags[src]], src[flags[dst]]]))


def warm_refresh(
    graph: CSRGraph,
    labels: np.ndarray | None,
    dirty: np.ndarray,
    *,
    engine: str = "vectorized",
    workers: int = 1,
    seed: int = 0,
    tau: float = 0.15,
    max_levels: int = 20,
    max_passes_per_level: int = 10,
    full_rerun_threshold: float = DEFAULT_FULL_RERUN_THRESHOLD,
    pool=None,
    deadline: float | None = None,
    worker_timeout: float | None = None,
) -> RefreshResult:
    """One engine-backed refresh of ``graph`` from a previous partition.

    Parameters
    ----------
    labels:
        Previous assignment (one label per vertex) or ``None`` for a
        from-scratch run.
    dirty:
        Vertices whose incident edges changed since ``labels`` was
        computed.  Ignored when ``labels`` is ``None``.
    engine / workers / seed:
        Which BSP engine runs the refresh (the sequential engine has no
        shard-restricted sweep) and its determinism coordinates; a warm
        refresh is identical across engines at equal ``workers``/``seed``
        (the BSP schedule guarantee).
    full_rerun_threshold:
        Dirty-frontier share of the vertex set past which the warm
        start is abandoned for the engine's standard from-scratch run.
    pool / deadline / worker_timeout:
        ``engine="parallel"`` only (see
        :func:`repro.core.infomap.run_infomap`) — how the serving layer
        runs refreshes on its warm worker pools.
    """
    check_engine_options(
        engine, BSP_ENGINES, workers=workers, seed=seed, tau=tau,
        max_levels=max_levels, max_passes_per_level=max_passes_per_level,
        pool=pool, deadline=deadline, worker_timeout=worker_timeout,
    )
    if not (0.0 < full_rerun_threshold <= 1.0):
        raise ValueError("full_rerun_threshold must be in (0, 1]")
    n = graph.num_vertices

    if labels is None:
        frontier = None
        share = 1.0
        full = True
    else:
        labels = np.asarray(labels, dtype=np.int64)
        if labels.shape != (n,):
            raise ValueError(
                f"labels must have shape ({n},), got {labels.shape}"
            )
        frontier = dirty_frontier(graph, dirty)
        share = len(frontier) / n
        full = share > full_rerun_threshold

    t0 = time.perf_counter()
    if full:
        seeded = frontier = None
        touched = n
    else:
        # re-seed dirty vertices as provisional singletons, densify
        dirty = np.unique(np.asarray(dirty, dtype=np.int64))
        seeded = labels.copy()
        seeded[dirty] = n + np.arange(len(dirty), dtype=np.int64)
        _, seeded = np.unique(seeded, return_inverse=True)
        seeded = seeded.astype(np.int64)
        touched = len(frontier)
    # the full-rerun fallback passes neither warm-start input: the
    # engine's cold schedule
    r = run_infomap(
        graph, engine=engine, workers=workers, shuffle_seed=seed, tau=tau,
        max_levels=max_levels, max_passes_per_level=max_passes_per_level,
        pool=pool, deadline=deadline, worker_timeout=worker_timeout,
        init_module=seeded, init_active=frontier,
    )
    seconds = time.perf_counter() - t0

    result = RefreshResult(
        modules=np.asarray(r.modules, dtype=np.int64),
        num_modules=int(r.num_modules),
        codelength=float(r.codelength),
        levels=int(r.levels),
        touched_vertices=touched,
        frontier_share=share,
        full_rerun=full,
        seconds=seconds,
    )
    _publish_refresh(result)
    _ledger_refresh(
        graph, engine, workers, seed, tau, max_levels, max_passes_per_level,
        result,
    )
    return result


def _publish_refresh(result: RefreshResult) -> None:
    if not obs_metrics.is_enabled():
        return
    reg = obs_metrics.get_registry()
    reg.histogram("dynamic.touched_vertices").observe(
        result.touched_vertices
    )
    reg.histogram("dynamic.frontier_share").observe(result.frontier_share)
    if result.full_rerun:
        reg.counter("dynamic.full_reruns").inc()


def _ledger_refresh(
    graph, engine, workers, seed, tau, max_levels, max_passes_per_level,
    result,
) -> None:
    """One ``kind="dynamic"`` ledger row per refresh (when armed)."""
    if not obs_ledger.is_enabled():
        return
    from repro.service.cache import graph_digest

    record = obs_ledger.make_record(
        kind="dynamic",
        source="dynamic",
        config={
            "graph": graph_digest(graph),
            "engine": engine,
            "workers": workers,
            "seed": seed,
            "tau": tau,
            "max_levels": max_levels,
            "max_passes_per_level": max_passes_per_level,
        },
        telemetry={
            "codelength": result.codelength,
            "num_modules": result.num_modules,
            "levels": result.levels,
            "touched_vertices": result.touched_vertices,
            "frontier_share": result.frontier_share,
            "full_rerun": result.full_rerun,
        },
        perf={"wall_seconds": result.seconds},
        label="refresh",
    )
    obs_ledger.get_ledger().append(record)


class DynamicCommunities:
    """Maintains an Infomap partition across edge insertions/deletions.

    Parameters
    ----------
    num_vertices:
        Fixed vertex universe (vertices may be isolated).
    directed:
        Edge direction semantics.
    tau:
        Teleportation for directed flows.
    engine / workers / seed:
        Engine configuration every refresh runs with (see
        :func:`warm_refresh`).
    full_rerun_threshold:
        Dirty-frontier share past which a refresh falls back to a full
        from-scratch run.
    """

    def __init__(
        self,
        num_vertices: int,
        directed: bool = False,
        tau: float = 0.15,
        engine: str = "vectorized",
        workers: int = 1,
        seed: int = 0,
        full_rerun_threshold: float = DEFAULT_FULL_RERUN_THRESHOLD,
    ):
        if num_vertices <= 0:
            raise ValueError("num_vertices must be positive")
        check_engine_options(
            engine, BSP_ENGINES, workers=workers, seed=seed, tau=tau
        )
        if not (0.0 < full_rerun_threshold <= 1.0):
            raise ValueError("full_rerun_threshold must be in (0, 1]")
        self.num_vertices = num_vertices
        self.directed = directed
        self.tau = tau
        self.engine = engine
        self.workers = workers
        self.seed = seed
        self.full_rerun_threshold = full_rerun_threshold
        self._edges: dict[tuple[int, int], float] = {}
        self._dirty: set[int] = set()
        self.modules: np.ndarray | None = None
        self.num_modules: int = 0
        self.codelength: float = float("nan")
        self.levels: int = 0

    # ------------------------------------------------------------------
    def _key(self, u: int, v: int) -> tuple[int, int]:
        if not (0 <= u < self.num_vertices and 0 <= v < self.num_vertices):
            raise ValueError(f"vertex out of range: ({u}, {v})")
        if self.directed or u <= v:
            return (u, v)
        return (v, u)

    def add_edge(self, u: int, v: int, weight: float = 1.0) -> None:
        """Insert (or reinforce) an edge; weights of duplicates add up."""
        # a NaN or +inf weight would fail every later refresh
        if not (is_finite_real(weight) and weight > 0):
            raise ValueError(
                f"weight must be finite and positive, got {weight!r}"
            )
        k = self._key(u, v)
        self._edges[k] = self._edges.get(k, 0.0) + weight
        self._dirty.update((u, v))

    def remove_edge(self, u: int, v: int) -> None:
        """Delete an edge entirely.

        Raises
        ------
        KeyError
            If the edge is not present.
        """
        k = self._key(u, v)
        if k not in self._edges:
            raise KeyError(f"edge {k} not present")
        del self._edges[k]
        self._dirty.update((u, v))

    @property
    def num_edges(self) -> int:
        return len(self._edges)

    def graph(self) -> CSRGraph:
        """Materialize the current edge set as a CSR graph."""
        if not self._edges:
            raise ValueError("graph has no edges")
        keys = np.array(list(self._edges.keys()), dtype=np.int64)
        w = np.fromiter(self._edges.values(), dtype=np.float64,
                        count=len(self._edges))
        return from_edge_array(
            keys[:, 0], keys[:, 1], w,
            num_vertices=self.num_vertices,
            directed=self.directed,
            name="dynamic",
        )

    # ------------------------------------------------------------------
    def refresh(
        self, max_passes_per_level: int = 10, max_levels: int = 20
    ) -> RefreshResult:
        """Re-optimize after pending updates.

        First call (or after :attr:`modules` was reset) runs from
        scratch; subsequent calls warm-start from the previous
        assignment and sweep only the dirty frontier before the
        multilevel fall-through — all on the configured engine.

        An **edgeless** graph has a defined result: every vertex is its
        own singleton module at codelength 0.0 (there is no flow to
        encode), rather than an error.  A refresh with no pending
        updates returns the previous partition untouched.
        """
        if not self._edges:
            self._dirty.clear()
            self.modules = np.arange(self.num_vertices, dtype=np.int64)
            self.num_modules = self.num_vertices
            self.codelength = 0.0
            self.levels = 0
            return RefreshResult(
                modules=self.modules.copy(),
                num_modules=self.num_modules,
                codelength=0.0,
                levels=0,
                touched_vertices=0,
                frontier_share=0.0,
                full_rerun=False,
            )
        if self.modules is not None and not self._dirty:
            return RefreshResult(
                modules=self.modules.copy(),
                num_modules=self.num_modules,
                codelength=self.codelength,
                levels=self.levels,
                touched_vertices=0,
                frontier_share=0.0,
                full_rerun=False,
            )
        graph = self.graph()
        dirty = np.fromiter(
            self._dirty, dtype=np.int64, count=len(self._dirty)
        )
        result = warm_refresh(
            graph, self.modules, dirty,
            engine=self.engine, workers=self.workers, seed=self.seed,
            tau=self.tau, max_levels=max_levels,
            max_passes_per_level=max_passes_per_level,
            full_rerun_threshold=self.full_rerun_threshold,
        )
        self.modules = result.modules.copy()
        self.num_modules = result.num_modules
        self.codelength = result.codelength
        self.levels = result.levels
        self._dirty.clear()
        return result
