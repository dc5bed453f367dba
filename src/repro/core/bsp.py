"""Shared barrier-synchronous (BSP) Infomap schedule.

Every batched engine — ``vectorized`` (one in-process shard),
``multicore`` (``P`` simulated cores) and ``parallel`` (``P`` real worker
processes), cold runs and warm refreshes alike — executes the *same*
deterministic two-phase schedule, defined once here:

1. **propose** — vertices are sharded across ``P`` cores by arc count
   (:func:`edge_balanced_blocks`); each core computes the best improving
   move of every vertex in its shard against the snapshot of module state
   taken at the start of the pass, using the shard-restricted batched
   sweep (:meth:`repro.core.vectorized.Workspace.best_moves` with
   ``verts=``).  Where that computation *executes* — in-process
   (:class:`InprocessSweep`), in-process on simulated cores with
   per-core accounting, or on real worker processes over shared memory
   — is the only thing an engine supplies.
2. **commit** — the driver merges proposals in core order behind a
   barrier and holds back every move from a lower label into a module
   that is itself losing a member in the batch (:func:`hold_back`), so
   the batch cannot swap or rotate vertices between modules; it
   applies the kept moves at once, recomputes module state, accepts if
   the codelength improved, otherwise deterministically halves the move
   set with the seeded RNG and retries (:func:`commit_proposals`).

Every pass is one propose round over each core's whole order and one
commit — a single barrier per pass, HyPC-Map's schedule.  After a
level's first pass only the movers, their neighbours and every vertex
that proposed a move (held back, halved away or applied) are revisited
(:func:`active_neighborhood`), HyPC-Map's active-vertex worklist.

Because every quantity that feeds a decision — shard boundaries, snapshot
state, proposal math, merge order, backoff RNG stream — lives in this
module and is a pure function of ``(graph, num_cores, seed)``, two
engines running this schedule produce **bit-identical partitions** at
equal core counts and seeds.  ``tests/test_engine_conformance.py``
enforces exactly that for ``parallel(P=k)`` vs ``multicore(P=k)``, and
for ``vectorized`` vs both at ``P=1``.

Engines participate through a :class:`ProposeBackend`: the multicore
engine adds a per-core hardware-accounting sweep (the paper's simulated
counters) around the authoritative propose; the parallel engine ships the
propose to worker processes.  The commit/merge itself is driver-side and
is deliberately *not* charged to the simulated cores — it models
HyPC-Map's cheap deterministic merge at the barrier.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np

from repro.core.flow import FlowNetwork
from repro.core.mapequation import MapEquation
from repro.core.supernode import convert_to_supernodes
from repro.core.vectorized import MIN_IMPROVEMENT, Workspace
from repro.graph.csr import CSRGraph
from repro.obs.spans import trace_span
from repro.obs.telemetry import TelemetryRecorder, publish_run_metrics
from repro.util.entropy import plogp_array
from repro.util.rng import make_rng

__all__ = [
    "ProposeBackend",
    "InprocessSweep",
    "BSPOutcome",
    "BSPPassRecord",
    "edge_balanced_blocks",
    "active_neighborhood",
    "split_active_by_block",
    "hold_back",
    "commit_proposals",
    "run_bsp_infomap",
]

#: commit retries: halve the proposal set at most this many times before
#: declaring the pass a wash
BACKOFF_TRIES = 6


def edge_balanced_blocks(net: FlowNetwork, num_cores: int) -> list[np.ndarray]:
    """Split vertices into contiguous blocks with ~equal arc counts.

    HyPC-Map's static edge-balanced distribution: block boundaries are
    chosen on the cumulative out-degree so every core sweeps a similar
    number of arcs.
    """
    arcs = np.diff(net.indptr)
    cum = np.cumsum(arcs)
    total = cum[-1] if len(cum) else 0
    bounds = [0]
    for p in range(1, num_cores):
        target = total * p / num_cores
        bounds.append(int(np.searchsorted(cum, target)))
    bounds.append(net.num_vertices)
    blocks = []
    for p in range(num_cores):
        lo, hi = bounds[p], max(bounds[p], bounds[p + 1])
        blocks.append(np.arange(lo, hi, dtype=np.int64))
    return blocks


def active_neighborhood(
    ws: Workspace, net: FlowNetwork, moved: np.ndarray, proposers: np.ndarray
) -> np.ndarray:
    """Vertices to revisit next pass: movers plus their neighbourhoods,
    plus every proposer.

    Vectorized equivalent of the sequential engine's ``_active_set`` (one
    arc-mask instead of a per-mover Python loop), shared by every BSP
    engine so their worklists are identical.  Returns the sorted vertex
    ids.  Directed networks also revisit the movers' in-neighbours (the
    sources of arcs into a mover).  A proposer whose move was held back
    or halved away still had an improving move, so it is revisited too;
    its neighbours are not.
    """
    flags = np.zeros(net.num_vertices, dtype=bool)
    flags[moved] = True
    out_nbrs = ws.dst_all[flags[ws.src_all]]
    in_nbrs = ws.src_all[flags[ws.dst_all]] if net.directed else None
    flags[out_nbrs] = True
    if in_nbrs is not None:
        flags[in_nbrs] = True
    flags[proposers] = True
    return np.flatnonzero(flags)


def split_active_by_block(
    active: np.ndarray, blocks: list[np.ndarray]
) -> list[np.ndarray]:
    """Each core revisits its contiguous block's share of the active set."""
    out: list[np.ndarray] = []
    for block in blocks:
        if len(block):
            lo, hi = block[0], block[-1]
            out.append(active[(active >= lo) & (active <= hi)])
        else:
            out.append(np.empty(0, dtype=np.int64))
    return out


def hold_back(
    module: np.ndarray, verts: np.ndarray, targets: np.ndarray
) -> np.ndarray:
    """Which merged proposals the commit keeps (``True`` = kept).

    Holds back every move from module ``a`` into a module ``b`` that is
    itself losing a member in the same batch, when ``a < b``: the lower
    label wins.  Two guarantees:

    * **the kept moves contain no cycle of modules** (a swap is the
      2-cycle), so a committed batch cannot swap or rotate vertices
      between modules.  Every module on a cycle loses a member, so each
      kept move on it goes down in label, which no cycle can do;
    * **at least one move is kept** whenever any is proposed.  If every
      move went up into a losing module, the move with the largest
      target ``b`` would need a move leaving ``b`` for a larger label.

    O(n + proposals), with no sort and no RNG draw, so the mask does not
    depend on the order of the proposals.
    """
    src = module[verts]
    departs = np.zeros(len(module), dtype=bool)
    departs[src] = True
    return ~(departs[targets] & (src < targets))


def commit_proposals(
    ws: Workspace,
    net: FlowNetwork,
    module: np.ndarray,
    enter: np.ndarray,
    exit_: np.ndarray,
    flow: np.ndarray,
    length: float,
    verts: np.ndarray,
    targets: np.ndarray,
    rng: np.random.Generator,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, float, np.ndarray]:
    """The deterministic merge behind the barrier.

    Applies all proposed moves at once, recomputes module state, and
    accepts the batch iff the codelength strictly improved; otherwise the
    proposal set is halved with the seeded RNG and retried (at most
    :data:`BACKOFF_TRIES` times).  Returns the (possibly unchanged) state
    ``(module, enter, exit, flow, length, applied_verts)``; when every
    attempt is rejected that is the caller's own ``(module, enter,
    exit_, flow, length)``, returned as passed in.

    This is a pure function of its inputs plus the RNG stream — the
    determinism anchor of the whole schedule.
    """
    n = net.num_vertices
    accepted = np.ones(len(verts), dtype=bool)
    for _backoff in range(BACKOFF_TRIES):
        trial = module.copy()
        trial[verts[accepted]] = targets[accepted]
        e2, x2, f2 = ws.module_state(trial, n)
        l2 = MapEquation.codelength(e2, x2, f2, net.node_flow)
        if l2 < length - MIN_IMPROVEMENT:
            return trial, e2, x2, f2, l2, verts[accepted]
        # conflicting simultaneous moves: keep a random half and retry
        keep = rng.random(len(verts)) < 0.5
        accepted &= keep
        if not np.any(accepted):
            break
    return module, enter, exit_, flow, length, np.empty(0, dtype=np.int64)


class ProposeBackend:
    """What an engine plugs into the shared schedule.

    The driver calls the hooks in this order per run::

        on_flow(net)                          # once, after PageRank
        for level:
            begin_level(net, level, blocks, ws)
            for pass:
                begin_pass(module)
                on_barrier(level, pass, barrier)  # skipped if all orders empty
                propose(shards, module, enter, exit, flow)
                on_commit(applied_verts)          # when moves landed
                end_pass() -> sim seconds | None
            on_update_members(mapping, dense) -> mapping
            coarsen(net, dense, k, ws) -> coarser net

    Only :meth:`propose` is mandatory; the accounting hooks default to
    no-ops so the parallel engine implements nothing but the propose.
    ``propose`` receives ``shards`` as ``[(core_id, vertex_array), ...]``
    in ascending core order — each core's whole order for the pass — and
    must return ``(verts, targets)`` concatenated in that order, the
    merge order the commit relies on.
    """

    #: engine label for telemetry/metrics
    engine = "bsp"

    def on_flow(self, net: FlowNetwork) -> None:  # pragma: no cover - hook
        pass

    def begin_level(
        self,
        net: FlowNetwork,
        level: int,
        blocks: list[np.ndarray],
        ws: Workspace,
    ) -> None:
        pass

    def begin_pass(self, module: np.ndarray) -> None:
        pass

    def on_barrier(self, level: int, pass_idx: int, barrier: int) -> None:
        """Called immediately before each pass's propose.

        ``barrier`` is the global 0-based propose counter across the
        whole run — the coordinate a :class:`repro.core.faults.FaultPlan`
        addresses, and the unit the supervisor's recovery replays.  A
        pass whose every core order is empty proposes nothing and
        crosses no barrier.
        """
        pass

    def propose(
        self,
        shards: list[tuple[int, np.ndarray]],
        module: np.ndarray,
        enter: np.ndarray,
        exit_: np.ndarray,
        flow: np.ndarray,
    ) -> tuple[np.ndarray, np.ndarray]:
        raise NotImplementedError

    def end_pass(self) -> float | None:
        """Simulated pass seconds (multicore) or ``None`` for wall time."""
        return None

    def on_commit(self, applied: np.ndarray) -> None:
        pass

    def on_update_members(
        self, mapping: np.ndarray, dense: np.ndarray
    ) -> np.ndarray:
        return dense[mapping]

    def coarsen(
        self, net: FlowNetwork, dense: np.ndarray, k: int, ws: Workspace
    ) -> FlowNetwork:
        return convert_to_supernodes(net, dense, k, src=ws.src_all)

    def metrics_kwargs(self) -> dict:
        """Extra key/values for :func:`publish_run_metrics`."""
        return {}


class InprocessSweep(ProposeBackend):
    """The in-process one-shard backend: the batched sweep, no accounting.

    What ``engine="vectorized"`` means, cold or warm: the propose the
    simulated-multicore backend computes at ``P=1`` (via the driver's
    own :class:`~repro.core.vectorized.Workspace`, reused across passes
    and levels), minus its hardware accounting.
    """

    engine = "vectorized"

    def __init__(self) -> None:
        self.ws: Workspace | None = None

    def begin_level(self, net, level, blocks, ws) -> None:
        self.ws = ws

    def propose(self, shards, module, enter, exit_, flow):
        ((_core, shard),) = shards  # one shard: the engine runs at P=1
        verts, targets, _ = self.ws.best_moves(
            module, enter, exit_, flow, verts=shard
        )
        return verts, targets


@dataclass(frozen=True)
class BSPPassRecord:
    """One barrier-synchronous pass (telemetry-grade record)."""

    level: int
    pass_in_level: int
    vertices: int  #: (super)nodes at this level
    #: propose rounds (= barriers): 1, or 0 when every order was empty
    rounds: int
    active_vertices: int
    proposed: int
    applied: int
    codelength: float
    wall_seconds: float
    seconds: float  #: simulated parallel seconds (multicore) or wall
    #: proposals :func:`hold_back` kept out of the commit; ``proposed -
    #: held_back - applied`` is what the backoff halving dropped
    held_back: int = 0


@dataclass
class BSPOutcome:
    """What :func:`run_bsp_infomap` hands back to the engine wrapper."""

    modules: np.ndarray
    num_modules: int
    codelength: float
    one_level_codelength: float
    levels: int
    passes: list[BSPPassRecord] = field(default_factory=list)
    telemetry: object = None
    pagerank_iterations: int = 0


def run_bsp_infomap(
    graph: CSRGraph,
    backend: ProposeBackend,
    num_cores: int,
    seed: int = 0,
    tau: float = 0.15,
    max_levels: int = 20,
    max_passes_per_level: int = 10,
    recorder: TelemetryRecorder | None = None,
    init_module: np.ndarray | None = None,
    init_active: np.ndarray | None = None,
) -> BSPOutcome:
    """Run the shared multilevel BSP schedule.

    Parameters
    ----------
    backend:
        Engine-specific :class:`ProposeBackend` (where propose executes).
    num_cores:
        Shard count ``P``.  Partitions are a function of ``P`` — the
        conformance contract is *equal engines at equal P/seed*, not
        equality across different ``P``.
    seed:
        Seeds the commit's conflict-backoff RNG.  Same seed (and same
        ``P``) ⇒ identical partition, for every BSP engine.
    init_module:
        Optional warm-start assignment for level 0 (one label per
        vertex, labels in ``[0, num_vertices)``; densified here).  When
        given, level 0 optimizes from this partition instead of the
        all-singletons one — the incremental-recompute entry point
        (:mod:`repro.core.dynamic`).  Later levels are unaffected.
        ``None`` keeps the cold schedule byte-identical to before.
    init_active:
        Optional restriction of level 0's *first* pass to these
        vertices (sorted/uniqued here; each core sweeps its block's
        share).  Subsequent passes grow the worklist from the movers
        exactly as the cold schedule does, so the restriction composes
        with the standard convergence rule.  Only meaningful at level
        0; requires nothing of ``init_module`` but is normally paired
        with it (warm labels + dirty frontier).
    """
    if num_cores < 1:
        raise ValueError("num_cores must be >= 1")
    n0_check = graph.num_vertices
    if init_module is not None:
        init_module = np.asarray(init_module, dtype=np.int64)
        if init_module.shape != (n0_check,):
            raise ValueError(
                f"init_module must have shape ({n0_check},), "
                f"got {init_module.shape}"
            )
        uniq0 = np.unique(init_module)
        if len(uniq0) and (uniq0[0] < 0 or uniq0[-1] >= n0_check):
            raise ValueError(
                "init_module labels must lie in [0, num_vertices)"
            )
        init_module = np.searchsorted(uniq0, init_module).astype(np.int64)
    if init_active is not None:
        init_active = np.unique(np.asarray(init_active, dtype=np.int64))
        if len(init_active) and (
            init_active[0] < 0 or init_active[-1] >= n0_check
        ):
            raise ValueError(
                "init_active vertices must lie in [0, num_vertices)"
            )

    rng = make_rng(seed)
    if recorder is None:
        recorder = TelemetryRecorder(backend.engine, num_cores=num_cores)
    ws = Workspace()

    with trace_span("pagerank", vertices=graph.num_vertices), \
            recorder.kernel("pagerank"):
        net = FlowNetwork.from_graph(graph, tau=tau)
        backend.on_flow(net)
    pagerank_iterations = net.pagerank_iterations

    one_level = MapEquation.one_level_codelength(net.node_flow)
    node_flow_log0 = -one_level
    n0 = graph.num_vertices
    mapping = np.arange(n0, dtype=np.int64)

    passes: list[BSPPassRecord] = []
    levels = 0
    flat_length = one_level
    converged = False
    barrier = 0  # global propose counter (FaultPlan coordinate)

    for level in range(max_levels):
        levels = level + 1
        n = net.num_vertices
        ws.bind(net)
        blocks = edge_balanced_blocks(net, num_cores)
        backend.begin_level(net, level, blocks, ws)
        recorder.begin_level(level, n)
        flat_offset = float(plogp_array(net.node_flow).sum()) - node_flow_log0

        if level == 0 and init_module is not None:
            module = init_module.copy()
        else:
            module = np.arange(n, dtype=np.int64)
        enter, exit_, flow = ws.module_state(module, n)
        length = MapEquation.codelength(enter, exit_, flow, net.node_flow)

        active_sets: list[np.ndarray | None] = [None] * num_cores
        if level == 0 and init_active is not None:
            active_sets = list(split_active_by_block(init_active, blocks))
        for pass_idx in range(max_passes_per_level):
            wall0 = time.perf_counter()
            backend.begin_pass(module)
            shards = [
                (p, blocks[p] if active_sets[p] is None else active_sets[p])
                for p in range(num_cores)
            ]
            active_count = sum(len(order) for _, order in shards)
            rounds = held = 0
            verts = applied = np.empty(0, dtype=np.int64)
            with trace_span("findbest", level=level, pass_=pass_idx):
                if active_count:
                    rounds = 1
                    backend.on_barrier(level, pass_idx, barrier)
                    barrier += 1
                    verts, targets = backend.propose(
                        shards, module, enter, exit_, flow
                    )
                if len(verts):
                    keep = hold_back(module, verts, targets)
                    held = len(verts) - int(np.count_nonzero(keep))
                    module, enter, exit_, flow, length, applied = (
                        commit_proposals(
                            ws, net, module, enter, exit_, flow, length,
                            verts[keep], targets[keep], rng,
                        )
                    )
                    if len(applied):
                        backend.on_commit(applied)
            wall = time.perf_counter() - wall0
            sim = backend.end_pass()
            recorder.record_kernel("findbest", wall)
            recorder.record_pass(
                level=level,
                pass_in_level=pass_idx,
                active_vertices=active_count,
                moves=len(applied),
                num_modules=ws.num_modules(module),
                codelength=length + flat_offset,
                wall_seconds=wall,
            )
            passes.append(
                BSPPassRecord(
                    level=level,
                    pass_in_level=pass_idx,
                    vertices=n,
                    rounds=rounds,
                    active_vertices=active_count,
                    proposed=len(verts),
                    applied=len(applied),
                    codelength=length + flat_offset,
                    wall_seconds=wall,
                    seconds=sim if sim is not None else wall,
                    held_back=held,
                )
            )
            if len(applied) == 0:
                break
            active_sets = list(split_active_by_block(
                active_neighborhood(ws, net, applied, verts), blocks
            ))

        flat_length = length + flat_offset
        uniq = np.unique(module)
        k = len(uniq)
        dense = np.searchsorted(uniq, module).astype(np.int64)
        recorder.end_level(k, flat_length)
        if k == n:
            converged = True
            break
        with trace_span("updatemembers", level=level), \
                recorder.kernel("updatemembers"):
            mapping = backend.on_update_members(mapping, dense)
        with trace_span("convert2supernode", level=level, modules=k), \
                recorder.kernel("convert2supernode"):
            net = backend.coarsen(net, dense, k, ws)

    telemetry = recorder.finish(converged)
    publish_run_metrics(telemetry, **backend.metrics_kwargs())

    uniq, final = np.unique(mapping, return_inverse=True)
    return BSPOutcome(
        modules=final.astype(np.int64),
        num_modules=len(uniq),
        codelength=flat_length,
        one_level_codelength=one_level,
        levels=levels,
        passes=passes,
        telemetry=telemetry,
        pagerank_iterations=pagerank_iterations,
    )
