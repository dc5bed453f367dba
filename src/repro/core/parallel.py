"""Real process-parallel Infomap engine (multiprocessing + shared memory).

The repo's first engine that uses more than one OS core.  It runs the
exact barrier-synchronous schedule of :mod:`repro.core.bsp` — the one the
simulated multicore engine runs — but executes each core's propose step
on a real worker process:

* ``P`` persistent workers are forked once per run and fed over duplex
  pipes; no pool re-spawn per sweep;
* the level's CSR flow network, the pass-start module state, and a
  per-worker **proposal reply buffer** live in one
  :class:`multiprocessing.shared_memory.SharedMemory` arena — workers
  map them as zero-copy numpy views;
* the protocol is three messages: ``("bind", ...)`` attaches a worker
  to a level's arena, ``("round", verts, fault)`` asks it to propose
  for its whole pass order — one round per BSP pass — and ``("close",)``
  ends it.  The worker writes its proposed ``(vertices, targets)`` into
  its arena reply buffer and answers with a constant-size
  ``("done", id, count, wall)``;
* each worker binds its own batched
  :class:`~repro.core.vectorized.Workspace` to the shared arrays and runs
  the shard-restricted sweep
  (:meth:`~repro.core.vectorized.Workspace.best_moves` with ``verts=``);
* the master writes the pass-start state into the arena before every
  round — each round follows a fresh arena or an accepted commit, since
  a pass that moves nothing ends its level — gathers proposals in fixed
  worker order out of the reply buffers, and commits them with the
  shared deterministic merge (:func:`repro.core.bsp.commit_proposals`).

Because propose is a pure deterministic function of the snapshot and the
merge is driver-side, ``parallel(P=k)`` is **bit-identical** to
``multicore(P=k)`` at the same seed — the conformance suite pins
this.  Observability: each worker reports its sweep wall time per round;
the master records one ``parallel.propose`` span per worker per round
with ``core=worker_id``, so the trace viewer shows one track per real
worker.

Supervision and recovery
------------------------

The schedule above assumes every worker answers every barrier.  The
master therefore *supervises* its workers instead of trusting them:

* every reply is awaited with a liveness check (a dead worker is
  detected the moment its process exits, no timeout needed) and, when
  ``worker_timeout`` is set, a deadline (a *hung* worker is detected
  when the deadline lapses);
* every reply is validated before use — a malformed payload marks the
  worker compromised;
* a failed worker is killed, respawned, re-attached to the current
  level's arena, and sent the same ``("round", verts, None)`` again,
  replaying its exact shard against the unchanged pass snapshot.
  Propose is a pure function of (snapshot, shard) and the gather order
  is fixed, so the commit stream — and therefore the final partition —
  is **bit-identical to a fault-free run at the same seed** no matter
  where a worker dies.  ``tests/test_fault_injection.py``
  proves this at every barrier of every conformance family, using the
  seeded :class:`repro.core.faults.FaultPlan` injection layer this
  module executes worker-side.

Arena lifecycle is guaranteed by :mod:`repro.core.arena`: segments are
registered at creation, released on rebind/close, unlinked by an
``atexit`` hook on interpreter death, and orphans of hard-killed
masters are swept when the next pool starts
(``tests/test_shm_lifecycle.py`` pins all three exit paths).

Warm pools (the serving layer)
------------------------------

Forking ``P`` workers and handshaking them is the cold-start cost every
run pays — the software analogue of the paper's CAM setup the hardware
keeps resident across FindBestCommunity sweeps.  A pool can therefore
outlive a single run: :meth:`_WorkerPool.reset_run` rearms it for the
next job (fresh per-run stats, fresh fault plan, respawn of any worker
that died idle), :meth:`_WorkerPool.end_run` releases the finished run's
arena while keeping the workers alive, and :meth:`_WorkerPool.abort_run`
restores a clean slate (kill + respawn every worker, drop the arena)
after a cancelled or failed run so the pipe protocol cannot carry
stale replies into the next job.  ``run_infomap_parallel(pool=...)``
runs on such a borrowed pool and never closes it; results are
bit-identical to a cold run at the same seed because workers hold no
state between binds.  :mod:`repro.service` builds its
:class:`~repro.service.pool.PoolManager` on exactly these hooks.

The start method defaults to ``fork`` where available (cheapest; workers
inherit the interpreter state) and can be overridden with the
``REPRO_MP_START`` environment variable (``fork`` | ``spawn`` |
``forkserver``).
"""

from __future__ import annotations

import os
import time
import traceback
from dataclasses import dataclass, field

import multiprocessing as mp
from multiprocessing import shared_memory

import numpy as np

from repro.core import arena
from repro.core.bsp import BSPPassRecord, ProposeBackend, run_bsp_infomap
from repro.core.faults import (
    DEFAULT_WORKER_TIMEOUT,
    SLOW_SECONDS,
    FaultInjector,
    FaultPlan,
)
from repro.core.flow import FlowNetwork
from repro.core.infomap import check_engine_options
from repro.core.vectorized import Workspace
from repro.graph.csr import CSRGraph
from repro.obs import metrics as obs_metrics
from repro.obs.logging import get_logger
from repro.obs.spans import record_span, trace_span
from repro.obs.telemetry import ConvergenceTelemetry, TelemetryRecorder

log = get_logger("core.parallel")

__all__ = ["run_infomap_parallel", "ParallelResult", "DeadlineExceeded"]

#: how often the supervisor re-checks liveness while awaiting a reply
_POLL_QUANTUM = 0.02

#: consecutive recoveries of the same reply before the run is declared
#: unrecoverable (a deterministic propose would fail identically forever)
_MAX_RECOVERIES = 3


@dataclass
class ParallelResult:
    """Outcome of a real ``P``-worker run."""

    modules: np.ndarray
    num_modules: int
    codelength: float
    one_level_codelength: float
    levels: int
    num_workers: int
    passes: list[BSPPassRecord]
    #: total worker-side sweep wall seconds, per worker
    worker_propose_seconds: list[float] = field(default_factory=list)
    #: total master-side propose wall (dispatch -> all gathered), all rounds
    propose_seconds: float = 0.0
    #: total shard vertices dispatched to workers, all rounds
    proposed_vertices: int = 0
    #: propose rounds executed (= barriers crossed, at most one per pass)
    rounds: int = 0
    #: O(n) snapshot-state arena writes performed: one per round
    state_writes: int = 0
    #: faults fired by the injected FaultPlan, per kind (empty: no plan)
    faults_injected: dict[str, int] = field(default_factory=dict)
    #: worker failures the supervisor detected, per reason
    #: (``died`` / ``stalled`` / ``corrupt``)
    faults_detected: dict[str, int] = field(default_factory=dict)
    #: workers killed + respawned (their barrier replayed) during the run
    respawns: int = 0
    #: measured-wall-time convergence record (see repro.obs.telemetry)
    telemetry: ConvergenceTelemetry | None = None

    @property
    def sweep_throughput(self) -> float:
        """Shard vertices proposed per master-side propose second.

        The quantity ``benchmarks/bench_parallel_scaling.py`` gates: it
        captures exactly the work the workers parallelize (the sweeps),
        excluding the serial commit/merge.
        """
        if self.propose_seconds <= 0:
            return 0.0
        return self.proposed_vertices / self.propose_seconds

    def summary(self) -> str:
        recovery = (
            f", {self.respawns} respawns" if self.respawns else ""
        )
        return (
            f"ParallelResult({self.num_workers} workers: "
            f"{self.num_modules} modules, L={self.codelength:.4f} bits, "
            f"{self.levels} levels, {len(self.passes)} passes, "
            f"{self.sweep_throughput:,.0f} sweep verts/s{recovery})"
        )


# --------------------------------------------------------------- shm arena

def _layout(
    fields: list[tuple[str, tuple[int, ...], np.dtype]]
) -> tuple[dict[str, tuple[int, tuple[int, ...], str]], int]:
    """8-byte-aligned offsets for the arena's arrays."""
    descr: dict[str, tuple[int, tuple[int, ...], str]] = {}
    off = 0
    for name, shape, dtype in fields:
        dtype = np.dtype(dtype)
        off = (off + 7) & ~7
        descr[name] = (off, shape, dtype.str)
        off += int(np.prod(shape)) * dtype.itemsize
    return descr, max(off, 1)


def _views(
    buf, descr: dict[str, tuple[int, tuple[int, ...], str]]
) -> dict[str, np.ndarray]:
    return {
        name: np.ndarray(shape, dtype=np.dtype(ds), buffer=buf, offset=off)
        for name, (off, shape, ds) in descr.items()
    }


def _net_fields(net: FlowNetwork) -> list[tuple[str, tuple[int, ...], np.dtype]]:
    n, e = net.num_vertices, net.num_arcs
    fields = [
        ("indptr", (n + 1,), np.int64),
        ("indices", (e,), np.int64),
        ("arc_flow", (e,), np.float64),
        ("node_flow", (n,), np.float64),
        ("node_out", (n,), np.float64),
        ("node_in", (n,), np.float64),
        # pass-start snapshot state, rewritten by the master per round
        ("module", (n,), np.int64),
        ("enter", (n,), np.float64),
        ("exit", (n,), np.float64),
        ("flow", (n,), np.float64),
    ]
    if net.directed:
        te = len(net.t_indices)
        fields += [
            ("t_indptr", (n + 1,), np.int64),
            ("t_indices", (te,), np.int64),
            ("t_arc_flow", (te,), np.float64),
        ]
    return fields


def _net_from_views(views: dict[str, np.ndarray], directed: bool) -> FlowNetwork:
    if directed:
        t_indptr = views["t_indptr"]
        t_indices = views["t_indices"]
        t_arc_flow = views["t_arc_flow"]
    else:
        t_indptr = views["indptr"]
        t_indices = views["indices"]
        t_arc_flow = views["arc_flow"]
    return FlowNetwork(
        indptr=views["indptr"],
        indices=views["indices"],
        arc_flow=views["arc_flow"],
        t_indptr=t_indptr,
        t_indices=t_indices,
        t_arc_flow=t_arc_flow,
        node_flow=views["node_flow"],
        directed=directed,
        node_out=views["node_out"],
        node_in=views["node_in"],
    )


# ------------------------------------------------------------ worker side

def _disable_shm_tracking() -> None:
    """Stop this process's resource tracker from claiming attached segments.

    Workers only ever *attach* to arenas the master owns (and unlinks);
    letting the shared resource tracker also register them produces
    double-unregister noise at exit (and, under ``spawn``, spurious
    leaked-segment warnings).  Python 3.13 has ``track=False`` for this;
    we support 3.10+ so we patch the register call instead.
    """
    from multiprocessing import resource_tracker

    orig = resource_tracker.register

    def register(name: str, rtype: str) -> None:
        if rtype == "shared_memory":
            return
        orig(name, rtype)

    resource_tracker.register = register


def _perform_fault(conn, worker_id: int, fault: str | None) -> bool:
    """Execute an injected fault; ``True`` means "reply already handled"
    (the caller must not compute/send the normal reply)."""
    if fault == "kill":
        os._exit(13)  # hard crash: no cleanup, no reply, pipe drops
    if fault == "hang":
        while True:  # wedge until the supervisor's deadline kills us
            time.sleep(3600)
    if fault == "slow":
        time.sleep(SLOW_SECONDS)  # straggle, then answer normally
        return False
    if fault == "corrupt":
        conn.send(("corrupt", worker_id, b"\xde\xad\xbe\xef"))
        return True
    return False


def _worker_main(conn, worker_id: int) -> None:
    """Persistent worker loop: bind arenas, answer propose rounds.

    A ``("round", verts, fault)`` message carries the worker's whole
    pass order; the proposals land in this worker's arena reply buffer
    and only a constant-size ``("done", id, count, wall)`` crosses the
    pipe.
    """
    _disable_shm_tracking()
    shm: shared_memory.SharedMemory | None = None
    views: dict[str, np.ndarray] = {}
    ws = Workspace()
    net: FlowNetwork | None = None

    try:
        while True:
            msg = conn.recv()
            kind = msg[0]
            if kind == "bind":
                _, shm_name, descr, directed = msg
                new = shared_memory.SharedMemory(name=shm_name)
                old_shm, shm = shm, new
                views = _views(shm.buf, descr)
                net = _net_from_views(views, directed)
                ws.bind(net)
                conn.send(("bound", worker_id))
                if old_shm is not None:
                    old_shm.close()
            elif kind == "round":
                _, verts, fault = msg
                if fault is not None and _perform_fault(
                    conn, worker_id, fault
                ):
                    continue
                t0 = time.perf_counter()
                v, t, _ = ws.best_moves(
                    views["module"], views["enter"], views["exit"],
                    views["flow"], verts=verts,
                )
                k = len(v)
                views[f"reply_verts_{worker_id}"][:k] = v
                views[f"reply_targets_{worker_id}"][:k] = t
                conn.send(("done", worker_id, k, time.perf_counter() - t0))
            elif kind == "close":
                break
    except (EOFError, KeyboardInterrupt):
        pass
    except Exception:
        try:
            conn.send(("error", worker_id, traceback.format_exc()))
        except Exception:
            pass
    finally:
        views.clear()
        ws = net = None
        if shm is not None:
            shm.close()
        conn.close()


# ------------------------------------------------------------ master side

def _start_method() -> str:
    env = os.environ.get("REPRO_MP_START")
    if env:
        return env
    return "fork" if "fork" in mp.get_all_start_methods() else "spawn"


def _tagged(msg, tag: str) -> bool:
    """True iff ``msg`` is a control tuple starting with the string
    ``tag`` (numpy payloads make a bare ``msg[0] == tag`` ambiguous)."""
    return (
        isinstance(msg, tuple)
        and len(msg) > 0
        and isinstance(msg[0], str)
        and msg[0] == tag
    )


class _WorkerFault(Exception):
    """Supervisor-internal: a worker failed to deliver a usable reply."""

    def __init__(self, reason: str, detail: str) -> None:
        super().__init__(f"{reason}: {detail}")
        self.reason = reason  # "died" | "stalled" | "corrupt"
        self.detail = detail


class DeadlineExceeded(RuntimeError):
    """The run's job deadline lapsed before the schedule finished.

    Raised master-side by the supervision loop (not by a worker), so the
    run unwinds at a barrier boundary.  Distinct from a worker fault: no
    recovery is attempted — the caller decides whether to abort the pool
    (:meth:`_WorkerPool.abort_run`) and move on, which is what the job
    service does to cancel a job.
    """


def _valid_round_reply(msg, worker: int, cap: int) -> bool:
    """A round reply is ``("done", worker, count, wall_seconds)`` with
    ``count`` proposals sitting in the worker's arena reply buffer
    (``0 <= count <= cap``) — anything else marks the worker
    compromised."""
    return (
        _tagged(msg, "done")
        and len(msg) == 4
        and isinstance(msg[1], int)
        and msg[1] == worker
        and isinstance(msg[2], int)
        and 0 <= msg[2] <= cap
        and isinstance(msg[3], (int, float))
    )


class _WorkerPool(ProposeBackend):
    """BSP backend that ships propose to *supervised* worker processes.

    Beyond executing the propose, the pool is the recovery layer the
    module docstring describes: it detects dead / stalled / corrupt
    workers while gathering replies, respawns them against the current
    arena, and replays the failed shard so the schedule never observes
    the failure.
    """

    engine = "parallel"

    def __init__(
        self,
        workers: int,
        start_method: str | None = None,
        fault_plan: FaultPlan | None = None,
        worker_timeout: float | None = None,
    ) -> None:
        self.workers = workers
        self.worker_timeout = worker_timeout
        self._injector = (
            FaultInjector(fault_plan) if fault_plan is not None else None
        )
        self._ctx = mp.get_context(start_method or _start_method())
        swept = arena.sweep_orphans()  # reclaim leftovers of dead masters
        if swept:
            log.warning("swept %d orphaned shm segment(s): %s",
                        len(swept), ", ".join(swept))
        self._conns: list = [None] * workers
        self._procs: list = [None] * workers
        for p in range(workers):
            self._spawn(p)
        self._shm: shared_memory.SharedMemory | None = None
        self._descr: dict | None = None
        self._directed = False
        self._state: dict[str, np.ndarray] = {}
        self._reply_caps = [0] * workers
        self._level = 0
        self._barrier = 0
        self._closed = False
        #: absolute time.monotonic() cutoff of the current job (None: no
        #: deadline); checked at every barrier and poll quantum
        self.job_deadline: float | None = None
        self.worker_propose_seconds = [0.0] * workers
        self.propose_seconds = 0.0
        self.proposed_vertices = 0
        self.rounds = 0
        self.state_writes = 0
        self.respawns = 0
        self.faults_detected: dict[str, int] = {}

    @property
    def closed(self) -> bool:
        return self._closed

    @property
    def faults_injected(self) -> dict[str, int]:
        return dict(self._injector.injected) if self._injector else {}

    # ------------------------------------------------------- supervision
    def _spawn(self, p: int) -> None:
        parent, child = self._ctx.Pipe(duplex=True)
        proc = self._ctx.Process(
            target=_worker_main, args=(child, p), daemon=True,
            name=f"repro-worker-{p}",
        )
        proc.start()
        child.close()
        old = self._conns[p]
        self._conns[p] = parent
        self._procs[p] = proc
        if old is not None:
            try:
                old.close()
            except OSError:  # pragma: no cover - already torn down
                pass

    def _check_deadline(self) -> None:
        if (
            self.job_deadline is not None
            and time.monotonic() >= self.job_deadline
        ):
            raise DeadlineExceeded(
                f"job deadline lapsed at barrier {self._barrier}"
            )

    def _try_send(self, p: int, msg) -> bool:
        try:
            self._conns[p].send(msg)
            return True
        except (BrokenPipeError, OSError):
            return False

    def _await_msg(self, p: int):
        """Next message from worker ``p``, under supervision.

        Raises :class:`_WorkerFault` the moment the worker process dies
        (no deadline needed) or, with ``worker_timeout`` set, when the
        reply deadline lapses — the heartbeat that catches hangs.
        """
        conn, proc = self._conns[p], self._procs[p]
        deadline = (
            None if self.worker_timeout is None
            else time.monotonic() + self.worker_timeout
        )
        while True:
            self._check_deadline()
            if conn.poll(_POLL_QUANTUM):
                try:
                    return conn.recv()
                except (EOFError, OSError):
                    raise _WorkerFault(
                        "died",
                        f"pipe closed mid-reply (exitcode={proc.exitcode})",
                    ) from None
            if not proc.is_alive():
                if conn.poll(0):  # drain a final buffered reply
                    continue
                raise _WorkerFault("died", f"exitcode={proc.exitcode}")
            if deadline is not None and time.monotonic() >= deadline:
                raise _WorkerFault(
                    "stalled", f"no reply within {self.worker_timeout}s"
                )

    def _recover(self, p: int, reason: str, detail: str) -> None:
        """Kill worker ``p``, respawn it, and re-attach it to the current
        arena.  On return the worker is idle and bound — the caller
        replays whatever message the failure interrupted."""
        t0 = time.perf_counter()
        self.faults_detected[reason] = self.faults_detected.get(reason, 0) + 1
        log.warning(
            "worker %d %s (%s); respawning at barrier %d",
            p, reason, detail, self._barrier,
        )
        proc = self._procs[p]
        if proc is not None:
            if proc.is_alive():
                proc.kill()
            proc.join(timeout=5)
        self._spawn(p)
        self.respawns += 1
        if self._shm is not None:
            if not self._try_send(
                p, ("bind", self._shm.name, self._descr, self._directed)
            ):
                raise RuntimeError(
                    f"parallel worker {p} died again during recovery "
                    f"(bind dispatch failed)"
                )
            try:
                msg = self._await_msg(p)
            except _WorkerFault as f:
                raise RuntimeError(
                    f"parallel worker {p} failed again during recovery ({f})"
                ) from None
            if not _tagged(msg, "bound"):
                raise RuntimeError(
                    f"parallel worker {p} sent a bad bind ack during "
                    f"recovery: {type(msg).__name__}"
                )
        record_span(
            "parallel.respawn", time.perf_counter() - t0,
            worker=p, barrier=self._barrier, reason=reason,
        )

    def _gather_bound(self, p: int) -> None:
        """Await worker ``p``'s bind ack; recover it on any failure."""
        try:
            msg = self._await_msg(p)
        except _WorkerFault as f:
            self._recover(p, f.reason, f.detail)  # recovery rebinds itself
            return
        if _tagged(msg, "error"):
            raise RuntimeError(f"parallel worker {msg[1]} failed:\n{msg[2]}")
        if not _tagged(msg, "bound"):
            self._recover(p, "corrupt", "bad bind ack")

    def _gather_round(self, p: int, shard: np.ndarray):
        """Await worker ``p``'s proposals for ``shard``, recovering and
        replaying the shard on death / stall / corruption.

        Replay is safe and deterministic: the snapshot arrays in the
        arena are untouched until every shard of the round is gathered,
        and propose is a pure function of (snapshot, shard).

        Returns ``(verts, targets, wall_seconds)``; the arrays are
        copied out of the worker's arena reply buffer (the buffer is
        reused next round, the commit stream must not alias it).
        """
        cap = self._reply_caps[p]
        for _attempt in range(_MAX_RECOVERIES):
            try:
                msg = self._await_msg(p)
            except _WorkerFault as f:
                self._recover(p, f.reason, f.detail)
                self._conns[p].send(("round", shard, None))
                continue
            if _tagged(msg, "error"):
                raise RuntimeError(
                    f"parallel worker {msg[1]} failed:\n{msg[2]}"
                )
            if not _valid_round_reply(msg, p, cap):
                self._recover(
                    p, "corrupt",
                    f"malformed round reply ({type(msg).__name__})",
                )
                self._conns[p].send(("round", shard, None))
                continue
            count = msg[2]
            verts = np.array(self._state[f"reply_verts_{p}"][:count])
            targets = np.array(self._state[f"reply_targets_{p}"][:count])
            return verts, targets, msg[3]
        raise RuntimeError(
            f"parallel worker {p} failed {_MAX_RECOVERIES} consecutive "
            f"recoveries at barrier {self._barrier}; giving up"
        )

    # ------------------------------------------------------------ hooks
    def on_barrier(self, level: int, pass_idx: int, barrier: int) -> None:
        self._level = level
        self._barrier = barrier
        self._check_deadline()

    def begin_level(self, net, level, blocks, ws) -> None:
        # reply buffer capacity per worker = its block length: every
        # pass order is a subset of the block, proposals a subset of
        # the shard, so no round can outgrow its buffer
        self._reply_caps = [len(b) for b in blocks]
        fields = _net_fields(net)
        for p, cap in enumerate(self._reply_caps):
            fields.append((f"reply_verts_{p}", (cap,), np.int64))
            fields.append((f"reply_targets_{p}", (cap,), np.int64))
        descr, size = _layout(fields)
        new = arena.create_arena(size)
        views = _views(new.buf, descr)
        skip = {"module", "enter", "exit", "flow"}
        for name in views:
            if name in skip or name.startswith("reply_"):
                continue
            views[name][:] = getattr(net, name)
        old = self._shm
        # current-arena info first: a recovery during the ack wait must
        # rebind the fresh worker to *this* arena
        self._shm, self._descr, self._directed = new, descr, net.directed
        self._state = views
        pending = []
        for p in range(self.workers):
            if self._try_send(p, ("bind", new.name, descr, net.directed)):
                pending.append(p)
            else:  # died before the handshake: recovery rebinds + acks
                self._recover(p, "died", "pipe broken at bind")
        for p in pending:
            self._gather_bound(p)
        arena.release_arena(old)  # every worker has dropped the old arena

    def propose(self, shards, module, enter, exit_, flow):
        st = self._state
        st["module"][:] = module
        st["enter"][:] = enter
        st["exit"][:] = exit_
        st["flow"][:] = flow
        self.state_writes += 1
        t0 = time.perf_counter()
        self.rounds += 1
        dispatched = []
        for p, shard in shards:
            if len(shard) == 0:
                continue
            fault = None
            if self._injector is not None:
                spec = self._injector.pop(p, self._barrier, self._level)
                if spec is not None:
                    fault = spec.kind
                    log.info("injecting fault %s (barrier %d, level %d)",
                             spec, self._barrier, self._level)
            if not self._try_send(p, ("round", shard, fault)):
                self._recover(p, "died", "pipe broken at dispatch")
                self._conns[p].send(("round", shard, None))
            dispatched.append((p, shard))
        verts_parts: list[np.ndarray] = []
        targ_parts: list[np.ndarray] = []
        for p, shard in dispatched:
            v, t, worker_wall = self._gather_round(p, shard)
            self.worker_propose_seconds[p] += worker_wall
            record_span(
                "parallel.propose", worker_wall, core=p,
                worker=p, verts=len(shard), proposals=len(v),
            )
            verts_parts.append(v)
            targ_parts.append(t)
        self.propose_seconds += time.perf_counter() - t0
        self.proposed_vertices += sum(len(s) for _, s in dispatched)
        if not verts_parts:
            return np.empty(0, np.int64), np.empty(0, np.int64)
        return np.concatenate(verts_parts), np.concatenate(targ_parts)

    # ------------------------------------------------- multi-run lifecycle
    def reset_run(
        self,
        fault_plan: FaultPlan | None = None,
        worker_timeout: float | None = None,
    ) -> None:
        """Rearm a warm pool for its next run.

        Zeroes every per-run stat (propose walls, respawns, fault
        counts), installs the next run's fault plan / reply deadline,
        clears any job deadline, and silently respawns workers that died
        while the pool sat idle — so job N+1 starts from the same state
        a cold pool would, minus the fork+handshake it just skipped.
        """
        if self._closed:
            raise RuntimeError("cannot reset a closed worker pool")
        self.worker_timeout = worker_timeout
        self._injector = (
            FaultInjector(fault_plan) if fault_plan is not None else None
        )
        self.job_deadline = None
        self._level = 0
        self._barrier = 0
        self.worker_propose_seconds = [0.0] * self.workers
        self.propose_seconds = 0.0
        self.proposed_vertices = 0
        self.rounds = 0
        self.state_writes = 0
        self.respawns = 0
        self.faults_detected = {}
        for p in range(self.workers):
            proc = self._procs[p]
            if proc is None or not proc.is_alive():
                log.warning("worker %d died while pool was idle; respawning", p)
                if proc is not None:
                    proc.join(timeout=5)
                self._spawn(p)

    def end_run(self) -> None:
        """Release the finished run's arena but keep the workers warm.

        Idempotent.  Workers keep their (now unlinked) mapping until the
        next run's first ``bind`` swaps it out — the segment file itself
        is gone from ``/dev/shm`` the moment this returns, so a warm
        pool parked between jobs holds zero observable segments.
        """
        self._state = {}
        self._descr = None
        arena.release_arena(self._shm)
        self._shm = None
        self.job_deadline = None

    def abort_run(self) -> None:
        """Restore a clean slate after a cancelled or failed run.

        A run that unwound mid-schedule (deadline, unrecoverable worker,
        interrupt) may leave workers mid-compute with replies still in
        their pipes; reusing those pipes would corrupt the next run's
        protocol.  Kill and respawn every worker, then drop the arena.
        Idempotent; the pool is warm (processes alive, unbound) after.
        """
        if self._closed:
            return
        for p in range(self.workers):
            proc = self._procs[p]
            if proc is not None:
                if proc.is_alive():
                    proc.kill()
                proc.join(timeout=5)
            self._spawn(p)
        self.end_run()

    def close(self) -> None:
        if self._closed:
            return
        self._closed = True
        try:
            for conn in self._conns:
                if conn is None:
                    continue
                try:
                    conn.send(("close",))
                except (BrokenPipeError, OSError):
                    pass
            deadline = time.monotonic() + 5.0
            for proc in self._procs:
                if proc is None:
                    continue
                proc.join(timeout=max(0.1, deadline - time.monotonic()))
                if proc.is_alive():  # wedged or still mid-fault: reap hard
                    proc.kill()
                    proc.join(timeout=5)
            for conn in self._conns:
                if conn is None:
                    continue
                try:
                    conn.close()
                except OSError:  # pragma: no cover - already closed
                    pass
        finally:
            self._conns = [None] * self.workers
            self._procs = [None] * self.workers
            self._state = {}
            self._descr = None
            arena.release_arena(self._shm)
            self._shm = None


def run_infomap_parallel(
    graph: CSRGraph,
    workers: int = 2,
    tau: float = 0.15,
    max_levels: int = 20,
    max_passes_per_level: int = 10,
    seed: int = 0,
    start_method: str | None = None,
    fault_plan: FaultPlan | str | None = None,
    worker_timeout: float | None = None,
    pool: "_WorkerPool | None" = None,
    deadline: float | None = None,
    init_module: np.ndarray | None = None,
    init_active: np.ndarray | None = None,
) -> ParallelResult:
    """Run Infomap with ``workers`` supervised worker processes.

    Bit-identical to ``run_infomap_multicore(num_cores=workers)`` at
    equal ``seed`` (both run the :mod:`repro.core.bsp`
    schedule; only where the propose executes differs).  Deterministic
    for a fixed seed and worker count — **including under injected or
    real worker failures**: a worker that dies, hangs past the deadline,
    or replies garbage is respawned and its barrier replayed, without
    changing the result.

    Parameters
    ----------
    workers:
        Number of worker processes (each owns one shard of the vertices,
        edge-balanced), in ``[1, MAX_WORKERS]``; a single worker still
        runs in a separate process.
    seed:
        Seeds the commit's conflict-backoff RNG.
    start_method:
        ``fork`` / ``spawn`` / ``forkserver``; defaults to ``fork`` where
        available, overridable via ``REPRO_MP_START``.
    fault_plan:
        Optional :class:`repro.core.faults.FaultPlan` (or its string
        spelling, e.g. ``"kill@w0:b1"`` or ``"random:42:2"``) injecting
        worker failures for chaos testing.
    worker_timeout:
        Reply deadline in seconds; a worker silent past it is treated
        as hung and respawned.  ``None`` (default) waits indefinitely
        for live workers — death is still detected instantly — except
        when a ``fault_plan`` is given, where it defaults to
        :data:`repro.core.faults.DEFAULT_WORKER_TIMEOUT` so injected
        hangs terminate.
    pool:
        A warm :class:`_WorkerPool` to run on instead of forking a new
        one (the serving layer's amortization: job N+1 skips
        fork+handshake).  Its worker count must equal ``workers``.  The
        pool is *borrowed*: it is rearmed via ``reset_run`` on entry,
        parked via ``end_run`` on success, restored via ``abort_run``
        on failure — never closed.  Results are bit-identical to a
        cold run at the same seed.
    deadline:
        Optional wall-clock budget in seconds for the whole run; when
        it lapses the run is cancelled at the next barrier or poll
        quantum with :class:`DeadlineExceeded`.
    init_module / init_active:
        Warm-start assignment and first-pass restriction for level 0
        (see :func:`repro.core.bsp.run_bsp_infomap`) — the incremental
        recompute path of :mod:`repro.core.dynamic`.  A restricted
        first-pass order is always a subset of each worker's block, so
        the worker protocol and reply buffers are unchanged.
    """
    check_engine_options(
        "parallel", workers=workers, seed=seed, tau=tau,
        max_levels=max_levels, max_passes_per_level=max_passes_per_level,
        fault_plan=fault_plan, worker_timeout=worker_timeout,
        deadline=deadline,
    )
    if isinstance(fault_plan, str):
        fault_plan = FaultPlan.parse(fault_plan, workers=workers)
    if worker_timeout is None and fault_plan is not None:
        worker_timeout = DEFAULT_WORKER_TIMEOUT

    owns_pool = pool is None
    if owns_pool:
        pool = _WorkerPool(
            workers, start_method,
            fault_plan=fault_plan, worker_timeout=worker_timeout,
        )
    else:
        if pool.closed:
            raise ValueError("pool is closed")
        if pool.workers != workers:
            raise ValueError(
                f"pool has {pool.workers} workers, run asked for {workers}"
            )
        pool.reset_run(fault_plan=fault_plan, worker_timeout=worker_timeout)
    if deadline is not None:
        pool.job_deadline = time.monotonic() + deadline
    recorder = TelemetryRecorder("parallel", num_cores=workers)
    try:
        with trace_span("infomap.run", engine="parallel", workers=workers):
            outcome = run_bsp_infomap(
                graph,
                pool,
                workers,
                seed=seed,
                tau=tau,
                max_levels=max_levels,
                max_passes_per_level=max_passes_per_level,
                recorder=recorder,
                init_module=init_module,
                init_active=init_active,
            )
    except BaseException:
        # a run that unwound mid-schedule cannot trust the pipes again
        if owns_pool:
            pool.close()
        else:
            pool.abort_run()
        raise
    else:
        if owns_pool:
            pool.close()
        else:
            pool.end_run()

    if obs_metrics.is_enabled():
        reg = obs_metrics.get_registry()
        for p, s in enumerate(pool.worker_propose_seconds):
            reg.gauge(
                "parallel.worker_propose_seconds", engine="parallel", worker=p
            ).set(s)
        reg.gauge("parallel.workers", engine="parallel").set(workers)
        reg.gauge("parallel.propose_seconds", engine="parallel").set(
            pool.propose_seconds
        )
        reg.gauge("parallel.rounds", engine="parallel").set(pool.rounds)
        reg.gauge("parallel.state_writes", engine="parallel").set(
            pool.state_writes
        )
        for kind, n in pool.faults_injected.items():
            reg.counter(
                "parallel.faults.injected", engine="parallel", kind=kind
            ).inc(n)
        for reason, n in pool.faults_detected.items():
            reg.counter(
                "parallel.faults.detected", engine="parallel", reason=reason
            ).inc(n)
        if pool.respawns:
            reg.counter("parallel.respawns", engine="parallel").inc(
                pool.respawns
            )
    log.debug("run done: %s", outcome.telemetry.summary())

    return ParallelResult(
        modules=outcome.modules,
        num_modules=outcome.num_modules,
        codelength=outcome.codelength,
        one_level_codelength=outcome.one_level_codelength,
        levels=outcome.levels,
        num_workers=workers,
        passes=outcome.passes,
        worker_propose_seconds=pool.worker_propose_seconds,
        propose_seconds=pool.propose_seconds,
        proposed_vertices=pool.proposed_vertices,
        rounds=pool.rounds,
        state_writes=pool.state_writes,
        faults_injected=pool.faults_injected,
        faults_detected=dict(pool.faults_detected),
        respawns=pool.respawns,
        telemetry=outcome.telemetry,
    )
