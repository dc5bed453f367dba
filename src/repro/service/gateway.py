"""Asyncio front door: JSONL jobs over a socket, sharded JobServices.

The :class:`Gateway` is the serving layer's network face (`repro serve
--listen HOST:PORT`, ROADMAP item 2): a long-lived asyncio TCP server
that accepts one JSON job object per line (the jobsfile schema of
:mod:`repro.service.jobsfile` plus the gateway envelope below), applies
per-tenant token-bucket rate limits and queue-depth backpressure,
routes accepted jobs across N shards — each a full
:class:`~repro.service.service.JobService` (warm
:class:`~repro.service.pool.PoolManager` pools + shard-local
:class:`~repro.service.cache.ResultCache`) driven by its own
single-thread executor — and streams one JSON result line back per job
**as each completes**, never in submission order.

Everything job-level stays *structured*: an invalid line, a
rate-limited tenant, or a full shard queue answers with a
``status="rejected"`` row (``reject`` naming the gate that refused it);
the connection, the other tenants, and the other shards never notice.
One bad tenant cannot take down the fleet — exactly the
JobResult-as-data contract of the in-process facade, extended over the
wire (``tests/test_gateway.py::test_one_bad_tenant_isolation``).

**Shard routing** is rendezvous hashing
(:class:`~repro.service.router.RendezvousRouter`) on the job's *cache
key* — and, for delta jobs, on the cache key of the **base** partition
they warm-start from — so a repeated job or a delta riding on a cached
base always lands on the shard whose ResultCache owns the result
(``test_shard_affinity_cache_hits``).

**Wire envelope** (gateway-level keys, stripped before the jobsfile
shape check; everything else is the documented jobsfile schema):

``tenant``
    Rate-limit bucket this line bills against (default ``"default"``).
``id``
    Opaque client correlation token, echoed into the response verbatim
    (results stream back out of order; this is how clients re-pair
    them).
``at``
    Virtual-time stamp in seconds for the rate-limit decision — only
    honoured when the gateway runs with ``virtual_time=True``, which
    makes every accept/reject decision a pure function of the request
    stream (the determinism the traffic harness and tests rely on).
``return_modules``
    When true, a completed result carries the full partition as a JSON
    array — the bit-identity proof channel for ``test_gateway.py``.
``session`` / ``ops`` / ``flush`` / ``close``
    Live-arrival ingest (below).

**Live-arrival ingest** (closes ROADMAP item 3's remaining "live
arrival semantics"): a line with ``{"session": NAME, <graph source>,
<spec fields>}`` opens a named delta session — the gateway runs the
base job (caching its partition on the owning shard) and then buffers
subsequent ``{"session": NAME, "ops": [...]}`` edge operations instead
of running a job per arrival.  Buffered ops are flushed as **one
cumulative delta job** (base graph + every op since the base, warm
started from the base partition via ``base_key``) when the dirty
frontier of the pending ops (:func:`repro.core.dynamic.dirty_frontier`)
reaches ``frontier_budget`` of the graph's vertices — the same
threshold at which an incremental refresh stops being cheaper than the
work it saves — or immediately on ``"flush": true`` / ``"close": true``
/ end of stream.  Sub-budget arrivals answer with a ``buffered`` ack
carrying the current frontier share, so clients can observe the
batching decision.
"""

from __future__ import annotations

import asyncio
import dataclasses
import json
import math
import time
from concurrent.futures import ThreadPoolExecutor
from typing import Any

import numpy as np

from repro.obs import metrics as obs_metrics
from repro.obs.logging import get_logger
from repro.service.cache import base_cache_key, cache_key
from repro.service.delta import Delta
from repro.service.jobs import STATUS_REJECTED, JobResult, JobSpec
from repro.service.jobsfile import _GraphResolver, spec_fields_from_json
from repro.service.router import RendezvousRouter, TokenBucket
from repro.service.service import JobService
from repro.util.validation import is_number

__all__ = ["GatewayConfig", "Gateway", "REJECT_INVALID",
           "REJECT_RATE_LIMIT", "REJECT_BACKPRESSURE", "graph_to_wire"]

log = get_logger("gateway")

#: gateway-envelope keys stripped from a line before the jobsfile
#: shape check (everything else must be jobsfile schema)
_ENVELOPE_KEYS = frozenset(
    {"tenant", "id", "at", "return_modules", "session", "ops", "flush",
     "close"}
)

#: longest request line the gateway buffers (asyncio's default stream
#: limit, made explicit): it bounds per-connection memory, and a longer
#: line answers one ``invalid`` row and is skipped unparsed
MAX_LINE_BYTES = 65536

#: which admission gate refused a rejected line
REJECT_INVALID = "invalid"
REJECT_RATE_LIMIT = "rate_limit"
REJECT_BACKPRESSURE = "backpressure"


def graph_to_wire(graph) -> dict:
    """The inline ``edges`` jobsfile spelling of a ``CSRGraph``.

    Canonical arcs (each undirected edge once, loops once), so the
    receiver rebuilds a graph with the same :func:`graph_digest` — the
    lossless way to ship small graphs over the wire, including ones
    with isolated vertices that an edge-list file round-trip would
    drop.
    """
    src, dst, w = graph.edge_array()
    if not graph.directed:
        keep = src <= dst
        src, dst, w = src[keep], dst[keep], w[keep]
    return {
        "edges": {
            "num_vertices": int(graph.num_vertices),
            "directed": bool(graph.directed),
            "name": graph.name,
            "arcs": [
                [int(u), int(v), float(x)]
                for u, v, x in zip(src.tolist(), dst.tolist(), w.tolist())
            ],
        }
    }


@dataclasses.dataclass(frozen=True)
class GatewayConfig:
    """Everything that shapes admission, routing, and ingest."""

    #: number of JobService shards (each: warm pools + result cache)
    shards: int = 2
    #: per-shard pending-job bound; a put past it rejects structurally
    queue_depth: int = 64
    #: per-shard ResultCache capacity (0 disables shard caches)
    cache_entries: int = 128
    #: per-tenant token refill rate, jobs/second
    tenant_rate: float = 50.0
    #: per-tenant burst capacity, jobs
    tenant_burst: float = 100.0
    #: concurrent client connections; surplus are refused with a row
    max_connections: int = 64
    #: flush a delta session when pending ops' dirty frontier reaches
    #: this share of the graph's vertices (matches warm_refresh's
    #: full-rerun threshold — past it, batching bigger buys nothing)
    frontier_budget: float = 0.25
    #: honour per-line ``at`` stamps for rate-limit decisions instead
    #: of the wall clock (deterministic admission for tests/harness)
    virtual_time: bool = False
    #: multiprocessing start method for shard pools.  ``None`` means
    #: ``"spawn"`` here — NOT the engine-wide fork default: the gateway
    #: process runs an event loop plus shard executor threads, and a
    #: ``fork()`` from a threaded process can deadlock the child on an
    #: inherited lock.  Worse, a forked worker inherits every open
    #: client socket fd, so a long-lived warm pool silently holds
    #: connections open after the server half-closes them — clients
    #: waiting for EOF wait forever.  Spawned workers inherit no fds.
    start_method: str | None = None

    def validate(self) -> None:
        if not isinstance(self.shards, int) or self.shards < 1:
            raise ValueError("shards must be an int >= 1")
        if not isinstance(self.queue_depth, int) or self.queue_depth < 1:
            raise ValueError("queue_depth must be an int >= 1")
        if self.max_connections < 1:
            raise ValueError("max_connections must be >= 1")
        if not (0.0 < self.frontier_budget <= 1.0):
            raise ValueError("frontier_budget must be in (0, 1]")
        TokenBucket(self.tenant_rate, self.tenant_burst)  # raises if bad


class _Shard:
    """One JobService behind a bounded queue and a single worker thread.

    The executor serialises all touches of the shard's JobService (it
    is not thread-safe and does not need to be); the asyncio queue in
    front of it is the backpressure boundary.
    """

    def __init__(self, name: str, config: GatewayConfig) -> None:
        self.name = name
        # one one-job batch per request: admission happens at the
        # gateway queue, never at the service's depth bound
        self.service = JobService(
            cache_entries=config.cache_entries,
            start_method=config.start_method or "spawn",
        )
        self.queue: asyncio.Queue = asyncio.Queue(maxsize=config.queue_depth)
        self.executor = ThreadPoolExecutor(
            max_workers=1, thread_name_prefix=f"gw-{name}"
        )
        self.jobs_run = 0

    def run_one(self, spec: JobSpec) -> JobResult:
        """Execute one spec on this shard (called on the shard thread)."""
        self.jobs_run += 1
        return self.service.run_batch([spec])[0]

    def close(self) -> None:
        self.executor.shutdown(wait=True)
        self.service.close()


class _Session:
    """Live-ingest state for one named delta session on a connection."""

    __slots__ = ("name", "graph", "fields", "base_key", "meta", "ops",
                 "pending_dirty", "flushes")

    def __init__(self, name: str, graph, fields: dict, base_key: str,
                 meta: dict) -> None:
        self.name = name
        self.graph = graph
        self.fields = fields          # spec fields of the base job
        self.base_key = base_key      # warm-start source + route key
        self.meta = meta              # opener's envelope (tenant, id)
        self.ops: list[tuple] = []    # cumulative since the base job
        self.pending_dirty: set[int] = set()  # dirty since last flush
        self.flushes = 0


class _Conn:
    """Per-connection state: graph cache, sessions, in-flight results."""

    __slots__ = ("resolver", "sessions", "write_lock", "tasks", "dead",
                 "lineno")

    def __init__(self) -> None:
        self.resolver = _GraphResolver()
        self.sessions: dict[str, _Session] = {}
        self.write_lock = asyncio.Lock()
        self.tasks: set[asyncio.Task] = set()
        self.dead = False
        self.lineno = 0


class Gateway:
    """The asyncio front door over N JobService shards.

    Lifecycle::

        gw = Gateway(GatewayConfig(shards=2))
        await gw.start("127.0.0.1", 0)     # port 0 = ephemeral
        ...                                # gw.port is now bound
        await gw.stop()

    :meth:`pause` / :meth:`resume` gate the shard workers without
    touching admission — queues fill deterministically while paused,
    which is how the backpressure tests observe exact reject counts.
    """

    def __init__(self, config: GatewayConfig | None = None) -> None:
        self.config = config or GatewayConfig()
        self.config.validate()
        self.router = RendezvousRouter(self.config.shards)
        self.shards = [_Shard(name, self.config)
                       for name in self.router.names]
        self._buckets: dict[str, TokenBucket] = {}
        # virtual time is PER TENANT: a bucket's decisions must be a
        # pure function of that tenant's own ``at`` stamps, independent
        # of how other tenants' lines interleave on the wire (the soak
        # reproducibility contract)
        self._vclocks: dict[str, float] = {}
        self._seq = 0
        self._connections = 0
        self._server: asyncio.AbstractServer | None = None
        self._workers: list[asyncio.Task] = []
        self._resume = asyncio.Event()
        self._resume.set()
        self.stats = {
            "accepted": 0, "rejected": 0, "streamed": 0,
            "connections": 0, "truncated_lines": 0, "flushes": 0,
            "buffered_ops": 0,
        }

    # ---------------------------------------------------------- lifecycle
    @property
    def port(self) -> int:
        if self._server is None:
            raise RuntimeError("gateway is not started")
        return self._server.sockets[0].getsockname()[1]

    async def start(self, host: str = "127.0.0.1", port: int = 0) -> None:
        if self._server is not None:
            raise RuntimeError("gateway already started")
        loop = asyncio.get_running_loop()
        self._workers = [
            loop.create_task(self._shard_worker(shard), name=f"gw-{shard.name}")
            for shard in self.shards
        ]
        self._server = await asyncio.start_server(
            self._handle, host, port, limit=MAX_LINE_BYTES
        )
        self._gauge("gateway.shards", len(self.shards))

    async def stop(self) -> None:
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None
        for t in self._workers:
            t.cancel()
        if self._workers:
            await asyncio.gather(*self._workers, return_exceptions=True)
        self._workers = []
        for shard in self.shards:
            shard.close()

    def pause(self) -> None:
        """Stop shard workers from consuming (admission keeps running)."""
        self._resume.clear()

    def resume(self) -> None:
        self._resume.set()

    # ------------------------------------------------------ shard workers
    async def _shard_worker(self, shard: _Shard) -> None:
        loop = asyncio.get_running_loop()
        while True:
            await self._resume.wait()
            spec, fut = await shard.queue.get()
            self._gauge("gateway.queue.depth", shard.queue.qsize(),
                        shard=shard.name)
            try:
                result = await loop.run_in_executor(
                    shard.executor, shard.run_one, spec
                )
            except asyncio.CancelledError:
                if not fut.done():
                    fut.cancel()
                raise
            except Exception as exc:  # pragma: no cover - defensive
                result = JobResult(
                    job_id=-1, status="failed",
                    error=f"{type(exc).__name__}: {exc}",
                )
            if not fut.done():
                fut.set_result(result)
            shard.queue.task_done()

    # ------------------------------------------------------- connections
    async def _handle(self, reader: asyncio.StreamReader,
                      writer: asyncio.StreamWriter) -> None:
        if self._connections >= self.config.max_connections:
            try:
                writer.write(_dumps({
                    "status": STATUS_REJECTED, "reject": REJECT_BACKPRESSURE,
                    "error": f"connection limit "
                             f"({self.config.max_connections}) reached",
                }))
                await writer.drain()
            except (ConnectionError, OSError):
                pass
            writer.close()
            self._count("gateway.connections.refused")
            return
        self._connections += 1
        self.stats["connections"] += 1
        self._count("gateway.connections")
        conn = _Conn()
        try:
            while True:
                try:
                    raw = await reader.readuntil(b"\n")
                except asyncio.IncompleteReadError as exc:
                    raw = exc.partial  # end of stream: b"" or a tail
                except asyncio.LimitOverrunError as exc:
                    conn.lineno += 1
                    await self._reject(
                        conn, writer, {}, REJECT_INVALID,
                        f"line {conn.lineno}: longer than "
                        f"{MAX_LINE_BYTES} bytes",
                    )
                    if not await _skip_line(reader, exc.consumed):
                        break
                    continue
                if not raw:
                    break
                conn.lineno += 1
                truncated_tail = not raw.endswith(b"\n")
                try:
                    obj = json.loads(raw)
                except (ValueError, RecursionError) as exc:
                    # ValueError covers bad JSON and bytes that are not
                    # UTF-8; RecursionError, nesting too deep to parse
                    if truncated_tail:
                        # the stream died mid-line: nothing to answer,
                        # nothing to blame on the (gone) client
                        self.stats["truncated_lines"] += 1
                        self._count("gateway.truncated_lines")
                        log.warning("dropping truncated tail line %d",
                                    conn.lineno)
                        break
                    await self._reject(
                        conn, writer, {}, REJECT_INVALID,
                        f"line {conn.lineno}: not JSON: {exc}",
                    )
                    continue
                await self._process_line(conn, writer, obj)
                if truncated_tail:
                    break
        except (ConnectionError, OSError):
            conn.dead = True
        finally:
            if not conn.dead:
                # end of stream: flush live sessions, then let every
                # in-flight result stream out before closing
                try:
                    for name in list(conn.sessions):
                        await self._flush_session(
                            conn, writer, conn.sessions[name], {},
                            close=True, why="eof",
                        )
                except (ConnectionError, OSError):
                    conn.dead = True
            if conn.tasks:
                await asyncio.gather(*conn.tasks, return_exceptions=True)
            try:
                writer.close()
                await writer.wait_closed()
            except (ConnectionError, OSError):
                pass
            self._connections -= 1

    # ---------------------------------------------------------- admission
    async def _process_line(self, conn: _Conn, writer: asyncio.StreamWriter,
                            obj: Any) -> None:
        where = f"line {conn.lineno}"
        if not isinstance(obj, dict):
            await self._reject(conn, writer, {}, REJECT_INVALID,
                               f"{where}: expected a JSON object, got "
                               f"{type(obj).__name__}")
            return
        meta = {k: obj[k] for k in ("tenant", "id", "return_modules")
                if k in obj}
        tenant = meta.get("tenant", "default")
        if not isinstance(tenant, str) or not tenant:
            await self._reject(conn, writer, meta, REJECT_INVALID,
                               f"{where}: 'tenant' must be a non-empty "
                               f"string")
            return
        meta["tenant"] = tenant
        at = obj.get("at")
        if at is not None:
            if not is_number(at):
                await self._reject(conn, writer, meta, REJECT_INVALID,
                                   f"{where}: 'at' must be a number")
                return
            self._vclocks[tenant] = max(
                self._vclocks.get(tenant, 0.0), float(at)
            )

        if "session" in obj:
            await self._process_session_line(conn, writer, obj, meta, where)
            return

        core = {k: v for k, v in obj.items() if k not in _ENVELOPE_KEYS}
        try:
            fields = spec_fields_from_json(core, where=where)
            graph = conn.resolver.resolve(core, where)
            spec = JobSpec(graph=graph, **fields)
            spec.validate()
        except (ValueError, OSError, TypeError) as exc:
            await self._reject(conn, writer, meta, REJECT_INVALID, str(exc))
            return
        await self._admit(conn, writer, meta, spec)

    async def _admit(self, conn: _Conn, writer: asyncio.StreamWriter,
                     meta: dict, spec: JobSpec,
                     session: _Session | None = None) -> bool:
        """Rate-limit, route, and enqueue a validated spec.

        Returns True iff the job was accepted (a result will stream
        back later); every refusal has already answered with a
        structured row.
        """
        tenant = meta["tenant"]
        if not self._bucket(tenant).try_acquire(
            now=self._vclocks.get(tenant, 0.0)
            if self.config.virtual_time else None
        ):
            await self._reject(
                conn, writer, meta, REJECT_RATE_LIMIT,
                f"tenant {tenant!r} over rate limit "
                f"({self.config.tenant_rate}/s, "
                f"burst {self.config.tenant_burst})",
                session=session,
            )
            return False
        route_key = self._route_key(spec)
        shard = self.shards[self.router.route(route_key)]
        fut = asyncio.get_running_loop().create_future()
        try:
            shard.queue.put_nowait((spec, fut))
        except asyncio.QueueFull:
            await self._reject(
                conn, writer, meta, REJECT_BACKPRESSURE,
                f"shard {shard.name} queue full "
                f"({self.config.queue_depth} pending)",
                shard=shard.name, session=session,
            )
            return False
        self.stats["accepted"] += 1
        self._count("gateway.jobs.accepted")
        self._gauge("gateway.queue.depth", shard.queue.qsize(),
                    shard=shard.name)
        task = asyncio.get_running_loop().create_task(
            self._deliver(conn, writer, meta, shard, fut, session)
        )
        conn.tasks.add(task)
        task.add_done_callback(conn.tasks.discard)
        return True

    def _route_key(self, spec: JobSpec) -> str:
        """What rendezvous hashing routes on.

        Delta jobs route by the cache key of the *base* partition they
        warm-start from (explicit ``base_key`` or the derived one), so
        they land on the shard whose cache holds it; everything else
        routes by its own cache key.
        """
        if spec.delta is not None:
            return base_cache_key(spec)
        return cache_key(spec)

    def _bucket(self, tenant: str) -> TokenBucket:
        bucket = self._buckets.get(tenant)
        if bucket is None:
            if self.config.virtual_time:
                clock = lambda: self._vclocks.get(tenant, 0.0)  # noqa: E731
            else:
                clock = time.monotonic
            bucket = TokenBucket(self.config.tenant_rate,
                                 self.config.tenant_burst, clock=clock)
            self._buckets[tenant] = bucket
        return bucket

    # ----------------------------------------------------------- sessions
    async def _process_session_line(
        self, conn: _Conn, writer: asyncio.StreamWriter, obj: dict,
        meta: dict, where: str,
    ) -> None:
        name = obj["session"]
        if not isinstance(name, str) or not name:
            await self._reject(conn, writer, meta, REJECT_INVALID,
                               f"{where}: 'session' must be a non-empty "
                               f"string")
            return
        sess = conn.sessions.get(name)
        if sess is None:
            await self._open_session(conn, writer, obj, meta, where, name)
            return

        ops_json = obj.get("ops")
        if ops_json is not None:
            try:
                delta = Delta.from_json(ops_json, where=where)
                delta.validate(sess.graph.num_vertices)
            except ValueError as exc:
                await self._reject(conn, writer, meta, REJECT_INVALID,
                                   str(exc), session=sess)
                return
            sess.ops.extend(delta.ops)
            sess.pending_dirty.update(delta.dirty_vertices().tolist())
            self.stats["buffered_ops"] += len(delta.ops)
            self._count("gateway.ingest.buffered_ops", n=len(delta.ops))

        close = bool(obj.get("close"))
        share = self._frontier_share(sess)
        if close or bool(obj.get("flush")) or \
                share >= self.config.frontier_budget:
            await self._flush_session(
                conn, writer, sess, meta, close=close,
                why="close" if close else
                    ("flush" if obj.get("flush") else "budget"),
            )
        elif ops_json is not None:
            await self._write(conn, writer, {
                **self._meta_row(meta), "status": "buffered",
                "session": name, "pending_dirty": len(sess.pending_dirty),
                "ops_total": len(sess.ops),
                "frontier_share": round(share, 6),
            })
        else:
            await self._reject(
                conn, writer, meta, REJECT_INVALID,
                f"{where}: session line needs 'ops', 'flush', or 'close'",
                session=sess,
            )

    async def _open_session(self, conn: _Conn, writer: asyncio.StreamWriter,
                            obj: dict, meta: dict, where: str,
                            name: str) -> None:
        core = {k: v for k, v in obj.items() if k not in _ENVELOPE_KEYS}
        try:
            fields = spec_fields_from_json(core, where=where)
            if "delta" in fields or "base_key" in fields:
                raise ValueError(
                    f"{where}: a session manages its own deltas; open it "
                    f"with a plain base job (no 'delta'/'base_key')"
                )
            if not fields.get("use_cache", True):
                raise ValueError(
                    f"{where}: a session base job must be cacheable "
                    f"(its partition is the warm-start source)"
                )
            graph = conn.resolver.resolve(core, where)
            spec = JobSpec(graph=graph, **fields)
            spec.validate()
        except (ValueError, OSError, TypeError) as exc:
            await self._reject(conn, writer, meta, REJECT_INVALID, str(exc))
            return
        sess = _Session(name, graph, fields, base_key=cache_key(spec),
                        meta=meta)
        if await self._admit(conn, writer, meta, spec, session=sess):
            conn.sessions[name] = sess
            self._count("gateway.ingest.sessions")

    def _frontier_share(self, sess: _Session) -> float:
        if not sess.pending_dirty:
            return 0.0
        from repro.core.dynamic import dirty_frontier

        frontier = dirty_frontier(
            sess.graph,
            np.fromiter(sess.pending_dirty, dtype=np.int64,
                        count=len(sess.pending_dirty)),
        )
        return len(frontier) / max(1, sess.graph.num_vertices)

    async def _flush_session(self, conn: _Conn, writer: asyncio.StreamWriter,
                             sess: _Session, meta: dict, *, close: bool,
                             why: str) -> None:
        meta = dict(meta) if meta else dict(sess.meta)
        meta.setdefault("tenant", "default")
        if sess.pending_dirty:
            spec = JobSpec(
                graph=sess.graph,
                delta=Delta(ops=tuple(sess.ops)),
                base_key=sess.base_key,
                **sess.fields,
            )
            accepted = await self._admit(conn, writer, meta, spec,
                                         session=sess)
            if accepted:
                sess.pending_dirty.clear()
                sess.flushes += 1
                self.stats["flushes"] += 1
                self._count("gateway.ingest.flushes", why=why)
            # a refused flush keeps its pending ops buffered: the next
            # arrival (or close) retries with the same cumulative delta
        if close:
            conn.sessions.pop(sess.name, None)

    # ----------------------------------------------------------- delivery
    async def _deliver(self, conn: _Conn, writer: asyncio.StreamWriter,
                       meta: dict, shard: _Shard,
                       fut: "asyncio.Future[JobResult]",
                       session: _Session | None) -> None:
        try:
            result = await fut
        except asyncio.CancelledError:
            return
        row = self._result_row(meta, result, shard=shard.name,
                               session=session)
        await self._write(conn, writer, row)
        self.stats["streamed"] += 1
        self._count("gateway.results.streamed")

    def _result_row(self, meta: dict, result: JobResult, *, shard: str,
                    session: _Session | None) -> dict:
        row = self._meta_row(meta)
        row.update({
            "job_id": self._next_seq(),
            "shard": shard,
            "status": result.status,
            "label": result.label,
            "engine": result.engine,
            "workers": result.workers,
            "seed": result.seed,
            "cache_hit": result.cache_hit,
            "warm_pool": result.warm_pool,
            "respawns": result.respawns,
            "run_seconds": result.run_seconds,
        })
        if result.ok:
            row.update({
                "num_modules": result.num_modules,
                "codelength": result.codelength,
                "levels": result.levels,
            })
            if meta.get("return_modules") and result.modules is not None:
                row["modules"] = result.modules.tolist()
            if result.touched_vertices or result.full_rerun:
                row["touched_vertices"] = result.touched_vertices
                row["full_rerun"] = result.full_rerun
        if result.error:
            row["error"] = result.error
        if session is not None:
            row["session"] = session.name
        if math.isnan(row.get("codelength", 0.0)):
            row["codelength"] = None
        return row

    @staticmethod
    def _meta_row(meta: dict) -> dict:
        row = {"tenant": meta.get("tenant", "default")}
        if meta.get("id") is not None:
            row["id"] = meta["id"]
        return row

    async def _reject(self, conn: _Conn, writer: asyncio.StreamWriter,
                      meta: dict, kind: str, reason: str, *,
                      shard: str | None = None,
                      session: _Session | None = None) -> None:
        self.stats["rejected"] += 1
        self._count("gateway.jobs.rejected", reject=kind)
        row = self._meta_row(meta)
        row.update({
            "job_id": self._next_seq(),
            "status": STATUS_REJECTED,
            "reject": kind,
            "error": reason,
        })
        if shard is not None:
            row["shard"] = shard
        if session is not None:
            row["session"] = session.name
        log.warning("rejected (%s): %s", kind, reason)
        await self._write(conn, writer, row)

    async def _write(self, conn: _Conn, writer: asyncio.StreamWriter,
                     row: dict) -> None:
        if conn.dead:
            return
        async with conn.write_lock:
            if conn.dead:
                return
            try:
                writer.write(_dumps(row))
                await writer.drain()
            except (ConnectionError, OSError):
                # mid-stream client disconnect: drop the rest of this
                # connection's output; jobs already queued still finish
                conn.dead = True
                self._count("gateway.disconnects")
                log.warning("client gone; dropping further results")

    def _next_seq(self) -> int:
        self._seq += 1
        return self._seq

    # ------------------------------------------------------------ metrics
    @staticmethod
    def _count(name: str, n: int = 1, **labels) -> None:
        if obs_metrics.is_enabled():
            obs_metrics.get_registry().counter(name, **labels).inc(n)

    @staticmethod
    def _gauge(name: str, value: float, **labels) -> None:
        if obs_metrics.is_enabled():
            obs_metrics.get_registry().gauge(name, **labels).set(value)


def _dumps(row: dict) -> bytes:
    return (json.dumps(row, sort_keys=True) + "\n").encode()


async def _skip_line(reader: asyncio.StreamReader, consumed: int) -> bool:
    """Discard the rest of an over-limit line without buffering it whole.

    ``consumed`` is the :class:`asyncio.LimitOverrunError` count of
    buffered bytes that hold no line end.  Returns ``False`` when the
    stream ended before the line did.
    """
    while True:
        await reader.readexactly(consumed)
        try:
            await reader.readuntil(b"\n")
            return True
        except asyncio.LimitOverrunError as exc:
            consumed = exc.consumed
        except asyncio.IncompleteReadError:
            return False
