"""The job service: many community-detection jobs, persistent resources.

:class:`JobService` is the serving layer the ROADMAP's "heavy traffic"
north star needs: callers hand :meth:`JobService.run_batch` a batch of
:class:`~repro.service.jobs.JobSpec`\\ s and get one
:class:`~repro.service.jobs.JobResult` per spec back, while the service
amortizes the per-run setup the engines would otherwise pay every call —
exactly the cost structure the paper amortizes in hardware by keeping
the ASA CAM resident across FindBestCommunity sweeps:

==========================  =============================================
cold cost                   amortized by
==========================  =============================================
fork + pipe handshake       :class:`~repro.service.pool.PoolManager`
                            (one warm pool per worker count)
the whole run               :class:`~repro.service.cache.ResultCache`
                            (content-addressed partitions, LRU-bounded)
==========================  =============================================

Shared-memory arenas are deliberately *not* kept warm: they are sized
to one graph's levels, so they are re-provisioned per job via
:mod:`repro.core.arena` and released at job end — a parked service
holds zero ``/dev/shm`` segments (``tests/test_shm_lifecycle.py``).

Execution contract (pinned by ``tests/test_service.py``):

* results are **bit-identical** to cold ``run_infomap`` calls at equal
  parameters — warm pools and cache hits are invisible in the output;
* a batch's admitted jobs run highest ``priority`` first, ties in
  submission order — a pure function of the batch;
* every job comes back as a result — ``completed``, ``cancelled``
  (deadline), ``failed`` (engine error), or ``rejected`` (admission) —
  and a failing job never prevents the next one from running;
* a finished job is the caller's: the service keeps counts of
  outcomes, never the results themselves (only the LRU-bounded cache
  holds partitions).
"""

from __future__ import annotations

import time
import traceback
from collections import Counter

from repro.core.dynamic import warm_refresh
from repro.core.infomap import run_infomap
from repro.core.parallel import DeadlineExceeded
from repro.obs import ledger as obs_ledger
from repro.obs import metrics as obs_metrics
from repro.obs.logging import get_logger
from repro.obs.spans import trace_span
from repro.service.cache import (
    CacheEntry,
    ResultCache,
    base_cache_key,
    cache_key,
)
from repro.service.jobs import (
    STATUS_CANCELLED,
    STATUS_COMPLETED,
    STATUS_FAILED,
    STATUS_REJECTED,
    JobResult,
    JobSpec,
)
from repro.service.pool import PoolManager

__all__ = ["JobService"]

log = get_logger("service")


class JobService:
    """Batch runner over warm pools and a result cache.

    Parameters
    ----------
    max_queue_depth:
        Admission bound: at most this many jobs of one batch are
        admitted; the surplus is rejected structurally.
    cache_entries:
        LRU capacity of the result cache; ``0`` disables caching.
    start_method:
        Multiprocessing start method for pools (default: the parallel
        engine's — ``fork`` where available).
    heartbeat_interval:
        Seconds between stats heartbeats (gauge flushes of queue
        depth, pool occupancy, cache size — the liveness signal a
        long-lived ``repro serve`` exposes through ``--metrics-out``).
        ``0`` flushes at every opportunity (each admission and each
        finished job); ``None`` (default) disables the periodic flush —
        :meth:`heartbeat` can still be called explicitly.
    """

    def __init__(
        self,
        max_queue_depth: int = 64,
        cache_entries: int = 128,
        start_method: str | None = None,
        heartbeat_interval: float | None = None,
    ) -> None:
        if max_queue_depth < 1:
            raise ValueError("max_queue_depth must be >= 1")
        # written so that NaN, which would silence every heartbeat, fails
        if heartbeat_interval is not None and not heartbeat_interval >= 0:
            raise ValueError("heartbeat_interval must be >= 0 (or None)")
        self.max_queue_depth = max_queue_depth
        self.pools = PoolManager(start_method=start_method)
        self.cache = ResultCache(max_entries=cache_entries)
        #: jobs submitted so far, and so the next job id: ids carry on
        #: across batches, and a rejected job takes one too
        self._submitted = 0
        self._rejected = 0
        #: jobs of the running batch admitted and not yet run
        self._depth = 0
        #: how many jobs ended in each status, in first-seen order
        self._outcomes: Counter[str] = Counter()
        self._closed = False
        self._heartbeat_interval = heartbeat_interval
        self.heartbeats = 0
        self._started_at = time.monotonic()
        self._last_heartbeat = self._started_at

    # --------------------------------------------------------------- run
    def run_batch(self, specs: list[JobSpec]) -> list[JobResult]:
        """Admit, order and run one batch; one result per spec.

        Admission goes in submission order: an invalid spec
        (:meth:`~repro.service.jobs.JobSpec.validate`) is rejected,
        then any spec past ``max_queue_depth`` admitted jobs.  A
        rejection is a ``rejected`` :class:`JobResult`, never an
        exception.  The admitted jobs then run one at a time (the
        determinism contract), highest ``priority`` first and equal
        priorities in submission order.  Results come back in job-id
        (submission) order.
        """
        if self._closed:
            raise RuntimeError("job service is closed")
        results: list[JobResult] = []
        admitted: list[tuple[int, JobSpec, float]] = []
        for spec in specs:
            job_id = self._submitted
            self._submitted += 1
            self._count("service.jobs.submitted")
            reason = self._admission_error(spec, len(admitted))
            if reason is None:
                # queue latency is measured from here
                admitted.append((job_id, spec, time.monotonic()))
            else:
                self._rejected += 1
                self._outcomes[STATUS_REJECTED] += 1
                self._count("service.jobs.rejected")
                results.append(JobResult(
                    job_id=job_id,
                    status=STATUS_REJECTED,
                    label=spec.label or getattr(spec.graph, "name", ""),
                    engine=spec.engine,
                    workers=spec.workers,
                    seed=spec.seed if isinstance(spec.seed, int) else 0,
                    error=reason,
                ))
                log.warning("job %d rejected: %s", job_id, reason)
            self._depth = len(admitted)
            self._gauge("service.queue.depth", self._depth)
            self._maybe_heartbeat()
        # admission validated every priority as an int; job ids are
        # unique, so the order is total
        admitted.sort(key=lambda job: (-job[1].priority, job[0]))
        try:
            for job_id, spec, admitted_at in admitted:
                self._depth -= 1
                results.append(self._execute(job_id, spec, admitted_at))
                self._gauge("service.queue.depth", self._depth)
                self._maybe_heartbeat()
        finally:
            self._depth = 0
        return sorted(results, key=lambda r: r.job_id)

    def _admission_error(self, spec: JobSpec, depth: int) -> str | None:
        """Why ``spec`` cannot join a batch with ``depth`` jobs admitted
        already, or ``None`` when it can."""
        try:
            spec.validate()
        except ValueError as exc:
            return f"invalid job spec: {exc}"
        if depth >= self.max_queue_depth:
            return (f"queue full: {depth} job(s) pending "
                    f"(max_queue_depth={self.max_queue_depth})")
        return None

    # ----------------------------------------------------------- execute
    def _execute(self, job_id: int, spec: JobSpec,
                 admitted_at: float) -> JobResult:
        result = JobResult(
            job_id=job_id,
            status=STATUS_FAILED,
            label=spec.label or spec.graph.name,
            engine=spec.engine,
            workers=spec.workers,
            seed=spec.seed,
            queue_seconds=time.monotonic() - admitted_at,
        )
        t0 = time.perf_counter()
        with trace_span(
            "service.job", job=job_id, engine=spec.engine,
            workers=spec.workers,
        ):
            key = cache_key(spec) if spec.cacheable else None
            entry = self.cache.get(key) if key is not None else None
            if entry is not None:
                result.status = STATUS_COMPLETED
                result.modules = entry.modules
                result.num_modules = entry.num_modules
                result.codelength = entry.codelength
                result.levels = entry.levels
                result.cache_hit = True
            else:
                self._run_job(spec, result)
            if result.ok and key is not None and not result.cache_hit:
                self.cache.put(
                    key,
                    CacheEntry(
                        modules=result.modules,
                        num_modules=result.num_modules,
                        codelength=result.codelength,
                        levels=result.levels,
                    ),
                )
        result.run_seconds = time.perf_counter() - t0
        self._outcomes[result.status] += 1
        self._count(f"service.jobs.{result.status}")
        self._observe("service.job.queue_seconds", result.queue_seconds)
        self._observe("service.job.run_seconds", result.run_seconds)
        self._record_ledger(spec, result)
        log.info("%s", result.summary())
        return result

    def _record_ledger(self, spec: JobSpec, result: JobResult) -> None:
        """Append one ``kind="service"`` row to the armed run ledger.

        The config (and so the run_key) is exactly the cache key's
        result-determining field set; how the job was served — cache
        hit/miss, warm/cold pool, queue wait, wall time — is perf data,
        never identity (docs/trend.md).
        """
        if not obs_ledger.is_enabled():
            return
        from repro.service.cache import graph_digest

        config = {
            "graph": graph_digest(spec.graph),
            "engine": spec.engine,
            "workers": spec.workers,
            "seed": spec.seed,
            "tau": spec.tau,
            "max_levels": spec.max_levels,
            "max_passes_per_level": spec.max_passes_per_level,
        }
        telemetry = {
            "status": result.status,
            "codelength": result.codelength if result.ok else None,
            "num_modules": result.num_modules if result.ok else None,
            "levels": result.levels if result.ok else None,
        }
        if spec.delta is not None:
            # delta jobs answer a different question than plain jobs on
            # the same graph+params — key them apart (plain rows keep
            # their historical run_keys byte-for-byte)
            config["delta"] = spec.delta.digest()
            config["base_key"] = spec.base_key
            telemetry["touched_vertices"] = result.touched_vertices
            telemetry["full_rerun"] = result.full_rerun
        record = obs_ledger.make_record(
            kind="service",
            source="service",
            config=config,
            telemetry=telemetry,
            perf={
                "queue_seconds": result.queue_seconds,
                "run_seconds": result.run_seconds,
                "wall_seconds": result.run_seconds,
                "cache_hit": bool(result.cache_hit),
                "warm_pool": bool(result.warm_pool),
                "respawns": int(result.respawns),
            },
            label=result.label,
        )
        obs_ledger.get_ledger().append(record)

    def _run_job(self, spec: JobSpec, result: JobResult) -> None:
        """Execute ``spec`` on its engine, reporting into ``result``.

        A plain job is one :func:`~repro.core.infomap.run_infomap` call.
        A delta job is one :func:`~repro.core.dynamic.warm_refresh` of
        base graph + delta from the base partition in the ResultCache:
        an explicit ``base_key`` that misses rejects the job
        structurally (the caller pinned a warm source that does not
        exist), while the derived key — the cache key of this spec minus
        its delta — falls back to a full from-scratch run of the updated
        graph when it misses, recorded as ``full_rerun`` in the result.
        """
        base = None
        if spec.delta is not None:
            base = self.cache.get(base_cache_key(spec))
            if base is None and spec.base_key is not None:
                result.status = STATUS_REJECTED
                result.error = (
                    f"unknown base_key {spec.base_key!r}: no cached base "
                    f"partition to warm-start from"
                )
                return
        try:
            graph = spec.graph
            if spec.delta is not None:
                graph = spec.delta.apply(graph)
            pool = None
            if spec.engine == "parallel":
                pool, result.warm_pool = self.pools.acquire(spec.workers)
            params = dict(
                engine=spec.engine, workers=spec.workers, tau=spec.tau,
                max_levels=spec.max_levels,
                max_passes_per_level=spec.max_passes_per_level, pool=pool,
                deadline=spec.deadline, worker_timeout=spec.worker_timeout,
            )
            if spec.delta is None:
                r = run_infomap(
                    graph, shuffle_seed=spec.seed,
                    fault_plan=spec.fault_plan, **params,
                )
            else:
                r = warm_refresh(
                    graph, base.modules if base is not None else None,
                    spec.delta.dirty_vertices(), seed=spec.seed, **params,
                )
        except DeadlineExceeded as exc:
            # the pool already restored itself (abort_run inside the
            # engine's unwind); it stays warm for the next job
            result.status = STATUS_CANCELLED
            result.error = f"deadline of {spec.deadline}s exceeded ({exc})"
            self._count("service.deadline_cancellations")
        except Exception as exc:
            result.status = STATUS_FAILED
            result.error = f"{type(exc).__name__}: {exc}"
            log.error(
                "job %d failed:\n%s", result.job_id, traceback.format_exc()
            )
            if spec.engine == "parallel":
                # abort_run already ran, but an engine that raised may
                # have left the pool in a state we cannot prove clean —
                # rebuild cold next time rather than trust it
                try:
                    self.pools.discard(spec.workers)
                except Exception:  # pragma: no cover - defensive
                    log.error("pool discard failed:\n%s",
                              traceback.format_exc())
        else:
            result.status = STATUS_COMPLETED
            result.modules = r.modules
            result.num_modules = int(r.num_modules)
            result.codelength = float(r.codelength)
            result.levels = int(r.levels)
            result.respawns = getattr(r, "respawns", 0)
            if spec.delta is not None:
                result.touched_vertices = int(r.touched_vertices)
                result.full_rerun = bool(r.full_rerun)

    # ---------------------------------------------------------- heartbeat
    def heartbeat(self) -> dict:
        """Flush the liveness gauges; returns what was flushed.

        Published gauges (metric catalog, docs/observability.md):
        ``service.uptime_seconds``, ``service.queue.depth``,
        ``service.pool.pools`` / ``service.pool.workers`` (warm-pool
        occupancy), ``service.cache.size``, plus the
        ``service.heartbeats`` counter — the signal that makes a
        long-lived ``repro serve`` inspectable from a ``--metrics-out``
        snapshot without touching its job flow.
        """
        snap = {
            "uptime_seconds": time.monotonic() - self._started_at,
            "queue_depth": self._depth,
            "pools": len(self.pools),
            "pool_workers": sum(self.pools.worker_counts()),
            "cache_size": len(self.cache),
            "results": self._outcomes.total(),
        }
        self.heartbeats += 1
        self._count("service.heartbeats")
        self._gauge("service.uptime_seconds", snap["uptime_seconds"])
        self._gauge("service.queue.depth", snap["queue_depth"])
        self._gauge("service.pool.pools", snap["pools"])
        self._gauge("service.pool.workers", snap["pool_workers"])
        self._gauge("service.cache.size", snap["cache_size"])
        log.debug("heartbeat #%d: %s", self.heartbeats, snap)
        return snap

    def _maybe_heartbeat(self) -> None:
        if self._heartbeat_interval is None:
            return
        now = time.monotonic()
        if now - self._last_heartbeat >= self._heartbeat_interval:
            self._last_heartbeat = now
            self.heartbeat()

    # ---------------------------------------------------------- lifecycle
    def stats(self) -> dict:
        """One JSON-ready snapshot of queue / cache / pool counters;
        ``results`` counts the jobs that ended in each status."""
        return {
            "scheduler": {
                "depth": self._depth,
                "max_queue_depth": self.max_queue_depth,
                "submitted": self._submitted,
                "rejected": self._rejected,
            },
            "cache": self.cache.stats(),
            "pools": self.pools.stats(),
            "results": dict(self._outcomes),
            "heartbeats": self.heartbeats,
        }

    def close(self) -> None:
        """Release every pool and empty the cache.  Idempotent."""
        if self._closed:
            return
        self._closed = True
        self.pools.close()
        self.cache.clear()

    def __enter__(self) -> "JobService":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    # ------------------------------------------------------------ metrics
    @staticmethod
    def _count(name: str) -> None:
        if obs_metrics.is_enabled():
            obs_metrics.get_registry().counter(name).inc()

    @staticmethod
    def _gauge(name: str, value: float) -> None:
        if obs_metrics.is_enabled():
            obs_metrics.get_registry().gauge(name).set(value)

    @staticmethod
    def _observe(name: str, value: float) -> None:
        if obs_metrics.is_enabled():
            obs_metrics.get_registry().histogram(name).observe(value)
