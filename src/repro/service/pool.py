"""Warm worker-pool management for the job service.

A :class:`~repro.core.parallel._WorkerPool` is the expensive resource a
parallel run needs: ``P`` forked worker processes, handshaken over
pipes.  Cold runs pay that on every call; the :class:`PoolManager`
instead keeps one pool **warm per worker count** and lends it out run
after run through the pool's multi-run hooks (``reset_run`` /
``end_run`` / ``abort_run`` — see :mod:`repro.core.parallel`).  Arenas
are still provisioned per job (:mod:`repro.core.arena` releases each
run's segments at ``end_run``), so a parked manager holds zero
``/dev/shm`` segments — only live processes.

A pool whose run failed irrecoverably is *discarded* (closed and
forgotten) rather than trusted; the next job at that worker count
forks a fresh one.  ``warm_hits`` / ``cold_spawns`` count what the
``service.pool.*`` metrics publish.
"""

from __future__ import annotations

from repro.core.infomap import check_engine_options
from repro.core.parallel import _WorkerPool
from repro.obs import metrics as obs_metrics
from repro.obs.logging import get_logger

__all__ = ["PoolManager"]

log = get_logger("service.pool")


class PoolManager:
    """Keep one warm :class:`_WorkerPool` per worker count.

    Not thread-safe by design: the job service executes jobs one at a
    time (determinism is the contract), so pools are never lent out
    concurrently.
    """

    def __init__(self, start_method: str | None = None) -> None:
        self._start_method = start_method
        self._pools: dict[int, _WorkerPool] = {}
        self._closed = False
        #: jobs that found a live pool already forked for their count
        self.warm_hits = 0
        #: pools forked because none was warm (or the warm one was bad)
        self.cold_spawns = 0

    def __len__(self) -> int:
        return len(self._pools)

    @property
    def closed(self) -> bool:
        return self._closed

    def worker_counts(self) -> list[int]:
        return sorted(self._pools)

    def acquire(self, workers: int) -> tuple[_WorkerPool, bool]:
        """The pool for ``workers`` (at most ``MAX_WORKERS``), forking one
        if none is warm.

        Returns ``(pool, warm)`` where ``warm`` says whether the
        fork+handshake was skipped.  The pool stays owned by the
        manager — callers borrow it (``run_infomap_parallel(pool=...)``)
        and must not close it.
        """
        if self._closed:
            raise RuntimeError("pool manager is closed")
        check_engine_options("parallel", workers=workers)
        pool = self._pools.get(workers)
        if pool is not None and not pool.closed:
            self.warm_hits += 1
            self._publish("service.pool.warm_hits")
            return pool, True
        pool = _WorkerPool(workers, self._start_method)
        self._pools[workers] = pool
        self.cold_spawns += 1
        self._publish("service.pool.cold_spawns")
        return pool, False

    def discard(self, workers: int) -> None:
        """Close and forget the pool for ``workers`` (after a failure
        that left it untrustworthy).  No-op if none exists."""
        pool = self._pools.pop(workers, None)
        if pool is not None:
            log.warning("discarding %d-worker pool after failure", workers)
            pool.close()

    def close(self) -> None:
        """Close every pool.  Idempotent."""
        if self._closed:
            return
        self._closed = True
        pools, self._pools = list(self._pools.values()), {}
        for pool in pools:
            pool.close()

    def stats(self) -> dict:
        return {
            "pools": self.worker_counts(),
            "warm_hits": self.warm_hits,
            "cold_spawns": self.cold_spawns,
        }

    def __enter__(self) -> "PoolManager":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    @staticmethod
    def _publish(name: str) -> None:
        if obs_metrics.is_enabled():
            obs_metrics.get_registry().counter(name).inc()
