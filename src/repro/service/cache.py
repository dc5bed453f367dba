"""Content-addressed result cache — the serving layer's CAM.

The paper's ASA keeps a CAM of (module id → accumulated flow) entries
resident so repeated FindBestCommunity lookups skip the hash pipeline;
this module is the same idea one level up: a bounded associative store
of (job content → partition) entries so repeated *jobs* skip the
engines entirely.  It mirrors the CAM's observable structure — lookup
hits, misses, and capacity evictions are counted and published as
``service.cache.*`` metrics (the CAM's counters are
``accum.overflow_evictions`` etc., see ``docs/observability.md``).

Keys are **content-addressed**, never identity-addressed:

* :func:`graph_digest` hashes the *canonical arc multiset* — arcs
  sorted by ``(src, dst)`` with duplicate arcs coalesced by summing
  weights, so two ``CSRGraph`` objects describe the same network iff
  they digest equally, regardless of edge input order or duplicate-edge
  spelling (the same canonical form ``repro.graph.build`` applies when
  constructing a CSR, so a built graph is hashed as stored);
* :func:`cache_key` appends the canonicalized result-determining
  parameters (engine, workers, seed, tau, level/pass caps).
  Serving parameters (priority, deadline, fault plans) never reach the
  key — they cannot change a result.

``tests/test_service_cache.py`` pins both directions with hypothesis:
digests invariant under edge permutation and duplicate-edge rewriting,
distinct under weight/seed/engine changes.
"""

from __future__ import annotations

import dataclasses
import hashlib
import threading
from collections import OrderedDict
from dataclasses import dataclass

import numpy as np

from repro.graph.build import coalesce_arcs
from repro.graph.csr import CSRGraph, canonical_rows
from repro.obs import metrics as obs_metrics
from repro.service.jobs import JobSpec

__all__ = [
    "graph_digest",
    "cache_key",
    "base_cache_key",
    "CacheEntry",
    "ResultCache",
]


def graph_digest(graph: CSRGraph) -> str:
    """SHA-256 over the canonical arc multiset of ``graph``.

    Canonical form: ``(src, dst, weight)`` triples sorted by
    ``(src, dst)`` with duplicate ``(src, dst)`` arcs coalesced by
    summing their weights, prefixed by the vertex count and the
    directedness flag.  Isolated vertices matter (they change
    ``num_vertices``); arc input order and duplicate spelling do not.

    A canonical CSR (:func:`~repro.graph.csr.canonical_rows` — every
    graph :mod:`repro.graph.build`, :mod:`repro.graph.stream` and
    :meth:`~repro.service.delta.Delta.apply` build) already stores its
    arcs in that form, so it is hashed straight from its arrays; any
    other CSR is coalesced first (:func:`~repro.graph.build.coalesce_arcs`).
    """
    n = graph.num_vertices
    src, dst, w = graph.edge_array()
    if not canonical_rows(graph.indptr, graph.indices):
        src, dst, w = coalesce_arcs(src, dst, w, n)
    h = hashlib.sha256()
    h.update(f"csr/v1:{n}:{int(graph.directed)}:".encode())
    h.update(np.ascontiguousarray(src, dtype=np.int64))
    h.update(np.ascontiguousarray(dst, dtype=np.int64))
    h.update(np.ascontiguousarray(w, dtype=np.float64))
    return h.hexdigest()


def cache_key(spec: JobSpec) -> str:
    """Content address of ``spec``'s result.

    Exactly the result-determining fields, canonically spelled; two
    specs share a key iff the engines are guaranteed to hand back the
    same partition for both.

    Delta jobs get a ``delta/v1`` key: the *base* graph's digest plus
    the delta's op-sequence digest plus the params hash — a warm
    refresh's result depends on the base partition (a function of the
    base graph and params) and on the updated graph (base plus delta),
    so all three must address it.  An explicit ``base_key`` (a pinned
    warm source that overrides the derived one) is hashed into the
    params, since it changes what the refresh warms from.
    """
    params = (
        f"params/v4:engine={spec.engine}:workers={spec.workers}"
        f":seed={spec.seed}:tau={float(spec.tau)!r}"
        f":levels={spec.max_levels}:passes={spec.max_passes_per_level}"
    )
    if spec.delta is not None:
        params += f":base={spec.base_key}"
        return (
            f"{graph_digest(spec.graph)}+{spec.delta.digest()}"
            f"/{hashlib.sha256(params.encode()).hexdigest()}"
        )
    return f"{graph_digest(spec.graph)}/{hashlib.sha256(params.encode()).hexdigest()}"


def base_cache_key(spec: JobSpec) -> str:
    """Cache key of the partition a delta job warm-starts from.

    An explicit ``base_key`` pins it; otherwise it is derived: the key of
    this spec as a plain job, i.e. minus its delta.  The gateway routes
    a delta job by it and the service looks its base up by it.
    """
    if spec.base_key is not None:
        return spec.base_key
    return cache_key(dataclasses.replace(spec, delta=None, base_key=None))


@dataclass(frozen=True)
class CacheEntry:
    """What a completed job leaves behind (enough to replay its result)."""

    modules: np.ndarray
    num_modules: int
    codelength: float
    levels: int


class ResultCache:
    """LRU-bounded store of job results keyed by :func:`cache_key`.

    ``max_entries <= 0`` disables the cache entirely (every lookup
    misses, nothing is stored) — what the throughput benchmark uses so
    warm-pool speedups are never conflated with cache hits.  Arrays are
    copied on the way in and out, so cached partitions can never be
    mutated by callers.

    Thread-safe: the gateway's shards each run a JobService on their
    own executor thread while stats readers poll from the event loop,
    so every mutation of the LRU order and its counters happens under
    one lock (``tests/test_service_cache.py`` hammers this from
    threads; the invariant is ``hits + misses == lookups`` and
    ``len <= max_entries`` at every instant).
    """

    def __init__(self, max_entries: int = 128) -> None:
        self.max_entries = int(max_entries)
        self._entries: OrderedDict[str, CacheEntry] = OrderedDict()
        self._lock = threading.Lock()
        self.hits = 0
        self.misses = 0
        self.evictions = 0

    def __len__(self) -> int:
        return len(self._entries)

    @property
    def enabled(self) -> bool:
        return self.max_entries > 0

    def get(self, key: str) -> CacheEntry | None:
        """Look up ``key``; a hit refreshes its LRU recency."""
        with self._lock:
            entry = self._entries.get(key) if self.enabled else None
            if entry is None:
                self.misses += 1
                self._publish("service.cache.misses")
                return None
            self._entries.move_to_end(key)
            self.hits += 1
            self._publish("service.cache.hits")
            return CacheEntry(
                modules=entry.modules.copy(),
                num_modules=entry.num_modules,
                codelength=entry.codelength,
                levels=entry.levels,
            )

    def put(self, key: str, entry: CacheEntry) -> None:
        """Insert (or refresh) ``key``, evicting the LRU tail if full."""
        if not self.enabled:
            return
        # the deep copy happens outside the lock (it is the expensive
        # part and touches nothing shared)
        frozen = CacheEntry(
            modules=np.array(entry.modules, dtype=np.int64, copy=True),
            num_modules=int(entry.num_modules),
            codelength=float(entry.codelength),
            levels=int(entry.levels),
        )
        with self._lock:
            self._entries[key] = frozen
            self._entries.move_to_end(key)
            while len(self._entries) > self.max_entries:
                self._entries.popitem(last=False)
                self.evictions += 1
                self._publish("service.cache.evictions")
            size = len(self._entries)
        if obs_metrics.is_enabled():
            obs_metrics.get_registry().gauge("service.cache.size").set(size)

    def clear(self) -> None:
        with self._lock:
            self._entries.clear()

    def stats(self) -> dict:
        with self._lock:
            return {
                "entries": len(self._entries),
                "max_entries": self.max_entries,
                "hits": self.hits,
                "misses": self.misses,
                "evictions": self.evictions,
            }

    @staticmethod
    def _publish(name: str) -> None:
        if obs_metrics.is_enabled():
            obs_metrics.get_registry().counter(name).inc()
