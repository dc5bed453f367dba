"""Job service: warm worker pools + content-addressed result caching.

The serving layer over the engines in :mod:`repro.core` — hand it a
batch of community-detection jobs, it executes them over persistent
resources and returns structured results.  See ``docs/service.md`` for
the full tour.
"""

from repro.service.cache import CacheEntry, ResultCache, cache_key, graph_digest
from repro.service.jobs import (
    ENGINES,
    STATUS_CANCELLED,
    STATUS_COMPLETED,
    STATUS_FAILED,
    STATUS_PENDING,
    STATUS_REJECTED,
    JobResult,
    JobSpec,
)
from repro.service.pool import PoolManager
from repro.service.service import JobService

__all__ = [
    "ENGINES",
    "STATUS_PENDING",
    "STATUS_COMPLETED",
    "STATUS_FAILED",
    "STATUS_CANCELLED",
    "STATUS_REJECTED",
    "JobSpec",
    "JobResult",
    "CacheEntry",
    "ResultCache",
    "cache_key",
    "graph_digest",
    "PoolManager",
    "JobService",
]
