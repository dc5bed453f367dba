"""Independent result checks for the benchmark.

The oracle recomputes the map equation from a returned partition on the
original graph with the test suite's own reference,
``tests/test_property_invariants.py::_partition_codelength`` (flows from
``FlowNetwork.from_graph``, module enter/exit/flow totals by
``bincount`` over the arcs), and compares it with the codelength the
engine reported.  It never reuses the engine's own per-level
bookkeeping, so a drift in the multilevel offset arithmetic shows as a
mismatch.  Outcome digests are ``tests.traffic.sequence_digest``.
"""

from __future__ import annotations

import numpy as np

from repro.core.flow import FlowNetwork
from tests.test_property_invariants import _partition_codelength
from tests.traffic import sequence_digest

__all__ = ["TOLERANCE", "check", "sequence_digest"]

#: largest |reported - recomputed| codelength accepted, in bits
TOLERANCE = 1e-9


def check(net: FlowNetwork, modules, codelength: float,
          num_modules: int | None = None) -> str | None:
    """``None`` when the result is consistent, else what is wrong."""
    labels = np.asarray(modules, dtype=np.int64)
    n = net.num_vertices
    if labels.shape != (n,):
        return f"partition has shape {labels.shape}, graph has {n} vertices"
    k = int(labels.max()) + 1 if n else 0
    if n and (labels.min() < 0 or np.count_nonzero(np.bincount(labels)) != k):
        return "labels are not dense 0..k-1"
    if num_modules is not None and num_modules != k:
        return f"reported {num_modules} modules, partition has {k}"
    recomputed = _partition_codelength(net, labels, k)
    if abs(recomputed - codelength) > TOLERANCE:
        return (f"codelength {codelength!r} reported, {recomputed!r} "
                f"recomputed (|delta| {abs(recomputed - codelength):.3g})")
    return None
