"""The paper's primary application: multilevel Infomap community detection.

Mirrors the four HyPC-Map kernels (Section II-C):

* **PageRank** — :mod:`repro.core.flow` (ergodic visit rates and link
  flows, with teleportation);
* **FindBestCommunity** — :mod:`repro.core.findbest` (Algorithm 1/2, the
  hash-accumulation kernel, pluggable accumulator backend);
* **Convert2SuperNode** — :mod:`repro.core.supernode` (coarsening with
  super-edge weight aggregation);
* **UpdateMembers** — :mod:`repro.core.update` (membership propagation).

Engines:

* :func:`repro.core.infomap.run_infomap` — the single entry point and
  the only engine-name switch: the sequential instrumented engine (one
  simulated core, full hardware accounting) by default, or any engine
  below via ``engine=`` (the job service, warm refreshes and the CLI
  all go through it);
* :func:`repro.core.vectorized.run_infomap_vectorized` — the batched
  engine behind ``engine="vectorized"``: the shared BSP schedule on one
  in-process shard, with whole-sweep segment-sum accumulation
  (:class:`~repro.core.vectorized.Workspace`, no hardware accounting);
* :func:`repro.core.multicore.run_infomap_multicore` — the HyPC-Map-style
  simulated multicore engine behind Figs 7/9/10/11;
* :func:`repro.core.parallel.run_infomap_parallel` — the real
  process-parallel engine (multiprocessing + shared-memory arenas),
  bit-identical to the simulated engine at equal worker count/seed.

The three batched engines share one deterministic barrier-synchronous
schedule, :mod:`repro.core.bsp` (propose per shard, commit behind the
barrier) — only where the propose executes differs.
"""

from repro.core.flow import FlowNetwork, pagerank
from repro.core.mapequation import MapEquation
from repro.core.partition import Partition
from repro.core.infomap import run_infomap, InfomapResult, IterationRecord
from repro.core.vectorized import (
    run_infomap_vectorized,
    VectorizedResult,
    Workspace,
)
from repro.core.multicore import run_infomap_multicore, MulticoreResult
from repro.core.parallel import run_infomap_parallel, ParallelResult
from repro.core.hierarchy import run_infomap_hierarchical, HierarchicalResult, HModule
from repro.core.distributed import run_infomap_distributed, DistributedResult, NetworkModel
from repro.core.dynamic import DynamicCommunities, RefreshResult

__all__ = [
    "FlowNetwork",
    "pagerank",
    "MapEquation",
    "Partition",
    "run_infomap",
    "InfomapResult",
    "IterationRecord",
    "run_infomap_vectorized",
    "VectorizedResult",
    "Workspace",
    "run_infomap_multicore",
    "MulticoreResult",
    "run_infomap_parallel",
    "ParallelResult",
    "run_infomap_hierarchical",
    "HierarchicalResult",
    "HModule",
    "run_infomap_distributed",
    "DistributedResult",
    "NetworkModel",
    "DynamicCommunities",
    "RefreshResult",
]
