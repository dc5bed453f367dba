"""Simulated distributed-memory Infomap (the HyPC-Map hybrid model).

HyPC-Map [Faysal et al., HPEC 2021] combines shared-memory threads with
MPI ranks, and its ranks run the same schedule as its threads: each rank
proposes moves for its own vertices against the module state of the
last superstep, and the proposals are exchanged and merged at the
barrier.  So this engine is the shared BSP schedule of
:mod:`repro.core.bsp` at ``P = num_ranks`` (one edge-balanced block and
its share of the worklist per rank, one barrier per superstep), and its
partitions equal ``run_infomap_multicore(num_cores=num_ranks, seed=0)``
bit for bit.

What it adds is the per-superstep accounting a distributed-systems
evaluation reports, under a latency–bandwidth (α–β) network model:

* **messages / bytes** — every rank with proposals sends them to each
  peer, ``record_bytes`` per proposal.  The exchange precedes the
  commit, so proposals the merge rejects travel too;
* **comm seconds** — the slowest rank's sum of peer transfers;
* **compute seconds** — the slowest rank's swept out-arcs divided by
  ``compute_rate_ops_per_s``.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.core.bsp import ProposeBackend, run_bsp_infomap
from repro.core.infomap import check_engine_options
from repro.graph.csr import CSRGraph
from repro.obs.spans import trace_span
from repro.util.validation import is_finite_real, is_int, is_number

__all__ = [
    "run_infomap_distributed",
    "validate_distributed_params",
    "DistributedResult",
    "NetworkModel",
]


@dataclass(frozen=True)
class NetworkModel:
    """α–β communication cost model.

    ``message_cost = latency_s + bytes / bandwidth_Bps``, messages between
    distinct rank pairs in one superstep proceed in parallel; a rank's
    superstep communication time is the sum over its peers (sequential
    injection), and the superstep's time is the max over ranks.
    """

    latency_s: float = 2e-6
    bandwidth_Bps: float = 10e9
    #: bytes per (vertex id, module id) update record
    record_bytes: int = 12

    def transfer_seconds(self, n_bytes: float) -> float:
        return self.latency_s + n_bytes / self.bandwidth_Bps


@dataclass
class SuperstepRecord:
    """Accounting for one BSP superstep."""

    superstep: int
    level: int
    moves: int
    codelength: float
    messages: int
    bytes_sent: int
    compute_seconds: float
    comm_seconds: float


@dataclass
class DistributedResult:
    """Outcome of a simulated distributed run."""

    modules: np.ndarray
    num_modules: int
    codelength: float
    levels: int
    num_ranks: int
    supersteps: list[SuperstepRecord] = field(default_factory=list)

    @property
    def total_messages(self) -> int:
        return sum(s.messages for s in self.supersteps)

    @property
    def total_bytes(self) -> int:
        return sum(s.bytes_sent for s in self.supersteps)

    @property
    def comm_seconds(self) -> float:
        return sum(s.comm_seconds for s in self.supersteps)

    @property
    def compute_seconds(self) -> float:
        return sum(s.compute_seconds for s in self.supersteps)

    @property
    def total_seconds(self) -> float:
        return self.comm_seconds + self.compute_seconds

    def summary(self) -> str:
        return (
            f"DistributedResult({self.num_ranks} ranks: {self.num_modules} "
            f"modules, L={self.codelength:.4f}, "
            f"{len(self.supersteps)} supersteps, "
            f"{self.total_messages} msgs / {self.total_bytes} B)"
        )


def validate_distributed_params(
    num_ranks: int = 4,
    tau: float = 0.15,
    max_levels: int = 20,
    max_passes_per_level: int = 12,
    compute_rate_ops_per_s: float = 5e7,
    network: NetworkModel | None = None,
) -> None:
    """Raise ``ValueError`` describing the first invalid parameter.

    Everything a caller can get wrong fails *here*, with a readable
    reason — never as a ``TypeError``/``IndexError`` deep inside the
    run.  The ranks, ``tau`` and the caps follow the engines' one rule
    (:func:`repro.core.infomap.check_engine_options`): the ranks run
    the multicore schedule as its workers.  An infinite
    ``bandwidth_Bps`` is legal (ideal links); an infinite ``latency_s``
    is not.
    """
    check_engine_options(
        "multicore", num_ranks=num_ranks, tau=tau, max_levels=max_levels,
        max_passes_per_level=max_passes_per_level,
    )
    if not (is_finite_real(compute_rate_ops_per_s)
            and compute_rate_ops_per_s > 0):
        raise ValueError(
            f"compute_rate_ops_per_s must be positive finite ops/s, "
            f"got {compute_rate_ops_per_s!r}"
        )
    if network is not None:
        if not isinstance(network, NetworkModel):
            raise ValueError(
                f"network must be a NetworkModel, "
                f"got {type(network).__name__}"
            )
        latency, bandwidth = network.latency_s, network.bandwidth_Bps
        if not (is_finite_real(latency) and latency >= 0):
            raise ValueError(
                f"network latency_s must be a finite real >= 0, "
                f"got {latency!r}"
            )
        if not (is_number(bandwidth) and bandwidth > 0):
            raise ValueError(
                f"network bandwidth_Bps must be a positive real "
                f"(inf for ideal links), got {bandwidth!r}"
            )
        if not is_int(network.record_bytes) or network.record_bytes < 1:
            raise ValueError(
                f"network record_bytes must be an int >= 1, "
                f"got {network.record_bytes!r}"
            )


class _Ranks(ProposeBackend):
    """BSP backend: each rank's propose plus α–β superstep accounting."""

    engine = "distributed"

    def __init__(
        self, num_ranks: int, compute_rate: float, network: NetworkModel
    ) -> None:
        self.peers = num_ranks - 1
        self.compute_rate = compute_rate
        self.network = network
        self.indptr: np.ndarray | None = None
        self.ws = None
        #: one ``(messages, bytes, compute_s, comm_s)`` per barrier
        self.barriers: list[tuple[int, int, float, float]] = []

    def begin_level(self, net, level, blocks, ws) -> None:
        self.indptr = net.indptr
        self.ws = ws

    def propose(self, shards, module, enter, exit_, flow):
        verts_parts: list[np.ndarray] = []
        targ_parts: list[np.ndarray] = []
        messages = bytes_sent = 0
        compute = comm = 0.0
        for _rank, shard in shards:
            if len(shard) == 0:
                continue
            arcs = int((self.indptr[shard + 1] - self.indptr[shard]).sum())
            compute = max(compute, arcs / self.compute_rate)
            v, t, _ = self.ws.best_moves(module, enter, exit_, flow, verts=shard)
            verts_parts.append(v)
            targ_parts.append(t)
            if self.peers and len(v):
                payload = len(v) * self.network.record_bytes
                messages += self.peers
                bytes_sent += self.peers * payload
                comm = max(
                    comm, self.peers * self.network.transfer_seconds(payload)
                )
        self.barriers.append((messages, bytes_sent, compute, comm))
        if not verts_parts:
            return np.empty(0, np.int64), np.empty(0, np.int64)
        return np.concatenate(verts_parts), np.concatenate(targ_parts)


def run_infomap_distributed(
    graph: CSRGraph,
    num_ranks: int = 4,
    tau: float = 0.15,
    max_levels: int = 20,
    max_passes_per_level: int = 12,
    compute_rate_ops_per_s: float = 5e7,
    network: NetworkModel | None = None,
) -> DistributedResult:
    """Simulate BSP distributed Infomap over ``num_ranks`` ranks.

    One run of :func:`repro.core.bsp.run_bsp_infomap` at
    ``P = num_ranks`` with ``max_passes_per_level`` as its pass cap and
    the commit's backoff RNG at seed 0, so at equal pass caps the
    partition equals ``run_infomap_multicore(graph,
    num_cores=num_ranks, seed=0)``.  Every pass is one superstep; its
    :class:`SuperstepRecord` carries the accounting described in the
    module docstring.
    """
    if not isinstance(graph, CSRGraph):
        raise ValueError(
            f"graph must be a CSRGraph, got {type(graph).__name__}"
        )
    validate_distributed_params(
        num_ranks=num_ranks, tau=tau, max_levels=max_levels,
        max_passes_per_level=max_passes_per_level,
        compute_rate_ops_per_s=compute_rate_ops_per_s, network=network,
    )
    ranks = _Ranks(num_ranks, compute_rate_ops_per_s, network or NetworkModel())
    with trace_span("infomap.run", engine="distributed", ranks=num_ranks):
        out = run_bsp_infomap(
            graph, ranks, num_ranks, seed=0, tau=tau, max_levels=max_levels,
            max_passes_per_level=max_passes_per_level,
        )
    # one barrier per pass: supersteps and passes pair up
    supersteps = [
        SuperstepRecord(i + 1, p.level, p.applied, p.codelength, *barrier)
        for i, (p, barrier) in enumerate(zip(out.passes, ranks.barriers))
    ]
    return DistributedResult(
        modules=out.modules,
        num_modules=out.num_modules,
        codelength=out.codelength,
        levels=out.levels,
        num_ranks=num_ranks,
        supersteps=supersteps,
    )
