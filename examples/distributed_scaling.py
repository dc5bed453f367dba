#!/usr/bin/env python
"""Distributed-memory scaling study (the HyPC-Map hybrid context).

HyPC-Map — the parallel Infomap this paper accelerates — is a hybrid
shared/distributed implementation.  This example runs the simulated BSP
distributed engine across rank counts and prints the classic distributed
trade-off: per-rank compute shrinks and communication grows, while the
partition is the same at every rank count — each rank proposes against
the last superstep's module state, so the merged move set does not
depend on how the vertices are split.

Run:  python examples/distributed_scaling.py [dataset]
"""

import sys

from repro import load_dataset, run_infomap, run_infomap_distributed
from repro.quality import normalized_mutual_information
from repro.util.tables import Table, format_si


def main() -> None:
    name = sys.argv[1] if len(sys.argv) > 1 else "amazon"
    graph = load_dataset(name)
    print(f"Distributed Infomap on {name} "
          f"({graph.num_vertices} vertices, {graph.num_edges} edges)\n")

    reference = run_infomap(graph)
    print(f"Sequential reference: {reference.num_modules} modules, "
          f"L = {reference.codelength:.4f} bits\n")

    t = Table(
        "BSP scaling (latency 2us, 10 GB/s links)",
        ["Ranks", "Modules", "L (bits)", "NMI vs seq", "Supersteps",
         "Messages", "Bytes", "Compute (ms)", "Comm (ms)"],
    )
    for ranks in (1, 2, 4, 8, 16):
        r = run_infomap_distributed(graph, num_ranks=ranks)
        nmi = normalized_mutual_information(r.modules, reference.modules)
        t.add_row([
            ranks,
            r.num_modules,
            f"{r.codelength:.4f}",
            f"{nmi:.3f}",
            len(r.supersteps),
            r.total_messages,
            format_si(r.total_bytes),
            f"{r.compute_seconds*1e3:.2f}",
            f"{r.comm_seconds*1e3:.3f}",
        ])
    t.print()

    print("Compute time divides across ranks while membership-update")
    print("traffic grows — the communication/computation trade-off that")
    print("motivates HyPC-Map's hybrid (threads within a node, MPI across)")
    print("design, and ultimately the per-core ASA acceleration the paper")
    print("adds on top.")


if __name__ == "__main__":
    main()
