"""Sweep-throughput benchmark and perf-regression gate for the batched
vectorized hot path.

The paper's thesis is that FindBestCommunity's sparse accumulation
dominates Infomap runtime; ``Workspace.best_moves`` is this repo's
batched (bincount/segment-sum) answer.  This bench makes the speedup
*enforceable*:

* per graph family it measures sweep throughput (nodes/s over identical
  module states) of the batched hot path **and** of the retained
  unbatched reference (:func:`repro.core.vectorized._best_moves`, the
  pre-batching formulation), on the same machine at the same moment;
* the ratio ``batched / reference`` is a machine-independent speedup,
  gated against the checked-in floors in
  ``benchmarks/baselines/hotpath_baseline.json`` by the tests marked
  ``perf_gate`` (CI runs the two smallest families on every push);
* absolute throughputs plus an end-to-end engine wall time are recorded
  into ``BENCH_hotpath.json`` at the repo root — the longitudinal
  artifact (schema documented in docs/benchmarks.md).

Run everything::

    PYTHONPATH=src python -m pytest benchmarks/bench_vectorized_hotpath.py -q

Run only the regression gate (what CI does, on the two smallest
families)::

    PYTHONPATH=src python -m pytest benchmarks/bench_vectorized_hotpath.py \
        -m perf_gate -k "ring_small or planted_mid" -q
"""

import json
import time
from pathlib import Path

import numpy as np
import pytest

from _record import bench_record, write_bench
from repro.core.flow import FlowNetwork
from repro.obs.ledger import graph_digest
from repro.core.vectorized import (
    Workspace,
    _best_moves,
    run_infomap_vectorized,
)
from repro.graph.datasets import load_dataset
from repro.graph.generators import (
    chung_lu,
    planted_partition,
    powerlaw_degree_sequence,
    ring_of_cliques,
)
from repro.util.tables import Table

_REPO_ROOT = Path(__file__).resolve().parent.parent
BENCH_JSON = _REPO_ROOT / "BENCH_hotpath.json"
BASELINE_JSON = Path(__file__).resolve().parent / "baselines" / "hotpath_baseline.json"


def _ring_small():
    g, _ = ring_of_cliques(40, 8)
    return g


def _planted_mid():
    g, _ = planted_partition(20, 100, 0.12, 0.004, seed=5)
    return g


def _powerlaw_large():
    deg = powerlaw_degree_sequence(8000, alpha=2.2, min_degree=6, seed=1)
    return chung_lu(deg, seed=2)


def _orkut_surrogate():
    return load_dataset("orkut")


#: family name -> deterministic graph builder, smallest first.  The CI
#: perf-gate job runs ``-k "ring_small or planted_mid"``: ring_small's
#: 320 vertices mostly measure per-call overhead, planted_mid's 2000 reach
#: the sweep itself.  ``orkut_surrogate`` is the largest Table I
#: surrogate (the acceptance-criterion graph).
FAMILIES = {
    "ring_small": _ring_small,
    "planted_mid": _planted_mid,
    "powerlaw_large": _powerlaw_large,
    "orkut_surrogate": _orkut_surrogate,
}

_MEASUREMENTS: dict[str, dict] = {}


def _sweep_states(net, ws, max_states=4):
    """Deterministic module states exercising early/mid-sweep shapes.

    Starts from singletons and applies each sweep's best moves, so both
    implementations are timed on identical, realistic inputs.
    """
    n = net.num_vertices
    module = np.arange(n, dtype=np.int64)
    enter, exit_, flow = ws.module_state(module, n)
    states = [(module, enter, exit_, flow)]
    while len(states) < max_states:
        verts, targets, _ = ws.best_moves(module, enter, exit_, flow)
        if len(verts) == 0:
            break
        module = module.copy()
        module[verts] = targets
        enter, exit_, flow = ws.module_state(module, n)
        states.append((module, enter, exit_, flow))
    return states


def _best_of(fn, states, reps):
    """Best-of-``reps`` wall time of ``fn`` over every state (warm run first)."""
    for m, e, x, f in states:
        fn(m, e, x, f)
    best = float("inf")
    for _ in range(reps):
        t0 = time.perf_counter()
        for m, e, x, f in states:
            fn(m, e, x, f)
        best = min(best, time.perf_counter() - t0)
    return best


def measure(family: str) -> dict:
    """Measure one family (cached for the session)."""
    if family in _MEASUREMENTS:
        return _MEASUREMENTS[family]
    graph = FAMILIES[family]()
    net = FlowNetwork.from_graph(graph)
    n = net.num_vertices
    ws = Workspace().bind(net)
    states = _sweep_states(net, ws)
    reps = 5 if n < 10_000 else 3
    t_ref = _best_of(lambda m, e, x, f: _best_moves(net, m, e, x, f), states, reps)
    t_new = _best_of(lambda m, e, x, f: ws.best_moves(m, e, x, f), states, reps)
    t0 = time.perf_counter()
    result = run_infomap_vectorized(graph)
    engine_wall = time.perf_counter() - t0
    nodes = n * len(states)
    rec = {
        "family": family,
        "vertices": n,
        "graph_digest": graph_digest(graph),
        "arcs": int(net.num_arcs),
        "sweep_states": len(states),
        "reference_nodes_per_s": nodes / t_ref,
        "batched_nodes_per_s": nodes / t_new,
        "speedup": t_ref / t_new,
        "engine_wall_seconds": engine_wall,
        "engine_codelength_bits": float(result.codelength),
        "engine_num_modules": int(result.num_modules),
    }
    _MEASUREMENTS[family] = rec
    return rec


def _baseline() -> dict:
    with open(BASELINE_JSON) as fh:
        return json.load(fh)


# ----------------------------------------------------------------------
# recording: all families -> BENCH_hotpath.json (the durable artifact)
# ----------------------------------------------------------------------

def test_record_hotpath_trajectory(show):
    recs = [measure(f) for f in FAMILIES]
    t = Table(
        "Batched hot-path sweep throughput (vs unbatched reference)",
        ["Family", "|V|", "arcs", "ref nodes/s", "batched nodes/s",
         "speedup", "engine wall"],
    )
    for r in recs:
        t.add_row([
            r["family"], r["vertices"], r["arcs"],
            f"{r['reference_nodes_per_s']:,.0f}",
            f"{r['batched_nodes_per_s']:,.0f}",
            f"{r['speedup']:.2f}x",
            f"{r['engine_wall_seconds'] * 1e3:.0f} ms",
        ])
    show(t)

    write_bench(
        "repro.bench_hotpath/v4",
        {
            "metric": "sweep throughput (nodes/s), batched vs reference "
                      "best-move search on identical module states",
            "families": {r["family"]: r for r in recs},
        },
        BENCH_JSON,
        ledger_records=[
            bench_record(
                "bench_vectorized_hotpath",
                config={
                    "bench": "vectorized_hotpath",
                    "family": r["family"],
                    "graph": r["graph_digest"],
                    "engine": "vectorized",
                },
                telemetry={
                    "codelength": r["engine_codelength_bits"],
                    "num_modules": r["engine_num_modules"],
                },
                perf={
                    "speedup": r["speedup"],
                    "reference_nodes_per_s": r["reference_nodes_per_s"],
                    "batched_nodes_per_s": r["batched_nodes_per_s"],
                    "wall_seconds": r["engine_wall_seconds"],
                },
                label=r["family"],
            )
            for r in recs
        ],
    )

    # headline shape: batching must win everywhere, and by >= 2x on the
    # largest surrogate (the paper-motivated acceptance criterion)
    assert all(r["speedup"] > 1.0 for r in recs), recs
    largest = measure("orkut_surrogate")
    assert largest["speedup"] >= 2.0, (
        f"batched hot path only {largest['speedup']:.2f}x on the largest "
        f"surrogate; the accumulation batching has regressed"
    )


# ----------------------------------------------------------------------
# perf gate: machine-independent speedup floors per family
# ----------------------------------------------------------------------

@pytest.mark.perf_gate
@pytest.mark.parametrize("family", list(FAMILIES))
def test_perf_gate(family, show):
    rec = measure(family)
    base = _baseline()
    floor = base["families"][family]["min_speedup"]
    tolerance = base["tolerance"]
    show(
        f"perf-gate {family}: speedup {rec['speedup']:.2f}x "
        f"(floor {floor}x, tolerance {tolerance})"
    )
    assert rec["speedup"] >= floor * (1.0 - tolerance), (
        f"{family}: batched/reference speedup {rec['speedup']:.2f}x fell "
        f"below the checked-in floor {floor}x (tolerance {tolerance}); "
        f"the batched hot path has regressed relative to this machine's "
        f"own reference implementation"
    )
