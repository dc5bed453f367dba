"""Incremental-refresh benchmark and perf-regression gate.

The dynamic layer's reason to exist is that a warm refresh
(:func:`repro.core.dynamic.warm_refresh` — previous partition + dirty
frontier through the shared BSP schedule) costs a fraction of a full
from-scratch run when only a neighbourhood changed.  This bench makes
that claim *enforceable*:

* it converges a planted-partition base graph once, then applies
  **localized** delta batches of growing size (0.1% → 25% of the edge
  set, confined to a vertex window ~2x the op count — the temporal
  locality real evolving networks exhibit);
* for each delta size it times the shipped refresh policy against a
  full from-scratch vectorized run on the *updated* graph, recording
  the cost fraction, the measured frontier share, whether the
  full-rerun fallback fired, and NMI vs the full recompute;
* the ``perf_gate`` test enforces the checked-in floor in
  ``benchmarks/baselines/dynamic_baseline.json``: at the ≤1% point the
  incremental refresh must be ≥ 3x cheaper than the full recompute
  with NMI ≥ 0.9 — the NMI floor is exact-gated (no tolerance), the
  speedup floor takes the usual multiplicative slack;
* every point appends an ``incremental_speedup`` ledger row, feeding
  ``repro trend --metric incremental_speedup`` (what CI trends).

Run everything::

    PYTHONPATH=src python -m pytest benchmarks/bench_dynamic.py -q

Run only the regression gate (what CI does)::

    PYTHONPATH=src python -m pytest benchmarks/bench_dynamic.py \
        -m perf_gate -q
"""

import json
import time
from pathlib import Path

import numpy as np
import pytest

from _record import bench_record, write_bench
from repro.core.dynamic import warm_refresh
from repro.core.vectorized import run_infomap_vectorized
from repro.graph.generators import planted_partition
from repro.obs.ledger import graph_digest
from repro.quality.nmi import normalized_mutual_information
from repro.util.tables import Table

_REPO_ROOT = Path(__file__).resolve().parent.parent
BENCH_JSON = _REPO_ROOT / "BENCH_dynamic.json"
BASELINE_JSON = (
    Path(__file__).resolve().parent / "baselines" / "dynamic_baseline.json"
)

#: base workload: 20 planted communities of 100 vertices, sparse enough
#: that a localized delta's frontier stays a small share of V
COMMUNITIES, SIZE = 20, 100
P_IN, P_OUT = 0.08, 0.0008
GRAPH_SEED = 17

#: delta batch sizes as a share of the base edge set; the ≤1% point is
#: the gated one (baselines/dynamic_baseline.json)
DELTA_SHARES = (0.001, 0.01, 0.05, 0.25)

#: timing repeats per point (min-of wins, cuts scheduler noise)
REPEATS = 3

_MEASUREMENTS: dict = {}


def _base():
    return planted_partition(COMMUNITIES, SIZE, P_IN, P_OUT,
                             seed=GRAPH_SEED)


def _edges_of(graph):
    src, dst, w = graph.edge_array()
    keep = src <= dst
    return {(int(u), int(v)): float(x)
            for u, v, x in zip(src[keep], dst[keep], w[keep])}


def _localized_delta(edges, num_vertices, ops, rng):
    """Mutate ``edges`` in place with ``ops`` add/remove operations
    confined to a window of ~4x ``ops`` vertices (temporal locality),
    returning the dirty vertex array."""
    window = min(num_vertices, max(8, 2 * ops))
    lo = int(rng.integers(0, num_vertices - window + 1))
    dirty: set[int] = set()
    in_window = [k for k in edges
                 if lo <= k[0] < lo + window and lo <= k[1] < lo + window]
    rng.shuffle(in_window)
    for i in range(ops):
        if i % 2 == 0 or not in_window:
            u = int(rng.integers(lo, lo + window))
            v = int(rng.integers(lo, lo + window))
            if u == v:
                v = lo + (v - lo + 1) % window
            key = (u, v) if u <= v else (v, u)
            edges[key] = edges.get(key, 0.0) + 1.0
        else:
            key = in_window.pop()
            edges.pop(key, None)
        dirty.update(key)
    return np.array(sorted(dirty), dtype=np.int64)


def _to_graph(edges, num_vertices):
    from repro.graph.build import from_edge_array

    keys = np.array(list(edges.keys()), dtype=np.int64)
    w = np.fromiter(edges.values(), dtype=np.float64, count=len(edges))
    return from_edge_array(keys[:, 0], keys[:, 1], w,
                           num_vertices=num_vertices, name="dynamic-bench")


def measure() -> dict:
    """Converge the base once, then time each delta point (cached per
    session)."""
    if _MEASUREMENTS:
        return _MEASUREMENTS
    graph, _truth = _base()
    n = graph.num_vertices
    base = run_infomap_vectorized(graph, seed=0)
    base_edges = _edges_of(graph)

    points = []
    for share in DELTA_SHARES:
        ops = max(1, int(share * len(base_edges)))
        rng = np.random.default_rng(1000 + int(share * 10_000))
        edges = dict(base_edges)
        dirty = _localized_delta(edges, n, ops, rng)
        updated = _to_graph(edges, n)

        inc_wall = full_wall = float("inf")
        inc = full = None
        for _ in range(REPEATS):
            t0 = time.perf_counter()
            # the pass cap matches the reference run's round budget so
            # the fallback path prices out at ~1x, not a hidden win
            r = warm_refresh(updated, base.modules, dirty, seed=0,
                             max_passes_per_level=30)
            dt = time.perf_counter() - t0
            if dt < inc_wall:
                inc_wall, inc = dt, r
            t0 = time.perf_counter()
            f = run_infomap_vectorized(updated, seed=0)
            dt = time.perf_counter() - t0
            if dt < full_wall:
                full_wall, full = dt, f

        points.append({
            "delta_share": share,
            "delta_ops": ops,
            "dirty_vertices": int(len(dirty)),
            "frontier_share": inc.frontier_share,
            "full_rerun": inc.full_rerun,
            "touched_vertices": inc.touched_vertices,
            "incremental_wall_seconds": inc_wall,
            "full_wall_seconds": full_wall,
            "cost_fraction": inc_wall / full_wall,
            "incremental_speedup": full_wall / inc_wall,
            "nmi_vs_full": normalized_mutual_information(
                inc.modules, full.modules
            ),
            "codelength_incremental": inc.codelength,
            "codelength_full": full.codelength,
        })

    _MEASUREMENTS.update({
        "graph_digest": graph_digest(graph),
        "graph_vertices": int(n),
        "graph_edges": len(base_edges),
        "engine": "vectorized",
        "repeats": REPEATS,
        "points": points,
    })
    return _MEASUREMENTS


def _baseline() -> dict:
    with open(BASELINE_JSON) as fh:
        return json.load(fh)


def _gated_point(m, baseline):
    """The largest measured point at or under the baseline's share."""
    eligible = [p for p in m["points"]
                if p["delta_share"] <= baseline["max_delta_share"]]
    return max(eligible, key=lambda p: p["delta_share"])


# ----------------------------------------------------------------------
# recording: the cost-fraction curve -> BENCH_dynamic.json + ledger rows
# ----------------------------------------------------------------------

def test_record_dynamic_cost_curve(show):
    m = measure()
    t = Table(
        f"Incremental refresh vs full recompute — "
        f"{m['graph_vertices']} vertices, {m['graph_edges']} edges",
        ["delta", "ops", "frontier", "mode", "inc wall", "full wall",
         "speedup", "NMI"],
    )
    for p in m["points"]:
        t.add_row([
            f"{p['delta_share']*100:g}%",
            p["delta_ops"],
            f"{p['frontier_share']*100:.1f}%",
            "full-rerun" if p["full_rerun"] else "warm",
            f"{p['incremental_wall_seconds']*1e3:.1f} ms",
            f"{p['full_wall_seconds']*1e3:.1f} ms",
            f"{p['incremental_speedup']:.2f}x",
            f"{p['nmi_vs_full']:.3f}",
        ])
    show(t)

    write_bench(
        "repro.bench_dynamic/v1",
        {
            "metric": "incremental warm-refresh wall as a fraction of a "
                      "full from-scratch vectorized run on the updated "
                      "graph, across localized delta sizes, with NMI vs "
                      "the full recompute",
            **{k: v for k, v in m.items()},
        },
        BENCH_JSON,
        ledger_records=[
            bench_record(
                "bench_dynamic",
                config={
                    "bench": "dynamic_refresh",
                    "graph": m["graph_digest"],
                    "engine": m["engine"],
                    "delta_share": p["delta_share"],
                    "delta_ops": p["delta_ops"],
                },
                perf={
                    "incremental_speedup": p["incremental_speedup"],
                    "cost_fraction": p["cost_fraction"],
                    "incremental_wall_seconds":
                        p["incremental_wall_seconds"],
                    "full_wall_seconds": p["full_wall_seconds"],
                    "frontier_share": p["frontier_share"],
                    "nmi_vs_full": p["nmi_vs_full"],
                },
                label=f"dynamic/{p['delta_share']*100:g}pct",
            )
            for p in m["points"]
        ],
    )

    # shape invariants that hold on any host
    for p in m["points"]:
        assert np.isfinite(p["codelength_incremental"])
        assert 0.0 < p["nmi_vs_full"] <= 1.0
    small = m["points"][0]
    assert not small["full_rerun"], (
        "the smallest delta must stay on the warm path"
    )
    assert small["touched_vertices"] < m["graph_vertices"]
    # the fallback policy engages as deltas grow: the largest point's
    # frontier exceeds the threshold share
    assert m["points"][-1]["frontier_share"] > small["frontier_share"]


# ----------------------------------------------------------------------
# perf gate: ≥ 3x cheaper than full recompute at ≤1% deltas, NMI ≥ 0.9
# ----------------------------------------------------------------------

@pytest.mark.perf_gate
def test_perf_gate_incremental_speedup(show):
    baseline = _baseline()
    m = measure()
    p = _gated_point(m, baseline)
    floor = baseline["min_incremental_speedup"]
    tolerance = baseline["tolerance"]
    nmi_floor = baseline["min_nmi_vs_full"]
    show(
        f"perf-gate dynamic refresh: {p['delta_share']*100:g}% delta -> "
        f"{p['incremental_speedup']:.2f}x over full recompute "
        f"(floor {floor}x, tolerance {tolerance}), "
        f"NMI {p['nmi_vs_full']:.3f} (exact floor {nmi_floor})"
    )
    assert not p["full_rerun"], (
        "the gated ≤1% point fell back to a full rerun — the warm path "
        "is not engaging where it must pay"
    )
    assert p["incremental_speedup"] >= floor * (1.0 - tolerance), (
        f"incremental refresh only {p['incremental_speedup']:.2f}x the "
        f"full recompute at {p['delta_share']*100:g}% deltas "
        f"(floor {floor}x, tolerance {tolerance})"
    )
    # quality floor is exact-gated: speed that costs partition quality
    # is not an optimization
    assert p["nmi_vs_full"] >= nmi_floor, (
        f"NMI vs full recompute {p['nmi_vs_full']:.3f} < {nmi_floor}"
    )
