"""Paper-scale scaling benchmark on streamed shared-memory surrogates.

``bench_parallel_scaling`` gates the parallel engine on the largest
Table I surrogate (~230k arcs) — roughly 500x smaller than the Orkut
graph the paper scales on, small enough that per-round orchestration
overhead used to dominate and throughput *fell* with workers.  This
bench closes that gap: it streams a multi-million-arc surrogate
directly into the shared-memory arena (:mod:`repro.graph.stream` — no
Python-object edge list is ever materialised), runs the parallel
engine (one propose round per pass) at 1/2/4 workers on it, and gates
the 4-vs-1-worker sweep-throughput ratio against
``benchmarks/baselines/bigscale_baseline.json``.

Profiles — select with ``REPRO_BIGSCALE`` (default ``smoke``):

* ``smoke``: the ``rmat_1m`` recipe (~1M arcs).  Minutes on a CI
  runner; this is the floor the PR-path perf-gate job enforces.
* ``full``: the ``rmat_7m`` recipe (>=5M arcs).  The nightly/manual
  ``bigscale`` CI job runs it and enforces the paper-scale >=2x floor
  (docs/scaling.md walks through reading the result).

Like the sibling gate, the speedup assertion skips on hosts with fewer
than 4 CPUs, where the ratio would measure oversubscription rather
than scaling; the recording test still runs everywhere so every host
contributes ``BENCH_parallel.json`` points (under the ``bigscale``
key, merged — never clobbering — the Table I ``points`` section) and
``kind="bench"`` ledger rows that ``repro trend --metric speedup``
reports over.

Run the selected profile::

    PYTHONPATH=src python -m pytest benchmarks/bench_bigscale.py -q
    REPRO_BIGSCALE=full PYTHONPATH=src python -m pytest \
        benchmarks/bench_bigscale.py -q
"""

import json
import os
import time
from pathlib import Path

import pytest

from _record import bench_record, update_bench
from repro.core.parallel import run_infomap_parallel
from repro.graph.stream import stream_recipe
from repro.util.tables import Table

_REPO_ROOT = Path(__file__).resolve().parent.parent
BENCH_JSON = _REPO_ROOT / "BENCH_parallel.json"
BASELINE_JSON = (
    Path(__file__).resolve().parent / "baselines" / "bigscale_baseline.json"
)

WORKER_COUNTS = (1, 2, 4)

#: surrogate content seed — fixed so the graph digest (and therefore the
#: ledger run_key) is stable across hosts and sessions
SEED = 0


def _baseline() -> dict:
    with open(BASELINE_JSON) as fh:
        return json.load(fh)


def _profile() -> tuple[str, dict]:
    base = _baseline()
    name = os.environ.get("REPRO_BIGSCALE", "smoke")
    if name not in base["profiles"]:
        raise SystemExit(
            f"REPRO_BIGSCALE={name!r}: unknown profile "
            f"(choose from {sorted(base['profiles'])})"
        )
    return name, base["profiles"][name]


@pytest.fixture(scope="module")
def streamed():
    """Stream the profile's surrogate once per session; release the
    arena (and assert /dev/shm hygiene) when the module finishes."""
    cache: dict[str, object] = {}

    def get(recipe: str):
        if recipe not in cache:
            cache[recipe] = stream_recipe(recipe, seed=SEED)
        return cache[recipe]

    yield get
    for sg in cache.values():
        sg.release()
    from repro.core import arena

    assert arena.live_segments(arena.segment_prefix()) == []


_MEASUREMENTS: dict[tuple[str, int], dict] = {}


def measure(streamed, recipe: str, workers: int) -> dict:
    """Measure one (recipe, workers) point (cached for the session)."""
    key = (recipe, workers)
    if key in _MEASUREMENTS:
        return _MEASUREMENTS[key]
    sg = streamed(recipe)
    graph = sg.graph
    # warm run: absorbs fork/bind cost and faults the arena pages in
    run_infomap_parallel(graph, workers=workers, max_levels=2)
    t0 = time.perf_counter()
    r = run_infomap_parallel(graph, workers=workers)
    wall = time.perf_counter() - t0
    rec = {
        "recipe": recipe,
        "workers": workers,
        "graph_digest": sg.digest,
        "vertices": int(graph.num_vertices),
        "arcs": int(graph.num_arcs),
        "arena_bytes": int(sg.arena_bytes),
        "sweep_vertices_per_s": r.sweep_throughput,
        "propose_seconds": r.propose_seconds,
        "proposed_vertices": int(r.proposed_vertices),
        "rounds": int(r.rounds),
        "state_writes": int(r.state_writes),
        "wall_seconds": wall,
        "codelength_bits": float(r.codelength),
        "num_modules": int(r.num_modules),
        "levels": int(r.levels),
    }
    _MEASUREMENTS[key] = rec
    return rec


# ----------------------------------------------------------------------
# recording: profile points -> BENCH_parallel.json "bigscale" section
# ----------------------------------------------------------------------

def test_record_bigscale(show, streamed):
    cpus = os.cpu_count() or 1
    profile, cfg = _profile()
    recipe = cfg["recipe"]
    recs = [measure(streamed, recipe, w) for w in WORKER_COUNTS]

    t = Table(
        f"Paper-scale sweep throughput — {recipe}, profile '{profile}' "
        f"({cpus} CPUs on this host)",
        ["workers", "|V|", "arcs", "sweep verts/s", "rounds",
         "propose s", "total wall", "L (bits)"],
    )
    for r in recs:
        t.add_row([
            r["workers"], f"{r['vertices']:,}", f"{r['arcs']:,}",
            f"{r['sweep_vertices_per_s']:,.0f}", r["rounds"],
            f"{r['propose_seconds']:.2f} s",
            f"{r['wall_seconds']:.2f} s",
            f"{r['codelength_bits']:.4f}",
        ])
    show(t)

    by_workers = {r["workers"]: r for r in recs}
    speedup_4 = (by_workers[4]["sweep_vertices_per_s"]
                 / by_workers[1]["sweep_vertices_per_s"])

    point_records = [
        bench_record(
            "bench_bigscale",
            config={
                "bench": "bigscale",
                "profile": profile,
                "recipe": recipe,
                "graph": r["graph_digest"],
                "engine": "parallel",
                "workers": r["workers"],
                "seed": SEED,
            },
            telemetry={
                "codelength": r["codelength_bits"],
                "num_modules": r["num_modules"],
                "levels": r["levels"],
                "rounds": r["rounds"],
                "state_writes": r["state_writes"],
            },
            perf={
                "sweep_vertices_per_s": r["sweep_vertices_per_s"],
                "propose_seconds": r["propose_seconds"],
                "wall_seconds": r["wall_seconds"],
            },
            label=f"{recipe}/w{r['workers']}",
        )
        for r in recs
    ]
    # one summary row whose perf carries the gated ratio, so
    # `repro trend --metric speedup --kind bench` plots the scaling
    # curve longitudinally (docs/trend.md)
    point_records.append(bench_record(
        "bench_bigscale",
        config={
            "bench": "bigscale",
            "profile": profile,
            "recipe": recipe,
            "graph": by_workers[4]["graph_digest"],
            "engine": "parallel",
            "workers": 4,
            "seed": SEED,
            "ratio": "sweep_throughput_4w_over_1w",
        },
        perf={"speedup": speedup_4},
        label=f"{recipe}/speedup",
    ))

    # update_bench: merge into the artifact bench_parallel_scaling owns
    # the "points" section of; this bench owns "bigscale"
    update_bench(
        "repro.bench_parallel/v2",
        {
            "bigscale": {
                "metric": "parallel-engine sweep throughput at 1/2/4 "
                          "workers on a streamed multi-million-arc "
                          "surrogate (repro.graph.stream recipes)",
                "profile": profile,
                "recipe": recipe,
                "cpus": cpus,
                "speedup_4_workers": speedup_4,
                "points": recs,
            },
        },
        BENCH_JSON,
        ledger_records=point_records,
    )

    # shape invariants that hold even on a 1-CPU host
    assert by_workers[1]["arcs"] >= cfg["min_arcs"], (
        f"{recipe} streamed only {by_workers[1]['arcs']:,} arcs; the "
        f"'{profile}' profile requires >= {cfg['min_arcs']:,}"
    )
    ls = {r["codelength_bits"] for r in recs}
    assert max(ls) - min(ls) < 1e-9, (
        f"{recipe}: codelength varies with worker count: {sorted(ls)}"
    )
    assert all(r["sweep_vertices_per_s"] > 0 for r in recs)
    assert all(r["rounds"] > 0 and r["state_writes"] <= r["rounds"]
               for r in recs)


# ----------------------------------------------------------------------
# perf gate: 4-worker sweep throughput must beat 1-worker by the floor
# ----------------------------------------------------------------------

@pytest.mark.perf_gate
def test_perf_gate_bigscale(show, streamed):
    cpus = os.cpu_count() or 1
    if cpus < 4:
        pytest.skip(
            f"only {cpus} CPU(s): the 4-worker ratio would measure "
            f"oversubscription, not scaling (CI enforces this gate)"
        )
    profile, cfg = _profile()
    floor = cfg["min_speedup_4_workers"]
    tolerance = _baseline()["tolerance"]
    r1 = measure(streamed, cfg["recipe"], 1)
    r4 = measure(streamed, cfg["recipe"], 4)
    speedup = r4["sweep_vertices_per_s"] / r1["sweep_vertices_per_s"]
    show(
        f"perf-gate bigscale [{profile}/{cfg['recipe']}, "
        f"{r1['arcs']:,} arcs]: 4-worker sweep throughput {speedup:.2f}x "
        f"the 1-worker baseline (floor {floor}x, tolerance {tolerance})"
    )
    assert speedup >= floor * (1.0 - tolerance), (
        f"{cfg['recipe']}: 4-worker sweep throughput only {speedup:.2f}x "
        f"the 1-worker baseline (floor {floor}x, tolerance {tolerance}); "
        f"paper-scale scaling has regressed — see docs/scaling.md"
    )
