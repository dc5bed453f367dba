"""Cross-engine conformance suite.

The repo ships five Infomap engines that all minimize the same map
equation over the same flow model:

======================  ===============================================
engine                  schedule
======================  ===============================================
``sequential``          per-vertex greedy, immediate apply, hw counters
``vectorized``          the BSP schedule on one in-process shard
``multicore``           BSP propose/commit on P *simulated* cores
``parallel``            same BSP schedule on P *real* processes
``parallel+faultplan``  ``parallel`` under seeded injected worker
                        faults (kill/hang/slow/corrupt) — recovery must
                        be invisible (see tests/test_fault_injection.py)
``distributed``         same BSP schedule on P simulated MPI ranks with
                        α–β message accounting (backoff RNG fixed at 0)
======================  ===============================================

This suite pins the contract between them:

* every engine's codelength agrees within a small factor on each graph
  family (undirected / directed / weighted / pathological), and equals
  the map equation recomputed from the returned partition on the
  original graph (an oracle independent of each engine's own
  bookkeeping);
* every engine recovers planted community structure (NMI / ARI floors);
* ``parallel(P=k)`` is **bit-identical** to ``multicore(P=k)`` at the
  same seed, ``distributed(P=k)`` to ``multicore(P=k)`` at seed 0, and
  ``vectorized`` to both at ``P=1`` — the backends share the driver in
  :mod:`repro.core.bsp`, so any divergence is a real bug; a source scan
  keeps that driver the only multilevel BSP loop in ``repro.core``;
* the shard-restricted sweep ``Workspace.best_moves(verts=...)`` equals
  the full sweep filtered to the shard (the property the BSP engines'
  correctness rests on);
* every engine is deterministic at a fixed seed (hypothesis property),
  and any seeded :class:`~repro.core.faults.FaultPlan` preserves that
  determinism — faulty runs land bit-identical to fault-free ones.

See ``docs/testing.md`` for how this matrix fits the wider test tiers.
"""

from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings

from repro.core.distributed import run_infomap_distributed
from repro.core.faults import FaultPlan
from repro.core.flow import FlowNetwork
from repro.core.infomap import run_infomap
from repro.core.multicore import run_infomap_multicore
from repro.core.parallel import run_infomap_parallel
from repro.core.vectorized import Workspace, run_infomap_vectorized
from repro.graph.build import from_edge_array, from_edges
from repro.graph.generators import planted_partition
from repro.quality.ari import adjusted_rand_index
from repro.quality.nmi import normalized_mutual_information

from tests.strategies import small_seeds
from tests.test_property_invariants import _partition_codelength

# ---------------------------------------------------------------------------
# graph families


def _undirected(seed):
    return planted_partition(4, 20, 0.45, 0.02, seed=seed)


def _directed(seed):
    """Planted communities with every edge materialized as two arcs.

    The flow solution matches the undirected family, but the run takes
    the directed code path end to end (teleportation, separate in/out
    CSR, transpose pair arrays in the vectorized sweep).
    """
    g, truth = planted_partition(4, 20, 0.45, 0.02, seed=seed)
    src, dst, w = g.edge_array()
    return (
        from_edge_array(
            np.concatenate([src, dst]),
            np.concatenate([dst, src]),
            np.concatenate([w, w]),
            num_vertices=g.num_vertices,
            directed=True,
        ),
        truth,
    )


def _weighted(seed):
    """Planted communities where weights carry most of the signal:
    intra-community edges weigh 4x inter-community ones."""
    g, truth = planted_partition(4, 20, 0.40, 0.03, seed=seed)
    src, dst, w = g.edge_array()
    intra = truth[src] == truth[dst]
    w = np.where(intra, 2.0, 0.5)
    return (
        from_edge_array(src, dst, w, num_vertices=g.num_vertices),
        truth,
    )


def _pathological(seed):
    """Self-loops, multi-edges, and isolated vertices around two small
    communities.  No planted truth — only agreement is checked."""
    rng = np.random.default_rng(seed)
    edges = [(0, 0, 2.0), (5, 5, 1.0), (0, 1), (0, 1), (1, 2, 3.0)]
    for block in (range(0, 6), range(6, 12)):
        block = list(block)
        for i in block:
            for j in block:
                if i < j and rng.random() < 0.8:
                    edges.append((i, j))
    edges.append((2, 8, 0.2))  # single weak bridge
    return from_edges(edges, num_vertices=14), None  # 12..13 isolated


FAMILIES = {
    "undirected": _undirected,
    "directed": _directed,
    "weighted": _weighted,
    "pathological": _pathological,
}

# ---------------------------------------------------------------------------
# engines — uniform (graph, seed) -> result interface

ENGINES = {
    "sequential": lambda g, seed: run_infomap(
        g, backend="softhash", shuffle_seed=seed
    ),
    "vectorized": lambda g, seed: run_infomap_vectorized(g, seed=seed),
    "multicore": lambda g, seed: run_infomap_multicore(
        g, num_cores=2, seed=seed
    ),
    "parallel": lambda g, seed: run_infomap_parallel(
        g, workers=2, seed=seed
    ),
    # the parallel engine under a seeded random fault plan: two injected
    # worker failures per run, which the supervisor must recover without
    # perturbing the partition (so every grid assertion below holds
    # unchanged for this column)
    "parallel+faultplan": lambda g, seed: run_infomap_parallel(
        g, workers=2, seed=seed,
        fault_plan=FaultPlan.random(seed=seed, workers=2, faults=2),
        worker_timeout=1.0,
    ),
    # seedless: its commit RNG is fixed at seed 0
    "distributed": lambda g, seed: run_infomap_distributed(g, num_ranks=2),
}

SEEDS = (0, 1)


def _results(family, seed):
    g, truth = FAMILIES[family](seed)
    return {name: run(g, seed) for name, run in ENGINES.items()}, g, truth


# ---------------------------------------------------------------------------
# codelength agreement across the full grid


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("family", sorted(FAMILIES))
def test_engines_agree_on_codelength(family, seed):
    results, g, _ = _results(family, seed)
    net = FlowNetwork.from_graph(g)
    lengths = {name: r.codelength for name, r in results.items()}
    for name, r in results.items():
        assert np.isfinite(r.codelength), name
        assert len(r.modules) == g.num_vertices, name
        # dense labels in [0, num_modules)
        assert set(np.unique(r.modules)) == set(range(r.num_modules)), name
        # the reported codelength is the map equation of the returned
        # partition on the original graph
        oracle = _partition_codelength(net, r.modules, r.num_modules)
        assert abs(r.codelength - oracle) <= 1e-9, (name, r.codelength, oracle)
    lo, hi = min(lengths.values()), max(lengths.values())
    assert hi <= lo * 1.10 + 1e-9, f"codelength spread too wide: {lengths}"


# ---------------------------------------------------------------------------
# quality floors against planted truth


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize(
    "family", ["undirected", "directed", "weighted"]
)
def test_engines_recover_planted_truth(family, seed):
    results, _, truth = _results(family, seed)
    for name, r in results.items():
        nmi = normalized_mutual_information(r.modules, truth)
        ari = adjusted_rand_index(r.modules, truth)
        assert nmi > 0.9, f"{name}: NMI {nmi:.3f}"
        assert ari > 0.8, f"{name}: ARI {ari:.3f}"


# ---------------------------------------------------------------------------
# parallel(P) is bit-identical to multicore(P): the tentpole guarantee


def _untimed_passes(r):
    """The run's pass records without their times: ``seconds`` is
    simulated on ``multicore`` and wall time elsewhere."""
    return [replace(p, wall_seconds=0.0, seconds=0.0)
            for p in r.telemetry.passes]


@pytest.mark.parametrize("seed", (0, 1, 7))
@pytest.mark.parametrize("workers", (1, 2, 4))
def test_parallel_bit_identical_to_multicore(workers, seed):
    g, _ = _undirected(seed)
    rm = run_infomap_multicore(g, num_cores=workers, seed=seed)
    rp = run_infomap_parallel(g, workers=workers, seed=seed)
    assert np.array_equal(rp.modules, rm.modules)
    assert rp.codelength == rm.codelength
    assert rp.num_modules == rm.num_modules
    assert rp.levels == rm.levels
    assert _untimed_passes(rp) == _untimed_passes(rm)


@pytest.mark.parametrize("family", ["directed", "weighted", "pathological"])
def test_parallel_bit_identical_all_families(family):
    g, _ = FAMILIES[family](3)
    rm = run_infomap_multicore(g, num_cores=2, seed=3)
    rp = run_infomap_parallel(g, workers=2, seed=3)
    assert np.array_equal(rp.modules, rm.modules)
    assert rp.codelength == rm.codelength


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("family", sorted(FAMILIES))
def test_vectorized_bit_identical_to_one_core_bsp(family, seed):
    # vectorized is the BSP schedule on one in-process shard: at the
    # other engines' pass cap it must land exactly where P=1 does
    g, _ = FAMILIES[family](seed)
    rv = run_infomap_vectorized(g, seed=seed, max_passes_per_level=10)
    for r in (
        run_infomap_multicore(g, num_cores=1, seed=seed),
        run_infomap_parallel(g, workers=1, seed=seed),
    ):
        assert np.array_equal(rv.modules, r.modules)
        assert rv.codelength == r.codelength
        assert rv.levels == r.levels
        assert _untimed_passes(rv) == _untimed_passes(r)


@pytest.mark.parametrize("ranks", (1, 2, 4))
@pytest.mark.parametrize("family", sorted(FAMILIES))
def test_distributed_bit_identical_to_multicore(family, ranks):
    # distributed is the BSP schedule at P = num_ranks with the commit
    # RNG at seed 0: at the multicore pass cap it lands exactly there
    g, _ = FAMILIES[family](3)
    rd = run_infomap_distributed(
        g, num_ranks=ranks, max_passes_per_level=10
    )
    rm = run_infomap_multicore(g, num_cores=ranks, seed=0)
    assert np.array_equal(rd.modules, rm.modules)
    assert rd.codelength == rm.codelength
    assert rd.levels == rm.levels


def test_one_multilevel_driver():
    """Two multilevel loops sweep: ``bsp.py``'s, which every batched
    engine runs, and the sequential engine's, which the hierarchy and
    trace recording run too.  An AST scan of ``src/repro`` finds every
    ``for`` loop over ``range(max_levels)``, whatever its target name,
    and the sweeps its body calls."""
    import ast

    sweeps = {"find_best_pass", "best_moves", "propose"}
    src = Path(__file__).resolve().parent.parent / "src" / "repro"
    sources = {p.relative_to(src).as_posix(): p.read_text()
               for p in src.rglob("*.py")}

    def over_max_levels(loop):
        it = loop.iter
        return (isinstance(it, ast.Call)
                and getattr(it.func, "id", None) == "range"
                and len(it.args) == 1
                and getattr(it.args[0], "id",
                            getattr(it.args[0], "attr", None)) == "max_levels")

    level_loops = {}
    for name, text in sources.items():
        for loop in ast.walk(ast.parse(text)):
            if isinstance(loop, ast.For) and over_max_levels(loop):
                level_loops.setdefault(name, set()).update(
                    getattr(call.func, "id", getattr(call.func, "attr", None))
                    for call in ast.walk(loop) if isinstance(call, ast.Call)
                )
    assert {name: calls & sweeps for name, calls in level_loops.items()} == {
        "core/bsp.py": {"propose"},
        "core/infomap.py": {"find_best_pass"},
        # named exceptions, level loops that run no sweep of their own:
        # Louvain optimizes another objective (modularity), and the
        # hierarchy's super-level loop runs infomap's level loop per try
        "baselines/louvain.py": set(),
        "core/hierarchy.py": set(),
    }
    assert {name for name, text in sources.items()
            if "for _backoff in" in text} == {"core/bsp.py"}


# ---------------------------------------------------------------------------
# shard-restriction parity: best_moves(verts=S) == full sweep filtered to S


@pytest.mark.parametrize("family", ["undirected", "directed", "weighted"])
def test_shard_restricted_sweep_matches_filtered_full_sweep(family):
    g, _ = FAMILIES[family](2)
    net = FlowNetwork.from_graph(g)
    n = net.num_vertices
    ws = Workspace()
    ws.bind(net)
    rng = np.random.default_rng(0)
    module = rng.integers(0, 5, n).astype(np.int64)
    _, module = np.unique(module, return_inverse=True)
    enter, exit_, flow = ws.module_state(module, n)
    fv, ft, fd = ws.best_moves(module, enter, exit_, flow)
    for shard in (
        np.arange(0, n, 2),
        np.arange(n // 3, 2 * n // 3),
        np.array([0, n - 1]),
        np.arange(n),
    ):
        sv, st_, sd = ws.best_moves(module, enter, exit_, flow, verts=shard)
        keep = np.isin(fv, shard)
        assert np.array_equal(sv, fv[keep])
        assert np.array_equal(st_, ft[keep])
        assert np.array_equal(sd, fd[keep])


def test_shard_restricted_sweep_empty_shard():
    g, _ = _undirected(0)
    net = FlowNetwork.from_graph(g)
    n = net.num_vertices
    ws = Workspace()
    ws.bind(net)
    module = np.arange(n, dtype=np.int64)
    enter, exit_, flow = ws.module_state(module, n)
    sv, st_, sd = ws.best_moves(
        module, enter, exit_, flow, verts=np.empty(0, np.int64)
    )
    assert len(sv) == len(st_) == len(sd) == 0


# ---------------------------------------------------------------------------
# dynamic column: a warm refresh is engine-independent
#
# warm_refresh runs the shared BSP schedule with (previous labels, dirty
# frontier) as level-0 inputs, so at equal workers/seed/dirty set the
# partition must be bit-identical across vectorized/multicore/parallel —
# the dynamic extension of the simulated-vs-real guarantee above.  The
# threshold is pinned to 1.0 so a large frontier cannot silently fall
# back to a full rerun (where engines only codelength-agree).


def _warm_inputs(family, seed):
    g, _ = FAMILIES[family](seed)
    labels = run_infomap_multicore(g, num_cores=1, seed=seed).modules
    dirty = np.array([0, 1, g.num_vertices // 2], dtype=np.int64)
    return g, labels, dirty


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("family", sorted(FAMILIES))
def test_warm_refresh_identical_across_engines(family, seed):
    from repro.core.dynamic import warm_refresh

    g, labels, dirty = _warm_inputs(family, seed)
    results = {
        engine: warm_refresh(
            g, labels, dirty, engine=engine, workers=1, seed=seed,
            full_rerun_threshold=1.0,
        )
        for engine in ("vectorized", "multicore", "parallel")
    }
    ref = results["vectorized"]
    assert not ref.full_rerun
    for engine, r in results.items():
        assert not r.full_rerun, engine
        assert np.array_equal(r.modules, ref.modules), engine
        assert r.codelength == ref.codelength, engine
        assert r.levels == ref.levels, engine
        assert r.touched_vertices == ref.touched_vertices, engine


def test_warm_refresh_multicore_parallel_bit_identical_multiworker():
    from repro.core.dynamic import warm_refresh

    g, labels, dirty = _warm_inputs("undirected", 3)
    rm = warm_refresh(g, labels, dirty, engine="multicore", workers=2,
                      seed=3, full_rerun_threshold=1.0)
    rp = warm_refresh(g, labels, dirty, engine="parallel", workers=2,
                      seed=3, full_rerun_threshold=1.0)
    assert not rm.full_rerun and not rp.full_rerun
    assert np.array_equal(rp.modules, rm.modules)
    assert rp.codelength == rm.codelength
    assert rp.levels == rm.levels


# ---------------------------------------------------------------------------
# engine dispatch: run_infomap(engine=...) matches the direct entry points


def test_dispatch_matches_direct_calls():
    g, _ = _undirected(0)
    rm = run_infomap(g, engine="multicore", workers=2)
    assert np.array_equal(
        rm.modules, run_infomap_multicore(g, num_cores=2).modules
    )
    rp = run_infomap(g, engine="parallel", workers=2)
    assert np.array_equal(
        rp.modules, run_infomap_parallel(g, workers=2).modules
    )


def test_workers_rejected_for_single_rank_engines():
    g, _ = _undirected(0)
    for engine in ("sequential", "vectorized"):
        with pytest.raises(ValueError):
            run_infomap(g, engine=engine, workers=2)


def test_single_rank_engines_accept_one_worker():
    g, _ = _undirected(0)
    for engine in ("sequential", "vectorized"):
        assert np.array_equal(
            run_infomap(g, engine=engine, workers=1).modules,
            run_infomap(g, engine=engine).modules,
        )


def test_explicit_options_reach_the_engine():
    """An explicit value reaches the engine unchanged: the pass cap on
    ``vectorized`` (not its 30-pass default), the ``plain`` backend on
    ``multicore`` (not softhash), per-core hardware counters included."""
    g, _ = _undirected(1)
    via = run_infomap(g, engine="vectorized", max_passes_per_level=1)
    direct = run_infomap_vectorized(g, max_passes_per_level=1)
    assert np.array_equal(via.modules, direct.modules)
    assert (via.codelength, via.levels, via.telemetry.num_passes) == (
        direct.codelength, direct.levels, direct.telemetry.num_passes)

    via = run_infomap(g, engine="multicore", workers=2, backend="plain")
    direct = run_infomap_multicore(g, num_cores=2, backend="plain")
    assert np.array_equal(via.modules, direct.modules)
    assert via.codelength == direct.codelength
    assert via.backend == direct.backend == "plain"
    assert via.per_core_stats == direct.per_core_stats


@pytest.mark.parametrize("engine, option", [
    ("vectorized", {"backend": "asa"}),
    ("parallel", {"backend": "asa"}),
    ("parallel", {"machine": object()}),
    ("sequential", {"init_active": np.arange(3)}),
])
def test_option_the_engine_does_not_take_is_rejected(engine, option):
    g, _ = _undirected(0)
    (name,) = option
    with pytest.raises(ValueError, match=name):
        run_infomap(g, engine=engine, **option)


def test_engines_entered_only_through_run_infomap():
    """One engine-name switch: inside ``src`` only ``run_infomap`` calls
    the engine entry points.  It returns each engine's own result type,
    so the harness's figure studies enter through it too."""
    import ast

    entries = {"run_infomap_vectorized", "run_infomap_multicore",
               "run_infomap_parallel"}
    src = Path(__file__).resolve().parent.parent / "src" / "repro"
    callers = set()
    for path in src.rglob("*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Call) and getattr(
                    node.func, "id", getattr(node.func, "attr", None)
            ) in entries:
                callers.add(path.relative_to(src).as_posix())
    assert callers == {"core/infomap.py"}


def test_unknown_engine_names_all_four():
    g, _ = _undirected(0)
    with pytest.raises(ValueError, match="parallel"):
        run_infomap(g, engine="bogus")


# ---------------------------------------------------------------------------
# seed determinism: same seed => identical partition, for every engine


@pytest.mark.parametrize(
    "engine", ["sequential", "vectorized", "multicore"]
)
@settings(max_examples=8, deadline=None)
@given(small_seeds)
def test_seed_determinism(engine, seed):
    g, _ = planted_partition(3, 12, 0.5, 0.03, seed=seed % 100)
    run = ENGINES[engine]
    a, b = run(g, seed), run(g, seed)
    assert np.array_equal(a.modules, b.modules)
    assert a.codelength == b.codelength


@settings(max_examples=3, deadline=None)
@given(small_seeds)
def test_seed_determinism_parallel(seed):
    # fewer examples: each one spawns a real worker pool twice
    g, _ = planted_partition(3, 12, 0.5, 0.03, seed=seed % 100)
    a = run_infomap_parallel(g, workers=2, seed=seed)
    b = run_infomap_parallel(g, workers=2, seed=seed)
    assert np.array_equal(a.modules, b.modules)
    assert a.codelength == b.codelength


@settings(max_examples=3, deadline=None)
@given(small_seeds)
def test_seed_determinism_under_any_fault_plan(seed):
    # the chaos half of the determinism contract: ANY seeded FaultPlan
    # preserves seed-determinism — the faulty run is reproducible from
    # (seed, plan) alone AND bit-identical to the fault-free run
    g, _ = planted_partition(3, 12, 0.5, 0.03, seed=seed % 100)
    plan = FaultPlan.random(seed=seed, workers=2, faults=2)
    clean = run_infomap_parallel(g, workers=2, seed=seed)
    a = run_infomap_parallel(
        g, workers=2, seed=seed, fault_plan=plan, worker_timeout=2.0
    )
    b = run_infomap_parallel(
        g, workers=2, seed=seed, fault_plan=plan, worker_timeout=2.0
    )
    assert np.array_equal(a.modules, b.modules)
    assert a.codelength == b.codelength
    assert a.respawns == b.respawns  # even the recovery is reproducible
    assert np.array_equal(a.modules, clean.modules)
    assert a.codelength == clean.codelength
