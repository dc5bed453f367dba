"""Property suite for the result cache's content addressing, plus
chaos resilience of the service itself.

:func:`repro.service.cache.graph_digest` claims to hash the *canonical
arc multiset* — two graphs digest equal iff they describe the same
network.  Hypothesis drives both directions over adversarial edge lists
(duplicates, self-loops, isolated vertices — ``tests/strategies``):

* invariant under edge-list permutation and under rewriting an edge as
  duplicate half-weight copies (the canonicalization direction);
* distinct under weight scaling and vertex-count changes (the
  collision direction — a digest that ignored weights would serve the
  wrong partition from the cache).

The bytes are pinned too: golden digests of three fixed graphs, golden
cache keys (graph digest plus params hash) for a plain and a delta
spec on one of them, and on every canonical graph the hash taken straight from the arrays equals
the lexsort-and-coalesce reference and
:func:`~repro.graph.stream.streamed_digest`; a non-canonical CSR
digests as its canonical rebuild.  A refactor cannot silently re-key
the cache or the ledger.

:func:`repro.service.cache.cache_key` must split the same way on
parameters: result-determining fields (engine/workers/seed/tau/caps)
change the key, serving fields (priority/deadline/label/cache opt-out)
never do.

The chaos half injects ``kill`` faults (``repro.core.faults``) through
the *service* path and asserts the supervised recovery that PR 4 proved
for single runs still holds across jobs: the faulted job completes
bit-identically, skips the cache, and the service runs the next job on
the same warm pool.
"""

import hashlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.graph.build import from_edge_array, from_edges
from repro.graph.csr import CSRGraph, canonical_rows
from repro.graph.generators import planted_partition
from repro.graph.stream import streamed_digest
from repro.service import JobService, JobSpec, ResultCache
from repro.service.cache import CacheEntry, cache_key, graph_digest
from repro.service.delta import Delta

from tests.strategies import (edge_lists, hand_built_csrs, seeds,
                              weighted_graphs)

NUM_VERTICES = 10  # fixed so permutations cannot change the vertex set


def _graph_from(edges, directed=False):
    return from_edges(edges, num_vertices=NUM_VERTICES, directed=directed)


# ---------------------------------------------------------------------------
# graph digest: invariance direction


@settings(max_examples=60, deadline=None)
@given(edges=edge_lists(max_vertex=NUM_VERTICES - 1), shuffle=seeds,
       directed=st.booleans())
def test_digest_invariant_under_edge_permutation(edges, shuffle, directed):
    g = _graph_from(edges, directed)
    rng = np.random.default_rng(shuffle)
    permuted = [edges[i] for i in rng.permutation(len(edges))]
    assert graph_digest(_graph_from(permuted, directed)) == graph_digest(g)


@settings(max_examples=60, deadline=None)
@given(edges=edge_lists(max_vertex=NUM_VERTICES - 1), pick=seeds)
def test_digest_invariant_under_duplicate_edge_spelling(edges, pick):
    """(u, v, w) and two copies of (u, v, w/2) describe the same
    multiset — duplicate arcs coalesce by summing weights."""
    g = _graph_from(edges)
    u, v = edges[pick % len(edges)]
    rewritten = list(edges) + [(u, v, 0.5), (u, v, 0.5)]
    reference = list(edges) + [(u, v, 1.0)]
    assert graph_digest(_graph_from(rewritten)) == graph_digest(
        _graph_from(reference)
    )
    # and the rewrite genuinely changed the network vs the original
    assert graph_digest(_graph_from(rewritten)) != graph_digest(g)


# ---------------------------------------------------------------------------
# graph digest: distinctness direction


@settings(max_examples=60, deadline=None)
@given(edges=edge_lists(max_vertex=NUM_VERTICES - 1))
def test_digest_distinct_under_weight_scaling(edges):
    g = _graph_from(edges)
    doubled = [(u, v, 2.0) for u, v in edges]
    assert graph_digest(_graph_from(doubled)) != graph_digest(g)


@settings(max_examples=60, deadline=None)
@given(edges=edge_lists(max_vertex=NUM_VERTICES - 1))
def test_digest_distinct_under_isolated_vertex_count(edges):
    g = _graph_from(edges)
    grown = from_edges(edges, num_vertices=NUM_VERTICES + 1)
    assert graph_digest(grown) != graph_digest(g)


@settings(max_examples=60, deadline=None)
@given(edges=edge_lists(max_vertex=NUM_VERTICES - 1, min_size=2))
def test_digest_distinct_under_directedness(edges):
    und = _graph_from(edges, directed=False)
    dire = _graph_from(edges, directed=True)
    assert graph_digest(und) != graph_digest(dire)


# ---------------------------------------------------------------------------
# graph digest: pinned bytes, the canonical path, non-canonical rebuilds


def _lexsort_digest(graph):
    """``graph_digest`` as it was before the canonical path: lexsort and
    coalesce every graph (the reference)."""
    src, dst, w = graph.edge_array()
    order = np.lexsort((dst, src))
    src, dst, w = src[order], dst[order], w[order]
    if len(src):
        first = np.empty(len(src), dtype=bool)
        first[0] = True
        first[1:] = (src[1:] != src[:-1]) | (dst[1:] != dst[:-1])
        group = np.cumsum(first) - 1
        w = np.bincount(group, weights=w)
        src, dst = src[first], dst[first]
    h = hashlib.sha256()
    h.update(f"csr/v1:{graph.num_vertices}:{int(graph.directed)}:".encode())
    h.update(np.ascontiguousarray(src, dtype=np.int64).tobytes())
    h.update(np.ascontiguousarray(dst, dtype=np.int64).tobytes())
    h.update(np.ascontiguousarray(w, dtype=np.float64).tobytes())
    return h.hexdigest()


#: (graph, its digest as first published) — a change here re-keys every
#: cache entry and every ledger run_key
GOLDEN_DIGESTS = {
    "planted": (
        lambda: planted_partition(3, 10, 0.5, 0.05, seed=2)[0],
        "a5e9a5d91b675ff033c5bcdbd4b931c8eed3224a8517a4990209be17a5d59b8b",
    ),
    "directed": (
        lambda: from_edges([(0, 1, 1.0), (1, 2, 2.5), (2, 0, 0.5),
                            (2, 3, 1.0), (3, 2, 1.0), (3, 1, 0.125)],
                           directed=True),
        "c2225cd828375c07354a0443d8a3be1987e59288ab662bb8eb38a3b03ad920ec",
    ),
    "loops_isolated": (
        lambda: from_edges([(0, 0, 2.0), (0, 1, 0.75), (1, 2, 1.5),
                            (2, 2, 0.25), (1, 3, 3.0), (3, 0, 1.1)],
                           num_vertices=5),
        "46d1b35c1fb450f8b033b8115662d6de8e8663c7fa537615d6de21e48d633a42",
    ),
}


@pytest.mark.parametrize("name", sorted(GOLDEN_DIGESTS))
def test_digest_bytes_are_pinned(name):
    make, golden = GOLDEN_DIGESTS[name]
    assert graph_digest(make()) == golden


@settings(max_examples=150, deadline=None)
@given(graph=weighted_graphs(), chunk_arcs=st.integers(1, 16))
def test_canonical_digest_equals_lexsort_and_streamed(graph, chunk_arcs):
    assert canonical_rows(graph.indptr, graph.indices)
    assert graph_digest(graph) == _lexsort_digest(graph)
    assert graph_digest(graph) == streamed_digest(graph, chunk_arcs)


@settings(max_examples=150, deadline=None)
@given(graph=hand_built_csrs())
def test_any_csr_digests_as_its_canonical_rebuild(graph):
    rebuilt = from_edge_array(
        *graph.edge_array(), num_vertices=graph.num_vertices,
        directed=graph.directed, input_is_arcs=True,
    )
    assert graph_digest(graph) == graph_digest(rebuilt)
    assert graph_digest(graph) == _lexsort_digest(graph)


def test_non_canonical_csr_digests_as_its_rebuild():
    # row 0 unsorted with a duplicate arc: 0->2, 0->1, 0->2
    g = CSRGraph(indptr=[0, 3, 4, 5], indices=[2, 1, 2, 0, 1],
                 weights=[0.5, 1.0, 0.25, 3.0, 2.0], directed=True)
    assert not canonical_rows(g.indptr, g.indices)
    rebuilt = from_edge_array(*g.edge_array(), num_vertices=3,
                              directed=True, input_is_arcs=True)
    assert canonical_rows(rebuilt.indptr, rebuilt.indices)
    assert rebuilt.weights.tolist() == [1.0, 0.75, 3.0, 2.0]
    assert graph_digest(g) == graph_digest(rebuilt) == _lexsort_digest(g)


# ---------------------------------------------------------------------------
# cache keys: result-determining fields split, serving fields don't


def _spec(**kw):
    g, _ = planted_partition(3, 10, 0.5, 0.05, seed=2)
    base = dict(graph=g, engine="parallel", workers=2, seed=0)
    base.update(kw)
    return JobSpec(**base)


@pytest.mark.parametrize(
    "change",
    [
        {"engine": "multicore"},
        {"engine": "vectorized", "workers": 1},
        {"workers": 3},
        {"seed": 1},
        {"tau": 0.2},
        {"max_levels": 3},
        {"max_passes_per_level": 4},
    ],
    ids=lambda c: "+".join(c),
)
def test_cache_key_splits_on_result_determining_params(change):
    assert cache_key(_spec(**change)) != cache_key(_spec())


@pytest.mark.parametrize(
    "change",
    [
        {"priority": 7},
        {"deadline": 60.0},
        {"label": "renamed"},
        {"use_cache": False},
        {"worker_timeout": 5.0},
    ],
    ids=lambda c: "+".join(c),
)
def test_cache_key_ignores_serving_params(change):
    assert cache_key(_spec(**change)) == cache_key(_spec())


@settings(max_examples=30, deadline=None)
@given(seed_a=st.integers(0, 50), seed_b=st.integers(0, 50))
def test_cache_key_equality_tracks_seed_equality(seed_a, seed_b):
    same = cache_key(_spec(seed=seed_a)) == cache_key(_spec(seed=seed_b))
    assert same == (seed_a == seed_b)


#: (spec, its key under params/v4) on the "planted" golden graph — a
#: change here re-keys every cache entry, so rendezvous routing and
#: every warm-start base_key move with it
GOLDEN_KEYS = {
    "plain": (
        lambda: _spec(),
        "a5e9a5d91b675ff033c5bcdbd4b931c8eed3224a8517a4990209be17a5d59b8b"
        "/5a8424a0caa403690f02f8363de2a26b650da37ea37b7217c284e892e7d01550",
    ),
    "delta": (
        lambda: _spec(delta=Delta.from_json([["add", 0, 29, 2.0],
                                             ["remove", 0, 1]])),
        "a5e9a5d91b675ff033c5bcdbd4b931c8eed3224a8517a4990209be17a5d59b8b"
        "+2476d5ec993b0eaafc69a6e09a21ee111f8e68004568c7f946aedcce40e0357b"
        "/8100d1a7a9fbc442aacb7aea3a0e0d64d3ff8b7a6f9bf2c8addfe4b5d0afc36f",
    ),
}


@pytest.mark.parametrize("name", sorted(GOLDEN_KEYS))
def test_cache_key_bytes_are_pinned(name):
    make, golden = GOLDEN_KEYS[name]
    assert cache_key(make()) == golden


# ---------------------------------------------------------------------------
# ResultCache unit layer: LRU bound, copy isolation, disabled mode


def _entry(tag):
    return CacheEntry(modules=np.array([tag, tag], dtype=np.int64),
                      num_modules=1, codelength=float(tag), levels=1)


def test_cache_lru_evicts_least_recently_used():
    c = ResultCache(max_entries=2)
    c.put("a", _entry(0))
    c.put("b", _entry(1))
    assert c.get("a") is not None  # refreshes 'a'
    c.put("c", _entry(2))          # evicts 'b', the LRU tail
    assert c.get("b") is None
    assert c.get("a") is not None and c.get("c") is not None
    assert c.stats()["evictions"] == 1
    assert len(c) == 2


def test_cache_copies_arrays_both_ways():
    c = ResultCache(max_entries=2)
    arr = np.array([1, 2, 3], dtype=np.int64)
    c.put("k", CacheEntry(modules=arr, num_modules=3, codelength=1.0,
                          levels=1))
    arr[0] = 99  # caller mutates after insert: cache must not see it
    out = c.get("k")
    assert out.modules[0] == 1
    out.modules[0] = 77  # reader mutates the hit: cache must not see it
    assert c.get("k").modules[0] == 1


def test_cache_disabled_stores_and_returns_nothing():
    c = ResultCache(max_entries=0)
    assert not c.enabled
    c.put("k", _entry(1))
    assert c.get("k") is None
    assert len(c) == 0
    assert c.stats()["misses"] == 1


# ---------------------------------------------------------------------------
# concurrency: the gateway hammers shard caches from worker threads
# while stats readers poll from the event loop


def test_cache_concurrent_hammer_keeps_invariants():
    """8 threads × mixed get/put over a tight key space, against a
    capacity-4 LRU.  At every instant (checked live by reader threads
    and at the end): size never exceeds capacity, every served hit is a
    self-consistent entry (modules payload matches its codelength tag),
    and the hit/miss/eviction counters reconcile exactly with the
    operations performed."""
    import threading

    cache = ResultCache(max_entries=4)
    keys = [f"k{i}" for i in range(10)]
    per_thread_ops = 400
    num_threads = 8
    errors: list[str] = []
    local_counts = []  # per-thread (gets, puts)

    def worker(tid: int) -> None:
        rng = np.random.default_rng(tid)
        gets = puts = 0
        for i in range(per_thread_ops):
            key = keys[int(rng.integers(0, len(keys)))]
            tag = int(key[1:])
            if rng.random() < 0.5:
                cache.put(key, _entry(tag))
                puts += 1
            else:
                out = cache.get(key)
                gets += 1
                if out is not None:
                    # a hit must be internally consistent, never a
                    # half-written or cross-key entry
                    if (out.codelength != float(tag)
                            or out.modules.tolist() != [tag, tag]):
                        errors.append(f"torn read for {key}: "
                                      f"{out.codelength}, {out.modules}")
            if i % 50 == 0 and len(cache) > cache.max_entries:
                errors.append(f"size {len(cache)} exceeds capacity")
        local_counts.append((gets, puts))

    threads = [threading.Thread(target=worker, args=(t,))
               for t in range(num_threads)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()

    assert not errors, errors[:5]
    stats = cache.stats()
    total_gets = sum(g for g, _ in local_counts)
    total_puts = sum(p for _, p in local_counts)
    assert total_gets + total_puts == num_threads * per_thread_ops
    # counters reconcile exactly: every get was a hit or a miss — a
    # lost update under a race would break this equality
    assert stats["hits"] + stats["misses"] == total_gets
    assert len(cache) <= cache.max_entries
    assert stats["entries"] == len(cache)


def test_cache_concurrent_evictions_reconcile_exactly():
    """Pure put storm from threads: live entries + evictions == puts
    is exact under the lock (it was a data race before)."""
    import threading

    cache = ResultCache(max_entries=3)
    puts_per_thread = 300
    num_threads = 6

    def worker(tid: int) -> None:
        for i in range(puts_per_thread):
            cache.put(f"t{tid}-{i}", _entry(tid))

    threads = [threading.Thread(target=worker, args=(t,))
               for t in range(num_threads)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()

    stats = cache.stats()
    total_puts = num_threads * puts_per_thread
    # every put either still lives or was evicted — nothing lost or
    # double-counted (keys are unique, so no same-key overwrites)
    assert stats["entries"] + stats["evictions"] == total_puts
    assert stats["entries"] <= 3


# ---------------------------------------------------------------------------
# chaos: injected kill faults through the service path


def _planted():
    g, _ = planted_partition(4, 20, 0.45, 0.02, seed=1)
    return g


def test_killed_worker_mid_job_recovers_bit_identically():
    g = _planted()
    with JobService(cache_entries=8) as svc:
        (chaos,) = svc.run_batch(
            [JobSpec(graph=g, workers=2, seed=0,
                     fault_plan="kill@w0:b1", worker_timeout=5.0)]
        )
        assert chaos.ok, chaos.error
        assert chaos.respawns >= 1  # the fault really fired
        # chaos jobs never populate the cache
        assert len(svc.cache) == 0
        clean = svc.run_batch([JobSpec(graph=g, workers=2, seed=0)])[0]
        assert clean.ok and clean.warm_pool
        assert not clean.cache_hit  # nothing was cached to hit
    assert np.array_equal(chaos.modules, clean.modules)
    assert chaos.codelength == clean.codelength


def test_service_survives_repeated_kill_faults_across_jobs():
    g = _planted()
    with JobService(cache_entries=0) as svc:
        specs = []
        for seed in range(3):
            specs.append(JobSpec(graph=g, workers=2, seed=seed,
                                 fault_plan=f"kill@w{seed % 2}:b1",
                                 worker_timeout=5.0, label=f"chaos{seed}"))
            specs.append(JobSpec(graph=g, workers=2, seed=seed,
                                 label=f"clean{seed}"))
        results = svc.run_batch(specs)
        assert all(r.ok for r in results), [
            (r.label, r.error) for r in results if not r.ok
        ]
        by_label = {r.label: r for r in results}
        for seed in range(3):
            assert np.array_equal(
                by_label[f"chaos{seed}"].modules,
                by_label[f"clean{seed}"].modules,
            ), f"fault at seed {seed} perturbed the partition"
        # one cold spawn total: every recovery kept the pool alive
        assert svc.pools.stats()["cold_spawns"] == 1


def test_bad_fault_plan_is_rejected_not_raised():
    g = _planted()
    with JobService() as svc:
        (r,) = svc.run_batch([JobSpec(graph=g, workers=2,
                                      fault_plan="explode@w0:b1")])
    assert r.status == "rejected"
    assert "invalid job spec" in r.error
