"""End-to-end tests for the three Infomap engines."""

import numpy as np
import pytest

from repro.core.flow import FlowNetwork
from repro.core.infomap import run_infomap
from repro.core.multicore import run_infomap_multicore
from repro.core.vectorized import run_infomap_vectorized
from repro.graph.build import from_edges
from repro.graph.generators import planted_partition, ring_of_cliques
from repro.quality.nmi import normalized_mutual_information

from tests.test_property_invariants import _partition_codelength


def _aligned(modules, truth):
    """Each ground-truth community maps into exactly one found module."""
    for c in np.unique(truth):
        if len(np.unique(modules[truth == c])) != 1:
            return False
    return True


class TestSequentialEngine:
    def test_ring_of_cliques_exact(self):
        g, truth = ring_of_cliques(8, 6)
        r = run_infomap(g)
        assert r.num_modules == 8
        assert _aligned(r.modules, truth)
        assert r.codelength < r.one_level_codelength

    def test_planted_partition_recovered(self):
        g, truth = planted_partition(5, 30, 0.4, 0.01, seed=2)
        r = run_infomap(g)
        assert normalized_mutual_information(r.modules, truth) > 0.95

    def test_deterministic(self):
        g, _ = planted_partition(4, 20, 0.4, 0.02, seed=1)
        a = run_infomap(g, backend="softhash")
        b = run_infomap(g, backend="softhash")
        assert np.array_equal(a.modules, b.modules)
        assert a.codelength == b.codelength

    def test_backends_identical_partitions(self):
        g, _ = planted_partition(4, 25, 0.4, 0.02, seed=5)
        results = {b: run_infomap(g, backend=b) for b in ("plain", "softhash", "asa")}
        for b in ("softhash", "asa"):
            assert np.array_equal(results[b].modules, results["plain"].modules), b
            assert results[b].codelength == pytest.approx(
                results["plain"].codelength, abs=1e-12
            )

    def test_fidelity_modes_identical_partitions(self):
        from repro.sim.machine import baseline_machine

        g, _ = planted_partition(4, 20, 0.4, 0.02, seed=3)
        rf = run_infomap(g, backend="softhash", machine=baseline_machine("fast"))
        rd = run_infomap(g, backend="softhash", machine=baseline_machine("detailed"))
        assert np.array_equal(rf.modules, rd.modules)
        # instruction counts are mode-independent
        assert rf.stats.findbest.instructions == pytest.approx(
            rd.stats.findbest.instructions
        )

    def test_worklist_matches_full_quality(self):
        g, truth = planted_partition(5, 25, 0.4, 0.02, seed=4)
        rw = run_infomap(g, worklist=True)
        rf = run_infomap(g, worklist=False)
        assert abs(rw.codelength - rf.codelength) / rf.codelength < 0.05
        assert normalized_mutual_information(rw.modules, truth) > 0.9

    def test_directed_graph(self):
        g = from_edges(
            [(0, 1), (1, 2), (2, 0), (3, 4), (4, 5), (5, 3), (2, 3), (5, 0)],
            directed=True, num_vertices=6,
        )
        r = run_infomap(g)
        assert r.num_modules == 2
        assert r.codelength <= r.one_level_codelength + 1e-9

    def test_iteration_records(self):
        g, _ = planted_partition(4, 20, 0.4, 0.02, seed=6)
        r = run_infomap(g, backend="softhash")
        assert len(r.iterations) >= 2
        assert [it.iteration for it in r.iterations] == list(
            range(1, len(r.iterations) + 1)
        )
        assert all(it.seconds >= 0 for it in r.iterations)
        # codelength is non-increasing across records
        ls = [it.codelength for it in r.iterations]
        assert all(b <= a + 1e-9 for a, b in zip(ls, ls[1:]))

    def test_modules_dense_labels(self):
        g, _ = ring_of_cliques(5, 4)
        r = run_infomap(g)
        assert set(np.unique(r.modules)) == set(range(r.num_modules))
        assert len(r.modules) == g.num_vertices

    def test_single_clique_collapses(self):
        g, _ = ring_of_cliques(1, 5)
        r = run_infomap(g)
        assert r.num_modules == 1

    def test_kernel_seconds_structure(self):
        g, _ = ring_of_cliques(4, 5)
        r = run_infomap(g, backend="softhash")
        secs = r.kernel_seconds()
        assert set(secs) == {
            "pagerank", "findbest_hash", "findbest_overflow",
            "findbest_other", "supernode", "update_members",
        }
        assert all(v >= 0 for v in secs.values())
        assert r.total_seconds == pytest.approx(sum(secs.values()), rel=1e-9)

    def test_max_levels_respected(self):
        g, _ = ring_of_cliques(8, 4)
        r = run_infomap(g, max_levels=1)
        assert r.levels == 1

    def test_max_levels_below_one_raises(self):
        # as JobSpec.validate and the distributed engine do: the level
        # loop needs one level to define a partition
        g, _ = ring_of_cliques(8, 4)
        with pytest.raises(ValueError, match="max_levels"):
            run_infomap(g, max_levels=0)

    def test_shuffle_seed_changes_order_not_quality(self):
        g, truth = planted_partition(4, 25, 0.4, 0.02, seed=8)
        a = run_infomap(g, shuffle_seed=1)
        b = run_infomap(g, shuffle_seed=1)
        assert np.array_equal(a.modules, b.modules)  # seeded => reproducible
        c = run_infomap(g, shuffle_seed=2)
        assert normalized_mutual_information(c.modules, truth) > 0.9


@pytest.mark.parametrize("max_levels", [1, 2, 3])
@pytest.mark.parametrize("engine", ["sequential", "multicore"])
def test_level_cap_modules_match_codelength(engine, max_levels):
    """Whether convergence or the level cap ends the run, the returned
    modules encode at the returned codelength: the map equation
    recomputed from them on the original graph agrees."""
    g, _ = planted_partition(8, 30, 0.3, 0.01, seed=3)
    if engine == "sequential":
        r = run_infomap(g, max_levels=max_levels)
    else:
        r = run_infomap_multicore(g, max_levels=max_levels)
    assert r.levels <= max_levels
    assert set(np.unique(r.modules)) == set(range(r.num_modules))
    oracle = _partition_codelength(
        FlowNetwork.from_graph(g), r.modules, r.num_modules
    )
    assert oracle == pytest.approx(r.codelength, abs=1e-9)


class TestVectorizedEngine:
    def test_ring_of_cliques_exact(self):
        g, truth = ring_of_cliques(8, 6)
        r = run_infomap_vectorized(g)
        assert r.num_modules == 8
        assert _aligned(r.modules, truth)

    def test_codelength_close_to_sequential(self):
        g, _ = planted_partition(5, 30, 0.4, 0.01, seed=2)
        rs = run_infomap(g)
        rv = run_infomap_vectorized(g)
        assert abs(rv.codelength - rs.codelength) / rs.codelength < 0.05

    def test_deterministic(self):
        g, _ = planted_partition(4, 20, 0.4, 0.02, seed=1)
        a = run_infomap_vectorized(g, seed=3)
        b = run_infomap_vectorized(g, seed=3)
        assert np.array_equal(a.modules, b.modules)

    def test_directed(self):
        g = from_edges(
            [(0, 1), (1, 2), (2, 0), (3, 4), (4, 5), (5, 3), (2, 3), (5, 0)],
            directed=True, num_vertices=6,
        )
        r = run_infomap_vectorized(g)
        assert r.num_modules == 2

    def test_improvement_over_singletons(self):
        g, _ = planted_partition(6, 20, 0.5, 0.02, seed=9)
        r = run_infomap_vectorized(g)
        assert r.codelength < r.one_level_codelength * 1.5
        assert r.rounds >= 1


class TestMulticoreEngine:
    def test_quality_parity_with_sequential(self):
        g, truth = planted_partition(5, 30, 0.4, 0.01, seed=2)
        rs = run_infomap(g)
        rm = run_infomap_multicore(g, num_cores=4)
        assert abs(rm.codelength - rs.codelength) / rs.codelength < 0.05
        assert normalized_mutual_information(rm.modules, truth) > 0.9

    def test_per_core_stats_count(self):
        g, _ = planted_partition(4, 20, 0.4, 0.02, seed=1)
        rm = run_infomap_multicore(g, num_cores=3)
        assert len(rm.per_core_stats) == 3
        assert rm.num_cores == 3

    def test_work_distributed(self):
        g, _ = planted_partition(6, 40, 0.3, 0.01, seed=7)
        rm = run_infomap_multicore(g, num_cores=2, backend="softhash")
        i0 = rm.per_core_stats[0].findbest.instructions
        i1 = rm.per_core_stats[1].findbest.instructions
        assert i0 > 0 and i1 > 0
        assert 0.3 < i0 / (i0 + i1) < 0.7  # roughly balanced

    def test_total_work_close_to_single_core(self):
        g, _ = planted_partition(6, 40, 0.3, 0.01, seed=7)
        r1 = run_infomap_multicore(g, num_cores=1, backend="softhash")
        rm = run_infomap_multicore(g, num_cores=4, backend="softhash")
        total_1 = sum(ks.findbest.instructions for ks in r1.per_core_stats)
        total_mc = sum(ks.findbest.instructions for ks in rm.per_core_stats)
        # sharding across cores must not inflate the aggregate sweep work:
        # the BSP schedule visits the same worklists regardless of P (only
        # commit conflicts can add passes)
        assert abs(total_mc - total_1) / max(total_1, 1) < 0.3

    def test_parallel_time_shrinks_with_cores(self):
        g, _ = planted_partition(8, 50, 0.3, 0.005, seed=11)
        t = {}
        for p in (1, 4):
            rm = run_infomap_multicore(g, num_cores=p, backend="softhash")
            t[p] = rm.hash_seconds_parallel
        assert t[4] < t[1]

    def test_single_core_deterministic_and_close_to_sequential(self):
        # The BSP schedule (batch propose/commit) differs from the
        # sequential engine's immediate-apply sweep, so partitions need
        # not be bit-equal — but quality must match and the run must be
        # reproducible at a fixed seed.
        g, _ = planted_partition(4, 20, 0.4, 0.02, seed=1)
        rs = run_infomap(g, backend="softhash")
        rm = run_infomap_multicore(g, num_cores=1, backend="softhash")
        assert abs(rm.codelength - rs.codelength) / rs.codelength < 0.05
        rm2 = run_infomap_multicore(g, num_cores=1, backend="softhash")
        assert np.array_equal(rm.modules, rm2.modules)

    def test_invalid_cores(self):
        g, _ = ring_of_cliques(2, 3)
        with pytest.raises(ValueError):
            run_infomap_multicore(g, num_cores=0)

    def test_asa_backend_multicore(self):
        g, _ = planted_partition(4, 25, 0.4, 0.02, seed=5)
        rm = run_infomap_multicore(g, num_cores=2, backend="asa")
        rs = run_infomap_multicore(g, num_cores=2, backend="softhash")
        assert np.array_equal(rm.modules, rs.modules)
        # ASA reduces hash-operation instructions on every core
        for a, s in zip(rm.per_core_stats, rs.per_core_stats):
            assert (
                a.findbest_hash_total.instructions
                < s.findbest_hash_total.instructions
            )
