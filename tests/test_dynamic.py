"""Tests for incremental community maintenance (dynamic graphs)."""

import numpy as np
import pytest

from repro.core.dynamic import DynamicCommunities, warm_refresh
from repro.core.infomap import run_infomap
from repro.core.partition import Partition
from repro.core.flow import FlowNetwork
from repro.graph.generators import planted_partition, ring_of_cliques
from repro.quality import normalized_mutual_information


def seeded_dynamic(graph, **kwargs):
    dyn = DynamicCommunities(graph.num_vertices, directed=graph.directed,
                             **kwargs)
    src, dst, w = graph.edge_array()
    if not graph.directed:
        keep = src < dst
        src, dst, w = src[keep], dst[keep], w[keep]
    for u, v, x in zip(src.tolist(), dst.tolist(), w.tolist()):
        dyn.add_edge(u, v, x)
    return dyn


class TestPartitionFromAssignment:
    def test_matches_recompute(self):
        g, truth = ring_of_cliques(4, 5)
        net = FlowNetwork.from_graph(g)
        p = Partition.from_assignment(net, truth)
        assert p.codelength == pytest.approx(p.codelength_recomputed())
        assert p.num_modules == 4
        assert np.array_equal(np.bincount(truth, minlength=net.num_vertices),
                              p.module_size)

    def test_moves_stay_consistent_after_seeding(self):
        g, truth = ring_of_cliques(3, 4)
        net = FlowNetwork.from_graph(g)
        p = Partition.from_assignment(net, truth)
        # move vertex 0 to module of clique 1 and verify bookkeeping
        out_to = {}
        idx, flow = net.out_arcs(0)
        for t, f in zip(idx.tolist(), flow.tolist()):
            m = int(p.module[t])
            out_to[m] = out_to.get(m, 0.0) + f
        cur = int(p.module[0])
        target = [m for m in out_to if m != cur][0]
        p.apply_move(0, target, out_to.get(cur, 0.0), out_to.get(cur, 0.0),
                     out_to.get(target, 0.0), out_to.get(target, 0.0))
        assert p.codelength == pytest.approx(p.codelength_recomputed())

    def test_length_validation(self):
        g, _ = ring_of_cliques(2, 3)
        net = FlowNetwork.from_graph(g)
        with pytest.raises(ValueError):
            Partition.from_assignment(net, np.zeros(3, dtype=np.int64))


class TestDynamicBasics:
    def test_edge_bookkeeping(self):
        dyn = DynamicCommunities(4)
        dyn.add_edge(0, 1)
        dyn.add_edge(1, 0, 2.0)  # same undirected edge, weights add
        assert dyn.num_edges == 1
        dyn.remove_edge(0, 1)
        assert dyn.num_edges == 0

    def test_remove_missing_edge(self):
        dyn = DynamicCommunities(3)
        with pytest.raises(KeyError):
            dyn.remove_edge(0, 1)

    def test_vertex_range_check(self):
        dyn = DynamicCommunities(3)
        with pytest.raises(ValueError):
            dyn.add_edge(0, 5)

    def test_weight_validation(self):
        dyn = DynamicCommunities(3)
        with pytest.raises(ValueError):
            dyn.add_edge(0, 1, weight=0.0)

    @pytest.mark.parametrize("weight", [float("nan"), float("inf")])
    def test_non_finite_weight_refused_at_add_edge(self, weight):
        """NaN and +inf pass ``weight <= 0``: they must be refused when
        added, not by every later refresh."""
        dyn = DynamicCommunities(4)
        dyn.add_edge(0, 1)
        dyn.add_edge(2, 3)
        with pytest.raises(ValueError, match="positive"):
            dyn.add_edge(1, 2, weight)
        assert dyn.num_edges == 2
        res = dyn.refresh()
        assert res.num_modules == 2

    def test_empty_graph_refresh_defined(self):
        """An edgeless graph refreshes to singletons at codelength 0,
        rather than leaking ``graph()``'s ValueError."""
        dyn = DynamicCommunities(3)
        res = dyn.refresh()
        assert np.array_equal(res.modules, np.arange(3))
        assert res.num_modules == 3
        assert res.codelength == 0.0
        assert res.touched_vertices == 0 and not res.full_rerun
        # graph() itself still refuses to materialize an edgeless CSR
        with pytest.raises(ValueError):
            dyn.graph()

    def test_refresh_after_emptying_resets(self):
        dyn = DynamicCommunities(4)
        dyn.add_edge(0, 1)
        dyn.add_edge(2, 3)
        dyn.refresh()
        dyn.remove_edge(0, 1)
        dyn.remove_edge(2, 3)
        res = dyn.refresh()
        assert res.num_modules == 4 and res.codelength == 0.0

    def test_engine_validation(self):
        with pytest.raises(ValueError):
            DynamicCommunities(4, engine="sequential")
        with pytest.raises(ValueError):
            DynamicCommunities(4, engine="vectorized", workers=2)
        with pytest.raises(ValueError):
            DynamicCommunities(4, full_rerun_threshold=0.0)
        g, truth = ring_of_cliques(3, 4)
        with pytest.raises(ValueError, match="single-rank"):
            warm_refresh(g, truth, [0], engine="vectorized", workers=2)


class TestIncrementalRefresh:
    def test_first_refresh_matches_static(self):
        g, truth = planted_partition(4, 20, 0.4, 0.02, seed=1)
        dyn = seeded_dynamic(g)
        res = dyn.refresh()
        assert res.full_rerun
        static = run_infomap(g)
        assert res.codelength == pytest.approx(static.codelength, rel=0.03)
        assert normalized_mutual_information(res.modules, truth) > 0.85

    def test_incremental_touches_fewer_vertices(self):
        g, _ = planted_partition(6, 25, 0.4, 0.01, seed=2)
        dyn = seeded_dynamic(g)
        first = dyn.refresh()
        dyn.add_edge(0, 30)
        second = dyn.refresh()
        assert not second.full_rerun
        assert second.touched_vertices < first.touched_vertices

    def test_incremental_quality_close_to_scratch(self):
        g, truth = planted_partition(5, 24, 0.4, 0.02, seed=3)
        dyn = seeded_dynamic(g)
        dyn.refresh()
        rng = np.random.default_rng(0)
        # random intra-community reinforcements + a few cross edges
        for _ in range(12):
            u, v = rng.integers(0, g.num_vertices, 2)
            if u != v:
                dyn.add_edge(int(u), int(v))
        res = dyn.refresh()
        scratch = run_infomap(dyn.graph())
        assert res.codelength <= scratch.codelength * 1.05 + 1e-9

    def test_structural_change_tracked(self):
        """Merging two cliques by adding many cross edges must merge their
        modules incrementally (threshold pinned high to stay warm)."""
        g, truth = ring_of_cliques(4, 5)
        dyn = seeded_dynamic(g, full_rerun_threshold=1.0)
        dyn.refresh()
        before = dyn.modules.copy()
        assert before[0] != before[5]  # cliques 0 and 1 distinct
        for i in range(5):
            for j in range(5):
                if (i, 5 + j) != (0, 5):
                    dyn.add_edge(i, 5 + j)
        res = dyn.refresh()
        assert not res.full_rerun
        assert res.modules[0] == res.modules[5]  # merged now

    def test_edge_deletion_splits(self):
        """Deleting the bridge edges between two merged cliques must let
        them separate again (threshold pinned high to stay warm)."""
        dyn = DynamicCommunities(10, full_rerun_threshold=1.0)
        # two 5-cliques fully cross-connected (one community)
        for a in range(10):
            for b in range(a + 1, 10):
                dyn.add_edge(a, b)
        dyn.refresh()
        assert dyn.modules[0] == dyn.modules[9]
        # delete all cross edges
        for a in range(5):
            for b in range(5, 10):
                dyn.remove_edge(a, b)
        # keep one weak bridge so the graph stays connected
        dyn.add_edge(0, 5, 0.1)
        res = dyn.refresh()
        assert not res.full_rerun
        assert res.modules[0] != res.modules[9]
        assert res.num_modules == 2

    def test_refresh_without_updates_is_stable(self):
        g, _ = planted_partition(4, 20, 0.4, 0.02, seed=4)
        dyn = seeded_dynamic(g)
        a = dyn.refresh()
        b = dyn.refresh()
        assert np.array_equal(a.modules, b.modules)
        assert b.touched_vertices == 0
