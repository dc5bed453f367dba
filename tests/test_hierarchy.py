"""Tests for hierarchical Infomap (the nested map equation)."""

import numpy as np
import pytest

from repro.core.flow import FlowNetwork
from repro.core.hierarchy import (
    HModule,
    _boundary_flows,
    _index_cost,
    _leaf_cost,
    hierarchical_codelength,
    run_infomap_hierarchical,
)
from repro.core.infomap import run_infomap
from repro.graph.build import from_edge_array
from repro.graph.generators import planted_partition, ring_of_cliques
from repro.quality import normalized_mutual_information


def nested_rings(num_groups=4, cliques_per_group=4, clique_size=5):
    """num_groups super-groups, each a ring of cliques, weakly chained."""
    src_l, dst_l = [], []
    offset = 0
    per_group = cliques_per_group * clique_size
    for _ in range(num_groups):
        g, _ = ring_of_cliques(cliques_per_group, clique_size)
        s, d, _w = g.edge_array()
        keep = s < d
        src_l.append(s[keep] + offset)
        dst_l.append(d[keep] + offset)
        offset += per_group
    for b in range(num_groups):
        src_l.append(np.array([b * per_group]))
        dst_l.append(np.array([((b + 1) % num_groups) * per_group + 1]))
    n = num_groups * per_group
    g = from_edge_array(
        np.concatenate(src_l), np.concatenate(dst_l), num_vertices=n
    )
    truth_top = np.repeat(np.arange(num_groups), per_group)
    truth_leaf = np.repeat(
        np.arange(num_groups * cliques_per_group), clique_size
    )
    return g, truth_top, truth_leaf


class TestBoundaryFlows:
    def test_whole_graph_has_no_boundary(self):
        g, _ = ring_of_cliques(3, 4)
        net = FlowNetwork.from_graph(g)
        enter, exit_, flow = _boundary_flows(net, np.arange(g.num_vertices))
        assert enter == pytest.approx(0.0)
        assert exit_ == pytest.approx(0.0)
        assert flow == pytest.approx(1.0)

    def test_single_vertex(self):
        g, _ = ring_of_cliques(2, 3)
        net = FlowNetwork.from_graph(g)
        enter, exit_, flow = _boundary_flows(net, np.array([0]))
        assert enter == pytest.approx(float(net.node_in[0]))
        assert exit_ == pytest.approx(float(net.node_out[0]))


class TestCosts:
    def test_index_cost_zero_for_single_word(self):
        # one submodule, no exit: codebook is deterministic -> zero bits
        assert _index_cost(0.0, [0.25]) == pytest.approx(0.0)

    def test_index_cost_positive_when_uncertain(self):
        assert _index_cost(0.1, [0.1, 0.1]) > 0.0


class TestHierarchicalRun:
    def test_recovers_nested_structure(self):
        g, truth_top, truth_leaf = nested_rings()
        r = run_infomap_hierarchical(g)
        n = g.num_vertices
        assert r.max_depth == 2
        assert normalized_mutual_information(
            r.top_assignment(n), truth_top
        ) == pytest.approx(1.0)
        assert normalized_mutual_information(
            r.leaf_assignment(n), truth_leaf
        ) == pytest.approx(1.0)

    def test_hierarchy_never_worse_than_two_level(self):
        for seed in (1, 2):
            g, _ = planted_partition(6, 20, 0.4, 0.02, seed=seed)
            r = run_infomap_hierarchical(g)
            assert r.codelength <= r.two_level_codelength + 1e-9

    def test_flat_structure_stays_flat(self):
        """A single ring of cliques has no super-structure worth a level
        beyond (possibly) one grouping; leaves must match the cliques."""
        g, truth = ring_of_cliques(6, 5)
        r = run_infomap_hierarchical(g)
        leaf = r.leaf_assignment(g.num_vertices)
        assert normalized_mutual_information(leaf, truth) == pytest.approx(1.0)

    def test_two_level_start_is_the_sequential_engine(self):
        """The hierarchy starts from the sequential engine's partition
        (its level loop, plain accumulator, 10 levels of 10 passes)."""
        g, _ = planted_partition(4, 25, 0.4, 0.02, seed=1)
        r = run_infomap_hierarchical(g)
        seq = run_infomap(g, max_levels=10)
        assert r.two_level_codelength == pytest.approx(
            seq.codelength, abs=1e-9)

    def test_codelength_matches_tree_evaluation(self):
        g, *_ = nested_rings()
        net = FlowNetwork.from_graph(g)
        r = run_infomap_hierarchical(g)
        assert r.codelength == pytest.approx(
            hierarchical_codelength(r.root_children, net)
        )

    def test_assignment_covers_every_vertex(self):
        g, _ = planted_partition(5, 15, 0.4, 0.03, seed=3)
        r = run_infomap_hierarchical(g)
        leaf = r.leaf_assignment(g.num_vertices)
        assert leaf.min() >= 0
        assert len(np.unique(leaf)) == r.num_leaf_modules

    def test_min_module_size_blocks_splitting(self):
        g, _ = planted_partition(4, 10, 0.6, 0.02, seed=4)
        r = run_infomap_hierarchical(g, min_module_size=10**6)
        # no downward splits allowed; depth comes only from grouping
        for top in r.root_children:
            for leaf in top.leaves():
                assert leaf.is_leaf

    def test_hmodule_helpers(self):
        leaf = HModule(np.array([0, 1]), 0.1, 0.1, 0.2)
        parent = HModule(np.array([0, 1, 2]), 0.1, 0.1, 0.3, children=[leaf])
        assert leaf.is_leaf and not parent.is_leaf
        assert parent.depth() == 2
        assert parent.leaves() == [leaf]
