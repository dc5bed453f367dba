"""Tests for the CSR graph substrate."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.graph.build import coalesce_arcs, from_edge_array, from_edges
from repro.graph.csr import CSRGraph, canonical_rows

from tests.strategies import (directedness, edge_lists, hand_built_csrs,
                              weighted_graphs)


def triangle():
    return from_edges([(0, 1), (1, 2), (0, 2)], num_vertices=3)


class TestConstruction:
    def test_undirected_mirrors_arcs(self):
        g = triangle()
        assert g.num_vertices == 3
        assert g.num_arcs == 6
        assert g.num_edges == 3

    def test_directed_keeps_arcs(self):
        g = from_edges([(0, 1), (1, 2)], directed=True, num_vertices=3)
        assert g.num_arcs == 2
        assert g.num_edges == 2

    def test_duplicate_edges_merge_weights(self):
        g = from_edges([(0, 1, 2.0), (0, 1, 3.0)], num_vertices=2)
        idx, w = g.out_neighbors(0)
        assert list(idx) == [1]
        assert w[0] == pytest.approx(5.0)

    def test_self_loop_stored_once_undirected(self):
        g = from_edges([(0, 0, 1.5), (0, 1)], num_vertices=2)
        assert g.num_edges == 2
        idx, w = g.out_neighbors(0)
        assert set(idx.tolist()) == {0, 1}

    def test_isolated_vertices(self):
        g = from_edges([(0, 1)], num_vertices=5)
        assert g.num_vertices == 5
        assert g.out_degree(4) == 0

    def test_weights_must_be_positive(self):
        with pytest.raises(ValueError):
            from_edges([(0, 1, 0.0)], num_vertices=2)

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"),
                                     float("-inf")])
    def test_weights_must_be_finite(self, bad):
        with pytest.raises(ValueError, match="finite and positive"):
            from_edges([(0, 1, 1.0), (1, 2, bad)], num_vertices=3)
        with pytest.raises(ValueError, match="finite and positive"):
            CSRGraph(indptr=[0, 1, 1], indices=[1], weights=[bad],
                     directed=True)

    def test_bad_vertex_id(self):
        with pytest.raises(ValueError):
            from_edge_array(np.array([0]), np.array([5]), num_vertices=2)

    def test_negative_vertex_id(self):
        with pytest.raises(ValueError):
            from_edge_array(np.array([-1]), np.array([0]), num_vertices=2)

    def test_mismatched_lengths(self):
        with pytest.raises(ValueError):
            from_edge_array(np.array([0]), np.array([1, 2]))


class TestAccessors:
    def test_out_neighbors(self):
        g = triangle()
        idx, w = g.out_neighbors(0)
        assert set(idx.tolist()) == {1, 2}
        assert np.all(w == 1.0)

    def test_degrees(self):
        g = from_edges([(0, 1), (0, 2), (0, 3)], num_vertices=4)
        assert g.out_degree(0) == 3
        assert g.out_degree(1) == 1
        assert list(g.out_degree()) == [3, 1, 1, 1]

    def test_strengths_undirected_symmetric(self):
        g = from_edges([(0, 1, 2.0), (1, 2, 3.0)], num_vertices=3)
        assert np.allclose(g.out_strength(), g.in_strength())
        assert g.out_strength()[1] == pytest.approx(5.0)

    def test_directed_in_out(self):
        g = from_edges([(0, 1, 2.0), (2, 1, 3.0)], directed=True, num_vertices=3)
        assert g.out_strength()[0] == pytest.approx(2.0)
        assert g.in_strength()[1] == pytest.approx(5.0)
        idx, w = g.in_neighbors(1)
        assert set(idx.tolist()) == {0, 2}

    def test_total_weight(self):
        g = triangle()
        assert g.total_weight == pytest.approx(6.0)  # both arc directions

    def test_edge_array_round_trip(self):
        g = from_edges([(0, 1, 2.0), (1, 2, 0.5)], num_vertices=3)
        src, dst, w = g.edge_array()
        g2 = from_edge_array(src, dst, w, num_vertices=3, input_is_arcs=True)
        assert np.array_equal(g2.indptr, g.indptr)
        assert np.array_equal(g2.indices, g.indices)
        assert np.allclose(g2.weights, g.weights)

    def test_arcs_iterator(self):
        g = from_edges([(0, 1, 2.0)], num_vertices=2)
        arcs = sorted(g.arcs())
        assert arcs == [(0, 1, 2.0), (1, 0, 2.0)]


class TestSubgraph:
    def test_induced_subgraph(self):
        g = from_edges([(0, 1), (1, 2), (2, 3), (3, 0)], num_vertices=4)
        sub = g.subgraph(np.array([0, 1, 2]))
        assert sub.num_vertices == 3
        assert sub.num_edges == 2  # (0,1), (1,2) survive

    def test_empty_subgraph(self):
        g = triangle()
        sub = g.subgraph(np.array([0]))
        assert sub.num_vertices == 1
        assert sub.num_arcs == 0


class TestInvariants:
    def test_validate_passes_on_wellformed(self):
        triangle().validate()

    def test_validate_directed(self):
        g = from_edges([(0, 1), (1, 2), (2, 0)], directed=True, num_vertices=3)
        g.validate()

    def test_indptr_must_start_at_zero(self):
        with pytest.raises(ValueError):
            CSRGraph(
                indptr=np.array([1, 2]), indices=np.array([0]),
                weights=np.array([1.0]),
            )

    def test_indptr_monotone(self):
        with pytest.raises(ValueError):
            CSRGraph(
                indptr=np.array([0, 2, 1]),
                indices=np.array([0]),
                weights=np.array([1.0]),
            )

    @settings(max_examples=30, deadline=None)
    @given(edge_lists(max_vertex=15, max_size=60), directedness)
    def test_property_construction_invariants(self, edges, directed):
        g = from_edges(edges, num_vertices=16, directed=directed)
        g.validate()
        # total weight equals coalesced arc sum
        assert g.total_weight == pytest.approx(float(g.weights.sum()))
        # degrees sum to arc count
        assert int(np.asarray(g.out_degree()).sum()) == g.num_arcs


class TestCoalesce:
    def test_merges_duplicates(self):
        src = np.array([0, 0, 1], dtype=np.int64)
        dst = np.array([1, 1, 0], dtype=np.int64)
        w = np.array([1.0, 2.0, 4.0])
        s, d, ww = coalesce_arcs(src, dst, w, 2)
        assert len(s) == 2
        assert ww[np.lexsort((d, s))].tolist() == [3.0, 4.0]

    def test_empty(self):
        e = np.empty(0, np.int64)
        s, d, w = coalesce_arcs(e, e, np.empty(0), 5)
        assert len(s) == 0


class TestCanonicalRows:
    """``canonical_rows`` — the one test of "rows strictly increasing by
    destination" that the graph digests and ``Delta.apply`` share."""

    @staticmethod
    def _row_by_row(g):
        return all(
            np.all(np.diff(g.indices[g.indptr[r]:g.indptr[r + 1]]) > 0)
            for r in range(g.num_vertices)
        )

    def test_examples(self):
        assert canonical_rows(np.array([0]), np.array([], dtype=np.int64))
        # row 1 starts below row 0's last arc: still canonical
        assert canonical_rows(np.array([0, 2, 2, 4]), np.array([1, 3, 0, 2]))
        assert not canonical_rows(np.array([0, 2]), np.array([1, 1]))
        assert not canonical_rows(np.array([0, 2]), np.array([2, 1]))

    @settings(max_examples=150, deadline=None)
    @given(g=st.one_of(weighted_graphs(), hand_built_csrs()))
    def test_matches_a_row_by_row_check(self, g):
        assert canonical_rows(g.indptr, g.indices) == self._row_by_row(g)

    @settings(max_examples=150, deadline=None)
    @given(g=hand_built_csrs(), data=st.data())
    def test_any_run_of_rows_checks_alone(self, g, data):
        """A caller may check a big CSR one chunk of rows at a time."""
        cuts = sorted(data.draw(st.lists(
            st.integers(0, g.num_vertices), max_size=4)))
        bounds = [0, *cuts, g.num_vertices]
        chunks = [
            canonical_rows(g.indptr[r0:r1 + 1],
                           g.indices[g.indptr[r0]:g.indptr[r1]])
            for r0, r1 in zip(bounds, bounds[1:])
        ]
        assert all(chunks) == canonical_rows(g.indptr, g.indices)
