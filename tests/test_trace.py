"""Tests for accumulation-trace recording and CAM replay."""

import numpy as np
import pytest

from repro.asa.trace import (
    TraceRecordingAccumulator,
    record_trace,
    replay_trace,
)
from repro.core.infomap import run_infomap
from repro.graph.build import from_edge_array
from repro.graph.generators import planted_partition, ring_of_cliques


class TestRecorder:
    def test_phases_logged(self):
        rec = TraceRecordingAccumulator()
        rec.begin(0)
        rec.accumulate(1, 1.0)
        rec.accumulate(1, 1.0)
        rec.accumulate(2, 1.0)
        pairs = rec.items()
        rec.finish()
        assert dict(pairs) == {1: 2.0, 2: 1.0}
        assert rec.trace.num_phases == 1
        assert list(rec.trace.phases[0]) == [1, 1, 2]

    def test_multiple_phases(self):
        rec = TraceRecordingAccumulator()
        for keys in ([1, 2], [3], []):
            rec.begin(0)
            for k in keys:
                rec.accumulate(k, 1.0)
            rec.items()
            rec.finish()
        assert rec.trace.num_phases == 3
        assert rec.trace.total_ops == 3


class TestRecordTrace:
    def test_trace_covers_all_arcs_first_pass(self):
        g, _ = ring_of_cliques(3, 4)
        trace = record_trace(g)
        # first pass visits every vertex once per level-0 phase; undirected
        # graph has one phase per vertex, ops = non-loop arcs
        assert trace.num_phases >= g.num_vertices
        assert trace.total_ops >= g.num_arcs

    def test_deterministic(self):
        g, _ = planted_partition(3, 10, 0.5, 0.05, seed=1)
        a = record_trace(g)
        b = record_trace(g)
        assert a.num_phases == b.num_phases
        for x, y in zip(a.phases, b.phases):
            assert np.array_equal(x, y)


    def test_options_are_keyword_only_and_checked(self):
        """``tau``, ``max_levels`` and ``max_passes_per_level`` are the
        options; any other keyword (a typo included) is an error, not a
        silently default trace."""
        g, _ = planted_partition(4, 25, 0.4, 0.02, seed=1)
        full = record_trace(g)
        one_level = record_trace(g, max_levels=1)
        # the level cap stops the same run early
        assert 0 < one_level.num_phases < full.num_phases
        for x, y in zip(one_level.phases, full.phases):
            assert np.array_equal(x, y)
        for bad in ({"shuffle_seed": 7}, {"worklist": False},
                    {"backend": "asa"}, {"max_level": 1}):
            with pytest.raises(TypeError):
                record_trace(g, **bad)
        with pytest.raises(TypeError):
            record_trace(g, 0.15)

    def test_phases_are_the_sequential_engine_sweeps(self):
        """One phase per vertex visit of the sequential engine's passes
        (two on a directed graph: out- and in-flow), in its order."""
        g, _ = planted_partition(4, 25, 0.4, 0.02, seed=1)
        visits = sum(p.active_vertices
                     for p in run_infomap(g).telemetry.passes)
        assert record_trace(g).num_phases == visits
        d = from_edge_array(*g.edge_array(), num_vertices=g.num_vertices,
                            directed=True)
        visits = sum(p.active_vertices
                     for p in run_infomap(d).telemetry.passes)
        assert record_trace(d).num_phases == 2 * visits


class TestReplay:
    def test_big_cam_never_evicts(self):
        g, _ = ring_of_cliques(3, 4)
        trace = record_trace(g)
        stats = replay_trace(trace, capacity=4096)
        assert stats.evictions == 0
        assert stats.overflowed_phases == 0
        assert stats.accumulates == trace.total_ops

    def test_tiny_cam_evicts(self):
        g, _ = planted_partition(4, 15, 0.5, 0.1, seed=2)
        trace = record_trace(g)
        stats = replay_trace(trace, capacity=2)
        assert stats.evictions > 0
        assert stats.overflowed_phases > 0

    def test_hit_rate_monotone_in_capacity(self):
        g, _ = planted_partition(4, 20, 0.4, 0.05, seed=3)
        trace = record_trace(g)
        rates = [
            replay_trace(trace, capacity=c).hit_rate for c in (1, 4, 64, 1024)
        ]
        assert all(b >= a - 1e-12 for a, b in zip(rates, rates[1:]))

    def test_policies_conserve_entries(self):
        """Gathered entries (CAM + overflow) must count every distinct key
        occurrence group regardless of eviction policy."""
        g, _ = planted_partition(3, 12, 0.5, 0.1, seed=4)
        trace = record_trace(g)
        lru = replay_trace(trace, capacity=4, policy="lru")
        fifo = replay_trace(trace, capacity=4, policy="fifo")
        rnd = replay_trace(trace, capacity=4, policy="random")
        for st in (lru, fifo, rnd):
            # gathered = distinct keys + re-entries of evicted keys
            assert st.gathered_entries >= int(
                trace.distinct_keys_per_phase().sum()
            )
        # and identical accumulate counts
        assert lru.accumulates == fifo.accumulates == rnd.accumulates
