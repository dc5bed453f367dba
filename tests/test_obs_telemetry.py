"""Tests for per-run convergence telemetry across all three engines."""

import numpy as np
import pytest

from repro.core.infomap import run_infomap
from repro.core.multicore import run_infomap_multicore
from repro.core.parallel import run_infomap_parallel
from repro.core.vectorized import run_infomap_vectorized
from repro.graph.generators import planted_partition, ring_of_cliques
from repro.graph.stream import stream_rmat
from repro.obs.export import jsonable
from repro.obs.metrics import scoped_registry
from repro.obs.telemetry import ConvergenceTelemetry


@pytest.fixture
def graph():
    g, _ = ring_of_cliques(5, 6)
    return g


def _all_engine_telemetries(g):
    rs = run_infomap(g, backend="softhash")
    rv = run_infomap_vectorized(g)
    rm = run_infomap_multicore(g, num_cores=2, backend="softhash")
    return {
        "sequential": (rs, rs.telemetry),
        "vectorized": (rv, rv.telemetry),
        "multicore": (rm, rm.telemetry),
    }


class TestTelemetryPresence:
    def test_present_on_all_three_engines(self, graph):
        for engine, (result, tele) in _all_engine_telemetries(graph).items():
            assert isinstance(tele, ConvergenceTelemetry), engine
            assert tele.engine == engine
            assert tele.num_passes > 0
            assert len(tele.levels) > 0
            assert tele.wall_seconds > 0
            assert tele.converged

    def test_pass_records_carry_convergence_fields(self, graph):
        r = run_infomap(graph, backend="softhash")
        for p in r.telemetry.passes:
            assert p.num_modules >= 1
            assert p.applied >= 0
            assert p.wall_seconds >= 0
            assert np.isfinite(p.codelength)
        # the terminating pass of each level makes zero moves
        assert r.telemetry.passes[-1].applied == 0

    def test_kernel_wall_times_recorded(self, graph):
        r = run_infomap(graph, backend="softhash")
        kernels = set(r.telemetry.kernel_wall_seconds)
        assert {"pagerank", "findbest"} <= kernels
        totals = r.telemetry.kernel_totals()
        assert all(v >= 0 for v in totals.values())
        # one findbest sample per recorded pass
        assert len(r.telemetry.kernel_wall_seconds["findbest"]) == (
            r.telemetry.num_passes
        )

    def test_telemetry_is_jsonable(self, graph):
        r = run_infomap_vectorized(graph)
        doc = r.telemetry.to_dict()
        import json

        json.dumps(doc)  # must not raise
        assert doc["engine"] == "vectorized"
        assert len(doc["passes"]) == r.telemetry.num_passes


class TestPassRecord:
    """``telemetry.passes`` is each engine's one record of its passes."""

    def test_every_engine_records_the_move_counts(self, graph):
        results = {name: r for name, (r, _) in
                   _all_engine_telemetries(graph).items()}
        results["parallel"] = run_infomap_parallel(graph, workers=2)
        for engine, r in results.items():
            level_vertices = {lv.level: lv.vertices
                              for lv in r.telemetry.levels}
            for p in r.telemetry.passes:
                assert p.vertices == level_vertices[p.level], engine
                assert 0 < p.active_vertices <= p.vertices, engine
                assert p.rounds == 1, engine
                assert p.held_back >= 0, engine
                assert p.held_back + p.applied <= p.proposed, engine
                assert p.seconds >= 0, engine

    def test_sequential_applies_every_proposal(self, graph):
        with scoped_registry() as reg:
            r = run_infomap(graph, backend="softhash")
        passes = r.telemetry.passes
        assert all(p.proposed == p.applied for p in passes)
        assert all(p.held_back == 0 for p in passes)
        moves = sum(p.applied for p in passes)
        assert moves == r.telemetry.total_moves > 0
        assert reg.get_value("infomap.moves", engine="sequential") == moves

    def test_vectorized_reports_held_back_moves(self):
        with stream_rmat(scale=10, edge_factor=8, seed=3) as sg:
            r = run_infomap_vectorized(sg.graph)
        passes = r.telemetry.passes
        assert sum(p.held_back for p in passes) > 0
        for p in passes:
            assert p.held_back <= p.proposed - p.applied


class TestConvergenceSemantics:
    def test_codelength_monotone_non_increasing(self, graph):
        for engine, (result, tele) in _all_engine_telemetries(graph).items():
            traj = tele.codelength_trajectory()
            for a, b in zip(traj, traj[1:]):
                assert b <= a + 1e-9, f"{engine}: codelength increased"

    def test_final_codelength_matches_result(self, graph):
        rs = run_infomap(graph, backend="softhash")
        assert rs.telemetry.final_codelength == pytest.approx(rs.codelength)
        rm = run_infomap_multicore(graph, num_cores=2, backend="softhash")
        assert rm.telemetry.final_codelength == pytest.approx(rm.codelength)
        rv = run_infomap_vectorized(graph)
        assert rv.telemetry.final_codelength == pytest.approx(rv.codelength)

    def test_engines_agree_on_same_seed(self):
        # strongly clustered graph: every engine finds the planted partition,
        # so telemetry endpoints must agree across engines
        g, _ = planted_partition(6, 20, p_in=0.35, p_out=0.004, seed=11)
        teles = {
            name: tele for name, (_, tele) in _all_engine_telemetries(g).items()
        }
        finals = {n: t.final_codelength for n, t in teles.items()}
        ref = finals["sequential"]
        for name, val in finals.items():
            assert val == pytest.approx(ref, rel=0.02), finals
        modules = {n: t.final_num_modules for n, t in teles.items()}
        assert modules["sequential"] == modules["multicore"]

    def test_module_count_decreases_within_level(self, graph):
        r = run_infomap(graph, backend="softhash")
        level0 = [p for p in r.telemetry.passes if p.level == 0]
        assert level0[0].num_modules >= level0[-1].num_modules
        assert level0[-1].num_modules < graph.num_vertices


class TestMetricsPublication:
    def test_engines_publish_when_enabled(self, graph):
        with scoped_registry() as reg:
            run_infomap(graph, backend="asa")
            run_infomap_vectorized(graph)
            run_infomap_multicore(graph, num_cores=2, backend="softhash")
        names = reg.names()
        assert {"infomap.passes", "codelength.bits", "kernel.wall_seconds",
                "findbest.moves_per_pass"} <= names
        for engine in ("sequential", "vectorized", "multicore"):
            assert reg.get_value("infomap.runs", engine=engine) == 1
            assert reg.get_value("infomap.passes", engine=engine) > 0

    def test_nothing_published_when_disabled(self, graph):
        from repro.obs import metrics as obs_metrics

        before = len(obs_metrics.get_registry().series())
        run_infomap(graph, backend="softhash")
        assert len(obs_metrics.get_registry().series()) == before

    def test_per_level_codelength_gauges(self, graph):
        with scoped_registry() as reg:
            r = run_infomap(graph, backend="softhash")
        for lvl in r.telemetry.levels:
            val = reg.get_value(
                "codelength.bits", engine="sequential", level=lvl.level
            )
            assert val == pytest.approx(lvl.codelength)
        assert reg.get_value(
            "codelength.bits", engine="sequential", level="final"
        ) == pytest.approx(r.codelength)
