"""Tests for networkx interop and the CLI."""

import numpy as np
import pytest

networkx = pytest.importorskip("networkx")

from repro.cli import build_parser, main
from repro.graph.build import from_edges
from repro.graph.generators import ring_of_cliques
from repro.graph.interop import from_networkx, to_networkx


class TestFromNetworkx:
    def test_round_trip_undirected(self):
        g, _ = ring_of_cliques(3, 4)
        nxg = to_networkx(g)
        g2, order = from_networkx(nxg)
        assert g2.num_vertices == g.num_vertices
        assert g2.num_edges == g.num_edges
        assert not g2.directed

    def test_weights_preserved(self):
        nxg = networkx.Graph()
        nxg.add_edge("a", "b", weight=2.5)
        g, order = from_networkx(nxg)
        assert g.total_weight == pytest.approx(5.0)  # both arcs
        assert set(order) == {"a", "b"}

    def test_directed(self):
        nxg = networkx.DiGraph()
        nxg.add_edge(0, 1)
        nxg.add_edge(1, 0)
        g, _ = from_networkx(nxg)
        assert g.directed and g.num_arcs == 2

    def test_arbitrary_node_labels(self):
        nxg = networkx.Graph()
        nxg.add_edge("protein-A", "protein-B")
        nxg.add_edge("protein-B", (1, 2))
        g, order = from_networkx(nxg)
        assert g.num_vertices == 3
        assert "protein-A" in order

    def test_ignore_weight_attr(self):
        nxg = networkx.Graph()
        nxg.add_edge(0, 1, weight=9.0)
        g, _ = from_networkx(nxg, weight=None)
        _, w = g.out_neighbors(0)
        assert w[0] == 1.0

    def test_end_to_end_clustering(self):
        from repro.core.infomap import run_infomap

        nxg = networkx.Graph()
        # two triangles joined by a bridge
        nxg.add_edges_from([(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5), (2, 3)])
        g, _ = from_networkx(nxg)
        r = run_infomap(g)
        assert r.num_modules == 2


class TestToNetworkx:
    def test_module_annotation(self):
        g, truth = ring_of_cliques(2, 3)
        nxg = to_networkx(g, modules=truth)
        assert nxg.nodes[0]["module"] == 0
        assert nxg.nodes[5]["module"] == 1

    def test_module_length_check(self):
        g, _ = ring_of_cliques(2, 3)
        with pytest.raises(ValueError):
            to_networkx(g, modules=np.array([0]))

    def test_directed_conversion(self):
        g = from_edges([(0, 1)], directed=True, num_vertices=2)
        nxg = to_networkx(g)
        assert nxg.is_directed()
        assert nxg.has_edge(0, 1) and not nxg.has_edge(1, 0)


class TestCLI:
    def test_parser_builds(self):
        p = build_parser()
        args = p.parse_args(["run", "--dataset", "amazon", "--backend", "asa"])
        assert args.dataset == "amazon"

    def test_datasets_command(self, capsys):
        assert main(["datasets"]) == 0
        out = capsys.readouterr().out
        assert "amazon" in out and "orkut" in out

    def test_run_on_edge_list(self, tmp_path, capsys):
        from repro.graph.io import write_edge_list

        g, _ = ring_of_cliques(3, 4)
        path = tmp_path / "ring.txt"
        write_edge_list(g, path)
        assert main(["run", "--edge-list", str(path), "--backend", "softhash"]) == 0
        out = capsys.readouterr().out
        assert "3 modules" in out
        assert "Hash-op time" in out

    def test_run_multicore(self, tmp_path, capsys):
        from repro.graph.io import write_edge_list

        g, _ = ring_of_cliques(4, 5)
        path = tmp_path / "ring.txt"
        write_edge_list(g, path)
        assert main(
            ["run", "--edge-list", str(path), "--engine", "multicore",
             "--workers", "2", "--backend", "asa"]
        ) == 0
        out = capsys.readouterr().out
        assert "2 simulated cores" in out
        assert "Hash-op time" in out

    def test_experiment_command(self, capsys):
        assert main(["experiment", "table2"]) == 0
        out = capsys.readouterr().out
        assert "Machine configurations" in out

    def test_quality_command(self, capsys):
        assert main(["quality", "--mu", "0.1", "--n", "400"]) == 0
        out = capsys.readouterr().out
        assert "Infomap" in out

    def test_run_engine_multicore_workers(self, tmp_path, capsys):
        from repro.graph.io import write_edge_list

        g, _ = ring_of_cliques(4, 5)
        path = tmp_path / "ring.txt"
        write_edge_list(g, path)
        assert main(
            ["run", "--edge-list", str(path), "--engine", "multicore",
             "--workers", "2"]
        ) == 0
        out = capsys.readouterr().out
        assert "2 simulated cores" in out

    def test_run_engine_parallel_workers(self, tmp_path, capsys):
        from repro.graph.io import write_edge_list

        g, _ = ring_of_cliques(4, 5)
        path = tmp_path / "ring.txt"
        write_edge_list(g, path)
        assert main(
            ["run", "--edge-list", str(path), "--engine", "parallel",
             "--workers", "2"]
        ) == 0
        out = capsys.readouterr().out
        assert "2 workers" in out
        assert "Module sizes" in out

    @pytest.mark.parametrize("engine", ["parallel", "multicore"])
    def test_run_ledger_records_worker_count_run(self, engine, tmp_path,
                                                 capsys):
        """``config.workers`` is the count the engine ran, its default of
        2 included, so a default run is keyed apart from ``--workers 1``."""
        import json

        from repro.graph.io import write_edge_list

        g, _ = ring_of_cliques(4, 5)
        path = tmp_path / "ring.txt"
        write_edge_list(g, path)
        rows = {}
        for name, extra in (("default", []), ("one", ["--workers", "1"])):
            ledger = tmp_path / f"{name}.jsonl"
            assert main(["run", "--edge-list", str(path), "--engine", engine,
                         *extra, "--ledger", str(ledger)]) == 0
            rows[name] = json.loads(ledger.read_text().splitlines()[0])
        capsys.readouterr()
        assert rows["default"]["config"]["workers"] == 2
        assert rows["one"]["config"]["workers"] == 1
        assert rows["default"]["run_key"] != rows["one"]["run_key"]

    def test_invalid_experiment_rejected(self):
        with pytest.raises(SystemExit):
            main(["experiment", "fig99"])

    def test_invalid_backend_rejected(self):
        with pytest.raises(SystemExit):
            main(["run", "--dataset", "amazon", "--backend", "cuckoo"])

    def test_run_surrogate_parallel(self, capsys, tmp_path, monkeypatch):
        # shrink the recipe so the CLI path stays test-sized
        import repro.graph.stream as stream

        monkeypatch.setitem(
            stream.BIGSCALE_RECIPES, "rmat_1m",
            {"kind": "rmat", "scale": 7, "edge_factor": 6},
        )
        ledger = tmp_path / "runs.jsonl"
        assert main(
            ["run", "--surrogate", "rmat_1m", "--engine", "parallel",
             "--workers", "2", "--seed", "3", "--ledger", str(ledger)]
        ) == 0
        out = capsys.readouterr().out
        assert "rmat_1m" in out and "2 workers" in out
        import json

        rec = json.loads(ledger.read_text().splitlines()[0])
        # the ledger reuses the digest computed during the stream
        assert rec["config"]["graph"].startswith("sha256:") or len(
            rec["config"]["graph"]) >= 32
        assert rec["perf"]["sweep_vertices_per_s"] > 0
        # arena released after the run
        from repro.core import arena

        assert arena.live_segments(arena.segment_prefix()) == []

    def test_run_validates_before_any_graph_is_built(self, monkeypatch):
        """Usage errors must fire before dataset load / surrogate stream.

        Regression guard: a bad --engine/--workers combination on a
        --surrogate run used to be worth multi-seconds of generation
        before argparse rejected it.  Booby-trap every graph source and
        assert the error wins.
        """
        import repro.cli as cli
        import repro.graph.stream as stream

        def boom(*a, **k):  # pragma: no cover - must never run
            raise AssertionError("graph source touched before validation")

        monkeypatch.setattr(cli, "load_dataset", boom)
        monkeypatch.setattr(cli, "read_edge_list", boom)
        monkeypatch.setattr(stream, "stream_recipe", boom)
        for argv in (
            ["run", "--surrogate", "rmat_1m", "--engine", "parallel",
             "--workers", "0"],
            ["run", "--surrogate", "rmat_1m", "--workers", "2"],
            ["run", "--surrogate", "rmat_1m", "--seed", "-1"],
            ["run", "--dataset", "amazon", "--seed", "5"],
            ["run", "--surrogate", "rmat_1m", "--directed"],
            ["run", "--dataset", "amazon", "--engine", "vectorized",
             "--fault-plan", "kill@w0:b1"],
        ):
            with pytest.raises(SystemExit) as exc:
                main(argv)
            assert exc.value.code == 2

    @pytest.mark.parametrize("argv", [
        # --workers needs a multi-rank engine
        ["run", "--dataset", "amazon", "--workers", "2"],
        ["run", "--dataset", "amazon", "--engine", "vectorized",
         "--workers", "2"],
        # --backend needs an engine with hardware accounting
        ["run", "--dataset", "amazon", "--engine", "vectorized",
         "--backend", "asa"],
        ["run", "--dataset", "amazon", "--engine", "parallel",
         "--backend", "softhash"],
        # the multicore engine is spelled --engine multicore --workers N
        ["run", "--dataset", "amazon", "--cores", "2"],
        # out of range / parallel-only
        ["run", "--dataset", "amazon", "--engine", "parallel",
         "--workers", "0"],
        ["run", "--dataset", "amazon", "--engine", "multicore",
         "--fault-plan", "kill@w0:b1"],
    ])
    def test_invalid_engine_worker_combos_rejected(self, argv, capsys):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2  # argparse usage error
        # the error names the flag given last, the one rejected
        flag = [a for a in argv if a.startswith("--")][-1]
        assert flag in capsys.readouterr().err


class TestCLIObservability:
    def _ring_path(self, tmp_path):
        from repro.graph.io import write_edge_list

        g, _ = ring_of_cliques(3, 4)
        path = tmp_path / "ring.txt"
        write_edge_list(g, path)
        return path

    def test_run_writes_trace_and_metrics(self, tmp_path, capsys):
        import json

        trace = tmp_path / "run.trace.json"
        metrics = tmp_path / "metrics.json"
        assert main([
            "run", "--edge-list", str(self._ring_path(tmp_path)),
            "--backend", "asa",
            "--trace", str(trace), "--metrics-out", str(metrics),
        ]) == 0
        out = capsys.readouterr().out
        assert "trace:" in out and "metrics:" in out

        doc = json.loads(trace.read_text())
        events = doc["traceEvents"]
        assert events and all(e["ph"] == "X" for e in events)
        assert {"infomap.run", "findbest"} <= {e["name"] for e in events}

        snap = json.loads(metrics.read_text())
        assert snap["schema"] == "repro.metrics/v1"
        names = {m["name"] for m in snap["metrics"]}
        assert {"infomap.passes", "codelength.bits",
                "kernel.wall_seconds"} <= names

    def test_run_without_flags_leaves_obs_disabled(self, tmp_path, capsys):
        from repro.obs import metrics as obs_metrics
        from repro.obs import spans as obs_spans

        assert main([
            "run", "--edge-list", str(self._ring_path(tmp_path)),
            "--backend", "softhash",
        ]) == 0
        capsys.readouterr()
        assert not obs_spans.is_enabled()
        assert not obs_metrics.is_enabled()
        assert obs_spans.events() == []

    def test_trace_view_renders_table(self, tmp_path, capsys):
        trace = tmp_path / "run.trace.json"
        assert main([
            "run", "--edge-list", str(self._ring_path(tmp_path)),
            "--backend", "softhash", "--trace", str(trace),
        ]) == 0
        capsys.readouterr()
        assert main(["trace-view", str(trace)]) == 0
        out = capsys.readouterr().out
        assert "Span self-time breakdown" in out
        assert "findbest" in out

    def test_trace_view_rejects_empty_trace(self, tmp_path, capsys):
        import json

        empty = tmp_path / "empty.json"
        empty.write_text(json.dumps({"traceEvents": []}))
        assert main(["trace-view", str(empty)]) == 1

    def test_experiment_accepts_metrics_out(self, tmp_path, capsys):
        import json

        metrics = tmp_path / "exp-metrics.json"
        assert main([
            "experiment", "table2", "--metrics-out", str(metrics),
        ]) == 0
        out = capsys.readouterr().out
        assert "Machine configurations" in out
        snap = json.loads(metrics.read_text())
        assert snap["schema"] == "repro.metrics/v1"
        assert isinstance(snap["metrics"], list)

    def test_run_log_level_flag(self, tmp_path, capsys):
        # --log-level must parse and not disturb the run
        assert main([
            "run", "--edge-list", str(self._ring_path(tmp_path)),
            "--backend", "softhash", "--log-level", "debug",
        ]) == 0
        assert "modules" in capsys.readouterr().out


class TestCLIExport:
    def test_export_writes_artifacts(self, tmp_path, capsys):
        assert main([
            "export", "--out", str(tmp_path), "--names", "table2_machines",
        ]) == 0
        assert (tmp_path / "table2_machines.json").exists()
        assert (tmp_path / "table2_machines.csv").exists()
