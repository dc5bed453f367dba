"""Smoke tests that the (cheap) example scripts run end to end."""

import runpy
import sys
from pathlib import Path

import pytest

EXAMPLES = Path(__file__).resolve().parent.parent / "examples"


def _run(name: str, argv: list[str] | None = None):
    old_argv = sys.argv
    sys.argv = [name] + (argv or [])
    try:
        runpy.run_path(str(EXAMPLES / name), run_name="__main__")
    finally:
        sys.argv = old_argv


class TestExamples:
    def test_quickstart(self, capsys):
        _run("quickstart.py")
        out = capsys.readouterr().out
        assert "Both backends found" in out
        assert "faster" in out

    def test_protein_interaction(self, capsys):
        _run("protein_interaction_clustering.py")
        out = capsys.readouterr().out
        assert "Function prediction" in out
        assert "NMI=" in out

    def test_hierarchical(self, capsys):
        _run("hierarchical_communities.py")
        out = capsys.readouterr().out
        assert "Recovered hierarchy" in out
        assert "1.000" in out  # perfect NMI at both levels

    def test_streaming(self, capsys):
        _run("streaming_network.py")
        out = capsys.readouterr().out
        assert "incremental refresh" in out.lower()

    def test_distributed_scaling(self, capsys):
        _run("distributed_scaling.py")
        out = capsys.readouterr().out
        rows = [
            [cell.strip() for cell in line.split("|")]
            for line in out.splitlines()
            if line.split("|")[0].strip().isdigit()
        ]
        assert [int(r[0]) for r in rows] == [1, 2, 4, 8, 16]
        assert len({r[2] for r in rows}) == 1  # one partition at every P
        messages = [int(r[5]) for r in rows]
        compute_ms = [float(r[7]) for r in rows]
        assert messages[0] == 0  # one rank has no peers
        assert messages[1:] == sorted(set(messages[1:]))  # 2 -> 16 grows
        assert compute_ms == sorted(set(compute_ms), reverse=True)

    @pytest.mark.parametrize(
        "name",
        [
            "quickstart.py",
            "protein_interaction_clustering.py",
            "accelerator_design_study.py",
            "multicore_scaling.py",
            "benchmark_quality_lfr.py",
            "hierarchical_communities.py",
            "distributed_scaling.py",
            "streaming_network.py",
            "spgemm_accelerator.py",
        ],
    )
    def test_example_exists_and_has_main(self, name):
        path = EXAMPLES / name
        assert path.exists()
        text = path.read_text()
        assert '__main__' in text and "def " in text
