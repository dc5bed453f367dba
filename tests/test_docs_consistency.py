"""Docs-vs-code consistency checkers (tools/check_docs.py, check_links.py).

CI's docs job runs both tools; these tests keep them green (and
honest) from the ordinary tier-1 run too, so an instrumented-code
change that forgets the catalog fails fast locally rather than on the
docs job minutes later.
"""

from __future__ import annotations

import importlib.util
import sys
from pathlib import Path

import pytest

_TOOLS = Path(__file__).resolve().parent.parent / "tools"


def _load(name: str):
    spec = importlib.util.spec_from_file_location(name, _TOOLS / f"{name}.py")
    mod = importlib.util.module_from_spec(spec)
    sys.modules[name] = mod
    spec.loader.exec_module(mod)
    return mod


@pytest.fixture(scope="module")
def check_docs():
    return _load("check_docs")


@pytest.fixture(scope="module")
def check_links():
    return _load("check_links")


def test_observability_catalog_matches_code(check_docs, capsys):
    assert check_docs.main([]) == 0
    assert "consistent" in capsys.readouterr().out


def test_intra_repo_links_resolve(check_links, capsys):
    assert check_links.main([]) == 0


def test_doc_group_shorthand_expands(check_docs):
    names = check_docs.documented_names()
    # `service.jobs.completed` / `.failed` / ... rows expand fully
    assert {"service.jobs.completed", "service.jobs.failed",
            "service.jobs.cancelled", "service.jobs.rejected"} <= names
    assert {"service.cache.hits", "service.cache.misses",
            "service.cache.evictions"} <= names
    # the parallel engine's round gauges are catalogued
    assert {"parallel.rounds", "parallel.state_writes"} <= names


def test_detects_missing_catalog_row(check_docs, tmp_path, monkeypatch, capsys):
    pruned = tmp_path / "observability.md"
    pruned.write_text(
        check_docs.DOC.read_text().replace("`parallel.rounds`", "`removed`")
    )
    monkeypatch.setattr(check_docs, "DOC", pruned)
    assert check_docs.main([]) == 1
    err = capsys.readouterr().err
    assert "parallel.rounds" in err and "missing from the docs" in err


def test_detects_stale_unprefixed_span_row(check_docs, tmp_path,
                                           monkeypatch, capsys):
    # every name is under contract, not only the service/engine prefixes
    stale = tmp_path / "observability.md"
    pagerank_row = "| `pagerank` | flow initialisation | `vertices` |\n"
    text = check_docs.DOC.read_text()
    assert pagerank_row in text
    stale.write_text(text.replace(
        pagerank_row,
        pagerank_row + "| `levelsweep` | no emitter | `level` |\n",
    ))
    monkeypatch.setattr(check_docs, "DOC", stale)
    assert check_docs.main([]) == 1
    err = capsys.readouterr().err
    assert "levelsweep" in err and "no longer emitted" in err


def test_unknown_dynamic_metric_name_is_an_error(check_docs, monkeypatch,
                                                 capsys):
    monkeypatch.setattr(check_docs, "_FSTRING_EXPANSIONS", {})
    assert check_docs.main([]) == 1
    assert "_FSTRING_EXPANSIONS" in capsys.readouterr().err
