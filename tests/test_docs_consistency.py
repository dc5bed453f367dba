"""Docs-vs-code consistency checkers (tools/check_docs.py, check_links.py).

CI's docs job runs both tools; these tests keep them green (and
honest) from the ordinary tier-1 run too, so an instrumented-code
change that forgets the catalog fails fast locally rather than on the
docs job minutes later.
"""

from __future__ import annotations

import contextlib
import importlib.util
import io
import re
import shlex
import sys
from pathlib import Path

import pytest

_ROOT = Path(__file__).resolve().parent.parent
_TOOLS = _ROOT / "tools"
_COMMAND = re.compile(r"^\s*python -m repro\s")


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


def _doc_commands() -> list[tuple[str, str]]:
    """Every ``python -m repro …`` line of README.md and docs/*.md, as
    ``(file:line, command)`` with backslash continuations joined."""
    found = []
    for path in [_ROOT / "README.md", *sorted((_ROOT / "docs").glob("*.md"))]:
        lines = enumerate(path.read_text().splitlines(), 1)
        for lineno, line in lines:
            if not _COMMAND.match(line):
                continue
            while line.rstrip().endswith("\\"):
                line = line.rstrip()[:-1] + " " + next(lines)[1]
            found.append((f"{path.name}:{lineno}", line.strip()))
    return found


def test_documented_cli_commands_parse():
    """Every documented ``python -m repro`` command parses, and a ``run``
    also passes the CLI's engine/flag checks; nothing is executed."""
    from repro.cli import _validate_run_args, build_parser

    commands = _doc_commands()
    assert len(commands) >= 30, commands  # the collector sees the docs
    bad = []
    for where, command in commands:
        argv = shlex.split(command, comments=True)[3:]
        parser = build_parser()
        err = io.StringIO()
        try:
            with contextlib.redirect_stderr(err):
                args = parser.parse_args(argv)
                if args.command == "run":
                    _validate_run_args(parser, args)
        except SystemExit:
            bad.append(f"{where}: {command}\n    {err.getvalue().strip()}")
    assert not bad, "\n".join(bad)
