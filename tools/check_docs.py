#!/usr/bin/env python3
"""Cross-check the observability catalog against the instrumented code.

``docs/observability.md`` carries the authoritative **metric catalog**
and **span taxonomy** tables.  They rot silently: an engine grows a new
gauge, nobody re-reads the doc, and the catalog is wrong until a human
notices.  This tool makes the drift a CI failure, in both directions,
for every name:

* every metric or span name emitted from ``src/repro`` (or from
  ``benchmarks/conftest.py``, which publishes the bench session's
  ``bench.*`` metrics) must appear in the doc's tables;
* every name the doc's tables list must still be emitted from one of
  those files.

Emission sites are found textually (no imports, no network): any
``counter( / gauge( / histogram( / _count( / _observe( / _gauge( /
_publish( / trace_span( / record_span(`` call whose first argument is a
string literal, across physical lines.  The one dynamic name in the
tree, ``f"service.jobs.{result.status}"``, is expanded via
``_FSTRING_EXPANSIONS``; any *other* f-string name is an error so the
table stays maintained.

Doc rows may group sibling names the way the catalog already does —
``` `service.cache.hits` / `.misses` / `.evictions` ``` — a leading-dot
token inherits the previous full name's prefix.

Usage::

    python tools/check_docs.py           # exit 1 on any drift
    python tools/check_docs.py -v        # also list every name checked
"""

from __future__ import annotations

import argparse
import re
import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
SRC_ROOT = REPO_ROOT / "src" / "repro"
DOC = REPO_ROOT / "docs" / "observability.md"

#: emitters outside ``src/repro`` whose names belong in the catalog (the
#: rest of ``benchmarks/`` opens test-only spans and is not scanned)
EXTRA_SOURCES = (REPO_ROOT / "benchmarks" / "conftest.py",)

#: emission call sites; name helpers (_count & co in service.py) count
#: as emitters so the check survives indirection through them
_EMIT = re.compile(
    r"(?:\b(?:counter|gauge|histogram|trace_span|record_span)"
    r"|_(?:count|observe|gauge|publish))\(\s*(f?)\"([^\"]+)\"",
    re.DOTALL,
)

#: dynamic-name expansions: static f-string prefix -> the values its
#: placeholder takes at runtime.  service.jobs.{result.status} counts a
#: *finished* job: completed/failed/cancelled, plus rejected for delta
#: jobs whose explicit base_key misses the cache at execution time
#: ("pending" never reaches it; submit-time rejections are counted by
#: the explicit literal in service.py).
_FSTRING_EXPANSIONS = {
    "service.jobs.": ("completed", "failed", "cancelled", "rejected"),
}

#: doc table rows: leading `name` cell, possibly a `a` / `.b` / `.c`
#: sibling group
_DOC_ROW = re.compile(r"^\|\s*((?:`[^`]+`\s*(?:/\s*)?)+)\|", re.MULTILINE)
_TICK = re.compile(r"`([^`]+)`")


def emitted_names(verbose: bool = False) -> tuple[set[str], list[str]]:
    """All names emitted by the scanned sources + error strings."""
    names: set[str] = set()
    errors: list[str] = []
    for py in sorted(SRC_ROOT.rglob("*.py")) + list(EXTRA_SOURCES):
        text = py.read_text()
        for m in _EMIT.finditer(text):
            is_fstring, literal = m.group(1) == "f", m.group(2)
            rel = py.relative_to(REPO_ROOT)
            if not is_fstring:
                names.add(literal)
                if verbose:
                    print(f"emit: {literal}  ({rel})")
                continue
            static = literal.partition("{")[0]
            expansion = _FSTRING_EXPANSIONS.get(static)
            if expansion is None:
                errors.append(
                    f"{rel}: dynamic metric name f\"{literal}\" has no "
                    f"entry in tools/check_docs.py _FSTRING_EXPANSIONS"
                )
                continue
            for value in expansion:
                names.add(static + value)
                if verbose:
                    print(f"emit: {static}{value}  ({rel}, expanded)")
    return names, errors


def documented_names(verbose: bool = False) -> set[str]:
    """All names the doc's tables list (groups expanded)."""
    names: set[str] = set()
    for row in _DOC_ROW.finditer(DOC.read_text()):
        prev = ""
        for token in _TICK.findall(row.group(1)):
            if token.startswith("."):
                # sibling shorthand: `.failed` after `service.jobs.completed`
                token = prev.rsplit(".", 1)[0] + token
            prev = token
            names.add(token)
            if verbose:
                print(f"doc:  {token}")
    return names


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("-v", "--verbose", action="store_true",
                        help="list every name found on each side")
    args = parser.parse_args(argv)

    emitted, errors = emitted_names(verbose=args.verbose)
    documented = documented_names(verbose=args.verbose)

    for name in sorted(emitted - documented):
        errors.append(
            f"emitted but missing from the docs/observability.md "
            f"catalog: {name}"
        )
    for name in sorted(documented - emitted):
        errors.append(
            f"documented in docs/observability.md but no longer emitted "
            f"from src/repro or benchmarks/conftest.py: {name}"
        )
    if errors:
        print("\n".join(errors), file=sys.stderr)
        print(f"\n{len(errors)} observability-catalog inconsistencies",
              file=sys.stderr)
        return 1
    print(f"observability catalog consistent: {len(emitted)} "
          f"names match docs/observability.md")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
