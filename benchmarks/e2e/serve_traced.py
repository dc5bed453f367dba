"""``repro serve`` with the benchmark's layer wrappers installed.

Usage (from the repository root, with ``src`` on ``PYTHONPATH``)::

    python benchmarks/e2e/serve_traced.py --listen HOST:PORT ...

Every argument is passed to ``repro serve``.  The spans stay in memory
while the gateway runs, so a shard thread never blocks on output; when
the gateway stops (SIGINT) they are printed as the last line of standard
output, one Chrome trace JSON object.
"""

from __future__ import annotations

import json
import sys

from tracing import Tracer


def main(argv: list[str]) -> int:
    tracer = Tracer().install()
    from repro.cli import main as cli_main

    try:
        return cli_main(["serve", *argv])
    finally:
        tracer.uninstall()
        print(json.dumps(tracer.chrome_trace()), flush=True)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
