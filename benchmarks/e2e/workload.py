"""Run one workload in this (fresh) process and print its outcome as JSON.

``run.py`` starts one of these per workload run, with ``src`` and the
repository root on ``PYTHONPATH``; the last line of standard output is
the :class:`common.Outcome` as one JSON object.
"""

from __future__ import annotations

import argparse
import json
import sys
import traceback
from pathlib import Path

from common import Outcome
from tracing import ENGINE_WORKLOADS, GATEWAY_WORKLOADS

#: set-ups per untraced run; ``setup_s`` is their median
SETUP_REPEATS = 3


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True,
                    choices=ENGINE_WORKLOADS + GATEWAY_WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", action="store_true")
    ap.add_argument("--smoke", action="store_true")
    ap.add_argument("--out-dir", type=Path, default=None)
    args = ap.parse_args()
    # a trace run makes an untraced and a traced pass of half the time
    # each, so it costs about what a plain run does; it reports no
    # setup_s, so it sets up once
    seconds = args.seconds / 2 if args.trace else args.seconds
    setup_repeats = 1 if args.smoke or args.trace else SETUP_REPEATS
    try:
        if args.workload in ENGINE_WORKLOADS:
            import engines as workloads
        else:
            import gateway_load as workloads
        outcome = workloads.run(args.workload, args.seed, seconds,
                                args.trace, args.smoke, setup_repeats,
                                args.out_dir)
    except Exception:  # the outcome reports it; run.py decides the exit code
        outcome = Outcome(args.workload, args.seed, attempted=1)
        outcome.fail(traceback.format_exc())
    print(json.dumps(outcome.to_json()), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
