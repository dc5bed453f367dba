"""End-to-end benchmark: four workloads, end-to-end and per-layer metrics.

Run from the repository root::

    python3 benchmarks/e2e/run.py --seed 1                  # all workloads
    python3 benchmarks/e2e/run.py --workload solve_lfr --seed 3
    python3 benchmarks/e2e/run.py --seed 1 --trace 1        # per-layer run
    python3 benchmarks/e2e/run.py --seed 1 --repeat 3       # medians, IQR
    python3 benchmarks/e2e/run.py --smoke                   # tiny inputs, CI

Each workload run is a fresh subprocess (``workload.py``).  Untraced
runs give the end-to-end metrics; ``--trace 1`` reruns the workload with
the layer wrappers of ``tracing.py`` and gives the per-layer metrics.
``--smoke`` runs every workload on tiny inputs in trace mode and prints
both sets.  The metric names, units and bounds, and the measured time
per run, are those of ``BENCHMARK.json`` at the repository root; the
bounds hold only for runs of that length.

Human-readable lines go to standard output first; the last line is one
JSON object ``{"correct", "attempted", "failed", "metrics"}``.  Each
failure is printed to standard error.  Nothing is written to disk unless
``--out F`` is given: then the full report (errors, digests, base
counts) goes to ``F``, and the traces and gateway logs next to it.  The
exit code is 0 only when every check passed.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys
from pathlib import Path

from tracing import ALL_WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent.parent
#: a workload subprocess is killed (and fails) after this long
RUN_TIMEOUT = 170.0
SMOKE_SECONDS = 2.0


def _spec() -> dict:
    src = ROOT / "src" / "repro" / "__init__.py"
    if not src.is_file():
        sys.exit(f"run.py: no repro sources at {src.parent}; run from a "
                 f"full checkout of the repository")
    try:
        return json.loads((ROOT / "BENCHMARK.json").read_text())
    except (OSError, ValueError) as exc:
        sys.exit(f"run.py: cannot read BENCHMARK.json: {exc}")


def _run_workload(name: str, seed: int, seconds: float, trace: bool,
                  smoke: bool, out_dir: Path | None) -> dict:
    """One workload in its own process group; its outcome as a dict."""
    env = dict(os.environ)
    # src for repro, the root for the test suite's oracle (tests.*)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), str(ROOT), env.get("PYTHONPATH")) if p)
    cmd = [sys.executable, str(HERE / "workload.py"), "--workload", name,
           "--seed", str(seed), "--seconds", str(seconds)]
    if out_dir is not None:
        cmd += ["--out-dir", str(out_dir)]
    if trace:
        cmd.append("--trace")
    if smoke:
        cmd.append("--smoke")
    proc = subprocess.Popen(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE,
                            text=True, start_new_session=True)
    try:
        stdout, _ = proc.communicate(timeout=RUN_TIMEOUT)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        return _broken(name, seed, f"timed out after {RUN_TIMEOUT:.0f} s")
    finally:
        try:  # a gateway the workload left behind dies with its group
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
    lines = stdout.strip().splitlines()
    try:
        return json.loads(lines[-1])
    except (IndexError, ValueError):
        return _broken(name, seed, f"exit {proc.returncode}, no outcome line")


def _broken(name: str, seed: int, why: str) -> dict:
    return {"workload": name, "seed": seed, "attempted": 1, "failed": 1,
            "errors": [why], "e2e": {}, "layers": {}, "bases": {}, "info": {}}


def _declared(spec: dict, trace: bool, smoke: bool) -> list[dict]:
    if smoke:
        return spec["end_to_end"] + spec["per_layer"]
    return spec["per_layer"] if trace else spec["end_to_end"]


def _summarize(name: str, outcomes: list[dict], declared: list[dict]) -> dict:
    """Per-metric medians over the repeats; prints the table."""
    errors = []
    values: dict[str, list[float]] = {}
    for o in outcomes:
        produced = {**o["e2e"], **o["layers"]}
        for m in declared:
            if m["name"] in produced:
                values.setdefault(m["name"], []).append(produced[m["name"]])
            elif not o["errors"]:
                errors.append(f"{name}: metric {m['name']} was not produced")
    print(f"== {name} (seed {outcomes[0]['seed']}, {len(outcomes)} run(s))")
    medians = {}
    for m in declared:
        vals = values.get(m["name"])
        if not vals:
            continue
        med = statistics.median(vals)
        medians[m["name"]] = {"value": med, "unit": m["unit"]}
        line = f"  {m['name']:<34} {med:>14.6g} {m['unit']}"
        if len(vals) > 1:
            q1, _q2, q3 = statistics.quantiles(vals, n=4)
            spread = (q3 - q1) / med if med else 0.0
            line += f"   q1 {q1:.6g}  q3 {q3:.6g}  spread {spread:.1%}"
        print(line)
    for o in outcomes:
        for key, base in o["bases"].items():
            print(f"  base {key}: {base}")
        info = ", ".join(f"{k}={v:.6g}" if isinstance(v, float) else f"{k}={v}"
                         for k, v in o["info"].items())
        print(f"  info {info}")
        for err in o["errors"]:
            print(f"{name} seed {o['seed']}: FAILED {err}", file=sys.stderr)
    return {"metrics": medians, "errors": errors}


def main() -> int:
    spec = _spec()
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=ALL_WORKLOADS,
                    help="run one workload (default: all four)")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=spec["run_seconds"],
                    help="measured time per run (default and calibrated: "
                         "run_seconds of BENCHMARK.json, %(default)s)")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0,
                    help="1: the per-layer (traced) run")
    ap.add_argument("--repeat", type=int, default=1,
                    help="runs per workload; medians and quartiles printed")
    ap.add_argument("--smoke", action="store_true",
                    help="tiny inputs, every metric, about 20 s in all")
    ap.add_argument("--out", type=Path, default=None,
                    help="write the full JSON report here, and the traces "
                         "and gateway logs next to it")
    args = ap.parse_args()
    if args.repeat < 1:
        ap.error("--repeat must be >= 1")

    out_dir = None
    if args.out is not None:
        out_dir = args.out.resolve().parent
        out_dir.mkdir(parents=True, exist_ok=True)
    names = [args.workload] if args.workload else list(ALL_WORKLOADS)
    trace = bool(args.trace) or args.smoke
    seconds = SMOKE_SECONDS if args.smoke else args.seconds
    declared = _declared(spec, bool(args.trace), args.smoke)

    report = {"seed": args.seed, "seconds": seconds, "trace": trace,
              "smoke": args.smoke, "workloads": {}}
    attempted = failed = 0
    metrics: dict[str, dict] = {}
    for name in names:
        outcomes = [_run_workload(name, args.seed, seconds, trace,
                                  args.smoke, out_dir)
                    for _ in range(args.repeat)]
        summary = _summarize(name, outcomes, declared)
        report["workloads"][name] = {"runs": outcomes, **summary}
        attempted += sum(o["attempted"] for o in outcomes)
        failed += sum(o["failed"] for o in outcomes) + len(summary["errors"])
        for err in summary["errors"]:
            print(f"FAILED {err}", file=sys.stderr)
        for key, value in summary["metrics"].items():
            metrics[key if len(names) == 1 else f"{name}/{key}"] = value

    if args.out is not None:
        args.out.write_text(json.dumps(report, indent=1))
        print(f"report: {args.out}")
    correct = failed == 0
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
