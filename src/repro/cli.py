"""Command-line interface.

Usage (after install)::

    python -m repro datasets                    # Table I inventory
    python -m repro run --dataset amazon --backend asa
    python -m repro run --dataset orkut --engine vectorized
    python -m repro run --dataset orkut --engine multicore --workers 4
    python -m repro run --dataset orkut --engine parallel --workers 4
    python -m repro run --surrogate rmat_1m --engine parallel --workers 4 \
        --ledger runs.jsonl                 # streamed paper-scale surrogate
    python -m repro run --edge-list my.txt --engine multicore --workers 4 \
        --backend softhash                  # per-core hardware accounting
    python -m repro run --dataset amazon --trace out.trace.json \
        --metrics-out metrics.json --log-level debug
    python -m repro trace-view out.trace.json   # self-time breakdown
    python -m repro submit --jobs batch.jsonl --dataset amazon \
        --engine parallel --workers 4 --priority 2
    python -m repro submit --jobs batch.jsonl --dataset amazon \
        --delta '[["add", 0, 5, 1.0], ["remove", 3, 4]]'  # one delta job
    python -m repro submit --jobs batch.jsonl --dataset amazon \
        --delta-session updates.jsonl   # base job + cumulative delta jobs
    python -m repro serve --jobs batch.jsonl    # warm pools + result cache
    python -m repro serve --jobs batch.jsonl --ledger runs.jsonl \
        --metrics-out metrics.json              # + ledger rows + heartbeat
    python -m repro trend --ledger runs.jsonl --metric wall_seconds
    python -m repro ledger validate --ledger runs.jsonl
    python -m repro ledger show --ledger runs.jsonl --last 10
    python -m repro experiment fig6 table5 fig8 ...
    python -m repro experiment fig6 --metrics-out metrics.json
    python -m repro quality --mu 0.1 0.3 0.5
    python -m repro calibrate
    python -m repro export --out results --names table1_datasets fig6_speedups

Every command prints ASCII tables; exit code 0 on success.

Observability (see docs/observability.md): ``--trace`` writes a Chrome
trace-event JSON loadable in chrome://tracing or https://ui.perfetto.dev;
``--metrics-out`` writes a metrics-registry snapshot; ``--log-level`` (or
the ``REPRO_LOG`` env var) turns on structured run-id logging;
``--ledger`` appends one content-addressed run record per run/job/cell
to a longitudinal JSONL ledger that ``repro trend`` reports over
(docs/trend.md).
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from contextlib import contextmanager
from typing import Iterator, Sequence

import numpy as np

from repro.core.infomap import (
    BSP_ENGINES,
    ENGINE_OPTIONS,
    ENGINES,
    MAX_WORKERS,
    check_engine_options,
    run_infomap,
)
from repro.graph.datasets import TABLE1_ORDER, load_dataset
from repro.graph.io import read_edge_list
from repro.graph.stream import recipe_names as stream_recipe_names
from repro.util.tables import Table, format_pct, format_seconds, format_si

__all__ = ["main", "build_parser"]

#: experiment-name -> harness function (lazy import to keep --help fast)
EXPERIMENTS = (
    "table1", "table2", "table3", "table4", "table5",
    "fig2", "fig4", "fig5", "fig6", "fig7", "fig8", "fig9", "fig10",
    "fig11", "overflow", "lfr",
)


def _tolerance(text: str) -> float:
    """``repro trend --tolerance``: a finite number >= 0.  NaN would
    read every key as stable and a negative value every key as
    regressed, so either would break the regression gate."""
    try:
        value = float(text)
    except ValueError:
        value = math.nan
    if not (math.isfinite(value) and value >= 0):
        raise argparse.ArgumentTypeError(
            f"must be a finite number >= 0, got {text!r}"
        )
    return value


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="repro",
        description="ASA-accelerated Infomap reproduction toolkit",
    )
    sub = p.add_subparsers(dest="command", required=True)

    sub.add_parser("datasets", help="list the Table I surrogate datasets")

    runp = sub.add_parser(
        "run",
        help="run Infomap on a dataset, edge list, or streamed surrogate",
    )
    src = runp.add_mutually_exclusive_group(required=True)
    src.add_argument("--dataset", choices=TABLE1_ORDER)
    src.add_argument("--edge-list", metavar="PATH")
    src.add_argument(
        "--surrogate", metavar="RECIPE", choices=stream_recipe_names(),
        help="stream a paper-scale surrogate straight into shared memory "
        f"(no Python edge list; docs/scaling.md): {', '.join(stream_recipe_names())}",
    )
    runp.add_argument(
        "--seed", type=int, default=None, metavar="SEED",
        help="--surrogate only: content seed for the streamed recipe "
        "(default 0; same seed ⇒ same graph digest)",
    )
    runp.add_argument(
        "--backend", default="plain",
        choices=("plain", "softhash", "robinhood", "asa"),
        help="accumulator of the engines with hardware accounting "
        "(--engine sequential|multicore); any other backend than the "
        "uninstrumented 'plain' is rejected for the batched engines",
    )
    runp.add_argument(
        "--engine", default="sequential", choices=ENGINES,
        help="'sequential' = instrumented engine with hardware accounting; "
        "'vectorized' = batched numpy fast path (no accounting, much "
        "faster wall clock on large graphs); 'multicore' = BSP schedule "
        "on --workers simulated cores with per-core accounting; "
        "'parallel' = the same schedule on --workers real worker "
        "processes over shared memory (bit-identical partitions to "
        "multicore at equal worker count)",
    )
    runp.add_argument(
        "--workers", type=int, default=None, metavar="N",
        help="core/worker count for --engine multicore|parallel "
        f"(default 2, at most {MAX_WORKERS}); the single-rank engines "
        "take only 1",
    )
    runp.add_argument(
        "--fault-plan", default=None, metavar="PLAN",
        help="chaos testing, --engine parallel only: inject worker "
        "faults, e.g. 'kill@w0:b1,hang@w1:b3' "
        "(kind@wWORKER:bBARRIER[:lLEVEL], kinds kill|hang|slow|corrupt) "
        "or 'random:SEED[:N]' for N seeded random faults; the "
        "supervisor respawns the worker and replays the barrier, so "
        "the partition matches the fault-free run (docs/testing.md)",
    )
    runp.add_argument(
        "--worker-timeout", type=float, default=None, metavar="SECONDS",
        help="--engine parallel only: reply deadline per worker; a "
        "worker silent past it is treated as hung and respawned "
        "(default: wait forever, or 30s when --fault-plan is given)",
    )
    runp.add_argument("--directed", action="store_true")
    runp.add_argument("--tau", type=float, default=0.15,
                      help="teleportation rate, in (0, 1) (default 0.15)")
    runp.add_argument(
        "--report", action="store_true",
        help="print the full per-kernel hardware report",
    )
    _add_obs_arguments(runp)

    srv = sub.add_parser(
        "serve",
        help="run a JSONL jobs batch, or an async gateway with --listen",
        description="Job-service driver (docs/service.md): with --jobs, "
        "executes every job in the file over warm worker pools and a "
        "content-addressed result cache, printing one row per job "
        "(exit 0 iff no job failed or was rejected).  With --listen "
        "HOST:PORT, runs the asyncio gateway instead: JSONL jobs over "
        "a socket, per-tenant rate limits, queue-depth backpressure, "
        "and rendezvous-sharded JobServices streaming results back as "
        "they complete (docs/service.md, gateway section).",
    )
    srv.add_argument("--jobs", metavar="JSONL", default=None,
                     help="jobs file, one JSON job per line (see "
                     "docs/service.md for the schema; 'repro submit' "
                     "appends well-formed lines)")
    srv.add_argument("--listen", metavar="HOST:PORT", default=None,
                     help="serve JSONL jobs over a socket instead of a "
                     "file (port 0 picks an ephemeral port, printed on "
                     "startup)")
    srv.add_argument("--max-queue-depth", type=int, default=64,
                     help="admission bound; surplus jobs are rejected "
                     "(per shard under --listen; default 64)")
    srv.add_argument("--cache-entries", type=int, default=128,
                     help="result-cache LRU capacity; 0 disables caching "
                     "(per shard under --listen; default 128)")
    srv.add_argument("--shards", type=int, default=2, metavar="N",
                     help="JobService shards behind the gateway "
                     "(--listen only; default 2)")
    srv.add_argument("--tenant-rate", type=float, default=50.0,
                     metavar="JOBS_PER_S",
                     help="per-tenant token-bucket refill rate "
                     "(--listen only; default 50)")
    srv.add_argument("--tenant-burst", type=float, default=100.0,
                     metavar="JOBS",
                     help="per-tenant burst capacity "
                     "(--listen only; default 100)")
    srv.add_argument("--max-connections", type=int, default=64,
                     help="concurrent client connections "
                     "(--listen only; default 64)")
    srv.add_argument("--frontier-budget", type=float, default=0.25,
                     help="flush a live delta session when its pending "
                     "ops' dirty frontier reaches this vertex share "
                     "(--listen only; default 0.25)")
    srv.add_argument("--json-out", metavar="PATH", default=None,
                     help="also write per-job results + service stats as JSON")
    srv.add_argument("--heartbeat", type=float, default=0.0,
                     metavar="SECONDS",
                     help="flush liveness gauges (queue depth, pool "
                     "occupancy, cache size) at least this often; 0 "
                     "flushes after every admission and job (default 0)")
    _add_obs_arguments(srv)

    smt = sub.add_parser(
        "submit",
        help="append one validated job line to a JSONL jobs file",
    )
    smt.add_argument("--jobs", required=True, metavar="JSONL",
                     help="jobs file to append to (created if missing)")
    gsrc = smt.add_mutually_exclusive_group(required=True)
    gsrc.add_argument("--dataset", choices=TABLE1_ORDER)
    gsrc.add_argument("--edge-list", metavar="PATH")
    gsrc.add_argument("--planted", metavar="JSON",
                      help="inline planted-partition recipe, e.g. "
                      '\'{"communities": 4, "size": 20, "p_in": 0.45, '
                      '"p_out": 0.02, "seed": 7}\'')
    smt.add_argument("--directed", action="store_true")
    smt.add_argument("--engine", default="parallel", choices=BSP_ENGINES)
    smt.add_argument("--workers", type=int, default=None, metavar="N")
    smt.add_argument("--seed", type=int, default=0)
    smt.add_argument("--tau", type=float, default=None)
    smt.add_argument("--priority", type=int, default=None,
                     help="higher runs first; ties run in file order")
    smt.add_argument("--deadline", type=float, default=None,
                     metavar="SECONDS",
                     help="cancel the job past this wall-clock budget "
                     "(--engine parallel only)")
    smt.add_argument("--no-cache", action="store_true",
                     help="opt this job out of the result cache")
    dgrp = smt.add_mutually_exclusive_group()
    dgrp.add_argument("--delta", metavar="JSON",
                      help="edge ops applied to the graph before an "
                      "incremental refresh, e.g. "
                      '\'[["add", 0, 5, 1.0], ["remove", 3, 4]]\' '
                      "(docs/service.md, delta jobs)")
    dgrp.add_argument("--delta-session", metavar="JSONL",
                      help="stream a session of deltas: appends one "
                      "plain base job, then one cumulative delta job "
                      "per line of this file (each line a JSON array "
                      "of ops) — every delta job warm-starts from the "
                      "base partition the first job caches")
    smt.add_argument("--base-key", metavar="KEY", default=None,
                     help="pin the warm-start partition to this exact "
                     "cache key instead of deriving it from the job's "
                     "own parameters (delta jobs only)")
    smt.add_argument("--fault-plan", default=None, metavar="PLAN")
    smt.add_argument("--worker-timeout", type=float, default=None,
                     metavar="SECONDS")
    smt.add_argument("--label", default=None)
    _add_obs_arguments(smt)

    exp = sub.add_parser("experiment", help="regenerate paper tables/figures")
    exp.add_argument("names", nargs="+", choices=EXPERIMENTS)
    _add_obs_arguments(exp, trace=False)

    tr = sub.add_parser(
        "trend",
        help="per-run_key trend report over a run ledger",
        description="Groups ledger records by run_key (same "
        "result-determining configuration), compares the latest sample "
        "of --metric against the median of the prior samples, and "
        "flags each key stable/improved/regressed at --tolerance "
        "(docs/trend.md).  Exit 0 normally; 1 when the ledger is "
        "missing/empty for the filter, or when --fail-on-regression "
        "is given and any key regressed.",
    )
    tr.add_argument("--ledger", default="BENCH_ledger.jsonl",
                    metavar="JSONL",
                    help="run ledger to report over (default "
                    "BENCH_ledger.jsonl)")
    tr.add_argument("--metric", default="wall_seconds",
                    help="perf/telemetry field to trend (default "
                    "wall_seconds)")
    tr.add_argument("--higher-is-better", action="store_true",
                    help="treat larger metric values as better "
                    "(throughputs, speedups, NMI); default is "
                    "lower-is-better (wall times)")
    tr.add_argument("--tolerance", type=_tolerance, default=0.10,
                    help="relative change vs the prior median that "
                    "counts as a regression/improvement: a finite "
                    "number >= 0 (default 0.10)")
    tr.add_argument("--run-key", default=None, metavar="PREFIX",
                    help="only run_keys starting with PREFIX")
    tr.add_argument("--engine", default=None,
                    help="only records whose config.engine matches")
    tr.add_argument("--dataset", default=None,
                    help="only records whose dataset/family/label matches")
    tr.add_argument("--kind", default=None,
                    choices=("bench", "experiment", "service"),
                    help="only records of this kind")
    tr.add_argument("--json-out", metavar="PATH", default=None,
                    help="also write the report as JSON (repro.trend/v1)")
    tr.add_argument("--fail-on-regression", action="store_true",
                    help="exit 1 if any run_key regressed (CI gate)")

    led = sub.add_parser(
        "ledger", help="inspect or validate a run ledger"
    )
    led_sub = led.add_subparsers(dest="ledger_command", required=True)
    shw = led_sub.add_parser("show", help="print recent ledger records")
    shw.add_argument("--ledger", default="BENCH_ledger.jsonl",
                     metavar="JSONL")
    shw.add_argument("--last", type=int, default=20, metavar="N",
                     help="show at most the last N records (default 20)")
    shw.add_argument("--run-key", default=None, metavar="PREFIX",
                     help="only run_keys starting with PREFIX")
    val = led_sub.add_parser(
        "validate",
        help="schema-check every record (incl. run_key/config match)",
    )
    val.add_argument("--ledger", default="BENCH_ledger.jsonl",
                     metavar="JSONL")

    tv = sub.add_parser(
        "trace-view",
        help="summarize a Chrome trace as a per-span self-time table",
    )
    tv.add_argument("path", metavar="TRACE_JSON")
    tv.add_argument("--top", type=int, default=20,
                    help="show at most this many spans (default 20)")

    q = sub.add_parser("quality", help="LFR quality sweep (Infomap vs Louvain)")
    q.add_argument("--mu", type=float, nargs="+", default=[0.1, 0.3, 0.5])
    q.add_argument("--n", type=int, default=1000)
    q.add_argument("--seed", type=int, default=7)

    sub.add_parser("calibrate", help="paper-targets-vs-measured shape report")

    exp_out = sub.add_parser(
        "export", help="run experiments and write JSON+CSV artifacts"
    )
    exp_out.add_argument("--out", default="results", metavar="DIR")
    exp_out.add_argument("--names", nargs="*", default=None,
                         help="experiment subset (default: all exportable)")
    return p


def _validate_run_args(
    parser: argparse.ArgumentParser, args: argparse.Namespace
) -> None:
    """Reject engine options the chosen --engine does not take, or whose
    value breaks its rule (:func:`repro.core.infomap.check_engine_options`,
    the check every engine entry point runs), with a proper argparse
    usage error (exit code 2) naming the flag.

    This runs from :func:`main` *before* :func:`_cmd_run` touches the
    graph source, so a bad combination is rejected before a dataset is
    loaded, an edge list is parsed, or — the expensive case — a
    multi-million-arc ``--surrogate`` stream is materialised into
    shared memory.  Keep every run-argument check here, not in
    :func:`_cmd_run`."""
    if args.seed is not None:
        if args.surrogate is None:
            parser.error("--seed applies to --surrogate runs only")
        if args.seed < 0:
            parser.error("--seed must be a non-negative integer")
    if args.surrogate is not None and args.directed:
        parser.error(
            "--directed applies to --edge-list input; "
            "surrogate recipes fix their own orientation"
        )
    given = {
        # 'plain', the default, asks for no accounting: every engine runs it
        "backend": args.backend if args.backend != "plain" else None,
        "workers": args.workers,
        "tau": args.tau,
        "worker_timeout": args.worker_timeout,
        "fault_plan": args.fault_plan,
    }
    # one flag at a time, so the error names the flag that broke the rule
    judged: dict = {}
    for option, value in given.items():
        if value is None:
            continue
        judged[option] = value
        try:
            check_engine_options(args.engine, **judged)
        except ValueError as exc:
            parser.error(f"--{option.replace('_', '-')}: {exc}")


def _add_obs_arguments(p: argparse.ArgumentParser, trace: bool = True) -> None:
    """Shared observability flags (docs/observability.md)."""
    if trace:
        p.add_argument(
            "--trace", metavar="PATH", default=None,
            help="write a Chrome trace-event JSON (chrome://tracing, Perfetto)",
        )
    p.add_argument(
        "--metrics-out", metavar="PATH", default=None,
        help="write a metrics-registry JSON snapshot",
    )
    p.add_argument(
        "--log-level", default=None,
        choices=("debug", "info", "warning", "error"),
        help="structured-logging level (default: $REPRO_LOG or warning)",
    )
    p.add_argument(
        "--ledger", metavar="PATH", default=None,
        help="append one content-addressed run record per run/job/cell "
        "to this JSONL run ledger (docs/trend.md)",
    )


@contextmanager
def _obs_session(args: argparse.Namespace) -> Iterator[None]:
    """Arm tracing/metrics/logging per the command's flags; write artifacts.

    Spans and metrics are enabled only when their output path was given,
    so the default path through the engines stays on the no-op fast path.
    """
    from repro.obs import ledger as obs_ledger
    from repro.obs import logging as obs_logging
    from repro.obs import metrics as obs_metrics
    from repro.obs import spans as obs_spans

    obs_logging.setup_logging(
        getattr(args, "log_level", None), run_id=obs_logging.new_run_id()
    )
    trace_path = getattr(args, "trace", None)
    metrics_path = getattr(args, "metrics_out", None)
    ledger_path = getattr(args, "ledger", None)
    if trace_path:
        obs_spans.clear()
        obs_spans.enable()
    registry = prev_registry = None
    if metrics_path:
        registry = obs_metrics.MetricsRegistry()
        prev_registry = obs_metrics.set_registry(registry)
        obs_metrics.enable()
    if ledger_path:
        obs_ledger.enable(ledger_path)
    try:
        yield
    finally:
        if ledger_path:
            obs_ledger.disable()
            print(f"ledger: {ledger_path}")
        if trace_path:
            obs_spans.disable()
            try:
                print(f"trace: {obs_spans.write_chrome_trace(trace_path)}")
            except OSError as exc:
                print(f"cannot write trace {trace_path}: "
                      f"{exc.strerror or exc}", file=sys.stderr)
            obs_spans.clear()
        if metrics_path:
            obs_metrics.disable()
            obs_metrics.set_registry(prev_registry)
            try:
                print(f"metrics: {registry.write_json(metrics_path)}")
            except OSError as exc:
                print(f"cannot write metrics {metrics_path}: "
                      f"{exc.strerror or exc}", file=sys.stderr)


def _cmd_datasets() -> int:
    from repro.harness.experiments import table1_datasets

    _, table = table1_datasets()
    table.print()
    return 0


def _cmd_run(args: argparse.Namespace) -> int:
    """Resolve the graph source, then dispatch to the selected engine.

    Arguments were already validated in :func:`main` via
    :func:`_validate_run_args` — every engine/workers/fault-plan
    combination is known-good before any graph is loaded or generated,
    so a ``--surrogate`` stream is never materialised only to die on a
    usage error.
    """
    if args.surrogate:
        from repro.graph.stream import stream_recipe

        sg = stream_recipe(args.surrogate, seed=args.seed or 0)
        try:
            return _run_on_graph(args, sg.graph, digest=sg.digest)
        finally:
            sg.release()
    if args.dataset:
        graph = load_dataset(args.dataset)
    else:
        graph, _ = read_edge_list(args.edge_list, directed=args.directed)
    return _run_on_graph(args, graph)


def _run_on_graph(
    args: argparse.Namespace, graph, digest: str | None = None
) -> int:
    import time

    from repro.obs import ledger as obs_ledger

    print(f"Graph: {graph.name} ({graph.num_vertices} vertices, "
          f"{graph.num_edges} edges)")
    t_start = time.perf_counter()

    # --backend defaults to 'plain'; the batched engines take no backend
    takes_backend = args.engine in ENGINE_OPTIONS["backend"]
    r = run_infomap(
        graph, engine=args.engine, workers=args.workers, tau=args.tau,
        backend=args.backend if takes_backend else None,
        fault_plan=args.fault_plan, worker_timeout=args.worker_timeout,
    )
    if args.engine == "multicore":
        print(f"{r.num_modules} modules, L={r.codelength:.4f} bits, "
              f"{r.levels} levels on {r.num_cores} simulated cores")
    else:
        print(r.summary())
    if args.fault_plan is not None:
        injected = sum(r.faults_injected.values())
        print(f"fault plan '{args.fault_plan}': {injected} fault(s) "
              f"fired, {r.respawns} worker respawn(s); partition is "
              f"bit-identical to the fault-free run at this seed")
    if r.telemetry is not None:
        print(r.telemetry.summary())
    if obs_ledger.is_enabled():
        # one content-addressed record per ``repro run --ledger`` run
        config = {
            "command": "run",
            "graph": digest or obs_ledger.graph_digest(graph),
            "engine": args.engine,
            "backend": args.backend,
            # the count the engine ran, its default included
            "workers": getattr(r, "num_workers", None)
            or getattr(r, "num_cores", 1),
            "tau": args.tau,
        }
        perf = {"wall_seconds": time.perf_counter() - t_start}
        if hasattr(r, "sweep_throughput"):
            perf["sweep_vertices_per_s"] = float(r.sweep_throughput)
        obs_ledger.get_ledger().append(obs_ledger.make_record(
            kind="experiment",
            source="cli.run",
            config=config,
            telemetry={
                "codelength": float(r.codelength),
                "num_modules": int(r.num_modules),
                "levels": int(r.levels),
            },
            perf=perf,
            label=graph.name,
        ))

    if args.backend != "plain":
        # only the instrumented engines get here (_validate_run_args)
        if args.engine == "multicore":
            from repro.sim.counters import KernelStats

            stats = KernelStats()
            for ks in r.per_core_stats:
                stats.add(ks)
        else:
            stats = r.stats
        cm = r.cycle_model()
        t = Table("Hardware accounting", ["Metric", "Value"])
        total = stats.total
        fb = stats.findbest
        t.add_row(["Instructions (total)", format_si(total.instructions)])
        t.add_row(["Instructions (FindBest)", format_si(fb.instructions)])
        t.add_row(["Branch mispredicts", format_si(fb.branch_mispredict)])
        t.add_row(["CPI (FindBest)", f"{cm.cycles(fb).cpi:.3f}"])
        t.add_row(["Hash-op time", f"{cm.cycles(stats.findbest_hash_total).seconds*1e3:.3f} ms"])
        t.add_row(["Total time (simulated)", f"{cm.cycles(total).seconds*1e3:.3f} ms"])
        t.print()

    sizes = np.bincount(r.modules)
    sizes = np.sort(sizes[sizes > 0])[::-1]
    print(f"Module sizes: largest {sizes[:5].tolist()}, median "
          f"{int(np.median(sizes))}, total {len(sizes)}")

    if getattr(args, "report", False) and args.backend != "plain":
        from repro.sim.report import hardware_report

        print()
        print(hardware_report(stats, r.machine, label=graph.name))
    return 0


def _cmd_serve(args: argparse.Namespace) -> int:
    """Batch driver over the job service (docs/service.md)."""
    from repro.service import JobService, STATUS_COMPLETED
    from repro.service.jobsfile import load_jobs

    if args.listen is not None:
        return _cmd_serve_listen(args)
    if args.jobs is None:
        print("serve: one of --jobs or --listen is required",
              file=sys.stderr)
        return 2
    try:
        svc = JobService(
            max_queue_depth=args.max_queue_depth,
            cache_entries=args.cache_entries,
            heartbeat_interval=args.heartbeat,
        )
    except ValueError as exc:
        print(f"serve: {exc}", file=sys.stderr)
        return 2
    with svc:
        try:
            specs = load_jobs(args.jobs)
        except (OSError, ValueError) as exc:
            print(f"cannot load jobs file: {exc}", file=sys.stderr)
            return 1
        if not specs:
            print(f"no jobs in {args.jobs}", file=sys.stderr)
            return 1
        print(f"{len(specs)} job(s) from {args.jobs}")
        results = svc.run_batch(specs)
        stats = svc.stats()

    t = Table(
        f"Job service — {args.jobs}",
        ["Job", "Label", "Engine", "Status", "Modules", "L (bits)",
         "Via", "Time"],
    )
    for r in results:
        via = ("cache" if r.cache_hit
               else "warm" if r.warm_pool
               else "cold" if r.status == STATUS_COMPLETED else "-")
        t.add_row([
            r.job_id,
            r.label,
            # a rejected job's workers may be any JSON value
            r.engine if r.workers in (0, 1) else f"{r.engine}×{r.workers}",
            r.status,
            r.num_modules if r.ok else "-",
            f"{r.codelength:.4f}" if r.ok else "-",
            via,
            format_seconds(r.run_seconds),
        ])
    t.print()
    for r in results:
        if r.error:
            print(f"job {r.job_id}: {r.error}")
    pools, cache = stats["pools"], stats["cache"]
    print(f"pools: {pools['warm_hits']} warm hit(s), "
          f"{pools['cold_spawns']} cold spawn(s); "
          f"cache: {cache['hits']} hit(s), {cache['misses']} miss(es), "
          f"{cache['evictions']} eviction(s)")
    if args.json_out:
        payload = {
            "jobs_file": args.jobs,
            "results": [
                {
                    "job_id": r.job_id, "label": r.label,
                    "engine": r.engine, "workers": r.workers,
                    "seed": r.seed, "status": r.status,
                    "num_modules": r.num_modules,
                    "codelength": r.codelength, "levels": r.levels,
                    "cache_hit": r.cache_hit, "warm_pool": r.warm_pool,
                    "respawns": r.respawns,
                    "touched_vertices": r.touched_vertices,
                    "full_rerun": r.full_rerun,
                    "run_seconds": r.run_seconds, "error": r.error,
                }
                for r in results
            ],
            "stats": stats,
        }
        with open(args.json_out, "w") as fh:
            json.dump(payload, fh, indent=2)
        print(f"results: {args.json_out}")
    bad = [r for r in results if r.status in ("failed", "rejected")]
    return 1 if bad else 0


def _cmd_serve_listen(args: argparse.Namespace) -> int:
    """Long-lived asyncio gateway (docs/service.md, gateway section)."""
    import asyncio

    from repro.service.gateway import Gateway, GatewayConfig

    host, sep, port_s = args.listen.rpartition(":")
    if not sep or not host:
        print(f"serve: --listen must be HOST:PORT, got {args.listen!r}",
              file=sys.stderr)
        return 2
    try:
        port = int(port_s)
    except ValueError:
        print(f"serve: bad --listen port {port_s!r}", file=sys.stderr)
        return 2
    try:
        config = GatewayConfig(
            shards=args.shards,
            queue_depth=args.max_queue_depth,
            cache_entries=args.cache_entries,
            tenant_rate=args.tenant_rate,
            tenant_burst=args.tenant_burst,
            max_connections=args.max_connections,
            frontier_budget=args.frontier_budget,
        )
        config.validate()
    except ValueError as exc:
        print(f"serve: {exc}", file=sys.stderr)
        return 2

    async def _serve() -> int:
        gw = Gateway(config)
        await gw.start(host, port)
        print(f"gateway listening on {host}:{gw.port} "
              f"({config.shards} shard(s), queue depth "
              f"{config.queue_depth}, {config.tenant_rate}/s per tenant)",
              flush=True)
        try:
            await asyncio.Event().wait()  # run until interrupted
        except asyncio.CancelledError:
            pass
        finally:
            await gw.stop()
            s = gw.stats
            print(f"gateway: {s['connections']} connection(s), "
                  f"{s['accepted']} accepted, {s['rejected']} rejected, "
                  f"{s['streamed']} result(s) streamed")
        return 0

    try:
        return asyncio.run(_serve())
    except KeyboardInterrupt:
        print("gateway stopped")
        return 0


def _cmd_submit(args: argparse.Namespace) -> int:
    """Append one shape-checked job line to a JSONL jobs file."""
    from repro.service.jobsfile import append_job

    obj: dict = {}
    if args.dataset:
        obj["dataset"] = args.dataset
    elif args.edge_list:
        obj["edge_list"] = args.edge_list
        if args.directed:
            obj["directed"] = True
    else:
        try:
            obj["planted"] = json.loads(args.planted)
        except json.JSONDecodeError as exc:
            print(f"--planted is not JSON: {exc}", file=sys.stderr)
            return 1
    obj["engine"] = args.engine
    if args.engine == "vectorized" and args.workers is None:
        obj["workers"] = 1
    for key in ("workers", "seed", "tau", "priority", "deadline",
                "fault_plan", "worker_timeout", "label"):
        value = getattr(args, key)
        if value is not None:
            obj[key] = value
    if args.no_cache:
        obj["use_cache"] = False
    if args.base_key is not None and not (args.delta or args.delta_session):
        print("cannot submit: --base-key requires --delta or "
              "--delta-session", file=sys.stderr)
        return 1

    to_append: list[dict] = []
    if args.delta is not None:
        try:
            ops = json.loads(args.delta)
        except json.JSONDecodeError as exc:
            print(f"--delta is not JSON: {exc}", file=sys.stderr)
            return 1
        job = dict(obj, delta=ops)
        if args.base_key is not None:
            job["base_key"] = args.base_key
        to_append.append(job)
    elif args.delta_session is not None:
        # one plain base job (it caches the warm-start partition), then
        # one cumulative delta job per session line: line k's job
        # applies every op up to and including line k, so each job
        # stands alone against the base graph + cached base partition
        try:
            with open(args.delta_session) as fh:
                lines = [(i, raw.strip()) for i, raw in enumerate(fh, 1)
                         if raw.strip() and not raw.strip().startswith("#")]
        except OSError as exc:
            print(f"cannot read --delta-session: {exc}", file=sys.stderr)
            return 1
        if not lines:
            print(f"--delta-session {args.delta_session} has no delta "
                  f"lines", file=sys.stderr)
            return 1
        to_append.append(dict(obj))
        cumulative: list = []
        for lineno, line in lines:
            try:
                ops = json.loads(line)
            except json.JSONDecodeError as exc:
                print(f"{args.delta_session}:{lineno}: not JSON: {exc}",
                      file=sys.stderr)
                return 1
            if not isinstance(ops, list):
                print(f"{args.delta_session}:{lineno}: expected a JSON "
                      f"array of ops", file=sys.stderr)
                return 1
            cumulative = cumulative + ops
            job = dict(obj, delta=list(cumulative))
            if args.base_key is not None:
                job["base_key"] = args.base_key
            to_append.append(job)
    else:
        to_append.append(obj)

    for job in to_append:
        try:
            written = append_job(args.jobs, job)
        except (OSError, ValueError) as exc:
            print(f"cannot submit: {exc}", file=sys.stderr)
            return 1
        print(f"{args.jobs} += {json.dumps(written, sort_keys=True)}")
    return 0


def _read_ledger(path: str) -> list[dict] | None:
    """Load a ledger for a CLI command; print the failure and return None."""
    from repro.obs.ledger import Ledger

    try:
        records = Ledger(path).read()
    except OSError as exc:
        print(f"cannot read ledger {path}: {exc.strerror or exc}",
              file=sys.stderr)
        return None
    except ValueError as exc:
        print(f"corrupt ledger: {exc}", file=sys.stderr)
        return None
    if not records:
        print(f"no records in {path}", file=sys.stderr)
        return None
    return records


def _cmd_trend(args: argparse.Namespace) -> int:
    """Per-run_key trend report over a run ledger (docs/trend.md)."""
    from repro.obs.trend import compute_trends, trends_json, trends_table

    records = _read_ledger(args.ledger)
    if records is None:
        return 1
    trends = compute_trends(
        records,
        args.metric,
        higher_is_better=args.higher_is_better,
        run_key=args.run_key,
        engine=args.engine,
        dataset=args.dataset,
        kind=args.kind,
    )
    if not trends:
        print(f"no records in {args.ledger} carry metric "
              f"'{args.metric}' under the given filters", file=sys.stderr)
        return 1
    trends_table(trends, args.tolerance).print()
    regressed = [t for t in trends if t.status(args.tolerance) == "regressed"]
    counts = {"regressed": len(regressed)}
    for status in ("improved", "stable", "single"):
        counts[status] = sum(
            1 for t in trends if t.status(args.tolerance) == status
        )
    print(", ".join(f"{n} {s}" for s, n in counts.items() if n)
          + f" at tolerance {args.tolerance:g}")
    if args.json_out:
        with open(args.json_out, "w") as fh:
            json.dump(trends_json(trends, args.tolerance), fh, indent=2)
        print(f"report: {args.json_out}")
    if regressed and args.fail_on_regression:
        for t in regressed:
            print(f"REGRESSION {t.run_key[:12]} {t.label}: "
                  f"latest {t.latest:.6g} vs baseline {t.baseline:.6g}",
                  file=sys.stderr)
        return 1
    return 0


def _cmd_ledger(args: argparse.Namespace) -> int:
    """``repro ledger show|validate`` — inspect a run ledger."""
    from repro.obs.ledger import Ledger

    if args.ledger_command == "validate":
        try:
            errors = Ledger(args.ledger).validate()
        except OSError as exc:
            print(f"cannot read ledger {args.ledger}: "
                  f"{exc.strerror or exc}", file=sys.stderr)
            return 1
        if errors:
            for err in errors:
                print(f"{args.ledger}: {err}", file=sys.stderr)
            return 1
        print(f"{args.ledger}: OK")
        return 0

    records = _read_ledger(args.ledger)
    if records is None:
        return 1
    if args.run_key:
        records = [r for r in records
                   if str(r.get("run_key", "")).startswith(args.run_key)]
        if not records:
            print(f"no records match run_key prefix {args.run_key!r}",
                  file=sys.stderr)
            return 1
    shown = records[-args.last:] if args.last > 0 else records
    t = Table(
        f"Run ledger — {args.ledger} "
        f"(last {len(shown)} of {len(records)})",
        ["Run key", "Kind", "Source", "Label", "Timestamp"],
    )
    for r in shown:
        t.add_row([
            str(r.get("run_key", ""))[:12],
            r.get("kind", "?"),
            r.get("source", "?"),
            r.get("label", ""),
            r.get("provenance", {}).get("timestamp", "?"),
        ])
    t.print()
    return 0


def _cmd_experiment(names: Sequence[str]) -> int:
    from repro.harness import experiments as E

    dispatch = {
        "table1": lambda: E.table1_datasets(),
        "table2": lambda: E.table2_machines(),
        "table3": lambda: E.table3_validation(cores=1),
        "table4": lambda: E.table3_validation(cores=2, iterations=5),
        "table5": lambda: E.table5_hash_time(),
        "fig2": lambda: E.fig2_kernel_breakdown(),
        "fig4": lambda: E.fig4_degree_distribution(),
        "fig5": lambda: E.fig5_cam_coverage(),
        "fig6": lambda: E.fig6_speedups(),
        "fig7": lambda: E.fig7_multicore_breakdown(),
        "fig8": lambda: E.fig8_arch_metrics(),
        "fig9": lambda: E.fig9_percore_instructions(),
        "fig10": lambda: E.fig10_percore_mispredictions(),
        "fig11": lambda: E.fig11_percore_cpi(),
        "overflow": lambda: E.overflow_share(),
        "lfr": lambda: E.lfr_quality(),
    }
    for name in names:
        _, table = dispatch[name]()
        table.print()
    return 0


def _cmd_trace_view(path: str, top: int = 20) -> int:
    """Per-span self-time table from a Chrome trace (the Fig 2 shape,
    from measured Python wall time instead of the simulated cost model)."""
    from repro.obs.spans import self_time_by_name

    try:
        with open(path) as fh:
            trace = json.load(fh)
    except OSError as exc:
        print(f"cannot read trace {path}: {exc.strerror or exc}")
        return 1
    except json.JSONDecodeError as exc:
        print(f"not a JSON trace {path}: {exc}")
        return 1
    agg = self_time_by_name(trace)
    if not agg:
        print(f"no complete ('ph': 'X') trace events in {path}")
        return 1
    total_self = sum(v["self_us"] for v in agg.values()) or 1.0
    t = Table(
        f"Span self-time breakdown — {path}",
        ["Span", "Count", "Total", "Self", "Self %", ""],
    )
    ranked = sorted(agg.items(), key=lambda kv: -kv[1]["self_us"])
    for name, v in ranked[:top]:
        share = v["self_us"] / total_self
        t.add_row([
            name,
            int(v["count"]),
            format_seconds(v["total_us"] / 1e6),
            format_seconds(v["self_us"] / 1e6),
            format_pct(share),
            "#" * max(1, round(share * 40)),
        ])
    if len(ranked) > top:
        t.add_row([f"... {len(ranked) - top} more", "", "", "", "", ""])
    t.print()
    return 0


def _cmd_quality(args: argparse.Namespace) -> int:
    from repro.harness.experiments import lfr_quality

    _, table = lfr_quality(mus=tuple(args.mu), n=args.n, seed=args.seed)
    table.print()
    return 0


def _cmd_calibrate() -> int:
    from repro.harness.calibrate import main as calibrate_main

    calibrate_main([])
    return 0


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.command == "datasets":
        return _cmd_datasets()
    if args.command == "run":
        _validate_run_args(parser, args)
        with _obs_session(args):
            return _cmd_run(args)
    if args.command == "serve":
        with _obs_session(args):
            return _cmd_serve(args)
    if args.command == "submit":
        with _obs_session(args):
            return _cmd_submit(args)
    if args.command == "experiment":
        with _obs_session(args):
            return _cmd_experiment(args.names)
    if args.command == "trend":
        return _cmd_trend(args)
    if args.command == "ledger":
        return _cmd_ledger(args)
    if args.command == "trace-view":
        return _cmd_trace_view(args.path, args.top)
    if args.command == "quality":
        return _cmd_quality(args)
    if args.command == "calibrate":
        return _cmd_calibrate()
    if args.command == "export":
        from repro.harness.export import export_all

        written = export_all(args.out, names=args.names)
        for p_ in written:
            print(p_)
        return 0
    raise AssertionError("unreachable")  # pragma: no cover


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
