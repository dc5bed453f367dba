"""Engine workloads: the same cold solver runs, repeated and timed in-process.

``solve_lfr``
    ``run_infomap_vectorized`` on LFR graphs shaped like the orkut
    surrogate of Table I (average degree 17, maximum degree n/10,
    μ = 0.32) at :data:`LFR_VERTICES` vertices, single-threaded.  A
    round solves :data:`LFR_GRAPHS` graphs (graph seeds
    ``LFR_GRAPHS * seed + j``): one LFR draw's solve time differs from
    another's, so a single graph would make the seed, not the code, set
    the time.  At the surrogate's full 15k vertices a solve takes ~2 s
    and a run repeats it only 4-5 times; measured interleaved on the same
    host, the best-of-repeats time then spread 33 % between seeds, and
    at 5k vertices (~0.4 s, ~20 repeats) 9 %.
``rmat_parallel``
    ``run_infomap_parallel(workers=2)`` on ``stream_recipe("rmat_1m",
    seed)`` — a shared-memory CSR — borrowing a warm pool from
    ``PoolManager.acquire(2)`` for every run, as the job service does.
    R-MAT draws differ by about 6 %, so one graph serves.

Graph ``j`` is solved with engine seed ``1000 * seed + j`` in every
round, so each round repeats the work of the first exactly: its results
must be bit-identical, and a job's time is the best of its repeats
(see ``common.best``).  The warm-up uses engine seed ``1000 * seed``.
"""

from __future__ import annotations

import functools
import os
from pathlib import Path

from repro.core.flow import FlowNetwork
from repro.core.parallel import run_infomap_parallel
from repro.core.vectorized import run_infomap_vectorized
from repro.graph.datasets import DATASETS
from repro.graph.lfr import LFRParams, lfr_graph
from repro.graph.stream import stream_recipe, stream_rmat
from repro.service.pool import PoolManager

import oracle
from common import (PARALLEL_METRICS, ROW_METRICS, Outcome, best, finished,
                    leftover_segments, median, peak_rss_mb)
from tracing import (JOB, Tracer, layer_metrics, now, save_trace, share,
                     summarize, wrapper_failures)

LFR_GRAPHS = 2
LFR_VERTICES = 5_000
WORKERS = 2
#: a traced run fails when more of the job time than this falls outside
#: every wrapped layer: the wrappers would then miss where time goes
MAX_UNATTRIBUTED = 0.2


class SolveLFR:
    name = "solve_lfr"

    def __init__(self, seed: int, smoke: bool) -> None:
        self.seed, self.smoke = seed, smoke
        self.graphs: list = []
        self.warm_graph = None

    def _graph(self, seed: int, n: int, max_degree: int):
        spec = DATASETS["orkut"]
        params = LFRParams(
            n=n, mu=spec.mixing, tau_degree=2.3, tau_size=1.5,
            avg_degree=spec.avg_degree, max_degree=max_degree,
            min_community=spec.auto_min_community(),
            max_community=max(max_degree + 2, n // 8), seed=seed,
        )
        return lfr_graph(params)[0]

    def setup(self) -> None:
        spec = DATASETS["orkut"]
        n = 1_000 if self.smoke else LFR_VERTICES
        self.graphs = [self._graph(LFR_GRAPHS * self.seed + j, n,
                                   n * spec.max_degree // spec.n)
                       for j in range(LFR_GRAPHS)]
        # a first vectorized run costs no more than later ones (measured),
        # so a small graph warms the code paths as well as a full one
        self.warm_graph = self._graph(self.seed, 1_000, 100)

    def solve(self, graph, engine_seed: int):
        return run_infomap_vectorized(graph, seed=engine_seed)

    def close(self) -> None:
        pass


class RmatParallel:
    name = "rmat_parallel"

    def __init__(self, seed: int, smoke: bool) -> None:
        self.seed, self.smoke = seed, smoke
        self.streamed = None
        self.pools = None
        self.graphs: list = []
        self.warm_graph = None

    def setup(self) -> None:
        self.close()
        if self.smoke:
            self.streamed = stream_rmat(scale=10, edge_factor=8,
                                        seed=self.seed, name="rmat_smoke")
        else:
            self.streamed = stream_recipe("rmat_1m", seed=self.seed)
        self.graphs = [self.streamed.graph]
        # the first run on a fresh pool pays for the workers' start-up
        self.warm_graph = self.streamed.graph
        self.pools = PoolManager()
        self.pools.acquire(WORKERS)

    def solve(self, graph, engine_seed: int):
        pool, _warm = self.pools.acquire(WORKERS)
        return run_infomap_parallel(graph, workers=WORKERS, seed=engine_seed,
                                    pool=pool)

    def close(self) -> None:
        if self.pools is not None:
            self.pools.close()
            self.pools = None
        if self.streamed is not None:
            self.streamed.release()
            self.streamed = None


WORKLOADS = {cls.name: cls for cls in (SolveLFR, RmatParallel)}


def _rounds(w, seconds: float, tracer: Tracer | None):
    """Rounds of one run per graph for about ``seconds``.  Returns
    per-graph walls, per-graph results of every round, and the measured
    window."""
    walls: list[list[float]] = [[] for _ in w.graphs]
    results: list[list] = [[] for _ in w.graphs]
    start = now()
    while True:
        for g, graph in enumerate(w.graphs):
            solve = functools.partial(w.solve, graph, 1000 * w.seed + g)
            t0 = now()
            result = tracer.call(JOB, solve) if tracer else solve()
            walls[g].append(now() - t0)
            results[g].append(result)
        if finished(len(walls[0]), now() - start, seconds, w.smoke):
            return walls, results, (start, now())


def _repeat_failures(results: list[list], tag: str) -> list[str]:
    """Repeats of one job that did not give the first run's result."""
    out = []
    for g, runs in enumerate(results):
        first = runs[0]
        for r, res in enumerate(runs[1:], start=2):
            if (res.codelength, res.num_modules) != (first.codelength,
                                                     first.num_modules):
                out.append(f"{tag} graph {g} round {r}: codelength "
                           f"{res.codelength!r} ({res.num_modules} modules) "
                           f"!= round 1's {first.codelength!r} "
                           f"({first.num_modules})")
    return out


def run(name: str, seed: int, seconds: float, trace: bool, smoke: bool,
        setup_repeats: int, out_dir: Path | None) -> Outcome:
    out = Outcome(name, seed)
    w = WORKLOADS[name](seed, smoke)
    try:
        setups = []
        for _ in range(setup_repeats):
            t0 = now()
            w.setup()
            warm = w.solve(w.warm_graph, 1000 * seed)
            setups.append(now() - t0)
        walls, results, (start, end) = _rounds(w, seconds, None)
        rounds = len(walls[0])
        out.attempted = 1 + rounds * len(w.graphs)
        job_best = best(walls)
        firsts = [runs[0] for runs in results]
        out.e2e = {
            "setup_s": median(setups),
            "job_best_s": job_best,
            "capacity_jobs_per_s": 1.0 / job_best,
            "codelength_bits": sum(r.codelength for r in firsts) / len(firsts),
            "peak_rss_mb": peak_rss_mb(),
        }
        arcs = sum(g.num_arcs for g in w.graphs)
        out.info = {
            "rounds": rounds, "graphs": len(w.graphs),
            "vertices": w.graphs[0].num_vertices,
            "job_median_s": median([t for ts in walls for t in ts]),
            "arcs_per_s_best": arcs / (job_best * len(w.graphs)),
            "setup_samples": len(setups),
        }
        for problem in _repeat_failures(results, "untraced"):
            out.fail(problem)
        if trace:
            tracer = Tracer().install()
            try:
                t_walls, t_results, window = _rounds(w, seconds, tracer)
            finally:
                tracer.uninstall()
            out.attempted += len(t_walls[0]) * len(w.graphs)
            spans = tracer.chrome_trace()
            _layers(out, name, job_best, t_walls, t_results, spans, window)
            save_trace(spans, out_dir, f"{name}-seed{seed}")
            for problem in _repeat_failures(
                    [[firsts[g]] + t_results[g] for g in range(len(w.graphs))],
                    "traced"):
                out.fail(problem)

        nets = [FlowNetwork.from_graph(g) for g in w.graphs]
        checked = [(f"warm-up (engine seed {1000 * seed})",
                    FlowNetwork.from_graph(w.warm_graph), warm)]
        checked += [(f"graph {g} (engine seed {1000 * seed + g})", nets[g],
                     firsts[g]) for g in range(len(w.graphs))]
        for what, net, result in checked:
            problem = oracle.check(net, result.modules, result.codelength,
                                   result.num_modules)
            if problem:
                out.fail(f"{what}: {problem}")
        out.info["oracle_checked"] = len(checked)
        out.info["digest"] = oracle.sequence_digest([
            {"id": what, "status": "completed",
             "num_modules": result.num_modules,
             "codelength": result.codelength}
            for what, _net, result in checked
        ])
    finally:
        w.close()
    leftovers = leftover_segments(os.getpid())
    if leftovers:
        out.fail(f"{len(leftovers)} shared-memory segment(s) left: "
                 f"{leftovers[:3]}")
    return out


def _layers(out: Outcome, name: str, untraced_best: float,
            walls: list[list[float]], results: list[list], trace: dict,
            window: tuple[float, float]) -> None:
    summary = summarize(trace["traceEvents"], [window])
    for problem in wrapper_failures(summary, name, trace["otherData"]):
        out.fail(problem)
    wall = summary.get(JOB, {}).get("dur_s", 0.0)
    jobs = sum(len(ts) for ts in walls)
    m, out.bases = layer_metrics(summary, jobs, wall)
    flat = [r for runs in results for r in runs]
    m["supernode.levels"] = sum(r.levels for r in flat) / jobs
    for key in ROW_METRICS + PARALLEL_METRICS:
        m[key] = 0.0
    if name == "rmat_parallel":
        walls_flat = [t for ts in walls for t in ts]
        worker = sum(max(r.worker_propose_seconds) for r in flat)
        m["parallel.worker_compute_share"] = share(worker, wall)
        m["parallel.pipe_wait_share"] = (
            m["parallel.propose.time_share"] - share(worker, wall))
        m["parallel.serial_share"] = share(
            sum(t - r.propose_seconds for t, r in zip(walls_flat, flat)),
            wall)
        m["parallel.state_writes"] = sum(r.state_writes for r in flat) / jobs
        m["parallel.respawns"] = sum(r.respawns for r in flat)
    m["trace.overhead_share"] = best(walls) / untraced_best - 1.0
    unattributed = m["trace.unattributed_share"]
    if unattributed > MAX_UNATTRIBUTED:
        out.fail(f"trace.unattributed_share {unattributed:.3f} > "
                 f"{MAX_UNATTRIBUTED}: the wrapped layers miss job time")
    out.layers = m
