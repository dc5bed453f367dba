"""Per-layer spans for the end-to-end benchmark, recorded from outside.

Nothing under ``src/`` knows about these spans: :class:`Tracer` wraps
the public entry points of each layer (the :data:`LAYERS` table) in the
process it is installed in, records one span per call, and restores
every original on :meth:`Tracer.uninstall`.  The engine workloads
install it in their own subprocess; the gateway workloads install it in
the server through ``serve_traced.py``.

A span is ``(id, layer, start, end, self, parent, thread, job, extra)``.
Self time is the span's duration minus the time its child spans cover;
children always run on the parent's thread, so the per-thread stack is
enough to attribute them.  Times come from ``CLOCK_MONOTONIC``, which
on Linux is shared by all processes, so a client can cut the server's
spans to the window it measured.

A module-level function is patched at *every* binding site: each
``repro.*`` module whose namespace holds the original object gets the
wrapper (``convert_to_supernodes`` is imported by name into the engines,
``cache_key`` into the service and the gateway).  Methods are patched
on their class, which covers every caller.
"""

from __future__ import annotations

import functools
import importlib
import itertools
import json
import os
import sys
import threading
import time
from pathlib import Path

ENGINE_WORKLOADS = ("solve_lfr", "rmat_parallel")
GATEWAY_WORKLOADS = ("gateway_mixed", "gateway_ingest")
ALL_WORKLOADS = ENGINE_WORKLOADS + GATEWAY_WORKLOADS

#: span name of the benchmark's own per-job root span (engine workloads)
JOB = "job"


def now() -> float:
    """The span clock: CLOCK_MONOTONIC seconds, comparable across processes."""
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def _bsp_outcome(args, kwargs, out) -> dict:
    return {
        "rounds": sum(p.rounds for p in out.passes),
        "proposed": sum(p.proposed for p in out.passes),
        "applied": sum(p.applied for p in out.passes),
    }


def _refresh(args, kwargs, r) -> dict:
    return {"touched": int(r.touched_vertices), "n": int(len(r.modules)),
            "full": bool(r.full_rerun)}


def _acquire(args, kwargs, result) -> dict:
    return {"cold": not result[1]}


#: layer -> (patch targets, workloads on which it must record calls,
#: reader of extra span fields from the call's result or None).
#: A target is ``(module, attribute)`` for a function or
#: ``(module, "Class.method")`` for a method.
LAYERS: dict[str, tuple[tuple, tuple[str, ...], object]] = {
    "flow.from_graph": (
        (("repro.core.flow", "FlowNetwork.from_graph"),),
        ALL_WORKLOADS, None),
    "vectorized.best_moves": (
        (("repro.core.vectorized", "Workspace.best_moves"),),
        ("solve_lfr",) + GATEWAY_WORKLOADS, None),
    "vectorized.module_state": (
        (("repro.core.vectorized", "Workspace.module_state"),),
        ALL_WORKLOADS, None),
    "vectorized.bind": (
        (("repro.core.vectorized", "Workspace.bind"),),
        ALL_WORKLOADS, None),
    "bsp.run": (
        (("repro.core.bsp", "run_bsp_infomap"),),
        ("rmat_parallel", "gateway_ingest"), _bsp_outcome),
    "bsp.commit": (
        (("repro.core.bsp", "commit_proposals"),),
        ("rmat_parallel", "gateway_ingest"), None),
    "supernode.convert": (
        (("repro.core.supernode", "convert_to_supernodes"),),
        ALL_WORKLOADS, None),
    "parallel.propose": (
        (("repro.core.parallel", "_WorkerPool.propose"),),
        ("rmat_parallel",), None),
    "parallel.arena": (
        (("repro.core.parallel", "_WorkerPool.begin_level"),),
        ("rmat_parallel",), None),
    "dynamic.warm_refresh": (
        (("repro.core.dynamic", "warm_refresh"),),
        ("gateway_ingest",), _refresh),
    "delta.apply": (
        (("repro.service.delta", "Delta.apply"),),
        ("gateway_ingest",), None),
    "jobsfile.resolve": (
        (("repro.service.jobsfile", "spec_fields_from_json"),
         ("repro.service.jobsfile", "_GraphResolver.resolve")),
        GATEWAY_WORKLOADS, None),
    "cache.key": (
        (("repro.service.cache", "cache_key"),),
        GATEWAY_WORKLOADS, None),
    "cache.get": (
        (("repro.service.cache", "ResultCache.get"),),
        GATEWAY_WORKLOADS, None),
    "cache.put": (
        (("repro.service.cache", "ResultCache.put"),),
        GATEWAY_WORKLOADS, None),
    "pool.acquire": (
        (("repro.service.pool", "PoolManager.acquire"),),
        ("rmat_parallel",), _acquire),
    "service.job": (
        (("repro.service.service", "JobService.run_batch"),),
        GATEWAY_WORKLOADS, None),
}

#: layers whose spans start a new job when they open on an empty stack
ROOT_LAYERS = frozenset({JOB, "service.job"})


class Tracer:
    """In-memory span recorder plus the patches that feed it."""

    def __init__(self) -> None:
        self.spans: list[tuple] = []
        self.sites: dict[str, int] = {}
        #: extras that could not be read from a layer's result
        self.errors: list[str] = []
        self._ids = itertools.count(1)
        self._jobs = itertools.count(1)
        self._local = threading.local()
        self._pid = os.getpid()
        self._patches: list[tuple[object, str, object]] = []

    # ------------------------------------------------------------ spans
    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(self, layer: str, fn, extra=None):
        """``fn`` recording one ``layer`` span per call in this process."""
        tracer = self
        root = layer in ROOT_LAYERS

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if os.getpid() != tracer._pid:  # a forked worker: pass through
                return fn(*args, **kwargs)
            stack = tracer._stack()
            parent = stack[-1] if stack else None
            if parent is not None:
                job = parent[2]
            else:
                job = next(tracer._jobs) if root else 0
            frame = [next(tracer._ids), 0.0, job]
            stack.append(frame)
            info = None
            t0 = now()
            try:
                result = fn(*args, **kwargs)
                if extra is not None:
                    try:
                        info = extra(args, kwargs, result)
                    except (AttributeError, TypeError, IndexError) as exc:
                        # the result changed shape: report it, never
                        # let the wrapper change what the caller gets
                        tracer.errors.append(f"{layer}: {exc!r}")
                return result
            finally:
                t1 = now()
                stack.pop()
                dur = t1 - t0
                if parent is not None:
                    parent[1] += dur
                tracer.spans.append((
                    frame[0], layer, t0, t1, dur - frame[1],
                    parent[0] if parent is not None else 0,
                    threading.get_ident(), job, info,
                ))

        return traced

    def call(self, layer: str, fn, *args, **kwargs):
        """Run ``fn`` inside one ``layer`` span (the benchmark's job span)."""
        return self.wrap(layer, fn)(*args, **kwargs)

    # ---------------------------------------------------------- patches
    def install(self) -> "Tracer":
        """Wrap every :data:`LAYERS` target; records binding-site counts.

        Modules imported later bind the wrapper, since they import it
        from the (patched) defining module.
        """
        for layer, (targets, _where, extra) in LAYERS.items():
            sites = 0
            for module, attr in targets:
                sites += self._patch(layer, module, attr, extra)
            self.sites[layer] = sites
        return self

    def _patch(self, layer: str, module: str, attr: str, extra) -> int:
        """Wrap one target; returns the binding sites patched (0: gone)."""
        try:
            mod = importlib.import_module(module)
        except ModuleNotFoundError:
            return 0
        if "." in attr:
            cls_name, meth = attr.split(".")
            raw = vars(getattr(mod, cls_name, object)).get(meth)
            if raw is None:
                return 0
            cls = getattr(mod, cls_name)
            if isinstance(raw, classmethod):
                wrapped = classmethod(self.wrap(layer, raw.__func__, extra))
            else:
                wrapped = self.wrap(layer, raw, extra)
            setattr(cls, meth, wrapped)
            self._patches.append((cls, meth, raw))
            return 1
        original = getattr(mod, attr, None)
        if original is None:
            return 0
        wrapped = self.wrap(layer, original, extra)
        sites = 0
        for name, site in list(sys.modules.items()):
            if name != "repro" and not name.startswith("repro."):
                continue
            for key, value in list(vars(site).items()):
                if value is original:
                    setattr(site, key, wrapped)
                    self._patches.append((site, key, original))
                    sites += 1
        return sites

    def uninstall(self) -> None:
        """Restore every patched binding (idempotent)."""
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # ----------------------------------------------------------- export
    def chrome_trace(self) -> dict:
        """The spans as Chrome trace JSON (``repro trace-view`` reads it)."""
        return {
            "traceEvents": [
                {
                    "name": layer, "cat": "e2e", "ph": "X",
                    "ts": t0 * 1e6, "dur": (t1 - t0) * 1e6,
                    "pid": self._pid, "tid": tid,
                    "args": {"id": sid, "parent": parent, "job": job,
                             "self_us": self_s * 1e6,
                             **(info or {})},
                }
                for sid, layer, t0, t1, self_s, parent, tid, job, info
                in self.spans
            ],
            "displayTimeUnit": "ms",
            "otherData": {"producer": "benchmarks/e2e", "sites": self.sites,
                          "errors": self.errors},
        }


def save_trace(trace: dict, out_dir: Path | None, stem: str) -> None:
    """Write ``trace`` as ``<out_dir>/<stem>.trace.json`` (no ``out_dir``:
    nothing is written)."""
    if out_dir is not None:
        (out_dir / f"{stem}.trace.json").write_text(json.dumps(trace))


def summarize(events: list[dict],
              windows: list[tuple[float, float]]) -> dict[str, dict]:
    """Per-layer totals over the spans that started inside a window.

    Returns ``{layer: {"calls", "self_s", "dur_s", <extra sums>}}``;
    for the root ``job`` layer ``dur_s`` is the jobs' total wall.
    """
    windows_us = [(lo * 1e6, hi * 1e6) for lo, hi in windows]
    out: dict[str, dict] = {}
    for ev in events:
        if not any(lo <= ev["ts"] <= hi for lo, hi in windows_us):
            continue
        args = ev["args"]
        slot = out.setdefault(ev["name"], {"calls": 0, "self_s": 0.0,
                                           "dur_s": 0.0})
        slot["calls"] += 1
        slot["self_s"] += args["self_us"] / 1e6
        slot["dur_s"] += ev["dur"] / 1e6
        for key, value in args.items():
            if key not in ("id", "parent", "job", "self_us"):
                slot[key] = slot.get(key, 0) + value
    return out


def wrapper_failures(summary: dict[str, dict], workload: str,
                     other: dict) -> list[str]:
    """Layers named for ``workload`` that found no binding site or
    recorded no call, plus the extras that could not be read.

    ``other`` is the trace's ``otherData``.
    """
    failures = list(other["errors"])
    for layer, (_targets, where, _extra) in LAYERS.items():
        if workload not in where:
            continue
        if not other["sites"].get(layer):
            failures.append(f"layer {layer}: no binding site was patched")
        elif not summary.get(layer, {}).get("calls"):
            failures.append(f"layer {layer}: wrapper recorded zero calls")
    return failures


def layer_metrics(summary: dict[str, dict], jobs: int,
                  wall: float) -> tuple[dict[str, float], dict[str, str]]:
    """Span-derived per-layer metrics and the base counts of each ratio.

    ``summary`` covers ``jobs`` jobs whose latencies add up to ``wall``
    seconds.  A ``*.time_share`` is a layer's self time as a share of
    that wall, so the shares and ``trace.unattributed_share`` add up to
    1; a ``*_calls`` value is calls per job.
    """
    per_job = max(jobs, 1)

    def calls(layer: str) -> float:
        return summary.get(layer, {}).get("calls", 0) / per_job

    bsp = summary.get("bsp.run", {})
    refresh = summary.get("dynamic.warm_refresh", {})
    acquire = summary.get("pool.acquire", {})
    m = {f"{layer}.time_share":
         share(summary.get(layer, {}).get("self_s", 0.0), wall)
         for layer in LAYERS}
    m.update({
        "vectorized.best_moves_calls": calls("vectorized.best_moves"),
        "vectorized.module_state_calls": calls("vectorized.module_state"),
        "bsp.commit_calls": calls("bsp.commit"),
        "bsp.rounds": bsp.get("rounds", 0) / per_job,
        "bsp.applied_share": share(bsp.get("applied", 0),
                                   bsp.get("proposed", 0)),
        "dynamic.touched_share": share(refresh.get("touched", 0),
                                       refresh.get("n", 0)),
        "dynamic.full_rerun_share": share(refresh.get("full", 0),
                                          refresh.get("calls", 0)),
        "pool.cold_spawns": acquire.get("cold", 0),
        "trace.unattributed_share": 1.0 - share(attributed_s(summary), wall),
    })
    bases = {
        "*.time_share": f"self time / {wall:.3f} s of latency over "
                        f"{jobs} jobs",
        "bsp.applied_share": f"{bsp.get('applied', 0)} applied / "
                             f"{bsp.get('proposed', 0)} proposed",
        "dynamic.touched_share": f"{refresh.get('touched', 0)} touched / "
                                 f"{refresh.get('n', 0)} vertices",
        "dynamic.full_rerun_share": f"{refresh.get('full', 0)} full reruns / "
                                    f"{refresh.get('calls', 0)} refreshes",
    }
    return m, bases


def attributed_s(summary: dict[str, dict]) -> float:
    """Total self time of every named layer (root job spans excluded)."""
    return sum(v["self_s"] for k, v in summary.items() if k != JOB)


def share(num: float, den: float) -> float:
    """``num / den``, or 0 when there is nothing to divide by."""
    return num / den if den else 0.0

