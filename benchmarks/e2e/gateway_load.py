"""Gateway workloads: seeded JSONL traffic against ``repro serve --listen``.

The server is a subprocess (2 shards, 128 cache entries per shard, rate
and queue limits lifted) and the load comes from this process over one
connection.

A workload is a *round*: a fixed list of request lines made from the
seed.  Every round sends the same lines, except that each job carries
the round's own engine seed (``k`` added to its seed in round ``k``), so
no job is answered from another round's cache entry and every round
does the same work.  A run has two parts:

1. set-up: make the round, start the server, wait for ``gateway
   listening on``, send round 0 as a burst (the warm-up; it also loads
   every graph into the connection's graph cache) and wait for its rows;
2. pairs of rounds until ``--seconds`` have passed, at least
   ``MIN_ROUNDS`` pairs:

   - a closed loop: one line in flight, the next sent when its row is
     back; a line's latency runs from its send to its row;
   - a burst: the round with :data:`BURST_WINDOW` lines in flight; its
     completed jobs per second of burst time.

``job_best_s`` is the mean over the round's valid lines of each line's
fastest closed-loop latency (``common.best`` says why), and
``capacity_jobs_per_s`` the fastest burst.  ``codelength_bits`` and the
outcome digest come from the first closed-loop round, so they are fixed
at a fixed seed however many rounds the host's speed allows.

``gateway_mixed``
    Vectorized ``planted`` jobs of 80-720 vertices: 30 % verbatim
    repeats of an earlier line of the round (the cache path), 3 %
    malformed lines that must be answered ``rejected``/``invalid``, and
    every 10th valid line asking for its partition, which the oracle
    checks.
``gateway_ingest``
    :data:`SESSIONS` live-ingest sessions with their lines interleaved:
    each opens a base job on its own 2000-vertex ``planted`` graph, then
    sends :data:`FLUSHES` lines of 10 add/remove ops confined to one
    24-vertex window, each with ``"flush": true`` (the last also
    closes).  Every flush is a delta job: ``Delta.apply`` plus a warm
    refresh from the base partition the session cached.  Every 4th
    flush asks for its partition; the oracle rebuilds that graph from
    its own copy of the edge set.

The seed draws the graphs and the order of the lines, but every seed
sends the same mix: line kinds and job sizes are dealt from
seed-shuffled decks, so a seed cannot make a run easier or harder.
"""

from __future__ import annotations

import asyncio
import json
import re
import resource
import signal
import subprocess
import sys
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from repro.core.flow import FlowNetwork
from repro.graph.build import from_edge_array
from repro.graph.generators import planted_partition

import oracle
from common import (MIN_ROUNDS, PARALLEL_METRICS, Outcome, best, finished,
                    leftover_segments, median)
from tracing import (layer_metrics, now, save_trace, share, summarize,
                     wrapper_failures)

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent.parent

#: lines in flight during a burst
BURST_WINDOW = 16
SHARDS = 2
CACHE_ENTRIES = 128
#: longest wait for an outstanding row before it counts as missing
ROW_TIMEOUT = 60.0
#: engine seeds are drawn below this; round ``k`` adds ``k``
SEED_SPAN = 2**30

MIX_P_IN, MIX_P_OUT = 0.3, 0.01
#: one deck of mixed line kinds: 3 % malformed, 30 % repeats, 67 % fresh
KINDS = ("malformed",) + ("repeat",) * 10 + ("fresh",) * 22
#: decks per ``gateway_mixed`` round: 66 lines, 44 distinct jobs
MIX_DECKS = 2
#: fresh job sizes (communities, community size): 80-720 vertices
SIZES = tuple((c, s) for c in (4, 6, 8, 10, 12) for s in (20, 30, 40, 50, 60))
SMOKE_SIZES = tuple((c, s) for c in (3, 4, 5) for s in (10, 15, 20))
CHECK_EVERY = 10

#: ``bench_dynamic``'s base graph; smaller ones fall back to full reruns
INGEST_BASE = {"communities": 20, "size": 100, "p_in": 0.08, "p_out": 0.0008}
SESSIONS = 2
FLUSHES = 12
OPS_PER_FLUSH = 10
WINDOW = 24
CHECK_FLUSH_EVERY = 4

_LISTENING = re.compile(r"gateway listening on (\S+):(\d+)")
_NOT_JSON = b'{"planted": not json}\n'


@dataclass
class Slot:
    """One line of the round, before a round index makes it concrete."""

    body: dict | None       # the JSON object without its id; None: not JSON
    valid: bool             # True: must complete; False: must be rejected
    session: bool = False   # the session name gets the round's prefix
    graph: tuple | None = None  # how the oracle rebuilds the graph


@dataclass
class Line:
    """One request line of one round and what its row must show."""

    id: str | None          # None: not JSON, so the row carries no id
    data: bytes
    valid: bool
    slot: int
    graph: tuple | None = None


def _encode(obj: dict) -> bytes:
    return (json.dumps(obj, sort_keys=True) + "\n").encode()


def round_lines(slots: list[Slot], k: int) -> list[Line]:
    """Round ``k`` of ``slots``: fresh ids, session names and seeds."""
    lines = []
    for i, slot in enumerate(slots):
        if slot.body is None:
            lines.append(Line(None, _NOT_JSON, False, i))
            continue
        line_id = f"k{k}-{i}"
        obj = dict(slot.body, id=line_id)
        if "seed" in obj:
            obj["seed"] = slot.body["seed"] + k
        if slot.session:
            obj["session"] = f"k{k}-{slot.body['session']}"
        lines.append(Line(line_id, _encode(obj), slot.valid, i, slot.graph))
    return lines


# ------------------------------------------------------------------ inputs
def _deck(rng: np.random.Generator, items: tuple):
    """Endless seed-shuffled passes over ``items``."""
    while True:
        for j in rng.permutation(len(items)):
            yield items[j]


def _malformed(rng: np.random.Generator) -> Slot:
    recipe = {"communities": 4, "size": 20, "p_in": MIX_P_IN,
              "p_out": MIX_P_OUT, "seed": 0}
    kind = int(rng.integers(0, 4))
    if kind == 0:
        return Slot(None, False)
    if kind == 1:
        return Slot({"planted": recipe, "bogus_key": 1}, False)
    if kind == 2:
        return Slot({"engine": "vectorized", "workers": 1}, False)
    return Slot({"planted": recipe, "engine": "vectorized", "workers": 1,
                 "tau": 7.0}, False)


def _fresh(rng: np.random.Generator, size: tuple) -> dict:
    communities, community_size = size
    return {
        "planted": {
            "communities": int(communities), "size": int(community_size),
            "p_in": MIX_P_IN, "p_out": MIX_P_OUT,
            "seed": int(rng.integers(0, 2**31)),
        },
        "engine": "vectorized", "workers": 1,
        "seed": int(rng.integers(0, SEED_SPAN)),
    }


def mixed_round(seed: int, smoke: bool) -> list[Slot]:
    """The ``gateway_mixed`` round, a pure function of ``seed``."""
    rng = np.random.default_rng([seed, 2])
    kinds = _deck(rng, KINDS)
    sizes = _deck(rng, SMOKE_SIZES if smoke else SIZES)
    slots: list[Slot] = []
    fresh: list[dict] = []
    valid = 0
    for _ in range(len(KINDS) * MIX_DECKS):
        kind = next(kinds)
        if kind == "malformed":
            slots.append(_malformed(rng))
            continue
        if kind == "repeat" and fresh:
            body = fresh[int(rng.integers(len(fresh)))]
        else:
            body = _fresh(rng, next(sizes))
            fresh.append(body)
        valid += 1
        graph = None
        if valid % CHECK_EVERY == 0:
            body = dict(body, return_modules=True)
            graph = ("planted", body["planted"])
        slots.append(Slot(body, True, graph=graph))
    return slots


def _edge_dict(graph) -> dict[tuple[int, int], float]:
    src, dst, w = graph.edge_array()
    keep = src <= dst
    return {(int(u), int(v)): float(x)
            for u, v, x in zip(src[keep], dst[keep], w[keep])}


def _local_ops(edges: dict, window: set, lo: int, rng) -> list[list]:
    """OPS_PER_FLUSH alternating add/remove ops inside ``[lo, lo+WINDOW)``,
    applied to ``edges`` (and its in-window key set) as the server will."""
    present = sorted(window)
    rng.shuffle(present)
    ops: list[list] = []
    for i in range(OPS_PER_FLUSH):
        if i % 2 == 0 or not present:
            u = int(rng.integers(lo, lo + WINDOW))
            v = int(rng.integers(lo, lo + WINDOW))
            if u == v:
                v = lo + (v - lo + 1) % WINDOW
            key = (min(u, v), max(u, v))
            edges[key] = edges.get(key, 0.0) + 1.0
            window.add(key)
            ops.append(["add", u, v, 1.0])
        else:
            key = present.pop()
            del edges[key]
            window.discard(key)
            ops.append(["remove", key[0], key[1]])
    return ops


def _session_slots(rng, name: str, recipe: dict, n: int,
                   base_edges: dict) -> list[Slot]:
    slots = [Slot({"session": name, "planted": recipe,
                   "engine": "vectorized", "workers": 1,
                   "seed": int(rng.integers(0, SEED_SPAN))},
                  True, session=True)]
    edges = dict(base_edges)
    lo = int(rng.integers(0, n - WINDOW + 1))
    window = {k for k in edges
              if lo <= k[0] < lo + WINDOW and lo <= k[1] < lo + WINDOW}
    sent: list[list] = []
    for f in range(FLUSHES):
        ops = _local_ops(edges, window, lo, rng)
        sent += ops
        body = {"session": name, "ops": ops, "flush": True}
        if f == FLUSHES - 1:
            body["close"] = True
        graph = None
        if f % CHECK_FLUSH_EVERY == CHECK_FLUSH_EVERY - 1:
            body["return_modules"] = True
            graph = ("edges", n, base_edges, tuple(sent))
        slots.append(Slot(body, True, session=True, graph=graph))
    return slots


def ingest_round(seed: int, smoke: bool) -> list[Slot]:
    """The ``gateway_ingest`` round: SESSIONS sessions, lines round robin."""
    rng = np.random.default_rng([seed, 1])
    sessions = []
    for j in range(SESSIONS):
        recipe = dict(INGEST_BASE, seed=seed * SESSIONS + j)
        graph, _ = planted_partition(
            recipe["communities"], recipe["size"], recipe["p_in"],
            recipe["p_out"], seed=recipe["seed"],
        )
        sessions.append(_session_slots(rng, f"s{j}", recipe,
                                       graph.num_vertices, _edge_dict(graph)))
    return [slot for group in zip(*sessions) for slot in group]


ROUNDS = {"gateway_mixed": mixed_round, "gateway_ingest": ingest_round}


def _oracle_graph(spec: tuple):
    if spec[0] == "planted":
        r = spec[1]
        graph, _ = planted_partition(r["communities"], r["size"], r["p_in"],
                                     r["p_out"], seed=r["seed"])
        return graph
    # the base edge set with every op the session sent, replayed in order
    _kind, n, base_edges, ops = spec
    edges = dict(base_edges)
    for op in ops:
        key = (min(op[1], op[2]), max(op[1], op[2]))
        if op[0] == "add":
            edges[key] = edges.get(key, 0.0) + op[3]
        else:
            del edges[key]
    keys = np.array(sorted(edges), dtype=np.int64)
    weights = np.array([edges[k] for k in sorted(edges)])
    return from_edge_array(keys[:, 0], keys[:, 1], weights, num_vertices=n)


# ------------------------------------------------------------------ server
class Server:
    """``repro serve --listen`` (optionally with the layer wrappers).

    Its standard output and error are pipes, read in full when it
    stops; the gateway writes a few lines to each (one warning per
    rejected line), far below a pipe's buffer.  It runs with
    ``faulthandler`` on, so a gateway that hangs on SIGINT can be made
    to print every thread's stack before it dies.
    """

    def __init__(self, traced: bool) -> None:
        args = ["--listen", "127.0.0.1:0", "--shards", str(SHARDS),
                "--cache-entries", str(CACHE_ENTRIES),
                "--tenant-rate", "1e9", "--tenant-burst", "1e9",
                "--max-queue-depth", "100000"]
        cmd = [sys.executable, "-X", "faulthandler"]
        if traced:
            cmd += [str(HERE / "serve_traced.py"), *args]
        else:
            cmd += ["-m", "repro", "serve", *args]
        # an aborted gateway must not leave a core file in the checkout
        resource.setrlimit(resource.RLIMIT_CORE,
                           (0, resource.getrlimit(resource.RLIMIT_CORE)[1]))
        self.proc = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                                     stderr=subprocess.PIPE, text=True)
        self.stdout = self.stderr = ""
        # a server that hangs before listening is killed with the whole
        # workload by run.py's timeout
        self.port = None
        for line in self.proc.stdout:
            match = _LISTENING.search(line)
            if match:
                self.port = int(match.group(2))
                break
        if self.port is None:
            self.stop()
            raise RuntimeError(f"gateway did not start: {self.stderr[-2000:]}")

    def vmhwm_mb(self) -> float:
        """Peak resident set of the server process, from /proc."""
        with open(f"/proc/{self.proc.pid}/status") as fh:
            for row in fh:
                if row.startswith("VmHWM:"):
                    return int(row.split()[1]) / 1024.0
        return 0.0

    def stop(self) -> int | None:
        """SIGINT, then wait; returns the exit code (None if it hung).

        A hung gateway gets SIGABRT, on which faulthandler writes every
        thread's stack to its standard error before it dies."""
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGINT)
        try:
            self.stdout, self.stderr = self.proc.communicate(timeout=30)
        except subprocess.TimeoutExpired:
            self.proc.send_signal(signal.SIGABRT)
            try:
                self.stdout, self.stderr = self.proc.communicate(timeout=10)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.stdout, self.stderr = self.proc.communicate()
            return None
        return self.proc.returncode


# ------------------------------------------------------------------ client
class Client:
    """One connection: writes lines, a reader task files rows by id."""

    def __init__(self, reader, writer) -> None:
        self.reader, self.writer = reader, writer
        self.rows: dict[str, tuple[dict, float]] = {}
        self.anonymous: list[dict] = []
        self.anonymous_sent = 0
        self.pending: set[str] = set()
        self._changed = asyncio.Event()
        self._task = asyncio.get_running_loop().create_task(self._read())

    @classmethod
    async def connect(cls, port: int) -> "Client":
        reader, writer = await asyncio.open_connection(
            "127.0.0.1", port, limit=1 << 22)
        return cls(reader, writer)

    async def _read(self) -> None:
        while True:
            raw = await self.reader.readline()
            if not raw:
                return
            row = json.loads(raw)
            rid = row.get("id")
            if rid is None:
                self.anonymous.append(row)
            else:
                self.rows[rid] = (row, now())
                self.pending.discard(rid)
            self._changed.set()

    async def send(self, line: Line) -> float:
        t = now()
        if line.id is None:
            self.anonymous_sent += 1
        else:
            self.pending.add(line.id)
        self.writer.write(line.data)
        await self.writer.drain()
        return t

    def settled(self) -> bool:
        return not self.pending and len(self.anonymous) >= self.anonymous_sent

    async def wait(self, predicate, timeout: float = ROW_TIMEOUT) -> bool:
        deadline = now() + timeout
        while not predicate():
            if self._task.done():
                return predicate()
            self._changed.clear()
            remaining = deadline - now()
            if remaining <= 0:
                return False
            try:
                await asyncio.wait_for(self._changed.wait(), remaining)
            except asyncio.TimeoutError:
                return predicate()
        return True

    async def close(self) -> None:
        """Half-close and read until the server closes its side, so the
        server is done with the connection before it is stopped."""
        try:
            self.writer.write_eof()
            await asyncio.wait_for(self._task, ROW_TIMEOUT)
        finally:
            self.writer.close()
            try:
                await self.writer.wait_closed()
            except (ConnectionError, OSError):
                pass


@dataclass
class Served:
    """What one server's run measured."""

    setup_s: float = 0.0
    rss_mb: float = 0.0
    #: every line sent, warm-up first
    lines: list[Line] = field(default_factory=list)
    warmup: int = 0
    #: the first closed-loop round's lines (codelength, digest)
    first: list[Line] = field(default_factory=list)
    #: (id, slot, send-to-row latency) of each completed closed-loop line
    closed: list[tuple[str, int, float]] = field(default_factory=list)
    #: start and end of each closed-loop round (the per-layer windows)
    closed_windows: list[tuple[float, float]] = field(default_factory=list)
    #: start and end of the measured part
    window: tuple[float, float] = (0.0, 0.0)
    #: completed jobs per second of each burst
    bursts: list[float] = field(default_factory=list)
    rows: dict = field(default_factory=dict)
    anonymous: list = field(default_factory=list)
    anonymous_sent: int = 0
    settled: bool = True
    #: the traced server's spans (Chrome trace JSON)
    spans: dict | None = None

    def latencies(self) -> list[list[float]]:
        """Closed-loop latencies per slot of the round."""
        per_slot: dict[int, list[float]] = {}
        for _id, slot, latency in self.closed:
            per_slot.setdefault(slot, []).append(latency)
        return list(per_slot.values())


async def _drive(server: Server, slots: list[Slot], seconds: float | None,
                 smoke: bool, s: Served, t_setup: float) -> None:
    client = await Client.connect(server.port)
    try:
        await _burst(client, round_lines(slots, 0), s)
        s.bursts.clear()
        s.setup_s = now() - t_setup
        s.warmup = len(s.lines)
        if seconds:
            start = now()
            k = 1
            while s.settled:
                await _closed_loop(client, round_lines(slots, k), s)
                await _burst(client, round_lines(slots, k + 1), s)
                k += 2
                if k // 2 == MIN_ROUNDS:
                    # the server's peak after a fixed amount of traffic:
                    # its result caches grow until they are full and a
                    # faster host runs more rounds, so a peak read at the
                    # end would grow with the host's speed
                    s.rss_mb = server.vmhwm_mb()
                if finished(k // 2, now() - start, seconds, smoke):
                    break
            s.window = (start, now())
            if not s.rss_mb:  # a smoke run stops before MIN_ROUNDS pairs
                s.rss_mb = server.vmhwm_mb()
    finally:
        await client.close()
        s.rows = client.rows
        s.anonymous = client.anonymous
        s.anonymous_sent = client.anonymous_sent


async def _closed_loop(client: Client, lines: list[Line], s: Served) -> None:
    start = now()
    if not s.first:
        s.first = lines
    for line in lines:
        sent = await client.send(line)
        s.lines.append(line)
        if not await client.wait(client.settled):
            s.settled = False
            break
        if line.valid:
            row, received = client.rows[line.id]
            if row.get("status") == "completed":
                s.closed.append((line.id, line.slot, received - sent))
    s.closed_windows.append((start, now()))


async def _burst(client: Client, lines: list[Line], s: Served) -> None:
    start = now()
    for line in lines:
        if not await client.wait(lambda: len(client.pending) < BURST_WINDOW):
            s.settled = False
            break
        await client.send(line)
        s.lines.append(line)
    s.settled &= await client.wait(client.settled)
    done = [client.rows[line.id] for line in lines
            if line.valid and line.id in client.rows]
    completed = sum(1 for row, _t in done if row.get("status") == "completed")
    end = max((t for _row, t in done), default=start)
    if completed and end > start:
        s.bursts.append(completed / (end - start))


def _serve(out: Outcome, name: str, seed: int, seconds: float | None,
           smoke: bool, out_dir: Path | None, tag: str,
           traced: bool) -> Served:
    """Start a server, warm it up, optionally measure, stop it."""
    s = Served()
    t_setup = now()
    slots = ROUNDS[name](seed, smoke)
    server = Server(traced)
    try:
        asyncio.run(_drive(server, slots, seconds, smoke, s, t_setup))
    finally:
        code = server.stop()
    stem = f"{name}-seed{seed}-{tag}"
    if out_dir is not None:
        (out_dir / f"{stem}.log").write_text(server.stderr)
    if code != 0:
        out.fail(f"{tag}: gateway exited with {code} on SIGINT: "
                 f"{server.stderr[-4000:]}")
    leftovers = leftover_segments(server.proc.pid)
    if leftovers:
        out.fail(f"{tag}: {len(leftovers)} shared-memory segment(s) left")
    if not s.settled:
        out.fail(f"{tag}: rows still missing after {ROW_TIMEOUT:.0f} s")
    if traced:
        try:
            s.spans = json.loads(server.stdout.strip().splitlines()[-1])
        except (IndexError, ValueError) as exc:
            out.fail(f"{tag}: the traced server printed no spans: {exc!r}")
        else:
            save_trace(s.spans, out_dir, stem)
    _check_rows(out, s, tag)
    out.attempted += len(s.lines)
    return s


def _check_rows(out: Outcome, s: Served, tag: str) -> None:
    checked = 0
    nets: dict[int, FlowNetwork] = {}
    for line in s.lines:
        if line.id is None:
            continue
        got = s.rows.get(line.id)
        if got is None:
            out.fail(f"{tag} {line.id}: no result row")
            continue
        row = got[0]
        status = row.get("status")
        if not line.valid:
            if status != "rejected" or row.get("reject") != "invalid":
                out.fail(f"{tag} {line.id}: malformed line answered {status}")
            continue
        if status != "completed":
            out.fail(f"{tag} {line.id}: {status}: {row.get('error', '')}")
            continue
        if line.graph is None:
            continue
        if "modules" not in row:
            out.fail(f"{tag} {line.id}: partition was not returned")
            continue
        net = nets.get(line.slot)
        if net is None:
            net = nets[line.slot] = FlowNetwork.from_graph(
                _oracle_graph(line.graph))
        problem = oracle.check(net, row["modules"], row["codelength"],
                               row["num_modules"])
        checked += 1
        if problem:
            out.fail(f"{tag} {line.id}: {problem}")
    out.info["oracle_checked"] = out.info.get("oracle_checked", 0) + checked
    bad = [r for r in s.anonymous
           if r.get("status") != "rejected" or r.get("reject") != "invalid"]
    if bad or len(s.anonymous) != s.anonymous_sent:
        out.fail(f"{tag}: {s.anonymous_sent} non-JSON lines sent, "
                 f"{len(s.anonymous)} rows back, {len(bad)} not invalid")


def _first_rows(s: Served) -> list[dict]:
    """Rows of the first closed-loop round's valid lines, with their ids."""
    return [dict(s.rows[line.id][0], id=line.id) for line in s.first
            if line.valid and line.id in s.rows]


def _e2e(setups: list[float], s: Served) -> dict[str, float]:
    first = [r for r in _first_rows(s) if r.get("status") == "completed"]
    return {
        "setup_s": median(setups),
        "job_best_s": best(s.latencies()),
        "capacity_jobs_per_s": max(s.bursts, default=0.0),
        "codelength_bits": share(sum(r["codelength"] for r in first),
                                 len(first)),
        "peak_rss_mb": s.rss_mb,
    }


def _row_metrics(s: Served) -> tuple[dict[str, float], dict[str, str]]:
    """Per-layer numbers the result rows give (measured untraced)."""
    measured = [s.rows[line.id][0] for line in s.lines[s.warmup:]
                if line.valid and line.id in s.rows]
    measured = [r for r in measured if r.get("status") == "completed"]
    shards: dict[str, int] = {}
    for r in measured:
        shards[r["shard"]] = shards.get(r["shard"], 0) + 1
    closed = [s.rows[rid][0] for rid, _slot, _l in s.closed]
    hits = sum(1 for r in closed if r.get("cache_hit"))
    latency = sum(latency for _id, _slot, latency in s.closed)
    run_s = sum(r["run_seconds"] for r in closed)
    bases = {
        "cache.hit_share": f"{hits} hits / {len(closed)} closed-loop jobs",
        "gateway.overhead_share": f"{latency - run_s:.3f} s outside "
                                  f"run_seconds / {latency:.3f} s of "
                                  f"{len(closed)} closed-loop jobs",
        "gateway.shard_skew": f"per-shard jobs {sorted(shards.items())}",
    }
    return {
        "cache.hit_share": share(hits, len(closed)),
        "gateway.overhead_share": 1.0 - share(run_s, latency),
        "gateway.shard_skew": share(max(shards.values(), default=0) * SHARDS,
                                    len(measured)),
    }, bases


def run(name: str, seed: int, seconds: float, trace: bool, smoke: bool,
        setup_repeats: int, out_dir: Path | None) -> Outcome:
    out = Outcome(name, seed)
    setups = []
    for k in range(setup_repeats - 1):
        setups.append(_serve(out, name, seed, None, smoke, out_dir,
                             f"setup{k}", False).setup_s)
    measured = _serve(out, name, seed, seconds, smoke, out_dir, "run", False)
    setups.append(measured.setup_s)
    out.e2e = _e2e(setups, measured)
    out.info = {
        **out.info,
        "round_pairs": len(measured.closed_windows),
        "closed_loop_jobs": len(measured.closed),
        "job_median_s": median([lat for _i, _s, lat in measured.closed]),
        "burst_median_jobs_per_s": median(measured.bursts),
        "setup_samples": len(setups),
        "digest": oracle.sequence_digest(_first_rows(measured)),
    }
    if trace:
        traced = _serve(out, name, seed, seconds, smoke, out_dir, "traced",
                        True)
        if traced.spans is not None:
            _layers(out, name, measured, traced)
    return out


def _layers(out: Outcome, name: str, untraced: Served, traced: Served) -> None:
    events, other = traced.spans["traceEvents"], traced.spans["otherData"]
    for problem in wrapper_failures(summarize(events, [traced.window]),
                                    name, other):
        out.fail(problem)
    # a lone closed-loop line has the server to itself: every span in a
    # closed-loop round belongs to it
    latencies = [latency for _id, _slot, latency in traced.closed]
    m, bases = layer_metrics(summarize(events, traced.closed_windows),
                             len(latencies), sum(latencies))
    row_metrics, row_bases = _row_metrics(untraced)
    m.update(row_metrics)
    levels = [traced.rows[rid][0]["levels"] for rid, _s, _l in traced.closed]
    m["supernode.levels"] = share(sum(levels), len(levels))
    for key in PARALLEL_METRICS:
        m[key] = 0.0
    m["trace.overhead_share"] = (best(traced.latencies())
                                 / best(untraced.latencies()) - 1.0)
    out.layers = m
    out.bases = {**bases, **row_bases}
