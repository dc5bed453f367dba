"""End-to-end tests for the asyncio gateway (docs/service.md).

Everything here runs a real gateway on a real loopback socket via the
traffic harness's :class:`~tests.traffic.GatewayClient`; there is no
mocked transport.  The suite pins the gateway's four contracts:

* **bit-identity** — results streamed over the wire equal synchronous
  :class:`~repro.service.service.JobService` execution exactly, for
  the full conformance-family × seed grid (including a graph with
  isolated vertices, shipped via the inline ``edges`` source);
* **deterministic admission** — backpressure (paused gateway) and
  rate limiting (virtual time) reject exactly the same lines on every
  run, as structured rows;
* **isolation** — one tenant's invalid/over-limit/chaotic traffic
  never changes another tenant's results; a mid-stream disconnect
  never takes down the server;
* **affinity** — rendezvous routing lands repeated jobs (and deltas on
  their base) on the shard whose cache owns the result.
"""

import asyncio
import json
import socket
import subprocess
import sys
import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.graph.generators import planted_partition
from repro.service.cache import cache_key, graph_digest
from repro.service.delta import Delta
from repro.service.gateway import (
    MAX_LINE_BYTES,
    REJECT_BACKPRESSURE,
    REJECT_INVALID,
    REJECT_RATE_LIMIT,
    _ENVELOPE_KEYS,
    Gateway,
    GatewayConfig,
    graph_to_wire,
)
from repro.service.jobs import JobSpec
from repro.service.jobsfile import load_jobs
from repro.service.service import JobService

from tests.strategies import json_values
from tests.test_engine_conformance import FAMILIES, SEEDS
from tests.traffic import GatewayClient, TrafficConfig, run_soak



def gw_run(coro_factory, **cfg):
    """Start a gateway, run ``coro_factory(gw)`` against it, stop it."""

    async def _main():
        gw = Gateway(GatewayConfig(**cfg))
        await gw.start("127.0.0.1", 0)
        try:
            return await coro_factory(gw), gw
        finally:
            await gw.stop()

    return asyncio.run(_main())


def _vec_line(graph, seed, **extra):
    line = graph_to_wire(graph)
    line.update({"engine": "vectorized", "workers": 1, "seed": seed})
    line.update(extra)
    return line


#: graph sources the resolver cannot build; each must be an invalid line
_UNBUILDABLE = {
    "unknown-dataset": {"dataset": "nope"},
    "vertex-id-past-int64": {"edges": {"arcs": [[0, 2 ** 63]]}},
    "num-vertices-past-int64": {
        "edges": {"arcs": [[0, 1]], "num_vertices": 2 ** 63}},
    "num-vertices-unallocatable": {
        "edges": {"arcs": [[0, 1]], "num_vertices": 10 ** 12}},
    "planted-unallocatable": {
        "planted": {"communities": 10 ** 6, "size": 10 ** 6,
                    "p_in": 0.1, "p_out": 0.1}},
    "edge-list-not-a-path": {"edge_list": 5},
    "float-vertex-id": {"edges": {"arcs": [[1.9, 2]]}},
    "edges-directed-not-bool": {
        "edges": {"arcs": [[0, 1]], "directed": "no"}},
    "edge-list-directed-not-bool": {"edge_list": "g.txt", "directed": "no"},
    "dataset-not-a-string": {"dataset": ["amazon"]},
    "planted-list-value": {
        "planted": {"communities": [2], "size": 20, "p_in": 0.45,
                    "p_out": 0.02}},
}


#: one wire line, without its newline: arbitrary bytes, raw bytes inside
#: a JSON string, any JSON value, or envelope keys with any JSON values
_WIRE_LINES = st.one_of(
    st.binary(max_size=48),
    st.binary(max_size=16).map(lambda b: b'{"id": "' + b + b'"}'),
    json_values.map(lambda v: json.dumps(v).encode()),
    st.dictionaries(st.sampled_from(sorted(_ENVELOPE_KEYS)), json_values,
                    min_size=1, max_size=4)
    .map(lambda d: json.dumps(d).encode()),
).map(lambda line: line.replace(b"\n", b" "))


def _by_id(rows):
    return {r["id"]: r for r in rows if "id" in r}


# ---------------------------------------------------------------------------
# bit-identity against synchronous JobService execution
# ---------------------------------------------------------------------------
class TestBitIdentity:
    def test_conformance_grid_matches_sync_service(self):
        """Full family × seed grid: streamed results == sync results."""
        cases = [(fam, seed) for fam in FAMILIES for seed in SEEDS]
        graphs = {c: FAMILIES[c[0]](c[1])[0] for c in cases}

        sync = {}
        with JobService(cache_entries=0) as svc:
            for c, g in graphs.items():
                spec = JobSpec(graph=g, engine="vectorized", workers=1,
                               seed=c[1])
                sync[c] = svc.run_batch([spec])[0]
                assert sync[c].ok, sync[c].error

        async def _drive(gw):
            client = await GatewayClient.connect("127.0.0.1", gw.port)
            for (fam, seed) in cases:
                await client.send(_vec_line(
                    graphs[(fam, seed)], seed,
                    id=f"{fam}-{seed}", return_modules=True,
                ))
            return await client.drain_to_eof()

        rows, _ = gw_run(_drive, shards=2, cache_entries=0)
        got = _by_id(rows)
        assert len(got) == len(cases)
        for (fam, seed) in cases:
            row = got[f"{fam}-{seed}"]
            ref = sync[(fam, seed)]
            assert row["status"] == "completed", (fam, seed, row)
            assert row["num_modules"] == ref.num_modules, (fam, seed)
            assert row["codelength"] == ref.codelength, (fam, seed)
            assert row["levels"] == ref.levels
            assert row["modules"] == ref.modules.tolist(), (fam, seed)

    def test_pathological_graph_survives_the_wire(self):
        """The inline ``edges`` source preserves isolated vertices: the
        graph the gateway rebuilds digests identically to the sender's
        (an edge-list file hop would have dropped vertices 12..13)."""
        g, _ = FAMILIES["pathological"](0)
        wire = graph_to_wire(g)
        assert wire["edges"]["num_vertices"] == g.num_vertices

        import tempfile
        with tempfile.NamedTemporaryFile("w", suffix=".jsonl",
                                         delete=False) as fh:
            fh.write(json.dumps(
                {**wire, "engine": "vectorized", "workers": 1}) + "\n")
            path = fh.name
        (spec,) = load_jobs(path)
        assert graph_digest(spec.graph) == graph_digest(g)
        assert spec.graph.num_vertices == g.num_vertices


# ---------------------------------------------------------------------------
# deterministic admission: backpressure and rate limits
# ---------------------------------------------------------------------------
class TestAdmission:
    def test_backpressure_rejects_exactly_the_overflow(self):
        """Paused gateway, queue depth 3, 5 identical jobs → the last 2
        reject with a structured backpressure row; resume completes the
        first 3.  Runs twice: same ids rejected both times."""
        g, _ = FAMILIES["undirected"](0)

        async def _drive(gw):
            gw.pause()
            client = await GatewayClient.connect("127.0.0.1", gw.port)
            for i in range(5):
                await client.send(_vec_line(g, 0, id=f"j{i}"))
            rejects = await client.recv_many(2)
            gw.resume()
            rest = await client.drain_to_eof()
            return rejects, rest

        for _ in range(2):
            (rejects, rest), gw = gw_run(_drive, shards=1, queue_depth=3)
            assert [r["id"] for r in rejects] == ["j3", "j4"]
            assert all(r["status"] == "rejected"
                       and r["reject"] == REJECT_BACKPRESSURE
                       for r in rejects)
            assert sorted(r["id"] for r in rest) == ["j0", "j1", "j2"]
            assert all(r["status"] == "completed" for r in rest)
            assert gw.stats["accepted"] == 3 and gw.stats["rejected"] == 2

    def test_rate_limit_is_a_pure_function_of_stamps(self):
        """Virtual time: the accept/reject sequence depends only on the
        ``at`` stamps, identically across gateway instances."""
        g, _ = FAMILIES["undirected"](0)
        stamps = [0.0, 0.5, 1.0, 1.2, 3.0]

        async def _drive(gw):
            client = await GatewayClient.connect("127.0.0.1", gw.port)
            for i, at in enumerate(stamps):
                await client.send(_vec_line(g, 0, id=f"j{i}", at=at))
            return await client.drain_to_eof()

        expected = ["completed", "rejected", "completed", "rejected",
                    "completed"]
        for _ in range(2):
            rows, _gw = gw_run(_drive, shards=1, tenant_rate=1.0,
                               tenant_burst=1.0, virtual_time=True)
            got = _by_id(rows)
            assert [got[f"j{i}"]["status"]
                    for i in range(len(stamps))] == expected
            for i in (1, 3):
                assert got[f"j{i}"]["reject"] == REJECT_RATE_LIMIT

    def test_rejection_rows_never_raise(self):
        """Malformed lines over the socket answer structurally and the
        connection keeps serving (the jobsfile error paths, live)."""
        g, _ = FAMILIES["undirected"](0)

        async def _drive(gw):
            client = await GatewayClient.connect("127.0.0.1", gw.port)
            await client.send_raw(b"this is not json\n")
            await client.send({"id": "nosource", "engine": "vectorized",
                               "workers": 1})
            await client.send({**graph_to_wire(g), "id": "unknownkey",
                               "bogus": 1})
            await client.send(_vec_line(g, 0, id="badtau", tau=7.0))
            await client.send(_vec_line(g, 0, id="badpriority",
                                        priority="x"))
            await client.send({**_vec_line(g, 0, id="accumulator"),
                               "accumulator": "reduceat"})
            await client.send(_vec_line(g, 0, id="vecchunk", chunk=4))
            # a worker count past the bound is refused before any pool
            await client.send(_vec_line(g, 0, id="manycores",
                                        engine="multicore", workers=10**5))
            await client.send(_vec_line(g, 0, id="manyworkers",
                                        engine="parallel", workers=2**62))
            await client.send(_vec_line(g, 0, id="ok"))
            return await client.drain_to_eof()

        rows, gw = gw_run(_drive, shards=2)
        assert len(rows) == 10
        got = _by_id(rows)
        assert "priority must be an int" in got["badpriority"]["error"]
        assert "['accumulator']" in got["accumulator"]["error"]
        assert "['chunk']" in got["vecchunk"]["error"]
        for rid in ("manycores", "manyworkers"):
            assert "workers must be an int in [1, 64]" in got[rid]["error"]
        for rid in ("nosource", "unknownkey", "badtau", "badpriority",
                    "accumulator", "vecchunk", "manycores", "manyworkers"):
            assert got[rid]["status"] == "rejected"
            assert got[rid]["reject"] == REJECT_INVALID
            assert got[rid]["error"]
        assert got["ok"]["status"] == "completed"
        nojson = [r for r in rows if "id" not in r]
        assert len(nojson) == 1 and "not JSON" in nojson[0]["error"]

    @pytest.mark.parametrize("raw", [
        b"\xff",
        b'{"id": "a\xc3("}',
        b"[" * 60_000,
    ], ids=["lone-ff", "bad-continuation-byte", "nested-past-parser-depth"])
    def test_undecodable_line_answers_invalid_and_keeps_serving(self, raw):
        """A line that is not UTF-8, or nests deeper than the JSON
        parser goes, answers one invalid row naming its line number, and
        the next job on the same connection completes."""
        g, _ = FAMILIES["undirected"](0)

        async def _drive(gw):
            client = await GatewayClient.connect("127.0.0.1", gw.port)
            await client.send_raw(raw + b"\n")
            await client.send(_vec_line(g, 0, id="ok"))
            return await client.drain_to_eof()

        rows, _gw = gw_run(_drive, shards=1)
        assert [r["status"] for r in rows] == ["rejected", "completed"]
        assert rows[0]["reject"] == REJECT_INVALID
        assert rows[0]["error"].startswith("line 1: not JSON: ")
        assert rows[1]["id"] == "ok"

    @settings(max_examples=400, deadline=None)
    @given(lines=st.lists(_WIRE_LINES, min_size=1, max_size=6))
    def test_any_line_answers_one_row_and_keeps_serving(self, lines):
        """Wire fuzz: arbitrary bytes (invalid UTF-8 included), any JSON
        value, and envelope keys holding values of any type.  No drawn
        line names a graph source, so none can open a session and each
        answers exactly one row; the loop sees no unhandled exception,
        and a valid job sent afterwards on the same connection
        completes."""
        g, _ = FAMILIES["undirected"](0)
        unhandled = []

        async def _drive(gw):
            asyncio.get_running_loop().set_exception_handler(
                lambda _loop, context: unhandled.append(context))
            client = await GatewayClient.connect("127.0.0.1", gw.port)
            for line in lines:
                await client.send_raw(line + b"\n")
            # an id longer than any string the fuzz draws
            await client.send(_vec_line(g, 0, id="valid-job-after-fuzz"))
            return await client.drain_to_eof()

        rows, _gw = gw_run(_drive, shards=1)
        assert not unhandled, unhandled
        assert len(rows) == len(lines) + 1, rows
        assert [r["status"] for r in rows
                if r.get("id") == "valid-job-after-fuzz"] == ["completed"]

    @pytest.mark.parametrize("session", [False, True],
                             ids=["job", "session-open"])
    @pytest.mark.parametrize("source", sorted(_UNBUILDABLE))
    def test_unbuildable_graph_source_keeps_connection(self, source,
                                                       session):
        """A graph source the resolver cannot build (unknown dataset,
        vertex id or count past int64, a size numpy cannot allocate)
        answers one invalid row, and the next line on the same
        connection still completes."""
        g, _ = FAMILIES["undirected"](0)
        bad = {**_UNBUILDABLE[source], "engine": "vectorized",
               "workers": 1, "id": "bad"}
        if session:
            bad["session"] = "s"

        async def _drive(gw):
            client = await GatewayClient.connect("127.0.0.1", gw.port)
            await client.send(bad)
            await client.send(_vec_line(g, 0, id="ok"))
            return await client.drain_to_eof()

        rows, _gw = gw_run(_drive, shards=1)
        assert len(rows) == 2
        got = _by_id(rows)
        assert got["bad"]["status"] == "rejected"
        assert got["bad"]["reject"] == REJECT_INVALID
        assert got["ok"]["status"] == "completed"


# ---------------------------------------------------------------------------
# isolation
# ---------------------------------------------------------------------------
class TestIsolation:
    def test_one_bad_tenant_never_touches_another(self):
        """mallory floods invalid and over-limit lines; alice's batch
        completes with results identical to a clean run."""
        g, _ = FAMILIES["weighted"](1)

        async def _alice(port):
            client = await GatewayClient.connect("127.0.0.1", port)
            for i in range(3):
                await client.send(_vec_line(
                    g, i, tenant="alice", id=f"a{i}", at=float(i),
                    return_modules=True,
                ))
            return await client.drain_to_eof()

        async def _mallory(port):
            client = await GatewayClient.connect("127.0.0.1", port)
            for i in range(10):
                # all at t=0: burst 1 admits one, the rest rate-limit
                await client.send(_vec_line(
                    g, 0, tenant="mallory", id=f"m{i}", at=0.0,
                ))
            await client.send({"tenant": "mallory", "id": "mbad",
                               "at": 0.0, "nonsense": True})
            return await client.drain_to_eof()

        async def _drive(gw):
            return await asyncio.gather(_alice(gw.port), _mallory(gw.port))

        (alice_rows, mallory_rows), _gw = gw_run(
            _drive, shards=2, tenant_rate=1.0, tenant_burst=1.0,
            virtual_time=True,
        )
        a = _by_id(alice_rows)
        assert [a[f"a{i}"]["status"] for i in range(3)] == ["completed"] * 3
        m = _by_id(mallory_rows)
        assert m["mbad"]["reject"] == REJECT_INVALID
        m_status = [m[f"m{i}"]["status"] for i in range(10)]
        assert m_status.count("rejected") == 9  # burst of 1 admits one

        # alice's payloads equal a clean sync run — mallory changed nothing
        with JobService(cache_entries=0) as svc:
            for i in range(3):
                ref = svc.run_batch(
                    [JobSpec(graph=g, engine="vectorized", workers=1,
                             seed=i)])[0]
                assert a[f"a{i}"]["modules"] == ref.modules.tolist()
                assert a[f"a{i}"]["codelength"] == ref.codelength

    def test_mid_stream_disconnect_leaves_server_alive(self):
        g, _ = FAMILIES["undirected"](0)

        async def _drive(gw):
            rude = await GatewayClient.connect("127.0.0.1", gw.port)
            for i in range(4):
                await rude.send(_vec_line(g, i, id=f"r{i}"))
            first = await rude.recv()            # one streamed result...
            await rude.close()                   # ...then vanish
            await asyncio.sleep(0.05)
            polite = await GatewayClient.connect("127.0.0.1", gw.port)
            await polite.send(_vec_line(g, 0, id="p0"))
            rows = await polite.drain_to_eof()
            return first, rows

        (first, rows), gw = gw_run(_drive, shards=2)
        assert first["status"] == "completed"
        assert _by_id(rows)["p0"]["status"] == "completed"

    def test_truncated_tail_line_is_dropped_not_fatal(self):
        """A connection dying mid-line loses only the partial line:
        complete lines before it are answered, the tail is counted."""
        g, _ = FAMILIES["undirected"](0)

        async def _drive(gw):
            client = await GatewayClient.connect("127.0.0.1", gw.port)
            await client.send(_vec_line(g, 0, id="whole"))
            await client.send_raw(b'{"planted": {"communi')  # no newline
            client.write_eof()
            rows = []
            while True:
                row = await client.recv()
                if row is None:
                    return rows
                rows.append(row)

        rows, gw = gw_run(_drive, shards=1)
        assert [r["id"] for r in rows] == ["whole"]
        assert rows[0]["status"] == "completed"
        assert gw.stats["truncated_lines"] == 1

    def test_undecodable_truncated_tail_is_dropped(self):
        """A partial last line that is not UTF-8 is dropped like any
        other truncated tail."""
        g, _ = FAMILIES["undirected"](0)

        async def _drive(gw):
            client = await GatewayClient.connect("127.0.0.1", gw.port)
            await client.send(_vec_line(g, 0, id="whole"))
            await client.send_raw(b'{"id": "\xff')  # no newline
            return await client.drain_to_eof()

        rows, gw = gw_run(_drive, shards=1)
        assert [r["id"] for r in rows] == ["whole"]
        assert gw.stats["truncated_lines"] == 1

    def test_over_limit_lines_answer_invalid_rows(self):
        """A line past MAX_LINE_BYTES answers one invalid row — also a
        valid job, and also when its newline arrives only after the
        server's buffer filled — its rest is never parsed as a line,
        and the connection keeps serving."""
        big, _ = planted_partition(8, 120, 0.13, 0.0015, seed=1)
        small, _ = FAMILIES["undirected"](0)
        valid_big = (json.dumps(_vec_line(big, 0, id="big")) + "\n").encode()
        padded = json.dumps({
            "planted": {"communities": 2, "size": 5, "p_in": 0.9,
                        "p_out": 0.1},
            "engine": "vectorized", "workers": 1, "label": "x" * 370_000,
        }).encode()
        assert MAX_LINE_BYTES < len(valid_big) < 2 * MAX_LINE_BYTES
        assert len(padded) > 5 * MAX_LINE_BYTES

        async def _drive(gw):
            client = await GatewayClient.connect("127.0.0.1", gw.port)
            await client.send_raw(valid_big)
            await client.send_raw(padded)  # no newline yet
            rows = await client.recv_many(2)
            await client.send_raw(b"\n")
            await client.send(_vec_line(small, 0, id="ok"))
            return rows + await client.drain_to_eof()

        rows, _gw = gw_run(_drive, shards=1)
        assert [r["status"] for r in rows] == [
            "rejected", "rejected", "completed"]
        for lineno, row in enumerate(rows[:2], start=1):
            assert row["reject"] == REJECT_INVALID
            assert row["error"] == (
                f"line {lineno}: longer than {MAX_LINE_BYTES} bytes")
        assert rows[2]["id"] == "ok"

    def test_interleaved_tenants_on_one_connection(self):
        """Two tenants multiplexed on one socket: every response echoes
        the right tenant and id, rate limits stay per-tenant."""
        g, _ = FAMILIES["undirected"](1)

        async def _drive(gw):
            client = await GatewayClient.connect("127.0.0.1", gw.port)
            for i in range(3):
                for tenant in ("t1", "t2"):
                    await client.send(_vec_line(
                        g, i, tenant=tenant, id=f"{tenant}-{i}", at=0.0,
                    ))
            return await client.drain_to_eof()

        rows, _gw = gw_run(_drive, shards=2, tenant_rate=1.0,
                           tenant_burst=2.0, virtual_time=True)
        got = _by_id(rows)
        assert len(got) == 6
        for tenant in ("t1", "t2"):
            statuses = [got[f"{tenant}-{i}"]["status"] for i in range(3)]
            # burst of 2 at t=0: each tenant independently gets 2 in
            assert statuses == ["completed", "completed", "rejected"]
            assert all(got[f"{tenant}-{i}"]["tenant"] == tenant
                       for i in range(3))


# ---------------------------------------------------------------------------
# shard routing and cache affinity
# ---------------------------------------------------------------------------
class TestSharding:
    def test_shard_affinity_cache_hits(self):
        """A repeated job routes to the same shard and hits its cache —
        across connections, which is the point of rendezvous hashing."""
        graphs = [FAMILIES["undirected"](s)[0] for s in range(4)]

        async def _drive(gw):
            first = await GatewayClient.connect("127.0.0.1", gw.port)
            for i, g in enumerate(graphs):
                await first.send(_vec_line(g, 0, id=f"cold{i}"))
            cold = await first.drain_to_eof()
            second = await GatewayClient.connect("127.0.0.1", gw.port)
            for i, g in enumerate(graphs):
                await second.send(_vec_line(g, 0, id=f"warm{i}"))
            warm = await second.drain_to_eof()
            return cold, warm

        (cold, warm), gw = gw_run(_drive, shards=3)
        cold_by, warm_by = _by_id(cold), _by_id(warm)
        shards_used = set()
        for i in range(len(graphs)):
            c, w = cold_by[f"cold{i}"], warm_by[f"warm{i}"]
            assert c["status"] == w["status"] == "completed"
            assert not c["cache_hit"]
            assert w["cache_hit"], i     # same shard owns the result
            assert w["shard"] == c["shard"], i
            assert w["codelength"] == c["codelength"]
            shards_used.add(c["shard"])
        assert len(shards_used) > 1  # rendezvous actually spread them

    def test_routing_matches_rendezvous_on_cache_key(self):
        g, _ = FAMILIES["undirected"](2)
        spec = JobSpec(graph=g, engine="vectorized", workers=1, seed=2)

        async def _drive(gw):
            expect = gw.router.shard_for(cache_key(spec))
            client = await GatewayClient.connect("127.0.0.1", gw.port)
            await client.send(_vec_line(g, 2, id="x"))
            rows = await client.drain_to_eof()
            return expect, rows

        (expect, rows), _gw = gw_run(_drive, shards=4)
        assert _by_id(rows)["x"]["shard"] == expect


# ---------------------------------------------------------------------------
# live-arrival ingest sessions
# ---------------------------------------------------------------------------
class TestLiveIngest:
    def test_ops_buffer_until_frontier_budget(self):
        g, _ = FAMILIES["undirected"](0)

        async def _drive(gw):
            client = await GatewayClient.connect("127.0.0.1", gw.port)
            await client.send(_vec_line(g, 0, session="s", id="base"))
            base = await client.recv()
            await client.send({"session": "s", "id": "op1",
                               "ops": [["add", 0, 1, 1.0]]})
            ack = await client.recv()
            rest = await client.drain_to_eof()
            return base, ack, rest

        (base, ack, rest), gw = gw_run(_drive, shards=2,
                                       frontier_budget=0.95)
        assert base["status"] == "completed" and base["session"] == "s"
        assert ack["status"] == "buffered"
        assert 0.0 < ack["frontier_share"] < 0.95
        assert ack["ops_total"] == 1
        # EOF flushed the buffered ops as one cumulative delta job
        assert len(rest) == 1
        assert rest[0]["status"] == "completed"
        assert rest[0]["session"] == "s"
        assert gw.stats["flushes"] == 1

    def test_budget_crossing_flushes_cumulative_delta_bit_identically(self):
        """Ops that push the dirty frontier past the budget flush as one
        cumulative delta job whose result equals the sync JobService
        running the same base + delta with the same base_key."""
        g, _ = FAMILIES["undirected"](1)
        ops = [["add", 0, 1, 2.0], ["add", 30, 55, 1.0],
               ["remove", 0, 1]]

        async def _drive(gw):
            client = await GatewayClient.connect("127.0.0.1", gw.port)
            await client.send(_vec_line(g, 1, session="s", id="base",
                                        return_modules=True))
            base = await client.recv()
            await client.send({"session": "s", "id": "d1", "ops": ops,
                               "return_modules": True})
            flushed = await client.recv()
            await client.send({"session": "s", "close": True})
            rest = await client.drain_to_eof()
            return base, flushed, rest

        (base, flushed, rest), gw = gw_run(_drive, shards=2,
                                           frontier_budget=0.01)
        assert flushed["status"] == "completed"
        assert flushed["session"] == "s"
        assert rest == []  # close with nothing pending adds no job

        base_spec = JobSpec(graph=g, engine="vectorized", workers=1, seed=1)
        delta_spec = JobSpec(
            graph=g, engine="vectorized", workers=1, seed=1,
            delta=Delta.from_json(ops), base_key=cache_key(base_spec),
        )
        with JobService() as svc:
            ref_base = svc.run_batch([base_spec])[0]
            ref = svc.run_batch([delta_spec])[0]
        assert base["modules"] == ref_base.modules.tolist()
        assert flushed["modules"] == ref.modules.tolist()
        assert flushed["codelength"] == ref.codelength
        assert flushed["num_modules"] == ref.num_modules

    def test_closed_session_rejects_further_ops(self):
        g, _ = FAMILIES["undirected"](0)

        async def _drive(gw):
            client = await GatewayClient.connect("127.0.0.1", gw.port)
            await client.send(_vec_line(g, 0, session="s", id="base"))
            await client.recv()
            await client.send({"session": "s", "close": True})
            await client.send({"session": "s", "id": "late",
                               "ops": [["add", 0, 1, 1.0]]})
            return await client.drain_to_eof()

        rows, _gw = gw_run(_drive, shards=1, frontier_budget=0.95)
        late = _by_id(rows)["late"]
        assert late["status"] == "rejected"
        assert late["reject"] == REJECT_INVALID

    def test_bad_ops_reject_structurally_and_keep_session(self):
        g, _ = FAMILIES["undirected"](0)

        async def _drive(gw):
            client = await GatewayClient.connect("127.0.0.1", gw.port)
            await client.send(_vec_line(g, 0, session="s", id="base"))
            await client.recv()
            await client.send({"session": "s", "id": "bad",
                               "ops": [["frobnicate", 0, 1]]})
            bad = await client.recv()
            await client.send({"session": "s", "id": "good",
                               "ops": [["add", 0, 1, 1.0]], "flush": True})
            good = await client.recv()
            return bad, good

        (bad, good), _gw = gw_run(_drive, shards=1, frontier_budget=0.95)
        assert bad["status"] == "rejected" and bad["reject"] == REJECT_INVALID
        assert good["status"] == "completed" and good["session"] == "s"

    def test_non_finite_weights_are_invalid_rows(self):
        """``json.loads`` accepts NaN and Infinity (and a weight too big
        for a float): each gets an ``invalid`` row, in a session's ops or
        an inline graph, and the connection and session keep serving."""
        g, _ = FAMILIES["undirected"](0)
        bad_lines = [
            b'{"session": "s", "id": "nan", "ops": [["add", 0, 1, NaN]]}',
            b'{"session": "s", "id": "inf", '
            b'"ops": [["add", 0, 1, Infinity]]}',
            b'{"session": "s", "id": "huge", "ops": [["add", 0, 1, 1'
            + b"0" * 400 + b']]}',
            b'{"id": "edges", "engine": "vectorized", "workers": 1, '
            b'"edges": {"num_vertices": 3, "arcs": [[0, 1, 1.0], '
            b'[1, 2, NaN]]}}',
        ]

        async def _drive(gw):
            client = await GatewayClient.connect("127.0.0.1", gw.port)
            await client.send(_vec_line(g, 0, session="s", id="base"))
            await client.recv()
            for line in bad_lines:
                await client.send_raw(line + b"\n")
            bad = await client.recv_many(len(bad_lines))
            await client.send({"session": "s", "id": "good",
                               "ops": [["add", 0, 1, 1.0]], "flush": True})
            good = await client.recv()
            await client.close()
            return bad, good

        (bad, good), _gw = gw_run(_drive, shards=1, frontier_budget=0.95)
        assert sorted(r["id"] for r in bad) == ["edges", "huge", "inf", "nan"]
        for row in bad:
            assert row["status"] == "rejected", row
            assert row["reject"] == REJECT_INVALID, row
        assert good["status"] == "completed" and good["session"] == "s"


# ---------------------------------------------------------------------------
# soak reproducibility (the traffic harness's own contract)
# ---------------------------------------------------------------------------
class TestChaosJobs:
    def test_parallel_chaos_job_completes_and_connection_eofs(self):
        """A faulted parallel job runs through a shard and the client
        still sees EOF promptly.

        Regression coverage for two gateway-process hazards that only a
        real multiprocessing job exposes: forking pool workers from a
        shard thread can deadlock the child on an inherited lock, and a
        forked worker inherits the client's socket fd — holding the
        connection open after the server half-closes it, so
        ``drain_to_eof`` hangs forever.  Shard pools therefore default
        to the ``spawn`` start method; this test is what caught fork.
        """
        g, _ = planted_partition(3, 12, 0.45, 0.02, seed=2)

        async def _drive(gw):
            client = await GatewayClient.connect("127.0.0.1", gw.port)
            await client.send(_vec_line(g, 0, id="clean"))
            line = graph_to_wire(g)
            line.update({
                "engine": "parallel", "workers": 2, "seed": 0,
                "fault_plan": "random:5:1", "worker_timeout": 2.0,
                "id": "chaos",
            })
            await client.send(line)
            rows = await asyncio.wait_for(client.drain_to_eof(), timeout=90)
            await client.close()
            return rows

        rows, _ = gw_run(_drive, shards=1, cache_entries=0)
        got = _by_id(rows)
        assert got["clean"]["status"] == "completed"
        assert got["chaos"]["status"] == "completed", got["chaos"]
        # the faulted run is bit-identical to a clean one by the
        # supervisor's replay contract — same partition either way
        ref = JobSpec(graph=g, engine="parallel", workers=2, seed=0)
        with JobService(cache_entries=0, start_method="spawn") as svc:
            (clean,) = svc.run_batch([ref])
        assert got["chaos"]["num_modules"] == clean.num_modules
        assert got["chaos"]["codelength"] == clean.codelength


class TestSoak:
    def test_soak_is_reproducible_at_equal_seed(self):
        cfg = TrafficConfig(seed=11, jobs=24, mode="open",
                            invalid_share=0.1, repeat_share=0.3)
        a = run_soak(cfg, shards=2)
        b = run_soak(cfg, shards=2)
        assert a["digest"] == b["digest"]
        for tenant in a["per_tenant"]:
            assert (a["per_tenant"][tenant]["digest"]
                    == b["per_tenant"][tenant]["digest"]), tenant
            assert (a["per_tenant"][tenant]["statuses"]
                    == b["per_tenant"][tenant]["statuses"]), tenant
        assert a["gateway"]["accepted"] == b["gateway"]["accepted"]
        assert a["gateway"]["rejected"] == b["gateway"]["rejected"]

    def test_soak_distinguishes_seeds(self):
        a = run_soak(TrafficConfig(seed=1, jobs=16), shards=2)
        b = run_soak(TrafficConfig(seed=2, jobs=16), shards=2)
        assert a["digest"] != b["digest"]

    def test_closed_loop_matches_open_loop_admission(self):
        """Virtual-time stamps decide admission, not the arrival
        process: closed-loop and open-loop runs of the same schedule
        agree on every per-tenant digest."""
        a = run_soak(TrafficConfig(seed=3, jobs=18, mode="open"), shards=2)
        b = run_soak(TrafficConfig(seed=3, jobs=18, mode="closed"),
                     shards=2)
        assert a["digest"] == b["digest"]


# ---------------------------------------------------------------------------
# CLI front door
# ---------------------------------------------------------------------------
class TestServeListen:
    def test_cli_listen_serves_a_job(self, tmp_path):
        g, _ = FAMILIES["undirected"](0)
        proc = subprocess.Popen(
            [sys.executable, "-m", "repro", "serve",
             "--listen", "127.0.0.1:0", "--shards", "2"],
            stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True,
        )
        try:
            banner = proc.stdout.readline()
            assert "gateway listening on" in banner, banner
            port = int(banner.split("127.0.0.1:")[1].split()[0])

            async def _roundtrip():
                client = await GatewayClient.connect("127.0.0.1", port)
                await client.send(_vec_line(g, 0, id="cli"))
                return await client.drain_to_eof()

            rows = asyncio.run(_roundtrip())
            assert _by_id(rows)["cli"]["status"] == "completed"
        finally:
            proc.terminate()
            proc.wait(timeout=10)

    def test_listen_arg_validation(self):
        res = subprocess.run(
            [sys.executable, "-m", "repro", "serve",
             "--listen", "nocolon"],
            capture_output=True, text=True,
        )
        assert res.returncode == 2
        assert "HOST:PORT" in res.stderr
        res = subprocess.run(
            [sys.executable, "-m", "repro", "serve"],
            capture_output=True, text=True,
        )
        assert res.returncode == 2
        assert "--jobs or --listen" in res.stderr
