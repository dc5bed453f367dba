"""End-to-end suite for the job service (``repro.service``).

The service's contract (docs/service.md) in five enforceable claims:

* **invisible amortization** — a job executed on a warm pool, or served
  from the result cache, is bit-identical to a cold ``run_infomap``
  call at the same parameters, across the conformance graph families;
* **cache hits touch no workers** — a repeated job returns an identical
  (and independently owned) partition without any pool activity;
* **failure is data** — deadline-exceeded jobs come back ``cancelled``,
  engine crashes come back ``failed``, invalid/surplus submissions come
  back ``rejected``; none of them raises, and the service runs the next
  job normally (the pool recovers or is rebuilt);
* **deterministic scheduling** — priority+FIFO order and queue-full
  rejection are pure functions of the submitted batch;
* **nothing kept** — the service counts outcomes but holds no finished
  job, so a long-lived shard does not grow with the jobs it serves.

The CLI spelling (``repro submit`` / ``repro serve``) is smoked at the
bottom on a generated jobs file — the same flow CI runs.
"""

import json
import os
import tempfile
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import arena
from repro.core.parallel import run_infomap_parallel
from repro.graph.generators import planted_partition
from repro.service import (
    STATUS_CANCELLED,
    STATUS_COMPLETED,
    STATUS_FAILED,
    STATUS_REJECTED,
    JobService,
    JobSpec,
)
from repro.service.jobs import MAX_WORKERS
from repro.service.jobsfile import _SPEC_KEYS, load_jobs

from tests.strategies import json_values
from tests.test_engine_conformance import FAMILIES


def _graph(seed=3):
    g, _ = planted_partition(4, 20, 0.45, 0.02, seed=seed)
    return g


# ---------------------------------------------------------------------------
# warm-pool bit-identity across the conformance families


@pytest.fixture(scope="module")
def warm_service():
    """One service whose 2-worker pool is warmed by a throwaway job,
    so every test job below provably skips fork+handshake."""
    with JobService(cache_entries=0) as svc:
        (r,) = svc.run_batch([JobSpec(graph=_graph(), workers=2, seed=9)])
        assert r.ok and not r.warm_pool  # the one and only cold spawn
        yield svc


@pytest.mark.parametrize("family", sorted(FAMILIES))
@pytest.mark.parametrize("seed", (0, 1))
def test_warm_pool_bit_identical_to_cold(warm_service, family, seed):
    g, _ = FAMILIES[family](seed)
    (r,) = warm_service.run_batch(
        [JobSpec(graph=g, engine="parallel", workers=2, seed=seed)]
    )
    assert r.ok, r.error
    assert r.warm_pool, "pool should have been warm for every job"
    cold = run_infomap_parallel(g, workers=2, seed=seed)
    assert np.array_equal(r.modules, cold.modules)
    assert r.codelength == cold.codelength
    assert r.num_modules == cold.num_modules
    assert r.levels == cold.levels


def test_warm_pool_counters_account_every_job(warm_service):
    stats = warm_service.pools.stats()
    assert stats["cold_spawns"] == 1  # only the fixture's throwaway job
    assert stats["warm_hits"] >= 1


# ---------------------------------------------------------------------------
# cache hits return identical results without touching workers


def test_cache_hit_is_identical_and_spawns_no_workers():
    spec = JobSpec(graph=_graph(), engine="parallel", workers=2, seed=5)
    with JobService(cache_entries=8) as svc:
        (first,) = svc.run_batch([spec])
        assert first.ok and not first.cache_hit
        pools_before = dict(svc.pools.stats())
        (second,) = svc.run_batch([spec])
        assert second.cache_hit
        assert svc.pools.stats() == pools_before, (
            "a cache hit must not touch any pool"
        )
    assert np.array_equal(first.modules, second.modules)
    assert second.codelength == first.codelength
    # the hit owns its partition: mutating it cannot poison the cache
    assert second.modules is not first.modules


def test_cache_hit_without_any_pool_ever_existing():
    """A hit on a vectorized job spawns nothing at all."""
    spec = JobSpec(graph=_graph(), engine="vectorized", workers=1, seed=2)
    with JobService(cache_entries=8) as svc:
        (first,) = svc.run_batch([spec])
        (second,) = svc.run_batch([spec])
        assert second.cache_hit
        assert len(svc.pools) == 0
        assert np.array_equal(first.modules, second.modules)


def test_cache_disabled_never_hits():
    spec = JobSpec(graph=_graph(), engine="vectorized", workers=1, seed=2)
    with JobService(cache_entries=0) as svc:
        results = svc.run_batch([spec, spec])
        assert all(r.ok and not r.cache_hit for r in results)


# ---------------------------------------------------------------------------
# deadline cancellation + pool recovery


def test_deadline_exceeded_job_is_cancelled_and_pool_recovers():
    g = _graph()
    with JobService(cache_entries=0) as svc:
        (doomed,) = svc.run_batch(
            [JobSpec(graph=g, workers=2, seed=0, deadline=1e-9)]
        )
        assert doomed.status == STATUS_CANCELLED
        assert doomed.modules is None
        assert "deadline" in doomed.error
        # the same pool must serve the next job, warm, bit-identically
        (after,) = svc.run_batch([JobSpec(graph=g, workers=2, seed=0)])
        assert after.ok, after.error
        assert after.warm_pool, "cancellation must not cost the warm pool"
        cold = run_infomap_parallel(g, workers=2, seed=0)
        assert np.array_equal(after.modules, cold.modules)


def test_generous_deadline_does_not_perturb_result():
    g = _graph()
    with JobService(cache_entries=0) as svc:
        (r,) = svc.run_batch(
            [JobSpec(graph=g, workers=2, seed=1, deadline=300.0)]
        )
        assert r.ok
        cold = run_infomap_parallel(g, workers=2, seed=1)
        assert np.array_equal(r.modules, cold.modules)


# ---------------------------------------------------------------------------
# engine failure: structured, isolated, pool rebuilt


def test_engine_crash_reports_failed_and_next_job_runs(monkeypatch):
    import repro.service.service as service_mod

    g = _graph()
    calls = {"n": 0}
    real = service_mod.run_infomap

    def flaky(*args, **kwargs):
        calls["n"] += 1
        if calls["n"] == 1:
            raise RuntimeError("synthetic engine crash")
        return real(*args, **kwargs)

    monkeypatch.setattr(service_mod, "run_infomap", flaky)
    with JobService(cache_entries=0) as svc:
        crashed, after = svc.run_batch(
            [
                JobSpec(graph=g, workers=2, seed=0, label="crash"),
                JobSpec(graph=g, workers=2, seed=0, label="after"),
            ]
        )
        assert crashed.status == STATUS_FAILED
        assert "synthetic engine crash" in crashed.error
        assert after.ok, after.error
        # the untrusted pool was discarded, so the retry forked fresh
        assert not after.warm_pool
    assert np.array_equal(
        after.modules, run_infomap_parallel(g, workers=2, seed=0).modules
    )


# ---------------------------------------------------------------------------
# deterministic scheduling: priority order, queue-full rejection


def _recording_run_job(ran):
    """``JobService._run_job`` that also appends each spec it runs to
    ``ran`` — how a test observes execution order."""
    real = JobService._run_job

    def run_job(self, spec, result):
        ran.append(spec)
        real(self, spec, result)

    return mock.patch.object(JobService, "_run_job", run_job)


def _order_of(priorities, depth=64):
    """Execution order and rejections (by submission index) of a
    priority batch."""
    g = _graph()
    ran = []
    with _recording_run_job(ran), \
            JobService(max_queue_depth=depth, cache_entries=0) as svc:
        results = svc.run_batch(
            [
                JobSpec(graph=g, engine="vectorized", workers=1,
                        seed=i, priority=p, use_cache=False)
                for i, p in enumerate(priorities)
            ]
        )
    # results come back in submission order, whatever ran first
    assert [r.seed for r in results] == list(range(len(priorities)))
    executed = [spec.seed for spec in ran]  # seed == submission index
    rejected = [r.seed for r in results if r.status == STATUS_REJECTED]
    return executed, rejected


def test_priority_order_is_highest_first_fifo_ties():
    executed, rejected = _order_of([0, 5, 5, 1, -2])
    assert executed == [1, 2, 3, 0, 4]
    assert rejected == []


def test_priority_order_is_deterministic_across_batches():
    runs = {tuple(_order_of([3, 1, 3, 0, 2, 2])[0]) for _ in range(3)}
    assert runs == {(0, 2, 4, 5, 1, 3)}


def test_queue_full_rejects_surplus_deterministically():
    executed, rejected = _order_of([0, 9, 0, 0], depth=2)
    # the first two submissions fill the queue; the rest bounce
    assert executed == [1, 0]
    assert rejected == [2, 3]


def test_queue_full_rejection_is_structured():
    g = _graph()
    with JobService(max_queue_depth=1) as svc:
        ran, r = svc.run_batch([
            JobSpec(graph=g, engine="vectorized", workers=1),
            JobSpec(graph=g, engine="vectorized", workers=1),
        ])
    assert ran.ok
    assert r.status == STATUS_REJECTED
    assert "queue full" in r.error and "max_queue_depth=1" in r.error


def test_batch_admission_contract():
    """One batch pins the whole admission contract: validation before
    the depth bound, in submission order; the admitted jobs run by
    priority; the queue-depth gauge and heartbeats follow every
    admission and every finished job; ``stats`` counts it all."""
    g = _graph()
    depths, ran = [], []
    real_gauge = JobService._gauge

    def gauge(name, value):
        if name == "service.queue.depth":
            depths.append(value)
        real_gauge(name, value)

    specs = [JobSpec(graph=g, engine="vectorized", workers=1, seed=i,
                     priority=p, label=f"p{p}-{i}")
             for i, p in enumerate((0, 9, 0, 0))]
    specs.append(JobSpec(graph=g, engine="vectorized", workers=4))
    with _recording_run_job(ran), \
            mock.patch.object(JobService, "_gauge", staticmethod(gauge)), \
            JobService(max_queue_depth=2, heartbeat_interval=0) as svc:
        results = svc.run_batch(specs)
        stats = svc.stats()
    assert [r.status for r in results] == [
        STATUS_COMPLETED, STATUS_COMPLETED,
        STATUS_REJECTED, STATUS_REJECTED, STATUS_REJECTED,
    ]
    assert [spec.label for spec in ran] == ["p9-1", "p0-0"]
    assert [r.error for r in results[2:]] == [
        "queue full: 2 job(s) pending (max_queue_depth=2)",
        "queue full: 2 job(s) pending (max_queue_depth=2)",
        "invalid job spec: engine 'vectorized' is single-rank: "
        "workers must be 1",
    ]
    assert depths == [1, 1, 2, 2, 2, 2, 2, 2, 2, 2, 1, 1, 0, 0]
    assert stats["heartbeats"] == 7
    assert stats["scheduler"] == {"depth": 0, "max_queue_depth": 2,
                                  "submitted": 5, "rejected": 3}
    assert stats["results"] == {"rejected": 3, "completed": 2}
    assert list(stats["results"]) == ["rejected", "completed"]


def test_job_ids_carry_on_across_batches():
    g = _graph()
    with JobService(max_queue_depth=1) as svc:
        first = svc.run_batch([
            JobSpec(graph=g, engine="vectorized", workers=1),
            JobSpec(graph=g, engine="vectorized", workers=1),  # full
        ])
        (second,) = svc.run_batch(
            [JobSpec(graph=g, engine="vectorized", workers=1, seed=1)])
        stats = svc.stats()["scheduler"]
    assert [r.job_id for r in first] == [0, 1]
    # each batch has the whole depth bound to itself
    assert second.job_id == 2 and second.ok
    assert stats == {"depth": 0, "max_queue_depth": 1, "submitted": 3,
                     "rejected": 1}


def test_service_keeps_no_finished_job():
    """The service counts outcomes and keeps no result: once the caller
    drops a result, its partition is freed (the LRU-bounded cache is
    the only keeper of partitions, and it is off here)."""
    import gc
    import weakref

    with JobService(cache_entries=0) as svc:
        (r,) = svc.run_batch([JobSpec(graph=_graph(), engine="vectorized",
                                      workers=1)])
        assert r.ok
        modules = weakref.ref(r.modules)
        del r
        gc.collect()
        assert modules() is None
        assert svc.stats()["results"] == {"completed": 1}


def test_invalid_spec_rejected_without_poisoning_batch():
    g = _graph()
    with JobService() as svc:
        results = svc.run_batch(
            [
                JobSpec(graph=g, engine="vectorized", workers=1, seed=0),
                JobSpec(graph=g, engine="vectorized", workers=4),  # invalid
                JobSpec(graph=g, engine="parallel", workers=2, seed=0),
                # a jobs file can put any JSON value in a numeric field:
                # a comparison would raise TypeError, a float cap would
                # fail range() at run time
                JobSpec(graph=g, engine="vectorized", workers=1, tau="x"),
                JobSpec(graph=g, engine="vectorized", workers=1,
                        max_levels=2.5),
                # one line must not fork or simulate without bound; the
                # bound is checked before a random fault plan is drawn
                JobSpec(graph=g, engine="multicore", workers=10**5),
                JobSpec(graph=g, engine="parallel", workers=2**62),
                JobSpec(graph=g, engine="parallel", workers=10**5,
                        fault_plan="random:1:100000"),
                # well typed but unrunnable as asked: numpy's default_rng
                # refuses a negative seed inside the engine, and a plan
                # naming a worker the run lacks would never fire
                JobSpec(graph=g, engine="vectorized", workers=1, seed=-1),
                JobSpec(graph=g, engine="parallel", workers=2,
                        fault_plan="kill@w5:b1"),
            ]
        )
    assert [r.status for r in results] == [
        STATUS_COMPLETED, STATUS_REJECTED, STATUS_COMPLETED,
        STATUS_REJECTED, STATUS_REJECTED,
        STATUS_REJECTED, STATUS_REJECTED, STATUS_REJECTED,
        STATUS_REJECTED, STATUS_REJECTED,
    ]
    assert "single-rank" in results[1].error
    assert "tau" in results[3].error
    assert "max_levels must be an int" in results[4].error
    for r in results[5:8]:
        assert f"workers must be an int in [1, {MAX_WORKERS}]" in r.error
    assert "seed must be an int >= 0" in results[8].error
    assert "names worker 5" in results[9].error


@pytest.mark.parametrize("priority", ["x", None, 1.5])
def test_non_int_priority_is_rejected_not_raised(priority):
    """priority is the scheduler's heap key: a non-int comes back as a
    structured rejection instead of escaping the batch as a TypeError."""
    with JobService() as svc:
        (r,) = svc.run_batch([JobSpec(graph=_graph(), engine="vectorized",
                                      workers=1, priority=priority)])
    assert r.status == STATUS_REJECTED
    assert "priority must be an int" in r.error


_SPEC_VALUES = st.one_of(
    json_values,
    st.sampled_from([[["add", 0, 5, 2.0]], [["remove", 0, 1]]]),  # deltas
)
_TINY_PLANTED = {"communities": 2, "size": 6, "p_in": 0.8, "p_out": 0.1,
                 "seed": 1}


def _complete_without_running(self, spec, result):
    """Stand-in for the engine run: the property is about admission, and
    a drawn worker count would fork that many processes."""
    result.status = STATUS_COMPLETED
    result.modules = np.zeros(spec.graph.num_vertices, dtype=np.int64)
    result.num_modules, result.codelength, result.levels = 1, 0.0, 1


@settings(max_examples=200, deadline=None)
@given(lines=st.lists(
    st.dictionaries(st.sampled_from(_SPEC_KEYS), _SPEC_VALUES),
    min_size=1, max_size=4,
))
def test_any_jobs_line_is_admitted_or_rejected_with_value_error(lines):
    """A jobs line with a valid graph and any JSON value under any spec
    keys loads (``spec_fields_from_json`` → ``JobSpec``) and validates,
    or raises ``ValueError`` — never a ``TypeError`` from a comparison —
    and a batch of such specs comes back as one result per spec."""
    specs = []
    with tempfile.TemporaryDirectory() as tmp:
        for i, fields in enumerate(lines):
            path = os.path.join(tmp, f"{i}.jsonl")
            with open(path, "w") as fh:
                fh.write(json.dumps({"planted": _TINY_PLANTED, **fields}))
            try:  # a malformed delta is a file-level shape error
                (spec,) = load_jobs(path)
            except ValueError:
                continue
            try:
                spec.validate()
            except ValueError:
                pass
            specs.append(spec)
    with mock.patch.object(JobService, "_run_job",
                           _complete_without_running), \
            JobService() as svc:
        results = svc.run_batch(specs)
    assert sorted(r.job_id for r in results) == list(range(len(specs)))
    assert {r.status for r in results} <= {STATUS_COMPLETED,
                                           STATUS_REJECTED}


def test_service_rejects_bad_depth():
    with pytest.raises(ValueError, match="max_queue_depth must be >= 1"):
        JobService(max_queue_depth=0)


# ---------------------------------------------------------------------------
# delta jobs: jobsfile shape errors fail fast, bad values are structured


_DELTA_LINE = ('{"planted": %s, "engine": "vectorized", "workers": 1, '
               '"delta": %s}')


def _delta_jobs_file(tmp_path, delta_json):
    path = tmp_path / "delta-jobs.jsonl"
    planted = ('{"communities": 4, "size": 20, "p_in": 0.45, '
               '"p_out": 0.02, "seed": 7}')
    path.write_text(_DELTA_LINE % (planted, delta_json) + "\n")
    return str(path)


@pytest.mark.parametrize(
    "bad_delta, message",
    [
        ('[]', "non-empty"),
        ('{"add": [0, 1]}', "array"),
        ('[["merge", 0, 1]]', "merge"),
        ('[["add", 0]]', "add"),
        ('[["remove", 0, 1, 2.0]]', "remove"),
        ('[["add", 0.5, 1]]', "integer"),
        ('[["add", 0, 1, "heavy"]]', "number"),
    ],
)
def test_malformed_delta_line_fails_fast_with_line_number(
    tmp_path, bad_delta, message
):
    """Delta *shape* problems are file-level: load_jobs refuses the file
    naming path:lineno, before any job reaches the scheduler."""
    path = _delta_jobs_file(tmp_path, bad_delta)
    with pytest.raises(ValueError) as exc:
        load_jobs(path)
    assert f"{path}:1" in str(exc.value)
    assert message in str(exc.value)


@pytest.mark.parametrize(
    "source, message",
    [
        ('"dataset": "nope"', "unknown dataset 'nope'"),
        ('"edges": {"arcs": [[0, 9223372036854775808]]}',
         "bad 'edges' graph"),
        ('"edges": {"arcs": [[0, 1]], "num_vertices": 9223372036854775808}',
         "bad 'edges' graph"),
        ('"edges": {"arcs": [[0, 1]], "num_vertices": 1000000000000}',
         "bad 'edges' graph"),
        ('"planted": {"communities": 1000000, "size": 1000000, '
         '"p_in": 0.1, "p_out": 0.1}', "bad 'planted' recipe"),
        ('"dataset": "amazon", "accumulator": "reduceat"',
         "unknown key(s) ['accumulator']"),
        ('"dataset": "amazon", "chunk": 4', "unknown key(s) ['chunk']"),
        ('"edge_list": 5', "'edge_list' must be a path string"),
        ('"edges": {"arcs": [[1.9, 2]]}', "integer u and v"),
        ('"edges": {"arcs": [[0, 1]], "directed": "no"}',
         "'directed' must be true or false"),
        ('"edge_list": "g.txt", "directed": "no"',
         "'directed' must be true or false"),
        ('"dataset": ["amazon"]', "'dataset' must be a name string"),
        ('"planted": {"communities": [2], "size": 20, "p_in": 0.45, '
         '"p_out": 0.02}', "'planted' values must be numbers or strings"),
    ],
    ids=["unknown-dataset", "vertex-id-past-int64",
         "num-vertices-past-int64", "num-vertices-unallocatable",
         "planted-unallocatable", "accumulator-key", "chunk-key",
         "edge-list-not-a-path", "float-vertex-id",
         "edges-directed-not-bool", "edge-list-directed-not-bool",
         "dataset-not-a-string", "planted-list-value"],
)
def test_bad_jobs_line_fails_with_line_number(tmp_path, source, message):
    """A graph source that cannot be built, or a key JobSpec does not
    have, is a file-level ValueError naming path:lineno."""
    path = tmp_path / "jobs.jsonl"
    path.write_text(
        "# one bad line\n"
        '{%s, "engine": "vectorized", "workers": 1}\n' % source
    )
    with pytest.raises(ValueError) as exc:
        load_jobs(str(path))
    assert f"{path}:2" in str(exc.value)
    assert message in str(exc.value)


@pytest.mark.parametrize("raw", [
    b"\xff",
    b'{"id": "a\xc3("}',
    b"[" * 5000,
], ids=["lone-ff", "bad-continuation-byte", "nested-past-parser-depth"])
def test_undecodable_jobs_line_fails_with_line_number(tmp_path, raw):
    """A line that is not UTF-8, or nests deeper than the JSON parser
    goes, is a ValueError naming path:lineno like any other bad line."""
    path = tmp_path / "jobs.jsonl"
    path.write_bytes(b"# one bad line\n" + raw + b"\n")
    with pytest.raises(ValueError) as exc:
        load_jobs(str(path))
    assert str(exc.value).startswith(f"{path}:2: not ")


def test_wellformed_delta_line_parses_into_spec(tmp_path):
    from repro.service.delta import Delta

    path = _delta_jobs_file(
        tmp_path, '[["add", 0, 5, 2.0], ["remove", 3, 4]]'
    )
    (spec,) = load_jobs(path)
    assert isinstance(spec.delta, Delta)
    assert spec.delta.ops == (("add", 0, 5, 2.0), ("remove", 3, 4))
    assert spec.base_key is None


def test_delta_value_problems_rejected_at_admission():
    """Op *values* (vertex range, weight sign, base_key without delta)
    are admission control's business: structured rejections, no raise,
    and the rest of the batch runs."""
    from repro.service.delta import Delta

    g = _graph()
    out_of_range = Delta.from_json([["add", 0, g.num_vertices + 5]])
    with JobService() as svc:
        results = svc.run_batch(
            [
                JobSpec(graph=g, engine="vectorized", workers=1,
                        delta=out_of_range),
                JobSpec(graph=g, engine="vectorized", workers=1,
                        base_key="orphan"),  # base_key without delta
                JobSpec(graph=g, engine="vectorized", workers=1, seed=0),
            ]
        )
    assert [r.status for r in results] == [
        STATUS_REJECTED, STATUS_REJECTED, STATUS_COMPLETED
    ]
    assert "out of range" in results[0].error
    assert "base_key" in results[1].error


@pytest.mark.parametrize("literal", ["NaN", "Infinity", "-Infinity"])
def test_non_finite_delta_weight_is_rejected_not_failed(literal):
    """JSON decodes NaN and Infinity, and ``NaN <= 0`` is false: such a
    weight must be refused at admission, never reach the engine."""
    from repro.service.delta import Delta

    g = _graph()
    delta = Delta.from_json(json.loads(f'[["add", 0, 1, {literal}]]'))
    with JobService(cache_entries=8) as svc:
        (r, after) = svc.run_batch([
            JobSpec(graph=g, engine="vectorized", workers=1, delta=delta),
            JobSpec(graph=g, engine="vectorized", workers=1, seed=0),
        ])
    assert r.status == STATUS_REJECTED
    assert "finite and positive" in r.error
    assert after.ok, after.error


def test_unknown_base_key_is_structured_rejection():
    """An explicit base_key that misses the cache cannot be detected at
    admission (the cache may warm later in the batch) — it becomes a
    structured rejected result at execution time, nothing raises."""
    from repro.service.delta import Delta

    g = _graph()
    delta = Delta.from_json([["add", 0, 5]])
    with JobService(cache_entries=8) as svc:
        (r,) = svc.run_batch(
            [JobSpec(graph=g, engine="vectorized", workers=1,
                     delta=delta, base_key="no-such-key")]
        )
        (after,) = svc.run_batch(
            [JobSpec(graph=g, engine="vectorized", workers=1, seed=0)]
        )
    assert r.status == STATUS_REJECTED
    assert "no-such-key" in r.error and "base_key" in r.error
    assert r.modules is None
    assert after.ok, "a rejected delta job must not poison the service"


def test_delta_job_without_cached_base_falls_back_to_full_rerun():
    """No pinned base_key and a cold cache: the delta job still
    completes — warm_refresh runs from scratch and says so."""
    from repro.service.delta import Delta

    g = _graph()
    delta = Delta.from_json([["add", 0, 5]])
    with JobService(cache_entries=8) as svc:
        (r,) = svc.run_batch(
            [JobSpec(graph=g, engine="vectorized", workers=1, seed=2,
                     delta=delta)]
        )
    assert r.ok, r.error
    assert r.full_rerun
    assert r.touched_vertices == g.num_vertices


def test_delta_job_warm_starts_from_derived_base():
    """With the base partition cached under the spec-minus-delta key,
    the delta job warm-starts: touched < V and the refresh is warm."""
    from repro.service.delta import Delta

    g = _graph()
    delta = Delta.from_json([["add", 0, 5]])
    base = JobSpec(graph=g, engine="vectorized", workers=1, seed=2)
    job = JobSpec(graph=g, engine="vectorized", workers=1, seed=2,
                  delta=delta)
    with JobService(cache_entries=8) as svc:
        (b,) = svc.run_batch([base])
        (r,) = svc.run_batch([job])
    assert b.ok and r.ok
    assert not r.full_rerun
    assert 0 < r.touched_vertices < g.num_vertices


def test_delta_remove_absent_edge_is_structured_failure():
    from repro.service.delta import Delta

    g = _graph()
    # vertex pair guaranteed absent: planted graphs have no self-loops
    delta = Delta.from_json([["remove", 0, 0]])
    with JobService(cache_entries=0) as svc:
        (r,) = svc.run_batch(
            [JobSpec(graph=g, engine="vectorized", workers=1,
                     delta=delta)]
        )
    assert r.status == STATUS_FAILED
    assert "absent edge" in r.error


def test_delta_job_ledger_row_carries_refresh_telemetry():
    """Delta service rows add delta/base_key config keys and the
    touched/full_rerun telemetry; plain rows keep their historical
    shape (and hence run_keys)."""
    from repro.obs.ledger import Ledger, scoped_ledger
    from repro.service.delta import Delta

    import tempfile
    from pathlib import Path

    g = _graph()
    delta = Delta.from_json([["add", 0, 5]])
    with tempfile.TemporaryDirectory() as td:
        path = Path(td) / "runs.jsonl"
        with scoped_ledger(path):
            with JobService(cache_entries=8) as svc:
                svc.run_batch([
                    JobSpec(graph=g, engine="vectorized", workers=1,
                            seed=2),
                    JobSpec(graph=g, engine="vectorized", workers=1,
                            seed=2, delta=delta),
                ])
        led = Ledger(path)
        assert led.validate() == []
        plain, deltarow = [r for r in led.read() if r["kind"] == "service"]
        assert "delta" not in plain["config"]
        assert "touched_vertices" not in plain["telemetry"]
        assert deltarow["config"]["delta"] == delta.digest()
        assert deltarow["telemetry"]["full_rerun"] is False
        assert deltarow["telemetry"]["touched_vertices"] > 0
        assert plain["run_key"] != deltarow["run_key"]


# ---------------------------------------------------------------------------
# service lifecycle


def test_closed_service_refuses_work():
    svc = JobService()
    svc.close()
    svc.close()  # idempotent
    with pytest.raises(RuntimeError):
        svc.run_batch([JobSpec(graph=_graph())])


def test_service_close_releases_all_pools_and_segments():
    g = _graph()
    svc = JobService(cache_entries=0)
    svc.run_batch(
        [
            JobSpec(graph=g, workers=2, seed=0),
            JobSpec(graph=g, workers=1, seed=0),
        ]
    )
    assert svc.pools.worker_counts() == [1, 2]
    svc.close()
    assert len(svc.pools) == 0
    if arena.shm_dir_available():
        assert arena.live_segments(arena.segment_prefix()) == []


def test_stats_shape():
    with JobService() as svc:
        svc.run_batch([JobSpec(graph=_graph(), engine="vectorized",
                               workers=1)])
        stats = svc.stats()
    assert stats["results"] == {"completed": 1}
    assert set(stats) == {"scheduler", "cache", "pools", "results",
                          "heartbeats"}
    json.dumps(stats)  # the snapshot must stay JSON-serializable


def test_heartbeat_gauges_flushed_during_batch():
    """With heartbeat_interval=0 every admission and finished job flushes
    the liveness gauges, so a --metrics-out snapshot taken after a batch
    carries them (the docs/observability.md catalog names)."""
    from repro.obs.metrics import scoped_registry

    with scoped_registry() as reg:
        with JobService(cache_entries=8, heartbeat_interval=0.0) as svc:
            svc.run_batch([
                JobSpec(graph=_graph(), engine="vectorized", workers=1),
                JobSpec(graph=_graph(), engine="vectorized", workers=1),
            ])
            assert svc.stats()["heartbeats"] >= 2
        names = reg.names()
    for gauge in ("service.uptime_seconds", "service.queue.depth",
                  "service.pool.pools", "service.pool.workers",
                  "service.cache.size"):
        assert gauge in names, gauge
    assert reg.get_value("service.heartbeats") >= 2
    assert reg.get_value("service.queue.depth") == 0  # drained


def test_heartbeat_off_by_default_and_negative_rejected():
    with JobService() as svc:
        svc.run_batch([JobSpec(graph=_graph(), engine="vectorized",
                               workers=1)])
        assert svc.stats()["heartbeats"] == 0
    with pytest.raises(ValueError, match="heartbeat"):
        JobService(heartbeat_interval=-1.0)


def test_service_ledger_records_per_job():
    """An armed ledger receives one schema-valid record per executed
    job, keyed by the job's result-determining config — a repeat job
    shares the run_key and is marked as the cache hit it was."""
    from repro.obs.ledger import Ledger, scoped_ledger

    import tempfile
    from pathlib import Path

    with tempfile.TemporaryDirectory() as td:
        path = Path(td) / "runs.jsonl"
        spec = JobSpec(graph=_graph(), engine="vectorized", workers=1,
                       seed=4, label="ledgered")
        with scoped_ledger(path):
            with JobService(cache_entries=8) as svc:
                svc.run_batch([spec, spec])
        led = Ledger(path)
        assert led.validate() == []
        first, second = led.read()
        assert first["kind"] == second["kind"] == "service"
        assert first["run_key"] == second["run_key"]
        assert first["label"] == "ledgered"
        assert first["telemetry"]["codelength"] == \
            second["telemetry"]["codelength"]
        assert first["perf"]["cache_hit"] is False
        assert second["perf"]["cache_hit"] is True
        assert first["config"]["engine"] == "vectorized"
        assert "graph" in first["config"]


# ---------------------------------------------------------------------------
# CLI spelling: repro submit builds the jobs file, repro serve drains it


_PLANTED = ('{"communities": 4, "size": 20, "p_in": 0.45, '
            '"p_out": 0.02, "seed": 7}')


def test_cli_submit_then_serve_roundtrip(tmp_path, capsys):
    from repro.cli import main

    jobs = str(tmp_path / "jobs.jsonl")
    out = str(tmp_path / "results.json")
    assert main(["submit", "--jobs", jobs, "--planted", _PLANTED,
                 "--engine", "parallel", "--workers", "2",
                 "--seed", "0", "--label", "a"]) == 0
    assert main(["submit", "--jobs", jobs, "--planted", _PLANTED,
                 "--engine", "parallel", "--workers", "2",
                 "--seed", "0", "--label", "b", "--priority", "2"]) == 0
    assert main(["submit", "--jobs", jobs, "--planted", _PLANTED,
                 "--engine", "vectorized", "--workers", "1",
                 "--seed", "1", "--no-cache"]) == 0
    assert len(load_jobs(jobs)) == 3

    assert main(["serve", "--jobs", jobs, "--json-out", out]) == 0
    text = capsys.readouterr().out
    assert "cache" in text  # job 0 repeated job 1's content -> cache hit
    with open(out) as fh:
        payload = json.load(fh)
    assert [r["status"] for r in payload["results"]] == ["completed"] * 3
    assert payload["results"][0]["cache_hit"]  # priority ran b first
    assert payload["stats"]["cache"]["hits"] == 1
    if arena.shm_dir_available():
        assert arena.live_segments(arena.segment_prefix()) == []


def test_cli_serve_rejects_malformed_file(tmp_path, capsys):
    from repro.cli import main

    bad = tmp_path / "bad.jsonl"
    bad.write_text('{"dataset": "amazon", "bogus_key": 1}\n')
    assert main(["serve", "--jobs", str(bad)]) == 1
    assert "bogus_key" in capsys.readouterr().err

    missing = tmp_path / "nope.jsonl"
    assert main(["serve", "--jobs", str(missing)]) == 1


@pytest.mark.parametrize("command", ["run", "submit"])
def test_cli_has_no_accumulator_flag(tmp_path, capsys, command):
    from repro.cli import main

    source = (["--edge-list", str(tmp_path / "g.txt")] if command == "run"
              else ["--jobs", str(tmp_path / "j.jsonl"),
                    "--planted", _PLANTED])
    with pytest.raises(SystemExit) as exc:
        main([command, *source, "--accumulator", "reduceat"])
    assert exc.value.code == 2
    assert "unrecognized arguments: --accumulator" in capsys.readouterr().err


def test_cli_submit_delta_then_serve_roundtrip(tmp_path, capsys):
    """A one-shot --delta job appends a well-formed delta line and the
    service drains it warm-started from the base job's cached result."""
    from repro.cli import main

    jobs = str(tmp_path / "jobs.jsonl")
    out = str(tmp_path / "results.json")
    assert main(["submit", "--jobs", jobs, "--planted", _PLANTED,
                 "--engine", "vectorized", "--workers", "1",
                 "--seed", "0"]) == 0
    assert main(["submit", "--jobs", jobs, "--planted", _PLANTED,
                 "--engine", "vectorized", "--workers", "1", "--seed", "0",
                 "--delta", '[["add", 0, 5, 1.0]]']) == 0
    specs = load_jobs(jobs)
    assert specs[0].delta is None and specs[1].delta is not None

    assert main(["serve", "--jobs", jobs, "--json-out", out]) == 0
    with open(out) as fh:
        payload = json.load(fh)
    base_row, delta_row = payload["results"]
    assert [base_row["status"], delta_row["status"]] == ["completed"] * 2
    assert not delta_row["full_rerun"], "delta job should warm-start"
    assert 0 < delta_row["touched_vertices"] < 80


def test_cli_submit_delta_session_streams_cumulative_jobs(tmp_path):
    """--delta-session appends the base job plus one cumulative delta
    job per session line, so job k stands alone against the base."""
    from repro.cli import main

    session = tmp_path / "updates.jsonl"
    session.write_text(
        '[["add", 0, 21, 2.0]]\n'
        '\n'
        '# comment lines and blanks are skipped\n'
        '[["add", 1, 22], ["add", 2, 23]]\n'
    )
    jobs = str(tmp_path / "jobs.jsonl")
    assert main(["submit", "--jobs", jobs, "--planted", _PLANTED,
                 "--engine", "vectorized", "--workers", "1", "--seed", "0",
                 "--delta-session", str(session)]) == 0
    specs = load_jobs(jobs)
    assert len(specs) == 3
    assert specs[0].delta is None
    assert len(specs[1].delta.ops) == 1
    assert len(specs[2].delta.ops) == 3  # cumulative: line 1 + line 2
    assert specs[2].delta.ops[0] == ("add", 0, 21, 2.0)


def test_cli_submit_delta_rejects_bad_input(tmp_path, capsys):
    from repro.cli import main

    jobs = str(tmp_path / "jobs.jsonl")
    assert main(["submit", "--jobs", jobs, "--planted", _PLANTED,
                 "--delta", "not json"]) == 1
    assert "not JSON" in capsys.readouterr().err
    # malformed op shape bounces through the jobsfile validator
    assert main(["submit", "--jobs", jobs, "--planted", _PLANTED,
                 "--delta", '[["merge", 0, 1]]']) == 1
    assert "merge" in capsys.readouterr().err
    # --base-key without a delta is meaningless
    assert main(["submit", "--jobs", jobs, "--planted", _PLANTED,
                 "--base-key", "abc"]) == 1
    assert "base-key" in capsys.readouterr().err
    # a bad session line names its file:line coordinate
    session = tmp_path / "bad-session.jsonl"
    session.write_text('[["add", 0, 1]]\nnot json\n')
    assert main(["submit", "--jobs", jobs, "--planted", _PLANTED,
                 "--delta-session", str(session)]) == 1
    assert f"{session}:2" in capsys.readouterr().err
    # nothing was appended by any failed submit
    import os
    assert not os.path.exists(jobs)


@pytest.mark.parametrize("flag, value, message", [
    ("--max-queue-depth", "0", "max_queue_depth must be >= 1"),
    ("--heartbeat", "-1", "heartbeat_interval must be >= 0"),
    # NaN passes ``< 0`` and would silently flush no heartbeat at all
    ("--heartbeat", "nan", "heartbeat_interval must be >= 0"),
])
def test_cli_serve_bad_service_flag_is_usage_error(tmp_path, capsys, flag,
                                                   value, message):
    from repro.cli import main

    jobs = tmp_path / "jobs.jsonl"
    jobs.write_text(
        json.dumps({"planted": json.loads(_PLANTED),
                    "engine": "vectorized", "workers": 1}) + "\n"
    )
    assert main(["serve", "--jobs", str(jobs), flag, value]) == 2
    err = capsys.readouterr().err
    assert err.startswith("serve: ") and message in err
    assert "Traceback" not in err


def test_cli_serve_exit_code_reflects_failed_jobs(tmp_path):
    from repro.cli import main

    jobs = tmp_path / "jobs.jsonl"
    jobs.write_text(
        json.dumps({"planted": json.loads(_PLANTED),
                    "engine": "vectorized", "workers": 2}) + "\n"
    )
    assert main(["serve", "--jobs", str(jobs)]) == 1  # rejected job
