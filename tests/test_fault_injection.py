"""Chaos suite: injected worker faults must recover deterministically.

The supervisor in :mod:`repro.core.parallel` promises that a worker
which dies, hangs, straggles, or corrupts its reply is respawned and
its barrier replayed **without changing the result**: the recovered
partition and codelength are bit-identical to the fault-free
``parallel(workers=k)`` run at the same seed.

This file proves that promise exhaustively:

* ``kill`` and ``hang`` at **every barrier index** of every conformance
  graph family (undirected / directed / weighted / pathological);
* ``corrupt`` and ``slow`` at representative barriers, including a
  deadline shorter than the straggle (a false-positive stall detection
  must be just as harmless as a true one);
* multi-fault plans hitting both workers;
* plus the unit layer: :class:`repro.core.faults.FaultPlan` parsing /
  printing round-trips, seeded :meth:`FaultPlan.random` determinism,
  and the injector's one-shot arming semantics.

Every parallel-engine test here spawns real worker processes; the graph
families are small (~80 vertices) so the grid stays fast.  Reproduce
any cell locally with the CLI::

    python -m repro run --dataset amazon --engine parallel --workers 2 \
        --fault-plan "kill@w0:b1" --worker-timeout 5
"""

import numpy as np
import pytest

from repro.core.faults import (
    FAULT_KINDS,
    SLOW_SECONDS,
    FaultInjector,
    FaultPlan,
    FaultSpec,
)
from repro.core.parallel import run_infomap_parallel

from tests.test_engine_conformance import FAMILIES

WORKERS = 2
SEED = 3
#: reply deadline for chaos runs: tiny graphs answer in milliseconds, so
#: this is a wide margin — and a slow-host false positive only costs a
#: respawn, never correctness (that's the property under test)
TIMEOUT = 0.4

_BASELINES: dict[str, tuple] = {}


def _baseline(family):
    """Graph, fault-free run, and its barrier count (cached per family)."""
    if family not in _BASELINES:
        g, _ = FAMILIES[family](SEED)
        r = run_infomap_parallel(g, workers=WORKERS, seed=SEED)
        _BASELINES[family] = (g, r, sum(p.rounds for p in r.passes))
    return _BASELINES[family]


def _assert_recovered(r, base, cell):
    __tracebackhide__ = True
    assert np.array_equal(r.modules, base.modules), cell
    assert r.codelength == base.codelength, cell
    assert r.num_modules == base.num_modules, cell
    assert r.levels == base.levels, cell


# ---------------------------------------------------------------------------
# the injection grid: kill/hang at every barrier of every family


@pytest.mark.parametrize("family", sorted(FAMILIES))
def test_kill_recovers_bit_identical_at_every_barrier(family):
    g, base, barriers = _baseline(family)
    assert barriers >= 2, "family too trivial to exercise recovery"
    for barrier in range(barriers):
        plan = FaultPlan(
            (FaultSpec("kill", worker=barrier % WORKERS, barrier=barrier),)
        )
        r = run_infomap_parallel(
            g, workers=WORKERS, seed=SEED,
            fault_plan=plan, worker_timeout=TIMEOUT,
        )
        _assert_recovered(r, base, (family, "kill", barrier))
        fired = sum(r.faults_injected.values())
        # a barrier where that worker's shard was empty leaves the fault
        # unfired — then (and only then) no respawn is expected
        assert r.respawns >= fired, (family, barrier, r.faults_detected)


@pytest.mark.parametrize("family", sorted(FAMILIES))
def test_hang_recovers_bit_identical_at_every_barrier(family):
    g, base, barriers = _baseline(family)
    for barrier in range(barriers):
        plan = FaultPlan(
            (FaultSpec("hang", worker=barrier % WORKERS, barrier=barrier),)
        )
        r = run_infomap_parallel(
            g, workers=WORKERS, seed=SEED,
            fault_plan=plan, worker_timeout=TIMEOUT,
        )
        _assert_recovered(r, base, (family, "hang", barrier))
        assert r.respawns >= sum(r.faults_injected.values())


@pytest.mark.parametrize("family", sorted(FAMILIES))
@pytest.mark.parametrize("kind", ["corrupt", "slow"])
def test_corrupt_and_slow_recover_bit_identical(kind, family):
    g, base, barriers = _baseline(family)
    for barrier in (0, barriers // 2):
        plan = FaultPlan(
            (FaultSpec(kind, worker=barrier % WORKERS, barrier=barrier),)
        )
        # deadline wider than the straggle: slow must be *tolerated*
        r = run_infomap_parallel(
            g, workers=WORKERS, seed=SEED,
            fault_plan=plan, worker_timeout=SLOW_SECONDS * 4,
        )
        _assert_recovered(r, base, (family, kind, barrier))
        if kind == "corrupt":
            assert r.respawns >= sum(r.faults_injected.values())
        else:
            assert r.respawns == 0, "tolerated straggler must not respawn"


def test_slow_killed_by_tight_deadline_still_bit_identical():
    # deadline *shorter* than the straggle: the supervisor treats the
    # straggler as hung and respawns it — a false-positive stall
    # detection must be exactly as harmless as a true one
    g, base, _ = _baseline("undirected")
    r = run_infomap_parallel(
        g, workers=WORKERS, seed=SEED,
        fault_plan=FaultPlan((FaultSpec("slow", worker=0, barrier=0),)),
        worker_timeout=SLOW_SECONDS / 2,
    )
    _assert_recovered(r, base, ("undirected", "slow+tight", 0))
    assert r.respawns >= 1
    assert r.faults_detected.get("stalled", 0) >= 1


def test_multi_fault_plan_hits_both_workers():
    g, base, barriers = _baseline("undirected")
    plan = FaultPlan((
        FaultSpec("kill", worker=0, barrier=0),
        FaultSpec("kill", worker=1, barrier=1),
        FaultSpec("corrupt", worker=0, barrier=min(2, barriers - 1)),
    ))
    r = run_infomap_parallel(
        g, workers=WORKERS, seed=SEED,
        fault_plan=plan, worker_timeout=TIMEOUT,
    )
    _assert_recovered(r, base, ("undirected", "multi", plan))
    assert sum(r.faults_injected.values()) == 3
    assert r.respawns == 3


def test_fault_on_single_worker_pool():
    # workers=1: the whole shard is one worker; killing it must still
    # recover (there is no healthy peer to hide behind)
    g, _ = FAMILIES["undirected"](SEED)
    base = run_infomap_parallel(g, workers=1, seed=SEED)
    r = run_infomap_parallel(
        g, workers=1, seed=SEED,
        fault_plan="kill@w0:b0", worker_timeout=TIMEOUT,
    )
    _assert_recovered(r, base, ("undirected", "kill", "1-worker"))
    assert r.respawns == 1


def test_unreached_barrier_leaves_fault_unfired():
    g, base, barriers = _baseline("undirected")
    r = run_infomap_parallel(
        g, workers=WORKERS, seed=SEED,
        fault_plan=FaultPlan(
            (FaultSpec("kill", worker=0, barrier=barriers + 100),)
        ),
        worker_timeout=TIMEOUT,
    )
    _assert_recovered(r, base, ("undirected", "unreached", barriers + 100))
    assert r.respawns == 0
    assert sum(r.faults_injected.values()) == 0


def test_level_scoped_fault_only_fires_on_that_level():
    # barrier 0 is always level 0, so scoping the same barrier to level 1
    # must leave the fault unfired
    g, base, _ = _baseline("undirected")
    r = run_infomap_parallel(
        g, workers=WORKERS, seed=SEED,
        fault_plan=FaultPlan(
            (FaultSpec("kill", worker=0, barrier=0, level=1),)
        ),
        worker_timeout=TIMEOUT,
    )
    _assert_recovered(r, base, ("undirected", "level-scoped", 0))
    assert sum(r.faults_injected.values()) == 0


def test_string_plan_accepted_by_entry_points():
    from repro.core.infomap import run_infomap

    g, base, _ = _baseline("undirected")
    r = run_infomap(
        g, engine="parallel", workers=WORKERS, shuffle_seed=SEED,
        fault_plan="kill@w1:b1", worker_timeout=TIMEOUT,
    )
    _assert_recovered(r, base, ("undirected", "string-plan", 1))
    with pytest.raises(ValueError, match="parallel"):
        run_infomap(g, engine="vectorized", fault_plan="kill@w0:b0")
    with pytest.raises(ValueError, match="parallel"):
        run_infomap(g, engine="sequential", worker_timeout=1.0)


def test_bad_worker_timeout_rejected():
    g, _ = FAMILIES["undirected"](SEED)
    with pytest.raises(ValueError, match="worker_timeout"):
        run_infomap_parallel(g, workers=2, worker_timeout=0.0)


# ---------------------------------------------------------------------------
# unit layer: FaultPlan / FaultInjector semantics (no processes involved)


def test_plan_parse_roundtrip():
    plan = FaultPlan.parse("kill@w0:b1,hang@w1:b3:l2, slow@w2:b0",
                           workers=3)
    assert plan.specs == (
        FaultSpec("kill", 0, 1),
        FaultSpec("hang", 1, 3, level=2),
        FaultSpec("slow", 2, 0),
    )
    assert FaultPlan.parse(str(plan), workers=3) == plan


@pytest.mark.parametrize("text", [
    "", "explode@w0:b1", "kill@0:1", "kill@w0", "kill@w0:b-1",
    "random:", "random:x", "random:1:2:3",
    "kill@w2:b0",  # names a worker the default 2-worker run lacks
])
def test_plan_parse_rejects_bad_spellings(text):
    with pytest.raises(ValueError):
        FaultPlan.parse(text)


def test_bad_spec_values_rejected():
    with pytest.raises(ValueError, match="kind"):
        FaultSpec("explode", 0, 0)
    with pytest.raises(ValueError):
        FaultSpec("kill", -1, 0)
    with pytest.raises(ValueError):
        FaultSpec("kill", 0, 0, level=-2)


def test_random_plan_is_seed_deterministic():
    a = FaultPlan.random(seed=11, workers=3, faults=4)
    b = FaultPlan.random(seed=11, workers=3, faults=4)
    assert a == b
    assert a.seed == 11
    assert len(a) == 4
    assert len({(s.worker, s.barrier) for s in a.specs}) == 4  # distinct cells
    for s in a.specs:
        assert s.kind in FAULT_KINDS
        assert 0 <= s.worker < 3
    # the random:SEED:N CLI spelling resolves to the same plan
    assert FaultPlan.parse("random:11:4", workers=3) == a


def test_injector_is_one_shot_and_level_aware():
    plan = FaultPlan((
        FaultSpec("kill", 0, 2),
        FaultSpec("hang", 1, 2, level=1),
    ))
    inj = FaultInjector(plan)
    assert inj.pop(0, 1, 0) is None          # wrong barrier
    assert inj.pop(1, 2, 0) is None          # level-scoped, wrong level
    assert inj.pop(0, 2, 0).kind == "kill"   # fires once...
    assert inj.pop(0, 2, 0) is None          # ...and never again
    assert inj.pop(1, 2, 1).kind == "hang"   # level matches now
    assert inj.injected == {"kill": 1, "hang": 1}
    assert inj.total_injected == 2


# ---------------------------------------------------------------------------
# round accounting: one propose round per pass, one state write per round


def test_round_accounting_and_dirty_state_skip():
    """``rounds`` counts barriers; every round writes the snapshot once.

    Each pass is one propose round over each worker's whole order, and
    every round follows a fresh arena or an accepted commit (a pass
    that moves nothing ends its level), so there is no unchanged
    snapshot to skip: ``state_writes`` equals ``rounds``.
    """
    g, _ = FAMILIES["undirected"](SEED)
    r = run_infomap_parallel(g, workers=WORKERS, seed=SEED)
    assert all(p.rounds == 1 for p in r.passes)
    assert r.rounds == sum(p.rounds for p in r.passes) == r.state_writes
