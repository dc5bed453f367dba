"""One option check: every engine option is judged by one rule on every path.

``repro.core.infomap`` holds the engine-option contract: which engine
takes which option (``ENGINE_OPTIONS``), the rule each value must meet
(``OPTION_RULES``) and ``check_engine_options``, which applies both.
Every entry point — ``run_infomap``, the engines' own entry functions,
the warm refresh, trace recording, ``JobSpec.validate`` and ``repro
run`` — rejects a bad value through it before any work starts.  This
suite pins that:

* an **agreement property**: for every BSP engine and any drawn option
  values, ``JobSpec.validate`` raises ``ValueError`` exactly when
  ``run_infomap`` does, and ``run_infomap`` raises nothing else;
* **no work before the verdict**: with the engine runners, PageRank and
  the worker pool replaced by booby traps, a rejected call never
  reaches one of them (so no drawn worker count starts a process);
* **one rule per option**: a source scan finds no second copy of a
  bound on an engine option outside ``core/infomap.py``.
"""

import ast
import importlib
import math
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.asa.trace import record_trace
from repro.cli import _validate_run_args, build_parser
from repro.core.distributed import run_infomap_distributed
from repro.core.dynamic import DynamicCommunities, warm_refresh
from repro.core.faults import FaultPlan, FaultSpec
from repro.core.hierarchy import run_infomap_hierarchical
from repro.core.infomap import BSP_ENGINES, MAX_WORKERS, run_infomap
from repro.core.multicore import run_infomap_multicore
from repro.core.parallel import run_infomap_parallel
from repro.core.vectorized import run_infomap_vectorized
from repro.graph.generators import planted_partition
from repro.service.jobs import JobSpec
from repro.service.pool import PoolManager

GRAPH, TRUTH = planted_partition(3, 10, 0.5, 0.05, seed=1)


class _Ran(Exception):
    """Raised by a booby trap: the call got past the option check."""


def _trap(calls):
    def trap(*args, **kwargs):
        calls.append(kwargs)
        raise _Ran

    return trap


#: the engine runners ``run_infomap`` dispatches to
_RUNNERS = (
    ("repro.core.vectorized", "run_infomap_vectorized"),
    ("repro.core.multicore", "run_infomap_multicore"),
    ("repro.core.parallel", "run_infomap_parallel"),
)
#: the first work any entry point does: PageRank or forking workers
_WORK = (
    ("repro.core.flow", "FlowNetwork.from_graph"),
    ("repro.core.parallel", "_WorkerPool"),
    ("repro.service.pool", "_WorkerPool"),
)


def _arm(mp, targets, calls):
    for module, attr in targets:
        owner = importlib.import_module(module)
        *path, name = attr.split(".")
        for part in path:
            owner = getattr(owner, part)
        mp.setattr(owner, name, _trap(calls))


@pytest.fixture
def runners_trapped(monkeypatch):
    calls: list = []
    _arm(monkeypatch, _RUNNERS, calls)
    return calls


@pytest.fixture
def work_trapped(monkeypatch):
    calls: list = []
    _arm(monkeypatch, _WORK, calls)
    return calls


# ---------------------------------------------------------------------------
# agreement: JobSpec.validate raises iff run_infomap does


#: values drawn for every option a JobSpec carries
_VALUES = st.sampled_from([
    None, True, False, 0, -1, 1, 2, 3, 65, 2 ** 70,
    0.0, 1.0, 0.5, 2.5, math.nan, math.inf, -math.inf,
    "x", "2", "", [], {},
    "kill@w0:b1", "hang@w1:b2:l0", "random:1:2", "random:x", "bogus@w0",
    FaultPlan.parse("kill@w0:b1"),
])

#: what ``run_infomap`` reads ``None`` as for the options whose ``None``
#: means the chosen engine's default; a JobSpec always holds the value
_ENGINE_DEFAULTS = {
    "vectorized": {"workers": 1, "seed": 0, "max_passes_per_level": 30},
    "multicore": {"workers": 2, "seed": 0, "max_passes_per_level": 10},
    "parallel": {"workers": 2, "seed": 0, "max_passes_per_level": 10},
}

_SPEC_OPTIONS = ("workers", "seed", "tau", "max_levels",
                 "max_passes_per_level", "deadline", "fault_plan",
                 "worker_timeout")


@settings(max_examples=300, deadline=None)
@given(engine=st.sampled_from(BSP_ENGINES),
       values=st.fixed_dictionaries({k: _VALUES for k in _SPEC_OPTIONS}))
def test_jobspec_and_run_infomap_agree(engine, values):
    spec_values = {
        k: _ENGINE_DEFAULTS[engine][k] if v is None
        and k in _ENGINE_DEFAULTS[engine] else v
        for k, v in values.items()
    }
    try:
        JobSpec(graph=GRAPH, engine=engine, **spec_values).validate()
        spec_rejects = False
    except ValueError:
        spec_rejects = True

    kwargs = dict(values)
    kwargs["shuffle_seed"] = kwargs.pop("seed")
    calls: list = []
    with pytest.MonkeyPatch.context() as mp:
        _arm(mp, _RUNNERS, calls)
        try:
            run_infomap(GRAPH, engine=engine, **kwargs)
        except _Ran:
            run_rejects = False
        except ValueError:
            run_rejects = True
    assert spec_rejects == run_rejects, (engine, values)
    assert len(calls) == (0 if run_rejects else 1)


# ---------------------------------------------------------------------------
# every entry point rejects before any work


#: every entry point that takes ``tau`` and the level / pass caps
_ENTRY_POINTS = {
    **{f"run_infomap[{e}]": lambda e=e, **kw: run_infomap(
        GRAPH, engine=e, **kw) for e in ("sequential", *BSP_ENGINES)},
    "run_infomap_vectorized": lambda **kw: run_infomap_vectorized(
        GRAPH, **kw),
    "run_infomap_multicore": lambda **kw: run_infomap_multicore(
        GRAPH, num_cores=1, **kw),
    "run_infomap_parallel": lambda **kw: run_infomap_parallel(
        GRAPH, workers=1, **kw),
    "run_infomap_distributed": lambda **kw: run_infomap_distributed(
        GRAPH, num_ranks=1, **kw),
    "warm_refresh": lambda **kw: warm_refresh(GRAPH, TRUTH, [0], **kw),
    "record_trace": lambda **kw: record_trace(GRAPH, **kw),
}


@pytest.mark.parametrize("option, value", [
    ("tau", 0.0), ("tau", 1.0), ("tau", math.nan), ("tau", "0.15"),
    ("max_levels", 0), ("max_levels", True), ("max_levels", 2.0),
    ("max_passes_per_level", 0),
])
@pytest.mark.parametrize("entry", sorted(_ENTRY_POINTS))
def test_bad_value_rejected_before_any_work(entry, option, value,
                                            work_trapped, runners_trapped):
    with pytest.raises(ValueError, match=option):
        _ENTRY_POINTS[entry](**{option: value})
    assert work_trapped == [] and runners_trapped == []


@pytest.mark.parametrize("call", [
    lambda: run_infomap(GRAPH, engine="vectorized", shuffle_seed=True),
    lambda: run_infomap(GRAPH, engine="vectorized", shuffle_seed=2.5),
    lambda: run_infomap(GRAPH, engine="vectorized", shuffle_seed=-1),
    lambda: run_infomap_vectorized(GRAPH, seed=2.5),
    lambda: run_infomap_vectorized(GRAPH, seed=-1),
    lambda: run_infomap_hierarchical(GRAPH, tau=0.0),
    lambda: DynamicCommunities(4, tau=1.0),
    lambda: DynamicCommunities(4, seed="0"),
    lambda: DynamicCommunities(4, seed=-1),
], ids=["run-seed-bool", "run-seed-float", "run-seed-negative",
        "vectorized-seed-float", "vectorized-seed-negative",
        "hierarchy-tau", "dynamic-tau", "dynamic-seed",
        "dynamic-seed-negative"])
def test_seed_and_tau_judged_on_every_path(call, work_trapped):
    with pytest.raises(ValueError, match="seed|tau"):
        call()
    assert work_trapped == []


@pytest.mark.parametrize("engine, kwargs", [
    ("vectorized", {}),
    ("multicore", {"workers": 1}),
    ("parallel", {"workers": 1}),
])
def test_bsp_engines_reject_zero_levels(engine, kwargs):
    """``max_levels=0`` used to return the singletons with a codelength
    2 bits below their map equation on the BSP engines; every engine
    now rejects it, as the sequential engine and admission did."""
    with pytest.raises(ValueError, match="max_levels"):
        run_infomap(GRAPH, engine=engine, max_levels=0, **kwargs)
    direct = {
        "vectorized": lambda: run_infomap_vectorized(GRAPH, max_levels=0),
        "multicore": lambda: run_infomap_multicore(
            GRAPH, num_cores=1, max_levels=0),
        "parallel": lambda: run_infomap_parallel(
            GRAPH, workers=1, max_levels=0),
    }[engine]
    with pytest.raises(ValueError, match="max_levels"):
        direct()


# ---------------------------------------------------------------------------
# a fault plan names only workers the run has: one that never fires
# would read as a passed recovery check


@pytest.mark.parametrize("plan", [
    "kill@w5:b1",
    FaultPlan((FaultSpec("kill", worker=2, barrier=0),)),
], ids=["string", "object"])
def test_fault_plan_worker_bound_judged_before_any_work(plan,
                                                        runners_trapped,
                                                        work_trapped):
    with pytest.raises(ValueError, match="names worker"):
        run_infomap(GRAPH, engine="parallel", workers=2, fault_plan=plan)
    with pytest.raises(ValueError, match="names worker"):
        JobSpec(graph=GRAPH, workers=2, fault_plan=plan).validate()
    assert runners_trapped == [] and work_trapped == []
    # one more worker and the same plan is admitted
    with pytest.raises(_Ran):
        run_infomap(GRAPH, engine="parallel", workers=6, fault_plan=plan)


# ---------------------------------------------------------------------------
# the worker bound guards the library, refreshes and pools, not only
# admission (booby-trapped, so no count here can start a process)


@pytest.mark.parametrize("engine", ["multicore", "parallel"])
def test_warm_refresh_bounds_workers_before_any_runner(engine,
                                                       runners_trapped,
                                                       work_trapped):
    with pytest.raises(ValueError, match=f"workers must be an int in "
                       rf"\[1, {MAX_WORKERS}\]"):
        warm_refresh(GRAPH, TRUTH, [0], engine=engine,
                     workers=MAX_WORKERS + 1)
    assert runners_trapped == [] and work_trapped == []


@pytest.mark.parametrize("engine", ["multicore", "parallel"])
def test_dynamic_communities_bounds_workers_before_any_runner(
        engine, runners_trapped, work_trapped):
    with pytest.raises(ValueError, match="workers must be an int"):
        # rejected at construction, not when a refresh would first run
        dyn = DynamicCommunities(4, engine=engine, workers=MAX_WORKERS + 1)
        dyn.add_edge(0, 1)
        dyn.refresh()
    assert runners_trapped == [] and work_trapped == []


@pytest.mark.parametrize("call", [
    lambda: run_infomap(GRAPH, engine="parallel", workers=MAX_WORKERS + 1),
    lambda: run_infomap_multicore(GRAPH, num_cores=MAX_WORKERS + 1),
    lambda: run_infomap_parallel(GRAPH, workers=10 ** 5),
    lambda: PoolManager().acquire(MAX_WORKERS + 1),
], ids=["run_infomap", "multicore", "parallel", "pool-acquire"])
def test_worker_bound_guards_every_path(call, work_trapped):
    with pytest.raises(ValueError, match="must be an int in"):
        call()
    assert work_trapped == []


def test_distributed_ranks_follow_the_worker_rule():
    with pytest.raises(ValueError, match=r"num_ranks must be an int in"):
        run_infomap_distributed(GRAPH, num_ranks=MAX_WORKERS + 1)


# ---------------------------------------------------------------------------
# repro run judges its flags by the same rule (argument parsing only:
# nothing is loaded or forked)


@pytest.mark.parametrize("argv, flag", [
    (["--engine", "parallel", "--workers", str(MAX_WORKERS + 1)],
     "--workers"),
    (["--engine", "multicore", "--workers", str(MAX_WORKERS + 1)],
     "--workers"),
    (["--engine", "vectorized", "--tau", "0"], "--tau"),
    (["--tau", "2"], "--tau"),
    (["--tau", "nan"], "--tau"),
    (["--engine", "parallel", "--worker-timeout", "inf"],
     "--worker-timeout"),
    (["--engine", "parallel", "--workers", "2", "--fault-plan",
      "kill@w5:b1"], "--fault-plan"),
])
def test_run_flags_judged_by_the_engine_rule(argv, flag, capsys):
    parser = build_parser()
    args = parser.parse_args(["run", "--dataset", "amazon", *argv])
    with pytest.raises(SystemExit) as exc:
        _validate_run_args(parser, args)
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert f"{flag}: " in err and "Traceback" not in err


def test_run_accepts_in_range_flags():
    parser = build_parser()
    for argv in (["--engine", "parallel", "--workers", str(MAX_WORKERS)],
                 ["--engine", "vectorized", "--tau", "0.85"]):
        args = parser.parse_args(["run", "--dataset", "amazon", *argv])
        _validate_run_args(parser, args)


# ---------------------------------------------------------------------------
# one rule per option: no second copy of a bound outside the owner

#: option names whose bounds only ``core/infomap.py`` may state
_OPTION_NAMES = {"workers", "num_cores", "num_ranks", "tau", "max_levels",
                 "max_passes_per_level", "worker_timeout", "deadline"}

#: comparisons kept outside the owner, each with its reason
_KEPT = {
    ("core/bsp.py", "num_cores < 1"):
        "run_bsp_infomap is the kernel every BSP engine shares: its "
        "shard count comes from a checked entry point or a constant",
    ("core/faults.py", "workers < 1"):
        "FaultPlan.random's own grid of workers x barriers, callable "
        "without any engine",
}


def _compares_bound(node: ast.Compare) -> bool:
    def name(n):
        return getattr(n, "id", getattr(n, "attr", None))

    def bound(n):
        if isinstance(n, ast.UnaryOp) and isinstance(n.op, ast.USub):
            n = n.operand
        return (isinstance(n, ast.Constant)
                and type(n.value) in (int, float)) or \
            name(n) == "MAX_WORKERS"

    terms = [node.left, *node.comparators]
    return any(
        isinstance(op, (ast.Lt, ast.LtE, ast.Gt, ast.GtE))
        and ((name(a) in _OPTION_NAMES and bound(b))
             or (name(b) in _OPTION_NAMES and bound(a)))
        for op, a, b in zip(node.ops, terms, terms[1:])
    )


def test_one_rule_per_option():
    """Only ``core/infomap.py`` compares an engine option against a
    number or ``MAX_WORKERS``; the kept checks are named with their
    reasons.  The shape checks of ``init_module`` / ``init_active`` /
    ``labels`` and PageRank's ``check_probability("tau")`` for direct
    ``FlowNetwork`` callers stay too; they compare no option."""
    src = Path(__file__).resolve().parent.parent / "src" / "repro"
    found = set()
    for path in src.rglob("*.py"):
        rel = path.relative_to(src).as_posix()
        if rel == "core/infomap.py":
            continue
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Compare) and _compares_bound(node):
                found.add((rel, ast.unparse(node)))
    assert found == set(_KEPT)
