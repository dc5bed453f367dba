"""``Workspace.best_moves`` and ``module_state`` against their oracles, bit for bit.

:meth:`repro.core.vectorized.Workspace.best_moves` groups the pair keys
with one sort of packed unique keys and evaluates the leaving-module
half of the map-equation delta once per vertex.
:func:`reference_sweep` below is the implementation it replaced,
verbatim apart from fresh allocations in place of the workspace
buffers: a stable argsort groups the keys and every leaving term is
evaluated once per candidate pair.  Both keep every expression's
operands and left-to-right grouping, so their ``(verts, targets,
deltas)`` must be byte-identical on every sweep input.

The inputs are captured from real runs — every ``best_moves`` call the
vectorized engine and ``multicore`` at P = 2 and P = 3 make (full sweeps
and ``verts=``-restricted shards) on the conformance families, an
orkut-shaped LFR graph and a directed R-MAT graph.  The same captured
labels check :meth:`Workspace.module_state` against the reference
:func:`~repro.core.vectorized._module_state`.

The parity test against the unbatched ``_best_moves``
(``tests/test_hotpath_parity.py``) cannot serve as a byte oracle: that
reference sums with ``bincount``, not ``reduceat``.

:func:`repro.core.vectorized._group_keys` (the grouping step) is checked
on both of its branches against ``np.argsort(kind="stable")``.
"""

from __future__ import annotations

import math

import numpy as np
import pytest

from repro.core.multicore import run_infomap_multicore
from repro.core.vectorized import (
    MIN_IMPROVEMENT,
    Workspace,
    _EMPTY_MOVES,
    _group_keys,
    _module_state,
    run_infomap_vectorized,
)
from repro.graph.datasets import DATASETS
from repro.graph.generators import rmat
from repro.graph.lfr import LFRParams, lfr_graph
from repro.util.entropy import plogp, plogp_unchecked

from tests.test_engine_conformance import FAMILIES


def reference_sweep(ws, module, enter, exit_, flow, verts=None):
    """The argsort-grouped, per-pair ``Workspace.best_moves`` (the oracle)."""
    net = ws.net
    n = ws.n
    if verts is not None:
        flags = np.zeros(n, bool)
        flags[verts] = True
        if flags.all():
            verts = None
    if verts is None:
        pair_src, pair_dst = ws.pair_src, ws.pair_dst
        w_out_all, w_in_all = ws.pair_w_out, ws.pair_w_in
    else:
        sel_idx = np.flatnonzero(flags[ws.pair_src])
        pair_src = ws.pair_src[sel_idx]
        pair_dst = ws.pair_dst[sel_idx]
        w_out_all = ws.pair_w_out[sel_idx]
        w_in_all = ws.pair_w_in[sel_idx] if net.directed else None
    P = len(pair_src)
    if P == 0:
        return _EMPTY_MOVES

    mdst = module[pair_dst]
    key = pair_src * np.int64(n)
    key += mdst

    order = np.argsort(key, kind="stable")
    ks = key[order]
    bounds = np.empty(P, bool)
    bounds[0] = True
    np.not_equal(ks[1:], ks[:-1], out=bounds[1:])
    starts = np.flatnonzero(bounds)

    out_to = np.add.reduceat(w_out_all[order], starts)
    if net.directed:
        in_from = np.add.reduceat(w_in_all[order], starts)
    else:
        in_from = out_to
    sel = order[starts]
    pv = pair_src[sel]
    pm = mdst[sel]

    cur = module[pv]
    out_to_cur = np.zeros(n)
    own = pm == cur
    out_to_cur[pv[own]] = out_to[own]
    if net.directed:
        in_from_cur = np.zeros(n)
        in_from_cur[pv[own]] = in_from[own]
    else:
        in_from_cur = out_to_cur

    cand = ~own
    if not np.any(cand):
        return _EMPTY_MOVES
    cv, cm = pv[cand], pm[cand]
    c_out, c_in = out_to[cand], in_from[cand]

    p_n = net.node_flow[cv]
    out_n = net.node_out[cv]
    in_n = net.node_in[cv]
    old = cur[cand]

    exit_old_new = exit_[old] - (out_n - out_to_cur[cv]) + in_from_cur[cv]
    enter_old_new = enter[old] - (in_n - in_from_cur[cv]) + out_to_cur[cv]
    exit_new_new = exit_[cm] + (out_n - c_out) - c_in
    enter_new_new = enter[cm] + (in_n - c_in) - c_out
    flow_old_new = flow[old] - p_n
    flow_new_new = flow[cm] + p_n

    np.clip(exit_old_new, 0.0, None, out=exit_old_new)
    np.clip(enter_old_new, 0.0, None, out=enter_old_new)
    np.clip(flow_old_new, 0.0, None, out=flow_old_new)

    sum_enter = float(enter.sum())
    sum_enter_new = (
        sum_enter + enter_old_new + enter_new_new - enter[old] - enter[cm]
    )
    np.clip(sum_enter_new, 0.0, None, out=sum_enter_new)

    p_enter = plogp_unchecked(enter)
    p_exit = plogp_unchecked(exit_)
    p_exit_flow = plogp_unchecked(exit_ + flow)

    pu = plogp_unchecked
    dl = (
        pu(sum_enter_new)
        - plogp(sum_enter)
        - (
            pu(enter_old_new)
            + pu(enter_new_new)
            - p_enter[old]
            - p_enter[cm]
        )
        - (
            pu(exit_old_new)
            + pu(exit_new_new)
            - p_exit[old]
            - p_exit[cm]
        )
        + (
            pu(exit_old_new + flow_old_new)
            + pu(exit_new_new + flow_new_new)
            - p_exit_flow[old]
            - p_exit_flow[cm]
        )
    )

    C = len(cv)
    vbounds = np.empty(C, bool)
    vbounds[0] = True
    np.not_equal(cv[1:], cv[:-1], out=vbounds[1:])
    vstarts = np.flatnonzero(vbounds)
    minval = np.minimum.reduceat(dl, vstarts)
    seg = np.cumsum(vbounds) - 1
    pos = np.arange(C, dtype=np.int64)
    pos[dl != minval[seg]] = C
    first = np.minimum.reduceat(pos, vstarts)
    verts, targets, deltas = cv[first], cm[first], dl[first]
    improving = deltas < -MIN_IMPROVEMENT
    return verts[improving], targets[improving], deltas[improving]


# ---------------------------------------------------------------------------
# captured sweep inputs


def _orkut_lfr():
    """A 1000-vertex LFR graph shaped like the orkut surrogate."""
    spec = DATASETS["orkut"]
    n = 1_000
    max_degree = n * spec.max_degree // spec.n
    return lfr_graph(LFRParams(
        n=n, mu=spec.mixing, tau_degree=2.3, tau_size=1.5,
        avg_degree=spec.avg_degree, max_degree=max_degree,
        min_community=spec.auto_min_community(),
        max_community=max(max_degree + 2, n // 8), seed=0,
    ))[0]


GRAPHS = {
    **{f"{family}-{seed}": (lambda f=family, s=seed: FAMILIES[f](s)[0])
       for family in sorted(FAMILIES) for seed in (0, 1)},
    "orkut_lfr": _orkut_lfr,
    "rmat9_directed": lambda: rmat(9, edge_factor=8, seed=3, directed=True),
}

RUNS = {
    "vectorized": lambda g: run_infomap_vectorized(g),
    "multicore2": lambda g: run_infomap_multicore(g, num_cores=2),
    "multicore3": lambda g: run_infomap_multicore(g, num_cores=3),
}


def _capture(graph, run):
    """Every ``best_moves`` input of one run: (net, module, enter, exit,
    flow, verts), copied at the call."""
    calls = []
    original = Workspace.best_moves

    def recording(self, module, enter, exit_, flow, verts=None):
        calls.append((
            self.net, module.copy(), enter.copy(), exit_.copy(),
            flow.copy(), None if verts is None else np.array(verts),
        ))
        return original(self, module, enter, exit_, flow, verts=verts)

    Workspace.best_moves = recording
    try:
        run(graph)
    finally:
        Workspace.best_moves = original
    return calls


@pytest.fixture(scope="module")
def captured():
    """``captured(graph, run)``: the run's sweep inputs, captured once."""
    cache = {}

    def get(graph, run):
        if (graph, run) not in cache:
            cache[graph, run] = _capture(GRAPHS[graph](), RUNS[run])
        return cache[graph, run]

    return get


def _bound(calls):
    """``(ws, call)`` per captured call, ``ws`` bound to the call's net."""
    ws = Workspace()
    for call in calls:
        if ws.net is not call[0]:
            ws.bind(call[0])
        yield ws, call


@pytest.mark.parametrize("run", sorted(RUNS))
@pytest.mark.parametrize("graph", sorted(GRAPHS))
def test_sweep_is_byte_identical_to_the_oracle(captured, graph, run):
    shards = moves = 0
    for ws, (net, module, enter, exit_, flow, verts) in _bound(
        captured(graph, run)
    ):
        shards += verts is not None and len(verts) < net.num_vertices
        got = ws.best_moves(module, enter, exit_, flow, verts=verts)
        want = reference_sweep(ws, module, enter, exit_, flow, verts=verts)
        for a, b in zip(got, want):
            assert a.dtype == b.dtype
            assert a.tobytes() == b.tobytes()
        moves += len(got[0])
    assert moves > 0
    assert shards > 0  # the verts= restricted path ran too


@pytest.mark.parametrize("graph", sorted(GRAPHS))
def test_module_state_identical_on_captured_labels(captured, graph):
    for run in RUNS:
        for ws, (net, module, *_) in _bound(captured(graph, run)):
            n = net.num_vertices
            for k in (n, int(module.max()) + 1):
                ref = _module_state(net, module, k)
                got = ws.module_state(module, k)
                for a, b in zip(ref, got):
                    assert np.array_equal(a, b), (graph, run)


# ---------------------------------------------------------------------------
# the grouping step, both branches


def _smallest_n(bits):
    """Smallest n with ``(n*n - 1).bit_length() == bits``."""
    return math.isqrt(1 << (bits - 1)) + 1


def _keys(rng, n, P, near_top):
    """Pair keys in ``[0, n*n)`` with heavy ties and unsorted sources."""
    top = n * n - 1
    if near_top:
        pool = top - rng.integers(0, 4 * n, max(1, P // 8), dtype=np.int64)
    else:
        pool = rng.integers(0, top + 1, max(1, P // 8), dtype=np.int64)
    pool = np.append(pool, top)
    return rng.choice(pool, P).astype(np.int64)


@pytest.mark.parametrize("P", [1, 2, 1000])
def test_group_keys_matches_stable_argsort(P):
    rng = np.random.default_rng(P)
    b = (P - 1).bit_length()
    cases = [(7, False), (_smallest_n(63 - b), True)]  # packed, 63 bits
    if b:
        # 64 bits: packing would carry into the sign bit.  (At P = 1 no
        # int64 key reaches it.)
        cases.append((_smallest_n(64 - b), True))
    for n, near_top in cases:
        key = _keys(rng, n, P, near_top)
        want = np.argsort(key, kind="stable")
        order, ks = _group_keys(key.copy(), n, np.arange(P, dtype=np.int64))
        assert order.tobytes() == want.tobytes(), (n, P)
        assert ks.tobytes() == key[want].tobytes(), (n, P)


def test_group_keys_directed_pair_layout():
    """Out arcs then transpose arcs: sources restart, keys tie across
    the two halves, and the stable order keeps out arcs first."""
    rng = np.random.default_rng(5)
    n = 300
    src = np.concatenate([np.sort(rng.integers(0, n, 2000)),
                          np.sort(rng.integers(0, n, 2000))])
    module = rng.integers(0, 6, n)
    dst = rng.integers(0, n, len(src))
    key = src * np.int64(n) + module[dst]
    want = np.argsort(key, kind="stable")
    for n_budget in (n, 1 << 40):  # packed, then the argsort fallback
        order, ks = _group_keys(
            key.copy(), n_budget, np.arange(len(key), dtype=np.int64)
        )
        assert order.tobytes() == want.tobytes()
        assert ks.tobytes() == key[want].tobytes()
