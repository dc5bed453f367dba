"""Batch-synchronous vectorized Infomap engine (no hardware accounting).

Pure-numpy engine for running Infomap at scales where the instrumented
per-operation engine would be too slow (quality studies, the LFR sweep,
examples on 100k+ edge graphs).

The engine runs the shared barrier-synchronous schedule of
:mod:`repro.core.bsp` on one in-process shard: each pass evaluates the
best move of every vertex on the worklist against the current partition
simultaneously (vectorized over all (vertex, candidate-module) pairs) and
applies the improving moves at once — the batch-synchronous relaxation
that parallel Infomap implementations (GossipMap, HyPC-Map) use across
workers.  After a level's first pass only movers, their neighbours and
the vertices that proposed a move are revisited.  Conflicting
simultaneous moves are resolved by the schedule's commit: moves that
close a cycle of modules are held back (:func:`repro.core.bsp.hold_back`),
and :func:`repro.core.bsp.commit_proposals` backs off by seeded random
halving of the move set whenever the batch does not improve the
codelength; this guarantees monotone codelength improvement and hence
termination.

Batched hot-path formulation
----------------------------
The paper's thesis is that FindBestCommunity is dominated by sparse
accumulation: summing each vertex's arc flows by neighbouring module.
The sequential engines route that accumulation through a pluggable
:class:`~repro.accum.base.Accumulator` (hash table or CAM); this engine
instead performs the *whole sweep's* accumulation as one segment-sum:

1. every non-loop arc ``(v, u)`` becomes a pair key ``v * n + module[u]``
   (directed graphs append the transpose arcs with separate out/in
   weights, so one grouping aligns both flow directions on identical
   keys);
2. one sort groups equal keys contiguously, in stable order — the
   batched analogue of hash-bucket grouping.  numpy radix-sorts only
   integers of 16 bits or less, so a stable argsort of int64 keys runs
   timsort; instead each key is packed as ``key << b | pair_index``
   (``b`` bits for the pair index), and one in-place sort of these
   unique keys yields exactly the stable permutation.  Inputs whose
   packed keys would not fit 63 bits fall back to the stable argsort;
3. ``np.add.reduceat`` over the group boundaries produces the per
   (vertex, candidate-module) flows — the sparse accumulation itself;
4. map-equation deltas are evaluated for all pairs at once, gathering
   per-module ``plogp`` terms from tables precomputed once per sweep
   (O(n)) instead of recomputing ``x log2 x`` per pair.  The
   leaving-module half of each delta depends only on the vertex, so it
   is evaluated once per vertex and gathered per pair, as HyPC-Map's
   FindBestCommunity does before its loop over neighbour modules;
5. the per-vertex best candidate is selected with a segmented argmin
   (``np.minimum.reduceat`` over the vertex group boundaries), not a
   sort.

Steps 2 and 4 keep every expression's operands and left-to-right
grouping, so neither changes a bit of any delta;
``tests/test_sweep_oracle.py`` holds the sweep byte-identical to its
argsort-grouped, per-pair form.  The sweep-sized key, index and weight
buffers of steps 1–3 live in a :class:`Workspace` that survives across
passes *and* levels; the group boundaries and the candidate-pair and
per-vertex temporaries of steps 3–5 are allocated per sweep.  The
unbatched reference formulation is kept as :func:`_best_moves` /
:func:`_module_state`; parity tests (``tests/test_hotpath_parity.py``)
assert the two paths produce identical moves, and
``benchmarks/bench_vectorized_hotpath.py`` gates the speedup of batched
over reference.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.flow import FlowNetwork
from repro.core.infomap import check_engine_options
from repro.graph.csr import CSRGraph
from repro.obs.spans import trace_span
from repro.obs.telemetry import ConvergenceTelemetry
from repro.util.entropy import plogp_array, plogp, plogp_unchecked

__all__ = ["run_infomap_vectorized", "VectorizedResult", "Workspace"]

#: moves must improve the codelength by at least this much
MIN_IMPROVEMENT = 1e-12

_EMPTY_MOVES = (
    np.empty(0, np.int64), np.empty(0, np.int64), np.empty(0)
)


@dataclass
class VectorizedResult:
    """Outcome of a vectorized Infomap run."""

    modules: np.ndarray
    num_modules: int
    codelength: float
    one_level_codelength: float
    levels: int
    rounds: int
    #: measured-wall-time convergence record (see repro.obs.telemetry)
    telemetry: ConvergenceTelemetry | None = None

    def summary(self) -> str:
        return (
            f"VectorizedResult({self.num_modules} modules, "
            f"L={self.codelength:.4f} bits, {self.levels} levels, "
            f"{self.rounds} rounds)"
        )


class Workspace:
    """Reusable scratch for the batched hot path.

    One Workspace serves a whole multilevel run of the BSP driver
    (:func:`repro.core.bsp.run_bsp_infomap`), across all its passes and
    levels.  Invariants:

    * :meth:`bind` must be called whenever the hot path moves to a new
      :class:`~repro.core.flow.FlowNetwork` (each level, or a new graph).
      It derives the level-constant arc-pair arrays (non-loop sources,
      destinations, flows — directed networks interleave the transpose
      arcs with zero-filled complementary weight columns).
    * Sweep-sized scratch buffers are capacity-backed: binding a
      *smaller* network slices the existing allocations instead of
      reallocating, so coarser levels and subsequent runs reuse them.
    * No state is carried between passes: every buffer handed out is
      fully overwritten (or zero-filled) before it is read, so reusing
      one Workspace across levels/graphs is bit-identical to using a
      fresh one — ``tests/test_hotpath_parity.py`` has a regression
      test for exactly this.
    """

    def __init__(self) -> None:
        self.net: FlowNetwork | None = None
        self._bufs: dict[str, np.ndarray] = {}

    # -- capacity-backed buffers ---------------------------------------
    def _buf(self, name: str, size: int, dtype=np.float64) -> np.ndarray:
        arr = self._bufs.get(name)
        if arr is None or arr.size < size or arr.dtype != np.dtype(dtype):
            arr = np.empty(size, dtype=dtype)
            self._bufs[name] = arr
        return arr[:size]

    def _iota(self, size: int) -> np.ndarray:
        arr = self._bufs.get("iota")
        if arr is None or arr.size < size:
            arr = np.arange(size, dtype=np.int64)
            self._bufs["iota"] = arr
        return arr[:size]

    # -- level binding -------------------------------------------------
    def bind(self, net: FlowNetwork) -> "Workspace":
        """Derive the level-constant arc-pair views for ``net``."""
        self.net = net
        n = net.num_vertices
        self.n = n
        src = np.repeat(np.arange(n, dtype=np.int64), np.diff(net.indptr))
        # full arc list (self-loops included) for module-state recomputes
        self.src_all = src
        self.dst_all = net.indices
        nonloop = src != net.indices
        src_nl = src[nonloop]
        dst_nl = net.indices[nonloop]
        f_nl = net.arc_flow[nonloop]
        if net.directed:
            t_src = np.repeat(
                np.arange(n, dtype=np.int64), np.diff(net.t_indptr)
            )
            t_nonloop = t_src != net.t_indices
            ts = t_src[t_nonloop]
            td = net.t_indices[t_nonloop]
            tf = net.t_arc_flow[t_nonloop]
            # one combined pair list: out arcs carry (flow, 0), transpose
            # arcs carry (0, flow), so a single grouping aligns the out-
            # and in-flow sums on identical (vertex, module) keys
            self.pair_src = np.concatenate([src_nl, ts])
            self.pair_dst = np.concatenate([dst_nl, td])
            e1, e2 = len(src_nl), len(ts)
            w_out = np.zeros(e1 + e2)
            w_out[:e1] = f_nl
            w_in = np.zeros(e1 + e2)
            w_in[e1:] = tf
            self.pair_w_out = w_out
            self.pair_w_in = w_in
        else:
            self.pair_src = src_nl
            self.pair_dst = dst_nl
            self.pair_w_out = f_nl
            self.pair_w_in = None  # aliases pair_w_out
        return self

    # -- module state ----------------------------------------------------
    def module_state(
        self, module: np.ndarray, k: int
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Per-module ``(enter, exit, flow)`` from scratch, batched.

        Same formulation as the reference :func:`_module_state` but over
        the cached arc list — no per-call ``np.repeat``.
        """
        net = self.net
        src, dst = self.src_all, self.dst_all
        msrc = np.take(module, src, out=self._buf("ms_src", len(src), np.int64))
        mdst = np.take(module, dst, out=self._buf("ms_dst", len(dst), np.int64))
        cross = np.not_equal(msrc, mdst, out=self._buf("ms_x", len(src), bool))
        # index the cross arcs once and take from them: cheaper than three
        # mask compressions, and unlike zero-weighted bincounts over all
        # arcs the bincounts shrink as fewer arcs cross modules
        idx = np.flatnonzero(cross)
        w = net.arc_flow[idx]
        exit_flow = np.bincount(msrc[idx], weights=w, minlength=k)
        enter_flow = np.bincount(mdst[idx], weights=w, minlength=k)
        flow = np.bincount(module, weights=net.node_flow, minlength=k)
        return enter_flow, exit_flow, flow

    def num_modules(self, module: np.ndarray) -> int:
        """Distinct label count in O(n) (labels always lie in [0, n))."""
        return int(np.count_nonzero(np.bincount(module, minlength=self.n)))

    # -- the batched sweep -----------------------------------------------
    def best_moves(
        self,
        module: np.ndarray,
        enter: np.ndarray,
        exit_: np.ndarray,
        flow: np.ndarray,
        verts: np.ndarray | None = None,
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Batched best-move search for every vertex (one sweep).

        Returns ``(vertices, targets, deltas)`` for vertices with an
        improving candidate — identical to the reference
        :func:`_best_moves` output, computed with the segment-sum
        formulation described in the module docstring.

        When ``verts`` is given, only pairs whose source vertex is in
        ``verts`` are evaluated — the shard-restricted sweep the
        barrier-synchronous engines run per core.  Per-vertex results
        are independent of the restriction (grouping, segment sums, and
        the argmin are all per-vertex, and the stable sort preserves
        relative pair order), so the restricted sweep returns exactly the
        full sweep's rows filtered to ``verts`` —
        ``tests/test_engine_conformance.py`` pins this.  A ``verts`` that
        holds every vertex (a one-shard engine's first pass of a level)
        therefore runs as the full sweep, skipping the gathers.
        """
        net = self.net
        n = self.n
        if verts is not None:
            flags = self._buf("bm_flags", n, bool)
            flags.fill(False)
            flags[verts] = True
            if flags.all():
                verts = None
        if verts is None:
            pair_src, pair_dst = self.pair_src, self.pair_dst
            w_out_all, w_in_all = self.pair_w_out, self.pair_w_in
        else:
            sel_idx = np.flatnonzero(flags[self.pair_src])
            m = len(sel_idx)
            pair_src = np.take(
                self.pair_src, sel_idx, out=self._buf("bm_ssrc", m, np.int64)
            )
            pair_dst = np.take(
                self.pair_dst, sel_idx, out=self._buf("bm_sdst", m, np.int64)
            )
            w_out_all = np.take(
                self.pair_w_out, sel_idx, out=self._buf("bm_swo", m)
            )
            if net.directed:
                w_in_all = np.take(
                    self.pair_w_in, sel_idx, out=self._buf("bm_swi", m)
                )
            else:
                w_in_all = None
        P = len(pair_src)
        if P == 0:
            return _EMPTY_MOVES

        # 1. pair keys: (vertex, candidate-module) as one int64
        mdst = np.take(module, pair_dst, out=self._buf("bm_mdst", P, np.int64))
        key = np.multiply(pair_src, np.int64(n), out=self._buf("bm_key", P, np.int64))
        key += mdst

        # 2. group equal keys (one sort of packed unique keys)
        order, ks = _group_keys(key, n, self._iota(P))
        bounds = self._buf("bm_bounds", P, bool)
        bounds[0] = True
        np.not_equal(ks[1:], ks[:-1], out=bounds[1:])
        starts = np.flatnonzero(bounds)

        # 3. segment sums: the sparse accumulation
        w_sorted = np.take(
            w_out_all, order, out=self._buf("bm_wo", P)
        )
        out_to = np.add.reduceat(w_sorted, starts)
        if net.directed:
            wi_sorted = np.take(
                w_in_all, order, out=self._buf("bm_wi", P)
            )
            in_from = np.add.reduceat(wi_sorted, starts)
        else:
            in_from = out_to
        sel = order[starts]
        pv = pair_src[sel]          # pair vertex (non-decreasing)
        pm = mdst[sel]              # pair candidate module

        # per-vertex flow to its current module (gathered from the pairs).
        # Each mask is turned into indices once: taking by index is
        # cheaper than compressing every array by the mask.
        own = pm == module[pv]
        oi = np.flatnonzero(own)
        ov = pv[oi]
        out_to_cur = self._buf("bm_otc", n)
        out_to_cur.fill(0.0)
        out_to_cur[ov] = out_to[oi]
        if net.directed:
            in_from_cur = self._buf("bm_ifc", n)
            in_from_cur.fill(0.0)
            in_from_cur[ov] = in_from[oi]
        else:
            in_from_cur = out_to_cur

        ci = np.flatnonzero(~own)
        if len(ci) == 0:
            return _EMPTY_MOVES
        cv, cm = pv[ci], pm[ci]
        c_out = out_to[ci]
        c_in = in_from[ci] if net.directed else c_out

        # vertex segments of the candidate pairs (cv is non-decreasing):
        # pair i belongs to vertex cv[vstarts[seg[i]]]
        C = len(cv)
        vbounds = self._buf("bm_vb", C, bool)
        vbounds[0] = True
        np.not_equal(cv[1:], cv[:-1], out=vbounds[1:])
        vstarts = np.flatnonzero(vbounds)
        seg = np.cumsum(vbounds, out=self._buf("bm_seg", C, np.int64))
        seg -= 1

        # 4. map-equation deltas for all candidate pairs at once.  The
        # leaving-module half depends only on the vertex, so it is
        # evaluated once per vertex (HyPC-Map's FindBestCommunity does so
        # before its loop over neighbour modules) and gathered per pair.
        v = cv[vstarts]
        old = module[v]
        p_n = net.node_flow[v]
        out_n = net.node_out[v]
        in_n = net.node_in[v]
        exit_old_new = exit_[old] - (out_n - out_to_cur[v]) + in_from_cur[v]
        enter_old_new = enter[old] - (in_n - in_from_cur[v]) + out_to_cur[v]
        flow_old_new = flow[old] - p_n
        np.clip(exit_old_new, 0.0, None, out=exit_old_new)
        np.clip(enter_old_new, 0.0, None, out=enter_old_new)
        np.clip(flow_old_new, 0.0, None, out=flow_old_new)

        exit_new_new = exit_[cm] + (out_n[seg] - c_out) - c_in
        enter_new_new = enter[cm] + (in_n[seg] - c_in) - c_out
        flow_new_new = flow[cm] + p_n[seg]

        # same operands and left-to-right grouping as the per-pair form
        # ``sum_enter + enter_old_new + enter_new_new - enter[old] -
        # enter[cm]``, so every delta is bit-identical to it
        sum_enter = float(enter.sum())
        sum_enter_new = (
            (sum_enter + enter_old_new)[seg] + enter_new_new
            - enter[old][seg] - enter[cm]
        )
        np.clip(sum_enter_new, 0.0, None, out=sum_enter_new)

        # per-module plogp tables, computed once per sweep then gathered
        p_enter = plogp_unchecked(enter)
        p_exit = plogp_unchecked(exit_)
        p_exit_flow = plogp_unchecked(exit_ + flow)

        pu = plogp_unchecked
        dl = (
            pu(sum_enter_new)
            - plogp(sum_enter)
            - (
                pu(enter_old_new)[seg]
                + pu(enter_new_new)
                - p_enter[old][seg]
                - p_enter[cm]
            )
            - (
                pu(exit_old_new)[seg]
                + pu(exit_new_new)
                - p_exit[old][seg]
                - p_exit[cm]
            )
            + (
                pu(exit_old_new + flow_old_new)[seg]
                + pu(exit_new_new + flow_new_new)
                - p_exit_flow[old][seg]
                - p_exit_flow[cm]
            )
        )

        # 5. segmented argmin per vertex
        minval = np.minimum.reduceat(dl, vstarts)
        pos = self._buf("bm_pos", C, np.int64)
        np.copyto(pos, self._iota(C))
        pos[dl != minval[seg]] = C  # mask non-minima
        first = np.minimum.reduceat(pos, vstarts)
        verts, targets, deltas = cv[first], cm[first], dl[first]
        improving = deltas < -MIN_IMPROVEMENT
        return verts[improving], targets[improving], deltas[improving]


def _group_keys(
    key: np.ndarray, n: int, iota: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """``np.argsort(key, kind="stable")`` and the sorted keys.

    ``key`` holds pair keys in ``[0, n*n)``; ``iota`` is
    ``arange(len(key))``.  numpy radix-sorts only integers of 16 bits or
    less, so a stable argsort of int64 keys runs timsort.  When each key
    still fits 63 bits with its pair index packed into the low bits, one
    in-place sort of the packed keys replaces it: packed keys are
    unique, so any correct sort yields exactly the stable permutation.
    Larger inputs fall back to the stable argsort.  ``key`` is
    overwritten on the packed path (it returns as the sorted keys).
    """
    P = len(key)
    b = (P - 1).bit_length()
    if (int(n) * int(n) - 1).bit_length() + b > 63:
        order = np.argsort(key, kind="stable")
        return order, key[order]
    key <<= b
    key |= iota
    key.sort()
    order = key & np.int64((1 << b) - 1)
    key >>= b
    return order, key


# ----------------------------------------------------------------------
# Reference (unbatched) formulation.  Kept verbatim from the pre-batching
# engine: it is the oracle for the parity tests and the machine-local
# reference the perf gate measures speedup against.
# ----------------------------------------------------------------------

def _module_state(
    net: FlowNetwork, module: np.ndarray, k: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Recompute (enter, exit, flow) per module from scratch, vectorized.

    Reference formulation (per-call ``np.repeat``); the hot path uses
    :meth:`Workspace.module_state`, which reuses the cached arc list.
    """
    n = net.num_vertices
    src = np.repeat(np.arange(n, dtype=np.int64), np.diff(net.indptr))
    dst = net.indices
    cross = module[src] != module[dst]
    exit_flow = np.bincount(
        module[src[cross]], weights=net.arc_flow[cross], minlength=k
    )
    enter_flow = np.bincount(
        module[dst[cross]], weights=net.arc_flow[cross], minlength=k
    )
    flow = np.bincount(module, weights=net.node_flow, minlength=k)
    return enter_flow, exit_flow, flow


def _best_moves(
    net: FlowNetwork,
    module: np.ndarray,
    enter: np.ndarray,
    exit_: np.ndarray,
    flow: np.ndarray,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Reference best-move search for every vertex (unbatched hot path).

    Returns ``(vertices, targets, deltas)`` for vertices with an improving
    candidate.  This is the pre-batching formulation: per-call workspace
    allocation, ``np.unique``-based grouping, per-pair plogp evaluation,
    and a lexsort argmin.  :meth:`Workspace.best_moves` computes the same
    result via segment accumulation; the perf gate
    (``benchmarks/bench_vectorized_hotpath.py``) measures its speedup
    over this function on the same module states.
    """
    n = net.num_vertices
    src = np.repeat(np.arange(n, dtype=np.int64), np.diff(net.indptr))
    dst = net.indices
    nonloop = src != dst
    src_nl, dst_nl, f_nl = src[nonloop], dst[nonloop], net.arc_flow[nonloop]

    # out-flow aggregation per (vertex, neighbour-module)
    key = src_nl * np.int64(n) + module[dst_nl]
    uk, inv = np.unique(key, return_inverse=True)
    out_to = np.bincount(inv, weights=f_nl)
    pv = (uk // n).astype(np.int64)
    pm = (uk % n).astype(np.int64)

    if net.directed:
        t_src = np.repeat(np.arange(n, dtype=np.int64), np.diff(net.t_indptr))
        t_dst = net.t_indices
        t_nonloop = t_src != t_dst
        ts, td, tf = t_src[t_nonloop], t_dst[t_nonloop], net.t_arc_flow[t_nonloop]
        t_key = ts * np.int64(n) + module[td]
        # align in-flow sums onto the union of out keys and in keys
        all_keys = np.union1d(uk, np.unique(t_key))
        out_aligned = np.zeros(len(all_keys))
        out_aligned[np.searchsorted(all_keys, uk)] = out_to
        tk_u, tk_inv = np.unique(t_key, return_inverse=True)
        in_sum = np.bincount(tk_inv, weights=tf)
        in_aligned = np.zeros(len(all_keys))
        in_aligned[np.searchsorted(all_keys, tk_u)] = in_sum
        uk = all_keys
        out_to = out_aligned
        in_from = in_aligned
        pv = (uk // n).astype(np.int64)
        pm = (uk % n).astype(np.int64)
    else:
        in_from = out_to

    cur = module[pv]
    # per-vertex flow to its current module (gathered from the pair list)
    out_to_cur = np.zeros(n)
    in_from_cur = np.zeros(n)
    own = pm == cur
    out_to_cur[pv[own]] = out_to[own]
    in_from_cur[pv[own]] = in_from[own]

    cand = ~own
    if not np.any(cand):
        return _EMPTY_MOVES
    cv, cm = pv[cand], pm[cand]
    c_out, c_in = out_to[cand], in_from[cand]

    p_n = net.node_flow[cv]
    out_n = net.node_out[cv]
    in_n = net.node_in[cv]
    old = module[cv]

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
    sum_enter_new = sum_enter + enter_old_new + enter_new_new - enter[old] - enter[cm]
    np.clip(sum_enter_new, 0.0, None, out=sum_enter_new)

    dl = (
        plogp_array(sum_enter_new)
        - plogp(sum_enter)
        - (
            plogp_array(enter_old_new)
            + plogp_array(enter_new_new)
            - plogp_array(enter[old])
            - plogp_array(enter[cm])
        )
        - (
            plogp_array(exit_old_new)
            + plogp_array(exit_new_new)
            - plogp_array(exit_[old])
            - plogp_array(exit_[cm])
        )
        + (
            plogp_array(exit_old_new + flow_old_new)
            + plogp_array(exit_new_new + flow_new_new)
            - plogp_array(exit_[old] + flow[old])
            - plogp_array(exit_[cm] + flow[cm])
        )
    )

    # segmented argmin per vertex
    order = np.lexsort((dl, cv))
    cv_sorted = cv[order]
    first = np.ones(len(cv_sorted), dtype=bool)
    first[1:] = cv_sorted[1:] != cv_sorted[:-1]
    idx = order[first]
    verts, targets, deltas = cv[idx], cm[idx], dl[idx]
    improving = deltas < -MIN_IMPROVEMENT
    return verts[improving], targets[improving], deltas[improving]


def run_infomap_vectorized(
    graph: CSRGraph,
    tau: float = 0.15,
    max_levels: int = 20,
    max_passes_per_level: int = 30,
    seed: int = 0,
    init_module: np.ndarray | None = None,
    init_active: np.ndarray | None = None,
) -> VectorizedResult:
    """Run the batch-synchronous multilevel Infomap in-process.

    One run of the shared BSP schedule
    (:func:`repro.core.bsp.run_bsp_infomap`) on a single in-process shard
    (:class:`repro.core.bsp.InprocessSweep`): the same worklist and
    commit as ``multicore``/``parallel``, so at equal passes and seed it
    is bit-identical to both at one core/worker.  Functionally equivalent
    objective to :func:`repro.core.infomap.run_infomap` (both minimize
    the same map equation); move schedules differ, so the found
    partitions can differ slightly — tests check codelengths agree within
    a few percent on structured graphs.  Callers wanting one entry point
    can use ``run_infomap(graph, engine="vectorized")``.

    Parameters
    ----------
    graph:
        Input network (directed or undirected, optionally weighted).
    tau:
        Teleportation probability for the PageRank kernel.
    max_levels, max_passes_per_level:
        Multilevel schedule caps.
    seed:
        Seed for the conflict-backoff RNG (results are deterministic for
        a fixed seed).
    init_module / init_active:
        Warm-start assignment and first-pass restriction for level 0
        (see :func:`repro.core.bsp.run_bsp_infomap`) — the incremental
        recompute path of :mod:`repro.core.dynamic`.
    """
    # bsp imports this module's Workspace, so it is imported here
    from repro.core.bsp import InprocessSweep, run_bsp_infomap

    check_engine_options(
        "vectorized", seed=seed, tau=tau, max_levels=max_levels,
        max_passes_per_level=max_passes_per_level,
    )
    with trace_span("infomap.run", engine="vectorized"):
        out = run_bsp_infomap(
            graph, InprocessSweep(), 1, seed=seed, tau=tau,
            max_levels=max_levels, max_passes_per_level=max_passes_per_level,
            init_module=init_module, init_active=init_active,
        )
    return VectorizedResult(
        modules=out.modules,
        num_modules=out.num_modules,
        codelength=out.codelength,
        one_level_codelength=out.one_level_codelength,
        levels=out.levels,
        rounds=len(out.passes),
        telemetry=out.telemetry,
    )
