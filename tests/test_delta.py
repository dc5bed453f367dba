"""``Delta.apply`` against its dict reference, bit for bit.

:meth:`repro.service.delta.Delta.apply` patches the arc arrays: the
edge list comes straight from a canonical CSR, a ``searchsorted`` finds
the touched edges and only the ops are replayed in Python.
:func:`reference_apply` below is the implementation it replaced,
verbatim: every base edge goes into a dict, the ops are applied to it,
and :func:`~repro.graph.build.from_edge_array` rebuilds the whole graph.
The property here holds the two byte-identical — ``indptr``, ``indices``,
``weights`` and the transposed ``t_*`` arrays, the name, the
directedness — or both raise ``ValueError`` with the same message.

The drawn inputs include what a naive patch gets wrong:

* **ULP-different mirrored arcs** — duplicate input edges in both
  orientations are coalesced in different orders for the two arcs of
  an undirected edge, which can leave them one ULP apart; the
  reference rebuilds both from the ``src <= dst`` arc;
* **asymmetric hand-built CSRs** — the reference drops a ``src > dst``
  arc that has no partner and mirrors a lone ``src <= dst`` one, even
  when every row is sorted;
* **duplicate arcs** — a non-canonical CSR's duplicates are summed in
  storage order, starting from 0.0.
"""

from __future__ import annotations

import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.graph.build import from_edge_array, from_edges
from repro.graph.csr import CSRGraph
from repro.graph.generators import planted_partition
from repro.service.delta import Delta

from tests.strategies import hand_built_csrs, weighted_graphs, weights

ARRAYS = ("indptr", "indices", "weights", "t_indptr", "t_indices",
          "t_weights")


def reference_apply(delta: Delta, graph: CSRGraph) -> CSRGraph:
    """The dict implementation of ``Delta.apply`` (the oracle)."""
    src, dst, w = graph.edge_array()
    if not graph.directed:
        keep = src <= dst  # each undirected edge once (loops once)
        src, dst, w = src[keep], dst[keep], w[keep]
    edges: dict[tuple[int, int], float] = {}
    for s, d, wt in zip(src.tolist(), dst.tolist(), w.tolist()):
        edges[(s, d)] = edges.get((s, d), 0.0) + wt
    n = graph.num_vertices
    for i, op in enumerate(delta.ops):
        u, v = op[1], op[2]
        if not (0 <= u < n and 0 <= v < n):
            raise ValueError(
                f"delta op {i}: vertex out of range ({u}, {v})"
            )
        key = (u, v) if graph.directed or u <= v else (v, u)
        if op[0] == "add":
            edges[key] = edges.get(key, 0.0) + op[3]
        else:
            if key not in edges:
                raise ValueError(
                    f"delta op {i}: cannot remove absent edge {key}"
                )
            del edges[key]
    if edges:
        keys = np.array(list(edges.keys()), dtype=np.int64)
        esrc, edst = keys[:, 0], keys[:, 1]
        ew = np.fromiter(edges.values(), dtype=np.float64,
                         count=len(edges))
    else:
        esrc = edst = np.empty(0, dtype=np.int64)
        ew = np.empty(0, dtype=np.float64)
    return from_edge_array(
        esrc, edst, ew, num_vertices=n, directed=graph.directed,
        name=f"{graph.name}+delta",
    )


def assert_same_graph(got: CSRGraph, want: CSRGraph) -> None:
    for name in ARRAYS:
        a, b = getattr(got, name), getattr(want, name)
        assert a.dtype == b.dtype, name
        assert a.tobytes() == b.tobytes(), name
    assert (got.name, got.directed) == (want.name, want.directed)


def assert_matches_reference(delta: Delta, graph: CSRGraph) -> None:
    try:
        want = reference_apply(delta, graph)
    except ValueError as exc:
        with pytest.raises(ValueError) as got:
            delta.apply(graph)
        assert str(got.value) == str(exc)
        return
    assert_same_graph(delta.apply(graph), want)


# ---------------------------------------------------------------------------
# strategies


OP_KINDS = ("add", "add_existing", "remove_existing", "remove_readd",
            "loop", "remove_any", "out_of_range")


@st.composite
def cases(draw) -> tuple[CSRGraph, Delta]:
    graph = draw(st.one_of(weighted_graphs(), hand_built_csrs()))
    n = graph.num_vertices
    vertex = st.integers(0, n - 1)
    src, dst, _ = graph.edge_array()
    existing = list(zip(src.tolist(), dst.tolist()))
    ops: list[tuple] = []
    for kind in draw(st.lists(st.sampled_from(OP_KINDS), min_size=1,
                              max_size=12)):
        if kind in ("add_existing", "remove_existing", "remove_readd") \
                and existing:
            u, v = draw(st.sampled_from(existing))
            if kind == "add_existing":
                ops.append(("add", u, v, draw(weights)))
            elif kind == "remove_existing":
                ops.append(("remove", u, v))
            else:
                ops += [("remove", u, v), ("add", v, u, draw(weights))]
        elif kind == "loop":
            u = draw(vertex)
            ops.append(("add", u, u, draw(weights)))
        elif kind == "remove_any":  # usually an absent edge
            ops.append(("remove", draw(vertex), draw(vertex)))
        elif kind == "out_of_range":
            bad = draw(st.sampled_from([-1, n, n + 3]))
            ops.append(("add", bad, draw(vertex), 1.0))
        else:
            ops.append(("add", draw(vertex), draw(vertex), draw(weights)))
    return graph, Delta(ops=tuple(ops))


# ---------------------------------------------------------------------------
# the property and its named cases


@settings(max_examples=400, deadline=None)
@given(case=cases())
def test_apply_matches_dict_reference(case):
    graph, delta = case
    assert_matches_reference(delta, graph)


def test_ulp_different_mirrored_arcs_take_the_upper_weight():
    g = from_edges([(0, 1, 0.1), (1, 0, 0.3), (0, 1, 0.7), (1, 2, 1.0)])
    assert g.weights[0] != g.weights[1]  # arcs 0->1 and 1->0, one ULP
    delta = Delta(ops=(("add", 1, 2, 1.0),))
    assert_matches_reference(delta, g)
    out = delta.apply(g)
    assert out.weights[0] == out.weights[1] == g.weights[0]


def test_asymmetric_undirected_csr_is_remirrored():
    # rows sorted (canonical) but asymmetric: 0->1 has no partner, 2->0
    # has no partner either
    g = CSRGraph(indptr=[0, 1, 1, 2], indices=[1, 0], weights=[2.0, 5.0],
                 name="asym")
    delta = Delta(ops=(("add", 1, 2, 1.0),))
    assert_matches_reference(delta, g)
    out = delta.apply(g)
    assert out.edge_array()[0].tolist() == [0, 1, 1, 2]
    assert out.indices.tolist() == [1, 0, 2, 1]
    assert out.weights.tolist() == [2.0, 2.0, 1.0, 1.0]


def test_duplicate_arcs_sum_in_storage_order():
    g = CSRGraph(indptr=[0, 3, 3], indices=[1, 1, 1],
                 weights=[0.1, 0.2, 0.3], directed=True, name="dups")
    delta = Delta(ops=(("add", 1, 0, 1.0),))
    assert_matches_reference(delta, g)
    assert delta.apply(g).weights[0] == (0.0 + 0.1) + 0.2 + 0.3


# ---------------------------------------------------------------------------
# the point of the patch: O(ops) Python per flush


def _last_flush(graph: CSRGraph, num_ops: int = 120, window: int = 24,
                seed: int = 0) -> Delta:
    """A live-ingest session's cumulative delta: alternating adds and
    removes inside one vertex window (the e2e ``gateway_ingest`` shape)."""
    rng = np.random.default_rng(seed)
    src, dst, _ = graph.edge_array()
    inside = (src < dst) & (dst < window)
    present = set(zip(src[inside].tolist(), dst[inside].tolist()))
    ops: list[tuple] = []
    for i in range(num_ops):
        if i % 2 == 0 or not present:
            u, v = (int(x) for x in rng.integers(0, window, size=2))
            if u == v:
                v = (v + 1) % window
            present.add((min(u, v), max(u, v)))
            ops.append(("add", u, v, 1.0))
        else:
            u, v = sorted(present)[int(rng.integers(len(present)))]
            present.discard((u, v))
            ops.append(("remove", u, v))
    return Delta(ops=tuple(ops))


def _best_of(fn, repeats: int) -> float:
    best = float("inf")
    for _ in range(repeats):
        t0 = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - t0)
    return best


def test_apply_beats_the_dict_reference_on_an_ingest_flush():
    """On the 2000-vertex ingest base (~18k arcs) with a 120-op delta
    the patch is several times faster than the dict rebuild (about 5x on
    a 2-CPU x86-64 VM); the floor is 3x, best of 7 each."""
    graph, _ = planted_partition(20, 100, 0.08, 0.0008, seed=2)
    delta = _last_flush(graph)
    assert_same_graph(delta.apply(graph), reference_apply(delta, graph))
    new = _best_of(lambda: delta.apply(graph), 7)
    ref = _best_of(lambda: reference_apply(delta, graph), 7)
    assert ref / new >= 3.0, f"{ref * 1e3:.2f} ms vs {new * 1e3:.2f} ms"
