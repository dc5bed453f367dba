"""Shared hypothesis strategies for the property-based suites.

One home for the generators that were previously copy-pasted across
``test_property_invariants.py``, ``test_csr.py``, and ``test_spgemm.py``:

* :func:`edge_lists` — arbitrary small edge lists (duplicates and
  self-loops included), the adversarial graph-construction input;
* :func:`weighted_graphs` / :func:`hand_built_csrs` — small weighted
  ``CSRGraph``s: built ones (canonical, possibly one ULP asymmetric) and
  ones made straight from arrays (unsorted rows, duplicate arcs,
  asymmetric "undirected");
* :data:`seeds` / :data:`small_seeds` — integer seeds for the seeded
  generators (full-range for cheap properties, a small range where each
  example runs a whole Infomap pipeline);
* :data:`directedness` — the directed/undirected flag;
* :func:`module_moves` — one BSP round's merged move proposals over a
  few modules, swaps and longer cycles of modules included.

Keep strategies *here* and tolerances/invariants in the tests: a strategy
describes the input space, a test describes what must hold on it.  See
``docs/testing.md`` for the guide.
"""

from __future__ import annotations

import numpy as np
from hypothesis import strategies as st

from repro.graph.build import from_edges
from repro.graph.csr import CSRGraph

__all__ = ["edge_lists", "weights", "weighted_graphs", "hand_built_csrs",
           "seeds", "small_seeds", "directedness", "module_moves"]


def edge_lists(
    max_vertex: int = 9, min_size: int = 1, max_size: int = 40
) -> st.SearchStrategy[list[tuple[int, int]]]:
    """Arbitrary ``(src, dst)`` edge lists over ``[0, max_vertex]``.

    Deliberately adversarial for graph construction: duplicates merge
    weights, self-loops survive the pipeline, isolated vertices appear
    (the vertex count is fixed at ``max_vertex + 1`` by the caller).
    """
    return st.lists(
        st.tuples(
            st.integers(0, max_vertex), st.integers(0, max_vertex)
        ),
        min_size=min_size,
        max_size=max_size,
    )


#: finite positive arc weights, varied enough that sums taken in
#: different orders round differently
weights = st.floats(min_value=0.01, max_value=100.0, allow_nan=False,
                    allow_infinity=False)


@st.composite
def weighted_graphs(draw) -> CSRGraph:
    """``from_edges`` graphs with self-loops, non-unit weights, isolated
    vertices and duplicate edges in both orientations.

    Canonical, but an undirected one's two arcs of an edge can differ by
    one ULP: their duplicates are summed in different orders.
    """
    n = draw(st.integers(1, 8))
    vertex = st.integers(0, n - 1)
    edges = draw(st.lists(st.tuples(vertex, vertex, weights), max_size=30))
    if edges:
        flips = draw(st.lists(st.sampled_from(edges), max_size=10))
        edges += [(v, u, draw(weights)) for u, v, _ in flips]
    return from_edges(edges, num_vertices=n + draw(st.integers(0, 2)),
                      directed=draw(st.booleans()))


@st.composite
def hand_built_csrs(draw) -> CSRGraph:
    """``CSRGraph``s made straight from arrays: unsorted rows and
    duplicate arcs, or sorted rows; "undirected" ones are rarely
    symmetric."""
    n = draw(st.integers(1, 6))
    rows = [draw(st.lists(st.tuples(st.integers(0, n - 1), weights),
                          max_size=6)) for _ in range(n)]
    if draw(st.booleans()):  # canonical rows
        rows = [sorted(dict(row).items()) for row in rows]
    return CSRGraph(
        indptr=np.cumsum([0] + [len(row) for row in rows]),
        indices=np.array([d for row in rows for d, _ in row],
                         dtype=np.int64),
        weights=np.array([w for row in rows for _, w in row],
                         dtype=np.float64),
        directed=draw(st.booleans()),
        name="hand",
    )


#: full-range seeds for seeded generators (cheap per-example properties)
seeds = st.integers(0, 10**6)

#: small seed range for properties whose examples run a full pipeline
small_seeds = st.integers(0, 1000)

#: directed / undirected construction flag
directedness = st.booleans()


@st.composite
def module_moves(draw) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """One BSP round's merged proposals ``(module, verts, targets)``.

    Labels come from at most six modules, so swaps (``a → b`` beside
    ``b → a``) and longer cycles of modules are common: the batches a
    commit that applies every proposal at once would ping-pong on.
    Proposal vertices are distinct and in random order, and no target
    is the vertex's own module, as in the driver's proposals.
    """
    n = draw(st.integers(1, 24))
    k = draw(st.integers(1, min(n, 6)))
    module = np.array(
        draw(st.lists(st.integers(0, k - 1), min_size=n, max_size=n)),
        dtype=np.int64,
    )
    if k == 1:
        verts: list[int] = []
    else:
        verts = draw(st.lists(st.integers(0, n - 1), unique=True))
    # the k - 1 labels other than the vertex's own
    others = [draw(st.integers(0, k - 2)) for _ in verts]
    targets = [x + (x >= module[v]) for v, x in zip(verts, others)]
    return (module, np.array(verts, dtype=np.int64),
            np.array(targets, dtype=np.int64))
