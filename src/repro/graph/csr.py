"""Compressed-sparse-row graph storage.

:class:`CSRGraph` is the single graph representation used throughout the
library.  It stores a weighted directed multigraph-free adjacency in three
numpy arrays (``indptr``, ``indices``, ``weights``) plus, for directed
graphs, the transposed adjacency so that Infomap can iterate in-links as
cheaply as out-links (Algorithm 1 of the paper accumulates both
``outFlowToModules`` and ``inFlowFromModules``).

Undirected graphs are stored with both arc directions materialized, which
matches how HyPC-Map (and the original Infomap) treat undirected input:
each undirected edge {u, v} of weight w becomes arcs u->v and v->u of
weight w.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterator

import numpy as np

__all__ = ["CSRGraph", "canonical_rows"]


@dataclass
class CSRGraph:
    """Weighted graph in CSR form.

    Attributes
    ----------
    indptr:
        ``int64[num_vertices + 1]`` — out-adjacency row pointers.
    indices:
        ``int64[num_arcs]`` — out-neighbor vertex ids.
    weights:
        ``float64[num_arcs]`` — arc weights (finite, > 0).
    directed:
        Whether the graph is semantically directed.  Undirected graphs
        still materialize both arc directions in ``indices``.
    t_indptr, t_indices, t_weights:
        Transposed (in-adjacency) CSR.  For undirected graphs these alias
        the forward arrays.
    """

    indptr: np.ndarray
    indices: np.ndarray
    weights: np.ndarray
    directed: bool = False
    name: str = "graph"
    t_indptr: np.ndarray = field(default=None, repr=False)  # type: ignore[assignment]
    t_indices: np.ndarray = field(default=None, repr=False)  # type: ignore[assignment]
    t_weights: np.ndarray = field(default=None, repr=False)  # type: ignore[assignment]

    def __post_init__(self) -> None:
        self.indptr = np.asarray(self.indptr, dtype=np.int64)
        self.indices = np.asarray(self.indices, dtype=np.int64)
        self.weights = np.asarray(self.weights, dtype=np.float64)
        if self.indptr.ndim != 1 or self.indptr[0] != 0:
            raise ValueError("indptr must be 1-D and start at 0")
        if int(self.indptr[-1]) != len(self.indices):
            raise ValueError("indptr[-1] must equal len(indices)")
        if len(self.indices) != len(self.weights):
            raise ValueError("indices and weights must have equal length")
        if np.any(np.diff(self.indptr) < 0):
            raise ValueError("indptr must be non-decreasing")
        if len(self.indices) and (
            self.indices.min() < 0 or self.indices.max() >= self.num_vertices
        ):
            raise ValueError("neighbor index out of range")
        if len(self.weights) and not (
            self.weights.min() > 0 and self.weights.max() < np.inf
        ):
            raise ValueError("arc weights must be finite and positive")
        if self.t_indptr is None:
            if self.directed:
                self.t_indptr, self.t_indices, self.t_weights = _transpose(
                    self.indptr, self.indices, self.weights, self.num_vertices
                )
            else:
                self.t_indptr = self.indptr
                self.t_indices = self.indices
                self.t_weights = self.weights

    # ------------------------------------------------------------------
    # Size properties
    # ------------------------------------------------------------------
    @property
    def num_vertices(self) -> int:
        """Number of vertices ``n``."""
        return len(self.indptr) - 1

    @property
    def num_arcs(self) -> int:
        """Number of stored arcs (directed edges)."""
        return len(self.indices)

    @property
    def num_edges(self) -> int:
        """Number of semantic edges: arcs for directed, arcs/2 for undirected.

        Self-loops in undirected graphs are stored once and counted once.
        """
        if self.directed:
            return self.num_arcs
        loops = int(np.count_nonzero(self.indices == self._row_of_arcs()))
        return (self.num_arcs - loops) // 2 + loops

    def _row_of_arcs(self) -> np.ndarray:
        """Return, per arc, the source vertex id (expanded from indptr)."""
        return np.repeat(
            np.arange(self.num_vertices, dtype=np.int64), np.diff(self.indptr)
        )

    # ------------------------------------------------------------------
    # Adjacency access
    # ------------------------------------------------------------------
    def out_neighbors(self, u: int) -> tuple[np.ndarray, np.ndarray]:
        """Return ``(neighbor_ids, weights)`` views for vertex ``u``'s out-arcs."""
        lo, hi = self.indptr[u], self.indptr[u + 1]
        return self.indices[lo:hi], self.weights[lo:hi]

    def in_neighbors(self, u: int) -> tuple[np.ndarray, np.ndarray]:
        """Return ``(neighbor_ids, weights)`` views for vertex ``u``'s in-arcs."""
        lo, hi = self.t_indptr[u], self.t_indptr[u + 1]
        return self.t_indices[lo:hi], self.t_weights[lo:hi]

    def out_degree(self, u: int | None = None) -> np.ndarray | int:
        """Out-degree of one vertex, or the full degree array when ``u`` is None."""
        if u is None:
            return np.diff(self.indptr)
        return int(self.indptr[u + 1] - self.indptr[u])

    def in_degree(self, u: int | None = None) -> np.ndarray | int:
        """In-degree of one vertex, or the full in-degree array."""
        if u is None:
            return np.diff(self.t_indptr)
        return int(self.t_indptr[u + 1] - self.t_indptr[u])

    def out_strength(self) -> np.ndarray:
        """Sum of out-arc weights per vertex."""
        return np.bincount(
            self._row_of_arcs(), weights=self.weights, minlength=self.num_vertices
        )

    def in_strength(self) -> np.ndarray:
        """Sum of in-arc weights per vertex."""
        rows = np.repeat(
            np.arange(self.num_vertices, dtype=np.int64), np.diff(self.t_indptr)
        )
        return np.bincount(rows, weights=self.t_weights, minlength=self.num_vertices)

    @property
    def total_weight(self) -> float:
        """Sum of all arc weights."""
        return float(self.weights.sum())

    def arcs(self) -> Iterator[tuple[int, int, float]]:
        """Iterate stored arcs as ``(src, dst, weight)`` triples (slow path)."""
        for u in range(self.num_vertices):
            lo, hi = self.indptr[u], self.indptr[u + 1]
            for j in range(lo, hi):
                yield u, int(self.indices[j]), float(self.weights[j])

    def edge_array(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Return ``(src, dst, weight)`` arrays covering every stored arc."""
        return self._row_of_arcs(), self.indices.copy(), self.weights.copy()

    # ------------------------------------------------------------------
    # Derived graphs
    # ------------------------------------------------------------------
    def subgraph(self, vertices: np.ndarray) -> "CSRGraph":
        """Induced subgraph on ``vertices`` with ids relabelled to 0..k-1."""
        vertices = np.asarray(vertices, dtype=np.int64)
        remap = -np.ones(self.num_vertices, dtype=np.int64)
        remap[vertices] = np.arange(len(vertices))
        src, dst, w = self.edge_array()
        keep = (remap[src] >= 0) & (remap[dst] >= 0)
        from repro.graph.build import from_edge_array

        return from_edge_array(
            remap[src[keep]],
            remap[dst[keep]],
            w[keep],
            num_vertices=len(vertices),
            directed=self.directed,
            name=f"{self.name}#sub",
            input_is_arcs=True,
        )

    def validate(self) -> None:
        """Run full structural invariants; raises on violation.

        Intended for tests — checks CSR sortedness is *not* required, but
        transpose consistency and weight symmetry (undirected) are.
        """
        src, dst, w = self.edge_array()
        # transpose consistency: arc multiset of transpose == reversed arcs
        t_src = np.repeat(
            np.arange(self.num_vertices, dtype=np.int64), np.diff(self.t_indptr)
        )
        a = np.lexsort((dst, src))
        b = np.lexsort((t_src, self.t_indices))
        if not (
            np.array_equal(src[a], self.t_indices[b])
            and np.array_equal(dst[a], t_src[b])
            and np.allclose(w[a], self.t_weights[b])
        ):
            raise AssertionError("transpose adjacency inconsistent with forward")
        if not self.directed:
            # undirected: arc multiset must be symmetric
            fwd = np.lexsort((dst, src))
            rev = np.lexsort((src, dst))
            if not (
                np.array_equal(src[fwd], dst[rev])
                and np.array_equal(dst[fwd], src[rev])
                and np.allclose(w[fwd], w[rev])
            ):
                raise AssertionError("undirected graph is not arc-symmetric")

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        kind = "directed" if self.directed else "undirected"
        return (
            f"CSRGraph(name={self.name!r}, n={self.num_vertices}, "
            f"arcs={self.num_arcs}, {kind})"
        )


def canonical_rows(indptr: np.ndarray, indices: np.ndarray) -> bool:
    """Whether every row is strictly increasing by destination.

    That is the *canonical* CSR: rows sorted, no duplicate arcs — what
    :mod:`repro.graph.build`, :mod:`repro.graph.stream` and
    :meth:`repro.service.delta.Delta.apply` produce, and the storage
    order :func:`repro.service.cache.graph_digest` hashes.  ``indptr``
    may be a run of rows ``indptr[r0:r1 + 1]`` of a larger CSR, with
    ``indices`` the matching ``indices[indptr[r0]:indptr[r1]]``, so a
    caller can check a big graph one chunk of rows at a time.
    """
    if len(indices) < 2:
        return True
    rising = indices[1:] > indices[:-1]
    starts = indptr[1:-1] - indptr[0]
    # a row's first arc is not compared with the previous row's last
    rising[starts[(starts > 0) & (starts < len(indices))] - 1] = True
    return bool(rising.all())


def _transpose(
    indptr: np.ndarray, indices: np.ndarray, weights: np.ndarray, n: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Build the transposed CSR via a counting sort over destination ids."""
    counts = np.bincount(indices, minlength=n)
    t_indptr = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(counts, out=t_indptr[1:])
    order = np.argsort(indices, kind="stable")
    src = np.repeat(np.arange(n, dtype=np.int64), np.diff(indptr))
    t_indices = src[order]
    t_weights = weights[order]
    return t_indptr, t_indices, t_weights
