"""Edge deltas — what a ``delta`` job applies to its base graph.

A :class:`Delta` is an ordered sequence of edge operations::

    [["add", u, v, weight], ["remove", u, v], ...]

applied to a base graph before an incremental refresh
(:func:`repro.core.dynamic.warm_refresh`).  ``add`` inserts an edge or
reinforces an existing one (duplicate weights sum — the same coalescing
rule :mod:`repro.graph.build` applies); ``remove`` deletes an edge
entirely and fails if it is absent.  Order matters: removing an edge and
re-adding it is not a no-op for the weight it re-enters with.

Two validation layers, mirroring the jobsfile convention:

* :meth:`Delta.from_json` checks the *shape* (op names, arities, types)
  and raises ``ValueError`` prefixed with its ``where`` coordinate —
  a malformed delta line fails the whole file fast with a line number;
* :meth:`Delta.validate` checks the *values* against a vertex universe
  (ranges, finite positive weights) — admission control's job, so one
  bad job rejects structurally instead of blocking the batch.

:meth:`Delta.digest` is the content address the ``delta/v1`` cache key
(:func:`repro.service.cache.cache_key`) combines with the base graph's
digest: the exact op sequence is hashed, so two jobs share a key iff
they apply the same updates to the same base under the same params.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass

import numpy as np

from repro.graph.build import coalesce_arcs
from repro.graph.csr import CSRGraph, canonical_rows
from repro.util.validation import is_int, is_number

__all__ = ["DELTA_OPS", "Delta"]

DELTA_OPS = ("add", "remove")


@dataclass(frozen=True)
class Delta:
    """An ordered, immutable sequence of edge operations.

    ``ops`` entries are ``("add", u, v, weight)`` or ``("remove", u, v)``
    tuples.  Build via :meth:`from_json` (shape-validating) or pass
    canonical tuples directly and let :meth:`validate` check them.
    """

    ops: tuple[tuple, ...]

    # ------------------------------------------------------------ build
    @staticmethod
    def from_json(obj, where: str = "delta") -> "Delta":
        """Shape-check a decoded JSON delta and build the canonical form.

        Raises ``ValueError`` prefixed with ``where`` (the jobsfile
        passes ``path:lineno`` so malformed lines fail fast with their
        coordinate).
        """
        if not isinstance(obj, list) or not obj:
            raise ValueError(
                f"{where}: 'delta' must be a non-empty array of ops, "
                f"got {type(obj).__name__}"
            )
        ops: list[tuple] = []
        for i, op in enumerate(obj):
            at = f"{where}: delta op {i}"
            if not isinstance(op, list):
                raise ValueError(
                    f"{at}: expected an array, got {type(op).__name__}"
                )
            if not op or op[0] not in DELTA_OPS:
                head = op[0] if op else None
                raise ValueError(
                    f"{at}: op name must be one of {DELTA_OPS}, "
                    f"got {head!r}"
                )
            name = op[0]
            if name == "add":
                if len(op) not in (3, 4):
                    raise ValueError(
                        f"{at}: 'add' takes [u, v] or [u, v, weight], "
                        f"got {len(op) - 1} argument(s)"
                    )
                u, v = op[1], op[2]
                w = op[3] if len(op) == 4 else 1.0
                if not (is_int(u) and is_int(v)):
                    raise ValueError(f"{at}: vertex ids must be integers")
                if not is_number(w):
                    raise ValueError(f"{at}: weight must be a number")
                try:
                    w = float(w)
                except OverflowError:
                    raise ValueError(
                        f"{at}: weight does not fit a float"
                    ) from None
                ops.append(("add", u, v, w))
            else:
                if len(op) != 3:
                    raise ValueError(
                        f"{at}: 'remove' takes [u, v], "
                        f"got {len(op) - 1} argument(s)"
                    )
                u, v = op[1], op[2]
                if not (is_int(u) and is_int(v)):
                    raise ValueError(f"{at}: vertex ids must be integers")
                ops.append(("remove", u, v))
        return Delta(ops=tuple(ops))

    def to_json(self) -> list:
        """The JSONL spelling (inverse of :meth:`from_json`)."""
        return [list(op) for op in self.ops]

    # --------------------------------------------------------- validate
    def validate(self, num_vertices: int) -> None:
        """Value-check every op against a vertex universe.

        Raises ``ValueError`` describing the first invalid op — what
        admission control converts into a structured rejection.
        """
        if not isinstance(self.ops, tuple) or not self.ops:
            raise ValueError("delta must contain at least one op")
        for i, op in enumerate(self.ops):
            if not isinstance(op, tuple) or not op or op[0] not in DELTA_OPS:
                raise ValueError(
                    f"delta op {i} must be an ('add'|'remove', ...) tuple"
                )
            if op[0] == "add":
                if len(op) != 4:
                    raise ValueError(
                        f"delta op {i}: 'add' needs (op, u, v, weight)"
                    )
                _, u, v, w = op
                # JSON decodes NaN and Infinity: NaN <= 0 is false
                if not isinstance(w, (int, float)) or not 0 < w < math.inf:
                    raise ValueError(
                        f"delta op {i}: weight must be finite and "
                        f"positive, got {w!r}"
                    )
            else:
                if len(op) != 3:
                    raise ValueError(
                        f"delta op {i}: 'remove' needs (op, u, v)"
                    )
                _, u, v = op
            if not (is_int(u) and is_int(v)):
                raise ValueError(f"delta op {i}: vertex ids must be integers")
            if not (0 <= u < num_vertices and 0 <= v < num_vertices):
                raise ValueError(
                    f"delta op {i}: vertex out of range ({u}, {v}) for "
                    f"{num_vertices} vertices"
                )

    # ------------------------------------------------------------ apply
    def dirty_vertices(self) -> np.ndarray:
        """Every vertex an op touches (the warm refresh's dirty set)."""
        flat: list[int] = []
        for op in self.ops:
            flat.append(op[1])
            flat.append(op[2])
        return np.unique(np.array(flat, dtype=np.int64))

    def apply(self, graph: CSRGraph) -> CSRGraph:
        """The updated graph: ``graph`` with every op applied in order.

        An arc patch, vectorized O(m) plus O(ops) Python: the edge list
        (undirected: each edge's ``src <= dst`` arc, whose weight both
        arcs of the result take) comes straight from the arrays of a
        canonical CSR (:func:`~repro.graph.csr.canonical_rows`; any
        other CSR is coalesced first, duplicate arcs summed in storage
        order), one ``searchsorted`` finds the edges the ops touch, and
        only the ops are replayed in Python, on those edges.  The result
        is bit-identical to rebuilding the whole edge set with
        :func:`~repro.graph.build.from_edge_array`
        (``tests/test_delta.py`` pins it against that rebuild).

        Raises ``ValueError`` when a ``remove`` names an absent edge
        (executed jobs report this as a structured failure).
        """
        n = graph.num_vertices
        directed = graph.directed
        src, dst, w = graph.edge_array()
        if not directed:
            # each undirected edge once (loops once)
            upper = np.flatnonzero(src <= dst)
            src, dst, w = src[upper], dst[upper], w[upper]
        if not canonical_rows(graph.indptr, graph.indices):
            src, dst, w = coalesce_arcs(src, dst, w, n)
        keys = src * n + dst  # strictly increasing: one entry per edge

        def edge(u, v):
            return (u, v) if directed or u <= v else (v, u)

        # the edges the ops touch (in range: the rest raise below), with
        # their base weights
        pairs = [edge(op[1], op[2]) for op in self.ops
                 if 0 <= op[1] < n and 0 <= op[2] < n]
        wanted = np.unique(
            np.array([u * n + v for u, v in pairs], dtype=np.int64)
        )
        at = np.searchsorted(keys, wanted)
        found = at < len(keys)
        found[found] = keys[at[found]] == wanted[found]
        at = at[found]
        touched = dict(zip(wanted[found].tolist(), w[at].tolist()))

        for i, op in enumerate(self.ops):
            u, v = op[1], op[2]
            if not (0 <= u < n and 0 <= v < n):
                raise ValueError(
                    f"delta op {i}: vertex out of range ({u}, {v})"
                )
            pair = edge(u, v)
            key = pair[0] * n + pair[1]
            if op[0] == "add":
                touched[key] = touched.get(key, 0.0) + op[3]
            else:
                if key not in touched:
                    raise ValueError(
                        f"delta op {i}: cannot remove absent edge {pair}"
                    )
                del touched[key]

        # splice: drop every touched base edge, insert the survivors
        keys, w = np.delete(keys, at), np.delete(w, at)
        patched = sorted(touched)
        at = np.searchsorted(keys, patched)
        keys = np.insert(keys, at, patched)
        w = np.insert(w, at, [touched[k] for k in patched])
        src, dst = keys // n, keys % n
        if not directed:
            # both arcs of each edge, with the edge's weight
            mirror = np.flatnonzero(src != dst)
            src, dst = (np.concatenate([src, dst[mirror]]),
                        np.concatenate([dst, src[mirror]]))
            w = np.concatenate([w, w[mirror]])
            order = np.argsort(src * n + dst)  # keys unique: one order
            src, dst, w = src[order], dst[order], w[order]
        indptr = np.zeros(n + 1, dtype=np.int64)
        np.cumsum(np.bincount(src, minlength=n), out=indptr[1:])
        return CSRGraph(
            indptr=indptr, indices=dst, weights=w, directed=directed,
            name=f"{graph.name}+delta",
        )

    # ----------------------------------------------------------- digest
    def digest(self) -> str:
        """SHA-256 over the exact op sequence (the ``delta/v1`` half of
        a delta job's cache key)."""
        h = hashlib.sha256()
        h.update(f"delta/v1:{len(self.ops)}:".encode())
        for op in self.ops:
            if op[0] == "add":
                h.update(f"a:{op[1]}:{op[2]}:{float(op[3])!r};".encode())
            else:
                h.update(f"r:{op[1]}:{op[2]};".encode())
        return h.hexdigest()

    def __len__(self) -> int:
        return len(self.ops)
