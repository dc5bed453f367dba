"""Memory-lean streaming surrogate generators over shared-memory CSR.

The eager generators in :mod:`repro.graph.generators` materialize the
whole edge list (plus its mirrored copy, plus the coalesce scratch) in
process heap before a single CSR byte exists — fine at the Table I
surrogate sizes, hopeless at the paper's scale (Orkut is 117M edges).
This module builds multi-million-arc graphs **directly into a
:mod:`repro.core.arena` shared-memory segment**, so

* peak heap above the arena is bounded by a fixed generation block and
  a canonicalization chunk (no ``O(arcs)`` Python-object or numpy edge
  list ever exists),
* the finished CSR already lives where :mod:`repro.core.parallel`
  workers would map it, and
* the content digest the ledger/cache keys need
  (:func:`repro.service.cache.graph_digest`) is computed by streaming
  over the canonical rows — :func:`streamed_digest` is byte-identical
  to the eager digest without an ``edge_array()`` materialization.

Determinism contract
--------------------

Edges are generated in **fixed logical blocks** of
:data:`STREAM_BLOCK_EDGES` edges; block ``b`` draws from
``default_rng(SeedSequence([seed, b]))``.  Graph content is therefore a
pure function of ``(recipe params, seed)`` — independent of
``chunk_arcs`` (a memory knob, not a content knob) and stable across
processes and hosts.  The streamed families are deliberately *distinct*
from the eager ones (different draw order), so they carry their own
names; digest equality is tested against :func:`eager_rmat_like` /
:func:`eager_chung_lu_like`, which replay the same blocks through the
eager :func:`repro.graph.build.from_edge_array` pipeline.

Assembly pipeline (three passes over the blocks, one over the rows):

1. **count** — regenerate each block, drop self-loops, accumulate
   per-vertex out-degrees (mirroring undirected edges);
2. **fill** — allocate the arena (``indptr`` + ``indices`` +
   ``weights``), cumsum the degree counts into ``indptr``, regenerate
   each block and scatter its arcs into their rows with a cursor array;
3. **canonicalize** — per row-chunk, sort each row by destination and
   coalesce duplicate arcs by summing weights, compacting the arrays
   in place (the write cursor never passes the read cursor);
4. **digest** — stream the canonical rows through SHA-256 in the same
   byte order :func:`~repro.service.cache.graph_digest` hashes.

``tests/test_stream_generators.py`` pins determinism, chunk-size
invariance, streamed-vs-eager digest equality, and the bounded-RSS
claim (a subprocess building a ~1M-arc stream must not regress to
materialized edge lists).
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass
from multiprocessing import shared_memory

import numpy as np

from repro.core import arena
from repro.graph.csr import CSRGraph, canonical_rows
from repro.util.validation import check_positive, check_probability

__all__ = [
    "STREAM_BLOCK_EDGES",
    "DEFAULT_CHUNK_ARCS",
    "StreamedGraph",
    "stream_rmat",
    "stream_chung_lu",
    "eager_rmat_like",
    "eager_chung_lu_like",
    "streamed_digest",
    "BIGSCALE_RECIPES",
    "stream_recipe",
    "recipe_names",
]

#: edges per logical generation block — **content-determining** (block
#: ``b`` is seeded ``SeedSequence([seed, b])``), therefore a constant,
#: not a parameter.  262144 edges ≈ 4 MiB of (src, dst) per block.
STREAM_BLOCK_EDGES = 1 << 18

#: arcs per canonicalization/digest chunk — a pure memory knob; any
#: value yields the identical graph and digest.
DEFAULT_CHUNK_ARCS = 1 << 20


@dataclass
class StreamedGraph:
    """A CSR graph whose arrays live in one shared-memory arena.

    The arena is owned by this object: :meth:`release` (or use as a
    context manager) unlinks the segment.  After release the ``graph``
    views are invalid — callers that need the partition longer than the
    graph should copy what they keep.
    """

    graph: CSRGraph | None
    digest: str
    name: str
    #: arcs allocated before duplicate coalescing (the arena was sized
    #: for these; ``graph.num_arcs`` is what survived)
    arcs_allocated: int
    arena_bytes: int
    _shm: shared_memory.SharedMemory | None = None

    def release(self) -> None:
        """Unlink the arena (idempotent).  Invalidates ``self.graph``."""
        shm, self._shm = self._shm, None
        if shm is None:
            return
        self.graph = None
        try:
            arena.release_arena(shm)
        except BufferError:
            # numpy views escaped: the mapping cannot close yet, but the
            # segment file can still be unlinked so nothing leaks in
            # /dev/shm; the mapping dies with the last view.
            try:
                shm.unlink()
            except (FileNotFoundError, OSError):  # pragma: no cover
                pass

    def __enter__(self) -> "StreamedGraph":
        return self

    def __exit__(self, *exc) -> None:
        self.release()

    def __del__(self) -> None:  # pragma: no cover - GC safety net
        try:
            self.release()
        except Exception:
            pass


# ------------------------------------------------------------ generators

def _check_seed(seed: int) -> int:
    if not isinstance(seed, (int, np.integer)) or seed < 0:
        raise ValueError(
            "streaming generators need a non-negative integer seed "
            "(block b draws from SeedSequence([seed, b]))"
        )
    return int(seed)


def _block_rng(seed: int, block: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence([seed, block]))


def _rmat_blocks(
    scale: int, edge_factor: int, a: float, b: float, c: float, seed: int
):
    """Return ``(n, num_edges, block_fn)`` for a block-seeded R-MAT."""
    check_positive("scale", scale)
    check_positive("edge_factor", edge_factor)
    check_probability("a", a)
    check_probability("b", b)
    check_probability("c", c)
    if a + b + c >= 1.0:
        raise ValueError("require a + b + c < 1 (d = 1-a-b-c > 0)")
    seed = _check_seed(seed)
    n = 1 << scale
    m = edge_factor * n
    ab = a + b
    abc = a + b + c

    def block_fn(block: int, lo: int, hi: int):
        rng = _block_rng(seed, block)
        cnt = hi - lo
        src = np.zeros(cnt, dtype=np.int64)
        dst = np.zeros(cnt, dtype=np.int64)
        for level in range(scale):
            r = rng.random(cnt)
            right = r >= ab
            bottom = ((r >= a) & (r < ab)) | (r >= abc)
            src |= right.astype(np.int64) << level
            dst |= bottom.astype(np.int64) << level
        return src, dst

    return n, m, block_fn


def _chung_lu_blocks(degrees: np.ndarray, seed: int):
    """Return ``(n, num_edges, block_fn)`` for a block-seeded Chung-Lu."""
    degrees = np.asarray(degrees, dtype=np.float64)
    if np.any(degrees < 0):
        raise ValueError("degrees must be non-negative")
    seed = _check_seed(seed)
    n = len(degrees)
    total = float(degrees.sum())
    if total <= 0:
        raise ValueError("degree sequence sums to zero")
    m = int(round(total / 2.0))
    cdf = np.cumsum(degrees)
    cdf /= cdf[-1]

    def block_fn(block: int, lo: int, hi: int):
        rng = _block_rng(seed, block)
        cnt = hi - lo
        src = np.searchsorted(cdf, rng.random(cnt), side="right")
        dst = np.searchsorted(cdf, rng.random(cnt), side="right")
        return src.astype(np.int64), dst.astype(np.int64)

    return n, m, block_fn


def stream_rmat(
    scale: int,
    edge_factor: int = 16,
    a: float = 0.57,
    b: float = 0.19,
    c: float = 0.19,
    seed: int = 0,
    directed: bool = False,
    name: str = "rmat-stream",
    chunk_arcs: int = DEFAULT_CHUNK_ARCS,
) -> StreamedGraph:
    """Stream a Graph500-style R-MAT graph into a shared-memory arena.

    Same quadrant recursion as :func:`repro.graph.generators.rmat`, but
    block-seeded (see module docstring) and assembled without an edge
    list.  ``edge_factor * 2**scale`` edge draws; self-loops dropped,
    duplicate arcs coalesced by weight.
    """
    n, m, block_fn = _rmat_blocks(scale, edge_factor, a, b, c, seed)
    return _assemble(n, m, block_fn, directed, name, chunk_arcs)


def stream_chung_lu(
    degrees: np.ndarray,
    seed: int = 0,
    name: str = "chung-lu-stream",
    chunk_arcs: int = DEFAULT_CHUNK_ARCS,
) -> StreamedGraph:
    """Stream a Chung-Lu (configuration-model surrogate) graph.

    Endpoints are drawn degree-proportionally via inverse-CDF sampling
    (``searchsorted`` on the cumulative degree mass — O(log n) per
    endpoint, no ``rng.choice(p=...)`` table), block-seeded, assembled
    arena-side.  ``degrees`` itself is an O(n) array — the streaming
    bound is on the O(arcs) structures, which never touch the heap.
    """
    n, m, block_fn = _chung_lu_blocks(degrees, seed)
    return _assemble(n, m, block_fn, False, name, chunk_arcs)


def eager_rmat_like(
    scale: int,
    edge_factor: int = 16,
    a: float = 0.57,
    b: float = 0.19,
    c: float = 0.19,
    seed: int = 0,
    directed: bool = False,
    name: str = "rmat-stream",
) -> CSRGraph:
    """Eagerly build the *same* graph :func:`stream_rmat` streams.

    Replays the identical seeded blocks through
    :func:`repro.graph.build.from_edge_array` — the digest-equality
    oracle for tests.  O(edges) heap; small graphs only.
    """
    n, m, block_fn = _rmat_blocks(scale, edge_factor, a, b, c, seed)
    return _eager(n, m, block_fn, directed, name)


def eager_chung_lu_like(
    degrees: np.ndarray, seed: int = 0, name: str = "chung-lu-stream"
) -> CSRGraph:
    """Eager twin of :func:`stream_chung_lu` (tests' digest oracle)."""
    n, m, block_fn = _chung_lu_blocks(degrees, seed)
    return _eager(n, m, block_fn, False, name)


def _eager(n, num_edges, block_fn, directed, name) -> CSRGraph:
    from repro.graph.build import from_edge_array

    srcs, dsts = [], []
    for blk, lo, hi in _block_ranges(num_edges):
        s, d = block_fn(blk, lo, hi)
        keep = s != d
        srcs.append(s[keep])
        dsts.append(d[keep])
    src = np.concatenate(srcs) if srcs else np.empty(0, np.int64)
    dst = np.concatenate(dsts) if dsts else np.empty(0, np.int64)
    return from_edge_array(
        src, dst, num_vertices=n, directed=directed, name=name
    )


# -------------------------------------------------------------- assembly

def _block_ranges(num_edges: int):
    blocks = math.ceil(num_edges / STREAM_BLOCK_EDGES)
    for b in range(blocks):
        lo = b * STREAM_BLOCK_EDGES
        yield b, lo, min(lo + STREAM_BLOCK_EDGES, num_edges)


def _scatter(src, dst, cursor, indices) -> None:
    """Write each arc of the block to its row's next free slot."""
    order = np.argsort(src, kind="stable")
    ss = src[order]
    dd = dst[order]
    # rank of each arc within its equal-src run (ss is sorted)
    first = np.searchsorted(ss, ss, side="left")
    pos = cursor[ss] + (np.arange(len(ss), dtype=np.int64) - first)
    indices[pos] = dd
    cursor += np.bincount(src, minlength=len(cursor))


def _assemble(
    n: int,
    num_edges: int,
    block_fn,
    directed: bool,
    name: str,
    chunk_arcs: int,
) -> StreamedGraph:
    if chunk_arcs < 1:
        raise ValueError("chunk_arcs must be >= 1")

    # pass 1 — count degrees (regenerable blocks, nothing retained)
    deg = np.zeros(n, dtype=np.int64)
    for blk, lo, hi in _block_ranges(num_edges):
        s, d = block_fn(blk, lo, hi)
        keep = s != d
        s, d = s[keep], d[keep]
        deg += np.bincount(s, minlength=n)
        if not directed:
            deg += np.bincount(d, minlength=n)
    total_arcs = int(deg.sum())

    # allocate the arena: indptr | indices | weights, 8-byte aligned
    indptr_bytes = (n + 1) * 8
    arena_bytes = indptr_bytes + total_arcs * 8 * 2
    shm = arena.create_arena(max(arena_bytes, 1))
    try:
        indptr = np.ndarray((n + 1,), dtype=np.int64, buffer=shm.buf)
        indices = np.ndarray(
            (total_arcs,), dtype=np.int64, buffer=shm.buf,
            offset=indptr_bytes,
        )
        weights = np.ndarray(
            (total_arcs,), dtype=np.float64, buffer=shm.buf,
            offset=indptr_bytes + total_arcs * 8,
        )
        indptr[0] = 0
        np.cumsum(deg, out=indptr[1:])

        # pass 2 — fill rows (cursor = next free slot per row)
        cursor = indptr[:-1].copy()
        for blk, lo, hi in _block_ranges(num_edges):
            s, d = block_fn(blk, lo, hi)
            keep = s != d
            s, d = s[keep], d[keep]
            if not directed:
                s, d = np.concatenate([s, d]), np.concatenate([d, s])
            _scatter(s, d, cursor, indices)
        del cursor

        # pass 3 — canonicalize rows in place: sort by dst, coalesce
        # duplicates (weight = multiplicity), compact left
        new_counts = np.zeros(n, dtype=np.int64)
        write = 0
        r0 = 0
        while r0 < n:
            r1 = int(
                np.searchsorted(indptr, indptr[r0] + chunk_arcs, side="right")
            ) - 1
            r1 = min(max(r1, r0 + 1), n)
            lo, hi = int(indptr[r0]), int(indptr[r1])
            if hi == lo:
                r0 = r1
                continue
            counts = np.diff(indptr[r0:r1 + 1])
            rows = np.repeat(np.arange(r1 - r0, dtype=np.int64), counts)
            d = indices[lo:hi]
            key = rows * np.int64(n) + d
            order = np.argsort(key, kind="stable")
            ks = key[order]
            first = np.empty(len(ks), dtype=bool)
            first[0] = True
            np.not_equal(ks[1:], ks[:-1], out=first[1:])
            group = np.cumsum(first) - 1
            w = np.bincount(group).astype(np.float64)
            dsel = d[order][first]
            rowsel = rows[order][first]
            new_counts[r0:r1] = np.bincount(rowsel, minlength=r1 - r0)
            L = len(dsel)
            # safe: write never passes the chunk's read window start
            indices[write:write + L] = dsel
            weights[write:write + L] = w
            write += L
            r0 = r1
        indptr[0] = 0
        np.cumsum(new_counts, out=indptr[1:])

        graph = CSRGraph(
            indptr=indptr,
            indices=indices[:write],
            weights=weights[:write],
            directed=directed,
            name=name,
        )
        digest = streamed_digest(graph, chunk_arcs=chunk_arcs)
    except BaseException:
        arena.release_arena(shm)
        raise
    return StreamedGraph(
        graph=graph,
        digest=digest,
        name=name,
        arcs_allocated=total_arcs,
        arena_bytes=max(arena_bytes, 1),
        _shm=shm,
    )


# --------------------------------------------------------------- digest

def streamed_digest(
    graph: CSRGraph, chunk_arcs: int = DEFAULT_CHUNK_ARCS
) -> str:
    """:func:`repro.service.cache.graph_digest`, byte-identical, in
    O(chunk) memory.

    The eager digest hashes the arc multiset sorted by ``(src, dst)``
    with duplicates coalesced — for a *canonical* CSR
    (:func:`~repro.graph.csr.canonical_rows`: everything built by
    :mod:`repro.graph.build` or this module) that order is exactly
    storage order, so the three arrays can be streamed straight through
    SHA-256 one chunk of rows at a time.  Raises ``ValueError`` on a
    non-canonical CSR rather than hash the wrong byte stream.
    """
    indptr = graph.indptr
    n = graph.num_vertices
    h = hashlib.sha256()
    h.update(f"csr/v1:{n}:{int(graph.directed)}:".encode())

    def row_chunks():
        r0 = 0
        while r0 < n:
            r1 = int(
                np.searchsorted(indptr, indptr[r0] + chunk_arcs, side="right")
            ) - 1
            r1 = min(max(r1, r0 + 1), n)
            yield r0, r1, int(indptr[r0]), int(indptr[r1])
            r0 = r1

    for r0, r1, lo, hi in row_chunks():  # src, expanded per row
        if not canonical_rows(indptr[r0:r1 + 1], graph.indices[lo:hi]):
            raise ValueError(
                "streamed_digest needs a canonical CSR (rows sorted "
                "by destination, duplicates coalesced); use "
                "repro.service.cache.graph_digest instead"
            )
        counts = np.diff(indptr[r0:r1 + 1])
        rows = np.repeat(np.arange(r0, r1, dtype=np.int64), counts)
        h.update(np.ascontiguousarray(rows, dtype=np.int64).tobytes())
    for _r0, _r1, lo, hi in row_chunks():  # dst
        h.update(
            np.ascontiguousarray(
                graph.indices[lo:hi], dtype=np.int64
            ).tobytes()
        )
    for _r0, _r1, lo, hi in row_chunks():  # weights
        h.update(
            np.ascontiguousarray(
                graph.weights[lo:hi], dtype=np.float64
            ).tobytes()
        )
    return h.hexdigest()


# --------------------------------------------------------------- recipes

#: Named bigscale surrogates for benchmarks / CLI ``--surrogate``.
#: ``rmat_1m`` is the PR-path smoke floor (~1M arcs); ``rmat_7m`` is the
#: nightly paper-scale run (>=5M arcs); ``chunglu_2m`` exercises the
#: skewed configuration-model family at an intermediate size.
BIGSCALE_RECIPES: dict[str, dict] = {
    "rmat_1m": {"kind": "rmat", "scale": 15, "edge_factor": 19},
    "rmat_7m": {"kind": "rmat", "scale": 18, "edge_factor": 16},
    "chunglu_2m": {"kind": "chung_lu", "n": 1 << 17, "alpha": 2.1,
                   "min_degree": 4},
}


def recipe_names() -> list[str]:
    return sorted(BIGSCALE_RECIPES)


def stream_recipe(
    name: str, seed: int = 0, chunk_arcs: int = DEFAULT_CHUNK_ARCS
) -> StreamedGraph:
    """Build a named :data:`BIGSCALE_RECIPES` surrogate."""
    if name not in BIGSCALE_RECIPES:
        raise ValueError(
            f"unknown surrogate recipe {name!r}; "
            f"choose from {', '.join(recipe_names())}"
        )
    params = dict(BIGSCALE_RECIPES[name])
    kind = params.pop("kind")
    if kind == "rmat":
        return stream_rmat(
            seed=seed, name=name, chunk_arcs=chunk_arcs, **params
        )
    # chung_lu: degrees from the shared power-law sampler, seeded apart
    # from the edge stream so both are recipe-deterministic
    from repro.graph.generators import powerlaw_degree_sequence

    n = params.pop("n")
    degrees = powerlaw_degree_sequence(n, seed=seed, **params)
    return stream_chung_lu(degrees, seed=seed, name=name,
                           chunk_arcs=chunk_arcs)
