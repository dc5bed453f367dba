"""JSONL job files — the batch format ``repro serve`` consumes.

One job per line, e.g.::

    {"dataset": "amazon", "engine": "parallel", "workers": 4, "seed": 0}
    {"edge_list": "my.txt", "directed": false, "engine": "vectorized",
     "workers": 1}
    {"planted": {"communities": 4, "size": 20, "p_in": 0.45,
     "p_out": 0.02, "seed": 7}, "priority": 2, "deadline": 30.0}

Exactly one graph source per line — ``dataset`` (a Table I surrogate
name), ``edge_list`` (a path, with optional ``directed``), ``planted``
(an inline planted-partition recipe, handy for smokes and CI), or
``edges`` (a fully inline graph, the only spelling that survives a
socket hop losslessly: unlike an edge-list file it carries
``num_vertices``, so isolated vertices are preserved and the received
graph digests identically to the sender's)::

    {"edges": {"num_vertices": 5, "directed": false,
     "arcs": [[0, 1], [1, 2, 2.0]]}, "engine": "vectorized",
     "workers": 1}

— plus any :class:`~repro.service.jobs.JobSpec` field by name.

A **delta job** adds a ``delta`` array of edge operations applied to
the line's graph before an incremental refresh (and optionally a
``base_key`` pinning the warm-start partition)::

    {"dataset": "amazon", "engine": "vectorized", "workers": 1,
     "delta": [["add", 0, 5, 1.0], ["remove", 3, 4]]}

Delta *shape* problems (bad op name, wrong arity, non-integer vertex)
are file-level and fail fast with the line number; op *values* (vertex
range, weight sign) are admission control's business like every other
spec field.

File-level problems (bad JSON, unknown keys, missing graph source) fail
fast with the line number: a batch driver should refuse a file it
cannot fully parse.  *Job*-level problems (bad tau, bad engine) are
left for the service's admission control to reject structurally, so
one invalid job never blocks the rest of the file.
"""

from __future__ import annotations

import json

from repro.graph.csr import CSRGraph
from repro.service.delta import Delta
from repro.service.jobs import JobSpec
from repro.util.validation import is_int, is_number

__all__ = ["load_jobs", "append_job", "spec_fields_from_json"]

#: JobSpec fields settable from a JSONL line (graph comes from the
#: graph-source keys, which are handled separately)
_SPEC_KEYS = (
    "engine", "workers", "seed", "tau", "max_levels",
    "max_passes_per_level", "priority", "deadline",
    "use_cache", "fault_plan", "worker_timeout", "label", "delta",
    "base_key",
)
_GRAPH_KEYS = ("dataset", "edge_list", "planted", "edges")
_FILE_KEYS = _SPEC_KEYS + _GRAPH_KEYS + ("directed",)


def spec_fields_from_json(obj: dict, where: str = "job") -> dict:
    """Validate the *shape* of one decoded JSONL object.

    Returns the JobSpec keyword subset; raises ``ValueError`` for
    unknown keys or a missing/ambiguous graph source.  Field *values*
    are deliberately not validated here — admission control owns that.
    """
    if not isinstance(obj, dict):
        raise ValueError(f"{where}: expected a JSON object, got "
                         f"{type(obj).__name__}")
    unknown = sorted(set(obj) - set(_FILE_KEYS))
    if unknown:
        raise ValueError(f"{where}: unknown key(s) {unknown}; "
                         f"valid keys: {sorted(_FILE_KEYS)}")
    sources = [k for k in _GRAPH_KEYS if k in obj]
    if len(sources) != 1:
        raise ValueError(
            f"{where}: need exactly one graph source of {_GRAPH_KEYS}, "
            f"got {sources or 'none'}"
        )
    if "directed" in obj and sources != ["edge_list"]:
        raise ValueError(f"{where}: 'directed' only applies to 'edge_list'")
    fields = {k: obj[k] for k in _SPEC_KEYS if k in obj}
    if "delta" in fields:
        # malformed delta *shape* is a file-level problem (fail fast
        # with the line number); op values are admission's business
        fields["delta"] = Delta.from_json(fields["delta"], where=where)
    return fields


def _check_edges_recipe(recipe, where: str) -> None:
    """Shape-check an inline ``edges`` graph (file-level, fail fast)."""
    if not isinstance(recipe, dict):
        raise ValueError(f"{where}: 'edges' must be an object, got "
                         f"{type(recipe).__name__}")
    unknown = sorted(set(recipe) - {"arcs", "num_vertices", "directed",
                                    "name"})
    if unknown:
        raise ValueError(f"{where}: unknown 'edges' key(s) {unknown}")
    arcs = recipe.get("arcs")
    if not isinstance(arcs, list):
        raise ValueError(f"{where}: 'edges' needs an 'arcs' array")
    for i, arc in enumerate(arcs):
        if (not isinstance(arc, list) or len(arc) not in (2, 3)
                or not all(is_int(x) for x in arc[:2])
                or not all(is_number(x) for x in arc[2:])):
            raise ValueError(
                f"{where}: arc {i} must be [u, v] or [u, v, weight] with "
                f"integer u and v, got {arc!r}"
            )
    nv = recipe.get("num_vertices")
    if nv is not None and (not is_int(nv) or nv < 1):
        raise ValueError(f"{where}: 'num_vertices' must be an int >= 1")
    _check_directed(recipe, where)


def _check_directed(obj: dict, where: str) -> None:
    """``directed`` must be a JSON boolean: ``bool("no")`` is ``True``."""
    if not isinstance(obj.get("directed", False), bool):
        raise ValueError(f"{where}: 'directed' must be true or false, "
                         f"got {obj['directed']!r}")


class _GraphResolver:
    """Load each distinct graph source once per file."""

    def __init__(self) -> None:
        self._cache: dict[tuple, CSRGraph] = {}

    def resolve(self, obj: dict, where: str) -> CSRGraph:
        if "dataset" in obj:
            if not isinstance(obj["dataset"], str):
                raise ValueError(f"{where}: 'dataset' must be a name string")
            key = ("dataset", obj["dataset"])
        elif "edges" in obj:
            recipe = obj["edges"]
            _check_edges_recipe(recipe, where)
            key = ("edges", json.dumps(recipe, sort_keys=True))
        elif "edge_list" in obj:
            if not isinstance(obj["edge_list"], str):
                raise ValueError(f"{where}: 'edge_list' must be a path string")
            _check_directed(obj, where)
            key = ("edge_list", obj["edge_list"], obj.get("directed", False))
        else:
            recipe = obj["planted"]
            if not isinstance(recipe, dict):
                raise ValueError(f"{where}: 'planted' must be an object")
            # every planted_partition parameter is a number or a string
            bad = sorted(k for k, v in recipe.items()
                         if not (is_number(v) or isinstance(v, str)))
            if bad:
                raise ValueError(f"{where}: 'planted' values must be "
                                 f"numbers or strings; {bad} are not")
            key = ("planted", tuple(sorted(recipe.items())))
        graph = self._cache.get(key)
        if graph is not None:
            return graph
        if key[0] == "dataset":
            from repro.graph.datasets import load_dataset

            try:
                graph = load_dataset(obj["dataset"])
            except KeyError as exc:  # unknown name
                raise ValueError(f"{where}: {exc.args[0]}") from None
        elif key[0] == "edges":
            from repro.graph.build import from_edges

            recipe = obj["edges"]
            try:
                graph = from_edges(
                    [tuple(a) for a in recipe["arcs"]],
                    num_vertices=recipe.get("num_vertices"),
                    directed=recipe.get("directed", False),
                    name=str(recipe.get("name", "inline")),
                )
            except (ValueError, OverflowError, MemoryError) as exc:
                # OverflowError: an id or count past int64; MemoryError:
                # a count numpy cannot allocate
                raise ValueError(f"{where}: bad 'edges' graph: {exc}")
        elif key[0] == "edge_list":
            from repro.graph.io import read_edge_list

            graph, _ = read_edge_list(
                obj["edge_list"], directed=obj.get("directed", False)
            )
        else:
            from repro.graph.generators import planted_partition

            recipe = dict(obj["planted"])
            try:
                graph, _ = planted_partition(
                    recipe.pop("communities"), recipe.pop("size"),
                    recipe.pop("p_in"), recipe.pop("p_out"),
                    seed=recipe.pop("seed", 0), **recipe,
                )
            except (KeyError, TypeError, OverflowError, MemoryError) as exc:
                raise ValueError(f"{where}: bad 'planted' recipe: {exc}")
        self._cache[key] = graph
        return graph


def load_jobs(path: str) -> list[JobSpec]:
    """Parse a JSONL jobs file into specs, resolving graphs.

    Raises ``ValueError`` naming ``path`` and the 1-based line number
    for anything the file format cannot express; per-job parameter
    validity is left to admission control.
    """
    resolver = _GraphResolver()
    specs: list[JobSpec] = []
    with open(path, "rb") as fh:
        for lineno, raw in enumerate(fh, start=1):
            where = f"{path}:{lineno}"
            try:
                line = raw.decode("utf-8").strip()
            except UnicodeDecodeError as exc:
                raise ValueError(f"{where}: not UTF-8: {exc}") from None
            if not line or line.startswith("#"):
                continue
            try:
                obj = json.loads(line)
            except (json.JSONDecodeError, RecursionError) as exc:
                raise ValueError(f"{where}: not JSON: {exc}") from None
            fields = spec_fields_from_json(obj, where=where)
            graph = resolver.resolve(obj, where)
            specs.append(JobSpec(graph=graph, **fields))
    return specs


def append_job(path: str, obj: dict) -> dict:
    """Shape-check ``obj`` and append it as one JSONL line (the
    ``repro submit`` spelling).  Returns the object as written."""
    spec_fields_from_json(obj, where="job")
    compact = {k: v for k, v in obj.items() if v is not None}
    with open(path, "a") as fh:
        fh.write(json.dumps(compact, sort_keys=True) + "\n")
    return compact
