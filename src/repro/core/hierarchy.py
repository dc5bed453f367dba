"""Hierarchical Infomap: nested modules via the hierarchical map equation.

The two-level map equation (what the paper's HyPC-Map optimizes) is the
depth-1 special case of Rosvall & Bergstrom's hierarchical map equation
(PLoS ONE 2011): every module may carry its own codebook of submodules,
and the total codelength is

* a **root index** term over top-module enter rates,
* for every **internal** module ``m``: an index codebook used at rate
  ``exit_m + Σ_s enter_s`` over its exit word and its submodules' enter
  words,
* for every **leaf** module: the familiar two-level module term
  ``plogp(exit + flow) − plogp(exit) − Σ plogp(p_α)``.

The optimizer here is the standard recursive construction: find a
two-level partition, then attempt to split each module by running Infomap
on its (flow-normalized) induced subnetwork, accepting a split only when
it lowers the *global* hierarchical codelength, and recursing.

This is an extension beyond the paper's evaluation (which is two-level);
it demonstrates the substrate supports the full method and gives the
examples a richer output (nested community trees).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.accum.plain import PlainDictAccumulator
from repro.core.flow import FlowNetwork
from repro.core.infomap import _run_levels, check_engine_options
from repro.core.supernode import convert_to_supernodes
from repro.graph.csr import CSRGraph
from repro.util.entropy import plogp

__all__ = ["run_infomap_hierarchical", "HierarchicalResult", "HModule"]

#: level and pass caps of every two-level optimization below, each one
#: the sequential engine's level loop with a plain accumulator
_MAX_LEVELS = _MAX_PASSES = 10


@dataclass
class HModule:
    """One node of the module hierarchy.

    ``vertices`` are original (level-0) vertex ids belonging to this
    module; ``children`` is empty for leaves.  ``enter``/``exit``/``flow``
    are measured on the full flow network.
    """

    vertices: np.ndarray
    enter: float
    exit: float
    flow: float
    children: list["HModule"] = field(default_factory=list)

    @property
    def is_leaf(self) -> bool:
        return not self.children

    @property
    def size(self) -> int:
        return len(self.vertices)

    def depth(self) -> int:
        if self.is_leaf:
            return 1
        return 1 + max(c.depth() for c in self.children)

    def leaves(self) -> list["HModule"]:
        if self.is_leaf:
            return [self]
        out: list[HModule] = []
        for c in self.children:
            out.extend(c.leaves())
        return out


@dataclass
class HierarchicalResult:
    """Nested-module decomposition of a graph."""

    root_children: list[HModule]
    codelength: float
    two_level_codelength: float
    num_leaf_modules: int
    max_depth: int

    def leaf_assignment(self, num_vertices: int) -> np.ndarray:
        """Dense leaf-module label per vertex."""
        labels = -np.ones(num_vertices, dtype=np.int64)
        leaf_id = 0
        for top in self.root_children:
            for leaf in top.leaves():
                labels[leaf.vertices] = leaf_id
                leaf_id += 1
        if np.any(labels < 0):
            raise AssertionError("hierarchy does not cover all vertices")
        return labels

    def top_assignment(self, num_vertices: int) -> np.ndarray:
        labels = -np.ones(num_vertices, dtype=np.int64)
        for i, top in enumerate(self.root_children):
            labels[top.vertices] = i
        return labels

    def summary(self) -> str:
        return (
            f"HierarchicalResult({len(self.root_children)} top modules, "
            f"{self.num_leaf_modules} leaves, depth {self.max_depth}, "
            f"L={self.codelength:.4f} vs two-level "
            f"{self.two_level_codelength:.4f})"
        )


# ----------------------------------------------------------------------
# flow bookkeeping on the full network
# ----------------------------------------------------------------------
def _boundary_flows(
    net: FlowNetwork, members: np.ndarray
) -> tuple[float, float, float]:
    """(enter, exit, flow) of a vertex set measured on the full network."""
    mask = np.zeros(net.num_vertices, dtype=bool)
    mask[members] = True
    src = np.repeat(
        np.arange(net.num_vertices, dtype=np.int64), np.diff(net.indptr)
    )
    dst = net.indices
    out_cross = mask[src] & ~mask[dst]
    in_cross = ~mask[src] & mask[dst]
    exit_flow = float(net.arc_flow[out_cross].sum())
    enter_flow = float(net.arc_flow[in_cross].sum())
    flow = float(net.node_flow[members].sum())
    return enter_flow, exit_flow, flow


def _leaf_cost(node: HModule, net: FlowNetwork) -> float:
    """Two-level module-codebook cost of treating ``node`` as a leaf."""
    member_plogp = float(
        np.sum([plogp(x) for x in net.node_flow[node.vertices] if x > 0])
    )
    return plogp(node.exit + node.flow) - plogp(node.exit) - member_plogp


def _index_cost(exit_flow: float, child_enters: list[float]) -> float:
    """Codebook cost of an internal module over its submodule enter words."""
    total = exit_flow + sum(child_enters)
    return (
        plogp(total)
        - plogp(exit_flow)
        - sum(plogp(e) for e in child_enters)
    )


def _subnetwork(net: FlowNetwork, members: np.ndarray) -> FlowNetwork:
    """Induced flow network on ``members``, flows renormalized to sum ~1.

    Boundary arcs are dropped (the hierarchical evaluation accounts for
    them in the parent's codebook); normalization keeps the map-equation
    optimization well-scaled regardless of module size.
    """
    remap = -np.ones(net.num_vertices, dtype=np.int64)
    remap[members] = np.arange(len(members))
    src = np.repeat(
        np.arange(net.num_vertices, dtype=np.int64), np.diff(net.indptr)
    )
    keep = (remap[src] >= 0) & (remap[net.indices] >= 0)
    s = remap[src[keep]]
    d = remap[net.indices[keep]]
    f = net.arc_flow[keep].astype(np.float64)
    node_flow = net.node_flow[members].astype(np.float64)
    total = node_flow.sum()
    if total > 0:
        node_flow = node_flow / total
        f = f / total
    n = len(members)
    counts = np.bincount(s, minlength=n)
    indptr = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(counts, out=indptr[1:])
    order = np.argsort(s, kind="stable")
    indices = d[order]
    arc_flow = f[order]
    if net.directed:
        t_order = np.argsort(indices, kind="stable")
        t_counts = np.bincount(indices, minlength=n)
        t_indptr = np.zeros(n + 1, dtype=np.int64)
        np.cumsum(t_counts, out=t_indptr[1:])
        t_src = np.repeat(np.arange(n, dtype=np.int64), np.diff(indptr))
        t_indices = t_src[t_order]
        t_arc_flow = arc_flow[t_order]
    else:
        t_indptr, t_indices, t_arc_flow = indptr, indices, arc_flow
    return FlowNetwork(
        indptr=indptr,
        indices=indices,
        arc_flow=arc_flow,
        t_indptr=t_indptr,
        t_indices=t_indices,
        t_arc_flow=t_arc_flow,
        node_flow=node_flow,
        directed=net.directed,
    )


def _try_split(
    node: HModule,
    net: FlowNetwork,
    depth: int,
    max_depth: int,
    min_module_size: int,
) -> float:
    """Attempt to split ``node``; returns its (possibly nested) cost.

    On acceptance, ``node.children`` is populated and children are
    recursively considered.  The return value is the cost this subtree
    contributes to the global hierarchical codelength.
    """
    leaf_cost = _leaf_cost(node, net)
    if depth >= max_depth or node.size < min_module_size:
        return leaf_cost

    sub = _subnetwork(net, node.vertices)
    if sub.num_arcs == 0:
        return leaf_cost
    assignment = _run_levels(
        sub, PlainDictAccumulator(), max_levels=_MAX_LEVELS,
        max_passes_per_level=_MAX_PASSES,
    ).modules
    k = int(assignment.max()) + 1
    if k <= 1 or k == node.size:
        return leaf_cost

    children = []
    for c in range(k):
        members = node.vertices[assignment == c]
        enter, exit_, flow = _boundary_flows(net, members)
        children.append(
            HModule(vertices=members, enter=enter, exit=exit_, flow=flow)
        )
    index_cost = _index_cost(node.exit, [c.enter for c in children])
    split_cost = index_cost + sum(_leaf_cost(c, net) for c in children)
    if split_cost >= leaf_cost - 1e-12:
        return leaf_cost

    node.children = children
    total = index_cost
    for child in children:
        total += _try_split(child, net, depth + 1, max_depth, min_module_size)
    return total


def _root_index(children: list[HModule]) -> float:
    return plogp(sum(c.enter for c in children)) - sum(
        plogp(c.enter) for c in children
    )


def _subtree_cost(node: HModule, net: FlowNetwork) -> float:
    if node.is_leaf:
        return _leaf_cost(node, net)
    return _index_cost(node.exit, [c.enter for c in node.children]) + sum(
        _subtree_cost(c, net) for c in node.children
    )


def hierarchical_codelength(
    children: list[HModule], net: FlowNetwork
) -> float:
    """Evaluate the full hierarchical map equation for a module tree."""
    return _root_index(children) + sum(_subtree_cost(c, net) for c in children)


def _try_group(
    children: list[HModule], net: FlowNetwork, max_levels: int
) -> list[HModule]:
    """Agglomerative pass: add super-levels above ``children`` while doing
    so lowers the hierarchical codelength.

    Leaf/subtree costs are untouched by grouping — only the index
    structure above them changes — so the comparison is between the
    current root index and (new root index + new internal index terms).
    """
    current = children
    for _ in range(max_levels):
        if len(current) <= 2:
            break
        # Coarse "index network": nodes are the current top modules, arcs
        # carry inter-module flows, and each node's flow is the module's
        # *enter* flow.  The two-level map equation on this network equals
        # (root index over groups + per-group index codebooks) exactly —
        # the only terms grouping can change — so optimizing it finds the
        # best super-level directly.
        assignment = np.empty(net.num_vertices, dtype=np.int64)
        for i, c in enumerate(current):
            assignment[c.vertices] = i
        coarse = convert_to_supernodes(net, assignment, len(current))
        enters = np.array([c.enter for c in current])
        index_net = FlowNetwork(
            indptr=coarse.indptr,
            indices=coarse.indices,
            arc_flow=coarse.arc_flow,
            t_indptr=coarse.t_indptr,
            t_indices=coarse.t_indices,
            t_arc_flow=coarse.t_arc_flow,
            node_flow=enters,
            directed=coarse.directed,
        )
        grouping = _run_levels(
            index_net, PlainDictAccumulator(), max_levels=_MAX_LEVELS,
            max_passes_per_level=_MAX_PASSES,
        ).modules
        kg = int(grouping.max()) + 1
        if kg <= 1 or kg >= len(current):
            break
        groups: list[HModule] = []
        for g in range(kg):
            member_mods = [current[i] for i in np.flatnonzero(grouping == g)]
            members = np.concatenate([m.vertices for m in member_mods])
            enter, exit_, flow = _boundary_flows(net, members)
            groups.append(
                HModule(
                    vertices=members, enter=enter, exit=exit_, flow=flow,
                    children=member_mods,
                )
            )
        old_cost = _root_index(current)
        new_cost = _root_index(groups) + sum(
            _index_cost(g.exit, [c.enter for c in g.children]) for g in groups
        )
        if new_cost >= old_cost - 1e-12:
            break
        current = groups
    return current


def run_infomap_hierarchical(
    graph: CSRGraph,
    tau: float = 0.15,
    max_depth: int = 4,
    min_module_size: int = 8,
) -> HierarchicalResult:
    """Build a nested module hierarchy minimizing the hierarchical map
    equation.

    The construction works in both directions from the two-level optimum:

    * **downward** — each module is recursively split when a submodule
      codebook lowers the global codelength;
    * **upward** — modules are agglomerated under super-modules when an
      extra index level pays for itself (long-range structure).

    Parameters
    ----------
    max_depth:
        Maximum nesting depth below the root (1 = flat two-level).
    min_module_size:
        Modules smaller than this are never split further.
    """
    check_engine_options("sequential", tau=tau)
    net = FlowNetwork.from_graph(graph, tau=tau)
    top_assignment = _run_levels(
        net, PlainDictAccumulator(), max_levels=_MAX_LEVELS,
        max_passes_per_level=_MAX_PASSES,
    ).modules
    k = int(top_assignment.max()) + 1

    modules = []
    for c in range(k):
        members = np.flatnonzero(top_assignment == c).astype(np.int64)
        enter, exit_, flow = _boundary_flows(net, members)
        modules.append(
            HModule(vertices=members, enter=enter, exit=exit_, flow=flow)
        )

    two_level = _root_index(modules) + sum(_leaf_cost(c, net) for c in modules)

    # downward: split modules where nesting pays
    for child in modules:
        _try_split(child, net, 1, max_depth, min_module_size)

    # upward: group modules under super-modules where an index level pays
    root_children = _try_group(modules, net, max_levels=max_depth)

    total = hierarchical_codelength(root_children, net)
    num_leaves = sum(len(c.leaves()) for c in root_children)
    depth = max((c.depth() for c in root_children), default=0)
    return HierarchicalResult(
        root_children=root_children,
        codelength=total,
        two_level_codelength=two_level,
        num_leaf_modules=num_leaves,
        max_depth=depth,
    )
