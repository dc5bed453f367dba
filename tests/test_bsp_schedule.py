"""The BSP commit's hold-back rule and the driver it runs in.

* :func:`repro.core.bsp.hold_back` (hypothesis, over
  :func:`tests.strategies.module_moves`): the kept moves contain no
  cycle of modules, at least one move is kept, only moves from a lower
  label into a module that loses a member are held, and the mask does
  not depend on the order of the proposals;
* :func:`repro.core.bsp.run_bsp_infomap` on a small streamed R-MAT
  graph: no committed batch swaps vertices between two modules, level 0
  converges before its pass cap, and every vertex that proposed a move
  is revisited on the next pass.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings

from repro.core import bsp
from repro.core.bsp import ProposeBackend, hold_back, run_bsp_infomap
from repro.graph.stream import stream_rmat

from tests.strategies import module_moves, seeds


def _has_cycle(edges: set[tuple[int, int]]) -> bool:
    """Whether the directed graph on ``edges`` has a cycle (Kahn)."""
    nodes = {x for e in edges for x in e}
    indeg = dict.fromkeys(nodes, 0)
    for _a, b in edges:
        indeg[b] += 1
    ready = [x for x in nodes if indeg[x] == 0]
    seen = 0
    while ready:
        a = ready.pop()
        seen += 1
        for x, b in edges:
            if x == a:
                indeg[b] -= 1
                if indeg[b] == 0:
                    ready.append(b)
    return seen < len(nodes)


class TestHoldBack:
    @settings(max_examples=300, deadline=None)
    @given(module_moves())
    def test_kept_moves_close_no_cycle_of_modules(self, moves):
        module, verts, targets = moves
        keep = hold_back(module, verts, targets)
        kept = set(zip(module[verts[keep]].tolist(),
                       targets[keep].tolist()))
        assert not _has_cycle(kept)

    @settings(max_examples=300, deadline=None)
    @given(module_moves())
    def test_keeps_a_move_whenever_one_is_proposed(self, moves):
        module, verts, targets = moves
        keep = hold_back(module, verts, targets)
        assert keep.dtype == bool and keep.shape == verts.shape
        assert keep.any() == (len(verts) > 0)

    @settings(max_examples=300, deadline=None)
    @given(module_moves())
    def test_holds_only_upward_moves_into_losing_modules(self, moves):
        module, verts, targets = moves
        keep = hold_back(module, verts, targets)
        src = module[verts]
        losing = set(src.tolist())
        for a, b, kept in zip(src.tolist(), targets.tolist(),
                              keep.tolist()):
            if b not in losing:
                assert kept  # nobody leaves b: nothing to swap with
            if not kept:
                assert a < b and b in losing

    @settings(max_examples=300, deadline=None)
    @given(module_moves(), seeds)
    def test_mask_ignores_proposal_order(self, moves, seed):
        module, verts, targets = moves
        perm = np.random.default_rng(seed).permutation(len(verts))
        keep = hold_back(module, verts, targets)
        assert np.array_equal(
            hold_back(module, verts[perm], targets[perm]), keep[perm]
        )


class _RecordingSweep(ProposeBackend):
    """Proposes every shard with ``Workspace.best_moves``, as the
    multicore engine does, and records per pass its shards and the
    vertices that proposed."""

    def __init__(self) -> None:
        self.ws = None
        self.passes: list[tuple[int, list[np.ndarray], list[np.ndarray]]] = []
        self._level = 0

    def begin_level(self, net, level, blocks, ws) -> None:
        self.ws = ws
        self._level = level

    def begin_pass(self, module) -> None:
        self.passes.append((self._level, [], []))

    def propose(self, shards, module, enter, exit_, flow):
        _level, seen, proposers = self.passes[-1]
        verts_parts, targ_parts = [], []
        for _core, shard in shards:
            seen.append(shard.copy())
            v, t, _ = self.ws.best_moves(module, enter, exit_, flow,
                                         verts=shard)
            verts_parts.append(v)
            targ_parts.append(t)
        verts = np.concatenate(verts_parts)
        proposers.append(verts.copy())
        return verts, np.concatenate(targ_parts)


@pytest.mark.parametrize("cores", [1, 2])
def test_driver_commits_no_swap_and_revisits_every_proposer(
    monkeypatch, cores
):
    """On the e2e smoke's R-MAT recipe: (a) no committed batch holds both
    an ``a → b`` and a ``b → a`` move, (b) level 0 converges before the
    10-pass cap, (c) every proposer of a pass is in the next pass's
    shards."""
    commit = bsp.commit_proposals
    swaps: list[int] = []

    def checked_commit(ws, net, module, enter, exit_, flow, length,
                       verts, targets, rng):
        pairs = set(zip(module[verts].tolist(), targets.tolist()))
        swaps.append(sum((b, a) in pairs for a, b in pairs))
        return commit(ws, net, module, enter, exit_, flow, length,
                      verts, targets, rng)

    monkeypatch.setattr(bsp, "commit_proposals", checked_commit)
    backend = _RecordingSweep()
    with stream_rmat(scale=10, edge_factor=8, seed=3) as sg:
        out = run_bsp_infomap(sg.graph, backend, cores,
                              max_passes_per_level=10)

    assert swaps and not any(swaps)                                  # (a)
    level0 = [p for p in out.passes if p.level == 0]
    assert len(level0) < 10 and level0[-1].applied == 0              # (b)
    assert any(p.held_back for p in out.passes)
    for p in out.passes:
        assert p.held_back <= p.proposed - p.applied
    recorded = backend.passes
    assert len(recorded) == len(out.passes)
    for (level, _, proposers), (nxt_level, shards, _) in zip(
        recorded, recorded[1:]
    ):
        if nxt_level != level or not proposers:
            continue
        revisited = np.concatenate(shards)
        assert np.isin(np.concatenate(proposers), revisited).all()   # (c)
