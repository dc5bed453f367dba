"""Unit tests for the vectorized engine's internal primitives."""

import numpy as np
import pytest

from repro.core.bsp import BACKOFF_TRIES, commit_proposals
from repro.core.flow import FlowNetwork
from repro.core.mapequation import MapEquation
from repro.core.vectorized import (
    Workspace,
    _best_moves,
    _module_state,
    run_infomap_vectorized,
)
from repro.graph.build import from_edges
from repro.graph.generators import ring_of_cliques
from repro.util.rng import make_rng


def _net():
    g, _ = ring_of_cliques(3, 4)
    return FlowNetwork.from_graph(g)


class TestModuleState:
    def test_singletons(self):
        net = _net()
        n = net.num_vertices
        enter, exit_, flow = _module_state(net, np.arange(n), n)
        assert np.allclose(enter, net.node_in)
        assert np.allclose(exit_, net.node_out)
        assert np.allclose(flow, net.node_flow)

    def test_one_module(self):
        net = _net()
        n = net.num_vertices
        enter, exit_, flow = _module_state(net, np.zeros(n, dtype=np.int64), 1)
        assert enter[0] == pytest.approx(0.0)
        assert exit_[0] == pytest.approx(0.0)
        assert flow[0] == pytest.approx(1.0)

    def test_matches_oracle_on_random_labels(self):
        net = _net()
        rng = make_rng(1)
        labels = rng.integers(0, 3, net.num_vertices).astype(np.int64)
        enter, exit_, flow = _module_state(net, labels, 3)
        # brute-force oracle
        src = np.repeat(np.arange(net.num_vertices), np.diff(net.indptr))
        for m in range(3):
            exp_exit = net.arc_flow[
                (labels[src] == m) & (labels[net.indices] != m)
            ].sum()
            assert exit_[m] == pytest.approx(float(exp_exit))


class TestBestMoves:
    def test_singleton_start_finds_moves(self):
        net = _net()
        n = net.num_vertices
        module = np.arange(n, dtype=np.int64)
        enter, exit_, flow = _module_state(net, module, n)
        verts, targets, deltas = _best_moves(net, module, enter, exit_, flow)
        assert len(verts) > 0
        assert np.all(deltas < 0)
        assert len(verts) == len(np.unique(verts))  # one best move each

    def test_converged_state_has_no_moves(self):
        g, truth = ring_of_cliques(3, 4)
        net = FlowNetwork.from_graph(g)
        n = net.num_vertices
        enter, exit_, flow = _module_state(net, truth, n)
        verts, _, _ = _best_moves(net, truth.astype(np.int64), enter, exit_, flow)
        assert len(verts) == 0

    def test_deltas_match_exact_recompute(self):
        """Every vectorized delta must equal the recomputed L difference."""
        net = _net()
        n = net.num_vertices
        module = np.arange(n, dtype=np.int64)
        enter, exit_, flow = _module_state(net, module, n)
        L0 = MapEquation.codelength(enter, exit_, flow, net.node_flow)
        verts, targets, deltas = _best_moves(net, module, enter, exit_, flow)
        for v, m, dl in zip(verts[:6], targets[:6], deltas[:6]):
            trial = module.copy()
            trial[v] = m
            e2, x2, f2 = _module_state(net, trial, n)
            L1 = MapEquation.codelength(e2, x2, f2, net.node_flow)
            assert dl == pytest.approx(L1 - L0, abs=1e-10)


class TestOneLevel:
    """The engine's level-0 schedule alone (``max_levels=1``)."""

    def test_recovers_cliques(self):
        g, _ = ring_of_cliques(3, 4)
        r = run_infomap_vectorized(g, max_levels=1)
        assert r.levels == 1
        assert r.num_modules == 3
        assert r.rounds >= 1

    def test_monotone_improvement(self):
        g, _ = ring_of_cliques(5, 4)
        net = FlowNetwork.from_graph(g)
        r = run_infomap_vectorized(g, max_levels=1)
        singleton_L = MapEquation.codelength(
            net.node_in, net.node_out, net.node_flow, net.node_flow
        )
        assert r.codelength <= singleton_L

    def test_directed_net(self):
        g = from_edges(
            [(0, 1), (1, 2), (2, 0), (3, 4), (4, 5), (5, 3), (2, 3), (5, 0)],
            directed=True, num_vertices=6,
        )
        r = run_infomap_vectorized(g, max_levels=1)
        assert r.num_modules == 2


class _CountingWorkspace(Workspace):
    """Records the labels of every ``module_state`` call."""

    def __init__(self) -> None:
        super().__init__()
        self.states: list[np.ndarray] = []

    def module_state(self, module, k):
        self.states.append(module.copy())
        return super().module_state(module, k)


class _Draws:
    """A stand-in RNG whose every draw is ``value``."""

    def __init__(self, value: float) -> None:
        self.value = value

    def random(self, size):
        return np.full(size, self.value)


class TestCommit:
    @pytest.mark.parametrize(
        "draw, attempts",
        [(0.9, 1),               # the first halving keeps nothing
         (0.0, BACKOFF_TRIES)],  # every halving keeps everything
    )
    def test_rejected_commit_returns_the_callers_state(self, draw, attempts):
        g, truth = ring_of_cliques(3, 4)
        net = FlowNetwork.from_graph(g)
        n = net.num_vertices
        ws = _CountingWorkspace().bind(net)
        module = truth.astype(np.int64)
        enter, exit_, flow = ws.module_state(module, n)
        length = MapEquation.codelength(enter, exit_, flow, net.node_flow)
        ws.states.clear()
        # splitting a converged clique never improves the codelength
        verts = np.array([0, 1], dtype=np.int64)
        targets = np.array([1, 2], dtype=np.int64)
        out = commit_proposals(
            ws, net, module, enter, exit_, flow, length, verts, targets,
            _Draws(draw),
        )
        assert len(out[5]) == 0
        assert out[0] is module and out[4] == length
        assert out[1] is enter and out[2] is exit_ and out[3] is flow
        # one module_state per attempt, each on the trial labels, and no
        # recompute of the state the caller passed in
        assert len(ws.states) == attempts
        for labels in ws.states:
            assert not np.array_equal(labels, module)
