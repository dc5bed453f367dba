"""Tests for the simulated distributed-memory (BSP) engine."""

import numpy as np
import pytest

from repro.core.distributed import (
    NetworkModel,
    run_infomap_distributed,
    validate_distributed_params,
)
from repro.core.infomap import run_infomap
from repro.graph.generators import planted_partition, ring_of_cliques
from repro.quality import normalized_mutual_information


class TestNetworkModel:
    def test_transfer_cost(self):
        nm = NetworkModel(latency_s=1e-6, bandwidth_Bps=1e9)
        assert nm.transfer_seconds(0) == pytest.approx(1e-6)
        assert nm.transfer_seconds(1e9) == pytest.approx(1.0 + 1e-6)


class TestDistributedRun:
    def test_single_rank_matches_quality(self):
        g, truth = planted_partition(5, 25, 0.4, 0.01, seed=1)
        rd = run_infomap_distributed(g, num_ranks=1)
        assert normalized_mutual_information(rd.modules, truth) > 0.95
        assert rd.total_messages == 0  # no peers

    def test_multi_rank_quality(self):
        g, truth = planted_partition(6, 30, 0.4, 0.01, seed=2)
        for ranks in (2, 4, 8):
            rd = run_infomap_distributed(g, num_ranks=ranks)
            assert normalized_mutual_information(rd.modules, truth) > 0.85, ranks

    def test_codelength_close_to_sequential(self):
        g, _ = planted_partition(5, 25, 0.4, 0.01, seed=3)
        rs = run_infomap(g)
        rd = run_infomap_distributed(g, num_ranks=4)
        assert rd.codelength <= rs.codelength * 1.1 + 1e-9

    def test_codelength_monotone_over_supersteps(self):
        g, _ = planted_partition(5, 25, 0.4, 0.02, seed=4)
        rd = run_infomap_distributed(g, num_ranks=4)
        ls = [s.codelength for s in rd.supersteps]
        assert all(b <= a + 1e-9 for a, b in zip(ls, ls[1:]))

    def test_communication_grows_with_ranks(self):
        g, _ = planted_partition(6, 30, 0.4, 0.01, seed=2)
        m2 = run_infomap_distributed(g, num_ranks=2).total_messages
        m8 = run_infomap_distributed(g, num_ranks=8).total_messages
        assert m8 > m2

    def test_compute_shrinks_with_ranks(self):
        g, _ = planted_partition(6, 30, 0.4, 0.01, seed=2)
        c1 = run_infomap_distributed(g, num_ranks=1).compute_seconds
        c8 = run_infomap_distributed(g, num_ranks=8).compute_seconds
        assert c8 < c1

    def test_deterministic(self):
        g, _ = planted_partition(4, 20, 0.4, 0.02, seed=5)
        a = run_infomap_distributed(g, num_ranks=4)
        b = run_infomap_distributed(g, num_ranks=4)
        assert np.array_equal(a.modules, b.modules)
        assert a.total_bytes == b.total_bytes

    def test_ring_of_cliques(self):
        g, truth = ring_of_cliques(6, 5)
        rd = run_infomap_distributed(g, num_ranks=3)
        assert rd.num_modules == 6
        assert normalized_mutual_information(rd.modules, truth) == pytest.approx(1.0)

    def test_invalid_ranks(self):
        g, _ = ring_of_cliques(2, 3)
        with pytest.raises(ValueError):
            run_infomap_distributed(g, num_ranks=0)


class TestValidationAlignment:
    """Every bad parameter raises a readable ``ValueError`` up front —
    never a ``TypeError``/``IndexError`` from deep inside the run — so
    admission control can convert it into a structured rejection like
    any other job-level problem (the JobSpec.validate contract)."""

    def test_non_integer_ranks_raise_value_error_not_type_error(self):
        g, _ = ring_of_cliques(2, 3)
        # 2.5 used to pass check_positive and crash in _rank_blocks
        # with a bare TypeError; True used to silently mean 1 rank
        for bad in (2.5, "4", True, None, -3):
            with pytest.raises(ValueError, match="num_ranks"):
                run_infomap_distributed(g, num_ranks=bad)

    def test_bad_tau_and_caps_name_their_field(self):
        g, _ = ring_of_cliques(2, 3)
        with pytest.raises(ValueError, match="tau"):
            run_infomap_distributed(g, tau=1.5)
        with pytest.raises(ValueError, match="tau"):
            run_infomap_distributed(g, tau=0.0)
        with pytest.raises(ValueError, match="max_levels"):
            run_infomap_distributed(g, max_levels=0)
        with pytest.raises(ValueError, match="max_supersteps_per_level"):
            run_infomap_distributed(g, max_supersteps_per_level=0)
        with pytest.raises(ValueError, match="compute_rate"):
            run_infomap_distributed(g, compute_rate_ops_per_s=0.0)

    def test_bad_network_model_rejected_structurally(self):
        g, _ = ring_of_cliques(2, 3)
        with pytest.raises(ValueError, match="NetworkModel"):
            run_infomap_distributed(g, network="fast ethernet")
        with pytest.raises(ValueError, match="bandwidth"):
            run_infomap_distributed(
                g, network=NetworkModel(bandwidth_Bps=0)
            )
        with pytest.raises(ValueError, match="latency"):
            run_infomap_distributed(
                g, network=NetworkModel(latency_s=-1e-6)
            )
        # non-real fields used to escape as a bare TypeError, and an
        # infinite latency used to run with comm_seconds == inf
        with pytest.raises(ValueError, match="bandwidth"):
            run_infomap_distributed(
                g, network=NetworkModel(bandwidth_Bps="10e9")
            )
        with pytest.raises(ValueError, match="latency"):
            run_infomap_distributed(
                g, network=NetworkModel(latency_s=None)
            )
        with pytest.raises(ValueError, match="latency"):
            run_infomap_distributed(
                g, network=NetworkModel(latency_s=float("inf"))
            )
        with pytest.raises(ValueError, match="record_bytes"):
            run_infomap_distributed(
                g, network=NetworkModel(record_bytes=0)
            )

    def test_bad_graph_rejected(self):
        with pytest.raises(ValueError, match="CSRGraph"):
            run_infomap_distributed([[0, 1]], num_ranks=2)

    def test_validator_is_importable_for_admission_layers(self):
        """The standalone validator rejects rank specs without
        constructing a run."""
        validate_distributed_params(num_ranks=4, tau=0.15)
        with pytest.raises(ValueError, match="num_ranks"):
            validate_distributed_params(num_ranks=1.5)

    def test_valid_params_still_run(self):
        g, _ = ring_of_cliques(2, 3)
        rd = run_infomap_distributed(
            g, num_ranks=2, network=NetworkModel(latency_s=0.0)
        )
        assert rd.num_modules >= 1

    def test_superstep_records_complete(self):
        g, _ = planted_partition(4, 20, 0.4, 0.02, seed=6)
        rd = run_infomap_distributed(g, num_ranks=2)
        assert len(rd.supersteps) >= 1
        for s in rd.supersteps:
            assert s.compute_seconds > 0
            assert s.bytes_sent >= 0
        assert rd.total_seconds == pytest.approx(
            rd.comm_seconds + rd.compute_seconds
        )

    def test_summary_string(self):
        g, _ = ring_of_cliques(3, 4)
        rd = run_infomap_distributed(g, num_ranks=2)
        assert "ranks" in rd.summary()
