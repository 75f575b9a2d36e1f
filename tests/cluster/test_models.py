"""Tests for network, spawn and storage performance models."""

import pytest

from repro.cluster import (
    ClusterConfig,
    GiB,
    NetworkModel,
    SharedFilesystem,
    SpawnModel,
    marenostrum_preliminary,
    marenostrum_production,
)


class TestNetworkModel:
    def test_latency_per_message(self):
        net = NetworkModel(latency=1e-3, bandwidth=1e9)
        t = net.redistribution_time({0: 0.0}, {1: 0.0}, messages=5)
        assert t == pytest.approx(5e-3)

    def test_validation(self):
        with pytest.raises(ValueError):
            NetworkModel(bandwidth=0)
        with pytest.raises(ValueError):
            NetworkModel(latency=-1)

    def test_redistribution_critical_path_is_slowest_rank(self):
        net = NetworkModel(latency=0.0, bandwidth=1e9, bisection_bandwidth=1e12)
        t = net.redistribution_time({0: 4e9, 1: 1e9}, {2: 4e9, 3: 1e9})
        assert t == pytest.approx(4.0)

    def test_redistribution_rank_sending_and_receiving_sums(self):
        net = NetworkModel(latency=0.0, bandwidth=1e9, bisection_bandwidth=1e12)
        # Rank 0 both sends 1 GB and receives 1 GB -> 2 s on its NIC.
        t = net.redistribution_time({0: 1e9}, {0: 1e9})
        assert t == pytest.approx(2.0)

    def test_redistribution_bisection_cap(self):
        net = NetworkModel(latency=0.0, bandwidth=1e9, bisection_bandwidth=2e9)
        # 8 ranks sending 1 GB each: per-NIC time 1 s but fabric allows 2 GB/s.
        out = {r: 1e9 for r in range(8)}
        inn = {r + 8: 1e9 for r in range(8)}
        assert net.redistribution_time(out, inn) == pytest.approx(4.0)

    def test_redistribution_empty_is_free(self):
        assert NetworkModel().redistribution_time({}, {}) == 0.0


class TestSpawnModel:
    def test_spawn_grows_with_procs(self):
        sp = SpawnModel(base=0.1, per_process=0.01)
        assert sp.spawn_time(1) == pytest.approx(0.11)
        assert sp.spawn_time(48) == pytest.approx(0.58)

    def test_spawn_validation(self):
        with pytest.raises(ValueError):
            SpawnModel().spawn_time(0)


class TestSharedFilesystem:
    def test_single_client_capped_by_client_bandwidth(self):
        fs = SharedFilesystem(
            aggregate_write_bandwidth=10e9,
            per_client_bandwidth=1e9,
            metadata_latency=0.0,
        )
        assert fs.write_time(2e9, nclients=1) == pytest.approx(2.0)

    def test_many_clients_capped_by_aggregate(self):
        fs = SharedFilesystem(
            aggregate_write_bandwidth=2e9,
            per_client_bandwidth=1e9,
            metadata_latency=0.0,
        )
        assert fs.write_time(4e9, nclients=64) == pytest.approx(2.0)

    def test_read_write_asymmetry(self):
        fs = SharedFilesystem(metadata_latency=0.0)
        assert fs.read_time(1 * GiB, 64) < fs.write_time(1 * GiB, 64)

    def test_validation(self):
        fs = SharedFilesystem()
        with pytest.raises(ValueError):
            fs.write_time(-1)
        with pytest.raises(ValueError):
            fs.read_time(10, nclients=0)
        with pytest.raises(ValueError):
            SharedFilesystem(per_client_bandwidth=0)
        with pytest.raises(ValueError):
            SharedFilesystem(metadata_latency=-1)

    def test_disk_much_slower_than_network_for_1gib(self):
        """The premise behind Fig. 1: C/R disk round-trip >> network move."""
        fs = SharedFilesystem()
        net = NetworkModel()
        disk = fs.write_time(1 * GiB, 48) + fs.read_time(1 * GiB, 24)
        wire = net.redistribution_time({0: 1 * GiB / 48}, {1: 1 * GiB / 24})
        assert disk > 10 * wire


class TestClusterConfig:
    def test_presets_match_paper(self):
        assert marenostrum_preliminary().num_nodes == 20
        assert marenostrum_production().num_nodes == 65
        assert marenostrum_production().cores_per_node == 16

    def test_build_machine(self):
        m = marenostrum_preliminary().build_machine()
        assert m.num_nodes == 20
        assert m.cores_per_node == 16

    def test_invalid_config(self):
        with pytest.raises(ValueError):
            ClusterConfig(num_nodes=0)
