"""Unit tests for network topology construction and the standard generators."""

from __future__ import annotations

import pytest

from repro.channel.quantum_channel import IdentityChainChannel
from repro.exceptions import NetworkError
from repro.network.topology import (
    NetworkNode,
    NetworkTopology,
    build_topology,
    grid_topology,
    line_topology,
    random_geometric_topology,
    ring_topology,
    star_topology,
)
from repro.quantum.channels import depolarizing_channel


class TestNetworkTopology:
    def test_add_nodes_and_links(self):
        topology = NetworkTopology("t")
        topology.add_node("a")
        topology.add_node("b", qubit_capacity=64)
        link = topology.add_link("a", "b", IdentityChainChannel(eta=20))
        assert topology.num_nodes == 2
        assert topology.num_links == 1
        assert link.key == ("a", "b")
        assert topology.node("b").qubit_capacity == 64
        assert topology.link("b", "a") is link  # undirected lookup

    def test_duplicate_node_rejected(self):
        topology = NetworkTopology()
        topology.add_node("a")
        with pytest.raises(NetworkError):
            topology.add_node("a")

    def test_duplicate_and_self_links_rejected(self):
        topology = NetworkTopology()
        topology.add_node("a")
        topology.add_node("b")
        topology.add_link("a", "b")
        with pytest.raises(NetworkError):
            topology.add_link("b", "a")
        with pytest.raises(NetworkError):
            topology.add_link("a", "a")

    def test_link_to_unknown_node_rejected(self):
        topology = NetworkTopology()
        topology.add_node("a")
        with pytest.raises(NetworkError):
            topology.add_link("a", "ghost")

    def test_neighbors_sorted(self):
        topology = star_topology(4)
        assert topology.neighbors("n0") == ["n1", "n2", "n3"]
        assert topology.neighbors("n2") == ["n0"]

    def test_compromise_marks_node(self):
        topology = line_topology(3)
        assert topology.compromised_nodes() == []
        topology.compromise("n1", lambda rng: object())
        assert topology.node("n1").compromised
        assert topology.compromised_nodes() == ["n1"]

    def test_node_validation(self):
        with pytest.raises(NetworkError):
            NetworkNode(name="")
        with pytest.raises(NetworkError):
            NetworkNode(name="a", qubit_capacity=0)
        with pytest.raises(NetworkError):
            NetworkNode(name="a", memory_decoherence=depolarizing_channel(0.1, num_qubits=2))


class TestGenerators:
    def test_line(self):
        topology = line_topology(5)
        assert topology.num_nodes == 5
        assert topology.num_links == 4
        assert topology.is_connected()
        assert topology.neighbors("n2") == ["n1", "n3"]

    def test_ring(self):
        topology = ring_topology(6)
        assert topology.num_links == 6
        assert all(len(topology.neighbors(n)) == 2 for n in topology.node_names)

    def test_star(self):
        topology = star_topology(7)
        assert topology.num_links == 6
        assert len(topology.neighbors("n0")) == 6

    def test_grid(self):
        topology = grid_topology(3, 4)
        assert topology.num_nodes == 12
        # 3 rows × 3 horizontal + 2 × 4 vertical = 9 + 8 = 17
        assert topology.num_links == 17
        assert topology.is_connected()
        assert sorted(topology.neighbors("n1_1")) == ["n0_1", "n1_0", "n1_2", "n2_1"]

    def test_grid_corner_degree(self):
        topology = grid_topology(3, 3)
        assert len(topology.neighbors("n0_0")) == 2
        assert len(topology.neighbors("n1_1")) == 4

    def test_geometric_deterministic_and_connected(self):
        first = random_geometric_topology(10, radius=0.3, rng=11)
        second = random_geometric_topology(10, radius=0.3, rng=11)
        assert first.is_connected()
        assert [link.key for link in first.links] == [link.key for link in second.links]
        assert [first.node(n).position for n in first.node_names] == [
            second.node(n).position for n in second.node_names
        ]

    def test_geometric_lengths_feed_channel_factory(self):
        lengths = []

        def factory(length):
            lengths.append(length)
            return IdentityChainChannel(eta=10)

        topology = random_geometric_topology(8, radius=0.5, rng=3, channel_factory=factory)
        assert len(lengths) == topology.num_links
        assert all(length > 0 for length in lengths)
        for link in topology.links:
            assert link.length > 0

    def test_build_topology_dispatch(self):
        assert build_topology("line", num_nodes=4).num_nodes == 4
        assert build_topology("grid", rows=2, cols=2).num_links == 4
        with pytest.raises(NetworkError):
            build_topology("torus", num_nodes=4)

    def test_generators_reject_tiny_networks(self):
        with pytest.raises(NetworkError):
            line_topology(1)
        with pytest.raises(NetworkError):
            ring_topology(2)
        with pytest.raises(NetworkError):
            grid_topology(1, 1)
