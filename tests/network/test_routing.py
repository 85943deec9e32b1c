"""Routing correctness on known graphs, including the loss-aware policy."""

from __future__ import annotations

import pytest

from repro.channel.quantum_channel import IdentityChainChannel, NoiselessChannel
from repro.exceptions import NetworkError
from repro.network.routing import (
    Route,
    RoutingTable,
    find_route,
    link_loss_weight,
    mean_route_hops,
)
from repro.network.topology import (
    NetworkNode,
    NetworkTopology,
    grid_topology,
    line_topology,
    ring_topology,
)


class TestRoute:
    def test_properties(self):
        route = Route(nodes=("a", "b", "c"))
        assert route.source == "a"
        assert route.target == "c"
        assert route.num_hops == 2
        assert route.relays == ("b",)
        assert route.hops() == [("a", "b"), ("b", "c")]

    def test_rejects_degenerate_paths(self):
        with pytest.raises(NetworkError):
            Route(nodes=("a",))
        with pytest.raises(NetworkError):
            Route(nodes=("a", "b", "a"))


class TestShortestHops:
    def test_line_end_to_end(self):
        topology = line_topology(5)
        route = find_route(topology, "n0", "n4")
        assert route.nodes == ("n0", "n1", "n2", "n3", "n4")
        assert route.cost == 4

    def test_ring_takes_short_side(self):
        topology = ring_topology(6)
        route = find_route(topology, "n0", "n2")
        assert route.nodes == ("n0", "n1", "n2")

    def test_grid_manhattan_distance(self):
        topology = grid_topology(3, 3)
        route = find_route(topology, "n0_0", "n2_2")
        assert route.num_hops == 4

    def test_deterministic_tiebreak(self):
        # A 2×2 grid has two equal-length paths between opposite corners;
        # Dijkstra's lexicographic tie-break must always pick the same one.
        topology = grid_topology(2, 2)
        routes = {find_route(topology, "n0_0", "n1_1").nodes for _ in range(10)}
        assert routes == {("n0_0", "n0_1", "n1_1")}

    def test_unreachable_raises(self):
        topology = NetworkTopology()
        topology.add_node("a")
        topology.add_node("b")
        topology.add_node("c")
        topology.add_link("a", "b")
        with pytest.raises(NetworkError):
            find_route(topology, "a", "c")

    def test_same_endpoints_rejected(self):
        topology = line_topology(3)
        with pytest.raises(NetworkError):
            find_route(topology, "n0", "n0")

    def test_unknown_policy_rejected(self):
        topology = line_topology(3)
        with pytest.raises(NetworkError):
            find_route(topology, "n0", "n2", policy="fastest")


class TestLowestLoss:
    def _triangle(self) -> NetworkTopology:
        """Direct edge a—c is very noisy; the a—b—c detour is clean."""
        topology = NetworkTopology()
        for name in ("a", "b", "c"):
            topology.add_node(name)
        topology.add_link("a", "c", IdentityChainChannel(eta=500))
        topology.add_link("a", "b", NoiselessChannel())
        topology.add_link("b", "c", NoiselessChannel())
        return topology

    def test_hops_policy_takes_direct_edge(self):
        route = find_route(self._triangle(), "a", "c", policy="hops")
        assert route.nodes == ("a", "c")

    def test_loss_policy_takes_clean_detour(self):
        route = find_route(self._triangle(), "a", "c", policy="loss")
        assert route.nodes == ("a", "b", "c")

    def test_loss_weight_monotone_in_eta(self):
        topology = NetworkTopology()
        for name in ("a", "b"):
            topology.add_node(name)
        short = topology.add_link("a", "b", IdentityChainChannel(eta=10))
        assert link_loss_weight(short) > 0
        long_link = NetworkTopology()
        for name in ("a", "b"):
            long_link.add_node(name)
        longer = long_link.add_link("a", "b", IdentityChainChannel(eta=100))
        assert link_loss_weight(longer) > link_loss_weight(short)


class TestRoutingTable:
    def test_caches_routes(self):
        table = RoutingTable(grid_topology(3, 3))
        first = table.route("n0_0", "n2_2")
        second = table.route("n0_0", "n2_2")
        assert first is second
        assert len(table) == 1

    def test_rejects_unknown_policy(self):
        with pytest.raises(NetworkError):
            RoutingTable(line_topology(3), policy="magic")

    def test_failures_are_searched_once_per_key(self, monkeypatch):
        import repro.network.routing as routing

        calls = []

        def counting_find_route(*args, **kwargs):
            calls.append((args, kwargs))
            return find_route(*args, **kwargs)

        monkeypatch.setattr(routing, "find_route", counting_find_route)
        table = RoutingTable(line_topology(4))
        cut = frozenset({"n2"})
        messages = set()
        for _ in range(3):
            with pytest.raises(NetworkError) as raised:
                table.route("n0", "n3", exclude_nodes=cut)
            messages.add(str(raised.value))
        assert messages == {"no route from 'n0' to 'n3'"}
        assert len(calls) == 1
        # Another exclusion set is another key: searched once, then memoised.
        for _ in range(2):
            with pytest.raises(NetworkError, match="an endpoint is unavailable"):
                table.route("n0", "n3", exclude_nodes=frozenset({"n3"}))
        assert len(calls) == 2
        # Failures keep the message string, not the exception and its frames.
        assert all(isinstance(found, (Route, str)) for found in table._routes.values())
        assert table.route("n0", "n3").nodes == ("n0", "n1", "n2", "n3")
        assert len(calls) == 3


class TestMeanRouteHops:
    """Checked against closed forms of the mean graph distance."""

    @pytest.mark.parametrize("num_nodes", [2, 3, 6])
    def test_line(self, num_nodes):
        # Mean |i - j| over ordered pairs i != j of a path: (n + 1) / 3.
        assert mean_route_hops(line_topology(num_nodes)) == pytest.approx(
            (num_nodes + 1) / 3
        )

    def test_odd_ring(self):
        # Each node sees two nodes at every distance 1..(n - 1)/2: (n + 1) / 4.
        assert mean_route_hops(ring_topology(7)) == pytest.approx(2.0)

    def test_grid(self):
        # Mean Manhattan distance between distinct cells of a 3x3 grid: 144 / 72.
        assert mean_route_hops(grid_topology(3, 3)) == pytest.approx(2.0)

    def test_single_node_has_no_pairs(self):
        topology = NetworkTopology("solo")
        topology.add_node(NetworkNode("a"))
        assert mean_route_hops(topology) == 1.0
