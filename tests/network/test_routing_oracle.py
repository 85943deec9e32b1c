"""Routing checked against networkx's shortest paths as an independent oracle.

On seeded random-geometric graphs with random exclusion sets, the ``"hops"``
route is the lexicographically smallest of networkx's shortest paths (the
documented tie-break), the ``"loss"`` cost is networkx's weighted shortest
path length, and :class:`NetworkError` is raised exactly when networkx finds
no path through the remaining elements.
"""

from __future__ import annotations

import re

import numpy as np
import pytest

nx = pytest.importorskip("networkx")

from repro.channel.quantum_channel import IdentityChainChannel  # noqa: E402
from repro.exceptions import NetworkError  # noqa: E402
from repro.network.routing import RoutingTable, find_route, link_loss_weight  # noqa: E402
from repro.network.topology import random_geometric_topology  # noqa: E402

SEEDS = range(12)
QUERIES_PER_GRAPH = 12


def _topology(seed: int):
    # Edge noise grows with length, so the loss policy's weights all differ.
    return random_geometric_topology(
        10,
        radius=0.45,
        rng=seed,
        channel_factory=lambda length: IdentityChainChannel(eta=1 + int(200 * length)),
    )


def _queries(topology, seed: int):
    """Endpoints plus random node and link exclusions (endpoints included)."""
    rng = np.random.default_rng(1000 + seed)
    names = topology.node_names
    keys = [link.key for link in topology.links]
    for _ in range(QUERIES_PER_GRAPH):
        source, target = (names[i] for i in rng.choice(len(names), 2, replace=False))
        exclude_nodes = frozenset(
            names[i] for i in rng.choice(len(names), int(rng.integers(0, 4)), replace=False)
        )
        exclude_links = frozenset(
            keys[i] for i in rng.choice(len(keys), int(rng.integers(0, 5)), replace=False)
        )
        yield source, target, exclude_nodes, exclude_links


def _graph(topology, exclude_nodes, exclude_links):
    graph = nx.Graph()
    graph.add_nodes_from(name for name in topology.node_names if name not in exclude_nodes)
    graph.add_edges_from(
        link.key
        for link in topology.links
        if link.key not in exclude_links
        and link.node_a not in exclude_nodes
        and link.node_b not in exclude_nodes
    )
    return graph


def _reachable(graph, source, target) -> bool:
    return source in graph and target in graph and nx.has_path(graph, source, target)


@pytest.mark.parametrize("seed", SEEDS)
def test_hops_route_is_smallest_shortest_path(seed):
    topology = _topology(seed)
    checked = 0
    for source, target, exclude_nodes, exclude_links in _queries(topology, seed):
        graph = _graph(topology, exclude_nodes, exclude_links)
        kwargs = dict(exclude_nodes=exclude_nodes, exclude_links=exclude_links)
        if not _reachable(graph, source, target):
            with pytest.raises(NetworkError):
                find_route(topology, source, target, "hops", **kwargs)
            continue
        route = find_route(topology, source, target, "hops", **kwargs)
        assert list(route.nodes) == min(nx.all_shortest_paths(graph, source, target))
        assert route.cost == route.num_hops
        checked += 1
    assert checked > 0


@pytest.mark.parametrize("seed", SEEDS)
def test_loss_cost_is_weighted_shortest_path_length(seed):
    topology = _topology(seed)

    def weight(node_a, node_b, _data):
        return link_loss_weight(topology.link(node_a, node_b))

    checked = 0
    for source, target, exclude_nodes, exclude_links in _queries(topology, seed):
        graph = _graph(topology, exclude_nodes, exclude_links)
        kwargs = dict(exclude_nodes=exclude_nodes, exclude_links=exclude_links)
        if not _reachable(graph, source, target):
            with pytest.raises(NetworkError):
                find_route(topology, source, target, "loss", **kwargs)
            continue
        route = find_route(topology, source, target, "loss", **kwargs)
        expected = nx.shortest_path_length(graph, source, target, weight=weight)
        assert route.cost == pytest.approx(expected, rel=1e-12)
        path_cost = sum(weight(a, b, None) for a, b in route.hops())
        assert route.cost == pytest.approx(path_cost, rel=1e-12)
        checked += 1
    assert checked > 0


def test_queries_cover_both_outcomes():
    """The seeded exclusion sets leave some pairs connected and cut others."""
    outcomes = set()
    for seed in SEEDS:
        topology = _topology(seed)
        for source, target, exclude_nodes, exclude_links in _queries(topology, seed):
            graph = _graph(topology, exclude_nodes, exclude_links)
            outcomes.add(_reachable(graph, source, target))
    assert outcomes == {True, False}


def test_routing_table_agrees_with_find_route():
    topology = _topology(0)
    table = RoutingTable(topology, policy="loss")
    for source, target, exclude_nodes, exclude_links in _queries(topology, 0):
        kwargs = dict(exclude_nodes=exclude_nodes, exclude_links=exclude_links)
        try:
            expected = find_route(topology, source, target, "loss", **kwargs)
        except NetworkError as error:
            with pytest.raises(NetworkError, match=re.escape(str(error))):
                table.route(source, target, **kwargs)
            continue
        assert table.route(source, target, **kwargs) == expected
