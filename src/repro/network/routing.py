"""Route selection over a network topology.

Trusted-relay QSDC forwards a message hop by hop: each hop runs a full
authenticated protocol session and the relay re-encodes the decoded bits for
the next hop (see :mod:`repro.network.sessions`).  Which hops to use is this
module's job:

* ``"hops"`` — fewest relays (every relay adds protocol overhead and a
  trust assumption);
* ``"loss"`` — lowest accumulated channel loss, weighting each link by
  ``-log(survival_probability)`` of its quantum channel so path loss is
  additive.

Both policies run Dijkstra with a *deterministic* tie-break (lexicographic on
the path's node names), which the scheduler's reproducibility guarantee
relies on: the same topology and endpoints always yield the same route,
regardless of dict iteration quirks or insertion order.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass

from repro.exceptions import NetworkError
from repro.network.topology import NetworkLink, NetworkTopology

__all__ = [
    "ROUTING_POLICIES",
    "Route",
    "link_loss_weight",
    "find_route",
    "RoutingTable",
    "mean_route_hops",
]

#: Routing policies understood by :func:`find_route`.
ROUTING_POLICIES = ("hops", "loss")

#: Numerical floor applied to per-link survival probabilities so that a fully
#: lossy link gets a very large (but finite) weight instead of breaking the
#: comparison with an infinity.
_MIN_SURVIVAL = 1e-12


@dataclass(frozen=True)
class Route:
    """A loop-free path through the network.

    Attributes
    ----------
    nodes:
        The path's node names, source first, target last.
    cost:
        Accumulated Dijkstra cost under the policy that produced the route
        (hop count for ``"hops"``, additive loss for ``"loss"``).
    """

    nodes: tuple[str, ...]
    cost: float = 0.0

    def __post_init__(self):
        if len(self.nodes) < 2:
            raise NetworkError("a route needs at least two nodes")
        if len(set(self.nodes)) != len(self.nodes):
            raise NetworkError(f"route {self.nodes} visits a node twice")

    @property
    def source(self) -> str:
        return self.nodes[0]

    @property
    def target(self) -> str:
        return self.nodes[-1]

    @property
    def num_hops(self) -> int:
        return len(self.nodes) - 1

    @property
    def relays(self) -> tuple[str, ...]:
        """The intermediate (trusted-relay) nodes."""
        return self.nodes[1:-1]

    def hops(self) -> list[tuple[str, str]]:
        """Consecutive ``(sender, receiver)`` pairs along the path."""
        return list(zip(self.nodes[:-1], self.nodes[1:]))


def link_loss_weight(link: NetworkLink) -> float:
    """Additive loss weight of one link: ``-log(survival_probability)``."""
    survival = max(link.quantum_channel.survival_probability(), _MIN_SURVIVAL)
    return -math.log(survival)


def find_route(
    topology: NetworkTopology,
    source: str,
    target: str,
    policy: str = "hops",
    *,
    exclude_nodes: "frozenset[str] | set[str]" = frozenset(),
    exclude_links: "frozenset[tuple[str, str]] | set[tuple[str, str]]" = frozenset(),
) -> Route:
    """Best route from *source* to *target* under the given policy.

    ``exclude_nodes``/``exclude_links`` remove elements from consideration
    (link keys are sorted endpoint pairs) — the re-routing hook the
    scheduler uses to steer sessions around failure windows.  Raises
    :class:`NetworkError` for unknown nodes, unknown policies, or when no
    path exists through the remaining elements.
    """
    if policy not in ROUTING_POLICIES:
        raise NetworkError(f"unknown routing policy {policy!r}; known: {ROUTING_POLICIES}")
    topology.node(source)
    topology.node(target)
    if source == target:
        raise NetworkError("source and target must differ")
    if source in exclude_nodes or target in exclude_nodes:
        raise NetworkError(
            f"no route from {source!r} to {target!r}: an endpoint is unavailable"
        )

    by_hops = policy == "hops"
    # Heap entries are (cost, path); comparing the path tuple on equal cost
    # gives the deterministic lexicographic tie-break.
    frontier: list[tuple[float, tuple[str, ...]]] = [(0.0, (source,))]
    settled: set[str] = set()
    while frontier:
        cost, path = heapq.heappop(frontier)
        current = path[-1]
        if current == target:
            return Route(nodes=path, cost=cost)
        if current in settled:
            continue
        settled.add(current)
        for neighbor in topology.neighbors(current):
            if neighbor in settled or neighbor in exclude_nodes:
                continue
            key = (current, neighbor) if current < neighbor else (neighbor, current)
            if key in exclude_links:
                continue
            weight = 1.0 if by_hops else link_loss_weight(topology.link(current, neighbor))
            heapq.heappush(frontier, (cost + weight, path + (neighbor,)))
    raise NetworkError(f"no route from {source!r} to {target!r}")


class RoutingTable:
    """Memoised route lookup for one topology (the scheduler's view).

    Routes are computed lazily and cached per lookup key, and so are
    failures: a key with no route keeps the :class:`NetworkError` message
    (a string, not the exception, whose traceback would pin the caller's
    frames) and raises it afresh on every repeat.  The topology is assumed
    static for the lifetime of the table (the scheduler builds a fresh table
    per run).
    """

    def __init__(self, topology: NetworkTopology, policy: str = "hops"):
        if policy not in ROUTING_POLICIES:
            raise NetworkError(
                f"unknown routing policy {policy!r}; known: {ROUTING_POLICIES}"
            )
        self.topology = topology
        self.policy = policy
        self._routes: dict[tuple, Route | str] = {}

    def route(
        self,
        source: str,
        target: str,
        *,
        exclude_nodes: "frozenset[str]" = frozenset(),
        exclude_links: "frozenset[tuple[str, str]]" = frozenset(),
    ) -> Route:
        """The (cached) route between two endpoints.

        Exclusion sets participate in the cache key, so availability-aware
        lookups (the dynamics scheduler re-routing around outages) memoise
        per distinct failure pattern; a pattern with no route raises the
        same :class:`NetworkError` message every time, searched once.
        """
        key = (
            source,
            target,
            tuple(sorted(exclude_nodes)),
            tuple(sorted(exclude_links)),
        )
        found = self._routes.get(key)
        if found is None:
            try:
                found = find_route(
                    self.topology,
                    source,
                    target,
                    policy=self.policy,
                    exclude_nodes=frozenset(exclude_nodes),
                    exclude_links=frozenset(exclude_links),
                )
            except NetworkError as error:
                found = str(error)
            self._routes[key] = found
        if isinstance(found, str):
            raise NetworkError(found)
        return found

    def __len__(self) -> int:
        """Memoised lookups, routes and failures alike."""
        return len(self._routes)


def mean_route_hops(topology: NetworkTopology) -> float:
    """Exact mean shortest-hop route length over all ordered node pairs.

    1.0 for a topology with fewer than two nodes (no pair to average).
    """
    names = list(topology.node_names)
    table = RoutingTable(topology)
    total = count = 0
    for source in names:
        for target in names:
            if source != target:
                total += table.route(source, target).num_hops
                count += 1
    return total / count if count else 1.0
