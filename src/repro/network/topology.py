"""Network topology: named nodes joined by quantum links.

The paper evaluates one Alice–Bob session over a single emulated channel; a
deployed QSDC service is a *network* — many users, relays and links, each
link with its own length and noise.  :class:`NetworkTopology` is the static
description layer of the network subsystem: an undirected graph of
:class:`NetworkNode` objects joined by :class:`NetworkLink` objects, where
every link carries a private :class:`~repro.channel.quantum_channel.QuantumChannel`
(the hop's noise model).

Nodes model the *resources* of a network site: a qubit capacity (how many
EPR-pair halves the site can hold at once), an optional storage-decoherence
channel for its quantum memory, and an optional attack factory marking the
node as compromised (see :mod:`repro.network.sessions`).

Standard generators build the usual evaluation shapes — line, star, ring,
grid and random geometric graphs — with a pluggable ``channel_factory`` so
every edge's channel can depend on its length.
"""

from __future__ import annotations

import math
from collections.abc import Callable
from dataclasses import dataclass
from typing import Any

from repro.channel.quantum_channel import IdentityChainChannel, QuantumChannel
from repro.exceptions import NetworkError
from repro.quantum.channels import KrausChannel
from repro.utils.rng import as_rng

__all__ = [
    "NetworkNode",
    "NetworkLink",
    "NetworkTopology",
    "line_topology",
    "ring_topology",
    "star_topology",
    "grid_topology",
    "random_geometric_topology",
    "build_topology",
]

#: Signature of per-edge channel factories: ``factory(length) -> QuantumChannel``.
ChannelFactory = Callable[[float], QuantumChannel]


def _default_channel_factory(length: float) -> QuantumChannel:
    """The paper's η=10 identity-gate channel, independent of edge length."""
    return IdentityChainChannel(eta=10)


@dataclass
class NetworkNode:
    """One network site (user terminal or trusted relay).

    Attributes
    ----------
    name:
        Unique node identifier.
    qubit_capacity:
        Maximum number of EPR-pair halves the node can hold simultaneously
        (``None`` = unlimited).  The scheduler enforces this during admission.
    memory_decoherence:
        Optional single-qubit Kraus channel its quantum memory applies per
        stored time unit (``None`` = ideal memory, the paper's assumption).
        Every hop this node sends on runs with it as the protocol's memory
        decoherence; a session's first hop holds for its queueing delay.
    attack_factory:
        When set, the node is *compromised*: sessions traversing it run
        under ``attack_factory(rng)`` — any :class:`repro.attacks.base.Attack`
        builder (e.g. a malicious relay mounting intercept-resend on the
        pairs it forwards).
    position:
        Optional 2-D coordinates (set by the geometric generator).
    """

    name: str
    qubit_capacity: int | None = None
    memory_decoherence: KrausChannel | None = None
    attack_factory: Callable[..., Any] | None = None
    position: tuple[float, float] | None = None

    def __post_init__(self):
        if not self.name:
            raise NetworkError("nodes need a non-empty name")
        if self.qubit_capacity is not None and self.qubit_capacity < 1:
            raise NetworkError(
                f"node {self.name!r}: qubit_capacity must be positive or None"
            )
        if self.memory_decoherence is not None and self.memory_decoherence.num_qubits != 1:
            raise NetworkError(
                f"node {self.name!r}: memory decoherence must be a single-qubit channel"
            )

    @property
    def compromised(self) -> bool:
        """True if the node mounts an attack on sessions traversing it."""
        return self.attack_factory is not None


@dataclass
class NetworkLink:
    """An undirected edge carrying one quantum channel.

    Attributes
    ----------
    node_a, node_b:
        Endpoint names (stored in sorted order so ``(u, v)`` and ``(v, u)``
        address the same link).
    quantum_channel:
        The hop's transmission noise model.
    length:
        Edge length in arbitrary distance units (euclidean distance for the
        geometric generator, 1.0 elsewhere).
    """

    node_a: str
    node_b: str
    quantum_channel: QuantumChannel
    length: float = 1.0

    def __post_init__(self):
        if self.node_a == self.node_b:
            raise NetworkError(f"self-loop on node {self.node_a!r}")
        if self.length < 0:
            raise NetworkError("link length must be non-negative")
        if self.node_b < self.node_a:
            self.node_a, self.node_b = self.node_b, self.node_a

    @property
    def key(self) -> tuple[str, str]:
        """Canonical (sorted) endpoint pair identifying the link."""
        return (self.node_a, self.node_b)


class NetworkTopology:
    """An undirected multi-user network graph (no parallel edges)."""

    def __init__(self, name: str = "network"):
        self.name = name
        self._nodes: dict[str, NetworkNode] = {}
        self._links: dict[tuple[str, str], NetworkLink] = {}
        #: Sorted neighbour names per node, rebuilt by :meth:`add_link`.
        self._adjacency: dict[str, tuple[str, ...]] = {}

    # -- construction ----------------------------------------------------------------
    def add_node(self, node: "NetworkNode | str", **attributes: Any) -> NetworkNode:
        """Add a node (by object or by name plus :class:`NetworkNode` kwargs)."""
        if isinstance(node, str):
            node = NetworkNode(name=node, **attributes)
        elif attributes:
            raise NetworkError("pass attributes only when adding a node by name")
        if node.name in self._nodes:
            raise NetworkError(f"node {node.name!r} already exists")
        self._nodes[node.name] = node
        self._adjacency[node.name] = ()
        return node

    def add_link(
        self,
        node_a: str,
        node_b: str,
        quantum_channel: QuantumChannel | None = None,
        length: float = 1.0,
    ) -> NetworkLink:
        """Join two existing nodes (default channel: the paper's η=10 chain)."""
        for name in (node_a, node_b):
            if name not in self._nodes:
                raise NetworkError(f"cannot link unknown node {name!r}")
        link = NetworkLink(
            node_a=node_a,
            node_b=node_b,
            quantum_channel=quantum_channel or _default_channel_factory(length),
            length=length,
        )
        if link.key in self._links:
            raise NetworkError(f"link {link.key} already exists")
        self._links[link.key] = link
        for name, other in ((link.node_a, link.node_b), (link.node_b, link.node_a)):
            self._adjacency[name] = tuple(sorted((*self._adjacency[name], other)))
        return link

    def compromise(
        self, name: str, attack_factory: Callable[..., Any]
    ) -> NetworkNode:
        """Mark *name* as compromised: sessions through it run under the attack."""
        node = self.node(name)
        if not callable(attack_factory):
            raise NetworkError("attack_factory must be callable (rng -> Attack)")
        node.attack_factory = attack_factory
        return node

    # -- lookup ----------------------------------------------------------------------
    @property
    def node_names(self) -> list[str]:
        """All node names in insertion order."""
        return list(self._nodes)

    @property
    def links(self) -> list[NetworkLink]:
        """All links in insertion order."""
        return list(self._links.values())

    @property
    def num_nodes(self) -> int:
        return len(self._nodes)

    @property
    def num_links(self) -> int:
        return len(self._links)

    def node(self, name: str) -> NetworkNode:
        """Look up a node by name."""
        if name not in self._nodes:
            raise NetworkError(f"unknown node {name!r}; known: {sorted(self._nodes)}")
        return self._nodes[name]

    def link(self, node_a: str, node_b: str) -> NetworkLink:
        """Look up the link joining two nodes."""
        key = tuple(sorted((node_a, node_b)))
        if key not in self._links:
            raise NetworkError(f"no link between {node_a!r} and {node_b!r}")
        return self._links[key]

    def neighbors(self, name: str) -> list[str]:
        """Sorted neighbour names of *name*."""
        if name not in self._adjacency:
            self.node(name)  # raises the unknown-node error
        return list(self._adjacency[name])

    def compromised_nodes(self) -> list[str]:
        """Names of every compromised node, in insertion order."""
        return [name for name, node in self._nodes.items() if node.compromised]

    # -- analysis --------------------------------------------------------------------
    def is_connected(self) -> bool:
        """True if every node is reachable from every other node."""
        if not self._nodes:
            return True
        seen = {next(iter(self._nodes))}
        frontier = list(seen)
        while frontier:
            current = frontier.pop()
            for neighbor in self.neighbors(current):
                if neighbor not in seen:
                    seen.add(neighbor)
                    frontier.append(neighbor)
        return len(seen) == len(self._nodes)

    def __repr__(self) -> str:
        return (
            f"NetworkTopology(name={self.name!r}, nodes={self.num_nodes}, "
            f"links={self.num_links})"
        )


# -- generators ------------------------------------------------------------------------
def _new_topology(
    name: str, num_nodes: int, node_kwargs: dict[str, Any]
) -> NetworkTopology:
    if num_nodes < 2:
        raise NetworkError("a network needs at least two nodes")
    topology = NetworkTopology(name=name)
    for index in range(num_nodes):
        topology.add_node(f"n{index}", **node_kwargs)
    return topology


def line_topology(
    num_nodes: int,
    channel_factory: ChannelFactory | None = None,
    **node_kwargs: Any,
) -> NetworkTopology:
    """A chain ``n0 — n1 — … — n{k-1}`` (every interior node is a relay)."""
    factory = channel_factory or _default_channel_factory
    topology = _new_topology(f"line{num_nodes}", num_nodes, node_kwargs)
    for index in range(num_nodes - 1):
        topology.add_link(f"n{index}", f"n{index + 1}", factory(1.0))
    return topology


def ring_topology(
    num_nodes: int,
    channel_factory: ChannelFactory | None = None,
    **node_kwargs: Any,
) -> NetworkTopology:
    """A cycle: the line topology plus the closing ``n{k-1} — n0`` edge."""
    if num_nodes < 3:
        raise NetworkError("a ring needs at least three nodes")
    factory = channel_factory or _default_channel_factory
    topology = _new_topology(f"ring{num_nodes}", num_nodes, node_kwargs)
    for index in range(num_nodes):
        topology.add_link(f"n{index}", f"n{(index + 1) % num_nodes}", factory(1.0))
    return topology


def star_topology(
    num_nodes: int,
    channel_factory: ChannelFactory | None = None,
    **node_kwargs: Any,
) -> NetworkTopology:
    """A hub-and-spoke graph: ``n0`` is the hub relay, all others are leaves."""
    factory = channel_factory or _default_channel_factory
    topology = _new_topology(f"star{num_nodes}", num_nodes, node_kwargs)
    for index in range(1, num_nodes):
        topology.add_link("n0", f"n{index}", factory(1.0))
    return topology


def grid_topology(
    rows: int,
    cols: int,
    channel_factory: ChannelFactory | None = None,
    **node_kwargs: Any,
) -> NetworkTopology:
    """A ``rows × cols`` lattice with 4-neighbour connectivity.

    Nodes are named ``n{r}_{c}``; this is the workhorse shape of the
    ``network_scale`` experiment (metro-network-like path diversity).
    """
    if rows < 1 or cols < 1 or rows * cols < 2:
        raise NetworkError("a grid needs at least two nodes")
    factory = channel_factory or _default_channel_factory
    topology = NetworkTopology(name=f"grid{rows}x{cols}")
    for row in range(rows):
        for col in range(cols):
            topology.add_node(f"n{row}_{col}", **node_kwargs)
    for row in range(rows):
        for col in range(cols):
            if col + 1 < cols:
                topology.add_link(f"n{row}_{col}", f"n{row}_{col + 1}", factory(1.0))
            if row + 1 < rows:
                topology.add_link(f"n{row}_{col}", f"n{row + 1}_{col}", factory(1.0))
    return topology


def random_geometric_topology(
    num_nodes: int,
    radius: float = 0.4,
    rng: Any = None,
    channel_factory: ChannelFactory | None = None,
    **node_kwargs: Any,
) -> NetworkTopology:
    """Nodes scattered uniformly in the unit square, linked when within *radius*.

    Link lengths are euclidean distances, so a length-aware
    ``channel_factory`` makes edge noise grow with distance.  The graph is
    deterministic for a given seed.  If the radius graph comes out
    disconnected, the closest pair of nodes across components is linked until
    the graph is connected (deterministic augmentation), so the generator
    always returns a usable network.
    """
    if num_nodes < 2:
        raise NetworkError("a network needs at least two nodes")
    if radius <= 0:
        raise NetworkError("radius must be positive")
    factory = channel_factory or _default_channel_factory
    generator = as_rng(rng)
    topology = NetworkTopology(name=f"geometric{num_nodes}")
    positions: dict[str, tuple[float, float]] = {}
    for index in range(num_nodes):
        position = (float(generator.random()), float(generator.random()))
        positions[f"n{index}"] = position
        topology.add_node(f"n{index}", position=position, **node_kwargs)

    def distance(a: str, b: str) -> float:
        (ax, ay), (bx, by) = positions[a], positions[b]
        return math.hypot(ax - bx, ay - by)

    names = list(positions)
    for i, a in enumerate(names):
        for b in names[i + 1:]:
            separation = distance(a, b)
            if separation <= radius:
                topology.add_link(a, b, factory(separation), length=separation)

    while not topology.is_connected():
        component = {names[0]}
        frontier = [names[0]]
        while frontier:
            for neighbor in topology.neighbors(frontier.pop()):
                if neighbor not in component:
                    component.add(neighbor)
                    frontier.append(neighbor)
        candidates = [
            (distance(a, b), a, b)
            for a in sorted(component)
            for b in names
            if b not in component
        ]
        separation, a, b = min(candidates)
        topology.add_link(a, b, factory(separation), length=separation)
    return topology


def build_topology(kind: str, **kwargs: Any) -> NetworkTopology:
    """Build a topology by generator name (used by the experiment CLI)."""
    generators: dict[str, Callable[..., NetworkTopology]] = {
        "line": line_topology,
        "ring": ring_topology,
        "star": star_topology,
        "grid": grid_topology,
        "geometric": random_geometric_topology,
    }
    if kind not in generators:
        raise NetworkError(f"unknown topology kind {kind!r}; known: {sorted(generators)}")
    return generators[kind](**kwargs)
