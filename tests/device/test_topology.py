"""Unit tests for the heavy-hex and linear coupling maps."""

from __future__ import annotations

from collections import Counter

import pytest

from repro.device.topology import (
    EAGLE_NUM_QUBITS,
    CouplingMap,
    heavy_hex_coupling_map,
    linear_coupling_map,
)
from repro.exceptions import DeviceError


def _degrees(graph: CouplingMap) -> Counter:
    degrees = Counter({qubit: 0 for qubit in range(graph.num_qubits)})
    degrees.update(qubit for edge in graph.edges for qubit in edge)
    return degrees


def _is_connected(graph: CouplingMap) -> bool:
    """Connectivity, answered by networkx as an independent oracle."""
    nx = pytest.importorskip("networkx")
    oracle = nx.Graph(list(graph.edges))
    oracle.add_nodes_from(range(graph.num_qubits))
    return nx.is_connected(oracle)


class TestHeavyHex:
    @pytest.fixture(scope="class")
    def graph(self) -> CouplingMap:
        return heavy_hex_coupling_map()

    def test_has_127_qubits(self, graph):
        assert graph.num_qubits == EAGLE_NUM_QUBITS == 127

    def test_has_144_couplings(self, graph):
        assert len(graph.edges) == 144

    def test_edges_are_ordered_pairs_of_distinct_qubits(self, graph):
        assert all(0 <= low < high < graph.num_qubits for low, high in graph.edges)

    def test_is_connected(self, graph):
        assert _is_connected(graph)

    def test_max_degree_is_three(self, graph):
        degrees = _degrees(graph).values()
        assert max(degrees) == 3
        assert min(degrees) >= 1

    def test_bridge_qubits_have_degree_two(self, graph):
        degrees = _degrees(graph)
        assert len(graph.bridges) == 24
        assert all(degrees[b] == 2 for b in graph.bridges)

    def test_row_zero_chain(self, graph):
        # Qubits 0..13 form the first row and are chained consecutively.
        for left in range(13):
            assert graph.has_edge(left, left + 1)

    def test_known_bridge_edges(self, graph):
        # The first bridge (qubit 14) links qubit 0 (row 0) and qubit 18 (row 1),
        # matching IBM's published Eagle numbering.
        assert graph.has_edge(14, 0)
        assert graph.has_edge(14, 18)
        assert graph.has_edge(0, 14)

    def test_bridges_and_rows_partition_the_qubits(self, graph):
        assert graph.bridges < set(range(graph.num_qubits))
        assert graph.num_qubits - len(graph.bridges) == 103


class TestLinearChain:
    def test_chain_structure(self):
        graph = linear_coupling_map(5)
        assert graph.num_qubits == 5
        assert len(graph.edges) == 4
        assert graph.has_edge(3, 4) and not graph.has_edge(0, 2)

    def test_chain_is_connected(self):
        assert _is_connected(linear_coupling_map(5))

    def test_single_qubit_chain(self):
        graph = linear_coupling_map(1)
        assert graph.num_qubits == 1
        assert len(graph.edges) == 0

    def test_rejects_empty_chain(self):
        with pytest.raises(DeviceError):
            linear_coupling_map(0)
