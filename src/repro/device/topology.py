"""Qubit connectivity graphs.

``ibm_brisbane`` uses the 127-qubit heavy-hexagonal ("Eagle") layout: seven
rows of qubits connected in chains, with four bridge qubits between
consecutive rows.  :func:`heavy_hex_coupling_map` reconstructs that layout
(127 nodes, 144 edges, maximum degree 3); :func:`linear_coupling_map` provides
the simple chain used for EPLG-style layered-gate benchmarks.

Graphs are :class:`CouplingMap` values: a qubit count and a set of
undirected edges, enough for the device's size check and coupling queries.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.exceptions import DeviceError

__all__ = [
    "CouplingMap",
    "heavy_hex_coupling_map",
    "linear_coupling_map",
    "EAGLE_NUM_QUBITS",
]

#: Number of qubits of the IBM Eagle (r3) processor family, e.g. ``ibm_brisbane``.
EAGLE_NUM_QUBITS = 127

#: Number of full-length rows in the Eagle heavy-hex layout.
_NUM_ROWS = 7

#: Number of qubit columns in a full row.
_ROW_LENGTH = 15

#: Number of bridge qubits between two consecutive rows.
_BRIDGES_PER_GAP = 4


@dataclass(frozen=True)
class CouplingMap:
    """An undirected coupling graph on qubits ``0 .. num_qubits - 1``.

    ``edges`` holds each coupling once, as ``(lower, higher)``; ``bridges``
    names the heavy-hex layout's bridge qubits (empty for other layouts).
    """

    name: str
    num_qubits: int
    edges: frozenset[tuple[int, int]] = field(repr=False)
    bridges: frozenset[int] = field(default=frozenset(), repr=False)

    def has_edge(self, qubit_a: int, qubit_b: int) -> bool:
        """True if the two qubits are directly coupled."""
        return (min(qubit_a, qubit_b), max(qubit_a, qubit_b)) in self.edges


def heavy_hex_coupling_map() -> CouplingMap:
    """Build the 127-qubit Eagle heavy-hexagonal coupling map.

    Layout (matching the published ``ibm_washington``/``ibm_brisbane`` maps):

    * Row 0 holds qubits for columns 0–13, rows 1–5 hold columns 0–14, and
      row 6 holds columns 1–14, giving ``14 + 5*15 + 14 = 103`` row qubits.
    * Between rows *r* and *r+1* sit four bridge qubits.  For even *r* they
      attach at columns 0, 4, 8 and 12; for odd *r* at columns 2, 6, 10
      and 14.  ``6 * 4 = 24`` bridges bring the total to 127 qubits.
    * Qubits are numbered row by row, interleaving each row with the bridge
      group below it, which reproduces IBM's numbering scheme.
    """
    edges: list[tuple[int, int]] = []
    bridges: list[int] = []
    below: list[tuple[int, int]] = []  # (bridge, column) awaiting the next row
    qubit = 0
    for row in range(_NUM_ROWS):
        columns = _row_columns(row)
        chain = {column: qubit + offset for offset, column in enumerate(columns)}
        qubit += len(columns)
        edges += [(chain[left], chain[right]) for left, right in zip(columns, columns[1:])]
        edges += [(bridge, chain[column]) for bridge, column in below]
        below = []
        if row < _NUM_ROWS - 1:
            for bridge_slot in range(_BRIDGES_PER_GAP):
                column = _bridge_column(row, bridge_slot)
                edges.append((chain[column], qubit))
                below.append((qubit, column))
                bridges.append(qubit)
                qubit += 1
    return CouplingMap("heavy_hex_127", qubit, frozenset(edges), frozenset(bridges))


def _row_columns(row: int) -> list[int]:
    """Columns populated in the given row of the Eagle layout."""
    if row == 0:
        return list(range(0, _ROW_LENGTH - 1))
    if row == _NUM_ROWS - 1:
        return list(range(1, _ROW_LENGTH))
    return list(range(0, _ROW_LENGTH))


def _bridge_column(row: int, bridge_slot: int) -> int:
    """Column at which the given bridge below *row* attaches."""
    offset = 0 if row % 2 == 0 else 2
    return offset + 4 * bridge_slot


def linear_coupling_map(num_qubits: int) -> CouplingMap:
    """A simple 1-D chain of *num_qubits* qubits (used for EPLG-style chains)."""
    if num_qubits < 1:
        raise DeviceError("a coupling map needs at least one qubit")
    edges = frozenset((i, i + 1) for i in range(num_qubits - 1))
    return CouplingMap(f"linear_{num_qubits}", num_qubits, edges)
